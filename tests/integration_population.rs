//! Integration gates for the aggregate client-population subsystem:
//! worker-count-independent flash-crowd TSVs, chaos-oracle conservation
//! over batched traffic, sabotage proving the oracle stays live when
//! the traffic arrives in batches, crash-exemption for aggregate
//! nodes, and the wall-clock advantage over per-client simulation.

use netlock_bench::chaos::{
    build_population_chaos_rack, run_chaos_seed, run_chaos_seed_with, ChaosWorkload, Sabotage,
};
use netlock_bench::flash_crowd::{self, FlashCrowdSpec};
use netlock_core::prelude::*;
use netlock_sim::{FaultAction, SimDuration};

/// The flash-crowd TSV is a pure function of the spec: partitioning
/// the racks across 1, 2 or 8 worker threads must not change a byte.
#[test]
fn flash_crowd_tsv_is_byte_identical_at_1_2_and_8_workers() {
    let spec = FlashCrowdSpec {
        virtual_clients: 80_000,
        racks: 8,
        ..FlashCrowdSpec::quick()
    };
    let one = flash_crowd::render(&spec, 1);
    assert!(one.lines().count() > spec.racks, "series rendered empty");
    assert_eq!(one, flash_crowd::render(&spec, 2), "2 workers diverged");
    assert_eq!(one, flash_crowd::render(&spec, 8), "8 workers diverged");
}

/// Seeded fault schedules over the population rack: every run clean
/// under the oracle — grant/release conservation holds even though
/// requests, grants and releases all travel as batches — and the runs
/// collectively exercise the fault machinery.
#[test]
fn population_chaos_seeds_stay_clean() {
    let mut lost = 0;
    let mut duplicated = 0;
    for seed in 0..8 {
        let r = run_chaos_seed(ChaosWorkload::Population, seed);
        assert!(
            r.is_clean(),
            "population/{seed} violated:\n{:?}",
            r.violations
        );
        assert!(r.plan_events > 0, "population/{seed} had no faults");
        assert!(r.grants > 0, "population/{seed} made no progress");
        assert!(
            r.guard_over_granted.is_empty(),
            "population/{seed} guard outgrew its holders: {:?}",
            r.guard_over_granted
        );
        lost += r.net_lost;
        duplicated += r.net_duplicated;
    }
    assert!(lost > 50, "schedules must drop packets: {lost}");
    assert!(
        duplicated > 50,
        "schedules must duplicate packets: {duplicated}"
    );
}

/// The population run's oracle audit log is a pure function of the
/// seed, on this thread and any other.
#[test]
fn population_chaos_audit_is_byte_identical_across_threads() {
    let here = run_chaos_seed(ChaosWorkload::Population, 5).audit;
    assert_eq!(
        here,
        run_chaos_seed(ChaosWorkload::Population, 5).audit,
        "replay diverged"
    );
    let threads: Vec<_> = (0..2)
        .map(|_| std::thread::spawn(|| run_chaos_seed(ChaosWorkload::Population, 5).audit))
        .collect();
    for t in threads {
        assert_eq!(
            here,
            t.join().expect("thread panicked"),
            "cross-thread run diverged"
        );
    }
}

/// Sabotage: with the switch's release guard off, duplicated releases
/// from the aggregate double-pop the exclusive tenant's FCFS queue.
/// Some probe seed must trip the oracle — batching the traffic must
/// not blind the conservation/mutual-exclusion checks.
#[test]
fn release_guard_sabotage_is_caught_under_population_traffic() {
    let sabotage = Sabotage {
        disable_release_guard: true,
        ..Default::default()
    };
    let mut caught = Vec::new();
    for seed in 0..12 {
        let r = run_chaos_seed_with(ChaosWorkload::Population, seed, sabotage);
        if !r.is_clean() {
            caught = r.violations;
            break;
        }
    }
    assert!(
        !caught.is_empty(),
        "no probe seed tripped the oracle with the release guard off"
    );
}

/// The plan generator never crashes an aggregate node — one `FailNode`
/// would atomically kill the whole virtual population — even when the
/// config allows client crashes. Its links may still fail.
#[test]
fn fault_plans_never_crash_aggregate_nodes() {
    let rack = build_population_chaos_rack(1);
    let roles = rack.roles();
    assert!(!roles.aggregates.is_empty(), "rack has no aggregate node");
    let cfg = ChaosPlanConfig {
        start: SimDuration::from_millis(1),
        settle_by: SimDuration::from_millis(20),
        episodes: 12,
        max_episode: SimDuration::from_millis(3),
        switch_outage_min: SimDuration::from_micros(2_500),
        client_crash: true,
    };
    for seed in 0..16 {
        let plan = generate_plan(seed, &roles, &cfg);
        for ev in plan.events() {
            if let FaultAction::FailNode(id) = ev.action {
                assert!(
                    !roles.aggregates.contains(&id),
                    "seed {seed} crashes aggregate node {id:?}"
                );
            }
        }
    }
}

/// The headline perf gate, held far below the measured ratio so box
/// noise cannot flake it: the aggregate build of the 100K-client
/// shared-queue scenario must beat the equivalent 400-node individual
///-client build by at least 3x wall clock. The measured ratio on an
/// unloaded core is ~9-11x (see EXPERIMENTS.md); run with
/// `-- --nocapture` to print it.
#[test]
fn aggregate_population_beats_individual_clients_by_3x() {
    let (agg, ind, requests) =
        flash_crowd::speedup_point(100_000, 20.0, 400, SimDuration::from_millis(100), 90);
    eprintln!(
        "aggregate {agg:.3}s, individual {ind:.3}s, speedup {:.1}x, {requests} requests",
        ind / agg.max(1e-12)
    );
    assert!(
        requests > 100_000,
        "scenario too small: {requests} requests"
    );
    assert!(
        agg * 3.0 < ind,
        "aggregate {agg:.3}s vs individual {ind:.3}s: ratio {:.1}x below gate",
        ind / agg
    );
}

/// One-RTT racks (§4.1) send every grant through a database server,
/// batched or not: the grants an aggregate's batches win at a rack with
/// one database server leave the switch as `DbFetch`es only, never as a
/// coalesced `GrantBatch` or a bare `Grant`, and reach the population
/// as `DbReply`s.
#[test]
fn one_rtt_rack_fetches_every_batched_grant_through_the_db_server() {
    use netlock_proto::{LockId, NetLockMsg};
    use netlock_sim::{NodeId, TapEvent};
    use std::sync::{Arc, Mutex};

    let mut rack = Rack::build(RackConfig {
        seed: 53,
        lock_servers: 1,
        db_servers: 1,
        ..Default::default()
    });
    let locks: Vec<LockId> = (0..64).map(LockId).collect();
    let stats = LockStats::uniform(locks.iter().copied(), 64, 1);
    rack.program(&knapsack_allocate(&stats, 100_000));
    let population = rack.add_population_client(PopulationConfig {
        tenants: vec![TenantSpec {
            virtual_clients: 20_000,
            locks,
            ..TenantSpec::default()
        }],
        ..PopulationConfig::default()
    });
    // (DbFetch, GrantBatch, Grant) the switch sent.
    let sent = Arc::new(Mutex::new((0u64, 0u64, 0u64)));
    let tap_sent = Arc::clone(&sent);
    let switch: NodeId = rack.switch;
    rack.sim.set_lp_tap(
        0,
        Box::new(move |ev| {
            if let TapEvent::Sent { src, payload, .. } = ev {
                if src == switch {
                    let mut s = tap_sent.lock().unwrap();
                    match payload {
                        NetLockMsg::DbFetch { .. } => s.0 += 1,
                        NetLockMsg::GrantBatch(_) => s.1 += 1,
                        NetLockMsg::Grant(_) => s.2 += 1,
                        _ => {}
                    }
                }
            }
        }),
    );
    rack.sim.run_for(SimDuration::from_millis(5));
    let pop = rack
        .sim
        .read_node::<PopulationClient, _>(population, |p| p.stats());
    let node = rack
        .sim
        .read_node::<netlock_switch::SwitchNode, _>(switch, |s| s.stats());
    let (fetches, batches, grants) = *sent.lock().unwrap();
    assert!(
        pop.issued > 2 * pop.batches_sent,
        "the aggregate must batch: {pop:?}"
    );
    assert!(fetches > 1_000, "{fetches} grants fetched");
    assert_eq!((batches, grants), (0, 0), "grants bypassed the db server");
    assert_eq!(node.grants_to_db, fetches);
    assert_eq!(node.grants_sent, 0);
    assert!(
        pop.grants > 0 && pop.grants <= fetches,
        "{} grants arrived of {fetches} fetched",
        pop.grants
    );
}

//! The chaos suite's integration gate: seeded random fault schedules
//! over both rack flavors with the lock-safety oracle attached, plus
//! the targeted regression tests for the hazards the chaos runs keep
//! probing (stale retry timers, duplicated grants, the lease-sweeper
//! release race) and sabotage runs proving the oracle is live.

use netlock_bench::chaos::{run_chaos_seed, run_chaos_seed_with, ChaosWorkload, Sabotage};
use netlock_core::prelude::*;
use netlock_proto::{
    ClientAddr, LockId, LockMode, LockRequest, NetLockMsg, Priority, ReleaseRequest, TenantId,
    TxnId,
};
use netlock_switch::SwitchNode;

/// The headline acceptance gate: 32 seeded fault schedules (16 per
/// rack flavor), every one clean under the oracle.
#[test]
fn thirty_two_seeded_schedules_stay_clean() {
    let runs = netlock_bench::chaos::run_suite(16);
    assert_eq!(runs.len(), 32);
    for r in &runs {
        assert!(
            r.is_clean(),
            "{}/{} violated:\n{}",
            r.workload.label(),
            r.seed,
            netlock_bench::chaos::render(std::slice::from_ref(r)),
        );
        assert!(
            r.plan_events > 0,
            "{}/{} had no faults",
            r.workload.label(),
            r.seed
        );
        // Every outstanding grant is a granted slot: no region ends
        // with more credits than holders.
        assert!(
            r.guard_over_granted.is_empty(),
            "{}/{} guard outgrew its holders: {:?}",
            r.workload.label(),
            r.seed,
            r.guard_over_granted
        );
    }
    // The suite as a whole must actually have exercised the fault
    // machinery, not dodged it.
    let lost: u64 = runs.iter().map(|r| r.net_lost).sum();
    let dup: u64 = runs.iter().map(|r| r.net_duplicated).sum();
    let restarts: usize = runs.iter().map(|r| r.restarts).sum();
    assert!(lost > 100, "schedules must drop packets: {lost}");
    assert!(dup > 100, "schedules must duplicate packets: {dup}");
    assert!(
        restarts > 0,
        "schedules must reboot/restart nodes: {restarts}"
    );
}

/// Regression: on TPC-C seed 19 out-of-order shared releases and a
/// lease sweep left a credit without a slot, a lease-expired holder's
/// late release spent it, and its blind dequeue removed the live head
/// (lock 25, `MutualExclusion` at 7 475 550 ns). A forced dequeue now
/// spends a credit as every other dequeue does.
#[test]
fn tpcc_seed_19_stray_credit_stays_clean() {
    let r = run_chaos_seed(ChaosWorkload::Tpcc, 19);
    assert!(
        r.is_clean() && r.guard_over_granted.is_empty(),
        "tpcc/19 violated:\n{}{:?}",
        netlock_bench::chaos::render(std::slice::from_ref(&r)),
        r.violations,
    );
}

/// The wide sweep: seeds 0–255 of all three rack flavors, every run
/// clean and no guard holding more credits than holders. About 80 s of
/// release build on one core, so it runs as its own CI job:
/// `cargo test --release --test integration_chaos wide_sweep -- --ignored`.
#[test]
#[ignore = "768 chaos runs; CI runs it in a release-build job of its own"]
fn wide_sweep_of_256_seeds_per_workload_stays_clean() {
    let mut dirty = Vec::new();
    for workload in [
        ChaosWorkload::Micro,
        ChaosWorkload::Tpcc,
        ChaosWorkload::Population,
    ] {
        for seed in 0..256 {
            let r = run_chaos_seed(workload, seed);
            if !r.is_clean() || !r.guard_over_granted.is_empty() {
                dirty.push(format!(
                    "{}/{seed}: {:?} {:?}",
                    workload.label(),
                    r.violations,
                    r.guard_over_granted
                ));
            }
        }
    }
    assert!(
        dirty.is_empty(),
        "{} runs violated:\n{}",
        dirty.len(),
        dirty.join("\n")
    );
}

/// Identical `(workload, seed)` must produce a byte-identical oracle
/// audit log — on this thread, and on any other thread.
#[test]
fn audit_log_is_byte_identical_across_runs_and_threads() {
    for workload in [ChaosWorkload::Micro, ChaosWorkload::Tpcc] {
        let here = run_chaos_seed(workload, 7).audit;
        let again = run_chaos_seed(workload, 7).audit;
        assert_eq!(here, again, "{} replay diverged", workload.label());
        let threads: Vec<_> = (0..2)
            .map(|_| std::thread::spawn(move || run_chaos_seed(workload, 7).audit))
            .collect();
        for t in threads {
            assert_eq!(
                here,
                t.join().expect("thread panicked"),
                "{} cross-thread run diverged",
                workload.label()
            );
        }
    }
}

/// Sabotage: with the switch's release guard disabled, duplicated or
/// stale releases double-pop FCFS queues. Some seed in the probe set
/// must produce an oracle violation — proving the mutual-exclusion
/// check is live, not vacuously green.
#[test]
fn oracle_catches_disabled_release_guard() {
    let sabotage = Sabotage {
        disable_release_guard: true,
        ..Default::default()
    };
    let mut caught = Vec::new();
    for seed in 0..12 {
        let r = run_chaos_seed_with(ChaosWorkload::Tpcc, seed, sabotage);
        if !r.is_clean() {
            caught = r.violations;
            break;
        }
    }
    assert!(
        !caught.is_empty(),
        "no probe seed tripped the oracle with the release guard off"
    );
    assert!(
        caught
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::MutualExclusion)),
        "expected a mutual-exclusion violation, got: {caught:?}"
    );
}

/// Sabotage: with the clients' surplus-grant release disabled, grants
/// for finished transactions are swallowed and their queue entries
/// strand. The oracle must flag the leak (as a leaked hold, a wedged
/// waiter behind it, or a conservation break).
#[test]
fn oracle_catches_disabled_surplus_release() {
    let sabotage = Sabotage {
        disable_surplus_release: true,
        ..Default::default()
    };
    let mut caught = Vec::new();
    for seed in 0..12 {
        let r = run_chaos_seed_with(ChaosWorkload::Tpcc, seed, sabotage);
        if !r.is_clean() {
            caught = r.violations;
            break;
        }
    }
    assert!(
        !caught.is_empty(),
        "no probe seed tripped the oracle with surplus release off"
    );
}

fn contended_rack() -> (Rack, Allocation) {
    let mut rack = Rack::build(RackConfig {
        seed: 23,
        lock_servers: 2,
        ..Default::default()
    });
    let stats = LockStats::uniform((0..8).map(LockId), 16, 2);
    let alloc = knapsack_allocate(&stats, 100_000);
    rack.program(&alloc);
    (rack, alloc)
}

/// Satellite: the surplus-grant release path under *forced* (p = 1)
/// duplication on both directions of a client's links. Every acquire,
/// grant and release crosses the wire twice; the client must ignore
/// network-duplicate grants, release retry duplicates exactly once,
/// and the switch's release guard must absorb the duplicated releases
/// — all without the oracle seeing a single violation.
#[test]
fn duplicated_grants_are_released_exactly_once() {
    let (mut rack, _alloc) = contended_rack();
    let switch = rack.switch;
    let client = rack.add_txn_client(
        TxnClientConfig {
            workers: 4,
            retry_timeout: SimDuration::from_millis(5),
            ..Default::default()
        },
        Box::new(SingleLockSource {
            locks: (0..8).map(LockId).collect(),
            mode: LockMode::Exclusive,
            think: SimDuration::from_micros(10),
        }),
    );
    for (src, dst) in [(client, switch), (switch, client)] {
        let mut cfg = rack.sim.topology().link(src, dst);
        cfg.faults.duplicate = 1.0;
        rack.sim.topology_mut().set_link(src, dst, cfg);
    }
    let oracles = attach_rack_oracles(
        &mut rack.sim,
        std::slice::from_ref(&rack.nodes),
        &OracleConfig::default(),
    );
    let oracle = &oracles[0];
    rack.sim.run_for(SimDuration::from_millis(50));
    oracle.lock().unwrap().finish(rack.sim.now().as_nanos());

    let stats = rack
        .sim
        .read_node::<TxnClient, _>(client, |c| c.stats().clone());
    assert!(
        stats.txns > 100,
        "progress under duplication: {}",
        stats.txns
    );
    assert!(
        stats.dup_grants_ignored > 0,
        "same-stamp duplicate grants must be dropped, not released"
    );
    assert!(
        stats.stale_grants > 0,
        "duplicate queue entries must be shed via surplus releases"
    );
    let filtered = rack
        .sim
        .read_node::<SwitchNode, _>(switch, |s| s.stats().stale_releases_filtered);
    assert!(
        filtered > 0,
        "duplicated releases must be filtered by the release guard"
    );
    let o = oracle.lock().unwrap();
    assert!(
        o.is_clean(),
        "oracle must stay clean under forced duplication:\n{}",
        o.audit_log()
    );
    assert!(
        o.counts().dup_grant_deliveries > 0,
        "duplicates must have flowed"
    );
}

/// Satellite regression: a retry timer armed for one phase must never
/// fire into a later phase (the generation guard documented in
/// `client_txn.rs`). The retry timeout is tuned just above the
/// grant round-trip, so after every grant a stale timer is pending;
/// if the guard broke, each would double-issue an acquire and the
/// duplicate-entry grants would show up as retries/surplus releases.
#[test]
fn stale_retry_timer_never_double_issues() {
    let (mut rack, _alloc) = contended_rack();
    let a = netlock_core::txn::LockNeed {
        lock: LockId(0),
        mode: LockMode::Exclusive,
    };
    let b = netlock_core::txn::LockNeed {
        lock: LockId(1),
        mode: LockMode::Exclusive,
    };
    let think = SimDuration::from_micros(5);
    let src = move |_rng: &mut netlock_sim::SimRng| {
        netlock_core::txn::Transaction::new_ordered(vec![a, b], think)
    };
    // Round trip ≈ client stack + 2 × link + traversal ≈ 5 µs; every
    // transition happens with ~3 µs left on the armed retry timer.
    let client = rack.add_txn_client(
        TxnClientConfig {
            workers: 1,
            retry_timeout: SimDuration::from_micros(8),
            ..Default::default()
        },
        Box::new(src),
    );
    rack.sim.run_for(SimDuration::from_millis(50));
    let stats = rack
        .sim
        .read_node::<TxnClient, _>(client, |c| c.stats().clone());
    assert!(
        stats.txns > 100,
        "single worker must make progress: {}",
        stats.txns
    );
    assert_eq!(
        stats.retries, 0,
        "no packet was lost, so every retry is a stale timer firing"
    );
    assert_eq!(
        stats.stale_grants, 0,
        "a double-issued acquire would produce surplus grants"
    );
    assert_eq!(stats.dup_grants_ignored, 0);
}

/// Satellite regression: the lease-sweeper race. A holder's release
/// that arrives in the same sweep window as its lease expiry must not
/// pop the *next* holder's queue entry: the sweeper consumes the
/// grant's release credit when it force-frees the entry, so the late
/// release is filtered as stale and the new holder keeps the lock.
#[test]
fn release_racing_lease_sweep_cannot_free_live_holder() {
    use netlock_sim::{Context, Node, Packet, Simulator};
    use netlock_switch::control::apply_allocation;
    use netlock_switch::shared_queue::SharedQueueLayout;
    use netlock_switch::{DataPlane, SwitchConfig};

    struct Recorder(Vec<(u64, u64)>);
    impl Node<NetLockMsg> for Recorder {
        fn on_packet(&mut self, pkt: Packet<NetLockMsg>, ctx: &mut Context<'_, NetLockMsg>) {
            if let NetLockMsg::Grant(g) = pkt.payload {
                self.0.push((ctx.now().as_nanos(), g.txn.0));
            }
        }
        fn on_timer(&mut self, _t: u64, _c: &mut Context<'_, NetLockMsg>) {}
    }

    let lock = LockId(0);
    let mut dp = DataPlane::new_fcfs(&SharedQueueLayout::small(2, 32, 4));
    apply_allocation(
        &mut dp,
        &knapsack_allocate(
            &[LockStats {
                lock,
                rate: 1.0,
                contention: 16,
                home_server: 0,
            }],
            16,
        ),
    );
    let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(17);
    let client = sim.add_node(Box::new(Recorder(Vec::new())));
    let switch = sim.add_node(Box::new(SwitchNode::new(
        dp,
        SwitchConfig {
            lease: SimDuration::from_millis(1),
            control_tick: SimDuration::from_micros(100),
        },
        vec![],
    )));
    let acq = |txn: u64, issued_at_ns: u64| {
        NetLockMsg::Acquire(LockRequest {
            lock,
            mode: LockMode::Exclusive,
            txn: TxnId(txn),
            client: ClientAddr(client.0),
            tenant: TenantId(0),
            priority: Priority(0),
            issued_at_ns,
        })
    };

    // txn 1 holds (lease runs out at 1 ms); txns 2 and 3 queue behind
    // it with fresher stamps.
    sim.inject(client, switch, acq(1, 0));
    sim.run_until(netlock_sim::SimTime(300_000));
    sim.inject(client, switch, acq(2, 300_000));
    sim.inject(client, switch, acq(3, 300_000));

    // Run past txn 1's expiry: the sweeper force-frees it and grants
    // txn 2.
    sim.run_until(netlock_sim::SimTime(1_150_000));
    let grants: Vec<u64> =
        sim.read_node::<Recorder, _>(client, |r| r.0.iter().map(|&(_, txn)| txn).collect());
    assert_eq!(grants, vec![1, 2], "sweeper must free the expired holder");
    let expirations = sim.read_node::<SwitchNode, _>(switch, |s| s.stats().lease_expirations);
    assert_eq!(expirations, 1);

    // txn 1's own release arrives in the same sweep window — the race.
    // Its credit was consumed by the sweeper, so it must be filtered,
    // NOT pop txn 2's live entry (which would grant txn 3 early).
    sim.inject(
        client,
        switch,
        NetLockMsg::Release(ReleaseRequest {
            lock,
            txn: TxnId(1),
            mode: LockMode::Exclusive,
            client: ClientAddr(client.0),
            priority: Priority(0),
        }),
    );
    sim.run_until(netlock_sim::SimTime(1_250_000));
    let grants: Vec<u64> =
        sim.read_node::<Recorder, _>(client, |r| r.0.iter().map(|&(_, txn)| txn).collect());
    assert_eq!(
        grants,
        vec![1, 2],
        "the stale release must not free the live holder's lock"
    );
    let filtered = sim.read_node::<SwitchNode, _>(switch, |s| s.stats().stale_releases_filtered);
    assert_eq!(filtered, 1, "the racing release must be filtered as stale");

    // Sanity: a *legitimate* release from txn 2 hands the lock to txn 3.
    sim.inject(
        client,
        switch,
        NetLockMsg::Release(ReleaseRequest {
            lock,
            txn: TxnId(2),
            mode: LockMode::Exclusive,
            client: ClientAddr(client.0),
            priority: Priority(0),
        }),
    );
    sim.run_until(netlock_sim::SimTime(1_350_000));
    let grants: Vec<u64> =
        sim.read_node::<Recorder, _>(client, |r| r.0.iter().map(|&(_, txn)| txn).collect());
    assert_eq!(grants, vec![1, 2, 3]);
}

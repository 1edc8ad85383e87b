//! Tier-1 contract for conservative *in-simulation* parallelism: a
//! partitioned cluster advanced by N worker threads must produce
//! byte-identical output for every N. This is stronger than the sweep
//! runner's determinism (`integration_determinism.rs`, which
//! parallelizes across independent simulations): here a *single*
//! scenario is split into per-rack logical processes that exchange
//! lookahead windows, and the TSV rows, per-rack stats and chaos-oracle
//! audit digests must not move by a byte between 1, 2 and 8 workers.

use netlock_bench::{fig09, TimeScale};
use netlock_core::prelude::*;
use netlock_proto::{LockId, LockMode};
use netlock_sim::{FaultAction, FaultPlan, LinkConfig, NodeId, SimDuration, SimTime};

fn tiny() -> TimeScale {
    TimeScale {
        warmup: SimDuration::from_millis(1),
        measure: SimDuration::from_millis(2),
    }
}

#[test]
fn fig09_cluster_tsv_identical_across_sim_worker_counts() {
    let baseline = fig09::render_cluster(tiny(), 2, 1);
    assert!(
        baseline
            .lines()
            .any(|l| !l.starts_with('#') && !l.is_empty()),
        "baseline cluster render produced no data rows"
    );
    for workers in [2, 8] {
        let out = fig09::render_cluster(tiny(), 2, workers);
        assert_eq!(
            out, baseline,
            "fig09 cluster output changed with {workers} simulation workers"
        );
    }
}

/// Builds a 2-rack cluster with micro clients, installs a per-rack
/// chaos plan (link faults, client crashes, a switch reboot and a
/// server restart), runs it partitioned with `workers` threads, and
/// returns each rack oracle's audit digest plus its observed-fault
/// count.
fn chaos_digests(workers: usize) -> Vec<(u64, u64)> {
    let cfg = RackConfig {
        seed: 21,
        lock_servers: 1,
        ..Default::default()
    };
    let cross = LinkConfig::with_delay(SimDuration::from_micros(10));
    let mut cluster = RackCluster::build(&cfg, 2, cross);
    let locks: Vec<LockId> = (0..16).map(LockId).collect();
    let stats = LockStats::uniform(locks.iter().copied(), 16, 1);
    let alloc = knapsack_allocate(&stats, 10_000);
    for r in 0..2 {
        cluster.program(r, &alloc);
        for _ in 0..3 {
            cluster.add_micro_client(
                r,
                MicroClientConfig {
                    rate_rps: 100_000.0,
                    locks: locks.clone(),
                    mode: LockMode::Shared,
                    ..Default::default()
                },
            );
        }
    }
    let plans: Vec<_> = (0..2)
        .map(|r| {
            let roles = cluster.racks[r].roles();
            generate_plan(90 + r as u64, &roles, &ChaosPlanConfig::default())
        })
        .collect();
    let revived: Vec<NodeId> = (plans.iter().flat_map(FaultPlan::events))
        .filter_map(|ev| match ev.action {
            FaultAction::ReviveNode(n) => Some(n),
            _ => None,
        })
        .collect();
    let racks = &cluster.racks;
    assert!(
        revived.iter().any(|n| racks.iter().any(|r| r.switch == *n)),
        "the plans must reboot a switch"
    );
    assert!(
        (revived.iter()).any(|n| racks.iter().any(|r| r.lock_servers.contains(n))),
        "the plans must restart a lock server"
    );
    cluster.partition(workers);
    cluster.install_plans(&plans);
    let oracles = attach_rack_oracles(&mut cluster.sim, &cluster.racks, &OracleConfig::default());
    run_chaos(&mut cluster.sim, SimTime(50_000_000), &oracles);
    oracles
        .iter()
        .map(|o| {
            let o = o.lock().unwrap();
            (o.digest(), o.counts().faults)
        })
        .collect()
}

#[test]
fn chaos_oracle_digests_identical_across_sim_worker_counts() {
    let baseline = chaos_digests(1);
    assert!(
        baseline.iter().any(|&(_, faults)| faults > 0),
        "chaos plans injected no observable faults"
    );
    for workers in [2, 8] {
        assert_eq!(
            chaos_digests(workers),
            baseline,
            "chaos audit digests changed with {workers} simulation workers"
        );
    }
}

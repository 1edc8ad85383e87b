//! Figure 9: one lock switch vs one lock server with 1–8 cores.
//!
//! Ten client machines generate three microbenchmark workloads —
//! shared locks, exclusive locks without contention, and exclusive
//! locks with contention (5000 locks) — against (i) the lock switch
//! and (ii) a lock server configured with 1..=8 cores. As in the
//! paper, the switch is *not* saturated by ten clients; the server
//! saturates at its core count × per-core rate.

use std::fmt::Write;

use netlock_baselines::server_only::build_server_only;
use netlock_core::prelude::*;
use netlock_proto::{LockId, LockMode, NetLockMsg};
use netlock_sim::Simulator;

use crate::common::{mrps, TimeScale};
use crate::runner::{Job, Runner};

/// Client machines.
pub const CLIENTS: usize = 10;
/// Lock-set size for the contended workload.
pub const CONTENDED_LOCKS: u32 = 5_000;

/// The three workloads of the figure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// All-shared requests.
    Shared,
    /// Exclusive, disjoint per-client lock ranges.
    ExclusiveNoContention,
    /// Exclusive, 5000 locks shared by every client.
    ExclusiveContention,
}

impl Workload {
    /// All three, in figure order.
    pub fn all() -> [Workload; 3] {
        [
            Workload::Shared,
            Workload::ExclusiveNoContention,
            Workload::ExclusiveContention,
        ]
    }

    /// Label used in the TSV output.
    pub fn label(self) -> &'static str {
        match self {
            Workload::Shared => "shared",
            Workload::ExclusiveNoContention => "exclusive_no_contention",
            Workload::ExclusiveContention => "exclusive_contention",
        }
    }
}

/// Locks in the shared and uncontended workloads.
const TOTAL_LOCKS: u32 = 6_000;

fn lock_count(workload: Workload) -> u32 {
    match workload {
        Workload::ExclusiveContention => CONTENDED_LOCKS,
        _ => TOTAL_LOCKS,
    }
}

fn rack_config() -> RackConfig {
    RackConfig {
        seed: 9,
        lock_servers: 1,
        ..Default::default()
    }
}

fn add_clients(sim: &mut Simulator<NetLockMsg>, rack: &mut RackNodes, workload: Workload) {
    let per_client = TOTAL_LOCKS / CLIENTS as u32;
    for c in 0..CLIENTS as u32 {
        let (locks, mode) = match workload {
            Workload::Shared => (0..TOTAL_LOCKS, LockMode::Shared),
            Workload::ExclusiveNoContention => {
                (c * per_client..(c + 1) * per_client, LockMode::Exclusive)
            }
            Workload::ExclusiveContention => (0..CONTENDED_LOCKS, LockMode::Exclusive),
        };
        rack.add_micro_client(
            sim,
            MicroClientConfig {
                rate_rps: 18e6,
                locks: locks.map(LockId).collect(),
                mode,
                ..Default::default()
            },
        );
    }
}

/// Program one lock-switch rack (every lock switch-resident) and attach
/// its ten clients: the standalone figure point and each rack of the
/// cluster variant.
fn populate_switch_rack(sim: &mut Simulator<NetLockMsg>, rack: &mut RackNodes, workload: Workload) {
    let n = lock_count(workload);
    let stats = LockStats::uniform((0..n).map(LockId), (100_000 / n).min(4_096), 1);
    rack.program(sim, &knapsack_allocate(&stats, 100_000));
    add_clients(sim, rack, workload);
}

/// Throughput (MRPS) of the lock switch for one workload.
pub fn run_switch(workload: Workload, scale: TimeScale) -> f64 {
    let mut rack = Rack::build(rack_config());
    populate_switch_rack(&mut rack.sim, &mut rack.nodes, workload);
    let stats = warmup_and_measure(&mut rack, scale.warmup, scale.measure);
    mrps(stats.lock_rps())
}

/// Throughput (MRPS) of a lock server with `cores` cores.
pub fn run_server(workload: Workload, cores: usize, scale: TimeScale) -> f64 {
    let locks: Vec<LockId> = (0..lock_count(workload)).map(LockId).collect();
    let mut rack = build_server_only(9, 1, cores, &locks);
    add_clients(&mut rack.sim, &mut rack.nodes, workload);
    let stats = warmup_and_measure(&mut rack, scale.warmup, scale.measure);
    mrps(stats.lock_rps())
}

/// Per-rack cluster stats for the parallel variant of the figure:
/// `racks` copies of the fig09 lock-switch rack inside one simulator,
/// partitioned one logical process per rack and advanced by `workers`
/// threads under conservative lookahead windows. The returned per-rack
/// stats — and therefore [`render_cluster`]'s TSV — are byte-identical
/// for any `workers`; only the wall-clock changes.
pub fn run_cluster_stats(
    workload: Workload,
    scale: TimeScale,
    racks: usize,
    workers: usize,
) -> Vec<RunStats> {
    // Inter-rack RTTs dwarf in-rack ones; 10 µs one-way is the
    // lookahead the partition synchronizes on.
    let cross = netlock_sim::LinkConfig::with_delay(SimDuration::from_micros(10));
    let mut cluster = RackCluster::build(&rack_config(), racks, cross);
    for rack in &mut cluster.racks {
        populate_switch_rack(&mut cluster.sim, rack, workload);
    }
    cluster.partition(workers);
    cluster.warmup_and_measure(scale.warmup, scale.measure)
}

/// The cluster variant as TSV: one row per (workload, rack). The rows
/// do not mention the worker count on purpose — the output is the same
/// file for any `workers`.
pub fn render_cluster(scale: TimeScale, racks: usize, workers: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Figure 9 cluster variant: {racks} lock-switch racks, one LP each, 10 clients/rack"
    );
    let _ = writeln!(out, "rack\tworkload\tthroughput_mrps");
    for wl in Workload::all() {
        let per_rack = run_cluster_stats(wl, scale, racks, workers);
        for (r, stats) in per_rack.iter().enumerate() {
            let _ = writeln!(out, "{}\t{}\t{:.2}", r, wl.label(), mrps(stats.lock_rps()));
        }
    }
    out
}

/// The figure as TSV: 3 switch rows then 24 server rows, computed as
/// one batch of 27 independent jobs.
pub fn render(runner: &Runner, scale: TimeScale) -> String {
    let mut jobs: Vec<Job<'_, f64>> = Vec::new();
    for wl in Workload::all() {
        jobs.push(Box::new(move || run_switch(wl, scale)));
    }
    for wl in Workload::all() {
        for cores in 1..=8 {
            jobs.push(Box::new(move || run_server(wl, cores, scale)));
        }
    }
    let results = runner.run(jobs);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Figure 9: lock switch vs lock server (1-8 cores), 10 clients"
    );
    let _ = writeln!(out, "system\tcores\tworkload\tthroughput_mrps");
    let mut rows = results.into_iter();
    for wl in Workload::all() {
        let t = rows.next().expect("switch row");
        let _ = writeln!(out, "switch\t-\t{}\t{:.2}", wl.label(), t);
    }
    for wl in Workload::all() {
        for cores in 1..=8 {
            let t = rows.next().expect("server row");
            let _ = writeln!(out, "server\t{}\t{}\t{:.3}", cores, wl.label(), t);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TimeScale {
        TimeScale {
            warmup: SimDuration::from_millis(1),
            measure: SimDuration::from_millis(3),
        }
    }

    #[test]
    fn switch_beats_server_by_a_wide_margin() {
        let sw = run_switch(Workload::Shared, tiny());
        let srv = run_server(Workload::Shared, 8, tiny());
        assert!(
            sw > 5.0 * srv,
            "paper reports ~7×: switch {sw} MRPS vs server {srv} MRPS"
        );
    }

    #[test]
    fn cluster_stats_match_across_sim_worker_counts() {
        let one = run_cluster_stats(Workload::Shared, tiny(), 2, 1);
        let two = run_cluster_stats(Workload::Shared, tiny(), 2, 2);
        assert_eq!(one.len(), 2);
        for (a, b) in one.iter().zip(&two) {
            assert!(a.grants > 0);
            assert_eq!(a.grants, b.grants);
            assert_eq!(a.issued, b.issued);
            assert_eq!(
                a.lock_latency_summary().p99_ns,
                b.lock_latency_summary().p99_ns
            );
        }
    }

    #[test]
    fn server_scales_with_cores() {
        let one = run_server(Workload::ExclusiveNoContention, 1, tiny());
        let eight = run_server(Workload::ExclusiveNoContention, 8, tiny());
        assert!(
            eight > 4.0 * one,
            "8 cores should be ≫ 1 core: {one} vs {eight}"
        );
        // 8 cores ≈ 18 MRPS in the paper's testbed.
        assert!((10.0..25.0).contains(&eight), "8-core server: {eight} MRPS");
    }
}

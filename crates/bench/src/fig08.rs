//! Figure 8: switch microbenchmark.
//!
//! (a) shared locks — latency vs offered throughput;
//! (b) exclusive locks without contention — latency vs throughput;
//! (c) exclusive locks with contention — throughput vs number of locks;
//! (d) exclusive locks with contention — latency vs number of locks.
//!
//! Setup mirrors §6.2: 12 client machines drive the lock switch; no
//! lock servers are involved for (a)/(b) and overflow goes to one
//! server in (c)/(d). The switch's 100K-slot shared queue is split
//! evenly over the target lock set.

use std::fmt::Write;

use netlock_core::prelude::*;
use netlock_proto::{LockId, LockMode};

use crate::common::{mrps, TimeScale};
use crate::runner::Runner;

/// Clients in the paper's testbed.
pub const CLIENTS: usize = 12;
/// The switch's queue slots (paper: 100K).
pub const SWITCH_SLOTS: u32 = 100_000;

/// One point of the latency-vs-throughput panels (a)/(b).
#[derive(Clone, Debug)]
pub struct LatencyPoint {
    /// Offered aggregate load (MRPS).
    pub offered_mrps: f64,
    /// Achieved grant throughput (MRPS).
    pub achieved_mrps: f64,
    /// Acquire→grant latency.
    pub latency: LatencySummary,
}

/// One point of the contention panels (c)/(d).
#[derive(Clone, Debug)]
pub struct ContentionPoint {
    /// Number of locks shared by all clients.
    pub locks: u32,
    /// Achieved grant throughput (MRPS).
    pub achieved_mrps: f64,
    /// Acquire→grant latency.
    pub latency: LatencySummary,
}

fn build_rack(locks_total: u32, per_lock_slots: u32) -> Rack {
    let mut rack = Rack::build(RackConfig {
        seed: 8,
        lock_servers: 1,
        ..Default::default()
    });
    let stats = LockStats::uniform((0..locks_total).map(LockId), per_lock_slots, 1);
    rack.program(&knapsack_allocate(&stats, SWITCH_SLOTS));
    rack
}

fn rate_point(
    mode: LockMode,
    disjoint_locks: bool,
    offered: f64,
    scale: TimeScale,
) -> LatencyPoint {
    let locks_total = 6_000u32;
    let per_client = locks_total / CLIENTS as u32;
    let mut rack = build_rack(locks_total, SWITCH_SLOTS / locks_total);
    for c in 0..CLIENTS {
        let locks: Vec<LockId> = if disjoint_locks {
            (c as u32 * per_client..(c as u32 + 1) * per_client)
                .map(LockId)
                .collect()
        } else {
            (0..locks_total).map(LockId).collect()
        };
        rack.add_micro_client(MicroClientConfig {
            rate_rps: offered * 1e6 / CLIENTS as f64,
            locks,
            mode,
            poisson: true,
            ..Default::default()
        });
    }
    let stats = warmup_and_measure(&mut rack, scale.warmup, scale.measure);
    LatencyPoint {
        offered_mrps: offered,
        achieved_mrps: mrps(stats.lock_rps()),
        latency: stats.lock_latency_summary(),
    }
}

fn run_rate_sweep(
    runner: &Runner,
    mode: LockMode,
    disjoint_locks: bool,
    offered_mrps_points: &[f64],
    scale: TimeScale,
) -> Vec<LatencyPoint> {
    runner.map(offered_mrps_points.to_vec(), |offered| {
        rate_point(mode, disjoint_locks, offered, scale)
    })
}

/// Panel (a): shared locks, no contention possible.
pub fn run_8a(runner: &Runner, scale: TimeScale) -> Vec<LatencyPoint> {
    run_rate_sweep(
        runner,
        LockMode::Shared,
        false,
        &[1.0, 5.0, 20.0, 50.0, 100.0, 200.0],
        scale,
    )
}

/// Panel (b): exclusive locks, disjoint per-client lock ranges.
pub fn run_8b(runner: &Runner, scale: TimeScale) -> Vec<LatencyPoint> {
    run_rate_sweep(
        runner,
        LockMode::Exclusive,
        true,
        &[1.0, 5.0, 20.0, 50.0, 100.0, 200.0],
        scale,
    )
}

/// Panels (c)/(d): exclusive locks over a shared lock set of varying
/// size; all 12 clients offer their full NIC rate (18 MRPS each).
pub fn run_8cd(runner: &Runner, scale: TimeScale) -> Vec<ContentionPoint> {
    runner.map(vec![500u32, 2_000, 4_000, 6_000, 8_000, 10_000], |locks| {
        let per_lock = (SWITCH_SLOTS / locks).min(4_096);
        let mut rack = build_rack(locks, per_lock);
        for _ in 0..CLIENTS {
            rack.add_micro_client(MicroClientConfig {
                rate_rps: 18e6,
                locks: (0..locks).map(LockId).collect(),
                mode: LockMode::Exclusive,
                poisson: true,
                ..Default::default()
            });
        }
        let stats = warmup_and_measure(&mut rack, scale.warmup, scale.measure);
        ContentionPoint {
            locks,
            achieved_mrps: mrps(stats.lock_rps()),
            latency: stats.lock_latency_summary(),
        }
    })
}

/// All four panels as TSV (identical text for any runner thread count).
pub fn render(runner: &Runner, scale: TimeScale) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Figure 8(a): shared locks — latency vs throughput");
    let _ = writeln!(
        out,
        "offered_mrps\tachieved_mrps\tavg_us\tmed_us\tp99_us\tp999_us"
    );
    for p in run_8a(runner, scale) {
        let _ = writeln!(
            out,
            "{:.1}\t{:.2}\t{:.1}\t{:.1}\t{:.1}\t{:.1}",
            p.offered_mrps,
            p.achieved_mrps,
            p.latency.avg_us(),
            p.latency.p50_us(),
            p.latency.p99_us(),
            p.latency.p999_us()
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "# Figure 8(b): exclusive locks w/o contention — latency vs throughput"
    );
    let _ = writeln!(
        out,
        "offered_mrps\tachieved_mrps\tavg_us\tmed_us\tp99_us\tp999_us"
    );
    for p in run_8b(runner, scale) {
        let _ = writeln!(
            out,
            "{:.1}\t{:.2}\t{:.1}\t{:.1}\t{:.1}\t{:.1}",
            p.offered_mrps,
            p.achieved_mrps,
            p.latency.avg_us(),
            p.latency.p50_us(),
            p.latency.p99_us(),
            p.latency.p999_us()
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "# Figure 8(c)/(d): exclusive locks w/ contention vs number of locks"
    );
    let _ = writeln!(out, "locks\tachieved_mrps\tavg_us\tmed_us\tp99_us\tp999_us");
    for p in run_8cd(runner, scale) {
        let _ = writeln!(
            out,
            "{}\t{:.2}\t{:.1}\t{:.1}\t{:.1}\t{:.1}",
            p.locks,
            p.achieved_mrps,
            p.latency.avg_us(),
            p.latency.p50_us(),
            p.latency.p99_us(),
            p.latency.p999_us()
        );
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
    fn shared_latency_flat_with_load() {
        let runner = Runner::with_threads(1);
        let pts = run_rate_sweep(&runner, LockMode::Shared, false, &[1.0, 20.0], tiny());
        // The switch is never the bottleneck: latency stays ~constant.
        let lo = pts[0].latency.avg_ns;
        let hi = pts[1].latency.avg_ns;
        assert!(
            (hi - lo).abs() / lo < 0.3,
            "latency must not grow with load: {lo} → {hi}"
        );
        assert!((5_000.0..15_000.0).contains(&lo), "µs-scale: {lo}");
    }

    #[test]
    fn contention_shape_holds() {
        let pts = {
            let mut out = Vec::new();
            for &locks in &[500u32, 4_000] {
                let per_lock = (SWITCH_SLOTS / locks).min(4_096);
                let mut rack = build_rack(locks, per_lock);
                for _ in 0..CLIENTS {
                    rack.add_micro_client(MicroClientConfig {
                        rate_rps: 18e6,
                        locks: (0..locks).map(LockId).collect(),
                        mode: LockMode::Exclusive,
                        ..Default::default()
                    });
                }
                let stats = warmup_and_measure(&mut rack, tiny().warmup, tiny().measure);
                out.push((locks, stats.lock_rps(), stats.lock_latency_summary()));
            }
            out
        };
        assert!(
            pts[1].1 > pts[0].1 * 1.5,
            "more locks → more throughput: {} vs {}",
            pts[0].1,
            pts[1].1
        );
        assert!(
            pts[0].2.avg_ns > pts[1].2.avg_ns,
            "fewer locks → higher latency"
        );
    }
}

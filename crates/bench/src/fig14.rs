//! Figure 14: impact of switch memory size.
//!
//! (a) throughput vs memory slots for think times {0, 5, 10, 100 µs}:
//! the think time bounds a slot's turnover rate, so longer transactions
//! need more memory for the same throughput.
//!
//! (b) throughput vs memory slots for knapsack vs random allocation:
//! the knapsack allocator reaches peak throughput with a fraction of
//! the memory the random allocator wastes.

use std::fmt::Write;

use netlock_core::prelude::*;
use netlock_sim::SimDuration;

use crate::common::{build_netlock_tpcc, mrps, TimeScale, TpccRackSpec};
use crate::runner::Runner;

/// One sweep point.
#[derive(Clone, Copy, Debug)]
pub struct MemoryPoint {
    /// Switch memory (queue slots).
    pub slots: u32,
    /// Lock throughput (MRPS).
    pub lock_mrps: f64,
}

fn think_point(think: SimDuration, slots: u32, scale: TimeScale) -> MemoryPoint {
    let mut rack = build_netlock_tpcc(&TpccRackSpec {
        clients: 10,
        lock_servers: 2,
        switch_slots: slots,
        think_override: Some(think),
        ..Default::default()
    });
    let stats = warmup_and_measure(&mut rack, scale.warmup, scale.measure);
    MemoryPoint {
        slots,
        lock_mrps: mrps(stats.lock_rps()),
    }
}

fn alloc_point(random: bool, slots: u32, scale: TimeScale) -> MemoryPoint {
    let mut rack = build_netlock_tpcc(&TpccRackSpec {
        clients: 10,
        lock_servers: 2,
        switch_slots: slots,
        random_alloc: random,
        cold_locks_in_stats: 20_000,
        ..Default::default()
    });
    let stats = warmup_and_measure(&mut rack, scale.warmup, scale.measure);
    MemoryPoint {
        slots,
        lock_mrps: mrps(stats.lock_rps()),
    }
}

/// Panel (a): memory sweep at a fixed think time.
pub fn run_think_sweep(
    runner: &Runner,
    think: SimDuration,
    slots_points: &[u32],
    scale: TimeScale,
) -> Vec<MemoryPoint> {
    runner.map(slots_points.to_vec(), |slots| {
        think_point(think, slots, scale)
    })
}

/// Panel (b): memory sweep for one allocation policy (cold tail in the
/// allocator input, as in Figure 13).
pub fn run_alloc_sweep(
    runner: &Runner,
    random: bool,
    slots_points: &[u32],
    scale: TimeScale,
) -> Vec<MemoryPoint> {
    runner.map(slots_points.to_vec(), |slots| {
        alloc_point(random, slots, scale)
    })
}

/// Both panels as TSV. Panel (a)'s 4×6 grid and panel (b)'s 2×6 grid
/// each fan out as one flat batch, so no worker idles at a row
/// boundary.
pub fn render(runner: &Runner, scale: TimeScale) -> String {
    let slots_a = [100u32, 250, 500, 1_000, 2_000, 4_000];
    let thinks = [0u64, 5, 10, 100];
    let grid_a: Vec<(u64, u32)> = thinks
        .iter()
        .flat_map(|&t| slots_a.iter().map(move |&s| (t, s)))
        .collect();
    let rows_a = runner.map(grid_a.clone(), |(think_us, slots)| {
        think_point(SimDuration::from_micros(think_us), slots, scale)
    });

    let slots_b = [1_000u32, 2_500, 5_000, 10_000, 20_000, 40_000];
    let policies = [("knapsack", false), ("random", true)];
    let grid_b: Vec<(&'static str, bool, u32)> = policies
        .iter()
        .flat_map(|&(label, random)| slots_b.iter().map(move |&s| (label, random, s)))
        .collect();
    let rows_b = runner.map(grid_b.clone(), |(_, random, slots)| {
        alloc_point(random, slots, scale)
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Figure 14(a): throughput vs switch memory, by think time"
    );
    let _ = writeln!(out, "think_us\tslots\tthroughput_mrps");
    for (&(think_us, _), p) in grid_a.iter().zip(&rows_a) {
        let _ = writeln!(out, "{}\t{}\t{:.3}", think_us, p.slots, p.lock_mrps);
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "# Figure 14(b): throughput vs switch memory, by allocation policy"
    );
    let _ = writeln!(out, "policy\tslots\tthroughput_mrps");
    for (&(label, _, _), p) in grid_b.iter().zip(&rows_b) {
        let _ = writeln!(out, "{}\t{}\t{:.3}", label, p.slots, p.lock_mrps);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TimeScale {
        TimeScale {
            warmup: SimDuration::from_millis(3),
            measure: SimDuration::from_millis(12),
        }
    }

    fn seq() -> Runner {
        Runner::with_threads(1)
    }

    #[test]
    fn more_memory_helps_until_saturation() {
        let pts = run_think_sweep(&seq(), SimDuration::ZERO, &[100, 2_000], tiny());
        assert!(
            pts[1].lock_mrps > pts[0].lock_mrps,
            "2000 slots {} should beat 100 slots {}",
            pts[1].lock_mrps,
            pts[0].lock_mrps
        );
    }

    #[test]
    fn long_think_time_needs_more_memory() {
        // At a fixed small memory, 100 µs transactions achieve much
        // lower throughput than 0 µs ones (slot turnover bound).
        let fast = run_think_sweep(&seq(), SimDuration::ZERO, &[1_000], tiny());
        let slow = run_think_sweep(&seq(), SimDuration::from_micros(100), &[1_000], tiny());
        assert!(
            fast[0].lock_mrps > 1.25 * slow[0].lock_mrps,
            "think 0 {} vs think 100us {}",
            fast[0].lock_mrps,
            slow[0].lock_mrps
        );
    }

    #[test]
    fn knapsack_reaches_peak_with_less_memory() {
        let knap = run_alloc_sweep(&seq(), false, &[2_500], tiny());
        let rand = run_alloc_sweep(&seq(), true, &[2_500], tiny());
        assert!(
            knap[0].lock_mrps > rand[0].lock_mrps,
            "knapsack {} vs random {} at 2500 slots",
            knap[0].lock_mrps,
            rand[0].lock_mrps
        );
    }
}

//! Figure 13: memory-allocation mechanisms (knapsack vs random).
//!
//! Ten clients, two lock servers, TPC-C low contention, and a switch
//! memory budget small enough that allocation matters. The allocator
//! input includes a large tail of cold customer rows, so the strawman
//! random allocator mostly wastes switch memory on locks nobody
//! contends for — the paper's Figure 13 setup.

use netlock_core::prelude::*;

use crate::common::{build_netlock_tpcc, mrps, TimeScale, TpccRackSpec};

/// Result of one allocation policy run.
#[derive(Clone, Debug)]
pub struct AllocResult {
    /// "knapsack" or "random".
    pub policy: &'static str,
    /// Grants served by the switch, per second.
    pub switch_rps: f64,
    /// Grants served by lock servers, per second.
    pub server_rps: f64,
    /// Transaction latency CDF points `(latency_ns, cum_fraction)`.
    pub latency_cdf: Vec<(u64, f64)>,
    /// Full run stats.
    pub stats: RunStats,
}

/// The figure's rack: knapsack or the random strawman.
pub fn spec(random: bool) -> TpccRackSpec {
    TpccRackSpec {
        clients: 10,
        lock_servers: 2,
        switch_slots: 4_000,
        random_alloc: random,
        cold_locks_in_stats: 20_000,
        ..Default::default()
    }
}

/// Run one policy.
pub fn run_policy(random: bool, scale: TimeScale) -> AllocResult {
    let mut rack = build_netlock_tpcc(&spec(random));
    let stats = warmup_and_measure(&mut rack, scale.warmup, scale.measure);
    let secs = scale.measure.as_secs_f64();
    AllocResult {
        policy: if random { "random" } else { "knapsack" },
        switch_rps: stats.grants_switch as f64 / secs,
        server_rps: stats.grants_server as f64 / secs,
        latency_cdf: stats.txn_latency.cdf_points(),
        stats,
    }
}

/// Panel (a) breakdown and panel (b) CDF as TSV; the two policy runs
/// fan out as one batch.
pub fn render(runner: &crate::runner::Runner, scale: TimeScale) -> String {
    use std::fmt::Write;
    let results = runner.map(vec![true, false], |random| run_policy(random, scale));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Figure 13(a): throughput breakdown by allocation policy (4000 switch slots)"
    );
    let _ = writeln!(out, "policy\tswitch_mrps\tserver_mrps\ttotal_mrps");
    for r in &results {
        let _ = writeln!(
            out,
            "{}\t{:.3}\t{:.3}\t{:.3}",
            r.policy,
            mrps(r.switch_rps),
            mrps(r.server_rps),
            mrps(r.switch_rps + r.server_rps)
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "# Figure 13(b): transaction latency CDF");
    let _ = writeln!(out, "policy\tlatency_us\tcdf");
    for r in &results {
        // Downsample to ~50 points for readability.
        let step = (r.latency_cdf.len() / 50).max(1);
        for (i, &(ns, frac)) in r.latency_cdf.iter().enumerate() {
            if i % step == 0 || frac == 1.0 {
                let _ = writeln!(out, "{}\t{:.1}\t{:.4}", r.policy, ns as f64 / 1e3, frac);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlock_sim::SimDuration;

    #[test]
    fn knapsack_beats_random_end_to_end() {
        let scale = TimeScale {
            warmup: SimDuration::from_millis(3),
            measure: SimDuration::from_millis(15),
        };
        let knap = run_policy(false, scale);
        let rand = run_policy(true, scale);
        // Knapsack puts the hot locks in the switch...
        assert!(
            knap.switch_rps > 2.0 * rand.switch_rps,
            "knapsack switch share {} vs random {}",
            knap.switch_rps,
            rand.switch_rps
        );
        // ...and that shows up as higher total throughput.
        assert!(
            knap.stats.tps() > rand.stats.tps(),
            "knapsack tps {} vs random {}",
            knap.stats.tps(),
            rand.stats.tps()
        );
    }
}

//! The multi-switch failover figure: availability and latency under a
//! crash schedule, swept over chain-replication factor 1 / 2 / 3.
//!
//! Every run uses the same partitioned cluster shape and the same
//! canonical crash plan ([`CrashScenario`]): one chain member per
//! partition fails mid-traffic and revives after the outage. The only
//! knob the sweep turns is the replication factor, so the TSV isolates
//! what replication buys:
//!
//! - **factor 1** — the partition is its only replica; every crash
//!   takes the partition's whole lock range offline until revive plus
//!   the §4.5 grace, and the grant timeline flatlines for the window;
//! - **factor ≥ 2** — the controller splices the survivors within a
//!   few control ticks, the new tail replays the in-flight window, and
//!   grants keep flowing through the outage.
//!
//! The report has two sections: one summary row per factor (progress,
//! crash-window availability, latency percentiles, oracle verdict,
//! audit digest) and a `# timeline` block of grants-per-millisecond
//! columns, one per factor — the data behind the availability plot.
//! Like every figure in this crate, a run is a pure function of its
//! config, at any worker count (`tests/integration_failover.rs`).

use netlock_core::prelude::*;
use netlock_sim::LatencySummary;

/// Replication factors the failover figure sweeps.
pub const FACTORS: [usize; 3] = [1, 2, 3];

/// Scale of a sweep: the full figure or the CI smoke variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Full figure: 40 ms runs, 6 ms outage.
    Full,
    /// CI smoke: 24 ms runs, 4 ms outage.
    Quick,
}

impl Scale {
    /// Total simulated time per run.
    pub fn total(self) -> SimDuration {
        match self {
            Scale::Full => SimDuration::from_millis(40),
            Scale::Quick => SimDuration::from_millis(24),
        }
    }

    /// The crash schedule at this scale.
    pub fn scenario(self) -> CrashScenario {
        match self {
            Scale::Full => CrashScenario::default(),
            Scale::Quick => CrashScenario {
                crash_at: SimDuration::from_millis(6),
                outage: SimDuration::from_millis(4),
                ..Default::default()
            },
        }
    }
}

/// The cluster shape every sweep point shares (only `replication`
/// varies).
pub fn sweep_config(replication: usize) -> FailoverConfig {
    FailoverConfig {
        replication,
        ..Default::default()
    }
}

/// Run the factor sweep at one worker count.
pub fn run_sweep(scale: Scale, workers: usize) -> Vec<FailoverRun> {
    FACTORS
        .iter()
        .map(|&f| {
            run_failover(
                &sweep_config(f),
                &scale.scenario(),
                workers,
                scale.total(),
                false,
            )
        })
        .collect()
}

/// Render the two-section TSV report (summary rows + timeline block).
pub fn render(scale: Scale, runs: &[FailoverRun]) -> String {
    use std::fmt::Write;
    let scenario = scale.scenario();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# NetLock multi-switch failover: {} partitions, crash at {} ms, outage {} ms, total {} ms",
        PARTITIONS,
        scenario.crash_at.as_nanos() as f64 / 1e6,
        scenario.outage.as_nanos() as f64 / 1e6,
        scale.total().as_nanos() as f64 / 1e6,
    );
    let _ = writeln!(
        out,
        "replication\tworkers\ttxns\tgrants\tcrash_window_grants\tretries\t\
         txn_p50_us\ttxn_p99_us\tdigest\tverdict"
    );
    for r in runs {
        let lat = LatencySummary::from_histogram(&r.totals.txn_latency);
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{:.1}\t{:.1}\t{:016x}\t{}",
            r.replication,
            r.workers,
            r.totals.txns,
            r.totals.grants,
            r.crash_window_grants(),
            r.totals.retries,
            lat.p50_us(),
            lat.p99_us(),
            r.digest,
            if r.violations == 0 {
                "CLEAN"
            } else {
                "VIOLATED"
            },
        );
    }
    // Grants-per-millisecond timeline, one column per factor.
    let _ = writeln!(out, "# timeline: grants delivered per 1 ms bucket");
    let mut header = String::from("t_ms");
    for r in runs {
        let _ = write!(header, "\tfactor{}", r.replication);
    }
    let _ = writeln!(out, "{header}");
    let buckets = runs
        .iter()
        .map(|r| r.timeline.buckets().len())
        .max()
        .unwrap_or(0);
    for b in 0..buckets {
        let _ = write!(out, "{b}");
        for r in runs {
            let n = r.timeline.buckets().get(b).copied().unwrap_or(0);
            let _ = write!(out, "\t{n}");
        }
        out.push('\n');
    }
    out
}

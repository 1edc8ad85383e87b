//! End-to-end gate for the multi-switch failover figure: the
//! replication sweep is oracle-clean, byte-identical across worker
//! counts (including oversubscribed), and shows the availability gap
//! the figure exists to plot.

use netlock_bench::failover::{render, run_sweep, Scale, FACTORS};

#[test]
fn failover_sweep_clean_and_byte_identical_at_1_2_8_workers() {
    let base = run_sweep(Scale::Quick, 1);
    for workers in [2usize, 8] {
        let other = run_sweep(Scale::Quick, workers);
        for (a, b) in base.iter().zip(&other) {
            assert_eq!(a.violations, 0, "factor {}: {}", a.replication, a.audit);
            assert_eq!(
                a.digest, b.digest,
                "factor {}: digest diverges at {workers} workers",
                a.replication
            );
            assert_eq!(
                a.audit, b.audit,
                "factor {}: audit diverges at {workers} workers",
                a.replication
            );
        }
    }
}

#[test]
fn failover_report_shows_availability_gap() {
    let runs = run_sweep(Scale::Quick, 2);
    let report = render(Scale::Quick, &runs);
    assert!(report.contains("crash_window_grants"), "{report}");
    assert!(report.contains("# timeline"), "{report}");
    let rows = report
        .lines()
        .filter(|l| FACTORS.iter().any(|f| l.starts_with(&format!("{f}\t2\t"))))
        .count();
    assert_eq!(rows, FACTORS.len(), "{report}");
    let by_factor: Vec<u64> = runs.iter().map(|r| r.crash_window_grants()).collect();
    assert!(
        by_factor[1] > by_factor[0] * 4 && by_factor[2] > by_factor[0] * 4,
        "replication must sustain the crash window: {by_factor:?}"
    );
    // Deeper chains never reduce safety: every verdict in the report is
    // CLEAN, so the gap is availability, not correctness.
    assert!(!report.contains("VIOLATED"), "{report}");
}

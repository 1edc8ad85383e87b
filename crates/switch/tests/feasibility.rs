//! Tier-1 feasibility suite: exhaustive pass-trace checking and the
//! static Tofino resource model.
//!
//! These tests are the enforcement point for the §4.2 hardware
//! discipline. The explorer enumerates data-plane states × every
//! message kind against the real `DataPlane::process`, so a change
//! that sneaks in a second stateful-ALU access to an array within one
//! pass, an out-of-order stage access, or an unbounded resubmit
//! cascade fails here, not in a P4 compiler we do not have.

use netlock_switch::analysis::explorer::{explore, EngineKind};
use netlock_switch::analysis::layout::{
    ArrayDescriptor, FeasibilityError, ProgramLayout, TofinoBudget,
};
use netlock_switch::dataplane::DataPlane;
use netlock_switch::priority::PriorityLayout;
use netlock_switch::shared_queue::SharedQueueLayout;

const ALL_MSG_KINDS: [&str; 8] = [
    "Acquire",
    "Release",
    "Grant",
    "Forwarded",
    "QueueSpace",
    "Push",
    "DbFetch",
    "DbReply",
];

#[test]
fn fcfs_exploration_is_discipline_clean() {
    let summary = explore(EngineKind::Fcfs).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(summary.engine, EngineKind::Fcfs);
    assert_eq!(summary.states, 9);
    for kind in ALL_MSG_KINDS {
        assert!(
            summary.probes_by_kind.contains_key(kind),
            "message kind {kind} never probed"
        );
    }
    assert!(summary.stats.passes > 0, "exploration recorded no passes");
    assert!(summary.stats.accesses > 0);
}

#[test]
fn priority_exploration_is_discipline_clean() {
    let summary = explore(EngineKind::Priority).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(summary.engine, EngineKind::Priority);
    assert_eq!(summary.states, 6);
    for kind in ALL_MSG_KINDS {
        assert!(
            summary.probes_by_kind.contains_key(kind),
            "message kind {kind} never probed"
        );
    }
    assert!(summary.stats.passes > 0, "exploration recorded no passes");
}

#[test]
fn observed_resubmit_depth_stays_under_declared_bound() {
    for kind in [EngineKind::Fcfs, EngineKind::Priority] {
        let summary = explore(kind).unwrap_or_else(|e| panic!("{e}"));
        let declared = match kind {
            EngineKind::Fcfs => DataPlane::new_fcfs(&SharedQueueLayout::small(2, 4, 4)),
            EngineKind::Priority => DataPlane::new_priority(&PriorityLayout::new(3, 3, 2)),
        }
        .layout()
        .resubmit_bound();
        // Per-message-kind check: when this fails, the diagnostic names
        // *which* NetLockMsg kind blew the budget, not just that one did.
        for (msg_kind, &depth) in &summary.max_resubmit_by_kind {
            assert!(
                depth <= declared,
                "{kind:?}: {msg_kind} probe reached resubmit depth {depth}, \
                 exceeding declared bound {declared}",
            );
        }
        assert!(
            summary.stats.max_resubmit_depth <= declared,
            "{kind:?}: observed resubmit depth {} exceeds declared bound {declared}",
            summary.stats.max_resubmit_depth,
        );
        // The per-kind map must cover every probed kind, and no probe can
        // exceed the aggregate (which also folds in setup traffic).
        for kind_name in summary.probes_by_kind.keys() {
            assert!(summary.max_resubmit_by_kind.contains_key(kind_name));
        }
        let per_kind_max = summary
            .max_resubmit_by_kind
            .values()
            .copied()
            .max()
            .unwrap_or(0);
        assert!(per_kind_max <= summary.stats.max_resubmit_depth);
    }
}

#[test]
fn partitioned_replicated_layouts_fit_a_tofino() {
    // Multi-switch deployment (DESIGN §16): the lock space is split
    // across 4 partitions, so each chain member carries a quarter of
    // the paper-default slot pool *plus* the chain-replication
    // metadata (sequence/ack/epoch registers and the in-flight log).
    // Every partition's augmented layout must still fit one Tofino —
    // replication that doesn't fit next to the queues is fiction.
    let per_partition = SharedQueueLayout {
        slot_arrays: vec![10_000; 3],
        max_regions: 2_500,
        stage_offset: 0,
    };
    for partition in 0..4 {
        let dp = DataPlane::new_fcfs(&per_partition);
        let layout = netlock_switch::partition::replicated_layout(&dp, 4_096);
        layout
            .check(&TofinoBudget::tofino())
            .unwrap_or_else(|e| panic!("partition {partition} replicated layout must fit: {e}"));
        let names: Vec<&str> = layout.arrays().iter().map(|a| a.name).collect();
        for meta in ["repl_seq", "repl_ack", "repl_epoch", "repl_log"] {
            assert!(names.contains(&meta), "{meta} missing from layout");
        }
    }
}

#[test]
fn paper_default_fcfs_layout_fits_a_tofino() {
    let dp = DataPlane::new_fcfs(&SharedQueueLayout::paper_default());
    dp.layout()
        .check(&TofinoBudget::tofino())
        .unwrap_or_else(|e| panic!("paper-default FCFS layout infeasible: {e}"));
}

#[test]
fn small_fcfs_layout_fits_a_single_direction() {
    let dp = DataPlane::new_fcfs(&SharedQueueLayout::small(2, 4, 4));
    dp.layout()
        .check(&TofinoBudget::tofino_single_direction())
        .unwrap_or_else(|e| panic!("small FCFS layout infeasible: {e}"));
}

#[test]
fn priority_layout_fits_a_tofino() {
    let dp = DataPlane::new_priority(&PriorityLayout::new(3, 3, 2));
    dp.layout()
        .check(&TofinoBudget::tofino())
        .unwrap_or_else(|e| panic!("priority layout infeasible: {e}"));
}

#[test]
fn over_budget_stage_count_is_rejected_with_named_diagnostic() {
    let budget = TofinoBudget::tofino();
    let mut layout = ProgramLayout::new();
    for stage in 0..budget.stages + 1 {
        layout.register(ArrayDescriptor {
            name: "overflowing",
            stage,
            cells: 1,
            bytes_per_cell: 4,
        });
    }
    let err = layout.check(&budget).unwrap_err();
    assert!(
        matches!(err, FeasibilityError::StageBudgetExceeded { .. }),
        "expected StageBudgetExceeded, got {err}"
    );
    assert!(
        err.to_string().starts_with("StageBudgetExceeded"),
        "diagnostic must lead with its name: {err}"
    );
}

#[test]
fn over_budget_sram_is_rejected_with_named_diagnostic() {
    let budget = TofinoBudget::tofino();
    let mut layout = ProgramLayout::new();
    layout.register(ArrayDescriptor {
        name: "sram_hog",
        stage: 0,
        cells: budget.sram_per_stage_bytes + 1,
        bytes_per_cell: 1,
    });
    let err = layout.check(&budget).unwrap_err();
    assert!(
        matches!(err, FeasibilityError::SramBudgetExceeded { stage: 0, .. }),
        "expected SramBudgetExceeded at stage 0, got {err}"
    );
    assert!(err.to_string().starts_with("SramBudgetExceeded"));
}

#[test]
fn over_budget_resubmit_bound_is_rejected_with_named_diagnostic() {
    let budget = TofinoBudget::tofino();
    let mut layout = ProgramLayout::new();
    layout.declare_resubmit_bound(budget.max_resubmit_depth + 1);
    let err = layout.check(&budget).unwrap_err();
    assert!(
        matches!(err, FeasibilityError::ResubmitBudgetExceeded { .. }),
        "expected ResubmitBudgetExceeded, got {err}"
    );
    assert!(err.to_string().starts_with("ResubmitBudgetExceeded"));
}

#[test]
fn resource_report_renders_layout_and_observed_stats() {
    let summary = explore(EngineKind::Fcfs).unwrap_or_else(|e| panic!("{e}"));
    let dp = DataPlane::new_fcfs(&SharedQueueLayout::small(2, 4, 4));
    let report = dp.layout().report(Some(&summary.stats)).to_string();
    assert!(
        report.contains("program layout:"),
        "missing header: {report}"
    );
    assert!(report.contains("resubmit bound"), "missing bound: {report}");
    assert!(
        report.contains("observed:"),
        "missing observed line: {report}"
    );
    assert!(
        report.contains("resubmit histogram:"),
        "missing histogram: {report}"
    );
}

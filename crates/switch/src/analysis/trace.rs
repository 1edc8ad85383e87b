//! Access-trace recording and the pass-discipline checker.
//!
//! A [`TraceSink`] can be attached to a [`crate::register::PassAllocator`]
//! (or to an individual [`crate::register::Pass`]); every data-plane
//! read-modify-write then appends an [`AccessRecord`] describing which
//! array was touched, in which stage, at which index, during which pass,
//! and at what resubmit depth. [`check_discipline`] replays a trace and
//! verifies the §4.2 hardware constraints *independently* of the runtime
//! assertions in [`crate::register::RegisterArray::access`]:
//!
//! 1. at most one access per register array per pass (one stateful-ALU
//!    operation per array per packet traversal),
//! 2. non-decreasing stage order within a pass,
//! 3. resubmit depth bounded by the program's declared worst case.
//!
//! Control-plane (`cp_*`) operations are deliberately invisible to the
//! trace: they travel over PCIe, not through the pipeline.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::register::{ArrayId, PassId};

/// One data-plane register access, as observed by the recorder.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessRecord {
    /// Unique identity of the accessed array instance.
    pub array: ArrayId,
    /// The array's (non-unique) display name.
    pub name: &'static str,
    /// Pipeline stage the array lives in.
    pub stage: usize,
    /// Cell index accessed.
    pub index: usize,
    /// The pass (packet traversal) performing the access.
    pub pass: PassId,
    /// Resubmit depth of that pass (0 = original packet).
    pub resubmit_depth: u32,
}

/// An append-only buffer of access records.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    records: Vec<AccessRecord>,
}

impl TraceBuffer {
    /// Append one record.
    pub fn record(&mut self, r: AccessRecord) {
        self.records.push(r);
    }

    /// Drain and return everything recorded so far.
    pub fn take(&mut self) -> Vec<AccessRecord> {
        std::mem::take(&mut self.records)
    }

    /// Records currently buffered.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing has been recorded since the last [`Self::take`].
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Shared handle to a [`TraceBuffer`]; clone it freely — all clones feed
/// the same buffer. The data plane itself is single-threaded (as is the
/// switch pipeline being modeled), but the node that owns it must be
/// `Send` so a partitioned simulation can advance it on a worker thread
/// — hence `Arc<Mutex<..>>` rather than `Rc<RefCell<..>>`. The lock is
/// uncontended in every use (one rack's accesses are serialized by its
/// simulator), so the cost is one atomic per recorded access, and only
/// when tracing is enabled at all.
pub type TraceSink = Arc<Mutex<TraceBuffer>>;

/// A fresh, empty sink.
pub fn new_sink() -> TraceSink {
    Arc::new(Mutex::new(TraceBuffer::default()))
}

/// A violation of the pipeline-pass discipline found in a trace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DisciplineViolation {
    /// An array was accessed twice within one pass: the P4 program would
    /// need a resubmit the model did not perform.
    DoubleAccess {
        /// Name of the offending array.
        name: &'static str,
        /// Stage of the offending array.
        stage: usize,
        /// The pass that accessed it twice.
        pass: PassId,
    },
    /// A pass accessed a stage after already visiting a later stage.
    StageRegression {
        /// Name of the offending array.
        name: &'static str,
        /// The pass that went backwards.
        pass: PassId,
        /// Highest stage visited before the offending access.
        from_stage: usize,
        /// Stage of the offending access.
        to_stage: usize,
    },
    /// A pass ran at a resubmit depth beyond the declared bound.
    ResubmitTooDeep {
        /// Name of the array whose access revealed the over-deep pass.
        name: &'static str,
        /// Stage of that array.
        stage: usize,
        /// The over-deep pass.
        pass: PassId,
        /// Its resubmit depth.
        depth: u32,
        /// The declared bound it exceeded.
        bound: u32,
    },
}

impl fmt::Display for DisciplineViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DisciplineViolation::DoubleAccess { name, stage, pass } => write!(
                f,
                "DoubleAccess: array '{name}' (stage {stage}) accessed twice in \
                 pass {pass:?}"
            ),
            DisciplineViolation::StageRegression {
                name,
                pass,
                from_stage,
                to_stage,
            } => write!(
                f,
                "StageRegression: array '{name}' (stage {to_stage}) accessed after \
                 stage {from_stage} in pass {pass:?}"
            ),
            DisciplineViolation::ResubmitTooDeep {
                name,
                stage,
                pass,
                depth,
                bound,
            } => write!(
                f,
                "ResubmitTooDeep: array '{name}' (stage {stage}) accessed by pass \
                 {pass:?} at resubmit depth {depth}, exceeding the declared bound {bound}"
            ),
        }
    }
}

impl std::error::Error for DisciplineViolation {}

/// Aggregate statistics of a checked trace.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TraceStats {
    /// Distinct passes observed (passes touching no register are not
    /// visible to the recorder and are not counted).
    pub passes: usize,
    /// Total register accesses.
    pub accesses: usize,
    /// Deepest resubmit depth observed.
    pub max_resubmit_depth: u32,
    /// `depth -> number of passes that ran at that depth`.
    pub resubmit_histogram: BTreeMap<u32, u64>,
}

impl TraceStats {
    /// Merge another stats block into this one (histograms add up;
    /// depths take the max).
    pub fn merge(&mut self, other: &TraceStats) {
        self.passes += other.passes;
        self.accesses += other.accesses;
        self.max_resubmit_depth = self.max_resubmit_depth.max(other.max_resubmit_depth);
        for (&d, &n) in &other.resubmit_histogram {
            *self.resubmit_histogram.entry(d).or_insert(0) += n;
        }
    }
}

/// Check a trace against the pass discipline; `resubmit_bound` is the
/// program's declared worst-case resubmit depth.
pub fn check_discipline(
    records: &[AccessRecord],
    resubmit_bound: u32,
) -> Result<TraceStats, DisciplineViolation> {
    struct PassState {
        seen: Vec<ArrayId>,
        stage_cursor: usize,
        depth: u32,
    }
    let mut passes: BTreeMap<u64, PassState> = BTreeMap::new();
    for r in records {
        let st = passes.entry(r.pass.0).or_insert(PassState {
            seen: Vec::new(),
            stage_cursor: 0,
            depth: r.resubmit_depth,
        });
        if st.seen.contains(&r.array) {
            return Err(DisciplineViolation::DoubleAccess {
                name: r.name,
                stage: r.stage,
                pass: r.pass,
            });
        }
        if r.stage < st.stage_cursor {
            return Err(DisciplineViolation::StageRegression {
                name: r.name,
                pass: r.pass,
                from_stage: st.stage_cursor,
                to_stage: r.stage,
            });
        }
        if r.resubmit_depth > resubmit_bound {
            return Err(DisciplineViolation::ResubmitTooDeep {
                name: r.name,
                stage: r.stage,
                pass: r.pass,
                depth: r.resubmit_depth,
                bound: resubmit_bound,
            });
        }
        st.seen.push(r.array);
        st.stage_cursor = r.stage;
    }
    let mut stats = TraceStats {
        passes: passes.len(),
        accesses: records.len(),
        ..TraceStats::default()
    };
    for st in passes.values() {
        stats.max_resubmit_depth = stats.max_resubmit_depth.max(st.depth);
        *stats.resubmit_histogram.entry(st.depth).or_insert(0) += 1;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(array: u32, stage: usize, pass: u64, depth: u32) -> AccessRecord {
        AccessRecord {
            array: ArrayId(array),
            name: "r",
            stage,
            index: 0,
            pass: PassId(pass),
            resubmit_depth: depth,
        }
    }

    #[test]
    fn clean_trace_passes_with_stats() {
        let t = vec![
            rec(1, 0, 1, 0),
            rec(2, 1, 1, 0),
            rec(1, 0, 2, 1),
            rec(3, 2, 2, 1),
        ];
        let s = check_discipline(&t, 4).unwrap();
        assert_eq!(s.passes, 2);
        assert_eq!(s.accesses, 4);
        assert_eq!(s.max_resubmit_depth, 1);
        assert_eq!(s.resubmit_histogram.get(&0), Some(&1));
        assert_eq!(s.resubmit_histogram.get(&1), Some(&1));
    }

    #[test]
    fn double_access_detected() {
        let t = vec![rec(1, 0, 1, 0), rec(1, 0, 1, 0)];
        assert!(matches!(
            check_discipline(&t, 4),
            Err(DisciplineViolation::DoubleAccess { .. })
        ));
    }

    #[test]
    fn stage_regression_detected() {
        let t = vec![rec(1, 3, 1, 0), rec(2, 1, 1, 0)];
        assert!(matches!(
            check_discipline(&t, 4),
            Err(DisciplineViolation::StageRegression {
                from_stage: 3,
                to_stage: 1,
                ..
            })
        ));
    }

    #[test]
    fn resubmit_bound_enforced() {
        let t = vec![rec(1, 0, 1, 5)];
        assert!(matches!(
            check_discipline(&t, 4),
            Err(DisciplineViolation::ResubmitTooDeep {
                depth: 5,
                bound: 4,
                ..
            })
        ));
        assert!(check_discipline(&t, 5).is_ok());
    }

    #[test]
    fn same_name_different_arrays_same_stage_ok() {
        // Two distinct arrays may share a name and a stage ("slots" in
        // two pooled stages collapses to this after packing); identity
        // is per-instance.
        let t = vec![rec(1, 2, 1, 0), rec(2, 2, 1, 0)];
        assert!(check_discipline(&t, 0).is_ok());
    }

    #[test]
    fn violation_messages_name_array_and_stage() {
        // Pinned format: every violation message must identify the
        // offending array by name AND its stage index, so a failing
        // feasibility test is diagnosable without a debugger.
        let mut r = rec(1, 3, 7, 0);
        r.name = "tail";
        let double = check_discipline(&[r, r], 4).unwrap_err();
        assert_eq!(
            double.to_string(),
            "DoubleAccess: array 'tail' (stage 3) accessed twice in pass PassId(7)"
        );

        let mut early = rec(2, 1, 7, 0);
        early.name = "count";
        let regress = check_discipline(&[r, early], 4).unwrap_err();
        assert_eq!(
            regress.to_string(),
            "StageRegression: array 'count' (stage 1) accessed after stage 3 in \
             pass PassId(7)"
        );

        let mut deep = rec(3, 2, 9, 6);
        deep.name = "slots";
        let too_deep = check_discipline(&[deep], 4).unwrap_err();
        assert_eq!(
            too_deep.to_string(),
            "ResubmitTooDeep: array 'slots' (stage 2) accessed by pass PassId(9) \
             at resubmit depth 6, exceeding the declared bound 4"
        );
    }

    #[test]
    fn sink_collects_and_drains() {
        let sink = new_sink();
        sink.lock().unwrap().record(rec(1, 0, 1, 0));
        assert_eq!(sink.lock().unwrap().len(), 1);
        let taken = sink.lock().unwrap().take();
        assert_eq!(taken.len(), 1);
        assert!(sink.lock().unwrap().is_empty());
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = check_discipline(&[rec(1, 0, 1, 0)], 4).unwrap();
        let b = check_discipline(&[rec(1, 0, 2, 2), rec(2, 1, 2, 2)], 4).unwrap();
        a.merge(&b);
        assert_eq!(a.passes, 2);
        assert_eq!(a.accesses, 3);
        assert_eq!(a.max_resubmit_depth, 2);
        assert_eq!(a.resubmit_histogram.get(&2), Some(&1));
    }
}

//! The real NetLock FCFS grant path, expressed as a [`TxnProgram`].
//!
//! [`fcfs_enqueue_program`] is Algorithm 2 lines 1–5 — the same
//! conditional enqueue + grant decision that
//! [`crate::shared_queue::SharedQueue::acquire`] hand-writes against
//! `RegisterArray` — written declaratively, one region with capacity
//! `cap`. The verifier assigns it 4 pipeline stages in a single pass,
//! matching the hand-written layout's structure (metadata counters
//! ahead of the slot array), and the differential tests assert that the
//! lowered execution agrees with `dataplane.rs` on every outcome and on
//! the final register state.
//!
//! Modelling notes, where the IR is flatter than the hand-written code:
//! - The `tail` pointer is a *monotone* counter; the circular offset is
//!   recovered as `tail mod cap` by a stateless compute. (A conditional
//!   wrap-to-zero is not a single-ALU operation, a modulo of a
//!   metadata value is.) Compare `tail mod cap` against the real
//!   queue's wrapped tail.
//! - That comparison holds only until the region first drains: the
//!   hand-written enqueue restarts an empty region at offset 0, and the
//!   monotone tail does not. The program models the enqueue-only
//!   domain — no release ever runs against it — which is exactly what
//!   the differential in `tests/integration_txn.rs` drives.
//! - A slot stores `mode + 1` (1 = shared, 2 = exclusive, 0 = empty)
//!   rather than a 20-byte struct; the declared cell width still
//!   charges [`crate::shared_queue::SLOT_BYTES`] so feasibility
//!   accounting matches.

use super::ir::{AluOp, ArrayDecl, BinOp, CmpOp, Export, Operand, Pred, Step, StepOp, TxnProgram};
use crate::shared_queue::SLOT_BYTES;

/// Packet field 0: 1 for an exclusive request, 0 for shared.
pub const FIELD_IS_EXCL: usize = 0;

/// Emitted when the request is enqueued and immediately granted
/// (`a` = count before enqueue, `b` = is_excl).
pub const EMIT_GRANTED: u64 = 1;
/// Emitted when the request is enqueued behind incompatible holders.
pub const EMIT_QUEUED: u64 = 2;
/// Emitted when the region is full and the request overflows to the
/// lock server.
pub const EMIT_FULL: u64 = 3;

/// Program array index of the region-capacity register.
pub const ARR_BOUNDS: usize = 0;
/// Program array index of the `r_i` arrival counter.
pub const ARR_REQ_COUNT: usize = 1;
/// Program array index of the occupancy counter.
pub const ARR_COUNT: usize = 2;
/// Program array index of the `c_i` high-water mark.
pub const ARR_MAX_COUNT: usize = 3;
/// Program array index of the monotone tail counter.
pub const ARR_TAIL: usize = 4;
/// Program array index of the queued-exclusives counter.
pub const ARR_EXCL: usize = 5;
/// Program array index of the slot array (`cap` cells).
pub const ARR_SLOTS: usize = 6;

// Metadata slot map.
const M_CAP: usize = 0; // region capacity (bounds export)
const M_COUNT_OLD: usize = 1; // occupancy before this enqueue
const M_NOT_FULL: usize = 2; // count_old < cap
const M_TAIL_OLD: usize = 3; // monotone tail before this enqueue
const M_EXCL_OLD: usize = 4; // queued exclusives before this enqueue
const M_GRANT: usize = 5; // the grant decision
const M_COUNT_NEW: usize = 6; // count_old + 1
const M_SLOT_OFF: usize = 7; // tail_old mod cap
const M_IS_EMPTY: usize = 8; // count_old == 0
const M_EXCL_ZERO: usize = 9; // excl_old == 0
const M_IS_SHARED: usize = 10; // is_excl == 0
const M_SHARED_OK: usize = 11; // excl_zero && is_shared
const M_SLOT_VAL: usize = 12; // is_excl + 1
const M_EMIT_GRANT: usize = 13; // grant && not_full
const M_NO_GRANT: usize = 14; // !grant
const M_EMIT_QUEUE: usize = 15; // !grant && not_full
const NUM_METAS: usize = 16;

fn c(v: u64) -> Operand {
    Operand::Const(v)
}

fn m(i: usize) -> Operand {
    Operand::Meta(i)
}

fn if_not_full() -> Pred {
    Pred {
        op: CmpOp::Ne,
        a: m(M_NOT_FULL),
        b: c(0),
    }
}

/// The FCFS acquire/enqueue path for one region of capacity `cap`
/// (must be ≥ 1), as a single-pass transaction.
///
/// Grant rule (Algorithm 2): `count_old == 0 || (excl_old == 0 &&
/// mode == Shared)`. Emits exactly one of [`EMIT_GRANTED`],
/// [`EMIT_QUEUED`], [`EMIT_FULL`] per packet.
pub fn fcfs_enqueue_program(cap: u32) -> TxnProgram {
    assert!(cap >= 1, "a zero-capacity region cannot enqueue");
    let f_excl = Operand::Field(FIELD_IS_EXCL);
    TxnProgram {
        name: "fcfs-enqueue",
        max_recirculations: 0,
        arrays: vec![
            ArrayDecl {
                name: "bounds",
                cells: 1,
                bytes_per_cell: 8,
                init: u64::from(cap),
            },
            ArrayDecl {
                name: "req_count",
                cells: 1,
                bytes_per_cell: 8,
                init: 0,
            },
            ArrayDecl {
                name: "count",
                cells: 1,
                bytes_per_cell: 4,
                init: 0,
            },
            ArrayDecl {
                name: "max_count",
                cells: 1,
                bytes_per_cell: 4,
                init: 0,
            },
            ArrayDecl {
                name: "tail",
                cells: 1,
                bytes_per_cell: 4,
                init: 0,
            },
            ArrayDecl {
                name: "excl",
                cells: 1,
                bytes_per_cell: 4,
                init: 0,
            },
            ArrayDecl {
                name: "slots",
                cells: cap as usize,
                bytes_per_cell: SLOT_BYTES,
                init: 0,
            },
        ],
        num_fields: 1,
        num_metas: NUM_METAS,
        steps: vec![
            // Stage 0: read the region capacity; count the arrival.
            Step::new(StepOp::Rmw {
                array: ARR_BOUNDS,
                index: c(0),
                cond: None,
                alu: AluOp::Add,
                value: c(0),
                export: Some((M_CAP, Export::Old)),
            }),
            Step::new(StepOp::Rmw {
                array: ARR_REQ_COUNT,
                index: c(0),
                cond: None,
                alu: AluOp::Add,
                value: c(1),
                export: None,
            }),
            // Stage 1: conditional occupancy increment (only if space).
            Step::new(StepOp::Rmw {
                array: ARR_COUNT,
                index: c(0),
                cond: Some((CmpOp::Lt, m(M_CAP))),
                alu: AluOp::Add,
                value: c(1),
                export: Some((M_COUNT_OLD, Export::Old)),
            }),
            // Stage 2 metadata: full test + new occupancy.
            Step::new(StepOp::Compute {
                dst: M_NOT_FULL,
                op: BinOp::Lt,
                a: m(M_COUNT_OLD),
                b: m(M_CAP),
            }),
            Step::new(StepOp::Compute {
                dst: M_COUNT_NEW,
                op: BinOp::Add,
                a: m(M_COUNT_OLD),
                b: c(1),
            }),
            // Stage 2 stateful (all skipped on the overflow path).
            Step::guarded(
                if_not_full(),
                StepOp::Rmw {
                    array: ARR_MAX_COUNT,
                    index: c(0),
                    cond: None,
                    alu: AluOp::Max,
                    value: m(M_COUNT_NEW),
                    export: None,
                },
            ),
            Step::guarded(
                if_not_full(),
                StepOp::Rmw {
                    array: ARR_TAIL,
                    index: c(0),
                    cond: None,
                    alu: AluOp::Add,
                    value: c(1),
                    export: Some((M_TAIL_OLD, Export::Old)),
                },
            ),
            Step::guarded(
                if_not_full(),
                StepOp::Rmw {
                    array: ARR_EXCL,
                    index: c(0),
                    cond: None,
                    alu: AluOp::Add,
                    value: f_excl,
                    export: Some((M_EXCL_OLD, Export::Old)),
                },
            ),
            // Stage 3 metadata: slot offset and the grant decision.
            Step::new(StepOp::Compute {
                dst: M_SLOT_OFF,
                op: BinOp::Mod,
                a: m(M_TAIL_OLD),
                b: m(M_CAP),
            }),
            Step::new(StepOp::Compute {
                dst: M_IS_EMPTY,
                op: BinOp::Eq,
                a: m(M_COUNT_OLD),
                b: c(0),
            }),
            Step::new(StepOp::Compute {
                dst: M_EXCL_ZERO,
                op: BinOp::Eq,
                a: m(M_EXCL_OLD),
                b: c(0),
            }),
            Step::new(StepOp::Compute {
                dst: M_IS_SHARED,
                op: BinOp::Eq,
                a: f_excl,
                b: c(0),
            }),
            Step::new(StepOp::Compute {
                dst: M_SHARED_OK,
                op: BinOp::And,
                a: m(M_EXCL_ZERO),
                b: m(M_IS_SHARED),
            }),
            Step::new(StepOp::Compute {
                dst: M_GRANT,
                op: BinOp::Or,
                a: m(M_IS_EMPTY),
                b: m(M_SHARED_OK),
            }),
            // Stage 3 stateful: write the slot at tail_old mod cap.
            Step::new(StepOp::Compute {
                dst: M_SLOT_VAL,
                op: BinOp::Add,
                a: f_excl,
                b: c(1),
            }),
            Step::guarded(
                if_not_full(),
                StepOp::Rmw {
                    array: ARR_SLOTS,
                    index: m(M_SLOT_OFF),
                    cond: None,
                    alu: AluOp::Write,
                    value: m(M_SLOT_VAL),
                    export: None,
                },
            ),
            // Exactly one emit fires per packet.
            Step::new(StepOp::Compute {
                dst: M_EMIT_GRANT,
                op: BinOp::And,
                a: m(M_GRANT),
                b: m(M_NOT_FULL),
            }),
            Step::guarded(
                Pred {
                    op: CmpOp::Ne,
                    a: m(M_EMIT_GRANT),
                    b: c(0),
                },
                StepOp::Emit {
                    kind: EMIT_GRANTED,
                    a: m(M_COUNT_OLD),
                    b: f_excl,
                },
            ),
            Step::new(StepOp::Compute {
                dst: M_NO_GRANT,
                op: BinOp::Eq,
                a: m(M_GRANT),
                b: c(0),
            }),
            Step::new(StepOp::Compute {
                dst: M_EMIT_QUEUE,
                op: BinOp::And,
                a: m(M_NO_GRANT),
                b: m(M_NOT_FULL),
            }),
            Step::guarded(
                Pred {
                    op: CmpOp::Ne,
                    a: m(M_EMIT_QUEUE),
                    b: c(0),
                },
                StepOp::Emit {
                    kind: EMIT_QUEUED,
                    a: m(M_COUNT_OLD),
                    b: f_excl,
                },
            ),
            Step::guarded(
                Pred {
                    op: CmpOp::Eq,
                    a: m(M_NOT_FULL),
                    b: c(0),
                },
                StepOp::Emit {
                    kind: EMIT_FULL,
                    a: m(M_COUNT_OLD),
                    b: f_excl,
                },
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::super::exec::LoweredTxn;
    use super::*;
    use crate::analysis::layout::TofinoBudget;
    use crate::txn::ir::TxnAction;
    use crate::txn::verify::verify;

    fn compile(cap: u32) -> LoweredTxn {
        LoweredTxn::compile(
            fcfs_enqueue_program(cap),
            &TofinoBudget::tofino_single_direction(),
        )
        .expect("the grant path must fit half a Tofino")
    }

    #[test]
    fn fits_single_direction_in_four_stages_one_pass() {
        let v = verify(
            fcfs_enqueue_program(8),
            &TofinoBudget::tofino_single_direction(),
        )
        .unwrap();
        assert_eq!(v.passes(), 1, "the acquire path never recirculates");
        assert_eq!(v.layout().occupied_stages(), 4);
        assert_eq!(v.array_stage(ARR_BOUNDS), Some(0));
        assert_eq!(v.array_stage(ARR_COUNT), Some(1));
        assert_eq!(v.array_stage(ARR_EXCL), Some(2));
        assert_eq!(v.array_stage(ARR_SLOTS), Some(3));
        let map = v.stage_map().to_string();
        assert!(map.contains("'slots'"), "{map}");
    }

    #[test]
    fn grant_rule_matches_algorithm_2() {
        let mut t = compile(4);
        let mut out = Vec::new();
        let run = |t: &mut LoweredTxn, excl: u64, out: &mut Vec<TxnAction>| {
            out.clear();
            t.run(&[excl], out);
            assert_eq!(out.len(), 1, "exactly one outcome per packet");
            out[0].kind
        };
        // Empty queue grants either mode.
        assert_eq!(run(&mut t, 1, &mut out), EMIT_GRANTED);
        // Exclusive holder blocks everyone.
        assert_eq!(run(&mut t, 0, &mut out), EMIT_QUEUED);
        assert_eq!(run(&mut t, 1, &mut out), EMIT_QUEUED);
        // Fourth fills the region; fifth overflows.
        assert_eq!(run(&mut t, 0, &mut out), EMIT_QUEUED);
        assert_eq!(run(&mut t, 0, &mut out), EMIT_FULL);
        // All-shared queues grant shared requests.
        let mut s = compile(4);
        assert_eq!(run(&mut s, 0, &mut out), EMIT_GRANTED);
        assert_eq!(run(&mut s, 0, &mut out), EMIT_GRANTED);
        assert_eq!(run(&mut s, 1, &mut out), EMIT_QUEUED);
    }

    #[test]
    fn overflow_leaves_state_untouched_except_req_count() {
        let mut t = compile(1);
        let mut out = Vec::new();
        t.run(&[1], &mut out);
        let before = t.dump();
        t.run(&[0], &mut out); // full
        let after = t.dump();
        assert_eq!(out[1].kind, EMIT_FULL);
        for i in 0..before.len() {
            if i == ARR_REQ_COUNT {
                assert_eq!(after[i][0], before[i][0] + 1);
            } else {
                assert_eq!(after[i], before[i], "array {i} mutated on overflow");
            }
        }
    }
}

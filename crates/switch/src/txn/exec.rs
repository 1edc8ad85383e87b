//! The lowered stage-by-stage executor.
//!
//! [`LoweredTxn::compile`] runs the static verifier and then
//! materializes each accessed array as a real [`RegisterArray`] at its
//! assigned stage. [`LoweredTxn::run`] executes one packet the way the
//! pipeline would: a [`crate::register::Pass`] per traversal, a fresh
//! pass after every [`super::ir::StepOp::Recirculate`], and every
//! stateful step going through [`RegisterArray::access`] — so the
//! runtime discipline asserts (one access per array per pass, ascending
//! stages) re-check what the verifier proved statically. A trace sink
//! can be attached to collect [`crate::analysis::trace::AccessRecord`]s
//! and replay them through `check_discipline`, giving the differential
//! fuzzer a third, runtime-observed ground truth.
//!
//! The executor allocates only at compile time: `run` reuses the
//! metadata scratchpad and appends into a caller-owned action buffer,
//! preserving the zero-allocation-per-packet invariant the benches
//! gate on.

use crate::analysis::layout::TofinoBudget;
use crate::analysis::trace::TraceSink;
use crate::register::PassAllocator;
use crate::register::RegisterArray;

use super::ir::{rmw_apply, Export, StepOp, TxnAction, TxnProgram};
use super::verify::{verify, TxnError, VerifiedTxn};

/// A compiled transaction: verified stage assignment plus live register
/// state.
#[derive(Debug)]
pub struct LoweredTxn {
    verified: VerifiedTxn,
    /// One live array per *accessed* program array, in program-array
    /// order; `slots[i]` maps program array `i` into `arrays`.
    arrays: Vec<RegisterArray<u64>>,
    slots: Vec<Option<usize>>,
    passes: PassAllocator,
    metas: Vec<u64>,
}

impl LoweredTxn {
    /// Verify `program` against `budget` and materialize its register
    /// state. All rejection paths are [`TxnError`]s from the verifier.
    pub fn compile(program: TxnProgram, budget: &TofinoBudget) -> Result<LoweredTxn, TxnError> {
        let verified = verify(program, budget)?;
        let mut arrays = Vec::new();
        let mut slots = vec![None; verified.program().arrays.len()];
        for (i, decl) in verified.program().arrays.iter().enumerate() {
            if let Some(stage) = verified.array_stage(i) {
                slots[i] = Some(arrays.len());
                arrays.push(RegisterArray::new(decl.name, stage, decl.cells, decl.init));
            }
        }
        let num_metas = verified.program().num_metas;
        Ok(LoweredTxn {
            verified,
            arrays,
            slots,
            passes: PassAllocator::new(),
            metas: vec![0; num_metas],
        })
    }

    /// The verified assignment (stage map, layout, program).
    pub fn verified(&self) -> &VerifiedTxn {
        &self.verified
    }

    /// Install (or remove) a trace sink; every subsequent pass records
    /// its register accesses into it.
    pub fn set_trace_sink(&mut self, sink: Option<TraceSink>) {
        self.passes.set_trace_sink(sink);
    }

    /// Run one packet through the lowered pipeline, appending emitted
    /// actions to `out`. Steady-state allocation-free.
    ///
    /// # Panics
    /// Panics if `fields.len() != program.num_fields`, or — which would
    /// mean a verifier bug — if a register access violates the runtime
    /// discipline.
    pub fn run(&mut self, fields: &[u64], out: &mut Vec<TxnAction>) {
        let program = self.verified.program();
        assert_eq!(fields.len(), program.num_fields, "field arity mismatch");
        self.metas.iter_mut().for_each(|m| *m = 0);
        let mut depth: u32 = 0;
        let mut pass = self.passes.begin(depth);
        for step in &program.steps {
            if let Some(g) = &step.guard {
                if !g.holds(fields, &self.metas) {
                    continue;
                }
            }
            match step.op {
                StepOp::Rmw {
                    array,
                    index,
                    cond,
                    alu,
                    value,
                    export,
                } => {
                    let slot = self.slots[array].expect("accessed arrays are materialized");
                    let arr = &mut self.arrays[slot];
                    let idx = index.eval(fields, &self.metas) as usize % arr.len();
                    let cond = cond.map(|(c, v)| (c, v.eval(fields, &self.metas)));
                    let v = value.eval(fields, &self.metas);
                    let (old, new) = arr.access(&mut pass, idx, |cell| {
                        let r = rmw_apply(*cell, cond, alu, v);
                        *cell = r.1;
                        r
                    });
                    if let Some((m, which)) = export {
                        self.metas[m] = match which {
                            Export::Old => old,
                            Export::New => new,
                        };
                    }
                }
                StepOp::Compute { dst, op, a, b } => {
                    self.metas[dst] =
                        op.apply(a.eval(fields, &self.metas), b.eval(fields, &self.metas));
                }
                StepOp::Emit { kind, a, b } => out.push(TxnAction {
                    kind,
                    a: a.eval(fields, &self.metas),
                    b: b.eval(fields, &self.metas),
                }),
                StepOp::Recirculate => {
                    depth += 1;
                    pass = self.passes.begin(depth);
                }
            }
        }
    }

    /// Snapshot every *program* array (unaccessed ones at their declared
    /// init), shape-identical to [`super::interp::TxnInterpreter::dump`].
    pub fn dump(&self) -> Vec<Vec<u64>> {
        self.verified
            .program()
            .arrays
            .iter()
            .enumerate()
            .map(|(i, decl)| match self.slots[i] {
                Some(slot) => {
                    let arr = &self.arrays[slot];
                    (0..arr.len()).map(|c| arr.cp_read(c)).collect()
                }
                None => vec![decl.init; decl.cells],
            })
            .collect()
    }

    /// Control-plane reset: refill every array with its declared init
    /// (no allocation; the bench harness uses this between batches).
    pub fn cp_reset(&mut self) {
        for (i, decl) in self.verified.program().arrays.iter().enumerate() {
            if let Some(slot) = self.slots[i] {
                self.arrays[slot].cp_fill(decl.init);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::interp::TxnInterpreter;
    use super::super::ir::{AluOp, ArrayDecl, BinOp, CmpOp, Export, Operand, Pred, Step, StepOp};
    use super::*;
    use crate::analysis::trace::{check_discipline, new_sink};

    fn program() -> TxnProgram {
        // Two-pass program exercising guards, conds, exports, computes.
        TxnProgram {
            name: "exec-smoke",
            max_recirculations: 1,
            arrays: vec![
                ArrayDecl {
                    name: "x",
                    cells: 4,
                    bytes_per_cell: 8,
                    init: 0,
                },
                ArrayDecl {
                    name: "y",
                    cells: 2,
                    bytes_per_cell: 8,
                    init: 7,
                },
            ],
            num_fields: 2,
            num_metas: 3,
            steps: vec![
                Step::new(StepOp::Rmw {
                    array: 0,
                    index: Operand::Field(0),
                    cond: Some((CmpOp::Lt, Operand::Const(3))),
                    alu: AluOp::Add,
                    value: Operand::Const(1),
                    export: Some((0, Export::Old)),
                }),
                Step::new(StepOp::Compute {
                    dst: 1,
                    op: BinOp::Add,
                    a: Operand::Meta(0),
                    b: Operand::Field(1),
                }),
                Step::guarded(
                    Pred {
                        op: CmpOp::Lt,
                        a: Operand::Meta(0),
                        b: Operand::Const(2),
                    },
                    StepOp::Emit {
                        kind: 9,
                        a: Operand::Meta(1),
                        b: Operand::Field(0),
                    },
                ),
                Step::new(StepOp::Recirculate),
                Step::new(StepOp::Rmw {
                    array: 1,
                    index: Operand::Const(0),
                    cond: None,
                    alu: AluOp::Max,
                    value: Operand::Meta(1),
                    export: None,
                }),
            ],
        }
    }

    #[test]
    fn lowered_matches_interpreter_on_a_fixed_program() {
        let p = program();
        let mut lowered = LoweredTxn::compile(p.clone(), &TofinoBudget::tofino()).unwrap();
        let mut interp = TxnInterpreter::new(&p);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for f0 in 0..6u64 {
            for f1 in 0..3u64 {
                lowered.run(&[f0, f1], &mut a);
                interp.run(&p, &[f0, f1], &mut b);
            }
        }
        assert_eq!(a, b);
        assert_eq!(lowered.dump(), interp.dump());
    }

    #[test]
    fn runtime_trace_passes_check_discipline() {
        let p = program();
        let mut lowered = LoweredTxn::compile(p, &TofinoBudget::tofino()).unwrap();
        let sink = new_sink();
        lowered.set_trace_sink(Some(sink.clone()));
        let mut out = Vec::new();
        for f0 in 0..4u64 {
            lowered.run(&[f0, 1], &mut out);
        }
        let records = sink.lock().unwrap().take();
        assert!(!records.is_empty());
        let stats = check_discipline(&records, 1).expect("runtime trace is disciplined");
        assert_eq!(stats.max_resubmit_depth, 1);
    }

    #[test]
    fn cp_reset_restores_declared_inits() {
        let p = program();
        let mut lowered = LoweredTxn::compile(p, &TofinoBudget::tofino()).unwrap();
        let mut out = Vec::new();
        lowered.run(&[0, 1], &mut out);
        lowered.cp_reset();
        assert_eq!(lowered.dump(), vec![vec![0, 0, 0, 0], vec![7, 7]]);
    }
}

//! The packet-transaction IR.
//!
//! A [`TxnProgram`] is a straight-line list of guarded steps describing
//! what one packet does to the switch's register arrays: stateful
//! read-modify-writes ([`StepOp::Rmw`]), stateless metadata computation
//! ([`StepOp::Compute`]), packet actions ([`StepOp::Emit`]) and explicit
//! pipeline recirculation ([`StepOp::Recirculate`]). The program is
//! *declarative*: it names arrays and data flow but assigns no pipeline
//! stages — stage assignment is the job of the static verifier in
//! [`mod@super::verify`], and the same program can be executed either by the
//! one-shot interpreter ([`super::interp`]) or by the lowered
//! stage-by-stage executor ([`super::exec`]). The two must agree; the
//! differential fuzzer in `switch/tests/fuzz_txn_differential.rs` checks
//! that they do.
//!
//! Value model: every register cell, packet field and metadata slot is a
//! `u64`. Arithmetic wraps; comparisons yield `0`/`1`; `x % 0` is
//! defined as `0` so no program can fault on a modulo. Register indices
//! wrap modulo the array length, so a well-formed program can never
//! access out of bounds in either executor.

use std::fmt;

/// A value source: a literal, a packet header field, or a metadata slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Operand {
    /// A literal constant.
    Const(u64),
    /// Packet header field `fields[i]` (read-only, set by the packet).
    Field(usize),
    /// Metadata slot `metas[i]` (zeroed per packet, carried across
    /// recirculations, written by [`StepOp::Compute`] and RMW exports).
    Meta(usize),
}

impl Operand {
    /// Evaluate against a packet's fields and metadata.
    #[inline]
    pub fn eval(self, fields: &[u64], metas: &[u64]) -> u64 {
        match self {
            Operand::Const(v) => v,
            Operand::Field(i) => fields[i],
            Operand::Meta(i) => metas[i],
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Const(v) => write!(f, "c{v}"),
            Operand::Field(i) => write!(f, "f{i}"),
            Operand::Meta(i) => write!(f, "m{i}"),
        }
    }
}

/// A comparison operator (used by guards and RMW conditions).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// `a < b`
    Lt,
    /// `a <= b`
    Le,
    /// `a > b`
    Gt,
    /// `a >= b`
    Ge,
}

impl CmpOp {
    /// Apply the comparison.
    #[inline]
    pub fn holds(self, a: u64, b: u64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The name [`Pred`]'s and [`Step`]'s `Display` print for this
    /// comparison.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }
}

/// A step guard: the step executes only when the predicate holds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Pred {
    /// The comparison.
    pub op: CmpOp,
    /// Left operand.
    pub a: Operand,
    /// Right operand.
    pub b: Operand,
}

impl Pred {
    /// Evaluate the predicate for a packet.
    #[inline]
    pub fn holds(&self, fields: &[u64], metas: &[u64]) -> bool {
        self.op
            .holds(self.a.eval(fields, metas), self.b.eval(fields, metas))
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.op.mnemonic(), self.a, self.b)
    }
}

/// The update a stateful ALU applies to a register cell.
///
/// This is the Tofino stateful-ALU instruction set as the model needs
/// it: one read-modify-write per array per pass, computing the new cell
/// value from the old value and one input operand.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AluOp {
    /// `cell = v`
    Write,
    /// `cell = cell + v` (wrapping)
    Add,
    /// `cell = cell - v` (wrapping)
    Sub,
    /// `cell = max(cell, v)`
    Max,
    /// `cell = min(cell, v)`
    Min,
}

impl AluOp {
    /// Compute the post-update cell value.
    #[inline]
    pub fn apply(self, old: u64, v: u64) -> u64 {
        match self {
            AluOp::Write => v,
            AluOp::Add => old.wrapping_add(v),
            AluOp::Sub => old.wrapping_sub(v),
            AluOp::Max => old.max(v),
            AluOp::Min => old.min(v),
        }
    }

    /// The name [`Step`]'s `Display` prints for this register update.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Write => "write",
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Max => "max",
            AluOp::Min => "min",
        }
    }
}

/// A stateless two-operand metadata computation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// `(a == b) as u64`
    Eq,
    /// `(a != b) as u64`
    Ne,
    /// `(a < b) as u64`
    Lt,
    /// `a % b`, with `a % 0 == 0`.
    Mod,
}

impl BinOp {
    /// Apply the operation.
    #[inline]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Eq => (a == b) as u64,
            BinOp::Ne => (a != b) as u64,
            BinOp::Lt => (a < b) as u64,
            BinOp::Mod => {
                if b == 0 {
                    0
                } else {
                    a % b
                }
            }
        }
    }

    /// The name [`Step`]'s `Display` prints for this computation.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Eq => "eq",
            BinOp::Ne => "ne",
            BinOp::Lt => "lt",
            BinOp::Mod => "mod",
        }
    }
}

/// Which value of a read-modify-write is exported into metadata.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Export {
    /// The pre-update cell value (what Tofino's stateful ALU exports).
    Old,
    /// The post-update cell value.
    New,
}

/// Declaration of one register array the program uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ArrayDecl {
    /// Display name (must have `'static` lifetime to flow into
    /// [`crate::register::RegisterArray`] and the access trace).
    pub name: &'static str,
    /// Number of cells (must be > 0).
    pub cells: usize,
    /// On-chip bytes per cell, for SRAM accounting.
    pub bytes_per_cell: usize,
    /// Initial cell value (models control-plane pre-configuration, e.g.
    /// region bounds written over PCIe before traffic arrives).
    pub init: u64,
}

/// The operation a step performs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepOp {
    /// One stateful read-modify-write of a register array.
    Rmw {
        /// Index into [`TxnProgram::arrays`].
        array: usize,
        /// Cell index, reduced modulo the array length.
        index: Operand,
        /// Optional update condition: the ALU writes the new value only
        /// when `cmp(old_cell_value, operand)` holds (e.g. the shared
        /// queue's conditional count increment `old < cap`). The old
        /// value is still read and exportable either way.
        cond: Option<(CmpOp, Operand)>,
        /// The update applied when the condition holds.
        alu: AluOp,
        /// The ALU input operand.
        value: Operand,
        /// Export the old or new cell value into `metas[slot]`.
        export: Option<(usize, Export)>,
    },
    /// A stateless metadata computation `metas[dst] = op(a, b)`.
    Compute {
        /// Destination metadata slot.
        dst: usize,
        /// The operation.
        op: BinOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// Emit a packet action (grant, forward, notify — the transaction's
    /// externally visible output).
    Emit {
        /// Action kind tag (program-defined, e.g. "granted"/"queued").
        kind: u64,
        /// First payload operand.
        a: Operand,
        /// Second payload operand.
        b: Operand,
    },
    /// End the current pipeline pass and continue in a resubmitted one.
    /// Must be unguarded (a data-dependent recirculation would make the
    /// stage assignment of every later step ambiguous).
    Recirculate,
}

/// One guarded step of a transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Step {
    /// Optional guard; the step only executes when it holds.
    pub guard: Option<Pred>,
    /// The operation.
    pub op: StepOp,
}

impl Step {
    /// An unguarded step.
    pub fn new(op: StepOp) -> Step {
        Step { guard: None, op }
    }

    /// A guarded step.
    pub fn guarded(guard: Pred, op: StepOp) -> Step {
        Step {
            guard: Some(guard),
            op,
        }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(g) = &self.guard {
            write!(f, "[{g}] ")?;
        }
        match &self.op {
            StepOp::Rmw {
                array,
                index,
                cond,
                alu,
                value,
                export,
            } => {
                write!(f, "rmw a{array}[{index}] {} {value}", alu.mnemonic())?;
                if let Some((cmp, v)) = cond {
                    write!(f, " if-old {} {v}", cmp.mnemonic())?;
                }
                if let Some((m, e)) = export {
                    let which = match e {
                        Export::Old => "old",
                        Export::New => "new",
                    };
                    write!(f, " -> m{m}:{which}")?;
                }
                Ok(())
            }
            StepOp::Compute { dst, op, a, b } => {
                write!(f, "m{dst} = {} {a} {b}", op.mnemonic())
            }
            StepOp::Emit { kind, a, b } => write!(f, "emit k{kind} {a} {b}"),
            StepOp::Recirculate => write!(f, "recirculate"),
        }
    }
}

/// An emitted packet action: the externally visible output of a
/// transaction, compared verbatim by the differential fuzzer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TxnAction {
    /// The emitting step's kind tag.
    pub kind: u64,
    /// First payload value.
    pub a: u64,
    /// Second payload value.
    pub b: u64,
}

/// A validation error from [`TxnProgram::validate`]: a structurally
/// ill-formed program (dangling references, zero-size arrays).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IrError {
    /// A step references an array index outside [`TxnProgram::arrays`].
    ArrayOutOfRange {
        /// The offending step index.
        step: usize,
        /// The referenced array index.
        array: usize,
    },
    /// An array is declared with zero cells.
    EmptyArray {
        /// The offending array index.
        array: usize,
    },
    /// An operand or export references a field/meta slot out of range.
    SlotOutOfRange {
        /// The offending step index.
        step: usize,
    },
    /// A [`StepOp::Recirculate`] step carries a guard.
    GuardedRecirculate {
        /// The offending step index.
        step: usize,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::ArrayOutOfRange { step, array } => {
                write!(f, "step {step} references undeclared array a{array}")
            }
            IrError::EmptyArray { array } => write!(f, "array a{array} has zero cells"),
            IrError::SlotOutOfRange { step } => {
                write!(f, "step {step} references a field/meta slot out of range")
            }
            IrError::GuardedRecirculate { step } => {
                write!(f, "step {step}: recirculate must be unguarded")
            }
        }
    }
}

impl std::error::Error for IrError {}

/// A complete packet transaction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TxnProgram {
    /// Display name.
    pub name: &'static str,
    /// Declared worst-case recirculations per packet; the verifier
    /// rejects programs whose static [`StepOp::Recirculate`] count
    /// exceeds it.
    pub max_recirculations: u32,
    /// The register arrays the program owns.
    pub arrays: Vec<ArrayDecl>,
    /// Number of packet header fields the program reads.
    pub num_fields: usize,
    /// Number of metadata slots the program uses.
    pub num_metas: usize,
    /// The steps, in program order.
    pub steps: Vec<Step>,
}

impl TxnProgram {
    /// Check structural well-formedness: every array/field/meta
    /// reference in range, no zero-cell arrays, no guarded recirculate.
    pub fn validate(&self) -> Result<(), IrError> {
        for (i, a) in self.arrays.iter().enumerate() {
            if a.cells == 0 {
                return Err(IrError::EmptyArray { array: i });
            }
        }
        let slot_ok = |op: Operand| match op {
            Operand::Const(_) => true,
            Operand::Field(i) => i < self.num_fields,
            Operand::Meta(i) => i < self.num_metas,
        };
        for (si, step) in self.steps.iter().enumerate() {
            if let Some(g) = &step.guard {
                if matches!(step.op, StepOp::Recirculate) {
                    return Err(IrError::GuardedRecirculate { step: si });
                }
                if !slot_ok(g.a) || !slot_ok(g.b) {
                    return Err(IrError::SlotOutOfRange { step: si });
                }
            }
            match &step.op {
                StepOp::Rmw {
                    array,
                    index,
                    cond,
                    value,
                    export,
                    ..
                } => {
                    if *array >= self.arrays.len() {
                        return Err(IrError::ArrayOutOfRange {
                            step: si,
                            array: *array,
                        });
                    }
                    if !slot_ok(*index) || !slot_ok(*value) {
                        return Err(IrError::SlotOutOfRange { step: si });
                    }
                    if let Some((_, v)) = cond {
                        if !slot_ok(*v) {
                            return Err(IrError::SlotOutOfRange { step: si });
                        }
                    }
                    if let Some((m, _)) = export {
                        if *m >= self.num_metas {
                            return Err(IrError::SlotOutOfRange { step: si });
                        }
                    }
                }
                StepOp::Compute { dst, a, b, .. } => {
                    if *dst >= self.num_metas || !slot_ok(*a) || !slot_ok(*b) {
                        return Err(IrError::SlotOutOfRange { step: si });
                    }
                }
                StepOp::Emit { a, b, .. } => {
                    if !slot_ok(*a) || !slot_ok(*b) {
                        return Err(IrError::SlotOutOfRange { step: si });
                    }
                }
                StepOp::Recirculate => {}
            }
        }
        Ok(())
    }

    /// Static count of [`StepOp::Recirculate`] steps (the number of
    /// resubmits every packet performs; recirculation is unconditional).
    pub fn recirculations(&self) -> u32 {
        self.steps
            .iter()
            .filter(|s| matches!(s.op, StepOp::Recirculate))
            .count() as u32
    }
}

/// Apply one read-modify-write to a cell value, shared by both
/// executors so their ALU semantics cannot drift apart. Returns
/// `(old, new)`; the caller stores `new` back and exports per the
/// step's [`Export`] selector.
#[inline]
pub fn rmw_apply(old: u64, cond: Option<(CmpOp, u64)>, alu: AluOp, value: u64) -> (u64, u64) {
    let update = match cond {
        None => true,
        Some((cmp, v)) => cmp.holds(old, v),
    };
    let new = if update { alu.apply(old, value) } else { old };
    (old, new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TxnProgram {
        TxnProgram {
            name: "tiny",
            max_recirculations: 0,
            arrays: vec![ArrayDecl {
                name: "r0",
                cells: 4,
                bytes_per_cell: 4,
                init: 0,
            }],
            num_fields: 1,
            num_metas: 2,
            steps: vec![Step::new(StepOp::Rmw {
                array: 0,
                index: Operand::Field(0),
                cond: None,
                alu: AluOp::Add,
                value: Operand::Const(1),
                export: Some((0, Export::Old)),
            })],
        }
    }

    #[test]
    fn valid_program_validates() {
        assert_eq!(tiny().validate(), Ok(()));
    }

    #[test]
    fn dangling_array_rejected() {
        let mut p = tiny();
        p.steps.push(Step::new(StepOp::Rmw {
            array: 3,
            index: Operand::Const(0),
            cond: None,
            alu: AluOp::Write,
            value: Operand::Const(0),
            export: None,
        }));
        assert!(matches!(
            p.validate(),
            Err(IrError::ArrayOutOfRange { step: 1, array: 3 })
        ));
    }

    #[test]
    fn oob_meta_rejected() {
        let mut p = tiny();
        p.steps.push(Step::new(StepOp::Compute {
            dst: 9,
            op: BinOp::Add,
            a: Operand::Const(0),
            b: Operand::Const(0),
        }));
        assert!(matches!(
            p.validate(),
            Err(IrError::SlotOutOfRange { step: 1 })
        ));
    }

    #[test]
    fn guarded_recirculate_rejected() {
        let mut p = tiny();
        p.steps.push(Step::guarded(
            Pred {
                op: CmpOp::Eq,
                a: Operand::Const(0),
                b: Operand::Const(0),
            },
            StepOp::Recirculate,
        ));
        assert!(matches!(
            p.validate(),
            Err(IrError::GuardedRecirculate { step: 1 })
        ));
    }

    #[test]
    fn zero_cell_array_rejected() {
        let mut p = tiny();
        p.arrays[0].cells = 0;
        assert!(matches!(
            p.validate(),
            Err(IrError::EmptyArray { array: 0 })
        ));
    }

    #[test]
    fn alu_and_binop_semantics() {
        assert_eq!(AluOp::Write.apply(7, 3), 3);
        assert_eq!(AluOp::Add.apply(u64::MAX, 1), 0, "wrapping");
        assert_eq!(AluOp::Sub.apply(0, 1), u64::MAX, "wrapping");
        assert_eq!(AluOp::Max.apply(2, 9), 9);
        assert_eq!(AluOp::Min.apply(2, 9), 2);
        assert_eq!(BinOp::Mod.apply(10, 0), 0, "mod-zero is defined");
        assert_eq!(BinOp::Mod.apply(10, 3), 1);
        assert_eq!(BinOp::Lt.apply(1, 2), 1);
        assert_eq!(BinOp::Eq.apply(2, 2), 1);
    }

    #[test]
    fn conditional_rmw_skips_update_but_reads() {
        // old = 5, cond old < 3 fails: cell unchanged, old still read.
        let (old, new) = rmw_apply(5, Some((CmpOp::Lt, 3)), AluOp::Add, 1);
        assert_eq!((old, new), (5, 5));
        let (old, new) = rmw_apply(2, Some((CmpOp::Lt, 3)), AluOp::Add, 1);
        assert_eq!((old, new), (2, 3));
    }

    #[test]
    fn step_display_is_compact() {
        let s = Step::guarded(
            Pred {
                op: CmpOp::Ne,
                a: Operand::Meta(2),
                b: Operand::Const(0),
            },
            StepOp::Rmw {
                array: 1,
                index: Operand::Meta(7),
                cond: Some((CmpOp::Lt, Operand::Meta(0))),
                alu: AluOp::Add,
                value: Operand::Const(1),
                export: Some((3, Export::Old)),
            },
        );
        assert_eq!(
            s.to_string(),
            "[ne m2 c0] rmw a1[m7] add c1 if-old lt m0 -> m3:old"
        );
    }
}

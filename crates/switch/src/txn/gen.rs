//! Seeded random [`TxnProgram`] and packet generation for the
//! differential fuzzer.
//!
//! Programs are *mostly* well-formed: array/field/meta references are
//! always in range (so [`TxnProgram::validate`] passes), but a small
//! fraction deliberately re-access an array within a pass or
//! under-declare their recirculation budget, exercising the verifier's
//! rejection paths. The fuzzer runs the differential check on programs
//! the verifier accepts and asserts rejections are deterministic.
//!
//! Everything here is seeded [`SmallRng`]: the same seed always yields
//! the same program and packets, so a seed is the whole reproducer of a
//! finding. `fuzz_txn_differential.rs` pins the found seeds with their
//! expected verdicts.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use super::ir::{AluOp, ArrayDecl, BinOp, CmpOp, Export, Operand, Pred, Step, StepOp, TxnProgram};

/// Canonical static names for generated arrays (index `i` → `"g<i>"`).
/// [`RegisterArray`](crate::register::RegisterArray) names are
/// `&'static str`, so generated programs draw from this fixed table.
fn array_name(i: usize) -> &'static str {
    const NAMES: [&str; 16] = [
        "g0", "g1", "g2", "g3", "g4", "g5", "g6", "g7", "g8", "g9", "g10", "g11", "g12", "g13",
        "g14", "g15",
    ];
    NAMES[i]
}

const MAX_RECIRCS: u32 = 3;

fn operand(rng: &mut SmallRng, num_fields: usize, num_metas: usize) -> Operand {
    match rng.random_range(0..10u32) {
        0..=3 => Operand::Const(rng.random_range(0..8u64)),
        4..=6 => Operand::Field(rng.random_range(0..num_fields)),
        _ => Operand::Meta(rng.random_range(0..num_metas)),
    }
}

fn cmp_op(rng: &mut SmallRng) -> CmpOp {
    match rng.random_range(0..6u32) {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        _ => CmpOp::Ge,
    }
}

fn alu_op(rng: &mut SmallRng) -> AluOp {
    match rng.random_range(0..5u32) {
        0 => AluOp::Write,
        1 => AluOp::Add,
        2 => AluOp::Sub,
        3 => AluOp::Max,
        _ => AluOp::Min,
    }
}

fn bin_op(rng: &mut SmallRng) -> BinOp {
    match rng.random_range(0..11u32) {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Min,
        3 => BinOp::Max,
        4 => BinOp::And,
        5 => BinOp::Or,
        6 => BinOp::Xor,
        7 => BinOp::Eq,
        8 => BinOp::Ne,
        9 => BinOp::Lt,
        _ => BinOp::Mod,
    }
}

/// Generate a random program from a seed. Deterministic per seed.
pub fn program(seed: u64) -> TxnProgram {
    let rng = &mut SmallRng::seed_from_u64(seed);
    let num_arrays = rng.random_range(1..5usize);
    let num_fields = rng.random_range(1..4usize);
    let num_metas = rng.random_range(4..8usize);
    let arrays: Vec<ArrayDecl> = (0..num_arrays)
        .map(|i| ArrayDecl {
            name: array_name(i),
            cells: rng.random_range(1..9usize),
            bytes_per_cell: if rng.random::<bool>() { 4 } else { 8 },
            init: rng.random_range(0..4u64),
        })
        .collect();

    let num_steps = rng.random_range(4..17usize);
    let mut steps: Vec<Step> = Vec::with_capacity(num_steps);
    let mut accessed = vec![false; num_arrays];
    let mut recircs: u32 = 0;

    let guard = |rng: &mut SmallRng| -> Option<Pred> {
        if rng.random_range(0..10u32) < 3 {
            Some(Pred {
                op: cmp_op(rng),
                a: operand(rng, num_fields, num_metas),
                b: operand(rng, num_fields, num_metas),
            })
        } else {
            None
        }
    };

    while steps.len() < num_steps {
        match rng.random_range(0..100u32) {
            0..=44 => {
                // Pick an array: usually one untouched this pass; 8% of
                // the time deliberately re-access (a reject case).
                let bad = rng.random_range(0..100u32) < 8;
                let pool: Vec<usize> = (0..num_arrays).filter(|&i| accessed[i] == bad).collect();
                let Some(&array) = pool.get(rng.random_range(0..pool.len().max(1))) else {
                    // Every array touched already: recirculate or stop.
                    if recircs < MAX_RECIRCS {
                        steps.push(Step::new(StepOp::Recirculate));
                        recircs += 1;
                        accessed.iter_mut().for_each(|a| *a = false);
                    } else {
                        break;
                    }
                    continue;
                };
                accessed[array] = true;
                let cond = if rng.random_range(0..4u32) == 0 {
                    Some((cmp_op(rng), operand(rng, num_fields, num_metas)))
                } else {
                    None
                };
                let export = if rng.random::<bool>() {
                    Some((
                        rng.random_range(0..num_metas),
                        if rng.random::<bool>() {
                            Export::Old
                        } else {
                            Export::New
                        },
                    ))
                } else {
                    None
                };
                let g = guard(rng);
                let op = StepOp::Rmw {
                    array,
                    index: operand(rng, num_fields, num_metas),
                    cond,
                    alu: alu_op(rng),
                    value: operand(rng, num_fields, num_metas),
                    export,
                };
                steps.push(match g {
                    Some(g) => Step::guarded(g, op),
                    None => Step::new(op),
                });
            }
            45..=74 => {
                let op = StepOp::Compute {
                    dst: rng.random_range(0..num_metas),
                    op: bin_op(rng),
                    a: operand(rng, num_fields, num_metas),
                    b: operand(rng, num_fields, num_metas),
                };
                steps.push(match guard(rng) {
                    Some(g) => Step::guarded(g, op),
                    None => Step::new(op),
                });
            }
            75..=89 => {
                let op = StepOp::Emit {
                    kind: rng.random_range(1..5u64),
                    a: operand(rng, num_fields, num_metas),
                    b: operand(rng, num_fields, num_metas),
                };
                steps.push(match guard(rng) {
                    Some(g) => Step::guarded(g, op),
                    None => Step::new(op),
                });
            }
            _ => {
                if recircs < MAX_RECIRCS {
                    steps.push(Step::new(StepOp::Recirculate));
                    recircs += 1;
                    accessed.iter_mut().for_each(|a| *a = false);
                }
            }
        }
    }

    // 10% under-declare the recirculation budget (a reject case).
    let max_recirculations = if recircs > 0 && rng.random_range(0..10u32) == 0 {
        recircs - 1
    } else {
        recircs
    };

    TxnProgram {
        name: "generated",
        max_recirculations,
        arrays,
        num_fields,
        num_metas,
        steps,
    }
}

/// Generate `count` packets of `num_fields` fields each. Values are
/// mostly small (so array indices and guards collide often) with an
/// occasional full-range value to exercise wrapping arithmetic.
pub fn packets(seed: u64, num_fields: usize, count: usize) -> Vec<Vec<u64>> {
    let rng = &mut SmallRng::seed_from_u64(seed ^ 0xA076_1D64_78BD_642F);
    (0..count)
        .map(|_| {
            (0..num_fields)
                .map(|_| {
                    if rng.random_range(0..100u32) < 85 {
                        rng.random_range(0..8u64)
                    } else {
                        rng.random::<u64>()
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        assert_eq!(program(42), program(42));
        assert_ne!(program(42), program(43), "different seeds differ");
        assert_eq!(packets(7, 2, 4), packets(7, 2, 4));
    }

    #[test]
    fn generated_programs_are_structurally_valid() {
        for seed in 0..200 {
            let p = program(seed);
            p.validate()
                .unwrap_or_else(|e| panic!("seed {seed}: invalid IR: {e}"));
            assert!(!p.steps.is_empty());
        }
    }

    #[test]
    fn packets_match_field_arity() {
        let p = program(5);
        for pkt in packets(5, p.num_fields, 32) {
            assert_eq!(pkt.len(), p.num_fields);
        }
    }
}

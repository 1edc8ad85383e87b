//! Packet transactions: a declarative IR for the NetLock data plane,
//! statically verified and lowered onto pipeline stages.
//!
//! The engines in this crate hand-write their lock logic directly
//! against [`crate::register::RegisterArray`], which means every new
//! policy must re-prove stage discipline and Tofino feasibility by
//! hand. This module provides the *Packet Transactions* abstraction
//! instead: a [`ir::TxnProgram`] declares what one packet does —
//! guarded read/compute/write steps over named register arrays, packet
//! fields and metadata — and the static verifier does the proving:
//!
//! * [`ir`] — the transaction IR and its value semantics
//! * [`interp`] — the one-shot reference interpreter (the spec)
//! * [`mod@verify`] — def-use analysis, stage assignment, and feasibility
//!   checking against [`crate::analysis::layout::TofinoBudget`], with
//!   [`crate::analysis::trace::check_discipline`] as ground truth;
//!   emits the human-readable stage-map report
//! * [`exec`] — the lowered stage-by-stage executor, running verified
//!   programs over real [`crate::register::RegisterArray`]s
//! * [`netlock`] — the real FCFS grant path expressed as a transaction
//! * [`gen`] — seeded random program/packet generation for fuzzing;
//!   a seed is the whole reproducer of a fuzzer finding
//!
//! Trust comes from differential testing ("Testing Compilers for
//! Programmable Switches", PAPERS.md): the fuzzer in
//! `switch/tests/fuzz_txn_differential.rs` runs random programs through
//! both executors and asserts identical register state and emitted
//! actions (the found seeds are pinned there with their verdicts), and
//! the [`netlock`] program is differential-tested against
//! the hand-written [`crate::shared_queue::SharedQueue`] path.

#![deny(missing_docs)]

pub mod exec;
pub mod gen;
pub mod interp;
pub mod ir;
pub mod netlock;
pub mod verify;

pub use exec::LoweredTxn;
pub use interp::TxnInterpreter;
pub use ir::{TxnAction, TxnProgram};
pub use verify::{verify, StageMap, TxnError, VerifiedTxn, VerifyError};

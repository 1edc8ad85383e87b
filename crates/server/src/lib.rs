//! # netlock-server
//!
//! The lock-server model: the paper's DPDK-based server (2807 LoC of C)
//! as a simulation node.
//!
//! - [`lock_table`] — a classic FCFS shared/exclusive lock table with
//!   holder tracking and lease expiry; also serves as the reference
//!   model for property-testing the switch engine.
//! - [`cores`] — the multi-core RSS service model (8 cores × 444 ns ≈
//!   the paper's measured 18 MRPS per server).
//! - [`node`] — the sim node: owned locks and q2 overflow buffering
//!   for switch-resident locks.

#![warn(missing_docs)]

pub mod cores;
pub mod lock_table;
pub mod node;

pub use cores::{CoreModel, PAPER_SERVICE_NS};
pub use lock_table::{Holder, LockState, LockTable, TableAcquire};
pub use node::{ServerConfig, ServerNode, ServerStats};

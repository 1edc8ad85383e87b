//! # netlock-switch
//!
//! The programmable-switch substrate and the NetLock switch program.
//!
//! This crate plays the role of the paper's 1704 lines of P4 plus the
//! Python control plane. The bottom layer ([`register`]) models Tofino's
//! stateful memory *with its constraints enforced* — one
//! read-modify-write per register array per pipeline pass, ascending
//! stage order — so the lock logic built on top
//! ([`shared_queue`], [`priority`]) is structurally faithful
//! to what compiles on the ASIC: circular queues over register arrays, a
//! pooled shared queue spanning stages with runtime-adjustable per-lock
//! regions, and Algorithm 2's resubmit-based grant/release cascade.
//!
//! Layers, bottom-up:
//! - [`register`] — register arrays, passes, the access discipline
//! - [`slot`] — the 20-byte queue slot (mode, txn, client IP, metadata)
//! - [`shared_queue`] — pooled circular queues (Figure 5) and the FCFS
//!   engine over them: Algorithm 2 (Figure 6 cases)
//! - [`priority`] — per-stage priority queues (§4.4)
//! - [`meter`] — token-bucket tenant quotas (§4.4)
//! - [`directory`] — the lock match-action table
//! - [`action_buf`] — the fixed-capacity per-packet action buffer
//! - [`dataplane`] — Algorithm 1: the full packet-processing module,
//!   including the q1/q2 overflow protocol (§4.3)
//! - [`control`] — Algorithm 3 knapsack allocation, measurement
//!   harvesting, lease expiry (§4.3, §4.5)
//! - [`release_guard`] — the per-region ledger of outstanding grants
//!   that makes releases idempotent (not in the paper; see DESIGN.md)
//! - [`node`] — the switch driver (`SwitchCore`: data plane, program
//!   copy reloaded on reboot, emitter, lease sweep, counters) gluing it
//!   to `netlock-sim`, and the rack switch [`SwitchNode`] on top of it
//! - [`partition`] — the lock-space split across chains and the
//!   clients' head map
//! - [`replication`] — a chain member [`ReplSwitch`] on the same
//!   driver, and the [`ChainController`] that repairs chains (§4.5,
//!   NetChain-style)
//! - [`analysis`] — static feasibility checking: access-trace recording,
//!   the Tofino resource model, and the exhaustive path explorer
//! - [`txn`] — the packet-transaction IR: declarative per-packet
//!   programs, statically verified and lowered onto pipeline stages,
//!   differential-tested against a reference interpreter

#![warn(missing_docs)]

pub mod action_buf;
pub mod analysis;
pub mod control;
pub mod dataplane;
pub mod directory;
pub mod meter;
pub mod node;
pub mod partition;
pub mod priority;
pub mod register;
pub mod release_guard;
pub mod replication;
pub mod shared_queue;
pub mod slot;
pub mod txn;

pub use action_buf::{ActionBuf, ACTION_BUF_CAP};
pub use dataplane::{DataPlane, DpAction, DpStats, DropReason, Engine};
pub use node::{SwitchConfig, SwitchNode, SwitchStats, PASS_LATENCY, TRAVERSAL};
pub use partition::PartitionMap;
pub use release_guard::GrantLedger;
pub use replication::{ChainController, ControllerStats, ReplConfig, ReplSwitch};

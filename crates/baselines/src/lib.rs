//! # netlock-baselines
//!
//! The comparison systems of the paper's evaluation, each built from
//! scratch on the same simulation substrate:
//!
//! - [`rdma`] — one-sided-verb NIC model (ConnectX-3-like atomics bound)
//! - [`deployment`] — the simulator the three lock-manager baselines'
//!   closed-loop clients run in
//! - [`dslr`] — DSLR: RDMA Lamport-bakery, FCFS, decentralized
//! - [`drtm`] — DrTM: CAS fail-and-retry exclusive locks, lease reads
//! - [`netchain`] — NetChain: switch-only exclusive locks, client retry
//! - [`server_only`] — traditional centralized server lock manager
//!   (the NetLock rack with zero switch-resident locks)
//!
//! DSLR, DrTM and NetChain differ only in their [`Protocol`] on
//! `netlock-core`'s closed-loop client core, the one NetLock's
//! transaction client runs too: each is a [`Deployment`] of its lock
//! service's nodes and [`netlock_core::closed_loop::Client`]s,
//! built by [`Deployment::build`] and measured by
//! [`Deployment::measure`] into the shared
//! [`netlock_core::harness::RunStats`], so the figure harnesses compare
//! like with like.

#![warn(missing_docs)]

pub mod deployment;
pub mod drtm;
pub mod dslr;
pub mod netchain;
pub mod rdma;
pub mod server_only;

pub use deployment::Deployment;
pub use drtm::{DrtmClient, DrtmClientConfig};
pub use dslr::{DslrClient, DslrClientConfig};
pub use netchain::{NcClient, NcClientConfig, NcSwitch};
pub use netlock_core::closed_loop::{ClientStats, Protocol};
pub use rdma::{RdmaMsg, RdmaServer};
pub use server_only::build_server_only;

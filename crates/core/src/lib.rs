//! # netlock-core
//!
//! NetLock: fast, centralized lock management with a programmable
//! switch + lock-server co-design — reproduction of Yu et al.,
//! SIGCOMM 2020, on a deterministic rack simulator.
//!
//! This crate is the integration layer and public API:
//! - [`txn`] — transactions and workload sources
//! - [`client_micro`] — the open-loop micro-benchmark client
//! - [`closed_loop`] — the closed-loop client core every system of the
//!   TPC-C comparison shares; [`client_txn`] is NetLock's protocol on it,
//!   with retries and surplus-grant release
//! - [`population`] — aggregate nodes batching ~100K virtual clients'
//!   traffic into single events (million-client scenarios)
//! - [`db_server`] — the database server used by one-RTT mode (§4.1)
//! - [`rack`] — assembles switch + servers + clients (Figure 2)
//! - [`harness`] — warmup/measure/collect and time-series sampling
//!
//! ## Quick start
//!
//! ```
//! use netlock_core::prelude::*;
//! use netlock_proto::{LockId, LockMode};
//!
//! // One switch, two lock servers, all locks in switch memory.
//! let mut rack = Rack::build(RackConfig::default());
//! let locks: Vec<LockId> = (0..64).map(LockId).collect();
//! let stats = LockStats::uniform(locks.iter().copied(), 16, 1);
//! rack.program(&knapsack_allocate(&stats, 10_000));
//!
//! // Four closed-loop clients issuing single-lock transactions.
//! for _ in 0..4 {
//!     rack.add_txn_client(
//!         TxnClientConfig { workers: 4, ..Default::default() },
//!         Box::new(SingleLockSource {
//!             locks: locks.clone(),
//!             mode: LockMode::Exclusive,
//!             think: SimDuration::from_micros(5),
//!         }),
//!     );
//! }
//!
//! let stats = warmup_and_measure(
//!     &mut rack,
//!     SimDuration::from_millis(1),
//!     SimDuration::from_millis(5),
//! );
//! assert!(stats.txns > 0);
//! assert!(stats.lock_latency_summary().p99_ns > 0);
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod client_micro;
pub mod client_txn;
pub mod closed_loop;
pub mod cluster;
pub mod db_server;
pub mod failover;
pub mod harness;
pub mod oracle;
pub mod population;
pub mod rack;
pub mod txn;

use netlock_sim::SimDuration;

/// Client software + NIC delay, charged once on transmit and once on
/// receive by every NetLock client (and the NetChain baseline's): the
/// largest term of the paper's Fig. 8 latency (DESIGN.md §1).
pub const CLIENT_STACK_DELAY: SimDuration = SimDuration::from_nanos(2_500);

/// Convenient single import for building experiments.
pub mod prelude {
    pub use crate::chaos::{
        attach_rack_oracles, generate_plan, run_chaos, ChaosPlanConfig, RackRoles,
        CUSTOM_SERVER_RESTART_BASE, CUSTOM_SWITCH_REBOOT,
    };
    pub use crate::client_micro::{MicroClient, MicroClientConfig, MicroClientStats};
    pub use crate::client_txn::{TxnClient, TxnClientConfig};
    pub use crate::closed_loop::ClientStats;
    pub use crate::cluster::{cluster_plan_config, RackCluster};
    pub use crate::db_server::DbServer;
    pub use crate::failover::{
        attach_failover_probe, crash_plan, run_failover, CrashScenario, FailoverCluster,
        FailoverConfig, FailoverRun, GrantTimeline, VictimPick, PARTITIONS,
    };
    pub use crate::harness::{
        collect, reset_clients, switch_breakdown, txns_by_client, warmup_and_measure, ClientReport,
        RunStats,
    };
    pub use crate::oracle::{
        oracle_tap, Oracle, OracleConfig, OracleCounts, Violation, ViolationKind,
    };
    pub use crate::population::{
        tenant_index_of, BurstEpisode, Diurnal, PopulationClient, PopulationConfig,
        PopulationStats, TenantSpec, TenantStats, MAX_TENANTS,
    };
    pub use crate::rack::{ClientKind, EngineSpec, Rack, RackConfig, RackNodes};
    pub use crate::txn::{LockNeed, SingleLockSource, Transaction, TxnSource};
    pub use netlock_sim::{LatencySummary, SimDuration, SimTime};
    pub use netlock_switch::control::{
        knapsack_allocate, knapsack_allocate_bounded, random_allocate, Allocation, LockStats,
    };
}

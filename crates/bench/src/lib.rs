//! # netlock-bench
//!
//! Experiment harnesses that regenerate every figure of the paper's
//! evaluation (§6). Each `figXX` module provides typed `run_*`
//! functions (used by the integration tests) and
//! a `render` that returns the figure's rows as TSV; [`figures::FIGURES`]
//! lists them for the one `figs` binary, which prints them or checks
//! them against `results/`. See DESIGN.md for the per-experiment index
//! and EXPERIMENTS.md for paper-vs-measured results.

#![warn(missing_docs)]

pub mod chaos;
pub mod common;
pub mod count_alloc;
pub mod failover;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod figures;
pub mod flash_crowd;
pub mod runner;
pub mod tenant_churn;

pub use common::{
    build_netlock_tpcc, tpcc_alloc_stats, tpcc_allocation, tpcc_sources, BinArgs, SystemResult,
    TimeScale, TpccRackSpec,
};
pub use count_alloc::{allocation_count, CountingAlloc};
pub use runner::{Job, Runner};

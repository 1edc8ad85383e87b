//! # netlock-sim
//!
//! Deterministic discrete-event simulation substrate for the NetLock
//! reproduction.
//!
//! The NetLock paper evaluates on a Barefoot Tofino switch, DPDK lock
//! servers and RDMA NICs. This crate provides the laptop-scale stand-in:
//! a single-threaded, integer-time, seeded event simulator in the
//! event-driven style of `smoltcp` — nodes never block; they react to
//! packets and timers and emit effects.
//!
//! Guarantees:
//! - **Determinism.** Integer nanosecond clock, FIFO tie-breaking for
//!   same-instant events, and all randomness drawn from a seeded
//!   [`SimRng`]. A run is a pure function of `(topology, nodes, seed)`.
//! - **Explicit hops.** The ToR switch is a node; there is no hidden
//!   routing. Links add a fixed one-way delay and optional loss.
//! - **Measurement built in.** Log-bucketed latency [`Histogram`]s and
//!   [`TimeSeries`] cover everything the paper's figures report.
//!
//! ```
//! use netlock_sim::{Simulator, Node, Packet, Context, SimTime, SimDuration};
//!
//! struct Printer;
//! impl Node<&'static str> for Printer {
//!     fn on_packet(&mut self, pkt: Packet<&'static str>, ctx: &mut Context<'_, &'static str>) {
//!         assert_eq!(pkt.payload, "hello");
//!         assert!(ctx.now() > SimTime::ZERO);
//!     }
//!     fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_, &'static str>) {}
//! }
//!
//! let mut sim = Simulator::with_seed(42);
//! let a = sim.add_node(Box::new(Printer));
//! let b = sim.add_node(Box::new(Printer));
//! sim.inject(a, b, "hello");
//! sim.run_for(SimDuration::from_millis(1));
//! assert_eq!(sim.stats().packets_delivered, 1);
//! ```

#![warn(missing_docs)]

pub mod fasthash;
pub mod fault;
mod link;
pub mod metrics;
mod node;
mod par;
pub mod queue;
mod rng;
mod sim;
mod time;

pub use fasthash::{FastBuildHasher, FastHashMap, FastHashSet, FastHasher};
pub use fault::{FaultAction, FaultEvent, FaultPlan};
pub use link::{GeParams, LinkConfig, LinkFaults, Topology};
pub use metrics::{Histogram, LatencySummary, TimeSeries};
pub use node::{AsAny, Context, Node, NodeId, Packet, TimerTicket};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use sim::{LinkCounters, SimStats, Simulator, Tap, TapEvent, MAX_NODES};
pub use time::{SimDuration, SimTime};

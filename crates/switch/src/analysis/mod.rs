//! Static feasibility analysis for the switch data plane.
//!
//! The simulator in this crate models a Tofino-style pipeline, but
//! nothing in the simulator itself stops a change from quietly relying
//! on hardware that does not exist — a second stateful-ALU access to
//! the same register array within one pass, a stage ordering the
//! pipeline cannot express, or more SRAM than a stage carries. This
//! module makes those constraints checkable:
//!
//! * [`trace`] — an access-trace recorder hooked into
//!   [`crate::register::Pass`] / [`crate::register::RegisterArray`],
//!   plus [`trace::check_discipline`], which validates recorded traces
//!   against the §4.2 hardware discipline (one access per array per
//!   pass, ascending stage order, bounded resubmit depth).
//! * [`layout`] — a static resource model: every engine registers its
//!   register arrays into a [`layout::ProgramLayout`] at construction,
//!   which can be checked against a [`layout::TofinoBudget`] (stage
//!   count, per-stage SRAM, resubmit bound) and rendered as a
//!   human-readable resource report.
//! * [`explorer`] — an exhaustive path explorer that enumerates
//!   data-plane states × every [`netlock_proto::NetLockMsg`] kind,
//!   runs the real [`crate::dataplane::DataPlane::process`], and
//!   asserts every resulting trace satisfies the discipline.

//!
//! The packet-transaction verifier ([`crate::txn::verify()`]) reuses
//! [`layout`] and [`trace::check_discipline`] as its ground truth, so
//! the declarative IR and the hand-written engines are held to the same
//! hardware model.

#![deny(missing_docs)]

pub mod explorer;
pub mod layout;
pub mod trace;

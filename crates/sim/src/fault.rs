//! Timed fault injection.
//!
//! A [`FaultPlan`] is an ordered schedule of [`FaultEvent`]s that the
//! simulator executes as first-class events, interleaved with packet and
//! timer delivery at the exact nanosecond they are due. Generic actions
//! (link reconfiguration, node kill/revive) are applied by the simulator
//! itself; [`FaultAction::Custom`] hands control back to the harness via
//! [`crate::Simulator::run_until_fault`] so domain-specific faults
//! (switch reboot + reprogram, server restart with state loss) can be
//! applied with full knowledge of the protocol stack.
//!
//! Because the plan is data — `(SimTime, FaultAction)` pairs — any run is
//! reproducible from `(seed, plan)` alone.

use crate::link::LinkConfig;
use crate::node::NodeId;
use crate::time::SimTime;

/// One fault to apply at a scheduled instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultAction {
    /// Override one directed link (e.g. flap or degrade a single cable).
    SetLink {
        /// Source node of the directed link.
        src: NodeId,
        /// Destination node of the directed link.
        dst: NodeId,
        /// New configuration for the link.
        cfg: LinkConfig,
    },
    /// Remove a directed-link override, restoring the fallback config.
    ClearLink {
        /// Source node of the directed link.
        src: NodeId,
        /// Destination node of the directed link.
        dst: NodeId,
    },
    /// Kill a node: all packets/timers to it are dropped until revived.
    FailNode(NodeId),
    /// Revive a failed node (its state is whatever it had; callers that
    /// model state loss reset the node via a `Custom` action instead).
    ReviveNode(NodeId),
    /// Domain-specific fault: the simulator pauses and returns
    /// [`crate::RunOutcome::CustomFault`] with this token so the harness
    /// can mutate nodes (reboot a switch, wipe a server, ...).
    Custom(u64),
}

/// A fault action bound to its firing time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Absolute simulation time at which the action fires.
    pub at: SimTime,
    /// What to do.
    pub action: FaultAction,
}

/// An ordered schedule of fault events.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Append an event. Events may be added in any order; the plan is
    /// sorted (stably, preserving insertion order at equal times) when
    /// installed into a simulator.
    pub fn push(&mut self, at: SimTime, action: FaultAction) -> &mut Self {
        self.events.push(FaultEvent { at, action });
        self
    }

    /// Builder-style [`FaultPlan::push`].
    pub fn with(mut self, at: SimTime, action: FaultAction) -> Self {
        self.push(at, action);
        self
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events sorted by firing time (stable: insertion order breaks
    /// ties), as installed into the simulator queue.
    pub fn sorted_events(&self) -> Vec<FaultEvent> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|e| e.at);
        evs
    }
}

/// Why [`crate::Simulator::run_until_fault`] returned.
/// [`crate::Simulator::run_until`] runs the same drain loop and resumes
/// past every [`RunOutcome::CustomFault`] itself, dropping the fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RunOutcome {
    /// The deadline was reached (or the queue emptied); no custom fault
    /// is pending.
    ReachedDeadline,
    /// A [`FaultAction::Custom`] fired. The clock stands at `at`, and
    /// every event that would dispatch after the fault at that same
    /// instant is still queued; the harness should apply the domain
    /// fault and call [`crate::Simulator::run_until_fault`] again to
    /// continue.
    CustomFault {
        /// Time at which the fault fired.
        at: SimTime,
        /// The token passed to [`FaultAction::Custom`].
        token: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_stably() {
        let plan = FaultPlan::new()
            .with(SimTime(200), FaultAction::Custom(1))
            .with(SimTime(100), FaultAction::Custom(2))
            .with(SimTime(200), FaultAction::Custom(3));
        let sorted = plan.sorted_events();
        assert_eq!(sorted[0].action, FaultAction::Custom(2));
        assert_eq!(sorted[1].action, FaultAction::Custom(1));
        assert_eq!(sorted[2].action, FaultAction::Custom(3));
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
    }
}

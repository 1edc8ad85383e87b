//! Nodes and the effect context they run in.
//!
//! A simulation is a set of nodes (clients, the lock switch, lock servers)
//! exchanging messages over links. Nodes are written in the event-driven,
//! poll-style idiom: a node never blocks, it reacts to a packet or a timer
//! and emits effects (sends, new timers) through the [`Context`].

use std::any::Any;

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Identifier of a node inside one simulator instance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index form for vector-backed tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A message in flight between two nodes.
///
/// Deliberately minimal: a `Packet` is the payload of every `Deliver`
/// slot in the calendar queue, so each field here is paid for in every
/// queued event's footprint and memmove. Receivers that care about
/// send time carry a timestamp inside `M` (as the NetLock requests do
/// with `issued_at_ns`).
#[derive(Clone, Debug)]
pub struct Packet<M> {
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Application payload.
    pub payload: M,
}

/// Object-safe downcast support so harnesses can inspect concrete nodes.
pub trait AsAny: Any {
    /// Upcast to [`Any`] for downcasting by the harness.
    fn as_any(&self) -> &dyn Any;
    /// Mutable upcast to [`Any`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A simulated network endpoint.
///
/// Implementations must be deterministic: all randomness comes from the
/// [`Context`]'s RNG, all time from [`Context::now`].
///
/// `Send` is a supertrait so a partitioned simulator can advance its
/// logical processes on worker threads (see `Simulator::partition`);
/// nodes still only ever run on one thread at a time.
pub trait Node<M>: AsAny + Send {
    /// A packet addressed to this node has arrived.
    fn on_packet(&mut self, pkt: Packet<M>, ctx: &mut Context<'_, M>);

    /// A timer set earlier by this node has fired. `token` is the value
    /// passed to [`Context::set_timer`]; the node defines its meaning.
    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, M>);

    /// Called once when the node is installed, with its assigned id.
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Human-readable name for traces.
    fn name(&self) -> &str {
        "node"
    }
}

/// An effect emitted by a node during a callback, applied by the simulator
/// after the callback returns.
#[derive(Debug)]
pub(crate) enum Effect<M> {
    Send {
        dst: NodeId,
        payload: M,
        extra_delay: SimDuration,
    },
    Timer {
        delay: SimDuration,
        token: u64,
        /// Queue position taken earlier; `None` takes the next one.
        ticket: Option<TimerTicket>,
    },
}

/// A place in the simulator's same-instant firing order, taken with
/// [`Context::timer_ticket`] and spent by
/// [`Context::set_timer_with_ticket`].
///
/// Events due at the same nanosecond fire in the order they were
/// scheduled. A node that defers arming a timer (because an earlier one
/// of its timers will fire first and can arm it then) would thereby
/// move that timer *behind* everything scheduled in between. Taking a
/// ticket at the moment the timer would have been armed and spending it
/// at the deferred arming keeps the timer exactly where it would have
/// fired — so dropping timers that can never matter leaves every
/// same-instant tie, and with it the whole run, unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerTicket(pub(crate) u64);

/// The execution context handed to a node callback.
///
/// Collects effects; the simulator turns them into future events once the
/// callback returns, which keeps dispatch free of re-entrancy.
pub struct Context<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) self_id: NodeId,
    pub(crate) effects: &'a mut Vec<Effect<M>>,
    pub(crate) rng: &'a mut SimRng,
    /// The simulator's schedule counter (tickets draw from it).
    pub(crate) seq: &'a mut u64,
}

impl<'a, M> Context<'a, M> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's id.
    #[inline]
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// Deterministic RNG shared by the simulation.
    #[inline]
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Send `payload` to `dst`; it arrives after the link delay.
    #[inline]
    pub fn send(&mut self, dst: NodeId, payload: M) {
        self.effects.push(Effect::Send {
            dst,
            payload,
            extra_delay: SimDuration::ZERO,
        });
    }

    /// Send `payload` to `dst` with `extra_delay` added on top of the link
    /// delay (models local processing / NIC serialization at the sender).
    #[inline]
    pub fn send_after(&mut self, dst: NodeId, payload: M, extra_delay: SimDuration) {
        self.effects.push(Effect::Send {
            dst,
            payload,
            extra_delay,
        });
    }

    /// Arrange for [`Node::on_timer`] to be called on this node after
    /// `delay`, with the given token. Timers are not cancellable; stale
    /// timers should be recognized and ignored by the node.
    #[inline]
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.effects.push(Effect::Timer {
            delay,
            token,
            ticket: None,
        });
    }

    /// Take the firing-order position a timer armed right now would get
    /// (just ahead of this callback's own effects), to arm the timer
    /// later with [`Context::set_timer_with_ticket`]. A ticket arms at
    /// most one timer.
    #[inline]
    pub fn timer_ticket(&mut self) -> TimerTicket {
        let ticket = TimerTicket(*self.seq);
        *self.seq += 1;
        ticket
    }

    /// [`Context::set_timer`], firing among same-instant events where a
    /// timer armed when `ticket` was taken would have.
    #[inline]
    pub fn set_timer_with_ticket(&mut self, delay: SimDuration, token: u64, ticket: TimerTicket) {
        self.effects.push(Effect::Timer {
            delay,
            token,
            ticket: Some(ticket),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_collects_effects() {
        let mut effects: Vec<Effect<u32>> = Vec::new();
        let mut rng = SimRng::new(1);
        let mut seq = 40;
        let mut ctx = Context {
            now: SimTime(5),
            self_id: NodeId(0),
            effects: &mut effects,
            rng: &mut rng,
            seq: &mut seq,
        };
        ctx.send(NodeId(1), 10);
        ctx.send_after(NodeId(2), 11, SimDuration(7));
        ctx.set_timer(SimDuration(3), 99);
        let ticket = ctx.timer_ticket();
        ctx.set_timer_with_ticket(SimDuration(4), 98, ticket);
        assert_eq!(ctx.now(), SimTime(5));
        assert_eq!(ctx.self_id(), NodeId(0));
        assert_eq!(seq, 41, "a ticket takes one schedule position");
        assert_eq!(effects.len(), 4);
        match &effects[1] {
            Effect::Send {
                dst, extra_delay, ..
            } => {
                assert_eq!(*dst, NodeId(2));
                assert_eq!(*extra_delay, SimDuration(7));
            }
            other => panic!("unexpected effect {other:?}"),
        }
        match &effects[2] {
            Effect::Timer {
                delay,
                token,
                ticket: None,
            } => {
                assert_eq!(*delay, SimDuration(3));
                assert_eq!(*token, 99);
            }
            other => panic!("unexpected effect {other:?}"),
        }
        assert!(matches!(
            effects[3],
            Effect::Timer {
                ticket: Some(TimerTicket(40)),
                ..
            }
        ));
    }

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(3).index(), 3);
        assert_eq!(format!("{}", NodeId(3)), "n3");
    }
}

//! The event loop.
//!
//! A [`Simulator`] is a list of logical processes (LPs). An LP is the
//! engine: it owns nodes, a slice of the topology's traffic, the clock
//! and the pending event queue, and dispatches events at equal
//! timestamps in insertion order (FIFO), which — together with integer
//! time and seeded RNG — makes every run bit-for-bit reproducible. An
//! unpartitioned simulator is one LP and every public method goes to it;
//! [`Simulator::partition`] (`crate::par`) splits that LP into one per
//! partition, after which each method goes to the LP owning the node it
//! names.
//!
//! The queue is the calendar queue of [`crate::queue::EventQueue`]:
//! `O(1)` scheduling for near-future events instead of a global binary
//! heap's `O(log n)`, with identical `(time, seq)` pop order.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::fault::{FaultAction, FaultPlan, RunOutcome};
use crate::link::{LinkConfig, Topology};
use crate::node::{Context, Effect, Node, NodeId, Packet};
use crate::par::{owner, validate_fault, Staged, POISONED, REMOTE_BAND};
use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// One queued event. `Deliver` is the hot variant and bounds the slot
/// size of every calendar-queue entry; `Fault` boxes its action (which
/// embeds a full `LinkConfig`) so the rare chaos events don't inflate
/// the per-slot footprint of the millions of packet events around them.
pub(crate) enum EventKind<M> {
    Deliver(Packet<M>),
    Timer { node: NodeId, token: u64 },
    Fault(Box<FaultAction>),
}

/// Run statistics maintained by the simulator itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Packets delivered to a node.
    pub packets_delivered: u64,
    /// Packets dropped by link loss.
    pub packets_lost: u64,
    /// Extra packet copies scheduled by link duplication faults.
    pub packets_duplicated: u64,
    /// Packets whose jittered arrival overtook an earlier send on the
    /// same directed link.
    pub packets_reordered: u64,
    /// Packets dropped because the destination node was removed/failed.
    pub packets_to_dead_node: u64,
    /// Timer events fired.
    pub timers_fired: u64,
    /// Fault-plan events applied.
    pub faults_applied: u64,
    /// Events pushed into the pending queue (packets and timers,
    /// including ones later dropped at a dead node).
    pub events_scheduled: u64,
    /// Events popped from the pending queue.
    pub events_fired: u64,
    /// High-water mark of the pending-event queue.
    pub max_queue_depth: u64,
}

impl SimStats {
    /// Fold another stats block into this one. Counters add; the queue
    /// high-water mark takes the max (each logical process of a
    /// partitioned run has its own queue, so depths don't add). The
    /// `delivered + timers + faults + to_dead == events_fired` partition
    /// of fired events is preserved: it holds per block, and every term
    /// is summed.
    pub fn merge(&mut self, other: &SimStats) {
        self.packets_delivered += other.packets_delivered;
        self.packets_lost += other.packets_lost;
        self.packets_duplicated += other.packets_duplicated;
        self.packets_reordered += other.packets_reordered;
        self.packets_to_dead_node += other.packets_to_dead_node;
        self.timers_fired += other.timers_fired;
        self.faults_applied += other.faults_applied;
        self.events_scheduled += other.events_scheduled;
        self.events_fired += other.events_fired;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
    }
}

/// Per-directed-link fault counters, exposed via
/// [`Simulator::link_counters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkCounters {
    /// Packets dropped on this link (Bernoulli or Gilbert–Elliott).
    pub lost: u64,
    /// Extra copies scheduled on this link.
    pub duplicated: u64,
    /// Packets that overtook an earlier send on this link.
    pub reordered: u64,
}

/// Mutable per-directed-link channel state (Gilbert–Elliott state plus
/// reorder tracking). Only allocated for links that see faults.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct LinkState {
    ge_bad: bool,
    last_arrival: SimTime,
    counters: LinkCounters,
}

/// Observer hook: receives a [`TapEvent`] for every packet-level event.
/// Installed with [`Simulator::set_lp_tap`]; used by safety oracles and
/// chaos harnesses to audit the run without perturbing it. `Send` so a
/// tap installed on a logical process of a partitioned simulator can run
/// on a worker thread (each LP's tap sees only that LP's events, in that
/// LP's deterministic order).
pub type Tap<M> = Box<dyn FnMut(TapEvent<'_, M>) + Send>;

/// Compile-time tap strategy for the dispatch loop.
///
/// The run loops are generic over this trait so the untapped
/// configuration (every figure bench) monomorphizes to code with *zero*
/// tap branches or `Option` dances, while tapped runs (chaos/oracle)
/// route through the installed boxed closure with identical `TapEvent`
/// semantics. Emission sites guard with `if T::ENABLED`, which the
/// compiler folds away for [`NoTap`].
trait TapHook<M> {
    /// Whether this strategy observes events at all.
    const ENABLED: bool;
    /// Deliver one observation.
    fn emit(&mut self, ev: TapEvent<'_, M>);
}

/// The no-observer strategy: everything folds to nothing.
struct NoTap;

impl<M> TapHook<M> for NoTap {
    const ENABLED: bool = false;
    #[inline(always)]
    fn emit(&mut self, _ev: TapEvent<'_, M>) {}
}

/// The installed-observer strategy: forwards to the boxed tap closure.
struct DynTap<'a, M>(&'a mut dyn FnMut(TapEvent<'_, M>));

impl<M> TapHook<M> for DynTap<'_, M> {
    const ENABLED: bool = true;
    #[inline]
    fn emit(&mut self, ev: TapEvent<'_, M>) {
        (self.0)(ev)
    }
}

/// Hard node-count capacity of one simulator.
///
/// Per-hop link resolution uses a dense `n * n * sizeof(LinkConfig)`
/// table, so node count is a quadratic memory cost; 512 nodes keep the
/// table comfortably in cache while covering every rack/cluster layout
/// here (tens of nodes per rack). [`Simulator::add_node`] rejects the
/// 513th node with an actionable error: large client populations belong
/// in aggregate population nodes (netlock-core's `population` module,
/// ~100K virtual clients per node), not in per-client sim nodes.
pub const MAX_NODES: usize = 512;

/// One packet-level observation delivered to the tap.
#[derive(Debug)]
pub enum TapEvent<'a, M> {
    /// A node emitted a packet (observed before loss/duplication).
    Sent {
        /// Emission time.
        at: SimTime,
        /// Sending node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// The payload.
        payload: &'a M,
    },
    /// The packet was dropped by link loss.
    Lost {
        /// Emission time (the drop is decided at send).
        at: SimTime,
        /// Sending node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// The payload.
        payload: &'a M,
    },
    /// An extra copy of the packet was scheduled.
    Duplicated {
        /// Emission time.
        at: SimTime,
        /// Sending node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// The payload.
        payload: &'a M,
    },
    /// A packet is about to be dispatched to a live destination.
    Delivered {
        /// Delivery time.
        at: SimTime,
        /// The packet.
        pkt: &'a Packet<M>,
    },
    /// A packet reached a dead node and was discarded.
    DeliveredToDead {
        /// Delivery time.
        at: SimTime,
        /// The packet.
        pkt: &'a Packet<M>,
    },
    /// A fault-plan action fired.
    Fault {
        /// Firing time.
        at: SimTime,
        /// The action applied (for `Custom`, applied by the harness).
        action: FaultAction,
    },
}

/// A deterministic discrete-event simulator over message type `M`: a
/// list of logical processes, one until [`Simulator::partition`].
pub struct Simulator<M> {
    /// The logical processes, indexed by LP id.
    pub(crate) lps: Vec<Lp<M>>,
    /// `node index -> owning LP`, shared with every LP. Empty while
    /// there is one LP, which then owns every id.
    pub(crate) map: Arc<[u32]>,
    /// Worker threads to advance LPs with (1 = the calling thread).
    pub(crate) workers: usize,
    /// Minimum cross-LP link delay in nanoseconds (`u64::MAX` when no
    /// cross-LP node pair exists, which makes every window unbounded).
    pub(crate) lookahead: u64,
    /// Per-destination-LP staging area for cross-LP packets emitted in
    /// the previous window; flushed into the owner's queue at the start
    /// of the next window.
    pub(crate) staged: Vec<Mutex<Vec<Staged<M>>>>,
    /// Faults validated since the last partition; gives rejection
    /// diagnostics a stable index ("fault #3 is Custom(7)") to point at.
    pub(crate) faults_validated: u64,
    /// What the one LP had counted when `partition` split it.
    pub(crate) base_stats: SimStats,
}

/// One logical process: a clock, a calendar queue, the nodes it owns
/// (its node table is full-length, with `None` for other LPs' nodes, so
/// `NodeId` indexing is the same everywhere) and a topology copy that
/// resolves every hop its nodes send.
pub(crate) struct Lp<M> {
    pub(crate) now: SimTime,
    pub(crate) seq: u64,
    pub(crate) queue: EventQueue<EventKind<M>>,
    pub(crate) nodes: Vec<Option<Box<dyn Node<M>>>>,
    pub(crate) alive: Vec<bool>,
    pub(crate) topology: Topology,
    pub(crate) rng: SimRng,
    effects: Vec<Effect<M>>,
    pub(crate) stats: SimStats,
    pub(crate) link_states: HashMap<(NodeId, NodeId), LinkState>,
    pub(crate) tap: Option<Tap<M>>,
    pub(crate) pending_custom: Option<(SimTime, u64)>,
    /// Dense resolved `(src, dst)` link table (row-major, `links_n`
    /// wide), rebuilt lazily when `topology.version()` or the node
    /// count diverges from the values it was built at.
    links: Vec<LinkConfig>,
    links_version: u64,
    links_n: usize,
    /// Reusable buffer for the same-timestamp runs `drain_until` pops.
    burst: Vec<(SimTime, u64, EventKind<M>)>,
    /// Events popped into the current burst but not yet dispatched;
    /// added to `queue.len()` so `max_queue_depth` accounting matches
    /// the one-pop-per-step reference exactly.
    burst_pending: u64,
    /// This LP's index in the simulator's list.
    pub(crate) id: u32,
    /// The simulator's `node index -> owning LP` map. Empty for a lone
    /// LP, so a send never diverts — the only per-send cost the serial
    /// fast path pays is that one length check.
    lp_of: Arc<[u32]>,
    /// Per-destination-LP mailboxes: packets bound for a remote LP are
    /// diverted here, already under their receiver's queue key, instead
    /// of the local queue, and exchanged at conservative window
    /// boundaries.
    pub(crate) outboxes: Vec<Vec<Staged<M>>>,
}

impl<M: Clone + Send + 'static> Simulator<M> {
    /// A simulator with the given topology and RNG seed.
    pub fn new(topology: Topology, seed: u64) -> Simulator<M> {
        let map: Arc<[u32]> = Vec::new().into();
        Simulator {
            lps: vec![Lp::new(topology, SimRng::new(seed), map.clone())],
            map,
            workers: 1,
            lookahead: u64::MAX,
            staged: Vec::new(),
            faults_validated: 0,
            base_stats: SimStats::default(),
        }
    }

    /// A simulator with default intra-rack links.
    pub fn with_seed(seed: u64) -> Simulator<M> {
        Simulator::new(Topology::new(LinkConfig::default()), seed)
    }

    /// The LP that owns node `id`.
    fn lp(&mut self, id: NodeId) -> &mut Lp<M> {
        &mut self.lps[owner(&self.map, id)]
    }

    /// Current simulated time (every LP's clock agrees between runs).
    pub fn now(&self) -> SimTime {
        self.lps[0].now
    }

    /// Simulator-level statistics: the pre-partition baseline merged
    /// with every LP's stats (counters sum, `max_queue_depth` takes the
    /// max across LPs).
    pub fn stats(&self) -> SimStats {
        let mut out = self.base_stats;
        for lp in &self.lps {
            out.merge(&lp.stats);
        }
        out
    }

    /// Per-directed-link fault counters, sorted by `(src, dst)` so the
    /// output is deterministic. Only links that saw at least one loss,
    /// duplication or reorder (or carry fault state) appear. Each
    /// directed link's state lives in the sender's LP, so merging the
    /// LPs never double-counts a link.
    pub fn link_counters(&self) -> Vec<((NodeId, NodeId), LinkCounters)> {
        let mut out: Vec<_> = self
            .lps
            .iter()
            .flat_map(|lp| lp.link_states.iter().map(|(k, v)| (*k, v.counters)))
            .collect();
        out.sort_by_key(|&((s, d), _)| (s.0, d.0));
        out
    }

    /// Install a packet-level observer on one logical process, replacing
    /// any previous tap there. The tap sees only that LP's events, in
    /// that LP's deterministic order, regardless of worker count. An
    /// unpartitioned simulator is LP 0, so there it sees everything.
    pub fn set_lp_tap(&mut self, lp: usize, tap: Tap<M>) {
        self.lps[lp].tap = Some(tap);
    }

    /// Schedule one fault action as a first-class simulator event.
    /// (The one allocation per fault event keeps the boxed action out
    /// of the hot packet slots; fault events are rare by construction.)
    ///
    /// Routing: link-config actions go to every LP (each applies the
    /// change to its own topology copy at the same instant, keeping all
    /// sender-side link views identical), node actions go to the node's
    /// owner LP. A partitioned simulator rejects `Custom` faults — chaos
    /// recovery drives a single-LP simulation — and link delays below
    /// its lookahead.
    pub fn schedule_fault(&mut self, at: SimTime, action: FaultAction) {
        assert!(at >= self.now(), "fault scheduled in the past");
        validate_fault(self.lookahead, &self.map, &action, self.faults_validated);
        self.faults_validated += 1;
        match action {
            FaultAction::FailNode(id) | FaultAction::ReviveNode(id) => {
                self.lp(id).push(at, EventKind::Fault(Box::new(action)));
            }
            _ => {
                for lp in &mut self.lps {
                    lp.push(at, EventKind::Fault(Box::new(action)));
                }
            }
        }
    }

    /// Install every event of a [`FaultPlan`]. Events are sorted by
    /// firing time (stable at ties) before insertion.
    pub fn install_plan(&mut self, plan: &FaultPlan) {
        for ev in plan.sorted_events() {
            self.schedule_fault(ev.at, ev.action);
        }
    }

    /// Mutable access to the topology (reconfigurable mid-run).
    /// Panics once partitioned: the LPs hold topology copies, so direct
    /// mutation would desynchronize them — reconfigure before
    /// [`Simulator::partition`] or via a fault plan.
    pub fn topology_mut(&mut self) -> &mut Topology {
        assert!(
            self.lps.len() == 1,
            "topology_mut on a partitioned simulator: mutate before partition() or via fault plan"
        );
        &mut self.lps[0].topology
    }

    /// The topology. Every LP applies every link fault, so LP 0's copy
    /// is current whether or not the simulator is partitioned.
    pub fn topology(&self) -> &Topology {
        &self.lps[0].topology
    }

    /// Install a node; returns its id. The node's
    /// [`Node::on_start`] runs immediately at the current time.
    /// Panics once partitioned: add every node before `partition()`.
    pub fn add_node(&mut self, node: Box<dyn Node<M>>) -> NodeId {
        assert!(
            self.lps.len() == 1,
            "add_node on a partitioned simulator: add every node before partition()"
        );
        self.lps[0].add_node(node)
    }

    /// Mark a node as failed: pending and future packets/timers for it are
    /// silently dropped. The node object is retained for inspection.
    pub fn fail_node(&mut self, id: NodeId) {
        self.lp(id).alive[id.index()] = false;
    }

    /// Revive a failed node. Events scheduled while it was down stay lost;
    /// new traffic flows again. (The node keeps whatever state it had —
    /// callers that model state loss must reset the node themselves.)
    pub fn revive_node(&mut self, id: NodeId) {
        self.lp(id).alive[id.index()] = true;
    }

    /// Whether a node is currently alive.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.lps[owner(&self.map, id)].alive[id.index()]
    }

    /// Inspect or mutate a concrete node (panics if the type is wrong).
    pub fn with_node<T: 'static, R>(&mut self, id: NodeId, f: impl FnOnce(&mut T) -> R) -> R {
        let node = self.lp(id).nodes[id.index()]
            .as_mut()
            .expect("node is being dispatched");
        let t = node
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("with_node called with wrong concrete type");
        f(t)
    }

    /// Read-only variant of [`Simulator::with_node`].
    pub fn read_node<T: 'static, R>(&self, id: NodeId, f: impl FnOnce(&T) -> R) -> R {
        let node = self.lps[owner(&self.map, id)].nodes[id.index()]
            .as_ref()
            .expect("node is being dispatched");
        let t = node
            .as_any()
            .downcast_ref::<T>()
            .expect("read_node called with wrong concrete type");
        f(t)
    }

    /// Inject a packet from outside the simulation (e.g. a harness kicking
    /// off a run). Delivered after the link delay from `src` to `dst`,
    /// scheduled directly in the destination's owner LP (all LP clocks
    /// agree between runs, and every LP's topology copy resolves the same
    /// link).
    pub fn inject(&mut self, src: NodeId, dst: NodeId, payload: M) {
        let lp = self.lp(dst);
        let at = lp.now + lp.link_for(src, dst).delay;
        lp.push_deliver(at, Packet { src, dst, payload });
    }

    /// Schedule a timer on a node from outside the simulation.
    pub fn inject_timer(&mut self, node: NodeId, delay: SimDuration, token: u64) {
        let lp = self.lp(node);
        let at = lp.now + delay;
        lp.push(at, EventKind::Timer { node, token });
    }

    /// Number of node slots (installed nodes) in this simulator.
    pub fn node_count(&self) -> usize {
        self.lps[0].nodes.len()
    }

    /// Process the next event. Returns `false` when the queue is empty.
    /// Panics on a partitioned simulator: single-stepping has no
    /// well-defined global order across logical processes — use
    /// [`Simulator::run_until`].
    pub fn step(&mut self) -> bool {
        assert!(
            self.lps.len() == 1,
            "step on a partitioned simulator: use run_until"
        );
        self.lps[0].step()
    }

    /// Run until the clock reaches `deadline` (events at exactly `deadline`
    /// are processed) or the queue empties. The clock is advanced to
    /// `deadline` on return so subsequent scheduling is relative to it.
    /// [`FaultAction::Custom`] events encountered here are dropped —
    /// chaos harnesses use [`Simulator::run_until_fault`] instead.
    ///
    /// One LP drains its queue in same-timestamp bursts via
    /// [`EventQueue::pop_run`]: one fused cursor scan yields the whole
    /// run, which is then dispatched in the identical `(at, seq)` FIFO
    /// order the one-pop-per-step loop would produce (events a dispatch
    /// schedules at the *same* instant carry higher `seq` than the rest
    /// of the burst, so picking them up in the next `pop_run` round
    /// preserves the order; see `tests/prop_spine.rs`). This is the
    /// same loop [`Simulator::run_until_fault`] runs; here it resumes at
    /// once after each `Custom` pause.
    ///
    /// Several LPs run that loop window by window (`crate::par`). The
    /// result depends on the scenario and the partition map only: not
    /// on the worker count, and not on how callers slice a run into
    /// `run_until` calls.
    pub fn run_until(&mut self, deadline: SimTime) {
        if let [lp] = &mut self.lps[..] {
            lp.run_until(deadline);
        } else {
            self.run_windows(deadline);
        }
    }

    /// Like [`Simulator::run_until`], but pauses when a
    /// [`FaultAction::Custom`] fires, returning
    /// [`RunOutcome::CustomFault`] so the caller can apply the
    /// domain-specific fault and resume with another call.
    ///
    /// It runs the same burst loop as [`Simulator::run_until`]. The
    /// pause comes right after the `Custom` event's dispatch; the rest
    /// of its same-instant burst goes back into the queue under each
    /// event's original `(at, seq)`, so every later same-instant event
    /// is still queued, as if events were popped one at a time.
    pub fn run_until_fault(&mut self, deadline: SimTime) -> RunOutcome {
        if self.lps.len() > 1 {
            // A partitioned simulator rejects Custom faults, so this
            // can only ever reach the deadline.
            self.run_until(deadline);
            return RunOutcome::ReachedDeadline;
        }
        self.lps[0].run_until_fault(deadline)
    }

    /// Run for `d` more simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    /// Number of events waiting: the sum over all LP queues plus any
    /// cross-LP packets staged in outboxes and mailboxes.
    pub fn pending_events(&self) -> usize {
        let queued: usize = self
            .lps
            .iter()
            .map(|lp| lp.queue.len() + lp.outboxes.iter().map(Vec::len).sum::<usize>())
            .sum();
        let staged: usize = self
            .staged
            .iter()
            .map(|m| m.lock().expect(POISONED).len())
            .sum();
        queued + staged
    }
}

impl<M: Clone + Send + 'static> Lp<M> {
    /// An empty LP 0 routing sends by `lp_of`.
    pub(crate) fn new(topology: Topology, rng: SimRng, lp_of: Arc<[u32]>) -> Lp<M> {
        Lp {
            now: SimTime::ZERO,
            seq: 0,
            queue: EventQueue::new(),
            nodes: Vec::new(),
            alive: Vec::new(),
            topology,
            rng,
            effects: Vec::new(),
            stats: SimStats::default(),
            link_states: HashMap::new(),
            tap: None,
            pending_custom: None,
            links: Vec::new(),
            links_version: u64::MAX,
            links_n: usize::MAX,
            burst: Vec::new(),
            burst_pending: 0,
            id: 0,
            lp_of,
            outboxes: Vec::new(),
        }
    }

    fn add_node(&mut self, node: Box<dyn Node<M>>) -> NodeId {
        assert!(
            self.nodes.len() < MAX_NODES,
            "simulator is full: {MAX_NODES} nodes (the dense (src,dst) link table is \
             O(n^2) and caps the topology at {MAX_NODES}). Per-node state for large \
             client counts does not scale anyway — model big populations with one \
             aggregate population node per ~100K virtual clients \
             (netlock-core's `population` module) instead of one node per client."
        );
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(node));
        self.alive.push(true);
        // Run on_start with effect collection.
        let mut node = self.nodes[id.index()].take().expect("just inserted");
        let mut effects = std::mem::take(&mut self.effects);
        {
            let mut ctx = Context {
                now: self.now,
                self_id: id,
                effects: &mut effects,
                rng: &mut self.rng,
                seq: &mut self.seq,
            };
            node.on_start(&mut ctx);
        }
        self.nodes[id.index()] = Some(node);
        if let Some(mut t) = self.tap.take() {
            self.apply_effects(id, &mut effects, &mut DynTap(&mut *t));
            self.tap = Some(t);
        } else {
            self.apply_effects(id, &mut effects, &mut NoTap);
        }
        self.effects = effects;
        id
    }

    /// Resolve the link config for one directed hop via the dense
    /// table, rebuilding it if the topology or node count changed.
    #[inline]
    fn link_for(&mut self, src: NodeId, dst: NodeId) -> LinkConfig {
        // `add_node` enforces n <= MAX_NODES, so the dense table always
        // applies — there is no silent hash-lookup slow path.
        let n = self.nodes.len();
        if self.links_version != self.topology.version() || self.links_n != n {
            self.topology.resolve_dense(n, &mut self.links);
            self.links_version = self.topology.version();
            self.links_n = n;
        }
        let (s, d) = (src.index(), dst.index());
        if s < n && d < n {
            self.links[s * n + d]
        } else {
            // Traffic to ids outside the node table (it drops at
            // delivery as dead-node) still resolves consistently.
            self.topology.link(src, dst)
        }
    }

    pub(crate) fn push(&mut self, at: SimTime, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.push_at_seq(at, seq, kind);
    }

    /// Queue an event under a schedule position taken earlier.
    fn push_at_seq(&mut self, at: SimTime, seq: u64, kind: EventKind<M>) {
        self.queue.push(at, seq, kind);
        self.stats.events_scheduled += 1;
        let depth = self.queue.len() as u64 + self.burst_pending;
        if depth > self.stats.max_queue_depth {
            self.stats.max_queue_depth = depth;
        }
    }

    /// Queue one delivery, diverting it to the destination LP's mailbox
    /// when another LP owns the destination. The diverted entry consumes
    /// a send `seq` and carries the key `REMOTE_BAND | id << 48 | seq`
    /// that the receiver queues it under; `events_scheduled` is counted
    /// there, when the mailbox is flushed.
    #[inline]
    fn push_deliver(&mut self, at: SimTime, pkt: Packet<M>) {
        if let Some(&dst_lp) = self.lp_of.get(pkt.dst.index()) {
            if dst_lp != self.id {
                let seq = self.seq;
                self.seq += 1;
                assert!(seq < 1 << 48, "LP {} ran out of send seqs", self.id);
                let key = REMOTE_BAND | u64::from(self.id) << 48 | seq;
                self.outboxes[dst_lp as usize].push((at, key, pkt));
                return;
            }
        }
        self.push(at, EventKind::Deliver(pkt));
    }

    /// Queue one window's cross-LP arrivals under the keys their
    /// senders gave them, in whatever order the mailbox holds them.
    pub(crate) fn flush_remote(&mut self, inbox: &mut Vec<Staged<M>>) {
        for (at, key, pkt) in inbox.drain(..) {
            self.push_at_seq(at, key, EventKind::Deliver(pkt));
        }
    }

    fn apply_effects<T: TapHook<M>>(
        &mut self,
        from: NodeId,
        effects: &mut Vec<Effect<M>>,
        tap: &mut T,
    ) {
        for eff in effects.drain(..) {
            match eff {
                Effect::Send {
                    dst,
                    payload,
                    extra_delay,
                } => {
                    self.transmit(tap, from, dst, payload, extra_delay);
                }
                Effect::Timer {
                    delay,
                    token,
                    ticket,
                } => {
                    let at = self.now + delay;
                    let kind = EventKind::Timer { node: from, token };
                    match ticket {
                        Some(ticket) => self.push_at_seq(at, ticket.0, kind),
                        None => self.push(at, kind),
                    }
                }
            }
        }
    }

    /// Send one packet over the `(src, dst)` link, applying the link's
    /// loss (Bernoulli or Gilbert–Elliott), jitter and duplication.
    ///
    /// RNG draw order is fixed and conditional, so fault-free links draw
    /// exactly as before faults existed (byte-compatibility): GE
    /// transition + state loss (iff `ge` set), else Bernoulli loss (iff
    /// `loss > 0`), then jitter (iff `jitter > 0`), then duplication
    /// (iff `duplicate > 0`), then the duplicate's jitter.
    fn transmit<T: TapHook<M>>(
        &mut self,
        tap: &mut T,
        src: NodeId,
        dst: NodeId,
        payload: M,
        extra_delay: SimDuration,
    ) {
        let link = self.link_for(src, dst);
        if T::ENABLED {
            tap.emit(TapEvent::Sent {
                at: self.now,
                src,
                dst,
                payload: &payload,
            });
        }
        let faulty = link.faults.any();
        if !faulty && link.loss == 0.0 {
            // Healthy link (the overwhelmingly common case): no RNG
            // draws, no per-link state, one queue push.
            let at = self.now + link.delay + extra_delay;
            self.push_deliver(at, Packet { src, dst, payload });
            return;
        }
        // Loss: Gilbert–Elliott channel if configured, else Bernoulli.
        // RNG draw order stays fixed and conditional, so fault-free
        // links draw exactly as before faults existed: GE transition +
        // state loss (iff `ge` set), else Bernoulli loss (iff
        // `loss > 0`), then jitter (iff `jitter > 0`), then duplication
        // (iff `duplicate > 0`), then the duplicate's jitter.
        let lost = if let Some(ge) = link.faults.ge {
            let state = self.link_states.entry((src, dst)).or_default();
            let bad = state.ge_bad;
            let p_flip = if bad { ge.to_good } else { ge.to_bad };
            let flipped = self.rng.chance(p_flip);
            if flipped {
                state.ge_bad = !bad;
            }
            let p_loss = if bad ^ flipped {
                ge.loss_bad
            } else {
                ge.loss_good
            };
            self.rng.chance(p_loss)
        } else {
            link.loss > 0.0 && self.rng.chance(link.loss)
        };
        if lost {
            self.stats.packets_lost += 1;
            self.link_states
                .entry((src, dst))
                .or_default()
                .counters
                .lost += 1;
            if T::ENABLED {
                tap.emit(TapEvent::Lost {
                    at: self.now,
                    src,
                    dst,
                    payload: &payload,
                });
            }
            return;
        }
        let jitter = link.faults.jitter.as_nanos();
        let base = self.now + link.delay + extra_delay;
        let at = if jitter > 0 {
            base + SimDuration(self.rng.next_below(jitter + 1))
        } else {
            base
        };
        let duplicated = link.faults.duplicate > 0.0 && self.rng.chance(link.faults.duplicate);
        let dup_at = if duplicated {
            if jitter > 0 {
                Some(base + SimDuration(self.rng.next_below(jitter + 1)))
            } else {
                Some(base)
            }
        } else {
            None
        };
        if faulty {
            // One resolved entry per send covers both the reorder
            // accounting and the duplication counter. A plain-lossy
            // (non-faulty) link never reaches this block, so it still
            // only materializes link state on an actual loss.
            let state = self.link_states.entry((src, dst)).or_default();
            // Reorder accounting: a packet overtakes when it is scheduled
            // to arrive before the latest already-scheduled arrival on
            // this directed link.
            for &t_arr in [Some(at), dup_at].iter().flatten() {
                if t_arr < state.last_arrival {
                    state.counters.reordered += 1;
                    self.stats.packets_reordered += 1;
                } else {
                    state.last_arrival = t_arr;
                }
            }
            if dup_at.is_some() {
                state.counters.duplicated += 1;
            }
        }
        if let Some(dup_at) = dup_at {
            self.stats.packets_duplicated += 1;
            if T::ENABLED {
                tap.emit(TapEvent::Duplicated {
                    at: self.now,
                    src,
                    dst,
                    payload: &payload,
                });
            }
            self.push_deliver(
                dup_at,
                Packet {
                    src,
                    dst,
                    payload: payload.clone(),
                },
            );
        }
        self.push_deliver(at, Packet { src, dst, payload });
    }

    fn apply_fault<T: TapHook<M>>(&mut self, action: FaultAction, tap: &mut T) {
        self.stats.faults_applied += 1;
        if T::ENABLED {
            tap.emit(TapEvent::Fault {
                at: self.now,
                action,
            });
        }
        match action {
            FaultAction::SetLink { src, dst, cfg } => self.topology.set_link(src, dst, cfg),
            FaultAction::ClearLink { src, dst } => self.topology.clear_link(src, dst),
            FaultAction::FailNode(id) => self.alive[id.index()] = false,
            FaultAction::ReviveNode(id) => self.alive[id.index()] = true,
            FaultAction::Custom(token) => self.pending_custom = Some((self.now, token)),
        }
    }

    /// Advance the clock to `at` and dispatch one already-popped event.
    fn dispatch<T: TapHook<M>>(&mut self, at: SimTime, kind: EventKind<M>, tap: &mut T) {
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.stats.events_fired += 1;
        let node_id = match &kind {
            EventKind::Deliver(pkt) => pkt.dst,
            EventKind::Timer { node, .. } => *node,
            EventKind::Fault(action) => {
                let action = **action;
                self.apply_fault(action, tap);
                return;
            }
        };
        if node_id.index() >= self.nodes.len() || !self.alive[node_id.index()] {
            self.stats.packets_to_dead_node += 1;
            if T::ENABLED {
                if let EventKind::Deliver(pkt) = &kind {
                    tap.emit(TapEvent::DeliveredToDead { at: self.now, pkt });
                }
            }
            return;
        }
        if T::ENABLED {
            if let EventKind::Deliver(pkt) = &kind {
                tap.emit(TapEvent::Delivered { at: self.now, pkt });
            }
        }
        let mut node = self.nodes[node_id.index()]
            .take()
            .expect("re-entrant dispatch");
        let mut effects = std::mem::take(&mut self.effects);
        {
            let mut ctx = Context {
                now: self.now,
                self_id: node_id,
                effects: &mut effects,
                rng: &mut self.rng,
                seq: &mut self.seq,
            };
            match kind {
                EventKind::Deliver(pkt) => {
                    self.stats.packets_delivered += 1;
                    node.on_packet(pkt, &mut ctx)
                }
                EventKind::Timer { token, .. } => {
                    self.stats.timers_fired += 1;
                    node.on_timer(token, &mut ctx)
                }
                EventKind::Fault(_) => unreachable!("fault handled above"),
            }
        }
        self.nodes[node_id.index()] = Some(node);
        self.apply_effects(node_id, &mut effects, tap);
        self.effects = effects;
    }

    fn step(&mut self) -> bool {
        let Some((at, _seq, kind)) = self.queue.pop() else {
            return false;
        };
        if let Some(mut t) = self.tap.take() {
            self.dispatch(at, kind, &mut DynTap(&mut *t));
            self.tap = Some(t);
        } else {
            self.dispatch(at, kind, &mut NoTap);
        }
        true
    }

    /// [`Simulator::run_until`] on this LP alone: the burst loop,
    /// resumed at once after every `Custom` pause (the fault is dropped).
    pub(crate) fn run_until(&mut self, deadline: SimTime) {
        while let RunOutcome::CustomFault { .. } = self.run_until_fault(deadline) {}
    }

    /// [`Simulator::run_until_fault`] on this LP alone.
    fn run_until_fault(&mut self, deadline: SimTime) -> RunOutcome {
        if self.pending_custom.is_none() {
            if let Some(mut t) = self.tap.take() {
                self.drain_until(deadline, &mut DynTap(&mut *t));
                self.tap = Some(t);
            } else {
                self.drain_until(deadline, &mut NoTap);
            }
        }
        if let Some((at, token)) = self.pending_custom.take() {
            return RunOutcome::CustomFault { at, token };
        }
        if self.now < deadline {
            self.now = deadline;
        }
        RunOutcome::ReachedDeadline
    }

    /// The simulator's one drain loop: dispatch same-instant bursts up
    /// to `deadline`, stopping right after a dispatch that set
    /// `pending_custom`. The undispatched rest of that burst goes back
    /// into the queue under its own `(at, seq)`, so the queue is left
    /// exactly as one-pop-per-step dispatch would leave it.
    fn drain_until<T: TapHook<M>>(&mut self, deadline: SimTime, tap: &mut T) {
        let mut burst = std::mem::take(&mut self.burst);
        debug_assert!(burst.is_empty());
        'run: while self.queue.pop_run(deadline, &mut burst) > 0 {
            self.burst_pending = burst.len() as u64;
            let mut events = burst.drain(..);
            while let Some((at, _seq, kind)) = events.next() {
                self.burst_pending -= 1;
                self.dispatch(at, kind, tap);
                if self.pending_custom.is_some() {
                    // Not `push_at_seq`: these were scheduled (and
                    // counted toward the queue depth) once already.
                    for (at, seq, kind) in events {
                        self.queue.push(at, seq, kind);
                    }
                    self.burst_pending = 0;
                    break 'run;
                }
            }
        }
        self.burst = burst;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes every packet back to its sender after a fixed delay.
    struct Echo {
        received: Vec<(SimTime, u32)>,
    }

    impl Node<u32> for Echo {
        fn on_packet(&mut self, pkt: Packet<u32>, ctx: &mut Context<'_, u32>) {
            self.received.push((ctx.now(), pkt.payload));
            if pkt.payload < 100 {
                ctx.send(pkt.src, pkt.payload + 1);
            }
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_, u32>) {}
    }

    struct TimerNode {
        fired: Vec<(SimTime, u64)>,
    }

    impl Node<u32> for TimerNode {
        fn on_packet(&mut self, _pkt: Packet<u32>, _ctx: &mut Context<'_, u32>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, u32>) {
            self.fired.push((ctx.now(), token));
            if token < 3 {
                ctx.set_timer(SimDuration(10), token + 1);
            }
        }
    }

    fn sim() -> Simulator<u32> {
        let mut topo = Topology::new(LinkConfig::with_delay(SimDuration(100)));
        topo.set_default(LinkConfig::with_delay(SimDuration(100)));
        Simulator::new(topo, 1)
    }

    #[test]
    fn ping_pong_advances_time() {
        let mut s = sim();
        let a = s.add_node(Box::new(Echo { received: vec![] }));
        let b = s.add_node(Box::new(Echo { received: vec![] }));
        s.inject(a, b, 0);
        s.run_until(SimTime(1_000));
        // Packet 0 arrives at b at t=100, 1 at a at t=200, ...
        s.read_node::<Echo, _>(b, |n| {
            assert_eq!(n.received[0], (SimTime(100), 0));
            assert_eq!(n.received[1], (SimTime(300), 2));
        });
        s.read_node::<Echo, _>(a, |n| {
            assert_eq!(n.received[0], (SimTime(200), 1));
        });
    }

    #[test]
    fn node_capacity_is_enforced_with_actionable_error() {
        let mut s = sim();
        for _ in 0..MAX_NODES {
            s.add_node(Box::new(Echo { received: vec![] }));
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.add_node(Box::new(Echo { received: vec![] }));
        }))
        .expect_err("node 513 must be rejected");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(msg.contains("simulator is full"), "got: {msg}");
        assert!(
            msg.contains("population"),
            "error must point at aggregate population nodes: {msg}"
        );
    }

    #[test]
    fn chained_timers_fire_in_order() {
        let mut s = sim();
        let t = s.add_node(Box::new(TimerNode { fired: vec![] }));
        s.inject_timer(t, SimDuration(5), 1);
        s.run_until(SimTime(1_000));
        s.read_node::<TimerNode, _>(t, |n| {
            assert_eq!(
                n.fired,
                vec![(SimTime(5), 1), (SimTime(15), 2), (SimTime(25), 3),]
            );
        });
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut s = sim();
        s.run_until(SimTime(500));
        assert_eq!(s.now(), SimTime(500));
    }

    #[test]
    fn failed_node_drops_packets() {
        let mut s = sim();
        let a = s.add_node(Box::new(Echo { received: vec![] }));
        let b = s.add_node(Box::new(Echo { received: vec![] }));
        s.fail_node(b);
        s.inject(a, b, 0);
        s.run_until(SimTime(1_000));
        s.read_node::<Echo, _>(b, |n| assert!(n.received.is_empty()));
        assert_eq!(s.stats().packets_to_dead_node, 1);
        // Revive: new packets flow again (payload >= 100 stops the echo).
        s.revive_node(b);
        s.inject(a, b, 100);
        s.run_until(SimTime(2_000));
        s.read_node::<Echo, _>(b, |n| assert_eq!(n.received.len(), 1));
    }

    #[test]
    fn lossy_link_drops_deterministically() {
        let mut s = sim();
        let a = s.add_node(Box::new(Echo { received: vec![] }));
        let b = s.add_node(Box::new(Echo { received: vec![] }));
        s.topology_mut().set_link(
            b,
            a,
            LinkConfig::with_delay(SimDuration(100)).with_loss(1.0),
        );
        // a -> b delivered; echo b -> a always lost.
        s.inject(a, b, 0);
        s.run_until(SimTime(10_000));
        s.read_node::<Echo, _>(a, |n| assert!(n.received.is_empty()));
        assert_eq!(s.stats().packets_lost, 1);
    }

    #[test]
    fn same_time_events_fifo() {
        // Two packets injected at the same instant arrive in injection order.
        struct Rec {
            got: Vec<u32>,
        }
        impl Node<u32> for Rec {
            fn on_packet(&mut self, pkt: Packet<u32>, _ctx: &mut Context<'_, u32>) {
                self.got.push(pkt.payload);
            }
            fn on_timer(&mut self, _t: u64, _c: &mut Context<'_, u32>) {}
        }
        let mut s = sim();
        let r = s.add_node(Box::new(Rec { got: vec![] }));
        let x = s.add_node(Box::new(Echo { received: vec![] }));
        for i in 0..10 {
            s.inject(x, r, i);
        }
        s.run_until(SimTime(1_000));
        s.read_node::<Rec, _>(r, |n| {
            assert_eq!(n.got, (0..10).collect::<Vec<_>>());
        });
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let run = |seed: u64| {
            let mut s: Simulator<u32> = Simulator::with_seed(seed);
            let a = s.add_node(Box::new(Echo { received: vec![] }));
            let b = s.add_node(Box::new(Echo { received: vec![] }));
            s.topology_mut()
                .set_default(LinkConfig::with_delay(SimDuration(50)).with_loss(0.3));
            s.inject(a, b, 0);
            s.run_until(SimTime(100_000));
            s.read_node::<Echo, _>(b, |n| n.received.clone())
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn quiescence_detection() {
        let mut s = sim();
        let a = s.add_node(Box::new(Echo { received: vec![] }));
        let b = s.add_node(Box::new(Echo { received: vec![] }));
        s.inject(a, b, 95); // bounces until payload hits 100
        let mut steps = 0;
        while s.step() {
            steps += 1;
        }
        assert_eq!(steps, 6);
        assert!(s.pending_events() == 0);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::node::{Context, Node, Packet};

    struct Counter(u64);
    impl Node<u32> for Counter {
        fn on_packet(&mut self, _pkt: Packet<u32>, _ctx: &mut Context<'_, u32>) {}
        fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_, u32>) {
            self.0 += 1;
            // Perpetual ticking: the queue never empties.
            ctx.set_timer(SimDuration(100), 0);
        }
    }

    #[test]
    fn inject_timer_fires_at_requested_delay() {
        let mut s: Simulator<u32> = Simulator::with_seed(2);
        struct Once(Option<SimTime>);
        impl Node<u32> for Once {
            fn on_packet(&mut self, _p: Packet<u32>, _c: &mut Context<'_, u32>) {}
            fn on_timer(&mut self, _t: u64, ctx: &mut Context<'_, u32>) {
                self.0 = Some(ctx.now());
            }
        }
        let n = s.add_node(Box::new(Once(None)));
        s.inject_timer(n, SimDuration(12_345), 7);
        s.run_until(SimTime(100_000));
        s.read_node::<Once, _>(n, |o| assert_eq!(o.0, Some(SimTime(12_345))));
    }

    /// A timer armed late under a ticket fires where a timer armed when
    /// the ticket was taken would have: ahead of a same-instant timer
    /// scheduled in between.
    #[test]
    fn ticketed_timer_keeps_its_place_among_same_instant_events() {
        struct Deferred {
            ticket: Option<crate::TimerTicket>,
            fired: Vec<u64>,
        }
        impl Node<u32> for Deferred {
            fn on_packet(&mut self, _p: Packet<u32>, _c: &mut Context<'_, u32>) {}
            fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, u32>) {
                match token {
                    // t=10: would arm A for t=100 here; take its place only.
                    0 => self.ticket = Some(ctx.timer_ticket()),
                    // t=20: B, also due at t=100, is scheduled in between.
                    1 => ctx.set_timer(SimDuration(80), 11),
                    // t=30: A is armed at last, under the ticket from t=10.
                    2 => ctx.set_timer_with_ticket(
                        SimDuration(70),
                        10,
                        self.ticket.take().expect("taken at t=10"),
                    ),
                    fired => self.fired.push(fired),
                }
            }
        }
        let mut s: Simulator<u32> = Simulator::with_seed(2);
        let n = s.add_node(Box::new(Deferred {
            ticket: None,
            fired: vec![],
        }));
        for (at, token) in [(10, 0), (20, 1), (30, 2)] {
            s.inject_timer(n, SimDuration(at), token);
        }
        s.run_until(SimTime(1_000));
        assert_eq!(s.now(), SimTime(1_000));
        s.read_node::<Deferred, _>(n, |d| assert_eq!(d.fired, vec![10, 11]));
    }

    #[test]
    fn stats_count_deliveries_and_timers() {
        let mut s: Simulator<u32> = Simulator::with_seed(3);
        let n = s.add_node(Box::new(Counter(0)));
        s.inject_timer(n, SimDuration(1), 0);
        s.run_until(SimTime(450));
        // A timer-only run delivers no packets: `packets_delivered`
        // counts Deliver events only, not everything dispatched.
        assert_eq!(s.stats().packets_delivered, 0);
        assert!(s.stats().timers_fired >= 4);
        assert_eq!(s.stats().packets_lost, 0);
    }

    #[test]
    fn every_fired_event_is_counted_once() {
        // Mixed packets + timers + a dead-node drop: every popped event
        // lands in exactly one bucket, so the buckets sum to
        // events_fired.
        struct PingTimer {
            peer: NodeId,
            left: u32,
        }
        impl Node<u32> for PingTimer {
            fn on_packet(&mut self, _p: Packet<u32>, ctx: &mut Context<'_, u32>) {
                if self.left > 0 {
                    self.left -= 1;
                    ctx.send(self.peer, self.left);
                    ctx.set_timer(SimDuration(7), 1);
                }
            }
            fn on_timer(&mut self, _t: u64, _c: &mut Context<'_, u32>) {}
        }
        let mut s: Simulator<u32> = Simulator::with_seed(5);
        let a = s.add_node(Box::new(PingTimer {
            peer: NodeId(1),
            left: 20,
        }));
        let b = s.add_node(Box::new(PingTimer { peer: a, left: 20 }));
        s.inject(b, a, 0);
        // One packet into the void: dispatched, counted as dead-node.
        s.inject(a, NodeId(99), 7);
        s.run_until(SimTime(1_000_000));
        let st = s.stats();
        assert!(st.packets_delivered > 0 && st.timers_fired > 0);
        assert_eq!(st.packets_to_dead_node, 1);
        assert_eq!(
            st.packets_delivered + st.timers_fired + st.faults_applied + st.packets_to_dead_node,
            st.events_fired,
            "stats buckets must partition events_fired: {st:?}"
        );
    }

    #[test]
    fn pending_events_visible() {
        let mut s: Simulator<u32> = Simulator::with_seed(4);
        let n = s.add_node(Box::new(Counter(0)));
        s.inject_timer(n, SimDuration(1_000), 0);
        s.inject_timer(n, SimDuration(2_000), 0);
        assert_eq!(s.pending_events(), 2);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::{FaultAction, FaultPlan, RunOutcome};
    use crate::link::{GeParams, LinkFaults};

    /// Sends `total` sequence-numbered packets to `dst`, one per `gap`.
    struct Flood {
        dst: NodeId,
        total: u32,
        sent: u32,
        gap: SimDuration,
    }
    impl Node<u32> for Flood {
        fn on_packet(&mut self, _p: Packet<u32>, _c: &mut Context<'_, u32>) {}
        fn on_timer(&mut self, _t: u64, ctx: &mut Context<'_, u32>) {
            if self.sent < self.total {
                ctx.send(self.dst, self.sent);
                self.sent += 1;
                ctx.set_timer(self.gap, 0);
            }
        }
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.set_timer(self.gap, 0);
        }
    }

    struct Rec {
        got: Vec<u32>,
    }
    impl Node<u32> for Rec {
        fn on_packet(&mut self, pkt: Packet<u32>, _ctx: &mut Context<'_, u32>) {
            self.got.push(pkt.payload);
        }
        fn on_timer(&mut self, _t: u64, _c: &mut Context<'_, u32>) {}
    }

    fn flood_sim(seed: u64, total: u32, faults: LinkFaults) -> (Simulator<u32>, NodeId, NodeId) {
        let mut s: Simulator<u32> = Simulator::with_seed(seed);
        let r = s.add_node(Box::new(Rec { got: vec![] }));
        let f = s.add_node(Box::new(Flood {
            dst: r,
            total,
            sent: 0,
            gap: SimDuration(1_000),
        }));
        let cfg = LinkConfig::with_delay(SimDuration(500)).with_faults(faults);
        s.topology_mut().set_link(f, r, cfg);
        (s, f, r)
    }

    #[test]
    fn ge_losses_cluster_into_bursts() {
        let faults = LinkFaults {
            ge: Some(GeParams::bursty(0.05, 0.25, 1.0)),
            ..LinkFaults::NONE
        };
        let (mut s, f, r) = flood_sim(11, 400, faults);
        s.run_until(SimTime(1_000_000));
        let got = s.read_node::<Rec, _>(r, |n| n.got.clone());
        let lost = 400 - got.len() as u64;
        assert!(lost > 0, "GE channel must drop packets");
        assert_eq!(s.stats().packets_lost, lost);
        let per_link = s.link_counters();
        let entry = per_link.iter().find(|((a, b), _)| (*a, *b) == (f, r));
        assert_eq!(entry.expect("link counters recorded").1.lost, lost);
        // Burstiness: with loss_bad = 1 every bad-state packet drops, so
        // some run of >= 2 consecutive sequence numbers must be missing.
        let mut missing_run = 0u32;
        let mut best = 0u32;
        let present: std::collections::HashSet<u32> = got.iter().copied().collect();
        for i in 0..400 {
            if present.contains(&i) {
                missing_run = 0;
            } else {
                missing_run += 1;
                best = best.max(missing_run);
            }
        }
        assert!(best >= 2, "losses should cluster, longest run {best}");
        // Mean loss rate stays near the stationary bad fraction (~1/6),
        // nowhere near loss_bad itself.
        assert!(lost < 200, "loss rate should be far below loss_bad");
    }

    #[test]
    fn duplication_delivers_twice_and_counts() {
        let faults = LinkFaults {
            duplicate: 1.0,
            ..LinkFaults::NONE
        };
        let (mut s, f, r) = flood_sim(5, 10, faults);
        s.run_until(SimTime(1_000_000));
        let got = s.read_node::<Rec, _>(r, |n| n.got.clone());
        assert_eq!(got.len(), 20, "every packet delivered twice");
        assert_eq!(s.stats().packets_duplicated, 10);
        let per_link = s.link_counters();
        let entry = per_link.iter().find(|((a, b), _)| (*a, *b) == (f, r));
        assert_eq!(entry.expect("counters").1.duplicated, 10);
        // With zero jitter the original precedes its duplicate (FIFO at
        // equal timestamps), so the sequence is 0,0,1,1,...
        for i in 0..10u32 {
            assert_eq!(got[2 * i as usize], i);
            assert_eq!(got[2 * i as usize + 1], i);
        }
    }

    #[test]
    fn jitter_reorders_back_to_back_sends() {
        let faults = LinkFaults {
            jitter: SimDuration(10_000),
            ..LinkFaults::NONE
        };
        let (mut s, _f, r) = flood_sim(7, 100, faults);
        s.run_until(SimTime(10_000_000));
        let got = s.read_node::<Rec, _>(r, |n| n.got.clone());
        assert_eq!(got.len(), 100, "jitter never loses packets");
        assert!(
            got.windows(2).any(|w| w[0] > w[1]),
            "10us jitter over 1us spacing must reorder"
        );
        assert!(s.stats().packets_reordered > 0);
    }

    #[test]
    fn fault_plan_flaps_link_and_pauses_on_custom() {
        let mut s: Simulator<u32> = Simulator::with_seed(3);
        let r = s.add_node(Box::new(Rec { got: vec![] }));
        let f = s.add_node(Box::new(Flood {
            dst: r,
            total: 50,
            sent: 0,
            gap: SimDuration(1_000),
        }));
        s.topology_mut()
            .set_default(LinkConfig::with_delay(SimDuration(500)));
        let plan = FaultPlan::new()
            .with(
                SimTime(10_000),
                FaultAction::SetLink {
                    src: f,
                    dst: r,
                    cfg: LinkConfig::with_delay(SimDuration(500)).with_loss(1.0),
                },
            )
            .with(SimTime(20_000), FaultAction::Custom(42))
            .with(SimTime(30_000), FaultAction::ClearLink { src: f, dst: r });
        s.install_plan(&plan);
        let outcome = s.run_until_fault(SimTime(100_000));
        assert_eq!(
            outcome,
            RunOutcome::CustomFault {
                at: SimTime(20_000),
                token: 42
            }
        );
        assert_eq!(s.now(), SimTime(20_000));
        let outcome = s.run_until_fault(SimTime(100_000));
        assert_eq!(outcome, RunOutcome::ReachedDeadline);
        let got = s.read_node::<Rec, _>(r, |n| n.got.clone());
        // Packets sent in [10us, 30us) are all lost; the rest arrive.
        assert!(got.len() < 50 && !got.is_empty());
        assert_eq!(s.stats().packets_lost, 50 - got.len() as u64);
        assert_eq!(s.stats().faults_applied, 3);
        // Sends outside the flap window are unaffected.
        assert!(got.contains(&0) && got.contains(&49));
    }

    #[test]
    fn fail_and_revive_via_plan() {
        let plan = FaultPlan::new()
            .with(SimTime(5_500), FaultAction::FailNode(NodeId(0)))
            .with(SimTime(15_500), FaultAction::ReviveNode(NodeId(0)));
        let mut s: Simulator<u32> = Simulator::with_seed(9);
        let r = s.add_node(Box::new(Rec { got: vec![] }));
        let _f = s.add_node(Box::new(Flood {
            dst: r,
            total: 30,
            sent: 0,
            gap: SimDuration(1_000),
        }));
        s.install_plan(&plan);
        s.run_until(SimTime(100_000));
        assert!(s.is_alive(r));
        let got = s.read_node::<Rec, _>(r, |n| n.got.clone());
        assert!(s.stats().packets_to_dead_node > 0);
        assert_eq!(got.len() as u64 + s.stats().packets_to_dead_node, 30);
    }

    #[test]
    fn tap_observes_sends_losses_and_deliveries() {
        use std::sync::{Arc, Mutex};
        let counts = Arc::new(Mutex::new((0u64, 0u64, 0u64, 0u64)));
        let c2 = Arc::clone(&counts);
        let faults = LinkFaults {
            duplicate: 1.0,
            ..LinkFaults::NONE
        };
        let (mut s, _f, _r) = flood_sim(5, 10, faults);
        s.set_lp_tap(
            0,
            Box::new(move |ev| {
                let mut c = c2.lock().unwrap();
                match ev {
                    TapEvent::Sent { .. } => c.0 += 1,
                    TapEvent::Lost { .. } => c.1 += 1,
                    TapEvent::Duplicated { .. } => c.2 += 1,
                    TapEvent::Delivered { .. } => c.3 += 1,
                    _ => {}
                }
            }),
        );
        s.run_until(SimTime(1_000_000));
        let c = counts.lock().unwrap();
        assert_eq!(c.0, 10, "one Sent per logical send");
        assert_eq!(c.1, 0);
        assert_eq!(c.2, 10);
        assert_eq!(c.3, 20, "original + duplicate deliveries");
    }

    #[test]
    fn faulty_run_is_deterministic() {
        let run = |seed: u64| {
            let faults = LinkFaults {
                duplicate: 0.2,
                jitter: SimDuration(5_000),
                ge: Some(GeParams::bursty(0.1, 0.3, 0.9)),
            };
            let (mut s, _f, r) = flood_sim(seed, 200, faults);
            s.run_until(SimTime(10_000_000));
            (
                s.read_node::<Rec, _>(r, |n| n.got.clone()),
                s.stats().packets_lost,
                s.stats().packets_duplicated,
                s.stats().packets_reordered,
            )
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21).0, run(22).0, "different seed, different trace");
    }
}

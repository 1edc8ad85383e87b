//! The lock-switch simulation nodes.
//!
//! One driver, `SwitchCore`, runs the [`DataPlane`] state machine inside
//! a `netlock-sim` node: packets in, packets out, with the switch's
//! traversal latency and per-resubmit cost charged on every emission.
//! It also keeps what on hardware the switch CPU keeps: the lease sweep
//! and the program (allocation and tenant meters), which one path
//! installs on a wiped data plane, when programmed and after every
//! reboot. [`SwitchNode`] (the rack switch) adds batching;
//! [`crate::replication::ReplSwitch`] adds chain replication.

use netlock_proto::{GrantMsg, NetLockMsg, ReleaseRequest, TenantId};
use netlock_sim::{Context, Node, NodeId, Packet, SimDuration};

use crate::action_buf::ActionBuf;
use crate::control::{self, apply_allocation, Allocation};
use crate::dataplane::{DataPlane, DpAction};

/// Timer token for the control-plane tick.
const TIMER_CONTROL_TICK: u64 = 1;
/// Ingress-to-egress traversal latency (the paper: well under 1 µs).
pub const TRAVERSAL: SimDuration = SimDuration::from_nanos(500);
/// Added latency per extra pipeline pass (resubmit).
pub const PASS_LATENCY: SimDuration = SimDuration::from_nanos(100);

/// Egress delay of a packet that took `extra_passes` resubmits.
pub(crate) fn egress_delay(extra_passes: u64) -> SimDuration {
    TRAVERSAL + SimDuration(PASS_LATENCY.as_nanos() * extra_passes)
}

/// Switch node configuration.
#[derive(Clone, Debug)]
pub struct SwitchConfig {
    /// Lease duration; expired holders are force-released by the control
    /// plane (§4.5). Zero disables lease sweeping.
    pub lease: SimDuration,
    /// Control-plane polling interval.
    pub control_tick: SimDuration,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            lease: SimDuration::from_millis(10),
            control_tick: SimDuration::from_millis(1),
        }
    }
}

/// Counters of a switch node (message plane; the data plane keeps its
/// own). The first five count the same things on both nodes; the rest
/// belong to a chain member and stay zero on the rack switch.
#[derive(Clone, Copy, Debug, Default)]
pub struct SwitchStats {
    /// Grant notifications sent to clients (a chain's tail only).
    pub grants_sent: u64,
    /// Grants forwarded to database servers (one-RTT mode).
    pub grants_to_db: u64,
    /// Packets dropped by policy or unknown lock, and forwards with no
    /// lock server to go to (every forward of a chain member).
    pub drops: u64,
    /// Force-releases issued by the lease sweeper.
    pub lease_expirations: u64,
    /// Releases the release guard dropped: no outstanding grant to the
    /// `(lock, txn)` (already released or swept, or a network duplicate)
    /// authorized them, so they would dequeue another holder's entry.
    pub stale_releases_filtered: u64,
    /// Client ops that reached a chain member other than the head.
    pub misrouted: u64,
    /// Acquires a chain head refused in its post-reset grace window.
    pub grace_drops: u64,
    /// Ops a chain member applied to its data plane.
    pub ops_applied: u64,
    /// Ops forwarded to a chain successor.
    pub ops_forwarded: u64,
    /// Duplicate chain ops ignored (replay overlap).
    pub dup_ops_ignored: u64,
    /// Log entries retransmitted to a spliced-in chain successor.
    pub replayed: u64,
    /// Logged outputs re-emitted after a promotion to chain tail.
    pub reemitted: u64,
    /// Chain reconfigurations accepted.
    pub splices: u64,
    /// Full resets performed (sole-survivor rejoin of a chain).
    pub resets: u64,
}

/// What the control plane installs on a switch, and again after a reboot.
#[derive(Default)]
pub(crate) struct SwitchProgram {
    alloc: Allocation,
    /// Tenant meters as `(tenant, rate per second, burst)` (§4.4).
    meters: Vec<(TenantId, u64, u64)>,
}

/// The driver under both switch nodes: the data plane with its release
/// guard on, the switch's program, the reusable action buffer, the one
/// emitter that turns data-plane actions into packets, and the
/// counters.
pub(crate) struct SwitchCore {
    pub(crate) dp: DataPlane,
    /// Lock server node ids, indexed by the directory's server index.
    /// Empty for a chain member, whose partition is switch-resident.
    servers: Vec<NodeId>,
    /// Database servers grants are forwarded through (§4.1 one-RTT
    /// mode); empty sends grants straight to clients.
    db_servers: Vec<NodeId>,
    /// Installed by [`SwitchCore::reload`]; not switch state.
    program: SwitchProgram,
    /// Reusable per-packet action buffer: allocated once here, filled
    /// by the data plane, drained by [`SwitchCore::emit`] (and, in
    /// batch mode, by the batch's coalescing). Zero steady-state heap
    /// traffic on the packet path.
    pub(crate) actions: ActionBuf,
    pub(crate) stats: SwitchStats,
}

impl SwitchCore {
    /// Drive `dp` with its release guard on: a release of a
    /// switch-resident lock is admitted only if an outstanding grant
    /// authorizes it (a chain's ledger is a function of the applied ops,
    /// so every member's is identical).
    pub(crate) fn new(mut dp: DataPlane, servers: Vec<NodeId>) -> SwitchCore {
        dp.set_release_guard(true);
        SwitchCore {
            dp,
            servers,
            db_servers: Vec::new(),
            program: SwitchProgram::default(),
            actions: ActionBuf::new(),
            stats: SwitchStats::default(),
        }
    }

    /// Make `alloc` the program's allocation and install the program (a
    /// meter bucket full at 0 is full at any later instant).
    pub(crate) fn program(&mut self, alloc: &Allocation) {
        self.program.alloc = alloc.clone();
        self.reload(0);
    }

    /// Meter `tenant` at `rate_per_sec` with bucket `burst` from
    /// `now_ns` on, and keep the meter in the program.
    pub(crate) fn set_tenant_meter(
        &mut self,
        tenant: TenantId,
        rate_per_sec: u64,
        burst: u64,
        now_ns: u64,
    ) {
        self.program.meters.retain(|&(t, ..)| t != tenant);
        self.program.meters.push((tenant, rate_per_sec, burst));
        self.dp
            .set_tenant_meter(tenant, rate_per_sec, burst, now_ns);
    }

    /// Reboot at `now_ns`: wipe the data plane, then install the program,
    /// with unlisted locks default-routed over the lock servers and the
    /// meters' buckets full.
    pub(crate) fn reload(&mut self, now_ns: u64) {
        self.dp.reset();
        self.dp.set_default_servers(self.servers.len());
        apply_allocation(&mut self.dp, &self.program.alloc);
        for &(tenant, rate, burst) in &self.program.meters {
            self.dp.set_tenant_meter(tenant, rate, burst, now_ns);
        }
    }

    /// Start or end a batch: in one, grants collect in the action
    /// buffer's grant list for the caller to coalesce. A one-RTT rack
    /// never batches its grants, each of which goes through a database
    /// server on its own.
    fn set_batch_mode(&mut self, on: bool) {
        self.actions
            .set_batch_mode(on && self.db_servers.is_empty());
    }

    /// The expired holders the lease sweep force-releases now, counted.
    /// A zero lease sweeps nothing.
    pub(crate) fn expired_leases(
        &mut self,
        now_ns: u64,
        lease: SimDuration,
    ) -> Vec<ReleaseRequest> {
        if lease.is_zero() {
            return Vec::new();
        }
        let expired = control::expired_leases(&self.dp, now_ns, lease.as_nanos());
        self.stats.lease_expirations += expired.len() as u64;
        expired
    }

    /// Send what the last processed packet left in `actions`, delayed by
    /// its resubmits, and return those.
    pub(crate) fn emit(&mut self, ctx: &mut Context<'_, NetLockMsg>) -> u64 {
        let extra_passes = self.actions.resubmits();
        let delay = egress_delay(extra_passes);
        // Actions are `Copy`: reading them out by index keeps the buffer
        // borrow disjoint from the sends.
        for i in 0..self.actions.len() {
            let act = self.actions[i];
            self.route(act, delay, ctx);
        }
        extra_passes
    }

    /// Send one data-plane action after `delay`: a grant to its client,
    /// or through a database server in one-RTT mode; a forward to its
    /// lock server.
    pub(crate) fn route(
        &mut self,
        act: DpAction,
        delay: SimDuration,
        ctx: &mut Context<'_, NetLockMsg>,
    ) {
        let (server, msg) = match act {
            DpAction::SendGrant(grant) => {
                if !self.db_servers.is_empty() {
                    // One-RTT transactions: forward the granted request
                    // to the database server that owns the item; the
                    // client gets data and grant in a single message
                    // (§4.1).
                    let db = self.db_servers[grant.lock.0 as usize % self.db_servers.len()];
                    self.stats.grants_to_db += 1;
                    ctx.send_after(db, NetLockMsg::DbFetch { grant }, delay);
                } else {
                    self.stats.grants_sent += 1;
                    // Convention: ClientAddr(n) is node n (assigned by
                    // the rack builder).
                    ctx.send_after(NodeId(grant.client.0), NetLockMsg::Grant(grant), delay);
                }
                return;
            }
            DpAction::ForwardAcquire {
                server,
                req,
                buffer_only,
            } => (server, NetLockMsg::Forwarded { req, buffer_only }),
            DpAction::ForwardRelease { server, rel } => (server, NetLockMsg::Release(rel)),
            DpAction::SendQueueSpace {
                server,
                lock,
                space,
            } => (server, NetLockMsg::QueueSpace { lock, space }),
            DpAction::Drop { .. } => {
                self.stats.drops += 1;
                return;
            }
        };
        match self.servers.get(server) {
            Some(&dst) => ctx.send_after(dst, msg, delay),
            // No lock server (a switch-only rack or a chain member): the
            // packet is lost like any other drop; the client's retry
            // covers it.
            None => self.stats.drops += 1,
        }
    }
}

/// The ToR lock switch.
pub struct SwitchNode {
    core: SwitchCore,
    cfg: SwitchConfig,
    /// Batch-path scratch, reused across batches: the grants of a
    /// batch bound for one client, peeled off the action buffer's grant
    /// list by [`SwitchNode::flush_grant_batches`].
    batch_group: Vec<GrantMsg>,
}

impl SwitchNode {
    /// Build a switch around a data plane. Program it with
    /// [`SwitchNode::program`] so that a reboot reloads the program.
    pub fn new(dp: DataPlane, cfg: SwitchConfig, servers: Vec<NodeId>) -> SwitchNode {
        SwitchNode {
            core: SwitchCore::new(dp, servers),
            cfg,
            batch_group: Vec::new(),
        }
    }

    /// Disable the release guard (chaos-suite sabotage hook; proves the
    /// safety oracle detects the resulting double-dequeues).
    #[doc(hidden)]
    pub fn sabotage_disable_release_guard(&mut self) {
        self.core.dp.set_release_guard(false);
    }

    /// Enable one-RTT mode (§4.1): every grant is forwarded to the
    /// database server that owns the item, so the client gets data and
    /// grant in one message. An empty list leaves it off.
    pub fn with_db_servers(mut self, db_servers: Vec<NodeId>) -> SwitchNode {
        self.core.db_servers = db_servers;
        self
    }

    /// Data-plane handle (control plane / harness).
    pub fn dataplane(&self) -> &DataPlane {
        &self.core.dp
    }

    /// Node counters.
    pub fn stats(&self) -> SwitchStats {
        self.core.stats
    }

    /// Make `alloc` this switch's program and install it on a wiped data
    /// plane — queue regions and directory for either engine (see
    /// [`apply_allocation`]) beside the tenant meters. A revived switch
    /// reboots and installs it again, as the control plane would.
    pub fn program(&mut self, alloc: &Allocation) {
        self.core.program(alloc);
    }

    /// Install a per-tenant meter (performance-isolation policy, §4.4;
    /// see [`DataPlane::set_tenant_meter`]) and keep it with the
    /// program: a revived switch installs it again, its bucket full at
    /// the revive.
    pub fn set_tenant_meter(
        &mut self,
        tenant: TenantId,
        rate_per_sec: u64,
        burst: u64,
        now_ns: u64,
    ) {
        self.core
            .set_tenant_meter(tenant, rate_per_sec, burst, now_ns);
    }

    /// One measurement epoch; see [`control::harvest_stats`].
    pub fn harvest_stats(&mut self, epoch_secs: f64) -> Vec<control::LockStats> {
        control::harvest_stats(&mut self.core.dp, epoch_secs)
    }

    /// A lock server restarted and lost its q2 buffers: reset the
    /// overflow ledgers of its locks and echo `epoch` back. A
    /// buffer-only forward takes one pass, so it leaves after one
    /// `TRAVERSAL`, as the echo does: the FIFO in-rack link delivers
    /// every forward sent before the reset ahead of the echo, and the
    /// server can tell those apart from the ones sent after it.
    fn on_server_restart(&mut self, server: NodeId, epoch: u32, ctx: &mut Context<'_, NetLockMsg>) {
        let Some(idx) = self.core.servers.iter().position(|&s| s == server) else {
            return;
        };
        self.core.dp.cp_reset_overflow_for_server(idx);
        ctx.send_after(server, NetLockMsg::CtrlServerRestart { epoch }, TRAVERSAL);
    }

    /// One client release (alone or out of a batch) through the guarded
    /// data plane. A release the guard filters is counted and goes no
    /// further; returns the extra passes an admitted one cost. One that
    /// left nothing to send (in batch mode its grants are the batch's)
    /// is done there.
    fn release(&mut self, rel: ReleaseRequest, ctx: &mut Context<'_, NetLockMsg>) -> Option<u64> {
        if !self
            .core
            .dp
            .process_release(rel, ctx.now().as_nanos(), &mut self.core.actions)
        {
            self.core.stats.stale_releases_filtered += 1;
            return None;
        }
        if self.core.actions.is_empty() {
            return Some(self.core.actions.resubmits());
        }
        Some(self.core.emit(ctx))
    }

    /// Unpack an [`NetLockMsg::AcquireBatch`]: admit every element
    /// through the data plane in slice order (identical per-request
    /// semantics to individual acquires arriving back-to-back at one
    /// timestamp), collecting grants for coalesced fan-back. Only a
    /// request that left a forward, drop or queue-space action goes
    /// through the emitter.
    fn process_acquire_batch(
        &mut self,
        reqs: &[netlock_proto::LockRequest],
        ctx: &mut Context<'_, NetLockMsg>,
    ) {
        let now = ctx.now().as_nanos();
        let mut max_extra = 0u64;
        self.core.set_batch_mode(true);
        for req in reqs.iter() {
            self.core
                .dp
                .process_acquire(*req, now, &mut self.core.actions);
            max_extra = max_extra.max(self.core.actions.resubmits());
            if !self.core.actions.is_empty() {
                self.core.emit(ctx);
            }
        }
        self.core.set_batch_mode(false);
        self.flush_grant_batches(max_extra, ctx);
    }

    /// Unpack an [`NetLockMsg::ReleaseBatch`]: every element is an
    /// individual release (guard included); grants popped for waiting
    /// requests are coalesced per destination client.
    fn process_release_batch(
        &mut self,
        rels: &[ReleaseRequest],
        ctx: &mut Context<'_, NetLockMsg>,
    ) {
        let mut max_extra = 0u64;
        self.core.set_batch_mode(true);
        for rel in rels.iter() {
            if let Some(extra) = self.release(*rel, ctx) {
                max_extra = max_extra.max(extra);
            }
        }
        self.core.set_batch_mode(false);
        self.flush_grant_batches(max_extra, ctx);
    }

    /// Send the grants a batch left in the action buffer's grant list,
    /// one event per destination client: a lone grant goes out as a plain
    /// [`NetLockMsg::Grant`] (individual clients queued behind an
    /// aggregate burst keep their wire format), two or more to the same
    /// client fold into one [`NetLockMsg::GrantBatch`]. All grants of
    /// the burst leave the egress together, so the whole flush is
    /// charged the batch's worst-case resubmit count.
    fn flush_grant_batches(&mut self, max_extra: u64, ctx: &mut Context<'_, NetLockMsg>) {
        let delay = egress_delay(max_extra);
        let grants = self.core.actions.batch_grants();
        self.core.stats.grants_sent += grants.len() as u64;
        // Peel off one destination at a time, in order of first
        // appearance, preserving grant order within each client.
        while let Some(first) = grants.first() {
            let client = first.client.0;
            self.batch_group.clear();
            if grants.iter().all(|g| g.client.0 == client) {
                // One destination left — for an aggregate's burst, the
                // only one: what remains is the group, uncopied.
                std::mem::swap(grants, &mut self.batch_group);
            } else {
                let group = &mut self.batch_group;
                grants.retain(|g| {
                    let mine = g.client.0 == client;
                    if mine {
                        group.push(*g);
                    }
                    !mine
                });
            }
            let msg = match self.batch_group[..] {
                [grant] => NetLockMsg::Grant(grant),
                _ => NetLockMsg::GrantBatch(self.batch_group.as_slice().into()),
            };
            ctx.send_after(NodeId(client), msg, delay);
        }
    }

    fn control_tick(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        // Lease sweep: force-release expired holders.
        let now = ctx.now().as_nanos();
        for rel in self.core.expired_leases(now, self.cfg.lease) {
            self.core.dp.force_release(rel, now, &mut self.core.actions);
            self.core.emit(ctx);
        }
        ctx.set_timer(self.cfg.control_tick, TIMER_CONTROL_TICK);
    }
}

impl Node<NetLockMsg> for SwitchNode {
    fn on_start(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        if !self.cfg.control_tick.is_zero() {
            ctx.set_timer(self.cfg.control_tick, TIMER_CONTROL_TICK);
        }
    }

    /// "The switch retains none of its former state or register values"
    /// (§6.5): wipe every data-plane register and table, reload the
    /// program and the tenant meters (the control plane's copies, which
    /// are not switch state), and restart the timer chain, which died
    /// with the node.
    fn on_revive(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        self.core.reload(ctx.now().as_nanos());
        self.on_start(ctx);
    }

    fn on_packet(&mut self, pkt: Packet<NetLockMsg>, ctx: &mut Context<'_, NetLockMsg>) {
        // Aggregate-population bursts take the batched path: unpack,
        // admit per element, coalesce grant fan-back.
        let pkt = match pkt.payload {
            NetLockMsg::AcquireBatch(reqs) => {
                self.process_acquire_batch(&reqs, ctx);
                return;
            }
            NetLockMsg::ReleaseBatch(rels) => {
                self.process_release_batch(&rels, ctx);
                return;
            }
            payload => Packet { payload, ..pkt },
        };
        match pkt.payload {
            NetLockMsg::Release(rel) => {
                self.release(rel, ctx);
                return;
            }
            NetLockMsg::CtrlServerRestart { epoch } => {
                self.on_server_restart(pkt.src, epoch, ctx);
                return;
            }
            _ => {}
        }
        self.core
            .dp
            .process(pkt.payload, ctx.now().as_nanos(), &mut self.core.actions);
        self.core.emit(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, NetLockMsg>) {
        if token == TIMER_CONTROL_TICK {
            self.control_tick(ctx);
        }
    }

    fn name(&self) -> &str {
        "lock-switch"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{apply_allocation, knapsack_allocate, LockStats};
    use crate::directory::Residence;
    use crate::shared_queue::SharedQueueLayout;
    use netlock_proto::{ClientAddr, LockId, LockMode, LockRequest, Priority, TenantId, TxnId};
    use netlock_sim::{Packet as SimPacket, SimTime, Simulator};

    struct Sink(Vec<NetLockMsg>);
    impl Node<NetLockMsg> for Sink {
        fn on_packet(&mut self, pkt: SimPacket<NetLockMsg>, _ctx: &mut Context<'_, NetLockMsg>) {
            self.0.push(pkt.payload);
        }
        fn on_timer(&mut self, _t: u64, _c: &mut Context<'_, NetLockMsg>) {}
    }

    fn acquire(lock: u32, txn: u64, client: u32, at: u64) -> NetLockMsg {
        NetLockMsg::Acquire(LockRequest {
            lock: netlock_proto::LockId(lock),
            mode: LockMode::Exclusive,
            txn: TxnId(txn),
            client: ClientAddr(client),
            tenant: TenantId(0),
            priority: Priority(0),
            issued_at_ns: at,
        })
    }

    fn dp(locks: u32) -> DataPlane {
        let mut dp = DataPlane::new_fcfs(&SharedQueueLayout::small(2, 64, 16));
        let stats = LockStats::uniform((0..locks).map(LockId), 8, 1);
        apply_allocation(&mut dp, &knapsack_allocate(&stats, 128));
        dp
    }

    #[test]
    fn grant_routed_to_client_node() {
        let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(1);
        let client = sim.add_node(Box::new(Sink(Vec::new())));
        let switch = sim.add_node(Box::new(SwitchNode::new(
            dp(4),
            SwitchConfig::default(),
            vec![],
        )));
        sim.inject(client, switch, acquire(1, 5, client.0, 0));
        sim.run_until(SimTime(1_000_000));
        sim.read_node::<Sink, _>(client, |s| {
            assert_eq!(s.0.len(), 1);
            assert!(matches!(s.0[0], NetLockMsg::Grant(g) if g.txn == TxnId(5)));
        });
    }

    #[test]
    fn one_rtt_routes_grant_through_db_server() {
        let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(2);
        let client = sim.add_node(Box::new(Sink(Vec::new())));
        let db = sim.add_node(Box::new(Sink(Vec::new())));
        let switch = sim.add_node(Box::new(
            SwitchNode::new(dp(4), SwitchConfig::default(), vec![]).with_db_servers(vec![db]),
        ));
        sim.inject(client, switch, acquire(1, 5, client.0, 0));
        sim.run_until(SimTime(1_000_000));
        sim.read_node::<Sink, _>(client, |s| assert!(s.0.is_empty()));
        sim.read_node::<Sink, _>(db, |s| {
            assert_eq!(s.0.len(), 1);
            assert!(matches!(s.0[0], NetLockMsg::DbFetch { .. }));
        });
        sim.read_node::<SwitchNode, _>(switch, |s| {
            assert_eq!(s.stats().grants_to_db, 1);
            assert_eq!(s.stats().grants_sent, 0);
        });
    }

    #[test]
    fn lease_sweeper_frees_stuck_holder() {
        let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(3);
        let client = sim.add_node(Box::new(Sink(Vec::new())));
        let switch = sim.add_node(Box::new(SwitchNode::new(
            dp(4),
            SwitchConfig {
                lease: SimDuration::from_millis(2),
                control_tick: SimDuration::from_millis(1),
            },
            vec![],
        )));
        // Holder that never releases; a waiter behind it.
        sim.inject(client, switch, acquire(1, 1, client.0, 0));
        sim.inject(client, switch, acquire(1, 2, client.0, 0));
        sim.run_until(SimTime(SimDuration::from_millis(10).as_nanos()));
        sim.read_node::<Sink, _>(client, |s| {
            // Grant for 1, then (after the lease fires) grant for 2.
            assert!(
                s.0.len() >= 2,
                "sweeper must grant the waiter: {:?}",
                s.0.len()
            );
        });
        sim.read_node::<SwitchNode, _>(switch, |s| {
            assert!(s.stats().lease_expirations >= 1);
        });
    }

    /// Two shared holders, released out of order: the blind dequeue
    /// takes the older slot and the younger holder's grant, so the slot
    /// left behind names a transaction whose grant is already spent.
    /// When its lease runs out the sweeper must still free it (nobody
    /// else will — the chaos suite wedges if it does not), and a guard
    /// that finds nothing to spend must not upset the pass arithmetic.
    #[test]
    fn sweep_frees_a_holder_whose_grant_is_already_spent() {
        let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(5);
        let client = sim.add_node(Box::new(Sink(Vec::new())));
        let switch = sim.add_node(Box::new(SwitchNode::new(
            dp(4),
            SwitchConfig {
                lease: SimDuration::from_millis(2),
                control_tick: SimDuration::from_millis(3),
            },
            vec![],
        )));
        let request = |txn: u64, mode: LockMode| {
            let NetLockMsg::Acquire(req) = acquire(1, txn, client.0, 0) else {
                unreachable!()
            };
            LockRequest { mode, ..req }
        };
        for txn in [1, 2] {
            let req = request(txn, LockMode::Shared);
            sim.inject(client, switch, NetLockMsg::Acquire(req));
        }
        let waiter = request(3, LockMode::Exclusive);
        sim.inject(client, switch, NetLockMsg::Acquire(waiter));
        sim.inject(
            client,
            switch,
            NetLockMsg::Release(netlock_proto::ReleaseRequest {
                lock: waiter.lock,
                txn: TxnId(2),
                mode: LockMode::Shared,
                client: waiter.client,
                priority: waiter.priority,
            }),
        );
        // One control tick at 3 ms: the slot of txn 2 is past its lease.
        sim.run_until(SimTime(SimDuration::from_millis(4).as_nanos()));
        sim.read_node::<SwitchNode, _>(switch, |s| {
            assert_eq!(s.stats().lease_expirations, 1);
            assert_eq!(s.stats().stale_releases_filtered, 0);
            assert_eq!(s.stats().grants_sent, 3, "the waiter got the lock");
        });
        // Txn 2 released once already: a second release is stale.
        sim.inject(
            client,
            switch,
            NetLockMsg::Release(netlock_proto::ReleaseRequest {
                lock: waiter.lock,
                txn: TxnId(2),
                mode: LockMode::Shared,
                client: waiter.client,
                priority: waiter.priority,
            }),
        );
        sim.run_until(SimTime(SimDuration::from_millis(5).as_nanos()));
        sim.read_node::<SwitchNode, _>(switch, |s| {
            assert_eq!(s.stats().stale_releases_filtered, 1);
        });
    }

    /// A batch's grants fan back one event per destination, destinations
    /// in order of first appearance, each client's grants in grant
    /// order; a lone grant keeps the individual wire format.
    #[test]
    fn batch_grants_group_per_destination_in_order() {
        let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(6);
        let clients: Vec<NodeId> = (0..3)
            .map(|_| sim.add_node(Box::new(Sink(Vec::new()))))
            .collect();
        let switch = sim.add_node(Box::new(SwitchNode::new(
            dp(4),
            SwitchConfig::default(),
            vec![],
        )));
        // Shared acquires of one lock, all granted at once: clients
        // 0, 1, 0, 2, 1 → [t0, t2] to 0, [t1, t4] to 1, t3 alone to 2.
        let reqs: Box<[LockRequest]> = [0usize, 1, 0, 2, 1]
            .iter()
            .enumerate()
            .map(|(txn, &c)| {
                let NetLockMsg::Acquire(req) = acquire(1, txn as u64, clients[c].0, 0) else {
                    unreachable!()
                };
                LockRequest {
                    mode: LockMode::Shared,
                    ..req
                }
            })
            .collect();
        sim.inject(clients[0], switch, NetLockMsg::AcquireBatch(reqs));
        sim.run_until(SimTime(1_000_000));
        let txns_at = |sim: &mut Simulator<NetLockMsg>, c: usize| {
            sim.read_node::<Sink, _>(clients[c], |s| {
                assert_eq!(s.0.len(), 1, "one event per destination");
                match &s.0[0] {
                    NetLockMsg::Grant(g) => (false, vec![g.txn.0]),
                    NetLockMsg::GrantBatch(gs) => (true, gs.iter().map(|g| g.txn.0).collect()),
                    other => panic!("unexpected {other:?}"),
                }
            })
        };
        assert_eq!(txns_at(&mut sim, 0), (true, vec![0, 2]));
        assert_eq!(txns_at(&mut sim, 1), (true, vec![1, 4]));
        assert_eq!(txns_at(&mut sim, 2), (false, vec![3]));
        sim.read_node::<SwitchNode, _>(switch, |s| assert_eq!(s.stats().grants_sent, 5));
    }

    /// Records each packet with its arrival time.
    struct StampedSink(Vec<(SimTime, NetLockMsg)>);
    impl Node<NetLockMsg> for StampedSink {
        fn on_packet(&mut self, pkt: SimPacket<NetLockMsg>, ctx: &mut Context<'_, NetLockMsg>) {
            self.0.push((ctx.now(), pkt.payload));
        }
        fn on_timer(&mut self, _t: u64, _c: &mut Context<'_, NetLockMsg>) {}
    }

    /// An exclusive release that cascades to `n` shared waiters costs
    /// the dequeue, the head read and one read per further waiter, and
    /// every grant of the cascade leaves after `TRAVERSAL` plus one
    /// `PASS_LATENCY` per resubmit.
    #[test]
    fn cascade_grants_leave_after_their_resubmits() {
        let n = 4u64;
        let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(7);
        let client = sim.add_node(Box::new(StampedSink(Vec::new())));
        let switch = sim.add_node(Box::new(SwitchNode::new(
            dp(4),
            SwitchConfig::default(),
            vec![],
        )));
        let request = |txn: u64, mode: LockMode| {
            let NetLockMsg::Acquire(req) = acquire(1, txn, client.0, 0) else {
                unreachable!()
            };
            LockRequest { mode, ..req }
        };
        sim.inject(
            client,
            switch,
            NetLockMsg::Acquire(request(0, LockMode::Exclusive)),
        );
        for txn in 1..=n {
            sim.inject(
                client,
                switch,
                NetLockMsg::Acquire(request(txn, LockMode::Shared)),
            );
        }
        let released_at = SimTime(100_000);
        sim.run_until(released_at);
        let passes_before =
            sim.read_node::<SwitchNode, _>(switch, |s| s.dataplane().stats().passes);
        let holder = request(0, LockMode::Exclusive);
        sim.inject(
            client,
            switch,
            NetLockMsg::Release(ReleaseRequest {
                lock: holder.lock,
                txn: holder.txn,
                mode: holder.mode,
                client: holder.client,
                priority: holder.priority,
            }),
        );
        sim.run_until(SimTime(200_000));
        let passes = sim.read_node::<SwitchNode, _>(switch, |s| s.dataplane().stats().passes)
            - passes_before;
        assert_eq!(passes, n + 1, "dequeue, head read, n − 1 shared reads");
        let link = netlock_sim::LinkConfig::default().delay;
        let arrives = SimTime(released_at.as_nanos() + link.as_nanos());
        let sent = SimTime(
            arrives.as_nanos()
                + TRAVERSAL.as_nanos()
                + PASS_LATENCY.as_nanos() * (passes - 1)
                + link.as_nanos(),
        );
        sim.read_node::<StampedSink, _>(client, |s| {
            let cascade: Vec<(SimTime, u64)> =
                s.0.iter()
                    .filter_map(|(at, m)| match m {
                        NetLockMsg::Grant(g) if g.txn.0 > 0 => Some((*at, g.txn.0)),
                        _ => None,
                    })
                    .collect();
            let want: Vec<(SimTime, u64)> = (1..=n).map(|txn| (sent, txn)).collect();
            assert_eq!(cascade, want);
        });
    }

    /// The data-plane and node counters as one comparable row.
    fn counters(s: &SwitchNode) -> [u64; 15] {
        let (d, n) = (s.dataplane().stats(), s.stats());
        [
            d.grants_immediate,
            d.queued,
            d.grants_on_release,
            d.forwarded_server_locks,
            d.forwarded_overflow,
            d.releases,
            d.releases_spurious,
            d.quota_drops,
            d.passes,
            d.pushes,
            n.grants_sent,
            n.grants_to_db,
            n.drops,
            n.stale_releases_filtered,
            n.lease_expirations,
        ]
    }

    /// One acquire batch and one release batch through a switch with a
    /// lock server: every grant message with its arrival time, the
    /// server's traffic in request order, and every counter's delta.
    #[test]
    fn batches_grant_forward_and_count_exactly() {
        let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(8);
        let c: Vec<NodeId> = (0..3)
            .map(|_| sim.add_node(Box::new(StampedSink(Vec::new()))))
            .collect();
        let server = sim.add_node(Box::new(StampedSink(Vec::new())));
        // Locks 0–2 get 8 slots, lock 3 two; lock 4 lives at the server
        // and lock 9 nowhere (no default servers: dropped).
        let alloc = Allocation {
            in_switch: vec![
                (LockId(0), 8, 0),
                (LockId(1), 8, 0),
                (LockId(2), 8, 0),
                (LockId(3), 2, 0),
            ],
            in_server: vec![(LockId(4), 0)],
        };
        let mut plane = DataPlane::new_fcfs(&SharedQueueLayout::small(2, 64, 16));
        apply_allocation(&mut plane, &alloc);
        let switch = sim.add_node(Box::new(SwitchNode::new(
            plane,
            SwitchConfig::default(),
            vec![server],
        )));
        let req = |txn: u64, lock: u32, mode: LockMode, client: usize| LockRequest {
            lock: LockId(lock),
            mode,
            txn: TxnId(txn),
            client: ClientAddr(c[client].0),
            tenant: TenantId(0),
            priority: Priority(0),
            issued_at_ns: txn,
        };
        let rel = |r: LockRequest| ReleaseRequest {
            lock: r.lock,
            txn: r.txn,
            mode: r.mode,
            client: r.client,
            priority: r.priority,
        };
        let (s, x) = (LockMode::Shared, LockMode::Exclusive);
        let reqs = [
            req(1, 0, s, 0),
            req(2, 0, s, 1),
            req(3, 1, s, 2),
            req(4, 2, x, 0), // the holder
            req(5, 1, s, 0),
            req(6, 2, x, 1), // queued behind it
            req(7, 3, s, 1),
            req(8, 4, x, 0),  // server-resident: forwarded
            req(9, 3, s, 1),  // fills lock 3's region
            req(10, 3, s, 0), // overflows to the server's q2
            req(11, 9, x, 2), // unknown: dropped
            req(12, 3, s, 2), // overflow mode: to q2 as well
        ];
        let grant = |r: LockRequest| GrantMsg {
            lock: r.lock,
            txn: r.txn,
            mode: r.mode,
            client: r.client,
            priority: r.priority,
            grantor: netlock_proto::Grantor::Switch,
            issued_at_ns: r.issued_at_ns,
        };
        let grants = |txns: &[usize]| -> Vec<GrantMsg> {
            txns.iter().map(|&i| grant(reqs[i - 1])).collect()
        };
        let link = netlock_sim::LinkConfig::default().delay.as_nanos();
        let hop =
            |from: u64, extra: u64| SimTime(from + link + egress_delay(extra).as_nanos() + link);

        sim.inject(c[0], switch, NetLockMsg::AcquireBatch(reqs.into()));
        let released_at = 100_000;
        sim.run_until(SimTime(released_at));
        let after_acquire = sim.read_node::<SwitchNode, _>(switch, counters);
        sim.inject(
            c[0],
            switch,
            NetLockMsg::ReleaseBatch(
                [
                    rel(reqs[3]),          // the holder: grants txn 6
                    rel(reqs[0]),          // one of two shared holders
                    rel(req(99, 0, s, 0)), // never granted: filtered
                    rel(reqs[7]),          // server-resident: forwarded
                    rel(reqs[6]),
                    rel(reqs[8]),  // lock 3's q1 empties: queue space
                    rel(reqs[10]), // unknown: dropped
                ]
                .into(),
            ),
        );
        sim.run_until(SimTime(200_000));
        let after_release = sim.read_node::<SwitchNode, _>(switch, counters);

        // Every acquire takes one pass; the holder's release takes two
        // (dequeue, head read), so the release batch's grants leave one
        // `PASS_LATENCY` late.
        let got = |sim: &Simulator<NetLockMsg>, node: NodeId| {
            sim.read_node::<StampedSink, _>(node, |s| s.0.clone())
        };
        assert_eq!(
            got(&sim, c[0]),
            vec![(hop(0, 0), NetLockMsg::GrantBatch(grants(&[1, 4, 5]).into()))]
        );
        assert_eq!(
            got(&sim, c[1]),
            vec![
                (hop(0, 0), NetLockMsg::GrantBatch(grants(&[2, 7, 9]).into())),
                (hop(released_at, 1), NetLockMsg::Grant(grant(reqs[5]))),
            ]
        );
        assert_eq!(
            got(&sim, c[2]),
            vec![(hop(0, 0), NetLockMsg::Grant(grant(reqs[2])))]
        );
        let forwarded = |i: usize, buffer_only| NetLockMsg::Forwarded {
            req: reqs[i - 1],
            buffer_only,
        };
        assert_eq!(
            got(&sim, server),
            vec![
                (hop(0, 0), forwarded(8, false)),
                (hop(0, 0), forwarded(10, true)),
                (hop(0, 0), forwarded(12, true)),
                (hop(released_at, 0), NetLockMsg::Release(rel(reqs[7]))),
                (
                    hop(released_at, 0),
                    NetLockMsg::QueueSpace {
                        lock: LockId(3),
                        space: 2
                    }
                ),
            ]
        );
        // grants_immediate, queued, grants_on_release, forwarded_server_locks,
        // forwarded_overflow, releases, releases_spurious, quota_drops,
        // passes, pushes | grants_sent, grants_to_db, drops,
        // stale_releases_filtered, lease_expirations
        assert_eq!(
            after_acquire,
            [7, 1, 0, 1, 2, 0, 0, 0, 12, 0, 7, 0, 1, 0, 0]
        );
        let delta: Vec<u64> = (0..15)
            .map(|i| after_release[i] - after_acquire[i])
            .collect();
        assert_eq!(delta, [0, 0, 1, 0, 0, 6, 0, 0, 9, 0, 1, 0, 1, 1, 0]);
    }

    /// Programming a switch again installs the new program alone.
    #[test]
    fn program_again_replaces_the_directory() {
        let plane = DataPlane::new_fcfs(&SharedQueueLayout::small(2, 64, 16));
        let mut s = SwitchNode::new(plane, SwitchConfig::default(), vec![NodeId(9)]);
        let stats = LockStats::uniform((0..4).map(LockId), 8, 1);
        s.program(&knapsack_allocate(&stats, 128));
        assert_eq!(s.dataplane().directory().switch_resident().len(), 4);
        s.program(&Allocation {
            in_switch: vec![(LockId(7), 8, 0)],
            in_server: (0..4).map(|lock| (LockId(lock), 0)).collect(),
        });
        let directory = s.dataplane().directory();
        assert_eq!(directory.switch_resident(), [(LockId(7), 0, 0)]);
        assert_eq!(directory.len(), 5);
        let old: Vec<_> = (0..4)
            .map(|lock| directory.get(LockId(lock)).map(|e| e.residence))
            .collect();
        assert_eq!(old, [Some(Residence::Server); 4]);
    }

    #[test]
    fn reboot_forgets_everything() {
        let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(4);
        let client = sim.add_node(Box::new(Sink(Vec::new())));
        let switch = sim.add_node(Box::new(SwitchNode::new(
            dp(4),
            SwitchConfig::default(),
            vec![],
        )));
        sim.inject(client, switch, acquire(1, 1, client.0, 0));
        sim.run_until(SimTime(100_000));
        sim.fail_node(switch);
        sim.revive_node(switch);
        sim.inject(client, switch, acquire(1, 2, client.0, 0));
        sim.run_until(SimTime(1_000_000));
        // Nothing was loaded through `program`, so the rebooted switch
        // has an empty directory and no servers: the request is
        // dropped, not granted.
        sim.read_node::<Sink, _>(client, |s| {
            assert_eq!(s.0.len(), 1, "only the pre-reboot grant");
        });
        sim.read_node::<SwitchNode, _>(switch, |s| {
            assert!(s.dataplane().directory().is_empty());
        });
    }
}

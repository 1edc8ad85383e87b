//! The lock-server simulation node.
//!
//! Handles (1) locks it owns, with the full [`LockTable`] semantics,
//! (2) q2 overflow buffering for switch-resident locks (§4.3), and
//! (3) the migration handshake (CtrlDemote / CtrlPromote /
//! CtrlPromoteReady). All request processing is charged to the RSS
//! multi-core model.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use netlock_proto::{GrantMsg, Grantor, LockId, LockRequest, NetLockMsg, ReleaseRequest};
use netlock_sim::{Context, FastHashMap, Node, NodeId, Packet, SimDuration};

use crate::cores::{CoreModel, PAPER_SERVICE_NS};
use crate::lock_table::{LockTable, TableAcquire};

/// Timer token for the lease sweep.
const TIMER_LEASE_SWEEP: u64 = 1;

/// Who currently decides grants for a lock, from this server's view.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Ownership {
    /// This server grants (server-resident lock).
    Owned,
    /// The switch grants; this server only buffers overflow in q2.
    SwitchOwned,
    /// Mid-promotion: grants paused, new arrivals buffered for transfer.
    Promoting,
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// CPU cores (the paper's testbed: 8).
    pub cores: usize,
    /// CPU time per lock *message* (acquires and releases both cost
    /// CPU). 222 ns/message ≈ the paper's measured 18 M lock requests/s
    /// per 8-core server, since each granted request also brings a
    /// release to process. The default is [`PAPER_SERVICE_NS`]; a
    /// caller that models another server sets this field.
    pub service: SimDuration,
    /// Lease duration for owned locks (zero disables sweeping).
    pub lease: SimDuration,
    /// Lease sweep interval.
    pub sweep_tick: SimDuration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cores: 8,
            service: SimDuration::from_nanos(PAPER_SERVICE_NS),
            lease: SimDuration::from_millis(10),
            sweep_tick: SimDuration::from_millis(1),
        }
    }
}

/// Server counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Acquires granted by this server.
    pub grants: u64,
    /// Acquires queued in the server lock table.
    pub queued: u64,
    /// Requests buffered into q2.
    pub q2_buffered: u64,
    /// Requests pushed back to the switch.
    pub q2_pushed: u64,
    /// Releases for locks this server does not own.
    pub spurious_releases: u64,
    /// Grants issued by the lease sweeper.
    pub lease_grants: u64,
    /// Peak q2 depth across locks.
    pub q2_peak_depth: usize,
}

/// The lock server.
pub struct ServerNode {
    table: LockTable,
    q2: FastHashMap<LockId, VecDeque<LockRequest>>,
    ownership: FastHashMap<LockId, Ownership>,
    promote_buf: FastHashMap<LockId, Vec<LockRequest>>,
    cores: CoreModel,
    cfg: ServerConfig,
    /// The ToR switch (destination for Push / CtrlPromoteReady).
    switch: NodeId,
    /// Failover grace deadline (ns): until then, acquires are buffered
    /// rather than granted, so leases on locks granted by a failed
    /// predecessor can expire first (§4.5: "the server waits for the
    /// leases to expire before granting the locks").
    grace_until_ns: u64,
    grace_buf: Vec<LockRequest>,
    /// Reusable grant out-buffer for `LockTable::release` /
    /// `expire_leases`: one allocation per node, not per release.
    grant_buf: Vec<LockRequest>,
    /// Reusable lock-id out-buffer for `LockTable::held_locks`: one
    /// allocation per node, not per sweep tick.
    sweep_buf: Vec<LockId>,
    stats: ServerStats,
}

impl ServerNode {
    /// A server wired to its ToR switch.
    pub fn new(cfg: ServerConfig, switch: NodeId) -> ServerNode {
        ServerNode {
            table: LockTable::new(),
            q2: FastHashMap::default(),
            ownership: FastHashMap::default(),
            promote_buf: FastHashMap::default(),
            cores: CoreModel::new(cfg.cores, cfg.service.as_nanos()),
            cfg,
            switch,
            grace_until_ns: 0,
            grace_buf: Vec::new(),
            grant_buf: Vec::new(),
            sweep_buf: Vec::new(),
            stats: ServerStats::default(),
        }
    }

    /// Pre-declare a lock as owned by this server (rack setup).
    pub fn own_lock(&mut self, lock: LockId) {
        self.ownership.insert(lock, Ownership::Owned);
    }

    /// The configuration this server runs with.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Timer token of the lease sweep. After a crash-restart the sweep
    /// chain is broken (timers to a dead node are dropped); the harness
    /// re-arms it with `Simulator::inject_timer` using this token.
    pub const SWEEP_TIMER_TOKEN: u64 = TIMER_LEASE_SWEEP;

    /// Model a crash-restart with total state loss (§4.5 failure
    /// handling): lock table, q2 buffers, ownership, migration and
    /// grace buffers, and the CPU model are all wiped, as if the
    /// process was restarted on a fresh machine. Counters are kept —
    /// they belong to the harness, not the process. The harness must
    /// re-declare owned locks ([`ServerNode::own_lock`]), re-arm the
    /// sweep timer ([`ServerNode::SWEEP_TIMER_TOKEN`]) and usually
    /// apply a failover grace period ([`ServerNode::set_grace_until`])
    /// so stranded leases expire before new grants.
    pub fn restart(&mut self) {
        self.table = LockTable::new();
        self.q2.clear();
        self.ownership.clear();
        self.promote_buf.clear();
        self.grace_buf.clear();
        self.grace_until_ns = 0;
        self.cores = CoreModel::new(self.cfg.cores, self.cfg.service.as_nanos());
    }

    /// Repoint the server at a different ToR switch (backup switch
    /// failover, §4.5).
    pub fn set_switch(&mut self, switch: NodeId) {
        self.switch = switch;
    }

    /// Enter the failover grace period: acquires arriving before
    /// `until_ns` are buffered and only processed once it passes, giving
    /// the failed predecessor's leases time to expire.
    pub fn set_grace_until(&mut self, until_ns: u64) {
        self.grace_until_ns = until_ns;
    }

    /// Counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// The lock table (harness introspection).
    pub fn table(&self) -> &LockTable {
        &self.table
    }

    /// The core model (utilization reporting).
    pub fn cores(&self) -> &CoreModel {
        &self.cores
    }

    fn ownership_of(&self, lock: LockId) -> Ownership {
        self.ownership
            .get(&lock)
            .copied()
            .unwrap_or(Ownership::Owned)
    }

    /// Charge CPU and return the output delay for a request on `lock`.
    fn charge(&mut self, lock: LockId, now_ns: u64) -> SimDuration {
        let done = self.cores.process(lock, now_ns);
        SimDuration::from_nanos(done - now_ns)
    }

    fn send_grant(
        &mut self,
        req: &LockRequest,
        delay: SimDuration,
        ctx: &mut Context<'_, NetLockMsg>,
    ) {
        self.stats.grants += 1;
        let grant = GrantMsg {
            lock: req.lock,
            txn: req.txn,
            mode: req.mode,
            client: req.client,
            priority: req.priority,
            grantor: Grantor::Server,
            issued_at_ns: req.issued_at_ns,
        };
        ctx.send_after(NodeId(req.client.0), NetLockMsg::Grant(grant), delay);
    }

    fn on_acquire(
        &mut self,
        req: LockRequest,
        buffer_only: bool,
        ctx: &mut Context<'_, NetLockMsg>,
    ) {
        if !buffer_only && ctx.now().as_nanos() < self.grace_until_ns {
            // Failover grace: hold until predecessor leases expire.
            self.grace_buf.push(req);
            return;
        }
        let delay = self.charge(req.lock, ctx.now().as_nanos());
        match self.ownership_of(req.lock) {
            Ownership::Promoting => {
                // Paused for migration; hold for the transfer.
                self.promote_buf.entry(req.lock).or_default().push(req);
            }
            Ownership::SwitchOwned => {
                if buffer_only {
                    let q = self.q2.entry(req.lock).or_default();
                    q.push_back(req);
                    self.stats.q2_buffered += 1;
                    self.stats.q2_peak_depth = self.stats.q2_peak_depth.max(q.len());
                } else {
                    // A request routed here before the directory flipped
                    // to switch-resident (migration race): bounce it to
                    // the switch, which now owns the lock.
                    ctx.send_after(
                        self.switch,
                        NetLockMsg::Push {
                            lock: req.lock,
                            reqs: Box::new([req]),
                        },
                        delay,
                    );
                }
            }
            Ownership::Owned => {
                if buffer_only {
                    // First overflow for a lock we were not tracking:
                    // the switch owns it; start a q2.
                    self.ownership.insert(req.lock, Ownership::SwitchOwned);
                    let q = self.q2.entry(req.lock).or_default();
                    q.push_back(req);
                    self.stats.q2_buffered += 1;
                    self.stats.q2_peak_depth = self.stats.q2_peak_depth.max(q.len());
                    return;
                }
                match self.table.acquire(req) {
                    TableAcquire::Granted => self.send_grant(&req, delay, ctx),
                    TableAcquire::Queued => self.stats.queued += 1,
                }
            }
        }
    }

    fn on_release(&mut self, rel: ReleaseRequest, ctx: &mut Context<'_, NetLockMsg>) {
        let delay = self.charge(rel.lock, ctx.now().as_nanos());
        match self.ownership_of(rel.lock) {
            Ownership::SwitchOwned => {
                self.stats.spurious_releases += 1;
            }
            Ownership::Owned | Ownership::Promoting => {
                let mut granted = std::mem::take(&mut self.grant_buf);
                granted.clear();
                self.table.release(rel.lock, rel.txn, &mut granted);
                for req in &granted {
                    self.send_grant(req, delay, ctx);
                }
                self.grant_buf = granted;
                self.maybe_finish_promote(rel.lock, delay, ctx);
            }
        }
    }

    fn on_queue_space(&mut self, lock: LockId, space: u32, ctx: &mut Context<'_, NetLockMsg>) {
        let delay = self.charge(lock, ctx.now().as_nanos());
        // An absent q2 still answers, with the empty `Push` the switch's
        // overflow exit waits for; a drained one is dropped, like an idle
        // table entry.
        let reqs: Box<[LockRequest]> = match self.q2.entry(lock) {
            Entry::Occupied(mut e) => {
                let n = (space as usize).min(e.get().len());
                let reqs = e.get_mut().drain(..n).collect();
                if e.get().is_empty() {
                    e.remove();
                }
                reqs
            }
            Entry::Vacant(_) => Box::default(),
        };
        self.stats.q2_pushed += reqs.len() as u64;
        ctx.send_after(self.switch, NetLockMsg::Push { lock, reqs }, delay);
    }

    fn on_demote(&mut self, lock: LockId, ctx: &mut Context<'_, NetLockMsg>) {
        // This server now owns the lock; its q2 becomes the live queue.
        self.ownership.insert(lock, Ownership::Owned);
        let buffered: Vec<LockRequest> = self.q2.remove(&lock).unwrap_or_default().into();
        for req in buffered {
            let delay = self.charge(lock, ctx.now().as_nanos());
            match self.table.acquire(req) {
                TableAcquire::Granted => self.send_grant(&req, delay, ctx),
                TableAcquire::Queued => self.stats.queued += 1,
            }
        }
    }

    fn on_promote(&mut self, lock: LockId, ctx: &mut Context<'_, NetLockMsg>) {
        self.ownership.insert(lock, Ownership::Promoting);
        let delay = self.charge(lock, ctx.now().as_nanos());
        self.maybe_finish_promote(lock, delay, ctx);
    }

    fn maybe_finish_promote(
        &mut self,
        lock: LockId,
        delay: SimDuration,
        ctx: &mut Context<'_, NetLockMsg>,
    ) {
        if self.ownership_of(lock) != Ownership::Promoting {
            return;
        }
        // Still held: the table drops a lock's entry when it goes idle.
        if self.table.get(lock).is_some() {
            return;
        }
        self.ownership.insert(lock, Ownership::SwitchOwned);
        let reqs: Box<[LockRequest]> = self.promote_buf.remove(&lock).unwrap_or_default().into();
        ctx.send_after(
            self.switch,
            NetLockMsg::CtrlPromoteReady { lock, reqs },
            delay,
        );
    }

    /// Replay acquires buffered during a failover grace period.
    fn drain_grace(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        if self.grace_buf.is_empty() || ctx.now().as_nanos() < self.grace_until_ns {
            return;
        }
        let buffered = std::mem::take(&mut self.grace_buf);
        for req in buffered {
            self.on_acquire(req, false, ctx);
        }
    }

    fn lease_sweep(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        self.drain_grace(ctx);
        if self.cfg.lease.is_zero() {
            ctx.set_timer(self.cfg.sweep_tick, TIMER_LEASE_SWEEP);
            return;
        }
        let now = ctx.now().as_nanos();
        let mut sweep = std::mem::take(&mut self.sweep_buf);
        sweep.clear();
        // Only a lock with a holder can have a lease expire, and those
        // are the table's entries.
        self.table.held_locks(&mut sweep);
        for &lock in &sweep {
            let mut granted = std::mem::take(&mut self.grant_buf);
            granted.clear();
            self.table
                .expire_leases(lock, now, self.cfg.lease.as_nanos(), &mut granted);
            for req in &granted {
                self.stats.lease_grants += 1;
                let delay = self.charge(lock, now);
                self.send_grant(req, delay, ctx);
            }
            let any = !granted.is_empty();
            self.grant_buf = granted;
            if any {
                let delay = self.charge(lock, now);
                self.maybe_finish_promote(lock, delay, ctx);
            }
        }
        self.sweep_buf = sweep;
        ctx.set_timer(self.cfg.sweep_tick, TIMER_LEASE_SWEEP);
    }
}

impl Node<NetLockMsg> for ServerNode {
    fn on_start(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        if !self.cfg.sweep_tick.is_zero() {
            ctx.set_timer(self.cfg.sweep_tick, TIMER_LEASE_SWEEP);
        }
    }

    fn on_packet(&mut self, pkt: Packet<NetLockMsg>, ctx: &mut Context<'_, NetLockMsg>) {
        match pkt.payload {
            NetLockMsg::Acquire(req) => self.on_acquire(req, false, ctx),
            NetLockMsg::Forwarded { req, buffer_only } => self.on_acquire(req, buffer_only, ctx),
            NetLockMsg::Release(rel) => self.on_release(rel, ctx),
            NetLockMsg::QueueSpace { lock, space } => self.on_queue_space(lock, space, ctx),
            NetLockMsg::CtrlDemote { lock } => self.on_demote(lock, ctx),
            NetLockMsg::CtrlPromote { lock } => self.on_promote(lock, ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, NetLockMsg>) {
        if token == TIMER_LEASE_SWEEP {
            self.lease_sweep(ctx);
        }
    }

    fn name(&self) -> &str {
        "lock-server"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlock_proto::{ClientAddr, LockMode, Priority, TenantId, TxnId};
    use netlock_sim::{Packet, SimTime, Simulator};

    struct Sink(Vec<NetLockMsg>);
    impl netlock_sim::Node<NetLockMsg> for Sink {
        fn on_packet(&mut self, pkt: Packet<NetLockMsg>, _ctx: &mut Context<'_, NetLockMsg>) {
            self.0.push(pkt.payload);
        }
        fn on_timer(&mut self, _t: u64, _c: &mut Context<'_, NetLockMsg>) {}
    }

    fn req(lock: u32, txn: u64, client: u32) -> LockRequest {
        LockRequest {
            lock: LockId(lock),
            mode: LockMode::Exclusive,
            txn: TxnId(txn),
            client: ClientAddr(client),
            tenant: TenantId(0),
            priority: Priority(0),
            issued_at_ns: 0,
        }
    }

    #[test]
    fn owned_lock_grant_and_handoff() {
        let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(1);
        let client = sim.add_node(Box::new(Sink(Vec::new())));
        let switch = sim.add_node(Box::new(Sink(Vec::new())));
        let server = sim.add_node(Box::new(ServerNode::new(ServerConfig::default(), switch)));
        sim.inject(client, server, NetLockMsg::Acquire(req(1, 10, client.0)));
        sim.inject(client, server, NetLockMsg::Acquire(req(1, 11, client.0)));
        sim.run_until(SimTime(1_000_000));
        sim.read_node::<Sink, _>(client, |s| {
            assert_eq!(s.0.len(), 1, "second request queued");
        });
        sim.inject(
            client,
            server,
            NetLockMsg::Release(ReleaseRequest {
                lock: LockId(1),
                txn: TxnId(10),
                mode: LockMode::Exclusive,
                client: ClientAddr(client.0),
                priority: Priority(0),
            }),
        );
        sim.run_until(SimTime(2_000_000));
        sim.read_node::<Sink, _>(client, |s| {
            assert_eq!(s.0.len(), 2, "release hands off to waiter");
            assert!(matches!(s.0[1], NetLockMsg::Grant(g) if g.txn == TxnId(11)));
        });
    }

    #[test]
    fn grace_period_defers_grants() {
        let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(2);
        let client = sim.add_node(Box::new(Sink(Vec::new())));
        let switch = sim.add_node(Box::new(Sink(Vec::new())));
        let server = sim.add_node(Box::new(ServerNode::new(ServerConfig::default(), switch)));
        sim.with_node::<ServerNode, _>(server, |n| n.set_grace_until(5_000_000));
        sim.inject(client, server, NetLockMsg::Acquire(req(1, 10, client.0)));
        sim.run_until(SimTime(4_000_000));
        sim.read_node::<Sink, _>(client, |s| {
            assert!(s.0.is_empty(), "no grants during the grace period");
        });
        // After the grace deadline, the sweep tick replays the buffer.
        sim.run_until(SimTime(8_000_000));
        sim.read_node::<Sink, _>(client, |s| {
            assert_eq!(s.0.len(), 1, "buffered acquire granted after grace");
        });
    }

    #[test]
    fn q2_buffer_and_push_roundtrip() {
        let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(3);
        let client = sim.add_node(Box::new(Sink(Vec::new())));
        let switch = sim.add_node(Box::new(Sink(Vec::new())));
        let server = sim.add_node(Box::new(ServerNode::new(ServerConfig::default(), switch)));
        // Overflow-marked requests buffer silently.
        for t in 0..3 {
            sim.inject(
                client,
                server,
                NetLockMsg::Forwarded {
                    req: req(7, t, client.0),
                    buffer_only: true,
                },
            );
        }
        sim.run_until(SimTime(1_000_000));
        sim.read_node::<Sink, _>(client, |s| assert!(s.0.is_empty()));
        sim.read_node::<ServerNode, _>(server, |n| {
            assert_eq!(n.stats().q2_buffered, 3);
            assert_eq!(n.stats().q2_peak_depth, 3);
        });
        // QueueSpace pops in FIFO order, bounded by space.
        sim.inject(
            client,
            server,
            NetLockMsg::QueueSpace {
                lock: LockId(7),
                space: 2,
            },
        );
        sim.run_until(SimTime(2_000_000));
        sim.read_node::<Sink, _>(switch, |s| {
            assert_eq!(s.0.len(), 1);
            let NetLockMsg::Push { lock, reqs } = &s.0[0] else {
                panic!("expected push");
            };
            assert_eq!(*lock, LockId(7));
            let txns: Vec<u64> = reqs.iter().map(|r| r.txn.0).collect();
            assert_eq!(txns, vec![0, 1]);
        });
        sim.read_node::<ServerNode, _>(server, |n| {
            // One of the three buffered requests is still in q2.
            assert_eq!(n.stats().q2_pushed, 2);
        });
    }

    #[test]
    fn promote_handshake_transfers_buffered_requests() {
        let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(4);
        let client = sim.add_node(Box::new(Sink(Vec::new())));
        let switch = sim.add_node(Box::new(Sink(Vec::new())));
        let server = sim.add_node(Box::new(ServerNode::new(ServerConfig::default(), switch)));
        // Take the lock so the promote cannot finish immediately.
        sim.inject(client, server, NetLockMsg::Acquire(req(3, 1, client.0)));
        sim.run_until(SimTime(100_000));
        sim.inject(switch, server, NetLockMsg::CtrlPromote { lock: LockId(3) });
        sim.run_until(SimTime(200_000));
        // New arrival during the pause is buffered for transfer.
        sim.inject(client, server, NetLockMsg::Acquire(req(3, 2, client.0)));
        sim.run_until(SimTime(300_000));
        sim.read_node::<Sink, _>(switch, |s| {
            assert!(s.0.is_empty(), "not ready while the holder remains");
        });
        // Holder releases → server drains → CtrlPromoteReady with the
        // buffered request.
        sim.inject(
            client,
            server,
            NetLockMsg::Release(ReleaseRequest {
                lock: LockId(3),
                txn: TxnId(1),
                mode: LockMode::Exclusive,
                client: ClientAddr(client.0),
                priority: Priority(0),
            }),
        );
        sim.run_until(SimTime(400_000));
        sim.read_node::<Sink, _>(switch, |s| {
            assert_eq!(s.0.len(), 1);
            let NetLockMsg::CtrlPromoteReady { lock, reqs } = &s.0[0] else {
                panic!("expected promote-ready");
            };
            assert_eq!(*lock, LockId(3));
            assert_eq!(reqs.len(), 1);
            assert_eq!(reqs[0].txn, TxnId(2));
        });
    }
}

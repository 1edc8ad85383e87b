//! The lock-server simulation node.
//!
//! Handles (1) locks it owns, with the full [`LockTable`] semantics, and
//! (2) q2 overflow buffering for switch-resident locks (§4.3). All
//! request processing is charged to the RSS multi-core model.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use netlock_proto::{GrantMsg, Grantor, LockId, LockRequest, NetLockMsg, ReleaseRequest};
use netlock_sim::{Context, FastHashMap, FastHashSet, Node, NodeId, Packet, SimDuration};

use crate::cores::{CoreModel, PAPER_SERVICE_NS};
use crate::lock_table::{LockTable, TableAcquire};

/// Timer token for the lease sweep.
const TIMER_LEASE_SWEEP: u64 = 1;

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
    /// Locks the switch grants, learned from their first buffer-only
    /// forward: this server only buffers their overflow in q2. Every
    /// other lock is this server's own.
    switch_owned: FastHashSet<LockId>,
    cores: CoreModel,
    cfg: ServerConfig,
    /// The ToR switch (destination for Push).
    switch: NodeId,
    /// Failover grace deadline (ns): until then, acquires are buffered
    /// rather than granted, so leases on locks granted by a failed
    /// predecessor can expire first (§4.5: "the server waits for the
    /// leases to expire before granting the locks").
    grace_until_ns: u64,
    grace_buf: Vec<LockRequest>,
    /// Epoch of the latest [`NetLockMsg::CtrlServerRestart`] sent to the
    /// switch; counts across restarts, so a stale echo never matches.
    restart_epoch: u32,
    /// The switch has not yet echoed `restart_epoch`: buffer-only
    /// forwards arriving now predate its overflow reset.
    awaiting_echo: bool,
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
            switch_owned: FastHashSet::default(),
            cores: CoreModel::new(cfg.cores, cfg.service.as_nanos()),
            cfg,
            switch,
            grace_until_ns: 0,
            grace_buf: Vec::new(),
            restart_epoch: 0,
            awaiting_echo: false,
            grant_buf: Vec::new(),
            sweep_buf: Vec::new(),
            stats: ServerStats::default(),
        }
    }

    /// The configuration this server runs with.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Ask the switch to reset the overflow ledgers of this server's
    /// locks, under a fresh epoch; until it echoes that epoch, every
    /// buffer-only forward predates the reset.
    fn announce_restart(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        self.restart_epoch += 1;
        self.awaiting_echo = true;
        let epoch = self.restart_epoch;
        ctx.send(self.switch, NetLockMsg::CtrlServerRestart { epoch });
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
        if buffer_only {
            // An overflow of a switch-resident lock: the switch owns it
            // and this server buffers the request in the lock's q2.
            self.switch_owned.insert(req.lock);
            let q = self.q2.entry(req.lock).or_default();
            q.push_back(req);
            self.stats.q2_buffered += 1;
            self.stats.q2_peak_depth = self.stats.q2_peak_depth.max(q.len());
        } else if self.switch_owned.contains(&req.lock) {
            // A plain acquire for a lock the switch owns: bounce it to
            // the switch.
            ctx.send_after(
                self.switch,
                NetLockMsg::Push {
                    lock: req.lock,
                    reqs: Box::new([req]),
                },
                delay,
            );
        } else {
            match self.table.acquire(req) {
                TableAcquire::Granted => self.send_grant(&req, delay, ctx),
                TableAcquire::Queued => self.stats.queued += 1,
            }
        }
    }

    fn on_release(&mut self, rel: ReleaseRequest, ctx: &mut Context<'_, NetLockMsg>) {
        let delay = self.charge(rel.lock, ctx.now().as_nanos());
        if self.switch_owned.contains(&rel.lock) {
            self.stats.spurious_releases += 1;
            return;
        }
        let mut granted = std::mem::take(&mut self.grant_buf);
        granted.clear();
        self.table.release(rel.lock, rel.txn, &mut granted);
        for req in &granted {
            self.send_grant(req, delay, ctx);
        }
        self.grant_buf = granted;
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
            self.grant_buf = granted;
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

    /// A crash-restart with total state loss (§4.5): lock table, q2
    /// buffers, the switch-owned set, grace buffer, and the CPU model
    /// are wiped, as if the process restarted on a fresh machine
    /// (counters are kept: they belong to the harness). Every lock
    /// reads as owned again, which is what a server-resident lock is.
    /// The server then waits one lease, so holders granted before the
    /// crash expire before it grants anything new, restarts its sweep
    /// chain (it died with the node), and tells the switch that every
    /// q2 buffer is gone.
    fn on_revive(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        self.table = LockTable::new();
        self.q2.clear();
        self.switch_owned.clear();
        self.grace_buf.clear();
        self.cores = CoreModel::new(self.cfg.cores, self.cfg.service.as_nanos());
        self.grace_until_ns = ctx.now().as_nanos() + self.cfg.lease.as_nanos();
        self.on_start(ctx);
        self.announce_restart(ctx);
    }

    fn on_packet(&mut self, pkt: Packet<NetLockMsg>, ctx: &mut Context<'_, NetLockMsg>) {
        match pkt.payload {
            NetLockMsg::Forwarded {
                req,
                buffer_only: true,
            } if self.awaiting_echo => {
                // The switch counted this toward a ledger it is resetting
                // (or already reset): hand it back as a fresh acquire,
                // behind a fresh restart message so that reset covers it.
                // (A forward also proves the switch is up, should the
                // last restart message have died with it.)
                self.announce_restart(ctx);
                ctx.send(self.switch, NetLockMsg::Acquire(req));
            }
            // A stale echo (an earlier epoch) changes nothing.
            NetLockMsg::CtrlServerRestart { epoch } if epoch == self.restart_epoch => {
                self.awaiting_echo = false;
            }
            NetLockMsg::Acquire(req) => self.on_acquire(req, false, ctx),
            NetLockMsg::Forwarded { req, buffer_only } => self.on_acquire(req, buffer_only, ctx),
            NetLockMsg::Release(rel) => self.on_release(rel, ctx),
            NetLockMsg::QueueSpace { lock, space } => self.on_queue_space(lock, space, ctx),
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
        sim.with_node::<ServerNode, _>(server, |n| n.grace_until_ns = 5_000_000);
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
}

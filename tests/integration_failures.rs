//! Integration tests for failure handling (§4.5): transaction
//! failures via leases, switch failure with state loss, and lock-server
//! failover to a backup.

use netlock_core::prelude::*;
use netlock_proto::{
    ClientAddr, GrantMsg, Grantor, LockId, LockMode, LockRequest, NetLockMsg, Priority,
    ReleaseRequest, TenantId, TxnId,
};
use netlock_server::ServerNode;
use netlock_sim::{Context, LinkConfig, Node, NodeId, Packet};
use netlock_switch::priority::PriorityLayout;
use netlock_switch::shared_queue::SharedQueueLayout;
use netlock_switch::SwitchNode;

fn one_lock_rack() -> (Rack, Allocation) {
    let mut rack = Rack::build(RackConfig {
        seed: 51,
        lock_servers: 2,
        ..Default::default()
    });
    let stats = LockStats::uniform((0..64).map(LockId), 32, 2);
    let alloc = knapsack_allocate(&stats, 100_000);
    rack.program(&alloc);
    (rack, alloc)
}

/// A client that grabs a lock and never releases it ("crashed"
/// transaction). The lease sweeper must free the lock so others can
/// make progress.
#[test]
fn lease_expiry_recovers_crashed_holder() {
    let (mut rack, _alloc) = one_lock_rack();
    let switch = rack.switch;
    // Inject a poisoned acquire directly: txn 999 takes lock 0 and
    // vanishes.
    rack.sim.inject(
        NodeId_client(),
        switch,
        NetLockMsg::Acquire(LockRequest {
            lock: LockId(0),
            mode: LockMode::Exclusive,
            txn: TxnId(999),
            client: ClientAddr(NodeId_client().0),
            tenant: TenantId(0),
            priority: Priority(0),
            issued_at_ns: 0,
        }),
    );
    // A real client then wants the same lock.
    rack.add_txn_client(
        TxnClientConfig {
            workers: 1,
            retry_timeout: SimDuration::from_millis(50),
            ..Default::default()
        },
        Box::new(SingleLockSource {
            locks: vec![LockId(0)],
            mode: LockMode::Exclusive,
            think: SimDuration::from_micros(10),
        }),
    );
    // Default lease = 10 ms, sweep every 1 ms: within ~12 ms the stale
    // holder is force-released and the worker proceeds.
    rack.sim.run_for(SimDuration::from_millis(8));
    let stuck = rack
        .sim
        .read_node::<TxnClient, _>(rack.clients[0].0, |c| c.stats().txns);
    assert_eq!(stuck, 0, "lock is held by the crashed txn");
    rack.sim.run_for(SimDuration::from_millis(30));
    let after = rack
        .sim
        .read_node::<TxnClient, _>(rack.clients[0].0, |c| c.stats().txns);
    assert!(after > 100, "lease expiry must unstick the lock: {after}");
    let expirations = rack
        .sim
        .read_node::<SwitchNode, _>(switch, |s| s.stats().lease_expirations);
    assert!(expirations >= 1);
}

// The poisoned request needs a source node id; any client-addressable
// node works. Node 100 does not exist, so grants to it vanish — which
// is exactly a crashed client.
#[allow(non_snake_case)]
fn NodeId_client() -> netlock_sim::NodeId {
    netlock_sim::NodeId(100)
}

/// Switch failure wipes all state; the revived switch reloads its
/// program, throughput returns and stranded holders expire.
#[test]
fn switch_failure_and_reactivation() {
    let (mut rack, _alloc) = one_lock_rack();
    let switch = rack.switch;
    for _ in 0..3 {
        rack.add_txn_client(
            TxnClientConfig {
                workers: 4,
                retry_timeout: SimDuration::from_millis(5),
                ..Default::default()
            },
            Box::new(SingleLockSource {
                locks: (0..64).map(LockId).collect(),
                mode: LockMode::Exclusive,
                think: SimDuration::from_micros(20),
            }),
        );
    }
    rack.sim.run_for(SimDuration::from_millis(10));
    let healthy = txns_by_client(&rack).iter().sum::<u64>();
    assert!(healthy > 500);

    rack.sim.fail_node(switch);
    rack.sim.run_for(SimDuration::from_millis(10));
    let during = txns_by_client(&rack).iter().sum::<u64>() - healthy;
    assert!(
        during < healthy / 10,
        "outage must stop progress: {during} vs {healthy}"
    );

    rack.sim.revive_node(switch);
    let before_recovery = txns_by_client(&rack).iter().sum::<u64>();
    rack.sim.run_for(SimDuration::from_millis(20));
    let recovered = txns_by_client(&rack).iter().sum::<u64>() - before_recovery;
    assert!(
        recovered > healthy / 2,
        "throughput must return after reactivation: {recovered} vs {healthy}"
    );
}

/// A bare `revive_node` is the whole recovery: the rebooted switch
/// reloads its program and restarts its control tick, so the lease
/// sweeper frees a holder that never releases and grants the waiter
/// behind it, within one lease of the revival.
#[test]
fn revived_switch_sweeps_leases_by_itself() {
    let (mut rack, _alloc) = one_lock_rack();
    let switch = rack.switch;
    let waiter = rack.sim.add_node(Box::new(Recorder(Vec::new())));
    rack.sim.run_for(SimDuration::from_millis(1));
    rack.sim.fail_node(switch);
    rack.sim.run_for(SimDuration::from_millis(5));
    rack.sim.revive_node(switch);
    let acquire = |client: NodeId, txn: u64, issued_at_ns: u64| {
        NetLockMsg::Acquire(LockRequest {
            lock: LockId(0),
            mode: LockMode::Exclusive,
            txn: TxnId(txn),
            client: ClientAddr(client.0),
            tenant: TenantId(0),
            priority: Priority(0),
            issued_at_ns,
        })
    };
    // The holder is a client that vanished after stamping its request
    // before the crash; the waiter queues behind it.
    let holder = acquire(NodeId_client(), 999, 0);
    rack.sim.inject(NodeId_client(), switch, holder);
    let now = rack.sim.now().as_nanos();
    rack.sim.inject(waiter, switch, acquire(waiter, 1, now));
    rack.sim.run_for(SimDuration::from_millis(10));
    let granted = rack
        .sim
        .read_node::<Recorder, _>(waiter, |r| r.0.iter().map(|g| g.txn.0).collect::<Vec<_>>());
    assert_eq!(granted, vec![1], "the waiter is granted after the sweep");
    let expirations = rack
        .sim
        .read_node::<SwitchNode, _>(switch, |s| s.stats().lease_expirations);
    assert_eq!(expirations, 1);
}

/// A rebooted priority switch reloads the directory `program_priority`
/// installed: an acquire after the reboot is granted by the switch, not
/// dropped as a lock it has never heard of.
#[test]
fn rebooted_priority_switch_keeps_its_directory() {
    let mut rack = Rack::build(RackConfig {
        seed: 52,
        lock_servers: 1,
        engine: EngineSpec::Priority(PriorityLayout::new(2, 16, 4)),
        ..Default::default()
    });
    rack.program_priority(&[LockId(3)]);
    let switch = rack.switch;
    let client = rack.sim.add_node(Box::new(Recorder(Vec::new())));
    rack.sim.run_for(SimDuration::from_millis(1));
    rack.sim.fail_node(switch);
    rack.sim.run_for(SimDuration::from_millis(1));
    rack.sim.revive_node(switch);
    let issued_at_ns = rack.sim.now().as_nanos();
    rack.sim.inject(
        client,
        switch,
        NetLockMsg::Acquire(LockRequest {
            lock: LockId(3),
            mode: LockMode::Exclusive,
            txn: TxnId(1),
            client: ClientAddr(client.0),
            tenant: TenantId(0),
            priority: Priority(0),
            issued_at_ns,
        }),
    );
    rack.sim.run_for(SimDuration::from_millis(1));
    let grants = rack.sim.read_node::<Recorder, _>(client, |r| r.0.clone());
    assert_eq!(grants.len(), 1, "the acquire after the reboot is granted");
    assert_eq!(grants[0].grantor, Grantor::Switch);
    let drops = rack
        .sim
        .read_node::<SwitchNode, _>(switch, |s| s.stats().drops);
    assert_eq!(drops, 0);
}

/// A rebooted switch installs its tenant meters again (§4.4: the quota
/// is policy the control plane set, not register state). `examples/
/// policy_demo`'s isolation rack with tenant 1's four clients metered,
/// the switch down from 20 to 25 ms: every 5 ms window from 30 ms on
/// throttles the tenant and commits no more than 1.5× the last
/// pre-fault window (an unmetered tenant commits about 3×).
#[test]
fn rebooted_switch_keeps_its_tenant_quota() {
    let mut rack = Rack::build(RackConfig {
        seed: 32,
        lock_servers: 1,
        ..Default::default()
    });
    let locks: Vec<LockId> = (0..16).map(LockId).collect();
    let stats = LockStats::uniform(locks.iter().copied(), 48, 1);
    rack.program(&knapsack_allocate(&stats, 100_000));
    let switch = rack.switch;
    rack.sim.with_node::<SwitchNode, _>(switch, |s| {
        s.set_tenant_meter(TenantId(1), 150_000, 32, 0);
    });
    let clients: Vec<NodeId> = (0..4)
        .map(|_| {
            let mut src = SingleLockSource {
                locks: locks.clone(),
                mode: LockMode::Exclusive,
                think: SimDuration::from_micros(20),
            };
            rack.add_txn_client(
                TxnClientConfig {
                    workers: 8,
                    retry_timeout: SimDuration::from_millis(2),
                    ..Default::default()
                },
                Box::new(move |rng: &mut netlock_sim::SimRng| {
                    use netlock_core::txn::TxnSource;
                    src.next_txn(rng).with_tenant(TenantId(1))
                }),
            )
        })
        .collect();
    let txns = |rack: &Rack| -> u64 {
        clients
            .iter()
            .map(|&c| rack.sim.read_node::<TxnClient, _>(c, |c| c.stats().txns))
            .sum()
    };
    let quota_drops = |rack: &Rack| {
        rack.sim
            .read_node::<SwitchNode, _>(switch, |s| s.dataplane().stats().quota_drops)
    };
    // (window end in ms, txns, quota drops); the data plane's counters
    // restart at the revive, which falls between two windows.
    let mut windows = Vec::new();
    for end_ms in (5..=50).step_by(5) {
        let (txns_before, drops_before) = (txns(&rack), quota_drops(&rack));
        rack.sim.run_for(SimDuration::from_millis(5));
        windows.push((
            end_ms,
            txns(&rack) - txns_before,
            quota_drops(&rack) - drops_before,
        ));
        match end_ms {
            20 => rack.sim.fail_node(switch),
            25 => rack.sim.revive_node(switch),
            _ => {}
        }
    }
    let (_, pre_fault, pre_fault_drops) = windows[3];
    assert!(pre_fault > 500 && pre_fault_drops > 0, "{windows:?}");
    for &(end_ms, n, drops) in &windows[5..] {
        assert!(
            drops > 0 && 2 * n <= 3 * pre_fault,
            "window ending at {end_ms} ms: {n} txns and {drops} quota drops \
             against {pre_fault} txns before the fault: {windows:?}"
        );
    }
}

/// Lock-server failover: the failed server's locks move to the backup,
/// clients resubmit, and processing continues there.
#[test]
fn server_failover_moves_locks_to_backup() {
    let (mut rack, _alloc) = one_lock_rack();
    let switch = rack.switch;
    // Repoint every lock at server 1 *and* keep them out of the switch,
    // so the lock server is on the critical path.
    let server_locks: Vec<LockId> = (0..64).map(LockId).collect();
    rack.sim.with_node::<SwitchNode, _>(switch, |s| {
        for &lock in &server_locks {
            s.dataplane_mut()
                .directory_mut()
                .set_server_resident(lock, 0);
        }
    });
    let s0 = rack.lock_servers[0];
    let s1 = rack.lock_servers[1];
    // Server 1 is a standby, down until the control plane needs it.
    rack.sim.fail_node(s1);

    rack.add_txn_client(
        TxnClientConfig {
            workers: 8,
            retry_timeout: SimDuration::from_millis(5),
            ..Default::default()
        },
        Box::new(SingleLockSource {
            locks: server_locks.clone(),
            mode: LockMode::Exclusive,
            think: SimDuration::from_micros(20),
        }),
    );
    rack.sim.run_for(SimDuration::from_millis(10));
    let healthy = txns_by_client(&rack)[0];
    assert!(healthy > 500);
    let s0_grants = rack
        .sim
        .read_node::<ServerNode, _>(s0, |n| n.stats().grants);
    assert!(s0_grants > 0, "server 0 was serving");

    // Server 0 dies; the control plane reassigns its locks to server 1
    // and starts it. It comes up empty and waits out one lease — the
    // predecessor's — before granting (§4.5).
    rack.sim.fail_node(s0);
    rack.sim.with_node::<SwitchNode, _>(switch, |s| {
        for &lock in &server_locks {
            s.dataplane_mut()
                .directory_mut()
                .set_server_resident(lock, 1);
        }
    });
    rack.sim.revive_node(s1);
    // During the grace period nothing is granted by the backup.
    let at_failover = txns_by_client(&rack)[0];
    rack.sim.run_for(SimDuration::from_millis(8));
    let during_grace = txns_by_client(&rack)[0];
    assert!(
        during_grace - at_failover < 20,
        "grace period must defer grants: {at_failover} → {during_grace}"
    );

    rack.sim.run_for(SimDuration::from_millis(30));
    let after = txns_by_client(&rack)[0];
    assert!(
        after > healthy + 500,
        "backup server must take over: {healthy} → {after}"
    );
    let s1_grants = rack
        .sim
        .read_node::<ServerNode, _>(s1, |n| n.stats().grants);
    assert!(s1_grants > 0, "server 1 now grants");
}

/// Packet loss on the client→switch link is survived via retries.
#[test]
fn lossy_links_are_survivable() {
    let (mut rack, _alloc) = one_lock_rack();
    let switch = rack.switch;
    let client = rack.add_txn_client(
        TxnClientConfig {
            workers: 4,
            retry_timeout: SimDuration::from_millis(2),
            ..Default::default()
        },
        Box::new(SingleLockSource {
            locks: (0..64).map(LockId).collect(),
            mode: LockMode::Exclusive,
            think: SimDuration::from_micros(10),
        }),
    );
    // 20% loss client→switch.
    rack.sim.topology_mut_link_loss(client, switch, 0.2);
    rack.sim.run_for(SimDuration::from_millis(40));
    let (txns, retries) = rack
        .sim
        .read_node::<TxnClient, _>(client, |c| (c.stats().txns, c.stats().retries));
    assert!(retries > 10, "loss must trigger retries: {retries}");
    // Throughput degrades badly (lost releases strand locks until the
    // lease sweeper frees them) but the system keeps making progress.
    assert!(txns > 100, "progress despite 20% loss: {txns}");
}

/// Helper trait to keep the loss-injection call readable above.
trait LossHelper {
    fn topology_mut_link_loss(
        &mut self,
        src: netlock_sim::NodeId,
        dst: netlock_sim::NodeId,
        p: f64,
    );
}

impl LossHelper for netlock_sim::Simulator<NetLockMsg> {
    fn topology_mut_link_loss(
        &mut self,
        src: netlock_sim::NodeId,
        dst: netlock_sim::NodeId,
        p: f64,
    ) {
        let cfg = self.topology().link(src, dst).with_loss(p);
        self.topology_mut().set_link(src, dst, cfg);
    }
}

/// Deadlock resolution (§4.5): two workers acquiring {A, B} in opposite
/// orders deadlock; leases expire the stuck holders, clients retry, and
/// both eventually commit. "Deadlocks ... resolved in the same way as
/// for transaction failures."
#[test]
fn deadlock_broken_by_leases() {
    use netlock_core::txn::{LockNeed, Transaction};

    let (mut rack, _alloc) = one_lock_rack();
    let a = LockNeed {
        lock: LockId(0),
        mode: LockMode::Exclusive,
    };
    let b = LockNeed {
        lock: LockId(1),
        mode: LockMode::Exclusive,
    };
    // Think long enough that A-then-B and B-then-A overlap and wedge.
    let think = SimDuration::from_millis(2);
    let fwd = move |_rng: &mut netlock_sim::SimRng| Transaction::new_ordered(vec![a, b], think);
    let rev = move |_rng: &mut netlock_sim::SimRng| Transaction::new_ordered(vec![b, a], think);
    let c1 = rack.add_txn_client(
        TxnClientConfig {
            workers: 1,
            retry_timeout: SimDuration::from_millis(100),
            ..Default::default()
        },
        Box::new(fwd),
    );
    let c2 = rack.add_txn_client(
        TxnClientConfig {
            workers: 1,
            retry_timeout: SimDuration::from_millis(100),
            ..Default::default()
        },
        Box::new(rev),
    );
    // Default lease 10 ms, sweep 1 ms: each deadlock costs ≤ ~11 ms,
    // then the lease breaks it. Over 300 ms both clients must commit
    // a meaningful number of transactions.
    rack.sim.run_for(SimDuration::from_millis(300));
    let t1 = rack.sim.read_node::<TxnClient, _>(c1, |c| c.stats().txns);
    let t2 = rack.sim.read_node::<TxnClient, _>(c2, |c| c.stats().txns);
    assert!(
        t1 > 5 && t2 > 5,
        "leases must keep breaking deadlocks: {t1} vs {t2}"
    );
    let expirations = rack
        .sim
        .read_node::<SwitchNode, _>(rack.switch, |s| s.stats().lease_expirations);
    assert!(expirations > 0, "the sweeper must have fired");
}

/// Records grants; releases are injected explicitly by the test.
struct Recorder(Vec<GrantMsg>);

impl Node<NetLockMsg> for Recorder {
    fn on_packet(&mut self, pkt: Packet<NetLockMsg>, _ctx: &mut Context<'_, NetLockMsg>) {
        if let NetLockMsg::Grant(g) = pkt.payload {
            self.0.push(g);
        }
    }
    fn on_timer(&mut self, _t: u64, _c: &mut Context<'_, NetLockMsg>) {}
}

/// A client that sends the acquires its timers name (token = txn) and
/// holds every grant for `hold` before releasing it.
struct Holder {
    switch: NodeId,
    hold: SimDuration,
    grants: Vec<u64>,
}

impl Holder {
    const LOCK: LockId = LockId(0);
    /// Timer tokens at and above this release `token - RELEASE`.
    const RELEASE: u64 = 1 << 32;
}

impl Node<NetLockMsg> for Holder {
    fn on_packet(&mut self, pkt: Packet<NetLockMsg>, ctx: &mut Context<'_, NetLockMsg>) {
        if let NetLockMsg::Grant(g) = pkt.payload {
            self.grants.push(g.txn.0);
            ctx.set_timer(self.hold, Self::RELEASE + g.txn.0);
        }
    }
    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, NetLockMsg>) {
        let client = ClientAddr(ctx.self_id().0);
        let msg = match token.checked_sub(Self::RELEASE) {
            Some(txn) => NetLockMsg::Release(ReleaseRequest {
                lock: Self::LOCK,
                txn: TxnId(txn),
                mode: LockMode::Exclusive,
                client,
                priority: Priority(0),
            }),
            None => NetLockMsg::Acquire(LockRequest {
                lock: Self::LOCK,
                mode: LockMode::Exclusive,
                txn: TxnId(token),
                client,
                tenant: TenantId(0),
                priority: Priority(0),
                issued_at_ns: ctx.now().as_nanos(),
            }),
        };
        ctx.send(self.switch, msg);
    }
}

/// A lock server restarts while a switch-resident lock it backs is in
/// overflow mode (§4.3), and a buffer-only forward is on the wire
/// across its restart message. The forward predates the switch's
/// reset, so the server hands it back as a plain acquire; the overflow
/// protocol then runs from clean ledgers, and overflow mode ends.
#[test]
fn server_restart_during_overflow() {
    let mut rack = Rack::build(RackConfig {
        seed: 3,
        lock_servers: 1,
        engine: EngineSpec::Fcfs(SharedQueueLayout::small(2, 32, 4)),
        ..Default::default()
    });
    // Two queue slots at the switch, homed on server 0.
    let stats = LockStats {
        lock: Holder::LOCK,
        rate: 1.0,
        contention: 2,
        home_server: 0,
    };
    rack.program(&knapsack_allocate(&[stats], 2));
    let (switch, server) = (rack.switch, rack.lock_servers[0]);
    let client = rack.sim.add_node(Box::new(Holder {
        switch,
        hold: SimDuration::from_millis(1),
        grants: Vec::new(),
    }));
    let mut oracle = Oracle::new(OracleConfig::default());
    oracle.register_client(client);
    let oracle = std::sync::Arc::new(std::sync::Mutex::new(oracle));
    let restart_msgs = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let (o, r) = (oracle.clone(), restart_msgs.clone());
    rack.sim.set_lp_tap(
        0,
        Box::new(move |ev| {
            if let netlock_sim::TapEvent::Sent {
                src,
                payload: NetLockMsg::CtrlServerRestart { epoch },
                ..
            } = ev
            {
                r.lock().unwrap().push((src, *epoch));
            }
            o.lock().unwrap().observe(&ev);
        }),
    );
    let us = SimDuration::from_micros;
    let at = |t: SimDuration| netlock_sim::SimTime(t.as_nanos());
    // Txn 1 holds, 2 fills the queue, 3 overflows into server 0's q2.
    for (txn, t) in [(1, 0), (2, 10), (3, 20)] {
        rack.sim.inject_timer(client, us(t), txn);
    }
    rack.sim.run_until(at(us(100)));
    let qid = rack.sim.read_node::<SwitchNode, _>(switch, |s| {
        let (_, qid, _) = s.dataplane().directory().switch_resident()[0];
        assert!(s.dataplane().overflow_active(qid));
        qid
    });
    // Server 0 crashes with txn 3 in its q2; txn 4 overflows into the
    // dead server.
    rack.sim.fail_node(server);
    rack.sim.inject_timer(client, us(100), 4);
    // Txn 5 reaches the switch at the revival instant, so its forward
    // crosses the server's restart message on the wire.
    let link = LinkConfig::default().delay;
    rack.sim.run_until(at(us(500) - link));
    rack.sim.inject_timer(client, SimDuration::ZERO, 5);
    rack.sim.run_until(at(us(500)));
    assert!(rack
        .sim
        .read_node::<SwitchNode, _>(switch, |s| s.dataplane().overflow_active(qid)));
    rack.sim.revive_node(server);
    // The client retries the two acquires the crash lost.
    rack.sim.inject_timer(client, us(500), 3);
    rack.sim.inject_timer(client, us(500), 4);
    run_chaos(
        &mut rack.sim,
        at(SimDuration::from_millis(20)),
        std::slice::from_ref(&oracle),
    );

    // One restart message at the revival; the switch echoes it, but the
    // forward it sent before the reset reaches the server first, so the
    // server sends another with the bounced acquire, echoed in turn.
    let msgs = restart_msgs.lock().unwrap().clone();
    assert_eq!(
        msgs,
        vec![(server, 1), (switch, 1), (server, 2), (switch, 2)],
        "restart messages in send order"
    );
    let mut grants = rack
        .sim
        .read_node::<Holder, _>(client, |h| h.grants.clone());
    grants.sort_unstable();
    assert_eq!(grants, vec![1, 2, 3, 4, 5], "every acquire granted once");
    rack.sim.read_node::<SwitchNode, _>(switch, |s| {
        assert!(!s.dataplane().overflow_active(qid), "overflow mode ended");
    });
    let oracle = oracle.lock().unwrap();
    assert!(oracle.is_clean(), "{}", oracle.audit_log());
}

//! Integration tests for failure handling (§4.5): transaction
//! failures via leases, switch failure with state loss, and lock-server
//! failover to a backup.

use std::ops::RangeInclusive;

use netlock_core::prelude::*;
use netlock_proto::{
    ClientAddr, GrantMsg, LockId, LockMode, LockRequest, NetLockMsg, Priority, ReleaseRequest,
    TenantId, TxnId,
};
use netlock_server::ServerNode;
use netlock_sim::{Context, Node, NodeId, Packet, Simulator};
use netlock_switch::control::apply_allocation;
use netlock_switch::shared_queue::SharedQueueLayout;
use netlock_switch::{DataPlane, SwitchConfig, SwitchNode};

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

/// Switch failure wipes all state; after reactivation + reprogramming,
/// throughput returns and stranded holders expire.
#[test]
fn switch_failure_and_reactivation() {
    let (mut rack, alloc) = one_lock_rack();
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
    rack.sim.with_node::<SwitchNode, _>(switch, |s| {
        s.reboot();
        s.dataplane_mut().set_default_servers(2);
        apply_allocation(s.dataplane_mut(), &alloc);
    });
    let before_recovery = txns_by_client(&rack).iter().sum::<u64>();
    rack.sim.run_for(SimDuration::from_millis(20));
    let recovered = txns_by_client(&rack).iter().sum::<u64>() - before_recovery;
    assert!(
        recovered > healthy / 2,
        "throughput must return after reactivation: {recovered} vs {healthy}"
    );
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
    rack.sim
        .with_node::<ServerNode, _>(s0, |n| server_locks.iter().for_each(|&l| n.own_lock(l)));

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

    // Server 0 dies; the control plane reassigns its locks to server 1,
    // which waits out the predecessor's leases before granting (§4.5).
    rack.sim.fail_node(s0);
    rack.sim.with_node::<SwitchNode, _>(switch, |s| {
        for &lock in &server_locks {
            s.dataplane_mut()
                .directory_mut()
                .set_server_resident(lock, 1);
        }
    });
    let grace_until = rack.sim.now().as_nanos() + SimDuration::from_millis(10).as_nanos();
    rack.sim.with_node::<ServerNode, _>(s1, |n| {
        server_locks.iter().for_each(|&l| n.own_lock(l));
        n.set_grace_until(grace_until);
    });
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

/// Backup-switch failover (§4.5): when the primary switch fails, the
/// control plane programs a backup switch with the same allocation and
/// repoints clients and servers at it — downtime is one retry timeout,
/// not a full reboot cycle.
#[test]
fn backup_switch_takes_over() {
    use netlock_switch::shared_queue::SharedQueueLayout;
    use netlock_switch::{DataPlane, SwitchConfig};

    let (mut rack, alloc) = one_lock_rack();
    let primary = rack.switch;
    // A standby switch, pre-programmed with the same allocation (its
    // queues start empty — leases cover any state lost on the primary).
    let backup = {
        let mut dp = DataPlane::new_fcfs(&SharedQueueLayout::paper_default());
        dp.set_default_servers(rack.lock_servers.len());
        apply_allocation(&mut dp, &alloc);
        rack.sim.add_node(Box::new(netlock_switch::SwitchNode::new(
            dp,
            SwitchConfig::default(),
            rack.lock_servers.clone(),
        )))
    };
    let client = rack.add_txn_client(
        TxnClientConfig {
            workers: 8,
            retry_timeout: SimDuration::from_millis(5),
            ..Default::default()
        },
        Box::new(SingleLockSource {
            locks: (0..64).map(LockId).collect(),
            mode: LockMode::Exclusive,
            think: SimDuration::from_micros(20),
        }),
    );
    rack.sim.run_for(SimDuration::from_millis(10));
    let healthy = txns_by_client(&rack)[0];
    assert!(healthy > 500);

    // Primary dies; the control plane fails over.
    rack.sim.fail_node(primary);
    rack.sim
        .with_node::<TxnClient, _>(client, |c| c.set_switch(backup));
    for &s in &rack.lock_servers.clone() {
        rack.sim
            .with_node::<ServerNode, _>(s, |n| n.set_switch(backup));
    }
    rack.sim.run_for(SimDuration::from_millis(20));
    let after = txns_by_client(&rack)[0];
    // Unlike the reboot experiment (Fig. 15), throughput continues at
    // nearly the healthy rate: only the in-flight window is lost.
    assert!(
        after - healthy > 700,
        "backup must take over quickly: {healthy} → {after}"
    );
    let backup_grants = rack
        .sim
        .read_node::<netlock_switch::SwitchNode, _>(backup, |s| s.stats().grants_sent);
    assert!(backup_grants > 500, "grants now come from the backup");
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

/// A restarted original switch and the backup that served its locks
/// while it was down (§4.5), both holding exclusive lock 0.
struct Handback {
    sim: Simulator<NetLockMsg>,
    client: NodeId,
    original: NodeId,
    backup: NodeId,
}

impl Handback {
    const LOCK: LockId = LockId(0);

    /// `at_backup` queue at a backup built with `backup_cfg` (the first
    /// is granted); then the original restarts with grants for the lock
    /// suppressed, the backup enters handback mode, and `at_original`
    /// queue at the original.
    fn new(
        backup_cfg: SwitchConfig,
        at_backup: RangeInclusive<u64>,
        at_original: RangeInclusive<u64>,
    ) -> Handback {
        let mk_dp = || {
            let mut dp = DataPlane::new_fcfs(&SharedQueueLayout::small(2, 32, 4));
            let stats = LockStats {
                lock: Self::LOCK,
                rate: 1.0,
                contention: 16,
                home_server: 0,
            };
            apply_allocation(&mut dp, &knapsack_allocate(&[stats], 16));
            dp
        };
        let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(9);
        let client = sim.add_node(Box::new(Recorder(Vec::new())));
        let original = sim.add_node(Box::new(SwitchNode::new(
            mk_dp(),
            SwitchConfig::default(),
            vec![],
        )));
        let backup = sim.add_node(Box::new(SwitchNode::new(mk_dp(), backup_cfg, vec![])));
        let mut rig = Handback {
            sim,
            client,
            original,
            backup,
        };
        for t in at_backup {
            rig.sim.inject(client, backup, rig.acquire(t));
        }
        rig.sim.run_for(SimDuration::from_millis(1));
        assert_eq!(rig.grants(), vec![1], "the backup grants its head");

        rig.sim.with_node::<SwitchNode, _>(original, |s| {
            s.dataplane_mut().begin_handback_suppression(Self::LOCK);
        });
        rig.sim.with_node::<SwitchNode, _>(backup, |s| {
            s.set_backup_handback(Some(original));
        });
        for t in at_original {
            rig.sim.inject(client, original, rig.acquire(t));
        }
        rig.sim.run_for(SimDuration::from_millis(1));
        assert_eq!(
            rig.grants(),
            vec![1],
            "original must not grant while suppressed"
        );
        assert!(rig.suppressed());
        rig
    }

    fn acquire(&self, txn: u64) -> NetLockMsg {
        NetLockMsg::Acquire(LockRequest {
            lock: Self::LOCK,
            mode: LockMode::Exclusive,
            txn: TxnId(txn),
            client: ClientAddr(self.client.0),
            tenant: TenantId(0),
            priority: Priority(0),
            issued_at_ns: 0,
        })
    }

    fn release(&self, txn: u64) -> ReleaseRequest {
        ReleaseRequest {
            lock: Self::LOCK,
            txn: TxnId(txn),
            mode: LockMode::Exclusive,
            client: ClientAddr(self.client.0),
            priority: Priority(0),
        }
    }

    /// Deliver `msg` to `to` and run the simulation for 1 ms.
    fn send(&mut self, to: NodeId, msg: NetLockMsg) {
        self.sim.inject(self.client, to, msg);
        self.sim.run_for(SimDuration::from_millis(1));
    }

    /// Granted txns, in order.
    fn grants(&self) -> Vec<u64> {
        self.sim
            .read_node::<Recorder, _>(self.client, |r| r.0.iter().map(|g| g.txn.0).collect())
    }

    fn suppressed(&self) -> bool {
        self.sim.read_node::<SwitchNode, _>(self.original, |s| {
            s.dataplane().handback_suppressed(Self::LOCK)
        })
    }
}

/// The restart-handback protocol (§4.5): after the original switch
/// restarts, new acquires queue at the original (grants suppressed)
/// while releases drain the backup; when the backup's queue for a lock
/// empties it hands the lock back, and the original grants its queued
/// run — no lock is ever granted by both switches at once.
#[test]
fn restart_handback_drains_backup_first() {
    // Txns 1–3 queue at the backup; 4 and 5 at the restarted original.
    let mut rig = Handback::new(SwitchConfig::default(), 1..=3, 4..=5);

    // Drain the backup: releases go to the backup; it grants 2, then 3,
    // then — once empty — hands the lock back to the original, which
    // grants txn 4 from its own queue.
    for t in 1..=3 {
        rig.send(rig.backup, NetLockMsg::Release(rig.release(t)));
    }
    assert_eq!(
        rig.grants(),
        vec![1, 2, 3, 4],
        "backup drains fully before the original grants"
    );
    assert!(!rig.suppressed());

    // The original is now the sole grantor: release 4 → grant 5 there.
    rig.send(rig.original, NetLockMsg::Release(rig.release(4)));
    assert_eq!(rig.grants(), vec![1, 2, 3, 4, 5]);
}

/// The backup hands a lock back however its queue drains: a release
/// batch and a lease-sweep force-release empty it as surely as a single
/// release does.
#[test]
fn handback_follows_batch_and_lease_drains() {
    let mut rig = Handback::new(SwitchConfig::default(), 1..=1, 4..=4);
    let batch = NetLockMsg::ReleaseBatch(vec![rig.release(1)].into());
    rig.send(rig.backup, batch);
    assert_eq!(
        rig.grants(),
        vec![1, 4],
        "a release batch drained the backup"
    );
    assert!(!rig.suppressed());

    // Txn 1 never releases; the backup's 5 ms lease sweeper frees it,
    // well before the original's 10 ms lease could touch txn 4.
    let backup_cfg = SwitchConfig {
        lease: SimDuration::from_millis(5),
        ..Default::default()
    };
    let mut rig = Handback::new(backup_cfg, 1..=1, 4..=4);
    rig.sim.run_for(SimDuration::from_millis(30));
    let lease_expirations = rig
        .sim
        .read_node::<SwitchNode, _>(rig.backup, |s| s.stats().lease_expirations);
    assert_eq!(lease_expirations, 1);
    assert_eq!(rig.grants(), vec![1, 4], "a lease sweep drained the backup");
    assert!(!rig.suppressed());
}

//! Integration tests for failure handling (§4.5): transaction
//! failures via leases, switch failure with state loss, and lock-server
//! failover to a backup.

use netlock_core::prelude::*;
use netlock_proto::{
    ClientAddr, LockId, LockMode, LockRequest, NetLockMsg, Priority, TenantId, TxnId,
};
use netlock_server::ServerNode;
use netlock_switch::control::apply_allocation;
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

/// The restart-handback protocol (§4.5): after the original switch
/// restarts, new acquires queue at the original (grants suppressed)
/// while releases drain the backup; when the backup's queue for a lock
/// empties it hands the lock back, and the original grants its queued
/// run — no lock is ever granted by both switches at once.
#[test]
fn restart_handback_drains_backup_first() {
    use netlock_proto::{GrantMsg, LockRequest, NetLockMsg};
    use netlock_sim::{Context, Node, Packet, Simulator};
    use netlock_switch::control::{apply_allocation, knapsack_allocate, LockStats};
    use netlock_switch::shared_queue::SharedQueueLayout;
    use netlock_switch::{DataPlane, SwitchConfig, SwitchNode};

    /// Records grants; releases are injected explicitly by the test.
    struct Recorder(Vec<(u64, GrantMsg)>);
    impl Node<NetLockMsg> for Recorder {
        fn on_packet(&mut self, pkt: Packet<NetLockMsg>, ctx: &mut Context<'_, NetLockMsg>) {
            if let NetLockMsg::Grant(g) = pkt.payload {
                self.0.push((ctx.now().as_nanos(), g));
            }
        }
        fn on_timer(&mut self, _t: u64, _c: &mut Context<'_, NetLockMsg>) {}
    }

    let lock = LockId(0);
    let mk_dp = || {
        let mut dp = DataPlane::new_fcfs(&SharedQueueLayout::small(2, 32, 4));
        apply_allocation(
            &mut dp,
            &knapsack_allocate(
                &[LockStats {
                    lock,
                    rate: 1.0,
                    contention: 16,
                    home_server: 0,
                }],
                16,
            ),
        );
        dp
    };
    let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(9);
    let client = sim.add_node(Box::new(Recorder(Vec::new())));
    let original = sim.add_node(Box::new(SwitchNode::new(
        mk_dp(),
        SwitchConfig::default(),
        vec![],
    )));
    let backup = sim.add_node(Box::new(SwitchNode::new(
        mk_dp(),
        SwitchConfig::default(),
        vec![],
    )));

    let acq = |txn: u64| {
        NetLockMsg::Acquire(LockRequest {
            lock,
            mode: LockMode::Exclusive,
            txn: TxnId(txn),
            client: ClientAddr(client.0),
            tenant: TenantId(0),
            priority: Priority(0),
            issued_at_ns: 0,
        })
    };
    let rel = |txn: u64| {
        NetLockMsg::Release(netlock_proto::ReleaseRequest {
            lock,
            txn: TxnId(txn),
            mode: LockMode::Exclusive,
            client: ClientAddr(client.0),
            priority: Priority(0),
        })
    };

    // Failover phase: txns 1–3 queue at the backup; txn 1 is granted.
    for t in 1..=3 {
        sim.inject(client, backup, acq(t));
    }
    sim.run_for(SimDuration::from_millis(1));
    sim.read_node::<Recorder, _>(client, |r| assert_eq!(r.0.len(), 1));

    // The original restarts. Per §4.5: new requests queue at the
    // original with grants suppressed; the backup keeps granting its
    // queue until empty.
    sim.with_node::<SwitchNode, _>(original, |s| {
        s.dataplane_mut().begin_handback_suppression(lock);
    });
    sim.with_node::<SwitchNode, _>(backup, |s| {
        s.set_backup_handback(Some(original));
    });
    for t in 4..=5 {
        sim.inject(client, original, acq(t));
    }
    sim.run_for(SimDuration::from_millis(1));
    // Suppressed: still only the backup's grant.
    sim.read_node::<Recorder, _>(client, |r| {
        assert_eq!(r.0.len(), 1, "original must not grant while suppressed")
    });
    assert!(
        sim.read_node::<SwitchNode, _>(original, |s| { s.dataplane().handback_suppressed(lock) })
    );

    // Drain the backup: releases go to the backup; it grants 2, then 3,
    // then — once empty — hands the lock back to the original, which
    // grants txn 4 from its own queue.
    sim.inject(client, backup, rel(1));
    sim.run_for(SimDuration::from_millis(1));
    sim.inject(client, backup, rel(2));
    sim.run_for(SimDuration::from_millis(1));
    sim.inject(client, backup, rel(3));
    sim.run_for(SimDuration::from_millis(1));

    let grants: Vec<u64> =
        sim.read_node::<Recorder, _>(client, |r| r.0.iter().map(|(_, g)| g.txn.0).collect());
    assert_eq!(
        grants,
        vec![1, 2, 3, 4],
        "backup drains fully before the original grants"
    );
    assert!(
        !sim.read_node::<SwitchNode, _>(original, |s| { s.dataplane().handback_suppressed(lock) })
    );

    // The original is now the sole grantor: release 4 → grant 5 there.
    sim.inject(client, original, rel(4));
    sim.run_for(SimDuration::from_millis(1));
    let grants: Vec<u64> =
        sim.read_node::<Recorder, _>(client, |r| r.0.iter().map(|(_, g)| g.txn.0).collect());
    assert_eq!(grants, vec![1, 2, 3, 4, 5]);
}

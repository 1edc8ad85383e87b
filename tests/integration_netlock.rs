//! End-to-end correctness of the NetLock rack: mutual exclusion,
//! shared-mode concurrency, FCFS ordering, and conservation of grants,
//! checked through the public API with a recording client.

use netlock_core::prelude::*;
use netlock_proto::{
    ClientAddr, GrantMsg, LockId, LockMode, LockRequest, NetLockMsg, Priority, ReleaseRequest,
    TenantId, TxnId,
};
use netlock_sim::{Context, Node, NodeId, Packet, SimTime};

/// A scripted client that issues a fixed acquire schedule and records
/// every (grant, release) interval for auditing.
struct AuditClient {
    switch: NodeId,
    /// (send_at, lock, mode, hold_ns)
    script: Vec<(u64, LockId, LockMode, u64)>,
    /// (lock, mode, grant_time, release_time) per grant.
    pub intervals: Vec<(LockId, LockMode, u64, u64)>,
    /// Grant order per lock, by txn id.
    pub grant_order: Vec<(LockId, TxnId)>,
    next: usize,
}

const TIMER_NEXT: u64 = 0;
const TIMER_RELEASE_BASE: u64 = 1 << 32;

impl AuditClient {
    fn new(switch: NodeId, script: Vec<(u64, LockId, LockMode, u64)>) -> AuditClient {
        AuditClient {
            switch,
            script,
            intervals: Vec::new(),
            grant_order: Vec::new(),
            next: 0,
        }
    }

    fn schedule_next(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        if let Some(&(at, _, _, _)) = self.script.get(self.next) {
            let delay = netlock_sim::SimDuration(at.saturating_sub(ctx.now().as_nanos()));
            ctx.set_timer(delay, TIMER_NEXT);
        }
    }
}

impl Node<NetLockMsg> for AuditClient {
    fn on_start(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        self.schedule_next(ctx);
    }

    fn on_packet(&mut self, pkt: Packet<NetLockMsg>, ctx: &mut Context<'_, NetLockMsg>) {
        if let NetLockMsg::Grant(GrantMsg {
            lock, txn, mode, ..
        }) = pkt.payload
        {
            let idx = txn.0 as usize;
            let hold = self.script[idx].3;
            self.grant_order.push((lock, txn));
            self.intervals.push((
                lock,
                mode,
                ctx.now().as_nanos(),
                ctx.now().as_nanos() + hold,
            ));
            ctx.set_timer(
                netlock_sim::SimDuration(hold),
                TIMER_RELEASE_BASE + idx as u64,
            );
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, NetLockMsg>) {
        if token == TIMER_NEXT {
            let idx = self.next;
            let (_, lock, mode, _) = self.script[idx];
            self.next += 1;
            let me = ctx.self_id();
            ctx.send(
                self.switch,
                NetLockMsg::Acquire(LockRequest {
                    lock,
                    mode,
                    txn: TxnId(idx as u64),
                    client: ClientAddr(me.0),
                    tenant: TenantId(0),
                    priority: Priority(0),
                    issued_at_ns: ctx.now().as_nanos(),
                }),
            );
            self.schedule_next(ctx);
        } else if token >= TIMER_RELEASE_BASE {
            let idx = (token - TIMER_RELEASE_BASE) as usize;
            let (_, lock, mode, _) = self.script[idx];
            let me = ctx.self_id();
            ctx.send(
                self.switch,
                NetLockMsg::Release(ReleaseRequest {
                    lock,
                    txn: TxnId(idx as u64),
                    mode,
                    client: ClientAddr(me.0),
                    priority: Priority(0),
                }),
            );
        }
    }
}

fn audit_rack(locks: u32, capacity: u32) -> Rack {
    let mut rack = Rack::build(RackConfig {
        seed: 5,
        lock_servers: 1,
        ..Default::default()
    });
    let stats = LockStats::uniform((0..locks).map(LockId), 64, 1);
    rack.program(&knapsack_allocate(&stats, capacity));
    rack
}

/// Exclusive holds on one lock must never overlap, across clients.
#[test]
fn exclusive_holds_never_overlap() {
    let mut rack = audit_rack(4, 1_000);
    let switch = rack.switch;
    let mut clients = Vec::new();
    for c in 0..4 {
        // Dense schedule: everyone hammers lock 0 with 20 µs holds.
        let script: Vec<(u64, LockId, LockMode, u64)> = (0..50)
            .map(|i| {
                (
                    (i * 30_000 + c * 7_000) as u64,
                    LockId(0),
                    LockMode::Exclusive,
                    20_000,
                )
            })
            .collect();
        clients.push(
            rack.sim
                .add_node(Box::new(AuditClient::new(switch, script))),
        );
    }
    rack.sim.run_until(SimTime(50 * 30_000 * 10));
    let mut holds: Vec<(u64, u64)> = Vec::new();
    for &c in &clients {
        rack.sim.read_node::<AuditClient, _>(c, |a| {
            for &(_, mode, g, r) in &a.intervals {
                assert_eq!(mode, LockMode::Exclusive);
                holds.push((g, r));
            }
        });
    }
    assert!(
        holds.len() >= 150,
        "most acquires should complete: {}",
        holds.len()
    );
    holds.sort_unstable();
    for w in holds.windows(2) {
        assert!(
            w[1].0 >= w[0].1,
            "exclusive holds overlap: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
}

/// Shared holds are allowed to overlap each other but never an
/// exclusive hold.
#[test]
fn shared_overlap_but_exclude_writers() {
    let mut rack = audit_rack(2, 1_000);
    let switch = rack.switch;
    let mut clients = Vec::new();
    for c in 0..3 {
        let mode = if c == 0 {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        };
        let script: Vec<(u64, LockId, LockMode, u64)> = (0..40)
            .map(|i| ((i * 50_000 + c * 11_000) as u64, LockId(1), mode, 25_000))
            .collect();
        clients.push(
            rack.sim
                .add_node(Box::new(AuditClient::new(switch, script))),
        );
    }
    rack.sim.run_until(SimTime(40 * 50_000 * 10));
    let mut x_holds: Vec<(u64, u64)> = Vec::new();
    let mut s_holds: Vec<(u64, u64)> = Vec::new();
    for &c in &clients {
        rack.sim.read_node::<AuditClient, _>(c, |a| {
            for &(_, mode, g, r) in &a.intervals {
                match mode {
                    LockMode::Exclusive => x_holds.push((g, r)),
                    LockMode::Shared => s_holds.push((g, r)),
                }
            }
        });
    }
    assert!(!x_holds.is_empty() && !s_holds.is_empty());
    // No shared hold may overlap an exclusive hold.
    for &(xg, xr) in &x_holds {
        for &(sg, sr) in &s_holds {
            assert!(sr <= xg || sg >= xr, "S [{sg},{sr}] overlaps X [{xg},{xr}]");
        }
    }
    // Sanity: some shared holds actually overlapped each other.
    let mut sorted = s_holds.clone();
    sorted.sort_unstable();
    let overlapping = sorted.windows(2).filter(|w| w[1].0 < w[0].1).count();
    assert!(overlapping > 0, "shared mode should allow concurrency");
}

/// FCFS: grants for one lock follow issue order when requests are
/// spaced beyond network jitter.
#[test]
fn fcfs_grant_order() {
    let mut rack = audit_rack(1, 64);
    let switch = rack.switch;
    // One client issues ordered requests 40 µs apart; the lock is held
    // 200 µs each time, so a queue forms and drains in order.
    let script: Vec<(u64, LockId, LockMode, u64)> = (0..20)
        .map(|i| ((i * 40_000) as u64, LockId(0), LockMode::Exclusive, 200_000))
        .collect();
    let c = rack
        .sim
        .add_node(Box::new(AuditClient::new(switch, script)));
    rack.sim.run_until(SimTime(20 * 300_000 * 10));
    rack.sim.read_node::<AuditClient, _>(c, |a| {
        assert_eq!(a.grant_order.len(), 20, "all requests granted");
        for (i, &(_, txn)) in a.grant_order.iter().enumerate() {
            assert_eq!(txn, TxnId(i as u64), "grant {i} out of FCFS order");
        }
    });
}

/// Every grant is eventually matched by exactly one release and the
/// queues drain (conservation through the whole rack).
#[test]
fn grants_conserve_and_queues_drain() {
    // Capacity 512 = 8 locks × 64 slots: every lock is switch-resident.
    let mut rack = audit_rack(8, 512);
    let switch = rack.switch;
    let script: Vec<(u64, LockId, LockMode, u64)> = (0..100)
        .map(|i| {
            (
                (i * 10_000) as u64,
                LockId((i % 8) as u32),
                LockMode::Exclusive,
                5_000,
            )
        })
        .collect();
    let c = rack
        .sim
        .add_node(Box::new(AuditClient::new(switch, script)));
    rack.sim.run_until(SimTime(1_000_000_000));
    rack.sim.read_node::<AuditClient, _>(c, |a| {
        assert_eq!(a.intervals.len(), 100);
    });
    // After everything releases, all switch queues must be empty.
    rack.sim
        .read_node::<netlock_switch::SwitchNode, _>(switch, |s| {
            if let netlock_switch::Engine::Fcfs(q) = s.dataplane().engine() {
                for qid in 0..8 {
                    assert_eq!(q.cp_region(qid).count, 0, "queue {qid} not drained");
                }
            } else {
                panic!("expected FCFS engine");
            }
            let d = s.dataplane().stats();
            assert_eq!(d.grants_immediate + d.grants_on_release, 100);
        });
}

/// The same run twice gives bit-identical results (determinism across
/// the whole stack).
#[test]
fn end_to_end_determinism() {
    let run = || {
        let mut rack = audit_rack(4, 64);
        let switch = rack.switch;
        let script: Vec<(u64, LockId, LockMode, u64)> = (0..60)
            .map(|i| {
                (
                    (i * 7_000) as u64,
                    LockId((i % 4) as u32),
                    if i % 3 == 0 {
                        LockMode::Exclusive
                    } else {
                        LockMode::Shared
                    },
                    9_000,
                )
            })
            .collect();
        let c = rack
            .sim
            .add_node(Box::new(AuditClient::new(switch, script)));
        rack.sim.run_until(SimTime(100_000_000));
        rack.sim
            .read_node::<AuditClient, _>(c, |a| a.intervals.clone())
    };
    assert_eq!(run(), run());
}

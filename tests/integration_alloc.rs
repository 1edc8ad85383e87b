//! Allocation-tracking integration test: installs the counting global
//! allocator and proves the per-packet hot paths are allocation-free
//! in steady state — the switch data plane processing every Algorithm 2
//! grant/release case into a reusable `ActionBuf`, and the server lock
//! table granting into its reusable out-buffer.
//!
//! This file is the gate for those claims: a regression fails
//! `cargo test`. The repo benchmark reports the same count under load
//! as `switch.dataplane.allocs_per_pkt`.

use netlock_bench::{allocation_count, CountingAlloc};
use netlock_proto::{
    ClientAddr, LockId, LockMode, LockRequest, NetLockMsg, Priority, ReleaseRequest, TenantId,
    TxnId,
};
use netlock_server::LockTable;
use netlock_sim::{Context, Node, NodeId, Packet, SimDuration, Simulator};
use netlock_switch::control::{apply_allocation, knapsack_allocate, LockStats};
use netlock_switch::priority::PriorityLayout;
use netlock_switch::shared_queue::SharedQueueLayout;
use netlock_switch::{ActionBuf, DataPlane, SwitchConfig, SwitchNode};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn acquire(lock: u32, txn: u64, mode: LockMode) -> NetLockMsg {
    acquire_at(lock, txn, mode, 0, 0)
}

fn release(lock: u32, txn: u64, mode: LockMode) -> NetLockMsg {
    release_at(lock, txn, mode, 0)
}

/// An acquire of priority class `prio`, issued at `issued_at_ns`.
fn acquire_at(lock: u32, txn: u64, mode: LockMode, prio: u8, issued_at_ns: u64) -> NetLockMsg {
    NetLockMsg::Acquire(LockRequest {
        lock: LockId(lock),
        mode,
        txn: TxnId(txn),
        client: ClientAddr(1),
        tenant: TenantId(0),
        priority: Priority(prio),
        issued_at_ns,
    })
}

/// A release routed to priority class `prio`'s queue.
fn release_at(lock: u32, txn: u64, mode: LockMode, prio: u8) -> NetLockMsg {
    NetLockMsg::Release(ReleaseRequest {
        lock: LockId(lock),
        txn: TxnId(txn),
        mode,
        client: ClientAddr(1),
        priority: Priority(prio),
    })
}

fn contended_dp() -> DataPlane {
    let mut dp = DataPlane::new_fcfs(&SharedQueueLayout::small(4, 4_096, 16));
    let stats = LockStats::uniform((0..16).map(LockId), 64, 1);
    apply_allocation(&mut dp, &knapsack_allocate(&stats, 4_096 * 4));
    dp
}

struct Discard;
impl Node<NetLockMsg> for Discard {
    fn on_packet(&mut self, _pkt: Packet<NetLockMsg>, _ctx: &mut Context<'_, NetLockMsg>) {}
    fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_, NetLockMsg>) {}
}

/// Inject 12 packets for each of 16 locks — holder, waiter behind it,
/// handoff, then four shared holders released youngest first (the
/// guard's slow path) — and run until the switch has answered them all.
fn sixteen_lock_round(
    sim: &mut Simulator<NetLockMsg>,
    client: NodeId,
    switch: NodeId,
    txn: &mut u64,
) {
    for lock in 0..16u32 {
        let t = *txn;
        sim.inject(client, switch, acquire(lock, t, LockMode::Exclusive));
        sim.inject(client, switch, acquire(lock, t + 1, LockMode::Exclusive));
        sim.inject(client, switch, release(lock, t, LockMode::Exclusive));
        sim.inject(client, switch, release(lock, t + 1, LockMode::Exclusive));
        for k in 0..4 {
            sim.inject(client, switch, acquire(lock, t + 2 + k, LockMode::Shared));
        }
        for k in (0..4).rev() {
            sim.inject(client, switch, release(lock, t + 2 + k, LockMode::Shared));
        }
        *txn += 6;
    }
    sim.run_for(SimDuration::from_micros(100));
}

/// Steady-state `DataPlane::process` performs zero heap allocation:
/// uncontended grants, queued waiters, exclusive handoffs and the X→S
/// shared cascade all run entirely in preallocated structures.
#[test]
fn dataplane_steady_state_is_allocation_free() {
    let mut dp = contended_dp();
    let mut out = ActionBuf::new();
    let mut txn = 0u64;
    // Warm-up: reach steady shape (scratch buffers, queue regions)
    // across every case the loop below exercises.
    for _ in 0..2 {
        for lock in 0..16u32 {
            // Uncontended X, X→X handoff, X→S cascade, S→S release.
            dp.process(acquire(lock, txn, LockMode::Exclusive), 0, &mut out);
            dp.process(acquire(lock, txn + 1, LockMode::Exclusive), 0, &mut out);
            dp.process(release(lock, txn, LockMode::Exclusive), 0, &mut out);
            for k in 0..4 {
                dp.process(acquire(lock, txn + 2 + k, LockMode::Shared), 0, &mut out);
            }
            dp.process(release(lock, txn + 1, LockMode::Exclusive), 0, &mut out);
            for k in 0..4 {
                dp.process(release(lock, txn + 2 + k, LockMode::Shared), 0, &mut out);
            }
            txn += 6;
        }
    }
    let before = allocation_count();
    for _ in 0..100 {
        for lock in 0..16u32 {
            dp.process(acquire(lock, txn, LockMode::Exclusive), 0, &mut out);
            dp.process(acquire(lock, txn + 1, LockMode::Exclusive), 0, &mut out);
            dp.process(release(lock, txn, LockMode::Exclusive), 0, &mut out);
            for k in 0..4 {
                dp.process(acquire(lock, txn + 2 + k, LockMode::Shared), 0, &mut out);
            }
            dp.process(release(lock, txn + 1, LockMode::Exclusive), 0, &mut out);
            for k in 0..4 {
                dp.process(release(lock, txn + 2 + k, LockMode::Shared), 0, &mut out);
            }
            txn += 6;
        }
    }
    let allocs = allocation_count() - before;
    assert_eq!(
        allocs, 0,
        "steady-state packet path allocated {allocs} times over 17600 packets"
    );
}

/// The priority engine's packet path is allocation-free too, including
/// its release cascade, which writes each waiter's grant time into the
/// slot it marks granted. Per lock and round: an exclusive holder at
/// priority 1, a higher-priority exclusive waiter granted on its
/// release, then four priority-2 shared waiters granted together when
/// that waiter releases, released youngest first.
#[test]
fn priority_dataplane_steady_state_is_allocation_free() {
    let mut dp = DataPlane::new_priority(&PriorityLayout::new(3, 8, 16));
    for lock in 0..16u32 {
        dp.directory_mut()
            .set_switch_resident(LockId(lock), lock as usize, 0);
    }
    let mut out = ActionBuf::new();
    let mut txn = 0u64;
    let mut now = 0u64;
    let mut round = || {
        for lock in 0..16u32 {
            let t = txn;
            now += 1_000;
            let acq = |txn, mode, prio| acquire_at(lock, txn, mode, prio, now);
            dp.process(acq(t, LockMode::Exclusive, 1), now, &mut out);
            dp.process(acq(t + 1, LockMode::Exclusive, 0), now, &mut out);
            for k in 0..4 {
                dp.process(acq(t + 2 + k, LockMode::Shared, 2), now, &mut out);
            }
            let rel = |txn, mode, prio| release_at(lock, txn, mode, prio);
            now += 1_000;
            dp.process(rel(t, LockMode::Exclusive, 1), now, &mut out);
            now += 1_000;
            dp.process(rel(t + 1, LockMode::Exclusive, 0), now, &mut out);
            assert_eq!(out.len(), 4, "the shared run is granted on release");
            for k in (0..4).rev() {
                dp.process(rel(t + 2 + k, LockMode::Shared, 2), now, &mut out);
            }
            txn += 6;
        }
    };
    // Warm-up: reach steady shape across every case measured below.
    for _ in 0..2 {
        round();
    }
    let before = allocation_count();
    for _ in 0..100 {
        round();
    }
    let allocs = allocation_count() - before;
    let stats = dp.stats();
    assert_eq!(stats.grants_immediate, 102 * 16);
    assert_eq!(stats.grants_on_release, 102 * 16 * 5);
    assert_eq!(
        allocs, 0,
        "steady-state priority packet path allocated {allocs} times over 19200 packets"
    );
}

/// The same claim one layer up, with the release guard on the path:
/// `SwitchNode::on_packet` taking acquires and releases off the
/// simulator (grant, guard credit, guard spend, dequeue, handoff grant)
/// allocates nothing once each region's guard FIFO has grown to the
/// lock's holders — the guard is a push and a pop on retained buffers.
/// Counted inside `on_packet` only; the event spine around it is held
/// to the same zero by `simulator_spine_steady_state_is_allocation_free`.
#[test]
fn switch_node_steady_state_is_allocation_free() {
    /// The switch, with the allocations of its packet handler counted.
    struct Metered {
        switch: SwitchNode,
        allocs: u64,
    }
    impl Node<NetLockMsg> for Metered {
        fn on_packet(&mut self, pkt: Packet<NetLockMsg>, ctx: &mut Context<'_, NetLockMsg>) {
            let before = allocation_count();
            self.switch.on_packet(pkt, ctx);
            self.allocs += allocation_count() - before;
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, NetLockMsg>) {
            self.switch.on_timer(token, ctx);
        }
    }

    let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(9);
    let switch = sim.add_node(Box::new(Metered {
        switch: SwitchNode::new(contended_dp(), SwitchConfig::default(), vec![]),
        allocs: 0,
    }));
    let client = sim.add_node(Box::new(Discard));
    assert_eq!(client.0, 1, "requests name ClientAddr(1) as their client");
    let mut txn = 0u64;
    for _ in 0..3 {
        sixteen_lock_round(&mut sim, client, switch, &mut txn);
    }
    let warm = sim.read_node::<Metered, _>(switch, |m| m.allocs);
    assert!(warm > 0, "the meter saw the guard FIFOs grow");
    for _ in 0..100 {
        sixteen_lock_round(&mut sim, client, switch, &mut txn);
    }
    let (allocs, stats) = sim.read_node::<Metered, _>(switch, |m| (m.allocs, m.switch.stats()));
    assert_eq!(stats.grants_sent, 103 * 16 * 6, "every acquire was granted");
    assert_eq!(stats.stale_releases_filtered, 0, "every release counted");
    assert_eq!(
        allocs - warm,
        0,
        "steady-state switch node allocated over 19200 packets"
    );
}

/// And the spine around the nodes: the same rounds with allocations
/// counted across the whole of `inject` + `run_for` — event push, slab
/// slot, bucket drain, `due` sort, dispatch, link lookup, the switch
/// and the grants it sends back. Each round lands on wheel buckets no
/// earlier round used; a pending event occupies a recycled slab slot,
/// so a fresh bucket costs nothing (a bucket that owned its storage
/// would allocate on its first event).
#[test]
fn simulator_spine_steady_state_is_allocation_free() {
    let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(9);
    // No control tick: the 1 ms lease sweep is control-plane code that
    // collects into fresh `Vec`s, not part of the per-event path.
    let cfg = SwitchConfig {
        control_tick: SimDuration::ZERO,
        ..Default::default()
    };
    let switch = sim.add_node(Box::new(SwitchNode::new(contended_dp(), cfg, vec![])));
    let client = sim.add_node(Box::new(Discard));
    assert_eq!(client.0, 1, "requests name ClientAddr(1) as their client");
    let mut txn = 0u64;
    for _ in 0..3 {
        sixteen_lock_round(&mut sim, client, switch, &mut txn);
    }
    let before = allocation_count();
    for _ in 0..100 {
        sixteen_lock_round(&mut sim, client, switch, &mut txn);
    }
    let allocs = allocation_count() - before;
    let stats = sim.read_node::<SwitchNode, _>(switch, |s| s.stats());
    assert_eq!(stats.grants_sent, 103 * 16 * 6, "every acquire was granted");
    assert_eq!(
        allocs, 0,
        "steady-state simulator allocated {allocs} times over 19200 packets"
    );
}

/// A retune whose pending events all sit in the wheel re-chains them in
/// place: no stash, no allocation. Sixteen events 300 us apart ask for
/// a bucket 2^7 wider than the initial 4 us one, so the 4 096th push
/// rebuilds the wheel, with `due`, `late` and `overflow` all empty.
#[test]
fn event_queue_retune_in_place_allocates_nothing() {
    use netlock_sim::{EventQueue, SimTime};

    const STEP: u64 = 300_000;
    let mut q: EventQueue<u64> = EventQueue::new();
    // Grow `late` (pushes behind a cursor that `peek_at` ran ahead) to
    // the few events that share the cursor's bucket when the rebuild
    // re-anchors it; `due` has room for a bucket's two from its first.
    q.push(SimTime(STEP), 0, 0);
    q.peek_at();
    for seq in 1..8 {
        q.push(SimTime(5_000), seq, seq);
    }
    while q.pop().is_some() {}
    for seq in 8..24 {
        q.push(SimTime((seq - 6) * STEP), seq, seq);
    }
    let before = allocation_count();
    for seq in 24..9_000 {
        let (at, _, _) = q.pop().expect("sixteen pending");
        q.push(SimTime(at.0 + 16 * STEP), seq, seq);
    }
    let allocs = allocation_count() - before;
    assert_eq!((q.len(), q.slab_slots()), (16, 16));
    assert_eq!(allocs, 0, "two retune periods allocated {allocs} times");
}

/// Steady-state `LockTable::release` into the reusable out-buffer is
/// allocation-free once holders/waiters reach steady capacity — and so
/// is a cold lock's whole acquire→release cycle: its entry is created
/// from a reclaimed state and reclaimed again, so a stream of locks
/// never seen before (the TPC-C long tail) costs no allocation either.
#[test]
fn lock_table_steady_state_is_allocation_free() {
    let mut table = LockTable::new();
    let mut grants: Vec<LockRequest> = Vec::new();
    let req = |lock: u32, txn: u64| LockRequest {
        lock: LockId(lock),
        mode: LockMode::Exclusive,
        txn: TxnId(txn),
        client: ClientAddr(1),
        tenant: TenantId(0),
        priority: Priority(0),
        issued_at_ns: txn,
    };
    let mut txn = 0u64;
    // Warm-up: a standing waiter per lock so every release promotes.
    for lock in 0..16u32 {
        table.acquire(req(lock, txn));
        table.acquire(req(lock, txn + 1));
        grants.clear();
        table.release(LockId(lock), TxnId(txn), &mut grants);
        table.acquire(req(lock, txn + 2));
        grants.clear();
        table.release(LockId(lock), TxnId(txn + 1), &mut grants);
        grants.clear();
        table.release(LockId(lock), TxnId(txn + 2), &mut grants);
        txn += 3;
    }
    let before = allocation_count();
    for _ in 0..1_000 {
        for lock in 0..16u32 {
            table.acquire(req(lock, txn));
            table.acquire(req(lock, txn + 1));
            grants.clear();
            table.release(LockId(lock), TxnId(txn), &mut grants);
            assert_eq!(grants.len(), 1);
            grants.clear();
            table.release(LockId(lock), TxnId(txn + 1), &mut grants);
            assert!(grants.is_empty());
            txn += 2;
        }
    }
    let allocs = allocation_count() - before;
    assert_eq!(
        allocs, 0,
        "steady-state lock table allocated {allocs} times over 32000 ops"
    );

    // Cold stream: every id is new, eight locks in flight at a time.
    const IN_FLIGHT: u32 = 8;
    let mut cold_cycle = |lock: u32| {
        table.acquire(req(lock, u64::from(lock)));
        if let Some(old) = lock.checked_sub(IN_FLIGHT) {
            grants.clear();
            table.release(LockId(old), TxnId(u64::from(old)), &mut grants);
        }
    };
    let first_cold = 1_000u32;
    let warm = first_cold + 8 * IN_FLIGHT;
    (first_cold..warm).for_each(&mut cold_cycle);
    let before = allocation_count();
    (warm..warm + 50_000).for_each(&mut cold_cycle);
    let allocs = allocation_count() - before;
    assert_eq!(
        allocs, 0,
        "cold-lock acquire/release cycles allocated {allocs} times over 50000 locks"
    );
    assert!(table.len() <= IN_FLIGHT as usize + 1, "idle entries kept");
}

/// The aggregate population path is allocation-*light*, not
/// allocation-free: each quantum allocates the boxed request, grant and
/// release batches the messages own (the switch's coalescing buffers
/// are node-owned scratch), amortized over the hundreds of requests
/// the batch carries. Steady state must stay well under one
/// allocation per request — the per-packet paths inside (data plane,
/// release guard, action buffer) remain alloc-free as proven above.
#[test]
fn population_steady_state_allocates_sublinearly_in_requests() {
    use netlock_core::prelude::*;

    let mut rack = Rack::build(RackConfig {
        seed: 77,
        lock_servers: 1,
        engine: EngineSpec::Fcfs(netlock_switch::shared_queue::SharedQueueLayout::small(
            2, 16_384, 64,
        )),
        ..Default::default()
    });
    let stats = LockStats::uniform((0..64).map(LockId), 64, 1);
    rack.program(&knapsack_allocate(&stats, 32_000));
    rack.add_population_client(PopulationConfig {
        tenants: vec![TenantSpec {
            virtual_clients: 100_000,
            rate_rps_per_client: 10.0,
            locks: (0..64).map(LockId).collect(),
            max_outstanding: 1 << 20,
            ..Default::default()
        }],
        ..Default::default()
    });
    // Warm-up: reach steady batch sizes, grown scratch buffers, grown
    // hash tables.
    rack.sim.run_for(SimDuration::from_millis(20));
    let issued_before = rack
        .sim
        .read_node::<PopulationClient, _>(rack.clients[0].0, |c| c.stats().issued);
    let allocs_before = allocation_count();
    rack.sim.run_for(SimDuration::from_millis(20));
    let allocs = allocation_count() - allocs_before;
    let issued = rack
        .sim
        .read_node::<PopulationClient, _>(rack.clients[0].0, |c| c.stats().issued)
        - issued_before;
    assert!(issued > 10_000, "scenario too small: {issued} requests");
    let per_request = allocs as f64 / issued as f64;
    // Measured 0.035 (702 allocations over 20 000 requests; 0.068
    // while each wheel bucket also allocated on its first event).
    assert!(
        per_request < 0.04,
        "{allocs} allocations over {issued} requests = {per_request:.3}/request"
    );
}

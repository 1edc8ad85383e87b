//! Integration tests for policy support (§4.4): starvation freedom,
//! priority-based service differentiation, and per-tenant quotas —
//! exercised end-to-end through the public rack API.

use netlock_core::prelude::*;
use netlock_core::txn::TxnSource;
use netlock_proto::{LockId, LockMode, Priority, TenantId};
use netlock_switch::priority::PriorityLayout;
use netlock_switch::SwitchNode;

fn exclusive_source(locks: u32, think_us: u64) -> SingleLockSource {
    SingleLockSource {
        locks: (0..locks).map(LockId).collect(),
        mode: LockMode::Exclusive,
        think: SimDuration::from_micros(think_us),
    }
}

/// FCFS means no worker starves: with heavy contention on one lock,
/// every worker's per-lock wait stays bounded (no worker is locked out
/// while others recycle the lock).
#[test]
fn fcfs_prevents_starvation() {
    let mut rack = Rack::build(RackConfig {
        seed: 41,
        lock_servers: 1,
        ..Default::default()
    });
    rack.program(&knapsack_allocate(
        &[LockStats {
            lock: LockId(0),
            rate: 1.0,
            contention: 128,
            home_server: 0,
        }],
        256,
    ));
    for _ in 0..4 {
        rack.add_txn_client(
            TxnClientConfig {
                workers: 8,
                ..Default::default()
            },
            Box::new(exclusive_source(1, 10)),
        );
    }
    let stats = warmup_and_measure(
        &mut rack,
        SimDuration::from_millis(5),
        SimDuration::from_millis(40),
    );
    // 32 workers on one lock with ~10–17 µs per handoff: the queue is
    // ~32 deep, so waits are bounded near 32 × handoff. A starving
    // worker would show up as a max far beyond that.
    let lat = stats.lock_latency_summary();
    assert!(lat.count > 1_000);
    assert!(
        lat.max_ns < 8 * lat.p50_ns.max(1),
        "FCFS keeps the worst wait near the queue depth: {lat:?}"
    );
    // Per-client fairness: all four clients complete similar work.
    let counts = txns_by_client(&rack);
    let min = *counts.iter().min().unwrap() as f64;
    let max = *counts.iter().max().unwrap() as f64;
    assert!(
        max / min.max(1.0) < 1.5,
        "FCFS shares the lock evenly: {counts:?}"
    );
}

/// With the priority engine, a high-priority tenant overtakes queued
/// low-priority work.
#[test]
fn priorities_differentiate_service() {
    let locks = 8u32;
    let mut rack = Rack::build(RackConfig {
        seed: 43,
        lock_servers: 1,
        engine: EngineSpec::Priority(PriorityLayout::new(2, 64, locks as usize)),
        ..Default::default()
    });
    rack.program_priority(&(0..locks).map(LockId).collect::<Vec<_>>());
    for tenant in [1u16, 1, 2, 2] {
        let mut src = exclusive_source(locks, 20);
        let prio = if tenant == 1 {
            Priority(1)
        } else {
            Priority(0)
        };
        rack.add_txn_client(
            TxnClientConfig {
                workers: 8,
                ..Default::default()
            },
            Box::new(move |rng: &mut netlock_sim::SimRng| {
                src.next_txn(rng)
                    .with_tenant(TenantId(tenant))
                    .with_priority(prio)
            }),
        );
    }
    rack.sim.run_for(SimDuration::from_millis(3));
    reset_clients(&mut rack);
    rack.sim.run_for(SimDuration::from_millis(25));
    let counts = txns_by_client(&rack);
    let low: u64 = counts[0] + counts[1];
    let high: u64 = counts[2] + counts[3];
    assert!(
        high as f64 > 1.3 * low as f64,
        "high-priority tenant must dominate: high {high} vs low {low}"
    );
}

/// Per-tenant token-bucket quotas rebalance an asymmetric client mix.
#[test]
fn quotas_enforce_isolation() {
    let run = |isolate: bool| -> (u64, u64) {
        let locks = 16u32;
        let mut rack = Rack::build(RackConfig {
            seed: 44,
            lock_servers: 1,
            ..Default::default()
        });
        let stats = LockStats::uniform((0..locks).map(LockId), 64, 1);
        rack.program(&knapsack_allocate(&stats, 2_000));
        if isolate {
            let switch = rack.switch;
            rack.sim.with_node::<SwitchNode, _>(switch, |s| {
                s.set_tenant_meter(TenantId(1), 120_000, 32, 0);
                s.set_tenant_meter(TenantId(2), 120_000, 32, 0);
            });
        }
        // Tenant 1: 6 clients; tenant 2: 2 clients.
        for tenant in [1u16, 1, 1, 1, 1, 1, 2, 2] {
            let mut src = exclusive_source(locks, 20);
            rack.add_txn_client(
                TxnClientConfig {
                    workers: 4,
                    retry_timeout: SimDuration::from_millis(2),
                    ..Default::default()
                },
                Box::new(move |rng: &mut netlock_sim::SimRng| {
                    src.next_txn(rng).with_tenant(TenantId(tenant))
                }),
            );
        }
        rack.sim.run_for(SimDuration::from_millis(3));
        reset_clients(&mut rack);
        rack.sim.run_for(SimDuration::from_millis(25));
        let counts = txns_by_client(&rack);
        (
            counts[..6].iter().sum::<u64>(),
            counts[6..].iter().sum::<u64>(),
        )
    };
    let (t1_free, t2_free) = run(false);
    let (t1_iso, t2_iso) = run(true);
    // Unisolated: 3× the clients → roughly 3× the throughput.
    assert!(
        t1_free as f64 > 2.0 * t2_free as f64,
        "without quotas the big tenant wins: {t1_free} vs {t2_free}"
    );
    // Isolated: the ratio must compress toward equality.
    let r_free = t1_free as f64 / t2_free.max(1) as f64;
    let r_iso = t1_iso as f64 / t2_iso.max(1) as f64;
    assert!(
        r_iso < r_free / 1.5,
        "quotas must compress the gap: {r_free:.2} → {r_iso:.2}"
    );
}

/// Quota drops are visible in the switch counters (the meter is really
/// the thing doing the throttling).
#[test]
fn quota_drops_are_counted() {
    let mut rack = Rack::build(RackConfig {
        seed: 45,
        lock_servers: 1,
        ..Default::default()
    });
    rack.program(&knapsack_allocate(
        &[LockStats {
            lock: LockId(0),
            rate: 1.0,
            contention: 64,
            home_server: 0,
        }],
        64,
    ));
    let switch = rack.switch;
    rack.sim.with_node::<SwitchNode, _>(switch, |s| {
        s.set_tenant_meter(TenantId(7), 10_000, 4, 0);
    });
    rack.add_micro_client(MicroClientConfig {
        rate_rps: 1_000_000.0,
        locks: vec![LockId(0)],
        mode: LockMode::Shared,
        tenant: TenantId(7),
        // Open-loop: dropped requests never complete, so an unbounded
        // window is needed to keep offering load past the quota.
        max_outstanding: usize::MAX,
        ..Default::default()
    });
    rack.sim.run_for(SimDuration::from_millis(10));
    let drops = rack
        .sim
        .read_node::<SwitchNode, _>(switch, |s| s.dataplane().stats().quota_drops);
    assert!(drops > 5_000, "1 MRPS against a 10 KRPS quota: {drops}");
}

// Ablations of NetLock's design choices (DESIGN.md §6), at the smallest
// scale where the effect is unambiguous (≈ 4 ms of wall-clock per run).

const ABLATION_WARMUP: SimDuration = SimDuration::from_millis(2);
const ABLATION_MEASURE: SimDuration = SimDuration::from_millis(8);

/// The skewed workload that motivates runtime-adjustable regions
/// (Figure 5): 4 heavily contended locks (16 workers each) and 252
/// near-idle locks. Contention-sized regions need 33 slots on the hot
/// locks and 1 elsewhere; a static equal split cannot express that.
const HOT: u32 = 4;
const COLD: u32 = 252;
const CAPACITY: u32 = 4 * 33 + 252; // exactly the sized footprint

fn skew_stats() -> Vec<LockStats> {
    let stat = |lock, rate, contention| LockStats {
        lock: LockId(lock),
        rate,
        contention,
        home_server: 0,
    };
    (0..HOT)
        .map(|l| stat(l, 1_000.0, 33))
        .chain((HOT..HOT + COLD).map(|l| stat(l, 1.0, 1)))
        .collect()
}

/// Lock throughput (requests/s) of the skewed workload over `alloc`.
fn run_skew(alloc: &Allocation) -> f64 {
    let mut rack = Rack::build(RackConfig {
        seed: 71,
        lock_servers: 1,
        ..Default::default()
    });
    rack.program(alloc);
    // Two clients of 16 workers hammer the hot locks; one client roams
    // the cold ones.
    for _ in 0..2 {
        rack.add_txn_client(
            TxnClientConfig {
                workers: 16,
                ..Default::default()
            },
            // Zero think: the grant-handoff path dominates, which is
            // exactly where a starved q1 pays the q2 round trips.
            Box::new(exclusive_source(HOT, 0)),
        );
    }
    rack.add_txn_client(
        TxnClientConfig {
            workers: 8,
            ..Default::default()
        },
        Box::new(SingleLockSource {
            locks: (HOT..HOT + COLD).map(LockId).collect(),
            mode: LockMode::Exclusive,
            think: SimDuration::from_micros(20),
        }),
    );
    warmup_and_measure(&mut rack, ABLATION_WARMUP, ABLATION_MEASURE).lock_rps()
}

/// Pooled shared queue vs static equal partitions: the shared queue
/// exists so per-lock regions can be sized to measured contention; the
/// ablation splits the same memory equally (1 slot per lock) and loses
/// throughput to fragmentation.
#[test]
fn pooled_regions_beat_equal_partitions_on_skew() {
    let stats = skew_stats();
    let pooled = run_skew(&knapsack_allocate(&stats, CAPACITY));
    let equal = run_skew(&Allocation {
        in_switch: stats
            .iter()
            .map(|s| (s.lock, CAPACITY / (HOT + COLD), s.home_server))
            .collect(),
        in_server: vec![],
    });
    assert!(
        pooled > equal * 1.2,
        "contention-sized regions must beat equal partitions on skew: \
         {:.2} vs {:.2} MRPS",
        pooled / 1e6,
        equal / 1e6
    );
}

/// Mean acquire→data latency (ns) of micro clients with and without
/// §4.1's one-RTT grant forwarding.
fn run_one_rtt(one_rtt: bool) -> f64 {
    let mut rack = Rack::build(RackConfig {
        seed: 77,
        lock_servers: 1,
        db_servers: if one_rtt { 2 } else { 0 },
        ..Default::default()
    });
    let locks: Vec<LockId> = (0..256).map(LockId).collect();
    let stats = LockStats::uniform(locks.iter().copied(), 64, 1);
    rack.program(&knapsack_allocate(&stats, 100_000));
    for _ in 0..4 {
        rack.add_micro_client(MicroClientConfig {
            rate_rps: 100_000.0,
            locks: locks.clone(),
            mode: LockMode::Exclusive,
            ..Default::default()
        });
    }
    let stats = warmup_and_measure(&mut rack, ABLATION_WARMUP, ABLATION_MEASURE);
    // With one-RTT on, the client's "grant" latency already includes
    // the data fetch; without it, add the separate fetch round trip the
    // client would need (client→db→client plus db service).
    let base = stats.lock_latency_summary().avg_ns;
    if one_rtt {
        base
    } else {
        base + 2.0 * 1_200.0 + 800.0 + 5_000.0 // extra RTT + fetch + client processing
    }
}

/// One-RTT transactions vs two-step acquire-then-fetch, measured as
/// lock-to-data latency.
#[test]
fn one_rtt_forwarding_cuts_lock_to_data_latency() {
    let (one, two) = (run_one_rtt(true), run_one_rtt(false));
    assert!(
        one < two,
        "one-RTT must reduce lock+data latency: {:.1} vs {:.1} us",
        one / 1e3,
        two / 1e3
    );
}

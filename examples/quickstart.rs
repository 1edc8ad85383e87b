//! Quickstart: build a NetLock rack, run a small workload, inspect
//! the results.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use netlock_core::prelude::*;
use netlock_proto::{LockId, LockMode};

fn main() {
    // A rack: one ToR lock switch, two lock servers (Figure 2 of the
    // paper). The switch's shared queue has the paper's 100K slots.
    let mut rack = Rack::build(RackConfig {
        seed: 7,
        lock_servers: 2,
        ..Default::default()
    });

    // 1024 lock objects. Tell the control plane each lock's expected
    // request rate and contention; Algorithm 3 (fractional knapsack)
    // decides which locks live in switch memory and how many queue
    // slots each gets. Here everything fits.
    let locks: Vec<LockId> = (0..1024).map(LockId).collect();
    let stats = LockStats::uniform(locks.iter().copied(), 32, 2);
    let allocation = knapsack_allocate(&stats, 100_000);
    println!(
        "allocation: {} locks in switch ({} slots), {} on servers",
        allocation.in_switch.len(),
        allocation.slots_used(),
        allocation.in_server.len()
    );
    rack.program(&allocation);

    // Eight closed-loop clients, each running 8 transaction workers.
    // Every transaction takes one exclusive lock, holds it for 5 µs of
    // "execution", then releases.
    for _ in 0..8 {
        rack.add_txn_client(
            TxnClientConfig {
                workers: 8,
                ..Default::default()
            },
            Box::new(SingleLockSource {
                locks: locks.clone(),
                mode: LockMode::Exclusive,
                think: SimDuration::from_micros(5),
            }),
        );
    }

    // Warm up for 2 ms of simulated time, then measure 20 ms.
    let stats = warmup_and_measure(
        &mut rack,
        SimDuration::from_millis(2),
        SimDuration::from_millis(20),
    );

    let lat = stats.lock_latency_summary();
    println!("transactions committed : {}", stats.txns);
    println!("transaction throughput : {:.2} KTPS", stats.tps() / 1e3);
    println!(
        "lock throughput        : {:.2} MRPS",
        stats.lock_rps() / 1e6
    );
    println!(
        "lock grant latency     : avg {:.1} µs, p50 {:.1} µs, p99 {:.1} µs",
        lat.avg_us(),
        lat.p50_us(),
        lat.p99_us()
    );
    println!(
        "grants from switch     : {:.1}% (rest from lock servers)",
        stats.switch_share() * 100.0
    );
    assert!(stats.txns > 0, "the rack must make progress");
}

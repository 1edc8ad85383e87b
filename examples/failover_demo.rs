//! Failover demo (§4.5 / §6.5): a switch failure loses every register,
//! clients ride it out with retries and leases, and the reactivated
//! switch reboots and reloads its program.
//!
//! ```text
//! cargo run --release --example failover_demo
//! ```

use netlock_core::prelude::*;
use netlock_proto::{LockId, LockMode};

fn main() {
    let mut rack = Rack::build(RackConfig {
        seed: 99,
        lock_servers: 2,
        ..Default::default()
    });
    let locks: Vec<LockId> = (0..256).map(LockId).collect();
    let stats = LockStats::uniform(locks.iter().copied(), 32, 2);
    let allocation = knapsack_allocate(&stats, 100_000);
    rack.program(&allocation);
    for _ in 0..4 {
        rack.add_txn_client(
            TxnClientConfig {
                workers: 8,
                retry_timeout: SimDuration::from_millis(5),
                ..Default::default()
            },
            Box::new(SingleLockSource {
                locks: locks.clone(),
                mode: LockMode::Exclusive,
                think: SimDuration::from_micros(50),
            }),
        );
    }

    let interval = SimDuration::from_millis(10);
    let mut last = 0u64;
    let mut sample = |rack: &mut Rack, label: &str| {
        rack.sim.run_for(interval);
        let total: u64 = txns_by_client(rack).iter().sum();
        let tps = (total - last) as f64 / interval.as_secs_f64();
        println!(
            "t={:>5.0}ms  {:>9.0} TPS  {label}",
            rack.sim.now().as_secs_f64() * 1e3,
            tps
        );
        last = total;
    };

    println!("healthy operation:");
    for _ in 0..3 {
        sample(&mut rack, "");
    }

    println!("\n!! switch stops (all register state lost)");
    let switch = rack.switch;
    rack.sim.fail_node(switch);
    for _ in 0..3 {
        sample(&mut rack, "<- outage: packets to the switch are dropped");
    }

    println!("\n!! switch reactivated; it reboots and reloads its program");
    rack.sim.revive_node(switch);
    for _ in 0..4 {
        sample(
            &mut rack,
            "<- clients' retries re-acquire; throughput recovers",
        );
    }

    let retries: u64 = rack
        .clients
        .iter()
        .map(|&(id, _)| {
            rack.sim
                .read_node::<netlock_core::prelude::TxnClient, _>(id, |c| c.stats().retries)
        })
        .sum();
    println!("\ntotal acquire retransmissions during the run: {retries}");
}

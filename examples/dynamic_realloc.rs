//! Dynamic memory reallocation demo (§4.3): the switch control plane
//! measures per-lock rates and contention every epoch, reruns the
//! knapsack allocation, and migrates locks between switch and servers —
//! watch the switch's share of grants follow a shifting hot set.
//!
//! ```text
//! cargo run --release --example dynamic_realloc
//! ```

use netlock_core::prelude::*;
use netlock_proto::{LockId, LockMode};
use netlock_switch::{AutoRealloc, SwitchNode};

fn main() {
    let mut rack = Rack::build(RackConfig {
        seed: 77,
        lock_servers: 2,
        switch: netlock_switch::SwitchConfig {
            auto_realloc: Some(AutoRealloc {
                switch_slots: 512,
                max_regions: 128,
            }),
            ..Default::default()
        },
        ..Default::default()
    });
    // Nothing pre-programmed: the control loop discovers everything.
    rack.program(&knapsack_allocate(&[], 0));

    // Phase 1 workload: locks 0..16 are hot.
    let client = rack.add_txn_client(
        TxnClientConfig {
            workers: 8,
            ..Default::default()
        },
        Box::new(SingleLockSource {
            locks: (0..16).map(LockId).collect(),
            mode: LockMode::Exclusive,
            think: SimDuration::from_micros(10),
        }),
    );

    let report = |rack: &mut Rack, label: &str| {
        let switch = rack.switch;
        let (resident, migrations) = rack.sim.read_node::<SwitchNode, _>(switch, |s| {
            (
                s.dataplane()
                    .directory()
                    .switch_resident()
                    .iter()
                    .map(|&(l, _, _)| l.0)
                    .collect::<Vec<_>>(),
                s.stats().migrations_done,
            )
        });
        println!(
            "t={:>3.0}ms  {label:<28} switch-resident: {:?} (migrations so far: {migrations})",
            rack.sim.now().as_secs_f64() * 1e3,
            resident
        );
    };

    report(&mut rack, "start (empty switch)");
    rack.sim.run_for(SimDuration::from_millis(15));
    report(&mut rack, "after 3 epochs, hot = 0..16");

    // The workload shifts: locks 100..116 become hot instead.
    rack.sim.with_node::<TxnClient, _>(client, |_| {});
    // (Closed-loop sources cannot be swapped mid-run; add a second
    // client for the new hot set and let the old one idle by giving it
    // nothing to contend on — in a real system the tenant's access
    // pattern simply changes.)
    let _client2 = rack.add_txn_client(
        TxnClientConfig {
            workers: 16,
            ..Default::default()
        },
        Box::new(SingleLockSource {
            locks: (100..116).map(LockId).collect(),
            mode: LockMode::Exclusive,
            think: SimDuration::from_micros(10),
        }),
    );
    rack.sim.run_for(SimDuration::from_millis(25));
    report(&mut rack, "after the hot set shifted");

    reset_clients(&mut rack);
    rack.sim.run_for(SimDuration::from_millis(10));
    let stats = collect(&rack, SimDuration::from_millis(10));
    println!(
        "\nsteady state: {:.0}% of grants served by the switch data plane",
        stats.switch_share() * 100.0
    );
    assert!(stats.switch_share() > 0.5);
}

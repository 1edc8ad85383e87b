//! Policy demo: the two §4.4 policies that decentralized lock managers
//! cannot provide — service differentiation with priorities and
//! performance isolation with per-tenant quotas.
//!
//! ```text
//! cargo run --release --example policy_demo
//! ```

use netlock_core::prelude::*;
use netlock_proto::{LockId, LockMode, Priority, TenantId};
use netlock_switch::priority::PriorityLayout;
use netlock_switch::SwitchNode;

const LOCKS: u32 = 16;

fn lock_set() -> Vec<LockId> {
    (0..LOCKS).map(LockId).collect()
}

fn source(think_us: u64) -> SingleLockSource {
    SingleLockSource {
        locks: lock_set(),
        mode: LockMode::Exclusive,
        think: SimDuration::from_micros(think_us),
    }
}

/// Two tenants contend for the same exclusive locks; tenant B runs at
/// high priority. Returns (tenant_a_tps, tenant_b_tps).
fn differentiation(differentiate: bool) -> (f64, f64) {
    let mut rack = Rack::build(RackConfig {
        seed: 31,
        lock_servers: 1,
        engine: EngineSpec::Priority(PriorityLayout::new(2, 64, LOCKS as usize)),
        ..Default::default()
    });
    rack.program_priority(&lock_set());
    let a_prio = if differentiate {
        Priority(1)
    } else {
        Priority(0)
    };
    for _ in 0..3 {
        let mut src = source(20);
        rack.add_txn_client(
            TxnClientConfig {
                workers: 8,
                ..Default::default()
            },
            Box::new(move |rng: &mut netlock_sim::SimRng| {
                use netlock_core::txn::TxnSource;
                src.next_txn(rng)
                    .with_tenant(TenantId(1))
                    .with_priority(a_prio)
            }),
        );
    }
    for _ in 0..3 {
        let mut src = source(20);
        rack.add_txn_client(
            TxnClientConfig {
                workers: 8,
                ..Default::default()
            },
            Box::new(move |rng: &mut netlock_sim::SimRng| {
                use netlock_core::txn::TxnSource;
                src.next_txn(rng)
                    .with_tenant(TenantId(2))
                    .with_priority(Priority(0))
            }),
        );
    }
    let measure = SimDuration::from_millis(20);
    rack.sim.run_for(SimDuration::from_millis(2));
    reset_clients(&mut rack);
    rack.sim.run_for(measure);
    let counts = txns_by_client(&rack);
    let secs = measure.as_secs_f64();
    (
        (0..3).map(|i| counts[i]).sum::<u64>() as f64 / secs,
        (3..6).map(|i| counts[i]).sum::<u64>() as f64 / secs,
    )
}

/// Tenant 1 has 4 clients, tenant 2 has 1; quotas cap each tenant at
/// half the lock rate. Returns (tenant1_tps, tenant2_tps).
fn isolation(isolate: bool) -> (f64, f64) {
    let mut rack = Rack::build(RackConfig {
        seed: 32,
        lock_servers: 1,
        ..Default::default()
    });
    let stats = LockStats::uniform(lock_set().iter().copied(), 48, 1);
    rack.program(&knapsack_allocate(&stats, 100_000));
    if isolate {
        // Each tenant gets half of roughly the unisolated lock rate.
        let switch = rack.switch;
        rack.sim.with_node::<SwitchNode, _>(switch, |s| {
            s.set_tenant_meter(TenantId(1), 150_000, 32, 0);
            s.set_tenant_meter(TenantId(2), 150_000, 32, 0);
        });
    }
    for tenant in [1u16, 1, 1, 1, 2] {
        let mut src = source(20);
        rack.add_txn_client(
            TxnClientConfig {
                workers: 8,
                retry_timeout: SimDuration::from_millis(2),
                ..Default::default()
            },
            Box::new(move |rng: &mut netlock_sim::SimRng| {
                use netlock_core::txn::TxnSource;
                src.next_txn(rng).with_tenant(TenantId(tenant))
            }),
        );
    }
    let measure = SimDuration::from_millis(20);
    rack.sim.run_for(SimDuration::from_millis(2));
    reset_clients(&mut rack);
    rack.sim.run_for(measure);
    let counts = txns_by_client(&rack);
    let secs = measure.as_secs_f64();
    (
        (0..4).map(|i| counts[i]).sum::<u64>() as f64 / secs,
        counts[4] as f64 / secs,
    )
}

fn main() {
    println!("== Service differentiation (two equal tenants, B = high priority) ==");
    let (a, b) = differentiation(false);
    println!("  without: tenant A {a:.0} TPS, tenant B {b:.0} TPS");
    let (a, b) = differentiation(true);
    println!("  with   : tenant A {a:.0} TPS, tenant B {b:.0} TPS  <- B prioritized");

    println!();
    println!("== Performance isolation (tenant1: 4 clients, tenant2: 1 client) ==");
    let (t1, t2) = isolation(false);
    println!("  without: tenant 1 {t1:.0} TPS, tenant 2 {t2:.0} TPS");
    let (t1, t2) = isolation(true);
    println!("  with   : tenant 1 {t1:.0} TPS, tenant 2 {t2:.0} TPS  <- equal shares enforced");
}

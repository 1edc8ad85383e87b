//! Integration tests for switch–server memory management: the q1/q2
//! overflow protocol under live traffic, the measure → allocate loop,
//! and host memory under a long run.

use netlock_core::prelude::*;
use netlock_proto::{LockId, LockMode};
use netlock_server::ServerNode;
use netlock_sim::SimTime;
use netlock_switch::SwitchNode;

fn rack_with(locks: u32, per_lock_slots: u32, capacity: u32) -> Rack {
    let mut rack = Rack::build(RackConfig {
        seed: 17,
        lock_servers: 2,
        ..Default::default()
    });
    let stats: Vec<LockStats> = (0..locks)
        .map(|l| LockStats {
            lock: LockId(l),
            rate: (locks - l) as f64, // lock 0 hottest
            contention: per_lock_slots,
            home_server: (l as usize) % 2,
        })
        .collect();
    rack.program(&knapsack_allocate(&stats, capacity));
    rack
}

/// Tiny q1 regions force overflow; the q2 protocol must keep granting
/// every request exactly once and eventually drain.
#[test]
fn overflow_protocol_grants_everything_once() {
    // 2 locks × 2 slots each; 24 workers hammer them.
    let mut rack = rack_with(2, 2, 4);
    for _ in 0..3 {
        rack.add_txn_client(
            TxnClientConfig {
                workers: 8,
                ..Default::default()
            },
            Box::new(SingleLockSource {
                locks: vec![LockId(0), LockId(1)],
                mode: LockMode::Exclusive,
                think: SimDuration::from_micros(10),
            }),
        );
    }
    let stats = warmup_and_measure(
        &mut rack,
        SimDuration::from_millis(5),
        SimDuration::from_millis(30),
    );
    assert!(stats.txns > 300, "progress under overflow: {}", stats.txns);
    // The overflow path was actually exercised.
    let (buffered, pushed) = rack
        .lock_servers
        .iter()
        .map(|&s| {
            rack.sim
                .read_node::<ServerNode, _>(s, |n| (n.stats().q2_buffered, n.stats().q2_pushed))
        })
        .fold((0, 0), |acc, (b, p)| (acc.0 + b, acc.1 + p));
    assert!(buffered > 0, "q2 must have buffered overflow");
    assert!(pushed > 0, "q2 must have pushed back to q1");
}

/// Overflowed requests are not lost or duplicated: with a finite
/// scripted load, the number of grants equals the number of acquires.
#[test]
fn overflow_preserves_conservation() {
    let mut rack = rack_with(1, 2, 2);
    // A single closed-loop worker cycle cannot overflow; use many
    // workers and a finite measurement.
    rack.add_txn_client(
        TxnClientConfig {
            workers: 12,
            ..Default::default()
        },
        Box::new(SingleLockSource {
            locks: vec![LockId(0)],
            mode: LockMode::Exclusive,
            think: SimDuration::from_micros(5),
        }),
    );
    rack.sim
        .run_until(SimTime(SimDuration::from_millis(40).as_nanos()));
    let client_grants = rack.sim.read_node::<TxnClient, _>(rack.clients[0].0, |c| {
        c.stats().grants + c.stats().stale_grants
    });
    let switch_grants = rack.sim.read_node::<SwitchNode, _>(rack.switch, |s| {
        let d = s.dataplane().stats();
        d.grants_immediate + d.grants_on_release
    });
    // Every switch grant reached the client exactly once (closed rack,
    // no loss): the counts can differ only by in-flight messages.
    assert!(
        switch_grants.abs_diff(client_grants) <= 2,
        "switch granted {switch_grants}, client saw {client_grants}"
    );
}

/// The harvested data-plane statistics reflect live traffic and feed
/// back into an allocation that matches the real hot set.
#[test]
fn measured_stats_drive_reallocation() {
    let mut rack = rack_with(8, 8, 64);
    // Traffic only touches locks 0 and 1.
    rack.add_txn_client(
        TxnClientConfig {
            workers: 4,
            ..Default::default()
        },
        Box::new(SingleLockSource {
            locks: vec![LockId(0), LockId(1)],
            mode: LockMode::Exclusive,
            think: SimDuration::ZERO,
        }),
    );
    rack.sim.run_for(SimDuration::from_millis(10));
    let switch = rack.switch;
    let measured = rack
        .sim
        .with_node::<SwitchNode, _>(switch, |s| s.harvest_stats(0.01));
    let hot: Vec<_> = measured.iter().filter(|m| m.rate > 0.0).collect();
    let hot_ids: Vec<LockId> = hot.iter().map(|m| m.lock).collect();
    assert!(hot_ids.contains(&LockId(0)) && hot_ids.contains(&LockId(1)));
    // Reallocate with a tiny budget: the measured-hot locks win it.
    let alloc = knapsack_allocate(&measured, 8);
    let winners: Vec<LockId> = alloc.in_switch.iter().map(|&(l, _, _)| l).collect();
    assert!(winners.contains(&LockId(0)) && winners.contains(&LockId(1)));
}

/// The switch's FCFS engine and a pure server deployment agree on the
/// workload outcome (same grants, just different locations).
#[test]
fn switch_and_server_paths_agree_on_totals() {
    let run = |capacity: u32| {
        let mut rack = rack_with(16, 8, capacity);
        for _ in 0..2 {
            rack.add_txn_client(
                TxnClientConfig {
                    workers: 4,
                    ..Default::default()
                },
                Box::new(SingleLockSource {
                    locks: (0..16).map(LockId).collect(),
                    mode: LockMode::Exclusive,
                    think: SimDuration::from_micros(20),
                }),
            );
        }
        warmup_and_measure(
            &mut rack,
            SimDuration::from_millis(5),
            SimDuration::from_millis(20),
        )
    };
    let in_switch = run(1_000);
    let on_server = run(0);
    assert!(in_switch.switch_share() > 0.99);
    assert_eq!(on_server.switch_share(), 0.0);
    // Same closed-loop workload: throughput within 25% (server path is
    // slightly slower per request but not qualitatively different at
    // this low load).
    let ratio = in_switch.tps() / on_server.tps();
    assert!(
        (0.8..1.6).contains(&ratio),
        "switch {} vs server {} tps (ratio {ratio})",
        in_switch.tps(),
        on_server.tps()
    );
}

/// Host memory follows the locks in flight, not the locks ever seen:
/// on the Fig. 13 knapsack rack (TPC-C, where most server-side locks are
/// touched once and never again) the servers' lock tables are no larger
/// after 3T of simulated time than after T.
#[test]
fn steady_state_memory_is_flat() {
    use netlock_bench::{common::build_netlock_tpcc, fig13, TimeScale};

    let quick = TimeScale::of_millis(2, 10);
    let t = quick.warmup + quick.measure;
    let mut rack = build_netlock_tpcc(&fig13::spec(false));
    let mut table_entries_after = |span: SimDuration| -> usize {
        rack.sim.run_for(span);
        rack.lock_servers
            .iter()
            .map(|&s| rack.sim.read_node::<ServerNode, _>(s, |n| n.table().len()))
            .sum()
    };
    let table_t = table_entries_after(t);
    let table_3t = table_entries_after(t + t);
    assert!(table_t > 0, "the servers hold locks at T");
    assert!(
        table_3t <= 2 * table_t,
        "lock-table entries grew from {table_t} at T to {table_3t} at 3T"
    );
}

/// The paper's memory arithmetic (§5): 100K slots at 20 B ≈ 2 MB, "a
/// small portion of the tens of MB on-chip memory".
#[test]
fn memory_footprint_matches_paper() {
    use netlock_switch::shared_queue::SharedQueueLayout;
    use netlock_switch::DataPlane;
    let bytes = DataPlane::new_fcfs(&SharedQueueLayout::paper_default())
        .layout()
        .total_bytes();
    // 100K × 20 B = 2 MB of slots (+ region metadata).
    assert!(
        (2_000_000..2_500_000).contains(&bytes),
        "paper-default layout should be ≈2 MB: {bytes}"
    );
}

/// §4.5's skew claim: under a Zipf workload, a switch memory that can
/// only host the head of the popularity distribution still absorbs the
/// majority of requests — if (and only if) the allocator targets the
/// head.
#[test]
fn zipf_skew_rewards_popularity_aware_allocation() {
    use netlock_workloads::ZipfLockSource;

    let n_locks = 2_000usize;
    let head = 64usize;
    let probe = ZipfLockSource::new(0, n_locks, 0.99, LockMode::Exclusive, SimDuration::ZERO);
    let expected_share = probe.head_share(head);
    assert!(expected_share > 0.4);

    // Allocation hosting exactly the popularity head, 4 slots each.
    let head_stats: Vec<LockStats> = (0..head)
        .map(|k| LockStats {
            lock: LockId(k as u32),
            rate: 1.0 / (k + 1) as f64,
            contention: 4,
            home_server: 0,
        })
        .collect();
    let mut rack = Rack::build(RackConfig {
        seed: 61,
        lock_servers: 2,
        ..Default::default()
    });
    rack.program(&knapsack_allocate(&head_stats, (head * 4) as u32));
    for _ in 0..4 {
        rack.add_txn_client(
            TxnClientConfig {
                workers: 4,
                ..Default::default()
            },
            Box::new(ZipfLockSource::new(
                0,
                n_locks,
                0.99,
                LockMode::Exclusive,
                SimDuration::from_micros(5),
            )),
        );
    }
    let stats = warmup_and_measure(
        &mut rack,
        SimDuration::from_millis(3),
        SimDuration::from_millis(15),
    );
    // The measured switch share should track the analytic head share.
    assert!(
        (stats.switch_share() - expected_share).abs() < 0.12,
        "measured switch share {} vs Zipf head share {}",
        stats.switch_share(),
        expected_share
    );
}

//! The contract the shared per-rack builder keeps: rack 0 of a
//! `RackCluster` *is* the standalone `Rack` — same node ids, same
//! client-seed stream, same measurement, same oracle verdict — so
//! everything written against a `RackNodes` handle means the same
//! thing in both.

use netlock_bench::{tpcc_allocation, TpccRackSpec};
use netlock_core::prelude::*;
use netlock_proto::{LockId, LockMode, NetLockMsg};
use netlock_sim::{LinkConfig, Simulator};
use netlock_workloads::TpccSource;

const WARMUP: SimDuration = SimDuration::from_millis(1);
const MEASURE: SimDuration = SimDuration::from_millis(4);

fn spec() -> TpccRackSpec {
    TpccRackSpec {
        seed: 17,
        clients: 2,
        workers_per_client: 4,
        ..Default::default()
    }
}

fn rack_config() -> RackConfig {
    RackConfig {
        seed: spec().seed,
        ..Default::default()
    }
}

/// A mix of every client kind, added kind-interleaved so the two TPC-C
/// clients draw the first two values of the rack's client-seed stream
/// with other node adds in between.
fn populate(sim: &mut Simulator<NetLockMsg>, rack: &mut RackNodes) {
    // Order rows double as the micro and population lock sets: no
    // directory entry, so they take the default server route.
    let cold: Vec<LockId> = (0..16).map(|i| LockId(2_000_000_000 + i)).collect();
    rack.program(sim, &tpcc_allocation(&spec()));
    let tpcc = || Box::new(TpccSource::new(spec().tpcc_config()));
    let txn_cfg = TxnClientConfig {
        workers: spec().workers_per_client,
        ..Default::default()
    };
    rack.add_txn_client(sim, txn_cfg.clone(), tpcc());
    rack.add_micro_client(
        sim,
        MicroClientConfig {
            rate_rps: 200_000.0,
            locks: cold[..8].to_vec(),
            mode: LockMode::Shared,
            ..Default::default()
        },
    );
    rack.add_txn_client(sim, txn_cfg, tpcc());
    rack.add_population_client(
        sim,
        PopulationConfig {
            poisson: true,
            tenants: vec![TenantSpec {
                virtual_clients: 10_000,
                rate_rps_per_client: 20.0,
                locks: cold[8..].to_vec(),
                mode: LockMode::Shared,
                ..Default::default()
            }],
            ..Default::default()
        },
    );
}

#[test]
fn rack_zero_of_a_cluster_is_the_standalone_rack() {
    let mut rack = Rack::build(rack_config());
    populate(&mut rack.sim, &mut rack.nodes);
    let rack_oracle = attach_rack_oracles(
        &mut rack.sim,
        std::slice::from_ref(&rack.nodes),
        &OracleConfig::default(),
    )
    .remove(0);
    let alone = warmup_and_measure(&mut rack, WARMUP, MEASURE);

    let cross = LinkConfig::with_delay(SimDuration::from_micros(10));
    let mut cluster = RackCluster::build(&rack_config(), 1, cross);
    populate(&mut cluster.sim, &mut cluster.racks[0]);
    cluster.partition(1);
    let cluster_oracles =
        attach_rack_oracles(&mut cluster.sim, &cluster.racks, &OracleConfig::default());
    let in_cluster = cluster.warmup_and_measure(WARMUP, MEASURE).remove(0);

    assert_eq!(rack.clients, cluster.racks[0].clients, "same ids and kinds");
    assert!(alone.txns > 0 && alone.issued > 0, "every kind contributed");
    assert!(alone.grants_switch > 0 && alone.grants_server > 0);
    assert_eq!(alone, in_cluster, "field-for-field equal RunStats");
    let (a, b) = (
        rack_oracle.lock().unwrap(),
        cluster_oracles[0].lock().unwrap(),
    );
    assert!(a.counts().delivered > 0, "oracle tap saw no traffic");
    assert_eq!(a.digest(), b.digest(), "same oracle digest");
}

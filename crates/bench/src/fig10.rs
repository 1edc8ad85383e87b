//! Figures 10 and 11: system comparison under TPC-C.
//!
//! NetLock vs DSLR vs DrTM vs NetChain, in two deployments:
//! - Figure 10: ten clients, two lock servers;
//! - Figure 11: six clients, six lock servers.
//!
//! Each runs both TPC-C contention settings and reports lock
//! throughput, transaction throughput, and average / 99th-percentile
//! transaction latency.

use std::fmt::Write;

use netlock_baselines::{
    Deployment, DrtmClientConfig, DslrClientConfig, NcClientConfig, NcSwitch, Protocol, RdmaServer,
};
use netlock_core::prelude::*;
use netlock_sim::Node;

use crate::common::{build_netlock_tpcc, tpcc_sources, SystemResult, TimeScale, TpccRackSpec};
use crate::runner::Runner;

/// The four systems of the comparison, in figure row order.
const SYSTEMS: [&str; 4] = ["DSLR", "DrTM", "NetChain", "NetLock"];

/// Run one system for one deployment + contention setting.
pub fn run_system(
    system: &'static str,
    clients: usize,
    lock_servers: usize,
    high_contention: bool,
    scale: TimeScale,
    workers_per_client: usize,
) -> SystemResult {
    let contention = if high_contention { "high" } else { "low" };
    let spec = TpccRackSpec {
        clients,
        lock_servers,
        high_contention,
        workers_per_client,
        ..Default::default()
    };
    let workers = spec.workers_per_client;
    let stats = match system {
        // DSLR: RDMA bakery on `lock_servers` RDMA nodes.
        "DSLR" => measure(
            &spec,
            DslrClientConfig { workers },
            vec![RdmaServer::new(); lock_servers],
            scale,
        ),
        // DrTM: CAS fail-and-retry on the same RDMA substrate.
        "DrTM" => measure(
            &spec,
            DrtmClientConfig { workers },
            vec![RdmaServer::new(); lock_servers],
            scale,
        ),
        // NetChain: switch-only exclusive locks, no lock servers.
        "NetChain" => measure(
            &spec,
            NcClientConfig { workers },
            [NcSwitch::new(100_000)],
            scale,
        ),
        "NetLock" => {
            let mut rack = build_netlock_tpcc(&spec);
            warmup_and_measure(&mut rack, scale.warmup, scale.measure)
        }
        other => panic!("unknown system {other:?}"),
    };
    SystemResult {
        system,
        contention,
        stats,
    }
}

/// One baseline deployment of the spec's TPC-C clients over `service`.
fn measure<P: Protocol + Clone, N: Node<P::Msg> + 'static>(
    spec: &TpccRackSpec,
    cfg: P,
    service: impl IntoIterator<Item = N>,
    scale: TimeScale,
) -> RunStats {
    Deployment::build(spec.seed, cfg, service, tpcc_sources(spec))
        .measure(scale.warmup, scale.measure)
}

/// Run the four systems for one deployment + contention setting.
pub fn run_comparison(
    runner: &Runner,
    clients: usize,
    lock_servers: usize,
    high_contention: bool,
    scale: TimeScale,
) -> Vec<SystemResult> {
    run_comparison_with_workers(runner, clients, lock_servers, high_contention, scale, 16)
}

/// [`run_comparison`] with an explicit per-client worker count (the
/// offered load knob; the paper's clients saturate the systems).
pub fn run_comparison_with_workers(
    runner: &Runner,
    clients: usize,
    lock_servers: usize,
    high_contention: bool,
    scale: TimeScale,
    workers_per_client: usize,
) -> Vec<SystemResult> {
    runner.map(SYSTEMS.to_vec(), |system| {
        run_system(
            system,
            clients,
            lock_servers,
            high_contention,
            scale,
            workers_per_client,
        )
    })
}

/// One deployment (both contention settings) as TSV — all eight
/// system runs fan out as one batch.
pub fn render(runner: &Runner, clients: usize, lock_servers: usize, scale: TimeScale) -> String {
    // 32 workers/client ≈ the saturating offered load of the paper's
    // DPDK clients.
    let workers = 32;
    let inputs: Vec<(bool, &'static str)> = [false, true]
        .into_iter()
        .flat_map(|high| SYSTEMS.into_iter().map(move |s| (high, s)))
        .collect();
    let rows = runner.map(inputs, |(high, system)| {
        run_system(system, clients, lock_servers, high, scale, workers)
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# System comparison under TPC-C: {clients} clients, {lock_servers} lock servers, {workers} workers/client"
    );
    let _ = writeln!(out, "{}", SystemResult::tsv_header());
    for r in rows {
        let _ = writeln!(out, "{}", r.tsv());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlock_sim::SimDuration;

    #[test]
    fn netlock_wins_the_comparison() {
        let scale = TimeScale {
            warmup: SimDuration::from_millis(2),
            measure: SimDuration::from_millis(10),
        };
        let results = run_comparison(&Runner::with_threads(1), 8, 2, false, scale);
        let tps = |name: &str| {
            results
                .iter()
                .find(|r| r.system == name)
                .map(|r| r.stats.tps())
                .unwrap()
        };
        let netlock = tps("NetLock");
        let dslr = tps("DSLR");
        let drtm = tps("DrTM");
        assert!(
            netlock > 3.0 * dslr,
            "NetLock {netlock} should beat DSLR {dslr} by a wide margin"
        );
        assert!(netlock > drtm, "NetLock {netlock} should beat DrTM {drtm}");
    }
}

//! Figure 15: failure handling.
//!
//! TPC-C runs steadily; the switch is stopped (drops everything,
//! retains no state), then reactivated with wiped registers and a
//! reprogrammed directory, exactly like §6.5's experiment. Clients
//! keep retrying during the outage; leases clear stranded holders.
//! Throughput drops to zero during the outage and returns to the
//! pre-failure level right after reactivation.

use netlock_core::prelude::*;
use netlock_sim::{FaultAction, SimDuration, SimTime, TimeSeries};

use crate::common::{build_netlock_tpcc, TpccRackSpec};

/// The failure experiment's timeline and result.
#[derive(Clone, Debug)]
pub struct FailureResult {
    /// TPS over time.
    pub series: TimeSeries,
    /// When the switch was stopped.
    pub fail_at: SimDuration,
    /// When the switch was reactivated.
    pub revive_at: SimDuration,
    /// Packets the links dropped.
    pub net_lost: u64,
    /// Extra packet copies the links created.
    pub net_duplicated: u64,
    /// Packets delivered out of order on faulted links.
    pub net_reordered: u64,
    /// Packets that arrived at the dead switch and vanished.
    pub net_to_dead: u64,
}

/// Run the failure timeline: fail at `fail_at`, revive at `revive_at`,
/// sample every `interval` until `total`.
pub fn run_failure(
    fail_at: SimDuration,
    revive_at: SimDuration,
    interval: SimDuration,
    total: SimDuration,
) -> FailureResult {
    assert!(fail_at < revive_at && revive_at < total);
    let spec = TpccRackSpec {
        clients: 10,
        lock_servers: 2,
        workers_per_client: 4,
        think_override: Some(SimDuration::from_micros(500)),
        retry_timeout: SimDuration::from_millis(10),
        ..Default::default()
    };
    let mut rack = build_netlock_tpcc(&spec);
    let switch = rack.switch;
    rack.sim
        .schedule_fault(SimTime(fail_at.as_nanos()), FaultAction::FailNode(switch));
    // "The switch retains none of its former state or register values":
    // it reboots and reloads its program.
    rack.sim.schedule_fault(
        SimTime(revive_at.as_nanos()),
        FaultAction::ReviveNode(switch),
    );

    let mut series = TimeSeries::new();
    let mut last: u64 = 0;
    let mut t = SimDuration::ZERO;
    while t < total {
        let next = t + interval;
        rack.sim.run_until(SimTime(next.as_nanos()));
        let now_total: u64 = txns_by_client(&rack).iter().sum();
        series.push(
            rack.sim.now(),
            (now_total - last) as f64 / interval.as_secs_f64(),
        );
        last = now_total;
        t = next;
    }
    let net = rack.sim.stats();
    FailureResult {
        series,
        fail_at,
        revive_at,
        net_lost: net.packets_lost,
        net_duplicated: net.packets_duplicated,
        net_reordered: net.packets_reordered,
        net_to_dead: net.packets_to_dead_node,
    }
}

/// The throughput time series as TSV. The timeline is one simulation
/// (inherently sequential); `quick` shrinks every window by 4× so the
/// row count is unchanged.
pub fn render(quick: bool) -> String {
    use std::fmt::Write;
    let div = if quick { 4 } else { 1 };
    let r = run_failure(
        SimDuration::from_millis(2_000 / div),
        SimDuration::from_millis(3_000 / div),
        SimDuration::from_millis(200 / div),
        SimDuration::from_millis(6_000 / div),
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Figure 15: switch stopped at {:.1}s, reactivated at {:.1}s",
        r.fail_at.as_secs_f64(),
        r.revive_at.as_secs_f64()
    );
    let _ = writeln!(
        out,
        "# network: lost={} duplicated={} reordered={} to_dead_switch={}",
        r.net_lost, r.net_duplicated, r.net_reordered, r.net_to_dead
    );
    let _ = writeln!(out, "time_s\ttps");
    for &(t, tps) in r.series.points() {
        let _ = writeln!(out, "{:.2}\t{:.0}", t.as_secs_f64(), tps);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_drops_and_recovers() {
        let r = run_failure(
            SimDuration::from_millis(300),
            SimDuration::from_millis(500),
            SimDuration::from_millis(100),
            SimDuration::from_millis(1_200),
        );
        let pts = r.series.points();
        // Window indices: [0,100),[100,200),... failure at 300 ms.
        let before = pts[1].1.max(pts[2].1);
        // Outage windows (300–500 ms): index 3 and 4.
        let during = pts[3].1.min(pts[4].1);
        // Recovery: last three windows.
        let after = pts[pts.len() - 3..]
            .iter()
            .map(|p| p.1)
            .fold(0.0f64, f64::max);
        assert!(before > 1_000.0, "healthy throughput first: {before}");
        assert!(
            during < before * 0.2,
            "outage must crater throughput: {during} vs {before}"
        );
        assert!(
            after > before * 0.6,
            "reactivation must restore throughput: {after} vs {before}"
        );
    }
}

//! Figure 12: policy support.
//!
//! (a) Service differentiation with priorities: two tenants of five
//! clients each share a TPC-C database; the high-priority tenant
//! arrives mid-run. Without differentiation, throughput splits evenly;
//! with per-stage priority queues, the high-priority tenant is served
//! first.
//!
//! (b) Performance isolation with per-tenant quotas: tenant 1 has
//! seven clients, tenant 2 has three. Without isolation, tenant 1
//! crowds out tenant 2; with token-bucket meters set to half the
//! measured system capacity each, both get their share.

use netlock_core::prelude::*;
use netlock_proto::{Priority, TenantId};
use netlock_sim::{SimDuration, TimeSeries};
use netlock_switch::priority::PriorityLayout;
use netlock_switch::SwitchNode;
use netlock_workloads::{tpcc::ids, TpccConfig, TpccSource};

/// Shared-database TPC-C config for the policy experiments (both
/// tenants hit the same 10 warehouses → real cross-tenant contention).
fn policy_tpcc(tenant: TenantId, priority: Priority) -> TpccConfig {
    TpccConfig {
        warehouses: 10,
        think_override: Some(SimDuration::from_micros(500)),
        tenant,
        priority,
        ..Default::default()
    }
}

/// Hot locks (warehouses + districts) of the shared database.
fn hot_locks() -> Vec<netlock_proto::LockId> {
    let mut v = Vec::new();
    for w in 0..10 {
        v.push(ids::warehouse(w));
        for d in 0..10 {
            v.push(ids::district(w, d));
        }
    }
    v
}

/// Per-tenant throughput series from panel (a).
#[derive(Clone, Debug)]
pub struct DiffResult {
    /// Low-priority tenant's TPS over time.
    pub low: TimeSeries,
    /// High-priority tenant's TPS over time.
    pub high: TimeSeries,
}

/// Panel (a): run with or without service differentiation.
///
/// The low-priority tenant (5 clients) runs from t = 0; the
/// high-priority tenant (5 clients) arrives at `arrival`. Sampled at
/// `interval` for `intervals` windows.
pub fn run_differentiation(
    differentiate: bool,
    arrival: SimDuration,
    interval: SimDuration,
    intervals: usize,
) -> DiffResult {
    let workers = 4;
    let mut rack = Rack::build(RackConfig {
        seed: 12,
        lock_servers: 2,
        engine: EngineSpec::Priority(PriorityLayout::new(2, 64, 128)),
        ..Default::default()
    });
    // Hot locks in the switch; cold ones default-route to the servers.
    rack.program_priority(&hot_locks());
    // Tenant 1: low priority (level 1 when differentiating).
    let low_prio = if differentiate {
        Priority(1)
    } else {
        Priority(0)
    };
    for _ in 0..5 {
        rack.add_txn_client(
            TxnClientConfig {
                workers,
                ..Default::default()
            },
            Box::new(TpccSource::new(policy_tpcc(TenantId(1), low_prio))),
        );
    }
    // Tenant 2: high priority, arrives later.
    for _ in 0..5 {
        rack.add_txn_client(
            TxnClientConfig {
                workers,
                start_delay: arrival,
                ..Default::default()
            },
            Box::new(TpccSource::new(policy_tpcc(TenantId(2), Priority(0)))),
        );
    }
    // Sample per-tenant TPS: clients 0..5 are tenant 1, 5..10 tenant 2.
    let mut low = TimeSeries::new();
    let mut high = TimeSeries::new();
    let mut last = txns_by_client(&rack);
    for _ in 0..intervals {
        rack.sim.run_for(interval);
        let now_counts = txns_by_client(&rack);
        let secs = interval.as_secs_f64();
        let d_low: u64 = (0..5).map(|i| now_counts[i] - last[i]).sum();
        let d_high: u64 = (5..10).map(|i| now_counts[i] - last[i]).sum();
        low.push(rack.sim.now(), d_low as f64 / secs);
        high.push(rack.sim.now(), d_high as f64 / secs);
        last = now_counts;
    }
    DiffResult { low, high }
}

/// Per-tenant totals from panel (b).
#[derive(Clone, Copy, Debug)]
pub struct IsolationResult {
    /// Tenant 1 (7 clients) TPS.
    pub tenant1_tps: f64,
    /// Tenant 2 (3 clients) TPS.
    pub tenant2_tps: f64,
}

/// Panel (b): run with or without per-tenant quota meters.
///
/// Isolation only matters when tenants compete for a *shared resource*:
/// here the single lock server is the bottleneck (each tenant's offered
/// load alone exceeds half its capacity), so the meters genuinely
/// reassign capacity rather than just slowing one tenant.
pub fn run_isolation(isolate: bool, scale: crate::common::TimeScale) -> IsolationResult {
    let workers = 48;
    // Disjoint per-tenant warehouse ranges sized so each tenant has the
    // same per-warehouse worker density: tenants contend for the lock
    // manager's capacity, not for each other's rows, and each tenant's
    // solo demand exceeds half of it.
    let tenant_cfg = |tenant: u16| TpccConfig {
        warehouses: if tenant == 1 { 60 } else { 26 },
        warehouse_base: if tenant == 1 { 0 } else { 60 },
        think_override: Some(SimDuration::from_micros(100)),
        tenant: TenantId(tenant),
        ..Default::default()
    };
    let build = |with_meters: Option<u64>| -> Rack {
        let mut rack = Rack::build(RackConfig {
            seed: 13,
            lock_servers: 1,
            server: netlock_server::ServerConfig {
                service: SimDuration::from_nanos(1_500),
                ..Default::default()
            },
            ..Default::default()
        });
        // Hot rows (both tenants' ranges) live in the switch; the cold
        // customer/order traffic hits the lock server — the contended
        // resource the meters arbitrate.
        let mut stats = netlock_workloads::hot_lock_stats(&tenant_cfg(1), 7 * workers as u32, 1);
        stats.extend(netlock_workloads::hot_lock_stats(
            &tenant_cfg(2),
            3 * workers as u32,
            1,
        ));
        rack.program(&netlock_core::prelude::knapsack_allocate_bounded(
            &stats, 100_000, 10_000,
        ));
        if let Some(rate) = with_meters {
            let switch = rack.switch;
            rack.sim.with_node::<SwitchNode, _>(switch, |s| {
                s.set_tenant_meter(TenantId(1), rate, 64, 0);
                s.set_tenant_meter(TenantId(2), rate, 64, 0);
            });
        }
        for _ in 0..7 {
            rack.add_txn_client(
                TxnClientConfig {
                    workers,
                    retry_timeout: SimDuration::from_millis(5),
                    ..Default::default()
                },
                Box::new(TpccSource::new(tenant_cfg(1))),
            );
        }
        for _ in 0..3 {
            rack.add_txn_client(
                TxnClientConfig {
                    workers,
                    retry_timeout: SimDuration::from_millis(5),
                    ..Default::default()
                },
                Box::new(TpccSource::new(tenant_cfg(2))),
            );
        }
        rack
    };

    let quota = if isolate {
        // Calibrate: measure total lock request rate without meters,
        // then give each tenant half (the paper's equal shares).
        let mut cal = build(None);
        let s = warmup_and_measure(&mut cal, scale.warmup, scale.measure);
        Some((s.lock_rps() / 2.0) as u64)
    } else {
        None
    };
    let mut rack = build(quota);
    rack.sim.run_for(scale.warmup);
    reset_clients(&mut rack);
    rack.sim.run_for(scale.measure);
    let counts = txns_by_client(&rack);
    let secs = scale.measure.as_secs_f64();
    IsolationResult {
        tenant1_tps: (0..7).map(|i| counts[i]).sum::<u64>() as f64 / secs,
        tenant2_tps: (7..10).map(|i| counts[i]).sum::<u64>() as f64 / secs,
    }
}

enum PanelResult {
    Diff(DiffResult),
    Iso(IsolationResult),
}

/// Both panels as TSV: the two differentiation timelines and the two
/// isolation runs fan out as one batch of four jobs. `quick` shrinks
/// the simulated timelines (same row counts, smoke-test scale).
pub fn render(runner: &crate::runner::Runner, quick: bool) -> String {
    use std::fmt::Write;
    let (interval_ms, arrival_ms) = if quick { (20, 120) } else { (100, 600) };
    let interval = SimDuration::from_millis(interval_ms);
    let intervals = 20;
    let arrival = SimDuration::from_millis(arrival_ms);
    let iso_scale = if quick {
        crate::common::TimeScale {
            warmup: SimDuration::from_millis(5),
            measure: SimDuration::from_millis(40),
        }
    } else {
        crate::common::TimeScale {
            warmup: SimDuration::from_millis(20),
            measure: SimDuration::from_millis(200),
        }
    };
    let jobs: Vec<crate::runner::Job<'_, PanelResult>> = vec![
        Box::new(move || {
            PanelResult::Diff(run_differentiation(false, arrival, interval, intervals))
        }),
        Box::new(move || {
            PanelResult::Diff(run_differentiation(true, arrival, interval, intervals))
        }),
        Box::new(move || PanelResult::Iso(run_isolation(false, iso_scale))),
        Box::new(move || PanelResult::Iso(run_isolation(true, iso_scale))),
    ];
    let mut results = runner.run(jobs).into_iter();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Figure 12(a): service differentiation (high-prio tenant arrives at {:.1} s)",
        arrival.as_secs_f64()
    );
    for label in ["without", "with"] {
        let PanelResult::Diff(r) = results.next().expect("diff panel") else {
            unreachable!("job order");
        };
        let _ = writeln!(out, "## {label} differentiation");
        let _ = writeln!(out, "time_s\tlow_prio_tps\thigh_prio_tps");
        for (i, (t, lo)) in r.low.points().iter().enumerate() {
            let hi = r.high.points()[i].1;
            let _ = writeln!(out, "{:.2}\t{:.0}\t{:.0}", t.as_secs_f64(), lo, hi);
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "# Figure 12(b): performance isolation (tenant1: 7 clients, tenant2: 3 clients)"
    );
    let _ = writeln!(out, "mode\ttenant1_tps\ttenant2_tps");
    for label in ["without_isolation", "with_isolation"] {
        let PanelResult::Iso(r) = results.next().expect("iso panel") else {
            unreachable!("job order");
        };
        let _ = writeln!(out, "{}\t{:.0}\t{:.0}", label, r.tenant1_tps, r.tenant2_tps);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differentiation_prioritizes_high_tenant() {
        let interval = SimDuration::from_millis(50);
        let arrival = SimDuration::from_millis(100);
        let r = run_differentiation(true, arrival, interval, 8);
        // After arrival, the high-priority tenant should clearly beat
        // the low-priority one.
        let late_low: f64 = r.low.points()[4..].iter().map(|p| p.1).sum();
        let late_high: f64 = r.high.points()[4..].iter().map(|p| p.1).sum();
        assert!(
            late_high > 1.3 * late_low,
            "high prio {late_high} should dominate low prio {late_low}"
        );
    }

    #[test]
    fn no_differentiation_splits_evenly() {
        let interval = SimDuration::from_millis(50);
        let arrival = SimDuration::from_millis(100);
        let r = run_differentiation(false, arrival, interval, 8);
        let late_low: f64 = r.low.points()[4..].iter().map(|p| p.1).sum();
        let late_high: f64 = r.high.points()[4..].iter().map(|p| p.1).sum();
        let ratio = late_high / late_low.max(1.0);
        assert!(
            (0.6..1.7).contains(&ratio),
            "equal priority should be near-even: ratio {ratio}"
        );
    }

    #[test]
    fn isolation_evens_out_tenants() {
        let scale = crate::common::TimeScale {
            warmup: SimDuration::from_millis(10),
            measure: SimDuration::from_millis(80),
        };
        let without = run_isolation(false, scale);
        let with = run_isolation(true, scale);
        // Unisolated: 7 clients crowd out 3.
        assert!(
            without.tenant1_tps > 1.5 * without.tenant2_tps,
            "without isolation tenant1 should dominate: {without:?}"
        );
        // Isolated: shares are much closer.
        let ratio_with = with.tenant1_tps / with.tenant2_tps.max(1.0);
        let ratio_without = without.tenant1_tps / without.tenant2_tps.max(1.0);
        assert!(
            ratio_with < ratio_without,
            "isolation must narrow the gap: {ratio_with} vs {ratio_without}"
        );
    }
}

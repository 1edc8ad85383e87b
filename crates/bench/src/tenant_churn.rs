//! Beyond-paper scenario: hot-key tenant churn at 100K+ virtual
//! clients.
//!
//! One rack, one aggregate population node, many tenants contending in
//! exclusive mode. The "hot" identity rotates: each tenant in turn
//! runs a burst episode that multiplies its arrival rate and focuses
//! most of its requests on one hot key, so over the run the overload
//! churns through every tenant. The per-tenant time series shows the
//! bursting tenant's latency tail and window throttling spike while
//! the other tenants ride through — the aggregate node's dense
//! per-tenant rows are what make this observable without one sim node
//! per client.

use std::fmt::Write;

use netlock_core::prelude::*;
use netlock_proto::{LockId, LockMode, TenantId};

/// Lock-set size; the rotating burst piles onto the last lock.
pub const LOCKS: u32 = 64;

/// The shared hot key.
pub const HOT_LOCK: LockId = LockId(LOCKS - 1);

/// Series buckets per tenant burst turn.
pub const BUCKETS_PER_TURN: usize = 2;

/// Scenario shape.
#[derive(Clone, Debug)]
pub struct TenantChurnSpec {
    /// Simulation seed.
    pub seed: u64,
    /// Tenants; each takes one burst turn.
    pub tenants: usize,
    /// Virtual clients across all tenants, split evenly.
    pub virtual_clients: u64,
    /// Base offered load per virtual client, requests/second.
    pub rate_rps_per_client: f64,
    /// Burst rate multiplier while a tenant holds the hot turn.
    pub burst_multiplier: f64,
    /// Fraction of a bursting tenant's requests aimed at the hot key.
    pub hot_fraction: f64,
    /// In-flight cap per tenant (the visible throttling knob).
    pub max_outstanding: u64,
    /// Warmup window (excluded from the series).
    pub warmup: SimDuration,
    /// Series bucket width; each tenant's burst turn spans
    /// [`BUCKETS_PER_TURN`] buckets.
    pub interval: SimDuration,
}

impl TenantChurnSpec {
    /// The committed `results/tenant_churn.tsv` scale.
    pub fn full() -> TenantChurnSpec {
        TenantChurnSpec {
            seed: 91,
            tenants: 8,
            virtual_clients: 200_000,
            rate_rps_per_client: 1.0,
            burst_multiplier: 8.0,
            hot_fraction: 0.8,
            max_outstanding: 2_000,
            warmup: SimDuration::from_millis(10),
            interval: SimDuration::from_millis(10),
        }
    }

    /// Smoke-test scale, same TSV shape.
    pub fn quick() -> TenantChurnSpec {
        TenantChurnSpec {
            virtual_clients: 40_000,
            interval: SimDuration::from_millis(5),
            ..TenantChurnSpec::full()
        }
    }

    /// Buckets in the series (one burst turn per tenant).
    pub fn intervals(&self) -> usize {
        self.tenants * BUCKETS_PER_TURN
    }

    /// Total measurement window.
    pub fn measure(&self) -> SimDuration {
        SimDuration(self.interval.as_nanos() * self.intervals() as u64)
    }

    fn tenant(&self, t: usize) -> TenantSpec {
        let turn = SimDuration(self.interval.as_nanos() * BUCKETS_PER_TURN as u64);
        TenantSpec {
            tenant: TenantId(t as u16),
            virtual_clients: self.virtual_clients / self.tenants as u64,
            rate_rps_per_client: self.rate_rps_per_client,
            locks: (0..LOCKS).map(LockId).collect(),
            mode: LockMode::Exclusive,
            max_outstanding: self.max_outstanding,
            bursts: vec![BurstEpisode {
                start_ns: self.warmup.as_nanos() + turn.as_nanos() * t as u64,
                duration: turn,
                multiplier: self.burst_multiplier,
                hot_lock: Some(HOT_LOCK),
                hot_fraction: self.hot_fraction,
            }],
            ..Default::default()
        }
    }
}

/// Build the single-rack churn scenario.
pub fn build_rack(spec: &TenantChurnSpec) -> (Rack, netlock_sim::NodeId) {
    let mut rack = Rack::build(RackConfig {
        seed: spec.seed,
        lock_servers: 1,
        engine: EngineSpec::Fcfs(netlock_switch::shared_queue::SharedQueueLayout::small(
            2, 16_384, 64,
        )),
        ..Default::default()
    });
    let stats = LockStats::uniform((0..LOCKS).map(LockId), 500, 1);
    rack.program(&knapsack_allocate(&stats, 32_000));
    let pop = rack.add_population_client(PopulationConfig {
        poisson: true,
        tenants: (0..spec.tenants).map(|t| spec.tenant(t)).collect(),
        ..Default::default()
    });
    (rack, pop)
}

/// One series bucket for one tenant.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantBucket {
    /// Bucket end, ms since simulation start.
    pub t_ms: f64,
    /// Tenant index.
    pub tenant: u16,
    /// True while this tenant holds the hot burst turn.
    pub bursting: bool,
    /// Requests issued in the bucket.
    pub issued: u64,
    /// Grants received in the bucket.
    pub grants: u64,
    /// Arrivals dropped on the tenant's full window.
    pub throttled: u64,
    /// 99th-percentile acquire→grant latency, µs.
    pub p99_us: f64,
}

/// Run the scenario and return the per-(bucket, tenant) series.
pub fn run_series(spec: &TenantChurnSpec) -> Vec<TenantBucket> {
    let (mut rack, pop) = build_rack(spec);
    rack.sim.run_for(spec.warmup);
    rack.sim
        .with_node::<PopulationClient, _>(pop, |p| p.reset_stats());
    let mut out = Vec::with_capacity(spec.intervals() * spec.tenants);
    for i in 0..spec.intervals() {
        rack.sim.run_for(spec.interval);
        let t_ms =
            (spec.warmup.as_nanos() + spec.interval.as_nanos() * (i as u64 + 1)) as f64 / 1e6;
        let per_tenant = rack
            .sim
            .read_node::<PopulationClient, _>(pop, |p| p.tenant_stats());
        for (t, stats) in per_tenant.iter().enumerate() {
            out.push(TenantBucket {
                t_ms,
                tenant: stats.tenant.0,
                bursting: i / BUCKETS_PER_TURN == t,
                issued: stats.issued,
                grants: stats.grants,
                throttled: stats.throttled,
                p99_us: stats.latency_summary().p99_ns as f64 / 1e3,
            });
        }
        rack.sim
            .with_node::<PopulationClient, _>(pop, |p| p.reset_stats());
    }
    out
}

/// The scenario as TSV.
pub fn render(spec: &TenantChurnSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Tenant churn: {} virtual clients over {} tenants, exclusive mode, \
         rotating {}x burst with {:.0}% of requests on lock {}",
        spec.virtual_clients,
        spec.tenants,
        spec.burst_multiplier,
        spec.hot_fraction * 100.0,
        HOT_LOCK.0,
    );
    let _ = writeln!(
        out,
        "t_ms\ttenant\tbursting\tissued\tgrants\tthrottled\tp99_us"
    );
    for b in run_series(spec) {
        let _ = writeln!(
            out,
            "{:.1}\t{}\t{}\t{}\t{}\t{}\t{:.1}",
            b.t_ms,
            b.tenant,
            u8::from(b.bursting),
            b.issued,
            b.grants,
            b.throttled,
            b.p99_us
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_turn_rotates_and_shows_in_the_bursting_tenant() {
        let spec = TenantChurnSpec {
            virtual_clients: 20_000,
            tenants: 4,
            ..TenantChurnSpec::quick()
        };
        let series = run_series(&spec);
        assert_eq!(series.len(), spec.intervals() * spec.tenants);
        // Every tenant takes exactly one turn.
        for t in 0..spec.tenants as u16 {
            let turns = series
                .iter()
                .filter(|b| b.tenant == t && b.bursting)
                .count();
            assert_eq!(turns, BUCKETS_PER_TURN, "tenant {t}");
        }
        // While bursting, a tenant issues well above its calm rate.
        let bursting: u64 = series.iter().filter(|b| b.bursting).map(|b| b.issued).sum();
        let calm: u64 = series
            .iter()
            .filter(|b| !b.bursting)
            .map(|b| b.issued)
            .sum();
        let per_bucket_burst = bursting as f64 / spec.intervals() as f64;
        let per_bucket_calm = calm as f64 / (series.len() - spec.intervals()) as f64;
        assert!(
            per_bucket_burst > 3.0 * per_bucket_calm,
            "burst {per_bucket_burst:.0}/bucket vs calm {per_bucket_calm:.0}/bucket"
        );
    }
}

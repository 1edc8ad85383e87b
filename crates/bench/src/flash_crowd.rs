//! Beyond-paper scenario: a diurnal flash crowd from up to a million
//! virtual clients.
//!
//! The paper's evaluation stops at tens of client machines; the
//! north-star workload is "heavy traffic from millions of users". This
//! module drives that regime through aggregate population nodes
//! (`netlock_core::population`): each rack hosts one node that models
//! hundreds of thousands of virtual clients as per-tenant arrival
//! processes and ships their requests as batched events. The scenario
//! layers a slow sinusoidal diurnal swing over the base Poisson rate
//! and a flash-crowd episode — tenant 0's users piling onto one hot
//! lock at 6× their base rate for a third of the run — and reports a
//! per-rack time series TSV.
//!
//! The TSV is byte-identical for any `--sim-workers` count: racks map
//! one-to-one onto logical processes and the population nodes derive
//! all randomness from their own per-node streams.

use std::fmt::Write;
use std::time::Instant;

use netlock_core::prelude::*;
use netlock_proto::{LockId, LockMode, NetLockMsg, TenantId};
use netlock_sim::{LinkConfig, Simulator};

/// Locks per rack; the flash crowd piles onto the last one.
pub const LOCKS_PER_RACK: u32 = 64;

/// The hot key the crowd converges on.
pub const HOT_LOCK: LockId = LockId(LOCKS_PER_RACK - 1);

/// Tenants per rack; tenant 0 hosts the flash crowd.
pub const TENANTS_PER_RACK: usize = 4;

/// Scenario shape: population size, arrival model, and time windows.
#[derive(Clone, Debug)]
pub struct FlashCrowdSpec {
    /// Simulation seed.
    pub seed: u64,
    /// Racks (one aggregate population node each, one LP each).
    pub racks: usize,
    /// Virtual clients across the whole cluster, split evenly.
    pub virtual_clients: u64,
    /// Base offered load per virtual client, requests/second.
    pub rate_rps_per_client: f64,
    /// Warmup window (excluded from the series).
    pub warmup: SimDuration,
    /// Series bucket width.
    pub interval: SimDuration,
    /// Series length in buckets.
    pub intervals: usize,
}

impl FlashCrowdSpec {
    /// The committed `results/flash_crowd.tsv` scale: one million
    /// virtual clients across 8 racks, 200 ms of simulated time.
    pub fn full() -> FlashCrowdSpec {
        FlashCrowdSpec {
            seed: 90,
            racks: 8,
            virtual_clients: 1_000_000,
            rate_rps_per_client: 2.0,
            warmup: SimDuration::from_millis(20),
            interval: SimDuration::from_millis(20),
            intervals: 10,
        }
    }

    /// Smoke-test scale: 100K virtual clients, same TSV shape.
    pub fn quick() -> FlashCrowdSpec {
        FlashCrowdSpec {
            virtual_clients: 100_000,
            racks: 4,
            warmup: SimDuration::from_millis(5),
            interval: SimDuration::from_millis(5),
            intervals: 10,
            ..FlashCrowdSpec::full()
        }
    }

    /// Total measurement window.
    pub fn measure(&self) -> SimDuration {
        SimDuration(self.interval.as_nanos() * self.intervals as u64)
    }

    fn diurnal(&self) -> Diurnal {
        // One full cycle over the measured window: the first half rides
        // the peak, the second the trough.
        Diurnal {
            amplitude: 0.5,
            period: self.measure(),
        }
    }

    fn burst(&self) -> BurstEpisode {
        // The crowd arrives 20% into the window and stays for a third
        // of it, at 6x the base rate, half its requests on the hot key.
        BurstEpisode {
            start_ns: self.warmup.as_nanos() + self.measure().as_nanos() / 5,
            duration: SimDuration(self.measure().as_nanos() / 3),
            multiplier: 6.0,
            hot_lock: Some(HOT_LOCK),
            hot_fraction: 0.5,
        }
    }

    fn tenant(&self, t: usize) -> TenantSpec {
        let per_rack = self.virtual_clients / self.racks as u64;
        let per_tenant = per_rack / TENANTS_PER_RACK as u64;
        TenantSpec {
            tenant: TenantId(t as u16),
            virtual_clients: per_tenant,
            rate_rps_per_client: self.rate_rps_per_client,
            locks: (0..LOCKS_PER_RACK).map(LockId).collect(),
            mode: LockMode::Shared,
            max_outstanding: 1 << 20,
            diurnal: Some(self.diurnal()),
            bursts: if t == 0 { vec![self.burst()] } else { vec![] },
        }
    }
}

/// Program `rack` for the 64-lock scenario, every lock switch-resident
/// in a region `contention` slots deep.
fn program_rack(sim: &mut Simulator<NetLockMsg>, rack: &RackNodes, contention: u32) {
    let stats = LockStats::uniform((0..LOCKS_PER_RACK).map(LockId), contention, 1);
    rack.program(sim, &knapsack_allocate(&stats, 32_000));
}

fn rack_config(seed: u64) -> RackConfig {
    RackConfig {
        seed,
        lock_servers: 1,
        engine: EngineSpec::Fcfs(netlock_switch::shared_queue::SharedQueueLayout::small(
            2, 16_384, 64,
        )),
        ..Default::default()
    }
}

/// Build the flash-crowd cluster: `racks` racks, one Poisson-MMPP
/// population node each, programmed and ready to partition.
pub fn build_cluster(spec: &FlashCrowdSpec) -> RackCluster {
    let cross = LinkConfig::with_delay(SimDuration::from_micros(10));
    let mut cluster = RackCluster::build(&rack_config(spec.seed), spec.racks, cross);
    for r in 0..spec.racks {
        // Regions deep enough for the flash crowd's worst case.
        program_rack(&mut cluster.sim, &cluster.racks[r], 500);
        cluster.add_population_client(
            r,
            PopulationConfig {
                poisson: true,
                tenants: (0..TENANTS_PER_RACK).map(|t| spec.tenant(t)).collect(),
                ..Default::default()
            },
        );
    }
    cluster
}

/// One series bucket for one rack.
#[derive(Clone, Debug, PartialEq)]
pub struct Bucket {
    /// Bucket end, ms since simulation start.
    pub t_ms: f64,
    /// Rack index.
    pub rack: usize,
    /// Requests issued in the bucket.
    pub issued: u64,
    /// Grants received in the bucket.
    pub grants: u64,
    /// Arrivals dropped on full tenant windows.
    pub throttled: u64,
    /// Window slots reclaimed by retry timeouts.
    pub reclaimed: u64,
    /// Request-bearing events sent (batching denominator).
    pub batches: u64,
    /// Median acquire→grant latency, µs.
    pub p50_us: f64,
    /// 99th-percentile acquire→grant latency, µs.
    pub p99_us: f64,
}

/// Run the scenario partitioned across `workers` simulation threads
/// and return the per-(bucket, rack) series. The series is identical
/// for every `workers` value.
pub fn run_series(spec: &FlashCrowdSpec, workers: usize) -> Vec<Bucket> {
    let mut cluster = build_cluster(spec);
    cluster.partition(workers);
    cluster.sim.run_for(spec.warmup);
    cluster.reset_clients();
    let mut out = Vec::with_capacity(spec.intervals * spec.racks);
    for i in 0..spec.intervals {
        cluster.sim.run_for(spec.interval);
        let t_ms =
            (spec.warmup.as_nanos() + spec.interval.as_nanos() * (i as u64 + 1)) as f64 / 1e6;
        for r in 0..spec.racks {
            let &(id, _) = cluster.racks[r]
                .clients
                .first()
                .expect("one population node per rack");
            let stats = cluster
                .sim
                .read_node::<PopulationClient, _>(id, |p| p.stats());
            let lat = stats.latency_summary();
            out.push(Bucket {
                t_ms,
                rack: r,
                issued: stats.issued,
                grants: stats.grants,
                throttled: stats.throttled,
                reclaimed: stats.reclaimed,
                batches: stats.batches_sent,
                p50_us: lat.p50_ns as f64 / 1e3,
                p99_us: lat.p99_ns as f64 / 1e3,
            });
        }
        cluster.reset_clients();
    }
    out
}

/// The scenario as TSV. Deliberately omits the worker count: the file
/// is byte-identical for any `workers`.
pub fn render(spec: &FlashCrowdSpec, workers: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Flash crowd: {} virtual clients on {} racks ({} tenants/rack), \
         {:.0} rps/client base, diurnal amplitude 0.5, burst 6x on lock {} \
         (tenant 0, half its requests)",
        spec.virtual_clients, spec.racks, TENANTS_PER_RACK, spec.rate_rps_per_client, HOT_LOCK.0,
    );
    let _ = writeln!(
        out,
        "t_ms\track\tissued\tgrants\tthrottled\treclaimed\tbatches\tp50_us\tp99_us"
    );
    for b in run_series(spec, workers) {
        let _ = writeln!(
            out,
            "{:.1}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.1}\t{:.1}",
            b.t_ms,
            b.rack,
            b.issued,
            b.grants,
            b.throttled,
            b.reclaimed,
            b.batches,
            b.p50_us,
            b.p99_us
        );
    }
    out
}

/// Region depth of both `speedup_point` builds, sized the way the
/// paper's allocator would for this workload: shared-mode queues stay a
/// handful of entries deep (rate × hold ≪ region), so it reflects the
/// measured depth, not the flash-crowd worst case.
const SPEEDUP_CONTENTION: u32 = 64;

/// Per-request hold of both `speedup_point` builds (the paper's clients
/// hold each lock for the transaction span; both builds get the same
/// hold so the comparison stays apples-to-apples).
const SPEEDUP_HOLD: SimDuration = SimDuration::from_micros(10);

/// Wall-clock of the aggregate build alone: `virtual_clients` on one
/// population node, `measure` of simulated time after an untimed
/// warmup. Returns `(seconds, requests_issued)`.
fn aggregate_point(
    virtual_clients: u64,
    rate_rps_per_client: f64,
    measure: SimDuration,
    seed: u64,
) -> (f64, u64) {
    let mut agg = Rack::build(rack_config(seed));
    program_rack(&mut agg.sim, &agg.nodes, SPEEDUP_CONTENTION);
    let pop = agg.add_population_client(PopulationConfig {
        tenants: vec![TenantSpec {
            virtual_clients,
            rate_rps_per_client,
            locks: (0..LOCKS_PER_RACK).map(LockId).collect(),
            mode: LockMode::Shared,
            max_outstanding: 1 << 20,
            ..Default::default()
        }],
        hold: SPEEDUP_HOLD,
        ..Default::default()
    });
    // Untimed warmup: first-touch page faults and allocator growth
    // stay out of the measured window (the individual build gets the
    // same treatment).
    let warmup = SimDuration::from_millis(20);
    agg.sim.run_for(warmup);
    let issued_at_warmup = agg
        .sim
        .read_node::<PopulationClient, _>(pop, |p| p.stats().issued);
    let t = Instant::now();
    agg.sim.run_for(measure);
    let agg_secs = t.elapsed().as_secs_f64();
    let agg_requests = agg
        .sim
        .read_node::<PopulationClient, _>(pop, |p| p.stats().issued)
        - issued_at_warmup;
    (agg_secs, agg_requests)
}

/// Wall-clock cost of the two ways to model the same shared-queue load
/// on one rack: one aggregate node carrying `virtual_clients`, vs the
/// individual build — the same total offered rate spread over `nodes`
/// per-client `MicroClient` nodes (the densest build the ≤
/// `netlock_sim::MAX_NODES` topology admits; a literal one-node-per-
/// client build is impossible, which is the point of the aggregate).
/// Both runs use uniform arrivals, the same locks, the same allocation
/// and the same measurement window. Returns
/// `(aggregate_seconds, individual_seconds, requests_each)`.
pub fn speedup_point(
    virtual_clients: u64,
    rate_rps_per_client: f64,
    nodes: usize,
    measure: SimDuration,
    seed: u64,
) -> (f64, f64, u64) {
    let total_rate = virtual_clients as f64 * rate_rps_per_client;
    let (agg_secs, agg_requests) =
        aggregate_point(virtual_clients, rate_rps_per_client, measure, seed);

    let mut ind = Rack::build(rack_config(seed));
    program_rack(&mut ind.sim, &ind.nodes, SPEEDUP_CONTENTION);
    for _ in 0..nodes {
        ind.add_micro_client(MicroClientConfig {
            rate_rps: total_rate / nodes as f64,
            locks: (0..LOCKS_PER_RACK).map(LockId).collect(),
            mode: LockMode::Shared,
            max_outstanding: 1 << 20,
            hold: SPEEDUP_HOLD,
            ..Default::default()
        });
    }
    let warmup = SimDuration::from_millis(20);
    ind.sim.run_for(warmup);
    let t = Instant::now();
    ind.sim.run_for(measure);
    let ind_secs = t.elapsed().as_secs_f64();

    (agg_secs, ind_secs, agg_requests)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_series_shows_burst_and_byte_stable_render() {
        // Small enough to run in seconds, but with ~8 arrivals per
        // tenant-quantum so the batching demonstration below has teeth.
        let spec = FlashCrowdSpec {
            virtual_clients: 40_000,
            racks: 2,
            rate_rps_per_client: 16.0,
            ..FlashCrowdSpec::quick()
        };
        let series = run_series(&spec, 1);
        assert_eq!(series.len(), spec.intervals * spec.racks);
        // The burst window must carry visibly more load than the first
        // bucket (6x on tenant 0 = ~2.25x overall, on the diurnal peak).
        let calm: u64 = series
            .iter()
            .filter(|b| b.t_ms < 11.0)
            .map(|b| b.issued)
            .sum();
        let burst_t = (spec.burst().start_ns + spec.interval.as_nanos()) as f64 / 1e6;
        let bursty: u64 = series
            .iter()
            .filter(|b| (b.t_ms - burst_t).abs() < 0.1)
            .map(|b| b.issued)
            .sum();
        assert!(
            bursty as f64 > 1.5 * calm as f64,
            "burst bucket {bursty} vs calm bucket {calm}"
        );
        // All traffic is granted (shared mode, ample queue capacity).
        let issued: u64 = series.iter().map(|b| b.issued).sum();
        let grants: u64 = series.iter().map(|b| b.grants).sum();
        assert!(issued > 0 && grants > 0);
        // Batching: far fewer request-bearing events than requests.
        let batches: u64 = series.iter().map(|b| b.batches).sum();
        assert!(batches * 5 < issued, "batches {batches} issued {issued}");
        assert_eq!(render(&spec, 1), render(&spec, 2), "worker count leaked");
    }
}

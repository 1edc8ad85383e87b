//! Property test: an aggregate [`PopulationClient`] is *count-exact*
//! against the build it replaces — N individual [`MicroClient`]s.
//!
//! The trick that makes exact equality testable: in fluid (uniform)
//! mode with the per-client interval `1e9 / rate` equal to the
//! population quantum, every quantum accrues exactly `virtual_clients`
//! arrivals per tenant, and an individual uniform client issues
//! exactly one request per interval. Freeze both builds after K
//! intervals with `stop_generating()`, drain the in-flight tail, and
//! the per-tenant `(issued, grants)` totals — and the TSV rendered
//! from them — must agree to the byte. Latency distributions legally
//! differ (the aggregate batches arrivals onto tick boundaries; the
//! individual fleet phase-staggers), which is exactly why the
//! equivalence is defined over counts.

use proptest::prelude::*;

use netlock_core::population::QUANTUM;
use netlock_core::prelude::*;
use netlock_proto::{LockId, LockMode, TenantId};
use netlock_sim::SimDuration;
use netlock_switch::control::{knapsack_allocate, LockStats};
use netlock_switch::shared_queue::SharedQueueLayout;

/// Per-client rate (requests/second): one request per quantum. Divides
/// 1e9 exactly, so the uniform inter-arrival interval is an integer
/// nanosecond count and `rate x quantum == 1.0` holds exactly in f64.
const RATE_RPS: f64 = 10_000.0;
const INTERVAL_NS: u64 = QUANTUM.0;

#[derive(Clone, Debug)]
struct Scenario {
    /// Virtual clients per tenant (tenant i targets locks 2i, 2i+1).
    tenants: Vec<u64>,
    /// Generation intervals before both builds are frozen.
    ticks: u64,
    seed: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (prop::collection::vec(1u64..6, 1..4), 4u64..13, any::<u64>()).prop_map(
        |(tenants, ticks, seed)| Scenario {
            tenants,
            ticks,
            seed,
        },
    )
}

fn tenant_locks(ti: usize) -> Vec<LockId> {
    vec![LockId(2 * ti as u32), LockId(2 * ti as u32 + 1)]
}

fn build_rack(sc: &Scenario) -> Rack {
    let mut rack = Rack::build(RackConfig {
        seed: sc.seed,
        lock_servers: 1,
        engine: EngineSpec::Fcfs(SharedQueueLayout::small(2, 1024, 16)),
        ..Default::default()
    });
    let stats = LockStats::uniform((0..2 * sc.tenants.len() as u32).map(LockId), 600, 1);
    rack.program(&knapsack_allocate(&stats, 2_048));
    rack
}

/// `(issued, grants)` per tenant, as one TSV. Both builds render
/// through this same function; the property compares the bytes.
fn counts_tsv(rows: &[(TenantId, u64, u64)]) -> String {
    let mut out = String::from("tenant\tissued\tgrants\n");
    for &(tenant, issued, grants) in rows {
        out.push_str(&format!("{}\t{issued}\t{grants}\n", tenant.0));
    }
    out
}

/// Aggregate build: one population node carrying every tenant.
fn run_aggregate(sc: &Scenario) -> Vec<(TenantId, u64, u64)> {
    let mut rack = build_rack(sc);
    let pop = rack.add_population_client(PopulationConfig {
        tenants: sc
            .tenants
            .iter()
            .enumerate()
            .map(|(ti, &n)| TenantSpec {
                tenant: TenantId(ti as u16),
                virtual_clients: n,
                rate_rps_per_client: RATE_RPS,
                locks: tenant_locks(ti),
                mode: LockMode::Shared,
                ..Default::default()
            })
            .collect(),
        ..Default::default()
    });
    // Ticks fire at 0, q, ..., K*q: freeze between tick K and K+1.
    let horizon = sc.ticks * INTERVAL_NS + INTERVAL_NS / 2;
    rack.sim.run_for(SimDuration::from_nanos(horizon));
    rack.sim
        .with_node::<PopulationClient, _>(pop, |p| p.stop_generating());
    rack.sim.run_for(SimDuration::from_millis(2));
    rack.sim.read_node::<PopulationClient, _>(pop, |p| {
        p.tenant_stats()
            .iter()
            .map(|t| (t.tenant, t.issued, t.grants))
            .collect()
    })
}

/// Reference build: one `MicroClient` node per virtual client.
fn run_individual(sc: &Scenario) -> Vec<(TenantId, u64, u64)> {
    let mut rack = build_rack(sc);
    let mut clients = Vec::new();
    for (ti, &n) in sc.tenants.iter().enumerate() {
        for _ in 0..n {
            let id = rack.add_micro_client(MicroClientConfig {
                rate_rps: RATE_RPS,
                locks: tenant_locks(ti),
                mode: LockMode::Shared,
                tenant: TenantId(ti as u16),
                ..Default::default()
            });
            clients.push((ti, id));
        }
    }
    // Each client starts with < 1 µs jitter then issues every interval:
    // by K*q + q/2 each has issued exactly K+1 requests.
    let horizon = sc.ticks * INTERVAL_NS + INTERVAL_NS / 2;
    rack.sim.run_for(SimDuration::from_nanos(horizon));
    for &(_, id) in &clients {
        rack.sim
            .with_node::<MicroClient, _>(id, |c| c.stop_generating());
    }
    rack.sim.run_for(SimDuration::from_millis(2));
    let mut rows: Vec<(TenantId, u64, u64)> = sc
        .tenants
        .iter()
        .enumerate()
        .map(|(ti, _)| (TenantId(ti as u16), 0, 0))
        .collect();
    for &(ti, id) in &clients {
        rack.sim.read_node::<MicroClient, _>(id, |c| {
            rows[ti].1 += c.stats().issued;
            rows[ti].2 += c.stats().grants;
        });
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The aggregate node and the individual fleet it models issue and
    /// complete *identical* per-tenant request counts, and render
    /// byte-identical counts TSVs.
    #[test]
    fn aggregate_matches_individual_fleet(sc in scenario()) {
        let agg = run_aggregate(&sc);
        let ind = run_individual(&sc);
        prop_assert_eq!(&agg, &ind, "per-tenant (issued, grants) diverged");
        prop_assert_eq!(counts_tsv(&agg), counts_tsv(&ind));
        for (ti, &(_, issued, grants)) in agg.iter().enumerate() {
            // Exact count: K+1 ticks x virtual clients, fully drained.
            prop_assert_eq!(issued, (sc.ticks + 1) * sc.tenants[ti]);
            prop_assert_eq!(grants, issued, "drain must grant everything");
        }
    }

    /// The same scenario re-run from the same seed reproduces the same
    /// totals (the generators are deterministic, not just rate-exact).
    #[test]
    fn aggregate_replay_is_deterministic(sc in scenario()) {
        prop_assert_eq!(run_aggregate(&sc), run_aggregate(&sc));
    }
}

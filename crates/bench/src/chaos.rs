//! The chaos suite: seeded fault schedules over NetLock racks with the
//! lock-safety oracle attached.
//!
//! Two rack flavors are exercised — an open-loop microbenchmark rack
//! (shared + exclusive clients, no retries) and a closed-loop TPC-C
//! rack (retries, multi-lock transactions) — each with compressed
//! lease/retry timescales so a 30 ms simulated run crosses many lease
//! generations. A run is a pure function of its seed: the seed derives
//! the fault plan, every packet fate, and therefore the oracle's audit
//! log, byte for byte.
//!
//! The timeline of every run:
//!
//! ```text
//! 0 ──── 2 ms ─────────────── 20 ms ──────────── 30 ms
//!   warm      faults allowed         settle tail   finish + oracle checks
//! ```
//!
//! The fault-free tail spans several leases, so stranded holders expire
//! and retries drain before the oracle's end-of-run leak and liveness
//! checks run.

use netlock_core::prelude::*;
use netlock_proto::{LockId, LockMode, TenantId};
use netlock_server::ServerConfig;
use netlock_sim::{FaultAction, SimTime};
use netlock_switch::shared_queue::SharedQueueLayout;
use netlock_switch::{SwitchConfig, SwitchNode};

/// Compressed lease used by all chaos racks.
pub const CHAOS_LEASE: SimDuration = SimDuration::from_millis(2);
/// Sweep/control tick matching [`CHAOS_LEASE`].
pub const CHAOS_TICK: SimDuration = SimDuration::from_micros(200);
/// Total simulated time per run.
pub const CHAOS_TOTAL: SimDuration = SimDuration::from_millis(30);

/// Which rack flavor a chaos run exercises.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChaosWorkload {
    /// Open-loop micro clients (shared + exclusive, no retries).
    Micro,
    /// Closed-loop TPC-C transaction clients (retries, multi-lock).
    Tpcc,
    /// One aggregate population node (20K virtual clients, batched
    /// traffic): the fault plan shakes its links but never crashes it,
    /// and the oracle's conservation checks run over batch messages.
    Population,
}

impl ChaosWorkload {
    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ChaosWorkload::Micro => "micro",
            ChaosWorkload::Tpcc => "tpcc",
            ChaosWorkload::Population => "population",
        }
    }
}

/// Everything one chaos run produced.
#[derive(Clone, Debug)]
pub struct ChaosRun {
    /// Rack flavor.
    pub workload: ChaosWorkload,
    /// The seed that determines the entire run.
    pub seed: u64,
    /// Fault-plan events installed.
    pub plan_events: usize,
    /// Switch reboots and server restarts (the plan's revivals).
    pub restarts: usize,
    /// The oracle's event counters.
    pub counts: OracleCounts,
    /// Violations found (empty = clean).
    pub violations: Vec<Violation>,
    /// The canonical audit log (byte-identical across replays).
    pub audit: String,
    /// Grants clients consumed (progress proof).
    pub grants: u64,
    /// Transactions completed (TPC-C flavor).
    pub txns: u64,
    /// Surplus grants clients released.
    pub surplus_released: u64,
    /// Network-duplicate grants clients ignored.
    pub dup_grants_ignored: u64,
    /// Releases the switch's release guard filtered as stale.
    pub stale_releases_filtered: u64,
    /// Queue regions whose release-guard FIFO ended the run longer than
    /// the region has slots, as `(lock, outstanding, capacity)`. An
    /// outstanding grant holds a slot, so this is empty unless forced
    /// lease expiries orphaned more grants than the region has room.
    pub guard_over_capacity: Vec<(LockId, usize, u32)>,
    /// Packets the links dropped.
    pub net_lost: u64,
    /// Extra packet copies the links created.
    pub net_duplicated: u64,
    /// Packets delivered out of order on faulted links.
    pub net_reordered: u64,
}

impl ChaosRun {
    /// Whether the oracle found no violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

fn chaos_plan_config(workload: ChaosWorkload) -> ChaosPlanConfig {
    ChaosPlanConfig {
        start: SimDuration::from_millis(2),
        settle_by: SimDuration::from_millis(20),
        episodes: 8,
        max_episode: SimDuration::from_millis(3),
        // One lease plus slack: §4.5's failover grace as outage length.
        switch_outage_min: SimDuration::from_micros(2_500),
        // Open-loop micro clients never retry, so a permanently crashed
        // client strands its whole in-flight window in the queues; each
        // stranded exclusive entry stalls the lock for a full lease when
        // it reaches the head, which reads as a liveness wedge rather
        // than a fault worth injecting. TPC-C workers bound the backlog
        // (one request per worker), so crashes stay on there.
        client_crash: matches!(workload, ChaosWorkload::Tpcc),
    }
}

/// The switch/server shape the micro and population chaos racks share:
/// 2 lock servers with compressed lease and sweep timescales, 8 locks
/// homed round-robin, and half the demanded queue slots — so some locks
/// stay server-resident and the run crosses the forwarding path too.
/// Returns the programmed, client-less rack and its lock set.
fn small_chaos_rack(seed: u64) -> (Rack, Vec<LockId>) {
    let mut rack = Rack::build(RackConfig {
        seed,
        lock_servers: 2,
        server: ServerConfig {
            lease: CHAOS_LEASE,
            sweep_tick: CHAOS_TICK,
            ..Default::default()
        },
        switch: SwitchConfig {
            lease: CHAOS_LEASE,
            control_tick: CHAOS_TICK,
            ..Default::default()
        },
        engine: EngineSpec::Fcfs(SharedQueueLayout::small(2, 256, 16)),
        ..Default::default()
    });
    let locks: Vec<LockId> = (0..8).map(LockId).collect();
    let alloc = knapsack_allocate(&LockStats::uniform(locks.iter().copied(), 16, 2), 64);
    rack.program(&alloc);
    (rack, locks)
}

/// The population chaos rack: the micro rack's switch/server shape, but
/// all traffic from one aggregate node — two shared tenants plus one
/// exclusive tenant hammering a hot lock, 20K virtual clients total.
/// The window-reclaim timeout stands in for retries: batches the
/// network eats must not pin the tenant windows past the oracle's
/// wedge horizon.
pub fn build_population_chaos_rack(seed: u64) -> Rack {
    let (mut rack, locks) = small_chaos_rack(seed);
    let tenant = |t: u16, mode, locks: Vec<LockId>| TenantSpec {
        tenant: TenantId(t),
        virtual_clients: if mode == LockMode::Exclusive {
            2_000
        } else {
            9_000
        },
        rate_rps_per_client: 2.5,
        locks,
        mode,
        max_outstanding: 3_000,
        ..Default::default()
    };
    rack.add_population_client(PopulationConfig {
        poisson: true,
        tenants: vec![
            tenant(0, LockMode::Shared, locks.clone()),
            tenant(1, LockMode::Shared, locks[..4].to_vec()),
            // The exclusive tenant contends on one hot lock: a release
            // guard failure double-pops its FCFS queue, which the
            // oracle reads as overlapping exclusive holds.
            tenant(2, LockMode::Exclusive, vec![LockId(3)]),
        ],
        retry_timeout: SimDuration::from_millis(3),
        ..Default::default()
    });
    rack
}

fn oracle_config() -> OracleConfig {
    OracleConfig {
        lease_ns: CHAOS_LEASE.as_nanos(),
        // Several leases and retry timeouts: anything older is wedged.
        stall_after_ns: 6_000_000,
    }
}

/// The microbenchmark chaos rack: 2 lock servers, 8 locks (half
/// switch-resident by capacity), 4 open-loop clients — two exclusive,
/// two shared — with a generous in-flight window since lost requests
/// are never retried.
pub fn build_micro_chaos_rack(seed: u64) -> Rack {
    let (mut rack, locks) = small_chaos_rack(seed);
    for i in 0..4 {
        rack.add_micro_client(MicroClientConfig {
            rate_rps: 50_000.0,
            locks: locks.clone(),
            mode: if i < 2 {
                LockMode::Exclusive
            } else {
                LockMode::Shared
            },
            // No retry logic: the window must absorb every request the
            // network eats, or the generator wedges itself.
            max_outstanding: 100_000,
            ..Default::default()
        });
    }
    rack
}

/// The TPC-C chaos rack: 4 clients × 4 workers, compressed think and
/// retry timescales, same lease as the micro rack.
pub fn build_tpcc_chaos_rack(seed: u64) -> Rack {
    let spec = crate::common::TpccRackSpec {
        seed,
        clients: 4,
        lock_servers: 2,
        workers_per_client: 4,
        think_override: Some(SimDuration::from_micros(50)),
        retry_timeout: SimDuration::from_millis(1),
        ..Default::default()
    };
    crate::common::build_netlock_tpcc_on(
        &spec,
        RackConfig {
            server: ServerConfig {
                lease: CHAOS_LEASE,
                sweep_tick: CHAOS_TICK,
                ..Default::default()
            },
            switch: SwitchConfig {
                lease: CHAOS_LEASE,
                control_tick: CHAOS_TICK,
                ..Default::default()
            },
            ..Default::default()
        },
        TxnClientConfig {
            // Cap backoff at one lease: the oracle's wedge horizon is a
            // few leases, so retries must keep touching activity faster
            // than that even after repeated losses.
            retry_backoff_cap: CHAOS_LEASE,
            ..Default::default()
        },
    )
}

/// Sabotage switches for [`run_chaos_seed_with`]: disable one defense
/// layer to prove the oracle notices its absence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sabotage {
    /// Disable the switch's release guard (duplicated releases then
    /// double-pop FCFS queues → mutual-exclusion violations).
    pub disable_release_guard: bool,
    /// Disable txn clients' surplus-grant release (swallowed grants
    /// leak holders → conservation/leak violations).
    pub disable_surplus_release: bool,
}

/// Run one seeded chaos schedule. Everything — the fault plan, the
/// packet trace, the audit log — is a function of `(workload, seed)`.
pub fn run_chaos_seed(workload: ChaosWorkload, seed: u64) -> ChaosRun {
    run_chaos_seed_with(workload, seed, Sabotage::default())
}

/// [`run_chaos_seed`] with sabotage switches (oracle-is-live testing).
pub fn run_chaos_seed_with(workload: ChaosWorkload, seed: u64, sabotage: Sabotage) -> ChaosRun {
    let mut rack = match workload {
        ChaosWorkload::Micro => build_micro_chaos_rack(seed),
        ChaosWorkload::Tpcc => build_tpcc_chaos_rack(seed),
        ChaosWorkload::Population => build_population_chaos_rack(seed),
    };
    if sabotage.disable_release_guard {
        let switch = rack.switch;
        rack.sim
            .with_node::<SwitchNode, _>(switch, |s| s.sabotage_disable_release_guard());
    }
    if sabotage.disable_surplus_release {
        for &(id, kind) in &rack.clients.clone() {
            if kind == ClientKind::Txn {
                rack.sim
                    .with_node::<TxnClient, _>(id, |c| c.sabotage_disable_surplus_release());
            }
        }
    }
    let plan = generate_plan(seed, &rack.roles(), &chaos_plan_config(workload));
    let plan_events = plan.len();
    let restarts = (plan.events().iter())
        .filter(|ev| matches!(ev.action, FaultAction::ReviveNode(_)))
        .count();
    rack.sim.install_plan(&plan);
    let oracles = attach_rack_oracles(
        &mut rack.sim,
        std::slice::from_ref(&rack.nodes),
        &oracle_config(),
    );
    run_chaos(&mut rack.sim, SimTime(CHAOS_TOTAL.as_nanos()), &oracles);
    let stats = collect(&rack, CHAOS_TOTAL);
    let stale_releases_filtered = rack
        .sim
        .read_node::<SwitchNode, _>(rack.switch, |s| s.stats().stale_releases_filtered);
    let guard_over_capacity = rack.sim.read_node::<SwitchNode, _>(rack.switch, |s| {
        let dp = s.dataplane();
        let netlock_switch::Engine::Fcfs(q) = dp.engine() else {
            return Vec::new();
        };
        dp.directory()
            .switch_resident()
            .into_iter()
            .map(|(lock, qid, _)| (lock, dp.guard_outstanding(qid), q.cp_region(qid).capacity()))
            .filter(|&(_, outstanding, capacity)| outstanding > capacity as usize)
            .collect()
    });
    let micro_grants = stats.issued.min(stats.grants);
    let oracle = oracles[0].lock().unwrap();
    ChaosRun {
        workload,
        seed,
        plan_events,
        restarts,
        counts: oracle.counts(),
        violations: oracle.violations().to_vec(),
        audit: oracle.audit_log(),
        grants: if workload == ChaosWorkload::Tpcc {
            stats.grants
        } else {
            micro_grants
        },
        txns: stats.txns,
        surplus_released: stats.surplus_released,
        dup_grants_ignored: stats.dup_grants_ignored,
        stale_releases_filtered,
        guard_over_capacity,
        net_lost: stats.net_lost,
        net_duplicated: stats.net_duplicated,
        net_reordered: stats.net_reordered,
    }
}

/// Run `seeds_per_workload` schedules per rack flavor.
pub fn run_suite(seeds_per_workload: u64) -> Vec<ChaosRun> {
    let mut runs = Vec::new();
    for seed in 0..seeds_per_workload {
        runs.push(run_chaos_seed(ChaosWorkload::Micro, seed));
        runs.push(run_chaos_seed(ChaosWorkload::Tpcc, seed));
    }
    runs
}

/// Schedules per rack flavor: 16, or 4 at `--quick` scale.
pub fn seeds_per_workload(quick: bool) -> u64 {
    if quick {
        4
    } else {
        16
    }
}

/// What `figs chaos` prints and `results/chaos.tsv` holds: the scaling
/// line, then [`render`] of `runs`.
pub fn report(seeds_per_workload: u64, runs: &[ChaosRun]) -> String {
    format!(
        "# scaling: {seeds_per_workload} seeds per workload ({} schedules total)\n{}",
        seeds_per_workload * 2,
        render(runs)
    )
}

/// The TSV scenario report.
pub fn render(runs: &[ChaosRun]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# NetLock chaos suite: {} seeded fault schedules, lease={} ms, total={} ms",
        runs.len(),
        CHAOS_LEASE.as_nanos() as f64 / 1e6,
        CHAOS_TOTAL.as_nanos() as f64 / 1e6,
    );
    let _ = writeln!(
        out,
        "workload\tseed\tplan_events\trestarts\tnet_lost\tnet_dup\tnet_reorder\t\
         grants\ttxns\tsurplus_rel\tdup_ignored\tstale_filtered\tamnesia\tdigest\tverdict"
    );
    for r in runs {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:016x}\t{}",
            r.workload.label(),
            r.seed,
            r.plan_events,
            r.restarts,
            r.net_lost,
            r.net_duplicated,
            r.net_reordered,
            r.grants,
            r.txns,
            r.surplus_released,
            r.dup_grants_ignored,
            r.stale_releases_filtered,
            r.counts.amnesia_excused,
            {
                let mut d: u64 = 0xcbf2_9ce4_8422_2325;
                for b in r.audit.bytes() {
                    d ^= b as u64;
                    d = d.wrapping_mul(0x100_0000_01b3);
                }
                d
            },
            if r.is_clean() { "CLEAN" } else { "VIOLATED" },
        );
    }
    let dirty: Vec<&ChaosRun> = runs.iter().filter(|r| !r.is_clean()).collect();
    if dirty.is_empty() {
        let _ = writeln!(out, "# all {} schedules clean", runs.len());
    } else {
        for r in dirty {
            for v in &r.violations {
                let _ = writeln!(
                    out,
                    "# VIOLATION {}/{}: at={} kind={} {}",
                    r.workload.label(),
                    r.seed,
                    v.at_ns,
                    v.kind,
                    v.detail
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_chaos_single_seed_is_clean_and_replays() {
        let a = run_chaos_seed(ChaosWorkload::Micro, 1);
        assert!(a.is_clean(), "{}", a.audit);
        assert!(a.grants > 500, "progress despite faults: {}", a.grants);
        assert!(a.plan_events > 0);
        let b = run_chaos_seed(ChaosWorkload::Micro, 1);
        assert_eq!(a.audit, b.audit, "audit log must be byte-identical");
    }

    #[test]
    fn tpcc_chaos_single_seed_is_clean() {
        let r = run_chaos_seed(ChaosWorkload::Tpcc, 1);
        assert!(r.is_clean(), "{}", r.audit);
        assert!(r.txns > 200, "progress despite faults: {}", r.txns);
    }

    #[test]
    fn report_has_one_row_per_run() {
        let runs = run_suite(1);
        let report = render(&runs);
        let rows = report
            .lines()
            .filter(|l| l.starts_with("micro\t") || l.starts_with("tpcc\t"))
            .count();
        assert_eq!(rows, runs.len());
        assert!(report.contains("verdict"));
    }
}

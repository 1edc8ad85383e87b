//! Multi-switch failover cluster: partitioned lock space, chain
//! replication, and oracle-certified crash recovery (DESIGN.md §16).
//!
//! A [`FailoverCluster`] wires the pieces of the multi-switch
//! deployment into one simulator:
//!
//! - one [`ChainController`] (the repair control plane),
//! - `partitions × replication` [`ReplSwitch`] chain members, each
//!   programmed with its partition's slice of the lock space
//!   ([`partition_locks`]), and
//! - closed-loop [`TxnClient`]s routing per-lock through a
//!   [`PartitionMap`] and following the controller's re-broadcasts.
//!
//! The logical-process map puts the controller and every client in
//! LP 0 and each partition's chain in its own LP, so the cluster runs
//! under the conservative-window parallel spine with byte-identical
//! results at any worker count. Crash recovery is **entirely
//! in-protocol** — `FailNode`/`ReviveNode` plus the chain-repair
//! control messages; there is no harness surgery to pause for.
//!
//! [`crash_plan`] builds the canonical chaos schedule: one chain
//! member per partition crashes mid-traffic (victims drawn from the
//! plan seed, or pinned head/tail), then revives. The safety oracle
//! watches LP 0's tap — every client-side send and delivery — which is
//! sufficient for all four invariants, since grants, releases and
//! acquires all terminate at clients.
//!
//! [`partition_locks`]: netlock_switch::partition::partition_locks

use std::sync::{Arc, Mutex};

use netlock_proto::{LockId, LockMode, NetLockMsg};
use netlock_sim::{
    FaultAction, FaultPlan, NodeId, SimDuration, SimRng, SimTime, Simulator, TapEvent,
};
use netlock_switch::control::{apply_allocation, knapsack_allocate, Allocation, LockStats};
use netlock_switch::partition::{partition_locks, PartitionMap};
use netlock_switch::shared_queue::SharedQueueLayout;
use netlock_switch::{ChainController, ControllerConfig, DataPlane, ReplConfig, ReplSwitch};

use crate::chaos::run_chaos;
use crate::client_txn::{TxnClient, TxnClientConfig};
use crate::harness::{fold_all, ClientOps, RunStats};
use crate::oracle::{oracle_tap, Oracle, OracleConfig};
use crate::txn::SingleLockSource;

/// Seeds clients and the crash-plan victim draw.
const SEED: u64 = 11;
/// Lock-space partitions (one replication chain each).
pub const PARTITIONS: usize = 2;
/// Closed-loop transaction clients.
const CLIENTS: usize = 2;
/// Workers per client.
const WORKERS_PER_CLIENT: usize = 4;
/// Lock-space size; lock `l` lives in partition `l % PARTITIONS`.
const LOCKS: u32 = 8;
/// Queue-slot budget per partition's allocation.
const QUEUE_CAPACITY: u32 = 128;
/// Lease (chain heads sweep expired holders): the chaos suite's
/// compressed timescale, so a 40 ms run crosses crash, repair, and many
/// healthy lease generations.
const LEASE: SimDuration = SimDuration::from_millis(2);
/// Member ping cadence and lease-sweep granularity; sub-millisecond
/// failure detection.
const CONTROL_TICK: SimDuration = SimDuration::from_micros(200);

/// What a failover cluster varies: the chain length and the clients'
/// retransmission timescale. Everything else — [`PARTITIONS`] chains,
/// two four-worker clients over eight locks, a 2 ms lease — is fixed.
#[derive(Clone, Debug)]
pub struct FailoverConfig {
    /// Chain length per partition (1 = unreplicated).
    pub replication: usize,
    /// Client retransmission base (see [`TxnClientConfig`]).
    pub retry_timeout: SimDuration,
    /// Client backoff ceiling.
    pub retry_backoff_cap: SimDuration,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            replication: 2,
            retry_timeout: SimDuration::from_millis(1),
            retry_backoff_cap: SimDuration::from_millis(4),
        }
    }
}

/// The assembled multi-switch deployment.
pub struct FailoverCluster {
    /// The shared simulator.
    pub sim: Simulator<NetLockMsg>,
    /// The chain-repair control plane (LP 0).
    pub controller: NodeId,
    /// Transaction clients (LP 0).
    pub clients: Vec<NodeId>,
    /// `chains[p]` = partition `p`'s members, head first (LP `p + 1`).
    pub chains: Vec<Vec<NodeId>>,
    lp_of: Vec<u32>,
}

impl FailoverCluster {
    /// Assemble the cluster: controller first (node 0), then clients,
    /// then the chains partition-major. Every chain member's data plane
    /// is programmed with its partition's locks before the first event
    /// fires, and every client starts with the version-0 partition map.
    pub fn build(cfg: &FailoverConfig) -> FailoverCluster {
        assert!(cfg.replication >= 1);
        // The uniform default link delay is the partition lookahead.
        let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(SEED);
        // Predict the node layout so every component can name its peers
        // before they exist (ids are handed out sequentially).
        let controller = NodeId(0);
        let clients: Vec<NodeId> = (0..CLIENTS).map(|i| NodeId(1 + i as u32)).collect();
        let chain_base = 1 + CLIENTS as u32;
        let chains: Vec<Vec<NodeId>> = (0..PARTITIONS)
            .map(|p| {
                (0..cfg.replication)
                    .map(|m| NodeId(chain_base + (p * cfg.replication + m) as u32))
                    .collect()
            })
            .collect();
        let heads: Vec<NodeId> = chains.iter().map(|c| c[0]).collect();
        let mut lp_of = vec![0u32; 1 + CLIENTS];

        let id = sim.add_node(Box::new(ChainController::new(
            ControllerConfig { tick: CONTROL_TICK },
            chains.clone(),
            clients.clone(),
        )));
        assert_eq!(id, controller);

        let all_locks: Vec<LockId> = (0..LOCKS).map(LockId).collect();
        for (i, &want) in clients.iter().enumerate() {
            let id = sim.add_node(Box::new(TxnClient::new(
                TxnClientConfig {
                    workers: WORKERS_PER_CLIENT,
                    retry_timeout: cfg.retry_timeout,
                    retry_backoff_cap: cfg.retry_backoff_cap,
                    ..Default::default()
                },
                heads[0],
                Box::new(SingleLockSource {
                    locks: all_locks.clone(),
                    mode: LockMode::Exclusive,
                    think: SimDuration::ZERO,
                }),
                SEED ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )));
            assert_eq!(id, want);
            sim.with_node::<TxnClient, _>(id, |c| {
                c.set_partition_route(PartitionMap::new(heads.clone()));
            });
        }

        for (p, chain) in chains.iter().enumerate() {
            let alloc = partition_allocation(p as u16);
            for (m, &want) in chain.iter().enumerate() {
                let mut dp = DataPlane::new_fcfs(&SharedQueueLayout::small(2, 64, 16));
                apply_allocation(&mut dp, &alloc);
                let id = sim.add_node(Box::new(ReplSwitch::new(
                    dp,
                    alloc.clone(),
                    ReplConfig {
                        partition: p as u16,
                        member: m as u16,
                        chain: chain.clone(),
                        controller,
                        lease: LEASE,
                        control_tick: CONTROL_TICK,
                    },
                )));
                assert_eq!(id, want);
                lp_of.push(p as u32 + 1);
            }
        }

        FailoverCluster {
            sim,
            controller,
            clients,
            chains,
            lp_of,
        }
    }

    /// Split one LP per partition chain (plus LP 0) and allow `workers`
    /// threads. The uniform link delay is the lookahead.
    pub fn partition(&mut self, workers: usize) {
        self.sim.partition(self.lp_of.clone(), workers);
    }

    /// Disable chain-replication replay on every member (sabotage: the
    /// failover path silently drops the in-flight window on repair).
    #[doc(hidden)]
    pub fn sabotage_disable_replay(&mut self) {
        for chain in self.chains.clone() {
            for member in chain {
                self.sim
                    .with_node::<ReplSwitch, _>(member, |s| s.sabotage_disable_replay());
            }
        }
    }

    /// All clients' counters since the start of the run, in the shared
    /// result type.
    pub fn client_totals(&self, elapsed: SimDuration) -> RunStats {
        let clients = self
            .clients
            .iter()
            .map(|&c| (c, ClientOps::of::<TxnClient>()));
        fold_all(&self.sim, clients, elapsed)
    }
}

/// The allocation one partition's chain members are programmed with.
pub fn partition_allocation(p: u16) -> Allocation {
    let stats = LockStats::uniform(partition_locks(LOCKS, p, PARTITIONS), 16, 1);
    knapsack_allocate(&stats, QUEUE_CAPACITY)
}

/// Which chain member a crash episode kills.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VictimPick {
    /// Drawn per partition from the plan seed.
    Seeded,
    /// Always the chain head (forces a client re-route).
    Head,
    /// Always the tail (forces replay + tail promotion; leaves the
    /// client→head path untouched, so even retry-free clients see
    /// every in-flight grant).
    Tail,
}

/// Offset between consecutive partitions' crashes.
const STAGGER: SimDuration = SimDuration::from_millis(1);

/// The canonical failover chaos schedule.
#[derive(Clone, Copy, Debug)]
pub struct CrashScenario {
    /// First crash instant (mid-traffic; let the loops warm up first).
    pub crash_at: SimDuration,
    /// Crash-to-revive outage per victim.
    pub outage: SimDuration,
    /// Victim selection.
    pub victim: VictimPick,
}

impl Default for CrashScenario {
    fn default() -> Self {
        CrashScenario {
            crash_at: SimDuration::from_millis(10),
            outage: SimDuration::from_millis(6),
            victim: VictimPick::Seeded,
        }
    }
}

/// Build the crash plan: one chain member per partition fails
/// mid-traffic and revives after the outage. Pure `(cluster, scenario,
/// seed)` function; contains only `FailNode`/`ReviveNode`, so it
/// installs on a partitioned simulator.
pub fn crash_plan(cluster: &FailoverCluster, scenario: &CrashScenario) -> FaultPlan {
    let mut rng = SimRng::new(SEED ^ 0xFA11_0B5E);
    let mut plan = FaultPlan::new();
    for (p, chain) in cluster.chains.iter().enumerate() {
        let victim = match scenario.victim {
            VictimPick::Seeded => chain[rng.index(chain.len())],
            VictimPick::Head => chain[0],
            VictimPick::Tail => *chain.last().unwrap(),
        };
        let at = SimTime(scenario.crash_at.as_nanos() + STAGGER.as_nanos() * p as u64);
        let back = SimTime(at.as_nanos() + scenario.outage.as_nanos());
        plan.push(at, FaultAction::FailNode(victim));
        plan.push(back, FaultAction::ReviveNode(victim));
    }
    plan
}

/// Grant deliveries per time bucket — the availability timeline the
/// failover figure plots.
#[derive(Clone)]
pub struct GrantTimeline {
    bucket_ns: u64,
    buckets: Vec<u64>,
}

impl GrantTimeline {
    fn record(&mut self, at_ns: u64) {
        let b = (at_ns / self.bucket_ns) as usize;
        if b >= self.buckets.len() {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
    }

    /// Bucket width in nanoseconds.
    pub fn bucket_ns(&self) -> u64 {
        self.bucket_ns
    }

    /// Grant deliveries per bucket, from t = 0.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Total grants delivered in `[from, to)`.
    pub fn grants_between(&self, from: SimDuration, to: SimDuration) -> u64 {
        let (a, b) = (from.as_nanos(), to.as_nanos());
        self.buckets
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let start = *i as u64 * self.bucket_ns;
                start >= a && start < b
            })
            .map(|(_, &n)| n)
            .sum()
    }
}

/// Attach the oracle and the grant timeline to LP 0's tap (the clients'
/// LP; the whole simulation when unpartitioned). Call after
/// [`FailoverCluster::partition`]. Client-side events are enough
/// for every oracle invariant: acquires and releases are observed as
/// they leave the clients, grants as they arrive.
pub fn attach_failover_probe(
    cluster: &mut FailoverCluster,
    cfg: &OracleConfig,
    bucket: SimDuration,
) -> (Arc<Mutex<Oracle>>, Arc<Mutex<GrantTimeline>>) {
    let (oracle, mut observe) = oracle_tap(*cfg, cluster.clients.iter().copied());
    let clients: std::collections::HashSet<NodeId> = cluster.clients.iter().copied().collect();
    let timeline = Arc::new(Mutex::new(GrantTimeline {
        bucket_ns: bucket.as_nanos().max(1),
        buckets: Vec::new(),
    }));
    let t = Arc::clone(&timeline);
    let tap = Box::new(move |ev: TapEvent<'_, NetLockMsg>| {
        if let TapEvent::Delivered { at, pkt } = &ev {
            if clients.contains(&pkt.dst) && matches!(pkt.payload, NetLockMsg::Grant(_)) {
                t.lock().unwrap().record(at.as_nanos());
            }
        }
        observe(ev);
    });
    cluster.sim.set_lp_tap(0, tap);
    (oracle, timeline)
}

/// Everything one failover run produced.
pub struct FailoverRun {
    /// Replication factor the run used.
    pub replication: usize,
    /// Worker threads the simulator ran with.
    pub workers: usize,
    /// Oracle digest (byte-identical across worker counts).
    pub digest: u64,
    /// The canonical audit log.
    pub audit: String,
    /// Violations (empty = oracle-clean failover).
    pub violations: usize,
    /// Client counter totals.
    pub totals: RunStats,
    /// Grant availability timeline.
    pub timeline: GrantTimeline,
    /// The scenario's crash window, for availability queries.
    pub scenario: CrashScenario,
}

impl FailoverRun {
    /// Grants delivered inside the crash window (first crash to last
    /// revive) — the availability-under-failure number.
    pub fn crash_window_grants(&self) -> u64 {
        let from = self.scenario.crash_at;
        let to = SimDuration::from_nanos(
            self.scenario.crash_at.as_nanos()
                + self.scenario.outage.as_nanos()
                + STAGGER.as_nanos() * (PARTITIONS as u64 - 1),
        );
        self.timeline.grants_between(from, to)
    }
}

/// Run one complete failover scenario: build, partition, install the
/// crash plan, drive to `total`, finish the oracle. Byte-identical for
/// identical `(cfg, scenario, total)` at any `workers`.
pub fn run_failover(
    cfg: &FailoverConfig,
    scenario: &CrashScenario,
    workers: usize,
    total: SimDuration,
    sabotage_replay: bool,
) -> FailoverRun {
    run_prepared(cfg, scenario, workers, total, |cluster| {
        if sabotage_replay {
            cluster.sabotage_disable_replay();
        }
    })
}

/// [`run_failover`] with `prepare` applied to the freshly built cluster.
fn run_prepared(
    cfg: &FailoverConfig,
    scenario: &CrashScenario,
    workers: usize,
    total: SimDuration,
    prepare: impl FnOnce(&mut FailoverCluster),
) -> FailoverRun {
    let mut cluster = FailoverCluster::build(cfg);
    prepare(&mut cluster);
    let plan = crash_plan(&cluster, scenario);
    cluster.partition(workers);
    cluster.sim.install_plan(&plan);
    let (oracle, timeline) = attach_failover_probe(
        &mut cluster,
        &OracleConfig {
            lease_ns: LEASE.as_nanos(),
            stall_after_ns: 10_000_000,
        },
        SimDuration::from_millis(1),
    );
    let oracles = [oracle];
    run_chaos(&mut cluster.sim, SimTime(total.as_nanos()), &oracles);
    let totals = cluster.client_totals(total);
    let o = oracles[0].lock().unwrap();
    let timeline = timeline.lock().unwrap().clone();
    FailoverRun {
        replication: cfg.replication,
        workers,
        digest: o.digest(),
        audit: o.audit_log(),
        violations: o.violations().len(),
        totals,
        timeline,
        scenario: *scenario,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOTAL: SimDuration = SimDuration::from_millis(40);

    #[test]
    fn healthy_cluster_grants_across_partitions() {
        let cfg = FailoverConfig::default();
        let mut cluster = FailoverCluster::build(&cfg);
        cluster.partition(1);
        cluster
            .sim
            .run_until(SimTime(SimDuration::from_millis(8).as_nanos()));
        let totals = cluster.client_totals(SimDuration::from_millis(8));
        assert!(totals.txns > 500, "healthy throughput: {}", totals.txns);
        // Both partitions' chains applied traffic.
        for chain in &cluster.chains {
            for &m in chain {
                let applied = cluster
                    .sim
                    .read_node::<ReplSwitch, _>(m, |s| s.stats().ops_applied);
                assert!(applied > 0, "member {m} applied nothing");
            }
        }
    }

    #[test]
    fn replicated_crash_is_oracle_clean_and_worker_independent() {
        let scenario = CrashScenario::default();
        let runs: Vec<FailoverRun> = [1usize, 2, 8]
            .iter()
            .map(|&w| run_failover(&FailoverConfig::default(), &scenario, w, TOTAL, false))
            .collect();
        for r in &runs {
            assert_eq!(r.violations, 0, "oracle-clean failover:\n{}", r.audit);
            assert!(r.totals.txns > 1_000, "progress: {}", r.totals.txns);
        }
        assert_eq!(runs[0].digest, runs[1].digest, "1 vs 2 workers");
        assert_eq!(runs[0].digest, runs[2].digest, "1 vs 8 workers");
        assert_eq!(runs[0].audit, runs[1].audit);
    }

    /// Timers the controller ignores (its one live token is 1) move
    /// where the conservative windows start and nothing else: cross-LP
    /// packets keep their sender's queue key, so every same-instant tie
    /// resolves as in the plain run and the oracle sees the same events.
    #[test]
    fn no_op_controller_timers_leave_the_digest_unchanged() {
        let cfg = FailoverConfig::default();
        let scenario = CrashScenario::default();
        let plain = run_failover(&cfg, &scenario, 1, TOTAL, false);
        let padded = run_prepared(&cfg, &scenario, 1, TOTAL, |cluster| {
            for i in 0..4_000 {
                let delay = SimDuration::from_nanos(i * 9_973 + 1);
                cluster.sim.inject_timer(cluster.controller, delay, 2);
            }
        });
        assert_eq!(padded.violations, 0, "{}", padded.audit);
        assert_eq!(plain.digest, padded.digest);
        assert_eq!(plain.audit, padded.audit);
    }

    #[test]
    fn unreplicated_crash_stalls_but_replicated_sustains() {
        let scenario = CrashScenario::default();
        let run = |replication: usize| {
            let cfg = FailoverConfig {
                replication,
                ..Default::default()
            };
            run_failover(&cfg, &scenario, 1, TOTAL, false)
        };
        let solo = run(1);
        let pair = run(2);
        assert_eq!(solo.violations, 0, "factor 1 stays safe:\n{}", solo.audit);
        assert_eq!(pair.violations, 0, "factor 2 stays safe:\n{}", pair.audit);
        let solo_window = solo.crash_window_grants();
        let pair_window = pair.crash_window_grants();
        // Factor 1 loses both partitions for the whole outage; factor 2
        // splices around the victims within a few control ticks.
        assert!(
            pair_window > solo_window * 4,
            "availability: factor2={pair_window} factor1={solo_window}"
        );
    }

    #[test]
    fn sabotaged_replay_is_caught_by_the_oracle() {
        // Retry-free clients + tail crashes: the chain's replay is the
        // ONLY thing standing between a crash and lost grants. With it,
        // the run is clean; without it, the oracle reports the loss.
        let cfg = FailoverConfig {
            // No retransmission inside the run: the chain must deliver.
            retry_timeout: SimDuration::from_secs(1),
            retry_backoff_cap: SimDuration::from_secs(1),
            ..Default::default()
        };
        let scenario = CrashScenario {
            victim: VictimPick::Tail,
            ..Default::default()
        };
        let honest = run_failover(&cfg, &scenario, 2, TOTAL, false);
        assert_eq!(
            honest.violations, 0,
            "replay keeps retry-free clients whole:\n{}",
            honest.audit
        );
        let sabotaged = run_failover(&cfg, &scenario, 2, TOTAL, true);
        assert!(
            sabotaged.violations > 0,
            "oracle must catch the lost in-flight window:\n{}",
            sabotaged.audit
        );
        assert!(
            sabotaged.audit.contains("wedged-request"),
            "lost grants read as wedged acquires:\n{}",
            sabotaged.audit
        );
    }
}

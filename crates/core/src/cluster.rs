//! Multi-rack cluster assembly for parallel simulation.
//!
//! A [`RackCluster`] places `N` complete NetLock racks — each with its
//! own lock switch, lock servers, database servers and clients — inside
//! one [`Simulator`]. Each rack is a [`RackNodes`] handle: the same
//! builder and per-rack operations a standalone [`crate::rack::Rack`]
//! uses, at the simulator's next node ids (clients may be added later,
//! interleaved across racks). Which handle owns a node is the
//! logical-process map handed to [`Simulator::partition`], so the
//! cluster can be advanced by parallel worker threads under the
//! conservative-window protocol while staying byte-identical to the
//! serial run (see `netlock-sim`'s `par` module and DESIGN.md §15).
//!
//! Racks are self-contained — the paper's workloads never send lock
//! traffic across ToR switches, so cross-rack links exist only as the
//! topology entries that define the partition lookahead (their delay
//! bounds how far apart two racks' clocks may drift inside one window).
//!
//! Per-rack invariant-checking works under any worker count: a
//! partitioned simulator refuses a global tap but accepts one tap per
//! logical process, and each LP tap observes exactly its rack's
//! deliveries and timers in deterministic order.
//! [`crate::chaos::attach_rack_oracles`] uses that to give every rack
//! its own oracle, and [`crate::chaos::run_chaos`] drives a cluster
//! the way it drives a lone rack.

use netlock_proto::{LockId, NetLockMsg};
use netlock_sim::{FaultPlan, LinkConfig, NodeId, SimDuration, Simulator, Topology};
use netlock_switch::control::Allocation;

use crate::chaos::ChaosPlanConfig;
use crate::client_micro::MicroClientConfig;
use crate::client_txn::TxnClientConfig;
use crate::harness::{run_window, RunStats};
use crate::population::PopulationConfig;
use crate::rack::{RackConfig, RackNodes};
use crate::txn::TxnSource;

/// `N` NetLock racks in one simulator, partitionable one rack per
/// logical process.
pub struct RackCluster {
    /// The shared simulator; all racks' nodes live here.
    pub sim: Simulator<NetLockMsg>,
    /// Per-rack node handles, by rack index. Clients may be added
    /// through a handle directly (`racks[r].add_*_client(&mut sim, ..)`)
    /// or through the shells below.
    pub racks: Vec<RackNodes>,
    /// Link installed between every cross-rack node pair at partition
    /// time; its delay is the partition lookahead.
    cross_link: LinkConfig,
}

impl RackCluster {
    /// Build `n_racks` identical racks (no clients yet). Every rack uses
    /// `cfg` with a rack-index-mixed seed so racks behave independently
    /// but the whole cluster stays a pure function of `(cfg, n_racks)`.
    ///
    /// `cross_link` must have a positive delay: it becomes the
    /// conservative lookahead when the cluster is partitioned. Pick
    /// something like 10 µs — inter-rack RTTs dwarf in-rack ones, and a
    /// larger delay means wider (cheaper) synchronization windows.
    pub fn build(cfg: &RackConfig, n_racks: usize, cross_link: LinkConfig) -> RackCluster {
        assert!(n_racks >= 1, "cluster needs at least one rack");
        assert!(
            !cross_link.delay.is_zero(),
            "cross-rack link delay must be positive: it is the partition lookahead"
        );
        let mut sim = Simulator::new(Topology::new(cfg.link), cfg.seed);
        let racks = (0..n_racks)
            .map(|r| RackNodes::build(&mut sim, cfg, r))
            .collect();
        RackCluster {
            sim,
            racks,
            cross_link,
        }
    }

    /// Number of racks.
    pub fn rack_count(&self) -> usize {
        self.racks.len()
    }

    /// `node id -> rack index` map (the logical-process assignment).
    pub fn rack_assignment(&self) -> Vec<u32> {
        let mut rack_of = vec![0; self.sim.node_count()];
        for (r, rack) in self.racks.iter().enumerate() {
            for id in rack.node_ids() {
                rack_of[id.index()] = r as u32;
            }
        }
        rack_of
    }

    /// True once [`Self::partition`] ran with more than one rack.
    pub fn is_partitioned(&self) -> bool {
        self.sim.partitions() > 1
    }

    /// Add an open-loop microbenchmark client to `rack`.
    pub fn add_micro_client(&mut self, rack: usize, cfg: MicroClientConfig) -> NodeId {
        self.racks[rack].add_micro_client(&mut self.sim, cfg)
    }

    /// Add an aggregate client-population node to `rack`.
    pub fn add_population_client(&mut self, rack: usize, cfg: PopulationConfig) -> NodeId {
        self.racks[rack].add_population_client(&mut self.sim, cfg)
    }

    /// Add a closed-loop transaction client to `rack`.
    pub fn add_txn_client(
        &mut self,
        rack: usize,
        cfg: TxnClientConfig,
        source: Box<dyn TxnSource>,
    ) -> NodeId {
        self.racks[rack].add_txn_client(&mut self.sim, cfg, source)
    }

    /// Program `rack`'s FCFS allocation (see [`RackNodes::program`]).
    pub fn program(&mut self, rack: usize, alloc: &Allocation) {
        self.racks[rack].program(&mut self.sim, alloc);
    }

    /// Program `rack`'s priority directory: lock → sequential qid.
    pub fn program_priority(&mut self, rack: usize, locks: &[LockId]) {
        self.racks[rack].program_priority(&mut self.sim, locks);
    }

    /// Partition the cluster one rack per logical process and allow up
    /// to `workers` threads to advance it. Installs the cross-rack
    /// topology links (whose delay defines the lookahead) for every
    /// cross-rack node pair first, then hands the rack map to
    /// [`Simulator::partition`]. Call after all nodes are added and all
    /// racks are programmed; a single-rack cluster stays unpartitioned
    /// (the fused serial spine is faster than a one-LP window loop).
    pub fn partition(&mut self, workers: usize) {
        let rack_of = self.rack_assignment();
        for (a, ra) in rack_of.iter().enumerate() {
            for (b, rb) in rack_of.iter().enumerate() {
                if ra != rb {
                    self.sim.topology_mut().set_link(
                        NodeId(a as u32),
                        NodeId(b as u32),
                        self.cross_link,
                    );
                }
            }
        }
        self.sim.partition(rack_of, workers);
    }

    /// Install one fault plan per rack (index-aligned with `racks`).
    /// Plans for a partitioned cluster must not contain
    /// [`netlock_sim::FaultAction::Custom`] actions — use
    /// [`cluster_plan_config`] when generating them.
    pub fn install_plans(&mut self, plans: &[FaultPlan]) {
        assert_eq!(plans.len(), self.racks.len(), "one plan per rack");
        for plan in plans {
            self.sim.install_plan(plan);
        }
    }

    /// Zero every client's counters across all racks.
    pub fn reset_clients(&mut self) {
        for rack in &self.racks {
            rack.reset_clients(&mut self.sim);
        }
    }

    /// Aggregate one rack's client counters since the last reset (see
    /// [`RackNodes::collect`]: the `net_*` and `events_fired` fields
    /// cover the whole cluster and repeat in every rack's stats).
    pub fn collect_rack(&self, rack: usize, measured: SimDuration) -> RunStats {
        self.racks[rack].collect(&self.sim, measured)
    }

    /// Run `warmup`, zero all counters, run `measure`, and collect one
    /// [`RunStats`] per rack.
    pub fn warmup_and_measure(
        &mut self,
        warmup: SimDuration,
        measure: SimDuration,
    ) -> Vec<RunStats> {
        let clients = self.racks.iter().flat_map(RackNodes::client_ops);
        run_window(&mut self.sim, clients, warmup, measure);
        (self.racks.iter())
            .map(|rack| rack.collect(&self.sim, measure))
            .collect()
    }
}

/// Chaos-plan tuning for partitioned clusters: switch reboot and server
/// restart are disabled because their recovery rides on
/// `FaultAction::Custom` markers, which pause the whole simulator for
/// rack-level control-plane surgery — a partitioned run rejects them
/// (see `netlock-sim`'s fault validation). Link faults and permanent
/// client crashes target intra-rack pairs only, which the lookahead
/// check exempts.
pub fn cluster_plan_config() -> ChaosPlanConfig {
    ChaosPlanConfig {
        switch_reboot: false,
        server_restart: false,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{attach_rack_oracles, generate_plan, run_chaos};
    use crate::oracle::OracleConfig;
    use crate::rack::EngineSpec;
    use netlock_proto::LockMode;
    use netlock_sim::SimTime;
    use netlock_switch::control::{knapsack_allocate, LockStats};
    use netlock_switch::shared_queue::SharedQueueLayout;

    fn small_cfg(seed: u64) -> RackConfig {
        RackConfig {
            seed,
            lock_servers: 1,
            engine: EngineSpec::Fcfs(SharedQueueLayout::small(2, 64, 8)),
            ..Default::default()
        }
    }

    /// Cluster plans carry no `Custom` faults, so nothing to recover.
    fn no_custom(_: &mut Simulator<NetLockMsg>, at: SimTime, token: u64) {
        unreachable!("cluster plan fired Custom({token}) at {at:?}");
    }

    fn cross_link() -> LinkConfig {
        LinkConfig::with_delay(SimDuration::from_micros(10))
    }

    fn locks() -> Vec<LockId> {
        (0..8).map(LockId).collect()
    }

    fn programmed_cluster(seed: u64, n_racks: usize, clients: usize) -> RackCluster {
        let mut cluster = RackCluster::build(&small_cfg(seed), n_racks, cross_link());
        let stats = LockStats::uniform(locks().iter().copied(), 8, 1);
        let alloc = knapsack_allocate(&stats, 64);
        for r in 0..n_racks {
            cluster.program(r, &alloc);
            for _ in 0..clients {
                cluster.add_micro_client(
                    r,
                    MicroClientConfig {
                        rate_rps: 100_000.0,
                        locks: locks(),
                        mode: LockMode::Shared,
                        ..Default::default()
                    },
                );
            }
        }
        cluster
    }

    #[test]
    fn layout_replicates_rack_at_offsets() {
        let cluster = RackCluster::build(
            &RackConfig {
                lock_servers: 3,
                db_servers: 2,
                ..Default::default()
            },
            2,
            cross_link(),
        );
        let r0 = &cluster.racks[0];
        assert_eq!(r0.lock_servers, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(r0.switch, NodeId(3));
        assert_eq!(r0.db_servers, vec![NodeId(4), NodeId(5)]);
        let r1 = &cluster.racks[1];
        assert_eq!(r1.lock_servers, vec![NodeId(6), NodeId(7), NodeId(8)]);
        assert_eq!(r1.switch, NodeId(9));
        assert_eq!(r1.db_servers, vec![NodeId(10), NodeId(11)]);
        assert_eq!(
            cluster.rack_assignment(),
            &[0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]
        );
    }

    #[test]
    fn racks_make_progress_under_partition() {
        let mut cluster = programmed_cluster(3, 2, 2);
        cluster.partition(2);
        assert!(cluster.is_partitioned());
        assert_eq!(cluster.sim.partitions(), 2);
        let per_rack =
            cluster.warmup_and_measure(SimDuration::from_millis(1), SimDuration::from_millis(4));
        assert_eq!(per_rack.len(), 2);
        for stats in &per_rack {
            // 2 clients × 100k rps × 4 ms ≈ 800 grants.
            assert!(
                (500..1_200).contains(&stats.grants),
                "grants = {}",
                stats.grants
            );
            assert_eq!(stats.switch_share(), 1.0);
        }
    }

    #[test]
    fn worker_count_does_not_change_rack_stats() {
        let mut digests = Vec::new();
        for workers in [1, 2, 8] {
            let mut cluster = programmed_cluster(5, 3, 2);
            cluster.partition(workers);
            let per_rack = cluster
                .warmup_and_measure(SimDuration::from_millis(1), SimDuration::from_millis(3));
            let digest: Vec<(u64, u64, u64)> = per_rack
                .iter()
                .map(|s| (s.issued, s.grants, s.lock_latency_summary().p99_ns))
                .collect();
            digests.push((workers, digest));
        }
        assert_eq!(digests[0].1, digests[1].1, "1 vs 2 workers");
        assert_eq!(digests[0].1, digests[2].1, "1 vs 8 workers");
    }

    #[test]
    fn single_rack_cluster_stays_serial_and_supports_oracles() {
        let mut cluster = programmed_cluster(7, 1, 2);
        cluster.partition(4);
        assert!(!cluster.is_partitioned());
        assert_eq!(cluster.sim.partitions(), 1);
        let oracles =
            attach_rack_oracles(&mut cluster.sim, &cluster.racks, &OracleConfig::default());
        assert_eq!(oracles.len(), 1);
        run_chaos(
            &mut cluster.sim,
            SimTime(5_000_000),
            &oracles,
            &mut no_custom,
        );
        let o = oracles[0].lock().unwrap();
        assert!(o.counts().delivered > 0, "oracle tap saw no traffic");
    }

    #[test]
    fn chaos_digests_identical_across_worker_counts() {
        let mut digests = Vec::new();
        for workers in [1, 2, 8] {
            let mut cluster = programmed_cluster(11, 2, 3);
            let plans: Vec<FaultPlan> = (0..2)
                .map(|r| {
                    generate_plan(
                        40 + r as u64,
                        &cluster.racks[r].roles(),
                        &cluster_plan_config(),
                    )
                })
                .collect();
            cluster.partition(workers);
            cluster.install_plans(&plans);
            let oracles =
                attach_rack_oracles(&mut cluster.sim, &cluster.racks, &OracleConfig::default());
            run_chaos(
                &mut cluster.sim,
                SimTime(50_000_000),
                &oracles,
                &mut no_custom,
            );
            let d: Vec<(u64, u64)> = oracles
                .iter()
                .map(|o| {
                    let o = o.lock().unwrap();
                    (o.digest(), o.counts().faults)
                })
                .collect();
            digests.push(d);
        }
        assert_eq!(digests[0], digests[1], "1 vs 2 workers");
        assert_eq!(digests[0], digests[2], "1 vs 8 workers");
        // Faults actually happened and the taps observed them.
        assert!(digests[0].iter().any(|&(_, faults)| faults > 0));
    }
}

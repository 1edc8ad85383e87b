//! The one file that calls into the product.
//!
//! Everything else in this package works on the plain types defined
//! here. A later refactor of the product that may not edit `benchmark/`
//! has to keep the symbols this file uses source-compatible (or shim
//! them); `benchmark/README.md` lists them.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use netlock_core::prelude::*;
use netlock_proto::{decode_msg, encode_msg, LockId, LockMode, LockRequest, NetLockMsg};
use netlock_server::{LockTable, ServerConfig, ServerNode};
use netlock_sim::{
    Context, EventQueue, Histogram, LinkConfig, Node, NodeId, Packet, SimStats, SimTime, Simulator,
    TapEvent, Topology,
};
use netlock_switch::analysis::layout::TofinoBudget;
use netlock_switch::control::apply_allocation;
use netlock_switch::priority::PriorityLayout;
use netlock_switch::shared_queue::SharedQueueLayout;
use netlock_switch::txn::netlock::fcfs_enqueue_program;
use netlock_switch::txn::LoweredTxn;
use netlock_switch::{ActionBuf, DataPlane, DpStats, SwitchConfig, SwitchNode};
use netlock_workloads::{hot_lock_stats, TpccConfig, TpccSource};

use crate::alloc::allocation_count;
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{Shape, WorkloadSpec};

/// Paper constant for a lock server's CPU time per message (18 MRPS on
/// 8 cores). Set explicitly so the benchmark never reads the
/// `NETLOCK_CALIBRATED*` environment the product's default consults.
const PAPER_SERVER_SERVICE_NS: u64 = 222;
/// Lease both switch and servers run with (product default).
pub const LEASE_US: u64 = 10_000;
/// Interval of the servers' lease sweep (product default).
pub const SERVER_SWEEP_TICK_US: u64 = 1_000;
/// Cross-rack one-way delay of the cluster workload; it is the
/// partition lookahead.
const CROSS_RACK_DELAY_US: u64 = 10;

fn us(us: u64) -> SimDuration {
    SimDuration::from_micros(us)
}

// ---------------------------------------------------------------------
// Plain result types
// ---------------------------------------------------------------------

/// A latency distribution copied out of a product `Histogram`:
/// `(bucket_low_ns, bucket_high_ns, cumulative_count)` per non-empty
/// bucket.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Dist {
    pub count: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    pub mean_ns: f64,
    pub cum: Vec<(u64, u64, u64)>,
}

/// Width of the `Histogram` bucket starting at `low`: 64 linear
/// sub-buckets per power of two, exact below 64.
fn bucket_width(low: u64) -> u64 {
    if low < 128 {
        1
    } else {
        1 << (low.ilog2() - 6)
    }
}

impl Dist {
    fn from_histogram(h: &Histogram) -> Dist {
        let n = h.count();
        Dist {
            count: n,
            min_ns: h.min(),
            max_ns: h.max(),
            mean_ns: h.mean(),
            cum: h
                .cdf_points()
                .into_iter()
                .map(|(v, frac)| (v, v + bucket_width(v), (frac * n as f64).round() as u64))
                .collect(),
        }
    }
}

/// Defines [`Cumulative`]: `counters` are diffed by `since`, `levels`
/// (high-water marks, sizes) keep the later snapshot's value.
macro_rules! cumulative {
    (counters: $($c:ident),* ; levels: $($l:ident),* $(;)?) => {
        /// What the product's own stats structs (`SimStats`, `DpStats`,
        /// `SwitchNodeStats`, `ServerStats`, `CoreModel`, `LockTable`)
        /// read since simulation start, warm-up included; the runner
        /// diffs two snapshots around the measured window.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Cumulative {
            $(pub $c: u64,)*
            $(pub $l: u64,)*
        }

        impl Cumulative {
            /// `self - earlier` for counters; levels keep `self`'s.
            pub fn since(&self, earlier: &Cumulative) -> Cumulative {
                Cumulative {
                    $($c: self.$c - earlier.$c,)*
                    $($l: self.$l,)*
                }
            }
        }
    };
}

cumulative! {
    counters: events_fired, events_scheduled, timers_fired, packets_delivered, packets_lost,
        dp_grants_immediate, dp_queued, dp_grants_on_release, dp_forwarded_server_locks,
        dp_forwarded_overflow, dp_releases, dp_passes, dp_pushes, dp_quota_drops,
        switch_drops, switch_lease_expirations, server_grants, server_queued,
        server_q2_buffered, server_processed, server_busy_ns;
    levels: max_queue_depth, server_q2_peak_depth, server_cores, lock_table_entries;
}

/// Client-side results of the measured window (client counters are
/// zeroed at the end of warm-up).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClientSide {
    pub issued: u64,
    pub grants: u64,
    pub grants_switch: u64,
    pub grants_server: u64,
    pub txns: u64,
    pub retries: u64,
    pub surplus_released: u64,
    /// Generation slots skipped because a client window was full.
    pub throttled: u64,
    /// Population window slots reclaimed by the retry timeout.
    pub reclaimed: u64,
    pub batches_sent: u64,
    pub lock_latency: Dist,
    pub txn_latency: Dist,
}

// ---------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------

enum World {
    Rack(Rack),
    Cluster(RackCluster),
}

/// What the open-loop clients counted since their last reset.
#[derive(Default)]
struct OpenLoop {
    issued: u64,
    grants: u64,
    throttled: u64,
    reclaimed: u64,
    batches_sent: u64,
    has_closed_loop: bool,
}

/// One rack's node ids.
struct RackIds {
    switch: NodeId,
    servers: Vec<NodeId>,
    clients: Vec<(NodeId, ClientKind)>,
}

/// A built, programmed scenario with its clients attached.
pub struct Scenario {
    world: World,
    spec: &'static WorkloadSpec,
    alloc: Allocation,
    layout: SharedQueueLayout,
    lock_servers: usize,
    /// Acquires in flight when the client counters were zeroed.
    open_at_reset: u64,
}

/// Allocator input for a workload — also the knapsack probe's input.
fn alloc_stats(spec: &WorkloadSpec) -> Vec<LockStats> {
    match spec.shape {
        Shape::Micro { locks, .. } => (0..locks)
            .map(|l| LockStats {
                lock: LockId(l),
                rate: 1.0,
                contention: (100_000 / locks).min(4_096),
                home_server: 0,
            })
            .collect(),
        Shape::Tpcc {
            clients,
            workers,
            lock_servers,
            cold_locks,
            ..
        } => {
            let cfg = TpccConfig::low_contention(clients as u32);
            let mut stats = hot_lock_stats(&cfg, (clients * workers) as u32, lock_servers);
            for i in 0..cold_locks {
                let w = i % cfg.warehouses;
                let d = (i / cfg.warehouses) % 10;
                let c = i % 3_000;
                stats.push(LockStats {
                    lock: netlock_workloads::tpcc::ids::customer(w, d, c),
                    rate: 1e-6,
                    contention: 4,
                    home_server: (i as usize) % lock_servers,
                });
            }
            stats
        }
        Shape::Population {
            locks,
            slots_per_lock,
            ..
        } => (0..locks)
            .map(|l| LockStats {
                lock: LockId(l),
                rate: 1.0,
                contention: slots_per_lock,
                home_server: 0,
            })
            .collect(),
    }
}

/// Queue regions the paper-default layout's metadata can describe.
const MAX_REGIONS: usize = 10_000;

/// Switch memory, in queue slots, the allocator may hand out.
fn switch_slots(spec: &WorkloadSpec) -> u32 {
    match spec.shape {
        Shape::Micro { .. } => 100_000,
        Shape::Tpcc { switch_slots, .. } => switch_slots,
        Shape::Population { .. } => 32_000,
    }
}

fn allocate(spec: &WorkloadSpec) -> Allocation {
    knapsack_allocate_bounded(&alloc_stats(spec), switch_slots(spec), MAX_REGIONS)
}

fn layout_of(spec: &WorkloadSpec) -> SharedQueueLayout {
    match spec.shape {
        Shape::Micro { .. } | Shape::Tpcc { .. } => SharedQueueLayout::paper_default(),
        Shape::Population { .. } => SharedQueueLayout::small(2, 16_384, 64),
    }
}

fn micro_cfg(rate_rps: f64, locks: u32, exclusive: bool) -> MicroClientConfig {
    MicroClientConfig {
        rate_rps,
        locks: (0..locks).map(LockId).collect(),
        mode: if exclusive {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        },
        // Poisson arrivals: the seed then moves arrival times as well
        // as lock choice, as independent users would.
        poisson: true,
        ..Default::default()
    }
}

fn rack_config(spec: &WorkloadSpec, seed: u64) -> RackConfig {
    let (lock_servers, service_ns) = match spec.shape {
        Shape::Tpcc {
            lock_servers,
            server_service_ns,
            ..
        } => (lock_servers, server_service_ns),
        _ => (1, PAPER_SERVER_SERVICE_NS),
    };
    // Every field is spelled out: `ServerConfig::default()` would read
    // the calibration environment.
    RackConfig {
        seed,
        lock_servers,
        server: ServerConfig {
            cores: 8,
            service: SimDuration::from_nanos(service_ns),
            lease: us(LEASE_US),
            sweep_tick: us(SERVER_SWEEP_TICK_US),
        },
        switch: SwitchConfig::default(),
        engine: EngineSpec::Fcfs(layout_of(spec)),
        db_servers: 0,
        link: LinkConfig::default(),
    }
}

/// `racks` identical micro racks in one `RackCluster`; `workers` is
/// `None` for the unpartitioned (fused-loop) reference.
fn build_cluster(
    spec: &WorkloadSpec,
    seed: u64,
    alloc: &Allocation,
    workers: Option<usize>,
) -> RackCluster {
    let Shape::Micro {
        racks,
        clients,
        rate_rps,
        locks,
        exclusive,
    } = spec.shape
    else {
        panic!("only micro workloads run as a cluster");
    };
    let cross = LinkConfig::with_delay(us(CROSS_RACK_DELAY_US));
    let mut cluster = RackCluster::build(&rack_config(spec, seed), racks, cross);
    for r in 0..racks {
        cluster.program(r, alloc);
        for _ in 0..clients {
            cluster.add_micro_client(r, micro_cfg(rate_rps, locks, exclusive));
        }
    }
    if let Some(w) = workers {
        cluster.partition(w);
    }
    cluster
}

impl Scenario {
    /// Allocator run, rack build, `program`, client attach. Spans
    /// `setup.alloc` and `setup.build` are recorded under the caller's
    /// current span. `measure_us` is the window the caller will
    /// measure: the population workload's burst covers its middle third.
    pub fn build(
        spec: &'static WorkloadSpec,
        seed: u64,
        measure_us: u64,
        spans: &mut Spans,
    ) -> Scenario {
        let s = spans.enter("setup.alloc");
        let alloc = allocate(spec);
        spans.exit(s);
        let s = spans.enter("setup.build");
        let cfg = rack_config(spec, seed);
        let lock_servers = cfg.lock_servers;
        let world = match spec.shape {
            Shape::Micro { racks, .. } if racks > 1 => {
                World::Cluster(build_cluster(spec, seed, &alloc, Some(1)))
            }
            Shape::Micro {
                clients,
                rate_rps,
                locks,
                exclusive,
                ..
            } => {
                let mut rack = Rack::build(cfg);
                rack.program(&alloc);
                for _ in 0..clients {
                    rack.add_micro_client(micro_cfg(rate_rps, locks, exclusive));
                }
                World::Rack(rack)
            }
            Shape::Tpcc {
                clients, workers, ..
            } => {
                let mut rack = Rack::build(cfg);
                rack.program(&alloc);
                let tpcc = TpccConfig::low_contention(clients as u32);
                for _ in 0..clients {
                    rack.add_txn_client(
                        TxnClientConfig {
                            workers,
                            ..Default::default()
                        },
                        Box::new(TpccSource::new(tpcc.clone())),
                    );
                }
                World::Rack(rack)
            }
            Shape::Population {
                virtual_clients,
                rate_per_client,
                locks,
                hold_us,
                burst_multiplier,
                burst_hot_fraction,
                ..
            } => {
                let mut rack = Rack::build(cfg);
                rack.program(&alloc);
                rack.add_population_client(PopulationConfig {
                    tenants: vec![TenantSpec {
                        virtual_clients,
                        rate_rps_per_client: rate_per_client,
                        locks: (0..locks).map(LockId).collect(),
                        mode: LockMode::Shared,
                        max_outstanding: 1 << 20,
                        bursts: vec![BurstEpisode {
                            start_ns: (spec.warmup_us + measure_us / 3) * 1_000,
                            duration: us(measure_us / 3),
                            multiplier: burst_multiplier,
                            hot_lock: Some(LockId(locks - 1)),
                            hot_fraction: burst_hot_fraction,
                        }],
                        ..Default::default()
                    }],
                    poisson: true,
                    hold: us(hold_us),
                    ..Default::default()
                });
                World::Rack(rack)
            }
        };
        spans.exit(s);
        Scenario {
            world,
            spec,
            alloc,
            layout: layout_of(spec),
            lock_servers,
            open_at_reset: 0,
        }
    }

    fn sim(&self) -> &Simulator<NetLockMsg> {
        match &self.world {
            World::Rack(r) => &r.sim,
            World::Cluster(c) => &c.sim,
        }
    }

    fn sim_mut(&mut self) -> &mut Simulator<NetLockMsg> {
        match &mut self.world {
            World::Rack(r) => &mut r.sim,
            World::Cluster(c) => &mut c.sim,
        }
    }

    fn racks(&self) -> Vec<RackIds> {
        match &self.world {
            World::Rack(r) => vec![RackIds {
                switch: r.switch,
                servers: r.lock_servers.clone(),
                clients: r.clients.clone(),
            }],
            World::Cluster(c) => c
                .racks
                .iter()
                .map(|r| RackIds {
                    switch: r.switch,
                    servers: r.lock_servers.clone(),
                    clients: r.clients.clone(),
                })
                .collect(),
        }
    }

    /// Number of simulator nodes.
    pub fn node_count(&self) -> usize {
        self.sim().node_count()
    }

    /// Advance simulated time.
    pub fn run_for_us(&mut self, micros: u64) {
        self.sim_mut().run_for(us(micros));
    }

    /// Simulated clock, ns.
    pub fn now_ns(&self) -> u64 {
        self.sim().now().as_nanos()
    }

    /// Counters of the open-loop clients (micro, population) since
    /// their last reset.
    fn open_loop(&self) -> OpenLoop {
        let mut out = OpenLoop::default();
        for RackIds { clients, .. } in self.racks() {
            for (id, kind) in clients {
                match kind {
                    ClientKind::Micro => self.sim().read_node::<MicroClient, _>(id, |c| {
                        let s = c.stats();
                        out.issued += s.issued;
                        out.grants += s.grants;
                        out.throttled += s.throttled;
                    }),
                    ClientKind::Population => {
                        self.sim().read_node::<PopulationClient, _>(id, |c| {
                            let s = c.stats();
                            out.issued += s.issued;
                            out.grants += s.grants;
                            out.throttled += s.throttled;
                            out.reclaimed += s.reclaimed;
                            out.batches_sent += s.batches_sent;
                        })
                    }
                    ClientKind::Txn => out.has_closed_loop = true,
                }
            }
        }
        out
    }

    /// Zero every client's counters (end of warm-up).
    pub fn reset_clients(&mut self) {
        let open = self.open_loop();
        self.open_at_reset = open.issued - open.grants;
        match &mut self.world {
            World::Rack(r) => reset_clients(r),
            World::Cluster(c) => c.reset_clients(),
        }
    }

    /// Client-side counters since the last reset.
    pub fn collect(&self, measured_us: u64) -> ClientSide {
        let mut total = RunStats::default();
        match &self.world {
            World::Rack(r) => total = collect(r, us(measured_us)),
            World::Cluster(c) => {
                for r in 0..c.rack_count() {
                    let s = c.collect_rack(r, us(measured_us));
                    total.issued += s.issued;
                    total.grants += s.grants;
                    total.grants_switch += s.grants_switch;
                    total.grants_server += s.grants_server;
                    total.txns += s.txns;
                    total.retries += s.retries;
                    total.surplus_released += s.surplus_released;
                    total.lock_latency.merge(&s.lock_latency);
                    total.txn_latency.merge(&s.txn_latency);
                }
            }
        }
        let open = self.open_loop();
        ClientSide {
            issued: total.issued,
            grants: total.grants,
            grants_switch: total.grants_switch,
            grants_server: total.grants_server,
            txns: total.txns,
            // `RunStats::retries` folds population reclaims in; keep
            // the two apart.
            retries: total.retries - open.reclaimed,
            surplus_released: total.surplus_released,
            throttled: open.throttled,
            reclaimed: open.reclaimed,
            batches_sent: open.batches_sent,
            lock_latency: Dist::from_histogram(&total.lock_latency),
            txn_latency: Dist::from_histogram(&total.txn_latency),
        }
    }

    /// Whole-run counters from the product's own stats structs.
    pub fn cumulative(&self) -> Cumulative {
        let sim: SimStats = self.sim().stats();
        let mut out = Cumulative {
            events_fired: sim.events_fired,
            events_scheduled: sim.events_scheduled,
            timers_fired: sim.timers_fired,
            packets_delivered: sim.packets_delivered,
            packets_lost: sim.packets_lost + sim.packets_to_dead_node,
            max_queue_depth: sim.max_queue_depth,
            ..Default::default()
        };
        for RackIds {
            switch, servers, ..
        } in self.racks()
        {
            let (dp, node): (DpStats, _) = self
                .sim()
                .read_node::<SwitchNode, _>(switch, |s| (s.dataplane().stats(), s.stats()));
            out.dp_grants_immediate += dp.grants_immediate;
            out.dp_queued += dp.queued;
            out.dp_grants_on_release += dp.grants_on_release;
            out.dp_forwarded_server_locks += dp.forwarded_server_locks;
            out.dp_forwarded_overflow += dp.forwarded_overflow;
            out.dp_releases += dp.releases;
            out.dp_passes += dp.passes;
            out.dp_pushes += dp.pushes;
            out.dp_quota_drops += dp.quota_drops;
            out.switch_drops += node.drops;
            out.switch_lease_expirations += node.lease_expirations;
            for server in servers {
                self.sim().read_node::<ServerNode, _>(server, |s| {
                    let st = s.stats();
                    out.server_grants += st.grants;
                    out.server_queued += st.queued;
                    out.server_q2_buffered += st.q2_buffered;
                    out.server_q2_peak_depth =
                        out.server_q2_peak_depth.max(st.q2_peak_depth as u64);
                    out.server_processed += s.cores().processed();
                    out.server_busy_ns += s.cores().busy_ns();
                    out.server_cores += s.cores().cores() as u64;
                    out.lock_table_entries += s.table().len() as u64;
                });
            }
        }
        out
    }

    /// Stop the open-loop generators, run one lease, and count acquires
    /// still ungranted. `None` for scenarios with closed-loop clients,
    /// which keep no issue count and cannot be stopped; their stuck
    /// requests show as retries.
    pub fn drain_ungranted(&mut self) -> Option<u64> {
        if self.open_loop().has_closed_loop {
            return None;
        }
        for RackIds { clients, .. } in self.racks() {
            for (id, kind) in clients {
                match kind {
                    ClientKind::Micro => self
                        .sim_mut()
                        .with_node::<MicroClient, _>(id, |c| c.stop_generating()),
                    ClientKind::Population => self
                        .sim_mut()
                        .with_node::<PopulationClient, _>(id, |c| c.stop_generating()),
                    ClientKind::Txn => {}
                }
            }
        }
        self.run_for_us(LEASE_US);
        let open = self.open_loop();
        Some((self.open_at_reset + open.issued).saturating_sub(open.grants))
    }

    /// Install one tap closure per logical process that feeds the
    /// lock-safety oracle (`with_oracle`), clones delivered packets
    /// until they carry `capture_cap` lock operations, and counts the
    /// window's messages. Call before any simulated time passes: the
    /// oracle must see every grant to know the holders, and the replay
    /// probes need the stream from an empty data plane to reproduce its
    /// state.
    pub fn attach_trace(&mut self, capture_cap: usize, with_oracle: bool) -> Trace {
        let racks = self.racks();
        let per_lp_cap = capture_cap / racks.len();
        let mut lps = Vec::new();
        for (
            lp,
            RackIds {
                switch,
                servers,
                clients,
            },
        ) in racks.into_iter().enumerate()
        {
            let oracle = with_oracle.then(|| {
                let mut oracle = Oracle::new(OracleConfig::default());
                for (id, _) in &clients {
                    oracle.register_client(*id);
                }
                oracle
            });
            let state = Arc::new(Mutex::new(LpTrace {
                oracle,
                switch,
                servers,
                cap: per_lp_cap,
                counting: false,
                captured: Vec::new(),
                counts: TraceCounts::default(),
            }));
            let tap = Arc::clone(&state);
            self.sim_mut().set_lp_tap(
                lp,
                Box::new(move |ev| tap.lock().expect("tap state poisoned").observe(ev)),
            );
            lps.push(state);
        }
        Trace { lps }
    }
}

// ---------------------------------------------------------------------
// Traced run: oracle + capture
// ---------------------------------------------------------------------

/// Message counts over the measured window, taken at the tap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCounts {
    /// Data-plane operations delivered to a switch: one per acquire or
    /// release (batch elements counted singly) and one per `Push`.
    pub switch_ops: u64,
    /// Lock-table operations delivered to a server: forwarded acquires
    /// without the overflow mark, and releases.
    pub table_ops: u64,
}

struct LpTrace {
    oracle: Option<Oracle>,
    switch: NodeId,
    servers: Vec<NodeId>,
    /// Capture budget left, in lock operations: a batch message spends
    /// one per element, any other message one.
    cap: usize,
    counting: bool,
    captured: Vec<(u64, Packet<NetLockMsg>)>,
    counts: TraceCounts,
}

/// Lock operations a message carries: batch elements count singly.
fn ops_in(msg: &NetLockMsg) -> usize {
    match msg {
        NetLockMsg::AcquireBatch(b) => b.len(),
        NetLockMsg::ReleaseBatch(b) => b.len(),
        NetLockMsg::GrantBatch(b) => b.len(),
        _ => 1,
    }
}

/// Data-plane operations a switch-bound message causes.
fn switch_ops_of(msg: &NetLockMsg) -> u64 {
    match msg {
        NetLockMsg::Acquire(_)
        | NetLockMsg::Release(_)
        | NetLockMsg::Push { .. }
        | NetLockMsg::AcquireBatch(_)
        | NetLockMsg::ReleaseBatch(_) => ops_in(msg) as u64,
        _ => 0,
    }
}

fn is_table_op(msg: &NetLockMsg) -> bool {
    matches!(
        msg,
        NetLockMsg::Forwarded {
            buffer_only: false,
            ..
        } | NetLockMsg::Release(_)
    )
}

impl LpTrace {
    fn observe(&mut self, ev: TapEvent<'_, NetLockMsg>) {
        if let Some(oracle) = &mut self.oracle {
            oracle.observe(&ev);
        }
        let TapEvent::Delivered { at, pkt } = ev else {
            return;
        };
        if self.cap > 0 {
            self.cap = self.cap.saturating_sub(ops_in(&pkt.payload));
            self.captured.push((at.as_nanos(), pkt.clone()));
        }
        if !self.counting {
            return;
        }
        if pkt.dst == self.switch {
            self.counts.switch_ops += switch_ops_of(&pkt.payload);
        } else if self.servers.contains(&pkt.dst) {
            self.counts.table_ops += u64::from(is_table_op(&pkt.payload));
        }
    }
}

/// Handle on the installed taps.
pub struct Trace {
    lps: Vec<Arc<Mutex<LpTrace>>>,
}

/// What the taps saw, handed back by [`Trace::finish`].
pub struct TraceOutcome {
    /// Message counts since `start_counting`.
    pub counts: TraceCounts,
    /// Oracle violations, with the first few spelled out.
    pub violations: u64,
    pub details: Vec<String>,
    pub captured: Captured,
}

/// What the traced run hands to the probes.
pub struct Captured {
    /// `(delivery time ns, packet)` in delivery order; with several
    /// LPs, one LP's stream after the other.
    packets: Vec<(u64, Packet<NetLockMsg>)>,
    switches: Vec<NodeId>,
    servers: Vec<NodeId>,
}

impl Trace {
    /// Start the per-window message counts (end of warm-up).
    pub fn start_counting(&self) {
        for lp in &self.lps {
            lp.lock().expect("tap state poisoned").counting = true;
        }
    }

    /// Finish the oracles (if any) at simulated time `now_ns` and hand
    /// back everything the taps collected.
    pub fn finish(self, now_ns: u64) -> TraceOutcome {
        let mut out = TraceOutcome {
            counts: TraceCounts::default(),
            violations: 0,
            details: Vec::new(),
            captured: Captured {
                packets: Vec::new(),
                switches: Vec::new(),
                servers: Vec::new(),
            },
        };
        for lp in &self.lps {
            let mut lp = lp.lock().expect("tap state poisoned");
            if let Some(oracle) = &mut lp.oracle {
                oracle.finish(now_ns);
                out.violations += oracle.violations().len() as u64;
                for v in oracle.violations().iter().take(3) {
                    out.details
                        .push(format!("{} at {} ns: {}", v.kind, v.at_ns, v.detail));
                }
            }
            out.counts.switch_ops += lp.counts.switch_ops;
            out.counts.table_ops += lp.counts.table_ops;
            out.captured.packets.append(&mut lp.captured);
            out.captured.switches.push(lp.switch);
            out.captured.servers.extend(lp.servers.iter().copied());
        }
        out
    }
}

impl Captured {
    /// Captured `Delivered` events.
    pub fn len(&self) -> usize {
        self.packets.len()
    }
}

// ---------------------------------------------------------------------
// Replay probes
// ---------------------------------------------------------------------

/// Median-of-three timing of one probe; `f` returns `(ns, units)` for
/// one pass over its input.
fn ns_per_unit(mut f: impl FnMut() -> (f64, u64)) -> f64 {
    let mut per = Vec::with_capacity(3);
    for _ in 0..3 {
        let (ns, units) = f();
        if units == 0 {
            return 0.0;
        }
        per.push(ns / units as f64);
    }
    median(&mut per)
}

/// Result of the data-plane replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct DataplaneProbe {
    pub ns_per_pkt: f64,
    pub allocs_per_pkt: f64,
}

/// One replayed data-plane operation, unpacked from batches the way
/// the switch node unpacks them: `(switch index, delivery time, what)`.
enum DpOp {
    Acquire(usize, u64, LockRequest),
    Msg(usize, u64, NetLockMsg),
}

impl Captured {
    /// The switch-bound operations, in delivery order. `with_push`
    /// keeps the q2 push-backs, which only the FCFS engine understands.
    fn dp_ops(&self, with_push: bool) -> Vec<DpOp> {
        let mut ops = Vec::new();
        for (at, pkt) in &self.packets {
            let Some(sw) = self.switches.iter().position(|&s| s == pkt.dst) else {
                continue;
            };
            match &pkt.payload {
                NetLockMsg::AcquireBatch(reqs) => {
                    ops.extend(reqs.iter().map(|r| DpOp::Acquire(sw, *at, *r)))
                }
                NetLockMsg::ReleaseBatch(rels) => ops.extend(
                    rels.iter()
                        .map(|r| DpOp::Msg(sw, *at, NetLockMsg::Release(*r))),
                ),
                m @ (NetLockMsg::Acquire(_) | NetLockMsg::Release(_)) => {
                    ops.push(DpOp::Msg(sw, *at, m.clone()))
                }
                m @ NetLockMsg::Push { .. } if with_push => ops.push(DpOp::Msg(sw, *at, m.clone())),
                _ => {}
            }
        }
        ops
    }

    /// Replay the switch-bound operations, each switch's into its own
    /// fresh data plane.
    fn replay_dataplane(
        &self,
        with_push: bool,
        mut fresh: impl FnMut() -> DataPlane,
    ) -> DataplaneProbe {
        let mut allocs_per = 0.0f64;
        let ns_per_pkt = ns_per_unit(|| {
            let mut dps: Vec<DataPlane> = self.switches.iter().map(|_| fresh()).collect();
            let mut out = ActionBuf::new();
            // Cloned before the clock starts: `Push` owns a boxed slice.
            let ops = self.dp_ops(with_push);
            let n_ops = ops.len() as u64;
            let mut acc = 0usize;
            let allocs_before = allocation_count();
            let t = Instant::now();
            for op in ops {
                match op {
                    DpOp::Acquire(sw, at, req) => dps[sw].process_acquire(req, at, &mut out),
                    DpOp::Msg(sw, at, msg) => dps[sw].process(msg, at, &mut out),
                }
                acc += out.len();
            }
            let ns = t.elapsed().as_nanos() as f64;
            let allocs = allocation_count() - allocs_before;
            std::hint::black_box(acc);
            allocs_per = allocs_per.max(allocs as f64 / n_ops.max(1) as f64);
            (ns, n_ops)
        });
        DataplaneProbe {
            ns_per_pkt,
            allocs_per_pkt: allocs_per,
        }
    }
}

impl Scenario {
    /// Captured switch-bound messages through `DataPlane::process` on a
    /// fresh data plane programmed exactly like the scenario's.
    pub fn probe_dataplane(&self, cap: &Captured) -> DataplaneProbe {
        cap.replay_dataplane(true, || {
            let mut dp = DataPlane::new_fcfs(&self.layout);
            dp.set_default_servers(self.lock_servers);
            apply_allocation(&mut dp, &self.alloc);
            dp
        })
    }

    /// The same stream through the priority engine: one level (the
    /// benchmark's requests all carry priority 0), one region per
    /// switch-resident lock, each as large as the FCFS allocation's
    /// largest (the priority engine's regions are equal partitions).
    /// The q2 push-backs are left out: the priority engine has no
    /// overflow protocol.
    pub fn probe_priority(&self, cap: &Captured) -> DataplaneProbe {
        let regions = self.alloc.in_switch.len().max(1);
        let slots = self.alloc.in_switch.iter().map(|r| r.1).max().unwrap_or(1) as usize;
        cap.replay_dataplane(false, || {
            let mut dp = DataPlane::new_priority(&PriorityLayout::new(1, slots, regions));
            dp.set_default_servers(self.lock_servers);
            for (qid, &(lock, _, home)) in self.alloc.in_switch.iter().enumerate() {
                dp.directory_mut().set_switch_resident(lock, qid, home);
            }
            for &(lock, home) in &self.alloc.in_server {
                dp.directory_mut().set_server_resident(lock, home);
            }
            dp
        })
    }

    /// `knapsack_allocate_bounded` on the scenario's allocator input,
    /// ms (median of three).
    pub fn probe_knapsack_ms(&self) -> f64 {
        let stats = alloc_stats(self.spec);
        let slots = switch_slots(self.spec);
        ns_per_unit(|| {
            let t = Instant::now();
            let a = knapsack_allocate_bounded(&stats, slots, MAX_REGIONS);
            let ns = t.elapsed().as_nanos() as f64;
            std::hint::black_box(a.in_switch.len());
            (ns, 1)
        }) / 1e6
    }
}

/// Captured acquires through the lowered FCFS admission program
/// (`switch::txn`), ns per packet. The program models one region;
/// it is reset when full, as `bench_sim` does.
pub fn probe_lowered_txn(cap: &Captured) -> f64 {
    let region = 8u32;
    let fields: Vec<u64> = cap
        .dp_ops(false)
        .iter()
        .filter_map(|op| match op {
            DpOp::Acquire(_, _, r) | DpOp::Msg(_, _, NetLockMsg::Acquire(r)) => {
                Some(u64::from(r.mode == LockMode::Exclusive))
            }
            _ => None,
        })
        .collect();
    let budget = TofinoBudget::tofino_single_direction();
    ns_per_unit(|| {
        let mut lowered = LoweredTxn::compile(fcfs_enqueue_program(region), &budget)
            .expect("the product's own grant path verifies");
        let mut actions = Vec::new();
        let mut acc = 0usize;
        let t = Instant::now();
        for (i, &mode) in fields.iter().enumerate() {
            actions.clear();
            lowered.run(&[mode], &mut actions);
            acc += actions.len();
            if (i as u32 + 1).is_multiple_of(region * 2) {
                lowered.cp_reset();
            }
        }
        let ns = t.elapsed().as_nanos() as f64;
        std::hint::black_box(acc);
        (ns, fields.len() as u64)
    })
}

/// Result of the lock-table replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct LockTableProbe {
    pub ns_per_msg: f64,
    /// One lease sweep (`touched_locks` + `expire_leases` per lock, as
    /// the server node does every sweep tick) over the replayed
    /// tables, per table entry.
    pub sweep_ns_per_entry: f64,
}

/// Captured server-bound messages through `LockTable::acquire` /
/// `release`, one fresh table per server; then the lease sweep over
/// the tables the replay built.
pub fn probe_lock_table(cap: &Captured) -> LockTableProbe {
    let ops: Vec<(usize, u64, &NetLockMsg)> = cap
        .packets
        .iter()
        .filter_map(|(at, pkt)| {
            let server = cap.servers.iter().position(|&s| s == pkt.dst)?;
            is_table_op(&pkt.payload).then_some((server, *at, &pkt.payload))
        })
        .collect();
    let mut tables: Vec<LockTable> = Vec::new();
    let mut granted: Vec<LockRequest> = Vec::new();
    let ns_per_msg = ns_per_unit(|| {
        tables = cap.servers.iter().map(|_| LockTable::new()).collect();
        let mut acc = 0usize;
        let t = Instant::now();
        for &(server, _, msg) in &ops {
            match msg {
                NetLockMsg::Forwarded { req, .. } => {
                    acc += tables[server].acquire(*req) as usize;
                }
                NetLockMsg::Release(rel) => {
                    granted.clear();
                    tables[server].release(rel.lock, rel.txn, &mut granted);
                    acc += granted.len();
                }
                _ => unreachable!("filtered by is_table_op"),
            }
        }
        let ns = t.elapsed().as_nanos() as f64;
        std::hint::black_box(acc);
        (ns, ops.len() as u64)
    });
    // Swept at the time of the last replayed message: no lease has
    // expired, as in the run itself.
    let now_ns = ops.last().map_or(0, |&(_, at, _)| at);
    let mut sweep: Vec<LockId> = Vec::new();
    let sweep_ns_per_entry = ns_per_unit(|| {
        let t = Instant::now();
        let mut entries = 0;
        for table in &mut tables {
            sweep.clear();
            table.touched_locks(&mut sweep);
            entries += sweep.len() as u64;
            for &lock in &sweep {
                granted.clear();
                table.expire_leases(lock, now_ns, LEASE_US * 1_000, &mut granted);
            }
        }
        (t.elapsed().as_nanos() as f64, entries)
    });
    LockTableProbe {
        ns_per_msg,
        sweep_ns_per_entry,
    }
}

/// The captured delivery times as steady-depth churn through
/// `EventQueue::push`/`pop`: the queue is pre-filled with the first
/// `depth` times, then each pop is followed by the push of the next
/// captured time. ns per event (one pop + one push).
pub fn probe_queue(cap: &Captured, depth: u64) -> f64 {
    let ats: Vec<u64> = cap.packets.iter().map(|(at, _)| *at).collect();
    let depth = (depth as usize).clamp(1, ats.len() / 2);
    ns_per_unit(|| {
        let mut q: EventQueue<u64> = EventQueue::new();
        // One LP's stream follows the other's in `ats`; keep times
        // monotone per queue by offsetting with the running maximum.
        let mut floor = 0u64;
        for (seq, &at) in ats[..depth].iter().enumerate() {
            floor = floor.max(at);
            q.push(SimTime(floor), seq as u64, at);
        }
        let mut acc = 0u64;
        let t = Instant::now();
        for (i, &at) in ats[depth..].iter().enumerate() {
            let (_, _, item) = q.pop().expect("steady depth");
            acc = acc.wrapping_add(item);
            floor = floor.max(at);
            q.push(SimTime(floor), (depth + i) as u64, at);
        }
        let ns = t.elapsed().as_nanos() as f64;
        std::hint::black_box(acc);
        (ns, (ats.len() - depth) as u64)
    })
}

/// Inert node for the spine probe: forwards a hop count to its peer.
struct HopNode {
    peer: NodeId,
}

impl Node<u64> for HopNode {
    fn on_packet(&mut self, pkt: Packet<u64>, ctx: &mut Context<'_, u64>) {
        if pkt.payload > 0 {
            ctx.send(self.peer, pkt.payload - 1);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, u64>) {
        ctx.send(self.peer, token);
    }
}

/// The event spine alone: `nodes` inert ping-pong nodes keeping
/// `depth` packets in flight through `Simulator::run_until`, flights
/// staggered over one link delay so events do not share timestamps any
/// more than the workload's do. ns per event.
pub fn probe_spine(nodes: usize, depth: u64) -> f64 {
    let events = 2_000_000u64;
    let nodes = (nodes.max(2) / 2) * 2;
    let depth = depth.max(1);
    let hops = (events / depth).max(1);
    let link = LinkConfig::default();
    ns_per_unit(|| {
        let mut sim: Simulator<u64> = Simulator::new(Topology::new(link), 7);
        for n in 0..nodes as u32 {
            sim.add_node(Box::new(HopNode {
                peer: NodeId(n ^ 1),
            }));
        }
        for i in 0..depth {
            let node = NodeId((i % nodes as u64) as u32);
            let stagger = SimDuration::from_nanos(i * link.delay.as_nanos() / depth);
            sim.inject_timer(node, stagger, hops);
        }
        let before = sim.stats().events_fired;
        let t = Instant::now();
        sim.run_until(SimTime(u64::MAX - 1));
        let ns = t.elapsed().as_nanos() as f64;
        std::hint::black_box(&sim);
        (ns, sim.stats().events_fired - before)
    })
}

/// `Histogram::record` on the captured acquire→grant latencies, ns
/// per record.
pub fn probe_histogram(cap: &Captured) -> f64 {
    let mut lat: Vec<u64> = Vec::new();
    for (at, pkt) in &cap.packets {
        match &pkt.payload {
            NetLockMsg::Grant(g) => lat.push(at.saturating_sub(g.issued_at_ns)),
            NetLockMsg::GrantBatch(gs) => {
                lat.extend(gs.iter().map(|g| at.saturating_sub(g.issued_at_ns)))
            }
            _ => {}
        }
    }
    ns_per_unit(|| {
        let mut h = Histogram::new();
        let t = Instant::now();
        for &v in &lat {
            h.record(v);
        }
        let ns = t.elapsed().as_nanos() as f64;
        std::hint::black_box(h.count());
        (ns, lat.len() as u64)
    })
}

/// `encode_msg` + `decode_msg` over the captured messages, ns per
/// message, and whether every message survived the round trip.
pub fn probe_codec(cap: &Captured) -> (f64, bool) {
    let mut intact = true;
    let ns = ns_per_unit(|| {
        let mut ok = true;
        let t = Instant::now();
        for (_, pkt) in &cap.packets {
            let mut bytes = encode_msg(&pkt.payload);
            ok &= decode_msg(&mut bytes).is_ok_and(|m| m == pkt.payload);
        }
        let ns = t.elapsed().as_nanos() as f64;
        intact &= ok;
        (ns, cap.packets.len() as u64)
    });
    (ns, intact)
}

/// `size_of::<Packet<NetLockMsg>>()`: the event slot payload.
pub fn packet_bytes() -> u64 {
    std::mem::size_of::<Packet<NetLockMsg>>() as u64
}

/// `TpccSource` through the `TxnSource` trait: `(ns per txn, locks per
/// txn)` over `n` transactions of the scenario's TPC-C configuration.
pub fn probe_tpcc(clients: usize, n: u64) -> (f64, f64) {
    let mut locks = 0u64;
    let ns = ns_per_unit(|| {
        let mut src: Box<dyn TxnSource> =
            Box::new(TpccSource::new(TpccConfig::low_contention(clients as u32)));
        let mut rng = netlock_sim::SimRng::new(11);
        locks = 0;
        let t = Instant::now();
        for _ in 0..n {
            locks += src.next_txn(&mut rng).lock_count() as u64;
        }
        (t.elapsed().as_nanos() as f64, n)
    });
    (ns, locks as f64 / n.max(1) as f64)
}

/// The cluster workload three ways — unpartitioned (fused loop),
/// `partition(_, 1)` and `partition(_, 2)` — in interleaved rounds over
/// a short window. Returns `(w1_over_fused, speedup_w2)` as medians of
/// per-round wall-clock ratios; `speedup_w2` is `None` with one core.
pub fn probe_par(
    spec: &'static WorkloadSpec,
    seed: u64,
    window_us: u64,
    rounds: usize,
) -> (f64, Option<f64>) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let alloc = allocate(spec);
    let run = |workers: Option<usize>| -> f64 {
        let mut cluster = build_cluster(spec, seed, &alloc, workers);
        cluster.sim.run_for(us(spec.warmup_us));
        let t = Instant::now();
        cluster.sim.run_for(us(window_us));
        let secs = t.elapsed().as_secs_f64();
        std::hint::black_box(cluster.sim.stats().events_fired);
        secs
    };
    let mut w1_over_fused = Vec::new();
    let mut speedup_w2 = Vec::new();
    for _ in 0..rounds {
        let fused = run(None);
        let w1 = run(Some(1));
        w1_over_fused.push(fused / w1);
        if cores >= 2 {
            speedup_w2.push(w1 / run(Some(2)));
        }
    }
    (
        median(&mut w1_over_fused),
        (!speedup_w2.is_empty()).then(|| median(&mut speedup_w2)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlock_proto::{ClientAddr, Priority, TenantId, TxnId};

    fn request(lock: u32, txn: u64) -> LockRequest {
        LockRequest {
            lock: LockId(lock),
            mode: LockMode::Exclusive,
            txn: TxnId(txn),
            client: ClientAddr(2),
            tenant: TenantId(0),
            priority: Priority(0),
            issued_at_ns: 0,
        }
    }

    fn lp_trace(cap: usize) -> LpTrace {
        LpTrace {
            oracle: None,
            switch: NodeId(1),
            servers: vec![NodeId(0)],
            cap,
            counting: false,
            captured: Vec::new(),
            counts: TraceCounts::default(),
        }
    }

    fn deliver(lp: &mut LpTrace, at: u64, dst: u32, payload: NetLockMsg) {
        let pkt = Packet {
            src: NodeId(2),
            dst: NodeId(dst),
            payload,
        };
        lp.observe(TapEvent::Delivered {
            at: SimTime(at),
            pkt: &pkt,
        });
    }

    #[test]
    fn capture_cap_is_honoured_and_counting_starts_when_told() {
        let mut lp = lp_trace(3);
        for i in 0..10 {
            if i == 4 {
                lp.counting = true;
            }
            deliver(&mut lp, i, 1, NetLockMsg::Acquire(request(7, i)));
        }
        assert_eq!(lp.captured.len(), 3);
        assert_eq!(lp.captured[2].0, 2, "the first packets are the ones kept");
        assert_eq!(lp.counts.switch_ops, 6);
        assert_eq!(lp.counts.table_ops, 0);
    }

    #[test]
    fn a_batch_spends_one_capture_slot_per_element() {
        let mut lp = lp_trace(5);
        lp.counting = true;
        let batch: Box<[LockRequest]> = (0..4).map(|i| request(i, i.into())).collect();
        deliver(&mut lp, 0, 1, NetLockMsg::AcquireBatch(batch.clone()));
        deliver(&mut lp, 1, 1, NetLockMsg::AcquireBatch(batch.clone()));
        deliver(&mut lp, 2, 1, NetLockMsg::AcquireBatch(batch));
        // 4 + 4 >= 5: the second batch is the last one captured.
        assert_eq!(lp.captured.len(), 2);
        assert_eq!(lp.counts.switch_ops, 12);
        // Server-bound: only table operations count.
        let fwd = |buffer_only| NetLockMsg::Forwarded {
            req: request(1, 1),
            buffer_only,
        };
        deliver(&mut lp, 3, 0, fwd(false));
        deliver(&mut lp, 4, 0, fwd(true));
        assert_eq!(lp.counts.table_ops, 1);
    }

    #[test]
    fn dist_buckets_bracket_the_histogram_quantiles() {
        let mut h = Histogram::new();
        for v in (0..5_000u64).map(|i| 7_900 + i * 37) {
            h.record(v);
        }
        let d = Dist::from_histogram(&h);
        assert_eq!(d.count, 5_000);
        assert_eq!(d.cum.last().unwrap().2, 5_000);
        for q in [0.5, 0.99, 0.999] {
            let coarse = h.quantile(q);
            let fine = crate::stats::quantile(&d.cum, d.min_ns, d.max_ns, q);
            assert!(
                fine >= coarse as f64 && fine <= (coarse + bucket_width(coarse)) as f64,
                "q {q}: {fine} vs bucket at {coarse}"
            );
        }
    }
}

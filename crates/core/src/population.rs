//! Aggregate client-population node: ~100K virtual clients per sim node.
//!
//! The paper evaluates NetLock with tens of client machines; the
//! north-star workload is "heavy traffic from millions of users". One
//! sim node per client cannot get there — node count is capped by the
//! dense `(src,dst)` link table (`netlock_sim::MAX_NODES`), and one
//! event per request hop caps throughput at the spine's events/second.
//! A [`PopulationClient`] collapses an arbitrary number of *virtual*
//! clients into one node that models them as per-tenant arrival
//! processes and ships their requests in *batches*: each generation
//! quantum emits at most one `NetLockMsg::AcquireBatch` event carrying
//! a `Box<[LockRequest]>`, so the per-request event cost drops from
//! ~4 events to ~4/B for batch size B (the boxed slice rides in the
//! same 48-byte event slot as every other message; see DESIGN.md §17).
//!
//! Arrival model per tenant: a Poisson (or deterministic-rate) base
//! process at `virtual_clients x rate_rps_per_client`, modulated
//! MMPP-style by an optional sinusoidal [`Diurnal`] profile and by
//! [`BurstEpisode`] flash crowds that multiply the rate and optionally
//! focus a fraction of requests on one hot lock. Outstanding-grant
//! state is a dense per-tenant row (no per-virtual-client allocation):
//! the tenant index is folded into the transaction id, so each grant
//! coming back — singly or inside a `GrantBatch` — is routed to its row
//! with two shifts and a mask.
//!
//! Transaction ids encode `(node << 40) | (tenant_idx << 32) | seq`,
//! a refinement of the repo-wide `(node << 40) | seq` convention that
//! keeps the top 24 bits as the node id while making the owning tenant
//! recoverable from any grant (`GrantMsg` carries no tenant field).

use std::collections::VecDeque;

use netlock_proto::{
    ClientAddr, GrantMsg, LockId, LockMode, LockRequest, NetLockMsg, Priority, ReleaseRequest,
    TenantId, TxnId,
};
use netlock_sim::{Context, Histogram, LatencySummary, Node, NodeId, Packet, SimDuration};

use crate::client_micro::take_due;
use crate::harness::{ClientReport, RunStats};
use crate::CLIENT_STACK_DELAY;

/// Generation quantum: arrivals within one quantum are batched into a
/// single `AcquireBatch` event. Larger quanta mean fewer events and
/// coarser arrival timing; 100 µs keeps sub-millisecond dynamics
/// visible while batching thousands of requests at million-client
/// rates.
pub const QUANTUM: SimDuration = SimDuration::from_micros(100);

const TIMER_TICK: u64 = 0;
/// Release timers carry `RELEASE_BASE + key`.
const RELEASE_BASE: u64 = 1 << 32;

/// Max tenants per population node: the tenant index must fit in the
/// 8 txn-id bits between the node id and the 32-bit sequence.
pub const MAX_TENANTS: usize = 256;

/// Extract the tenant row index a population node folded into a txn id.
#[inline]
pub fn tenant_index_of(txn: TxnId) -> usize {
    ((txn.0 >> 32) & 0xFF) as usize
}

/// Sinusoidal diurnal rate modulation (the MMPP's slow phase).
///
/// At time `t` the tenant's rate is scaled by
/// `1 + amplitude * sin(2π t / period)`, clamped at zero, so offered
/// load swings between `(1 - amplitude)` and `(1 + amplitude)` of the
/// base rate over one period.
#[derive(Clone, Copy, Debug)]
pub struct Diurnal {
    /// Peak deviation from the base rate, typically in `[0, 1]`.
    pub amplitude: f64,
    /// Length of one full cycle.
    pub period: SimDuration,
}

impl Diurnal {
    fn factor(&self, now_ns: u64) -> f64 {
        let period_ns = self.period.as_nanos().max(1);
        let phase = (now_ns % period_ns) as f64 / period_ns as f64;
        (1.0 + self.amplitude * (std::f64::consts::TAU * phase).sin()).max(0.0)
    }
}

/// A flash-crowd episode: for `[start, start + duration)` the tenant's
/// arrival rate is multiplied by `multiplier`, and if `hot_lock` is
/// set, each request targets it with probability `hot_fraction`
/// instead of drawing uniformly from the tenant's lock set.
#[derive(Clone, Copy, Debug)]
pub struct BurstEpisode {
    /// Episode start (absolute sim time, ns since epoch).
    pub start_ns: u64,
    /// Episode length.
    pub duration: SimDuration,
    /// Rate multiplier while active (>= 0).
    pub multiplier: f64,
    /// Hot key the crowd piles onto, if any.
    pub hot_lock: Option<LockId>,
    /// Probability a request during the episode goes to `hot_lock`.
    pub hot_fraction: f64,
}

impl BurstEpisode {
    fn active_at(&self, now_ns: u64) -> bool {
        now_ns >= self.start_ns && now_ns - self.start_ns < self.duration.as_nanos()
    }
}

/// One tenant's share of the population.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Tenant id carried in every request.
    pub tenant: TenantId,
    /// Number of virtual clients this tenant aggregates.
    pub virtual_clients: u64,
    /// Offered load per virtual client, requests per second.
    pub rate_rps_per_client: f64,
    /// Locks targeted, uniformly (except during hot-key bursts).
    pub locks: Vec<LockId>,
    /// Mode of every request.
    pub mode: LockMode,
    /// Max in-flight (un-granted) requests across the tenant's whole
    /// population — the aggregate generator window.
    pub max_outstanding: u64,
    /// Optional slow sinusoidal rate modulation.
    pub diurnal: Option<Diurnal>,
    /// Flash-crowd episodes (evaluated every quantum; overlapping
    /// episodes multiply).
    pub bursts: Vec<BurstEpisode>,
}

impl Default for TenantSpec {
    fn default() -> Self {
        TenantSpec {
            tenant: TenantId(0),
            virtual_clients: 1_000,
            rate_rps_per_client: 100.0,
            locks: vec![LockId(0)],
            mode: LockMode::Shared,
            max_outstanding: 4_000,
            diurnal: None,
            bursts: Vec::new(),
        }
    }
}

impl TenantSpec {
    fn base_rate_rps(&self) -> f64 {
        self.virtual_clients as f64 * self.rate_rps_per_client
    }
}

/// Population node configuration.
#[derive(Clone, Debug)]
pub struct PopulationConfig {
    /// Tenants sharing this node (at most [`MAX_TENANTS`]).
    pub tenants: Vec<TenantSpec>,
    /// Poisson arrival counts (true) or deterministic fluid
    /// accumulation at the exact mean rate (false).
    pub poisson: bool,
    /// Time between receiving a grant and issuing the release (beyond
    /// client RX/TX processing, [`CLIENT_STACK_DELAY`] per whole batch).
    pub hold: SimDuration,
    /// Reclaim a tenant's whole window if no grant arrived for this
    /// long: lost batches under chaos faults would otherwise pin
    /// window slots forever. Zero disables reclaim.
    pub retry_timeout: SimDuration,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            tenants: vec![TenantSpec::default()],
            poisson: false,
            hold: SimDuration::ZERO,
            retry_timeout: SimDuration::from_millis(30),
        }
    }
}

/// Dense per-tenant generator state: everything the aggregate needs to
/// track an arbitrary number of virtual clients in O(1) space.
#[derive(Clone, Debug, Default)]
struct TenantRow {
    /// In-flight (un-granted) requests.
    outstanding: u64,
    /// Fractional-arrival carry for deterministic (fluid) mode.
    credit: f64,
    /// Next sequence number (wraps into 32 bits in the txn id).
    seq: u64,
    /// Last time a grant arrived (or the window was reclaimed), ns.
    last_progress_ns: u64,
    // -- counters, zeroed by reset_stats --
    issued: u64,
    grants: u64,
    throttled: u64,
    reclaimed: u64,
    latency: Histogram,
}

/// Per-tenant counters since the last reset (figure series data).
#[derive(Clone, Debug)]
pub struct TenantStats {
    /// Tenant id from the spec.
    pub tenant: TenantId,
    /// Requests issued.
    pub issued: u64,
    /// Grants received.
    pub grants: u64,
    /// Arrivals dropped because the tenant window was full.
    pub throttled: u64,
    /// Window slots reclaimed by the retry timeout.
    pub reclaimed: u64,
    /// Acquire→grant latency (ns), including client processing.
    pub latency: Histogram,
}

impl TenantStats {
    /// Latency summary in the paper's terms.
    pub fn latency_summary(&self) -> LatencySummary {
        LatencySummary::from_histogram(&self.latency)
    }
}

/// Whole-node counters since the last reset.
#[derive(Clone, Debug, Default)]
pub struct PopulationStats {
    /// Requests issued across all tenants.
    pub issued: u64,
    /// Grants received across all tenants.
    pub grants: u64,
    /// Arrivals dropped because a tenant window was full.
    pub throttled: u64,
    /// Window slots reclaimed by the retry timeout.
    pub reclaimed: u64,
    /// `AcquireBatch`/`Acquire` events sent (batching denominator).
    pub batches_sent: u64,
    /// Grant-bearing events received (batching numerator's dual: the
    /// mean grants-per-event is `grants / grant_events`).
    pub grant_events: u64,
    /// Merged acquire→grant latency (ns).
    pub latency: Histogram,
}

impl PopulationStats {
    /// Latency summary in the paper's terms.
    pub fn latency_summary(&self) -> LatencySummary {
        LatencySummary::from_histogram(&self.latency)
    }
}

/// The aggregate client-population node.
pub struct PopulationClient {
    cfg: PopulationConfig,
    switch: NodeId,
    rows: Vec<TenantRow>,
    release_key: u64,
    /// Held releases waiting for their timer, keyed in arming order.
    /// Every timer carries the same delay, so they fire in key order
    /// and the due entry is at the front.
    pending_releases: VecDeque<(u64, Vec<ReleaseRequest>)>,
    stopped: bool,
    batches_sent: u64,
    grant_events: u64,
    /// Reused between ticks so steady-state generation performs only
    /// the one unavoidable `Box<[_]>` allocation per batch event.
    scratch: Vec<LockRequest>,
}

impl PopulationClient {
    /// A population that sends its batches to `switch`.
    pub fn new(cfg: PopulationConfig, switch: NodeId) -> PopulationClient {
        assert!(!cfg.tenants.is_empty(), "population needs >= 1 tenant");
        assert!(
            cfg.tenants.len() <= MAX_TENANTS,
            "at most {MAX_TENANTS} tenants per population node (8 txn-id bits)"
        );
        for t in &cfg.tenants {
            assert!(!t.locks.is_empty(), "tenant needs at least one lock");
            assert!(t.rate_rps_per_client >= 0.0, "rate must be non-negative");
        }
        let rows = vec![TenantRow::default(); cfg.tenants.len()];
        PopulationClient {
            cfg,
            switch,
            rows,
            release_key: 0,
            pending_releases: VecDeque::new(),
            stopped: false,
            batches_sent: 0,
            grant_events: 0,
            scratch: Vec::new(),
        }
    }

    /// Whole-node counters since the last reset.
    pub fn stats(&self) -> PopulationStats {
        let mut out = PopulationStats {
            batches_sent: self.batches_sent,
            grant_events: self.grant_events,
            ..Default::default()
        };
        for row in &self.rows {
            out.issued += row.issued;
            out.grants += row.grants;
            out.throttled += row.throttled;
            out.reclaimed += row.reclaimed;
            out.latency.merge(&row.latency);
        }
        out
    }

    /// Per-tenant counters since the last reset, in spec order.
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        self.cfg
            .tenants
            .iter()
            .zip(&self.rows)
            .map(|(spec, row)| TenantStats {
                tenant: spec.tenant,
                issued: row.issued,
                grants: row.grants,
                throttled: row.throttled,
                reclaimed: row.reclaimed,
                latency: row.latency.clone(),
            })
            .collect()
    }

    /// Clear measurement state (end of warmup). Generator state —
    /// outstanding windows, fluid credit, sequence numbers — persists,
    /// exactly like an individual client's.
    pub fn reset_stats(&mut self) {
        for row in &mut self.rows {
            row.issued = 0;
            row.grants = 0;
            row.throttled = 0;
            row.reclaimed = 0;
            row.latency = Histogram::default();
        }
        self.batches_sent = 0;
        self.grant_events = 0;
    }

    /// Stop generating: the next tick is a no-op and the timer is not
    /// re-armed. In-flight requests still complete, so the run can
    /// quiesce to an exact issued count (equivalence tests).
    pub fn stop_generating(&mut self) {
        self.stopped = true;
    }

    fn tick(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        if self.stopped {
            return;
        }
        let now_ns = ctx.now().as_nanos();
        let quantum_secs = QUANTUM.as_secs_f64();
        let retry_ns = self.cfg.retry_timeout.as_nanos();
        let me = ctx.self_id();
        let mut batch = std::mem::take(&mut self.scratch);
        batch.clear();
        for ti in 0..self.cfg.tenants.len() {
            let spec = &self.cfg.tenants[ti];
            let row = &mut self.rows[ti];
            if retry_ns > 0 && row.outstanding > 0 && now_ns - row.last_progress_ns >= retry_ns {
                // Grants stopped arriving (lost batch / dead path):
                // free the window so the tenant keeps offering load.
                row.reclaimed += row.outstanding;
                row.outstanding = 0;
                row.last_progress_ns = now_ns;
            }
            let mut rate = spec.base_rate_rps();
            if let Some(d) = &spec.diurnal {
                rate *= d.factor(now_ns);
            }
            let mut hot: Option<(LockId, f64)> = None;
            for b in &spec.bursts {
                if b.active_at(now_ns) {
                    rate *= b.multiplier.max(0.0);
                    if let Some(l) = b.hot_lock {
                        hot = Some((l, b.hot_fraction));
                    }
                }
            }
            let mean = rate * quantum_secs;
            let arrivals = if self.cfg.poisson {
                ctx.rng().poisson(mean)
            } else {
                // Fluid accumulation: carry the fractional remainder so
                // the long-run rate is exact. The epsilon absorbs float
                // error when the mean is a whole number per quantum.
                row.credit += mean;
                let n = (row.credit + 1e-9).floor();
                row.credit -= n;
                n as u64
            };
            let space = spec.max_outstanding.saturating_sub(row.outstanding);
            let admitted = arrivals.min(space);
            row.throttled += arrivals - admitted;
            for _ in 0..admitted {
                let lock = match hot {
                    Some((l, f)) if ctx.rng().chance(f) => l,
                    _ => spec.locks[ctx.rng().index(spec.locks.len())],
                };
                let txn =
                    TxnId(((me.0 as u64) << 40) | ((ti as u64) << 32) | (row.seq & 0xFFFF_FFFF));
                row.seq += 1;
                batch.push(LockRequest {
                    lock,
                    mode: spec.mode,
                    txn,
                    client: ClientAddr(me.0),
                    tenant: spec.tenant,
                    priority: Priority(0),
                    issued_at_ns: now_ns,
                });
            }
            row.outstanding += admitted;
            row.issued += admitted;
        }
        if !batch.is_empty() {
            self.batches_sent += 1;
            let msg = if batch.len() == 1 {
                // Singletons keep the individual wire format so tiny
                // populations are indistinguishable from one client.
                NetLockMsg::Acquire(batch[0])
            } else {
                NetLockMsg::AcquireBatch(batch.as_slice().into())
            };
            ctx.send_after(self.switch, msg, CLIENT_STACK_DELAY);
        }
        self.scratch = batch;
        ctx.set_timer(QUANTUM, TIMER_TICK);
    }

    fn on_grants(&mut self, grants: &[GrantMsg], ctx: &mut Context<'_, NetLockMsg>) {
        self.grant_events += 1;
        let now_ns = ctx.now().as_nanos();
        let rx_ns = CLIENT_STACK_DELAY.as_nanos();
        let mut releases = Vec::with_capacity(grants.len());
        for g in grants {
            if let Some(row) = self.rows.get_mut(tenant_index_of(g.txn)) {
                row.outstanding = row.outstanding.saturating_sub(1);
                row.grants += 1;
                row.last_progress_ns = now_ns;
                row.latency
                    .record((now_ns + rx_ns).saturating_sub(g.issued_at_ns));
            }
            releases.push(ReleaseRequest {
                lock: g.lock,
                txn: g.txn,
                mode: g.mode,
                client: g.client,
                priority: g.priority,
            });
        }
        let delay = CLIENT_STACK_DELAY + self.cfg.hold + CLIENT_STACK_DELAY;
        if self.cfg.hold.is_zero() {
            self.send_releases(releases, delay, ctx);
        } else {
            // Model the hold as a timer so the release reflects the
            // client's clock, not the grant path.
            let key = self.release_key;
            self.release_key += 1;
            self.pending_releases.push_back((key, releases));
            ctx.set_timer(delay, RELEASE_BASE + key);
        }
    }

    fn send_releases(
        &mut self,
        mut releases: Vec<ReleaseRequest>,
        delay: SimDuration,
        ctx: &mut Context<'_, NetLockMsg>,
    ) {
        debug_assert!(!releases.is_empty());
        let msg = if releases.len() == 1 {
            NetLockMsg::Release(releases.pop().expect("len checked"))
        } else {
            NetLockMsg::ReleaseBatch(releases.into())
        };
        ctx.send_after(self.switch, msg, delay);
    }
}

impl ClientReport for PopulationClient {
    fn reset(&mut self) {
        self.reset_stats();
    }

    fn fold_into(&self, out: &mut RunStats) {
        let s = self.stats();
        out.issued += s.issued;
        out.grants += s.grants;
        out.grants_switch += s.grants; // switch-only path
        out.retries += s.reclaimed;
        out.lock_latency.merge(&s.latency);
    }

    fn completed(&self) -> u64 {
        self.rows.iter().map(|row| row.grants).sum()
    }
}

impl Node<NetLockMsg> for PopulationClient {
    fn on_start(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        // First tick at t=0, unjittered: the aggregate already smears
        // arrivals across virtual clients, and a fixed phase keeps the
        // tick times identical under any worker partitioning.
        ctx.set_timer(SimDuration::ZERO, TIMER_TICK);
    }

    fn on_packet(&mut self, pkt: Packet<NetLockMsg>, ctx: &mut Context<'_, NetLockMsg>) {
        match pkt.payload {
            NetLockMsg::Grant(g) => self.on_grants(std::slice::from_ref(&g), ctx),
            NetLockMsg::GrantBatch(gs) => self.on_grants(&gs, ctx),
            NetLockMsg::DbReply { grant } => self.on_grants(std::slice::from_ref(&grant), ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, NetLockMsg>) {
        if token == TIMER_TICK {
            self.tick(ctx);
        } else if token >= RELEASE_BASE {
            if let Some(rels) = take_due(&mut self.pending_releases, token - RELEASE_BASE) {
                self.send_releases(rels, SimDuration::ZERO, ctx);
            }
        }
    }

    fn name(&self) -> &str {
        "population-client"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlock_sim::{LinkConfig, SimTime, Simulator, Topology};
    use netlock_switch::control::{apply_allocation, knapsack_allocate, LockStats};
    use netlock_switch::shared_queue::SharedQueueLayout;
    use netlock_switch::{DataPlane, SwitchConfig, SwitchNode};

    fn build_switch(sim: &mut Simulator<NetLockMsg>, locks: &[LockId]) -> NodeId {
        let mut dp = DataPlane::new_fcfs(&SharedQueueLayout::small(2, 16_384, 64));
        let stats = LockStats::uniform(locks.iter().copied(), 2_000, 1);
        apply_allocation(&mut dp, &knapsack_allocate(&stats, 32_768));
        sim.add_node(Box::new(SwitchNode::new(
            dp,
            SwitchConfig::default(),
            vec![],
        )))
    }

    fn sim() -> Simulator<NetLockMsg> {
        Simulator::new(
            Topology::new(LinkConfig::with_delay(SimDuration::from_nanos(1_200))),
            7,
        )
    }

    #[test]
    fn aggregate_population_offers_configured_rate() {
        let mut sim = sim();
        let locks: Vec<LockId> = (0..4).map(LockId).collect();
        let switch = build_switch(&mut sim, &locks);
        let pop = sim.add_node(Box::new(PopulationClient::new(
            PopulationConfig {
                tenants: vec![TenantSpec {
                    virtual_clients: 10_000,
                    rate_rps_per_client: 100.0, // 1 MRPS aggregate
                    locks,
                    max_outstanding: 1 << 20,
                    ..Default::default()
                }],
                ..Default::default()
            },
            switch,
        )));
        sim.run_until(SimTime(SimDuration::from_millis(10).as_nanos()));
        let stats = sim.read_node::<PopulationClient, _>(pop, |p| p.stats());
        // 1 MRPS x 10 ms = 10_000 requests; fluid mode is exact up to
        // whether the tick on the final boundary fires.
        assert!(
            (9_900..=10_100).contains(&stats.issued),
            "issued {}",
            stats.issued
        );
        assert!(stats.grants + 1_000 >= stats.issued);
        // ~100 ticks carried ~10k requests: two orders fewer events.
        assert!(stats.batches_sent <= 101, "{}", stats.batches_sent);
    }

    #[test]
    fn poisson_population_rate_roughly_matches() {
        let mut sim = sim();
        let locks = vec![LockId(0)];
        let switch = build_switch(&mut sim, &locks);
        let pop = sim.add_node(Box::new(PopulationClient::new(
            PopulationConfig {
                poisson: true,
                tenants: vec![TenantSpec {
                    virtual_clients: 50_000,
                    rate_rps_per_client: 20.0, // 1 MRPS aggregate
                    locks,
                    max_outstanding: 1 << 20,
                    ..Default::default()
                }],
                ..Default::default()
            },
            switch,
        )));
        sim.run_until(SimTime(SimDuration::from_millis(20).as_nanos()));
        let stats = sim.read_node::<PopulationClient, _>(pop, |p| p.stats());
        let expected = 20_000.0;
        assert!(
            (stats.issued as f64 - expected).abs() < 0.05 * expected,
            "issued {} vs expected {expected}",
            stats.issued
        );
        assert!(stats.grants + 2_000 >= stats.issued);
        // Batching actually happened: far fewer events than requests.
        assert!(stats.batches_sent < stats.issued / 10);
    }

    #[test]
    fn grants_fan_back_to_correct_tenant_rows() {
        let mut sim = sim();
        let locks = vec![LockId(0), LockId(1)];
        let switch = build_switch(&mut sim, &locks);
        let pop = sim.add_node(Box::new(PopulationClient::new(
            PopulationConfig {
                tenants: vec![
                    TenantSpec {
                        tenant: TenantId(3),
                        virtual_clients: 100,
                        rate_rps_per_client: 1_000.0,
                        locks: vec![LockId(0)],
                        ..Default::default()
                    },
                    TenantSpec {
                        tenant: TenantId(9),
                        virtual_clients: 300,
                        rate_rps_per_client: 1_000.0,
                        locks: vec![LockId(1)],
                        ..Default::default()
                    },
                ],
                ..Default::default()
            },
            switch,
        )));
        sim.run_until(SimTime(SimDuration::from_millis(10).as_nanos()));
        let per_tenant = sim.read_node::<PopulationClient, _>(pop, |p| p.tenant_stats());
        assert_eq!(per_tenant.len(), 2);
        // 100 clients x 1 kRPS x 10 ms = 1000; tenant 2 is 3x tenant 1.
        assert!(per_tenant[0].issued >= 900, "{}", per_tenant[0].issued);
        assert!(
            per_tenant[1].issued >= 3 * per_tenant[0].issued - 100,
            "t0 {} t1 {}",
            per_tenant[0].issued,
            per_tenant[1].issued
        );
        for t in &per_tenant {
            assert!(t.grants + 50 >= t.issued, "{t:?}");
            assert!(t.latency_summary().avg_ns > 0.0);
        }
    }

    #[test]
    fn burst_episode_multiplies_rate_and_focuses_hot_lock() {
        let run = |bursts: Vec<BurstEpisode>| {
            let mut sim = sim();
            let locks: Vec<LockId> = (0..8).map(LockId).collect();
            let switch = build_switch(&mut sim, &locks);
            let pop = sim.add_node(Box::new(PopulationClient::new(
                PopulationConfig {
                    tenants: vec![TenantSpec {
                        virtual_clients: 1_000,
                        rate_rps_per_client: 100.0,
                        locks,
                        max_outstanding: 1 << 20,
                        bursts,
                        ..Default::default()
                    }],
                    ..Default::default()
                },
                switch,
            )));
            sim.run_until(SimTime(SimDuration::from_millis(10).as_nanos()));
            sim.read_node::<PopulationClient, _>(pop, |p| p.stats().issued)
        };
        let calm = run(vec![]);
        let bursty = run(vec![BurstEpisode {
            start_ns: SimDuration::from_millis(2).as_nanos(),
            duration: SimDuration::from_millis(4),
            multiplier: 10.0,
            hot_lock: Some(LockId(5)),
            hot_fraction: 0.9,
        }]);
        // 10 ms at 100 kRPS = 1000 calm; burst adds ~9x for 4 of 10 ms.
        assert!((900..=1_100).contains(&calm), "calm {calm}");
        assert!(
            bursty as f64 >= 3.5 * calm as f64,
            "bursty {bursty} calm {calm}"
        );
    }

    #[test]
    fn diurnal_modulation_shifts_load_between_half_periods() {
        let run_half = |phase_start_ms: u64| {
            let mut sim = sim();
            let locks = vec![LockId(0)];
            let switch = build_switch(&mut sim, &locks);
            let pop = sim.add_node(Box::new(PopulationClient::new(
                PopulationConfig {
                    tenants: vec![TenantSpec {
                        virtual_clients: 1_000,
                        rate_rps_per_client: 100.0,
                        locks,
                        max_outstanding: 1 << 20,
                        diurnal: Some(Diurnal {
                            amplitude: 0.8,
                            period: SimDuration::from_millis(20),
                        }),
                        ..Default::default()
                    }],
                    ..Default::default()
                },
                switch,
            )));
            sim.run_until(SimTime(SimDuration::from_millis(phase_start_ms).as_nanos()));
            sim.with_node::<PopulationClient, _>(pop, |p| p.reset_stats());
            sim.run_until(SimTime(
                SimDuration::from_millis(phase_start_ms + 10).as_nanos(),
            ));
            sim.read_node::<PopulationClient, _>(pop, |p| p.stats().issued)
        };
        // First half period rides the sine peak; second the trough.
        let peak = run_half(0);
        let trough = run_half(10);
        assert!(
            peak as f64 > 1.8 * trough as f64,
            "peak {peak} trough {trough}"
        );
    }

    #[test]
    fn window_throttles_and_retry_reclaims() {
        let mut sim = sim();
        let locks = vec![LockId(0)];
        let switch = build_switch(&mut sim, &locks);
        // Point the population at a dead node id: every batch is lost.
        let black_hole = NodeId(250);
        let pop = sim.add_node(Box::new(PopulationClient::new(
            PopulationConfig {
                retry_timeout: SimDuration::from_millis(2),
                tenants: vec![TenantSpec {
                    virtual_clients: 1_000,
                    rate_rps_per_client: 1_000.0,
                    locks,
                    max_outstanding: 100,
                    ..Default::default()
                }],
                ..Default::default()
            },
            black_hole,
        )));
        let _ = switch;
        sim.run_until(SimTime(SimDuration::from_millis(10).as_nanos()));
        let stats = sim.read_node::<PopulationClient, _>(pop, |p| p.stats());
        assert_eq!(stats.grants, 0);
        assert!(stats.throttled > 0, "window never filled: {stats:?}");
        assert!(stats.reclaimed >= 100, "retry never reclaimed: {stats:?}");
    }

    #[test]
    fn stop_generating_quiesces() {
        let mut sim = sim();
        let locks = vec![LockId(0)];
        let switch = build_switch(&mut sim, &locks);
        let pop = sim.add_node(Box::new(PopulationClient::new(
            PopulationConfig {
                tenants: vec![TenantSpec {
                    virtual_clients: 1_000,
                    rate_rps_per_client: 100.0,
                    locks,
                    ..Default::default()
                }],
                ..Default::default()
            },
            switch,
        )));
        sim.run_until(SimTime(SimDuration::from_millis(5).as_nanos()));
        sim.with_node::<PopulationClient, _>(pop, |p| p.stop_generating());
        sim.run_until(SimTime(SimDuration::from_millis(6).as_nanos()));
        let at_stop = sim.read_node::<PopulationClient, _>(pop, |p| p.stats());
        sim.run_until(SimTime(SimDuration::from_millis(20).as_nanos()));
        let later = sim.read_node::<PopulationClient, _>(pop, |p| p.stats());
        assert_eq!(at_stop.issued, later.issued);
        assert_eq!(later.grants, later.issued, "drain must grant everything");
    }

    #[test]
    fn txn_id_encodes_node_and_tenant() {
        let txn = TxnId((42u64 << 40) | (7u64 << 32) | 123);
        assert_eq!(tenant_index_of(txn), 7);
        assert_eq!(txn.0 >> 40, 42);
        assert_eq!(txn.0 & 0xFFFF_FFFF, 123);
    }

    #[test]
    fn reset_stats_keeps_generator_state() {
        let mut sim = sim();
        let locks = vec![LockId(0)];
        let switch = build_switch(&mut sim, &locks);
        let pop = sim.add_node(Box::new(PopulationClient::new(
            PopulationConfig::default(),
            switch,
        )));
        sim.run_until(SimTime(SimDuration::from_millis(5).as_nanos()));
        sim.with_node::<PopulationClient, _>(pop, |p| p.reset_stats());
        let stats = sim.read_node::<PopulationClient, _>(pop, |p| p.stats());
        assert_eq!(stats.issued, 0);
        assert_eq!(stats.grants, 0);
        // Sequence numbers must NOT reset (txn ids stay unique).
        sim.run_until(SimTime(SimDuration::from_millis(10).as_nanos()));
        let stats = sim.read_node::<PopulationClient, _>(pop, |p| p.stats());
        assert!(stats.issued > 0);
    }
}

//! Open-loop microbenchmark client (§6.2's request generators).
//!
//! Generates acquire requests at a configured rate against a lock set,
//! releases each lock as soon as it is granted (plus an optional hold
//! time), and records acquire→grant latency. Client software + NIC
//! processing — which dominates the paper's measured latency — is
//! modeled as [`CLIENT_STACK_DELAY`] on each of transmit and receive.

use std::collections::VecDeque;

use netlock_proto::{
    ClientAddr, GrantMsg, LockId, LockMode, LockRequest, NetLockMsg, Priority, ReleaseRequest,
    TenantId, TxnId,
};
use netlock_sim::{Context, Histogram, LatencySummary, Node, NodeId, Packet, SimDuration};

use crate::harness::{ClientReport, RunStats};
use crate::CLIENT_STACK_DELAY;

const TIMER_GENERATE: u64 = 0;
/// Release timers carry `RELEASE_BASE + key`.
const RELEASE_BASE: u64 = 1 << 32;

/// Take the held release whose timer (`key`) just fired. Timers fire in
/// key order, so it is at the front; an entry ahead of it lost its
/// timer while the node was down (the simulator drops a dead node's
/// timers) and is dropped here, where the map this replaces kept it
/// forever.
pub(crate) fn take_due<T>(pending: &mut VecDeque<(u64, T)>, key: u64) -> Option<T> {
    while let Some(&(k, _)) = pending.front() {
        if k > key {
            break;
        }
        let (_, held) = pending.pop_front()?;
        if k == key {
            return Some(held);
        }
    }
    debug_assert!(false, "release timer {key} fired with nothing held");
    None
}

/// Microbenchmark client configuration.
#[derive(Clone, Debug)]
pub struct MicroClientConfig {
    /// Offered load, requests per second (capped by `max_outstanding`).
    pub rate_rps: f64,
    /// Locks to target, chosen uniformly.
    pub locks: Vec<LockId>,
    /// Mode of every request.
    pub mode: LockMode,
    /// Time between receiving a grant and issuing the release (beyond
    /// client RX/TX processing).
    pub hold: SimDuration,
    /// Max in-flight (un-granted) requests — the generator's window.
    pub max_outstanding: usize,
    /// Poisson arrivals (true) or uniform spacing (false).
    pub poisson: bool,
    /// Tenant carried in requests.
    pub tenant: TenantId,
}

impl Default for MicroClientConfig {
    fn default() -> Self {
        MicroClientConfig {
            rate_rps: 1_000_000.0,
            locks: vec![LockId(0)],
            mode: LockMode::Shared,
            hold: SimDuration::ZERO,
            max_outstanding: 256,
            poisson: false,
            tenant: TenantId(0),
        }
    }
}

/// Microbenchmark client counters.
#[derive(Clone, Debug, Default)]
pub struct MicroClientStats {
    /// Requests sent.
    pub issued: u64,
    /// Grants received.
    pub grants: u64,
    /// Generation slots skipped because the window was full.
    pub throttled: u64,
    /// Acquire→grant latency (ns), including client processing.
    pub latency: Histogram,
}

impl MicroClientStats {
    /// Latency summary in the paper's terms.
    pub fn latency_summary(&self) -> LatencySummary {
        LatencySummary::from_histogram(&self.latency)
    }
}

/// The open-loop client node.
pub struct MicroClient {
    cfg: MicroClientConfig,
    switch: NodeId,
    next_seq: u64,
    outstanding: usize,
    release_key: u64,
    /// Held releases waiting for their timer, keyed in arming order.
    /// Every timer carries the same delay, so they fire in key order
    /// and the due entry is at the front.
    pending_releases: VecDeque<(u64, ReleaseRequest)>,
    stopped: bool,
    stats: MicroClientStats,
}

impl MicroClient {
    /// A client that sends its requests to `switch`.
    pub fn new(cfg: MicroClientConfig, switch: NodeId) -> MicroClient {
        assert!(cfg.rate_rps > 0.0, "rate must be positive");
        assert!(!cfg.locks.is_empty(), "need at least one target lock");
        MicroClient {
            cfg,
            switch,
            next_seq: 0,
            outstanding: 0,
            release_key: 0,
            pending_releases: VecDeque::new(),
            stopped: false,
            stats: MicroClientStats::default(),
        }
    }

    /// Stop generating new requests: the next generation tick is a
    /// no-op and the timer is not re-armed. In-flight requests still
    /// complete (grants are consumed, releases go out), so a run can
    /// quiesce to an exact issued count before draining — the
    /// population-equivalence tests rely on this.
    pub fn stop_generating(&mut self) {
        self.stopped = true;
    }

    /// Counters (harness access).
    pub fn stats(&self) -> &MicroClientStats {
        &self.stats
    }

    /// Clear measurement state (end of warmup).
    pub fn reset_stats(&mut self) {
        self.stats = MicroClientStats::default();
    }

    fn interval(&self, ctx: &mut Context<'_, NetLockMsg>) -> SimDuration {
        let mean_ns = 1e9 / self.cfg.rate_rps;
        if self.cfg.poisson {
            SimDuration::from_nanos(ctx.rng().exponential(mean_ns).max(1.0) as u64)
        } else {
            SimDuration::from_nanos(mean_ns.max(1.0) as u64)
        }
    }

    fn generate(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        if self.stopped {
            return;
        }
        if self.outstanding >= self.cfg.max_outstanding {
            self.stats.throttled += 1;
        } else {
            let lock = self.cfg.locks[ctx.rng().index(self.cfg.locks.len())];
            let me = ctx.self_id();
            let txn = TxnId(((me.0 as u64) << 40) | self.next_seq);
            self.next_seq += 1;
            let req = LockRequest {
                lock,
                mode: self.cfg.mode,
                txn,
                client: ClientAddr(me.0),
                tenant: self.cfg.tenant,
                priority: Priority(0),
                issued_at_ns: ctx.now().as_nanos(),
            };
            self.outstanding += 1;
            self.stats.issued += 1;
            ctx.send_after(self.switch, NetLockMsg::Acquire(req), CLIENT_STACK_DELAY);
        }
        let next = self.interval(ctx);
        ctx.set_timer(next, TIMER_GENERATE);
    }

    fn on_grant(&mut self, grant: GrantMsg, ctx: &mut Context<'_, NetLockMsg>) {
        self.outstanding = self.outstanding.saturating_sub(1);
        self.stats.grants += 1;
        let latency = ctx.now().as_nanos() - grant.issued_at_ns + CLIENT_STACK_DELAY.as_nanos();
        self.stats.latency.record(latency);
        let rel = ReleaseRequest {
            lock: grant.lock,
            txn: grant.txn,
            mode: grant.mode,
            client: grant.client,
            priority: grant.priority,
        };
        let delay = CLIENT_STACK_DELAY + self.cfg.hold + CLIENT_STACK_DELAY;
        if self.cfg.hold.is_zero() {
            ctx.send_after(self.switch, NetLockMsg::Release(rel), delay);
        } else {
            // Model the hold as a timer so the release reflects the
            // client's clock, not the grant path.
            let key = self.release_key;
            self.release_key += 1;
            self.pending_releases.push_back((key, rel));
            ctx.set_timer(delay, RELEASE_BASE + key);
        }
    }
}

impl ClientReport for MicroClient {
    fn reset(&mut self) {
        self.reset_stats();
    }

    fn fold_into(&self, out: &mut RunStats) {
        out.issued += self.stats.issued;
        out.grants += self.stats.grants;
        out.grants_switch += self.stats.grants; // switch-only path
        out.lock_latency.merge(&self.stats.latency);
    }

    fn completed(&self) -> u64 {
        self.stats.grants
    }
}

impl Node<NetLockMsg> for MicroClient {
    fn on_start(&mut self, ctx: &mut Context<'_, NetLockMsg>) {
        // Stagger the first generation tick to avoid fleet lockstep.
        let jitter = ctx.rng().next_below(1_000);
        ctx.set_timer(SimDuration::from_nanos(jitter), TIMER_GENERATE);
    }

    fn on_packet(&mut self, pkt: Packet<NetLockMsg>, ctx: &mut Context<'_, NetLockMsg>) {
        match pkt.payload {
            NetLockMsg::Grant(g) => self.on_grant(g, ctx),
            NetLockMsg::DbReply { grant } => self.on_grant(grant, ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, NetLockMsg>) {
        if token == TIMER_GENERATE {
            self.generate(ctx);
        } else if token >= RELEASE_BASE {
            if let Some(rel) = take_due(&mut self.pending_releases, token - RELEASE_BASE) {
                ctx.send(self.switch, NetLockMsg::Release(rel));
            }
        }
    }

    fn name(&self) -> &str {
        "micro-client"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlock_sim::{LinkConfig, SimTime, Simulator, Topology};
    use netlock_switch::control::{apply_allocation, knapsack_allocate, LockStats};
    use netlock_switch::shared_queue::SharedQueueLayout;
    use netlock_switch::{DataPlane, SwitchConfig, SwitchNode, TRAVERSAL};

    #[test]
    fn due_release_is_at_the_front_and_orphans_go_with_it() {
        let mut pending: VecDeque<(u64, &str)> = (0..5).zip(["a", "b", "c", "d", "e"]).collect();
        assert_eq!(take_due(&mut pending, 0), Some("a"));
        // Timers 1 and 2 died with the node; 3 fires after the revive.
        assert_eq!(take_due(&mut pending, 3), Some("d"));
        assert_eq!(pending.front(), Some(&(4, "e")));
    }

    const LINK: SimDuration = SimDuration::from_nanos(1_200);

    fn build(
        mode: LockMode,
        locks: Vec<LockId>,
        rate: f64,
    ) -> (Simulator<NetLockMsg>, NodeId, NodeId) {
        let mut sim = Simulator::new(Topology::new(LinkConfig::with_delay(LINK)), 7);
        let mut dp = DataPlane::new_fcfs(&SharedQueueLayout::small(2, 1024, 16));
        let stats = LockStats::uniform(locks.iter().copied(), 600, 1);
        apply_allocation(&mut dp, &knapsack_allocate(&stats, 2048));
        let switch = sim.add_node(Box::new(SwitchNode::new(
            dp,
            SwitchConfig::default(),
            vec![],
        )));
        assert_eq!(switch, NodeId(0));
        let client = sim.add_node(Box::new(MicroClient::new(
            MicroClientConfig {
                rate_rps: rate,
                locks,
                mode,
                ..Default::default()
            },
            switch,
        )));
        (sim, switch, client)
    }

    #[test]
    fn shared_requests_all_granted() {
        let (mut sim, _switch, client) = build(LockMode::Shared, vec![LockId(0)], 100_000.0);
        sim.run_until(SimTime(SimDuration::from_millis(10).as_nanos()));
        let (issued, grants) =
            sim.read_node::<MicroClient, _>(client, |c| (c.stats().issued, c.stats().grants));
        assert!(issued >= 900, "expected ~1000 issued, got {issued}");
        // All but the in-flight tail granted.
        assert!(grants + 10 >= issued, "issued={issued} grants={grants}");
    }

    #[test]
    fn latency_is_microsecond_scale() {
        let (mut sim, _switch, client) = build(LockMode::Shared, vec![LockId(0)], 50_000.0);
        sim.run_until(SimTime(SimDuration::from_millis(20).as_nanos()));
        let (grants, min, max) = sim.read_node::<MicroClient, _>(client, |c| {
            let s = c.stats();
            (s.grants, s.latency.min(), s.latency.max())
        });
        // Deterministic arrivals on one uncontended shared lock: every
        // grant is the bare Fig. 8 path, tx 2.5 + link 1.2 + switch 0.5 +
        // link 1.2 + rx 2.5 = 7.9 µs, with no queueing and no resubmit.
        let link = LINK.as_nanos();
        let path = 2 * CLIENT_STACK_DELAY.as_nanos() + 2 * link + TRAVERSAL.as_nanos();
        assert_eq!(path, 7_900);
        assert!(grants > 900, "grants = {grants}");
        assert_eq!((min, max), (path, path));
    }

    #[test]
    fn exclusive_same_lock_serializes() {
        let (mut sim, _switch, client) = build(LockMode::Exclusive, vec![LockId(0)], 1_000_000.0);
        sim.run_until(SimTime(SimDuration::from_millis(10).as_nanos()));
        let stats = sim.read_node::<MicroClient, _>(client, |c| {
            (
                c.stats().issued,
                c.stats().grants,
                c.stats().latency_summary(),
            )
        });
        let (issued, grants, lat) = stats;
        assert!(grants > 100);
        // Offered 1 MRPS on one exclusive lock: the queue serializes at
        // roughly 1/(release RTT), so waiting dominates latency.
        assert!(
            lat.p99_ns > 3 * lat.p50_ns / 2 || issued > grants,
            "contention should show in the tail: {lat:?}"
        );
    }

    #[test]
    fn window_throttles_when_saturated() {
        let (mut sim, _switch, client) = build(LockMode::Exclusive, vec![LockId(0)], 10_000_000.0);
        sim.run_until(SimTime(SimDuration::from_millis(5).as_nanos()));
        let throttled = sim.read_node::<MicroClient, _>(client, |c| c.stats().throttled);
        assert!(throttled > 0, "10 MRPS on one lock must hit the window");
    }

    #[test]
    fn hold_time_defers_release() {
        let (mut sim, switch, client) = build(LockMode::Exclusive, vec![LockId(0)], 1_000.0);
        sim.with_node::<MicroClient, _>(client, |c| {
            c.cfg.hold = SimDuration::from_micros(50);
        });
        sim.run_until(SimTime(SimDuration::from_millis(5).as_nanos()));
        let grants = sim.read_node::<MicroClient, _>(client, |c| c.stats().grants);
        assert!(grants > 0);
        // Switch saw releases (queue drains) — no stuck queue.
        let dp_releases =
            sim.read_node::<SwitchNode, _>(switch, |s| s.dataplane().stats().releases);
        assert!(dp_releases > 0);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let (mut sim, _switch, client) = build(LockMode::Shared, vec![LockId(0)], 100_000.0);
        sim.run_until(SimTime(SimDuration::from_millis(2).as_nanos()));
        sim.with_node::<MicroClient, _>(client, |c| c.reset_stats());
        let issued = sim.read_node::<MicroClient, _>(client, |c| c.stats().issued);
        assert_eq!(issued, 0);
    }
}

#[cfg(test)]
mod poisson_tests {
    use super::*;
    use netlock_sim::{SimTime, Simulator};
    use netlock_switch::control::{apply_allocation, knapsack_allocate, LockStats};
    use netlock_switch::shared_queue::SharedQueueLayout;
    use netlock_switch::{DataPlane, SwitchConfig, SwitchNode};

    /// Poisson arrivals preserve the mean rate but spread latency:
    /// deterministic spacing yields a degenerate (zero-width) latency
    /// distribution; Poisson does not.
    #[test]
    fn poisson_arrivals_keep_rate_add_variance() {
        let run = |poisson: bool| {
            let mut dp = DataPlane::new_fcfs(&SharedQueueLayout::small(2, 256, 8));
            apply_allocation(
                &mut dp,
                &knapsack_allocate(
                    &[LockStats {
                        lock: LockId(0),
                        rate: 1.0,
                        contention: 200,
                        home_server: 0,
                    }],
                    256,
                ),
            );
            let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(5);
            let switch = sim.add_node(Box::new(SwitchNode::new(
                dp,
                SwitchConfig::default(),
                vec![],
            )));
            let client = sim.add_node(Box::new(MicroClient::new(
                MicroClientConfig {
                    rate_rps: 500_000.0,
                    locks: vec![LockId(0)],
                    mode: LockMode::Shared,
                    poisson,
                    ..Default::default()
                },
                switch,
            )));
            sim.run_until(SimTime(SimDuration::from_millis(20).as_nanos()));
            sim.read_node::<MicroClient, _>(client, |c| {
                (c.stats().issued, c.stats().latency_summary())
            })
        };
        let (uniform_n, uniform_lat) = run(false);
        let (poisson_n, poisson_lat) = run(true);
        // Rates agree within a few percent.
        let ratio = poisson_n as f64 / uniform_n as f64;
        assert!((0.95..1.05).contains(&ratio), "rate ratio {ratio}");
        // Poisson produces a spread; uniform is degenerate.
        assert!(poisson_lat.p999_ns >= poisson_lat.p50_ns);
        assert_eq!(uniform_lat.p50_ns, uniform_lat.p999_ns);
    }
}

//! Closed-loop transaction client (the TPC-C experiments' clients): the
//! [`closed_loop`](crate::closed_loop) core running the [`NetLock`]
//! protocol.
//!
//! Runs `workers` concurrent transaction contexts. Each worker loops:
//! take a transaction from the workload source, acquire its locks one by
//! one (sorted order — deadlock-free 2PL), think, release everything,
//! repeat. Lost grants (packet loss, switch failure, quota drops) are
//! handled by retransmission with capped exponential backoff and
//! deterministic per-client jitter (an independently seeded `SimRng`
//! stream), so the retry waves of many clients blocked by one switch
//! outage spread out instead of re-synchronizing into storms; surplus
//! grants from retries are released immediately so they cannot leak
//! holders.
//!
//! In a multi-switch deployment the client routes each acquire/release
//! by lock through a [`PartitionMap`] (see `netlock_switch::partition`)
//! and follows `CtrlPartitionMap` re-broadcasts, so a retry after a
//! chain failover lands on the repaired head.
//!
//! Timers cost what is due. A worker has at most one *live* retry timer
//! in the simulator's queue, however many acquires it sends: each
//! acquire only notes its retry deadline, and the timer — when it fires
//! before that deadline because grants kept arriving — re-arms itself
//! for exactly the remainder. Each acquire also takes a
//! [`TimerTicket`] when it is sent and every arming of its timer spends
//! it, so the timer fires not just at the same nanosecond but at the
//! same place among that nanosecond's events as if every acquire had
//! armed its own timer — retransmissions, and with them whole runs, are
//! event-for-event what they were, while a fault-free run parks one
//! timer per worker instead of one per acquire. Retry and think timers
//! carry distinct tokens, so a retry timer can never fire into the
//! think phase. (A crashed client stays down — chaos plans never revive
//! one — so no timer chain has to survive a restart.)

use netlock_proto::{
    ClientAddr, GrantMsg, LockId, LockRequest, NetLockMsg, Priority, ReleaseRequest, TxnId,
};
use netlock_sim::{Context, NodeId, SimDuration, SimRng, SimTime, TimerTicket};
use netlock_switch::partition::PartitionMap;

use crate::closed_loop::{Client, Protocol};
use crate::txn::{LockNeed, TxnSource};
use crate::CLIENT_STACK_DELAY;

/// Transaction client configuration.
#[derive(Clone, Debug)]
pub struct TxnClientConfig {
    /// Concurrent transaction contexts.
    pub workers: usize,
    /// Re-send an acquire if no grant arrives within this window (the
    /// backoff base; attempt `n` waits `min(2^n × retry_timeout,
    /// retry_backoff_cap)` ± 25% jitter).
    pub retry_timeout: SimDuration,
    /// Ceiling of the exponential retry backoff.
    pub retry_backoff_cap: SimDuration,
    /// Delay before the workers start issuing transactions (tenant
    /// arrival time in the policy experiments).
    pub start_delay: SimDuration,
}

impl Default for TxnClientConfig {
    fn default() -> Self {
        TxnClientConfig {
            workers: 16,
            retry_timeout: SimDuration::from_millis(20),
            retry_backoff_cap: SimDuration::from_millis(160),
            start_delay: SimDuration::ZERO,
        }
    }
}

/// NetLock's acquire and release protocol, with one client's state.
pub struct NetLock {
    cfg: TxnClientConfig,
    /// Multi-switch routing table; `None` = single-switch deployment
    /// (everything goes to the client's one switch).
    route: Option<PartitionMap>,
    /// Dedicated jitter stream for retry backoff. Seeded independently
    /// of the workload stream so enabling/disabling retries never
    /// perturbs the workload draws (byte-stable figure output), and
    /// independently per client so blocked clients desynchronize.
    retry_rng: SimRng,
    /// Per worker: the fire time of its live retry timer, if one is
    /// queued. A retry timer firing at any other instant was superseded
    /// by an earlier one (a post-backoff acquire is due sooner than the
    /// long timer its predecessor left behind) and is ignored.
    retry_timer_at: Vec<Option<SimTime>>,
    /// Test hook: when set, surplus grants are counted but not
    /// released (chaos-suite sabotage; leaks queue entries so the
    /// safety oracle's conservation check must fire).
    surplus_release_disabled: bool,
}

/// Where a NetLock worker is in acquiring its current lock.
#[derive(Debug)]
pub enum Phase {
    /// An acquire is in flight.
    Acquiring {
        /// Retransmissions of this acquire so far (the backoff exponent).
        attempts: u32,
        /// When this acquire is re-sent unless its grant arrives first,
        /// and the firing-order place taken for that timer at the send.
        retry_at: SimTime,
        /// See `retry_at`.
        retry_ticket: TimerTicket,
    },
    /// Every lock held.
    Thinking,
}

/// The closed-loop transaction client node.
pub type TxnClient = Client<NetLock>;

/// Timer tokens besides the core's: the delayed start, and retry timers
/// (this flag above the worker index). Neither is ever live.
const START_TOKEN: u64 = u64::MAX;
const RETRY_TIMER: u64 = 1 << 63;

impl TxnClient {
    /// A client with `cfg.workers` contexts fed by `source`.
    pub fn new(
        cfg: TxnClientConfig,
        switch: NodeId,
        source: Box<dyn TxnSource>,
        seed: u64,
    ) -> TxnClient {
        let proto = NetLock {
            route: None,
            // Domain-separated from the workload stream: retries draw
            // jitter without shifting any transaction draw.
            retry_rng: SimRng::new(seed ^ 0x5245_5452_594a_4954),
            retry_timer_at: vec![None; cfg.workers],
            surplus_release_disabled: false,
            cfg,
        };
        Client::with_protocol(proto, vec![switch], source, seed)
    }

    /// Install a lock-space routing table for a multi-switch
    /// deployment: every acquire/release routes to the chain head of
    /// the lock's partition, and later `CtrlPartitionMap` broadcasts
    /// (chain repairs moving a head) update it in place.
    pub fn set_partition_route(&mut self, map: PartitionMap) {
        self.proto.route = Some(map);
    }

    /// Disable the surplus-grant release path (chaos-suite sabotage
    /// hook; proves the safety oracle detects the leaked holders).
    #[doc(hidden)]
    pub fn sabotage_disable_surplus_release(&mut self) {
        self.proto.surplus_release_disabled = true;
    }
}

impl NetLock {
    /// Retry wait for try `attempts`: the first wait is exactly
    /// `retry_timeout` (byte-stable with the pre-backoff behavior);
    /// attempt `n` waits `min(2^n × retry_timeout, retry_backoff_cap)`
    /// with ±25% jitter from the dedicated per-client stream, so
    /// clients blocked by the same outage drift apart instead of
    /// hammering the reviving switch in lockstep waves.
    fn retry_delay(&mut self, attempts: u32) -> SimDuration {
        if attempts == 0 {
            return self.cfg.retry_timeout;
        }
        let base = self.cfg.retry_timeout.as_nanos();
        let cap = self.cfg.retry_backoff_cap.as_nanos().max(base);
        let backoff = base.saturating_mul(1 << attempts.min(20)).min(cap);
        let span = backoff / 2; // total jitter width: 50% of the wait
        let jitter = if span == 0 {
            0
        } else {
            self.retry_rng.next_u64() % (span + 1)
        };
        SimDuration::from_nanos(backoff - span / 2 + jitter)
    }
}

impl Protocol for NetLock {
    type Msg = NetLockMsg;
    type Phase = Phase;
    const THINKING: Phase = Phase::Thinking;
    const NAME: &'static str = "txn-client";
    const STACK_DELAY: SimDuration = CLIENT_STACK_DELAY;

    fn workers(&self) -> usize {
        self.cfg.workers
    }

    fn request(c: &mut TxnClient, w: usize, ctx: &mut Context<'_, NetLockMsg>) {
        send_acquire(c, w, 0, ctx);
    }

    fn on_packet(c: &mut TxnClient, msg: NetLockMsg, ctx: &mut Context<'_, NetLockMsg>) {
        match msg {
            NetLockMsg::Grant(grant) | NetLockMsg::DbReply { grant } => on_grant(c, grant, ctx),
            NetLockMsg::CtrlPartitionMap { version, heads } => {
                if let Some(route) = &mut c.proto.route {
                    route.apply_update(version, &heads);
                }
            }
            _ => {}
        }
    }

    fn on_timer(c: &mut TxnClient, token: u64, ctx: &mut Context<'_, NetLockMsg>) {
        if token == START_TOKEN {
            c.start_workers(ctx);
        } else if token & RETRY_TIMER != 0 {
            on_retry_timer(c, (token & !RETRY_TIMER) as usize, ctx);
        } else if let Some(w) = c.live(token) {
            // The one think timer armed on entering the think phase.
            c.commit(w, ctx);
        }
    }

    fn release(need: LockNeed, tag: u64, priority: Priority, client: NodeId) -> Option<NetLockMsg> {
        Some(NetLockMsg::Release(ReleaseRequest {
            lock: need.lock,
            txn: TxnId(tag),
            mode: need.mode,
            client: ClientAddr(client.0),
            priority,
        }))
    }

    /// The switch currently serving `lock`.
    fn route(&self, lock: LockId, servers: &[NodeId]) -> NodeId {
        self.route
            .as_ref()
            .map_or(servers[0], |map| map.head_of(lock))
    }

    fn start(c: &mut TxnClient, ctx: &mut Context<'_, NetLockMsg>) {
        if c.proto.cfg.start_delay.is_zero() {
            c.start_workers(ctx);
        } else {
            ctx.set_timer(c.proto.cfg.start_delay, START_TOKEN);
        }
    }
}

/// Send (or re-send, as try `attempts`) the acquire worker `w` is on and
/// note when it is due for a retry.
fn send_acquire(c: &mut TxnClient, w: usize, attempts: u32, ctx: &mut Context<'_, NetLockMsg>) {
    let now = ctx.now();
    let retry_at = now + c.proto.retry_delay(attempts);
    let retry_ticket = ctx.timer_ticket();
    let need = c.need(w);
    let worker = &mut c.workers[w];
    // Wait latency runs from the last resend.
    worker.sent = now;
    worker.phase = Phase::Acquiring {
        attempts,
        retry_at,
        retry_ticket,
    };
    let req = LockRequest {
        lock: need.lock,
        mode: need.mode,
        txn: TxnId(worker.tag),
        client: ClientAddr(ctx.self_id().0),
        tenant: worker.txn.tenant,
        priority: worker.txn.priority,
        issued_at_ns: now.as_nanos(),
    };
    let timer_due_first = c.proto.retry_timer_at[w].is_some_and(|at| at <= retry_at);
    c.send(need.lock, NetLockMsg::Acquire(req), ctx);
    if !timer_due_first {
        arm_retry_timer(c, w, retry_at, retry_ticket, ctx);
    }
}

/// Queue worker `w`'s retry timer to fire at `at`, in the place taken
/// when the acquire it guards was sent.
fn arm_retry_timer(
    c: &mut TxnClient,
    w: usize,
    at: SimTime,
    ticket: TimerTicket,
    ctx: &mut Context<'_, NetLockMsg>,
) {
    c.proto.retry_timer_at[w] = Some(at);
    ctx.set_timer_with_ticket(at - ctx.now(), RETRY_TIMER | w as u64, ticket);
}

fn on_retry_timer(c: &mut TxnClient, w: usize, ctx: &mut Context<'_, NetLockMsg>) {
    let now = ctx.now();
    if c.proto.retry_timer_at[w] != Some(now) {
        return; // superseded by a timer armed for an earlier deadline
    }
    c.proto.retry_timer_at[w] = None;
    let Phase::Acquiring {
        attempts,
        retry_at,
        retry_ticket,
    } = c.workers[w].phase
    else {
        return; // nothing in flight; the next acquire arms afresh
    };
    if now < retry_at {
        // Armed for an acquire that was granted since: wait out the
        // remainder of the one now in flight.
        return arm_retry_timer(c, w, retry_at, retry_ticket, ctx);
    }
    // Grant never arrived: retransmit the acquire with the next backoff
    // step.
    c.stats.retries += 1;
    send_acquire(c, w, attempts.saturating_add(1), ctx);
}

fn on_grant(c: &mut TxnClient, grant: GrantMsg, ctx: &mut Context<'_, NetLockMsg>) {
    let Some(w) = c.worker_of(grant.txn.0) else {
        // Grant for a transaction this worker finished or abandoned.
        // Releasing is safe even if this delivery is a network
        // duplicate: the switch's release guard admits at most one
        // release per grant it issued.
        return release_surplus(c, &grant, ctx);
    };
    // Network-duplicate detection for the *current* transaction: a
    // second delivery of a grant we already consumed carries the same
    // `issued_at_ns` (retry duplicates re-stamp it). Releasing it would
    // dequeue our own live entry, so drop it instead.
    if c.workers[w]
        .held
        .iter()
        .any(|&(need, issued)| need.lock == grant.lock && issued == grant.issued_at_ns)
    {
        c.stats.dup_grants_ignored += 1;
        return;
    }
    // A retry duplicate for a lock of the current transaction (shared
    // grants can duplicate) while thinking, or for an earlier lock than
    // the one asked for: shed the surplus queue entry.
    if matches!(c.workers[w].phase, Phase::Thinking) || grant.lock != c.need(w).lock {
        return release_surplus(c, &grant, ctx);
    }
    c.acquired(w, grant.grantor, grant.issued_at_ns, ctx);
}

fn release_surplus(c: &mut TxnClient, grant: &GrantMsg, ctx: &mut Context<'_, NetLockMsg>) {
    c.stats.stale_grants += 1;
    if c.proto.surplus_release_disabled {
        return;
    }
    let rel = ReleaseRequest {
        lock: grant.lock,
        txn: grant.txn,
        mode: grant.mode,
        client: grant.client,
        // The release must route to the level queue that granted it.
        priority: grant.priority,
    };
    c.send(grant.lock, NetLockMsg::Release(rel), ctx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::{SingleLockSource, Transaction};
    use netlock_proto::{Grantor, LockMode};
    use netlock_sim::{LinkConfig, Node, Packet, Simulator, Topology};
    use netlock_switch::control::{apply_allocation, knapsack_allocate, LockStats};
    use netlock_switch::shared_queue::SharedQueueLayout;
    use netlock_switch::{DataPlane, SwitchConfig, SwitchNode};

    fn build(
        workers: usize,
        locks: Vec<LockId>,
        mode: LockMode,
        think: SimDuration,
    ) -> (Simulator<NetLockMsg>, NodeId, NodeId) {
        let mut sim = Simulator::new(
            Topology::new(LinkConfig::with_delay(SimDuration::from_nanos(1_200))),
            11,
        );
        let dp = DataPlane::new_fcfs(&SharedQueueLayout::small(4, 256, 64));
        let stats = LockStats::uniform(locks.iter().copied(), 16, 1);
        let mut switch = SwitchNode::new(dp, SwitchConfig::default(), vec![]);
        switch.program(&knapsack_allocate(&stats, 1024));
        let switch = sim.add_node(Box::new(switch));
        let client = sim.add_node(Box::new(TxnClient::new(
            TxnClientConfig {
                workers,
                ..Default::default()
            },
            switch,
            Box::new(SingleLockSource { locks, mode, think }),
            42,
        )));
        (sim, switch, client)
    }

    #[test]
    fn workers_complete_transactions() {
        let (mut sim, _sw, client) = build(
            4,
            (0..16).map(LockId).collect(),
            LockMode::Exclusive,
            SimDuration::ZERO,
        );
        sim.run_until(SimTime(SimDuration::from_millis(10).as_nanos()));
        let txns = sim.read_node::<TxnClient, _>(client, |c| c.stats().txns);
        assert!(txns > 100, "got {txns} txns");
    }

    #[test]
    fn contention_reduces_throughput() {
        let run = |nlocks: u32| {
            let (mut sim, _sw, client) = build(
                16,
                (0..nlocks).map(LockId).collect(),
                LockMode::Exclusive,
                SimDuration::ZERO,
            );
            sim.run_until(SimTime(SimDuration::from_millis(20).as_nanos()));
            sim.read_node::<TxnClient, _>(client, |c| c.stats().txns)
        };
        let contended = run(1);
        let uncontended = run(64);
        assert!(
            uncontended > contended * 2,
            "uncontended {uncontended} vs contended {contended}"
        );
    }

    #[test]
    fn think_time_slows_closed_loop() {
        let fast = {
            let (mut sim, _sw, c) = build(
                2,
                vec![LockId(0), LockId(1)],
                LockMode::Shared,
                SimDuration::ZERO,
            );
            sim.run_until(SimTime(SimDuration::from_millis(10).as_nanos()));
            sim.read_node::<TxnClient, _>(c, |c| c.stats().txns)
        };
        let slow = {
            let (mut sim, _sw, c) = build(
                2,
                vec![LockId(0), LockId(1)],
                LockMode::Shared,
                SimDuration::from_micros(100),
            );
            sim.run_until(SimTime(SimDuration::from_millis(10).as_nanos()));
            sim.read_node::<TxnClient, _>(c, |c| c.stats().txns)
        };
        assert!(fast > slow * 2, "fast={fast} slow={slow}");
    }

    #[test]
    fn multi_lock_txn_acquires_in_order() {
        let locks = [LockId(3), LockId(1), LockId(2)];
        let (mut sim, _sw, client) = {
            let mut sim = Simulator::new(
                Topology::new(LinkConfig::with_delay(SimDuration::from_nanos(1_200))),
                5,
            );
            let mut dp = DataPlane::new_fcfs(&SharedQueueLayout::small(4, 256, 64));
            let stats = LockStats::uniform((0..8).map(LockId), 16, 1);
            apply_allocation(&mut dp, &knapsack_allocate(&stats, 1024));
            let switch = sim.add_node(Box::new(SwitchNode::new(
                dp,
                SwitchConfig::default(),
                vec![],
            )));
            let needs: Vec<LockNeed> = locks
                .iter()
                .map(|&lock| LockNeed {
                    lock,
                    mode: LockMode::Exclusive,
                })
                .collect();
            let client = sim.add_node(Box::new(TxnClient::new(
                TxnClientConfig {
                    workers: 3,
                    ..Default::default()
                },
                switch,
                Box::new(move |_rng: &mut SimRng| {
                    Transaction::new(needs.clone(), SimDuration::ZERO)
                }),
                42,
            )));
            (sim, switch, client)
        };
        sim.run_until(SimTime(SimDuration::from_millis(20).as_nanos()));
        let (txns, grants) =
            sim.read_node::<TxnClient, _>(client, |c| (c.stats().txns, c.stats().grants));
        assert!(txns > 50, "multi-lock txns complete: {txns}");
        assert_eq!(grants, txns * 3, "three grants per transaction");
    }

    #[test]
    fn grants_attributed_to_switch() {
        let (mut sim, _sw, client) = build(
            4,
            (0..8).map(LockId).collect(),
            LockMode::Shared,
            SimDuration::ZERO,
        );
        sim.run_until(SimTime(SimDuration::from_millis(5).as_nanos()));
        let (sw, srv) = sim.read_node::<TxnClient, _>(client, |c| {
            (c.stats().grants_switch, c.stats().grants_server)
        });
        assert!(sw > 0);
        assert_eq!(srv, 0, "all locks are switch-resident here");
    }

    #[test]
    fn granted_acquires_leave_no_timers_behind() {
        let workers = 8;
        let (mut sim, _sw, client) = build(
            workers,
            (0..16).map(LockId).collect(),
            LockMode::Exclusive,
            SimDuration::ZERO,
        );
        sim.run_until(SimTime(SimDuration::from_millis(15).as_nanos()));
        let grants = sim.read_node::<TxnClient, _>(client, |c| c.stats().grants);
        assert!(grants >= 10_000, "only {grants} grants");
        // Per worker: its one retry timer, one acquire or grant on the
        // wire, one release on the wire. Plus the switch's control tick.
        let bound = workers + 2 * workers + 1;
        assert!(
            sim.pending_events() <= bound,
            "{} events pending after {grants} granted acquires (bound {bound})",
            sim.pending_events()
        );
    }

    /// Stand-in switch that grants every acquire except the ones whose
    /// arrival index is in `lost` (as if their grants were dropped on
    /// the way back), recording when each acquire arrived.
    struct LossyGranter {
        lost: &'static [usize],
        arrivals: Vec<u64>,
    }

    impl Node<NetLockMsg> for LossyGranter {
        fn on_packet(&mut self, pkt: Packet<NetLockMsg>, ctx: &mut Context<'_, NetLockMsg>) {
            let NetLockMsg::Acquire(req) = pkt.payload else {
                return;
            };
            let index = self.arrivals.len();
            self.arrivals.push(ctx.now().as_nanos());
            if self.lost.contains(&index) {
                return;
            }
            let grant = GrantMsg {
                lock: req.lock,
                txn: req.txn,
                mode: req.mode,
                client: req.client,
                priority: req.priority,
                grantor: Grantor::Switch,
                issued_at_ns: req.issued_at_ns,
            };
            ctx.send_after(pkt.src, NetLockMsg::Grant(grant), SimDuration::ZERO);
        }

        fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_, NetLockMsg>) {}
    }

    /// Retransmissions leave at the instants a timer armed per acquire
    /// would fire. The first two grants are lost: the re-sends go out at
    /// exactly `t_send + retry_timeout`, then after the pinned jittered
    /// backoff. The fourth acquire — a fresh one, due 20 ms out while
    /// its predecessor's backed-off timer is still parked far beyond
    /// that — loses its grant too and must still be re-sent on time.
    #[test]
    fn lost_grants_are_retried_at_the_per_acquire_deadlines() {
        // Client stack + link, client → switch.
        const WIRE: u64 = CLIENT_STACK_DELAY.0 + 1_200;
        const TURNAROUND: u64 = 1_200 + WIRE; // grant back, next acquire out
        const RETRY: u64 = 20_000_000;
        // Attempt 1 waits 40 ms ± 25 %; this client's jitter stream draws:
        const BACKOFF: u64 = 44_925_854;
        let mut sim = Simulator::new(
            Topology::new(LinkConfig::with_delay(SimDuration::from_nanos(1_200))),
            9,
        );
        let granter = sim.add_node(Box::new(LossyGranter {
            lost: &[0, 1, 3],
            arrivals: vec![],
        }));
        let client = sim.add_node(Box::new(TxnClient::new(
            TxnClientConfig {
                workers: 1,
                ..Default::default()
            },
            granter,
            Box::new(SingleLockSource {
                locks: vec![LockId(0)],
                mode: LockMode::Exclusive,
                think: SimDuration::ZERO,
            }),
            7,
        )));
        sim.run_until(SimTime(SimDuration::from_millis(100).as_nanos()));
        let arrivals = sim.read_node::<LossyGranter, _>(granter, |g| g.arrivals[..6].to_vec());
        let second_retry = RETRY + BACKOFF;
        assert_eq!(
            arrivals,
            vec![
                WIRE,
                RETRY + WIRE,
                second_retry + WIRE,
                second_retry + WIRE + TURNAROUND,
                second_retry + WIRE + TURNAROUND + RETRY,
                second_retry + WIRE + TURNAROUND + RETRY + TURNAROUND,
            ]
        );
        let retries = sim.read_node::<TxnClient, _>(client, |c| c.stats().retries);
        assert_eq!(retries, 3);
    }

    /// Black hole standing in for a dead switch: records when each
    /// client's acquires arrive, never grants anything.
    struct AcquireRecorder {
        arrivals: Vec<(NodeId, u64)>,
    }

    impl Node<NetLockMsg> for AcquireRecorder {
        fn on_packet(&mut self, pkt: Packet<NetLockMsg>, ctx: &mut Context<'_, NetLockMsg>) {
            if matches!(pkt.payload, NetLockMsg::Acquire(_)) {
                self.arrivals.push((pkt.src, ctx.now().as_nanos()));
            }
        }

        fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_, NetLockMsg>) {}

        fn name(&self) -> &str {
            "acquire-recorder"
        }
    }

    /// One outage run: 4 single-worker clients against a switch that
    /// never answers. Returns each client's acquire arrival times.
    fn outage_retry_schedules() -> Vec<Vec<u64>> {
        let mut sim = Simulator::new(
            Topology::new(LinkConfig::with_delay(SimDuration::from_nanos(1_200))),
            9,
        );
        let rec = sim.add_node(Box::new(AcquireRecorder { arrivals: vec![] }));
        let clients: Vec<NodeId> = (0..4)
            .map(|i| {
                sim.add_node(Box::new(TxnClient::new(
                    TxnClientConfig {
                        workers: 1,
                        retry_timeout: SimDuration::from_millis(1),
                        retry_backoff_cap: SimDuration::from_millis(8),
                        ..Default::default()
                    },
                    rec,
                    Box::new(SingleLockSource {
                        locks: vec![LockId(0)],
                        mode: LockMode::Exclusive,
                        think: SimDuration::ZERO,
                    }),
                    100 + i,
                )))
            })
            .collect();
        sim.run_until(SimTime(SimDuration::from_millis(60).as_nanos()));
        let arrivals = sim.read_node::<AcquireRecorder, _>(rec, |r| r.arrivals.clone());
        clients
            .iter()
            .map(|&c| {
                arrivals
                    .iter()
                    .filter(|(src, _)| *src == c)
                    .map(|&(_, t)| t)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn outage_retries_back_off_and_desynchronize() {
        let schedules = outage_retry_schedules();
        // Backoff: every client's retry gaps grow from the base toward
        // the cap instead of staying a fixed period.
        for times in &schedules {
            assert!(times.len() >= 6, "expected a retry train, got {times:?}");
            let gaps: Vec<u64> = times.windows(2).map(|w| w[1] - w[0]).collect();
            let (min, max) = (*gaps.iter().min().unwrap(), *gaps.iter().max().unwrap());
            assert!(
                max >= 4 * min,
                "gaps must grow exponentially: min {min} max {max}"
            );
            assert!(
                gaps.windows(2).any(|w| w[0] != w[1]),
                "jitter must vary the gaps: {gaps:?}"
            );
        }
        // Desynchronization: all clients start in lockstep (same start
        // time, and the first re-send is the exact base timeout), but
        // once jitter kicks in no two clients retry at the same
        // instant again.
        use std::collections::HashSet;
        let mut late = HashSet::new();
        let mut total = 0usize;
        for times in &schedules {
            for &t in &times[2..] {
                late.insert(t);
                total += 1;
            }
        }
        assert_eq!(
            late.len(),
            total,
            "jittered retries must not collide across clients"
        );
        // Deterministic: the jitter stream is seeded, not wall-clock.
        assert_eq!(schedules, outage_retry_schedules());
    }

    #[test]
    fn retry_recovers_from_total_loss() {
        let (mut sim, switch, client) =
            build(2, vec![LockId(0)], LockMode::Exclusive, SimDuration::ZERO);
        // Run a little, then kill the switch: grants stop.
        sim.run_until(SimTime(SimDuration::from_millis(2).as_nanos()));
        sim.fail_node(switch);
        sim.run_until(SimTime(SimDuration::from_millis(30).as_nanos()));
        // The revived switch comes back wiped and reloads its program.
        sim.revive_node(switch);
        let before = sim.read_node::<TxnClient, _>(client, |c| c.stats().txns);
        sim.run_until(SimTime(SimDuration::from_millis(90).as_nanos()));
        let (after, retries) =
            sim.read_node::<TxnClient, _>(client, |c| (c.stats().txns, c.stats().retries));
        assert!(retries > 0, "loss must trigger retries");
        assert!(
            after > before + 50,
            "throughput must recover: {before}→{after}"
        );
    }
}

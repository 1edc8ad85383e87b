//! Conservative parallel execution of a partitioned simulation.
//!
//! A [`Simulator`] is a list of **logical processes** (LPs) — one until
//! [`Simulator::partition`] splits it into one per partition, each
//! owning its partition's nodes, its own calendar queue and a forked RNG
//! stream. The LPs are synchronized by conservative time windows in the
//! classic null-message-free CMB style:
//!
//! 1. compute the global lower bound `B` on next-event time across all
//!    LP queues (after merging staged cross-LP packets),
//! 2. advance every LP independently to `B + L - 1` inclusive, where
//!    `L` — the **lookahead** — is the minimum link delay between any
//!    two nodes in different LPs,
//! 3. exchange the packets each LP emitted toward other LPs through
//!    per-destination mailboxes, and repeat.
//!
//! Step 2 is safe because an event dispatched at time `t ≥ B` can only
//! produce a cross-LP arrival at `t + delay ≥ B + L`, i.e. strictly
//! after the window; no LP can ever receive a packet "from the past".
//! Nothing is executed speculatively, so there is no rollback
//! machinery. An optimistic (Time Warp) scheme could expose more
//! parallelism on low-lookahead topologies, but its commit order would
//! have to be re-serialized to keep taps and oracles deterministic,
//! which forfeits most of the win; with link delays ≥ 1.2 µs against a
//! nanosecond event grain, conservative windows are already hundreds of
//! events deep.
//!
//! One window loop runs every partitioned simulation: workers own
//! contiguous chunks of LPs, and with one worker its body runs on the
//! calling thread.
//!
//! Cross-LP order: a packet bound for another LP gets its final queue
//! key when it is sent, `REMOTE_BAND | sender_lp << 48 | sender_seq`.
//! The band sorts above every local seq, so at one instant an LP fires
//! its local events first and then its cross-LP arrivals by (sender LP,
//! sender seq). The key depends on the scenario and the partition map
//! only, so results are byte-identical for every worker count, and
//! where the windows fall — hence how callers slice `run_until` — is
//! invisible too.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use crate::fault::FaultAction;
use crate::node::{NodeId, Packet};
use crate::sim::{EventKind, Lp, Simulator};
use crate::time::SimTime;

/// A cross-LP packet in a mailbox: `(arrival time, receiver queue key,
/// packet)`.
pub(crate) type Staged<M> = (SimTime, u64, Packet<M>);

/// The key band of cross-LP arrivals: above every local seq.
pub(crate) const REMOTE_BAND: u64 = 1 << 63;

/// Why a mailbox lock can fail: a window worker panicked holding it.
pub(crate) const POISONED: &str = "mailbox lock poisoned by a panicked window worker";

/// Owning LP of a node id under `map`. Ids outside the map fall back to
/// LP 0: under the empty map of an unpartitioned simulator that is every
/// id, and past the end of a partition map they address no real node and
/// drop as dead there.
pub(crate) fn owner(map: &[u32], id: NodeId) -> usize {
    map.get(id.index()).copied().unwrap_or(0) as usize
}

/// Validate a fault action against the partition: link reconfigurations
/// must never shrink a cross-LP delay below the lookahead (the safety
/// argument of the window loop depends on it), and `Custom` faults —
/// which pause the run for harness intervention — are not supported on
/// a partitioned simulator. Under the empty map of an unpartitioned
/// simulator every action is valid.
pub(crate) fn validate_fault(lookahead: u64, map: &[u32], action: &FaultAction, idx: u64) {
    match action {
        FaultAction::SetLink { src, dst, cfg } => {
            assert!(
                owner(map, *src) == owner(map, *dst) || cfg.delay.as_nanos() >= lookahead,
                "fault #{idx}: SetLink {src}->{dst} delay {} ns below partition lookahead {} ns",
                cfg.delay.as_nanos(),
                lookahead
            );
        }
        FaultAction::Custom(token) => {
            assert!(
                map.is_empty(),
                "partitioned simulator does not support Custom faults: \
                 fault #{idx} is Custom({token}); Custom faults pause the run \
                 for single-LP harness recovery — use in-protocol recovery \
                 (FailNode/ReviveNode plus control-plane messages) instead"
            )
        }
        FaultAction::ClearLink { .. } | FaultAction::FailNode(_) | FaultAction::ReviveNode(_) => {}
    }
}

impl<M: Clone + Send + 'static> Simulator<M> {
    /// Split this simulator into logical processes for conservative
    /// parallel execution.
    ///
    /// `lp_of[i]` names the LP owning node `i` (LP ids must be dense:
    /// `0..=max`). `workers` is the number of threads used to advance
    /// LPs inside [`Simulator::run_until`]; it affects wall-clock speed
    /// only — **results are byte-identical for every worker count**,
    /// because the partitioned execution order is fully determined by
    /// the partition itself. With a single LP (`max(lp_of) == 0`) this
    /// is a no-op and the serial fused-burst fast path is kept.
    ///
    /// The lookahead is derived from the topology: the minimum
    /// `link(src, dst).delay` over all node pairs in different LPs.
    /// Events within a window stay ≥ one lookahead away from any
    /// cross-LP consequence, which is what makes windowed parallel
    /// execution exact rather than approximate. Fault plans may
    /// reconfigure links mid-run, but never below that lookahead
    /// (asserted), and `Custom` faults are rejected.
    ///
    /// Call after the simulation is fully built: `add_node`,
    /// `topology_mut` and `step` panic once partitioned (use
    /// [`Simulator::set_lp_tap`] for per-LP observers). Pre-scheduled
    /// events, link fault state and node liveness migrate to their
    /// owning LPs; each LP's RNG is forked from the parent seed by LP
    /// id, so node randomness is independent of both worker count and
    /// the pre-partition draw position of other LPs' nodes.
    ///
    /// # Panics
    /// If already partitioned, a tap is installed, a `Custom` fault is
    /// pending or queued, `lp_of` does not cover every node, it names
    /// 2^15 LPs or more (the cross-LP key's LP field), or a cross-LP
    /// link has zero delay.
    pub fn partition(&mut self, lp_of: Vec<u32>, workers: usize) {
        assert!(self.lps.len() == 1, "partition called twice");
        let one = &self.lps[0];
        assert!(
            one.tap.is_none(),
            "partition with a global tap installed: partition first, then set_lp_tap"
        );
        assert!(
            one.pending_custom.is_none(),
            "partition with a pending Custom fault"
        );
        assert_eq!(
            lp_of.len(),
            one.nodes.len(),
            "lp_of must assign every node to an LP"
        );
        let k = lp_of.iter().copied().max().map_or(0, |m| m as usize + 1);
        if k <= 1 {
            return; // one LP: the serial fast path IS the execution
        }
        assert!(
            k < 1 << 15,
            "{k} LPs: the cross-LP key holds fewer than 2^15"
        );
        let n = one.nodes.len();

        // Lookahead: min link delay over all cross-LP node pairs.
        let mut lookahead = u64::MAX;
        for (si, &slp) in lp_of.iter().enumerate() {
            for (di, &dlp) in lp_of.iter().enumerate() {
                if slp != dlp {
                    let d = one
                        .topology
                        .link(NodeId(si as u32), NodeId(di as u32))
                        .delay
                        .as_nanos();
                    lookahead = lookahead.min(d);
                }
            }
        }
        assert!(
            lookahead > 0,
            "cross-LP links must have positive delay for conservative windows"
        );

        let map: Arc<[u32]> = lp_of.into();
        let mut one = self.lps.pop().expect("one LP");
        let mut lps: Vec<Lp<M>> = (0..k)
            .map(|i| {
                let mut lp = Lp::new(one.topology.clone(), one.rng.fork(i as u64), map.clone());
                lp.now = one.now;
                lp.seq = one.seq; // migrated events keep seqs < this
                lp.id = i as u32;
                lp.outboxes = (0..k).map(|_| Vec::new()).collect();
                lp.nodes = Vec::with_capacity(n);
                lp.alive = vec![false; n];
                lp
            })
            .collect();

        // Node table: full length in every LP (so NodeId indexing works
        // unchanged), with only the owner holding the node itself.
        for (i, node) in one.nodes.into_iter().enumerate() {
            let owner = map[i] as usize;
            for (j, lp) in lps.iter_mut().enumerate() {
                if j != owner {
                    lp.nodes.push(None);
                }
            }
            lps[owner].alive[i] = one.alive[i];
            lps[owner].nodes.push(node);
        }

        // Per-link fault state lives where the sends happen: the
        // sender's LP.
        for ((src, dst), st) in one.link_states {
            lps[owner(&map, src)].link_states.insert((src, dst), st);
        }

        // Migrate pending events to their owners, preserving the
        // original seqs (all below the LP's starting seq, so relative
        // order with future pushes is unchanged). These were already
        // counted in the baseline stats, so they go through the raw
        // queue, not `push`.
        let mut fault_idx = 0u64;
        while let Some((at, seq, kind)) = one.queue.pop() {
            match kind {
                EventKind::Deliver(pkt) => {
                    lps[owner(&map, pkt.dst)]
                        .queue
                        .push(at, seq, EventKind::Deliver(pkt));
                }
                EventKind::Timer { node, token } => {
                    lps[owner(&map, node)]
                        .queue
                        .push(at, seq, EventKind::Timer { node, token });
                }
                EventKind::Fault(action) => {
                    validate_fault(lookahead, &map, &action, fault_idx);
                    fault_idx += 1;
                    match *action {
                        FaultAction::FailNode(id) | FaultAction::ReviveNode(id) => {
                            lps[owner(&map, id)]
                                .queue
                                .push(at, seq, EventKind::Fault(action));
                        }
                        other => {
                            for lp in lps.iter_mut() {
                                lp.queue.push(at, seq, EventKind::Fault(Box::new(other)));
                            }
                        }
                    }
                }
            }
        }
        for lp in lps.iter_mut() {
            lp.stats.max_queue_depth = lp.queue.len() as u64;
        }

        self.base_stats = one.stats;
        self.lps = lps;
        self.map = map;
        self.workers = workers.max(1);
        self.lookahead = lookahead;
        self.staged = (0..k).map(|_| Mutex::new(Vec::new())).collect();
        self.faults_validated = fault_idx;
    }

    /// Number of logical processes this simulator runs as (1 when
    /// unpartitioned or partitioned onto a single LP).
    pub fn partitions(&self) -> usize {
        self.lps.len()
    }

    /// The window loop: advances every LP to `deadline` (inclusive)
    /// through conservative windows. Workers own contiguous chunks of
    /// LPs and synchronize per window with three barriers — (A) flush
    /// mailboxes + contribute to the shared bound, (B) one worker turns
    /// the bound into the window target, (C) advance + stage outboxes.
    /// One chunk runs on the calling thread; more run on scoped threads.
    /// Which thread advances an LP is invisible to the result.
    pub(crate) fn run_windows(&mut self, deadline: SimTime) {
        /// `target` sentinel: past the deadline, this is the last window.
        const STOP: u64 = u64::MAX;
        let k = self.lps.len();
        let chunk_size = k.div_ceil(self.workers.min(k));
        let lookahead = self.lookahead;
        let staged = &self.staged;
        let bound = AtomicU64::new(u64::MAX);
        let target = AtomicU64::new(0);
        let barrier = Barrier::new(k.div_ceil(chunk_size));

        let worker = |base: usize, chunk: &mut [Lp<M>]| loop {
            // Phase A: merge mailboxes, contribute to the bound.
            let mut local_min = u64::MAX;
            for (off, lp) in chunk.iter_mut().enumerate() {
                lp.flush_remote(&mut staged[base + off].lock().expect(POISONED));
                if let Some(t) = lp.queue.peek_at() {
                    local_min = local_min.min(t.as_nanos());
                }
            }
            bound.fetch_min(local_min, Ordering::SeqCst);
            barrier.wait();
            // Phase B: one worker computes the window target and resets
            // the bound for the next window.
            if base == 0 {
                let b = bound.swap(u64::MAX, Ordering::SeqCst);
                let t = if b > deadline.as_nanos() {
                    STOP
                } else {
                    b.saturating_add(lookahead - 1).min(deadline.as_nanos())
                };
                target.store(t, Ordering::SeqCst);
            }
            barrier.wait();
            // Phase C: advance, then stage cross-LP sends. Their keys
            // were fixed at send time, so the mailbox order is free.
            let t = target.load(Ordering::SeqCst);
            let adv = if t == STOP { deadline } else { SimTime(t) };
            for lp in chunk.iter_mut() {
                lp.run_until(adv);
                for (dst, ob) in lp.outboxes.iter_mut().enumerate() {
                    if !ob.is_empty() {
                        staged[dst].lock().expect(POISONED).append(ob);
                    }
                }
            }
            if t == STOP {
                break;
            }
            barrier.wait();
        };

        if chunk_size == k {
            worker(0, &mut self.lps);
        } else {
            std::thread::scope(|scope| {
                for (i, chunk) in self.lps.chunks_mut(chunk_size).enumerate() {
                    let worker = &worker;
                    scope.spawn(move || worker(i * chunk_size, chunk));
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, RunOutcome};
    use crate::link::{LinkConfig, LinkFaults, Topology};
    use crate::node::{Context, Node};
    use crate::time::SimDuration;

    /// Records arrivals; bounces the payload back, incremented, until
    /// it reaches `limit`. RNG-free, so behavior is identical under any
    /// partitioning.
    struct Echo {
        received: Vec<(SimTime, u32)>,
        limit: u32,
    }
    impl Node<u32> for Echo {
        fn on_packet(&mut self, pkt: Packet<u32>, ctx: &mut Context<'_, u32>) {
            self.received.push((ctx.now(), pkt.payload));
            if pkt.payload < self.limit {
                ctx.send(pkt.src, pkt.payload + 1);
            }
        }
        fn on_timer(&mut self, _t: u64, _c: &mut Context<'_, u32>) {}
    }

    /// Forwards every packet around a ring until the payload hits zero,
    /// and ticks a local timer a few times.
    struct Ring {
        next: NodeId,
        got: Vec<(SimTime, u32)>,
        ticks: u32,
    }
    impl Node<u32> for Ring {
        fn on_packet(&mut self, pkt: Packet<u32>, ctx: &mut Context<'_, u32>) {
            self.got.push((ctx.now(), pkt.payload));
            if pkt.payload > 0 {
                ctx.send(self.next, pkt.payload - 1);
            }
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, u32>) {
            self.ticks += 1;
            if token < 5 {
                ctx.set_timer(SimDuration(700), token + 1);
            }
        }
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.set_timer(SimDuration(700), 0);
        }
    }

    fn ring_sim(n: usize, seed: u64) -> Simulator<u32> {
        let topo = Topology::new(LinkConfig::with_delay(SimDuration(1_000)));
        let mut s: Simulator<u32> = Simulator::new(topo, seed);
        for i in 0..n {
            s.add_node(Box::new(Ring {
                next: NodeId(((i + 1) % n) as u32),
                got: vec![],
                ticks: 0,
            }));
        }
        s
    }

    fn ring_trace(s: &Simulator<u32>, n: usize) -> Vec<Vec<(SimTime, u32)>> {
        (0..n)
            .map(|i| s.read_node::<Ring, _>(NodeId(i as u32), |r| r.got.clone()))
            .collect()
    }

    #[test]
    fn cross_lp_ping_pong_matches_unpartitioned() {
        let run = |part: bool| {
            let topo = Topology::new(LinkConfig::with_delay(SimDuration(1_000)));
            let mut s: Simulator<u32> = Simulator::new(topo, 7);
            let a = s.add_node(Box::new(Echo {
                received: vec![],
                limit: 40,
            }));
            let b = s.add_node(Box::new(Echo {
                received: vec![],
                limit: 40,
            }));
            if part {
                s.partition(vec![0, 1], 1);
                assert_eq!(s.partitions(), 2);
            }
            s.inject(a, b, 0);
            s.run_until(SimTime(200_000));
            (
                s.read_node::<Echo, _>(a, |n| n.received.clone()),
                s.read_node::<Echo, _>(b, |n| n.received.clone()),
                s.stats().packets_delivered,
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn worker_count_is_invisible_to_results() {
        let n = 8;
        let run = |workers: usize| {
            let mut s = ring_sim(n, 11);
            // 4 LPs of 2 nodes each.
            s.partition((0..n as u32).map(|i| i / 2).collect(), workers);
            assert_eq!(s.partitions(), 4);
            for i in 0..n {
                s.inject(NodeId(i as u32), NodeId(((i + 3) % n) as u32), 50);
            }
            s.run_until(SimTime(500_000));
            (ring_trace(&s, n), s.stats())
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(4));
        assert_eq!(one, run(8));
        assert!(one.1.packets_delivered > 100);
    }

    #[test]
    fn stats_invariant_holds_across_lps() {
        let n = 6;
        let mut s = ring_sim(n, 3);
        s.partition(vec![0, 0, 1, 1, 2, 2], 2);
        // Traffic to a node that is failed mid-run + one id in the void.
        s.schedule_fault(SimTime(5_000), FaultAction::FailNode(NodeId(3)));
        s.inject(NodeId(0), NodeId(99), 1);
        for i in 0..n {
            s.inject(NodeId(i as u32), NodeId(((i + 1) % n) as u32), 30);
        }
        s.run_until(SimTime(300_000));
        let st = s.stats();
        assert!(st.packets_to_dead_node > 0);
        assert_eq!(
            st.packets_delivered + st.timers_fired + st.faults_applied + st.packets_to_dead_node,
            st.events_fired,
            "stats buckets must partition events_fired: {st:?}"
        );
        assert!(!s.is_alive(NodeId(3)));
        assert_eq!(s.pending_events(), 0);
    }

    #[test]
    fn link_faults_replicate_and_stay_deterministic() {
        let run = |workers: usize| {
            let n = 4;
            let mut s = ring_sim(n, 21);
            s.partition(vec![0, 0, 1, 1], workers);
            // Degrade one cross-LP link (delay stays >= lookahead), then
            // restore it; also fail and revive a node.
            let cfg = LinkConfig::with_delay(SimDuration(1_500)).with_faults(LinkFaults {
                jitter: SimDuration(400),
                duplicate: 0.5,
                ..LinkFaults::NONE
            });
            let plan = FaultPlan::new()
                .with(
                    SimTime(2_000),
                    FaultAction::SetLink {
                        src: NodeId(1),
                        dst: NodeId(2),
                        cfg,
                    },
                )
                .with(
                    SimTime(40_000),
                    FaultAction::ClearLink {
                        src: NodeId(1),
                        dst: NodeId(2),
                    },
                )
                .with(SimTime(10_000), FaultAction::FailNode(NodeId(3)))
                .with(SimTime(20_000), FaultAction::ReviveNode(NodeId(3)));
            s.install_plan(&plan);
            for i in 0..n {
                s.inject(NodeId(i as u32), NodeId(((i + 1) % n) as u32), 200);
            }
            assert_eq!(
                s.run_until_fault(SimTime(400_000)),
                RunOutcome::ReachedDeadline
            );
            (ring_trace(&s, n), s.stats(), s.link_counters())
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
        // The SetLink + ClearLink replicated to both LPs; the node
        // fail/revive fired once each: 2*2 + 2 = 6.
        assert_eq!(one.1.faults_applied, 6);
        assert!(one.1.packets_duplicated > 0);
    }

    #[test]
    fn per_lp_taps_observe_disjoint_events() {
        use std::sync::{Arc as StdArc, Mutex as StdMutex};
        let n = 4;
        let mut s = ring_sim(n, 5);
        s.partition(vec![0, 0, 1, 1], 2);
        let counts: StdArc<StdMutex<[u64; 2]>> = StdArc::new(StdMutex::new([0, 0]));
        for lp in 0..2 {
            let c = StdArc::clone(&counts);
            s.set_lp_tap(
                lp,
                Box::new(move |ev| {
                    if let crate::sim::TapEvent::Delivered { .. } = ev {
                        c.lock().unwrap()[lp] += 1;
                    }
                }),
            );
        }
        s.inject(NodeId(0), NodeId(2), 20);
        s.run_until(SimTime(100_000));
        let c = *counts.lock().unwrap();
        let st = s.stats();
        assert_eq!(c[0] + c[1], st.packets_delivered);
        assert!(c[0] > 0 && c[1] > 0, "both LPs deliver: {c:?}");
    }

    #[test]
    fn single_lp_partition_is_a_no_op() {
        let mut s = ring_sim(4, 2);
        s.partition(vec![0; 4], 8);
        assert_eq!(s.partitions(), 1);
        s.inject(NodeId(0), NodeId(1), 5);
        s.run_until(SimTime(50_000));
        assert!(s.stats().packets_delivered > 0);
        // step() stays callable — a one-LP map keeps the serial path
        // (a genuinely partitioned simulator panics here).
        let _ = s.step();
    }

    #[test]
    fn pending_events_counts_queues_and_mailboxes() {
        let mut s = ring_sim(4, 2);
        s.partition(vec![0, 0, 1, 1], 1);
        s.inject(NodeId(0), NodeId(2), 0); // cross-LP, scheduled in LP 1
        s.inject_timer(NodeId(1), SimDuration(10), 0);
        assert_eq!(s.pending_events(), 2 + 4 /* on_start timers */);
    }

    #[test]
    #[should_panic(expected = "fault #0 is Custom(7)")]
    fn custom_fault_rejected_when_partitioned() {
        let mut s = ring_sim(2, 1);
        s.partition(vec![0, 1], 1);
        s.schedule_fault(SimTime(1_000), FaultAction::Custom(7));
    }

    #[test]
    #[should_panic(expected = "fault #2 is Custom(9)")]
    fn custom_fault_rejection_names_index_and_kind() {
        // The diagnostic must point at *which* plan entry is offending,
        // counting every fault validated since partitioning.
        let mut s = ring_sim(2, 1);
        s.partition(vec![0, 1], 1);
        s.schedule_fault(SimTime(500), FaultAction::FailNode(NodeId(0)));
        s.schedule_fault(SimTime(900), FaultAction::ReviveNode(NodeId(0)));
        s.schedule_fault(SimTime(1_000), FaultAction::Custom(9));
    }

    #[test]
    #[should_panic(expected = "fault #1 is Custom(3)")]
    fn queued_custom_fault_rejected_at_partition_time() {
        // A Custom fault scheduled *before* partition() is caught while
        // migrating the queue, with the same indexed diagnostic.
        let mut s = ring_sim(2, 1);
        s.schedule_fault(SimTime(400), FaultAction::FailNode(NodeId(0)));
        s.schedule_fault(SimTime(800), FaultAction::Custom(3));
        s.partition(vec![0, 1], 1);
    }

    #[test]
    #[should_panic(expected = "partition with a global tap installed")]
    fn global_tap_rejected_when_partitioned() {
        // A tap on the unpartitioned simulator's one LP sees every event;
        // after a split no LP could, so partition refuses it.
        let mut s = ring_sim(2, 1);
        s.set_lp_tap(0, Box::new(|_| {}));
        s.partition(vec![0, 1], 1);
    }

    #[test]
    fn topology_reads_link_faults_applied_after_partition() {
        let run = |part: bool| {
            let mut s = ring_sim(2, 1);
            if part {
                s.partition(vec![0, 1], 1);
            }
            s.schedule_fault(
                SimTime(10),
                FaultAction::SetLink {
                    src: NodeId(0),
                    dst: NodeId(1),
                    cfg: LinkConfig::with_delay(SimDuration(5_000)),
                },
            );
            s.run_until(SimTime(100));
            s.topology().link(NodeId(0), NodeId(1)).delay
        };
        assert_eq!(run(false), SimDuration(5_000));
        assert_eq!(run(true), SimDuration(5_000));
    }

    #[test]
    #[should_panic(expected = "add_node on a partitioned simulator")]
    fn add_node_rejected_when_partitioned() {
        let mut s = ring_sim(2, 1);
        s.partition(vec![0, 1], 1);
        s.add_node(Box::new(Echo {
            received: vec![],
            limit: 0,
        }));
    }

    #[test]
    #[should_panic(expected = "below partition lookahead")]
    fn shrinking_cross_lp_delay_rejected() {
        let mut s = ring_sim(2, 1);
        s.partition(vec![0, 1], 1);
        s.schedule_fault(
            SimTime(1_000),
            FaultAction::SetLink {
                src: NodeId(0),
                dst: NodeId(1),
                cfg: LinkConfig::with_delay(SimDuration(10)),
            },
        );
    }
}

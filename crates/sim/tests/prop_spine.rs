//! Property tests for the simulator spine: the fused `pop_run` queue
//! primitive and the burst-draining loop behind `run_until` must
//! reproduce the one-pop-per-step reference behavior exactly — same
//! `(at, seq)` pop sequence, same dispatch order, same node
//! observations, same final `SimStats` — on random schedules with heavy
//! same-timestamp bursts, including node failures and revivals whose
//! `on_revive` schedules more work at the instant being drained.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use netlock_sim::{
    Context, EventQueue, FaultAction, FaultPlan, LinkConfig, Node, NodeId, Packet, SimDuration,
    SimTime, Simulator, TapEvent, Topology,
};

/// Push scripts with coarse timestamps so many events collide on the
/// same instant (the case the burst drain exists for).
fn bursty_script() -> impl Strategy<Value = Vec<(bool, u64)>> {
    prop::collection::vec(
        (
            any::<bool>(),
            prop_oneof![
                // Heavy collisions: a handful of distinct instants.
                (0u64..8).prop_map(|k| k * 1_000),
                // Mixed spread, still collision-prone after rounding.
                (0u64..2_000).prop_map(|k| k * 512),
                // Far future (overflow tier).
                (0u64..40).prop_map(|k| k * 50_000_000),
            ],
        ),
        1..400,
    )
}

proptest! {
    /// Draining through `pop_run` yields the exact `(at, seq)` sequence
    /// of one-at-a-time `pop` calls, under interleaved monotone pushes.
    #[test]
    fn pop_run_equals_pop_sequence(script in bursty_script()) {
        let mut a: EventQueue<u64> = EventQueue::new();
        let mut b: EventQueue<u64> = EventQueue::new();
        // Burst buffer for queue B, refilled one same-instant run at a
        // time — the shape of the simulator's run loop.
        let mut buf: Vec<(SimTime, u64, u64)> = Vec::new();
        let mut next = 0usize;
        let mut seq = 0u64;
        let mut now = 0u64;
        for (push, delay) in script {
            if push {
                let at = SimTime(now + delay);
                a.push(at, seq, seq);
                b.push(at, seq, seq);
                seq += 1;
            } else {
                let want = a.pop().map(|(at, s, _)| (at, s));
                if next == buf.len() {
                    buf.clear();
                    next = 0;
                    b.pop_run(SimTime(u64::MAX), &mut buf);
                }
                let got = if next < buf.len() {
                    let (at, s, _) = buf[next];
                    next += 1;
                    Some((at, s))
                } else {
                    None
                };
                prop_assert_eq!(got, want);
                if let Some((at, _)) = want {
                    now = at.0;
                }
            }
        }
        // Drain the rest of both queues the same two ways.
        loop {
            let want = a.pop().map(|(at, s, _)| (at, s));
            if next == buf.len() {
                buf.clear();
                next = 0;
                b.pop_run(SimTime(u64::MAX), &mut buf);
            }
            let got = if next < buf.len() {
                let (at, s, _) = buf[next];
                next += 1;
                Some((at, s))
            } else {
                None
            };
            prop_assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
        prop_assert!(b.is_empty());
    }
}

/// Fans out bursts: every receipt at payload `p > 0` sends `p % 3 + 1`
/// copies of `p - 1` to the peer over equal-delay links, so whole
/// generations land on the same instant; occasional zero-delay timers
/// schedule more work *at the instant being drained*, as does a revival.
struct BurstNode {
    peer: NodeId,
    log: Vec<(u64, u32)>,
}

impl Node<u32> for BurstNode {
    fn on_packet(&mut self, pkt: Packet<u32>, ctx: &mut Context<'_, u32>) {
        self.log.push((ctx.now().0, pkt.payload));
        if pkt.payload > 0 {
            for _ in 0..(pkt.payload % 3 + 1) {
                ctx.send(self.peer, pkt.payload - 1);
            }
            if pkt.payload.is_multiple_of(4) {
                ctx.set_timer(SimDuration(0), u64::from(pkt.payload));
            }
        }
    }
    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, u32>) {
        self.log.push((ctx.now().0, 1_000_000 + token as u32));
        if token > 2 {
            ctx.set_timer(SimDuration(5), token / 2);
        }
    }
    fn on_revive(&mut self, ctx: &mut Context<'_, u32>) {
        self.log.push((ctx.now().0, 2_000_000));
        ctx.set_timer(SimDuration(0), 6);
        ctx.send(self.peer, 3);
    }
}

fn burst_sim(seed: u64, loss: f64, payloads: &[u32]) -> Simulator<u32> {
    let mut topo = Topology::new(LinkConfig::with_delay(SimDuration(1_000)).with_loss(loss));
    topo.set_default(LinkConfig::with_delay(SimDuration(1_000)).with_loss(loss));
    let mut s: Simulator<u32> = Simulator::new(topo, seed);
    let a = s.add_node(Box::new(BurstNode {
        peer: NodeId(1),
        log: vec![],
    }));
    let b = s.add_node(Box::new(BurstNode {
        peer: a,
        log: vec![],
    }));
    for &p in payloads {
        // Same-instant injections to both nodes: the run starts on a
        // multi-event burst.
        s.inject(a, b, p);
        s.inject(b, a, p);
    }
    s
}

fn logs(s: &mut Simulator<u32>) -> Vec<Vec<(u64, u32)>> {
    (0..2u32)
        .map(|i| s.read_node::<BurstNode, _>(NodeId(i), |n| n.log.clone()))
        .collect()
}

proptest! {
    /// The burst-draining `run_until` produces node observation logs
    /// and final `SimStats` identical to the one-pop-per-step `step()`
    /// reference loop on the same seeded workload.
    #[test]
    fn run_until_equals_step_loop(
        seed in any::<u64>(),
        loss_pct in 0u32..40,
        payloads in prop::collection::vec(0u32..6, 1..6),
    ) {
        let loss = f64::from(loss_pct) / 100.0;
        let mut fused = burst_sim(seed, loss, &payloads);
        fused.run_until(SimTime(100_000_000));

        let mut reference = burst_sim(seed, loss, &payloads);
        while reference.step() {}

        prop_assert_eq!(logs(&mut fused), logs(&mut reference));
        prop_assert_eq!(fused.stats(), reference.stats());
    }
}

/// One dispatch as the tap saw it: a delivery `(at, src, dst, payload)`
/// (to a live or dead node), or a node fault `(at, node, u32::MAX, 0)`
/// for a failure and `(at, node, u32::MAX, 1)` for a revival.
type Dispatch = (u64, u32, u32, u64);

/// A burst simulator with node failures and revivals installed after
/// the injections, so each lands inside a same-instant burst, behind
/// the events scheduled before it and ahead of those scheduled after.
/// The tap logs every delivery and node fault in dispatch order.
fn faulted_sim(
    seed: u64,
    payloads: &[u32],
    faults: &[(u64, u32, bool)],
) -> (Simulator<u32>, Arc<Mutex<Vec<Dispatch>>>) {
    let mut s = burst_sim(seed, 0.1, payloads);
    let mut plan = FaultPlan::new();
    for &(at, node, revive) in faults {
        let action = if revive {
            FaultAction::ReviveNode(NodeId(node))
        } else {
            FaultAction::FailNode(NodeId(node))
        };
        plan.push(SimTime(at), action);
    }
    s.install_plan(&plan);
    let log = Arc::new(Mutex::new(Vec::new()));
    let l = Arc::clone(&log);
    s.set_lp_tap(
        0,
        Box::new(move |ev: TapEvent<'_, u32>| {
            let entry = match ev {
                TapEvent::Delivered { at, pkt } | TapEvent::DeliveredToDead { at, pkt } => {
                    (at.0, pkt.src.0, pkt.dst.0, u64::from(pkt.payload))
                }
                TapEvent::Fault {
                    at,
                    action: FaultAction::FailNode(n),
                } => (at.0, n.0, u32::MAX, 0),
                TapEvent::Fault {
                    at,
                    action: FaultAction::ReviveNode(n),
                } => (at.0, n.0, u32::MAX, 1),
                _ => return,
            };
            l.lock().unwrap().push(entry);
        }),
    );
    (s, log)
}

proptest! {
    /// `run_until` matches the `step()` reference when nodes fail and
    /// revive inside same-instant bursts and each revival's
    /// `on_revive` sets a zero-delay timer and sends a packet at that
    /// instant: same dispatch sequence, node observations and final
    /// `SimStats` (`max_queue_depth` included).
    #[test]
    fn revivals_inside_bursts_run_until_equals_step_loop(
        seed in any::<u64>(),
        payloads in prop::collection::vec(0u32..6, 1..6),
        faults in prop::collection::vec((0u64..12, any::<bool>(), 0u32..2, any::<bool>()), 0..8),
    ) {
        // Deliveries land on multiples of the 1 µs link delay and
        // timers 5 ns past them: put every fault on such an instant.
        let faults: Vec<(u64, u32, bool)> = faults
            .iter()
            .map(|&(k, timer, node, revive)| (k * 1_000 + if timer { 5 } else { 0 }, node, revive))
            .collect();

        let (mut fused, fused_log) = faulted_sim(seed, &payloads, &faults);
        fused.run_until(SimTime(100_000_000));

        let (mut reference, ref_log) = faulted_sim(seed, &payloads, &faults);
        while reference.step() {}

        prop_assert_eq!(&*fused_log.lock().unwrap(), &*ref_log.lock().unwrap());
        prop_assert_eq!(logs(&mut fused), logs(&mut reference));
        prop_assert_eq!(fused.stats(), reference.stats());
    }
}

//! Property tests for conservative parallel partitioning: on random
//! multi-LP topologies with cross-partition traffic, the windowed
//! multi-LP execution must deliver exactly the reference one-queue
//! execution's packets and timers (same per-node `(time, payload)`
//! multisets — same-instant interleaving may legally differ, so logs
//! are compared sorted), the worker count must be completely invisible
//! (exact log and stats equality between 1, 2 and 4 workers), and the
//! `delivered + timers + faults + to_dead == events_fired` partition of
//! fired events must survive the per-LP stats merge.

use proptest::prelude::*;

use netlock_sim::{
    Context, LinkConfig, Node, NodeId, Packet, SimDuration, SimTime, Simulator, Topology,
};

/// Forwards `payload - 1` to a payload-selected peer; every 4th value
/// also arms a timer. Everything the node *generates* depends only on
/// the payload received, never on receipt order, so per-node delivery
/// multisets are comparable between executions that interleave
/// same-instant events differently.
struct FanNode {
    peers: Vec<NodeId>,
    log: Vec<(u64, u32)>,
}

impl Node<u32> for FanNode {
    fn on_packet(&mut self, pkt: Packet<u32>, ctx: &mut Context<'_, u32>) {
        self.log.push((ctx.now().0, pkt.payload));
        if pkt.payload > 0 {
            let peer = self.peers[pkt.payload as usize % self.peers.len()];
            ctx.send(peer, pkt.payload - 1);
            if pkt.payload.is_multiple_of(4) {
                ctx.set_timer(SimDuration(500), u64::from(pkt.payload));
            }
        }
    }
    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, u32>) {
        self.log.push((ctx.now().0, 1_000_000 + token as u32));
    }
}

/// A random multi-LP scenario: LP sizes, the uniform cross-LP link
/// delay (the lookahead), and the injection script.
#[derive(Clone, Debug)]
struct Scenario {
    lp_sizes: Vec<usize>,
    cross_delay: u64,
    injections: Vec<(usize, usize, u32)>,
    seed: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        prop::collection::vec(1usize..3, 2..5),
        2_000u64..50_000,
        prop::collection::vec((0usize..8, 0usize..8, 0u32..8), 1..24),
        any::<u64>(),
    )
        .prop_map(|(lp_sizes, cross_delay, injections, seed)| Scenario {
            lp_sizes,
            cross_delay,
            injections,
            seed,
        })
}

/// Build the scenario's simulator; returns `(sim, lp_of)`. Every node's
/// peer list crosses LP boundaries (the next node cyclically, plus a
/// fixed far node), so windows genuinely exchange mailbox traffic.
fn build(sc: &Scenario) -> (Simulator<u32>, Vec<u32>) {
    let n: usize = sc.lp_sizes.iter().sum();
    let mut topo = Topology::new(LinkConfig::with_delay(SimDuration(1_000)));
    let mut lp_of = Vec::with_capacity(n);
    for (lp, &size) in sc.lp_sizes.iter().enumerate() {
        for _ in 0..size {
            lp_of.push(lp as u32);
        }
    }
    let cross = LinkConfig::with_delay(SimDuration(sc.cross_delay));
    for a in 0..n {
        for b in 0..n {
            if lp_of[a] != lp_of[b] {
                topo.set_link(NodeId(a as u32), NodeId(b as u32), cross);
            }
        }
    }
    let mut sim: Simulator<u32> = Simulator::new(topo, sc.seed);
    for i in 0..n {
        let peers = vec![
            NodeId(((i + 1) % n) as u32),
            NodeId(((i + n / 2) % n) as u32),
        ];
        sim.add_node(Box::new(FanNode { peers, log: vec![] }));
    }
    for &(src, dst, payload) in &sc.injections {
        let (src, dst) = (src % n, dst % n);
        if src != dst {
            sim.inject(NodeId(src as u32), NodeId(dst as u32), payload);
        }
    }
    (sim, lp_of)
}

fn logs(sim: &Simulator<u32>, n: usize) -> Vec<Vec<(u64, u32)>> {
    (0..n as u32)
        .map(|i| sim.read_node::<FanNode, _>(NodeId(i), |node| node.log.clone()))
        .collect()
}

fn sorted_logs(sim: &Simulator<u32>, n: usize) -> Vec<Vec<(u64, u32)>> {
    let mut all = logs(sim, n);
    for log in &mut all {
        log.sort_unstable();
    }
    all
}

const DEADLINE: SimTime = SimTime(20_000_000);

proptest! {
    /// Windowed multi-LP execution delivers the same per-node
    /// `(time, payload)` multisets as the plain one-queue reference.
    #[test]
    fn partitioned_matches_one_queue_reference(sc in scenario()) {
        let n: usize = sc.lp_sizes.iter().sum();

        let (mut reference, _) = build(&sc);
        reference.run_until(DEADLINE);

        let (mut partitioned, lp_of) = build(&sc);
        partitioned.partition(lp_of, 1);
        partitioned.run_until(DEADLINE);

        prop_assert_eq!(sorted_logs(&partitioned, n), sorted_logs(&reference, n));
        let (p, r) = (partitioned.stats(), reference.stats());
        prop_assert_eq!(p.packets_delivered, r.packets_delivered);
        prop_assert_eq!(p.timers_fired, r.timers_fired);
        prop_assert_eq!(p.packets_lost, r.packets_lost);
        prop_assert_eq!(p.packets_to_dead_node, r.packets_to_dead_node);
        prop_assert_eq!(p.events_fired, r.events_fired);
    }

    /// The worker count maps logical processes to threads and nothing
    /// else: logs (order included) and merged stats are exactly equal
    /// between 1, 2 and 4 workers. The fired-event partition invariant
    /// holds on the merged stats.
    #[test]
    fn worker_count_is_invisible(sc in scenario()) {
        let n: usize = sc.lp_sizes.iter().sum();
        let mut runs = Vec::new();
        for workers in [1usize, 2, 4] {
            let (mut sim, lp_of) = build(&sc);
            sim.partition(lp_of, workers);
            sim.run_until(DEADLINE);
            let stats = sim.stats();
            prop_assert_eq!(
                stats.packets_delivered
                    + stats.timers_fired
                    + stats.faults_applied
                    + stats.packets_to_dead_node,
                stats.events_fired,
                "fired-event partition invariant at {} workers",
                workers
            );
            runs.push((logs(&sim, n), stats));
        }
        prop_assert_eq!(&runs[0], &runs[1]);
        prop_assert_eq!(&runs[0], &runs[2]);
    }
}

proptest! {
    /// Where callers cut a run into `run_until` slices moves the
    /// conservative windows and nothing else: every node's log, order
    /// included, equals one run straight to the deadline. Cross-LP
    /// arrivals carry their sender's key, so a same-instant tie resolves
    /// the same way whichever window flushed the packet.
    #[test]
    fn slicing_is_invisible(
        sc in scenario(),
        cuts in prop::collection::vec(1u64..DEADLINE.0, 1..24),
    ) {
        let n: usize = sc.lp_sizes.iter().sum();

        let (mut whole, lp_of) = build(&sc);
        whole.partition(lp_of.clone(), 1);
        whole.run_until(DEADLINE);

        let (mut sliced, _) = build(&sc);
        sliced.partition(lp_of, 1);
        let mut cuts = cuts;
        cuts.sort_unstable();
        for t in cuts {
            sliced.run_until(SimTime(t));
        }
        sliced.run_until(DEADLINE);

        prop_assert_eq!(logs(&sliced, n), logs(&whole, n));
        let (s, w) = (sliced.stats(), whole.stats());
        prop_assert_eq!(s.events_scheduled, w.events_scheduled);
        prop_assert_eq!(s.events_fired, w.events_fired);
    }
}

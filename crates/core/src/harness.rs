//! Measurement harness: warmup, measure, collect.
//!
//! Every experiment follows the same shape: build a rack, program the
//! directory, run a warmup window (queues fill, closed loops reach
//! steady state), zero the client counters, run a measurement window,
//! and aggregate. All durations are simulated time; wall-clock cost is
//! proportional to event count, not to the simulated rates.

use netlock_proto::NetLockMsg;
use netlock_sim::{Histogram, LatencySummary, NodeId, SimDuration, Simulator};
use netlock_switch::SwitchNode;

use crate::client_micro::MicroClient;
use crate::client_txn::TxnClient;
use crate::population::PopulationClient;
use crate::rack::{ClientKind, Rack, RackNodes};

/// Aggregated results of one measurement window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunStats {
    /// Measurement window length.
    pub measured: SimDuration,
    /// Acquire requests issued by the open-loop clients (micro clients
    /// and population nodes).
    pub issued: u64,
    /// Lock grants received by clients.
    pub grants: u64,
    /// Grants that came from a switch (NetLock's data plane, or the
    /// NetChain baseline's switch).
    pub grants_switch: u64,
    /// Grants that came from lock servers.
    pub grants_server: u64,
    /// Transactions completed by the closed-loop clients (NetLock's
    /// transaction clients and the DSLR, DrTM and NetChain baselines').
    pub txns: u64,
    /// Asking again for a lock: NetLock's acquire retransmissions, the
    /// baselines' waits (DSLR polls, DrTM lost CASes, NetChain denials)
    /// and DrTM's aborts, and population nodes' window slots reclaimed
    /// by their retry timeout.
    pub retries: u64,
    /// Surplus grants released by NetLock's transaction clients (stale
    /// transactions or retry duplicates shed back to the queue).
    pub surplus_released: u64,
    /// Network-duplicated grants NetLock's transaction clients ignored.
    pub dup_grants_ignored: u64,
    /// Packets dropped by link loss/faults (whole-simulation counter —
    /// includes warmup; see [`netlock_sim::Simulator::link_counters`]
    /// for the per-link split).
    pub net_lost: u64,
    /// Extra packet copies created by duplication faults (whole run).
    pub net_duplicated: u64,
    /// Packets delivered out of send order on faulted links (whole run).
    pub net_reordered: u64,
    /// Simulator events dispatched since the simulation started
    /// (whole-run counter, warmup included). Dividing by wall-clock
    /// time gives the spine's events-per-second rate for a run.
    pub events_fired: u64,
    /// Acquire→grant latency across all clients (ns).
    pub lock_latency: Histogram,
    /// Transaction latency across all clients (ns).
    pub txn_latency: Histogram,
}

impl RunStats {
    /// Lock throughput in requests/second (grants per second).
    pub fn lock_rps(&self) -> f64 {
        self.grants as f64 / self.measured.as_secs_f64().max(1e-12)
    }

    /// Transaction throughput in transactions/second.
    pub fn tps(&self) -> f64 {
        self.txns as f64 / self.measured.as_secs_f64().max(1e-12)
    }

    /// Lock-latency summary.
    pub fn lock_latency_summary(&self) -> LatencySummary {
        LatencySummary::from_histogram(&self.lock_latency)
    }

    /// Transaction-latency summary.
    pub fn txn_latency_summary(&self) -> LatencySummary {
        LatencySummary::from_histogram(&self.txn_latency)
    }

    /// Fraction of grants served by the switch.
    pub fn switch_share(&self) -> f64 {
        if self.grants == 0 {
            0.0
        } else {
            self.grants_switch as f64 / self.grants as f64
        }
    }
}

/// A client node the measurement loop can zero and read. Implemented by
/// every client of every system the figures compare, so one routine
/// measures them all.
pub trait ClientReport: 'static {
    /// Zero the counters (start of a measurement window).
    fn reset(&mut self);
    /// Add the counters accumulated since the last reset into `out`.
    fn fold_into(&self, out: &mut RunStats);
    /// Work units finished since the last reset: transactions for
    /// closed-loop clients, grants for open-loop ones (the per-client
    /// series of the policy and failure figures).
    fn completed(&self) -> u64;
}

/// The [`ClientReport`] entry points of one concrete client type inside
/// a `Simulator<M>`, so a list of clients can mix types.
pub struct ClientOps<M> {
    reset: fn(&mut Simulator<M>, NodeId),
    fold: fn(&Simulator<M>, NodeId, &mut RunStats),
    completed: fn(&Simulator<M>, NodeId) -> u64,
}

impl<M: Clone + Send + 'static> ClientOps<M> {
    /// The entry points for nodes of type `C`.
    pub fn of<C: ClientReport>() -> ClientOps<M> {
        ClientOps {
            reset: |sim, id| sim.with_node::<C, _>(id, C::reset),
            fold: |sim, id, out| sim.read_node::<C, _>(id, |c| c.fold_into(out)),
            completed: |sim, id| sim.read_node::<C, _>(id, C::completed),
        }
    }
}

impl ClientKind {
    /// The one place a kind turns back into a concrete node type.
    pub(crate) fn ops(self) -> ClientOps<NetLockMsg> {
        match self {
            ClientKind::Micro => ClientOps::of::<MicroClient>(),
            ClientKind::Txn => ClientOps::of::<TxnClient>(),
            ClientKind::Population => ClientOps::of::<PopulationClient>(),
        }
    }
}

fn reset_all<M>(sim: &mut Simulator<M>, clients: impl IntoIterator<Item = (NodeId, ClientOps<M>)>) {
    for (id, ops) in clients {
        (ops.reset)(sim, id);
    }
}

/// Fold the counters `clients` accumulated since the last reset, plus
/// the simulator's whole-run network counters, into one [`RunStats`].
pub fn fold_all<M: Clone + Send + 'static>(
    sim: &Simulator<M>,
    clients: impl IntoIterator<Item = (NodeId, ClientOps<M>)>,
    measured: SimDuration,
) -> RunStats {
    let mut out = RunStats {
        measured,
        ..Default::default()
    };
    for (id, ops) in clients {
        (ops.fold)(sim, id, &mut out);
    }
    let net = sim.stats();
    out.net_lost = net.packets_lost;
    out.net_duplicated = net.packets_duplicated;
    out.net_reordered = net.packets_reordered;
    out.events_fired = net.events_fired;
    out
}

/// The window every experiment shares (the paper's §6 method): run
/// `warmup`, zero the counters of `clients`, run `measure`.
pub fn run_window<M: Clone + Send + 'static>(
    sim: &mut Simulator<M>,
    clients: impl IntoIterator<Item = (NodeId, ClientOps<M>)>,
    warmup: SimDuration,
    measure: SimDuration,
) {
    sim.run_for(warmup);
    reset_all(sim, clients);
    sim.run_for(measure);
}

/// [`run_window`], then [`fold_all`] over the same clients.
pub fn measure_clients<M, I>(
    sim: &mut Simulator<M>,
    clients: I,
    warmup: SimDuration,
    measure: SimDuration,
) -> RunStats
where
    M: Clone + Send + 'static,
    I: IntoIterator<Item = (NodeId, ClientOps<M>)> + Clone,
{
    run_window(sim, clients.clone(), warmup, measure);
    fold_all(sim, clients, measure)
}

/// [`measure_clients`] over clients that are all of type `C` (the
/// baseline deployments).
pub fn measure_uniform<M: Clone + Send + 'static, C: ClientReport>(
    sim: &mut Simulator<M>,
    clients: &[NodeId],
    warmup: SimDuration,
    measure: SimDuration,
) -> RunStats {
    let clients = clients.iter().map(|&id| (id, ClientOps::of::<C>()));
    measure_clients(sim, clients, warmup, measure)
}

impl RackNodes {
    pub(crate) fn client_ops(
        &self,
    ) -> impl Iterator<Item = (NodeId, ClientOps<NetLockMsg>)> + Clone + '_ {
        self.clients.iter().map(|&(id, kind)| (id, kind.ops()))
    }

    /// Zero every client's counters (start of a measurement window).
    pub fn reset_clients(&self, sim: &mut Simulator<NetLockMsg>) {
        reset_all(sim, self.client_ops());
    }

    /// Aggregate this rack's client counters since the last reset.
    ///
    /// Client-side counters (grants, txns, latencies) are strictly
    /// per-rack. The `net_*` and `events_fired` fields come from the
    /// simulator and therefore cover every rack that shares it.
    pub fn collect(&self, sim: &Simulator<NetLockMsg>, measured: SimDuration) -> RunStats {
        fold_all(sim, self.client_ops(), measured)
    }

    /// Per-client completed-work totals (for per-tenant series).
    pub fn txns_by_client(&self, sim: &Simulator<NetLockMsg>) -> Vec<u64> {
        self.client_ops()
            .map(|(id, ops)| (ops.completed)(sim, id))
            .collect()
    }

    /// Grants processed by the switch vs forwarded to servers, from the
    /// switch's own counters (Fig. 13a's breakdown).
    pub fn switch_breakdown(&self, sim: &Simulator<NetLockMsg>) -> (u64, u64) {
        sim.read_node::<SwitchNode, _>(self.switch, |s| {
            let d = s.dataplane().stats();
            (
                d.grants_immediate + d.grants_on_release,
                d.forwarded_server_locks + d.forwarded_overflow,
            )
        })
    }
}

/// Zero every client's counters (start of a measurement window).
pub fn reset_clients(rack: &mut Rack) {
    rack.nodes.reset_clients(&mut rack.sim);
}

/// Aggregate client counters accumulated since the last reset.
pub fn collect(rack: &Rack, measured: SimDuration) -> RunStats {
    rack.nodes.collect(&rack.sim, measured)
}

/// Run `warmup`, zero the counters, run `measure`, and aggregate.
pub fn warmup_and_measure(rack: &mut Rack, warmup: SimDuration, measure: SimDuration) -> RunStats {
    measure_clients(&mut rack.sim, rack.nodes.client_ops(), warmup, measure)
}

/// Per-client completed-work totals (for per-tenant series).
pub fn txns_by_client(rack: &Rack) -> Vec<u64> {
    rack.nodes.txns_by_client(&rack.sim)
}

/// Grants processed by the switch vs forwarded to servers, from the
/// switch's own counters (Fig. 13a's breakdown).
pub fn switch_breakdown(rack: &Rack) -> (u64, u64) {
    rack.nodes.switch_breakdown(&rack.sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client_micro::MicroClientConfig;
    use crate::rack::{EngineSpec, Rack, RackConfig};
    use netlock_proto::{LockId, LockMode};
    use netlock_switch::control::{knapsack_allocate, LockStats};
    use netlock_switch::shared_queue::SharedQueueLayout;

    fn micro_rack(nclients: usize) -> Rack {
        let mut rack = Rack::build(RackConfig {
            lock_servers: 1,
            engine: EngineSpec::Fcfs(SharedQueueLayout::small(2, 64, 16)),
            ..Default::default()
        });
        let locks: Vec<LockId> = (0..8).map(LockId).collect();
        let stats = LockStats::uniform(locks.iter().copied(), 8, 1);
        let alloc = knapsack_allocate(&stats, 64);
        rack.program(&alloc);
        for _ in 0..nclients {
            rack.add_micro_client(MicroClientConfig {
                rate_rps: 200_000.0,
                locks: locks.clone(),
                mode: LockMode::Shared,
                ..Default::default()
            });
        }
        rack
    }

    #[test]
    fn measure_excludes_warmup() {
        let mut rack = micro_rack(2);
        let stats = warmup_and_measure(
            &mut rack,
            SimDuration::from_millis(2),
            SimDuration::from_millis(10),
        );
        // 2 clients × 200k for 10 ms ≈ 4000 grants.
        assert!(
            (3_000..5_000).contains(&stats.grants),
            "grants = {}",
            stats.grants
        );
        let rps = stats.lock_rps();
        assert!((300_000.0..500_000.0).contains(&rps), "rps = {rps}");
        assert!(stats.lock_latency_summary().count > 0);
        assert_eq!(stats.switch_share(), 1.0);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use netlock_sim::SimDuration;

    #[test]
    fn run_stats_rates() {
        let mut s = RunStats {
            measured: SimDuration::from_millis(10),
            grants: 1_000,
            txns: 100,
            ..Default::default()
        };
        assert!((s.lock_rps() - 100_000.0).abs() < 1e-6);
        assert!((s.tps() - 10_000.0).abs() < 1e-6);
        // Switch share with no grants is defined as 0.
        s.grants = 0;
        assert_eq!(s.switch_share(), 0.0);
        s.grants = 10;
        s.grants_switch = 5;
        assert_eq!(s.switch_share(), 0.5);
    }

    #[test]
    fn zero_measure_window_is_safe() {
        let s = RunStats {
            measured: SimDuration::ZERO,
            grants: 5,
            ..Default::default()
        };
        assert!(s.lock_rps().is_finite());
    }

    #[test]
    fn empty_latency_summaries() {
        let s = RunStats::default();
        assert_eq!(s.lock_latency_summary().count, 0);
        assert_eq!(s.txn_latency_summary().p999_ns, 0);
    }
}

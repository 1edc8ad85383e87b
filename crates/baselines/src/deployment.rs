//! The deployment every baseline runs in: the simulator with the lock
//! service's nodes and one closed-loop [`Client`] per transaction
//! source.

use netlock_core::closed_loop::{Client, Protocol};
use netlock_core::harness::{measure_uniform, RunStats};
use netlock_core::txn::TxnSource;
use netlock_sim::{Node, NodeId, SimDuration, SimRng, Simulator};

/// An assembled baseline deployment: the lock service's nodes, then one
/// [`Client`] per transaction source, in one simulator.
pub struct Deployment<P: Protocol> {
    /// The simulator.
    pub sim: Simulator<P::Msg>,
    /// The lock service: RDMA lock servers, or the NetChain switch.
    pub servers: Vec<NodeId>,
    /// Clients.
    pub clients: Vec<NodeId>,
}

impl<P: Protocol + Clone> Deployment<P> {
    /// Add `service`'s nodes, then one client configured by `cfg` per
    /// element of `sources`, seeded from `seed ^ P::SEED_SALT`.
    pub fn build<N, F>(
        seed: u64,
        cfg: P,
        service: impl IntoIterator<Item = N>,
        sources: impl IntoIterator<Item = F>,
    ) -> Deployment<P>
    where
        N: Node<P::Msg> + 'static,
        F: TxnSource + 'static,
    {
        let mut sim = Simulator::with_seed(seed);
        let servers: Vec<NodeId> = service
            .into_iter()
            .map(|node| sim.add_node(Box::new(node)))
            .collect();
        let mut seeder = SimRng::new(seed ^ P::SEED_SALT);
        let clients = sources
            .into_iter()
            .map(|src| {
                let client = Client::with_protocol(
                    cfg.clone(),
                    servers.clone(),
                    Box::new(src),
                    seeder.next_u64(),
                );
                sim.add_node(Box::new(client))
            })
            .collect();
        Deployment {
            sim,
            servers,
            clients,
        }
    }

    /// Warmup, reset, measure, and aggregate into the shared result type.
    pub fn measure(&mut self, warmup: SimDuration, measure: SimDuration) -> RunStats {
        measure_uniform::<_, Client<P>>(&mut self.sim, &self.clients, warmup, measure)
    }
}

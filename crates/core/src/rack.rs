//! Rack assembly: one lock switch + lock servers + database servers +
//! clients, wired per Figure 2 of the paper.
//!
//! Node-id conventions (asserted at build time):
//! lock servers first, then the switch, then database servers, then
//! clients. `ClientAddr(n)` addresses node `n`, which is how the switch
//! and servers route grant notifications back.

use netlock_proto::{LockId, NetLockMsg};
use netlock_server::{ServerConfig, ServerNode};
use netlock_sim::{LinkConfig, Node, NodeId, SimRng, Simulator, Topology};
use netlock_switch::control::Allocation;
use netlock_switch::priority::PriorityLayout;
use netlock_switch::shared_queue::SharedQueueLayout;
use netlock_switch::{DataPlane, SwitchConfig, SwitchNode};

use crate::client_micro::{MicroClient, MicroClientConfig};
use crate::client_txn::{TxnClient, TxnClientConfig};
use crate::db_server::DbServer;
use crate::population::{PopulationClient, PopulationConfig};
use crate::txn::TxnSource;

/// Which data-plane engine the switch is compiled with.
#[derive(Clone, Debug)]
pub enum EngineSpec {
    /// FCFS shared-queue engine with this layout.
    Fcfs(SharedQueueLayout),
    /// Priority engine (service differentiation).
    Priority(PriorityLayout),
}

/// Rack configuration.
#[derive(Clone, Debug)]
pub struct RackConfig {
    /// Simulation seed.
    pub seed: u64,
    /// Number of lock servers.
    pub lock_servers: usize,
    /// Lock server parameters.
    pub server: ServerConfig,
    /// Switch parameters.
    pub switch: SwitchConfig,
    /// Data-plane engine and memory layout.
    pub engine: EngineSpec,
    /// Database servers the switch forwards every grant through
    /// (§4.1 one-RTT mode); 0 turns it off.
    pub db_servers: usize,
    /// Intra-rack link parameters.
    pub link: LinkConfig,
}

impl Default for RackConfig {
    fn default() -> Self {
        RackConfig {
            seed: 1,
            lock_servers: 2,
            server: ServerConfig::default(),
            switch: SwitchConfig::default(),
            engine: EngineSpec::Fcfs(SharedQueueLayout::paper_default()),
            db_servers: 0,
            link: LinkConfig::default(),
        }
    }
}

/// What kind of client occupies a node (for stat collection).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClientKind {
    /// Open-loop microbenchmark client.
    Micro,
    /// Closed-loop transaction client.
    Txn,
    /// Aggregate client-population node (many virtual clients).
    Population,
}

/// One rack's nodes inside a simulator: the handle every per-rack
/// operation hangs off. A [`Rack`] is one simulator plus one handle; a
/// [`crate::cluster::RackCluster`] is one simulator plus a handle per
/// rack. Every method takes the simulator the rack lives in.
pub struct RackNodes {
    /// The ToR lock switch.
    pub switch: NodeId,
    /// Lock servers, by directory server index.
    pub lock_servers: Vec<NodeId>,
    /// Database servers (one-RTT mode).
    pub db_servers: Vec<NodeId>,
    /// Clients with their kinds, in creation order.
    pub clients: Vec<(NodeId, ClientKind)>,
    /// Client-seed stream.
    rng: SimRng,
}

impl RackNodes {
    /// Add rack number `rack`'s servers and switch (no clients yet) at
    /// the simulator's next node ids. Rack 0 draws client seeds from
    /// `cfg.seed` alone; later racks mix in the rack index, so racks
    /// behave independently but stay a pure function of `(cfg, rack)`.
    pub fn build(sim: &mut Simulator<NetLockMsg>, cfg: &RackConfig, rack: usize) -> RackNodes {
        // Lock servers first; they need the switch id, which will be the
        // next node after them.
        let predicted_switch = NodeId((sim.node_count() + cfg.lock_servers) as u32);
        let lock_servers: Vec<NodeId> = (0..cfg.lock_servers)
            .map(|_| {
                sim.add_node(Box::new(ServerNode::new(
                    cfg.server.clone(),
                    predicted_switch,
                )))
            })
            .collect();
        let dp = match &cfg.engine {
            EngineSpec::Fcfs(layout) => DataPlane::new_fcfs(layout),
            EngineSpec::Priority(layout) => DataPlane::new_priority(layout),
        };
        // Database server ids follow the switch.
        let db_ids = (0..cfg.db_servers)
            .map(|i| NodeId(predicted_switch.0 + 1 + i as u32))
            .collect();
        let switch_node =
            SwitchNode::new(dp, cfg.switch.clone(), lock_servers.clone()).with_db_servers(db_ids);
        let switch = sim.add_node(Box::new(switch_node));
        assert_eq!(switch, predicted_switch, "node ordering invariant broken");
        let db_servers = (0..cfg.db_servers)
            .map(|_| sim.add_node(Box::new(DbServer::default())))
            .collect();
        let rack_seed = cfg.seed ^ (rack as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = SimRng::new(rack_seed ^ 0xC11E_57A7);
        let _ = rng.next_u64();
        RackNodes {
            switch,
            lock_servers,
            db_servers,
            clients: Vec::new(),
            rng,
        }
    }

    /// The rack's clients, in creation order.
    pub fn client_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.clients.iter().map(|&(id, _)| id)
    }

    /// Every node of this rack: servers, switch, database servers, clients.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (self.lock_servers.iter().copied())
            .chain([self.switch])
            .chain(self.db_servers.iter().copied())
            .chain(self.client_ids())
    }

    fn add_client(
        &mut self,
        sim: &mut Simulator<NetLockMsg>,
        kind: ClientKind,
        node: Box<dyn Node<NetLockMsg>>,
    ) -> NodeId {
        let id = sim.add_node(node);
        self.clients.push((id, kind));
        id
    }

    /// Add an open-loop microbenchmark client.
    pub fn add_micro_client(
        &mut self,
        sim: &mut Simulator<NetLockMsg>,
        cfg: MicroClientConfig,
    ) -> NodeId {
        let node = Box::new(MicroClient::new(cfg, self.switch));
        self.add_client(sim, ClientKind::Micro, node)
    }

    /// Add an aggregate client-population node (see
    /// [`crate::population`]): many virtual clients, batched traffic.
    pub fn add_population_client(
        &mut self,
        sim: &mut Simulator<NetLockMsg>,
        cfg: PopulationConfig,
    ) -> NodeId {
        let node = Box::new(PopulationClient::new(cfg, self.switch));
        self.add_client(sim, ClientKind::Population, node)
    }

    /// Add a closed-loop transaction client.
    pub fn add_txn_client(
        &mut self,
        sim: &mut Simulator<NetLockMsg>,
        cfg: TxnClientConfig,
        source: Box<dyn TxnSource>,
    ) -> NodeId {
        let seed = self.rng.next_u64();
        let node = Box::new(TxnClient::new(cfg, self.switch, source, seed));
        self.add_client(sim, ClientKind::Txn, node)
    }

    /// Program an FCFS allocation: switch regions + directory (see
    /// [`SwitchNode::program`]), and mark server-resident locks as owned
    /// on their home servers. Locks with no directory entry default-route
    /// to `hash(lock) % servers`.
    pub fn program(&self, sim: &mut Simulator<NetLockMsg>, alloc: &Allocation) {
        sim.with_node::<SwitchNode, _>(self.switch, |s| s.program(alloc));
        for &(lock, home) in &alloc.in_server {
            sim.with_node::<ServerNode, _>(self.lock_servers[home], |s| s.own_lock(lock));
        }
    }

    /// Program the priority engine's directory: lock → sequential qid.
    pub fn program_priority(&self, sim: &mut Simulator<NetLockMsg>, locks: &[LockId]) {
        sim.with_node::<SwitchNode, _>(self.switch, |s| {
            for (qid, &lock) in locks.iter().enumerate() {
                s.dataplane_mut()
                    .directory_mut()
                    .set_switch_resident(lock, qid, 0);
            }
        });
    }
}

/// An assembled rack: one simulator and the one rack in it. Derefs to
/// its [`RackNodes`], so `rack.switch`, `rack.clients`, … read through.
pub struct Rack {
    /// The simulator; run it via [`netlock_sim::Simulator::run_for`].
    pub sim: Simulator<NetLockMsg>,
    /// The rack's nodes (borrowable beside `sim` for code written
    /// against a handle and a simulator).
    pub nodes: RackNodes,
}

impl std::ops::Deref for Rack {
    type Target = RackNodes;
    fn deref(&self) -> &RackNodes {
        &self.nodes
    }
}

impl Rack {
    /// Build the rack (without clients; add them afterwards).
    pub fn build(cfg: RackConfig) -> Rack {
        let mut sim = Simulator::new(Topology::new(cfg.link), cfg.seed);
        let nodes = RackNodes::build(&mut sim, &cfg, 0);
        Rack { sim, nodes }
    }

    /// Add an open-loop microbenchmark client.
    pub fn add_micro_client(&mut self, cfg: MicroClientConfig) -> NodeId {
        self.nodes.add_micro_client(&mut self.sim, cfg)
    }

    /// Add an aggregate client-population node.
    pub fn add_population_client(&mut self, cfg: PopulationConfig) -> NodeId {
        self.nodes.add_population_client(&mut self.sim, cfg)
    }

    /// Add a closed-loop transaction client.
    pub fn add_txn_client(&mut self, cfg: TxnClientConfig, source: Box<dyn TxnSource>) -> NodeId {
        self.nodes.add_txn_client(&mut self.sim, cfg, source)
    }

    /// Program an FCFS allocation (see [`RackNodes::program`]).
    pub fn program(&mut self, alloc: &Allocation) {
        self.nodes.program(&mut self.sim, alloc);
    }

    /// Program the priority engine's directory: lock → sequential qid.
    pub fn program_priority(&mut self, locks: &[LockId]) {
        self.nodes.program_priority(&mut self.sim, locks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlock_switch::control::{knapsack_allocate, LockStats};

    #[test]
    fn build_orders_nodes_as_documented() {
        let rack = Rack::build(RackConfig {
            lock_servers: 3,
            db_servers: 2,
            ..Default::default()
        });
        assert_eq!(rack.lock_servers, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(rack.switch, NodeId(3));
        assert_eq!(rack.db_servers, vec![NodeId(4), NodeId(5)]);
    }

    #[test]
    fn program_splits_ownership() {
        let mut rack = Rack::build(RackConfig {
            lock_servers: 2,
            engine: EngineSpec::Fcfs(SharedQueueLayout::small(2, 8, 8)),
            ..Default::default()
        });
        let stats = vec![
            LockStats {
                lock: LockId(1),
                rate: 100.0,
                contention: 8,
                home_server: 0,
            },
            LockStats {
                lock: LockId(2),
                rate: 1.0,
                contention: 16,
                home_server: 1,
            },
        ];
        // Capacity 8: lock 1 fits fully; lock 2 goes to server 1.
        let alloc = knapsack_allocate(&stats, 8);
        rack.program(&alloc);
        let resident = rack.sim.read_node::<SwitchNode, _>(rack.switch, |s| {
            s.dataplane().directory().switch_resident()
        });
        assert_eq!(resident.len(), 1);
        assert_eq!(resident[0].0, LockId(1));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::client_micro::MicroClientConfig;
    use crate::harness::{switch_breakdown, txns_by_client, warmup_and_measure};
    use crate::txn::SingleLockSource;
    use netlock_proto::LockMode;
    use netlock_sim::SimDuration;
    use netlock_switch::control::{knapsack_allocate, LockStats};
    use netlock_switch::shared_queue::SharedQueueLayout;

    fn small_rack() -> Rack {
        let mut rack = Rack::build(RackConfig {
            seed: 2,
            lock_servers: 1,
            engine: EngineSpec::Fcfs(SharedQueueLayout::small(2, 64, 8)),
            ..Default::default()
        });
        let stats = LockStats::uniform((0..4).map(LockId), 16, 1);
        rack.program(&knapsack_allocate(&stats, 64));
        rack
    }

    #[test]
    fn mixed_client_kinds_collected() {
        let mut rack = small_rack();
        rack.add_micro_client(MicroClientConfig {
            rate_rps: 50_000.0,
            locks: (0..4).map(LockId).collect(),
            mode: LockMode::Shared,
            ..Default::default()
        });
        rack.add_txn_client(
            TxnClientConfig {
                workers: 2,
                ..Default::default()
            },
            Box::new(SingleLockSource {
                locks: (0..4).map(LockId).collect(),
                mode: LockMode::Shared,
                think: SimDuration::from_micros(10),
            }),
        );
        let stats = warmup_and_measure(
            &mut rack,
            SimDuration::from_millis(1),
            SimDuration::from_millis(5),
        );
        assert!(stats.issued > 0, "micro client contributes issued count");
        assert!(stats.txns > 0, "txn client contributes txns");
        let per_client = txns_by_client(&rack);
        assert_eq!(per_client.len(), 2);
        assert!(per_client.iter().all(|&c| c > 0));
        let (sw, srv) = switch_breakdown(&rack);
        assert!(sw > 0);
        assert_eq!(srv, 0);
    }

    #[test]
    fn client_kinds_recorded_in_order() {
        let mut rack = small_rack();
        let a = rack.add_txn_client(
            TxnClientConfig::default(),
            Box::new(SingleLockSource {
                locks: vec![LockId(0)],
                mode: LockMode::Shared,
                think: SimDuration::ZERO,
            }),
        );
        let b = rack.add_micro_client(MicroClientConfig {
            locks: vec![LockId(1)],
            ..Default::default()
        });
        assert_eq!(rack.clients[0], (a, ClientKind::Txn));
        assert_eq!(rack.clients[1], (b, ClientKind::Micro));
    }
}

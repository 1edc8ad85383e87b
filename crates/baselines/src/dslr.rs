//! DSLR baseline (Yoon, Chowdhury, Mozafari — SIGMOD 2018).
//!
//! DSLR is the state-of-the-art decentralized lock manager the paper
//! compares against: it adapts Lamport's bakery algorithm to RDMA so
//! that a single FETCH_ADD both takes a ticket and reports whether the
//! lock is免 available, giving FCFS without a server CPU.
//!
//! Lock word layout (64 bits, four 16-bit lanes, as in the DSLR paper):
//!
//! ```text
//! | max_x (48..64) | max_s (32..48) | now_x (16..32) | now_s (0..16) |
//! ```
//!
//! - Exclusive acquire: FA(1 << 48); proceed when `now_x == old.max_x`
//!   and `now_s == old.max_s`.
//! - Shared acquire: FA(1 << 32); proceed when `now_x == old.max_x`.
//! - Exclusive release: FA(1 << 16). Shared release: FA(1).
//!
//! A worker whose FA reply says the lock is taken polls the word with
//! one-sided READs every `poll_interval`. The two costs that cap DSLR —
//! the NIC atomics bottleneck and poll traffic amplification under
//! contention — both emerge from the [`crate::rdma`] model.

use netlock_core::harness::{measure_uniform, ClientReport, RunStats};
use netlock_core::txn::{LockNeed, Transaction, TxnSource};
use netlock_proto::LockMode;
use netlock_sim::{
    Context, Histogram, LinkConfig, Node, NodeId, Packet, SimDuration, SimRng, SimTime, Simulator,
    Topology,
};

use crate::rdma::{RdmaMsg, RdmaNicConfig, RdmaServer};

const LANE_MAX_X: u32 = 48;
const LANE_MAX_S: u32 = 32;
const LANE_NOW_X: u32 = 16;
const LANE_NOW_S: u32 = 0;

#[inline]
fn lane(word: u64, shift: u32) -> u16 {
    (word >> shift) as u16
}

/// Whether the bakery condition for `mode` with tickets `(tx, ts)` is
/// satisfied by `word`.
#[inline]
fn bakery_ready(word: u64, mode: LockMode, ticket_x: u16, ticket_s: u16) -> bool {
    match mode {
        LockMode::Shared => lane(word, LANE_NOW_X) == ticket_x,
        LockMode::Exclusive => {
            lane(word, LANE_NOW_X) == ticket_x && lane(word, LANE_NOW_S) == ticket_s
        }
    }
}

/// DSLR client configuration.
#[derive(Clone, Debug)]
pub struct DslrClientConfig {
    /// Concurrent transaction contexts.
    pub workers: usize,
    /// Client-side processing per verb issue (RDMA bypasses the kernel).
    pub tx_delay: SimDuration,
    /// Client-side processing per completion.
    pub rx_delay: SimDuration,
    /// Poll interval while waiting on a ticket.
    pub poll_interval: SimDuration,
}

impl Default for DslrClientConfig {
    fn default() -> Self {
        DslrClientConfig {
            workers: 16,
            tx_delay: SimDuration::from_nanos(900),
            rx_delay: SimDuration::from_nanos(900),
            poll_interval: SimDuration::from_micros(5),
        }
    }
}

/// DSLR client counters.
#[derive(Clone, Debug, Default)]
pub struct DslrClientStats {
    /// Transactions completed.
    pub txns: u64,
    /// Locks acquired.
    pub grants: u64,
    /// Poll READs issued.
    pub polls: u64,
    /// Transaction latency (ns).
    pub txn_latency: Histogram,
    /// Per-lock wait latency (ns).
    pub wait_latency: Histogram,
}

#[derive(Debug)]
enum Phase {
    /// FA issued, waiting for the reply.
    TakingTicket {
        next: usize,
        sent: SimTime,
    },
    /// Ticket held but lock busy; polling.
    Waiting {
        next: usize,
        sent: SimTime,
        ticket_x: u16,
        ticket_s: u16,
    },
    Thinking,
}

#[derive(Debug)]
struct Worker {
    txn: Transaction,
    started: SimTime,
    phase: Phase,
    held: Vec<LockNeed>,
    gen: u64,
}

/// The DSLR client node.
pub struct DslrClient {
    cfg: DslrClientConfig,
    servers: Vec<NodeId>,
    source: Box<dyn TxnSource>,
    workers: Vec<Worker>,
    rng: SimRng,
    stats: DslrClientStats,
}

const GEN_BITS: u32 = 40;

impl DslrClient {
    /// A client that spreads lock words over `servers` by lock hash.
    pub fn new(
        cfg: DslrClientConfig,
        servers: Vec<NodeId>,
        source: Box<dyn TxnSource>,
        seed: u64,
    ) -> DslrClient {
        assert!(!servers.is_empty(), "need at least one RDMA server");
        assert!(cfg.workers > 0);
        DslrClient {
            cfg,
            servers,
            source,
            workers: Vec::new(),
            rng: SimRng::new(seed),
            stats: DslrClientStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> &DslrClientStats {
        &self.stats
    }

    /// Clear measurement state.
    pub fn reset_stats(&mut self) {
        self.stats = DslrClientStats::default();
    }

    fn server_of(&self, addr: u64) -> NodeId {
        let i = (addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % self.servers.len();
        self.servers[i]
    }

    fn token(&self, worker: usize) -> u64 {
        ((worker as u64) << GEN_BITS) | (self.workers[worker].gen & ((1 << GEN_BITS) - 1))
    }

    fn bump(&mut self, worker: usize) {
        self.workers[worker].gen += 1;
    }

    fn start_next_txn(&mut self, worker: usize, ctx: &mut Context<'_, RdmaMsg>) {
        loop {
            let txn = self.source.next_txn(&mut self.rng);
            let w = &mut self.workers[worker];
            w.held.clear();
            w.started = ctx.now();
            if txn.locks.is_empty() {
                self.stats.txns += 1;
                self.stats.txn_latency.record(0);
                continue;
            }
            w.txn = txn;
            w.phase = Phase::TakingTicket {
                next: 0,
                sent: ctx.now(),
            };
            self.bump(worker);
            self.issue_fa(worker, ctx);
            return;
        }
    }

    fn issue_fa(&mut self, worker: usize, ctx: &mut Context<'_, RdmaMsg>) {
        let (next, _) = match self.workers[worker].phase {
            Phase::TakingTicket { next, sent } => (next, sent),
            _ => return,
        };
        let need = self.workers[worker].txn.locks[next];
        let addr = need.lock.0 as u64;
        let add = match need.mode {
            LockMode::Exclusive => 1u64 << LANE_MAX_X,
            LockMode::Shared => 1u64 << LANE_MAX_S,
        };
        let token = self.token(worker);
        let dst = self.server_of(addr);
        ctx.send_after(
            dst,
            RdmaMsg::FetchAdd { addr, add, token },
            self.cfg.tx_delay,
        );
    }

    fn issue_poll(&mut self, worker: usize, ctx: &mut Context<'_, RdmaMsg>) {
        let Phase::Waiting { next, .. } = self.workers[worker].phase else {
            return;
        };
        let need = self.workers[worker].txn.locks[next];
        let addr = need.lock.0 as u64;
        let token = self.token(worker);
        self.stats.polls += 1;
        ctx.send_after(
            self.server_of(addr),
            RdmaMsg::Read { addr, token },
            self.cfg.tx_delay,
        );
    }

    fn lock_acquired(&mut self, worker: usize, ctx: &mut Context<'_, RdmaMsg>) {
        let (next, sent) = match self.workers[worker].phase {
            Phase::TakingTicket { next, sent } | Phase::Waiting { next, sent, .. } => (next, sent),
            Phase::Thinking => return,
        };
        self.stats.grants += 1;
        self.stats
            .wait_latency
            .record(ctx.now().as_nanos() - sent.as_nanos() + self.cfg.rx_delay.as_nanos());
        let need = self.workers[worker].txn.locks[next];
        self.workers[worker].held.push(need);
        let lock_count = self.workers[worker].txn.locks.len();
        if next + 1 < lock_count {
            self.workers[worker].phase = Phase::TakingTicket {
                next: next + 1,
                sent: ctx.now(),
            };
            self.bump(worker);
            self.issue_fa(worker, ctx);
        } else {
            let think = self.workers[worker].txn.think;
            self.workers[worker].phase = Phase::Thinking;
            self.bump(worker);
            if think.is_zero() {
                self.complete_txn(worker, ctx);
            } else {
                let token = self.token(worker);
                ctx.set_timer(self.cfg.rx_delay + think, token);
            }
        }
    }

    fn complete_txn(&mut self, worker: usize, ctx: &mut Context<'_, RdmaMsg>) {
        let held = self.workers[worker].held.clone();
        for need in held {
            let addr = need.lock.0 as u64;
            let add = match need.mode {
                LockMode::Exclusive => 1u64 << LANE_NOW_X,
                LockMode::Shared => 1u64 << LANE_NOW_S,
            };
            // Release replies are ignored; use a sentinel token.
            ctx.send_after(
                self.server_of(addr),
                RdmaMsg::FetchAdd {
                    addr,
                    add,
                    token: u64::MAX,
                },
                self.cfg.tx_delay,
            );
        }
        self.workers[worker].held.clear();
        let started = self.workers[worker].started;
        self.stats.txns += 1;
        self.stats
            .txn_latency
            .record(ctx.now().as_nanos() - started.as_nanos());
        self.start_next_txn(worker, ctx);
    }

    fn on_reply(&mut self, msg: RdmaMsg, ctx: &mut Context<'_, RdmaMsg>) {
        let token = match msg {
            RdmaMsg::FetchAddReply { token, .. }
            | RdmaMsg::ReadReply { token, .. }
            | RdmaMsg::CompareSwapReply { token, .. }
            | RdmaMsg::WriteReply { token } => token,
            _ => return,
        };
        if token == u64::MAX {
            return; // release completion
        }
        let worker = (token >> GEN_BITS) as usize;
        if worker >= self.workers.len() {
            return;
        }
        if (self.workers[worker].gen & ((1 << GEN_BITS) - 1)) != (token & ((1 << GEN_BITS) - 1)) {
            return; // stale completion
        }
        match (msg, &self.workers[worker].phase) {
            (RdmaMsg::FetchAddReply { old, .. }, Phase::TakingTicket { next, sent }) => {
                let (next, sent) = (*next, *sent);
                let need = self.workers[worker].txn.locks[next];
                let ticket_x = lane(old, LANE_MAX_X);
                let ticket_s = lane(old, LANE_MAX_S);
                if bakery_ready(old, need.mode, ticket_x, ticket_s) {
                    self.lock_acquired(worker, ctx);
                } else {
                    self.workers[worker].phase = Phase::Waiting {
                        next,
                        sent,
                        ticket_x,
                        ticket_s,
                    };
                    self.bump(worker);
                    let token = self.token(worker);
                    ctx.set_timer(self.cfg.poll_interval, token);
                }
            }
            (
                RdmaMsg::ReadReply { value, .. },
                Phase::Waiting {
                    ticket_x,
                    ticket_s,
                    next,
                    ..
                },
            ) => {
                let (tx, ts, next) = (*ticket_x, *ticket_s, *next);
                let need = self.workers[worker].txn.locks[next];
                if bakery_ready(value, need.mode, tx, ts) {
                    self.lock_acquired(worker, ctx);
                } else {
                    let token = self.token(worker);
                    ctx.set_timer(self.cfg.poll_interval, token);
                }
            }
            _ => {}
        }
    }
}

impl ClientReport for DslrClient {
    fn reset(&mut self) {
        self.reset_stats();
    }

    fn fold_into(&self, out: &mut RunStats) {
        let s = &self.stats;
        out.txns += s.txns;
        out.grants += s.grants;
        out.grants_server += s.grants;
        out.lock_latency.merge(&s.wait_latency);
        out.txn_latency.merge(&s.txn_latency);
    }

    fn completed(&self) -> u64 {
        self.stats.txns
    }
}

impl Node<RdmaMsg> for DslrClient {
    fn on_start(&mut self, ctx: &mut Context<'_, RdmaMsg>) {
        for _ in 0..self.cfg.workers {
            self.workers.push(Worker {
                txn: Transaction::new(vec![], SimDuration::ZERO),
                started: ctx.now(),
                phase: Phase::Thinking,
                held: Vec::new(),
                gen: 0,
            });
        }
        for w in 0..self.cfg.workers {
            self.start_next_txn(w, ctx);
        }
    }

    fn on_packet(&mut self, pkt: Packet<RdmaMsg>, ctx: &mut Context<'_, RdmaMsg>) {
        self.on_reply(pkt.payload, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, RdmaMsg>) {
        let worker = (token >> GEN_BITS) as usize;
        if worker >= self.workers.len()
            || (self.workers[worker].gen & ((1 << GEN_BITS) - 1)) != (token & ((1 << GEN_BITS) - 1))
        {
            return;
        }
        match self.workers[worker].phase {
            Phase::Waiting { .. } => self.issue_poll(worker, ctx),
            Phase::Thinking => self.complete_txn(worker, ctx),
            Phase::TakingTicket { .. } => {}
        }
    }

    fn name(&self) -> &str {
        "dslr-client"
    }
}

/// An assembled DSLR deployment.
pub struct DslrRack {
    /// The simulator.
    pub sim: Simulator<RdmaMsg>,
    /// RDMA lock servers.
    pub servers: Vec<NodeId>,
    /// Clients.
    pub clients: Vec<NodeId>,
}

/// Build a DSLR deployment: `n_servers` RDMA lock servers and one
/// client per element of `sources`.
pub fn build_dslr<F>(
    seed: u64,
    n_servers: usize,
    client_cfg: DslrClientConfig,
    nic: RdmaNicConfig,
    sources: Vec<F>,
) -> DslrRack
where
    F: TxnSource + 'static,
{
    let mut sim: Simulator<RdmaMsg> = Simulator::new(
        Topology::new(LinkConfig::with_delay(SimDuration::from_nanos(1_200))),
        seed,
    );
    let mut servers = Vec::new();
    for _ in 0..n_servers {
        servers.push(sim.add_node(Box::new(RdmaServer::new(nic.clone()))));
    }
    let mut clients = Vec::new();
    let mut seeder = SimRng::new(seed ^ 0xD51A);
    for src in sources {
        let s = seeder.next_u64();
        clients.push(sim.add_node(Box::new(DslrClient::new(
            client_cfg.clone(),
            servers.clone(),
            Box::new(src),
            s,
        ))));
    }
    DslrRack {
        sim,
        servers,
        clients,
    }
}

/// Warmup, reset, measure, and aggregate into the shared result type.
pub fn measure_dslr(rack: &mut DslrRack, warmup: SimDuration, measure: SimDuration) -> RunStats {
    measure_uniform::<_, DslrClient>(&mut rack.sim, &rack.clients, warmup, measure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlock_core::txn::SingleLockSource;
    use netlock_proto::LockId;

    fn sources(
        n: usize,
        locks: Vec<LockId>,
        mode: LockMode,
        think: SimDuration,
    ) -> Vec<SingleLockSource> {
        (0..n)
            .map(|_| SingleLockSource {
                locks: locks.clone(),
                mode,
                think,
            })
            .collect()
    }

    #[test]
    fn uncontended_locks_flow() {
        let mut rack = build_dslr(
            1,
            1,
            DslrClientConfig {
                workers: 4,
                ..Default::default()
            },
            RdmaNicConfig::default(),
            sources(
                2,
                (0..64).map(LockId).collect(),
                LockMode::Exclusive,
                SimDuration::ZERO,
            ),
        );
        let stats = measure_dslr(
            &mut rack,
            SimDuration::from_millis(2),
            SimDuration::from_millis(10),
        );
        assert!(stats.txns > 500, "txns = {}", stats.txns);
        assert_eq!(stats.grants, stats.txns, "one lock per txn");
    }

    #[test]
    fn fcfs_under_contention_still_progresses() {
        let mut rack = build_dslr(
            2,
            1,
            DslrClientConfig {
                workers: 8,
                ..Default::default()
            },
            RdmaNicConfig::default(),
            sources(2, vec![LockId(0)], LockMode::Exclusive, SimDuration::ZERO),
        );
        let stats = measure_dslr(
            &mut rack,
            SimDuration::from_millis(5),
            SimDuration::from_millis(20),
        );
        assert!(stats.txns > 100, "contended txns = {}", stats.txns);
        // Waiting shows up as polls and higher wait latency.
        let polls: u64 = rack
            .clients
            .iter()
            .map(|&c| rack.sim.read_node::<DslrClient, _>(c, |c| c.stats().polls))
            .sum();
        assert!(polls > 0, "contention must trigger polling");
    }

    #[test]
    fn shared_locks_coexist() {
        let mut rack = build_dslr(
            3,
            1,
            DslrClientConfig {
                workers: 8,
                ..Default::default()
            },
            RdmaNicConfig::default(),
            sources(2, vec![LockId(0)], LockMode::Shared, SimDuration::ZERO),
        );
        let stats = measure_dslr(
            &mut rack,
            SimDuration::from_millis(2),
            SimDuration::from_millis(10),
        );
        // Shared same-lock workload: no bakery waits, high throughput.
        let polls: u64 = rack
            .clients
            .iter()
            .map(|&c| rack.sim.read_node::<DslrClient, _>(c, |c| c.stats().polls))
            .sum();
        assert!(stats.txns > 1_000, "txns = {}", stats.txns);
        assert_eq!(polls, 0, "pure shared traffic never waits");
    }

    #[test]
    fn nic_bound_caps_throughput() {
        // One lock server, very slow NIC: throughput must be ≈ NIC rate
        // divided by verbs per txn (2: acquire FA + release FA).
        let nic = RdmaNicConfig {
            atomic_service: SimDuration::from_micros(10), // 100 Kops
            rw_service: SimDuration::from_micros(10),
        };
        let mut rack = build_dslr(
            4,
            1,
            DslrClientConfig {
                workers: 16,
                ..Default::default()
            },
            nic,
            sources(
                4,
                (0..1024).map(LockId).collect(),
                LockMode::Exclusive,
                SimDuration::ZERO,
            ),
        );
        let stats = measure_dslr(
            &mut rack,
            SimDuration::from_millis(5),
            SimDuration::from_millis(20),
        );
        let tps = stats.tps();
        assert!(
            tps < 60_000.0,
            "NIC at 100 Kops with 2 verbs/txn caps ~50 KTPS, got {tps}"
        );
        assert!(tps > 20_000.0, "but it should approach the cap: {tps}");
    }
}

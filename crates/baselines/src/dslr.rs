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
//! one-sided READs every 5 µs. The two costs that cap DSLR —
//! the NIC atomics bottleneck and poll traffic amplification under
//! contention — both emerge from the [`crate::rdma`] model.

use netlock_core::closed_loop::{Client, Protocol, RELEASE_TOKEN};
use netlock_core::txn::LockNeed;
use netlock_proto::{Grantor, LockMode, Priority};
use netlock_sim::{Context, NodeId, SimDuration};

use crate::rdma::RdmaMsg;

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

/// Poll interval while waiting on a ticket.
const POLL_INTERVAL: SimDuration = SimDuration::from_micros(5);

/// DSLR client configuration.
#[derive(Clone, Debug)]
pub struct DslrClientConfig {
    /// Concurrent transaction contexts.
    pub workers: usize,
}

/// Where a DSLR worker is in acquiring its current lock.
#[derive(Debug)]
pub enum Phase {
    /// FA issued, waiting for the reply.
    TakingTicket,
    /// Ticket held but lock busy; polling.
    Waiting {
        /// Exclusive-lane ticket.
        ticket_x: u16,
        /// Shared-lane ticket.
        ticket_s: u16,
    },
    /// Every lock held.
    Thinking,
}

/// The DSLR client node.
pub type DslrClient = Client<DslrClientConfig>;

impl Protocol for DslrClientConfig {
    type Msg = RdmaMsg;
    type Phase = Phase;
    const THINKING: Phase = Phase::Thinking;
    const NAME: &'static str = "dslr-client";
    const SEED_SALT: u64 = 0xD51A;
    /// Per verb issue and per completion (RDMA bypasses the kernel).
    const STACK_DELAY: SimDuration = SimDuration::from_nanos(900);

    fn workers(&self) -> usize {
        self.workers
    }

    fn request(c: &mut DslrClient, w: usize, ctx: &mut Context<'_, RdmaMsg>) {
        c.workers[w].phase = Phase::TakingTicket;
        let need = c.need(w);
        let add = match need.mode {
            LockMode::Exclusive => 1u64 << LANE_MAX_X,
            LockMode::Shared => 1u64 << LANE_MAX_S,
        };
        let addr = need.lock.0 as u64;
        let token = c.token(w);
        c.send(need.lock, RdmaMsg::FetchAdd { addr, add, token }, ctx);
    }

    fn on_packet(c: &mut DslrClient, msg: RdmaMsg, ctx: &mut Context<'_, RdmaMsg>) {
        let Some(w) = msg.reply_token().and_then(|token| c.live(token)) else {
            return;
        };
        let mode = c.need(w).mode;
        match (msg, &c.workers[w].phase) {
            (RdmaMsg::FetchAddReply { old, .. }, Phase::TakingTicket) => {
                let ticket_x = lane(old, LANE_MAX_X);
                let ticket_s = lane(old, LANE_MAX_S);
                if bakery_ready(old, mode, ticket_x, ticket_s) {
                    c.acquired(w, Grantor::Server, 0, ctx);
                } else {
                    c.workers[w].phase = Phase::Waiting { ticket_x, ticket_s };
                    c.bump(w);
                    c.timer(w, POLL_INTERVAL, ctx);
                }
            }
            (RdmaMsg::ReadReply { value, .. }, &Phase::Waiting { ticket_x, ticket_s }) => {
                if bakery_ready(value, mode, ticket_x, ticket_s) {
                    c.acquired(w, Grantor::Server, 0, ctx);
                } else {
                    c.timer(w, POLL_INTERVAL, ctx);
                }
            }
            _ => {}
        }
    }

    fn on_timer(c: &mut DslrClient, token: u64, ctx: &mut Context<'_, RdmaMsg>) {
        let Some(w) = c.live(token) else {
            return;
        };
        match c.workers[w].phase {
            Phase::Waiting { .. } => {
                let lock = c.need(w).lock;
                let token = c.token(w);
                c.stats.waits += 1;
                let addr = lock.0 as u64;
                c.send(lock, RdmaMsg::Read { addr, token }, ctx);
            }
            Phase::Thinking => c.commit(w, ctx),
            Phase::TakingTicket => {}
        }
    }

    fn release(need: LockNeed, _: u64, _: Priority, _: NodeId) -> Option<RdmaMsg> {
        let add = match need.mode {
            LockMode::Exclusive => 1u64 << LANE_NOW_X,
            LockMode::Shared => 1u64 << LANE_NOW_S,
        };
        let addr = need.lock.0 as u64;
        Some(RdmaMsg::FetchAdd {
            addr,
            add,
            token: RELEASE_TOKEN,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Deployment;
    use crate::rdma::{RdmaServer, ATOMIC_SERVICE};
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
        let mut rack = Deployment::build(
            1,
            DslrClientConfig { workers: 4 },
            vec![RdmaServer::new(); 1],
            sources(
                2,
                (0..64).map(LockId).collect(),
                LockMode::Exclusive,
                SimDuration::ZERO,
            ),
        );
        let stats = rack.measure(SimDuration::from_millis(2), SimDuration::from_millis(10));
        assert!(stats.txns > 500, "txns = {}", stats.txns);
        assert_eq!(stats.grants, stats.txns, "one lock per txn");
    }

    #[test]
    fn fcfs_under_contention_still_progresses() {
        let mut rack = Deployment::build(
            2,
            DslrClientConfig { workers: 8 },
            vec![RdmaServer::new(); 1],
            sources(2, vec![LockId(0)], LockMode::Exclusive, SimDuration::ZERO),
        );
        let stats = rack.measure(SimDuration::from_millis(5), SimDuration::from_millis(20));
        assert!(stats.txns > 100, "contended txns = {}", stats.txns);
        // Waiting shows up as polls and higher wait latency.
        let polls: u64 = rack
            .clients
            .iter()
            .map(|&c| rack.sim.read_node::<DslrClient, _>(c, |c| c.stats().waits))
            .sum();
        assert!(polls > 0, "contention must trigger polling");
    }

    #[test]
    fn shared_locks_coexist() {
        let mut rack = Deployment::build(
            3,
            DslrClientConfig { workers: 8 },
            vec![RdmaServer::new(); 1],
            sources(2, vec![LockId(0)], LockMode::Shared, SimDuration::ZERO),
        );
        let stats = rack.measure(SimDuration::from_millis(2), SimDuration::from_millis(10));
        // Shared same-lock workload: no bakery waits, high throughput.
        let polls: u64 = rack
            .clients
            .iter()
            .map(|&c| rack.sim.read_node::<DslrClient, _>(c, |c| c.stats().waits))
            .sum();
        assert!(stats.txns > 1_000, "txns = {}", stats.txns);
        assert_eq!(polls, 0, "pure shared traffic never waits");
    }

    #[test]
    fn nic_bound_caps_throughput() {
        // One lock server, 64 workers: throughput must be ≈ NIC rate
        // divided by verbs per txn (2: acquire FA + release FA).
        let cap = 1e9 / ATOMIC_SERVICE.as_nanos() as f64 / 2.0;
        let mut rack = Deployment::build(
            4,
            DslrClientConfig { workers: 16 },
            vec![RdmaServer::new(); 1],
            sources(
                4,
                (0..1024).map(LockId).collect(),
                LockMode::Exclusive,
                SimDuration::ZERO,
            ),
        );
        let stats = rack.measure(SimDuration::from_millis(5), SimDuration::from_millis(20));
        let tps = stats.tps();
        assert!(
            tps < 1.2 * cap,
            "NIC at 2.5 Mops with 2 verbs/txn caps ~{cap} TPS, got {tps}"
        );
        assert!(tps > 0.4 * cap, "but it should approach the cap: {tps}");
    }
}

//! DrTM baseline (Wei et al. — SOSP 2015).
//!
//! DrTM combines HTM with RDMA; its remote concurrency control is what
//! the paper compares against:
//!
//! - **Write locks**: a one-sided COMPARE_SWAP(0 → tag) on the lock
//!   word, *fail-and-retry* with backoff when held (no queue, no FCFS —
//!   the blind-retry corner of the paper's Figure 1 design space).
//!   Release is a WRITE 0.
//! - **Reads**: lease-based and optimistic — a one-sided READ proceeds
//!   if no writer holds the word and leaves no server-side state.
//! - **Validation**: at the end of the execution phase the transaction
//!   re-READs its read set; if a writer has taken any word, the whole
//!   transaction **aborts**: write locks are released, and the
//!   transaction retries from scratch after a backoff.
//!
//! Under contention this burns verbs on retries and aborts and has no
//! fairness, which is the mechanism behind the paper's up-to-653×
//! 99th-percentile tail gap.

use netlock_core::closed_loop::{Client, Protocol, RELEASE_TOKEN};
use netlock_core::txn::LockNeed;
use netlock_proto::{Grantor, LockMode, Priority};
use netlock_sim::{Context, NodeId, SimDuration, SimRng};

use crate::rdma::RdmaMsg;

/// DrTM client configuration.
#[derive(Clone, Debug)]
pub struct DrtmClientConfig {
    /// Concurrent transaction contexts.
    pub workers: usize,
}

/// Where a DrTM worker is in its transaction.
#[derive(Clone, Copy, Debug)]
pub enum Phase {
    /// CAS (exclusive) or READ (shared) in flight for the current lock.
    Attempting {
        /// Failed tries of this lock so far.
        attempts: u32,
    },
    /// Backing off before retrying the current lock.
    BackingOff {
        /// Failed tries of this lock so far.
        attempts: u32,
    },
    /// Executing (think time) with all locks/reads in hand.
    Thinking,
    /// Re-reading the read set; `at` indexes the held read in flight.
    Validating {
        /// Position in the held locks.
        at: usize,
    },
    /// Backing off before retrying the whole transaction after an abort.
    AbortBackoff,
}

/// The DrTM client node.
pub type DrtmClient = Client<DrtmClientConfig>;

impl Protocol for DrtmClientConfig {
    type Msg = RdmaMsg;
    type Phase = Phase;
    const THINKING: Phase = Phase::Thinking;
    const NAME: &'static str = "drtm-client";
    const SEED_SALT: u64 = 0xD737;
    /// Per verb issue and per completion.
    const STACK_DELAY: SimDuration = SimDuration::from_nanos(900);

    fn workers(&self) -> usize {
        self.workers
    }

    fn request(c: &mut DrtmClient, w: usize, ctx: &mut Context<'_, RdmaMsg>) {
        attempt(c, w, 0, ctx);
    }

    fn on_packet(c: &mut DrtmClient, msg: RdmaMsg, ctx: &mut Context<'_, RdmaMsg>) {
        let Some(w) = msg.reply_token().and_then(|token| c.live(token)) else {
            return;
        };
        let writer_free = match msg {
            RdmaMsg::CompareSwapReply { old, .. } => old == 0,
            RdmaMsg::ReadReply { value, .. } => value == 0,
            _ => return,
        };
        match c.workers[w].phase {
            Phase::Attempting { .. } if writer_free => c.acquired(w, Grantor::Server, 0, ctx),
            Phase::Attempting { attempts } => {
                c.stats.waits += 1;
                c.workers[w].phase = Phase::BackingOff {
                    attempts: attempts + 1,
                };
                c.back_off(w, attempts + 1, ctx);
            }
            Phase::Validating { at } if writer_free => validate(c, w, at + 1, ctx),
            // A writer took a word we read: the transaction aborts.
            Phase::Validating { .. } => {
                c.stats.aborts += 1;
                c.release_held(w, ctx);
                c.workers[w].aborts += 1;
                c.workers[w].phase = Phase::AbortBackoff;
                let aborts = c.workers[w].aborts;
                c.back_off(w, aborts, ctx);
            }
            _ => {}
        }
    }

    fn on_timer(c: &mut DrtmClient, token: u64, ctx: &mut Context<'_, RdmaMsg>) {
        let Some(w) = c.live(token) else {
            return;
        };
        match c.workers[w].phase {
            Phase::BackingOff { attempts } => {
                c.bump(w);
                attempt(c, w, attempts, ctx);
            }
            Phase::Thinking => validate(c, w, 0, ctx),
            // Retry from the first lock; the start time stays, so the
            // committed latency includes the aborted tries.
            Phase::AbortBackoff => c.request(w, 0, ctx),
            Phase::Attempting { .. } | Phase::Validating { .. } => {}
        }
    }

    /// Writes are released by a WRITE 0; reads leave nothing behind.
    fn release(need: LockNeed, _: u64, _: Priority, _: NodeId) -> Option<RdmaMsg> {
        (need.mode == LockMode::Exclusive).then_some(RdmaMsg::Write {
            addr: need.lock.0 as u64,
            value: 0,
            token: RELEASE_TOKEN,
        })
    }

    /// Per-verb client-side jitter (CPU scheduling, doorbell timing).
    /// Without it the deterministic simulator lets a releasing worker
    /// re-CAS in the same instant as its release WRITE, which would give
    /// it an artificial permanent monopoly.
    fn jitter(rng: &mut SimRng) -> SimDuration {
        SimDuration::from_nanos(rng.next_below(400))
    }
}

/// Try worker `w`'s current lock: blind CAS 0 → tag for a write, an
/// optimistic lease read (proceed if writer-free) for a read.
fn attempt(c: &mut DrtmClient, w: usize, attempts: u32, ctx: &mut Context<'_, RdmaMsg>) {
    c.workers[w].phase = Phase::Attempting { attempts };
    let need = c.need(w);
    let addr = need.lock.0 as u64;
    let token = c.token(w);
    let msg = match need.mode {
        LockMode::Exclusive => RdmaMsg::CompareSwap {
            addr,
            expect: 0,
            new: c.workers[w].tag,
            token,
        },
        LockMode::Shared => RdmaMsg::Read { addr, token },
    };
    c.send(need.lock, msg, ctx);
}

/// Re-read the first read held at or after position `from`; once none
/// is left, commit.
fn validate(c: &mut DrtmClient, w: usize, from: usize, ctx: &mut Context<'_, RdmaMsg>) {
    let held = &c.workers[w].held;
    let Some(at) = (from..held.len()).find(|&i| held[i].0.mode == LockMode::Shared) else {
        return c.commit(w, ctx);
    };
    let lock = held[at].0.lock;
    c.workers[w].phase = Phase::Validating { at };
    c.bump(w);
    let token = c.token(w);
    c.send(
        lock,
        RdmaMsg::Read {
            addr: lock.0 as u64,
            token,
        },
        ctx,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Deployment;
    use crate::rdma::RdmaServer;
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
    fn uncontended_cas_succeeds_first_try() {
        let mut rack = Deployment::build(
            1,
            DrtmClientConfig { workers: 2 },
            vec![RdmaServer::new(); 1],
            sources(
                1,
                (0..64).map(LockId).collect(),
                LockMode::Exclusive,
                SimDuration::ZERO,
            ),
        );
        let stats = rack.measure(SimDuration::from_millis(2), SimDuration::from_millis(10));
        assert!(stats.txns > 500);
        assert!(
            (stats.retries as f64) < 0.05 * stats.grants as f64,
            "few conflicts expected: {} vs {}",
            stats.retries,
            stats.grants
        );
    }

    #[test]
    fn contention_causes_conflicts_and_tail() {
        let mut rack = Deployment::build(
            2,
            DrtmClientConfig { workers: 16 },
            vec![RdmaServer::new(); 1],
            sources(
                4,
                vec![LockId(0)],
                LockMode::Exclusive,
                SimDuration::from_micros(20),
            ),
        );
        let stats = rack.measure(SimDuration::from_millis(5), SimDuration::from_millis(40));
        assert!(
            stats.retries > stats.grants,
            "blind retry should thrash: {} retries vs {} grants",
            stats.retries,
            stats.grants
        );
        // Blind retry is deeply unfair: starving workers' eventual wins
        // put the extreme tail of transaction latency far beyond the
        // median — the pathology behind the paper's 653× p99 gap.
        let lat = stats.txn_latency_summary();
        assert!(
            lat.max_ns as f64 > 20.0 * lat.p50_ns.max(1) as f64,
            "starvation should show in the extreme tail: {lat:?}"
        );
    }

    #[test]
    fn readers_are_aborted_by_writers() {
        // Readers and writers on one word: read validation must abort
        // some transactions.
        let mut all = sources(
            2,
            vec![LockId(0)],
            LockMode::Shared,
            SimDuration::from_micros(30),
        );
        all.extend(sources(
            2,
            vec![LockId(0)],
            LockMode::Exclusive,
            SimDuration::from_micros(5),
        ));
        let mut rack = Deployment::build(
            3,
            DrtmClientConfig { workers: 8 },
            vec![RdmaServer::new(); 1],
            all,
        );
        rack.sim.run_for(SimDuration::from_millis(20));
        let aborts: u64 = rack
            .clients
            .iter()
            .map(|&c| rack.sim.read_node::<DrtmClient, _>(c, |c| c.stats().aborts))
            .sum();
        assert!(aborts > 0, "writer traffic must abort some readers");
    }

    #[test]
    fn pure_readers_never_conflict() {
        let mut rack = Deployment::build(
            4,
            DrtmClientConfig { workers: 8 },
            vec![RdmaServer::new(); 1],
            sources(2, vec![LockId(0)], LockMode::Shared, SimDuration::ZERO),
        );
        let stats = rack.measure(SimDuration::from_millis(2), SimDuration::from_millis(10));
        assert!(stats.txns > 1_000, "txns = {}", stats.txns);
        assert_eq!(stats.retries, 0, "readers never conflict with readers");
    }

    #[test]
    fn exclusive_lock_actually_excludes() {
        // With one lock and think time, the word must serialize holders:
        // throughput ≈ 1 / (think + protocol overhead).
        let think = SimDuration::from_micros(50);
        let mut rack = Deployment::build(
            5,
            DrtmClientConfig { workers: 8 },
            vec![RdmaServer::new(); 1],
            sources(2, vec![LockId(0)], LockMode::Exclusive, think),
        );
        let stats = rack.measure(SimDuration::from_millis(5), SimDuration::from_millis(50));
        let tps = stats.tps();
        assert!(tps < 21_000.0, "50 µs hold time caps at 20 KTPS, got {tps}");
    }
}

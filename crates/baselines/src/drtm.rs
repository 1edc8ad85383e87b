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

use netlock_core::harness::{measure_uniform, ClientReport, RunStats};
use netlock_core::txn::{LockNeed, Transaction, TxnSource};
use netlock_proto::LockMode;
use netlock_sim::{
    Context, Histogram, LinkConfig, Node, NodeId, Packet, SimDuration, SimRng, SimTime, Simulator,
    Topology,
};

use crate::rdma::{RdmaMsg, RdmaNicConfig, RdmaServer};

/// DrTM client configuration.
#[derive(Clone, Debug)]
pub struct DrtmClientConfig {
    /// Concurrent transaction contexts.
    pub workers: usize,
    /// Client-side processing per verb issue.
    pub tx_delay: SimDuration,
    /// Client-side processing per completion.
    pub rx_delay: SimDuration,
    /// Base retry backoff; doubles per consecutive failure up to
    /// `backoff_cap`.
    pub backoff_base: SimDuration,
    /// Maximum backoff.
    pub backoff_cap: SimDuration,
}

impl Default for DrtmClientConfig {
    fn default() -> Self {
        DrtmClientConfig {
            workers: 16,
            tx_delay: SimDuration::from_nanos(900),
            rx_delay: SimDuration::from_nanos(900),
            backoff_base: SimDuration::from_micros(5),
            backoff_cap: SimDuration::from_micros(320),
        }
    }
}

/// DrTM client counters.
#[derive(Clone, Debug, Default)]
pub struct DrtmClientStats {
    /// Transactions committed.
    pub txns: u64,
    /// Locks/reads acquired (validated reads count once).
    pub grants: u64,
    /// Failed lock/read attempts (CAS lost or read saw a writer).
    pub conflicts: u64,
    /// Whole-transaction aborts (read validation failed).
    pub aborts: u64,
    /// Transaction latency (ns), committed transactions only, measured
    /// from first attempt (includes aborted tries — the paper's tail).
    pub txn_latency: Histogram,
    /// Per-lock wait latency (ns).
    pub wait_latency: Histogram,
}

#[derive(Clone, Copy, Debug)]
enum Phase {
    /// CAS (exclusive) or READ (shared) in flight for lock `next`.
    Attempting {
        next: usize,
        sent: SimTime,
        attempts: u32,
    },
    /// Backing off before retrying lock `next`.
    BackingOff {
        next: usize,
        sent: SimTime,
        attempts: u32,
    },
    /// Executing (think time) with all locks/reads in hand.
    Thinking,
    /// Re-reading the read set; `next` indexes the shared subset.
    Validating { next: usize },
    /// Backing off before retrying the whole transaction after an abort.
    AbortBackoff,
}

#[derive(Debug)]
struct Worker {
    txn: Transaction,
    txn_tag: u64,
    /// First attempt of the current transaction (latency anchor).
    started: SimTime,
    phase: Phase,
    /// Exclusive locks currently held (to release on commit/abort).
    write_locks: Vec<LockNeed>,
    /// Shared reads performed (to validate at commit).
    read_set: Vec<LockNeed>,
    gen: u64,
    /// Consecutive aborts of the current transaction.
    abort_attempts: u32,
}

/// The DrTM client node.
pub struct DrtmClient {
    cfg: DrtmClientConfig,
    servers: Vec<NodeId>,
    source: Box<dyn TxnSource>,
    workers: Vec<Worker>,
    rng: SimRng,
    next_tag: u64,
    stats: DrtmClientStats,
}

const GEN_BITS: u32 = 40;

impl DrtmClient {
    /// A client that spreads lock words over `servers` by lock hash.
    pub fn new(
        cfg: DrtmClientConfig,
        servers: Vec<NodeId>,
        source: Box<dyn TxnSource>,
        seed: u64,
    ) -> DrtmClient {
        assert!(!servers.is_empty());
        assert!(cfg.workers > 0);
        DrtmClient {
            cfg,
            servers,
            source,
            workers: Vec::new(),
            rng: SimRng::new(seed),
            next_tag: 1,
            stats: DrtmClientStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> &DrtmClientStats {
        &self.stats
    }

    /// Clear measurement state.
    pub fn reset_stats(&mut self) {
        self.stats = DrtmClientStats::default();
    }

    fn server_of(&self, addr: u64) -> NodeId {
        let i = (addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % self.servers.len();
        self.servers[i]
    }

    fn token(&self, worker: usize) -> u64 {
        ((worker as u64) << GEN_BITS) | (self.workers[worker].gen & ((1 << GEN_BITS) - 1))
    }

    /// Per-verb client-side jitter (CPU scheduling, doorbell timing).
    /// Without it the deterministic simulator lets a releasing worker
    /// re-CAS in the same instant as its release WRITE, which would give
    /// it an artificial permanent monopoly.
    fn verb_jitter(&mut self) -> SimDuration {
        SimDuration::from_nanos(self.rng.next_below(400))
    }

    fn backoff(&mut self, attempts: u32) -> SimDuration {
        let factor = 1u64 << attempts.min(8);
        let raw = self.cfg.backoff_base.as_nanos().saturating_mul(factor);
        let capped = raw.min(self.cfg.backoff_cap.as_nanos());
        // Jitter ±25% to break synchronized retries.
        let jitter = capped / 4;
        let lo = capped - jitter;
        SimDuration::from_nanos(lo + self.rng.next_below(jitter.max(1) * 2))
    }

    fn start_next_txn(&mut self, worker: usize, ctx: &mut Context<'_, RdmaMsg>) {
        loop {
            let txn = self.source.next_txn(&mut self.rng);
            let tag = self.next_tag;
            self.next_tag += 1;
            let me = ctx.self_id();
            let w = &mut self.workers[worker];
            w.write_locks.clear();
            w.read_set.clear();
            w.started = ctx.now();
            w.abort_attempts = 0;
            w.txn_tag = (u64::from(me.0) << 40) | tag;
            if txn.locks.is_empty() {
                self.stats.txns += 1;
                self.stats.txn_latency.record(0);
                continue;
            }
            w.txn = txn;
            w.phase = Phase::Attempting {
                next: 0,
                sent: ctx.now(),
                attempts: 0,
            };
            w.gen += 1;
            self.issue_attempt(worker, ctx);
            return;
        }
    }

    /// Retry the same transaction after an abort (keeps `started` so the
    /// committed latency includes the aborted tries).
    fn restart_txn(&mut self, worker: usize, ctx: &mut Context<'_, RdmaMsg>) {
        let w = &mut self.workers[worker];
        w.write_locks.clear();
        w.read_set.clear();
        w.phase = Phase::Attempting {
            next: 0,
            sent: ctx.now(),
            attempts: 0,
        };
        w.gen += 1;
        self.issue_attempt(worker, ctx);
    }

    fn issue_attempt(&mut self, worker: usize, ctx: &mut Context<'_, RdmaMsg>) {
        let Phase::Attempting { next, .. } = self.workers[worker].phase else {
            return;
        };
        let need = self.workers[worker].txn.locks[next];
        let addr = need.lock.0 as u64;
        let token = self.token(worker);
        let tag = self.workers[worker].txn_tag;
        let msg = match need.mode {
            // Exclusive: blind CAS 0 → tag.
            LockMode::Exclusive => RdmaMsg::CompareSwap {
                addr,
                expect: 0,
                new: tag,
                token,
            },
            // Shared: optimistic lease read — proceed if writer-free.
            LockMode::Shared => RdmaMsg::Read { addr, token },
        };
        let delay = self.cfg.tx_delay + self.verb_jitter();
        ctx.send_after(self.server_of(addr), msg, delay);
    }

    fn issue_validation(&mut self, worker: usize, ctx: &mut Context<'_, RdmaMsg>) {
        let Phase::Validating { next } = self.workers[worker].phase else {
            return;
        };
        let need = self.workers[worker].read_set[next];
        let addr = need.lock.0 as u64;
        let token = self.token(worker);
        let delay = self.cfg.tx_delay + self.verb_jitter();
        ctx.send_after(self.server_of(addr), RdmaMsg::Read { addr, token }, delay);
    }

    fn release_write_locks(&mut self, worker: usize, ctx: &mut Context<'_, RdmaMsg>) {
        let held = self.workers[worker].write_locks.clone();
        for need in held {
            let addr = need.lock.0 as u64;
            let delay = self.cfg.tx_delay + self.verb_jitter();
            ctx.send_after(
                self.server_of(addr),
                RdmaMsg::Write {
                    addr,
                    value: 0,
                    token: u64::MAX,
                },
                delay,
            );
        }
        self.workers[worker].write_locks.clear();
    }

    fn begin_execution(&mut self, worker: usize, ctx: &mut Context<'_, RdmaMsg>) {
        let think = self.workers[worker].txn.think;
        self.workers[worker].phase = Phase::Thinking;
        self.workers[worker].gen += 1;
        if think.is_zero() {
            self.begin_validation(worker, ctx);
        } else {
            let token = self.token(worker);
            ctx.set_timer(self.cfg.rx_delay + think, token);
        }
    }

    fn begin_validation(&mut self, worker: usize, ctx: &mut Context<'_, RdmaMsg>) {
        if self.workers[worker].read_set.is_empty() {
            self.commit(worker, ctx);
            return;
        }
        self.workers[worker].phase = Phase::Validating { next: 0 };
        self.workers[worker].gen += 1;
        self.issue_validation(worker, ctx);
    }

    fn commit(&mut self, worker: usize, ctx: &mut Context<'_, RdmaMsg>) {
        self.release_write_locks(worker, ctx);
        let started = self.workers[worker].started;
        self.stats.txns += 1;
        self.stats
            .txn_latency
            .record(ctx.now().as_nanos() - started.as_nanos());
        self.start_next_txn(worker, ctx);
    }

    fn abort(&mut self, worker: usize, ctx: &mut Context<'_, RdmaMsg>) {
        self.stats.aborts += 1;
        self.release_write_locks(worker, ctx);
        let attempts = self.workers[worker].abort_attempts + 1;
        self.workers[worker].abort_attempts = attempts;
        self.workers[worker].phase = Phase::AbortBackoff;
        self.workers[worker].gen += 1;
        let delay = self.backoff(attempts);
        let token = self.token(worker);
        ctx.set_timer(delay, token);
    }

    fn attempt_result(&mut self, worker: usize, success: bool, ctx: &mut Context<'_, RdmaMsg>) {
        let Phase::Attempting {
            next,
            sent,
            attempts,
        } = self.workers[worker].phase
        else {
            return;
        };
        if success {
            self.stats.grants += 1;
            self.stats
                .wait_latency
                .record(ctx.now().as_nanos() - sent.as_nanos() + self.cfg.rx_delay.as_nanos());
            let need = self.workers[worker].txn.locks[next];
            match need.mode {
                LockMode::Exclusive => self.workers[worker].write_locks.push(need),
                LockMode::Shared => self.workers[worker].read_set.push(need),
            }
            let lock_count = self.workers[worker].txn.locks.len();
            if next + 1 < lock_count {
                self.workers[worker].phase = Phase::Attempting {
                    next: next + 1,
                    sent: ctx.now(),
                    attempts: 0,
                };
                self.workers[worker].gen += 1;
                self.issue_attempt(worker, ctx);
            } else {
                self.begin_execution(worker, ctx);
            }
        } else {
            self.stats.conflicts += 1;
            self.workers[worker].phase = Phase::BackingOff {
                next,
                sent,
                attempts: attempts + 1,
            };
            self.workers[worker].gen += 1;
            let delay = self.backoff(attempts + 1);
            let token = self.token(worker);
            ctx.set_timer(delay, token);
        }
    }

    fn validation_result(&mut self, worker: usize, clean: bool, ctx: &mut Context<'_, RdmaMsg>) {
        let Phase::Validating { next } = self.workers[worker].phase else {
            return;
        };
        if !clean {
            // A writer took a word we read: the transaction aborts.
            self.abort(worker, ctx);
            return;
        }
        if next + 1 < self.workers[worker].read_set.len() {
            self.workers[worker].phase = Phase::Validating { next: next + 1 };
            self.workers[worker].gen += 1;
            self.issue_validation(worker, ctx);
        } else {
            self.commit(worker, ctx);
        }
    }
}

impl ClientReport for DrtmClient {
    fn reset(&mut self) {
        self.reset_stats();
    }

    fn fold_into(&self, out: &mut RunStats) {
        let s = &self.stats;
        out.txns += s.txns;
        out.grants += s.grants;
        out.grants_server += s.grants;
        out.retries += s.conflicts + s.aborts;
        out.lock_latency.merge(&s.wait_latency);
        out.txn_latency.merge(&s.txn_latency);
    }

    fn completed(&self) -> u64 {
        self.stats.txns
    }
}

impl Node<RdmaMsg> for DrtmClient {
    fn on_start(&mut self, ctx: &mut Context<'_, RdmaMsg>) {
        for _ in 0..self.cfg.workers {
            self.workers.push(Worker {
                txn: Transaction::new(vec![], SimDuration::ZERO),
                txn_tag: 0,
                started: ctx.now(),
                phase: Phase::Thinking,
                write_locks: Vec::new(),
                read_set: Vec::new(),
                gen: 0,
                abort_attempts: 0,
            });
        }
        for w in 0..self.cfg.workers {
            self.start_next_txn(w, ctx);
        }
    }

    fn on_packet(&mut self, pkt: Packet<RdmaMsg>, ctx: &mut Context<'_, RdmaMsg>) {
        let (token, writer_free) = match pkt.payload {
            RdmaMsg::CompareSwapReply { old, token, .. } => (token, old == 0),
            RdmaMsg::ReadReply { value, token, .. } => (token, value == 0),
            RdmaMsg::WriteReply { token } => (token, true),
            _ => return,
        };
        if token == u64::MAX {
            return; // release completion
        }
        let worker = (token >> GEN_BITS) as usize;
        if worker >= self.workers.len()
            || (self.workers[worker].gen & ((1 << GEN_BITS) - 1)) != (token & ((1 << GEN_BITS) - 1))
        {
            return;
        }
        match self.workers[worker].phase {
            Phase::Attempting { .. } => self.attempt_result(worker, writer_free, ctx),
            Phase::Validating { .. } => self.validation_result(worker, writer_free, ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, RdmaMsg>) {
        let worker = (token >> GEN_BITS) as usize;
        if worker >= self.workers.len()
            || (self.workers[worker].gen & ((1 << GEN_BITS) - 1)) != (token & ((1 << GEN_BITS) - 1))
        {
            return;
        }
        match self.workers[worker].phase {
            Phase::BackingOff {
                next,
                sent,
                attempts,
            } => {
                self.workers[worker].phase = Phase::Attempting {
                    next,
                    sent,
                    attempts,
                };
                self.workers[worker].gen += 1;
                self.issue_attempt(worker, ctx);
            }
            Phase::Thinking => self.begin_validation(worker, ctx),
            Phase::AbortBackoff => self.restart_txn(worker, ctx),
            Phase::Attempting { .. } | Phase::Validating { .. } => {}
        }
    }

    fn name(&self) -> &str {
        "drtm-client"
    }
}

/// An assembled DrTM deployment.
pub struct DrtmRack {
    /// The simulator.
    pub sim: Simulator<RdmaMsg>,
    /// RDMA lock servers.
    pub servers: Vec<NodeId>,
    /// Clients.
    pub clients: Vec<NodeId>,
}

/// Build a DrTM deployment.
pub fn build_drtm<F>(
    seed: u64,
    n_servers: usize,
    client_cfg: DrtmClientConfig,
    nic: RdmaNicConfig,
    sources: Vec<F>,
) -> DrtmRack
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
    let mut seeder = SimRng::new(seed ^ 0xD7_37);
    for src in sources {
        let s = seeder.next_u64();
        clients.push(sim.add_node(Box::new(DrtmClient::new(
            client_cfg.clone(),
            servers.clone(),
            Box::new(src),
            s,
        ))));
    }
    DrtmRack {
        sim,
        servers,
        clients,
    }
}

/// Warmup, reset, measure, and aggregate into the shared result type.
pub fn measure_drtm(rack: &mut DrtmRack, warmup: SimDuration, measure: SimDuration) -> RunStats {
    measure_uniform::<_, DrtmClient>(&mut rack.sim, &rack.clients, warmup, measure)
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
    fn uncontended_cas_succeeds_first_try() {
        let mut rack = build_drtm(
            1,
            1,
            DrtmClientConfig {
                workers: 2,
                ..Default::default()
            },
            RdmaNicConfig::default(),
            sources(
                1,
                (0..64).map(LockId).collect(),
                LockMode::Exclusive,
                SimDuration::ZERO,
            ),
        );
        let stats = measure_drtm(
            &mut rack,
            SimDuration::from_millis(2),
            SimDuration::from_millis(10),
        );
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
        let mut rack = build_drtm(
            2,
            1,
            DrtmClientConfig {
                workers: 16,
                ..Default::default()
            },
            RdmaNicConfig::default(),
            sources(
                4,
                vec![LockId(0)],
                LockMode::Exclusive,
                SimDuration::from_micros(20),
            ),
        );
        let stats = measure_drtm(
            &mut rack,
            SimDuration::from_millis(5),
            SimDuration::from_millis(40),
        );
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
        let mut rack = build_drtm(
            3,
            1,
            DrtmClientConfig {
                workers: 8,
                ..Default::default()
            },
            RdmaNicConfig::default(),
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
        let mut rack = build_drtm(
            4,
            1,
            DrtmClientConfig {
                workers: 8,
                ..Default::default()
            },
            RdmaNicConfig::default(),
            sources(2, vec![LockId(0)], LockMode::Shared, SimDuration::ZERO),
        );
        let stats = measure_drtm(
            &mut rack,
            SimDuration::from_millis(2),
            SimDuration::from_millis(10),
        );
        assert!(stats.txns > 1_000, "txns = {}", stats.txns);
        assert_eq!(stats.retries, 0, "readers never conflict with readers");
    }

    #[test]
    fn exclusive_lock_actually_excludes() {
        // With one lock and think time, the word must serialize holders:
        // throughput ≈ 1 / (think + protocol overhead).
        let think = SimDuration::from_micros(50);
        let mut rack = build_drtm(
            5,
            1,
            DrtmClientConfig {
                workers: 8,
                ..Default::default()
            },
            RdmaNicConfig::default(),
            sources(2, vec![LockId(0)], LockMode::Exclusive, think),
        );
        let stats = measure_drtm(
            &mut rack,
            SimDuration::from_millis(5),
            SimDuration::from_millis(50),
        );
        let tps = stats.tps();
        assert!(tps < 21_000.0, "50 µs hold time caps at 20 KTPS, got {tps}");
    }
}

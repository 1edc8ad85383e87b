//! NetChain baseline (Jin et al. — NSDI 2018), used as a lock service.
//!
//! NetChain is an in-switch key-value store; the paper repurposes it as
//! a lock manager the way §6.1 describes: it "is not a fully functional
//! lock manager, as it only supports exclusive locks. Therefore,
//! requests for shared locks are treated as exclusive locks. NetChain
//! handles concurrent requests with client-side retry." And because it
//! can only store items in the switch, lock granularity is coarsened so
//! the whole lock space fits in switch memory — extra false contention.
//!
//! The switch holds one 64-bit owner word per slot; an acquire is a
//! read-modify-write (grant if the word is free), a denial bounces back
//! to the client, which retries after a backoff. There are no queues,
//! no FCFS, no policies — that is the point of the comparison.

use netlock_core::harness::{measure_uniform, ClientReport, RunStats};
use netlock_core::txn::{LockNeed, Transaction, TxnSource};
use netlock_sim::{
    Context, Histogram, LinkConfig, Node, NodeId, Packet, SimDuration, SimRng, SimTime, Simulator,
    Topology,
};

/// NetChain messages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NcMsg {
    /// Client → switch: try to take `lock` for `txn`.
    Acquire {
        /// Coarsened lock slot.
        lock: u32,
        /// Requesting transaction tag.
        txn: u64,
    },
    /// Switch → client: result of an acquire.
    Reply {
        /// Coarsened lock slot.
        lock: u32,
        /// Transaction tag echoed.
        txn: u64,
        /// Granted or denied.
        granted: bool,
        /// Correlation token.
        token: u64,
    },
    /// Client → switch: free `lock` if still owned by `txn`.
    Release {
        /// Coarsened lock slot.
        lock: u32,
        /// Owner tag.
        txn: u64,
    },
    /// Acquire with its correlation token (internal form).
    AcquireTok {
        /// Coarsened lock slot.
        lock: u32,
        /// Requesting transaction tag.
        txn: u64,
        /// Correlation token.
        token: u64,
    },
}

/// The NetChain switch: exclusive-only owner words at line rate.
pub struct NcSwitch {
    slots: Vec<u64>,
    traversal: SimDuration,
    /// Grants issued.
    pub grants: u64,
    /// Denials issued.
    pub denials: u64,
}

impl NcSwitch {
    /// A switch with `slots` owner words.
    pub fn new(slots: usize, traversal: SimDuration) -> NcSwitch {
        assert!(slots > 0);
        NcSwitch {
            slots: vec![0; slots],
            traversal,
            grants: 0,
            denials: 0,
        }
    }

    /// Coarsen a lock id into a slot (the granularity adaptation).
    pub fn slot_of(&self, lock: u32) -> usize {
        ((lock as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.slots.len()
    }
}

impl Node<NcMsg> for NcSwitch {
    fn on_packet(&mut self, pkt: Packet<NcMsg>, ctx: &mut Context<'_, NcMsg>) {
        match pkt.payload {
            NcMsg::AcquireTok { lock, txn, token } => {
                let slot = self.slot_of(lock);
                let word = &mut self.slots[slot];
                let granted = if *word == 0 || *word == txn {
                    *word = txn;
                    true
                } else {
                    false
                };
                if granted {
                    self.grants += 1;
                } else {
                    self.denials += 1;
                }
                ctx.send_after(
                    pkt.src,
                    NcMsg::Reply {
                        lock,
                        txn,
                        granted,
                        token,
                    },
                    self.traversal,
                );
            }
            NcMsg::Release { lock, txn } => {
                let slot = self.slot_of(lock);
                if self.slots[slot] == txn {
                    self.slots[slot] = 0;
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_, NcMsg>) {}

    fn name(&self) -> &str {
        "netchain-switch"
    }
}

/// NetChain client configuration.
#[derive(Clone, Debug)]
pub struct NcClientConfig {
    /// Concurrent transaction contexts.
    pub workers: usize,
    /// Client software + NIC delay on transmit.
    pub tx_delay: SimDuration,
    /// Client software + NIC delay on receive.
    pub rx_delay: SimDuration,
    /// Base retry backoff (doubles up to `backoff_cap`).
    pub backoff_base: SimDuration,
    /// Maximum backoff.
    pub backoff_cap: SimDuration,
}

impl Default for NcClientConfig {
    fn default() -> Self {
        NcClientConfig {
            workers: 16,
            tx_delay: SimDuration::from_nanos(2_500),
            rx_delay: SimDuration::from_nanos(2_500),
            backoff_base: SimDuration::from_micros(5),
            backoff_cap: SimDuration::from_micros(320),
        }
    }
}

/// NetChain client counters.
#[derive(Clone, Debug, Default)]
pub struct NcClientStats {
    /// Transactions completed.
    pub txns: u64,
    /// Locks acquired.
    pub grants: u64,
    /// Denied attempts (retries).
    pub denials: u64,
    /// Transaction latency (ns).
    pub txn_latency: Histogram,
    /// Per-lock wait latency (ns).
    pub wait_latency: Histogram,
}

#[derive(Debug)]
enum Phase {
    Attempting {
        next: usize,
        sent: SimTime,
        attempts: u32,
    },
    BackingOff {
        next: usize,
        sent: SimTime,
        attempts: u32,
    },
    Thinking,
}

#[derive(Debug)]
struct Worker {
    txn: Transaction,
    txn_tag: u64,
    started: SimTime,
    phase: Phase,
    held: Vec<LockNeed>,
    gen: u64,
}

/// The NetChain client node.
pub struct NcClient {
    cfg: NcClientConfig,
    switch: NodeId,
    source: Box<dyn TxnSource>,
    workers: Vec<Worker>,
    rng: SimRng,
    next_tag: u64,
    stats: NcClientStats,
}

const GEN_BITS: u32 = 40;

impl NcClient {
    /// A client targeting the NetChain switch.
    pub fn new(
        cfg: NcClientConfig,
        switch: NodeId,
        source: Box<dyn TxnSource>,
        seed: u64,
    ) -> NcClient {
        assert!(cfg.workers > 0);
        NcClient {
            cfg,
            switch,
            source,
            workers: Vec::new(),
            rng: SimRng::new(seed),
            next_tag: 1,
            stats: NcClientStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> &NcClientStats {
        &self.stats
    }

    /// Clear measurement state.
    pub fn reset_stats(&mut self) {
        self.stats = NcClientStats::default();
    }

    fn token(&self, worker: usize) -> u64 {
        ((worker as u64) << GEN_BITS) | (self.workers[worker].gen & ((1 << GEN_BITS) - 1))
    }

    fn backoff(&mut self, attempts: u32) -> SimDuration {
        let factor = 1u64 << attempts.min(8);
        let raw = self.cfg.backoff_base.as_nanos().saturating_mul(factor);
        let capped = raw.min(self.cfg.backoff_cap.as_nanos());
        let jitter = capped / 4;
        SimDuration::from_nanos(capped - jitter + self.rng.next_below(jitter.max(1) * 2))
    }

    fn start_next_txn(&mut self, worker: usize, ctx: &mut Context<'_, NcMsg>) {
        loop {
            let txn = self.source.next_txn(&mut self.rng);
            let tag = self.next_tag;
            self.next_tag += 1;
            let w = &mut self.workers[worker];
            w.held.clear();
            w.started = ctx.now();
            // Tag must be unique across clients: mix in the node id.
            w.txn_tag = (u64::from(ctx.self_id().0) << 40) | tag;
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
            self.issue(worker, ctx);
            return;
        }
    }

    fn issue(&mut self, worker: usize, ctx: &mut Context<'_, NcMsg>) {
        let Phase::Attempting { next, .. } = self.workers[worker].phase else {
            return;
        };
        let need = self.workers[worker].txn.locks[next];
        let token = self.token(worker);
        let tag = self.workers[worker].txn_tag;
        ctx.send_after(
            self.switch,
            NcMsg::AcquireTok {
                lock: need.lock.0,
                txn: tag,
                token,
            },
            self.cfg.tx_delay,
        );
    }

    fn complete_txn(&mut self, worker: usize, ctx: &mut Context<'_, NcMsg>) {
        let held = self.workers[worker].held.clone();
        let tag = self.workers[worker].txn_tag;
        for need in held {
            ctx.send_after(
                self.switch,
                NcMsg::Release {
                    lock: need.lock.0,
                    txn: tag,
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
}

impl ClientReport for NcClient {
    fn reset(&mut self) {
        self.reset_stats();
    }

    fn fold_into(&self, out: &mut RunStats) {
        let s = &self.stats;
        out.txns += s.txns;
        out.grants += s.grants;
        out.grants_switch += s.grants;
        out.retries += s.denials;
        out.lock_latency.merge(&s.wait_latency);
        out.txn_latency.merge(&s.txn_latency);
    }

    fn completed(&self) -> u64 {
        self.stats.txns
    }
}

impl Node<NcMsg> for NcClient {
    fn on_start(&mut self, ctx: &mut Context<'_, NcMsg>) {
        for _ in 0..self.cfg.workers {
            self.workers.push(Worker {
                txn: Transaction::new(vec![], SimDuration::ZERO),
                txn_tag: 0,
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

    fn on_packet(&mut self, pkt: Packet<NcMsg>, ctx: &mut Context<'_, NcMsg>) {
        let NcMsg::Reply { granted, token, .. } = pkt.payload else {
            return;
        };
        let worker = (token >> GEN_BITS) as usize;
        if worker >= self.workers.len()
            || (self.workers[worker].gen & ((1 << GEN_BITS) - 1)) != (token & ((1 << GEN_BITS) - 1))
        {
            return;
        }
        let Phase::Attempting {
            next,
            sent,
            attempts,
        } = self.workers[worker].phase
        else {
            return;
        };
        if granted {
            self.stats.grants += 1;
            self.stats
                .wait_latency
                .record(ctx.now().as_nanos() - sent.as_nanos() + self.cfg.rx_delay.as_nanos());
            let need = self.workers[worker].txn.locks[next];
            self.workers[worker].held.push(need);
            let lock_count = self.workers[worker].txn.locks.len();
            if next + 1 < lock_count {
                self.workers[worker].phase = Phase::Attempting {
                    next: next + 1,
                    sent: ctx.now(),
                    attempts: 0,
                };
                self.workers[worker].gen += 1;
                self.issue(worker, ctx);
            } else {
                let think = self.workers[worker].txn.think;
                self.workers[worker].phase = Phase::Thinking;
                self.workers[worker].gen += 1;
                if think.is_zero() {
                    self.complete_txn(worker, ctx);
                } else {
                    let token = self.token(worker);
                    ctx.set_timer(self.cfg.rx_delay + think, token);
                }
            }
        } else {
            self.stats.denials += 1;
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

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, NcMsg>) {
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
                self.issue(worker, ctx);
            }
            Phase::Thinking => self.complete_txn(worker, ctx),
            Phase::Attempting { .. } => {}
        }
    }

    fn name(&self) -> &str {
        "netchain-client"
    }
}

/// An assembled NetChain deployment.
pub struct NcRack {
    /// The simulator.
    pub sim: Simulator<NcMsg>,
    /// The NetChain switch.
    pub switch: NodeId,
    /// Clients.
    pub clients: Vec<NodeId>,
}

/// Build a NetChain deployment with `slots` switch memory slots.
pub fn build_netchain<F>(
    seed: u64,
    slots: usize,
    client_cfg: NcClientConfig,
    sources: Vec<F>,
) -> NcRack
where
    F: TxnSource + 'static,
{
    let mut sim: Simulator<NcMsg> = Simulator::new(
        Topology::new(LinkConfig::with_delay(SimDuration::from_nanos(1_200))),
        seed,
    );
    let switch = sim.add_node(Box::new(NcSwitch::new(slots, SimDuration::from_nanos(500))));
    let mut clients = Vec::new();
    let mut seeder = SimRng::new(seed ^ 0x5EC7);
    for src in sources {
        let s = seeder.next_u64();
        clients.push(sim.add_node(Box::new(NcClient::new(
            client_cfg.clone(),
            switch,
            Box::new(src),
            s,
        ))));
    }
    NcRack {
        sim,
        switch,
        clients,
    }
}

/// Warmup, reset, measure, and aggregate into the shared result type.
pub fn measure_netchain(rack: &mut NcRack, warmup: SimDuration, measure: SimDuration) -> RunStats {
    measure_uniform::<_, NcClient>(&mut rack.sim, &rack.clients, warmup, measure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlock_core::txn::SingleLockSource;
    use netlock_proto::{LockId, LockMode};

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
    fn uncontended_grants_flow() {
        let mut rack = build_netchain(
            1,
            100_000,
            NcClientConfig {
                workers: 4,
                ..Default::default()
            },
            sources(
                2,
                (0..256).map(LockId).collect(),
                LockMode::Exclusive,
                SimDuration::ZERO,
            ),
        );
        let stats = measure_netchain(
            &mut rack,
            SimDuration::from_millis(2),
            SimDuration::from_millis(10),
        );
        assert!(stats.txns > 1_000, "txns = {}", stats.txns);
    }

    #[test]
    fn shared_treated_as_exclusive_causes_denials() {
        // All-shared traffic on one lock: a real lock manager would
        // grant everything concurrently; NetChain serializes it.
        let mut rack = build_netchain(
            2,
            100_000,
            NcClientConfig {
                workers: 8,
                ..Default::default()
            },
            sources(2, vec![LockId(0)], LockMode::Shared, SimDuration::ZERO),
        );
        let stats = measure_netchain(
            &mut rack,
            SimDuration::from_millis(2),
            SimDuration::from_millis(20),
        );
        assert!(stats.retries > 0, "shared-as-exclusive must cause denials");
    }

    #[test]
    fn coarse_granularity_causes_false_contention() {
        // Distinct locks but only 4 switch slots: collisions deny.
        let mut rack = build_netchain(
            3,
            4,
            NcClientConfig {
                workers: 8,
                ..Default::default()
            },
            sources(
                2,
                (0..1024).map(LockId).collect(),
                LockMode::Exclusive,
                SimDuration::ZERO,
            ),
        );
        let stats = measure_netchain(
            &mut rack,
            SimDuration::from_millis(2),
            SimDuration::from_millis(20),
        );
        assert!(stats.retries > 0, "hash collisions must cause denials");
    }

    #[test]
    fn release_frees_slot() {
        let mut rack = build_netchain(
            4,
            16,
            NcClientConfig {
                workers: 1,
                ..Default::default()
            },
            sources(1, vec![LockId(7)], LockMode::Exclusive, SimDuration::ZERO),
        );
        rack.sim.run_for(SimDuration::from_millis(5));
        // A single worker acquiring/releasing in a loop completes many
        // transactions — impossible unless releases free the slot.
        let txns = rack
            .sim
            .read_node::<NcClient, _>(rack.clients[0], |c| c.stats().txns);
        assert!(txns > 100, "txns = {txns}");
    }
}

//! The closed-loop client of every system the TPC-C comparison runs:
//! NetLock's transaction client and the DSLR, DrTM and NetChain
//! baselines.
//!
//! A client runs a fixed number of workers, each drawing a transaction,
//! acquiring its locks one at a time in order (sorted order —
//! deadlock-free 2PL), holding them for the think time, releasing them
//! and drawing the next. What differs is how one lock is acquired and
//! released, and that is all a [`Protocol`] supplies: its per-worker
//! phase, its per-client state and its message and timer handling.
//! [`Client`] is the loop — worker table, draw loop, latency
//! accounting, backoff, counters — written once.
//!
//! Every request and timer a worker issues under [`Client::token`]
//! names the worker and its generation. Each phase change bumps the
//! generation, so a reply or timer that answers a superseded phase is
//! dropped by one check ([`Client::live`]) before the protocol acts.

use netlock_proto::{Grantor, LockId, Priority};
use netlock_sim::{Context, Histogram, Node, NodeId, Packet, SimDuration, SimRng, SimTime};

use crate::harness::{ClientReport, RunStats};
use crate::txn::{LockNeed, Transaction, TxnSource};

/// Low token bits that carry the generation; the worker index sits above.
const GEN_BITS: u32 = 40;
const GEN_MASK: u64 = (1 << GEN_BITS) - 1;

/// Transaction tags put the worker index above a per-worker sequence
/// number of `SEQ_BITS`, under the node id, so a tag names its worker.
const SEQ_BITS: u32 = 24;
const WORKER_BITS: u32 = 16;

/// A token that is never live: its worker index is beyond any client's
/// worker table. Requests whose replies are ignored (releases) carry it.
pub const RELEASE_TOKEN: u64 = u64::MAX;

/// Per-client counters, one type for every protocol; each counts what
/// its protocol does and leaves the rest at zero.
#[derive(Clone, Debug, Default)]
pub struct ClientStats {
    /// Transactions completed.
    pub txns: u64,
    /// Locks acquired (a DrTM read counts once, validated or not).
    pub grants: u64,
    /// Grants that came from a switch.
    pub grants_switch: u64,
    /// Grants that came from a lock server.
    pub grants_server: u64,
    /// Times a worker found its lock taken and waited to ask again: DSLR
    /// polls, DrTM lost CASes and writer-held reads, NetChain denials.
    pub waits: u64,
    /// Whole-transaction aborts (DrTM's failed read validation).
    pub aborts: u64,
    /// Acquire retransmissions after a lost grant (NetLock).
    pub retries: u64,
    /// Surplus grants released (stale transactions or retry duplicates).
    pub stale_grants: u64,
    /// Network-duplicated grants ignored: a second delivery of a grant
    /// this transaction already consumed (same lock, txn and
    /// `issued_at_ns`). Releasing it would free our own held entry, so
    /// it is dropped instead.
    pub dup_grants_ignored: u64,
    /// Transaction latency (ns) from the first attempt, so it includes
    /// aborted tries.
    pub txn_latency: Histogram,
    /// Per-lock wait latency (ns), from the last time the lock was
    /// asked for.
    pub wait_latency: Histogram,
}

/// How one system acquires and releases a lock. Implemented by the
/// value each [`Client`] owns: a baseline's configuration, or NetLock's
/// per-client state.
pub trait Protocol: Sized + Send + 'static {
    /// What the client and the lock service exchange.
    type Msg: Clone + Send + 'static;
    /// Where one worker is in acquiring its current lock.
    type Phase: Send;
    /// The phase of a worker holding every lock of its transaction (and
    /// of an idle one): its think timer fires in it.
    const THINKING: Self::Phase;
    /// Node name.
    const NAME: &'static str;
    /// Mixed into a deployment's seed to seed its clients.
    const SEED_SALT: u64 = 0;
    /// Client-side processing, charged once per request sent and once
    /// per completion received.
    const STACK_DELAY: SimDuration;

    /// Concurrent transaction contexts.
    fn workers(&self) -> usize;
    /// Ask for the lock worker `w` needs next, for the first time (its
    /// generation already bumped).
    fn request(c: &mut Client<Self>, w: usize, ctx: &mut Context<'_, Self::Msg>);
    /// Every packet the client receives.
    fn on_packet(c: &mut Client<Self>, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>);
    /// Every timer the client fires. The live token of a worker in
    /// [`Protocol::THINKING`] ends its think time; a zero think time
    /// calls this directly.
    fn on_timer(c: &mut Client<Self>, token: u64, ctx: &mut Context<'_, Self::Msg>);
    /// The message that releases `need`, held by the transaction tagged
    /// `tag` of class `priority` on client `client`, if releasing it
    /// takes one.
    fn release(need: LockNeed, tag: u64, priority: Priority, client: NodeId) -> Option<Self::Msg>;
    /// Extra client-side delay on every message sent.
    fn jitter(_rng: &mut SimRng) -> SimDuration {
        SimDuration::ZERO
    }
    /// The node serving `lock`: a lock hash over `servers`.
    fn route(&self, lock: LockId, servers: &[NodeId]) -> NodeId {
        let i = ((lock.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize;
        servers[i % servers.len()]
    }
    /// Set the workers going: at once.
    fn start(c: &mut Client<Self>, ctx: &mut Context<'_, Self::Msg>) {
        c.start_workers(ctx);
    }
}

/// One transaction context.
#[derive(Debug)]
pub struct Worker<Phase> {
    /// The transaction being run.
    pub txn: Transaction,
    /// Unique across clients, `node << 40 | worker << 24 | seq`: an
    /// owner value a protocol may write, and the worker it names.
    pub tag: u64,
    started: SimTime,
    /// Index into `txn.locks` of the lock being acquired.
    next: usize,
    /// When the lock `next` was last asked for.
    pub sent: SimTime,
    /// Locks acquired so far, in order, each with the issue stamp of the
    /// grant that gave it (zero where a protocol has none).
    pub held: Vec<(LockNeed, u64)>,
    /// Aborts of the current transaction (the draw loop zeroes it).
    pub aborts: u32,
    /// Where the worker is in acquiring its current lock.
    pub phase: Phase,
    gen: u64,
    /// Transactions drawn.
    seq: u64,
}

/// The closed-loop client node of protocol `P`.
pub struct Client<P: Protocol> {
    /// The protocol's configuration and per-client state.
    pub proto: P,
    pub(crate) servers: Vec<NodeId>,
    source: Box<dyn TxnSource>,
    /// The worker table.
    pub workers: Vec<Worker<P::Phase>>,
    rng: SimRng,
    /// Counters.
    pub stats: ClientStats,
}

impl<P: Protocol> Client<P> {
    /// A client of `proto.workers()` contexts fed by `source` that sends
    /// to the lock service `servers` (see [`Protocol::route`]).
    pub fn with_protocol(
        proto: P,
        servers: Vec<NodeId>,
        source: Box<dyn TxnSource>,
        seed: u64,
    ) -> Client<P> {
        assert!(!servers.is_empty(), "need a lock service node");
        assert!(proto.workers() > 0, "need at least one worker");
        assert!(proto.workers() < 1 << WORKER_BITS, "too many workers");
        Client {
            proto,
            servers,
            source,
            workers: Vec::new(),
            rng: SimRng::new(seed),
            stats: ClientStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// The worker `token` names, if it still is in the phase that issued
    /// the token — the one stale-completion check.
    pub fn live(&self, token: u64) -> Option<usize> {
        let w = (token >> GEN_BITS) as usize;
        let worker = self.workers.get(w)?;
        (worker.gen & GEN_MASK == token & GEN_MASK).then_some(w)
    }

    /// The token of worker `w`'s current phase.
    pub fn token(&self, w: usize) -> u64 {
        ((w as u64) << GEN_BITS) | (self.workers[w].gen & GEN_MASK)
    }

    /// The worker the transaction tagged `tag` belongs to, if the tag is
    /// this client's.
    pub fn worker_of(&self, tag: u64) -> Option<usize> {
        let w = ((tag >> SEQ_BITS) as usize) & ((1 << WORKER_BITS) - 1);
        (self.workers.get(w)?.tag == tag).then_some(w)
    }

    /// Start a new phase of worker `w`: its outstanding tokens go stale.
    pub fn bump(&mut self, w: usize) {
        self.workers[w].gen += 1;
    }

    /// The lock worker `w` is acquiring.
    pub fn need(&self, w: usize) -> LockNeed {
        let worker = &self.workers[w];
        worker.txn.locks[worker.next]
    }

    /// Fire the protocol's timer for worker `w`'s current phase after
    /// `delay`.
    pub fn timer(&self, w: usize, delay: SimDuration, ctx: &mut Context<'_, P::Msg>) {
        ctx.set_timer(delay, self.token(w));
    }

    /// Send `msg` about `lock` to the node serving it.
    pub fn send(&mut self, lock: LockId, msg: P::Msg, ctx: &mut Context<'_, P::Msg>) {
        let delay = P::STACK_DELAY + P::jitter(&mut self.rng);
        ctx.send_after(self.proto.route(lock, &self.servers), msg, delay);
    }

    /// Bump worker `w`'s generation and wake it after the backoff of try
    /// `attempts`: `5 µs · 2^min(attempts, 8)` capped at 320 µs, ±25 %
    /// jitter to break synchronized retries.
    pub fn back_off(&mut self, w: usize, attempts: u32, ctx: &mut Context<'_, P::Msg>) {
        const BASE: SimDuration = SimDuration::from_micros(5);
        const CAP: SimDuration = SimDuration::from_micros(320);
        self.bump(w);
        let capped = (BASE.as_nanos().saturating_mul(1 << attempts.min(8))).min(CAP.as_nanos());
        let jitter = capped / 4;
        let delay = capped - jitter + self.rng.next_below(jitter.max(1) * 2);
        self.timer(w, SimDuration::from_nanos(delay), ctx);
    }

    /// Set every worker drawing transactions.
    pub fn start_workers(&mut self, ctx: &mut Context<'_, P::Msg>) {
        for w in 0..self.workers.len() {
            self.start_next_txn(w, ctx);
        }
    }

    fn start_next_txn(&mut self, w: usize, ctx: &mut Context<'_, P::Msg>) {
        let node = u64::from(ctx.self_id().0);
        loop {
            let txn = self.source.next_txn(&mut self.rng);
            let worker = &mut self.workers[w];
            worker.seq += 1;
            worker.held.clear();
            worker.started = ctx.now();
            worker.aborts = 0;
            worker.tag = (node << (WORKER_BITS + SEQ_BITS))
                | ((w as u64) << SEQ_BITS)
                | (worker.seq & ((1 << SEQ_BITS) - 1));
            if txn.locks.is_empty() {
                self.stats.txns += 1;
                self.stats.txn_latency.record(0);
                continue;
            }
            worker.txn = txn;
            return self.request(w, 0, ctx);
        }
    }

    /// Ask for lock `next` of worker `w`'s transaction.
    pub fn request(&mut self, w: usize, next: usize, ctx: &mut Context<'_, P::Msg>) {
        let worker = &mut self.workers[w];
        worker.next = next;
        worker.sent = ctx.now();
        self.bump(w);
        P::request(self, w, ctx);
    }

    /// Worker `w` holds the lock it asked for, granted by `grantor` with
    /// issue stamp `stamp`: ask for the next one or, with all held,
    /// think.
    pub fn acquired(
        &mut self,
        w: usize,
        grantor: Grantor,
        stamp: u64,
        ctx: &mut Context<'_, P::Msg>,
    ) {
        let worker = &mut self.workers[w];
        self.stats.grants += 1;
        match grantor {
            Grantor::Switch => self.stats.grants_switch += 1,
            Grantor::Server => self.stats.grants_server += 1,
        }
        self.stats
            .wait_latency
            .record(ctx.now().as_nanos() - worker.sent.as_nanos() + P::STACK_DELAY.as_nanos());
        worker.held.push((worker.txn.locks[worker.next], stamp));
        if worker.next + 1 < worker.txn.locks.len() {
            let next = worker.next + 1;
            return self.request(w, next, ctx);
        }
        worker.phase = P::THINKING;
        let think = worker.txn.think;
        self.bump(w);
        if think.is_zero() {
            let token = self.token(w);
            P::on_timer(self, token, ctx);
        } else {
            self.timer(w, P::STACK_DELAY + think, ctx);
        }
    }

    /// Release every lock worker `w` holds, in acquisition order.
    pub fn release_held(&mut self, w: usize, ctx: &mut Context<'_, P::Msg>) {
        let mut held = std::mem::take(&mut self.workers[w].held);
        let (tag, priority) = (self.workers[w].tag, self.workers[w].txn.priority);
        for (need, _) in held.drain(..) {
            if let Some(msg) = P::release(need, tag, priority, ctx.self_id()) {
                self.send(need.lock, msg, ctx);
            }
        }
        self.workers[w].held = held;
    }

    /// Release, count worker `w`'s transaction, and draw its next.
    pub fn commit(&mut self, w: usize, ctx: &mut Context<'_, P::Msg>) {
        self.release_held(w, ctx);
        let started = self.workers[w].started;
        self.stats.txns += 1;
        self.stats
            .txn_latency
            .record(ctx.now().as_nanos() - started.as_nanos());
        self.start_next_txn(w, ctx);
    }
}

impl<P: Protocol> ClientReport for Client<P> {
    fn reset(&mut self) {
        self.stats = ClientStats::default();
    }

    fn fold_into(&self, out: &mut RunStats) {
        let s = &self.stats;
        out.txns += s.txns;
        out.grants += s.grants;
        out.grants_switch += s.grants_switch;
        out.grants_server += s.grants_server;
        out.retries += s.retries + s.waits + s.aborts;
        out.surplus_released += s.stale_grants;
        out.dup_grants_ignored += s.dup_grants_ignored;
        out.lock_latency.merge(&s.wait_latency);
        out.txn_latency.merge(&s.txn_latency);
    }

    fn completed(&self) -> u64 {
        self.stats.txns
    }
}

impl<P: Protocol> Node<P::Msg> for Client<P> {
    fn on_start(&mut self, ctx: &mut Context<'_, P::Msg>) {
        for _ in 0..self.proto.workers() {
            self.workers.push(Worker {
                txn: Transaction::new(vec![], SimDuration::ZERO),
                tag: 0,
                started: ctx.now(),
                next: 0,
                sent: ctx.now(),
                held: Vec::new(),
                aborts: 0,
                phase: P::THINKING,
                gen: 0,
                seq: 0,
            });
        }
        P::start(self, ctx);
    }

    fn on_packet(&mut self, pkt: Packet<P::Msg>, ctx: &mut Context<'_, P::Msg>) {
        P::on_packet(self, pkt.payload, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, P::Msg>) {
        P::on_timer(self, token, ctx);
    }

    fn name(&self) -> &str {
        P::NAME
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::SingleLockSource;
    use netlock_proto::LockMode;
    use netlock_sim::Simulator;

    /// A protocol that believes whatever the core hands it: every reply
    /// is a grant, every timer ends the think time. Only the core's
    /// generation check stands between it and a stale message.
    struct Credulous;

    impl Protocol for Credulous {
        /// A request and its reply are both just the token.
        type Msg = u64;
        type Phase = ();
        const THINKING: () = ();
        const NAME: &'static str = "credulous";
        const STACK_DELAY: SimDuration = SimDuration::ZERO;

        fn workers(&self) -> usize {
            1
        }

        fn request(c: &mut Client<Self>, w: usize, ctx: &mut Context<'_, u64>) {
            let token = c.token(w);
            c.send(c.need(w).lock, token, ctx);
        }

        fn on_packet(c: &mut Client<Self>, token: u64, ctx: &mut Context<'_, u64>) {
            if let Some(w) = c.live(token) {
                c.acquired(w, Grantor::Server, 0, ctx);
            }
        }

        fn on_timer(c: &mut Client<Self>, token: u64, ctx: &mut Context<'_, u64>) {
            if let Some(w) = c.live(token) {
                c.commit(w, ctx);
            }
        }

        fn release(_: LockNeed, _: u64, _: Priority, _: NodeId) -> Option<u64> {
            None
        }
    }

    /// A lock service that never answers; it keeps what it was sent.
    struct Silent(Vec<u64>);

    impl Node<u64> for Silent {
        fn on_packet(&mut self, pkt: Packet<u64>, _: &mut Context<'_, u64>) {
            self.0.push(pkt.payload);
        }

        fn on_timer(&mut self, _: u64, _: &mut Context<'_, u64>) {}
    }

    #[test]
    fn a_superseded_generation_changes_nothing() {
        let source = SingleLockSource {
            locks: vec![LockId(1)],
            mode: LockMode::Exclusive,
            think: SimDuration::from_micros(100),
        };
        let mut sim = Simulator::with_seed(1);
        let server = sim.add_node(Box::new(Silent(Vec::new())));
        let client = sim.add_node(Box::new(Client::with_protocol(
            Credulous,
            vec![server],
            Box::new(source),
            1,
        )));
        let step = SimDuration::from_micros(10);
        let counts = |sim: &Simulator<u64>| {
            sim.read_node::<Client<Credulous>, _>(client, |c| (c.stats.grants, c.stats.txns))
        };
        sim.run_for(step);
        let asked = sim.read_node::<Silent, _>(server, |s| s.0.clone());
        assert_eq!(asked.len(), 1, "one worker, one request");

        // Answered, the request grants the lock and the worker thinks.
        sim.inject(server, client, asked[0]);
        sim.run_for(step);
        assert_eq!(counts(&sim), (1, 0));

        // The same token again, as a reply and as a timer: both answer a
        // phase the worker has left, so neither grants nor commits.
        sim.inject(server, client, asked[0]);
        sim.inject_timer(client, SimDuration::ZERO, asked[0]);
        sim.run_for(step);
        assert_eq!(counts(&sim), (1, 0), "a stale token acted");

        // The live think timer still ends the transaction.
        sim.run_for(SimDuration::from_micros(200));
        assert_eq!(counts(&sim), (1, 1));
    }
}

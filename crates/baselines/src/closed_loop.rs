//! The closed-loop client every baseline runs, and the deployment it
//! runs in.
//!
//! DSLR, DrTM and NetChain clients share one loop: a fixed number of
//! workers, each drawing a transaction, acquiring its locks one at a
//! time in order, holding them for the think time, releasing them and
//! drawing the next. What differs is how one lock is acquired and
//! released, and that is all a [`Protocol`] supplies: its per-worker
//! phase and its message handling. [`Client`] is the loop — worker
//! table, draw loop, latency accounting, backoff, counters — written
//! once; [`Deployment`] is the simulator with the lock service's nodes
//! and one client per transaction source.
//!
//! Every request and timer a worker issues carries a token naming the
//! worker and its generation. Each phase change bumps the generation,
//! so a reply or timer that answers a superseded phase is dropped by
//! one check (`Client::live`) before the protocol sees it.

use netlock_core::harness::{measure_uniform, ClientReport, RunStats};
use netlock_core::txn::{LockNeed, Transaction, TxnSource};
use netlock_proto::LockId;
use netlock_sim::{
    Context, Histogram, Node, NodeId, Packet, SimDuration, SimRng, SimTime, Simulator,
};

/// Low token bits that carry the generation; the worker index sits above.
const GEN_BITS: u32 = 40;
const GEN_MASK: u64 = (1 << GEN_BITS) - 1;

/// Token of requests whose replies are ignored (releases). Its worker
/// index is beyond any client's worker table, so it is never live.
pub(crate) const RELEASE_TOKEN: u64 = u64::MAX;

/// Per-client counters, one type for every baseline.
#[derive(Clone, Debug, Default)]
pub struct ClientStats {
    /// Transactions completed.
    pub txns: u64,
    /// Locks acquired (a DrTM read counts once, validated or not).
    pub grants: u64,
    /// Times a worker found its lock taken and waited to ask again: DSLR
    /// polls, DrTM lost CASes and writer-held reads, NetChain denials.
    pub waits: u64,
    /// Whole-transaction aborts (DrTM's failed read validation).
    pub aborts: u64,
    /// Transaction latency (ns) from the first attempt, so it includes
    /// aborted tries.
    pub txn_latency: Histogram,
    /// Per-lock wait latency (ns).
    pub wait_latency: Histogram,
}

/// How one baseline acquires and releases a lock. Implemented by each
/// baseline's client configuration; the handlers run only for replies
/// and timers whose token is still live.
pub trait Protocol: Clone + Send + 'static {
    /// What the client and the lock service exchange.
    type Msg: Clone + Send + 'static;
    /// Where one worker is in acquiring its current lock.
    type Phase: Send;
    /// The phase of a worker holding every lock of its transaction (and
    /// of an idle one): its think timer fires in it.
    const THINKING: Self::Phase;
    /// Node name.
    const NAME: &'static str;
    /// Mixed into the deployment seed to seed the clients.
    const SEED_SALT: u64;
    /// Client-side processing, charged once per request sent and once
    /// per completion received.
    const STACK_DELAY: SimDuration;

    /// Concurrent transaction contexts.
    fn workers(&self) -> usize;
    /// The token `msg` carries, if it is a reply.
    fn token(msg: &Self::Msg) -> Option<u64>;
    /// Ask for the lock worker `w` needs next, for the first time (its
    /// generation already bumped).
    fn request(c: &mut Client<Self>, w: usize, ctx: &mut Context<'_, Self::Msg>);
    /// A live reply for worker `w`.
    fn on_reply(c: &mut Client<Self>, w: usize, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>);
    /// A live timer for worker `w`. In [`Protocol::THINKING`] it ends
    /// the think time; a zero think time calls it directly.
    fn on_timer(c: &mut Client<Self>, w: usize, ctx: &mut Context<'_, Self::Msg>);
    /// The message that releases `need`, held by the transaction tagged
    /// `tag`, if releasing it takes one.
    fn release(need: LockNeed, tag: u64) -> Option<Self::Msg>;
    /// Extra client-side delay on every message sent.
    fn jitter(_rng: &mut SimRng) -> SimDuration {
        SimDuration::ZERO
    }
    /// The [`RunStats`] counter this protocol's grants are credited to.
    fn granted_by(out: &mut RunStats) -> &mut u64;
    /// The counters [`RunStats::retries`] adds up.
    fn retries(stats: &ClientStats) -> u64;
}

/// One transaction context.
#[derive(Debug)]
pub(crate) struct Worker<Phase> {
    pub(crate) txn: Transaction,
    /// Unique across clients: an owner value a protocol may write.
    pub(crate) tag: u64,
    started: SimTime,
    /// Index into `txn.locks` of the lock being acquired.
    next: usize,
    /// When the lock `next` was first asked for.
    sent: SimTime,
    /// Locks acquired so far, in order.
    pub(crate) held: Vec<LockNeed>,
    /// Aborts of the current transaction (the draw loop zeroes it).
    pub(crate) aborts: u32,
    pub(crate) phase: Phase,
    gen: u64,
}

/// The closed-loop client node of protocol `P`.
pub struct Client<P: Protocol> {
    cfg: P,
    servers: Vec<NodeId>,
    source: Box<dyn TxnSource>,
    pub(crate) workers: Vec<Worker<P::Phase>>,
    rng: SimRng,
    next_tag: u64,
    pub(crate) stats: ClientStats,
}

impl<P: Protocol> Client<P> {
    /// A client that spreads lock words over `servers` by lock hash.
    pub(crate) fn new(
        cfg: P,
        servers: Vec<NodeId>,
        source: Box<dyn TxnSource>,
        seed: u64,
    ) -> Client<P> {
        assert!(!servers.is_empty(), "need a lock service node");
        assert!(cfg.workers() > 0 && cfg.workers() < (RELEASE_TOKEN >> GEN_BITS) as usize);
        Client {
            cfg,
            servers,
            source,
            workers: Vec::new(),
            rng: SimRng::new(seed),
            next_tag: 1,
            stats: ClientStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// The worker `token` names, if it still is in the phase that issued
    /// the token — the one stale-completion check.
    fn live(&self, token: u64) -> Option<usize> {
        let w = (token >> GEN_BITS) as usize;
        let worker = self.workers.get(w)?;
        (worker.gen & GEN_MASK == token & GEN_MASK).then_some(w)
    }

    pub(crate) fn token(&self, w: usize) -> u64 {
        ((w as u64) << GEN_BITS) | (self.workers[w].gen & GEN_MASK)
    }

    /// Start a new phase of worker `w`: its outstanding tokens go stale.
    pub(crate) fn bump(&mut self, w: usize) {
        self.workers[w].gen += 1;
    }

    /// The lock worker `w` is acquiring.
    pub(crate) fn need(&self, w: usize) -> LockNeed {
        let worker = &self.workers[w];
        worker.txn.locks[worker.next]
    }

    pub(crate) fn timer(&self, w: usize, delay: SimDuration, ctx: &mut Context<'_, P::Msg>) {
        ctx.set_timer(delay, self.token(w));
    }

    /// Send `msg` about `lock` to the node serving it.
    pub(crate) fn send(&mut self, lock: LockId, msg: P::Msg, ctx: &mut Context<'_, P::Msg>) {
        let delay = P::STACK_DELAY + P::jitter(&mut self.rng);
        let i = ((lock.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize
            % self.servers.len();
        ctx.send_after(self.servers[i], msg, delay);
    }

    /// Bump worker `w`'s generation and wake it after the backoff of try
    /// `attempts`: `5 µs · 2^min(attempts, 8)` capped at 320 µs, ±25 %
    /// jitter to break synchronized retries.
    pub(crate) fn back_off(&mut self, w: usize, attempts: u32, ctx: &mut Context<'_, P::Msg>) {
        const BASE: SimDuration = SimDuration::from_micros(5);
        const CAP: SimDuration = SimDuration::from_micros(320);
        self.bump(w);
        let capped = (BASE.as_nanos().saturating_mul(1 << attempts.min(8))).min(CAP.as_nanos());
        let jitter = capped / 4;
        let delay = capped - jitter + self.rng.next_below(jitter.max(1) * 2);
        self.timer(w, SimDuration::from_nanos(delay), ctx);
    }

    fn start_next_txn(&mut self, w: usize, ctx: &mut Context<'_, P::Msg>) {
        loop {
            let txn = self.source.next_txn(&mut self.rng);
            let worker = &mut self.workers[w];
            worker.held.clear();
            worker.started = ctx.now();
            worker.aborts = 0;
            // The node id above a per-client counter.
            worker.tag = (u64::from(ctx.self_id().0) << 40) | self.next_tag;
            self.next_tag += 1;
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
    pub(crate) fn request(&mut self, w: usize, next: usize, ctx: &mut Context<'_, P::Msg>) {
        let worker = &mut self.workers[w];
        worker.next = next;
        worker.sent = ctx.now();
        self.bump(w);
        P::request(self, w, ctx);
    }

    /// Worker `w` holds the lock it asked for: ask for the next one or,
    /// with all held, think.
    pub(crate) fn acquired(&mut self, w: usize, ctx: &mut Context<'_, P::Msg>) {
        let worker = &mut self.workers[w];
        self.stats.grants += 1;
        self.stats
            .wait_latency
            .record(ctx.now().as_nanos() - worker.sent.as_nanos() + P::STACK_DELAY.as_nanos());
        worker.held.push(worker.txn.locks[worker.next]);
        if worker.next + 1 < worker.txn.locks.len() {
            let next = worker.next + 1;
            return self.request(w, next, ctx);
        }
        worker.phase = P::THINKING;
        let think = worker.txn.think;
        self.bump(w);
        if think.is_zero() {
            P::on_timer(self, w, ctx);
        } else {
            self.timer(w, P::STACK_DELAY + think, ctx);
        }
    }

    /// Release every lock worker `w` holds, in acquisition order.
    pub(crate) fn release_held(&mut self, w: usize, ctx: &mut Context<'_, P::Msg>) {
        let mut held = std::mem::take(&mut self.workers[w].held);
        let tag = self.workers[w].tag;
        for need in held.drain(..) {
            if let Some(msg) = P::release(need, tag) {
                self.send(need.lock, msg, ctx);
            }
        }
        self.workers[w].held = held;
    }

    /// Release, count worker `w`'s transaction, and draw its next.
    pub(crate) fn commit(&mut self, w: usize, ctx: &mut Context<'_, P::Msg>) {
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
        *P::granted_by(out) += s.grants;
        out.retries += P::retries(s);
        out.lock_latency.merge(&s.wait_latency);
        out.txn_latency.merge(&s.txn_latency);
    }

    fn completed(&self) -> u64 {
        self.stats.txns
    }
}

impl<P: Protocol> Node<P::Msg> for Client<P> {
    fn on_start(&mut self, ctx: &mut Context<'_, P::Msg>) {
        for _ in 0..self.cfg.workers() {
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
            });
        }
        for w in 0..self.cfg.workers() {
            self.start_next_txn(w, ctx);
        }
    }

    fn on_packet(&mut self, pkt: Packet<P::Msg>, ctx: &mut Context<'_, P::Msg>) {
        if let Some(w) = P::token(&pkt.payload).and_then(|token| self.live(token)) {
            P::on_reply(self, w, pkt.payload, ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, P::Msg>) {
        if let Some(w) = self.live(token) {
            P::on_timer(self, w, ctx);
        }
    }

    fn name(&self) -> &str {
        P::NAME
    }
}

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

impl<P: Protocol> Deployment<P> {
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
                let client = Client::new(
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

#[cfg(test)]
mod tests {
    use super::*;
    use netlock_core::txn::SingleLockSource;
    use netlock_proto::LockMode;

    /// A protocol that believes whatever the core hands it: every reply
    /// is a grant, every timer ends the think time. Only the core's
    /// generation check stands between it and a stale message.
    #[derive(Clone)]
    struct Credulous;

    impl Protocol for Credulous {
        /// A request and its reply are both just the token.
        type Msg = u64;
        type Phase = ();
        const THINKING: () = ();
        const NAME: &'static str = "credulous";
        const SEED_SALT: u64 = 0;
        const STACK_DELAY: SimDuration = SimDuration::ZERO;

        fn workers(&self) -> usize {
            1
        }

        fn token(msg: &u64) -> Option<u64> {
            Some(*msg)
        }

        fn request(c: &mut Client<Self>, w: usize, ctx: &mut Context<'_, u64>) {
            let token = c.token(w);
            c.send(c.need(w).lock, token, ctx);
        }

        fn on_reply(c: &mut Client<Self>, w: usize, _: u64, ctx: &mut Context<'_, u64>) {
            c.acquired(w, ctx);
        }

        fn on_timer(c: &mut Client<Self>, w: usize, ctx: &mut Context<'_, u64>) {
            c.commit(w, ctx);
        }

        fn release(_: LockNeed, _: u64) -> Option<u64> {
            None
        }

        fn granted_by(out: &mut RunStats) -> &mut u64 {
            &mut out.grants_server
        }

        fn retries(_: &ClientStats) -> u64 {
            0
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
        let mut d = Deployment::build(1, Credulous, [Silent(Vec::new())], [source]);
        let (server, client) = (d.servers[0], d.clients[0]);
        let step = SimDuration::from_micros(10);
        let counts = |d: &Deployment<Credulous>| {
            d.sim
                .read_node::<Client<Credulous>, _>(client, |c| (c.stats.grants, c.stats.txns))
        };
        d.sim.run_for(step);
        let asked = d.sim.read_node::<Silent, _>(server, |s| s.0.clone());
        assert_eq!(asked.len(), 1, "one worker, one request");

        // Answered, the request grants the lock and the worker thinks.
        d.sim.inject(server, client, asked[0]);
        d.sim.run_for(step);
        assert_eq!(counts(&d), (1, 0));

        // The same token again, as a reply and as a timer: both answer a
        // phase the worker has left, so neither grants nor commits.
        d.sim.inject(server, client, asked[0]);
        d.sim.inject_timer(client, SimDuration::ZERO, asked[0]);
        d.sim.run_for(step);
        assert_eq!(counts(&d), (1, 0), "a stale token acted");

        // The live think timer still ends the transaction.
        d.sim.run_for(SimDuration::from_micros(200));
        assert_eq!(counts(&d), (1, 1));
    }
}

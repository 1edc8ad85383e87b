//! Micro-benchmarks of the simulator's event-scheduler hot path.
//!
//! Three variants over identical schedules: the calendar queue with an
//! inline payload (the new path), a plain `BinaryHeap` with the same
//! inline payload (structure-only comparison), and a `BinaryHeap` of
//! boxed dispatch closures (what `Simulator` actually did before —
//! one heap allocation plus an indirect call per event). The third is
//! the honest before/after; the second isolates how much of the gap
//! is the queue structure vs. the allocation-free payload.
//! Depth/delay regimes mirror the rack workloads (RPC round-trips of
//! a few microseconds plus sparse long timers).
//!
//! Those rows time the queue alone in a quiet cache with an 8-byte
//! payload, which is not where it runs. The `in_situ` group churns the
//! simulator's real slot (a 48-byte `Packet<NetLockMsg>`) at the depths
//! the racks sustain (400 on the TPC-C rack, 2 300 on the Fig. 9 rack),
//! in one long-lived queue, between dependent reads of unrelated
//! memory — the nodes' state — of three sizes: none, 1 MiB and 2 MiB.
//! What separates queue layouts is not their own instruction count but
//! whether queue plus node state still fit the core's L2 (1.25 MB where
//! these were recorded): the 1 MiB rows are the case where a 145 KB
//! pending set fits beside it and a 1 MB wheel does not.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use netlock_proto::{
    ClientAddr, LockId, LockMode, LockRequest, NetLockMsg, Priority, TenantId, TxnId,
};
use netlock_sim::{EventQueue, NodeId, Packet, SimDuration, SimTime};

/// Deterministic xorshift so both queues see the same schedule.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Churn `rounds` events through the calendar queue at a steady depth,
/// with delays drawn uniformly from `[0, max_delay)` nanoseconds.
fn churn_calendar(depth: usize, rounds: usize, max_delay: u64) -> u64 {
    let mut q = EventQueue::new();
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut seq = 0u64;
    let mut now = SimTime::ZERO;
    for _ in 0..depth {
        q.push(now + SimDuration(xorshift(&mut rng) % max_delay), seq, seq);
        seq += 1;
    }
    let mut acc = 0u64;
    for _ in 0..rounds {
        let (at, _, item) = q.pop().expect("queue kept at steady depth");
        now = at;
        acc = acc.wrapping_add(item);
        q.push(now + SimDuration(xorshift(&mut rng) % max_delay), seq, seq);
        seq += 1;
    }
    acc
}

/// Same schedule through the reference `BinaryHeap<Reverse<...>>`.
fn churn_heap(depth: usize, rounds: usize, max_delay: u64) -> u64 {
    let mut q: BinaryHeap<Reverse<(SimTime, u64, u64)>> = BinaryHeap::new();
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut seq = 0u64;
    let mut now = SimTime::ZERO;
    for _ in 0..depth {
        q.push(Reverse((
            now + SimDuration(xorshift(&mut rng) % max_delay),
            seq,
            seq,
        )));
        seq += 1;
    }
    let mut acc = 0u64;
    for _ in 0..rounds {
        let Reverse((at, _, item)) = q.pop().expect("queue kept at steady depth");
        now = at;
        acc = acc.wrapping_add(item);
        q.push(Reverse((
            now + SimDuration(xorshift(&mut rng) % max_delay),
            seq,
            seq,
        )));
        seq += 1;
    }
    acc
}

/// The pre-calendar-queue hot path: a heap of boxed dispatch closures,
/// one allocation + one indirect call per event.
#[allow(clippy::type_complexity)]
fn churn_heap_boxed(depth: usize, rounds: usize, max_delay: u64) -> u64 {
    struct Ev {
        at: SimTime,
        seq: u64,
        run: Box<dyn FnOnce(&mut u64)>,
    }
    impl PartialEq for Ev {
        fn eq(&self, other: &Self) -> bool {
            (self.at, self.seq) == (other.at, other.seq)
        }
    }
    impl Eq for Ev {}
    impl PartialOrd for Ev {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Ev {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.at, self.seq).cmp(&(other.at, other.seq))
        }
    }
    let mut q: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut seq = 0u64;
    let mut now = SimTime::ZERO;
    let push = |q: &mut BinaryHeap<Reverse<Ev>>, now: SimTime, rng: &mut u64, seq: &mut u64| {
        let item = *seq;
        q.push(Reverse(Ev {
            at: now + SimDuration(xorshift(rng) % max_delay),
            seq: *seq,
            run: Box::new(move |acc: &mut u64| *acc = acc.wrapping_add(item)),
        }));
        *seq += 1;
    };
    for _ in 0..depth {
        push(&mut q, now, &mut rng, &mut seq);
    }
    let mut acc = 0u64;
    for _ in 0..rounds {
        let Reverse(ev) = q.pop().expect("queue kept at steady depth");
        now = ev.at;
        (ev.run)(&mut acc);
        push(&mut q, now, &mut rng, &mut seq);
    }
    acc
}

/// One long-lived queue of real event payloads at a steady depth, and
/// the memory of the nodes it shares a cache with.
struct InSitu {
    q: EventQueue<Packet<NetLockMsg>>,
    rng: u64,
    seq: u64,
    now: SimTime,
    /// Stand-in for node state (directory, register arrays, client
    /// tables): `FOREIGN_LINES` random cache lines of it are read
    /// between queue operations, each address depending on the value
    /// read before, as a hash lookup's does. Empty for the quiet rows.
    foreign: Vec<u64>,
    chase: u64,
}

/// Cache lines of foreign memory read per event.
const FOREIGN_LINES: usize = 8;
/// Delays are uniform in `[0, 8 us)`: a rack round trip.
const IN_SITU_MAX_DELAY: u64 = 8_192;

impl InSitu {
    fn new(depth: usize, foreign_bytes: usize) -> InSitu {
        let mut s = InSitu {
            q: EventQueue::new(),
            rng: 0x9e37_79b9_7f4a_7c15,
            seq: 0,
            now: SimTime::ZERO,
            foreign: vec![1; foreign_bytes / 8],
            chase: 0x1234_5678_9abc_def1,
        };
        for _ in 0..depth {
            s.push();
        }
        // Past two retune periods: the width has settled.
        s.churn(10_000);
        s
    }

    fn push(&mut self) {
        let at = self.now + SimDuration(xorshift(&mut self.rng) % IN_SITU_MAX_DELAY);
        let payload = NetLockMsg::Acquire(LockRequest {
            lock: LockId(self.seq as u32),
            mode: LockMode::Shared,
            txn: TxnId(self.seq),
            client: ClientAddr(1),
            tenant: TenantId(0),
            priority: Priority(0),
            issued_at_ns: at.0,
        });
        let pkt = Packet {
            src: NodeId(1),
            dst: NodeId(0),
            payload,
        };
        self.q.push(at, self.seq, pkt);
        self.seq += 1;
    }

    fn churn(&mut self, rounds: usize) -> u64 {
        let mut acc = 0u64;
        for _ in 0..rounds {
            let (at, _, pkt) = self.q.pop().expect("queue kept at steady depth");
            self.now = at;
            if let NetLockMsg::Acquire(req) = pkt.payload {
                acc = acc.wrapping_add(req.txn.0);
            }
            if !self.foreign.is_empty() {
                for _ in 0..FOREIGN_LINES {
                    let line = xorshift(&mut self.chase) as usize % (self.foreign.len() / 8);
                    let v = self.foreign[line * 8];
                    self.chase = self.chase.wrapping_add(v);
                    acc = acc.wrapping_add(v);
                }
            }
            self.push();
        }
        acc
    }
}

fn bench_in_situ(c: &mut Criterion) {
    let mut g = c.benchmark_group("in_situ");
    for &depth in &[400usize, 2_300] {
        for (label, foreign_bytes) in [("quiet", 0), ("1MiB", 1 << 20), ("2MiB", 2 << 20)] {
            let mut s = InSitu::new(depth, foreign_bytes);
            g.bench_function(&format!("depth_{depth}_{label}"), |b| {
                b.iter(|| black_box(s.churn(10_000)));
            });
        }
    }
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    // Depths bracket what the figure harnesses sustain (hundreds to a
    // few thousand in-flight events); 4 us delays model RPC hops
    // inside the calendar horizon, 40 ms delays force overflow-tier
    // traffic (client think times, sampling timers).
    for &depth in &[64usize, 1_024, 8_192] {
        g.bench_function(&format!("calendar_depth_{depth}_short"), |b| {
            b.iter(|| black_box(churn_calendar(depth, 10_000, 4_096)));
        });
        g.bench_function(&format!("heap_depth_{depth}_short"), |b| {
            b.iter(|| black_box(churn_heap(depth, 10_000, 4_096)));
        });
        g.bench_function(&format!("heap_boxed_depth_{depth}_short"), |b| {
            b.iter(|| black_box(churn_heap_boxed(depth, 10_000, 4_096)));
        });
    }
    g.bench_function("calendar_depth_1024_long", |b| {
        b.iter(|| black_box(churn_calendar(1_024, 10_000, 40_000_000)));
    });
    g.bench_function("heap_depth_1024_long", |b| {
        b.iter(|| black_box(churn_heap(1_024, 10_000, 40_000_000)));
    });
    g.bench_function("heap_boxed_depth_1024_long", |b| {
        b.iter(|| black_box(churn_heap_boxed(1_024, 10_000, 40_000_000)));
    });
    g.finish();
}

criterion_group!(benches, bench_event_queue, bench_in_situ);
criterion_main!(benches);

//! Writes `BENCH_sim.json`: a machine-readable snapshot of simulator
//! hot-path performance — calendar-queue vs reference-heap event
//! scheduling cost, the whole-spine events/sec rate through the public
//! `Simulator` API, the event-slot size, plus the wall-clock (and
//! events/sec) of representative end-to-end figure points. Run from
//! the repo root:
//!
//! ```text
//! cargo run --release --bin bench_sim
//! ```
//!
//! The report is written to `BENCH_sim.json` in the current directory
//! (override the path with a positional argument). `--quick` shrinks
//! the round counts and skips the end-to-end points — used by the CI
//! bench-regression smoke step, which parses the JSON and fails on
//! `allocs_per_packet > 0` or a large `dataplane_ns_per_op` regression.
//!
//! The binary installs the counting global allocator, so
//! `allocs_per_packet` is measured, not asserted: the steady-state
//! packet path of the switch data plane must not allocate at all.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use netlock_bench::dlock::seq_lock_table_ns_per_pair;
use netlock_bench::report::Json;
use netlock_bench::{
    allocation_count, fig08, fig09, flash_crowd, BinArgs, CountingAlloc, Runner, TimeScale,
};
use netlock_proto::{
    ClientAddr, LockId, LockMode, LockRequest, NetLockMsg, Priority, ReleaseRequest, TenantId,
    TxnId,
};
use netlock_sim::{
    Context, EventQueue, LinkConfig, Node, NodeId, Packet, SimDuration, SimTime, Simulator,
    Topology,
};
use netlock_switch::analysis::layout::TofinoBudget;
use netlock_switch::control::{apply_allocation, knapsack_allocate, LockStats};
use netlock_switch::shared_queue::SharedQueueLayout;
use netlock_switch::txn::netlock::fcfs_enqueue_program;
use netlock_switch::txn::LoweredTxn;
use netlock_switch::{ActionBuf, DataPlane};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Deterministic xorshift so both queue implementations replay the
/// same event schedule.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Untimed ops run before each churn measurement starts.
const WARMUP_ROUNDS: usize = 50_000;

/// Steady-depth churn through the calendar queue; returns ns/op.
fn churn_calendar(depth: usize, rounds: usize, max_delay: u64) -> f64 {
    let mut q = EventQueue::new();
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut seq = 0u64;
    let mut now = SimTime::ZERO;
    for _ in 0..depth {
        q.push(now + SimDuration(xorshift(&mut rng) % max_delay), seq, seq);
        seq += 1;
    }
    let mut acc = 0u64;
    // Untimed warmup churn: settle the queue's self-tuning, caches and
    // CPU frequency before the clock starts (shallow depths are a few
    // ms of work — without this the first measured point eats the ramp).
    for _ in 0..WARMUP_ROUNDS {
        let (at, _, item) = q.pop().expect("steady depth");
        now = at;
        acc = acc.wrapping_add(item);
        q.push(now + SimDuration(xorshift(&mut rng) % max_delay), seq, seq);
        seq += 1;
    }
    let t = Instant::now();
    for _ in 0..rounds {
        let (at, _, item) = q.pop().expect("steady depth");
        now = at;
        acc = acc.wrapping_add(item);
        q.push(now + SimDuration(xorshift(&mut rng) % max_delay), seq, seq);
        seq += 1;
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as f64 / rounds as f64
}

/// The same churn through the `BinaryHeap` the simulator used before;
/// returns ns/op.
fn churn_heap(depth: usize, rounds: usize, max_delay: u64) -> f64 {
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
    // Untimed warmup, as in `churn_calendar`.
    for _ in 0..WARMUP_ROUNDS {
        let Reverse((at, _, item)) = q.pop().expect("steady depth");
        now = at;
        acc = acc.wrapping_add(item);
        q.push(Reverse((
            now + SimDuration(xorshift(&mut rng) % max_delay),
            seq,
            seq,
        )));
        seq += 1;
    }
    let t = Instant::now();
    for _ in 0..rounds {
        let Reverse((at, _, item)) = q.pop().expect("steady depth");
        now = at;
        acc = acc.wrapping_add(item);
        q.push(Reverse((
            now + SimDuration(xorshift(&mut rng) % max_delay),
            seq,
            seq,
        )));
        seq += 1;
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as f64 / rounds as f64
}

/// The pre-calendar-queue hot path: a heap of boxed dispatch closures
/// (what `Simulator` stored before this rework — one heap allocation
/// plus one indirect call per event); returns ns/op.
fn churn_heap_boxed(depth: usize, rounds: usize, max_delay: u64) -> f64 {
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
    // Untimed warmup, as in `churn_calendar`.
    for _ in 0..WARMUP_ROUNDS {
        let Reverse(ev) = q.pop().expect("steady depth");
        now = ev.at;
        (ev.run)(&mut acc);
        push(&mut q, now, &mut rng, &mut seq);
    }
    let t = Instant::now();
    for _ in 0..rounds {
        let Reverse(ev) = q.pop().expect("steady depth");
        now = ev.at;
        (ev.run)(&mut acc);
        push(&mut q, now, &mut rng, &mut seq);
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as f64 / rounds as f64
}

/// One queue comparison at a given steady depth and delay range.
///
/// `old_over_new` compares the calendar queue against the *inline
/// heap* — the strongest of the two predecessors — so ≥ 1.0 means the
/// tuned calendar wins outright (the boxed-closure heap the simulator
/// originally used is also reported, as `heap_boxed_ns_per_op`).
fn queue_point(depth: usize, max_delay: u64, rounds: usize) -> Json {
    // Warm up, then take the better of two runs per implementation to
    // damp scheduler noise on shared machines.
    let cal =
        churn_calendar(depth, rounds, max_delay).min(churn_calendar(depth, rounds, max_delay));
    let heap = churn_heap(depth, rounds, max_delay).min(churn_heap(depth, rounds, max_delay));
    let boxed =
        churn_heap_boxed(depth, rounds, max_delay).min(churn_heap_boxed(depth, rounds, max_delay));
    Json::obj([
        ("depth", Json::Int(depth as u64)),
        ("max_delay_ns", Json::Int(max_delay)),
        ("rounds", Json::Int(rounds as u64)),
        ("calendar_ns_per_op", Json::Num(cal)),
        ("heap_inline_ns_per_op", Json::Num(heap)),
        ("heap_boxed_ns_per_op", Json::Num(boxed)),
        ("old_over_new", Json::Num(heap / cal)),
    ])
}

/// Ping-pong hop node for the whole-spine events/sec microbench: each
/// receipt at TTL `p > 0` forwards `p - 1` to the peer, and every 16th
/// hop also arms a timer, so the run exercises packet dispatch, timer
/// dispatch, and topology resolution together.
struct HopNode {
    peer: NodeId,
}

impl Node<u64> for HopNode {
    fn on_packet(&mut self, pkt: Packet<u64>, ctx: &mut Context<'_, u64>) {
        if pkt.payload > 0 {
            ctx.send(self.peer, pkt.payload - 1);
            if pkt.payload.is_multiple_of(16) {
                ctx.set_timer(SimDuration(500), pkt.payload);
            }
        }
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_, u64>) {}
}

/// End-to-end spine rate through the *public* `Simulator` API: pop,
/// clock advance, dense-topology lookup, node dispatch, push. All
/// `messages` ping-pong flights traverse equal-delay links, so every
/// generation lands on one instant — the same-timestamp burst shape
/// the fused drain exists for. Returns events per wall-clock second.
fn sim_events_point(messages: u64, hops: u64) -> f64 {
    let link = LinkConfig::with_delay(SimDuration(1_000));
    let mut topo = Topology::new(link);
    topo.set_default(link);
    let mut sim: Simulator<u64> = Simulator::new(topo, 7);
    let a = sim.add_node(Box::new(HopNode { peer: NodeId(1) }));
    let b = sim.add_node(Box::new(HopNode { peer: NodeId(0) }));
    for i in 0..messages {
        if i % 2 == 0 {
            sim.inject(a, b, hops);
        } else {
            sim.inject(b, a, hops);
        }
    }
    let t = Instant::now();
    sim.run_until(SimTime(u64::MAX));
    let elapsed = t.elapsed().as_secs_f64();
    let events = sim.stats().events_fired;
    std::hint::black_box(&sim);
    events as f64 / elapsed.max(1e-12)
}

/// Partitioned-spine rate: `pairs` independent ping-pong pairs, one
/// logical process each, advanced through conservative lookahead
/// windows by `workers` threads. Intra-pair hops take 1 µs; cross-LP
/// links are 20 µs, so each window covers ~20 hop generations and the
/// window-protocol overhead (per-LP peek, bound exchange, barrier when
/// parallel) amortizes over `pairs × flights × 20` events. With
/// `workers == None` the same scenario runs unpartitioned on the fused
/// serial loop — the like-for-like reference the 0.95× gate compares
/// the 1-worker windowed loop against (same node count, same queue
/// depths, measured back-to-back; the 2-node `sim_events_point` is a
/// different scenario and a noisy cross-config yardstick). Returns
/// events per wall-clock second.
fn sim_parallel_events_point(pairs: usize, flights: u64, hops: u64, workers: Option<usize>) -> f64 {
    let link = LinkConfig::with_delay(SimDuration(1_000));
    let topo = Topology::new(link);
    let mut sim: Simulator<u64> = Simulator::new(topo, 7);
    let mut lp_of = Vec::with_capacity(pairs * 2);
    for p in 0..pairs as u32 {
        let a = sim.add_node(Box::new(HopNode {
            peer: NodeId(2 * p + 1),
        }));
        let b = sim.add_node(Box::new(HopNode {
            peer: NodeId(2 * p),
        }));
        lp_of.push(p);
        lp_of.push(p);
        for i in 0..flights {
            if i % 2 == 0 {
                sim.inject(a, b, hops);
            } else {
                sim.inject(b, a, hops);
            }
        }
    }
    let cross = LinkConfig::with_delay(SimDuration(20_000));
    for a in 0..(2 * pairs) as u32 {
        for b in 0..(2 * pairs) as u32 {
            if a / 2 != b / 2 {
                sim.topology_mut().set_link(NodeId(a), NodeId(b), cross);
            }
        }
    }
    if let Some(workers) = workers {
        sim.partition(lp_of, workers);
    }
    let t = Instant::now();
    sim.run_until(SimTime(u64::MAX - 1));
    let elapsed = t.elapsed().as_secs_f64();
    let events = sim.stats().events_fired;
    std::hint::black_box(&sim);
    events as f64 / elapsed.max(1e-12)
}

fn acquire(lock: u32, txn: u64, mode: LockMode) -> NetLockMsg {
    NetLockMsg::Acquire(LockRequest {
        lock: LockId(lock),
        mode,
        txn: TxnId(txn),
        client: ClientAddr(1),
        tenant: TenantId(0),
        priority: Priority(0),
        issued_at_ns: 0,
    })
}

fn release(lock: u32, txn: u64, mode: LockMode) -> NetLockMsg {
    NetLockMsg::Release(ReleaseRequest {
        lock: LockId(lock),
        txn: TxnId(txn),
        mode,
        client: ClientAddr(1),
        priority: Priority(0),
    })
}

/// Steady-state churn through the full switch data plane with a
/// reusable `ActionBuf`. Returns `(ns_per_packet, allocs_per_packet)`;
/// the latter must be exactly 0 — the tentpole claim of this harness.
fn dataplane_point(rounds: usize) -> (f64, f64) {
    let mut dp = DataPlane::new_fcfs(&SharedQueueLayout::small(8, 16_384, 64));
    let stats = LockStats::uniform((0..64).map(LockId), 64, 1);
    apply_allocation(&mut dp, &knapsack_allocate(&stats, 16_384 * 8));
    let mut out = ActionBuf::new();
    // Warm up: touch every lock in every mode so interning, buffers and
    // region state reach steady shape before counting.
    let mut txn = 0u64;
    for _ in 0..4 {
        for lock in 0..64u32 {
            dp.process(acquire(lock, txn, LockMode::Exclusive), 0, &mut out);
            dp.process(release(lock, txn, LockMode::Exclusive), 0, &mut out);
            txn += 1;
            dp.process(acquire(lock, txn, LockMode::Shared), 0, &mut out);
            dp.process(release(lock, txn, LockMode::Shared), 0, &mut out);
            txn += 1;
        }
    }
    let allocs_before = allocation_count();
    let t = Instant::now();
    let mut acc = 0usize;
    for i in 0..rounds {
        let lock = (i % 64) as u32;
        let mode = if i % 2 == 0 {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        };
        dp.process(acquire(lock, txn, mode), 0, &mut out);
        acc += out.len();
        dp.process(release(lock, txn, mode), 0, &mut out);
        acc += out.len();
        txn += 1;
    }
    let elapsed = t.elapsed().as_nanos() as f64;
    let allocs = allocation_count() - allocs_before;
    std::hint::black_box(acc);
    let packets = (rounds * 2) as f64;
    (elapsed / packets, allocs as f64 / packets)
}

/// Steady-state churn through the lowered grant-path transaction
/// (`switch::txn`): the declarative FCFS admission program, statically
/// verified and compiled onto pipeline stages, replacing the
/// hand-written enqueue. Returns `(ns_per_packet, allocs_per_packet)`;
/// the latter must be exactly 0 — the lowered IR path is held to the
/// same zero-allocation bar as `dataplane_point`.
fn txn_point(rounds: usize) -> (f64, f64) {
    let cap = 8u32;
    let budget = TofinoBudget::tofino_single_direction();
    let mut lowered =
        LoweredTxn::compile(fcfs_enqueue_program(cap), &budget).expect("grant path verifies");
    let mut actions = Vec::new();
    let cycle = u64::from(cap) * 2; // fill, overflow, reset — all three verdicts
    for i in 0..cycle * 2 {
        actions.clear();
        lowered.run(&[i % 2], &mut actions);
        if (i + 1) % cycle == 0 {
            lowered.cp_reset();
        }
    }
    let allocs_before = allocation_count();
    let t = Instant::now();
    let mut acc = 0usize;
    for i in 0..rounds as u64 {
        actions.clear();
        lowered.run(&[i % 2], &mut actions);
        acc += actions.len();
        if (i + 1) % cycle == 0 {
            lowered.cp_reset();
        }
    }
    let elapsed = t.elapsed().as_nanos() as f64;
    let allocs = allocation_count() - allocs_before;
    std::hint::black_box(acc);
    (elapsed / rounds as f64, allocs as f64 / rounds as f64)
}

/// Times one end-to-end figure point and returns (label, millis).
fn timed_ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let (args, rest) = BinArgs::parse_env("[OUT.json]");
    let quick = args.quick;
    let path = rest.last().map_or("BENCH_sim.json", |p| p.as_str());
    // Queue churn is cheap (a few ms per point) and shallow depths are
    // noise-prone, so --quick keeps the full round count there; the
    // savings come from the hot-path loops and skipped end-to-end runs.
    let queue_rounds = 200_000;
    let hot_rounds = if quick { 200_000 } else { 1_000_000 };

    eprintln!("# event-queue microbench ...");
    let queue = Json::Arr(vec![
        queue_point(64, 4_096, queue_rounds),
        queue_point(1_024, 4_096, queue_rounds),
        queue_point(8_192, 4_096, queue_rounds),
        queue_point(1_024, 40_000_000, queue_rounds),
    ]);

    eprintln!("# simulator spine events/sec ...");
    // Full-spine microbench through the public Simulator API; --quick
    // shrinks the flight length, not the burst width, so the smoke run
    // still exercises the same-timestamp drain path.
    let hop_ttl = if quick { 5_000 } else { 100_000 };
    let sim_events_per_sec = sim_events_point(64, hop_ttl).max(sim_events_point(64, hop_ttl));

    let threads_available = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);

    eprintln!("# partitioned spine events/sec ...");
    // Same spine through the conservative-window parallel path: 4
    // ping-pong LPs. `serial_ref` runs the identical scenario
    // unpartitioned on the fused serial loop; `workers_1` is the serial
    // window loop; `workers_max` uses every available core and shows
    // the actual speedup on this machine (equal to workers_1 on a
    // 1-core host). Two ratios are reported:
    //
    // - `w1_over_ref` = workers_1 / serial_ref, the ratio of the two
    //   recorded best-of-5 rates. It is self-consistent with the fields
    //   next to it by construction (the regression script cross-checks
    //   that) but mixes rates from different runs, so it wobbles with
    //   machine noise.
    // - `best_paired_ratio` = max over the 5 interleaved (ref, w1)
    //   pairs of w/r. On shared / throttled machines the absolute rates
    //   of any two runs can differ by 30% of pure noise, but noise hits
    //   both halves of an adjacent pair roughly equally — if the
    //   windowed loop were genuinely more than 5% slower per event, no
    //   pair could reach 0.95. The regression gate reads this one.
    let par_ttl = if quick { 2_000 } else { 40_000 };
    let (mut par_ref, mut par_w1, mut best_paired) = (0.0f64, 0.0f64, 0.0f64);
    for _ in 0..5 {
        let r = sim_parallel_events_point(4, 64, par_ttl, None);
        let w = sim_parallel_events_point(4, 64, par_ttl, Some(1));
        par_ref = par_ref.max(r);
        par_w1 = par_w1.max(w);
        best_paired = best_paired.max(w / r.max(1e-12));
    }
    let par_wmax = if threads_available > 1 {
        let w = threads_available as usize;
        sim_parallel_events_point(4, 64, par_ttl, Some(w)).max(sim_parallel_events_point(
            4,
            64,
            par_ttl,
            Some(w),
        ))
    } else {
        par_w1
    };

    eprintln!("# data-plane / lock-table hot path ...");
    let (dp_a, allocs_a) = dataplane_point(hot_rounds);
    let (dp_b, allocs_b) = dataplane_point(hot_rounds);
    let dataplane_ns = dp_a.min(dp_b);
    let allocs_per_packet = allocs_a.max(allocs_b);
    // Acquire+release pairs through the server lock table: the same 64
    // locks over and over, and a cold stream where every id is new (the
    // shape TPC-C gives a lock server; `hot_rounds` >= 200K distinct ids).
    let lock_table_point = |cold| {
        seq_lock_table_ns_per_pair(hot_rounds, cold)
            .min(seq_lock_table_ns_per_pair(hot_rounds, cold))
    };
    let lock_table_ns = lock_table_point(false);
    let lock_table_cold_ns = lock_table_point(true);

    eprintln!("# lowered transaction hot path ...");
    let (txn_a, txn_allocs_a) = txn_point(hot_rounds);
    let (txn_b, txn_allocs_b) = txn_point(hot_rounds);
    let txn_lowered_ns = txn_a.min(txn_b);
    let txn_allocs_per_packet = txn_allocs_a.max(txn_allocs_b);

    eprintln!("# aggregate population path ...");
    // Requests per wall-second through the batched aggregate path:
    // 100K virtual clients on one population node driving the shared-
    // queue scenario (same build `flash_crowd --speedup` compares
    // against per-client nodes). Best of two runs.
    let agg_measure = SimDuration::from_millis(if quick { 50 } else { 200 });
    let agg_rate = {
        let (s1, r1) = flash_crowd::aggregate_point(100_000, 20.0, agg_measure, 90);
        let (s2, r2) = flash_crowd::aggregate_point(100_000, 20.0, agg_measure, 90);
        (r1 as f64 / s1.max(1e-12)).max(r2 as f64 / s2.max(1e-12))
    };

    let mut fields = vec![
        ("schema", Json::str("netlock-bench-sim/8")),
        ("quick", Json::Bool(quick)),
        ("queue_churn", queue),
        ("sim_events_per_sec", Json::Num(sim_events_per_sec)),
        (
            "sim_parallel_events_per_sec",
            Json::obj([
                ("lps", Json::Int(4)),
                ("serial_ref", Json::Num(par_ref)),
                ("workers_1", Json::Num(par_w1)),
                ("w1_over_ref", Json::Num(par_w1 / par_ref.max(1e-12))),
                ("best_paired_ratio", Json::Num(best_paired)),
                ("workers_max", Json::Num(par_wmax)),
                ("max_workers", Json::Int(threads_available)),
            ]),
        ),
        (
            "packet_bytes",
            Json::Int(std::mem::size_of::<Packet<NetLockMsg>>() as u64),
        ),
        ("dataplane_ns_per_op", Json::Num(dataplane_ns)),
        ("lock_table_ns_per_op", Json::Num(lock_table_ns)),
        ("lock_table_cold_ns_per_op", Json::Num(lock_table_cold_ns)),
        ("allocs_per_packet", Json::Num(allocs_per_packet)),
        ("txn_lowered_ns_per_op", Json::Num(txn_lowered_ns)),
        ("txn_allocs_per_packet", Json::Num(txn_allocs_per_packet)),
        ("agg_requests_per_sec", Json::Num(agg_rate)),
    ];

    if !quick {
        eprintln!("# end-to-end figure points (quick scale, 1 thread) ...");
        let seq = Runner::with_threads(1);
        let scale = TimeScale::quick();
        let t = Instant::now();
        let fig09_stats = fig09::run_switch_stats(fig09::Workload::Shared, scale);
        let fig09_elapsed = t.elapsed().as_secs_f64();
        std::hint::black_box(fig09_stats.lock_rps());
        let fig09_ms = fig09_elapsed * 1e3;
        let fig09_eps = fig09_stats.events_fired as f64 / fig09_elapsed.max(1e-12);
        let fig08_ms = timed_ms(|| {
            std::hint::black_box(fig08::run_8a(&seq, scale).len());
        });
        // The 100K-virtual-client flash-crowd scenario (quick scale of
        // `flash_crowd --full`), serial.
        let flash_ms = timed_ms(|| {
            std::hint::black_box(
                flash_crowd::run_series(&flash_crowd::FlashCrowdSpec::quick(), 1).len(),
            );
        });
        // Parallel end-to-end point: the 2-rack fig09 cluster advanced
        // by every available core (serial windows on a 1-core host).
        let workers = threads_available as usize;
        let t = Instant::now();
        let cluster_stats = fig09::run_cluster_stats(fig09::Workload::Shared, scale, 2, workers);
        let cluster_elapsed = t.elapsed().as_secs_f64();
        let cluster_events = cluster_stats
            .first()
            .map(|s| s.events_fired)
            .unwrap_or_default();
        std::hint::black_box(&cluster_stats);
        fields.push((
            "end_to_end_ms",
            Json::obj([
                ("fig09_switch_shared", Json::Num(fig09_ms)),
                ("fig08a_sweep", Json::Num(fig08_ms)),
                ("fig09_cluster2_shared", Json::Num(cluster_elapsed * 1e3)),
                ("fig_flash_crowd_100k", Json::Num(flash_ms)),
            ]),
        ));
        fields.push((
            "events_per_sec",
            Json::obj([
                ("fig09_switch_shared", Json::Num(fig09_eps)),
                (
                    "fig09_cluster2_shared",
                    Json::Num(cluster_events as f64 / cluster_elapsed.max(1e-12)),
                ),
            ]),
        ));
    }
    fields.push(("threads_available", Json::Int(threads_available)));

    let report = Json::obj(fields);
    std::fs::write(path, report.render()).expect("write report");
    eprintln!("# wrote {path}");
}

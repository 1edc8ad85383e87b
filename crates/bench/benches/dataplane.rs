//! Benchmarks of the full switch data-plane state machine — the cost
//! the simulator charges per NetLock packet, and a sanity check that
//! the model itself is cheap enough to simulate line-rate traffic.
//!
//! The `algorithm2` group covers all four grant/release cases of the
//! paper's Algorithm 2 head-handoff logic (S→S, S→X, X→X, X→S) with a
//! caller-owned reusable `ActionBuf`, so these numbers track the
//! zero-allocation hot path the simulator actually runs. The
//! `trace_guard` group pins the cost of the analyzer hook: untraced
//! `process()` must not pay for the trace machinery beyond one
//! predictable branch (compare the two bench lines).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use netlock_proto::{
    ClientAddr, LockId, LockMode, LockRequest, NetLockMsg, Priority, ReleaseRequest, TenantId,
    TxnId,
};
use netlock_switch::analysis::trace::new_sink;
use netlock_switch::control::{apply_allocation, knapsack_allocate, LockStats};
use netlock_switch::priority::PriorityLayout;
use netlock_switch::shared_queue::SharedQueueLayout;
use netlock_switch::{ActionBuf, DataPlane};

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

fn fcfs_dp(locks: u32) -> DataPlane {
    let mut dp = DataPlane::new_fcfs(&SharedQueueLayout::small(8, 16_384, locks as usize));
    let stats = LockStats::uniform((0..locks).map(LockId), 64, 1);
    apply_allocation(&mut dp, &knapsack_allocate(&stats, 16_384 * 8));
    dp
}

fn bench_fcfs(c: &mut Criterion) {
    let mut g = c.benchmark_group("dataplane_fcfs");
    g.bench_function("uncontended_acquire_release", |b| {
        let mut dp = fcfs_dp(512);
        let mut out = ActionBuf::new();
        let mut i = 0u64;
        b.iter(|| {
            let lock = (i % 512) as u32;
            dp.process(acquire(lock, i, LockMode::Exclusive), 0, &mut out);
            let a = out.len();
            dp.process(release(lock, i, LockMode::Exclusive), 0, &mut out);
            i += 1;
            black_box((a, out.len()))
        });
    });
    g.bench_function("contended_handoff", |b| {
        // One lock, a standing queue of 8: each iteration releases the
        // head (grant handoff) and enqueues a replacement.
        let mut dp = fcfs_dp(4);
        let mut out = ActionBuf::new();
        for i in 0..8 {
            dp.process(acquire(0, i, LockMode::Exclusive), 0, &mut out);
        }
        let mut i = 8u64;
        b.iter(|| {
            dp.process(release(0, i - 8, LockMode::Exclusive), 0, &mut out);
            let r = out.len();
            dp.process(acquire(0, i, LockMode::Exclusive), 0, &mut out);
            i += 1;
            black_box(r)
        });
    });
    g.finish();
}

/// All four Algorithm 2 release cases, each at a steady queue shape.
fn bench_algorithm2(c: &mut Criterion) {
    let mut g = c.benchmark_group("dataplane_algorithm2");

    // Case S→S: a shared holder releases while shared holders remain —
    // no grant is produced (the head run shrinks).
    g.bench_function("shared_release_no_grant", |b| {
        let mut dp = fcfs_dp(4);
        let mut out = ActionBuf::new();
        for i in 0..4 {
            dp.process(acquire(0, i, LockMode::Shared), 0, &mut out);
        }
        let mut i = 4u64;
        b.iter(|| {
            dp.process(release(0, i - 4, LockMode::Shared), 0, &mut out);
            let r = out.len();
            dp.process(acquire(0, i, LockMode::Shared), 0, &mut out);
            i += 1;
            black_box(r)
        });
    });

    // Case S→X: the last shared holder releases and the head exclusive
    // waiter is granted.
    g.bench_function("last_shared_grants_exclusive", |b| {
        let mut dp = fcfs_dp(4);
        let mut out = ActionBuf::new();
        // Standing pattern: one shared holder, one exclusive waiter.
        dp.process(acquire(0, 0, LockMode::Shared), 0, &mut out);
        dp.process(acquire(0, 1, LockMode::Exclusive), 0, &mut out);
        let mut i = 2u64;
        b.iter(|| {
            // Release the shared holder → grants the exclusive waiter;
            // release it too, then restore the standing pattern.
            dp.process(release(0, i - 2, LockMode::Shared), 0, &mut out);
            let grants = out.len();
            dp.process(release(0, i - 1, LockMode::Exclusive), 0, &mut out);
            dp.process(acquire(0, i, LockMode::Shared), 0, &mut out);
            dp.process(acquire(0, i + 1, LockMode::Exclusive), 0, &mut out);
            i += 2;
            black_box(grants)
        });
    });

    // Case X→X: an exclusive holder releases and exactly one queued
    // exclusive waiter is granted (serial handoff).
    g.bench_function("exclusive_handoff", |b| {
        let mut dp = fcfs_dp(4);
        let mut out = ActionBuf::new();
        for i in 0..8 {
            dp.process(acquire(0, i, LockMode::Exclusive), 0, &mut out);
        }
        let mut i = 8u64;
        b.iter(|| {
            dp.process(release(0, i - 8, LockMode::Exclusive), 0, &mut out);
            let r = out.len();
            dp.process(acquire(0, i, LockMode::Exclusive), 0, &mut out);
            i += 1;
            black_box(r)
        });
    });

    // Case X→S: an exclusive holder releases in front of a run of
    // shared waiters — the whole run is granted in one pass cascade.
    g.bench_function("exclusive_release_shared_cascade", |b| {
        let mut dp = fcfs_dp(4);
        let mut out = ActionBuf::new();
        dp.process(acquire(0, 0, LockMode::Exclusive), 0, &mut out);
        for i in 1..9 {
            dp.process(acquire(0, i, LockMode::Shared), 0, &mut out);
        }
        let mut i = 9u64;
        b.iter(|| {
            // Release X → 8 shared grants; re-acquire X (queues behind
            // them), release the 8 shared → X granted; refill shared.
            dp.process(release(0, i - 9, LockMode::Exclusive), 0, &mut out);
            let cascade = out.len();
            dp.process(acquire(0, i, LockMode::Exclusive), 0, &mut out);
            for k in 0..8 {
                dp.process(release(0, i - 8 + k, LockMode::Shared), 0, &mut out);
            }
            for k in 1..9 {
                dp.process(acquire(0, i + k, LockMode::Shared), 0, &mut out);
            }
            i += 9;
            black_box(cascade)
        });
    });

    g.finish();
}

/// Guard: `process()` with no trace sink attached must cost the same
/// as before the analyzer existed (one predictable branch); compare
/// against the traced line to see what a sink costs.
fn bench_trace_guard(c: &mut Criterion) {
    let mut g = c.benchmark_group("dataplane_trace_guard");
    g.bench_function("untraced", |b| {
        let mut dp = fcfs_dp(4);
        let mut out = ActionBuf::new();
        let mut i = 0u64;
        b.iter(|| {
            dp.process(acquire(0, i, LockMode::Exclusive), 0, &mut out);
            dp.process(release(0, i, LockMode::Exclusive), 0, &mut out);
            i += 1;
            black_box(out.len())
        });
    });
    g.bench_function("traced", |b| {
        let mut dp = fcfs_dp(4);
        let sink = new_sink();
        dp.set_trace_sink(Some(sink.clone()));
        let mut out = ActionBuf::new();
        let mut i = 0u64;
        b.iter(|| {
            dp.process(acquire(0, i, LockMode::Exclusive), 0, &mut out);
            dp.process(release(0, i, LockMode::Exclusive), 0, &mut out);
            i += 1;
            // Drain the buffer so it doesn't grow across iterations.
            black_box(sink.lock().unwrap().take().len())
        });
    });
    g.finish();
}

fn bench_priority(c: &mut Criterion) {
    let mut g = c.benchmark_group("dataplane_priority");
    g.bench_function("two_level_acquire_release", |b| {
        let mut dp = DataPlane::new_priority(&PriorityLayout::new(2, 128, 16));
        dp.directory_mut().set_switch_resident(LockId(0), 0, 0);
        let mut out = ActionBuf::new();
        let mut i = 0u64;
        b.iter(|| {
            dp.process(acquire(0, i, LockMode::Exclusive), 0, &mut out);
            let a = out.len();
            dp.process(release(0, i, LockMode::Exclusive), 0, &mut out);
            i += 1;
            black_box((a, out.len()))
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fcfs,
    bench_algorithm2,
    bench_trace_guard,
    bench_priority
);
criterion_main!(benches);

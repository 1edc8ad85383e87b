//! Micro-benchmarks of the hot data structures: the shared-queue
//! register operations (every lock request runs 1+ of these), the
//! latency histogram, the server lock table, and the switch's release
//! guard (one credit + one consume per switch-granted request).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use netlock_proto::{ClientAddr, LockMode, Priority, TenantId, TxnId};
use netlock_sim::Histogram;
use netlock_switch::engine::{FcfsEngine, PassAllocator};
use netlock_switch::shared_queue::{SharedQueue, SharedQueueLayout};
use netlock_switch::slot::Slot;

fn slot(mode: LockMode, txn: u64) -> Slot {
    Slot {
        valid: true,
        mode,
        txn: TxnId(txn),
        client: ClientAddr(txn as u32),
        tenant: TenantId(0),
        priority: Priority(0),
        issued_at_ns: 0,
        granted: false,
        granted_at_ns: 0,
    }
}

fn bench_shared_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("shared_queue");
    g.bench_function("enqueue_dequeue_cycle", |b| {
        let mut q = SharedQueue::new(&SharedQueueLayout::small(4, 4_096, 64));
        q.cp_set_region(0, 0, 1_024);
        let mut pa = PassAllocator::new();
        let mut grants = Vec::new();
        let mut i = 0u64;
        b.iter(|| {
            FcfsEngine::acquire(&mut q, &mut pa, 0, slot(LockMode::Exclusive, i));
            grants.clear();
            FcfsEngine::release(&mut q, &mut pa, 0, LockMode::Exclusive, &mut grants);
            i += 1;
            black_box(grants.len())
        });
    });
    g.bench_function("shared_cascade_release", |b| {
        // Measure the multi-grant resubmit cascade: X holder + 16
        // queued S, release the X.
        b.iter_batched(
            || {
                let mut q = SharedQueue::new(&SharedQueueLayout::small(4, 4_096, 64));
                q.cp_set_region(0, 0, 1_024);
                let mut pa = PassAllocator::new();
                FcfsEngine::acquire(&mut q, &mut pa, 0, slot(LockMode::Exclusive, 0));
                for i in 1..=16 {
                    FcfsEngine::acquire(&mut q, &mut pa, 0, slot(LockMode::Shared, i));
                }
                (q, pa)
            },
            |(mut q, mut pa)| {
                let mut grants = Vec::new();
                FcfsEngine::release(&mut q, &mut pa, 0, LockMode::Exclusive, &mut grants);
                black_box(grants.len())
            },
            criterion::BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_histogram(c: &mut Criterion) {
    let mut g = c.benchmark_group("histogram");
    g.bench_function("record", |b| {
        let mut h = Histogram::new();
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(black_box(v % 10_000_000));
        });
    });
    g.bench_function("quantile", |b| {
        let mut h = Histogram::new();
        for i in 0..100_000u64 {
            h.record(i * 37 % 10_000_000);
        }
        b.iter(|| black_box(h.quantile(0.99)));
    });
    g.finish();
}

fn bench_lock_table(c: &mut Criterion) {
    use netlock_proto::{LockId, LockRequest};
    use netlock_server::LockTable;
    let mut g = c.benchmark_group("server_lock_table");
    g.bench_function("acquire_release_cycle", |b| {
        let mut t = LockTable::new();
        let mut grants = Vec::new();
        let mut i = 0u64;
        b.iter(|| {
            let req = LockRequest {
                lock: LockId((i % 512) as u32),
                mode: LockMode::Exclusive,
                txn: TxnId(i),
                client: ClientAddr(1),
                tenant: TenantId(0),
                priority: Priority(0),
                issued_at_ns: i,
            };
            t.acquire(req);
            grants.clear();
            t.release(req.lock, req.txn, &mut grants);
            i += 1;
            black_box(grants.len())
        });
    });
    g.finish();
}

/// One grant credited and one spent on a region that keeps `holders`
/// grants outstanding: releases in grant order hit the front of the
/// region's FIFO; releases in reverse order — the worst case — walk all
/// of it.
fn bench_release_guard(c: &mut Criterion) {
    use netlock_switch::GrantLedger;
    let mut g = c.benchmark_group("release_guard");
    for holders in [1u64, 64, 4_096] {
        g.bench_function(&format!("in_order/{holders}_holders"), |b| {
            let mut ledger = GrantLedger::default();
            (0..holders).for_each(|t| ledger.credit(0, TxnId(t)));
            let mut oldest = 0u64;
            b.iter(|| {
                let hit = ledger.consume(0, TxnId(oldest));
                ledger.credit(0, TxnId(oldest + holders));
                oldest += 1;
                black_box(hit)
            });
        });
        g.bench_function(&format!("reversed/{holders}_holders"), |b| {
            let mut ledger = GrantLedger::default();
            (1..holders).for_each(|t| ledger.credit(0, TxnId(t)));
            let mut youngest = holders;
            b.iter(|| {
                ledger.credit(0, TxnId(youngest));
                let hit = ledger.consume(0, TxnId(youngest));
                youngest += 1;
                black_box(hit)
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_shared_queue,
    bench_histogram,
    bench_lock_table,
    bench_release_guard
);
criterion_main!(benches);

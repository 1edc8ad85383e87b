//! Flat combining (Hendler, Incze, Shavit, Tzafrir): a publication
//! list of per-thread records plus one table lock. A thread publishes
//! its op in its own record and then either (a) observes the op
//! completed by someone else, or (b) wins the table lock and becomes
//! the *combiner*, draining every pending record through the sequential
//! table before releasing it.
//!
//! Why this beats the mutex under contention: the lock changes hands
//! once per *batch* instead of once per op, so the handoff cost (cache
//! miss on the lock word, table working set migrating between cores)
//! amortizes over every combined op, and the table stays hot in the
//! combiner's cache.
//!
//! This implementation stays within safe Rust: each record's op/response
//! cell is a tiny per-record `Mutex` (only its owner and the current
//! combiner ever touch it, so it is effectively uncontended) and the
//! `pending` flag is an `AtomicBool` carrying the publish/complete
//! edges.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use netlock_proto::LockRequest;
use netlock_server::{LockTable, TableAcquire};

use crate::{apply_sequential, wait_step, ConcurrentLockTable, LockOp, OpResponse};

/// Per-record op/response cell. `op` is `Some` between publish and
/// combine; the response fields are valid once `pending` drops back to
/// `false`.
#[derive(Default)]
struct Cell {
    op: Option<LockOp>,
    grants: Vec<LockRequest>,
    acquired: Option<TableAcquire>,
    apply_seq: u64,
}

/// One publication record, owned by one thread slot.
struct Record {
    /// `true` from publish until the combiner has written the response.
    pending: AtomicBool,
    cell: Mutex<Cell>,
}

struct Inner {
    table: LockTable,
    seq: u64,
}

/// The flat-combining backend.
pub struct FlatCombining {
    records: Box<[Record]>,
    inner: Mutex<Inner>,
    cs_spins: u32,
}

impl FlatCombining {
    /// A table for up to `thread_slots` threads, burning `cs_spins`
    /// rounds of serial work per op (see [`crate::apply_sequential`]).
    pub fn new(thread_slots: usize, cs_spins: u32) -> FlatCombining {
        assert!(thread_slots > 0, "need at least one thread slot");
        FlatCombining {
            records: (0..thread_slots)
                .map(|_| Record {
                    pending: AtomicBool::new(false),
                    cell: Mutex::new(Cell::default()),
                })
                .collect(),
            inner: Mutex::new(Inner {
                table: LockTable::new(),
                seq: 0,
            }),
            cs_spins,
        }
    }

    /// Drain every pending record through the table. Runs with the
    /// table lock held; repeats until a scan finds nothing pending, so
    /// ops published while combining are picked up in the same session
    /// (bounded in practice by each thread having one op in flight).
    fn combine(&self, inner: &mut Inner) {
        loop {
            let mut combined = false;
            for rec in self.records.iter() {
                if !rec.pending.load(Ordering::Acquire) {
                    continue;
                }
                let mut cell = rec.cell.lock().expect("record cell poisoned");
                // The owner sets `pending` only after writing `op`, so a
                // pending record always carries one.
                let op = cell.op.take().expect("pending record without op");
                let mut grants = std::mem::take(&mut cell.grants);
                cell.acquired = apply_sequential(&mut inner.table, &op, &mut grants, self.cs_spins);
                cell.grants = grants;
                cell.apply_seq = inner.seq;
                inner.seq += 1;
                drop(cell);
                rec.pending.store(false, Ordering::Release);
                combined = true;
            }
            if !combined {
                return;
            }
        }
    }
}

impl ConcurrentLockTable for FlatCombining {
    fn thread_slots(&self) -> usize {
        self.records.len()
    }

    fn run(&self, tid: usize, op: LockOp, grants: Vec<LockRequest>) -> OpResponse {
        let rec = &self.records[tid];
        {
            let mut cell = rec.cell.lock().expect("record cell poisoned");
            cell.op = Some(op);
            cell.grants = grants;
        }
        rec.pending.store(true, Ordering::Release);
        let mut iter = 0u32;
        loop {
            if !rec.pending.load(Ordering::Acquire) {
                // Someone combined our op; the cell now holds the
                // response.
                let mut cell = rec.cell.lock().expect("record cell poisoned");
                return OpResponse {
                    acquired: cell.acquired,
                    apply_seq: cell.apply_seq,
                    grants: std::mem::take(&mut cell.grants),
                };
            }
            if let Ok(mut inner) = self.inner.try_lock() {
                // We won the table lock: combine everything pending —
                // including our own record, so the next loop iteration
                // returns.
                self.combine(&mut inner);
            } else {
                wait_step(&mut iter);
            }
        }
    }

    fn name(&self) -> &'static str {
        "flat_combining"
    }

    fn into_table(self) -> LockTable {
        self.inner
            .into_inner()
            .expect("lock-table mutex poisoned")
            .table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_matches_sequential() {
        crate::tests::single_thread_matches_sequential(FlatCombining::new(1, 0));
    }

    #[test]
    fn multi_thread_linearizes() {
        crate::tests::multi_thread_linearizes(FlatCombining::new(4, 0), 4);
    }

    #[test]
    fn combiner_serves_peers() {
        // Two threads hammer one exclusive lock, adopting any grants
        // promoted by their releases; after a final drain the table
        // must be completely idle (grant/release conservation through
        // the combiner).
        use netlock_proto::{LockId, TxnId};
        let fc = FlatCombining::new(2, 0);
        let leftovers: Vec<(LockId, TxnId)> = std::thread::scope(|s| {
            let fc = &fc;
            let handles: Vec<_> = (0..2usize)
                .map(|tid| {
                    s.spawn(move || {
                        let mut buf = Vec::new();
                        let mut held: Vec<(LockId, TxnId)> = Vec::new();
                        for i in 0..500u64 {
                            let txn = ((tid as u64) << 32) | i;
                            let r = fc.run(
                                tid,
                                LockOp::Acquire(crate::tests::req(
                                    0,
                                    netlock_proto::LockMode::Exclusive,
                                    txn,
                                )),
                                buf,
                            );
                            if r.acquired == Some(TableAcquire::Granted) {
                                held.push((LockId(0), TxnId(txn)));
                            }
                            held.extend(r.grants.iter().map(|g| (g.lock, g.txn)));
                            buf = r.grants;
                            if let Some((lock, txn)) = held.pop() {
                                let r = fc.run(tid, LockOp::Release { lock, txn }, buf);
                                held.extend(r.grants.iter().map(|g| (g.lock, g.txn)));
                                buf = r.grants;
                            }
                        }
                        held
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let mut queue = leftovers;
        let mut buf = Vec::new();
        while let Some((lock, txn)) = queue.pop() {
            let r = fc.run(0, LockOp::Release { lock, txn }, buf);
            queue.extend(r.grants.iter().map(|g| (g.lock, g.txn)));
            buf = r.grants;
        }
        let table = fc.into_table();
        assert!(table.get(LockId(0)).is_none());
    }
}

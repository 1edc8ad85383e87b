//! The server-side lock table.
//!
//! A classic centralized lock manager: per-lock holder set plus a FIFO
//! wait queue, shared/exclusive modes, FCFS grant order (matching the
//! switch's policy so a lock behaves identically wherever it lives).
//!
//! This table is also the *reference model* the property tests compare
//! the switch data-plane engine against: it is written for clarity, with
//! explicit holder tracking, no register-array constraints.
//!
//! Lifecycle: an entry exists exactly while its lock has a holder. FCFS
//! promotion never leaves a waiter behind an empty holder set, so a lock
//! that loses its last holder has nothing left to remember and its entry
//! is dropped on the spot. The table's key set therefore *is* the held
//! set — what the lease sweep walks — and its size follows the locks in
//! flight, not the locks ever seen.

use std::collections::hash_map::{Entry, OccupiedEntry};
use std::collections::VecDeque;

use netlock_proto::{LockId, LockMode, LockRequest, TxnId};
use netlock_sim::FastHashMap;

/// A current holder of a lock.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Holder {
    /// Holding transaction.
    pub txn: TxnId,
    /// Held mode.
    pub mode: LockMode,
    /// The original request (for re-notification and lease bookkeeping).
    pub req: LockRequest,
}

/// Per-lock state.
#[derive(Clone, Debug, Default)]
pub struct LockState {
    holders: Vec<Holder>,
    waiters: VecDeque<LockRequest>,
}

impl LockState {
    /// Current holders.
    pub fn holders(&self) -> &[Holder] {
        &self.holders
    }

    /// Queued waiters in FIFO order.
    pub fn waiters(&self) -> impl Iterator<Item = &LockRequest> {
        self.waiters.iter()
    }

    /// Holders + waiters.
    pub fn outstanding(&self) -> usize {
        self.holders.len() + self.waiters.len()
    }

    fn can_grant(&self, mode: LockMode) -> bool {
        if !self.waiters.is_empty() {
            // FCFS: nobody bypasses the queue.
            return false;
        }
        match mode {
            LockMode::Shared => self.holders.iter().all(|h| h.mode == LockMode::Shared),
            LockMode::Exclusive => self.holders.is_empty(),
        }
    }
}

/// Result of an acquire against the lock table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TableAcquire {
    /// Granted immediately.
    Granted,
    /// Queued behind incompatible requests.
    Queued,
}

/// The lock table.
#[derive(Clone, Debug, Default)]
pub struct LockTable {
    /// Invariant: every entry has at least one holder.
    locks: FastHashMap<LockId, LockState>,
    /// Emptied states of reclaimed entries, reused by the next
    /// first-touch `acquire` so a cold lock's acquire/release cycle
    /// allocates nothing. Never longer than the peak number of locks
    /// held at once.
    spare: Vec<LockState>,
}

impl LockTable {
    /// An empty table.
    pub fn new() -> LockTable {
        LockTable::default()
    }

    /// State for one lock, if it currently has a holder.
    pub fn get(&self, lock: LockId) -> Option<&LockState> {
        self.locks.get(&lock)
    }

    /// Number of locks with state, i.e. with a holder.
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// True if no lock has state.
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }

    /// Process an acquire. FCFS: granted only if compatible with the
    /// holders *and* no one is already waiting.
    pub fn acquire(&mut self, req: LockRequest) -> TableAcquire {
        let st = match self.locks.entry(req.lock) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(self.spare.pop().unwrap_or_default()),
        };
        if !st.can_grant(req.mode) {
            st.waiters.push_back(req);
            return TableAcquire::Queued;
        }
        st.holders.push(Holder {
            txn: req.txn,
            mode: req.mode,
            req,
        });
        TableAcquire::Granted
    }

    /// Process a release; appends the requests granted as a result, in
    /// grant order, to `granted` (which is NOT cleared — the caller
    /// owns and reuses the buffer). Unknown `(lock, txn)` pairs are
    /// ignored (stale or duplicate releases), appending nothing.
    pub fn release(&mut self, lock: LockId, txn: TxnId, granted: &mut Vec<LockRequest>) {
        let Entry::Occupied(mut entry) = self.locks.entry(lock) else {
            return;
        };
        let st = entry.get_mut();
        let Some(pos) = st.holders.iter().position(|h| h.txn == txn) else {
            return;
        };
        st.holders.swap_remove(pos);
        Self::settle(entry, &mut self.spare, granted);
    }

    /// Force-release every holder of `lock` whose request is older than
    /// `now_ns - lease_ns` (lease expiry). Appends newly granted
    /// requests to `granted` (not cleared; caller owns the buffer).
    pub fn expire_leases(
        &mut self,
        lock: LockId,
        now_ns: u64,
        lease_ns: u64,
        granted: &mut Vec<LockRequest>,
    ) {
        let Entry::Occupied(mut entry) = self.locks.entry(lock) else {
            return;
        };
        let st = entry.get_mut();
        let before = st.holders.len();
        st.holders
            .retain(|h| now_ns.saturating_sub(h.req.issued_at_ns) <= lease_ns);
        if st.holders.len() == before {
            return;
        }
        Self::settle(entry, &mut self.spare, granted);
    }

    /// Locks that currently have at least one holder — every lock with
    /// state, and the only locks a lease sweep can expire anything on.
    /// Appends the ids in sorted order to `out` (which is NOT cleared —
    /// the caller owns and reuses the buffer, matching the `ActionBuf`
    /// zero-alloc convention used throughout the hot paths).
    pub fn held_locks(&self, out: &mut Vec<LockId>) {
        let start = out.len();
        out.extend(self.locks.keys().copied());
        out[start..].sort_unstable();
    }

    /// Locks with any state: the same set as [`LockTable::held_locks`],
    /// under the name end-state comparisons use.
    pub fn touched_locks(&self, out: &mut Vec<LockId>) {
        self.held_locks(out);
    }

    /// After holders of `entry` left: grant from its wait queue, and if
    /// nobody holds the lock any more reclaim the entry.
    fn settle(
        mut entry: OccupiedEntry<'_, LockId, LockState>,
        spare: &mut Vec<LockState>,
        granted: &mut Vec<LockRequest>,
    ) {
        let st = entry.get_mut();
        Self::promote(st, granted);
        if st.holders.is_empty() {
            debug_assert!(st.waiters.is_empty(), "FCFS: a waiter implies a holder");
            spare.push(entry.remove());
        }
    }

    /// Grant from the wait queue whatever is now compatible, appending
    /// each grant to `granted`.
    fn promote(st: &mut LockState, granted: &mut Vec<LockRequest>) {
        while let Some(next) = st.waiters.front() {
            let ok = match next.mode {
                LockMode::Shared => st.holders.iter().all(|h| h.mode == LockMode::Shared),
                LockMode::Exclusive => st.holders.is_empty(),
            };
            if !ok {
                break;
            }
            let req = st.waiters.pop_front().expect("front exists");
            st.holders.push(Holder {
                txn: req.txn,
                mode: req.mode,
                req,
            });
            granted.push(req);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlock_proto::{ClientAddr, Priority, TenantId};

    /// Collect-style shims over the out-buffer API for test brevity.
    fn release(t: &mut LockTable, lock: LockId, txn: TxnId) -> Vec<LockRequest> {
        let mut granted = Vec::new();
        t.release(lock, txn, &mut granted);
        granted
    }

    fn expire(t: &mut LockTable, lock: LockId, now_ns: u64, lease_ns: u64) -> Vec<LockRequest> {
        let mut granted = Vec::new();
        t.expire_leases(lock, now_ns, lease_ns, &mut granted);
        granted
    }

    fn req(lock: u32, mode: LockMode, txn: u64) -> LockRequest {
        LockRequest {
            lock: LockId(lock),
            mode,
            txn: TxnId(txn),
            client: ClientAddr(txn as u32),
            tenant: TenantId(0),
            priority: Priority(0),
            issued_at_ns: txn, // issue time = txn id, convenient for leases
        }
    }

    #[test]
    fn exclusive_serializes() {
        let mut t = LockTable::new();
        assert_eq!(
            t.acquire(req(1, LockMode::Exclusive, 1)),
            TableAcquire::Granted
        );
        assert_eq!(
            t.acquire(req(1, LockMode::Exclusive, 2)),
            TableAcquire::Queued
        );
        let g = release(&mut t, LockId(1), TxnId(1));
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].txn, TxnId(2));
    }

    #[test]
    fn shared_coexist() {
        let mut t = LockTable::new();
        assert_eq!(
            t.acquire(req(1, LockMode::Shared, 1)),
            TableAcquire::Granted
        );
        assert_eq!(
            t.acquire(req(1, LockMode::Shared, 2)),
            TableAcquire::Granted
        );
        assert_eq!(t.get(LockId(1)).unwrap().holders().len(), 2);
    }

    #[test]
    fn fcfs_no_shared_bypass() {
        let mut t = LockTable::new();
        t.acquire(req(1, LockMode::Shared, 1));
        t.acquire(req(1, LockMode::Exclusive, 2));
        // A shared request must not jump over the waiting exclusive.
        assert_eq!(t.acquire(req(1, LockMode::Shared, 3)), TableAcquire::Queued);
        let g = release(&mut t, LockId(1), TxnId(1));
        assert_eq!(g[0].txn, TxnId(2));
        let g = release(&mut t, LockId(1), TxnId(2));
        assert_eq!(g[0].txn, TxnId(3));
    }

    #[test]
    fn exclusive_release_grants_shared_run() {
        let mut t = LockTable::new();
        t.acquire(req(1, LockMode::Exclusive, 1));
        t.acquire(req(1, LockMode::Shared, 2));
        t.acquire(req(1, LockMode::Shared, 3));
        t.acquire(req(1, LockMode::Exclusive, 4));
        let g = release(&mut t, LockId(1), TxnId(1));
        let txns: Vec<u64> = g.iter().map(|r| r.txn.0).collect();
        assert_eq!(txns, vec![2, 3]);
    }

    #[test]
    fn shared_release_out_of_order_is_fine() {
        let mut t = LockTable::new();
        t.acquire(req(1, LockMode::Shared, 1));
        t.acquire(req(1, LockMode::Shared, 2));
        t.acquire(req(1, LockMode::Exclusive, 3));
        // Holder 2 releases before holder 1.
        assert!(release(&mut t, LockId(1), TxnId(2)).is_empty());
        let g = release(&mut t, LockId(1), TxnId(1));
        assert_eq!(g[0].txn, TxnId(3));
    }

    #[test]
    fn stale_release_ignored() {
        let mut t = LockTable::new();
        t.acquire(req(1, LockMode::Exclusive, 1));
        assert!(release(&mut t, LockId(1), TxnId(99)).is_empty());
        assert!(release(&mut t, LockId(2), TxnId(1)).is_empty());
        assert_eq!(t.get(LockId(1)).unwrap().holders().len(), 1);
    }

    #[test]
    fn lease_expiry_force_releases() {
        let mut t = LockTable::new();
        t.acquire(req(1, LockMode::Exclusive, 1)); // issued at t=1
        t.acquire(req(1, LockMode::Exclusive, 1000)); // waits
        let g = expire(&mut t, LockId(1), 500, 1_000);
        assert!(g.is_empty(), "lease not yet expired");
        let g = expire(&mut t, LockId(1), 5_000, 1_000);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].txn, TxnId(1000));
    }

    #[test]
    fn entry_lives_exactly_while_the_lock_is_held() {
        let mut t = LockTable::new();
        t.acquire(req(1, LockMode::Exclusive, 1));
        t.acquire(req(1, LockMode::Exclusive, 2));
        assert_eq!(t.len(), 1);
        // Handing off to a waiter keeps the entry ...
        release(&mut t, LockId(1), TxnId(1));
        assert_eq!(t.get(LockId(1)).unwrap().holders()[0].txn, TxnId(2));
        // ... the last holder leaving drops it, by release or by lease.
        release(&mut t, LockId(1), TxnId(2));
        assert!(t.get(LockId(1)).is_none());
        t.acquire(req(2, LockMode::Shared, 3));
        expire(&mut t, LockId(2), 5_000, 1_000);
        assert!(t.is_empty());
    }
}

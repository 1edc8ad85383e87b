//! The release guard's ledger, shared by both switch nodes.
//!
//! The data plane dequeues blindly on release (the paper's §4.2 queue
//! is not content-addressable), so a shadow ledger of outstanding
//! switch grants rides beside it and releases that no outstanding grant
//! authorizes are dropped — making releases idempotent under
//! duplication, retries and lease expiry.
//!
//! The ledger is addressed the way the queues are: by queue region
//! (`qid`, which the directory lookup every release already pays for
//! has in hand). Each region keeps a FIFO of the `(TxnId, LockMode)`
//! pairs of its outstanding grants: a grant pushes at the back, a
//! release removes the oldest entry of its transaction *and* mode,
//! duplicates are simply two entries. A release whose mode differs from
//! its grant's is stale: admitting it would run Algorithm 2's cascade
//! for the wrong mode and hand the shared head run a second grant. A
//! holder keeps its queue slot until an admitted release dequeues one,
//! and every admitted release removes exactly one entry here, so a
//! region's FIFO is no longer than the region's capacity. Releases
//! arrive in grant order on every fault-free path, so the hit is at the
//! front and both operations are O(1); the worst case (holders
//! releasing in reverse) is O(holders of that lock). A region is only
//! handed to another lock once it has drained, so keying by region is
//! keying by lock.

use std::collections::VecDeque;

use netlock_proto::{LockMode, TxnId};

/// Outstanding switch grants, one FIFO per queue region.
#[derive(Default)]
pub struct GrantLedger {
    /// Indexed by `qid`; grown (and a region's buffer allocated) on the
    /// region's first grant, so unused regions cost nothing.
    regions: Vec<VecDeque<(TxnId, LockMode)>>,
}

impl GrantLedger {
    /// A grant of `mode` to `txn` went out of region `qid`: it
    /// authorizes exactly one release of that mode.
    #[inline]
    pub fn credit(&mut self, qid: usize, txn: TxnId, mode: LockMode) {
        if qid >= self.regions.len() {
            self.regions.resize_with(qid + 1, VecDeque::new);
        }
        self.regions[qid].push_back((txn, mode));
    }

    /// Whether an outstanding grant of region `qid` authorizes
    /// releasing `txn`'s hold of `mode`.
    pub fn authorizes(&self, qid: usize, txn: TxnId, mode: LockMode) -> bool {
        self.regions
            .get(qid)
            .is_some_and(|q| q.contains(&(txn, mode)))
    }

    /// Spend the oldest outstanding grant of `mode` to `txn` in region
    /// `qid`; false (and no change) if there is none.
    #[inline]
    pub fn consume(&mut self, qid: usize, txn: TxnId, mode: LockMode) -> bool {
        let Some(q) = self.regions.get_mut(qid) else {
            return false;
        };
        let key = (txn, mode);
        // In grant order — every fault-free path — the hit is in front.
        if q.front() == Some(&key) {
            q.pop_front();
            return true;
        }
        match q.iter().position(|&k| k == key) {
            Some(i) => q.remove(i).is_some(),
            None => false,
        }
    }

    /// Spend the oldest outstanding grant of region `qid`, whoever
    /// holds it (none if there is none).
    pub fn consume_oldest(&mut self, qid: usize) {
        if let Some(q) = self.regions.get_mut(qid) {
            q.pop_front();
        }
    }

    /// Outstanding grants of region `qid`.
    pub fn outstanding(&self, qid: usize) -> usize {
        self.regions.get(qid).map_or(0, VecDeque::len)
    }

    /// Forget every grant (the ledger dies with the registers).
    pub fn clear(&mut self) {
        self.regions.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: LockMode = LockMode::Shared;
    const X: LockMode = LockMode::Exclusive;

    #[test]
    fn each_grant_authorizes_one_release() {
        let mut l = GrantLedger::default();
        let (qid, txn) = (1, TxnId(7));
        assert!(!l.consume(qid, txn, S), "no grant, no release");
        l.credit(qid, txn, S);
        l.credit(qid, txn, S);
        assert!(l.authorizes(qid, txn, S));
        assert!(!l.authorizes(0, txn, S), "regions are separate");
        assert!(!l.authorizes(qid, txn, X), "modes are separate");
        assert!(!l.consume(qid, txn, X), "mismatched mode filtered");
        assert!(l.consume(qid, txn, S));
        assert!(l.consume(qid, txn, S));
        assert!(!l.authorizes(qid, txn, S));
        assert!(!l.consume(qid, txn, S), "duplicate release filtered");
        l.credit(qid, txn, S);
        l.clear();
        assert!(!l.authorizes(qid, txn, S));
        assert_eq!(l.outstanding(qid), 0);
    }

    #[test]
    fn out_of_order_release_removes_only_its_own_grant() {
        let mut l = GrantLedger::default();
        for t in 0..4 {
            l.credit(0, TxnId(t), S);
        }
        assert!(l.consume(0, TxnId(2), S));
        assert!(!l.consume(0, TxnId(2), S));
        assert_eq!(l.outstanding(0), 3);
        for t in [0, 1, 3] {
            assert!(l.consume(0, TxnId(t), S));
        }
        assert_eq!(l.outstanding(0), 0);
    }

    #[test]
    fn consume_oldest_spends_the_front_whoever_holds_it() {
        let mut l = GrantLedger::default();
        l.consume_oldest(0);
        for t in [5, 6] {
            l.credit(0, TxnId(t), X);
        }
        l.consume_oldest(0);
        assert!(!l.authorizes(0, TxnId(5), X));
        assert!(l.authorizes(0, TxnId(6), X));
        l.consume_oldest(1);
        assert_eq!(l.outstanding(0), 1, "regions are separate");
    }
}

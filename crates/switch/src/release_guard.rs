//! The release guard's ledger, shared by both switch nodes.
//!
//! The data plane dequeues blindly on release (the paper's §4.2 queue
//! is not content-addressable), so the node around it keeps a shadow
//! ledger of outstanding grants per `(lock, txn)` and drops releases
//! that no outstanding grant authorizes — making releases idempotent
//! under duplication, retries and lease expiry. An entry lives from the
//! grant to its release. Hit twice per request, so it is keyed through
//! the deterministic fast hasher, not SipHash.

use std::collections::hash_map::Entry;

use netlock_proto::{LockId, TxnId};
use netlock_sim::FastHashMap;

/// Outstanding grants per `(lock, txn)`.
#[derive(Default)]
pub(crate) struct GrantLedger {
    outstanding: FastHashMap<(LockId, TxnId), u32>,
}

impl GrantLedger {
    /// A grant went out: it authorizes exactly one release.
    pub(crate) fn credit(&mut self, lock: LockId, txn: TxnId) {
        *self.outstanding.entry((lock, txn)).or_insert(0) += 1;
    }

    /// Whether an outstanding grant authorizes releasing `(lock, txn)`.
    pub(crate) fn authorizes(&self, lock: LockId, txn: TxnId) -> bool {
        self.outstanding.contains_key(&(lock, txn))
    }

    /// Spend one outstanding grant of `(lock, txn)`; false (and no
    /// change) if there is none.
    pub(crate) fn consume(&mut self, lock: LockId, txn: TxnId) -> bool {
        match self.outstanding.entry((lock, txn)) {
            Entry::Occupied(mut e) => {
                if *e.get() > 1 {
                    *e.get_mut() -= 1;
                } else {
                    e.remove();
                }
                true
            }
            Entry::Vacant(_) => false,
        }
    }

    /// Forget every grant (the ledger dies with the registers).
    pub(crate) fn clear(&mut self) {
        self.outstanding.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_grant_authorizes_one_release() {
        let mut l = GrantLedger::default();
        let (lock, txn) = (LockId(1), TxnId(7));
        assert!(!l.consume(lock, txn), "no grant, no release");
        l.credit(lock, txn);
        l.credit(lock, txn);
        assert!(l.authorizes(lock, txn));
        assert!(l.consume(lock, txn));
        assert!(l.consume(lock, txn));
        assert!(!l.authorizes(lock, txn));
        assert!(!l.consume(lock, txn), "duplicate release filtered");
        l.credit(lock, txn);
        l.clear();
        assert!(!l.authorizes(lock, txn));
    }
}

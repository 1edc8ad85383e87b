//! Queue-slot representation.
//!
//! Each slot in a lock queue stores the fields §4.2 lists — mode,
//! transaction ID, client IP — plus the issue timestamp the lease
//! sweeper reads and the priority engine's class and holder bit. On
//! Tofino these are field-parallel register arrays sharing one index;
//! we model them as one logical array of `Slot` records, which is the
//! stricter one-access-per-pass reading.
//!
//! A slot holds only what the program reads back from it. The model
//! charges the paper's 20 B per slot ([`crate::shared_queue::SLOT_BYTES`]);
//! the host record is 24 B, pinned below. The requester's tenant is not
//! stored: the per-tenant meter reads it from the request at ingress,
//! before the slot is written.

use netlock_proto::{ClientAddr, LockMode, LockRequest, Priority, TxnId};

/// One queue slot: 24 B on the host against the modelled 20 B of the
/// paper's 100K × 20B shared queue.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Slot {
    /// False for never-written / cleared cells.
    pub valid: bool,
    /// Shared or exclusive request.
    pub mode: LockMode,
    /// Requesting transaction.
    pub txn: TxnId,
    /// Where the grant notification goes.
    pub client: ClientAddr,
    /// Priority class of the requester.
    pub priority: Priority,
    /// Issue timestamp (ns); the lease sweeper measures a holder's lease
    /// from it. A priority slot granted on a release holds its grant
    /// time here instead (see
    /// [`crate::shared_queue::SharedQueue::read_and_mark_granted`]); an
    /// immediate grant's grant time is its issue time.
    pub issued_at_ns: u64,
    /// Set once the request has been granted. The FCFS engine does not
    /// need this bit (Algorithm 2's invariants imply grant state); the
    /// priority engine sets it to track holders across levels.
    pub granted: bool,
}

/// Every pooled slot is resident once its region is assigned, so a field
/// that grows this record costs the host 100K × its size per rack.
const _SLOT_IS_24_BYTES: () = assert!(std::mem::size_of::<Slot>() == 24);

impl Slot {
    /// An empty (invalid) slot; the register-file reset value.
    pub const EMPTY: Slot = Slot {
        valid: false,
        mode: LockMode::Shared,
        txn: TxnId(0),
        client: ClientAddr(0),
        priority: Priority(0),
        issued_at_ns: 0,
        granted: false,
    };

    /// Build a slot from an incoming acquire request.
    pub fn from_request(req: &LockRequest) -> Slot {
        Slot {
            valid: true,
            mode: req.mode,
            txn: req.txn,
            client: req.client,
            priority: req.priority,
            issued_at_ns: req.issued_at_ns,
            granted: false,
        }
    }
}

impl Default for Slot {
    fn default() -> Self {
        Slot::EMPTY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlock_proto::{LockId, TenantId};

    #[test]
    fn slot_stays_24_bytes() {
        // Runtime mirror of the const assertion, so the measured size
        // shows up in `cargo test` output.
        let size = std::mem::size_of::<Slot>();
        assert_eq!(size, 24, "Slot grew to {size} bytes");
    }

    #[test]
    fn empty_slot_is_invalid() {
        let empty = Slot::EMPTY;
        assert!(!empty.valid);
        assert!(!empty.granted);
        assert_eq!(Slot::default(), empty);
    }

    #[test]
    fn request_roundtrip() {
        let req = LockRequest {
            lock: LockId(9),
            mode: LockMode::Exclusive,
            txn: TxnId(4),
            client: ClientAddr(8),
            tenant: TenantId(2),
            priority: Priority(1),
            issued_at_ns: 77,
        };
        let slot = Slot::from_request(&req);
        assert!(slot.valid);
        assert!(!slot.granted);
        assert_eq!(
            (slot.mode, slot.txn, slot.client, slot.priority),
            (req.mode, req.txn, req.client, req.priority)
        );
        assert_eq!(slot.issued_at_ns, req.issued_at_ns);
    }
}

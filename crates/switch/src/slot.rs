//! Queue-slot representation.
//!
//! Each slot in a lock queue stores the fields §4.2 lists — mode,
//! transaction ID, client IP — plus the optional timestamp / tenant
//! metadata. On Tofino these are field-parallel register arrays sharing
//! one index; we model them as one logical array of `Slot` records, which
//! is the stricter one-access-per-pass reading.

use netlock_proto::{ClientAddr, LockMode, LockRequest, Priority, TenantId, TxnId};

/// One queue slot (≈ 20 bytes on the wire, as in the paper's 100K × 20B
/// shared queue).
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
    /// Tenant of the requester (quota policies).
    pub tenant: TenantId,
    /// Priority class of the requester.
    pub priority: Priority,
    /// Issue timestamp (ns), used by the lease sweeper.
    pub issued_at_ns: u64,
    /// Set once the request has been granted. The FCFS engine does not
    /// need this bit (Algorithm 2's invariants imply grant state); the
    /// priority engine sets it to track holders across levels.
    pub granted: bool,
    /// When the grant happened (ns); drives lease expiry for the
    /// priority engine. Zero until granted.
    pub granted_at_ns: u64,
}

impl Slot {
    /// An empty (invalid) slot; the register-file reset value.
    pub const EMPTY: Slot = Slot {
        valid: false,
        mode: LockMode::Shared,
        txn: TxnId(0),
        client: ClientAddr(0),
        tenant: TenantId(0),
        priority: Priority(0),
        issued_at_ns: 0,
        granted: false,
        granted_at_ns: 0,
    };

    /// Build a slot from an incoming acquire request.
    pub fn from_request(req: &LockRequest) -> Slot {
        Slot {
            valid: true,
            mode: req.mode,
            txn: req.txn,
            client: req.client,
            tenant: req.tenant,
            priority: req.priority,
            issued_at_ns: req.issued_at_ns,
            granted: false,
            granted_at_ns: 0,
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
    use netlock_proto::LockId;

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
            (slot.mode, slot.txn, slot.client, slot.tenant, slot.priority),
            (req.mode, req.txn, req.client, req.tenant, req.priority)
        );
        assert_eq!(slot.issued_at_ns, req.issued_at_ns);
    }
}

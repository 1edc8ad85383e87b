//! Identifier newtypes shared across the NetLock crates.

use std::fmt;

/// Identifier of a lock object (the paper's `lid`).
///
/// Lock IDs name database objects (rows, pages, tables); the mapping from
/// database entity to lock ID is the workload generator's business.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct LockId(pub u32);

/// Identifier of a transaction.
///
/// Unique per in-flight transaction; the client that issued the request is
/// identified separately by [`ClientAddr`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TxnId(pub u64);

/// Identifier of a tenant, for per-tenant quota policies.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TenantId(pub u16);

/// Request priority for service-differentiation policies.
///
/// Lower value = higher priority (priority 0 is served first), matching
/// the paper's per-stage priority queues where earlier stages win.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Priority(pub u8);

impl Priority {
    /// The highest priority.
    pub const HIGHEST: Priority = Priority(0);
}

/// The client network address carried in each queued request (the paper
/// stores the client IP in the queue slot so the switch can address the
/// grant notification). In the simulation this is the client's IPv4
/// address as a `u32`; the harness assigns one per client node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ClientAddr(pub u32);

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lock:{}", self.0)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn:{}", self.0)
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant:{}", self.0)
    }
}

impl fmt::Display for ClientAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ip = self.0;
        write!(
            f,
            "{}.{}.{}.{}",
            (ip >> 24) & 0xff,
            (ip >> 16) & 0xff,
            (ip >> 8) & 0xff,
            ip & 0xff
        )
    }
}

/// Lock mode: shared (read) or exclusive (write).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LockMode {
    /// Shared lock — any number of concurrent shared holders.
    Shared,
    /// Exclusive lock — at most one holder.
    Exclusive,
}

impl LockMode {
    /// Wire encoding.
    pub fn to_u8(self) -> u8 {
        match self {
            LockMode::Shared => 0,
            LockMode::Exclusive => 1,
        }
    }

    /// Wire decoding.
    pub fn from_u8(v: u8) -> Option<LockMode> {
        match v {
            0 => Some(LockMode::Shared),
            1 => Some(LockMode::Exclusive),
            _ => None,
        }
    }
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockMode::Shared => f.write_str("S"),
            LockMode::Exclusive => f.write_str("X"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_roundtrip() {
        for m in [LockMode::Shared, LockMode::Exclusive] {
            assert_eq!(LockMode::from_u8(m.to_u8()), Some(m));
        }
        assert_eq!(LockMode::from_u8(7), None);
    }

    #[test]
    fn client_addr_formats_as_dotted_quad() {
        assert_eq!(format!("{}", ClientAddr(0x0A00_0001)), "10.0.0.1");
    }

    #[test]
    fn priority_ordering() {
        assert!(Priority::HIGHEST < Priority(1));
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", LockId(3)), "lock:3");
        assert_eq!(format!("{}", TxnId(9)), "txn:9");
        assert_eq!(format!("{}", TenantId(1)), "tenant:1");
        assert_eq!(format!("{}", LockMode::Shared), "S");
        assert_eq!(format!("{}", LockMode::Exclusive), "X");
    }
}

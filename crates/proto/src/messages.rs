//! Typed message set exchanged between NetLock nodes in the simulation.
//!
//! The wire form of a request is [`crate::LockHeader`]; inside the
//! simulator we pass the decoded, typed form to keep the hot path cheap.
//! [`LockRequest::to_header`] / [`LockRequest::from_header`] prove the two
//! representations are interconvertible (round-trip tested below), so the
//! typed messages carry exactly the information the custom UDP header can.

use crate::header::{LockHeader, LockOp};
use crate::ids::{ClientAddr, LockId, LockMode, Priority, TenantId, TxnId};

/// A lock acquire request, as stored in a queue slot.
///
/// This is the paper's queue-slot triple (mode, transaction ID, client IP)
/// plus the "additional metadata such as timestamp and tenant ID" that
/// §4.2 says can be stored together.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LockRequest {
    /// Target lock.
    pub lock: LockId,
    /// Shared or exclusive.
    pub mode: LockMode,
    /// Requesting transaction.
    pub txn: TxnId,
    /// Where to send the grant.
    pub client: ClientAddr,
    /// Tenant for quota accounting.
    pub tenant: TenantId,
    /// Priority class (0 = highest).
    pub priority: Priority,
    /// Time the client issued the request (ns since sim epoch); used for
    /// latency accounting and lease expiry.
    pub issued_at_ns: u64,
}

impl LockRequest {
    /// Encode as a wire header with op = Acquire.
    pub fn to_header(&self) -> LockHeader {
        LockHeader {
            op: LockOp::Acquire,
            lock: self.lock,
            txn: self.txn,
            client: self.client,
            mode: self.mode,
            priority: self.priority,
            tenant: self.tenant,
            timestamp_ns: self.issued_at_ns,
            flags: 0,
        }
    }

    /// Decode from a wire header (op must be Acquire).
    pub fn from_header(h: &LockHeader) -> Option<LockRequest> {
        if h.op != LockOp::Acquire {
            return None;
        }
        Some(LockRequest {
            lock: h.lock,
            mode: h.mode,
            txn: h.txn,
            client: h.client,
            tenant: h.tenant,
            priority: h.priority,
            issued_at_ns: h.timestamp_ns,
        })
    }
}

/// A lock release notification.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReleaseRequest {
    /// Lock being released.
    pub lock: LockId,
    /// Releasing transaction.
    pub txn: TxnId,
    /// Mode that was held (the switch does not check the txn on shared
    /// releases — see §4.2 — but the mode steers the dequeue logic).
    pub mode: LockMode,
    /// Releasing client.
    pub client: ClientAddr,
    /// Priority class of the original request (routes the release to the
    /// correct per-priority queue).
    pub priority: Priority,
}

/// Who granted a lock (diagnostics and the paper's latency breakdowns).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Grantor {
    /// Granted directly by the switch data plane.
    Switch,
    /// Granted by a lock server.
    Server,
}

/// A grant notification to a client.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GrantMsg {
    /// Granted lock.
    pub lock: LockId,
    /// Transaction the grant is for.
    pub txn: TxnId,
    /// Mode granted.
    pub mode: LockMode,
    /// Receiving client.
    pub client: ClientAddr,
    /// Priority class of the granted request; a release must carry it
    /// back so the priority engine dequeues from the right level queue.
    pub priority: Priority,
    /// Data-plane vs server grant.
    pub grantor: Grantor,
    /// The original request issue time (echoes `issued_at_ns`).
    pub issued_at_ns: u64,
}

/// All messages a NetLock deployment exchanges.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NetLockMsg {
    /// Client → lock manager: acquire.
    Acquire(LockRequest),
    /// Client → lock manager: release.
    Release(ReleaseRequest),
    /// Lock manager → client: lock granted.
    Grant(GrantMsg),
    /// Switch → server: request the switch could not handle.
    ///
    /// `buffer_only` is the paper's overflow mark: when set, the server
    /// must only buffer the request in q2 (the switch still owns grant
    /// order for this lock); when clear, the server owns the lock.
    Forwarded {
        /// The forwarded acquire request.
        req: LockRequest,
        /// Overflow mark (see above).
        buffer_only: bool,
    },
    /// Switch → server: q1 for `lock` drained to empty; the server may
    /// push up to `space` buffered requests.
    QueueSpace {
        /// Lock whose switch queue has space.
        lock: LockId,
        /// Number of free q1 slots.
        space: u32,
    },
    /// Server → switch: buffered requests being pushed into q1.
    ///
    /// `reqs` is a boxed slice (one pointer-plus-length word pair)
    /// rather than a `Vec` so this rare bulk variant doesn't widen the
    /// enum — and with it every simulator event slot — by a third
    /// capacity word.
    Push {
        /// Lock the requests belong to.
        lock: LockId,
        /// The requests, in arrival order.
        reqs: Box<[LockRequest]>,
    },
    /// Lock manager → database server: a granted request forwarded to
    /// fetch data (one-RTT transaction mode, §4.1).
    DbFetch {
        /// The grant that authorizes the fetch.
        grant: GrantMsg,
    },
    /// Database server → client: fetched data (payload size abstracted).
    DbReply {
        /// The grant the data corresponds to.
        grant: GrantMsg,
    },
    /// Switch control plane → server: the switch has drained `lock`'s q1
    /// and demoted it; the server now owns the lock (its q2 contents
    /// become the live queue).
    CtrlDemote {
        /// Demoted lock.
        lock: LockId,
    },
    /// Switch control plane → server: prepare `lock` for promotion into
    /// the switch — pause new grants, drain, and reply with
    /// [`NetLockMsg::CtrlPromoteReady`].
    CtrlPromote {
        /// Lock being promoted.
        lock: LockId,
    },
    /// Server → switch: `lock` is drained; `reqs` are the requests that
    /// arrived during the pause, in order, to be enqueued in the switch.
    /// Boxed slice for the same slot-size reason as [`NetLockMsg::Push`].
    CtrlPromoteReady {
        /// Lock being promoted.
        lock: LockId,
        /// Requests buffered during the move.
        reqs: Box<[LockRequest]>,
    },
    /// Backup switch → restarted original switch: the backup's queue
    /// for `lock` has drained; the original may start granting from its
    /// own queue (§4.5: "we only grant locks from the backup switch
    /// until the queue in the backup switch gets empty").
    CtrlHandback {
        /// Lock handed back to the original switch.
        lock: LockId,
    },
    /// Restarted lock server ↔ its switch (§4.5): the server lost every
    /// q2 buffer, so the switch resets the overflow ledgers of the
    /// server's switch-resident locks and echoes the message back. A
    /// buffer-only forward that reaches the server before the echo was
    /// sent before the reset; the server returns it as a plain
    /// [`NetLockMsg::Acquire`] with a fresh `epoch`, and only the echo
    /// of its latest `epoch` ends that.
    CtrlServerRestart {
        /// Which of the server's messages this is (or echoes).
        epoch: u32,
    },
    /// Chain member → its successor: one replicated lock operation.
    ///
    /// The head of a partition's replication chain assigns each admitted
    /// client operation a dense sequence number and its own processing
    /// timestamp, then forwards the operation down the chain. Every
    /// member applies `op` at `stamp_ns` against an identical data
    /// plane, so register state stays replicated by construction. The
    /// inner message is boxed to keep the enum (and with it every
    /// simulator event slot) compact.
    ChainOp {
        /// Partition whose chain this operation belongs to.
        partition: u16,
        /// Dense per-partition sequence number assigned by the head.
        seq: u64,
        /// The head's clock when it applied the operation; replicas
        /// apply at the same stamp so lease math is identical.
        stamp_ns: u64,
        /// The admitted client operation (Acquire or Release).
        op: Box<NetLockMsg>,
    },
    /// Chain tail → upstream members: cumulative apply acknowledgement.
    ///
    /// Everything `<= seq` has been applied (and its outputs emitted) at
    /// the tail; upstream members may truncate their replication logs.
    ChainAck {
        /// Partition whose chain this acknowledges.
        partition: u16,
        /// Highest contiguous sequence number applied at the tail.
        seq: u64,
    },
    /// Chain member → controller: liveness heartbeat, sent from the
    /// member's control tick. Missed ticks are the failure detector.
    CtrlChainPing {
        /// Partition the member serves.
        partition: u16,
        /// The member's index in the partition's *original* chain.
        member: u16,
        /// Chain epoch the member currently believes in.
        epoch: u32,
    },
    /// Controller → chain member: the (possibly spliced) chain layout.
    ///
    /// `members` lists the node ids of the live chain in order; a member
    /// finds itself in the list to learn its role (first = head, last =
    /// tail) and successor. A member whose successor changed retransmits
    /// its unacknowledged log suffix to the new successor — that replay
    /// is what makes a mid-chain crash lossless.
    CtrlChainConfig {
        /// Partition being (re)configured.
        partition: u16,
        /// Monotonic epoch; stale configs are ignored.
        epoch: u32,
        /// Node ids of the live chain, head first.
        members: Box<[u32]>,
    },
    /// Controller → revived switch: wipe and rejoin as an empty chain.
    ///
    /// Sent when a partition's *only* member returns from a crash: real
    /// switch registers do not survive a reboot, so the member must
    /// discard all state, reprogram its directory, and refuse grants
    /// for one lease (§4.5-style grace) before serving again.
    CtrlChainReset {
        /// Partition being reset.
        partition: u16,
        /// New epoch after the reset.
        epoch: u32,
    },
    /// Aggregate client → lock manager: a burst of acquires issued by
    /// many virtual clients inside one arrival-process quantum.
    ///
    /// One simulator event carries the whole burst (boxed slice, same
    /// two-word slot math as [`NetLockMsg::Push`]); the switch unpacks
    /// and admits each element exactly as if it had arrived as an
    /// individual [`NetLockMsg::Acquire`], in slice order.
    AcquireBatch(
        /// The acquires, in virtual-client issue order.
        Box<[LockRequest]>,
    ),
    /// Aggregate client → lock manager: a burst of releases.
    ///
    /// Element semantics are identical to individual
    /// [`NetLockMsg::Release`] messages arriving back-to-back.
    ReleaseBatch(
        /// The releases, in slice order.
        Box<[ReleaseRequest]>,
    ),
    /// Lock manager → aggregate client: grants coalesced per receiver.
    ///
    /// When the switch processes an [`NetLockMsg::AcquireBatch`] (or a
    /// release burst unblocks queued requests), every grant destined for
    /// the same client node within that handler invocation is folded
    /// into one of these instead of one event per grant.
    GrantBatch(
        /// The grants, in grant order.
        Box<[GrantMsg]>,
    ),
    /// Controller → clients/ToR: the lock-space partition routing map.
    ///
    /// `heads[p]` is the node id of partition `p`'s current chain head;
    /// clients route acquires and releases by `partition_of(lock)`.
    /// Re-broadcast with a bumped version whenever a head changes.
    CtrlPartitionMap {
        /// Monotonic map version; stale maps are ignored.
        version: u32,
        /// Chain-head node id per partition, indexed by partition.
        heads: Box<[u32]>,
    },
}

impl NetLockMsg {
    /// The lock this message concerns, if any.
    pub fn lock(&self) -> Option<LockId> {
        match self {
            NetLockMsg::Acquire(r) => Some(r.lock),
            NetLockMsg::Release(r) => Some(r.lock),
            NetLockMsg::Grant(g) => Some(g.lock),
            NetLockMsg::Forwarded { req, .. } => Some(req.lock),
            NetLockMsg::QueueSpace { lock, .. } => Some(*lock),
            NetLockMsg::Push { lock, .. } => Some(*lock),
            NetLockMsg::DbFetch { grant } => Some(grant.lock),
            NetLockMsg::DbReply { grant } => Some(grant.lock),
            NetLockMsg::CtrlDemote { lock } => Some(*lock),
            NetLockMsg::CtrlPromote { lock } => Some(*lock),
            NetLockMsg::CtrlPromoteReady { lock, .. } => Some(*lock),
            NetLockMsg::CtrlHandback { lock } => Some(*lock),
            NetLockMsg::ChainOp { op, .. } => op.lock(),
            // Batches span many locks; per-element handling extracts
            // each one, so the aggregate has no single lock.
            NetLockMsg::AcquireBatch(_)
            | NetLockMsg::ReleaseBatch(_)
            | NetLockMsg::GrantBatch(_) => None,
            NetLockMsg::ChainAck { .. }
            | NetLockMsg::CtrlServerRestart { .. }
            | NetLockMsg::CtrlChainPing { .. }
            | NetLockMsg::CtrlChainConfig { .. }
            | NetLockMsg::CtrlChainReset { .. }
            | NetLockMsg::CtrlPartitionMap { .. } => None,
        }
    }

    /// The client acquires this message carries: one for an `Acquire`,
    /// every element of an `AcquireBatch`, none for anything else.
    pub fn acquires(&self) -> &[LockRequest] {
        match self {
            NetLockMsg::Acquire(r) => std::slice::from_ref(r),
            NetLockMsg::AcquireBatch(rs) => rs,
            _ => &[],
        }
    }

    /// The client releases this message carries: one for a `Release`,
    /// every element of a `ReleaseBatch`, none for anything else.
    pub fn releases(&self) -> &[ReleaseRequest] {
        match self {
            NetLockMsg::Release(r) => std::slice::from_ref(r),
            NetLockMsg::ReleaseBatch(rs) => rs,
            _ => &[],
        }
    }

    /// The grants this message delivers to a client: one for a `Grant`
    /// or a one-RTT `DbReply`, every element of a `GrantBatch`, none for
    /// anything else.
    pub fn grants(&self) -> &[GrantMsg] {
        match self {
            NetLockMsg::Grant(g) | NetLockMsg::DbReply { grant: g } => std::slice::from_ref(g),
            NetLockMsg::GrantBatch(gs) => gs,
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::FLAG_BUFFER_ONLY;

    fn req() -> LockRequest {
        LockRequest {
            lock: LockId(5),
            mode: LockMode::Shared,
            txn: TxnId(900),
            client: ClientAddr(7),
            tenant: TenantId(1),
            priority: Priority(0),
            issued_at_ns: 123,
        }
    }

    #[test]
    fn msg_slot_stays_compact() {
        // Every simulator event embeds a NetLockMsg; the boxed-slice
        // bulk variants exist precisely to keep this bound. The widest
        // variants are the 33-byte `Forwarded` and the two-word boxed
        // slices, rounded up to the 8-byte alignment with the tag.
        assert!(
            std::mem::size_of::<NetLockMsg>() <= 40,
            "NetLockMsg grew to {} bytes; keep bulk payloads boxed",
            std::mem::size_of::<NetLockMsg>()
        );
    }

    #[test]
    fn request_header_roundtrip() {
        let r = req();
        let h = r.to_header();
        assert_eq!(LockRequest::from_header(&h), Some(r));
    }

    #[test]
    fn from_header_rejects_non_acquire() {
        let mut h = req().to_header();
        h.op = LockOp::Release;
        assert_eq!(LockRequest::from_header(&h), None);
    }

    #[test]
    fn wire_roundtrip_through_bytes() {
        let r = req();
        let mut encoded = r.to_header().encode();
        let decoded = LockHeader::decode(&mut encoded).unwrap();
        assert_eq!(LockRequest::from_header(&decoded), Some(r));
    }

    #[test]
    fn buffer_only_flag_exists_on_wire() {
        // The overflow mark must survive encode/decode.
        let mut h = req().to_header();
        h.flags |= FLAG_BUFFER_ONLY;
        let mut b = h.encode();
        let d = LockHeader::decode(&mut b).unwrap();
        assert_ne!(d.flags & FLAG_BUFFER_ONLY, 0);
    }

    #[test]
    fn msg_lock_extraction() {
        assert_eq!(NetLockMsg::Acquire(req()).lock(), Some(LockId(5)));
        assert_eq!(
            NetLockMsg::QueueSpace {
                lock: LockId(9),
                space: 3
            }
            .lock(),
            Some(LockId(9))
        );
        assert_eq!(
            NetLockMsg::Push {
                lock: LockId(2),
                reqs: vec![req()].into()
            }
            .lock(),
            Some(LockId(2))
        );
        // Batches span many locks: no single lock to report.
        assert_eq!(NetLockMsg::AcquireBatch(vec![req()].into()).lock(), None);
    }

    #[test]
    fn single_and_batch_forms_share_one_view() {
        let r = req();
        let rel = ReleaseRequest {
            lock: r.lock,
            txn: r.txn,
            mode: r.mode,
            client: r.client,
            priority: r.priority,
        };
        let g = GrantMsg {
            lock: r.lock,
            txn: r.txn,
            mode: r.mode,
            client: r.client,
            priority: r.priority,
            grantor: Grantor::Switch,
            issued_at_ns: r.issued_at_ns,
        };
        assert_eq!(NetLockMsg::Acquire(r).acquires(), &[r]);
        assert_eq!(
            NetLockMsg::AcquireBatch(vec![r, r].into()).acquires(),
            &[r, r]
        );
        assert_eq!(NetLockMsg::Release(rel).releases(), &[rel]);
        assert_eq!(
            NetLockMsg::ReleaseBatch(vec![rel].into()).releases(),
            &[rel]
        );
        assert_eq!(NetLockMsg::Grant(g).grants(), &[g]);
        assert_eq!(NetLockMsg::DbReply { grant: g }.grants(), &[g]);
        assert_eq!(NetLockMsg::GrantBatch(vec![g, g].into()).grants(), &[g, g]);
        // A forwarded acquire and a database fetch are not client traffic.
        let fwd = NetLockMsg::Forwarded {
            req: r,
            buffer_only: false,
        };
        assert!(fwd.acquires().is_empty() && fwd.releases().is_empty());
        assert!(NetLockMsg::DbFetch { grant: g }.grants().is_empty());
    }
}

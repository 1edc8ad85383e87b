//! Lock-space partitioning across multiple switches.
//!
//! One switch owning the whole directory is NetLock's evaluated
//! deployment; this module is the step past it (ROADMAP item 1): the
//! lock space is split across `n` partitions by a static modulo map,
//! each partition served by its own replication chain of switches
//! (see [`crate::replication`]). Clients and ToRs route per-lock using
//! a [`PartitionMap`] — a versioned `partition → chain-head` table the
//! controller re-broadcasts (`NetLockMsg::CtrlPartitionMap`) whenever
//! a chain repair moves a head.
//!
//! The map is deliberately dumb: `partition_of(lock) = lock % n`. A
//! real deployment would hash, but a transparent map keeps every test
//! scenario auditable — lock 7 of 2 partitions is *always* partition 1.

use netlock_proto::{LockId, NetLockMsg, HEADER_LEN};
use netlock_sim::NodeId;

use crate::analysis::layout::{ArrayDescriptor, ProgramLayout};
use crate::dataplane::DataPlane;

/// Versioned lock-space routing table: which chain head serves each
/// partition. Clients keep one and re-resolve on every send, so a
/// retry after a failover lands on the repaired chain, not the corpse.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PartitionMap {
    version: u32,
    heads: Vec<NodeId>,
}

impl PartitionMap {
    /// A map with one head per partition, version 0.
    pub fn new(heads: Vec<NodeId>) -> PartitionMap {
        assert!(!heads.is_empty(), "partition map needs at least one head");
        PartitionMap { version: 0, heads }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.heads.len()
    }

    /// Current map version (bumped once per [`Self::publish`]).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The partition serving `lock`.
    pub fn partition_of(&self, lock: LockId) -> u16 {
        (lock.0 as usize % self.heads.len()) as u16
    }

    /// The chain head currently serving `lock`.
    pub fn head_of(&self, lock: LockId) -> NodeId {
        self.heads[lock.0 as usize % self.heads.len()]
    }

    /// Point partition `p` at `head`; returns whether the head moved.
    /// The version moves only when the map is next published, so a
    /// repair that moves several heads costs one version.
    pub fn set_head(&mut self, p: u16, head: NodeId) -> bool {
        let moved = self.heads[p as usize] != head;
        self.heads[p as usize] = head;
        moved
    }

    /// Apply a broadcast update; stale or mismatched maps are ignored.
    /// Returns whether the map changed.
    pub fn apply_update(&mut self, version: u32, heads: &[u32]) -> bool {
        if version <= self.version || heads.len() != self.heads.len() {
            return false;
        }
        self.version = version;
        self.heads = heads.iter().map(|&h| NodeId(h)).collect();
        true
    }

    /// Bump the version and return the map's broadcast form.
    pub fn publish(&mut self) -> NetLockMsg {
        self.version += 1;
        NetLockMsg::CtrlPartitionMap {
            version: self.version,
            heads: self.heads.iter().map(|h| h.0).collect(),
        }
    }
}

/// Locks out of `0..total` that partition `p` of `n` owns (the modulo
/// map's preimage) — what a cluster builder programs into `p`'s chain.
pub fn partition_locks(total: u32, p: u16, n: usize) -> Vec<LockId> {
    (0..total)
        .filter(|l| *l as usize % n == p as usize)
        .map(LockId)
        .collect()
}

/// Bytes one replication-log slot occupies on-chip: the admitted
/// operation's wire header plus its sequence number and apply stamp.
pub const REPL_LOG_ENTRY_BYTES: usize = HEADER_LEN + 16;

/// The feasibility layout of one partition's chain member: the data
/// plane's own register arrays plus the chain-replication metadata —
/// the head's sequence counter, the cumulative tail ack, the chain
/// epoch, and the bounded in-flight log (`log_window` slots). These
/// land in the first stages past the queue program, and the combined
/// layout must still pass [`ProgramLayout::check`] against the Tofino
/// budget: replication is only honest if it fits next to the queues it
/// protects.
pub fn replicated_layout(dp: &DataPlane, log_window: usize) -> ProgramLayout {
    let mut layout = dp.layout().clone();
    let meta_stage = layout.stage_usage().keys().next_back().map_or(0, |s| s + 1);
    layout.register(ArrayDescriptor {
        name: "repl_seq",
        stage: meta_stage,
        cells: 1,
        bytes_per_cell: 8,
    });
    layout.register(ArrayDescriptor {
        name: "repl_ack",
        stage: meta_stage,
        cells: 1,
        bytes_per_cell: 8,
    });
    layout.register(ArrayDescriptor {
        name: "repl_epoch",
        stage: meta_stage,
        cells: 1,
        bytes_per_cell: 4,
    });
    layout.register(ArrayDescriptor {
        name: "repl_log",
        stage: meta_stage + 1,
        cells: log_window,
        bytes_per_cell: REPL_LOG_ENTRY_BYTES,
    });
    layout
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modulo_map_is_transparent() {
        let map = PartitionMap::new(vec![NodeId(10), NodeId(20), NodeId(30)]);
        assert_eq!(map.partition_of(LockId(7)), 1);
        assert_eq!(map.head_of(LockId(7)), NodeId(20));
        assert_eq!(map.head_of(LockId(9)), NodeId(10));
        assert_eq!(map.partitions(), 3);
    }

    #[test]
    fn stale_updates_ignored() {
        let mut map = PartitionMap::new(vec![NodeId(1), NodeId(2)]);
        assert!(map.apply_update(3, &[5, 6]));
        assert_eq!(map.head_of(LockId(0)), NodeId(5));
        // Stale version: no change.
        assert!(!map.apply_update(2, &[7, 8]));
        assert_eq!(map.head_of(LockId(0)), NodeId(5));
        // Wrong width: no change.
        assert!(!map.apply_update(9, &[7]));
        assert_eq!(map.version(), 3);
    }

    #[test]
    fn publish_bumps_version_once_and_roundtrips() {
        let mut map = PartitionMap::new(vec![NodeId(1), NodeId(2)]);
        assert!(map.set_head(0, NodeId(8)));
        assert!(map.set_head(1, NodeId(9)));
        assert!(!map.set_head(1, NodeId(9)));
        assert_eq!(map.version(), 0);
        let NetLockMsg::CtrlPartitionMap { version, heads } = map.publish() else {
            panic!("wrong message kind");
        };
        assert_eq!(version, 1);
        let mut copy = PartitionMap::new(vec![NodeId(0), NodeId(0)]);
        assert!(copy.apply_update(version, &heads));
        assert_eq!(copy, map);
    }

    #[test]
    fn partition_locks_cover_disjointly() {
        let n = 3;
        let mut seen = [false; 20];
        for p in 0..n as u16 {
            for l in partition_locks(20, p, n) {
                assert!(!seen[l.0 as usize], "lock {l:?} in two partitions");
                seen[l.0 as usize] = true;
            }
        }
        assert!(seen.iter().all(|s| *s), "every lock owned somewhere");
    }
}

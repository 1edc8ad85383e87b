//! The lock directory: which locks the switch owns, and where each
//! lock's home server is.
//!
//! On hardware this is the match-action table that maps `pkt.lid` to a
//! queue region (Figure 4). The switch control plane installs its
//! entries from the switch's program into an empty table
//! ([`crate::control::apply_allocation`]) and never edits them live; a
//! reboot drops them all and the program is installed again. Locks
//! without a switch entry are forwarded to their home lock server (the
//! paper: clients learn the partitioning from a directory service and
//! set the destination IP; the ToR switch is on path and intercepts the
//! locks it owns).
//!
//! Beside the table, the directory keeps the switch-resident locks as
//! one lock-sorted list, built as the entries are installed: the
//! control plane's lease sweep and overflow reset borrow it.

use netlock_proto::LockId;
use netlock_sim::FastHashMap;

/// Where lock requests for a given lock are processed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Residence {
    /// In the switch data plane, queue region `qid`.
    Switch {
        /// Queue region index in the shared queue.
        qid: usize,
    },
    /// At the lock's home server.
    Server,
}

/// Directory entry for one lock.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DirEntry {
    /// Current residence.
    pub residence: Residence,
    /// Index of the lock's home server (owns the lock when not in the
    /// switch; buffers q2 overflow when it is).
    pub home_server: usize,
}

/// The switch's view of lock placement: the program's table entries,
/// installed once into an empty directory (see
/// [`crate::control::apply_allocation`]) and dropped whole at a reboot.
#[derive(Clone, Debug, Default)]
pub struct LockDirectory {
    entries: FastHashMap<LockId, DirEntry>,
    /// The switch-resident locks as `(lock, qid, home_server)`, sorted
    /// by lock: what the control-plane sweeps walk.
    resident: Vec<(LockId, usize, usize)>,
    /// Which queue regions hold a lock, indexed by qid.
    taken: Vec<bool>,
}

impl LockDirectory {
    /// An empty directory.
    pub fn new() -> LockDirectory {
        LockDirectory::default()
    }

    /// Look up a lock. Unknown locks return `None`; the caller routes
    /// them by destination IP (i.e. to the server the client addressed).
    pub fn get(&self, lock: LockId) -> Option<DirEntry> {
        self.entries.get(&lock).copied()
    }

    /// Install a server-resident lock. Stays public until the repo
    /// benchmark installs through `apply_allocation` (ROADMAP item 5).
    pub fn set_server_resident(&mut self, lock: LockId, home_server: usize) {
        self.install(lock, Residence::Server, home_server);
    }

    /// Install a switch-resident lock with queue region `qid`. Stays
    /// public until the repo benchmark installs through
    /// `apply_allocation` (ROADMAP item 5).
    ///
    /// # Panics
    /// If `qid` already holds a different lock.
    pub fn set_switch_resident(&mut self, lock: LockId, qid: usize, home_server: usize) {
        self.install(lock, Residence::Switch { qid }, home_server);
    }

    /// Point `lock` at `residence`. A lock installed again takes its new
    /// place; an install in lock order appends to the resident list.
    fn install(&mut self, lock: LockId, residence: Residence, home_server: usize) {
        let old = self.entries.insert(
            lock,
            DirEntry {
                residence,
                home_server,
            },
        );
        if let Some(Residence::Switch { qid }) = old.map(|e| e.residence) {
            self.taken[qid] = false;
            self.resident
                .remove(self.resident.partition_point(|r| r.0 < lock));
        }
        if let Residence::Switch { qid } = residence {
            if self.taken.len() <= qid {
                self.taken.resize(qid + 1, false);
            }
            let taken = std::mem::replace(&mut self.taken[qid], true);
            assert!(!taken, "queue region {qid} already assigned");
            let at = self.resident.partition_point(|r| r.0 < lock);
            self.resident.insert(at, (lock, qid, home_server));
        }
    }

    /// All switch-resident locks as `(lock, qid, home_server)`, in lock
    /// order.
    pub fn switch_resident(&self) -> &[(LockId, usize, usize)] {
        &self.resident
    }

    /// Number of directory entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the directory has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every entry (switch reboot).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.resident.clear();
        self.taken.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_lock_is_none() {
        let d = LockDirectory::new();
        assert_eq!(d.get(LockId(1)), None);
        assert!(d.is_empty());
    }

    #[test]
    fn install_and_move() {
        let mut d = LockDirectory::new();
        d.set_server_resident(LockId(1), 0);
        assert_eq!(
            d.get(LockId(1)),
            Some(DirEntry {
                residence: Residence::Server,
                home_server: 0
            })
        );
        // Move into the switch.
        d.set_switch_resident(LockId(1), 7, 0);
        assert_eq!(
            d.get(LockId(1)).unwrap().residence,
            Residence::Switch { qid: 7 }
        );
        assert_eq!(d.switch_resident(), [(LockId(1), 7, 0)]);
        // Back to the server; qid is freed for another lock.
        d.set_server_resident(LockId(1), 0);
        assert!(d.switch_resident().is_empty());
        assert_eq!(d.len(), 1);
        d.set_switch_resident(LockId(2), 7, 0);
    }

    #[test]
    fn rebind_same_lock_new_qid() {
        let mut d = LockDirectory::new();
        d.set_switch_resident(LockId(1), 3, 0);
        d.set_switch_resident(LockId(1), 4, 0);
        assert_eq!(d.switch_resident(), [(LockId(1), 4, 0)]);
        // The old qid is free again.
        d.set_switch_resident(LockId(2), 3, 0);
    }

    #[test]
    #[should_panic(expected = "already assigned")]
    fn qid_collision_panics() {
        let mut d = LockDirectory::new();
        d.set_switch_resident(LockId(1), 3, 0);
        d.set_switch_resident(LockId(2), 3, 0);
    }

    #[test]
    fn switch_resident_listing_sorted() {
        let mut d = LockDirectory::new();
        d.set_switch_resident(LockId(5), 0, 1);
        d.set_switch_resident(LockId(2), 1, 0);
        d.set_server_resident(LockId(9), 1);
        assert_eq!(d.switch_resident(), [(LockId(2), 1, 0), (LockId(5), 0, 1)]);
    }

    #[test]
    fn clear_empties() {
        let mut d = LockDirectory::new();
        d.set_switch_resident(LockId(5), 0, 1);
        d.clear();
        assert!(d.is_empty());
        assert!(d.switch_resident().is_empty());
        // The region is free again.
        d.set_switch_resident(LockId(6), 0, 1);
    }
}

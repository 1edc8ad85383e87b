//! The lock directory: which locks the switch owns, and where each
//! lock's home server is.
//!
//! On hardware this is the match-action table that maps `pkt.lid` to a
//! queue region (Figure 4); entries are installed and removed by the
//! switch control plane. Locks without a switch entry are forwarded to
//! their home lock server (the paper: clients learn the partitioning from
//! a directory service and set the destination IP; the ToR switch is on
//! path and intercepts the locks it owns).

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

/// The switch's view of lock placement.
#[derive(Clone, Debug, Default)]
pub struct LockDirectory {
    entries: FastHashMap<LockId, DirEntry>,
    /// qid → lock reverse map, for control-plane sweeps.
    by_qid: FastHashMap<usize, LockId>,
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

    /// Install or update a server-resident lock.
    pub fn set_server_resident(&mut self, lock: LockId, home_server: usize) {
        if let Some(prev) = self.entries.insert(
            lock,
            DirEntry {
                residence: Residence::Server,
                home_server,
            },
        ) {
            if let Residence::Switch { qid } = prev.residence {
                self.by_qid.remove(&qid);
            }
        }
    }

    /// Install a switch-resident lock with queue region `qid`.
    ///
    /// # Panics
    /// If `qid` is already mapped to a different lock.
    pub fn set_switch_resident(&mut self, lock: LockId, qid: usize, home_server: usize) {
        if let Some(&existing) = self.by_qid.get(&qid) {
            assert_eq!(
                existing, lock,
                "queue region {qid} already assigned to {existing}"
            );
        }
        if let Some(prev) = self.entries.get(&lock) {
            if let Residence::Switch { qid: old_qid } = prev.residence {
                if old_qid != qid {
                    self.by_qid.remove(&old_qid);
                }
            }
        }
        self.entries.insert(
            lock,
            DirEntry {
                residence: Residence::Switch { qid },
                home_server,
            },
        );
        self.by_qid.insert(qid, lock);
    }

    /// All switch-resident locks as `(lock, qid, home_server)`.
    pub fn switch_resident(&self) -> Vec<(LockId, usize, usize)> {
        let mut v: Vec<_> = self
            .entries
            .iter()
            .filter_map(|(&lock, e)| match e.residence {
                Residence::Switch { qid } => Some((lock, qid, e.home_server)),
                Residence::Server => None,
            })
            .collect();
        v.sort_by_key(|&(lock, _, _)| lock);
        v
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
        self.by_qid.clear();
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
        assert_eq!(d.switch_resident(), vec![(LockId(1), 7, 0)]);
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
        assert_eq!(d.switch_resident(), vec![(LockId(1), 4, 0)]);
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
        assert_eq!(
            d.switch_resident(),
            vec![(LockId(2), 1, 0), (LockId(5), 0, 1)]
        );
    }

    #[test]
    fn clear_empties() {
        let mut d = LockDirectory::new();
        d.set_switch_resident(LockId(5), 0, 1);
        d.clear();
        assert!(d.is_empty());
        // The qid index is cleared too.
        d.set_switch_resident(LockId(6), 0, 1);
    }
}

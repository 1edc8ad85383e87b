//! Priority engine: service differentiation with per-stage priority
//! queues (§4.4).
//!
//! Each priority level owns its own queue (on hardware, in its own
//! pipeline stage; here, a [`SharedQueue`] instance whose slot arrays are
//! shifted one stage per level). Grant rules:
//!
//! - A request with priority `p` is granted on arrival iff
//!   - shared: no exclusive holder and no exclusive request queued at any
//!     level of the same or higher priority (`l <= p`), or
//!   - exclusive: no holder of any kind and no entries queued at levels
//!     `l <= p`.
//! - On release, the engine grants from the highest-priority queue first,
//!   skipping current holders (tracked by per-entry `granted` bits and
//!   per-lock holder registers), granting a run of shared requests or a
//!   single exclusive request, and never granting past a waiting
//!   exclusive request of equal or higher priority.
//!
//! Pass accounting: the paper folds the per-level checks into one
//! pipeline traversal (each level's registers live in their own stage);
//! our register model is stricter — each level examined costs one pass —
//! so the engine charges one resubmit per level touched. The extra
//! ~100 ns per pass is negligible at experiment scale and is recorded in
//! DESIGN.md as a deliberate conservative substitution.

use netlock_proto::LockMode;

use crate::register::{PassAllocator, RegisterArray};
use crate::shared_queue::{
    AcquireOutcome, DequeueOutcome, ReleaseOutcome, SharedQueue, SharedQueueLayout,
};
use crate::slot::Slot;

/// Stage for the holders-shared register (after the level queues).
const STAGE_HOLDERS: usize = 40;

/// Configuration of the priority engine.
#[derive(Clone, Debug)]
pub struct PriorityLayout {
    /// Number of priority levels (bounded by pipeline stages — 10–20 on
    /// today's switches, §4.4).
    pub levels: usize,
    /// Slots per level queue array.
    pub slots_per_level: usize,
    /// Queue regions (locks) supported.
    pub max_regions: usize,
}

impl PriorityLayout {
    /// A small layout for tests and the fig12 experiment.
    pub fn new(levels: usize, slots_per_level: usize, max_regions: usize) -> PriorityLayout {
        assert!(levels >= 1, "need at least one priority level");
        assert!(levels <= 16, "priority levels bounded by pipeline stages");
        PriorityLayout {
            levels,
            slots_per_level,
            max_regions,
        }
    }
}

/// The multi-level priority lock engine.
pub struct PriorityEngine {
    levels: Vec<SharedQueue>,
    holders_s: RegisterArray<u32>,
    holder_x: RegisterArray<u32>,
    max_regions: usize,
}

impl PriorityEngine {
    /// Build the engine; every lock region spans `[qid*slots, (qid+1)*slots)`
    /// of each level queue (equal static partitions — the fig12 workload
    /// uses few locks; dynamic allocation applies to the FCFS engine).
    pub fn new(layout: &PriorityLayout) -> PriorityEngine {
        let mut levels = Vec::with_capacity(layout.levels);
        for l in 0..layout.levels {
            let mut q = SharedQueue::new(&SharedQueueLayout {
                slot_arrays: vec![layout.slots_per_level * layout.max_regions],
                max_regions: layout.max_regions,
                stage_offset: l,
            });
            for qid in 0..layout.max_regions {
                q.cp_set_region(
                    qid,
                    (qid * layout.slots_per_level) as u32,
                    ((qid + 1) * layout.slots_per_level) as u32,
                );
            }
            levels.push(q);
        }
        PriorityEngine {
            levels,
            holders_s: RegisterArray::new("holders_s", STAGE_HOLDERS, layout.max_regions, 0),
            holder_x: RegisterArray::new("holder_x", STAGE_HOLDERS + 1, layout.max_regions, 0),
            max_regions: layout.max_regions,
        }
    }

    /// Number of priority levels.
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Number of lock regions.
    pub fn max_regions(&self) -> usize {
        self.max_regions
    }

    fn clamp_level(&self, priority: u8) -> usize {
        // Priorities beyond the configured levels collapse into the
        // lowest level (the paper's coarse-grained grouping).
        (priority as usize).min(self.levels.len() - 1)
    }

    /// Process an acquire at the slot's priority level.
    pub fn acquire(
        &mut self,
        passes: &mut PassAllocator,
        qid: usize,
        slot: Slot,
    ) -> (AcquireOutcome, u32) {
        // An immediate grant's lease runs from `issued_at_ns`, its
        // arrival time; only grants on release rewrite the stamp.
        let p = self.clamp_level(slot.priority.0);
        let mut used = 0u32;

        // Pass: read holder registers.
        let mut pass = passes.begin(0);
        let holders_s = self.holders_s.access(&mut pass, qid, |h| *h);
        let holder_x = self.holder_x.access(&mut pass, qid, |h| *h);
        used += 1;

        // One pass per same-or-higher priority level: read count/excl.
        let mut any_above = false;
        let mut excl_above = false;
        for l in 0..p {
            let v = {
                let mut pass = passes.begin(used);
                let _ = &mut pass; // each level examined is one resubmit
                self.levels[l].cp_region(qid)
            };
            // NOTE: modeled as a data-plane read of two registers; the
            // cp_region call is equivalent and keeps the pass cheap.
            used += 1;
            if v.count > 0 {
                any_above = true;
            }
            if v.excl > 0 {
                excl_above = true;
            }
        }

        // Final pass: enqueue at level p with the combined decision.
        let mut pass = passes.begin(used);
        let mode = slot.mode;
        let d =
            self.levels[p].enqueue_deciding(&mut pass, qid, slot, true, |count_old, excl_old| {
                match mode {
                    LockMode::Shared => holder_x == 0 && !excl_above && excl_old == 0,
                    LockMode::Exclusive => {
                        holders_s == 0 && holder_x == 0 && !any_above && count_old == 0
                    }
                }
            });
        used += 1;
        if d.full {
            return (AcquireOutcome::Overflow, used);
        }
        if d.granted {
            // Pass: bump holder registers.
            let mut pass = passes.begin(used);
            if mode == LockMode::Exclusive {
                self.holder_x.access(&mut pass, qid, |h| *h = 1);
            } else {
                self.holders_s.access(&mut pass, qid, |h| *h += 1);
            }
            used += 1;
            (AcquireOutcome::Granted, used)
        } else {
            (AcquireOutcome::Queued, used)
        }
    }

    /// Process a release issued at priority level `priority`; `now_ns`
    /// is written into each newly granted holder's stored `issued_at_ns`,
    /// where its lease starts. Granted slots are appended to the
    /// caller-owned `grants` buffer in grant order, with the issue time
    /// their request carried.
    pub fn release(
        &mut self,
        passes: &mut PassAllocator,
        qid: usize,
        released_mode: LockMode,
        priority: u8,
        now_ns: u64,
        grants: &mut Vec<Slot>,
    ) -> ReleaseOutcome {
        let p = self.clamp_level(priority);
        let mut out = ReleaseOutcome::default();

        // Pass: dequeue the holder's slot from its level queue.
        let mut pass = passes.begin(0);
        let deq = self.levels[p].release_dequeue(&mut pass, qid, released_mode);
        out.passes = 1;
        if deq == DequeueOutcome::Spurious {
            out.spurious = true;
            return out;
        }

        // Pass: drop the holder from the holder registers.
        let mut pass = passes.begin(out.passes);
        if released_mode == LockMode::Exclusive {
            self.holder_x.access(&mut pass, qid, |h| *h = 0);
        } else {
            self.holders_s.access(&mut pass, qid, |h| {
                *h = h.saturating_sub(1);
            });
        }
        out.passes += 1;

        // Grant scan from the highest priority level.
        let mut holders_s = self.holders_s.cp_read(qid);
        let mut holder_x = self.holder_x.cp_read(qid);
        'scan: for l in 0..self.levels.len() {
            let view = self.levels[l].cp_region(qid);
            out.passes += 1; // level metadata read
            if view.count == 0 {
                continue;
            }
            let mut off = view.head;
            for _ in 0..view.count {
                // Pass: read (and possibly mark) the entry.
                let mut pass = passes.begin(out.passes);
                let s = self.levels[l].read_at(&mut pass, qid, off);
                out.passes += 1;
                if s.granted {
                    off = self.levels[l].next_offset(qid, off);
                    continue; // current holder; skip
                }
                match s.mode {
                    LockMode::Exclusive => {
                        if holders_s == 0 && holder_x == 0 {
                            let mut pass = passes.begin(out.passes);
                            let s =
                                self.levels[l].read_and_mark_granted(&mut pass, qid, off, now_ns);
                            out.passes += 1;
                            let mut pass = passes.begin(out.passes);
                            self.holder_x.access(&mut pass, qid, |h| *h = 1);
                            out.passes += 1;
                            grants.push(s);
                        }
                        // Either way an exclusive waiter halts the scan:
                        // nothing at equal or lower priority may pass it.
                        break 'scan;
                    }
                    LockMode::Shared => {
                        if holder_x != 0 {
                            break 'scan;
                        }
                        let mut pass = passes.begin(out.passes);
                        let s = self.levels[l].read_and_mark_granted(&mut pass, qid, off, now_ns);
                        out.passes += 1;
                        let mut pass = passes.begin(out.passes);
                        self.holders_s.access(&mut pass, qid, |h| *h += 1);
                        out.passes += 1;
                        holders_s += 1;
                        grants.push(s);
                    }
                }
                off = self.levels[l].next_offset(qid, off);
            }
            // Refresh holder snapshot before scanning the next level.
            holders_s = self.holders_s.cp_read(qid);
            holder_x = self.holder_x.cp_read(qid);
        }

        out.now_empty = (0..self.levels.len()).all(|l| self.levels[l].cp_region(qid).count == 0);
        out
    }

    /// Register every array of every level queue (plus the holder
    /// registers) into a static resource model.
    pub fn describe(&self, out: &mut crate::analysis::layout::ProgramLayout) {
        for q in &self.levels {
            q.describe(out);
        }
        out.register_array(&self.holders_s, 4);
        out.register_array(&self.holder_x, 4);
        out.declare_resubmit_bound(self.worst_case_resubmit_depth());
    }

    /// The engine's declared worst-case resubmit depth.
    ///
    /// Release charges one pass per level-metadata read plus up to three
    /// passes per queued entry (read, mark-granted, holder update), on
    /// top of the dequeue and holder-drop passes; acquire stays within
    /// `levels + 3`. Both are covered by this bound.
    pub fn worst_case_resubmit_depth(&self) -> u32 {
        let levels = self.levels.len() as u32;
        let total_entries: u32 = self
            .levels
            .iter()
            .map(|q| q.total_slots() / self.max_regions as u32)
            .sum();
        2 + levels + 3 * total_entries
    }

    /// Control-plane: entries of one level queue, head first.
    pub fn cp_level_entries(&self, level: usize, qid: usize) -> Vec<crate::slot::Slot> {
        self.levels[level].cp_entries(qid)
    }

    /// Control-plane: total queued entries for a lock across levels.
    pub fn cp_total_count(&self, qid: usize) -> u32 {
        (0..self.levels.len())
            .map(|l| self.levels[l].cp_region(qid).count)
            .sum()
    }

    /// Control-plane: wipe all state (switch reboot).
    pub fn cp_reset_all(&mut self) {
        for q in &mut self.levels {
            q.cp_reset_all();
        }
        self.holders_s.cp_fill(0);
        self.holder_x.cp_fill(0);
        // Regions are statically partitioned; restore them.
        let slots = self.levels[0].total_slots() as usize / self.max_regions;
        for q in &mut self.levels {
            for qid in 0..self.max_regions {
                q.cp_set_region(qid, (qid * slots) as u32, ((qid + 1) * slots) as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlock_proto::{ClientAddr, Priority, TxnId};

    fn slot(mode: LockMode, txn: u64, prio: u8) -> Slot {
        Slot {
            valid: true,
            mode,
            txn: TxnId(txn),
            client: ClientAddr(txn as u32),
            priority: Priority(prio),
            issued_at_ns: 0,
            granted: false,
        }
    }

    fn engine() -> (PriorityEngine, PassAllocator) {
        (
            PriorityEngine::new(&PriorityLayout::new(4, 16, 2)),
            PassAllocator::new(),
        )
    }

    fn txns(grants: &[Slot]) -> Vec<u64> {
        grants.iter().map(|s| s.txn.0).collect()
    }

    /// Test shim: collect grants into a fresh buffer per call.
    fn release(
        e: &mut PriorityEngine,
        pa: &mut PassAllocator,
        qid: usize,
        mode: LockMode,
        priority: u8,
        now_ns: u64,
    ) -> (ReleaseOutcome, Vec<Slot>) {
        let mut grants = Vec::new();
        let out = e.release(pa, qid, mode, priority, now_ns, &mut grants);
        (out, grants)
    }

    #[test]
    fn empty_lock_grants_any_priority() {
        let (mut e, mut pa) = engine();
        let (out, _) = e.acquire(&mut pa, 0, slot(LockMode::Exclusive, 1, 3));
        assert_eq!(out, AcquireOutcome::Granted);
    }

    #[test]
    fn high_priority_granted_first_on_release() {
        let (mut e, mut pa) = engine();
        // X1 holds; X2 (low prio) then X3 (high prio) wait.
        assert_eq!(
            e.acquire(&mut pa, 0, slot(LockMode::Exclusive, 1, 0)).0,
            AcquireOutcome::Granted
        );
        assert_eq!(
            e.acquire(&mut pa, 0, slot(LockMode::Exclusive, 2, 3)).0,
            AcquireOutcome::Queued
        );
        assert_eq!(
            e.acquire(&mut pa, 0, slot(LockMode::Exclusive, 3, 1)).0,
            AcquireOutcome::Queued
        );
        // Release: priority 1 (txn 3) beats priority 3 (txn 2).
        let (_out, grants) = release(&mut e, &mut pa, 0, LockMode::Exclusive, 0, 0);
        assert_eq!(txns(&grants), vec![3]);
        let (_out, grants) = release(&mut e, &mut pa, 0, LockMode::Exclusive, 1, 0);
        assert_eq!(txns(&grants), vec![2]);
        let (out, _grants) = release(&mut e, &mut pa, 0, LockMode::Exclusive, 3, 0);
        assert!(out.now_empty);
    }

    #[test]
    fn shared_bypasses_lower_priority_exclusive() {
        let (mut e, mut pa) = engine();
        // S1 holds (prio 0); X2 waits at prio 2; S3 arrives at prio 1.
        assert_eq!(
            e.acquire(&mut pa, 0, slot(LockMode::Shared, 1, 0)).0,
            AcquireOutcome::Granted
        );
        assert_eq!(
            e.acquire(&mut pa, 0, slot(LockMode::Exclusive, 2, 2)).0,
            AcquireOutcome::Queued
        );
        // No exclusive at levels <= 1, shared holder only → granted.
        assert_eq!(
            e.acquire(&mut pa, 0, slot(LockMode::Shared, 3, 1)).0,
            AcquireOutcome::Granted
        );
    }

    #[test]
    fn shared_blocked_by_same_level_exclusive() {
        let (mut e, mut pa) = engine();
        e.acquire(&mut pa, 0, slot(LockMode::Shared, 1, 1));
        e.acquire(&mut pa, 0, slot(LockMode::Exclusive, 2, 1));
        // Same level: FCFS, the shared request must wait behind X2.
        assert_eq!(
            e.acquire(&mut pa, 0, slot(LockMode::Shared, 3, 1)).0,
            AcquireOutcome::Queued
        );
    }

    #[test]
    fn exclusive_blocked_by_higher_priority_waiters() {
        let (mut e, mut pa) = engine();
        e.acquire(&mut pa, 0, slot(LockMode::Exclusive, 1, 0)); // holder
        e.acquire(&mut pa, 0, slot(LockMode::Shared, 2, 0)); // waiter at 0
                                                             // X at lower priority 2: blocked both by holder and waiter above.
        assert_eq!(
            e.acquire(&mut pa, 0, slot(LockMode::Exclusive, 3, 2)).0,
            AcquireOutcome::Queued
        );
        // Release the holder: S2 (prio 0) granted before X3 (prio 2).
        let (_out, grants) = release(&mut e, &mut pa, 0, LockMode::Exclusive, 0, 0);
        assert_eq!(txns(&grants), vec![2]);
    }

    #[test]
    fn release_grants_shared_run_within_level() {
        let (mut e, mut pa) = engine();
        e.acquire(&mut pa, 0, slot(LockMode::Exclusive, 1, 1));
        e.acquire(&mut pa, 0, slot(LockMode::Shared, 2, 1));
        e.acquire(&mut pa, 0, slot(LockMode::Shared, 3, 1));
        e.acquire(&mut pa, 0, slot(LockMode::Exclusive, 4, 1));
        let (_out, grants) = release(&mut e, &mut pa, 0, LockMode::Exclusive, 1, 0);
        assert_eq!(txns(&grants), vec![2, 3], "shared run granted, X4 waits");
    }

    #[test]
    fn shared_grants_cross_levels_on_release() {
        let (mut e, mut pa) = engine();
        e.acquire(&mut pa, 0, slot(LockMode::Exclusive, 1, 0)); // holder
        e.acquire(&mut pa, 0, slot(LockMode::Shared, 2, 0));
        e.acquire(&mut pa, 0, slot(LockMode::Shared, 3, 2));
        let (_out, grants) = release(&mut e, &mut pa, 0, LockMode::Exclusive, 0, 0);
        assert_eq!(txns(&grants), vec![2, 3], "shared run spans levels");
    }

    #[test]
    fn scan_never_grants_past_waiting_exclusive() {
        let (mut e, mut pa) = engine();
        e.acquire(&mut pa, 0, slot(LockMode::Exclusive, 1, 0)); // holder
        e.acquire(&mut pa, 0, slot(LockMode::Exclusive, 2, 1)); // waiter X
        e.acquire(&mut pa, 0, slot(LockMode::Shared, 3, 2)); // behind X
        let (_out, grants) = release(&mut e, &mut pa, 0, LockMode::Exclusive, 0, 0);
        assert_eq!(txns(&grants), vec![2], "X2 granted, S3 must wait behind it");
        let (_out, grants) = release(&mut e, &mut pa, 0, LockMode::Exclusive, 1, 0);
        assert_eq!(txns(&grants), vec![3]);
    }

    #[test]
    fn full_level_overflows() {
        let (mut e, mut pa) = engine();
        for i in 0..16 {
            e.acquire(&mut pa, 0, slot(LockMode::Exclusive, i, 1));
        }
        let (out, _) = e.acquire(&mut pa, 0, slot(LockMode::Exclusive, 99, 1));
        assert_eq!(out, AcquireOutcome::Overflow);
    }

    #[test]
    fn independent_locks_do_not_interfere() {
        let (mut e, mut pa) = engine();
        assert_eq!(
            e.acquire(&mut pa, 0, slot(LockMode::Exclusive, 1, 0)).0,
            AcquireOutcome::Granted
        );
        assert_eq!(
            e.acquire(&mut pa, 1, slot(LockMode::Exclusive, 2, 0)).0,
            AcquireOutcome::Granted
        );
    }

    #[test]
    fn reset_clears_and_restores_regions() {
        let (mut e, mut pa) = engine();
        e.acquire(&mut pa, 0, slot(LockMode::Exclusive, 1, 0));
        e.cp_reset_all();
        assert_eq!(e.cp_total_count(0), 0);
        // Still usable after reset.
        assert_eq!(
            e.acquire(&mut pa, 0, slot(LockMode::Exclusive, 2, 0)).0,
            AcquireOutcome::Granted
        );
    }

    #[test]
    fn priority_beyond_levels_clamps() {
        let (mut e, mut pa) = engine();
        assert_eq!(
            e.acquire(&mut pa, 0, slot(LockMode::Exclusive, 1, 200)).0,
            AcquireOutcome::Granted
        );
        let (out, _grants) = release(&mut e, &mut pa, 0, LockMode::Exclusive, 200, 0);
        assert!(out.now_empty);
        assert!(!out.spurious);
    }
}

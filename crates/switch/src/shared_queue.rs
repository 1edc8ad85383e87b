//! The pooled shared queue (paper §4.2, Figure 5).
//!
//! Instead of statically binding one register array to one lock, NetLock
//! pools the register arrays of multiple stages into a single large
//! *shared queue* and gives each lock an adjustable, contiguous region
//! `[left, right)` of it. Region boundaries live in registers, so the
//! control plane can resize queues at runtime without recompiling the
//! data plane — that is the paper's answer to memory fragmentation.
//!
//! Per-region registers (all in metadata stages that precede the slot
//! arrays):
//! - `bounds[qid] = (left, right)` — the region, in global slot indices
//! - `count[qid]` — occupied slots (holders still occupy their slot!)
//! - `max_count[qid]` — high-water mark, the contention measurement `c_i`
//! - `req_count[qid]` — acquire arrivals, the rate measurement `r_i`
//! - `head[qid]`, `tail[qid]` — circular offsets within the region
//! - `excl[qid]` — number of exclusive entries queued (drives Algorithm
//!   2's `queue.is_shared()` check in a single read-modify-write)
//!
//! Every data-plane operation below touches each register array at most
//! once per pass, in ascending stage order, as the hardware requires;
//! reading a queue entry after a dequeue needs a *resubmit* (a new pass),
//! exactly like the P4 program.
//!
//! An empty region restarts at its first slot: the release that drains
//! a region sets its head to 0, and an enqueue into an empty region
//! writes offset 0 whatever its tail says. Both are predicates on the
//! `count` value the pass has already read, folded into the head or
//! tail read-modify-write it already does, so the modelled program —
//! arrays, stages, accesses per pass — is unchanged. Queue order is
//! unchanged too; what changes is which slots a lightly used lock
//! touches. A lock that holds one request at a time rewrites one slot
//! instead of walking its whole ring, so the host-memory working set of
//! the slot arrays follows the live requests, not the pool size.
//! Invariant: **empty ⇒ head == 0**; a tail value means something only
//! while `count > 0`.
//!
//! On top of the queue, [`SharedQueue::acquire`] and
//! [`SharedQueue::release`] are the FCFS engine, Algorithm 2 of the
//! paper, executed as the P4 program does with `resubmit`:
//!
//! - **acquire** — one pass: enqueue + grant check (lines 1–5).
//! - **release** — one pass to dequeue the head (lines 7–12), then one
//!   resubmitted pass to inspect the new head (lines 13–21), then — for
//!   the exclusive→shared case — one further pass per additional shared
//!   grant (lines 22–27, Figure 6).
//!
//! The FCFS engine never stores a "granted" bit; Algorithm 2's queue
//! invariant (the queue is a granted prefix followed by ungranted
//! requests, where a granted prefix of shared entries is only followed
//! by an exclusive request) makes grant state derivable, and the
//! property tests in this crate check the invariant against a reference
//! model. The priority engine ([`crate::priority`]) builds on the same
//! queue and outcomes but marks its holders.

use netlock_proto::LockMode;

use crate::register::{Pass, PassAllocator, RegisterArray};
use crate::slot::Slot;

/// On-chip bytes per queue slot (paper §5: "100K slots with 20B slot
/// size only consume 2 MB").
pub const SLOT_BYTES: usize = 20;

/// Stage of the bounds registers.
pub const STAGE_BOUNDS: usize = 0;
/// Stage of the count/rate registers.
pub const STAGE_COUNTERS: usize = 1;
/// Stage of the head/tail/excl pointer registers.
pub const STAGE_POINTERS: usize = 2;
/// First stage holding slot register arrays.
pub const STAGE_SLOTS_BASE: usize = 3;

/// Construction parameters for a [`SharedQueue`].
#[derive(Clone, Debug)]
pub struct SharedQueueLayout {
    /// Size of each slot register array; array `i` is placed in stage
    /// `STAGE_SLOTS_BASE + i` by default (`stage_offset` shifts all of
    /// them, used by the priority engine to stack level queues).
    pub slot_arrays: Vec<usize>,
    /// Number of queue regions (locks) the metadata arrays can describe.
    pub max_regions: usize,
    /// Added to every array's stage (0 for the single-queue engine).
    pub stage_offset: usize,
}

impl SharedQueueLayout {
    /// The paper's default: 100K slots pooled from 10 arrays of 10K.
    pub fn paper_default() -> SharedQueueLayout {
        SharedQueueLayout {
            slot_arrays: vec![10_000; 10],
            max_regions: 10_000,
            stage_offset: 0,
        }
    }

    /// A small layout for tests: `arrays` arrays of `size` slots.
    pub fn small(arrays: usize, size: usize, max_regions: usize) -> SharedQueueLayout {
        SharedQueueLayout {
            slot_arrays: vec![size; arrays],
            max_regions,
            stage_offset: 0,
        }
    }

    /// Total pooled slots.
    pub fn total_slots(&self) -> usize {
        self.slot_arrays.iter().sum()
    }
}

/// Result of processing an acquire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AcquireOutcome {
    /// Lock granted immediately; notify the client.
    Granted,
    /// Request queued; the grant will come on a later release.
    Queued,
    /// Queue region full; the request must overflow to the lock server.
    Overflow,
}

/// Result of processing a release.
///
/// Granted slots are appended to a caller-owned buffer (in grant order)
/// rather than returned here: the data plane reuses one buffer across
/// packets so the hot path never allocates.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReleaseOutcome {
    /// True if the queue is now empty (triggers the q2 push protocol when
    /// the lock is in overflow mode).
    pub now_empty: bool,
    /// True if the release found an empty queue (duplicate/stale).
    pub spurious: bool,
    /// Pipeline passes consumed (1 + resubmits).
    pub passes: u32,
}

/// Detailed result of [`SharedQueue::enqueue_deciding`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EnqueueDetail {
    /// Region was full; nothing was written.
    pub full: bool,
    /// The caller's grant decision (false when full).
    pub granted: bool,
    /// Queue occupancy before this enqueue.
    pub count_old: u32,
    /// Exclusive entries in the queue before this enqueue (0 when full —
    /// the excl register is not read on the overflow path).
    pub excl_old: u32,
}

/// Outcome of a release dequeue pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DequeueOutcome {
    /// Queue was empty; nothing released (stale/duplicate release).
    Spurious,
    /// Head removed.
    Dequeued {
        /// Entries remaining after the dequeue.
        remaining: u32,
        /// Offset (within the region) of the new head; 0 when the
        /// dequeue drained the region.
        new_head: u32,
    },
}

/// A control-plane view of one region's registers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RegionView {
    /// Global index of the first slot.
    pub left: u32,
    /// Global index one past the last slot.
    pub right: u32,
    /// Occupied slots.
    pub count: u32,
    /// Circular head offset; always 0 while the region is empty.
    pub head: u32,
    /// Circular tail offset (where the next enqueue writes). Meaningful
    /// only while `count > 0`: an enqueue into an empty region writes
    /// offset 0 regardless.
    pub tail: u32,
    /// Exclusive entries in the queue.
    pub excl: u32,
}

impl RegionView {
    /// Region capacity in slots.
    pub fn capacity(&self) -> u32 {
        self.right - self.left
    }
}

/// The pooled multi-array circular queue.
pub struct SharedQueue {
    bounds: RegisterArray<(u32, u32)>,
    count: RegisterArray<u32>,
    max_count: RegisterArray<u32>,
    req_count: RegisterArray<u64>,
    head: RegisterArray<u32>,
    tail: RegisterArray<u32>,
    excl: RegisterArray<u32>,
    slots: Vec<RegisterArray<Slot>>,
    /// `prefix[i]` = global index of the first slot of array `i`.
    prefix: Vec<u32>,
    total_slots: u32,
}

impl SharedQueue {
    /// Build the queue from a layout. All regions start empty with zero
    /// capacity; the control plane assigns `[left, right)` windows. A
    /// slot takes host memory once a region covering it is assigned
    /// ([`RegisterArray::resident`]); the metadata arrays are resident
    /// from the start.
    pub fn new(layout: &SharedQueueLayout) -> SharedQueue {
        assert!(!layout.slot_arrays.is_empty(), "need at least one array");
        assert!(layout.max_regions > 0, "need at least one region");
        let off = layout.stage_offset;
        let mut slots = Vec::with_capacity(layout.slot_arrays.len());
        let mut prefix = Vec::with_capacity(layout.slot_arrays.len());
        let mut acc = 0u32;
        for (i, &size) in layout.slot_arrays.iter().enumerate() {
            assert!(size > 0, "slot arrays must be non-empty");
            prefix.push(acc);
            slots.push(RegisterArray::unassigned(
                "slots",
                STAGE_SLOTS_BASE + off + i,
                size,
                Slot::EMPTY,
            ));
            acc += size as u32;
        }
        SharedQueue {
            bounds: RegisterArray::new("bounds", STAGE_BOUNDS + off, layout.max_regions, (0, 0)),
            count: RegisterArray::new("count", STAGE_COUNTERS + off, layout.max_regions, 0),
            max_count: RegisterArray::new("max_count", STAGE_COUNTERS + off, layout.max_regions, 0),
            req_count: RegisterArray::new("req_count", STAGE_COUNTERS + off, layout.max_regions, 0),
            head: RegisterArray::new("head", STAGE_POINTERS + off, layout.max_regions, 0),
            tail: RegisterArray::new("tail", STAGE_POINTERS + off, layout.max_regions, 0),
            excl: RegisterArray::new("excl", STAGE_POINTERS + off, layout.max_regions, 0),
            slots,
            prefix,
            total_slots: acc,
        }
    }

    /// Total pooled slots across all arrays.
    pub fn total_slots(&self) -> u32 {
        self.total_slots
    }

    /// Number of addressable regions.
    pub fn max_regions(&self) -> usize {
        self.bounds.len()
    }

    /// Map a global slot index to `(array, offset)`.
    fn locate(&self, global: u32) -> (usize, usize) {
        debug_assert!(global < self.total_slots, "global index out of pool");
        // partition_point: first array whose start is > global, minus one.
        let i = self.prefix.partition_point(|&start| start <= global) - 1;
        (i, (global - self.prefix[i]) as usize)
    }

    /// Process an acquire into region `qid` (Algorithm 2 lines 1–5):
    /// one pipeline pass of conditional enqueue + the grant check
    /// (`queue.is_empty()` via the count RMW, `queue.is_shared()` via the
    /// excl RMW).
    #[inline]
    pub fn acquire(
        &mut self,
        passes: &mut PassAllocator,
        qid: usize,
        slot: Slot,
    ) -> AcquireOutcome {
        let mut pass = passes.begin(0);
        let mode = slot.mode;
        let d = self.enqueue_deciding(&mut pass, qid, slot, false, |count_old, excl_old| {
            count_old == 0 || (excl_old == 0 && mode == LockMode::Shared)
        });
        if d.full {
            AcquireOutcome::Overflow
        } else if d.granted {
            AcquireOutcome::Granted
        } else {
            AcquireOutcome::Queued
        }
    }

    /// Process a release of region `qid` (Algorithm 2 lines 7–27).
    ///
    /// `released_mode` comes from the release packet header. Granted
    /// slots are appended to `grants` in grant order; the caller owns
    /// (and reuses) the buffer.
    #[inline]
    pub fn release(
        &mut self,
        passes: &mut PassAllocator,
        qid: usize,
        released_mode: LockMode,
        grants: &mut Vec<Slot>,
    ) -> ReleaseOutcome {
        let mut out = ReleaseOutcome {
            passes: 1,
            ..ReleaseOutcome::default()
        };
        // Pass 0 (meta.flag == 0): dequeue the head.
        let mut pass = passes.begin(0);
        match self.release_dequeue(&mut pass, qid, released_mode) {
            DequeueOutcome::Spurious => out.spurious = true,
            DequeueOutcome::Dequeued { remaining: 0, .. } => out.now_empty = true,
            // Pass 1 (meta.flag == 1) reads the new head via resubmit. A
            // shared head behind a shared release was granted when it
            // entered the queue; any other head is granted, with its
            // shared run (meta.flag == 2 passes).
            DequeueOutcome::Dequeued {
                remaining,
                new_head,
            } => {
                let held = released_mode == LockMode::Shared;
                out.passes += self.grant_head_run(passes, qid, new_head, remaining, held, grants);
            }
        }
        out
    }

    /// Read the `count` entries from offset `head` on, one resubmit pass
    /// each, and grant the head run: nothing if the head is shared and
    /// `shared_head_held`, else the head and, behind a shared head,
    /// every shared entry up to the first exclusive one, whose read ends
    /// the run. Returns the passes taken.
    fn grant_head_run(
        &mut self,
        passes: &mut PassAllocator,
        qid: usize,
        head: u32,
        count: u32,
        shared_head_held: bool,
        grants: &mut Vec<Slot>,
    ) -> u32 {
        let mut ptr = head;
        for read in 0..count {
            if read > 0 {
                ptr = self.next_offset(qid, ptr);
            }
            let mut pass = passes.begin(1 + read);
            let s = self.read_at(&mut pass, qid, ptr);
            debug_assert!(s.valid, "queue count and slot contents disagree");
            // An exclusive head is a run of one; behind a shared head,
            // only shared entries extend the run.
            let shared = s.mode == LockMode::Shared;
            let granted = if read == 0 {
                !(shared && shared_head_held)
            } else {
                shared
            };
            if granted {
                grants.push(s);
            }
            if !granted || !shared {
                return read + 1;
            }
        }
        count
    }

    /// Data-plane pass: enqueue with a caller-supplied grant decision.
    ///
    /// `decide(count_old, excl_old)` runs after the counter RMWs and
    /// before the slot write — on hardware this is a predicate computed
    /// in packet metadata mid-pipeline. When `mark` is set, the written
    /// slot's `granted` bit records the decision (the priority engine
    /// tracks holders explicitly; the FCFS engine does not need to). An
    /// immediate grant's lease runs from `issued_at_ns`, which is already
    /// its grant time, so nothing else is written.
    #[inline]
    pub fn enqueue_deciding(
        &mut self,
        pass: &mut Pass,
        qid: usize,
        mut slot: Slot,
        mark: bool,
        decide: impl FnOnce(u32, u32) -> bool,
    ) -> EnqueueDetail {
        let (left, right) = self.bounds.access(pass, qid, |b| *b);
        let cap = right - left;
        // Rate counter r_i counts every acquire arrival, even overflowed.
        self.req_count.access(pass, qid, |c| *c += 1);
        // Conditional increment: only if there is space.
        let count_old = self.count.access(pass, qid, |c| {
            let old = *c;
            if old < cap {
                *c += 1;
            }
            old
        });
        if count_old >= cap {
            return EnqueueDetail {
                full: true,
                granted: false,
                count_old,
                excl_old: 0,
            };
        }
        let count_new = count_old + 1;
        self.max_count
            .access(pass, qid, |m| *m = (*m).max(count_new));
        // An empty region restarts at offset 0, where its head points.
        let tail_old = self.tail.access(pass, qid, |t| {
            let old = if count_old == 0 { 0 } else { *t };
            *t = if old + 1 == cap { 0 } else { old + 1 };
            old
        });
        let excl_old = self.excl.access(pass, qid, |e| {
            let old = *e;
            if slot.mode == LockMode::Exclusive {
                *e += 1;
            }
            old
        });
        let granted = decide(count_old, excl_old);
        if mark {
            slot.granted = granted;
        }
        let global = left + tail_old;
        let (arr, off) = self.locate(global);
        self.slots[arr].access(pass, off, |s| *s = slot);
        EnqueueDetail {
            full: false,
            granted,
            count_old,
            excl_old,
        }
    }

    /// Data-plane pass: dequeue the head of region `qid` on a release.
    ///
    /// This is Algorithm 2's `flag == 0` branch: it removes the head and
    /// reports where the new head is; *reading* the new head requires a
    /// resubmit ([`SharedQueue::read_at`] in a fresh pass).
    ///
    /// `released_mode` is the mode carried in the release packet; it is
    /// also the mode of the dequeued holder (only one exclusive holder
    /// can exist, and shared releases are commutative — §4.2), so the
    /// excl counter can be maintained without reading the slot.
    #[inline]
    pub fn release_dequeue(
        &mut self,
        pass: &mut Pass,
        qid: usize,
        released_mode: LockMode,
    ) -> DequeueOutcome {
        let (left, right) = self.bounds.access(pass, qid, |b| *b);
        let cap = right - left;
        if cap == 0 {
            return DequeueOutcome::Spurious;
        }
        let count_old = self.count.access(pass, qid, |c| {
            let old = *c;
            if old > 0 {
                *c -= 1;
            }
            old
        });
        if count_old == 0 {
            return DequeueOutcome::Spurious;
        }
        // Draining the region parks its head at offset 0, where the next
        // enqueue restarts (empty ⇒ head == 0).
        let new_head = self.head.access(pass, qid, |h| {
            *h = if count_old == 1 || *h + 1 == cap {
                0
            } else {
                *h + 1
            };
            *h
        });
        self.excl.access(pass, qid, |e| {
            if released_mode == LockMode::Exclusive && *e > 0 {
                *e -= 1;
            }
        });
        DequeueOutcome::Dequeued {
            remaining: count_old - 1,
            new_head,
        }
    }

    /// Data-plane pass: read the slot at region offset `offset`
    /// (Algorithm 2's `flag == 1/2` branches, each a resubmitted pass).
    #[inline]
    pub fn read_at(&mut self, pass: &mut Pass, qid: usize, offset: u32) -> Slot {
        let (left, right) = self.bounds.access(pass, qid, |b| *b);
        let cap = right - left;
        debug_assert!(offset < cap, "offset beyond region capacity");
        let global = left + offset;
        let (arr, off) = self.locate(global);
        self.slots[arr].access(pass, off, |s| *s)
    }

    /// Data-plane pass: read *and mark granted* the slot at `offset`
    /// (used by the priority engine, which tracks holders explicitly).
    ///
    /// The stored cell's `issued_at_ns` becomes `now_ns`, the grant time
    /// its lease runs from. The returned copy is marked granted but keeps
    /// the timestamp as read, before the write, so the grant message
    /// still carries the request's issue time.
    pub fn read_and_mark_granted(
        &mut self,
        pass: &mut Pass,
        qid: usize,
        offset: u32,
        now_ns: u64,
    ) -> Slot {
        let (left, _right) = self.bounds.access(pass, qid, |b| *b);
        let global = left + offset;
        let (arr, off) = self.locate(global);
        self.slots[arr].access(pass, off, |s| {
            s.granted = true;
            let read = *s;
            s.issued_at_ns = now_ns;
            read
        })
    }

    /// The offset following `offset` within region `qid` (wraparound).
    /// Pure pointer arithmetic — no register access.
    #[inline]
    pub fn next_offset(&self, qid: usize, offset: u32) -> u32 {
        let (left, right) = self.bounds.cp_read(qid);
        let cap = right - left;
        if offset + 1 == cap {
            0
        } else {
            offset + 1
        }
    }

    // ------------------------------------------------------------------
    // Control-plane (PCIe) operations
    // ------------------------------------------------------------------

    /// Read all of a region's registers.
    pub fn cp_region(&self, qid: usize) -> RegionView {
        let (left, right) = self.bounds.cp_read(qid);
        RegionView {
            left,
            right,
            count: self.count.cp_read(qid),
            head: self.head.cp_read(qid),
            tail: self.tail.cp_read(qid),
            excl: self.excl.cp_read(qid),
        }
    }

    /// Assign region `qid` the window `[left, right)`, resetting its
    /// pointers. The region must be empty (a lock is only moved or
    /// resized after its queue drains — §4.3).
    pub fn cp_set_region(&mut self, qid: usize, left: u32, right: u32) {
        assert!(left <= right, "inverted region");
        assert!(right <= self.total_slots, "region beyond pooled memory");
        assert_eq!(
            self.count.cp_read(qid),
            0,
            "cannot move or resize a non-empty queue region"
        );
        self.bounds.cp_write(qid, (left, right));
        self.head.cp_write(qid, 0);
        self.tail.cp_write(qid, 0);
        self.excl.cp_write(qid, 0);
        // The region's slots become resident here, so the data plane
        // never grows a slot array.
        if left < right {
            let (first, _) = self.locate(left);
            let (last, end) = self.locate(right - 1);
            for arr in &mut self.slots[first..last] {
                arr.make_resident(arr.len());
            }
            self.slots[last].make_resident(end + 1);
        }
    }

    /// Snapshot the entries of region `qid` in queue order (head first).
    pub fn cp_entries(&self, qid: usize) -> Vec<Slot> {
        let v = self.cp_region(qid);
        let cap = v.capacity();
        let mut out = Vec::with_capacity(v.count as usize);
        let mut off = v.head;
        for _ in 0..v.count {
            let (arr, idx) = self.locate(v.left + off);
            out.push(self.slots[arr].cp_read(idx));
            off = if off + 1 == cap { 0 } else { off + 1 };
        }
        out
    }

    /// Read and reset the `r_i` counter for `qid`.
    pub fn cp_take_req_count(&mut self, qid: usize) -> u64 {
        let v = self.req_count.cp_read(qid);
        self.req_count.cp_write(qid, 0);
        v
    }

    /// Read and reset the `c_i` high-water mark for `qid`.
    pub fn cp_take_max_count(&mut self, qid: usize) -> u32 {
        let v = self.max_count.cp_read(qid);
        self.max_count.cp_write(qid, 0);
        v
    }

    /// Register every array of this queue into a static resource model
    /// (cell widths use the paper's on-chip accounting: §5's 20 B slot,
    /// plus the per-region metadata registers).
    pub fn describe(&self, out: &mut crate::analysis::layout::ProgramLayout) {
        out.register_array(&self.bounds, 8);
        out.register_array(&self.count, 4);
        out.register_array(&self.max_count, 4);
        out.register_array(&self.req_count, 8);
        out.register_array(&self.head, 4);
        out.register_array(&self.tail, 4);
        out.register_array(&self.excl, 4);
        for arr in &self.slots {
            out.register_array(arr, SLOT_BYTES);
        }
        // Algorithm 2's release cascade resubmits at most once per entry
        // a region can hold, and a region can span the whole pool.
        out.declare_resubmit_bound(self.total_slots + 1);
    }

    /// Wipe every register — models a switch reboot that "retains none of
    /// its former state or register values" (§6.5).
    pub fn cp_reset_all(&mut self) {
        self.bounds.cp_fill((0, 0));
        self.count.cp_fill(0);
        self.max_count.cp_fill(0);
        self.req_count.cp_fill(0);
        self.head.cp_fill(0);
        self.tail.cp_fill(0);
        self.excl.cp_fill(0);
        for arr in &mut self.slots {
            arr.cp_fill(Slot::EMPTY);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlock_proto::{ClientAddr, Priority, TxnId};

    fn slot(mode: LockMode, txn: u64) -> Slot {
        Slot {
            valid: true,
            mode,
            txn: TxnId(txn),
            client: ClientAddr(txn as u32),
            priority: Priority(0),
            issued_at_ns: 0,
            granted: false,
        }
    }

    fn queue_with_region(cap: u32) -> SharedQueue {
        let mut q = SharedQueue::new(&SharedQueueLayout::small(2, 8, 4));
        q.cp_set_region(0, 0, cap);
        q
    }

    #[test]
    fn empty_enqueue_grants() {
        let mut q = queue_with_region(4);
        let mut pa = PassAllocator::new();
        let out = q.acquire(&mut pa, 0, slot(LockMode::Exclusive, 1));
        assert_eq!(out, AcquireOutcome::Granted);
        assert_eq!(q.cp_region(0).count, 1);
        assert_eq!(q.cp_region(0).excl, 1);
    }

    #[test]
    fn shared_run_grants_all() {
        let mut q = queue_with_region(4);
        let mut pa = PassAllocator::new();
        for i in 0..3 {
            let out = q.acquire(&mut pa, 0, slot(LockMode::Shared, i));
            assert_eq!(out, AcquireOutcome::Granted, "shared req {i}");
        }
        assert_eq!(q.cp_region(0).count, 3);
        assert_eq!(q.cp_region(0).excl, 0);
    }

    #[test]
    fn exclusive_behind_shared_queues() {
        let mut q = queue_with_region(4);
        let mut pa = PassAllocator::new();
        assert_eq!(
            q.acquire(&mut pa, 0, slot(LockMode::Shared, 1)),
            AcquireOutcome::Granted
        );
        assert_eq!(
            q.acquire(&mut pa, 0, slot(LockMode::Exclusive, 2)),
            AcquireOutcome::Queued
        );
        // Shared after a queued exclusive must wait (FCFS, no starvation).
        assert_eq!(
            q.acquire(&mut pa, 0, slot(LockMode::Shared, 3)),
            AcquireOutcome::Queued
        );
    }

    #[test]
    fn full_region_overflows_without_corruption() {
        let mut q = queue_with_region(2);
        let mut pa = PassAllocator::new();
        q.acquire(&mut pa, 0, slot(LockMode::Exclusive, 1));
        q.acquire(&mut pa, 0, slot(LockMode::Exclusive, 2));
        let before = q.cp_region(0);
        assert_eq!(
            q.acquire(&mut pa, 0, slot(LockMode::Exclusive, 3)),
            AcquireOutcome::Overflow
        );
        let after = q.cp_region(0);
        assert_eq!(before, after, "overflow must not mutate the region");
        // r_i still counts the overflowed arrival.
        assert_eq!(q.cp_take_req_count(0), 3);
    }

    #[test]
    fn release_dequeues_fifo_and_wraps() {
        let mut q = queue_with_region(3);
        let mut pa = PassAllocator::new();
        for i in 0..3 {
            q.acquire(&mut pa, 0, slot(LockMode::Exclusive, i));
        }
        // Release #0 → new head is entry #1.
        let out = q.release_dequeue(&mut pa.begin(0), 0, LockMode::Exclusive);
        let DequeueOutcome::Dequeued {
            remaining,
            new_head,
        } = out
        else {
            panic!("expected dequeue");
        };
        assert_eq!(remaining, 2);
        let head = q.read_at(&mut pa.begin(0), 0, new_head);
        assert_eq!(head.txn, TxnId(1));
        // Enqueue another: tail wraps to offset 0.
        assert_eq!(
            q.acquire(&mut pa, 0, slot(LockMode::Exclusive, 3)),
            AcquireOutcome::Queued
        );
        let entries = q.cp_entries(0);
        let txns: Vec<u64> = entries.iter().map(|s| s.txn.0).collect();
        assert_eq!(txns, vec![1, 2, 3], "queue order preserved across wrap");
    }

    #[test]
    fn spurious_release_on_empty() {
        let mut q = queue_with_region(3);
        let mut pa = PassAllocator::new();
        assert_eq!(
            q.release_dequeue(&mut pa.begin(0), 0, LockMode::Shared),
            DequeueOutcome::Spurious
        );
        // Zero-capacity region is also spurious, not a panic.
        let mut q2 = SharedQueue::new(&SharedQueueLayout::small(1, 4, 2));
        assert_eq!(
            q2.release_dequeue(&mut pa.begin(0), 1, LockMode::Shared),
            DequeueOutcome::Spurious
        );
    }

    #[test]
    fn excl_counter_tracks_queue_content() {
        let mut q = queue_with_region(4);
        let mut pa = PassAllocator::new();
        q.acquire(&mut pa, 0, slot(LockMode::Exclusive, 1));
        q.acquire(&mut pa, 0, slot(LockMode::Exclusive, 2));
        q.acquire(&mut pa, 0, slot(LockMode::Shared, 3));
        assert_eq!(q.cp_region(0).excl, 2);
        q.release_dequeue(&mut pa.begin(0), 0, LockMode::Exclusive);
        assert_eq!(q.cp_region(0).excl, 1);
        q.release_dequeue(&mut pa.begin(0), 0, LockMode::Exclusive);
        assert_eq!(q.cp_region(0).excl, 0);
        // Now only the shared entry remains; a shared enqueue grants.
        assert_eq!(
            q.acquire(&mut pa, 0, slot(LockMode::Shared, 4)),
            AcquireOutcome::Granted
        );
    }

    #[test]
    fn regions_spanning_arrays() {
        // 2 arrays of 8: a region [6, 12) crosses the array boundary.
        let mut q = SharedQueue::new(&SharedQueueLayout::small(2, 8, 4));
        q.cp_set_region(1, 6, 12);
        let mut pa = PassAllocator::new();
        for i in 0..6 {
            q.acquire(&mut pa, 1, slot(LockMode::Exclusive, i));
        }
        let txns: Vec<u64> = q.cp_entries(1).iter().map(|s| s.txn.0).collect();
        assert_eq!(txns, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(
            q.acquire(&mut pa, 1, slot(LockMode::Exclusive, 9)),
            AcquireOutcome::Overflow
        );
    }

    #[test]
    fn max_count_high_water_mark() {
        let mut q = queue_with_region(4);
        let mut pa = PassAllocator::new();
        for i in 0..3 {
            q.acquire(&mut pa, 0, slot(LockMode::Exclusive, i));
        }
        q.release_dequeue(&mut pa.begin(0), 0, LockMode::Exclusive);
        assert_eq!(q.cp_take_max_count(0), 3);
        // Taking resets the mark.
        assert_eq!(q.cp_take_max_count(0), 0);
    }

    #[test]
    #[should_panic(expected = "non-empty queue region")]
    fn resize_of_nonempty_region_panics() {
        let mut q = queue_with_region(4);
        let mut pa = PassAllocator::new();
        q.acquire(&mut pa, 0, slot(LockMode::Shared, 1));
        q.cp_set_region(0, 0, 8);
    }

    #[test]
    fn reset_all_clears_state() {
        let mut q = queue_with_region(4);
        let mut pa = PassAllocator::new();
        q.acquire(&mut pa, 0, slot(LockMode::Exclusive, 1));
        q.cp_reset_all();
        let v = q.cp_region(0);
        assert_eq!(v.count, 0);
        assert_eq!(v.capacity(), 0);
        assert_eq!(q.cp_take_req_count(0), 0);
    }

    #[test]
    fn drained_region_restarts_at_its_first_slot() {
        let mut pa = PassAllocator::new();
        // Offsets of a 16-slot region that a slot read finds non-empty.
        let written = |q: &mut SharedQueue, pa: &mut PassAllocator| -> Vec<u32> {
            (0..16)
                .filter(|&off| q.read_at(&mut pa.begin(0), 0, off) != Slot::EMPTY)
                .collect()
        };
        for occupancy in [1u32, 2] {
            let mut q = SharedQueue::new(&SharedQueueLayout::small(1, 16, 4));
            q.cp_set_region(0, 0, 16);
            for cycle in 0..100u64 {
                let first = cycle * 10;
                for i in 0..occupancy {
                    q.acquire(&mut pa, 0, slot(LockMode::Shared, first + i as u64));
                }
                let txns: Vec<u64> = q.cp_entries(0).iter().map(|s| s.txn.0).collect();
                let want: Vec<u64> = (0..occupancy as u64).map(|i| first + i).collect();
                assert_eq!(txns, want, "occupancy {occupancy}, cycle {cycle}");
                for left in (0..occupancy).rev() {
                    let out = q.release_dequeue(&mut pa.begin(0), 0, LockMode::Shared);
                    let DequeueOutcome::Dequeued {
                        remaining,
                        new_head,
                    } = out
                    else {
                        panic!("expected dequeue");
                    };
                    assert_eq!(remaining, left);
                    if left == 0 {
                        assert_eq!(new_head, 0, "the draining dequeue reports head 0");
                    }
                }
                assert_eq!(q.cp_region(0).head, 0, "empty ⇒ head == 0");
            }
            let want: Vec<u32> = (0..occupancy).collect();
            assert_eq!(written(&mut q, &mut pa), want, "occupancy {occupancy}");
        }
    }

    #[test]
    fn order_across_wrap_and_drain_matches_a_fifo() {
        use std::collections::VecDeque;
        let mut q = queue_with_region(3);
        let mut pa = PassAllocator::new();
        let mut model = VecDeque::new();
        // A fixed walk that fills, wraps, drains to empty mid-ring and
        // refills: enqueue on 'e', release on 'r'.
        let script = "eer eer rr eee r e rrr e r ee rr eee rrr";
        for (txn, op) in script.chars().filter(|c| *c != ' ').enumerate() {
            if op == 'e' {
                let out = q.acquire(&mut pa, 0, slot(LockMode::Exclusive, txn as u64));
                assert_ne!(out, AcquireOutcome::Overflow, "script never overfills");
                model.push_back(txn as u64);
            } else {
                q.release_dequeue(&mut pa.begin(0), 0, LockMode::Exclusive);
                model.pop_front();
            }
            let txns: Vec<u64> = q.cp_entries(0).iter().map(|s| s.txn.0).collect();
            assert_eq!(txns, Vec::from(model.clone()), "after step {txn}");
            let v = q.cp_region(0);
            assert!(v.count > 0 || v.head == 0, "empty ⇒ head == 0");
        }
    }

    fn resident_slots(q: &SharedQueue) -> usize {
        q.slots.iter().map(RegisterArray::resident).sum()
    }

    /// The memory-limited TPC-C rack's shape: the paper-default pool
    /// and 10 000 regions, of which the knapsack hands out 4 000 slots
    /// to the hottest of 3 000 locks of mixed contention and leaves the
    /// rest (and the rest of the pool) to the servers.
    #[test]
    fn a_plane_holds_host_memory_for_the_slots_it_assigns() {
        use crate::control::{apply_allocation, knapsack_allocate_bounded, Allocation, LockStats};
        use crate::dataplane::{DataPlane, Engine};
        use netlock_proto::LockId;

        let layout = SharedQueueLayout::paper_default();
        let stats: Vec<LockStats> = (0..3_000u32)
            .map(|l| LockStats {
                lock: LockId(l),
                rate: 1e3 / (1 + l) as f64,
                contention: 1 + l % 16,
                home_server: l as usize % 2,
            })
            .collect();
        let alloc = knapsack_allocate_bounded(&stats, 4_000, layout.max_regions);
        assert_eq!(alloc.slots_used(), 4_000);
        let queue = |dp: &DataPlane| match dp.engine() {
            Engine::Fcfs(q) => resident_slots(q),
            Engine::Priority(_) => unreachable!(),
        };

        let mut dp = DataPlane::new_fcfs(&layout);
        assert_eq!(queue(&dp), 0, "nothing assigned, nothing resident");
        apply_allocation(&mut dp, &alloc);
        assert_eq!(queue(&dp), 4_000);

        // A plane whose every slot is resident: the modelled program
        // and its memory charge must not tell the two apart.
        let mut eager = DataPlane::new_fcfs(&layout);
        let Engine::Fcfs(q) = eager.engine_mut() else {
            unreachable!()
        };
        q.cp_set_region(0, 0, q.total_slots());
        q.cp_set_region(0, 0, 0);
        assert_eq!(resident_slots(q), 100_000);
        let (Engine::Fcfs(lazy_q), Engine::Fcfs(eager_q)) = (dp.engine(), eager.engine()) else {
            unreachable!()
        };
        let described = |q: &SharedQueue| {
            let mut out = crate::analysis::layout::ProgramLayout::new();
            q.describe(&mut out);
            (out.total_bytes(), out.stage_usage())
        };
        assert_eq!(described(lazy_q), described(eager_q));
        assert_eq!(dp.layout().stage_usage(), eager.layout().stage_usage());

        // A reboot drops every slot; a reload makes only its own
        // regions resident again.
        dp.reset();
        assert_eq!(queue(&dp), 0);
        let reload = Allocation {
            in_switch: alloc.in_switch[..100].to_vec(),
            in_server: Vec::new(),
        };
        apply_allocation(&mut dp, &reload);
        assert_eq!(queue(&dp), reload.slots_used() as usize);
        assert!(reload.slots_used() < 4_000);
    }

    #[test]
    fn read_and_mark_granted_sets_bit() {
        let mut q = queue_with_region(4);
        let mut pa = PassAllocator::new();
        let mut req = slot(LockMode::Exclusive, 1);
        req.issued_at_ns = 7;
        q.acquire(&mut pa, 0, req);
        let v = q.cp_region(0);
        let s = q.read_and_mark_granted(&mut pa.begin(0), 0, v.head, 42);
        assert!(s.granted, "the returned copy is marked granted");
        // The grant message is built from the returned copy: it keeps
        // the issue time, while the stored cell's lease runs from 42.
        assert_eq!(s.issued_at_ns, 7);
        let entries = q.cp_entries(0);
        assert!(entries[0].granted);
        assert_eq!(entries[0].issued_at_ns, 42);
    }

    fn txns(grants: &[Slot]) -> Vec<u64> {
        grants.iter().map(|s| s.txn.0).collect()
    }

    /// Test shim: collect grants into a fresh buffer per call.
    fn release(
        q: &mut SharedQueue,
        pa: &mut PassAllocator,
        mode: LockMode,
    ) -> (ReleaseOutcome, Vec<Slot>) {
        let mut grants = Vec::new();
        let out = q.release(pa, 0, mode, &mut grants);
        (out, grants)
    }

    #[test]
    fn shared_to_shared_no_grant() {
        let (mut q, mut pa) = (queue_with_region(8), PassAllocator::new());
        assert_eq!(
            q.acquire(&mut pa, 0, slot(LockMode::Shared, 1)),
            AcquireOutcome::Granted
        );
        assert_eq!(
            q.acquire(&mut pa, 0, slot(LockMode::Shared, 2)),
            AcquireOutcome::Granted
        );
        let (out, grants) = release(&mut q, &mut pa, LockMode::Shared);
        assert!(grants.is_empty(), "S→S must not re-grant");
        assert!(!out.now_empty);
        assert_eq!(out.passes, 2);
    }

    #[test]
    fn shared_to_exclusive_grants_head() {
        let (mut q, mut pa) = (queue_with_region(8), PassAllocator::new());
        q.acquire(&mut pa, 0, slot(LockMode::Shared, 1));
        assert_eq!(
            q.acquire(&mut pa, 0, slot(LockMode::Exclusive, 2)),
            AcquireOutcome::Queued
        );
        let (_out, grants) = release(&mut q, &mut pa, LockMode::Shared);
        assert_eq!(txns(&grants), vec![2]);
    }

    #[test]
    fn exclusive_to_exclusive_grants_one() {
        let (mut q, mut pa) = (queue_with_region(8), PassAllocator::new());
        q.acquire(&mut pa, 0, slot(LockMode::Exclusive, 1));
        q.acquire(&mut pa, 0, slot(LockMode::Exclusive, 2));
        q.acquire(&mut pa, 0, slot(LockMode::Exclusive, 3));
        let (out, grants) = release(&mut q, &mut pa, LockMode::Exclusive);
        assert_eq!(txns(&grants), vec![2]);
        assert_eq!(out.passes, 2, "E→E needs exactly one resubmit");
    }

    #[test]
    fn exclusive_to_shared_cascades() {
        let (mut q, mut pa) = (queue_with_region(8), PassAllocator::new());
        q.acquire(&mut pa, 0, slot(LockMode::Exclusive, 1));
        for i in 2..=4 {
            assert_eq!(
                q.acquire(&mut pa, 0, slot(LockMode::Shared, i)),
                AcquireOutcome::Queued
            );
        }
        q.acquire(&mut pa, 0, slot(LockMode::Exclusive, 5));
        let (out, grants) = release(&mut q, &mut pa, LockMode::Exclusive);
        assert_eq!(txns(&grants), vec![2, 3, 4], "cascade stops at X");
        // passes: dequeue + head read + 2 extra shared reads + stop-read at X
        assert_eq!(out.passes, 5);
    }

    #[test]
    fn cascade_stops_at_queue_end() {
        let (mut q, mut pa) = (queue_with_region(8), PassAllocator::new());
        q.acquire(&mut pa, 0, slot(LockMode::Exclusive, 1));
        q.acquire(&mut pa, 0, slot(LockMode::Shared, 2));
        q.acquire(&mut pa, 0, slot(LockMode::Shared, 3));
        let (out, grants) = release(&mut q, &mut pa, LockMode::Exclusive);
        assert_eq!(txns(&grants), vec![2, 3]);
        // passes: dequeue + head read + one shared read; no stop-read
        // past the last entry.
        assert_eq!(out.passes, 3);
    }

    #[test]
    fn release_to_empty_sets_flag() {
        let (mut q, mut pa) = (queue_with_region(8), PassAllocator::new());
        q.acquire(&mut pa, 0, slot(LockMode::Exclusive, 1));
        let (out, grants) = release(&mut q, &mut pa, LockMode::Exclusive);
        assert!(out.now_empty);
        assert!(grants.is_empty());
        assert_eq!(out.passes, 1, "empty queue needs no resubmit");
    }

    #[test]
    fn spurious_release_flagged() {
        let (mut q, mut pa) = (queue_with_region(8), PassAllocator::new());
        let (out, _grants) = release(&mut q, &mut pa, LockMode::Shared);
        assert!(out.spurious);
    }

    #[test]
    fn interleaved_modes_serialize_correctly() {
        // [S1 S2] granted; X3 queued; S4 queued (behind X3).
        let (mut q, mut pa) = (queue_with_region(8), PassAllocator::new());
        q.acquire(&mut pa, 0, slot(LockMode::Shared, 1));
        q.acquire(&mut pa, 0, slot(LockMode::Shared, 2));
        q.acquire(&mut pa, 0, slot(LockMode::Exclusive, 3));
        q.acquire(&mut pa, 0, slot(LockMode::Shared, 4));

        // S1 releases: head S2 already granted → no grants.
        let (_out, grants) = release(&mut q, &mut pa, LockMode::Shared);
        assert!(grants.is_empty());
        // S2 releases: head X3 → grant X3.
        let (_out, grants) = release(&mut q, &mut pa, LockMode::Shared);
        assert_eq!(txns(&grants), vec![3]);
        // X3 releases: cascade grants S4.
        let (_out, grants) = release(&mut q, &mut pa, LockMode::Exclusive);
        assert_eq!(txns(&grants), vec![4]);
        // S4 releases: empty.
        let (out, _grants) = release(&mut q, &mut pa, LockMode::Shared);
        assert!(out.now_empty);
    }
}

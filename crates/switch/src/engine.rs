//! The FCFS lock engine: Algorithm 2 of the paper.
//!
//! Executes acquire/release operations against a [`SharedQueue`] as a
//! sequence of pipeline passes, exactly as the P4 program does with
//! `resubmit`:
//!
//! - **acquire** — one pass: enqueue + grant check (lines 1–5).
//! - **release** — one pass to dequeue the head (lines 7–12), then one
//!   resubmitted pass to inspect the new head (lines 13–21), then — for
//!   the exclusive→shared case — one further pass per additional shared
//!   grant (lines 22–27, Figure 6).
//!
//! The engine never stores a "granted" bit; Algorithm 2's queue invariant
//! (the queue is a granted prefix followed by ungranted requests, where a
//! granted prefix of shared entries is only followed by an exclusive
//! request) makes grant state derivable, and the property tests in this
//! crate check the invariant against a reference model.

use netlock_proto::LockMode;

use crate::register::{Pass, PassId};
use crate::shared_queue::{DequeueOutcome, EnqueueOutcome, SharedQueue};
use crate::slot::Slot;

/// Hands out unique pipeline pass ids.
#[derive(Debug, Default)]
pub struct PassAllocator {
    next: u64,
    sink: Option<crate::analysis::trace::TraceSink>,
}

impl PassAllocator {
    /// A fresh allocator.
    pub fn new() -> PassAllocator {
        PassAllocator {
            next: 0,
            sink: None,
        }
    }

    /// Install (or remove) a trace sink; every pass handed out
    /// afterwards records its register accesses into it.
    pub fn set_trace_sink(&mut self, sink: Option<crate::analysis::trace::TraceSink>) {
        self.sink = sink;
    }

    /// Begin a new pass at the given resubmit depth.
    #[inline]
    pub fn begin(&mut self, resubmit_depth: u32) -> Pass {
        self.next += 1;
        let mut pass = Pass::new(PassId(self.next), resubmit_depth);
        if let Some(sink) = &self.sink {
            pass.set_sink(sink.clone());
        }
        pass
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
/// Granted slots are appended to the caller-owned buffer passed to
/// [`FcfsEngine::release`] (in grant order) rather than returned here:
/// the data plane reuses one buffer across packets so the hot path
/// never allocates.
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

/// The FCFS engine. Stateless: all state lives in the [`SharedQueue`]'s
/// register arrays, as it must for a data-plane implementation.
pub struct FcfsEngine;

impl FcfsEngine {
    /// Process an acquire (Algorithm 2 lines 1–5). One pipeline pass.
    #[inline]
    pub fn acquire(
        queue: &mut SharedQueue,
        passes: &mut PassAllocator,
        qid: usize,
        slot: Slot,
    ) -> AcquireOutcome {
        let mut pass = passes.begin(0);
        match queue.enqueue(&mut pass, qid, slot) {
            EnqueueOutcome::Granted => AcquireOutcome::Granted,
            EnqueueOutcome::Queued => AcquireOutcome::Queued,
            EnqueueOutcome::Full => AcquireOutcome::Overflow,
        }
    }

    /// Process a release (Algorithm 2 lines 7–27).
    ///
    /// `released_mode` comes from the release packet header. Granted
    /// slots are appended to `grants` in grant order; the caller owns
    /// (and reuses) the buffer.
    #[inline]
    pub fn release(
        queue: &mut SharedQueue,
        passes: &mut PassAllocator,
        qid: usize,
        released_mode: LockMode,
        grants: &mut Vec<Slot>,
    ) -> ReleaseOutcome {
        let mut out = ReleaseOutcome::default();

        // Pass 0 (meta.flag == 0): dequeue the head.
        let mut pass = passes.begin(0);
        let (remaining, mut ptr) = match queue.release_dequeue(&mut pass, qid, released_mode) {
            DequeueOutcome::Spurious => {
                out.spurious = true;
                out.passes = 1;
                return out;
            }
            DequeueOutcome::Dequeued {
                remaining,
                new_head,
            } => (remaining, new_head),
        };
        out.passes = 1;
        if remaining == 0 {
            out.now_empty = true;
            return out;
        }

        // Pass 1 (meta.flag == 1): read the new head via resubmit.
        let mut pass = passes.begin(1);
        let head = queue.read_at(&mut pass, qid, ptr);
        out.passes += 1;
        debug_assert!(head.valid, "queue count and slot contents disagree");
        match (head.mode, released_mode) {
            // Shared → Shared: the new head was granted when it entered
            // the queue; nothing to do.
            (LockMode::Shared, LockMode::Shared) => {}
            // Shared → Exclusive / Exclusive → Exclusive: grant the head.
            (LockMode::Exclusive, _) => {
                grants.push(head);
            }
            // Exclusive → Shared: grant the head and cascade over the
            // following run of shared requests (meta.flag == 2 passes).
            (LockMode::Shared, LockMode::Exclusive) => {
                grants.push(head);
                let mut granted = 1;
                while granted < remaining {
                    ptr = queue.next_offset(qid, ptr);
                    let mut pass = passes.begin(1 + granted);
                    let s = queue.read_at(&mut pass, qid, ptr);
                    out.passes += 1;
                    debug_assert!(s.valid, "queue count and slot contents disagree");
                    if s.mode != LockMode::Shared {
                        break;
                    }
                    grants.push(s);
                    granted += 1;
                }
            }
        }
        out
    }
}

impl FcfsEngine {
    /// Grant the head run of a queue whose grants were suppressed
    /// (handback from a backup switch, §4.5): reads the head entry and,
    /// for a shared head, the following shared run — one pass each, like
    /// the release cascade, but without dequeuing anything. Granted
    /// slots are appended to `grants`.
    pub fn kickstart(
        queue: &mut SharedQueue,
        passes: &mut PassAllocator,
        qid: usize,
        grants: &mut Vec<Slot>,
    ) -> ReleaseOutcome {
        let mut out = ReleaseOutcome::default();
        let view = queue.cp_region(qid);
        if view.count == 0 {
            out.now_empty = true;
            out.passes = 1;
            return out;
        }
        let mut ptr = view.head;
        let mut pass = passes.begin(0);
        let head = queue.read_at(&mut pass, qid, ptr);
        out.passes = 1;
        grants.push(head);
        if head.mode == LockMode::Shared {
            let mut granted = 1;
            while granted < view.count {
                ptr = queue.next_offset(qid, ptr);
                let mut pass = passes.begin(granted);
                let s = queue.read_at(&mut pass, qid, ptr);
                out.passes += 1;
                if s.mode != LockMode::Shared {
                    break;
                }
                grants.push(s);
                granted += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared_queue::SharedQueueLayout;
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

    fn setup(cap: u32) -> (SharedQueue, PassAllocator) {
        let mut q = SharedQueue::new(&SharedQueueLayout::small(2, 16, 4));
        q.cp_set_region(0, 0, cap);
        (q, PassAllocator::new())
    }

    fn txns(grants: &[Slot]) -> Vec<u64> {
        grants.iter().map(|s| s.txn.0).collect()
    }

    /// Test shim: collect grants into a fresh buffer per call.
    fn release(
        q: &mut SharedQueue,
        pa: &mut PassAllocator,
        qid: usize,
        mode: LockMode,
    ) -> (ReleaseOutcome, Vec<Slot>) {
        let mut grants = Vec::new();
        let out = FcfsEngine::release(q, pa, qid, mode, &mut grants);
        (out, grants)
    }

    fn kickstart(
        q: &mut SharedQueue,
        pa: &mut PassAllocator,
        qid: usize,
    ) -> (ReleaseOutcome, Vec<Slot>) {
        let mut grants = Vec::new();
        let out = FcfsEngine::kickstart(q, pa, qid, &mut grants);
        (out, grants)
    }

    #[test]
    fn shared_to_shared_no_grant() {
        let (mut q, mut pa) = setup(8);
        assert_eq!(
            FcfsEngine::acquire(&mut q, &mut pa, 0, slot(LockMode::Shared, 1)),
            AcquireOutcome::Granted
        );
        assert_eq!(
            FcfsEngine::acquire(&mut q, &mut pa, 0, slot(LockMode::Shared, 2)),
            AcquireOutcome::Granted
        );
        let (out, grants) = release(&mut q, &mut pa, 0, LockMode::Shared);
        assert!(grants.is_empty(), "S→S must not re-grant");
        assert!(!out.now_empty);
        assert_eq!(out.passes, 2);
    }

    #[test]
    fn shared_to_exclusive_grants_head() {
        let (mut q, mut pa) = setup(8);
        FcfsEngine::acquire(&mut q, &mut pa, 0, slot(LockMode::Shared, 1));
        assert_eq!(
            FcfsEngine::acquire(&mut q, &mut pa, 0, slot(LockMode::Exclusive, 2)),
            AcquireOutcome::Queued
        );
        let (_out, grants) = release(&mut q, &mut pa, 0, LockMode::Shared);
        assert_eq!(txns(&grants), vec![2]);
    }

    #[test]
    fn exclusive_to_exclusive_grants_one() {
        let (mut q, mut pa) = setup(8);
        FcfsEngine::acquire(&mut q, &mut pa, 0, slot(LockMode::Exclusive, 1));
        FcfsEngine::acquire(&mut q, &mut pa, 0, slot(LockMode::Exclusive, 2));
        FcfsEngine::acquire(&mut q, &mut pa, 0, slot(LockMode::Exclusive, 3));
        let (out, grants) = release(&mut q, &mut pa, 0, LockMode::Exclusive);
        assert_eq!(txns(&grants), vec![2]);
        assert_eq!(out.passes, 2, "E→E needs exactly one resubmit");
    }

    #[test]
    fn exclusive_to_shared_cascades() {
        let (mut q, mut pa) = setup(8);
        FcfsEngine::acquire(&mut q, &mut pa, 0, slot(LockMode::Exclusive, 1));
        for i in 2..=4 {
            assert_eq!(
                FcfsEngine::acquire(&mut q, &mut pa, 0, slot(LockMode::Shared, i)),
                AcquireOutcome::Queued
            );
        }
        FcfsEngine::acquire(&mut q, &mut pa, 0, slot(LockMode::Exclusive, 5));
        let (out, grants) = release(&mut q, &mut pa, 0, LockMode::Exclusive);
        assert_eq!(txns(&grants), vec![2, 3, 4], "cascade stops at X");
        // passes: dequeue + head read + 2 extra shared reads + stop-read at X
        assert_eq!(out.passes, 5);
    }

    #[test]
    fn cascade_stops_at_queue_end() {
        let (mut q, mut pa) = setup(8);
        FcfsEngine::acquire(&mut q, &mut pa, 0, slot(LockMode::Exclusive, 1));
        FcfsEngine::acquire(&mut q, &mut pa, 0, slot(LockMode::Shared, 2));
        FcfsEngine::acquire(&mut q, &mut pa, 0, slot(LockMode::Shared, 3));
        let (_out, grants) = release(&mut q, &mut pa, 0, LockMode::Exclusive);
        assert_eq!(txns(&grants), vec![2, 3]);
    }

    #[test]
    fn release_to_empty_sets_flag() {
        let (mut q, mut pa) = setup(8);
        FcfsEngine::acquire(&mut q, &mut pa, 0, slot(LockMode::Exclusive, 1));
        let (out, grants) = release(&mut q, &mut pa, 0, LockMode::Exclusive);
        assert!(out.now_empty);
        assert!(grants.is_empty());
        assert_eq!(out.passes, 1, "empty queue needs no resubmit");
    }

    #[test]
    fn spurious_release_flagged() {
        let (mut q, mut pa) = setup(8);
        let (out, _grants) = release(&mut q, &mut pa, 0, LockMode::Shared);
        assert!(out.spurious);
    }

    #[test]
    fn kickstart_grants_suppressed_head_run() {
        let (mut q, mut pa) = setup(8);
        // Enqueue ungranted entries (suppressed mode: decide = false).
        for (i, mode) in [LockMode::Shared, LockMode::Shared, LockMode::Exclusive]
            .iter()
            .enumerate()
        {
            let mut pass = pa.begin(0);
            q.enqueue_deciding(&mut pass, 0, slot(*mode, i as u64 + 1), false, |_, _| false);
        }
        let (_out, grants) = kickstart(&mut q, &mut pa, 0);
        assert_eq!(txns(&grants), vec![1, 2], "shared head run granted");
        // An exclusive head grants exactly one.
        let (mut q2, mut pa2) = setup(8);
        let mut pass = pa2.begin(0);
        q2.enqueue_deciding(&mut pass, 0, slot(LockMode::Exclusive, 9), false, |_, _| {
            false
        });
        let (_out, grants) = kickstart(&mut q2, &mut pa2, 0);
        assert_eq!(txns(&grants), vec![9]);
        // An empty queue reports empty.
        let (mut q3, mut pa3) = setup(8);
        let (out, grants) = kickstart(&mut q3, &mut pa3, 0);
        assert!(out.now_empty && grants.is_empty());
    }

    #[test]
    fn interleaved_modes_serialize_correctly() {
        // [S1 S2] granted; X3 queued; S4 queued (behind X3).
        let (mut q, mut pa) = setup(8);
        FcfsEngine::acquire(&mut q, &mut pa, 0, slot(LockMode::Shared, 1));
        FcfsEngine::acquire(&mut q, &mut pa, 0, slot(LockMode::Shared, 2));
        FcfsEngine::acquire(&mut q, &mut pa, 0, slot(LockMode::Exclusive, 3));
        FcfsEngine::acquire(&mut q, &mut pa, 0, slot(LockMode::Shared, 4));

        // S1 releases: head S2 already granted → no grants.
        let (_out, grants) = release(&mut q, &mut pa, 0, LockMode::Shared);
        assert!(grants.is_empty());
        // S2 releases: head X3 → grant X3.
        let (_out, grants) = release(&mut q, &mut pa, 0, LockMode::Shared);
        assert_eq!(txns(&grants), vec![3]);
        // X3 releases: cascade grants S4.
        let (_out, grants) = release(&mut q, &mut pa, 0, LockMode::Exclusive);
        assert_eq!(txns(&grants), vec![4]);
        // S4 releases: empty.
        let (out, _grants) = release(&mut q, &mut pa, 0, LockMode::Shared);
        assert!(out.now_empty);
    }
}

//! Fixed-capacity, caller-owned buffer for data-plane actions.
//!
//! [`crate::DataPlane::process`] writes the actions one packet provokes
//! into an [`ActionBuf`] the caller owns and reuses, so the per-packet
//! hot path performs zero heap allocation — the software analogue of a
//! Tofino pipeline, whose per-packet output (mirrors, resubmits, the
//! forwarded packet itself) is bounded by the compiled program, not by
//! a dynamically sized container.
//!
//! The capacity is a feasibility bound, not a soft limit. The widest
//! single-packet burst Algorithm 2 can produce is an exclusive→shared
//! release cascade: one grant per queued shared request, bounded by the
//! largest per-lock queue region the control plane ever allocates, plus
//! one push-protocol notification. Every workload in this repository
//! keeps per-lock contention at or below 600 outstanding requests
//! (`netlock-core`'s micro-benchmark tail test), so [`ACTION_BUF_CAP`]
//! of 1024 leaves headroom while still catching runaway fan-out:
//! overflowing the buffer panics exactly like a register-discipline
//! violation in [`crate::register`], because a model that emits more
//! packets per pass than the ASIC could is no longer feasible.
//!
//! The buffer also carries the pipeline passes the packet took, which
//! the data plane charges as it processes it: the switch node delays
//! the packet's output by one `PASS_LATENCY` per resubmit.
//!
//! In batch mode (`ActionBuf::set_batch_mode`) a grant takes no slot:
//! it is appended to the buffer's grant list, which outlives `clear`, so
//! a switch node answering an aggregate batch writes each grant once and
//! coalesces the whole batch's grants at its end.

use std::ops::Deref;

use netlock_proto::GrantMsg;

use crate::dataplane::{DpAction, DropReason};

/// Upper bound on actions a single processed message may produce.
pub const ACTION_BUF_CAP: usize = 1024;

/// A reusable, fixed-capacity action buffer (see module docs).
///
/// Dereferences to `[DpAction]` for iteration and indexing. `push`
/// panics on overflow — an infeasible actions-per-packet burst.
pub struct ActionBuf {
    len: usize,
    /// Pipeline passes the packet took (1 + resubmits).
    passes: u32,
    /// Batch mode: grants go to `grants` instead of taking a slot.
    batching: bool,
    /// The grants of the batch in progress, in grant order.
    grants: Vec<GrantMsg>,
    slots: Box<[DpAction; ACTION_BUF_CAP]>,
}

impl ActionBuf {
    /// An empty buffer. Performs the one heap allocation of the
    /// buffer's lifetime; construct once per node, not per packet.
    pub fn new() -> ActionBuf {
        // The fill value is arbitrary — `len` delimits the live prefix.
        let fill = DpAction::Drop {
            reason: DropReason::UnknownLock,
        };
        ActionBuf {
            len: 0,
            passes: 0,
            batching: false,
            grants: Vec::new(),
            slots: Box::new([fill; ACTION_BUF_CAP]),
        }
    }

    /// Turn batch mode on or off. On, every grant is appended to the
    /// batch's grant list ([`ActionBuf::batch_grants`]) instead of taking
    /// a slot, and `clear` keeps the list: it holds every grant of the
    /// batch, in grant order, until the caller drains it.
    #[inline]
    pub(crate) fn set_batch_mode(&mut self, on: bool) {
        self.batching = on;
    }

    /// The grants batch mode collected (see [`ActionBuf::set_batch_mode`]).
    #[inline]
    pub(crate) fn batch_grants(&mut self) -> &mut Vec<GrantMsg> {
        &mut self.grants
    }

    /// Discard all actions and the pass count (the buffer's capacity is
    /// retained; so is the batch's grant list).
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
        self.passes = 0;
    }

    /// Charge the packet `n` more pipeline passes.
    #[inline]
    pub(crate) fn charge_passes(&mut self, n: u32) {
        self.passes += n;
    }

    /// Resubmits the packet took: its passes beyond the first (0 for a
    /// packet the data plane filtered without a pass).
    #[inline]
    pub(crate) fn resubmits(&self) -> u64 {
        u64::from(self.passes.saturating_sub(1))
    }

    /// Append one action.
    ///
    /// # Panics
    /// If the buffer is full: a single packet provoking more than
    /// [`ACTION_BUF_CAP`] actions means the model diverged from a
    /// feasible switch program (see module docs).
    #[inline]
    pub fn push(&mut self, action: DpAction) {
        if self.len >= ACTION_BUF_CAP {
            Self::overflow();
        }
        self.slots[self.len] = action;
        self.len += 1;
    }

    /// Append one grant: to the batch's grant list in batch mode, else
    /// as a [`DpAction::SendGrant`].
    #[inline]
    pub(crate) fn push_grant(&mut self, grant: GrantMsg) {
        if self.batching {
            self.grants.push(grant);
        } else {
            self.push(DpAction::SendGrant(grant));
        }
    }

    #[cold]
    #[inline(never)]
    fn overflow() -> ! {
        panic!(
            "infeasible action burst: one packet provoked more than {ACTION_BUF_CAP} \
             data-plane actions; Algorithm 2's per-packet fan-out is bounded by the \
             largest queue region, so this exceeds the Tofino feasibility envelope"
        );
    }

    /// The recorded actions.
    pub fn as_slice(&self) -> &[DpAction] {
        &self.slots[..self.len]
    }
}

impl Default for ActionBuf {
    fn default() -> Self {
        ActionBuf::new()
    }
}

impl PartialEq<Vec<DpAction>> for ActionBuf {
    fn eq(&self, other: &Vec<DpAction>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Deref for ActionBuf {
    type Target = [DpAction];
    fn deref(&self) -> &[DpAction] {
        self.as_slice()
    }
}

impl std::fmt::Debug for ActionBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice().iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_clear_and_deref() {
        let mut buf = ActionBuf::new();
        assert!(buf.is_empty());
        buf.push(DpAction::Drop {
            reason: DropReason::OverQuota,
        });
        buf.push(DpAction::Drop {
            reason: DropReason::UnknownLock,
        });
        assert_eq!(buf.len(), 2);
        assert!(matches!(
            buf[1],
            DpAction::Drop {
                reason: DropReason::UnknownLock
            }
        ));
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.as_slice(), &[]);
    }

    #[test]
    fn batch_mode_collects_grants_across_packets() {
        let grant = |txn| GrantMsg {
            lock: netlock_proto::LockId(1),
            txn: netlock_proto::TxnId(txn),
            mode: netlock_proto::LockMode::Shared,
            client: netlock_proto::ClientAddr(2),
            priority: netlock_proto::Priority(0),
            grantor: netlock_proto::Grantor::Switch,
            issued_at_ns: 0,
        };
        let mut buf = ActionBuf::new();
        buf.set_batch_mode(true);
        buf.push_grant(grant(1));
        buf.clear();
        buf.push_grant(grant(2));
        assert!(buf.is_empty(), "a batched grant takes no slot");
        buf.set_batch_mode(false);
        buf.push_grant(grant(3));
        assert_eq!(buf, vec![DpAction::SendGrant(grant(3))]);
        assert_eq!(buf.batch_grants(), &vec![grant(1), grant(2)]);
    }

    #[test]
    #[should_panic(expected = "infeasible action burst")]
    fn overflow_panics_like_a_feasibility_violation() {
        let mut buf = ActionBuf::new();
        for _ in 0..=ACTION_BUF_CAP {
            buf.push(DpAction::Drop {
                reason: DropReason::OverQuota,
            });
        }
    }
}

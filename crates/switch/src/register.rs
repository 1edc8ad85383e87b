//! Register arrays: the switch's stateful on-chip memory.
//!
//! Programmable switches expose per-stage SRAM as register arrays. The
//! data plane is subject to two hard constraints that shape the entire
//! NetLock design (§4.2 of the paper):
//!
//! 1. **One access per pass.** While processing one packet (one pipeline
//!    pass), an action can perform at most one read-modify-write on a
//!    given register array. Needing a second access requires *resubmitting*
//!    the packet for another pass.
//! 2. **Stage ordering.** Arrays live in pipeline stages; a pass visits
//!    stages in order, so an access to stage `j` cannot follow an access to
//!    stage `k > j` within the same pass.
//!
//! [`RegisterArray::access`] enforces both at runtime: a NetLock data
//! plane that violates them (and therefore could not compile to Tofino)
//! panics in simulation. The switch control plane accesses registers over
//! PCIe without these constraints ([`RegisterArray::cp_read`] /
//! [`RegisterArray::cp_write`]).

use std::sync::atomic::{AtomicU32, Ordering};

use crate::analysis::trace::{AccessRecord, TraceSink};

/// Identifier of one pipeline pass (one packet traversal).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PassId(pub u64);

/// Unique identity of one register-array *instance*.
///
/// Array names are display labels and repeat (every slot array is named
/// "slots"); the analysis layer needs to tell instances apart, so each
/// allocation draws a fresh id from a process-wide counter.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ArrayId(pub u32);

static NEXT_ARRAY_ID: AtomicU32 = AtomicU32::new(0);

/// Tracks the constraint state of the current pipeline pass.
#[derive(Debug)]
pub struct Pass {
    id: PassId,
    /// Highest stage accessed so far in this pass.
    stage_cursor: usize,
    /// How many resubmits led to this pass (0 for the original packet).
    resubmit_depth: u32,
    /// Cached `sink.is_some()`, hoisted out of the access hot path so
    /// the untraced case costs exactly one well-predicted branch; the
    /// recording body lives out of line behind it (`#[cold]`).
    tracing: bool,
    /// Optional recorder every register access is reported to.
    sink: Option<TraceSink>,
}

impl Pass {
    /// Begin a pass. `resubmit_depth` is 0 for a fresh packet.
    pub fn new(id: PassId, resubmit_depth: u32) -> Pass {
        Pass {
            id,
            stage_cursor: 0,
            resubmit_depth,
            tracing: false,
            sink: None,
        }
    }

    /// The pass id.
    pub fn id(&self) -> PassId {
        self.id
    }

    /// Number of resubmits before this pass.
    pub fn resubmit_depth(&self) -> u32 {
        self.resubmit_depth
    }

    /// Attach a trace sink; every subsequent register access in this
    /// pass is recorded into it.
    pub fn set_sink(&mut self, sink: TraceSink) {
        self.sink = Some(sink);
        self.tracing = true;
    }

    /// Out-of-line recording path: only reached when a sink is
    /// attached, so the untraced hot path never constructs an
    /// [`AccessRecord`] or touches the `RefCell`.
    #[cold]
    #[inline(never)]
    fn record(&self, array: ArrayId, name: &'static str, stage: usize, index: usize) {
        if let Some(sink) = &self.sink {
            sink.lock().unwrap().record(AccessRecord {
                array,
                name,
                stage,
                index,
                pass: self.id,
                resubmit_depth: self.resubmit_depth,
            });
        }
    }
}

/// Hands out unique pipeline pass ids.
#[derive(Debug, Default)]
pub struct PassAllocator {
    next: u64,
    sink: Option<TraceSink>,
}

impl PassAllocator {
    /// A fresh allocator.
    pub fn new() -> PassAllocator {
        PassAllocator::default()
    }

    /// Install (or remove) a trace sink; every pass handed out
    /// afterwards records its register accesses into it.
    pub fn set_trace_sink(&mut self, sink: Option<TraceSink>) {
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

/// A fixed-size array of registers in one pipeline stage.
///
/// `T` stands in for the (possibly field-parallel) register cells of one
/// logical array; a `T` wider than a machine word models multiple
/// same-indexed physical arrays that are always accessed together, which
/// is the *stricter* reading of the hardware constraint.
///
/// The array has two sizes. [`RegisterArray::len`] is the modelled cell
/// count — what the chip holds, and what every resource model charges.
/// Host storage holds only the *resident* cells
/// ([`RegisterArray::resident`]): a prefix that grows when a cell past
/// it is assigned by the control plane or written. A cell that is not
/// resident reads as the array's reset value.
#[derive(Debug)]
pub struct RegisterArray<T> {
    id: ArrayId,
    name: &'static str,
    stage: usize,
    /// Modelled cell count.
    len: usize,
    /// What a cell past `data` holds.
    reset: T,
    /// The resident cells `[0, data.len())`.
    data: Vec<T>,
    last_access: Option<PassId>,
}

impl<T: Copy> RegisterArray<T> {
    /// Allocate an array of `size` cells in `stage`, all set to `init`
    /// and all resident from construction.
    ///
    /// `size` is the modelled size, fixed afterwards: the chip's
    /// register memory is pre-allocated when the data plane program is
    /// compiled and loaded (§4.2). Host storage holds the resident
    /// cells ([`RegisterArray::resident`]), here all of them.
    pub fn new(name: &'static str, stage: usize, size: usize, init: T) -> RegisterArray<T> {
        let mut arr = RegisterArray::unassigned(name, stage, size, init);
        arr.data = vec![init; size];
        arr
    }

    /// An array of `size` modelled cells, all reading `init`, none of
    /// them resident: for arrays the control plane hands out in
    /// regions ([`RegisterArray::make_resident`]).
    pub(crate) fn unassigned(
        name: &'static str,
        stage: usize,
        size: usize,
        init: T,
    ) -> RegisterArray<T> {
        RegisterArray {
            id: ArrayId(NEXT_ARRAY_ID.fetch_add(1, Ordering::Relaxed)),
            name,
            stage,
            len: size,
            reset: init,
            data: Vec::new(),
            last_access: None,
        }
    }

    /// This instance's unique identity.
    pub fn id(&self) -> ArrayId {
        self.id
    }

    /// The array's display name (not unique).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The stage this array lives in.
    pub fn stage(&self) -> usize {
        self.stage
    }

    /// Number of cells: the modelled size, resident or not.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the array has no cells.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of resident cells: the ones host storage holds.
    pub fn resident(&self) -> usize {
        self.data.len()
    }

    /// Make cells `[0, end)` resident, leaving the values of those
    /// already resident as they are.
    ///
    /// The first growth reserves storage for the whole modelled size,
    /// so no later growth moves a cell or allocates: the data plane
    /// stays allocation-free, and growing never holds two copies of
    /// the array. Only the cells made resident are written, so only
    /// they take host memory.
    ///
    /// # Panics
    /// If `end` exceeds the modelled size.
    pub(crate) fn make_resident(&mut self, end: usize) {
        if end <= self.data.len() {
            return;
        }
        assert!(
            end <= self.len,
            "register array index out of bounds: {}",
            end - 1
        );
        if self.data.capacity() < self.len {
            self.data.reserve_exact(self.len - self.data.len());
        }
        self.data.resize(end, self.reset);
    }

    /// Data-plane read-modify-write of cell `idx` during `pass`.
    ///
    /// Returns whatever the closure returns (typically the pre-modify
    /// value, which is what Tofino's stateful ALU can export).
    ///
    /// # Panics
    /// - if this array was already accessed during `pass` (needs resubmit)
    /// - if `pass` already accessed a later stage (cannot go backwards)
    /// - if `idx` is out of bounds
    #[inline]
    pub fn access<R>(&mut self, pass: &mut Pass, idx: usize, f: impl FnOnce(&mut T) -> R) -> R {
        // The violation panics are out-of-line (`#[cold]`) so the
        // discipline checks compile to two predicted branches on the
        // per-packet hot path.
        if self.last_access == Some(pass.id) {
            self.double_access_violation(pass);
        }
        if self.stage < pass.stage_cursor {
            self.stage_order_violation(pass);
        }
        self.last_access = Some(pass.id);
        pass.stage_cursor = self.stage;
        if pass.tracing {
            pass.record(self.id, self.name, self.stage, idx);
        }
        if idx >= self.data.len() {
            self.first_write(idx);
        }
        f(&mut self.data[idx])
    }

    /// An access reaches a cell that is not resident: the access may
    /// write it, so it becomes resident.
    #[cold]
    #[inline(never)]
    fn first_write(&mut self, idx: usize) {
        self.make_resident(idx + 1);
    }

    #[cold]
    #[inline(never)]
    fn double_access_violation(&self, pass: &Pass) -> ! {
        panic!(
            "register array '{}' accessed twice in pass {:?}: the P4 data \
             plane would need a resubmit here",
            self.name, pass.id
        );
    }

    #[cold]
    #[inline(never)]
    fn stage_order_violation(&self, pass: &Pass) -> ! {
        panic!(
            "register array '{}' (stage {}) accessed after stage {} in the \
             same pass: a pipeline pass cannot revisit earlier stages",
            self.name, self.stage, pass.stage_cursor
        );
    }

    /// Control-plane read (PCIe path; not pass-constrained).
    pub fn cp_read(&self, idx: usize) -> T {
        match self.data.get(idx) {
            Some(&cell) => cell,
            None => {
                assert!(idx < self.len, "register array index out of bounds: {idx}");
                self.reset
            }
        }
    }

    /// Control-plane write (PCIe path; not pass-constrained).
    ///
    /// Clears the pass-access bookkeeping, like [`RegisterArray::cp_fill`]:
    /// after a control-plane restore (reboot recovery, region moves), a
    /// pass allocator that restarted from id 1 must not be blocked by a
    /// stale `last_access` from the previous incarnation.
    pub fn cp_write(&mut self, idx: usize, value: T) {
        self.make_resident(idx + 1);
        self.data[idx] = value;
        self.last_access = None;
    }

    /// Control-plane bulk reset (e.g. after a switch reboot, the register
    /// file comes back zeroed/initialized): every cell reads `value`,
    /// and none is resident any more. The storage stays reserved.
    pub fn cp_fill(&mut self, value: T) {
        self.reset = value;
        self.data.clear();
        self.last_access = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmw_returns_closure_value() {
        let mut arr = RegisterArray::new("a", 0, 4, 0u64);
        let mut pass = Pass::new(PassId(1), 0);
        let old = arr.access(&mut pass, 2, |c| {
            let old = *c;
            *c += 5;
            old
        });
        assert_eq!(old, 0);
        assert_eq!(arr.cp_read(2), 5);
    }

    #[test]
    #[should_panic(expected = "accessed twice in pass")]
    fn double_access_in_one_pass_panics() {
        let mut arr = RegisterArray::new("a", 0, 4, 0u64);
        let mut pass = Pass::new(PassId(1), 0);
        arr.access(&mut pass, 0, |_| ());
        arr.access(&mut pass, 1, |_| ());
    }

    #[test]
    fn new_pass_resets_access_budget() {
        let mut arr = RegisterArray::new("a", 0, 4, 0u64);
        let mut p1 = Pass::new(PassId(1), 0);
        arr.access(&mut p1, 0, |c| *c += 1);
        let mut p2 = Pass::new(PassId(2), 1);
        arr.access(&mut p2, 0, |c| *c += 1);
        assert_eq!(arr.cp_read(0), 2);
        assert_eq!(p2.resubmit_depth(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot revisit earlier stages")]
    fn backwards_stage_access_panics() {
        let mut early = RegisterArray::new("early", 1, 4, 0u64);
        let mut late = RegisterArray::new("late", 3, 4, 0u64);
        let mut pass = Pass::new(PassId(1), 0);
        late.access(&mut pass, 0, |_| ());
        early.access(&mut pass, 0, |_| ());
    }

    #[test]
    fn same_stage_different_arrays_ok() {
        let mut a = RegisterArray::new("a", 2, 4, 0u64);
        let mut b = RegisterArray::new("b", 2, 4, 0u64);
        let mut pass = Pass::new(PassId(1), 0);
        a.access(&mut pass, 0, |_| ());
        b.access(&mut pass, 0, |_| ());
    }

    #[test]
    fn ascending_stage_access_ok() {
        let mut a = RegisterArray::new("a", 0, 4, 0u64);
        let mut b = RegisterArray::new("b", 5, 4, 0u64);
        let mut pass = Pass::new(PassId(1), 0);
        a.access(&mut pass, 0, |_| ());
        b.access(&mut pass, 0, |_| ());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_panics() {
        let mut arr = RegisterArray::new("a", 0, 4, 0u64);
        let mut pass = Pass::new(PassId(1), 0);
        arr.access(&mut pass, 4, |_| ());
    }

    #[test]
    fn unwritten_cells_read_as_the_reset_value() {
        let mut arr = RegisterArray::unassigned("a", 0, 8, 7u64);
        assert_eq!((arr.len(), arr.resident()), (8, 0));
        assert_eq!(arr.cp_read(5), 7);
        assert_eq!(arr.resident(), 0, "a control-plane read stores nothing");
        let mut pass = Pass::new(PassId(1), 0);
        assert_eq!(arr.access(&mut pass, 2, |c| *c), 7);
        arr.cp_write(4, 1);
        assert_eq!(arr.resident(), 5, "residency is a prefix");
        assert_eq!(arr.cp_read(3), 7);
        assert_eq!(arr.cp_read(4), 1);
        assert_eq!(arr.cp_read(7), 7);
        let mut pass = Pass::new(PassId(2), 0);
        assert_eq!(arr.access(&mut pass, 6, |c| *c), 7);
    }

    #[test]
    fn cp_fill_drops_the_resident_cells() {
        for mut arr in [
            RegisterArray::new("eager", 0, 6, 0u64),
            RegisterArray::unassigned("lazy", 0, 6, 0u64),
        ] {
            arr.make_resident(6);
            arr.cp_write(2, 3);
            arr.cp_fill(9);
            assert_eq!(arr.resident(), 0, "{}", arr.name());
            assert_eq!(arr.len(), 6);
            assert!((0..6).all(|i| arr.cp_read(i) == 9));
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn access_past_the_modelled_size_panics() {
        let mut arr = RegisterArray::unassigned("a", 0, 4, 0u64);
        let mut pass = Pass::new(PassId(1), 0);
        arr.access(&mut pass, 4, |_| ());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn cp_read_past_the_modelled_size_panics() {
        RegisterArray::unassigned("a", 0, 4, 0u64).cp_read(4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn cp_write_past_the_modelled_size_panics() {
        RegisterArray::unassigned("a", 0, 4, 0u64).cp_write(4, 1);
    }

    #[test]
    fn cp_write_clears_access_tracking() {
        let mut arr = RegisterArray::new("a", 0, 4, 0u64);
        let mut pass = Pass::new(PassId(1), 0);
        arr.access(&mut pass, 0, |c| *c += 1);
        arr.cp_write(0, 9);
        // A restarted pass allocator reuses id 1; the CP write must have
        // cleared the stale bookkeeping, exactly like cp_fill does.
        let mut pass = Pass::new(PassId(1), 0);
        arr.access(&mut pass, 0, |c| *c += 1);
        assert_eq!(arr.cp_read(0), 10);
    }

    #[test]
    fn access_records_into_attached_sink() {
        let sink = crate::analysis::trace::new_sink();
        let mut arr = RegisterArray::new("a", 2, 4, 0u64);
        let mut pass = Pass::new(PassId(7), 1);
        pass.set_sink(sink.clone());
        arr.access(&mut pass, 3, |c| *c += 1);
        // CP operations are PCIe traffic: never traced.
        arr.cp_write(0, 5);
        arr.cp_fill(0);
        let records = sink.lock().unwrap().take();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].array, arr.id());
        assert_eq!(records[0].name, "a");
        assert_eq!(records[0].stage, 2);
        assert_eq!(records[0].index, 3);
        assert_eq!(records[0].pass, PassId(7));
        assert_eq!(records[0].resubmit_depth, 1);
    }

    #[test]
    fn array_ids_are_unique_per_instance() {
        let a = RegisterArray::new("same", 0, 1, 0u64);
        let b = RegisterArray::new("same", 0, 1, 0u64);
        assert_ne!(a.id(), b.id(), "same name and stage, distinct identity");
    }

    #[test]
    fn cp_access_is_unconstrained() {
        let mut arr = RegisterArray::new("a", 0, 4, 7u64);
        // Many CP ops with no pass at all.
        for i in 0..4 {
            assert_eq!(arr.cp_read(i), 7);
            arr.cp_write(i, i as u64);
        }
        arr.cp_fill(9);
        assert!((0..4).all(|i| arr.cp_read(i) == 9));
        assert_eq!(arr.len(), 4);
        assert!(!arr.is_empty());
    }
}

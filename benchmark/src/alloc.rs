//! Counting global allocator for the replay probes.
//!
//! Wraps the system allocator and bumps a thread-local tally, so a
//! probe measures exactly the allocations of the thread running it
//! (the `sim.par` probe's worker threads do not leak into another
//! probe's count) and the timed reps pay one non-atomic increment per
//! allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers a dtor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn bump() {
    // `try_with`: the slot is unreachable only during thread teardown,
    // where the count no longer matters.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// Allocation calls made by this thread so far (monotone; diff it).
pub fn allocation_count() -> u64 {
    ALLOCATIONS.with(|c| c.get())
}

/// The counting allocator.
pub struct CountingAlloc;

// SAFETY: every method defers to `System`, which upholds the
// `GlobalAlloc` contract, with the caller's layout and pointer passed
// through unchanged; the only addition is a thread-local counter
// increment, which cannot affect the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }
}

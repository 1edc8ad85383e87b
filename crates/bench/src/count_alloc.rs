//! A counting global allocator: wraps the system allocator and keeps a
//! per-thread tally of allocation calls, so benches and tests can
//! *prove* a hot path is allocation-free rather than eyeball it.
//!
//! Install it in a binary or test with:
//!
//! ```text
//! #[global_allocator]
//! static ALLOC: netlock_bench::CountingAlloc = netlock_bench::CountingAlloc;
//! ```
//!
//! then bracket the region of interest with [`allocation_count`]:
//!
//! ```text
//! let before = allocation_count();
//! hot_loop();
//! assert_eq!(allocation_count() - before, 0);
//! ```
//!
//! `realloc` and `alloc_zeroed` count as allocations; `dealloc` does
//! not (freeing is not the hot-path sin being hunted). The counter is
//! thread-local and monotone: a reading counts only what the *calling*
//! thread allocated, so sibling tests, libtest's watchdog or any other
//! runtime thread cannot leak into a measured window. Always diff two
//! readings taken on the thread that runs the measured region.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor can fail at thread
    // teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocation calls made by the calling thread so far (monotone; diff it).
pub fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn bump() {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

/// The counting allocator. Zero-sized; see the module docs for usage.
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`, which upholds the `GlobalAlloc`
// contract; the only addition is a thread-local counter increment,
// which cannot affect the returned memory. `unsafe_code` is denied
// workspace-wide; this module is the one sanctioned exception, allowed
// explicitly here because a `GlobalAlloc` impl cannot be written
// without it.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Note: this test does NOT install the allocator (a test binary
    // can't, portably, without affecting every other test); it only
    // checks the counter plumbing. The real end-to-end proof lives in
    // the alloc-tracking integration tests (`tests/integration_alloc.rs`,
    // `tests/integration_txn.rs`), which do install it.
    #[test]
    fn counter_is_monotone() {
        let a = allocation_count();
        let b = allocation_count();
        assert!(b >= a);
    }
}

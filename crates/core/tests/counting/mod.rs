//! A counting global allocator for the allocation-budget test binaries.
//!
//! One test per binary on purpose: the allocator is process-global, and
//! the count is kept per thread so the harness's own threads cannot
//! perturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap acquisitions (alloc, alloc_zeroed, realloc) by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn tally() {
    // `try_with`: the allocator also runs during thread teardown, after
    // the thread's locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every operation delegates to `System` unchanged; only a
// const-initialised, destructor-free thread-local counter is layered on
// top, so counting itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: forwarded with the caller's layout, unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: forwarded with the caller's layout, unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread performs while running `f`.
pub fn count(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

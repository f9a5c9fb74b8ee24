//! A counting global allocator for debug-assert builds.
//!
//! The hot-loop work (arena-rebound [`propagation::link::PreparedLink`]s,
//! allocation-free probes, the SoA batch kernel) is only verifiable if the
//! repository can *count* allocations: "allocation-free" claimed in a doc
//! comment regresses silently, a counter asserted in CI does not.
//!
//! In builds with `debug_assertions` the [`CountingAllocator`] is installed
//! as the global allocator: every `alloc`/`alloc_zeroed`/`realloc` bumps a
//! counter owned by the allocating thread before deferring to the system
//! allocator. Release builds compile the hook out entirely — the system
//! allocator is used directly and [`enabled`] reports `false`, so perf
//! artifacts stamp `"allocs_per_tick": null` instead of a number measured
//! with counting overhead.
//!
//! The counter is thread-scoped: [`allocs_during`] counts the allocations
//! the calling thread makes inside its closure, so sibling threads (the
//! parallel test harness, worker pools) never pollute a measurement. Work
//! the closure hands to other threads is not counted.

// The one crate-sanctioned use of `unsafe`: `GlobalAlloc` is an unsafe
// trait by definition. Everything else in the workspace stays under
// `deny(unsafe_code)`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations this thread made since it started (debug-assert
    /// builds only; stays zero in release). Const-initialised with no
    /// destructor, so the allocator can bump it without allocating and at
    /// any point of the thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation call against the calling thread.
fn bump() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

/// System-allocator wrapper that counts allocation calls.
pub struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(debug_assertions)]
#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Whether allocation counting is compiled in (true in debug-assert
/// builds, false in release).
pub fn enabled() -> bool {
    cfg!(debug_assertions)
}

/// Allocation calls the calling thread has made so far (0 when counting
/// is compiled out).
pub fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Runs `f` and returns its result plus the number of allocation calls
/// the calling thread made inside it. Only meaningful when [`enabled`].
pub fn allocs_during<O>(f: impl FnOnce() -> O) -> (O, u64) {
    let before = alloc_count();
    let out = f();
    (out, alloc_count() - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_observes_a_heap_allocation() {
        let (_, n) = allocs_during(|| std::hint::black_box(Vec::<u64>::with_capacity(32)));
        if enabled() {
            assert!(n >= 1, "a fresh Vec allocation must be counted");
        } else {
            assert_eq!(n, 0);
        }
    }

    #[test]
    fn pure_arithmetic_is_allocation_free() {
        let (sum, n) = allocs_during(|| (0..1000u64).sum::<u64>());
        assert_eq!(sum, 499_500);
        if enabled() {
            assert_eq!(n, 0);
        }
    }
}

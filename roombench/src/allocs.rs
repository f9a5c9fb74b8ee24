//! A counting global allocator, local to this benchmark binary.
//!
//! It counts heap allocations (`alloc`, `alloc_zeroed`, `realloc`) only
//! while armed by [`count`], which the traced pass does around serial
//! job runs. Unarmed, it costs one relaxed load per allocation. Nothing
//! else links it: the library crates and their tests keep the system
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus an allocation counter.
pub struct Counting;

fn note() {
    if ARMED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting side touches
// only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller meets `alloc`'s contract, which `System` shares.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller meets `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` with the counter armed and returns its result with the
/// number of allocations made process-wide meanwhile. Callers run
/// nothing concurrently, so every counted allocation is `f`'s (helper
/// threads `f` spawns included).
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNT.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (out, COUNT.load(Ordering::SeqCst))
}

#[cfg(test)]
mod tests {
    // Only a lower bound: sibling tests run on parallel threads and may
    // allocate while the counter is armed.
    #[test]
    fn counts_allocations_made_while_armed() {
        let ((), n) = super::count(|| {
            std::hint::black_box(vec![1u8; 64]);
        });
        assert!(n >= 1);
    }
}

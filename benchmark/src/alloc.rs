//! A counting global allocator, behind `exec.allocs_per_request` and
//! `exec.alloc_bytes_per_request`. It forwards every call to the system
//! allocator and, only while [`count`] is running, adds to two relaxed
//! counters — one predictable branch per allocation otherwise, on request
//! paths that are allocation-free once warm.
//!
//! This is the one module of the benchmark that needs `unsafe`:
//! `GlobalAlloc` is an unsafe trait.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The allocator installed by `main.rs`.
pub struct CountingAlloc;

fn record(size: usize) {
    // Statistics only: the counters publish no other data.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, i.e. from
        // `System`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` and returns `(allocations, bytes requested)` made by the whole
/// process meanwhile. Call it while no other thread allocates.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (a0, b0) = (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed) - a0, BYTES.load(Ordering::Relaxed) - b0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn allocations_are_counted_only_while_counting() {
        let (v, allocs, bytes) = super::count(|| Vec::<u8>::with_capacity(4096));
        // Other test threads may allocate meanwhile: lower bounds only.
        assert!(allocs >= 1 && bytes >= 4096, "{allocs} allocations, {bytes} bytes");
        drop(v);
    }
}

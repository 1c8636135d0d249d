//! A counting allocator for `allocs_per_op`.
//!
//! Counting is gated by [`metered`] scopes so the untraced, gated runs
//! pay one relaxed load per allocation and nothing else. The counter is
//! process-wide on purpose: a federated or TCP op allocates on scatter
//! and connection threads too, and those allocations belong to the op.
//! The count is exact when one client runs ops one at a time; with two
//! clients their scopes overlap and each sees some of the other's
//! allocations, so `mixed_rw` reports it as approximate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static SCOPES: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

// SAFETY: every method forwards to `System` unchanged; the only addition
// is a relaxed counter bump, which allocates nothing and cannot unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if SCOPES.load(Ordering::Relaxed) > 0 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if SCOPES.load(Ordering::Relaxed) > 0 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` with allocation counting on.
pub fn metered<T>(f: impl FnOnce() -> T) -> T {
    SCOPES.fetch_add(1, Ordering::Relaxed);
    let out = f();
    SCOPES.fetch_sub(1, Ordering::Relaxed);
    out
}

/// Allocations counted so far, over every [`metered`] scope.
pub fn counted() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

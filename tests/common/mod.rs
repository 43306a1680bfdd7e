//! A counting global allocator for the tests that measure, not argue, what
//! a code path asks of the allocator. Each test binary that declares
//! `mod common;` gets its own recorder; it is process-wide, so such a
//! binary holds exactly one `#[test]`.

// Each binary reads the part of a measurement it is about.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LARGEST: AtomicUsize = AtomicUsize::new(0);
static TOTAL: AtomicUsize = AtomicUsize::new(0);
static BIG_AT: AtomicUsize = AtomicUsize::new(usize::MAX);
static BIG: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Recording;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only additions are relaxed atomic updates,
// which neither allocate nor unwind. `realloc` keeps its default (alloc +
// copy + dealloc), so growth is recorded too, at its full new size.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        TOTAL.fetch_add(layout.size(), Ordering::Relaxed);
        if layout.size() >= BIG_AT.load(Ordering::Relaxed) {
            BIG.fetch_add(1, Ordering::Relaxed);
        }
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Recording = Recording;

/// Bytes allocated and not yet freed, process-wide.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// What was requested from the allocator while a closure ran.
#[derive(Clone, Copy, Debug)]
pub struct Requests {
    /// Largest single request, bytes.
    pub largest: usize,
    /// Sum of all requests, bytes (a reallocation counts its new size).
    pub total: usize,
    /// Requests of at least the `big` bytes given to [`requests_during`].
    pub big: usize,
}

/// Run `work` and report what it requested; `big` is the size from which a
/// request is counted in [`Requests::big`].
pub fn requests_during<R>(big: usize, work: impl FnOnce() -> R) -> (Requests, R) {
    LARGEST.store(0, Ordering::Relaxed);
    TOTAL.store(0, Ordering::Relaxed);
    BIG.store(0, Ordering::Relaxed);
    BIG_AT.store(big, Ordering::Relaxed);
    let result = work();
    let requests = Requests {
        largest: LARGEST.load(Ordering::Relaxed),
        total: TOTAL.load(Ordering::Relaxed),
        big: BIG.load(Ordering::Relaxed),
    };
    BIG_AT.store(usize::MAX, Ordering::Relaxed);
    (requests, result)
}

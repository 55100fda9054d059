//! A counting `#[global_allocator]` for the `layers` binary only: live
//! and peak heap bytes, switched on just around the one replay that
//! reports `mem.peak_live_mb`. Off, it adds one relaxed load per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counters
// are statistics (relaxed atomics) that no allocation decision reads.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is `System.alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ON.load(Ordering::Relaxed) {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Ordering::Relaxed) {
            // Blocks allocated before counting began may be freed while
            // it is on; saturate instead of wrapping below zero.
            let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
                Some(live.saturating_sub(layout.size()))
            });
        }
        // SAFETY: `ptr` came from `alloc` above with this `layout`, i.e.
        // from `System.alloc`, as `System.dealloc` requires.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Zeroes the counters and switches counting on.
pub fn start_counting() {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
}

/// Switches counting off and returns the peak live bytes seen.
pub fn stop_counting() -> usize {
    ON.store(false, Ordering::Relaxed);
    PEAK.load(Ordering::Relaxed)
}

//! Memory contract of `Rng::sample_indices`: drawing `k` clients out of a
//! census-sized population asks the allocator for O(k) bytes — the
//! result and the map of displaced slots — not the 8 MB index vector a
//! dense partial Fisher–Yates over a million slots fills.
//!
//! Lives alone in its integration binary: the counting allocator below is
//! process-wide, and another test allocating concurrently would be
//! counted.

use ecofl_util::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter is
// a statistic (relaxed atomic) that no allocation decision reads.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is `System.alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator with `layout`, i.e. from
        // `System`, and the caller upholds the rest of `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`, i.e. from
        // `System`, as `System.dealloc` requires.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes requested from the allocator by one `sample_indices(n, k)`.
fn bytes_of_sample(n: usize, k: usize) -> usize {
    let mut rng = Rng::new(29);
    let before = BYTES.load(Ordering::Relaxed);
    let picked = std::hint::black_box(rng.sample_indices(n, k));
    let after = BYTES.load(Ordering::Relaxed);
    assert_eq!(picked.len(), k);
    after - before
}

#[test]
fn sampling_a_census_allocates_for_the_picks_not_the_population() {
    const N: usize = 1_000_000;
    for k in [0, 1, 20, 1000] {
        let bytes = bytes_of_sample(N, k);
        println!("sample_indices({N}, {k}): {bytes} B");
        // The 8-byte result slots plus a hash map sized for k entries
        // (16-byte entries, a control byte, 7/8 load, power-of-two
        // rounding: at most ≈ 40 B an entry, plus a fixed header).
        assert!(
            bytes <= 64 * k + 1024,
            "sample_indices({N}, {k}) allocated {bytes} B — the dense index vector is {} B",
            8 * N
        );
    }
}

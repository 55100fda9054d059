//! Memory contract of the shared-histogram grouper: building it over a
//! shard-virtualised population costs a few machine words per client,
//! not a label histogram (or two) per client.
//!
//! Lives alone in its integration binary: the counting allocator below
//! is process-wide, and another test allocating concurrently would show
//! up in the peak.

use ecofl_grouping::{Grouper, GroupingConfig, GroupingStrategy};
use ecofl_util::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: both methods forward to `System` with the caller's arguments
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

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn shared_rows_grouper_costs_words_per_client_not_histograms() {
    const CLIENTS: usize = 200_000;
    const SHARDS: usize = 64;
    const BYTES_PER_CLIENT: usize = 96;

    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);

    // The inputs count: the grouper keeps them.
    let mut rng = Rng::new(3);
    let latencies: Vec<f64> = (0..CLIENTS).map(|_| rng.range_f64(5.0, 150.0)).collect();
    let rows: Vec<Vec<f64>> = (0..SHARDS)
        .map(|s| {
            let mut row = vec![0.0; 10];
            row[s % 10] += 30.0;
            row[(s * 7 + 3) % 10] += 30.0;
            row
        })
        .collect();
    let row_of: Vec<u32> = (0..CLIENTS).map(|i| (i % SHARDS) as u32).collect();
    let config = GroupingConfig {
        num_groups: 5,
        strategy: GroupingStrategy::EcoFl { lambda: 1000.0 },
        rt_relative: 0.6,
        rt_min: 5.0,
        assign_batch: 8192,
    };
    let grouper = Grouper::initial_shared(latencies, rows, row_of, config, &mut rng);

    ON.store(false, Ordering::Relaxed);
    let peak = PEAK.load(Ordering::Relaxed);

    let grouped: usize = grouper.groups().iter().map(|g| g.len()).sum();
    assert_eq!(grouped + grouper.num_dropped(), CLIENTS);
    assert!(grouped > CLIENTS / 2, "only {grouped} clients grouped");
    assert!(
        peak <= BYTES_PER_CLIENT * CLIENTS,
        "building the grouper peaked at {} B per client, over the {BYTES_PER_CLIENT} B bound — \
         one label histogram per client is 100+ B",
        peak / CLIENTS
    );
}

//! Memory contract of the latency model: a client costs its base delay
//! (8 B) and a one-byte index into the model's degree table, not a
//! second `f64` for its collaborative degree.
//!
//! Lives alone in its integration binary: the counting allocator below
//! is process-wide, and another test allocating concurrently would show
//! up in the peak.

use ecofl_fl::config::DynamicsConfig;
use ecofl_fl::latency::LatencyModel;
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
fn latency_model_costs_a_delay_and_a_degree_byte_per_client() {
    const CLIENTS: usize = 200_000;
    // Base delay 8 B + degree index 1 B, and 1 B of slack: a per-client
    // `f64` degree (16 B in all) crosses it.
    const BYTES_PER_CLIENT: usize = 10;

    let degrees = [0.2, 0.4, 0.6, 0.8, 1.0];
    let dynamics = DynamicsConfig {
        change_prob: 0.5,
        degrees: degrees.to_vec(),
    };
    let mut rng = Rng::new(11);

    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);

    let mut model = LatencyModel::sample(CLIENTS, 30.0, 10.0, &degrees, Some(dynamics), &mut rng);
    // Resampling degrees moves indices in place; it allocates nothing.
    let changed = (0..CLIENTS)
        .filter(|&c| model.maybe_perturb(c, &mut rng))
        .count();

    ON.store(false, Ordering::Relaxed);
    let peak = PEAK.load(Ordering::Relaxed);

    assert_eq!(model.len(), CLIENTS);
    assert!(changed > CLIENTS / 4, "only {changed} degrees moved");
    assert!(degrees.contains(&model.degree(CLIENTS - 1)));
    assert!(
        peak <= BYTES_PER_CLIENT * CLIENTS,
        "the latency model peaked at {:.2} B per client, over the {BYTES_PER_CLIENT} B budget \
         (base delay 8 + degree index 1, plus slack)",
        peak as f64 / CLIENTS as f64
    );
}

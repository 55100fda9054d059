//! Allocation contract of the training step: in steady state one SGD step
//! of `local_train` — gather, forward, loss, backward, optimizer — asks the
//! allocator for (next to) nothing. Every buffer is recycled: the epoch
//! order, the feature tensor and the label vector in `local_train`, the
//! activations and masks inside the layers, the logits the loss head
//! writes its gradient over, the parameters SGD steps where they live.
//!
//! The per-call cost (building the model, the first step's buffers, the
//! returned parameter vector) cancels out of the difference between a
//! 13-epoch and a 3-epoch call; what is left is per step. Before the
//! by-value `Layer` API the same measurement read 44.3 allocations per
//! step.
//!
//! Lives alone in its integration binary: the counting allocator below is
//! process-wide, and another test allocating concurrently would be
//! counted.

use ecofl_data::SyntheticSpec;
use ecofl_fl::client::{local_train, LocalTrainConfig};
use ecofl_models::ModelArch;
use ecofl_util::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter is
// a statistic (relaxed atomic) that no allocation decision reads.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is `System.alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

const SAMPLES: usize = 60;
/// Steady-state allocator calls (alloc, zeroed alloc or realloc) per step.
const MAX_PER_STEP: f64 = 1.0;

/// Allocator calls of one `local_train` call of `epochs` epochs.
fn allocations(batch_size: usize, epochs: usize) -> usize {
    let spec = SyntheticSpec::mnist_like();
    let data = spec
        .prototypes(1)
        .sample_balanced(SAMPLES / spec.num_classes, &mut Rng::new(2));
    assert_eq!(data.len(), SAMPLES);
    let arch = ModelArch::Mlp;
    let start = arch
        .build(spec.feature_dim, spec.num_classes, &mut Rng::new(3))
        .params();
    let cfg = LocalTrainConfig {
        epochs,
        batch_size,
        lr: 0.05,
        mu: 0.05,
    };
    let mut rng = Rng::new(11);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let update = local_train(arch, &start, &data, &cfg, &mut rng);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(update.final_loss.is_finite());
    after - before
}

#[test]
fn a_steady_state_sgd_step_allocates_next_to_nothing() {
    // Batch 10 divides the 60 samples; batch 7 ends every epoch on a
    // ragged batch of 4, which must resize the buffers, not replace them.
    for batch_size in [10, 7] {
        let [one, three, thirteen] = [1, 3, 13].map(|e| allocations(batch_size, e));
        let steps_per_epoch = SAMPLES.div_ceil(batch_size);
        let per_step = thirteen.saturating_sub(three) as f64 / (10 * steps_per_epoch) as f64;
        println!(
            "batch {batch_size}: {one} / {three} / {thirteen} allocator calls at 1 / 3 / 13 epochs, {per_step:.2} per steady-state step"
        );
        assert!(
            per_step <= MAX_PER_STEP,
            "batch {batch_size}: {per_step:.2} allocations per SGD step (1 / 3 / 13 epochs: {one} / {three} / {thirteen})"
        );
        // The first epoch pays for the buffers, the others reuse them.
        assert!(
            three.saturating_sub(one) as f64 <= MAX_PER_STEP * (2 * steps_per_epoch) as f64,
            "batch {batch_size}: epochs 2–3 allocated {} times",
            three.saturating_sub(one)
        );
    }
}

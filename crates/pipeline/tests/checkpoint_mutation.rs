//! Mutation harness for the checkpoint decoder, as hostile-input hardening,
//! after `crates/obs/tests/block_mutation.rs`.
//!
//! A checkpoint payload comes from a disk. Cut short at any offset, with
//! any header bit or a seeded sample of body bits flipped, with the stage
//! count or any stage length inflated up to `u64::MAX`,
//! `CheckpointRecord::decode` answers `Err(CheckpointStore)` or a record
//! whose `stage_lens` sum to `params.len()`; never a panic, and never an
//! allocation sized by a number the payload's own length has not bounded.
//!
//! Cases are seeded through `ecofl_compat::check`, so `ECOFL_CHECK_CASES`
//! scales the run (CI raises it, optimized) and a failure names its seed.
//!
//! One `#[test]` only: the allocator below is process-wide, and a second
//! test allocating on another thread would be measured too.

use ecofl_compat::check::{self, CheckRng};
use ecofl_pipeline::executor::ExecError;
use ecofl_pipeline::runtime::CheckpointRecord;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Largest single request since the last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Tracking;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the maximum is
// a statistic (relaxed atomic) that no allocation decision reads.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is `System.alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
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
static ALLOCATOR: Tracking = Tracking;

/// The declared cap on any one allocation while decoding `len` payload
/// bytes: the parameter vector and the stage lengths are each no larger
/// than the bytes they are read from; the slack covers an error message.
fn allocation_cap(len: usize) -> usize {
    2 * len + 512
}

/// Byte offsets of the header: version, seq, round, the stage count, then
/// one length per stage.
const NSTAGES_AT: usize = 20;
const LENS_AT: usize = 28;

/// Decodes `payload` under the harness's demands; `what` describes the
/// mutation if one of them fails.
fn probe(payload: &[u8], what: impl Fn() -> String) -> Option<CheckpointRecord> {
    LARGEST.store(0, Ordering::Relaxed);
    let outcome = std::panic::catch_unwind(|| CheckpointRecord::decode(payload));
    let largest = LARGEST.load(Ordering::Relaxed);
    let Ok(result) = outcome else {
        panic!("{}: the decoder panicked", what());
    };
    assert!(
        largest <= allocation_cap(payload.len()),
        "{}: one allocation of {largest} bytes decoding a {}-byte payload",
        what(),
        payload.len()
    );
    match result {
        Ok(record) => {
            // A record `stage_params` and `recover` can work with.
            let total = record
                .stage_lens
                .iter()
                .try_fold(0usize, |sum, &len| sum.checked_add(len));
            assert_eq!(total, Some(record.params.len()), "{}", what());
            let stages = record.stage_params().expect("a decoded record splits");
            assert_eq!(stages.len(), record.stage_lens.len());
            Some(record)
        }
        Err(ExecError::CheckpointStore { .. }) => None,
        Err(other) => panic!("{}: untyped error {other:?}", what()),
    }
}

fn with_word(payload: &[u8], at: usize, value: u64) -> Vec<u8> {
    let mut out = payload.to_vec();
    out[at..at + 8].copy_from_slice(&value.to_le_bytes());
    out
}

fn mutate(label: &str, record: &CheckpointRecord, rng: &mut CheckRng) {
    let payload = record.encode();
    let intact = probe(&payload, || format!("{label}: intact"));
    assert_eq!(intact.as_ref(), Some(record), "{label}: intact payload");

    for cut in 0..payload.len() {
        let got = probe(&payload[..cut], || format!("{label}: cut at {cut}"));
        assert!(got.is_none(), "{label}: cut at {cut} decoded");
    }
    let mut longer = payload.clone();
    longer.push(0);
    assert!(probe(&longer, || format!("{label}: one byte appended")).is_none());

    // Every bit of the header (through the tensor's rank and dimension),
    // and a seeded sample of the parameter bits behind it.
    let header = LENS_AT + 8 * record.stage_lens.len() + 16;
    assert_eq!(header + 4 * record.params.len(), payload.len());
    let body_flips = if payload.len() > header { 256 } else { 0 };
    let flips: Vec<(usize, u32)> = (0..header)
        .flat_map(|at| (0..8).map(move |bit| (at, bit)))
        .chain((0..body_flips).map(|_| {
            let at = header + rng.below((payload.len() - header) as u64) as usize;
            (at, rng.below(8) as u32)
        }))
        .collect();
    let mut flipped = payload.clone();
    for (at, bit) in flips {
        flipped[at] ^= 1 << bit;
        let got = probe(&flipped, || {
            format!("{label}: bit {bit} of byte {at} flipped")
        });
        // Version, stage count, lengths, rank and dimension are all
        // checked against each other; seq, round and parameters are data.
        let data = (4..NSTAGES_AT).contains(&at) || at >= header;
        assert_eq!(got.is_some(), data, "{label}: bit {bit} of byte {at}");
        flipped[at] ^= 1 << bit;
    }

    // Nothing in a payload can count more than its bytes.
    let counts = std::iter::once(("stage count".to_string(), NSTAGES_AT)).chain(
        (0..record.stage_lens.len()).map(|s| (format!("stage {s} length"), LENS_AT + 8 * s)),
    );
    for (field, at) in counts {
        for value in [
            u64::MAX,
            u64::MAX >> 1,
            1 << 62,
            1 << 61,
            1 << 40,
            payload.len() as u64,
        ] {
            let inflated = with_word(&payload, at, value);
            let got = probe(&inflated, || format!("{label}: {field} set to {value}"));
            assert!(got.is_none(), "{label}: {field} set to {value} decoded");
        }
    }
}

#[test]
fn mutated_checkpoints_yield_a_typed_error_or_a_consistent_record_never_a_panic() {
    check::forall("checkpoint mutations", 2, &check::any_u64(), |&seed| {
        let mut rng = CheckRng::new(seed);
        // No stages at all, one, and a few with an empty one among them.
        for stages in [0, 1, 2 + rng.below(5) as usize] {
            let stage_lens: Vec<usize> = (0..stages)
                .map(|s| if s == 1 { 0 } else { rng.below(40) as usize })
                .collect();
            let params = (0..stage_lens.iter().sum())
                .map(|_| f32::from_bits(rng.next_u64() as u32))
                // `intact` compares records with `==`.
                .map(|p| if p.is_nan() { 0.0 } else { p })
                .collect();
            let record = CheckpointRecord {
                seq: rng.next_u64(),
                round: rng.next_u64(),
                stage_lens,
                params,
            };
            mutate(
                &format!("seed {seed:#x}, {stages} stages"),
                &record,
                &mut rng,
            );
        }
    });
}

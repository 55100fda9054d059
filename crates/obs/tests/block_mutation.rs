//! Mutation harness for the trace block decoder, as hostile-input hardening.
//!
//! A block payload comes from a disk. Whatever a disk can do to one —
//! cut it short, flip a bit, glue two together, make a length field
//! claim the moon — `jsonl_to_records` (the one block decoder: columnar
//! blocks by their tag, JSONL text otherwise) answers with
//! `Err(InvalidData)` or a record list; never a panic, and never an
//! allocation sized by a number the payload's own length has not bounded.
//!
//! Payloads are real: written through `RunStore::append`, read back raw
//! with `Segment::read_block`. Blocks of 1 / 7 / 512 records, mixed and
//! of each single shape (plus the hand-written empty block), each go
//! through: truncation at every offset; every bit of the first and last
//! 64 bytes flipped, and a seeded sample of the bits between; seeded
//! splices with a second valid block; `n`, the dictionary size and a
//! name length inflated up to `u64::MAX`.
//!
//! Cases are seeded through `ecofl_compat::check`, so `ECOFL_CHECK_CASES`
//! scales the run (CI raises it, optimized) and a failure names its seed.
//!
//! One `#[test]` only: the allocator below is process-wide, and a second
//! test allocating on another thread would be measured too.

mod common;

use common::{gen_record_of, temp_dir};
use ecofl_compat::check::{self, CheckRng};
use ecofl_obs::store::{jsonl_to_records, summarize, TRACE_SEGMENT};
use ecofl_obs::{RecordKind, RunStore, TraceRecord};
use ecofl_store::Segment;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::ErrorKind;
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
/// bytes. A record costs at least 17 payload bytes and 56 in memory, so
/// the record vector is under 3.3 × `len`; a name is a slice of the
/// payload; the slack covers error messages and the JSON parser's nodes.
fn allocation_cap(len: usize) -> usize {
    4 * len + 1024
}

/// Decodes `payload` under the harness's three demands; `what` describes
/// the mutation if one of them fails.
fn probe(payload: &[u8], what: impl Fn() -> String) -> Option<Vec<TraceRecord>> {
    LARGEST.store(0, Ordering::Relaxed);
    let outcome = std::panic::catch_unwind(|| jsonl_to_records(payload));
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
        Ok(records) => {
            // A list the rest of the store can work with.
            assert!(records.len() <= payload.len() / 17, "{}", what());
            assert_eq!(summarize(&records).count, records.len() as u64);
            Some(records)
        }
        Err(e) => {
            assert_eq!(e.kind(), ErrorKind::InvalidData, "{}: {e}", what());
            None
        }
    }
}

/// Writes each batch as one block of a fresh store and returns the raw
/// block payloads, as `Segment::read_block` hands them to the decoder.
fn payloads_of(batches: &[&[TraceRecord]]) -> Vec<Vec<u8>> {
    let dir = temp_dir("block-mutation");
    let mut store = RunStore::create(&dir).unwrap().with_block_records(512);
    for batch in batches {
        assert!((1..=512).contains(&batch.len()));
        store.append(batch).unwrap();
    }
    store.flush().unwrap();
    drop(store);
    let segment = Segment::open(dir.join(TRACE_SEGMENT)).unwrap();
    assert_eq!(segment.block_count(), batches.len());
    let payloads = (0..batches.len())
        .map(|i| segment.read_block(i).unwrap())
        .collect();
    drop(segment);
    std::fs::remove_dir_all(&dir).ok();
    payloads
}

/// `payload` with the varint at `at` replaced by `value`'s encoding.
fn with_varint(payload: &[u8], at: usize, value: u64) -> Vec<u8> {
    let old_len = payload[at..].iter().position(|b| b & 0x80 == 0).unwrap() + 1;
    let mut out = payload[..at].to_vec();
    let mut v = value;
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out.extend_from_slice(&payload[at + old_len..]);
    out
}

fn varint_len(value: usize) -> usize {
    with_varint(&[0], 0, value as u64).len()
}

fn mutate(label: &str, records: &[TraceRecord], payload: &[u8], other: &[u8], rng: &mut CheckRng) {
    assert_eq!(payload[0], 0xC1, "{label}: blocks are written columnar");
    let intact = probe(payload, || format!("{label}: intact"));
    assert_eq!(intact.as_deref(), Some(records), "{label}: intact block");

    for cut in 0..payload.len() {
        probe(&payload[..cut], || format!("{label}: cut at {cut}"));
    }

    let len = payload.len();
    let edges = (0..len.min(64)).chain(len.saturating_sub(64).max(64)..len);
    let flips: Vec<(usize, u32)> = edges
        .flat_map(|at| (0..8).map(move |bit| (at, bit)))
        .chain((0..256).map(|_| (rng.below(len as u64) as usize, rng.below(8) as u32)))
        .collect();
    let mut flipped = payload.to_vec();
    for (at, bit) in flips {
        flipped[at] ^= 1 << bit;
        probe(&flipped, || {
            format!("{label}: bit {bit} of byte {at} flipped")
        });
        flipped[at] ^= 1 << bit;
    }

    let mut glued = payload.to_vec();
    glued.extend_from_slice(other);
    assert!(probe(&glued, || format!("{label}: two blocks glued")).is_none());
    for _ in 0..64 {
        let head = rng.below(len as u64 + 1) as usize;
        let tail = rng.below(other.len() as u64 + 1) as usize;
        let mut spliced = payload[..head].to_vec();
        spliced.extend_from_slice(&other[tail..]);
        probe(&spliced, || {
            format!("{label}: first {head} bytes + other from {tail}")
        });
    }

    // `n` follows the tag and version bytes. Past its shape column a
    // block without spans or events has no entity / round / micro
    // columns, so the dictionary size comes next, then the first name's
    // length.
    let mut fields = vec![("n", 2)];
    if records
        .iter()
        .all(|r| matches!(r, TraceRecord::Counter(_) | TraceRecord::Gauge(_)))
    {
        let names = 2 + varint_len(records.len()) + records.len();
        fields.push(("dictionary size", names));
        fields.push(("first name length", names + 1));
        assert!(payload[names] < 0x80, "{label}: under 128 names");
    }
    for (field, at) in fields {
        // Nothing in a block can count or measure more than its bytes.
        for value in [u64::MAX, u64::MAX >> 1, 1 << 40, 1 << 20, len as u64 + 1] {
            let inflated = with_varint(payload, at, value);
            let got = probe(&inflated, || format!("{label}: {field} set to {value}"));
            assert!(got.is_none(), "{label}: {field} set to {value} decoded");
        }
    }
}

#[test]
fn mutated_blocks_yield_invalid_data_or_records_never_a_panic_or_a_big_allocation() {
    // The empty block cannot come from `append` (no records, no block).
    let empty = [0xC1, 1, 0, 0];
    assert_eq!(probe(&empty, || "empty block".into()), Some(Vec::new()));
    for cut in 0..empty.len() {
        probe(&empty[..cut], || format!("empty block cut at {cut}"));
    }
    for value in [1, 512, u64::MAX] {
        let inflated = with_varint(&empty, 2, value);
        assert!(probe(&inflated, || format!("empty block, n = {value}")).is_none());
    }

    let shapes = [
        ("mixed", None),
        ("spans", Some(RecordKind::Span)),
        ("events", Some(RecordKind::Event)),
        ("counters", Some(RecordKind::Counter)),
        ("gauges", Some(RecordKind::Gauge)),
    ];
    check::forall("block mutations", 1, &check::any_u64(), |&seed| {
        let mut rng = CheckRng::new(seed);
        let full: Vec<Vec<TraceRecord>> = shapes
            .iter()
            .map(|&(_, only)| check::vec_exact(gen_record_of(only), 512).sample(&mut rng))
            .collect();
        let batches: Vec<(String, &[TraceRecord])> = shapes
            .iter()
            .zip(&full)
            .flat_map(|(&(name, _), records)| {
                [1, 7, 512].map(|n| (format!("seed {seed:#x}, {n} {name}"), &records[..n]))
            })
            .collect();
        let slices: Vec<&[TraceRecord]> = batches.iter().map(|&(_, b)| b).collect();
        let payloads = payloads_of(&slices);
        for (i, (label, records)) in batches.iter().enumerate() {
            // Splice partner: the next block round the ring, so sizes and
            // shapes cross.
            let other = &payloads[(i + 4) % payloads.len()];
            mutate(label, records, &payloads[i], other, &mut rng);
        }
    });
}

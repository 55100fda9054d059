//! Mutation harness for whole run stores, as hostile-input hardening.
//!
//! `block_mutation.rs` holds the block decoder to its contract; this
//! suite does the same one level up, for the bytes of a `trace.seg` file
//! as a disk hands them to `RunStore::open` and `RunStore::scan`. Each
//! mutated file goes through open and a match-all scan, which decodes
//! every block, and must come back as records or as a typed error
//! (`InvalidData`, or `UnexpectedEof` for a read past the end) — never a
//! panic, never an allocation the file's own length has not bounded, and
//! within a watchdog.
//!
//! The store is real: seeded records of all four shapes, written through
//! `RunStore::append` in several blocks. The mutations:
//! - the file truncated at every offset, each of which open refuses;
//! - every bit of the footer and the trailer flipped;
//! - every ordered pair of blocks spliced (one block's bytes over
//!   another's), plus seeded head / tail splices.
//!
//! One `#[test]` only: the allocator below is process-wide, and a second
//! test allocating on another thread would be measured too.

mod common;

use common::{gen_record, temp_dir};
use ecofl_compat::check::{self, CheckRng};
use ecofl_obs::store::{CHECKPOINT_SEGMENT, TRACE_SEGMENT};
use ecofl_obs::{RunStore, TraceQuery, TraceRecord};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::ErrorKind;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

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

/// Records per block of the store under test.
const BLOCK_RECORDS: usize = 16;

/// The declared cap on any one allocation while opening and scanning a
/// `len`-byte segment: the LZ layer refuses a raw length past what its
/// stream can expand to (under 86 × its bytes) and the block decoder
/// holds under 4 × a payload, so a few hundred times the file bounds
/// every buffer; the slack covers paths and error messages.
fn allocation_cap(len: usize) -> usize {
    512 * len + 64 * 1024
}

/// The case directory's trace segment replaced by `bytes`.
fn write_case(dir: &Path, intact: &Path, bytes: &[u8]) {
    std::fs::write(dir.join(TRACE_SEGMENT), bytes).unwrap();
    std::fs::copy(
        intact.join(CHECKPOINT_SEGMENT),
        dir.join(CHECKPOINT_SEGMENT),
    )
    .unwrap();
}

/// Opens the store at `dir` and scans all of it, under the harness's
/// demands; `what` describes the mutation if one of them fails. Returns
/// the records, or `None` for a typed error.
fn probe(dir: &Path, len: usize, what: impl Fn() -> String) -> Option<Vec<TraceRecord>> {
    LARGEST.store(0, Ordering::Relaxed);
    let outcome = std::panic::catch_unwind(|| {
        let store = RunStore::open(dir)?;
        let mut records = Vec::new();
        store.scan(&TraceQuery::new(), |r| records.push(r))?;
        Ok::<_, std::io::Error>(records)
    });
    let largest = LARGEST.load(Ordering::Relaxed);
    let Ok(result) = outcome else {
        panic!("{}: open or scan panicked", what());
    };
    assert!(
        largest <= allocation_cap(len),
        "{}: one allocation of {largest} bytes for a {len}-byte segment",
        what()
    );
    match result {
        Ok(records) => Some(records),
        Err(e) => {
            assert!(
                matches!(e.kind(), ErrorKind::InvalidData | ErrorKind::UnexpectedEof),
                "{}: untyped error {e}",
                what()
            );
            None
        }
    }
}

/// Every mutation of one seeded store.
fn mutate(seed: u64) {
    let mut rng = CheckRng::new(seed);
    let records = check::vec_exact(gen_record(), 5 * BLOCK_RECORDS + 3).sample(&mut rng);
    let intact = temp_dir("store-mutation-intact");
    let blocks: Vec<(usize, usize)> = {
        let mut store = RunStore::create(&intact)
            .unwrap()
            .with_block_records(BLOCK_RECORDS);
        store.append(&records).unwrap();
        store.flush().unwrap();
        (store.trace_blocks().iter())
            .map(|b| (b.offset as usize, b.comp_len as usize))
            .collect()
    };
    let bytes = std::fs::read(intact.join(TRACE_SEGMENT)).unwrap();
    let len = bytes.len();
    let case = temp_dir("store-mutation-case");
    let label = |what: String| format!("seed {seed:#x}: {what}");

    write_case(&case, &intact, &bytes);
    let back = probe(&case, len, || label("intact".into()));
    assert_eq!(
        back.as_deref(),
        Some(&records[..]),
        "seed {seed:#x}: intact"
    );

    for cut in 0..len {
        write_case(&case, &intact, &bytes[..cut]);
        let got = probe(&case, cut, || label(format!("cut at {cut}")));
        assert!(got.is_none(), "seed {seed:#x}: a store cut at {cut} opened");
    }

    // The footer starts where the last block ends; the trailer is the
    // last 12 bytes.
    let (last_offset, last_len) = blocks[blocks.len() - 1];
    let footer_start = last_offset + last_len;
    let mut flipped = bytes.clone();
    for at in footer_start..len {
        for bit in 0..8 {
            flipped[at] ^= 1 << bit;
            write_case(&case, &intact, &flipped);
            probe(&case, len, || {
                label(format!("bit {bit} of byte {at} flipped"))
            });
            flipped[at] ^= 1 << bit;
        }
    }

    let spliced_case = |spliced: &[u8], what: String| {
        assert_eq!(spliced.len(), len);
        write_case(&case, &intact, spliced);
        probe(&case, len, || label(what.clone()));
    };
    for (i, &(at, n)) in blocks.iter().enumerate() {
        for (j, &(from, m)) in blocks.iter().enumerate() {
            if i == j {
                continue;
            }
            // Block j's bytes over block i's, cut or padded with block i's
            // own tail to block i's length.
            let mut spliced = bytes.clone();
            let k = n.min(m);
            spliced[at..at + k].copy_from_slice(&bytes[from..from + k]);
            spliced_case(&spliced, format!("block {j} over block {i}"));
            // A seeded head of block i, then block j from a seeded point.
            let head = rng.below(n as u64 + 1) as usize;
            let tail = rng.below(m as u64 + 1) as usize;
            let k = (n - head).min(m - tail);
            let mut spliced = bytes.clone();
            spliced[at + head..at + head + k].copy_from_slice(&bytes[from + tail..from + tail + k]);
            spliced_case(
                &spliced,
                format!("block {i}'s first {head} bytes, then block {j} from {tail}"),
            );
        }
    }
    std::fs::remove_dir_all(&case).ok();
    std::fs::remove_dir_all(&intact).ok();
}

#[test]
fn mutated_stores_open_and_scan_to_records_or_a_typed_error_never_a_panic() {
    // On a worker thread under a watchdog: a loop that a mutated footer
    // or block could stall fails the test instead of hanging it.
    let (done, finished) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        check::forall("store mutations", 1, &check::any_u64(), |&seed| {
            mutate(seed)
        });
        done.send(()).ok();
    });
    match finished.recv_timeout(Duration::from_secs(600)) {
        Ok(()) => worker.join().unwrap(),
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            // The worker failed a check: its panic carries the message.
            std::panic::resume_unwind(worker.join().unwrap_err())
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("store mutations still running after 600 s")
        }
    }
}

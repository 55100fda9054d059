//! A run store written before the columnar block codec existed stays a
//! first-class store.
//!
//! `fixtures/legacy_store/` was written by the `ecofl` binary of the
//! commit *before* the codec landed (d2231b5), whose trace blocks are
//! JSONL text inside LZ:
//!
//! ```text
//! ecofl trace --model effnet-b4 --devices tx2q,tx2n,nanoh,nanoh --mbs 4 \
//!     --micro-batches 2 --rounds 2 --schedule zb --block-records 16 --store S
//! ecofl trace --scenario fl --clients 6 --horizon 60 --block-records 16 \
//!     --store S --out legacy_store.jsonl
//! ```
//!
//! 108 records of all four shapes in 8 blocks, and beside it the JSONL
//! that binary exported from it. The format is chosen per block payload,
//! so this build must read it, encode its records as that JSONL byte for
//! byte, prune it, and append columnar blocks behind the JSONL ones.

mod common;

use ecofl_compat::check;
use ecofl_obs::store::records_to_jsonl;
use ecofl_obs::{RecordKind, RunStore, TraceQuery};
use ecofl_store::Segment;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Opening a segment re-seals it, so each test works on its own copy.
fn copy_of_fixture(tag: &str) -> PathBuf {
    let dir = common::temp_dir(tag);
    for seg in ["trace.seg", "checkpoints.seg", "metrics.seg"] {
        std::fs::copy(fixture("legacy_store").join(seg), dir.join(seg)).unwrap();
    }
    dir
}

#[test]
fn the_fixture_really_is_jsonl_inside_lz() {
    let dir = copy_of_fixture("payload");
    let segment = Segment::open(dir.join("trace.seg")).unwrap();
    assert_eq!(segment.block_count(), 8);
    for i in 0..segment.block_count() {
        let payload = segment.read_block(i).unwrap();
        assert!(payload.starts_with(b"{\""), "block {i} is not JSONL text");
    }
    drop(segment);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn legacy_store_opens_exports_and_answers_queries() {
    let dir = copy_of_fixture("read");
    let store = RunStore::open(&dir).unwrap();
    assert_eq!(store.record_count(), 108);

    assert_eq!(
        records_to_jsonl(&store.records().unwrap()).unwrap(),
        std::fs::read(fixture("legacy_store.jsonl")).unwrap(),
        "JSONL differs from what the writing binary exported"
    );

    // What that binary printed for `trace --store S --rounds 1..2`.
    let round_1 = store.query(&TraceQuery::new().rounds(1..2)).unwrap();
    assert_eq!((round_1.blocks_decoded, round_1.blocks_total), (5, 8));
    assert_eq!(round_1.records.len(), 38);
    for kind in [
        RecordKind::Span,
        RecordKind::Event,
        RecordKind::Counter,
        RecordKind::Gauge,
    ] {
        let of_kind = store.query(&TraceQuery::new().kind(kind)).unwrap();
        assert!(!of_kind.records.is_empty(), "no {kind:?} in the fixture");
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scan_over_jsonl_blocks_visits_what_every_reader_returns() {
    let dir = copy_of_fixture("one-loop");
    let store = RunStore::open(&dir).unwrap();
    let gen = check::vec_in(common::gen_query(), 1, 8);
    check::forall("legacy scan == query == records", 20, &gen, |queries| {
        for query in queries {
            common::assert_scan_is_the_one_loop(&store, query);
        }
    });
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn columnar_blocks_append_behind_jsonl_blocks() {
    let dir = copy_of_fixture("append");
    let old = RunStore::open(&dir).unwrap().records().unwrap();
    {
        let mut store = RunStore::open_or_create(&dir)
            .unwrap()
            .with_block_records(16);
        store.append(&old).unwrap();
        store.flush().unwrap();
    }

    // One segment, both payload formats, in append order.
    let segment = Segment::open(dir.join("trace.seg")).unwrap();
    let tags: Vec<u8> = (0..segment.block_count())
        .map(|i| segment.read_block(i).unwrap()[0])
        .collect();
    assert_eq!(tags.len(), 8 + 7);
    assert!(tags[..8].iter().all(|&t| t == b'{'));
    assert!(tags[8..].iter().all(|&t| t == 0xC1));
    drop(segment);

    let store = RunStore::open(&dir).unwrap();
    let twice = store.records().unwrap();
    assert_eq!(twice.len(), 2 * old.len());
    assert_eq!(&twice[..old.len()], &old[..]);
    assert_eq!(&twice[old.len()..], &old[..]);
    // Pruning spans both halves: round 1 is found twice.
    let round_1 = store.query(&TraceQuery::new().rounds(1..2)).unwrap();
    assert_eq!(round_1.records.len(), 2 * 38);
    assert!(round_1.blocks_decoded < round_1.blocks_total);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

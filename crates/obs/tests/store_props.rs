//! Property tests for the segmented run store.
//!
//! Four laws, each checked over generated inputs:
//!
//! 1. append → read round-trips arbitrary record batches: the typed
//!    records are equal and so are their JSONL bytes (JSONL is the
//!    oracle the columnar block codec is held to),
//! 2. every [`TraceQuery`] over the store returns exactly what the same
//!    predicate returns over a full JSONL scan (the legacy path),
//! 3. block summaries are *sound*: a block whose summary rejects a query
//!    contains no record matching it,
//! 4. checkpoint sequence numbers restore the latest-at-or-before state.

mod common;

use common::{gen_record, gen_record_with_extremes, temp_dir};
use ecofl_compat::check;
use ecofl_obs::store::{jsonl_to_records, records_to_jsonl, METRICS_SEGMENT};
use ecofl_obs::{
    CounterRecord, Domain, EventKind, EventRecord, GaugeRecord, MetricsSnapshot, RecordKind,
    RunStore, SpanKind, SpanRecord, TraceQuery, TraceRecord,
};
use ecofl_store::{BlockSummary, Segment};

/// Queries exercising every clause alone and in combination.
fn queries() -> Vec<TraceQuery> {
    vec![
        TraceQuery::new(),
        TraceQuery::new().rounds(5..20),
        TraceQuery::new().rounds(39..40),
        TraceQuery::new().kind(RecordKind::Gauge),
        TraceQuery::new().kind(RecordKind::Counter),
        TraceQuery::new().domain(Domain::Fl),
        TraceQuery::new().time(10.0..50.0),
        TraceQuery::new().min_duration(0.6),
        TraceQuery::new()
            .rounds(0..10)
            .domain(Domain::Pipeline)
            .kind(RecordKind::Span),
        TraceQuery::new()
            .time(0.0..30.0)
            .min_duration(0.5)
            .rounds(3..33),
    ]
}

#[test]
fn prop_append_read_round_trips_batches() {
    let gen = check::vec_in(gen_record_with_extremes(), 0, 90);
    check::forall("store append/read roundtrip", 25, &gen, |records| {
        let dir = temp_dir("roundtrip");
        let mut store = RunStore::create(&dir).unwrap().with_block_records(7);
        store.append(records).unwrap();
        store.flush().unwrap();
        // Typed equality through the live handle and a fresh open…
        assert_eq!(&store.records().unwrap(), records);
        let reopened = RunStore::open(&dir).unwrap();
        let back = reopened.records().unwrap();
        assert_eq!(&back, records);
        // …and byte identity of the JSONL encoding.
        assert_eq!(
            records_to_jsonl(&back).unwrap(),
            records_to_jsonl(records).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn prop_every_query_equals_a_full_jsonl_scan() {
    let gen = check::vec_in(gen_record(), 0, 120);
    check::forall("pruned query == full scan", 20, &gen, |records| {
        let dir = temp_dir("scan");
        let mut store = RunStore::create(&dir).unwrap().with_block_records(11);
        store.append(records).unwrap();
        store.flush().unwrap();
        // The "legacy path": encode to JSONL, scan every line back,
        // apply the predicate record by record.
        let scan = jsonl_to_records(&records_to_jsonl(records).unwrap()).unwrap();
        for query in queries() {
            let result = store.query(&query).unwrap();
            let expected: Vec<TraceRecord> =
                scan.iter().filter(|r| query.matches(r)).cloned().collect();
            assert_eq!(
                result.records, expected,
                "query {query:?} diverged from the full scan"
            );
            assert!(result.blocks_decoded <= result.blocks_total);
        }
        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn prop_block_summaries_are_sound() {
    let gen = check::vec_in(gen_record(), 1, 120);
    check::forall("summary soundness", 20, &gen, |records| {
        let dir = temp_dir("sound");
        let mut store = RunStore::create(&dir).unwrap().with_block_records(9);
        store.append(records).unwrap();
        store.flush().unwrap();
        for query in queries() {
            for (i, entry) in store.trace_blocks().iter().enumerate() {
                if query.admits(&entry.summary) {
                    continue;
                }
                // The summary excluded this block: decoding it anyway
                // must find no matching record.
                let inside = store.read_block_records(i).unwrap();
                assert!(
                    inside.iter().all(|r| !query.matches(r)),
                    "query {query:?} excluded block {i} which contains a match"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn wide_dictionary_block_round_trips() {
    // 300 distinct names in one block: dictionary indices past 127 take
    // the two-byte varint. Empty and multi-byte names ride along.
    let mut records: Vec<TraceRecord> = (0..300)
        .map(|i| {
            TraceRecord::Gauge(GaugeRecord {
                name: format!("gauge-{i}-µ"),
                time: f64::from(i),
                value: f64::from(i) / 7.0,
            })
        })
        .collect();
    for name in ["", "精度", "gauge-299-µ", "gauge-0-µ"] {
        records.push(TraceRecord::Counter(CounterRecord {
            name: name.into(),
            time: 300.0,
            delta: 1.0,
        }));
    }
    let dir = temp_dir("wide-dictionary");
    let mut store = RunStore::create(&dir).unwrap();
    store.append(&records).unwrap();
    store.flush().unwrap();
    assert_eq!(store.trace_blocks().len(), 1, "one block holds them all");
    let back = RunStore::open(&dir).unwrap().records().unwrap();
    assert_eq!(back, records);
    assert_eq!(
        records_to_jsonl(&back).unwrap(),
        records_to_jsonl(&records).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `record` with its two floats zeroed, and the floats' bit patterns:
/// equality that tells NaN payloads and the sign of zero apart.
fn exact(record: &TraceRecord) -> (TraceRecord, [u64; 2]) {
    let mut r = record.clone();
    let (a, b) = match &mut r {
        TraceRecord::Span(s) => (&mut s.t0, &mut s.t1),
        TraceRecord::Event(e) => (&mut e.time, &mut e.value),
        TraceRecord::Counter(c) => (&mut c.time, &mut c.delta),
        TraceRecord::Gauge(g) => (&mut g.time, &mut g.value),
    };
    let bits = [a.to_bits(), b.to_bits()];
    (*a, *b) = (0.0, 0.0);
    (r, bits)
}

#[test]
fn non_finite_payloads_round_trip_bit_exactly() {
    // Regression: the tracer checks that *times* are finite, nothing
    // checks an event value, counter delta or gauge value. With JSONL
    // blocks one NaN gauge was written as `null` — `append` returned Ok
    // and every later read of the block, its 511 neighbours included,
    // failed with `expected number, found Null`.
    let payloads = [
        f64::NAN,
        f64::from_bits(0x7FF8_0000_DEAD_BEEF), // NaN with a payload
        f64::from_bits(0xFFF0_0000_0000_0001), // negative signalling NaN
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        f64::MIN_POSITIVE / 8.0, // subnormal
        f64::MAX,
    ];
    let mut records = Vec::new();
    for (i, &v) in payloads.iter().enumerate() {
        let time = i as f64;
        records.push(TraceRecord::Gauge(GaugeRecord {
            name: "loss".into(),
            time,
            value: v,
        }));
        records.push(TraceRecord::Counter(CounterRecord {
            name: "bytes".into(),
            time,
            delta: v,
        }));
        records.push(TraceRecord::Event(EventRecord {
            domain: Domain::Scheduler,
            kind: EventKind::Migration,
            entity: i,
            time,
            value: v,
        }));
        // A good neighbour in the same block.
        records.push(TraceRecord::Span(SpanRecord {
            domain: Domain::Pipeline,
            kind: SpanKind::Forward,
            entity: i,
            round: 0,
            micro: 0,
            t0: time,
            t1: time + 0.5,
        }));
    }
    let dir = temp_dir("non-finite");
    let mut store = RunStore::create(&dir).unwrap();
    store.append(&records).unwrap();
    store.flush().unwrap();
    let reopened = RunStore::open(&dir).unwrap();
    let back = reopened.records().unwrap();
    assert_eq!(
        back.iter().map(exact).collect::<Vec<_>>(),
        records.iter().map(exact).collect::<Vec<_>>()
    );
    let spans = reopened
        .query(&TraceQuery::new().kind(RecordKind::Span))
        .unwrap();
    assert_eq!(spans.records.len(), payloads.len());
    // The JSONL export has no spelling for them: `null`, documented.
    let out = dir.join("export.jsonl");
    reopened.export_jsonl(&out).unwrap();
    let text = std::fs::read_to_string(&out).unwrap();
    assert_eq!(text.lines().count(), records.len());
    assert!(text.contains(r#"{"Gauge":{"name":"loss","time":0.0,"value":null}}"#));
    std::fs::remove_dir_all(&dir).ok();
}

/// Like [`gen_record`] but roughly a third of the spans have *zero*
/// duration (`t1 == t0`) — the boundary `min_duration` pruning has to
/// get right at the block-summary level.
fn gen_record_with_zero_spans() -> check::Gen<TraceRecord> {
    check::pair(gen_record(), check::u32_in(0, 2)).map(|(record, flatten)| {
        match (record, flatten) {
            (TraceRecord::Span(mut s), 0) => {
                s.t1 = s.t0;
                TraceRecord::Span(s)
            }
            (r, _) => r,
        }
    })
}

#[test]
fn prop_min_duration_zero_admits_soundly() {
    // Satellite of ISSUE 9: with `min_duration(0.0)` set, `admits`
    // must stay a sound relaxation of `matches` even when blocks hold
    // zero-duration spans — a rejected block may contain no matching
    // record, and the pruned query must still equal the full scan.
    let gen = check::vec_in(gen_record_with_zero_spans(), 1, 120);
    check::forall("min_duration(0) admits soundly", 20, &gen, |records| {
        let dir = temp_dir("mindur0");
        let mut store = RunStore::create(&dir).unwrap().with_block_records(9);
        store.append(records).unwrap();
        store.flush().unwrap();
        for query in [
            TraceQuery::new().min_duration(0.0),
            TraceQuery::new().min_duration(0.0).rounds(0..20),
            TraceQuery::new().min_duration(0.1),
        ] {
            for (i, entry) in store.trace_blocks().iter().enumerate() {
                if query.admits(&entry.summary) {
                    continue;
                }
                let inside = store.read_block_records(i).unwrap();
                assert!(
                    inside.iter().all(|r| !query.matches(r)),
                    "query {query:?} excluded block {i} which contains a match"
                );
            }
            let result = store.query(&query).unwrap();
            let expected: Vec<TraceRecord> = records
                .iter()
                .filter(|r| query.matches(r))
                .cloned()
                .collect();
            assert_eq!(
                result.records, expected,
                "query {query:?} diverged from the full scan"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn min_duration_zero_boundary_regression() {
    // Regression for the exact boundary value: a block holding *only*
    // zero-duration spans (duration column = [0.0, 0.0]) must be
    // admitted and returned by `min_duration(0.0)` — every span is at
    // least 0.0 long — while `min_duration(f64::MIN_POSITIVE)` must
    // prune it without decoding. Guards against rewriting the column
    // test as `col.max <= d` or treating [0, 0] as an empty range.
    let dir = temp_dir("mindur0-regression");
    let mut store = RunStore::create(&dir).unwrap().with_block_records(4);
    let zero_spans: Vec<TraceRecord> = (0..4)
        .map(|i| {
            TraceRecord::Span(SpanRecord {
                domain: Domain::Pipeline,
                kind: SpanKind::Forward,
                entity: i,
                round: 0,
                micro: 0,
                t0: i as f64,
                t1: i as f64,
            })
        })
        .collect();
    store.append(&zero_spans).unwrap();
    store.flush().unwrap();
    assert_eq!(store.trace_blocks().len(), 1, "one block of zero spans");

    let at_zero = store.query(&TraceQuery::new().min_duration(0.0)).unwrap();
    assert_eq!(at_zero.blocks_decoded, 1, "boundary block must be admitted");
    assert_eq!(at_zero.records, zero_spans, "zero-duration spans match 0.0");

    let above_zero = store
        .query(&TraceQuery::new().min_duration(f64::MIN_POSITIVE))
        .unwrap();
    assert_eq!(above_zero.blocks_decoded, 0, "positive threshold prunes");
    assert!(above_zero.records.is_empty());

    // Span-free blocks never admit a min_duration clause, even at 0.0.
    let dir2 = temp_dir("mindur0-spanfree");
    let mut store2 = RunStore::create(&dir2).unwrap();
    store2
        .append(&[TraceRecord::Counter(CounterRecord {
            name: "c".into(),
            time: 1.0,
            delta: 1.0,
        })])
        .unwrap();
    store2.flush().unwrap();
    let spanfree = store2.query(&TraceQuery::new().min_duration(0.0)).unwrap();
    assert_eq!(spanfree.blocks_decoded, 0, "no spans, nothing to decode");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
}

#[test]
fn prop_checkpoints_restore_latest_at_or_before() {
    // (seq gap ≥ 1, round, payload bytes) per checkpoint.
    let ckpt = check::triple(
        check::u64_in(1, 4),
        check::u64_in(0, 50),
        check::vec_in(check::u32_in(0, 255).map(|b| b as u8), 0, 48),
    );
    let gen = check::vec_in(ckpt, 1, 10);
    check::forall("checkpoint seq restore", 20, &gen, |plan| {
        let dir = temp_dir("ckpt");
        let mut store = RunStore::create(&dir).unwrap();
        let mut stored: Vec<(u64, u64, Vec<u8>)> = Vec::new();
        let mut seq = 0u64;
        for (gap, round, payload) in plan {
            seq += gap;
            store.append_checkpoint(seq, *round, payload).unwrap();
            stored.push((seq, *round, payload.clone()));
        }
        // Re-using or regressing a sequence number is rejected.
        assert!(store.append_checkpoint(seq, 0, b"dup").is_err());

        let reopened = RunStore::open(&dir).unwrap();
        let metas = reopened.checkpoint_metas();
        assert!(metas.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(metas.len(), stored.len());

        // Exact reads and latest-at-or-before probes around every seq.
        let max_seq = stored.last().unwrap().0;
        for probe in (0..=max_seq + 2).chain([u64::MAX]) {
            let expected = stored.iter().rev().find(|(s, _, _)| *s <= probe);
            let actual = reopened.latest_checkpoint_at_or_before(probe).unwrap();
            match (expected, actual) {
                (None, None) => {}
                (Some((s, r, p)), Some((meta, payload))) => {
                    assert_eq!((meta.seq, meta.round), (*s, *r));
                    assert_eq!(&payload, p);
                }
                (e, a) => panic!("probe {probe}: expected {e:?}, got {a:?}"),
            }
        }
        for (s, _, p) in &stored {
            assert_eq!(
                reopened.read_checkpoint(*s).unwrap().as_deref(),
                Some(&p[..])
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn deeply_nested_metrics_block_is_invalid_data_not_a_stack_overflow() {
    // Regression: the JSON parser recursed once per `[`, so a metrics
    // block of a million brackets — a damaged or hostile store — aborted
    // `ecofl metrics --store` with a stack overflow.
    let dir = temp_dir("deep-metrics");
    let mut store = RunStore::create(&dir).unwrap();
    store
        .append_snapshot(&MetricsSnapshot {
            round: 1,
            ..MetricsSnapshot::default()
        })
        .unwrap();
    drop(store);

    // A raw block beside it, summarised like a v1 snapshot of round 7.
    let mut segment = Segment::open(dir.join(METRICS_SEGMENT)).unwrap();
    let mut summary = BlockSummary::new(2);
    summary.count = 1;
    summary.cols[0].include(7.0);
    summary.cols[1].include(1.0);
    segment
        .append_block("[".repeat(1_000_000).as_bytes(), summary)
        .unwrap();
    segment.seal().unwrap();
    drop(segment);

    let store = RunStore::open(&dir).unwrap();
    let err = store.snapshots().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let err = store.snapshot_at_round(7).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert_eq!(store.snapshot_at_round(1).unwrap().unwrap().round, 1);
    std::fs::remove_dir_all(&dir).ok();
}

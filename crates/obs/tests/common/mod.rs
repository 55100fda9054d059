//! Record generators shared by the store's property suites.
#![allow(dead_code)] // each suite uses its own subset

use ecofl_compat::check;
use ecofl_obs::{
    CounterRecord, Domain, EventKind, EventRecord, GaugeRecord, RecordKind, RunStore, SpanKind,
    SpanRecord, TraceQuery, TraceRecord,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh directory per call, so `forall` cases and parallel tests never
/// share state.
pub fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ecofl-store-props-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

pub const DOMAINS: [Domain; 4] = [
    Domain::Pipeline,
    Domain::Scheduler,
    Domain::Fl,
    Domain::Grouping,
];

pub const SPAN_KINDS: [SpanKind; 8] = [
    SpanKind::Forward,
    SpanKind::Backward,
    SpanKind::BackwardInput,
    SpanKind::BackwardWeight,
    SpanKind::CommForward,
    SpanKind::CommBackward,
    SpanKind::LocalTrain,
    SpanKind::Round,
];

pub const EVENT_KINDS: [EventKind; 10] = [
    EventKind::LaggerDetected,
    EventKind::Migration,
    EventKind::Restart,
    EventKind::Aggregation,
    EventKind::RegroupMoved,
    EventKind::RegroupDropped,
    EventKind::RegroupRejoined,
    EventKind::StageDied,
    EventKind::CheckpointTaken,
    EventKind::RoundReplayed,
];

/// Counter / gauge names: the usual ones, the empty string, and two with
/// multi-byte UTF-8.
const NAMES: [&str; 7] = ["accuracy", "c0", "c1", "c2", "", "staleness_α", "精度"];

/// Generates one record of any of the four shapes, over every
/// `SpanKind` / `EventKind` / `Domain`, rounds 0..40, entities 0..8 and
/// times 0..100 — wide enough that every query of the suites both
/// matches and rejects records.
pub fn gen_record() -> check::Gen<TraceRecord> {
    gen_record_of(None)
}

/// As [`gen_record`], restricted to one shape when `only` is given.
pub fn gen_record_of(only: Option<RecordKind>) -> check::Gen<TraceRecord> {
    check::quad(
        check::any_u64(),
        check::usize_in(0, 7),
        check::f64_in(0.0, 100.0),
        check::usize_in(0, 39),
    )
    .map(move |(sel, entity, time, round)| {
        // Independent choices from separate bytes of the selector.
        let pick = |byte: u32, of: usize| (sel >> (8 * byte)) as usize % of;
        let shape = only.unwrap_or(match pick(0, 10) {
            0..=4 => RecordKind::Span,
            5 | 6 => RecordKind::Event,
            7 | 8 => RecordKind::Counter,
            _ => RecordKind::Gauge,
        });
        let domain = DOMAINS[pick(1, 4)];
        let name = NAMES[pick(2, NAMES.len())].to_owned();
        match shape {
            RecordKind::Span => TraceRecord::Span(SpanRecord {
                domain,
                kind: SPAN_KINDS[pick(3, 8)],
                entity,
                round,
                micro: pick(4, 3),
                t0: time,
                t1: time + 0.1 + pick(5, 5) as f64 * 0.2,
            }),
            RecordKind::Event => TraceRecord::Event(EventRecord {
                domain,
                kind: EVENT_KINDS[pick(3, 10)],
                entity,
                time,
                value: round as f64,
            }),
            RecordKind::Counter => TraceRecord::Counter(CounterRecord {
                name,
                time,
                delta: 1.0,
            }),
            RecordKind::Gauge => TraceRecord::Gauge(GaugeRecord {
                name,
                time,
                value: round as f64 / 40.0,
            }),
        }
    })
}

/// Like [`gen_record`], but about one span or event in four carries
/// `usize::MAX` in an index field — the ten-byte end of the varint
/// columns. Not for the suites that use JSONL as their oracle: the JSON
/// layer holds integers as `i64` and does not read such a value back.
pub fn gen_record_with_extremes() -> check::Gen<TraceRecord> {
    check::pair(gen_record(), check::u32_in(0, 15)).map(|(mut record, extreme)| {
        match &mut record {
            TraceRecord::Span(s) => match extreme {
                0 => s.entity = usize::MAX,
                1 => s.round = usize::MAX,
                2 => s.micro = usize::MAX,
                3 => (s.entity, s.round, s.micro) = (usize::MAX, usize::MAX, usize::MAX),
                _ => {}
            },
            TraceRecord::Event(e) if extreme < 4 => e.entity = usize::MAX,
            _ => {}
        }
        record
    })
}

/// Generates a query: each of the five clauses present or not, with
/// bounds over the ranges [`gen_record`] draws from (and past them, so
/// some queries match nothing).
pub fn gen_query() -> check::Gen<TraceQuery> {
    check::pair(check::any_u64(), check::any_u64()).map(|(sel, bounds)| {
        let on = |bit: u32| sel >> bit & 1 == 1;
        let pick = |byte: u32, of: u64| (bounds >> (8 * byte)) % of;
        let mut q = TraceQuery::new();
        if on(0) {
            let lo = pick(0, 45);
            q = q.rounds(lo..lo + pick(1, 20));
        }
        if on(1) {
            let lo = pick(2, 110) as f64;
            q = q.time(lo..lo + pick(3, 60) as f64);
        }
        if on(2) {
            q = q.domain(DOMAINS[pick(4, 4) as usize]);
        }
        if on(3) {
            let kinds = [
                RecordKind::Span,
                RecordKind::Event,
                RecordKind::Counter,
                RecordKind::Gauge,
            ];
            q = q.kind(kinds[pick(5, 4) as usize]);
        }
        if on(4) {
            q = q.min_duration(pick(6, 12) as f64 * 0.1);
        }
        q
    })
}

/// The one-loop law: the records [`RunStore::scan`] visits equal what
/// `query` returns and what decoding every block by index and filtering
/// by [`TraceQuery::matches`] finds, in order; the match-all scan equals
/// `records()`; and the scan decodes exactly the admitted blocks.
pub fn assert_scan_is_the_one_loop(store: &RunStore, query: &TraceQuery) {
    let mut visited = Vec::new();
    let (decoded, total) = store.scan(query, |r| visited.push(r)).unwrap();
    let result = store.query(query).unwrap();
    assert_eq!(visited, result.records, "scan vs query for {query:?}");
    assert_eq!(
        (decoded, total),
        (result.blocks_decoded, result.blocks_total)
    );
    let blocks = store.trace_blocks();
    assert_eq!(total, blocks.len());
    let admitted = blocks.iter().filter(|b| query.admits(&b.summary)).count();
    assert_eq!(decoded, admitted, "blocks decoded for {query:?}");
    let by_block: Vec<TraceRecord> = (0..blocks.len())
        .flat_map(|i| store.read_block_records(i).unwrap())
        .filter(|r| query.matches(r))
        .collect();
    assert_eq!(
        visited, by_block,
        "scan vs block-by-block decode for {query:?}"
    );
    let mut all = Vec::new();
    store.scan(&TraceQuery::new(), |r| all.push(r)).unwrap();
    assert_eq!(all, store.records().unwrap());
}

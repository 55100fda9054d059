//! JSON round-trips of the trace records `ecofl_obs` persists: every
//! record variant through `ecofl_compat::json`, and a run store's
//! records through append, reopen and the JSONL encoding. Only the obs
//! record and metrics types derive `Deserialize`; the rest of the
//! workspace serializes nothing it reads back.

use ecofl::prelude::*;
use ecofl_compat::json;
use ecofl_compat::serde::{Deserialize, Serialize};

fn round_trip<T>(value: &T) -> T
where
    T: Serialize + Deserialize,
{
    let text = json::to_string(value).expect("serialize");
    json::from_str(&text).expect("deserialize")
}

#[test]
fn trace_record_variants_round_trip() {
    use ecofl::obs::{CounterRecord, Domain, EventKind, EventRecord, GaugeRecord, SpanKind};
    use ecofl::obs::{SpanRecord, TraceRecord};

    let span = SpanRecord {
        domain: Domain::Pipeline,
        kind: SpanKind::Backward,
        entity: 2,
        round: 1,
        micro: 5,
        t0: 0.25,
        t1: 1.75,
    };
    assert_eq!(round_trip(&span), span);

    let event = EventRecord {
        domain: Domain::Scheduler,
        kind: EventKind::Migration,
        entity: 1,
        time: 116.5,
        value: 1.5e7,
    };
    assert_eq!(round_trip(&event), event);

    let counter = CounterRecord {
        name: "global_updates".into(),
        time: 3.0,
        delta: 1.0,
    };
    assert_eq!(round_trip(&counter), counter);

    let gauge = GaugeRecord {
        name: "staleness_alpha".into(),
        time: 7.5,
        value: 0.375,
    };
    assert_eq!(round_trip(&gauge), gauge);

    // The externally-tagged envelope every JSONL line uses.
    for record in [
        TraceRecord::Span(span),
        TraceRecord::Event(event),
        TraceRecord::Counter(counter),
        TraceRecord::Gauge(gauge),
    ] {
        assert_eq!(round_trip(&record), record);
    }
}

#[test]
fn trace_jsonl_files_round_trip() {
    use ecofl::obs::store::records_to_jsonl;
    use ecofl::obs::{trace_dir, Domain, EventKind, RunStore, SpanKind};

    let tracer = Tracer::new();
    tracer.span(Domain::Fl, SpanKind::LocalTrain, 4, 2, 0, 10.0, 14.5);
    tracer.event(Domain::Grouping, EventKind::RegroupMoved, 4, 14.5, 1.0);
    tracer.counter("global_updates", 14.5, 1.0);
    tracer.gauge("accuracy", 15.0, 0.625);
    let records = tracer.records();

    let out = trace_dir();
    std::fs::create_dir_all(&out).expect("create trace dir");
    let dir = out.join(format!("serde-roundtrip-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut store = RunStore::create(&dir).expect("create store");
    store.append(&records).expect("append");
    store.flush().expect("flush");
    assert_eq!(store.records().expect("records"), records);

    let reopened = RunStore::open(&dir).expect("open");
    let back = reopened.records().expect("records");
    let text = String::from_utf8(records_to_jsonl(&back).expect("encode")).expect("utf-8");
    assert_eq!(text.lines().count(), records.len());
    assert_eq!(back, records);
    std::fs::remove_dir_all(&dir).ok();
}

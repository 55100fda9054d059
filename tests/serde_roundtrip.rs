//! JSON round-trips of the public configuration and report types via
//! `ecofl_compat::json` — these are the payloads the bench harness
//! persists, so their stability matters to downstream tooling.

use ecofl::prelude::*;
use ecofl_compat::json;
use ecofl_compat::serde::{Deserialize, Serialize};
use ecofl_pipeline::adaptive::SchedulerConfig;
use ecofl_pipeline::orchestrator::k_bounds;

fn round_trip<T>(value: &T) -> T
where
    T: Serialize + Deserialize,
{
    let text = json::to_string(value).expect("serialize");
    json::from_str(&text).expect("deserialize")
}

#[test]
fn fl_config_round_trips() {
    let cfg = FlConfig {
        base_delay_override: Some(vec![1.0, 2.0, 3.0]),
        dynamics: Some(DynamicsConfig {
            change_prob: 0.3,
            degrees: vec![0.5, 1.0],
        }),
        ..FlConfig::default()
    };
    let back = round_trip(&cfg);
    assert_eq!(back, cfg);
}

#[test]
fn grouping_config_round_trips() {
    for strategy in [
        GroupingStrategy::EcoFl { lambda: 123.0 },
        GroupingStrategy::LatencyOnly,
        GroupingStrategy::DataOnly,
    ] {
        let cfg = GroupingConfig {
            num_groups: 7,
            strategy,
            rt_relative: 0.4,
            rt_min: 1.5,
            assign_batch: 0,
        };
        assert_eq!(round_trip(&cfg), cfg);
    }
}

#[test]
fn device_and_link_round_trip() {
    let spec = tx2_n();
    assert_eq!(round_trip(&spec), spec);
    let link = Link::mbps_100();
    assert_eq!(round_trip(&link), link);
    let device = Device::new(nano_l());
    assert_eq!(round_trip(&device), device);
}

#[test]
fn model_profile_round_trips() {
    let model = efficientnet_at(1, 128);
    let back: ModelProfile = round_trip(&model);
    assert_eq!(back, model);
    assert_eq!(back.total_flops(), model.total_flops());
}

#[test]
fn partition_and_plan_round_trip() {
    let model = efficientnet_at(0, 224);
    let devices = vec![Device::new(tx2_q()), Device::new(nano_h())];
    let link = Link::mbps_100();
    let partition = partition_dp(&model, &devices, &link, 8).expect("feasible");
    assert_eq!(round_trip(&partition), partition);

    let plan = search_configuration(
        &model,
        &devices,
        &link,
        &OrchestratorConfig {
            global_batch: 32,
            mbs_candidates: vec![8, 4],
            eval_rounds: 1,
            ..OrchestratorConfig::default()
        },
    )
    .expect("plan");
    let back: PipelinePlan = round_trip(&plan);
    assert_eq!(back.partition, plan.partition);
    assert_eq!(back.k, plan.k);
    assert_eq!(back.micro_batch, plan.micro_batch);
    assert!((back.report.throughput - plan.report.throughput).abs() < 1e-12);
}

#[test]
fn execution_report_round_trips_with_spans() {
    let model = efficientnet_at(0, 224);
    let devices = vec![Device::new(tx2_q()), Device::new(nano_h())];
    let link = Link::mbps_100();
    let partition = partition_dp(&model, &devices, &link, 4).expect("feasible");
    let profile = PipelineProfile::new(&model, &partition.boundaries, &devices, &link, 4);
    let k = k_bounds(&profile).expect("fits");
    let report = PipelineExecutor::new(&profile, SchedulePolicy::OneFOneBSync { k })
        .expect("valid schedule")
        .run(4, 1)
        .expect("runs");
    let back: ExecutionReport = round_trip(&report);
    assert_eq!(back.task_spans.len(), report.task_spans.len());
    let span: ecofl::obs::SpanRecord = report.task_spans[0];
    assert_eq!(round_trip(&span), span);
    assert_eq!(back.stage_peak_memory, report.stage_peak_memory);
}

#[test]
fn schedule_policy_round_trips() {
    for policy in [
        SchedulePolicy::OneFOneBSync { k: vec![3, 2, 1] },
        SchedulePolicy::BafSync,
        SchedulePolicy::OneFOneBAsync { k: vec![2, 1] },
        SchedulePolicy::Interleaved {
            k: vec![4, 3, 2, 1],
            v: 2,
        },
        SchedulePolicy::ZeroBubble { k: vec![3, 2, 1] },
    ] {
        assert_eq!(round_trip(&policy), policy);
    }
}

#[test]
fn schedule_kind_round_trips_and_configs_carry_it() {
    for kind in ScheduleKind::all() {
        assert_eq!(round_trip(&kind), kind);
    }
    // The selector travels inside both search configs.
    let ocfg = OrchestratorConfig {
        schedule: ScheduleKind::ZeroBubble,
        ..OrchestratorConfig::default()
    };
    assert_eq!(round_trip(&ocfg).schedule, ScheduleKind::ZeroBubble);
    let scfg = SchedulerConfig {
        schedule: ScheduleKind::Interleaved1F1B,
        ..SchedulerConfig::default()
    };
    assert_eq!(round_trip(&scfg), scfg);
}

#[test]
fn scheduler_config_and_spike_round_trip() {
    let cfg = SchedulerConfig {
        deviation_threshold: 0.33,
        restart_overhead: 1.25,
        ..SchedulerConfig::default()
    };
    assert_eq!(round_trip(&cfg), cfg);
    let spike = LoadSpike {
        device: 2,
        at: 42.0,
        load: 0.5,
    };
    assert_eq!(round_trip(&spike), spike);
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
    use ecofl::obs::{trace_dir, Domain, EventKind, RunStore, SpanKind};

    let tracer = Tracer::new();
    tracer.span(Domain::Fl, SpanKind::LocalTrain, 4, 2, 0, 10.0, 14.5);
    tracer.event(Domain::Grouping, EventKind::RegroupMoved, 4, 14.5, 1.0);
    tracer.counter("global_updates", 14.5, 1.0);
    tracer.gauge("accuracy", 15.0, 0.625);
    let records = tracer.records();

    // The store's JSONL export is the (only) flat-file path since the
    // deprecated write_jsonl/read_jsonl shims were removed.
    let dir = trace_dir().join(format!("serde-roundtrip-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut store = RunStore::create(&dir).expect("create store");
    store.append(&records).expect("append");
    store.flush().expect("flush");
    assert_eq!(store.records().expect("records"), records);

    let path = trace_dir().join("serde-roundtrip-test.jsonl");
    store.export_jsonl(&path).expect("export");
    let reopened = RunStore::open(&dir).expect("open");
    let text = std::fs::read_to_string(&path).expect("read export");
    assert_eq!(text.lines().count(), records.len());
    assert_eq!(reopened.records().expect("records"), records);
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn synthetic_spec_round_trips_values() {
    // SyntheticSpec carries a &'static str name, so compare fields.
    let spec = SyntheticSpec::cifar_like();
    let text = json::to_string(&spec).expect("serialize");
    let v: json::Value = json::from_str(&text).unwrap();
    assert_eq!(v["num_classes"], 10);
    assert_eq!(v["name"], "cifar-like");
}

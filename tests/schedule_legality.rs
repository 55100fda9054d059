//! Schedule-legality property suite (randomized).
//!
//! For random device mixes, stage counts, micro-batch counts, and
//! residency vectors, every schedule must obey the [`SchedulePolicy`]
//! contract twice over:
//!
//! 1. **Nominal stream legality** — the pure [`stage_stream`] respects
//!    forward/backward data dependencies, covers every micro-batch
//!    exactly once per direction, never exceeds the per-stage residency
//!    bound `K_s`, and ends with `Sync` exactly when the schedule
//!    flushes.
//! 2. **Executed-span legality** — the event-driven executor's actual
//!    dispatch order (which may deviate from the nominal stream under
//!    timing skew) still respects the same dependencies and bounds, and
//!    its idle/bubble accounting re-derives from the spans to 1e-9.
//!
//! [`stage_stream`]: ecofl::pipeline::SchedulePolicy::stage_stream

use ecofl::obs::SpanKind;
use ecofl::pipeline::executor::ExecutionReport;
use ecofl::pipeline::schedule::StageTask;
use ecofl::prelude::*;

/// Deterministic pool of profiles the properties sweep: random device
/// mixes (1–4 devices), models, and micro-batch sizes.
fn random_profile(rng: &mut Rng) -> (ModelProfile, Vec<Device>, Link, usize) {
    let model = match rng.range_usize(0, 3) {
        0 => efficientnet_at(0, 224),
        1 => efficientnet_at(1, 192),
        _ => mobilenet_v2_at(1.0, 224),
    };
    let n = rng.range_usize(1, 5);
    let devices: Vec<Device> = (0..n)
        .map(|_| {
            Device::new(match rng.range_usize(0, 4) {
                0 => nano_h(),
                1 => tx2_q(),
                2 => tx2_n(),
                _ => nano_h(),
            })
        })
        .collect();
    let mbs = [2, 4, 8][rng.range_usize(0, 3)];
    (model, devices, Link::mbps_100(), mbs)
}

/// Even layer boundaries for `s` stages over `layers` layers.
fn even_boundaries(layers: usize, s: usize) -> Vec<usize> {
    (0..=s).map(|i| (layers * i) / s).collect()
}

/// Asserts the nominal per-stage stream of `policy` is legal for `m`
/// micro-batches.
fn check_stream(sched: &SchedulePolicy, stages: usize, m: usize) {
    let name = sched.name();
    for stage in 0..stages {
        let stream = sched.stage_stream(stage, m);
        let k = sched.residency(stage);
        let mut fwd_seen = vec![false; m];
        let mut bwd_in_seen = vec![false; m];
        let mut bwd_done = vec![false; m];
        let mut in_flight = 0usize;
        let mut synced = false;
        for task in &stream {
            assert!(!synced, "{name} s{stage}: task after Sync");
            match *task {
                StageTask::Fwd(n) => {
                    assert!(!fwd_seen[n], "{name} s{stage}: Fwd({n}) twice");
                    fwd_seen[n] = true;
                    in_flight += 1;
                    if let Some(k) = k {
                        assert!(
                            in_flight <= k,
                            "{name} s{stage}: {in_flight} resident > K={k}"
                        );
                    }
                }
                StageTask::Bwd(n) => {
                    assert!(
                        !sched.split_backward(),
                        "{name} s{stage}: full Bwd in a split schedule"
                    );
                    assert!(fwd_seen[n], "{name} s{stage}: Bwd({n}) before Fwd({n})");
                    assert!(!bwd_done[n], "{name} s{stage}: Bwd({n}) twice");
                    bwd_done[n] = true;
                    in_flight -= 1;
                }
                StageTask::BwdInput(n) => {
                    assert!(
                        sched.split_backward(),
                        "{name} s{stage}: BwdInput in an unsplit schedule"
                    );
                    assert!(
                        fwd_seen[n],
                        "{name} s{stage}: BwdInput({n}) before Fwd({n})"
                    );
                    assert!(!bwd_in_seen[n], "{name} s{stage}: BwdInput({n}) twice");
                    bwd_in_seen[n] = true;
                }
                StageTask::BwdWeight(n) => {
                    assert!(
                        bwd_in_seen[n],
                        "{name} s{stage}: BwdWeight({n}) before BwdInput({n})"
                    );
                    assert!(!bwd_done[n], "{name} s{stage}: BwdWeight({n}) twice");
                    bwd_done[n] = true;
                    in_flight -= 1;
                }
                StageTask::Sync => synced = true,
            }
        }
        assert!(
            fwd_seen.iter().all(|&f| f) && bwd_done.iter().all(|&b| b),
            "{name} s{stage}: incomplete round coverage"
        );
        assert_eq!(
            synced,
            !sched.flush_free(),
            "{name} s{stage}: Sync iff the schedule flushes"
        );
    }
}

/// Asserts the executed spans of `report` are legal under `policy` and
/// that the report's idle/bubble accounting re-derives from the spans.
fn check_execution(sched: &SchedulePolicy, report: &ExecutionReport, m: usize, rounds: usize) {
    let name = sched.name();
    let stages = report.stage_idle_time.len();
    let per_micro = if sched.split_backward() { 3 } else { 2 };
    assert_eq!(
        report.task_spans.len(),
        per_micro * m * rounds * stages,
        "{name}: span count"
    );

    for s in 0..stages {
        let mut spans: Vec<_> = report.task_spans.iter().filter(|t| t.entity == s).collect();
        spans.sort_by(|a, b| a.t0.partial_cmp(&b.t0).unwrap());
        // Serial execution per stage.
        for w in spans.windows(2) {
            assert!(w[1].t0 >= w[0].t1 - 1e-9, "{name} s{s}: overlapping spans");
        }
        // Dependency order and residency, walked chronologically. A
        // forward admits a micro-batch; a full backward or the
        // weight-gradient half retires it.
        let k = sched.residency(s);
        let mut in_flight = 0usize;
        let mut state = vec![0u8; m * rounds]; // 0=untouched 1=fwd 2=bwd-in 3=done
        for t in &spans {
            let id = t.round * m + t.micro;
            match t.kind {
                SpanKind::Forward => {
                    assert_eq!(state[id], 0, "{name} s{s}: duplicate Fwd r{}", t.round);
                    state[id] = 1;
                    in_flight += 1;
                    if let Some(k) = k {
                        assert!(in_flight <= k, "{name} s{s}: {in_flight} resident > K={k}");
                    }
                }
                SpanKind::Backward => {
                    assert_eq!(state[id], 1, "{name} s{s}: Bwd out of order");
                    state[id] = 3;
                    in_flight -= 1;
                }
                SpanKind::BackwardInput => {
                    assert_eq!(state[id], 1, "{name} s{s}: BwdInput out of order");
                    state[id] = 2;
                }
                SpanKind::BackwardWeight => {
                    assert_eq!(state[id], 2, "{name} s{s}: BwdWeight out of order");
                    state[id] = 3;
                    in_flight -= 1;
                }
                other => panic!("{name} s{s}: {other:?} is not a compute span"),
            }
        }
        assert!(
            state.iter().all(|&st| st == 3),
            "{name} s{s}: unfinished micro-batches"
        );

        // Idle accounting: makespan minus busy time re-derived from the
        // spans must equal the report's ledger to 1e-9, and the measured
        // DDB must be idle-beyond-SSB clamped at zero.
        let busy: f64 = spans.iter().map(|t| t.t1 - t.t0).sum();
        let idle = report.makespan - busy;
        assert!(
            (idle - report.stage_idle_time[s]).abs() < 1e-9,
            "{name} s{s}: idle {idle} vs report {}",
            report.stage_idle_time[s]
        );
        let ddb = ((idle / rounds as f64) - report.ssb_per_round).max(0.0);
        assert!(
            (ddb - report.ddb_per_round[s]).abs() < 1e-9,
            "{name} s{s}: ddb {ddb} vs report {}",
            report.ddb_per_round[s]
        );
    }
}

/// Random residency vectors (legal but arbitrary) exercise the nominal
/// stream far outside the Eq. 3 bounds the orchestrator would pick.
#[test]
fn nominal_streams_are_legal_for_random_residencies() {
    let mut rng = Rng::new(0x5eed);
    for _ in 0..60 {
        let stages = rng.range_usize(1, 6);
        let m = rng.range_usize(1, 9);
        let v = rng.range_usize(1, 4);
        let k = |n: usize, rng: &mut Rng| -> Vec<usize> {
            (0..n).map(|_| rng.range_usize(1, 5)).collect()
        };
        let kv = k(stages, &mut rng);
        check_stream(&SchedulePolicy::OneFOneBSync { k: kv.clone() }, stages, m);
        check_stream(&SchedulePolicy::BafSync, stages, m);
        check_stream(&SchedulePolicy::OneFOneBAsync { k: kv.clone() }, stages, m);
        check_stream(&SchedulePolicy::ZeroBubble { k: kv }, stages, m);
        check_stream(
            &SchedulePolicy::Interleaved {
                k: k(stages * v, &mut rng),
                v,
            },
            stages * v,
            m,
        );
    }
}

/// Every registered schedule, executed on random profiles, produces a
/// legal span stream whose idle/bubble ledger re-derives exactly.
#[test]
fn executed_schedules_are_legal_on_random_profiles() {
    let mut rng = Rng::new(0xec0f1);
    let mut executed = 0usize;
    for _ in 0..20 {
        let (model, devices, link, mbs) = random_profile(&mut rng);
        let boundaries = even_boundaries(model.num_layers(), devices.len());
        let profile = PipelineProfile::new(&model, &boundaries, &devices, &link, mbs);
        let m = rng.range_usize(2, 7);
        let rounds = rng.range_usize(1, 3);
        for kind in ScheduleKind::all() {
            let Some(policy) = kind.policy_for(&profile) else {
                continue; // some stage cannot hold one micro-batch
            };
            let exec = PipelineExecutor::new(&profile, policy.clone()).expect("legal policy");
            let Ok(report) = exec.run(m, rounds) else {
                continue; // OOM under an adversarial mix is legal
            };
            check_execution(&policy, &report, m, rounds);
            executed += 1;
        }
    }
    assert!(
        executed >= 40,
        "property suite executed only {executed} schedule runs"
    );
}

//! Schedule-conformance gate: every registered [`ScheduleKind`] must
//! pass the PR-5 fault-injection/recovery contract and the determinism
//! contract — on both engines.
//!
//! `scripts/ci.sh` runs this suite under a watchdog, and again pinned
//! to one CPU, so a schedule whose step program deadlocks the threaded
//! runtime (or drifts between runs) fails CI instead of wedging it.
//!
//! The threaded runtime is round-synchronous: every schedule collapses
//! to its round-synchronous step program, which accumulates the same
//! gradients in the same micro-batch order — so beyond per-schedule
//! recovery, final parameters must agree bit for bit *across* schedules.

use ecofl_models::efficientnet_at;
use ecofl_pipeline::executor::{ExecError, ExecutionReport, PipelineExecutor};
use ecofl_pipeline::profiler::PipelineProfile;
use ecofl_pipeline::runtime::{FaultPlan, PipelineTrainer, RuntimeOptions, SegmentFactory};
use ecofl_pipeline::schedule::ScheduleKind;
use ecofl_simnet::{nano_h, tx2_q, Device, Link};
use ecofl_tensor::{Layer, Linear, ReLU, Tensor};
use ecofl_util::Rng;
use std::time::Duration;

/// A 3-segment MLP factory, deterministic in `seed`.
fn factory(seed: u64) -> SegmentFactory {
    Box::new(move || {
        let mut rng = Rng::new(seed);
        vec![
            vec![
                Box::new(Linear::new(8, 12, &mut rng)) as Box<dyn Layer>,
                Box::new(ReLU::new()),
            ],
            vec![
                Box::new(Linear::new(12, 10, &mut rng)) as Box<dyn Layer>,
                Box::new(ReLU::new()),
            ],
            vec![Box::new(Linear::new(10, 4, &mut rng)) as Box<dyn Layer>],
        ]
    })
}

fn round_data(seed: u64, rounds: usize, m: usize) -> Vec<Vec<(Tensor, Vec<usize>)>> {
    let mut rng = Rng::new(seed ^ 0xDA7A);
    (0..rounds)
        .map(|_| {
            (0..m)
                .map(|_| {
                    let x = Tensor::randn(&[5, 8], 1.0, &mut rng);
                    let y = (0..5).map(|_| rng.range_usize(0, 4)).collect();
                    (x, y)
                })
                .collect()
        })
        .collect()
}

/// Trains `data` to completion under `kind`, recovering from any
/// injected fault; returns the final parameters.
fn train_with(
    kind: ScheduleKind,
    fault: FaultPlan,
    data: &[Vec<(Tensor, Vec<usize>)>],
    expect_fault: bool,
) -> Vec<f32> {
    let opts = RuntimeOptions {
        recv_timeout: Duration::from_secs(10),
        fault_plan: fault,
        schedule: kind,
        ..RuntimeOptions::default()
    };
    let mut trainer = PipelineTrainer::launch_supervised(factory(3), vec![3, 2, 1], opts)
        .unwrap_or_else(|e| panic!("{}: launch: {e}", kind.name()));
    let mut r = 0usize;
    let mut recoveries = 0usize;
    while r < data.len() {
        match trainer.train_round(&data[r], 0.1) {
            Ok(_) => r += 1,
            Err(e) => {
                assert!(
                    matches!(e, ExecError::StageDied { .. }),
                    "{}: expected StageDied, got {e:?}",
                    kind.name()
                );
                recoveries += 1;
                assert!(recoveries <= 1, "{}: kill fires once", kind.name());
                r = trainer
                    .recover()
                    .unwrap_or_else(|e| panic!("{}: recovery: {e}", kind.name()))
                    as usize;
            }
        }
    }
    assert_eq!(
        recoveries,
        usize::from(expect_fault),
        "{}: scheduled kill must fire iff planned",
        kind.name()
    );
    let params = trainer
        .params()
        .unwrap_or_else(|e| panic!("{}: collect: {e}", kind.name()));
    trainer.shutdown();
    params
}

/// Fault-injection conformance on the threaded runtime: for every
/// schedule, kill → typed error → recover → replay lands bit-identically
/// on that schedule's uninterrupted twin — and all five twins agree.
#[test]
fn every_schedule_recovers_bit_identically() {
    let data = round_data(17, 3, 4);
    let reference = train_with(ScheduleKind::OneFOneBSync, FaultPlan::none(), &data, false);
    for kind in ScheduleKind::all() {
        let clean = train_with(kind, FaultPlan::none(), &data, false);
        assert_eq!(
            clean,
            reference,
            "{}: round-synchronous runtime must be schedule-invariant",
            kind.name()
        );
        let replayed = train_with(kind, FaultPlan::kill_at(1, 1, 2), &data, true);
        assert_eq!(
            replayed,
            clean,
            "{}: replay diverged from the uninterrupted twin",
            kind.name()
        );
    }
}

fn span_fingerprint(r: &ExecutionReport) -> Vec<u64> {
    let mut out = vec![
        r.makespan.to_bits(),
        r.throughput.to_bits(),
        r.ssb_per_round.to_bits(),
    ];
    for s in &r.task_spans {
        out.extend([
            s.entity as u64,
            s.micro as u64,
            s.round as u64,
            s.t0.to_bits(),
            s.t1.to_bits(),
        ]);
    }
    out.extend(r.stage_peak_memory.iter().copied());
    out
}

/// Determinism conformance on the virtual-time executor: two runs of the
/// same schedule produce byte-identical reports and span streams.
#[test]
fn every_schedule_is_deterministic_in_the_executor() {
    let model = efficientnet_at(0, 224);
    let devices = vec![
        Device::new(tx2_q()),
        Device::new(nano_h()),
        Device::new(nano_h()),
    ];
    let l = model.num_layers();
    let profile = PipelineProfile::new(
        &model,
        &[0, l / 3, 2 * l / 3, l],
        &devices,
        &Link::mbps_100(),
        4,
    );
    for kind in ScheduleKind::all() {
        let policy = kind
            .policy_for(&profile)
            .unwrap_or_else(|| panic!("{}: no feasible residency", kind.name()));
        let run = || {
            PipelineExecutor::new(&profile, policy.clone())
                .expect("valid policy")
                .run(6, 2)
                .expect("no OOM")
        };
        let (a, b) = (run(), run());
        assert_eq!(
            span_fingerprint(&a),
            span_fingerprint(&b),
            "{}: executor drifted between identical runs",
            kind.name()
        );
    }
}

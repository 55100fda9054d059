//! The portal↔stage protocol, pinned from the outside: a sync-round is
//! one `Round` out and one `RoundDone { losses, params }` back per stage
//! — the flush is stage-local and the checkpoint rides on the reply — so
//! the portal waits `S` times per round, counted here through the hub;
//! and because stages flush on their own, a stage lost at *any* point of
//! a round — even after its neighbours have flushed — must still leave
//! nothing of that round observable.

use ecofl_obs::MetricsHub;
use ecofl_pipeline::executor::ExecError;
use ecofl_pipeline::runtime::{FaultPlan, PipelineTrainer, RuntimeOptions, SegmentFactory};
use ecofl_tensor::{Layer, Linear, ReLU, Tensor};
use ecofl_util::Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const WIDTHS: [usize; 4] = [7, 9, 8, 4];

/// An identity layer that panics in its `at`-th backward, once: the
/// fault is transient, so the layers a recovery rebuilds find it spent.
struct PanicOnBackward {
    calls: usize,
    at: usize,
    armed: Arc<AtomicBool>,
}

impl Layer for PanicOnBackward {
    fn name(&self) -> &'static str {
        "panic-on-backward"
    }
    fn forward(&mut self, input: Tensor) -> Tensor {
        input
    }
    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        self.calls += 1;
        let fire = self.calls == self.at && self.armed.swap(false, Ordering::SeqCst);
        assert!(!fire, "synthetic backward fault");
        grad_out
    }
}

/// A three-linear MLP over `stages` ∈ 1..=3 stages.
fn factory(stages: usize) -> SegmentFactory {
    factory_with(stages, None)
}

/// [`factory`], with `fault` appended to stage 0 when given as
/// `(backward call to panic in, armed flag)`.
fn factory_with(stages: usize, fault: Option<(usize, Arc<AtomicBool>)>) -> SegmentFactory {
    Box::new(move || {
        let mut rng = Rng::new(41);
        let mut segments: Vec<Vec<Box<dyn Layer>>> = (0..stages).map(|_| Vec::new()).collect();
        for l in 0..3 {
            // Layer block `l` goes to stage `l`, or to the last one.
            let segment = &mut segments[l.min(stages - 1)];
            segment.push(Box::new(Linear::new(WIDTHS[l], WIDTHS[l + 1], &mut rng)));
            if l < 2 {
                segment.push(Box::new(ReLU::new()));
            }
        }
        if let Some((at, armed)) = fault.clone() {
            let calls = 0;
            segments[0].push(Box::new(PanicOnBackward { calls, at, armed }));
        }
        segments
    })
}

fn round_data(rounds: usize, m: usize) -> Vec<Vec<(Tensor, Vec<usize>)>> {
    let mut rng = Rng::new(97);
    (0..rounds)
        .map(|_| {
            (0..m)
                .map(|_| {
                    let x = Tensor::randn(&[3, WIDTHS[0]], 1.0, &mut rng);
                    let y = (0..3).map(|_| rng.range_usize(0, WIDTHS[3])).collect();
                    (x, y)
                })
                .collect()
        })
        .collect()
}

fn residency(stages: usize) -> Vec<usize> {
    (0..stages).map(|s| stages - s).collect()
}

/// A fault-free twin's parameters at launch and after each round of
/// `data` (index = rounds completed): what a checkpoint may hold.
fn twin_params_after_each_round(
    stages: usize,
    data: &[Vec<(Tensor, Vec<usize>)>],
    lr: f32,
) -> Vec<Vec<f32>> {
    let mut twin =
        PipelineTrainer::launch_supervised(factory(stages), residency(stages), Default::default())
            .expect("launch");
    let mut after_round = vec![twin.params().expect("collect")];
    for batch in data {
        twin.train_round(batch, lr).expect("fault-free round");
        after_round.push(twin.params().expect("collect"));
    }
    twin.shutdown();
    after_round
}

#[test]
fn the_portal_waits_once_per_stage_per_round() {
    for stages in 1..=3usize {
        for rounds in [1usize, 4] {
            let hub = MetricsHub::new();
            let opts = RuntimeOptions {
                metrics: Some(hub.clone()),
                ..RuntimeOptions::default()
            };
            let mut trainer =
                PipelineTrainer::launch_supervised(factory(stages), residency(stages), opts)
                    .expect("launch");
            for batch in &round_data(rounds, 4) {
                trainer.train_round(batch, 0.1).expect("round");
            }
            let snap = hub.snapshot(0);
            // The launch checkpoint collects once per stage; after that a
            // round is one reply per stage, checkpoint included.
            let waits = snap.histogram("rt_recv_wait_ns").expect("histogram");
            assert_eq!(
                waits.count,
                (stages * (rounds + 1)) as u64,
                "{stages} stages, {rounds} rounds"
            );
            assert_eq!(snap.counter("rt_checkpoints"), Some(rounds as u64 + 1));
            assert_eq!(snap.counter("rt_recv_timeouts"), Some(0));
            assert_eq!(trainer.checkpoint().round, rounds as u64);
            // The snapshot that rode on the replies is the stages' state.
            let snapshot = trainer.checkpoint().params.clone();
            assert_eq!(trainer.params().expect("collect"), snapshot);
            trainer.shutdown();
        }
    }
}

#[test]
fn a_kill_at_every_stage_and_micro_batch_of_a_round_replays_bit_identically() {
    let (stages, rounds, m, lr) = (3usize, 3usize, 4usize, 0.1f32);
    let data = round_data(rounds, m);
    let after_round = twin_params_after_each_round(stages, &data, lr);

    for kill_stage in 0..stages {
        for kill_micro in 0..m {
            let what = format!("kill before forward {kill_micro} of stage {kill_stage}");
            let opts = RuntimeOptions {
                recv_timeout: Duration::from_secs(10),
                fault_plan: FaultPlan::kill_at(kill_stage, 1, kill_micro),
                ..RuntimeOptions::default()
            };
            let mut trainer =
                PipelineTrainer::launch_supervised(factory(stages), residency(stages), opts)
                    .expect("launch");
            trainer.train_round(&data[0], lr).expect("round 0 is clean");
            let err = trainer.train_round(&data[1], lr).expect_err(&what);
            assert!(
                matches!(err, ExecError::StageDied { stage, .. } if stage == kill_stage),
                "{what}: {err:?}"
            );
            // An injected kill fires before a forward, so no stage saw
            // all of round 1 and none flushed it: the trainer is poisoned
            // and the checkpoint is still the one round 0 left.
            assert_eq!(trainer.params().unwrap_err(), err, "{what}");
            assert_eq!(trainer.checkpoint().round, 1, "{what}");
            assert_eq!(trainer.checkpoint().params, after_round[1], "{what}");

            assert_eq!(trainer.recover().expect("recovery"), 1, "{what}");
            assert_eq!(trainer.params().expect("collect"), after_round[1], "{what}");
            for (r, batch) in data.iter().enumerate().skip(1) {
                trainer.train_round(batch, lr).expect("replayed round");
                assert_eq!(trainer.checkpoint().params, after_round[r + 1], "{what}");
            }
            assert_eq!(
                trainer.params().expect("collect"),
                after_round[rounds],
                "{what}"
            );
            trainer.shutdown();
        }
    }
}

#[test]
fn a_stage_lost_after_its_neighbours_flushed_leaves_no_half_applied_round() {
    let (stages, rounds, m, lr) = (3usize, 3usize, 4usize, 0.1f32);
    let data = round_data(rounds, m);
    let after_round = twin_params_after_each_round(stages, &data, lr);

    // Stage 0 dies in the last backward of round 1. That backward's
    // gradient came from stage 1, which had taken its own last one from
    // stage 2: both are past their `m` backwards and flush round 1 on
    // their own, while stage 0 never does.
    let armed = Arc::new(AtomicBool::new(true));
    let opts = RuntimeOptions {
        recv_timeout: Duration::from_secs(10),
        ..RuntimeOptions::default()
    };
    let mut trainer = PipelineTrainer::launch_supervised(
        factory_with(stages, Some((2 * m, Arc::clone(&armed)))),
        residency(stages),
        opts,
    )
    .expect("launch");
    assert_eq!(trainer.params().expect("collect"), after_round[0]);
    trainer.train_round(&data[0], lr).expect("round 0 is clean");
    let err = trainer
        .train_round(&data[1], lr)
        .expect_err("stage 0's last backward of round 1 panics");
    match &err {
        ExecError::StageDied { stage: 0, during } => {
            assert!(during.contains("synthetic backward fault"), "got: {during}");
        }
        other => panic!("expected stage 0 to die, got {other:?}"),
    }
    assert!(!armed.load(Ordering::SeqCst), "the fault fired");
    // Nothing of the half-applied round can be read ...
    assert_eq!(trainer.params().unwrap_err(), err);
    assert_eq!(trainer.train_round(&data[1], lr).unwrap_err(), err);
    assert_eq!(trainer.checkpoint().params, after_round[1]);
    // ... and recovery rebuilds every stage, flushed or not.
    assert_eq!(trainer.recover().expect("recovery"), 1);
    assert_eq!(trainer.params().expect("collect"), after_round[1]);
    for (r, batch) in data.iter().enumerate().skip(1) {
        trainer.train_round(batch, lr).expect("replayed round");
        assert_eq!(trainer.params().expect("collect"), after_round[r + 1]);
    }
    trainer.shutdown();
}

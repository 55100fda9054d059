//! The metrics hub only *observes*: attaching a [`MetricsHub`] to the
//! threaded pipeline runtime — the one engine that still feeds a hub,
//! with wall-clock timings — must leave its parameters **bit-identical**
//! to a detached run. `scripts/ci.sh` re-runs this suite optimized under
//! a watchdog, since it drives the threaded runtime.

use ecofl::obs::MetricsHub;
use ecofl::prelude::*;
use ecofl_pipeline::runtime::{PipelineTrainer, RuntimeOptions, SegmentFactory};
use ecofl_tensor::{Layer, Linear, ReLU};

/// One hidden block per stage; same seed → same initial weights.
fn mlp_factory(seed: u64, stages: usize) -> SegmentFactory {
    Box::new(move || {
        let widths: Vec<usize> = std::iter::once(12)
            .chain(std::iter::repeat_n(16, stages - 1))
            .chain(std::iter::once(4))
            .collect();
        let mut rng = Rng::new(seed);
        (0..widths.len() - 1)
            .map(|s| {
                let mut layers: Vec<Box<dyn Layer>> =
                    vec![Box::new(Linear::new(widths[s], widths[s + 1], &mut rng))];
                if s + 2 < widths.len() {
                    layers.push(Box::new(ReLU::new()));
                }
                layers
            })
            .collect()
    })
}

#[test]
fn threaded_runtime_params_are_bit_identical_with_hub_attached() {
    let stages = 2;
    let rounds = 2;
    let m = 4;
    let k: Vec<usize> = (0..stages).map(|s| stages - s).collect();
    let data: Vec<Vec<(Tensor, Vec<usize>)>> = (0..rounds)
        .map(|r| {
            let mut rng = Rng::new(100 + r as u64);
            (0..m)
                .map(|_| {
                    let x = Tensor::randn(&[6, 12], 1.0, &mut rng);
                    let y = (0..6).map(|_| rng.range_usize(0, 4)).collect();
                    (x, y)
                })
                .collect()
        })
        .collect();

    let run = |metrics: Option<MetricsHub>| -> Vec<f32> {
        let opts = RuntimeOptions {
            metrics,
            ..RuntimeOptions::default()
        };
        let mut trainer =
            PipelineTrainer::launch_supervised(mlp_factory(3, stages), k.clone(), opts)
                .expect("launches");
        for batch in &data {
            trainer.train_round(batch, 0.05).expect("round runs");
        }
        let params = trainer.params().expect("collects");
        trainer.shutdown();
        params
    };

    let plain = run(None);
    let hub = MetricsHub::new();
    let metered = run(Some(hub.clone()));
    assert_eq!(plain, metered, "hub must not perturb training");

    // The wall-clock instrumentation really measured the run.
    let snap = hub.snapshot(0);
    // Launch checkpoint + one per round.
    assert_eq!(snap.counter("rt_checkpoints"), Some(rounds as u64 + 1));
    assert_eq!(snap.counter("rt_stage_deaths"), Some(0));
    assert_eq!(snap.counter("rt_recv_timeouts"), Some(0));
    let fwd = snap.histogram("rt_fwd_compute_ns").expect("histogram");
    assert_eq!(fwd.count, (stages * m * rounds) as u64);
    let bwd = snap.histogram("rt_bwd_compute_ns").expect("histogram");
    assert_eq!(bwd.count, (stages * m * rounds) as u64);
    assert!(bwd.sum > 0.0, "backward compute takes real time");
    let wait = snap.histogram("rt_recv_wait_ns").expect("histogram");
    assert!(wait.count > 0, "portal waits are measured");
    let round_ns = snap.histogram("rt_round_ns").expect("histogram");
    assert_eq!(round_ns.count, rounds as u64);
    let ckpt_ns = snap.histogram("rt_checkpoint_ns").expect("histogram");
    assert_eq!(ckpt_ns.count, rounds as u64 + 1);
}

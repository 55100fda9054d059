//! The metrics hub only *observes*: attaching a [`MetricsHub`] to the
//! FL engine, the virtual-time executor, or the threaded pipeline
//! runtime must leave results and traces **bit-identical** to a
//! detached run. `scripts/ci.sh` re-runs this suite optimized under a
//! watchdog, since it drives the threaded runtime.

use ecofl::prelude::*;
use ecofl_pipeline::executor::{PipelineExecutor, SchedulePolicy};
use ecofl_pipeline::profiler::{PipelineProfile, StageProfile};
use ecofl_pipeline::runtime::{PipelineTrainer, RuntimeOptions, SegmentFactory};
use ecofl_tensor::{Layer, Linear, ReLU};

fn tiny_setup(seed: u64) -> FlSetup {
    let config = FlConfig {
        num_clients: 12,
        clients_per_round: 4,
        num_groups: 2,
        horizon: 120.0,
        eval_interval: 30.0,
        seed,
        ..FlConfig::default()
    };
    let data = FederatedDataset::generate(
        &SyntheticSpec::mnist_like(),
        12,
        30,
        20,
        PartitionScheme::ClassesPerClient(2),
        None,
        seed,
    );
    FlSetup {
        data,
        arch: ModelArch::Mlp,
        config,
    }
}

#[test]
fn fl_run_is_bit_identical_with_hub_attached() {
    let setup = tiny_setup(7);
    let strategy = Strategy::EcoFl {
        dynamic_grouping: true,
    };

    let tracer_a = Tracer::new();
    let plain = run_strategy(strategy, &setup, &tracer_a);

    let tracer_b = Tracer::new();
    let hub = MetricsHub::new();
    let metered = run_strategy(strategy, &setup, Obs::from(&tracer_b).with_hub(&hub));

    // The RunResult is bit-identical...
    assert_eq!(plain.accuracy, metered.accuracy);
    assert_eq!(
        plain.final_accuracy.to_bits(),
        metered.final_accuracy.to_bits()
    );
    assert_eq!(
        plain.best_accuracy.to_bits(),
        metered.best_accuracy.to_bits()
    );
    assert_eq!(plain.global_updates, metered.global_updates);
    assert_eq!(plain.regroup_events, metered.regroup_events);
    assert_eq!(plain.dropped_final, metered.dropped_final);
    assert_eq!(plain.final_recall, metered.final_recall);
    // ...and so is the full trace record stream.
    assert_eq!(tracer_a.records(), tracer_b.records());

    // The hub actually observed the run.
    let snap = hub.snapshot(0);
    assert_eq!(
        snap.counter("fl_global_updates"),
        Some(metered.global_updates)
    );
    assert!(snap.counter("fl_cohorts_dispatched").unwrap_or(0) > 0);
    let latency = snap.histogram("fl_round_latency_s").expect("histogram");
    assert!(latency.count > 0);
    let acc = snap.gauge("fl_accuracy").expect("accuracy gauge");
    assert_eq!(acc.last.to_bits(), metered.final_accuracy.to_bits());

    // Tracer + hub in one `Obs` also equals the hub-only run: the same
    // result and the same series, bit for bit.
    let hub_only = MetricsHub::new();
    let lone = run_strategy(strategy, &setup, &hub_only);
    assert_eq!(lone.accuracy, metered.accuracy);
    assert_eq!(lone.final_recall, metered.final_recall);
    assert_eq!(hub_only.snapshot(0), snap);
}

fn uniform_profile(s_count: usize) -> PipelineProfile {
    let stages: Vec<StageProfile> = (0..s_count)
        .map(|s| {
            let last = s + 1 == s_count;
            StageProfile {
                device: s,
                layers: s..s + 1,
                t_fwd: 0.4,
                t_bwd: 0.8,
                c_fwd: if last { 0.0 } else { 0.1 },
                c_bwd: if last { 0.0 } else { 0.1 },
                param_bytes: 1,
                activation_bytes_per_mb: 1,
                boundary_bytes: 1,
                memory_budget_bytes: 1 << 40,
                efficiency: 1.0,
            }
        })
        .collect();
    PipelineProfile::from_stages(stages, 4)
}

#[test]
fn executor_report_and_trace_are_bit_identical_with_hub_attached() {
    let profile = uniform_profile(3);
    let k = vec![3, 2, 1];
    let policies = [
        SchedulePolicy::OneFOneBSync { k: k.clone() },
        SchedulePolicy::ZeroBubble { k: k.clone() },
    ];
    for policy in policies {
        let exec_plain = PipelineExecutor::new(&profile, policy.clone()).expect("executor");
        let tracer_a = Tracer::new();
        let plain = exec_plain.run_traced(6, 2, &tracer_a).expect("runs");

        let hub = MetricsHub::new();
        let exec_metered = PipelineExecutor::new(&profile, policy.clone()).expect("executor");
        let tracer_b = Tracer::new();
        let metered = exec_metered
            .run_traced(6, 2, Obs::from(&tracer_b).with_hub(&hub))
            .expect("runs");

        // Reports print identically (`Debug` writes each f64 as its
        // shortest round-trip string, NaN and ±inf included) and traces
        // match.
        assert_eq!(format!("{plain:?}"), format!("{metered:?}"));
        assert_eq!(tracer_a.records(), tracer_b.records());

        // Every dispatched compute task was counted, at its virtual
        // duration.
        let snap = hub.snapshot(0);
        assert_eq!(
            snap.counter("exec_tasks"),
            Some(metered.task_spans.len() as u64)
        );
        let task_s = snap.histogram("exec_task_s").expect("histogram");
        assert_eq!(task_s.count, metered.task_spans.len() as u64);
        let round_s = snap.histogram("exec_round_s").expect("histogram");
        assert_eq!(round_s.count, metered.rounds as u64);

        // Tracer + hub in one `Obs` also equals the hub-only run.
        let hub_only = MetricsHub::new();
        let lone = exec_plain.run_traced(6, 2, &hub_only).expect("runs");
        assert_eq!(format!("{lone:?}"), format!("{metered:?}"));
        assert_eq!(hub_only.snapshot(0), snap);
    }
}

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

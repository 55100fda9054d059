//! Threaded-runtime layers (`rt_1f1b_recover`): the CLI's §4.4 fault
//! demo rebuilt from its flags — twin run, run with one stage killed
//! mid-round, recover, replay — with real spans around the public
//! `PipelineTrainer` calls and the runtime's own `rt_*` wall-clock
//! series read from a `MetricsHub` handed in through `RuntimeOptions`.

use crate::span::Spans;
use crate::Metrics;
use ecofl_benchmark::workloads::Op;
use ecofl_obs::{MetricsHub, MetricsSnapshot};
use ecofl_pipeline::runtime::{FaultPlan, PipelineTrainer, RuntimeOptions, SegmentFactory};
use ecofl_tensor::{Layer, Linear, ReLU, Tensor};
use ecofl_util::Rng;
use std::time::Instant;

/// The CLI's small MLP, one hidden block per stage (`cmd_spike_kill`).
fn segments(widths: &[usize], seed: u64) -> Vec<Vec<Box<dyn Layer>>> {
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
}

fn round_data(seed: u64, rounds: u64) -> Vec<Vec<(Tensor, Vec<usize>)>> {
    (0..rounds)
        .map(|r| {
            let mut rng = Rng::new(seed.wrapping_add(1000 + r));
            (0..4)
                .map(|_| {
                    let x = Tensor::randn(&[8, 16], 1.0, &mut rng);
                    let y = (0..8).map(|_| rng.range_usize(0, 6)).collect();
                    (x, y)
                })
                .collect()
        })
        .collect()
}

fn histogram_sum(snapshot: &MetricsSnapshot, name: &str) -> (f64, u64) {
    snapshot
        .histogram(name)
        .map_or((0.0, 0), |h| (h.sum, h.count))
}

/// One op: returns whether the replayed parameters matched the twin's.
fn run_op(op: &Op, hub: &MetricsHub, spans: &Spans) -> Result<bool, String> {
    let num = |key: &str| -> Result<u64, String> {
        op.flag(key)
            .ok_or(format!("spike op without --{key}"))?
            .parse()
            .map_err(|_| format!("spike op: bad --{key}"))
    };
    let stages = op
        .flag("devices")
        .ok_or("spike op without --devices")?
        .split(',')
        .count();
    let (rounds, seed) = (num("rounds")?, num("seed")?);
    let (kill_stage, kill_round, kill_micro) = (
        num("kill-stage")? as usize,
        num("kill-round")?,
        num("kill-micro")? as usize,
    );
    let widths: Vec<usize> = std::iter::once(16)
        .chain(std::iter::repeat_n(24, stages - 1))
        .chain(std::iter::once(6))
        .collect();
    let factory =
        |widths: Vec<usize>| -> SegmentFactory { Box::new(move || segments(&widths, seed)) };
    let data = round_data(seed, rounds);
    let k: Vec<usize> = (0..stages).map(|s| stages - s).collect();
    let lr = 0.1;
    let err = |e: ecofl_pipeline::executor::ExecError| e.to_string();

    // Uninterrupted twin: the plain per-round cost.
    let mut twin = spans
        .time("pipeline.runtime.launch", || {
            PipelineTrainer::launch_supervised(
                factory(widths.clone()),
                k.clone(),
                RuntimeOptions::default(),
            )
        })
        .map_err(err)?;
    for batch in &data {
        spans
            .time("pipeline.runtime.round", || twin.train_round(batch, lr))
            .map_err(err)?;
    }
    let twin_params = twin.params().map_err(err)?;
    spans.time("pipeline.runtime.shutdown", || twin.shutdown());

    // Faulted run, observed by the hub.
    let opts = RuntimeOptions {
        fault_plan: FaultPlan::kill_at(kill_stage, kill_round, kill_micro),
        metrics: Some(hub.clone()),
        ..RuntimeOptions::default()
    };
    let mut trainer = spans
        .time("pipeline.runtime.launch", || {
            PipelineTrainer::launch_supervised(factory(widths.clone()), k, opts)
        })
        .map_err(err)?;
    let mut r = 0u64;
    while r < rounds {
        match spans.time("pipeline.runtime.faulted_round", || {
            trainer.train_round(&data[r as usize], lr)
        }) {
            Ok(_) => r += 1,
            Err(_) => {
                r = spans
                    .time("pipeline.runtime.recover", || trainer.recover())
                    .map_err(err)?;
            }
        }
    }
    let params = trainer.params().map_err(err)?;
    spans.time("pipeline.runtime.shutdown", || trainer.shutdown());
    Ok(params == twin_params)
}

/// One stage holding the whole MLP: what a round costs with no portal
/// hand-offs between stage threads.
fn single_stage_round_us(rounds: u64) -> f64 {
    let all: Vec<Box<dyn Layer>> = segments(&[16, 24, 6], 1).into_iter().flatten().collect();
    let mut trainer = PipelineTrainer::launch(vec![all], vec![1]);
    let data = round_data(1, rounds);
    let started = Instant::now();
    for batch in &data {
        let _ = trainer.train_round(batch, 0.1);
    }
    let us = started.elapsed().as_secs_f64() * 1e6 / rounds as f64;
    trainer.shutdown();
    us
}

/// Runs the runtime probe; returns `(in-process seconds, failures)`.
pub fn probe(ops: &[Op], spans: &Spans, metrics: &mut Metrics) -> (f64, Vec<String>) {
    let started = Instant::now();
    let mut failures = Vec::new();
    let hub = MetricsHub::new();
    let mut stages = 2;
    for (i, op) in ops.iter().enumerate() {
        stages = op.flag("devices").map_or(2, |d| d.split(',').count());
        match run_op(op, &hub, spans) {
            Ok(true) => {}
            Ok(false) => failures.push(format!(
                "op {i}: replayed parameters differ from the twin run"
            )),
            Err(e) => failures.push(format!("op {i}: {e}")),
        }
    }
    let in_process = started.elapsed().as_secs_f64();

    let snapshot = hub.snapshot(0);
    let (round_ns, _) = histogram_sum(&snapshot, "rt_round_ns");
    let (fwd_ns, _) = histogram_sum(&snapshot, "rt_fwd_compute_ns");
    let (bwd_ns, _) = histogram_sum(&snapshot, "rt_bwd_compute_ns");
    let (wait_ns, _) = histogram_sum(&snapshot, "rt_recv_wait_ns");
    let (ckpt_ns, ckpts) = histogram_sum(&snapshot, "rt_checkpoint_ns");
    // Stage threads exist for the whole of every round, so their compute
    // shares are taken of (stages × round wall); the portal's wait share
    // of the round wall itself.
    let stage_time = round_ns * stages as f64;
    let share = |ns: f64, of: f64| if of > 0.0 { ns / of } else { 0.0 };
    metrics.set(
        "pipeline.runtime.launch_ms",
        spans.total("pipeline.runtime.launch").mean_us() / 1e3,
    );
    metrics.set(
        "pipeline.runtime.round_us",
        spans.total("pipeline.runtime.round").mean_us(),
    );
    metrics.set(
        "pipeline.runtime.fwd_compute_share",
        share(fwd_ns, stage_time),
    );
    metrics.set(
        "pipeline.runtime.bwd_compute_share",
        share(bwd_ns, stage_time),
    );
    metrics.set(
        "pipeline.runtime.portal_wait_share",
        share(wait_ns, round_ns),
    );
    metrics.set(
        "pipeline.runtime.checkpoint_us",
        if ckpts == 0 {
            0.0
        } else {
            ckpt_ns / 1e3 / ckpts as f64
        },
    );
    metrics.set(
        "pipeline.runtime.recover_ms",
        spans.total("pipeline.runtime.recover").mean_us() / 1e3,
    );
    metrics.set(
        "pipeline.runtime.shutdown_ms",
        spans.total("pipeline.runtime.shutdown").mean_us() / 1e3,
    );
    metrics.set(
        "pipeline.runtime.stage_deaths",
        snapshot.counter("rt_stage_deaths").unwrap_or(0) as f64,
    );
    metrics.set("pipeline.runtime.round_us.s1", single_stage_round_us(500));
    (in_process, failures)
}

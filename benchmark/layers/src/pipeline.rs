//! Pipeline layers (`pipeline_plan`): each `ecofl plan` op is run
//! in-process through the public `search_configuration`, then its
//! search loop is walked again from here — same candidates, same order —
//! with a span around every child call (Eq. 1 partitioner, profiler,
//! Eq. 3 bounds, virtual-time executor), so the children can be summed
//! against the real search.

use crate::span::Spans;
use crate::Metrics;
use ecofl_benchmark::cliout;
use ecofl_benchmark::workloads::{Op, SCHEDULES};
use ecofl_models::{efficientnet_at, mobilenet_v2_at, ModelProfile};
use ecofl_pipeline::adaptive::{simulate_load_spike, LoadSpike};
use ecofl_pipeline::orchestrator::{k_bounds, p_bounds};
use ecofl_pipeline::{
    partition_dp, search_configuration, OrchestratorConfig, PipelineExecutor, PipelineProfile,
    ScheduleKind,
};
use ecofl_simnet::{nano_h, nano_l, tx2_n, tx2_q, Device, Link};
use std::hint::black_box;
use std::time::Instant;

/// The CLI's `--model` names (`parse_model` in `src/main.rs`).
pub fn model_of(name: &str) -> Result<ModelProfile, String> {
    let (base, res) = match name.split_once('@') {
        Some((b, r)) => (
            b,
            r.parse().map_err(|_| format!("bad resolution in {name}"))?,
        ),
        None => (name, 224),
    };
    match base.split_once('-') {
        Some(("effnet", b)) => b
            .strip_prefix('b')
            .and_then(|n| n.parse::<usize>().ok())
            .filter(|n| *n <= 6)
            .map(|n| efficientnet_at(n, res)),
        Some(("mobilenet", w)) => w
            .strip_prefix('w')
            .and_then(|n| n.parse::<u32>().ok())
            .filter(|n| (1..=3).contains(n))
            .map(|n| mobilenet_v2_at(f64::from(n), res)),
        _ => None,
    }
    .ok_or(format!("unknown model {name}"))
}

/// The CLI's `--devices` names.
pub fn devices_of(spec: &str) -> Result<Vec<Device>, String> {
    spec.split(',')
        .map(|d| match d.trim() {
            "nanol" => Ok(Device::new(nano_l())),
            "nanoh" => Ok(Device::new(nano_h())),
            "tx2q" => Ok(Device::new(tx2_q())),
            "tx2n" => Ok(Device::new(tx2_n())),
            other => Err(format!("unknown device {other}")),
        })
        .collect()
}

/// All permutations of `0..n` in the order the orchestrator's private
/// Heap's-algorithm generator yields them (ties between equal-throughput
/// plans go to the first one met, so the order is part of the contract).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn rec(k: usize, arr: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k == 1 {
            out.push(arr.clone());
            return;
        }
        for i in 0..k {
            rec(k - 1, arr, out);
            if k.is_multiple_of(2) {
                arr.swap(i, k - 1);
            } else {
                arr.swap(0, k - 1);
            }
        }
    }
    let mut out = Vec::new();
    rec(n, &mut (0..n).collect(), &mut out);
    out
}

/// What the spanned walk over the search's candidates found.
struct Replica {
    best_throughput: Option<f64>,
    candidates: u64,
    tasks: u64,
}

/// `search_configuration`'s loop, one span per child call.
fn replica(
    model: &ModelProfile,
    devices: &[Device],
    link: &Link,
    config: &OrchestratorConfig,
    spans: &Spans,
) -> Replica {
    let mut best_free: Option<f64> = None;
    let mut best_fallback: Option<f64> = None;
    let mut candidates = 0;
    let mut tasks = 0;
    let orders = permutations(devices.len());
    for &mbs in &config.mbs_candidates {
        if mbs == 0 || mbs > config.global_batch {
            continue;
        }
        let m = config.global_batch / mbs;
        for order in &orders {
            candidates += 1;
            let ordered: Vec<Device> = order.iter().map(|&i| devices[i].clone()).collect();
            let Some(partition) = spans.time("pipeline.partition.dp", || {
                partition_dp(model, &ordered, link, mbs)
            }) else {
                continue;
            };
            let profile = spans.time("pipeline.profiler.profile", || {
                PipelineProfile::new(model, &partition.boundaries, &ordered, link, mbs)
            });
            let bounds = spans.time("pipeline.orchestrator.bounds", || {
                let p = p_bounds(&profile);
                let k = k_bounds(&profile)?;
                let policy = config.schedule.policy_for(&profile)?;
                Some((p, k, policy))
            });
            let Some((p, k, policy)) = bounds else {
                continue;
            };
            let ddb_free = k == p && m >= *p.iter().max().unwrap_or(&1);
            let report = spans.time("pipeline.executor.run", || {
                PipelineExecutor::new(&profile, policy)
                    .ok()
                    .and_then(|exec| exec.run(m, config.eval_rounds).ok())
            });
            let Some(report) = report else {
                continue;
            };
            tasks += report.task_spans.len() as u64;
            let slot = if ddb_free {
                &mut best_free
            } else {
                &mut best_fallback
            };
            if slot.is_none_or(|b| report.throughput > b) {
                *slot = Some(report.throughput);
            }
        }
    }
    Replica {
        best_throughput: best_free.or(best_fallback),
        candidates,
        tasks,
    }
}

/// The pipeline every `trace_write` op simulates: EfficientNet-B4 over
/// four devices, micro-batch 4, 32 micro-batches a round.
pub fn trace_profile() -> Result<PipelineProfile, String> {
    let model = model_of("effnet-b4")?;
    let devices = devices_of("tx2q,tx2n,nanoh,nanoh")?;
    let link = Link::mbps_100();
    let partition = partition_dp(&model, &devices, &link, 4).ok_or("no feasible partition")?;
    Ok(PipelineProfile::new(
        &model,
        &partition.boundaries,
        &devices,
        &link,
        4,
    ))
}

/// µs per simulated sync-round of each schedule on [`trace_profile`].
pub fn round_costs(metrics: &mut Metrics) -> Result<(), String> {
    const ROUNDS: usize = 40;
    let profile = trace_profile()?;
    for name in SCHEDULES {
        let kind: ScheduleKind = name.parse()?;
        let policy = kind
            .policy_for(&profile)
            .ok_or("memory admits no residency")?;
        let exec = PipelineExecutor::new(&profile, policy).map_err(|e| e.to_string())?;
        let started = Instant::now();
        black_box(exec.run(32, ROUNDS).map_err(|e| e.to_string())?);
        let us = started.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64;
        metrics.set(format!("pipeline.executor.round_us.{name}"), us);
    }
    Ok(())
}

/// Runs the plan probe; returns `(in-process seconds, failures)`.
pub fn probe(
    ops: &[Op],
    cli_stdout: &[String],
    spans: &Spans,
    metrics: &mut Metrics,
) -> (f64, Vec<String>) {
    let mut failures = Vec::new();
    let link = Link::mbps_100();
    let (mut candidates, mut tasks) = (0u64, 0u64);
    let mut search_s = 0.0;
    for (i, op) in ops.iter().enumerate() {
        let parsed = (|| {
            let name = op.flag("model").ok_or("plan op without --model")?;
            let model = spans.time("models.profile", || model_of(name))?;
            let devices = devices_of(op.flag("devices").ok_or("plan op without --devices")?)?;
            let batch = op.flag("batch").map_or(Ok(128), str::parse::<usize>);
            Ok::<_, String>((model, devices, batch.map_err(|_| "bad --batch")?))
        })();
        let (model, devices, batch) = match parsed {
            Ok(p) => p,
            Err(e) => {
                failures.push(format!("op {i}: {e}"));
                continue;
            }
        };
        // The CLI's `plan` configuration.
        let config = OrchestratorConfig {
            global_batch: batch,
            mbs_candidates: vec![32, 16, 8, 4],
            eval_rounds: 2,
            ..OrchestratorConfig::default()
        };
        let t0 = Instant::now();
        let plan = spans.time("pipeline.orchestrator.search", || {
            search_configuration(&model, &devices, &link, &config)
        });
        search_s += t0.elapsed().as_secs_f64();
        let walked = spans.time("pipeline.orchestrator.replica", || {
            replica(&model, &devices, &link, &config, spans)
        });
        candidates += walked.candidates;
        tasks += walked.tasks;

        let searched = plan.map(|p| p.report.throughput);
        if searched != walked.best_throughput {
            failures.push(format!(
                "op {i}: the spanned walk chose {:?} samples/s, search_configuration {searched:?}",
                walked.best_throughput
            ));
        }
        let printed = cli_stdout.get(i).and_then(|s| cliout::parse_plan(s).ok());
        match (searched, printed) {
            (Some(t), Some(cli)) if format!("{t:.2}") == format!("{:.2}", cli.throughput) => {}
            (t, cli) => failures.push(format!(
                "op {i}: in-process plan {t:?} samples/s differs from the CLI's {:?}",
                cli.map(|c| c.throughput)
            )),
        }
    }

    let dp = spans.total("pipeline.partition.dp");
    let profile = spans.total("pipeline.profiler.profile");
    let bounds = spans.total("pipeline.orchestrator.bounds");
    let run = spans.total("pipeline.executor.run");
    let children_s = (dp.busy_ns + profile.busy_ns + bounds.busy_ns + run.busy_ns) as f64 / 1e9;
    metrics.set("models.profile_us", spans.total("models.profile").mean_us());
    metrics.set("pipeline.partition.dp_us", dp.mean_us());
    metrics.set("pipeline.partition.calls", dp.count as f64);
    metrics.set("pipeline.profiler.profile_us", profile.mean_us());
    metrics.set("pipeline.orchestrator.search_ms", search_s * 1e3);
    // What the search spends outside its four children: permutation
    // generation, device clones, plan bookkeeping.
    metrics.set(
        "pipeline.orchestrator.self_ms",
        (search_s - children_s) * 1e3,
    );
    metrics.set("pipeline.orchestrator.candidates", candidates as f64);
    metrics.set("pipeline.executor.run_us", run.mean_us());
    metrics.set(
        "pipeline.executor.tasks_per_s",
        if run.busy_ns == 0 {
            0.0
        } else {
            tasks as f64 / (run.busy_ns as f64 / 1e9)
        },
    );
    if let Err(e) = round_costs(metrics) {
        failures.push(format!("executor round costs: {e}"));
    }
    // The CLI's default `spike` scenario (Fig. 13), §4.4 in virtual time.
    let spike = (|| {
        let model = model_of("effnet-b4")?;
        let devices = devices_of("tx2q,nanoh,nanoh")?;
        let spike = LoadSpike {
            device: 1,
            at: 100.0,
            load: 0.6,
        };
        let t0 = Instant::now();
        simulate_load_spike(&model, &devices, &link, 8, 16, spike, 250.0, true)
            .map_err(|e| e.to_string())?;
        Ok::<_, String>(t0.elapsed().as_secs_f64() * 1e3)
    })();
    match spike {
        Ok(ms) => metrics.set("pipeline.adaptive.spike_ms", ms),
        Err(e) => failures.push(format!("load-spike scenario: {e}")),
    }

    println!(
        "plan search: partition {:.1} ms + profiler {:.1} + bounds {:.1} + executor {:.1} = {:.1} ms of pipeline.orchestrator.search {:.1} ms; unattributed {:.1} ms",
        dp.busy_ms(),
        profile.busy_ms(),
        bounds.busy_ms(),
        run.busy_ms(),
        children_s * 1e3,
        search_s * 1e3,
        (search_s - children_s) * 1e3
    );
    // What the CLI op does in-process: build the model profile, search.
    let in_process = search_s + spans.total("models.profile").busy_ns as f64 / 1e9;
    (in_process, failures)
}

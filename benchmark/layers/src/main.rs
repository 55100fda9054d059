//! `layers` — the traced half of the repo benchmark.
//!
//! ```text
//! layers --workload W --ecofl BIN --work-dir DIR [--seed S] [--record FILE]
//! layers isa
//! ```
//!
//! One untraced pass of the workload's CLI ops (for the `cli.*` rows, the
//! reference wall and the outputs the in-process runs are checked
//! against), then the same scenario rebuilt in-process with spans around
//! the calls into each layer's *public* functions — no crate is edited.
//! Every span is kept in memory and written to `DIR/W.spans.tsv` when
//! the run ends. Its last stdout line is the result object with every
//! per-layer metric; a metric of a layer the workload does not reach
//! reads 0. Nothing measured here is part of an end-to-end number.
//!
//! The whole traced run pins `ECOFL_THREADS=1`: with no fan-out a
//! layer's busy time is wall time, so layer times can be summed against
//! the run that contains them.

mod alloc;
mod fl;
mod pipeline;
mod runtime;
mod span;
mod trace;

use ecofl_benchmark::harness::{self, Config};
use ecofl_benchmark::json::Json;
use ecofl_benchmark::workloads::{self, WORKLOADS};
use ecofl_benchmark::{flag, parse_flags};
use span::Spans;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Every per-layer metric, `(name, unit)`, as `BENCHMARK.json` lists
/// them. README.md maps each to its layer and to the end-to-end metric
/// and workload it should move.
const PER_LAYER: [(&str, &str); 80] = [
    ("cli.spawn_ms", "ms"),
    ("cli.op_ms_tail", "ms"),
    ("cli.fl_ecofl_ms", "ms"),
    ("cli.fl_fedavg_ms", "ms"),
    ("cli.fl_fedasync_ms", "ms"),
    ("cli.fl_fedat_ms", "ms"),
    ("cli.plan_5dev_ms", "ms"),
    ("cli.plan_6dev_ms", "ms"),
    ("cli.spike_kill_ms", "ms"),
    ("cli.trace_write_ms", "ms"),
    ("cli.query_scan_ms", "ms"),
    ("cli.query_pruned_ms", "ms"),
    ("sim.best_acc", "fraction"),
    ("sim.plan_sps", "samples/s"),
    ("trace_overhead_pct", "%"),
    ("tensor.kernel_ms", "ms"),
    ("tensor.kernel_calls", "count"),
    ("tensor.sgd_step_us", "us"),
    ("fl.client.local_train_us", "us"),
    ("fl.client.local_train_calls", "count"),
    ("fl.aggregate.fold_us", "us"),
    ("fl.aggregate.mix_us", "us"),
    ("fl.eval_ms", "ms"),
    ("fl.eval_calls", "count"),
    ("data.generate_ms", "ms"),
    ("data.virtualize_ms", "ms"),
    ("grouping.kmeans_ms", "ms"),
    ("grouping.initial_ms", "ms"),
    ("grouping.observe_us", "us"),
    ("grouping.regroups", "count"),
    ("simnet.event.schedule_pop_ns", "ns"),
    ("simnet.event.ops", "count"),
    ("mem.peak_live_mb", "MiB"),
    ("fl.sched.run_ms", "ms"),
    ("fl.strategy.begin_ms", "ms"),
    ("fl.strategy.on_cohort_ms", "ms"),
    ("fl.strategy.on_cohort_calls", "count"),
    ("fl.sched.core_ms", "ms"),
    ("fl.attributed_share", "ratio"),
    ("models.profile_us", "us"),
    ("pipeline.partition.dp_us", "us"),
    ("pipeline.partition.calls", "count"),
    ("pipeline.profiler.profile_us", "us"),
    ("pipeline.orchestrator.search_ms", "ms"),
    ("pipeline.orchestrator.self_ms", "ms"),
    ("pipeline.orchestrator.candidates", "count"),
    ("pipeline.executor.run_us", "us"),
    ("pipeline.executor.tasks_per_s", "1/s"),
    ("pipeline.executor.round_us.1f1b", "us"),
    ("pipeline.executor.round_us.gpipe", "us"),
    ("pipeline.executor.round_us.async", "us"),
    ("pipeline.executor.round_us.interleaved", "us"),
    ("pipeline.executor.round_us.zb", "us"),
    ("pipeline.adaptive.spike_ms", "ms"),
    ("pipeline.runtime.launch_ms", "ms"),
    ("pipeline.runtime.round_us", "us"),
    ("pipeline.runtime.fwd_compute_share", "ratio"),
    ("pipeline.runtime.bwd_compute_share", "ratio"),
    ("pipeline.runtime.portal_wait_share", "ratio"),
    ("pipeline.runtime.checkpoint_us", "us"),
    ("pipeline.runtime.recover_ms", "ms"),
    ("pipeline.runtime.shutdown_ms", "ms"),
    ("pipeline.runtime.stage_deaths", "count"),
    ("pipeline.runtime.round_us.s1", "us"),
    ("obs.tracer.record_ns", "ns"),
    ("pipeline.executor.traced_overhead_pct", "%"),
    ("obs.store.encode_us_per_block", "us"),
    ("obs.store.append_rec_per_s", "1/s"),
    ("store.lz.compress_mb_s", "MB/s"),
    ("store.lz.ratio", "ratio"),
    ("store.segment.append_block_us", "us"),
    ("store.segment.seal_us", "us"),
    ("obs.store.disk_bytes_per_record", "B"),
    ("store.segment.open_ms", "ms"),
    ("store.segment.read_block_us", "us"),
    ("store.lz.decompress_mb_s", "MB/s"),
    ("obs.store.decode_us_per_block", "us"),
    ("obs.store.query_scan_ms", "ms"),
    ("obs.store.query_pruned_ms", "ms"),
    ("obs.store.blocks_decoded_share", "ratio"),
];

/// The per-layer values one traced run collected.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// # Panics
    /// Panics on a name `PER_LAYER` does not list — a bug in a probe.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "probe set an unlisted per-layer metric: {name}"
        );
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The ISA path the tensor kernels dispatch to on this machine.
fn kernel_isa() -> &'static str {
    use ecofl_tensor::Tensor;
    ecofl_tensor::reset_kernel_stats();
    ecofl_tensor::set_kernel_stats_enabled(true);
    let a = Tensor::from_vec(vec![1.0; 64], &[8, 8]);
    std::hint::black_box(a.matmul(&a));
    ecofl_tensor::set_kernel_stats_enabled(false);
    ecofl_tensor::kernel_stats()
        .first()
        .map_or("unknown", |k| k.path)
}

fn run(flags: &std::collections::HashMap<String, String>) -> Result<ExitCode, String> {
    let name = flags
        .get("workload")
        .ok_or(format!("--workload is required ({})", WORKLOADS.join(", ")))?;
    let seed = flag(flags, "seed", 1u64)?;
    let workload = workloads::build(name, seed).ok_or(format!(
        "unknown workload '{name}' ({})",
        WORKLOADS.join(", ")
    ))?;
    let out_dir = PathBuf::from(flags.get("work-dir").ok_or("--work-dir is required")?);
    let work_dir = out_dir.join(format!("layers-{name}"));
    // Before any thread exists: every `compat::par` call in this process
    // and in the CLI children reads it.
    std::env::set_var("ECOFL_THREADS", "1");

    // One untraced pass of the CLI ops.
    let cfg = Config {
        ecofl: PathBuf::from(flags.get("ecofl").ok_or("--ecofl is required")?),
        work_dir: work_dir.join("cli"),
        seconds: 0.0,
        passes: Some(1),
        setup_reps: 1,
        timeout: Duration::from_secs(60),
    };
    let cli = harness::run(&cfg, &workload, seed)?;
    let cli_wall_s = cli.metrics["wall_s"].0;

    let mut metrics = Metrics::default();
    for (key, (value, _)) in &cli.cli {
        metrics.set(key.as_str(), *value);
    }
    metrics.set(
        "sim.best_acc",
        cli.metrics.get("sim_best_acc").map_or(0.0, |m| m.0),
    );
    metrics.set(
        "sim.plan_sps",
        cli.metrics.get("sim_plan_sps").map_or(0.0, |m| m.0),
    );

    // The same scenario, in-process, with spans.
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
    let spans = Spans::new();
    let (in_process_s, mut failures) = match workload.name {
        "fl_paper_300" | "fl_census_1m" => {
            let (s, mut failures) = fl::probe(&workload.ops, &cli.op_stdout, &spans, &mut metrics);
            match fl::peak_live_mb(&workload.ops[0]) {
                Ok(mb) => metrics.set("mem.peak_live_mb", mb),
                Err(e) => failures.push(e),
            }
            (s, failures)
        }
        "pipeline_plan" => pipeline::probe(&workload.ops, &cli.op_stdout, &spans, &mut metrics),
        "rt_1f1b_recover" => runtime::probe(&workload.ops, &spans, &mut metrics),
        "trace_write" => trace::probe_write(
            &workload.ops,
            &cli.op_stdout,
            &work_dir,
            &spans,
            &mut metrics,
        ),
        "trace_query" => {
            trace::probe_query(&workload, &cli.op_stdout, &work_dir, &spans, &mut metrics)
        }
        other => return Err(format!("no layer probe for workload {other}")),
    };
    metrics.set(
        "trace_overhead_pct",
        100.0 * (in_process_s - cli_wall_s) / cli_wall_s,
    );
    failures.extend(cli.setup_failures.iter().cloned());
    if let Some(first) = &cli.first_failure {
        failures.push(format!("CLI pass: {first}"));
    }

    println!(
        "# {name} seed {seed} — traced run, ECOFL_THREADS=1, kernels on the {} path",
        kernel_isa()
    );
    println!(
        "in-process {in_process_s:.3} s vs {cli_wall_s:.3} s of CLI op wall (spawn, exit and printing are only in the latter)"
    );
    println!(
        "{:<44} {:>8} {:>12} {:>12}",
        "span", "count", "busy ms", "self ms"
    );
    let mut rows: Vec<_> = spans.totals().into_iter().collect();
    rows.sort_by_key(|(_, total)| std::cmp::Reverse(total.busy_ns));
    for (span, t) in rows {
        println!(
            "{span:<44} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.busy_ms(),
            t.self_ns as f64 / 1e6
        );
    }
    for (metric, unit) in PER_LAYER {
        let value = metrics.get(metric);
        if value != 0.0 {
            println!("{metric} {value} {unit}");
        }
    }
    for failure in &failures {
        println!("FAILED CHECK: {failure}");
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    let dump = out_dir.join(format!("{name}.spans.tsv"));
    let written = spans
        .dump(&dump)
        .map_err(|e| format!("cannot write {}: {e}", dump.display()))?;
    println!("{written} spans written to {}", dump.display());

    let table = Json::obj(PER_LAYER.iter().map(|(metric, unit)| {
        (
            *metric,
            Json::obj([
                ("value", Json::Num(metrics.get(metric))),
                ("unit", Json::Str((*unit).into())),
            ]),
        )
    }));
    // Attempted: the CLI ops of the pass plus one in-process replay each.
    let attempted = 2 * cli.attempted;
    let failed = (cli.failed + failures.len()).min(attempted);
    let result = Json::obj([
        ("correct", Json::Bool(failures.is_empty() && cli.correct())),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", table),
    ]);
    if let Some(path) = flags.get("record") {
        std::fs::write(path, result.to_line()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{}", result.to_line());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("isa") {
        println!("{}", kernel_isa());
        return ExitCode::SUCCESS;
    }
    run(&parse_flags(&argv)).unwrap_or_else(|e| {
        eprintln!("layers: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_per_layer_metrics() {
        let doc = Json::parse(include_str!("../../../BENCHMARK.json")).unwrap();
        let listed: Vec<(String, String)> = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|e| {
                let text = |k: &str| e.get(k).and_then(Json::as_str).unwrap().to_owned();
                (text("name"), text("unit"))
            })
            .collect();
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(listed, ours);
    }
}

//! The closed-loop harness: one `ecofl` child at a time, timed from
//! spawn to exit, reaped with `wait4` for its own CPU time and peak RSS,
//! its stdout checked. Set-up is timed apart from the measured passes.

use crate::cliout::{self, Check, Extract};
use crate::json::Json;
use crate::rusage;
use crate::stats::{median, median_over_passes, tail_p90};
use crate::workloads::{Op, StoreUse, Workload};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Measured seconds per run when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 12.0;

/// `ECOFL_THREADS` of every CLI child, whatever the harness's own
/// environment says. On the 2-vCPU box this benchmark was sized on,
/// whether the second vCPU helps is bimodal and sticky — the same Eco-FL
/// op reads 222 ms or 355 ms, and ten `fl_paper_300` runs spread 25 % at
/// 2 threads against 4 % at 1 — so fan-out is not what a steady number
/// can be taken of there. Results are bit-identical at any thread count
/// (the repo's determinism gates), so only speed is left unmeasured. A
/// multi-core measurement would be a workload of its own, not a knob.
pub const THREADS: usize = 1;

/// Fewest passes a run may report: the median over three passes is what
/// absorbs one burst on a shared machine.
pub const MIN_PASSES: usize = 3;

/// Most set-up repetitions of one run, and the cumulative set-up time
/// past which no further repetition starts.
pub const MAX_SETUP_REPS: usize = 9;
pub const SETUP_BUDGET_S: f64 = 2.0;

/// Lines of a failing op's stdout kept in the report.
const FAILURE_LINES: usize = 12;

/// End-to-end metrics every workload reports, `(name, unit)`, in the
/// order `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "ratio"),
];

/// Op classes whose median wall is also a `cli.<class>_ms` layer metric.
pub const CLI_CLASSES: [&str; 10] = [
    "fl_ecofl",
    "fl_fedavg",
    "fl_fedasync",
    "fl_fedat",
    "plan_5dev",
    "plan_6dev",
    "spike_kill",
    "trace_write",
    "query_scan",
    "query_pruned",
];

/// How one harness run is driven.
#[derive(Debug, Clone)]
pub struct Config {
    /// The release `ecofl` binary under test.
    pub ecofl: PathBuf,
    /// Scratch directory (stores, captured stdout); emptied by set-up.
    pub work_dir: PathBuf,
    /// Time budget of the measured passes, seconds.
    pub seconds: f64,
    /// Fixed pass count; overrides the time budget when set.
    pub passes: Option<usize>,
    /// Fewest set-up repetitions (their median is `setup_s`). Cheap
    /// set-ups repeat further, up to [`MAX_SETUP_REPS`] times or
    /// [`SETUP_BUDGET_S`] seconds in all: a 70 ms set-up timed three
    /// times is mostly jitter.
    pub setup_reps: usize,
    /// Per-op timeout.
    pub timeout: Duration,
}

/// One run of one op.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Spawn-to-exit wall time, seconds.
    pub wall_s: f64,
    /// Child user + system CPU, seconds.
    pub cpu_s: f64,
    /// The child's peak resident set, MiB.
    pub max_rss_mb: f64,
    /// The checked extract, or why the op counts as failed.
    pub outcome: Result<Extract, String>,
    /// Stdout with the op's store path replaced by `<store>`.
    pub stdout: String,
}

/// Runs `ecofl args…` to completion (or the timeout) and checks it.
pub fn run_op(cfg: &Config, args: &[String], check: Check, store: Option<&Path>) -> Sample {
    let args: Vec<String> = args
        .iter()
        .map(|a| match store {
            Some(dir) if a == "{store}" => dir.display().to_string(),
            _ => a.clone(),
        })
        .collect();
    let started = Instant::now();
    let mut child = match Command::new(&cfg.ecofl)
        .args(&args)
        .env("ECOFL_THREADS", THREADS.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
    {
        Ok(child) => child,
        Err(e) => {
            return Sample {
                wall_s: 0.0,
                cpu_s: 0.0,
                max_rss_mb: 0.0,
                outcome: Err(format!("cannot spawn {}: {e}", cfg.ecofl.display())),
                stdout: String::new(),
            }
        }
    };
    // Pipes, not files: a write(2) per printed line to a file on this
    // box's disk tripled the wall of the 2000-line spike op. The readers
    // nap between reads so they wake a few hundred times a second, not
    // once per line, beside the child they are timing; the pipe buffer
    // (64 KiB) holds what the child prints meanwhile.
    let out_reader = drain(child.stdout.take());
    let err_reader = drain(child.stderr.take());
    // Watchdog: sleeps on the channel until the child is reaped or the
    // timeout passes, and only then kills (via kill(1), so the one FFI
    // declaration of this package stays wait4).
    let (reaped, watch) = mpsc::channel::<()>();
    let pid = child.id().to_string();
    let timeout = cfg.timeout;
    let watchdog = std::thread::spawn(move || {
        let expired = watch.recv_timeout(timeout) == Err(mpsc::RecvTimeoutError::Timeout);
        if expired {
            let _ = Command::new("kill").args(["-9", &pid]).status();
        }
        expired
    });
    let child = rusage::reap(child);
    let wall_s = started.elapsed().as_secs_f64();
    let _ = reaped.send(());
    let timed_out = watchdog.join().unwrap_or(false);
    let (cpu_s, max_rss_mb) = child
        .as_ref()
        .map_or((0.0, 0.0), |c| (c.cpu_s, c.max_rss_mb));

    let stdout = out_reader.join().unwrap_or_default();
    let stderr = err_reader.join().unwrap_or_default();
    let stdout = match store {
        Some(dir) => stdout.replace(&dir.display().to_string(), "<store>"),
        None => stdout,
    };
    let outcome = match child.map(|c| c.status) {
        _ if timed_out => Err(format!("timed out after {} s", timeout.as_secs())),
        Err(e) => Err(format!("wait failed: {e}")),
        Ok(s) if !s.success() => {
            let first = stderr.lines().next().unwrap_or("").to_owned();
            Err(format!(
                "exit {}: {first}",
                s.code().map_or("by signal".into(), |c| c.to_string())
            ))
        }
        Ok(_) => cliout::verify(check, &stdout),
    };
    Sample {
        wall_s,
        cpu_s,
        max_rss_mb,
        outcome,
        stdout,
    }
}

/// Reads `pipe` to its end on a thread of its own, as lossy UTF-8.
fn drain<R: Read + Send + 'static>(pipe: Option<R>) -> std::thread::JoinHandle<String> {
    std::thread::spawn(move || {
        let mut bytes = Vec::new();
        let mut chunk = [0u8; 1 << 16];
        if let Some(mut pipe) = pipe {
            while let Ok(n) = pipe.read(&mut chunk) {
                if n == 0 {
                    break;
                }
                bytes.extend_from_slice(&chunk[..n]);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// What one set-up left behind.
struct SetUp {
    /// Wall of the whole set-up, seconds.
    wall_s: f64,
    /// Wall of its `ecofl devices` probe, seconds.
    spawn_s: f64,
    /// Stdout of the warm-up run of op 0.
    warm_stdout: String,
    /// Set-up steps that failed their check.
    failures: Vec<String>,
}

fn built_store(cfg: &Config, index: usize) -> PathBuf {
    cfg.work_dir.join(format!("built-{index}"))
}

/// Set-up: empty the work directory, prove the binary runs (`ecofl
/// devices`), build the stores the ops query, and run op 0 once untimed
/// so the binary and its data are in the page cache.
///
/// # Errors
/// Only when nothing can run at all: the work directory cannot be made
/// or the binary fails its probe.
fn set_up(cfg: &Config, workload: &Workload) -> Result<SetUp, String> {
    let started = Instant::now();
    if cfg.work_dir.exists() {
        std::fs::remove_dir_all(&cfg.work_dir)
            .map_err(|e| format!("cannot empty {}: {e}", cfg.work_dir.display()))?;
    }
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.work_dir.display()))?;
    let probe = run_op(cfg, &["devices".to_owned()], Check::Devices, None);
    if let Err(why) = &probe.outcome {
        return Err(format!("{} devices: {why}", cfg.ecofl.display()));
    }
    let mut failures = Vec::new();
    for (i, build) in workload.builds.iter().enumerate() {
        let sample = run_op(cfg, &build.args, build.check, Some(&built_store(cfg, i)));
        if let Err(why) = sample.outcome {
            failures.push(format!("store build {i}: {why}"));
        }
    }
    let warm = run_workload_op(cfg, &workload.ops[0], "warm");
    if let Err(why) = &warm.outcome {
        failures.push(format!("warm-up of op 0: {why}"));
    }
    Ok(SetUp {
        wall_s: started.elapsed().as_secs_f64(),
        spawn_s: probe.wall_s,
        warm_stdout: warm.stdout,
        failures,
    })
}

/// Runs `op` with its store resolved; a fresh store is removed again so
/// disk use does not grow with the pass count.
fn run_workload_op(cfg: &Config, op: &Op, tag: &str) -> Sample {
    match op.store {
        StoreUse::None => run_op(cfg, &op.args, op.check, None),
        StoreUse::Built(i) => run_op(cfg, &op.args, op.check, Some(&built_store(cfg, i))),
        StoreUse::Fresh => {
            let dir = cfg.work_dir.join(format!("fresh-{tag}"));
            let sample = run_op(cfg, &op.args, op.check, Some(&dir));
            let _ = std::fs::remove_dir_all(&dir);
            sample
        }
    }
}

/// Everything one harness run measured.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub passes: usize,
    pub ops: usize,
    /// Op runs in the measured passes.
    pub attempted: usize,
    /// Of those, runs that timed out, exited non-zero or failed a check.
    pub failed: usize,
    /// Set-up steps that failed their check.
    pub setup_failures: Vec<String>,
    /// The first failing op: its class, arguments and reason.
    pub first_failure: Option<String>,
    /// The six `END_TO_END` metrics plus `fail_share`, and `sim_best_acc`
    /// / `sim_plan_sps` where the workload has ops of that kind.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// `cli.*` layer metrics (untraced).
    pub cli: BTreeMap<String, (f64, &'static str)>,
    /// Sample count behind `cli.op_ms_tail`, or why it reads 0.
    pub tail_note: String,
    /// FNV-1a over every op's first-pass stdout: changes when a
    /// simulated result changes.
    pub sim_digest: String,
    /// Per op: class and per-pass wall seconds, for the printed table.
    pub op_walls: Vec<(&'static str, Vec<f64>)>,
    /// Per op: its first-pass stdout (store paths as `<store>`), which
    /// the traced run checks its in-process replays against.
    pub op_stdout: Vec<String>,
}

impl Report {
    /// No op failed and set-up was clean.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.setup_failures.is_empty()
    }

    /// The result line the benchmark contract asks for: exactly
    /// `correct`, `attempted`, `failed` and the `END_TO_END` metrics.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics = END_TO_END.iter().map(|(name, _)| {
            let (value, unit) = self.metrics[*name];
            (*name, metric_json(value, unit))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_line()
    }

    /// The full record `run.sh --out` stores and `e2e compare` reads.
    #[must_use]
    pub fn record(&self) -> Json {
        let table = |m: &BTreeMap<String, (f64, &'static str)>| {
            Json::obj(m.iter().map(|(k, &(v, u))| (k.clone(), metric_json(v, u))))
        };
        Json::obj([
            ("workload", Json::Str(self.workload.into())),
            ("seed", Json::Num(self.seed as f64)),
            ("threads", Json::Num(THREADS as f64)),
            ("passes", Json::Num(self.passes as f64)),
            ("ops", Json::Num(self.ops as f64)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "first_failure",
                self.first_failure.clone().map_or(Json::Null, Json::Str),
            ),
            ("metrics", table(&self.metrics)),
            ("cli", table(&self.cli)),
            ("sim_digest", Json::Str(self.sim_digest.clone())),
        ])
    }

    /// Every metric as `name value unit`, then the per-op table.
    #[must_use]
    pub fn text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {} seed {} — {} ops × {} passes, ECOFL_THREADS={}, closed loop, 1 client",
            self.workload, self.seed, self.ops, self.passes, THREADS
        );
        for (name, (value, unit)) in &self.metrics {
            let _ = writeln!(out, "{name} {value} {unit}");
        }
        let _ = writeln!(
            out,
            "op_ms_p50 is the median over {} distinct ops",
            self.ops
        );
        for (name, (value, unit)) in &self.cli {
            let _ = writeln!(out, "{name} {value} {unit}");
        }
        let _ = writeln!(out, "{}", self.tail_note);
        let _ = writeln!(out, "sim_digest {}", self.sim_digest);
        for (i, (class, walls)) in self.op_walls.iter().enumerate() {
            let ms: Vec<String> = walls.iter().map(|w| format!("{:.1}", w * 1e3)).collect();
            let _ = writeln!(
                out,
                "op {i:>2} {class:<16} wall ms per pass: {}",
                ms.join(" ")
            );
        }
        for failure in &self.setup_failures {
            let _ = writeln!(out, "SET-UP FAILURE: {failure}");
        }
        if let Some(first) = &self.first_failure {
            let _ = writeln!(out, "FIRST FAILURE: {first}");
        }
        out
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Runs set-up `cfg.setup_reps` times, then whole passes over the op
/// list until the time budget is spent (never fewer than
/// [`MIN_PASSES`], or exactly `cfg.passes` when set). Passes interleave
/// the ops, so machine drift spreads over all of them.
///
/// # Errors
/// Only when set-up cannot run the binary at all.
pub fn run(cfg: &Config, workload: &Workload, seed: u64) -> Result<Report, String> {
    let result = measure(cfg, workload, seed);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    result
}

fn measure(cfg: &Config, workload: &Workload, seed: u64) -> Result<Report, String> {
    assert!(!workload.ops.is_empty(), "a workload has at least one op");
    let min_reps = cfg.setup_reps.max(1);
    let mut setups = Vec::new();
    let mut setup_total = 0.0;
    while setups.len() < min_reps
        || (min_reps > 1 && setups.len() < MAX_SETUP_REPS && setup_total < SETUP_BUDGET_S)
    {
        let setup = set_up(cfg, workload)?;
        setup_total += setup.wall_s;
        setups.push(setup);
    }
    let setup_s = median(&setups.iter().map(|s| s.wall_s).collect::<Vec<_>>())
        .expect("at least one set-up ran");
    let spawn_s = median(&setups.iter().map(|s| s.spawn_s).collect::<Vec<_>>())
        .expect("at least one set-up ran");
    let setup_failures: Vec<String> = setups.iter().flat_map(|s| s.failures.clone()).collect();
    let last_setup = setups.pop().expect("at least one set-up ran");

    let ops = &workload.ops;
    let mut walls: Vec<Vec<f64>> = Vec::new();
    let mut cpus: Vec<Vec<f64>> = Vec::new();
    let mut first_pass: Vec<Sample> = Vec::new();
    // Over the timed ops only: set-up's probe, store builders and warm-up
    // are other commands and must not set a workload's memory figure.
    let mut peak_rss_mb = 0.0f64;
    let mut failed = 0usize;
    let mut first_failure = None;
    let measuring = Instant::now();
    loop {
        let pass = walls.len();
        let mut pass_walls = Vec::with_capacity(ops.len());
        let mut pass_cpus = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let mut sample = run_workload_op(cfg, op, &format!("{pass}-{i}"));
            // Every op is deterministic: its stdout must repeat exactly,
            // pass after pass and against the warm-up.
            let reference = if pass > 0 {
                Some(&first_pass[i].stdout)
            } else if i == 0 {
                Some(&last_setup.warm_stdout)
            } else {
                None
            };
            if sample.outcome.is_ok() && reference.is_some_and(|r| *r != sample.stdout) {
                sample.outcome = Err("stdout differs from an earlier run of the same op".into());
            }
            if let Err(why) = &sample.outcome {
                failed += 1;
                first_failure.get_or_insert_with(|| {
                    let head: Vec<&str> = sample.stdout.lines().take(FAILURE_LINES).collect();
                    format!(
                        "pass {pass} op {i} ({}): ecofl {} — {why}\n{}",
                        op.class,
                        op.args.join(" "),
                        head.join("\n")
                    )
                });
            }
            pass_walls.push(sample.wall_s);
            pass_cpus.push(sample.cpu_s);
            peak_rss_mb = peak_rss_mb.max(sample.max_rss_mb);
            if pass == 0 {
                first_pass.push(sample);
            }
        }
        walls.push(pass_walls);
        cpus.push(pass_cpus);
        let done = walls.len();
        let stop = match cfg.passes {
            Some(fixed) => done >= fixed.max(1),
            None => {
                let elapsed = measuring.elapsed().as_secs_f64();
                done >= MIN_PASSES && elapsed + elapsed / done as f64 > cfg.seconds
            }
        };
        if stop {
            break;
        }
    }

    let passes = walls.len();
    let attempted = passes * ops.len();
    let op_wall = median_over_passes(&walls);
    let op_cpu = median_over_passes(&cpus);
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s".to_owned(), (setup_s, "s"));
    metrics.insert("wall_s".to_owned(), (op_wall.iter().sum(), "s"));
    metrics.insert("cpu_s".to_owned(), (op_cpu.iter().sum(), "s"));
    let p50 = median(&op_wall).expect("at least one op");
    metrics.insert("op_ms_p50".to_owned(), (p50 * 1e3, "ms"));
    metrics.insert("peak_rss_mb".to_owned(), (peak_rss_mb, "MiB"));
    let fail_share = failed as f64 / attempted as f64;
    metrics.insert("ok_share".to_owned(), (1.0 - fail_share, "ratio"));
    metrics.insert("fail_share".to_owned(), (fail_share, "ratio"));
    let extracts: Vec<(&Op, Extract)> = ops
        .iter()
        .zip(&first_pass)
        .filter_map(|(op, s)| s.outcome.as_ref().ok().map(|e| (op, *e)))
        .collect();
    let eco_best: Vec<f64> = extracts
        .iter()
        .filter(|(op, _)| op.class == "fl_ecofl")
        .filter_map(|(_, e)| e.best_acc)
        .collect();
    if let Some(acc) = mean(&eco_best) {
        metrics.insert("sim_best_acc".to_owned(), (acc, "fraction"));
    }
    let plan_sps: Vec<f64> = extracts.iter().filter_map(|(_, e)| e.plan_sps).collect();
    if let Some(sps) = mean(&plan_sps) {
        metrics.insert("sim_plan_sps".to_owned(), (sps, "samples/s"));
    }

    let mut cli = BTreeMap::new();
    cli.insert("cli.spawn_ms".to_owned(), (spawn_s * 1e3, "ms"));
    for class in CLI_CLASSES {
        let of_class: Vec<f64> = ops
            .iter()
            .zip(&op_wall)
            .filter(|(op, _)| op.class == class)
            .map(|(_, &w)| w)
            .collect();
        let ms = median(&of_class).map_or(0.0, |w| w * 1e3);
        cli.insert(format!("cli.{class}_ms"), (ms, "ms"));
    }
    let raw: Vec<f64> = walls.iter().flatten().copied().collect();
    // A fixed percentile or nothing: with a time-budgeted pass count a
    // rank that follows the sample count would mean another percentile
    // on every run.
    let tail = tail_p90(&raw);
    cli.insert(
        "cli.op_ms_tail".to_owned(),
        (tail.map_or(0.0, |w| w * 1e3), "ms"),
    );
    let tail_note = match tail {
        Some(_) => format!(
            "cli.op_ms_tail is p90 of {} raw op samples ({} lie beyond it)",
            raw.len(),
            raw.len() / 10
        ),
        None => format!(
            "cli.op_ms_tail reads 0: {} raw op samples leave fewer than ten beyond p90",
            raw.len()
        ),
    };

    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for sample in &first_pass {
        fnv1a(&mut digest, sample.stdout.as_bytes());
        fnv1a(&mut digest, &[0xff]);
    }
    let op_walls = ops
        .iter()
        .enumerate()
        .map(|(i, op)| (op.class, walls.iter().map(|pass| pass[i]).collect()))
        .collect();
    Ok(Report {
        workload: workload.name,
        seed,
        passes,
        ops: ops.len(),
        attempted,
        failed,
        setup_failures,
        first_failure,
        metrics,
        cli,
        tail_note,
        sim_digest: format!("{digest:016x}"),
        op_walls,
        op_stdout: first_pass.into_iter().map(|s| s.stdout).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{self, WORKLOADS};

    fn test_config(tag: &str) -> Config {
        let ecofl = crate::ecofl_bin_for_tests();
        // Scratch goes next to the binary, inside the target directory.
        let work_dir = ecofl
            .parent()
            .expect("the binary sits in a directory")
            .join(format!("ecofl-benchmark-test-{tag}-{}", std::process::id()));
        Config {
            ecofl,
            work_dir,
            seconds: 0.0,
            passes: Some(2),
            setup_reps: 1,
            timeout: Duration::from_secs(60),
        }
    }

    fn op(class: &'static str, check: Check, args: &[&str]) -> Op {
        Op {
            class,
            args: args.iter().map(ToString::to_string).collect(),
            check,
            store: StoreUse::None,
        }
    }

    #[test]
    fn a_broken_op_is_counted_and_the_harness_keeps_going() {
        let plan = ["plan", "--model", "effnet-b0", "--devices", "tx2q,nanoh"];
        let workload = Workload {
            name: "broken",
            ops: vec![
                op("plan_2dev", Check::Plan { devices: 2 }, &plan),
                op(
                    "fl_nope",
                    Check::Fl { paper_scale: false },
                    &["fl", "--strategy", "nope"],
                ),
                op("plan_2dev", Check::Plan { devices: 2 }, &plan),
            ],
            builds: Vec::new(),
        };
        let report = run(&test_config("broken"), &workload, 1).unwrap();
        // Both passes ran all three ops; only the broken one failed.
        assert_eq!((report.passes, report.attempted, report.failed), (2, 6, 2));
        assert!(!report.correct());
        assert!((report.metrics["fail_share"].0 - 1.0 / 3.0).abs() < 1e-12);
        assert!((report.metrics["ok_share"].0 - 2.0 / 3.0).abs() < 1e-12);
        let first = report.first_failure.as_deref().unwrap();
        assert!(first.contains("fl --strategy nope"), "{first}");
        assert!(first.contains("unknown strategy 'nope'"), "{first}");
        // The failure still reaches the result line the driver reads.
        let line = Json::parse(&report.result_line()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn a_clean_run_reports_every_end_to_end_metric() {
        let workload = Workload {
            name: "clean",
            ops: vec![op(
                "plan_2dev",
                Check::Plan { devices: 2 },
                &["plan", "--model", "effnet-b0", "--devices", "tx2q,nanoh"],
            )],
            builds: Vec::new(),
        };
        let report = run(&test_config("clean"), &workload, 1).unwrap();
        assert!(report.correct(), "{:?}", report.first_failure);
        assert_eq!(report.metrics["fail_share"].0, 0.0);
        assert!(report.metrics.contains_key("sim_plan_sps"));
        let line = Json::parse(&report.result_line()).unwrap();
        let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
        let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
        let mut expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        expected.sort_unstable();
        assert_eq!(names, expected);
        for (name, unit) in END_TO_END {
            let m = &metrics[name];
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
            assert!(
                m.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                "{name} is never 0"
            );
        }
    }

    #[test]
    fn a_missing_binary_is_a_set_up_error_not_a_result() {
        let mut cfg = test_config("missing");
        cfg.ecofl = PathBuf::from("/nonexistent/ecofl");
        let workload = workloads::build("pipeline_plan", 1).unwrap();
        assert!(run(&cfg, &workload, 1)
            .unwrap_err()
            .contains("cannot spawn"));
    }

    #[test]
    fn benchmark_json_lists_what_the_harness_reports() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| e.get(field).and_then(Json::as_str).unwrap().to_owned())
                .collect()
        };
        assert_eq!(names("workloads", "name"), WORKLOADS);
        assert_eq!(
            names("end_to_end", "name"),
            END_TO_END.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
        assert_eq!(
            names("end_to_end", "unit"),
            END_TO_END.iter().map(|(_, u)| *u).collect::<Vec<_>>()
        );
        let listed = names("per_layer", "name");
        for class in CLI_CLASSES {
            assert!(
                listed.contains(&format!("cli.{class}_ms")),
                "cli.{class}_ms"
            );
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}

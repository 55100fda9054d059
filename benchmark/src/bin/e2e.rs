//! `e2e` — the end-to-end (untraced) half of the repo benchmark.
//!
//! ```text
//! e2e run     --workload W --ecofl BIN --work-dir DIR [--seed S] [--seconds N]
//!             [--passes P] [--smoke] [--record FILE]
//! e2e suite   --ecofl BIN --layers BIN --work-dir DIR --out FILE
//!             [--workload W] [--seed S] [--seconds N] [--passes P] [--smoke]
//!             [--rustc TEXT] [--git-rev TEXT]
//! e2e compare A.json B.json [--benchmark BENCHMARK.json]
//! ```
//!
//! `run` is one harness process for one workload; its last stdout line
//! is the result object the benchmark contract names. `suite` runs one
//! `run` child (and one `layers` child) per workload and writes the
//! combined record. Std-only: no workspace crate is linked.

use ecofl_benchmark::compare::{bounds_from, compare};
use ecofl_benchmark::harness::{self, Config};
use ecofl_benchmark::json::Json;
use ecofl_benchmark::workloads::{self, WORKLOADS};
use ecofl_benchmark::{flag, parse_flags};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

const OP_TIMEOUT: Duration = Duration::from_secs(60);

fn required<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a String, String> {
    flags
        .get(key)
        .filter(|v| !v.is_empty())
        .ok_or(format!("--{key} is required"))
}

fn cmd_run(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let name = required(flags, "workload")?;
    let seed = flag(flags, "seed", 1u64)?;
    let smoke = flags.contains_key("smoke");
    let workload = workloads::build(name, seed).ok_or(format!(
        "unknown workload '{name}' ({})",
        WORKLOADS.join(", ")
    ))?;
    let workload = if smoke { workload.smoke() } else { workload };
    let passes = match flags.get("passes") {
        Some(_) => Some(flag(flags, "passes", 1usize)?),
        None if smoke => Some(1),
        None => None,
    };
    let cfg = Config {
        ecofl: PathBuf::from(required(flags, "ecofl")?),
        work_dir: PathBuf::from(required(flags, "work-dir")?).join(format!("e2e-{name}")),
        seconds: flag(flags, "seconds", harness::DEFAULT_SECONDS)?,
        passes,
        setup_reps: if smoke { 1 } else { 3 },
        timeout: OP_TIMEOUT,
    };
    let report = harness::run(&cfg, &workload, seed)?;
    print!("{}", report.text());
    if let Some(path) = flags.get("record") {
        std::fs::write(path, report.record().to_line())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{}", report.result_line());
    Ok(ExitCode::SUCCESS)
}

/// Runs `program args…` with inherited stdio; `Ok(true)` on exit 0.
fn run_child(program: &Path, args: &[String]) -> Result<bool, String> {
    Command::new(program)
        .args(args)
        .status()
        .map(|s| s.success())
        .map_err(|e| format!("cannot run {}: {e}", program.display()))
}

fn read_record(path: &Path) -> Json {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .unwrap_or(Json::Null)
}

fn cmd_suite(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let ecofl = required(flags, "ecofl")?;
    let layers = PathBuf::from(required(flags, "layers")?);
    let work_dir = PathBuf::from(required(flags, "work-dir")?);
    let out = PathBuf::from(required(flags, "out")?);
    let seed = flag(flags, "seed", 1u64)?;
    let names: Vec<&str> = match flags.get("workload") {
        Some(w) if WORKLOADS.contains(&w.as_str()) => vec![w.as_str()],
        Some(w) => return Err(format!("unknown workload '{w}' ({})", WORKLOADS.join(", "))),
        None => WORKLOADS.to_vec(),
    };
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
    let me = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;

    // Flags both children take, forwarded verbatim.
    let mut common = vec![
        "--ecofl".to_owned(),
        ecofl.clone(),
        "--work-dir".to_owned(),
        work_dir.display().to_string(),
    ];
    for key in ["seed", "seconds"] {
        if let Some(v) = flags.get(key) {
            common.extend([format!("--{key}"), v.clone()]);
        }
    }
    // A smoke run is the end-to-end gate alone: one pass, one op per
    // class, no traced run.
    let smoke = flags.contains_key("smoke");

    let mut checks_failed = 0usize;
    let mut records = Vec::new();
    for name in names {
        let e2e_record = work_dir.join(format!("{name}.e2e.json"));
        let layers_record = work_dir.join(format!("{name}.layers.json"));
        let mut args = vec!["run".to_owned(), "--workload".to_owned(), name.to_owned()];
        args.extend(common.iter().cloned());
        if let Some(p) = flags.get("passes") {
            args.extend(["--passes".to_owned(), p.clone()]);
        }
        if smoke {
            args.push("--smoke".to_owned());
        }
        args.extend(["--record".to_owned(), e2e_record.display().to_string()]);
        let ran = run_child(&me, &args)?;
        let e2e = read_record(&e2e_record);
        if !ran || e2e.get("correct") != Some(&Json::Bool(true)) {
            checks_failed += 1;
        }

        println!();
        let traced = if smoke {
            Json::Null
        } else {
            let mut args = vec!["--workload".to_owned(), name.to_owned()];
            args.extend(common.iter().cloned());
            args.extend(["--record".to_owned(), layers_record.display().to_string()]);
            let ran = run_child(&layers, &args)?;
            let traced = read_record(&layers_record);
            if !ran || traced.get("correct") != Some(&Json::Bool(true)) {
                checks_failed += 1;
            }
            println!();
            traced
        };
        records.push((name, Json::obj([("e2e", e2e), ("layers", traced)])));
        let _ = std::fs::remove_file(&e2e_record);
        let _ = std::fs::remove_file(&layers_record);
    }

    let isa = Command::new(&layers)
        .arg("isa")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_owned(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_owned()
        });
    let text = |key: &str| Json::Str(flags.get(key).cloned().unwrap_or("unknown".into()));
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let doc = Json::obj([
        ("schema", Json::Num(1.0)),
        (
            "env",
            Json::obj([
                ("nproc", Json::Num(nproc as f64)),
                ("ecofl_threads", Json::Num(harness::THREADS as f64)),
                ("kernel_isa", Json::Str(isa)),
                ("rustc", text("rustc")),
                ("git_rev", text("git-rev")),
            ]),
        ),
        ("seed", Json::Num(seed as f64)),
        ("smoke", Json::Bool(smoke)),
        ("workloads", Json::obj(records)),
        ("checks_failed", Json::Num(checks_failed as f64)),
    ]);
    // This benchmark measures; it never claims a gain by itself. Objects
    // serialise with sorted keys, so the closing member is spliced in.
    let line = doc.to_line();
    let text = format!("{},\"claim\":null}}\n", &line[..line.len() - 1]);
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(&out, text).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("wrote {} ({checks_failed} failed check(s))", out.display());
    Ok(if checks_failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let paths: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    let [a, b] = paths[..] else {
        return Err("usage: e2e compare A.json B.json [--benchmark BENCHMARK.json]".into());
    };
    let flags = parse_flags(&args[2..]);
    let benchmark = flags
        .get("benchmark")
        .map_or("BENCHMARK.json", String::as_str);
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let bounds = bounds_from(&load(benchmark)?)?;
    let result = compare(&load(a)?, &load(b)?, &bounds)?;
    println!("A = {a}\nB = {b}");
    print!("{}", result.text);
    Ok(if result.breaches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => cmd_run(&parse_flags(&argv[1..])),
        Some("suite") => cmd_suite(&parse_flags(&argv[1..])),
        Some("compare") => cmd_compare(&argv[1..]),
        _ => Err("usage: e2e run|suite|compare … (see benchmark/README.md)".into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("e2e: {e}");
        ExitCode::from(2)
    })
}

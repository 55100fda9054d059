//! End-to-end smoke tests of the `ecofl` CLI binary.

use std::process::Command;

fn ecofl(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ecofl"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn devices_lists_table1() {
    let (ok, stdout, _) = ecofl(&["devices"]);
    assert!(ok);
    for name in ["Nano-L", "Nano-H", "TX2-Q", "TX2-N"] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn plan_prints_stages_and_throughput() {
    let (ok, stdout, _) = ecofl(&[
        "plan",
        "--model",
        "effnet-b0",
        "--devices",
        "tx2q,nanoh",
        "--batch",
        "32",
    ]);
    assert!(ok, "plan failed:\n{stdout}");
    assert!(stdout.contains("stage 0"));
    assert!(stdout.contains("throughput"));
    assert!(stdout.contains("residency K"));
}

#[test]
fn gantt_renders_rows() {
    let (ok, stdout, _) = ecofl(&[
        "gantt",
        "--model",
        "effnet-b0",
        "--devices",
        "tx2q,nanoh",
        "--micro-batches",
        "4",
        "--schedule",
        "gpipe",
    ]);
    assert!(ok, "gantt failed:\n{stdout}");
    assert!(stdout.contains("stage 0 |"));
    assert!(stdout.contains("stage 1 |"));
}

#[test]
fn gantt_renders_interleaved_virtual_stage_rows() {
    let (ok, stdout, stderr) = ecofl(&[
        "gantt",
        "--model",
        "effnet-b0",
        "--devices",
        "tx2q,nanoh",
        "--micro-batches",
        "4",
        "--schedule",
        "interleaved",
    ]);
    assert!(ok, "gantt failed:\n{stdout}\n{stderr}");
    // Two devices at v = 2 produce four virtual-stage rows, chunk-major.
    for row in ["dev 0.0 |", "dev 1.0 |", "dev 0.1 |", "dev 1.1 |"] {
        assert!(stdout.contains(row), "missing {row} in:\n{stdout}");
    }
}

#[test]
fn gantt_renders_zero_bubble_weight_halves() {
    let (ok, stdout, stderr) = ecofl(&[
        "gantt",
        "--model",
        "effnet-b0",
        "--devices",
        "tx2q,nanoh",
        "--micro-batches",
        "4",
        "--schedule",
        "zb",
    ]);
    assert!(ok, "gantt failed:\n{stdout}\n{stderr}");
    let bars: String = stdout.lines().filter(|l| l.starts_with("stage ")).collect();
    assert!(
        bars.chars().any(|c| c.is_ascii_uppercase()),
        "weight-gradient halves must paint A-J:\n{stdout}"
    );
}

#[test]
fn unknown_schedule_fails_cleanly() {
    let (ok, _, stderr) = ecofl(&[
        "gantt",
        "--model",
        "effnet-b0",
        "--devices",
        "tx2q,nanoh",
        "--schedule",
        "rr",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown schedule"), "stderr:\n{stderr}");
}

#[test]
fn fl_runs_a_tiny_federation() {
    let (ok, stdout, _) = ecofl(&[
        "fl",
        "--strategy",
        "fedavg",
        "--clients",
        "8",
        "--horizon",
        "120",
        "--dataset",
        "mnist",
    ]);
    assert!(ok, "fl failed:\n{stdout}");
    assert!(stdout.contains("accuracy"));
    assert!(stdout.contains("updates"));
}

/// `ecofl fl … | head -1` with the reader gone before the report is
/// printed (the run prints only when it has finished, so closing the pipe
/// right after the spawn is the deterministic form of that race). The
/// process must end on `SIGPIPE` like any filter, not panic on the failed
/// `println!` with a backtrace and exit code 101.
#[cfg(unix)]
#[test]
fn a_closed_stdout_pipe_ends_the_run_without_a_panic() {
    use std::io::Read;
    use std::os::unix::process::ExitStatusExt;
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_ecofl"))
        .args(["fl", "--strategy", "fedavg", "--clients", "8"])
        .args(["--horizon", "120", "--dataset", "mnist"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());

    let status = child.wait().expect("child exits");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("utf-8 stderr");
    assert!(
        !stderr.contains("panicked"),
        "a closed pipe must not panic:\n{stderr}"
    );
    assert_eq!(
        status.signal(),
        Some(13),
        "expected death by SIGPIPE: {status:?}"
    );
}

#[test]
fn trace_records_into_a_store_and_inspect_reads_it_back() {
    let dir = std::env::temp_dir().join(format!("ecofl-cli-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = dir.to_str().expect("utf-8 temp path");

    // Record a 3-round pipeline trace into a store with small blocks.
    let (ok, stdout, stderr) = ecofl(&[
        "trace",
        "--model",
        "effnet-b0",
        "--devices",
        "tx2q,nanoh",
        "--rounds",
        "3",
        "--store",
        store,
        "--block-records",
        "32",
    ]);
    assert!(ok, "trace failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains("stored record(s)"), "stdout:\n{stdout}");
    assert!(dir.join("trace.seg").exists());
    assert!(dir.join("checkpoints.seg").exists());

    // `trace --store DIR` with no scenario inspects: a round-range
    // query must prune blocks (decode fewer than the total).
    let (ok, stdout, stderr) = ecofl(&["trace", "--store", store, "--rounds", "1..2"]);
    assert!(ok, "inspect failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains("trace.seg"), "stdout:\n{stdout}");
    let line = stdout
        .lines()
        .find(|l| l.starts_with("query decoded"))
        .expect("decode summary line");
    let nums: Vec<usize> = line
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .collect();
    let (decoded, total) = (nums[0], nums[1]);
    assert!(
        decoded < total,
        "expected pruning, decoded {decoded} of {total}:\n{stdout}"
    );

    // A NaN duration bound would match every span and an inverted round
    // range no record; both are errors that name the flag.
    for (flag, value) in [("--min-duration", "NaN"), ("--rounds", "5..2")] {
        assert_rejects(&["trace", "--store", store, flag, value], flag);
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// Records a small multi-block pipeline store at a fresh temp path.
fn small_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ecofl-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (ok, stdout, stderr) = ecofl(&[
        "trace",
        "--model",
        "effnet-b0",
        "--devices",
        "tx2q,nanoh",
        "--rounds",
        "2",
        "--store",
        dir.to_str().expect("utf-8 temp path"),
        "--block-records",
        "24",
    ]);
    assert!(ok, "trace failed:\n{stdout}\n{stderr}");
    assert!(
        stdout.contains("(72 stored record(s), 3 block(s))"),
        "stdout:\n{stdout}"
    );
    dir
}

/// A refused trace run leaves its store as it found it: no directory at a
/// new path, and an existing store's `trace.seg` byte for byte. The
/// partition is refused before the store opens; the gpipe run runs out of
/// memory at micro-batch 39, after it wrote blocks of one record each.
#[test]
fn a_refused_trace_run_leaves_the_store_as_it_found_it() {
    let infeasible = [
        "trace",
        "--model",
        "effnet-b6",
        "--devices",
        "nanol,nanol",
        "--mbs",
        "64",
    ];
    let out_of_memory = [
        "trace",
        "--model",
        "effnet-b0",
        "--devices",
        "tx2q,nanoh",
        "--schedule",
        "gpipe",
        "--micro-batches",
        "2000",
        "--block-records",
        "1",
    ];
    let existing = small_store("refused");
    let before = std::fs::read(existing.join("trace.seg")).expect("trace.seg");
    let fresh_root =
        std::env::temp_dir().join(format!("ecofl-cli-refused-new-{}", std::process::id()));
    std::fs::remove_dir_all(&fresh_root).ok();
    let fresh = fresh_root.join("store");
    for (refused, error) in [
        (&infeasible[..], "no feasible partition"),
        (&out_of_memory[..], "OOMs"),
    ] {
        for store in [&fresh, &existing] {
            let mut args = refused.to_vec();
            args.extend(["--store", store.to_str().expect("utf-8 temp path")]);
            let (ok, stdout, stderr) = ecofl(&args);
            assert!(!ok, "{args:?} ran:\n{stdout}");
            assert!(stderr.contains(error), "{args:?}:\n{stderr}");
        }
        assert!(
            !fresh_root.exists(),
            "{error}: {} was left",
            fresh_root.display()
        );
        let after = std::fs::read(existing.join("trace.seg")).expect("trace.seg");
        assert!(after == before, "{error}: the existing trace.seg changed");
    }
    std::fs::remove_dir_all(&existing).ok();
}

/// The record lines of an inspecting `trace --store` run.
fn record_lines(stdout: &str) -> Vec<&str> {
    let shapes = ["  Span(", "  Event(", "  Counter(", "  Gauge("];
    (stdout.lines())
        .filter(|l| shapes.iter().any(|s| l.starts_with(s)))
        .collect()
}

#[test]
fn trace_store_limit_keeps_the_first_records_and_counts_the_rest() {
    let dir = small_store("limit");
    let store = dir.to_str().unwrap();
    let (ok, all, stderr) = ecofl(&["trace", "--store", store, "--limit", "100000"]);
    assert!(ok, "inspect failed:\n{all}\n{stderr}");
    let every = record_lines(&all);
    let matched = every.len();
    assert_eq!(matched, 72);
    assert!(
        all.contains("query decoded 3 of 3 block(s), 72 matching record(s)"),
        "stdout:\n{all}"
    );
    assert!(!all.contains("more (raise --limit)"), "stdout:\n{all}");
    for limit in [0, 3] {
        let (ok, stdout, _) = ecofl(&["trace", "--store", store, "--limit", &limit.to_string()]);
        assert!(ok);
        assert_eq!(record_lines(&stdout), every[..limit], "--limit {limit}");
        let more = format!("  ... {} more (raise --limit)", matched - limit);
        assert_eq!(
            stdout.lines().last(),
            Some(more.as_str()),
            "--limit {limit}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `trace --store` over a hostile `trace.seg`: the run ends within 30 s
/// with records (exit 0), or with one `error:` line and no record (exit
/// 1) — never a panic or a signal.
fn inspect_hostile(dir: &std::path::Path, seg: &[u8], what: &str) {
    use std::time::{Duration, Instant};
    std::fs::write(dir.join("trace.seg"), seg).expect("write segment");
    let mut child = Command::new(env!("CARGO_BIN_EXE_ecofl"))
        .args(["trace", "--store", dir.to_str().unwrap(), "--limit", "3"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("waits").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("{what}: still running after 30 s");
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let out = child.wait_with_output().expect("exited");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    match out.status.code() {
        Some(0) => {}
        Some(1) => {
            assert_eq!(stderr.lines().count(), 1, "{what}: stderr\n{stderr}");
            assert!(stderr.starts_with("error: "), "{what}: stderr\n{stderr}");
            assert!(record_lines(&stdout).is_empty(), "{what}: stdout\n{stdout}");
        }
        _ => panic!("{what}: {}\nstderr:\n{stderr}", out.status),
    }
}

#[test]
fn a_hostile_trace_segment_is_one_error_line_and_no_records() {
    let dir = small_store("hostile");
    let blocks: Vec<(usize, usize)> = (ecofl::obs::RunStore::open(&dir).expect("opens"))
        .trace_blocks()
        .iter()
        .map(|b| (b.offset as usize, b.comp_len as usize))
        .collect();
    let bytes = std::fs::read(dir.join("trace.seg")).expect("read segment");
    let len = bytes.len();
    let (last, last_len) = blocks[blocks.len() - 1];
    let footer_start = last + last_len;
    // Cut short: every offset through the footer and trailer, every 16th
    // before them.
    for cut in (0..footer_start).step_by(16).chain(footer_start..len) {
        inspect_hostile(&dir, &bytes[..cut], &format!("cut at {cut}"));
    }
    // Every footer and trailer byte flipped.
    for at in footer_start..len {
        let mut flipped = bytes.clone();
        flipped[at] ^= 0xFF;
        inspect_hostile(&dir, &flipped, &format!("byte {at} flipped"));
    }
    // Every block's bytes over every other's, cut to the shorter length.
    for &(to, n) in &blocks {
        for &(from, m) in &blocks {
            if to != from {
                let mut spliced = bytes.clone();
                let k = n.min(m);
                spliced[to..to + k].copy_from_slice(&bytes[from..from + k]);
                inspect_hostile(&dir, &spliced, &format!("block at {from} over {to}"));
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_uncreatable_trace_dir_is_an_error_not_a_panic() {
    // A regular file where the default store's parent directory should be.
    let file = std::env::temp_dir().join(format!("ecofl-cli-notadir-{}", std::process::id()));
    std::fs::write(&file, b"").expect("write temp file");
    let out = Command::new(env!("CARGO_BIN_EXE_ecofl"))
        .args(["trace", "--model", "effnet-b0", "--devices", "tx2q,nanoh"])
        .env("ECOFL_TRACE_DIR", file.join("trace"))
        .output()
        .expect("binary runs");
    std::fs::remove_file(&file).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "stderr:\n{stderr}");
    assert!(lines[0].starts_with("error:"), "stderr:\n{stderr}");
}

fn fnv1a(bytes: &[u8]) -> String {
    let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{digest:016x}")
}

/// The benchmark's five `trace_write` ops print the report and write the
/// `trace.seg` bytes pinned in `tests/golden/trace/trace_write.txt`. The
/// digests were written by the byte-at-a-time compressor, so a match
/// means `lz::compress` wrote its bytes for every real block.
#[test]
fn trace_write_ops_print_and_store_the_golden_bytes() {
    let dir = std::env::temp_dir().join(format!("ecofl-cli-trace-golden-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let golden = include_str!("golden/trace/trace_write.txt");
    for line in golden.lines().filter(|l| !l.starts_with('#')) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [schedule, records, blocks, seg_digest, stdout_digest] = fields[..] else {
            panic!("malformed golden line: {line}");
        };
        let store = dir.join(schedule);
        let store_arg = store.to_str().expect("utf-8 temp path");
        let (ok, stdout, stderr) = ecofl(&[
            "trace",
            "--model",
            "effnet-b4",
            "--devices",
            "tx2q,tx2n,nanoh,nanoh",
            "--mbs",
            "4",
            "--micro-batches",
            "32",
            "--rounds",
            "100",
            "--schedule",
            schedule,
            "--store",
            store_arg,
        ]);
        assert!(ok, "{schedule}: trace failed:\n{stdout}\n{stderr}");
        let counts = format!("({records} stored record(s), {blocks} block(s))");
        assert!(
            stdout.contains(&counts),
            "{schedule}: no {counts}:\n{stdout}"
        );
        let seg = std::fs::read(store.join("trace.seg")).expect("trace.seg");
        assert_eq!(fnv1a(&seg), seg_digest, "{schedule}: trace.seg bytes");
        let stdout = stdout.replace(store_arg, "{store}");
        assert_eq!(
            fnv1a(stdout.as_bytes()),
            stdout_digest,
            "{schedule}: stdout"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `metrics --store` over the store an FL trace wrote: its rollup has
/// every section, and the `global_updates` total is the update count the
/// run printed.
#[test]
fn metrics_store_rolls_up_a_traced_fl_run() {
    let dir = std::env::temp_dir().join(format!("ecofl-cli-metrics-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = dir.to_str().expect("utf-8 temp path");

    let run = [
        "trace",
        "--scenario",
        "fl",
        "--clients",
        "12",
        "--horizon",
        "120",
    ];
    let (ok, traced, stderr) = ecofl(&[&run[..], &["--store", store]].concat());
    assert!(ok, "trace --scenario fl failed:\n{traced}\n{stderr}");
    assert!(!dir.join("metrics.seg").exists());

    let (ok, stored, stderr) = ecofl(&["metrics", "--store", store]);
    assert!(ok, "metrics --store failed:\n{stored}\n{stderr}");
    let rollup: Vec<&str> = (stored.lines())
        .skip_while(|l| !l.starts_with("rollup of "))
        .collect();
    for section in ["  counters", "  gauges", "  spans", "  events"] {
        assert!(
            rollup.iter().any(|l| l.starts_with(section)),
            "no {section} in:\n{stored}"
        );
    }

    let updates = (traced.lines())
        .find_map(|l| l.trim().strip_prefix("updates "))
        .and_then(|rest| rest.split(" | ").next())
        .unwrap_or_else(|| panic!("no update count in:\n{traced}"));
    let total = rollup
        .iter()
        .find_map(|l| l.trim().strip_prefix("global_updates"))
        .map(str::trim)
        .unwrap_or_else(|| panic!("no global_updates total in:\n{stored}"));
    assert_eq!(total, updates);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_inspect_fails_cleanly_without_snapshots() {
    let dir = std::env::temp_dir().join(format!("ecofl-cli-nometrics-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    assert!(!ecofl(&["metrics", "--store", dir.to_str().unwrap()]).0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_command_fails_with_usage() {
    let (ok, _, stderr) = ecofl(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "stderr:\n{stderr}");
}

#[test]
fn bad_model_fails_cleanly() {
    let (ok, _, stderr) = ecofl(&["plan", "--model", "resnet-50", "--devices", "tx2q,nanoh"]);
    assert!(!ok);
    assert!(stderr.contains("unknown model"));
}

/// A bad flag value must exit non-zero with exactly one `error:` line
/// that names `flag` — never a panic, never a silent all-zero report.
fn assert_rejects(args: &[&str], flag: &str) {
    let (ok, stdout, stderr) = ecofl(args);
    assert!(!ok, "{args:?} exited 0; stdout:\n{stdout}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{args:?} stderr:\n{stderr}");
    assert!(
        lines[0].starts_with("error:") && lines[0].contains(flag),
        "{args:?} stderr:\n{stderr}"
    );
}

#[test]
fn model_resolution_below_32_is_rejected_not_asserted() {
    for model in ["effnet-b0@0", "mobilenet-w1@1"] {
        assert_rejects(&["gantt", "--model", model, "--devices", "tx2q"], "--model");
    }
}

#[test]
fn plan_bounds_the_search_by_distinct_device_orders() {
    // Nine identical devices are one order; the list used to reach the
    // library's `n ≤ 8` assert.
    let nine = ["nanoh"; 9].join(",");
    let (ok, stdout, stderr) = ecofl(&[
        "plan",
        "--model",
        "effnet-b0",
        "--devices",
        &nine,
        "--batch",
        "32",
    ]);
    assert!(ok, "nine twins failed:\n{stderr}");
    assert!(stdout.contains("stage 8"), "stdout:\n{stdout}");
    // Table 1 has four models, so no nine-device list has more than
    // 9!/(3!·2!·2!·2!) = 7 560 orders; the shortest list past the cap is
    // three of each, 12!/(3!)⁴ = 369 600.
    let twelve = ["nanol,nanoh,tx2q,tx2n"; 3].join(",");
    assert_rejects(
        &["plan", "--model", "effnet-b0", "--devices", &twelve],
        "--devices",
    );
}

#[test]
fn more_devices_than_layers_is_a_devices_error() {
    // EfficientNet-B0 has 18 layers: 18 devices can split it, 19 cannot.
    let devices = |n: usize| ["tx2q"; 19][..n].join(",");
    let (ok, stdout, stderr) = ecofl(&[
        "plan",
        "--model",
        "effnet-b0",
        "--devices",
        &devices(18),
        "--batch",
        "32",
    ]);
    assert!(ok, "18 devices failed:\n{stderr}");
    assert!(stdout.contains("stage 17"), "stdout:\n{stdout}");
    for command in ["plan", "gantt"] {
        assert_rejects(
            &[command, "--model", "effnet-b0", "--devices", &devices(19)],
            "--devices: 19 devices but EfficientNet-B0@224 has 18 layers",
        );
    }
}

#[test]
fn plan_batch_errors_name_the_flag_and_odd_batches_truncate() {
    let plan = ["plan", "--model", "effnet-b0", "--devices", "tx2q,nanoh"];
    for batch in ["0", "3"] {
        assert_rejects(&[&plan[..], &["--batch", batch]].concat(), "--batch");
    }
    // 100 is no multiple of the chosen micro-batch 16: the round trains
    // 6 × 16 = 96 samples.
    let (ok, stdout, _) = ecofl(&[&plan[..], &["--batch", "100"]].concat());
    assert!(ok);
    assert!(
        stdout.contains("micro-batch  : 16 (6 per sync-round)"),
        "stdout:\n{stdout}"
    );
}

#[test]
fn plan_searches_under_the_requested_schedule() {
    let plan = ["plan", "--model", "effnet-b0", "--devices", "tx2q,nanoh"];
    let (_, default, _) = ecofl(&plan);
    let (ok, one_f_one_b, _) = ecofl(&[&plan[..], &["--schedule", "1f1b"]].concat());
    assert!(ok);
    assert_eq!(default, one_f_one_b);
    let (ok, interleaved, _) = ecofl(&[&plan[..], &["--schedule", "interleaved"]].concat());
    assert!(ok);
    assert_ne!(default, interleaved, "the schedule must reach the search");
    let (ok, _, stderr) = ecofl(&[&plan[..], &["--schedule", "rr"]].concat());
    assert!(!ok);
    assert!(stderr.contains("unknown schedule"), "stderr:\n{stderr}");
}

#[test]
fn spike_rejects_degenerate_horizon_at_and_load() {
    let spike = ["spike", "--model", "effnet-b0", "--devices", "tx2q,nanoh"];
    let traced = [&["trace", "--scenario", "spike"], &spike[1..]].concat();
    for (flag, value) in [
        ("--horizon", "0"),
        ("--horizon", "nan"),
        ("--at", "-5"),
        ("--at", "250"),
        ("--load", "1.5"),
    ] {
        for base in [&spike[..], &traced[..]] {
            let mut args = base.to_vec();
            args.extend([flag, value]);
            assert_rejects(&args, flag);
        }
    }
}

/// `--load` is a fraction; the header used to print it with a `%` as it
/// came (`1% load` for 0.6, `0% load` for 0.3).
#[test]
fn spike_header_prints_the_load_fraction_as_a_percentage() {
    let spike = ["spike", "--model", "effnet-b0", "--devices", "tx2q,nanoh"];
    for (load, header) in [
        (
            "0.6",
            "EfficientNet-B0@224: 60% load on device 1 at t = 100s",
        ),
        (
            "0.3",
            "EfficientNet-B0@224: 30% load on device 1 at t = 100s",
        ),
    ] {
        let (ok, stdout, stderr) = ecofl(&[&spike[..], &["--load", load]].concat());
        assert!(ok, "stderr:\n{stderr}");
        assert_eq!(stdout.lines().next(), Some(header));
    }
}

/// Zero counts used to reach library asserts (`executor.rs`,
/// `profiler.rs`, `gantt.rs`, `latency.rs`) and a `--width` under the
/// renderer's ten columns still did; each is rejected by flag name.
#[test]
fn zero_counts_are_rejected_by_flag_name_not_asserted() {
    let pipeline = ["--model", "effnet-b0", "--devices", "tx2q,nanoh"];
    for (command, flag) in [
        ("trace", "--rounds"),
        ("trace", "--micro-batches"),
        ("gantt", "--micro-batches"),
        ("gantt", "--mbs"),
        ("gantt", "--width"),
    ] {
        assert_rejects(&[&[command], &pipeline[..], &[flag, "0"]].concat(), flag);
    }
    assert_rejects(
        &[&["gantt"], &pipeline[..], &["--width", "9"]].concat(),
        "--width must be at least 10",
    );
    assert_rejects(&["fl", "--clients", "0"], "--clients");
}

/// A simulated run sized by the flags used to allocate until the process
/// died (`plan --batch 1000000000` ran 34 s to a 15.7 GiB peak); past the
/// executor's cap it is rejected by flag name before anything runs.
#[test]
fn oversized_simulated_runs_are_rejected_by_flag_name_at_once() {
    let pipeline = ["--model", "effnet-b0", "--devices", "tx2q,nanoh"];
    for (command, extra, flag) in [
        ("plan", &["--batch", "1000000000"][..], "--batch"),
        (
            "trace",
            &["--micro-batches", "50000000", "--rounds", "1"],
            "--micro-batches",
        ),
        (
            "trace",
            &["--micro-batches", "8", "--rounds", "50000000"],
            "--rounds",
        ),
        ("gantt", &["--micro-batches", "50000000"], "--micro-batches"),
        ("gantt", &["--width", "2000000000"], "--width"),
        (
            "spike",
            &["--kill-stage", "1", "--rounds", "100000000"],
            "--rounds",
        ),
        ("spike", &["--horizon", "1e15", "--at", "1"], "--horizon"),
    ] {
        // The kill demo runs a fixed MLP: it takes no `--model`.
        let head = if extra.contains(&"--kill-stage") {
            &pipeline[2..]
        } else {
            &pipeline[..]
        };
        let started = std::time::Instant::now();
        assert_rejects(&[&[command], head, extra].concat(), flag);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "{command} {extra:?} took {:?}",
            started.elapsed()
        );
    }
    // `FlConfig::validate` refuses the field; the CLI names the flag.
    assert_rejects(&["fl", "--clients", "9223372036854775808"], "--clients");
}

#[test]
fn spike_kill_micro_past_the_round_is_rejected_not_reported_as_success() {
    // A round of the kill demo has 4 micro-batches: micro-batch 9 is never
    // reached, nothing dies, and the run used to end "bit-identical".
    let kill = ["spike", "--devices", "tx2q,nanoh", "--kill-stage", "1"];
    assert_rejects(
        &[&kill[..], &["--kill-micro", "9"]].concat(),
        "--kill-micro",
    );
    let (ok, stdout, stderr) = ecofl(&[&kill[..], &["--kill-micro", "3"]].concat());
    assert!(ok, "stderr:\n{stderr}");
    assert!(stdout.contains("FAULT"), "stdout:\n{stdout}");
    assert!(stdout.contains("bit-identical"), "stdout:\n{stdout}");
}

/// Runs `ecofl` with the space-separated arguments of `cmd` and waits at
/// most `secs` for it: a run still going then is killed and fails the
/// test. Returns success and stderr.
fn ecofl_within(cmd: &str, secs: u64) -> (bool, String) {
    use std::time::{Duration, Instant};
    let mut child = Command::new(env!("CARGO_BIN_EXE_ecofl"))
        .args(cmd.split(' '))
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    let deadline = Instant::now() + Duration::from_secs(secs);
    while child.try_wait().expect("waits").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("ecofl {cmd} still running after {secs} s");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().expect("exited");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.success(), stderr)
}

/// A horizon whose cohort completions pass the bound the config allows
/// is refused at once by every command that runs FL; it used to run for
/// a time linear in the horizon, so `1e300` never returned.
#[test]
fn an_unbounded_fl_horizon_is_rejected_at_once() {
    for cmd in [
        "fl --clients 10 --horizon 1e300",
        "trace --scenario fl --clients 10 --horizon 1e300",
    ] {
        let (ok, stderr) = ecofl_within(cmd, 30);
        assert!(!ok, "{cmd} exited 0");
        assert!(
            stderr.starts_with("error: --horizon 1e300 s allows"),
            "{cmd} stderr:\n{stderr}"
        );
    }
}

#[test]
fn fl_horizon_zero_names_the_horizon_flag() {
    assert_rejects(&["fl", "--clients", "10", "--horizon", "0"], "--horizon");
}

/// A second FL trace into one store first panicked reading the two runs'
/// accuracy gauges back as one series, then was refused after its
/// records were already committed. It summarizes its own blocks now, as
/// the spike timeline does: the same run prints the same summary, and
/// the segment grows by exactly that run's blocks.
#[test]
fn a_second_fl_trace_into_one_store_summarizes_only_its_own_run() {
    let dir = std::env::temp_dir().join(format!("ecofl-cli-twice-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = dir.to_str().expect("utf-8 temp path");
    let run = ["trace", "--scenario", "fl", "--store", store];
    let segment = dir.join("trace.seg");
    let (ok, first, stderr) = ecofl(&run);
    assert!(ok, "the first run failed:\n{stderr}");
    let one_run = std::fs::metadata(&segment).expect("trace.seg").len();
    let (ok, second, stderr) = ecofl(&run);
    assert!(ok, "the second run failed:\n{stderr}");
    // Only the `trace:` line, which counts the whole store, differs.
    let summary = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| !l.starts_with("trace: "))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(summary(&second), summary(&first));
    assert!(summary(&first).iter().any(|l| l.contains("mean accuracy")));
    let lines = |out: &str| {
        out.lines()
            .find(|l| l.starts_with("trace: "))
            .map(str::to_owned)
    };
    let (blocks_once, blocks_twice) = (block_count(&lines(&first)), block_count(&lines(&second)));
    assert_eq!(blocks_twice, 2 * blocks_once, "{first}\n{second}");
    // The run writes no checkpoints: `checkpoints.seg` is an empty
    // segment, the part of `trace.seg` that is not the run's blocks.
    let empty = std::fs::metadata(dir.join("checkpoints.seg")).expect("checkpoints.seg");
    let two_runs = std::fs::metadata(&segment).expect("trace.seg").len();
    assert_eq!(two_runs - one_run, one_run - empty.len());
    std::fs::remove_dir_all(&dir).ok();
}

/// The block count of a `trace: DIR (R stored record(s), B block(s))` line.
fn block_count(line: &Option<String>) -> usize {
    let line = line.as_deref().expect("a trace: line");
    let blocks = line.rsplit_once(", ").expect("a block count").1;
    blocks
        .split(' ')
        .next()
        .and_then(|b| b.parse().ok())
        .unwrap_or_else(|| panic!("no block count in {line}"))
}

#[test]
fn missing_required_arg_fails_cleanly() {
    let (ok, _, stderr) = ecofl(&["plan", "--devices", "tx2q"]);
    assert!(!ok);
    assert!(stderr.contains("--model is required"));
}

#[test]
fn help_prints_all_commands() {
    let (ok, stdout, _) = ecofl(&["help"]);
    assert!(ok);
    for cmd in ["devices", "plan", "gantt", "spike", "fl", "metrics"] {
        assert!(stdout.contains(cmd));
    }
    // A flag line is indented under its command, not flush left.
    assert!(stdout.contains("\n         [--batch N] "), "{stdout}");
}

/// A token the command does not read used to be skipped: `--strateg
/// fedavg` ran Eco-FL, `--bach 64` planned for the default batch, a
/// dangling `--clients` ran 60 clients, a stray word was stepped over —
/// all exit 0. One case per failure shape, then one per command's check.
#[test]
fn misspelt_and_dangling_flags_are_rejected_not_ignored() {
    let pipeline = ["--model", "effnet-b0", "--devices", "tx2q,nanoh"];
    assert_rejects(
        &["fl", "--strateg", "fedavg"],
        "unknown flag --strateg for fl",
    );
    assert_rejects(
        &[&["plan"], &pipeline[..], &["--bach", "64"]].concat(),
        "unknown flag --bach for plan",
    );
    assert_rejects(
        &["fl", "--horizon", "100", "--clients"],
        "--clients needs a value",
    );
    assert_rejects(
        &["fl", "--clients", "12", "extra", "--strategy", "fedavg"],
        "unexpected argument 'extra'",
    );

    assert_rejects(&["devices", "--verbose", "1"], "--verbose for devices");
    assert_rejects(
        &[&["gantt"], &pipeline[..], &["--widht", "80"]].concat(),
        "--widht for gantt",
    );
    assert_rejects(
        &[&["spike"], &pipeline[..], &["--laod", "0.5"]].concat(),
        "--laod for spike",
    );
    // A load-spike flag means nothing to the kill demo.
    assert_rejects(
        &[
            "spike",
            "--devices",
            "tx2q,nanoh",
            "--kill-stage",
            "1",
            "--load",
            "0.5",
        ],
        "--load for spike --kill-stage",
    );
    // Nor does a model: its pipeline is a fixed MLP.
    assert_rejects(
        &[
            "spike",
            "--devices",
            "tx2q,nanoh",
            "--kill-stage",
            "1",
            "--model",
            "effnet-b0",
        ],
        "--model for spike --kill-stage",
    );
    assert_rejects(
        &[&["trace"], &pipeline[..], &["--round", "2"]].concat(),
        "--round for trace --scenario pipeline",
    );
    assert_rejects(
        &["trace", "--scenario", "fl", "--client", "8"],
        "--client for trace --scenario fl",
    );
    assert_rejects(
        &["trace", "--store", "nowhere", "--limt", "1"],
        "--limt for trace --store",
    );
    assert_rejects(
        &["metrics", "--store", "nowhere", "--rond", "1"],
        "--rond for metrics --store",
    );
    // The Prometheus import, the live dashboard and the JSONL export
    // are gone; their flags are refused by name.
    assert_rejects(
        &["metrics", "--import", "nowhere.prom"],
        "--import for metrics --store",
    );
    assert_rejects(&["metrics", "--live", "fl"], "--live for metrics --store");
    assert_rejects(
        &["trace", "--scenario", "fl", "--out", "x"],
        "--out for trace --scenario fl",
    );
}

/// The flag sets of the benchmark's six op lists (the table in
/// `benchmark/README.md`), scaled down: the flag check must never reject
/// what the frozen benchmark passes.
#[test]
fn the_benchmark_flag_sets_are_accepted() {
    let dir = std::env::temp_dir().join(format!("ecofl-cli-flagsets-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = dir.to_str().expect("utf-8 temp path");
    let ops = [
        // fl_paper_300
        "fl --strategy fedat --clients 12 --clients-per-round 4 --groups 2 --horizon 60 \
         --dataset fashion --seed 1003",
        // fl_census_1m
        "fl --strategy ecofl --clients 200 --shards 8 --horizon 60 --seed 7",
        // pipeline_plan
        "plan --model effnet-b0 --batch 32 --devices tx2q,nanoh",
        // rt_1f1b_recover
        "spike --devices tx2q,nanoh --rounds 4 --kill-round 2 --kill-micro 1 --kill-stage 0 \
         --seed 5",
        // trace_write
        "trace --model effnet-b0 --devices tx2q,nanoh --mbs 4 --micro-batches 8 --rounds 3 \
         --schedule zb --store STORE",
        // trace_query, on the store the op above wrote
        "trace --store STORE --limit 1",
        "trace --store STORE --limit 1 --rounds 1..2",
        "trace --store STORE --limit 1 --kind event",
        "trace --store STORE --limit 1 --min-duration 1.0",
    ];
    for op in ops {
        // The store goes in after the split: a path with a space is one argument.
        let op: Vec<&str> = op
            .split_whitespace()
            .map(|word| if word == "STORE" { store } else { word })
            .collect();
        let (ok, stdout, stderr) = ecofl(&op);
        assert!(ok, "{op:?} failed:\n{stdout}\n{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

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

#[test]
fn metrics_live_run_persists_snapshots_and_round_trips_prometheus() {
    let dir = std::env::temp_dir().join(format!("ecofl-cli-metrics-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = dir.to_str().expect("utf-8 temp path");

    // Live metered FL run: dashboard ticks while training, every tick's
    // snapshot lands in the store.
    let (ok, stdout, stderr) = ecofl(&[
        "metrics",
        "--live",
        "fl",
        "--clients",
        "8",
        "--horizon",
        "60",
        "--refresh-ms",
        "50",
        "--store",
        store,
    ]);
    assert!(ok, "metrics --live failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains("metrics snapshot"), "stdout:\n{stdout}");
    for metric in [
        "fl_global_updates",
        "fl_round_latency_s",
        "fl_accuracy",
        "store_blocks_written",
    ] {
        assert!(stdout.contains(metric), "missing {metric} in:\n{stdout}");
    }
    assert!(
        stdout.contains("persisted") && stdout.contains("snapshot(s)"),
        "stdout:\n{stdout}"
    );
    assert!(dir.join("metrics.seg").exists());

    // Inspect the persisted snapshots and export Prometheus text.
    let prom = dir.join("export.prom");
    let prom_path = prom.to_str().expect("utf-8 temp path");
    let (ok, stdout, stderr) = ecofl(&["metrics", "--store", store, "--export", prom_path]);
    assert!(ok, "metrics inspect failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains("metrics snapshot(s))"), "stdout:\n{stdout}");
    assert!(stdout.contains("fl_global_updates"), "stdout:\n{stdout}");
    let text = std::fs::read_to_string(&prom).expect("export written");
    assert!(text.starts_with("# ecofl-metrics v1 round="), "{text}");
    assert!(text.contains("# TYPE fl_round_latency_s histogram"));

    // Import the export, re-export, and demand a byte-identical file:
    // the CLI-level Prometheus round trip.
    let prom2 = dir.join("export2.prom");
    let prom2_path = prom2.to_str().expect("utf-8 temp path");
    let (ok, stdout, stderr) = ecofl(&["metrics", "--import", prom_path, "--export", prom2_path]);
    assert!(ok, "metrics import failed:\n{stdout}\n{stderr}");
    let text2 = std::fs::read_to_string(&prom2).expect("re-export written");
    assert_eq!(text, text2, "Prometheus round trip must be byte-identical");

    // --round selects a specific stored snapshot.
    let (ok, stdout, stderr) = ecofl(&["metrics", "--store", store, "--round", "1"]);
    assert!(ok, "metrics --round failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains("round 1 ("), "stdout:\n{stdout}");

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
    let traced = [
        "trace",
        "--scenario",
        "spike",
        "--model",
        "effnet-b0",
        "--devices",
        "tx2q,nanoh",
    ];
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
    assert_rejects(
        &["metrics", "--live", "fl", "--refresh-ms", "0"],
        "--refresh-ms",
    );
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
        (
            "spike",
            &["--kill-stage", "1", "--rounds", "100000000"],
            "--rounds",
        ),
    ] {
        let started = std::time::Instant::now();
        assert_rejects(&[&[command], &pipeline[..], extra].concat(), flag);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "{command} {extra:?} took {:?}",
            started.elapsed()
        );
    }
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

#[test]
fn fl_horizon_zero_names_the_horizon_flag() {
    assert_rejects(&["fl", "--clients", "10", "--horizon", "0"], "--horizon");
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
    assert_rejects(
        &["metrics", "--live", "fl", "--refresh", "50"],
        "--refresh for metrics --live",
    );
    assert_rejects(
        &["metrics", "--import", "nowhere.prom", "--exprt", "x"],
        "--exprt for metrics --import",
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
    let ops: [&[&str]; 9] = [
        // fl_paper_300
        &[
            "fl",
            "--strategy",
            "fedat",
            "--clients",
            "12",
            "--clients-per-round",
            "4",
            "--groups",
            "2",
            "--horizon",
            "60",
            "--dataset",
            "fashion",
            "--seed",
            "1003",
        ],
        // fl_census_1m
        &[
            "fl",
            "--strategy",
            "ecofl",
            "--clients",
            "200",
            "--shards",
            "8",
            "--horizon",
            "60",
            "--seed",
            "7",
        ],
        // pipeline_plan
        &[
            "plan",
            "--model",
            "effnet-b0",
            "--batch",
            "32",
            "--devices",
            "tx2q,nanoh",
        ],
        // rt_1f1b_recover
        &[
            "spike",
            "--devices",
            "tx2q,nanoh",
            "--rounds",
            "4",
            "--kill-round",
            "2",
            "--kill-micro",
            "1",
            "--kill-stage",
            "0",
            "--seed",
            "5",
        ],
        // trace_write
        &[
            "trace",
            "--model",
            "effnet-b0",
            "--devices",
            "tx2q,nanoh",
            "--mbs",
            "4",
            "--micro-batches",
            "8",
            "--rounds",
            "3",
            "--schedule",
            "zb",
            "--store",
            store,
        ],
        // trace_query, on the store the op above wrote
        &["trace", "--store", store, "--limit", "1"],
        &[
            "trace", "--store", store, "--limit", "1", "--rounds", "1..2",
        ],
        &["trace", "--store", store, "--limit", "1", "--kind", "event"],
        &[
            "trace",
            "--store",
            store,
            "--limit",
            "1",
            "--min-duration",
            "1.0",
        ],
    ];
    for op in ops {
        let (ok, stdout, stderr) = ecofl(op);
        assert!(ok, "{op:?} failed:\n{stdout}\n{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

//! `ecofl` — command-line front end for the Eco-FL reproduction.
//!
//! ```text
//! ecofl devices                          # Table 1 catalog
//! ecofl plan    --model effnet-b4 --devices tx2q,nanoh,nanoh
//! ecofl gantt   --model effnet-b0 --devices tx2q,nanoh,nanoh --schedule gpipe
//! ecofl spike   --model effnet-b4 --devices tx2q,nanoh,nanoh --load 0.6
//! ecofl fl      --strategy ecofl --clients 60 --horizon 800
//! ecofl trace   --model effnet-b0 --devices tx2q,nanoh,nanoh
//! ecofl trace   --store target/ecofl-results/trace/pipeline --rounds 0..2
//! ecofl trace   --scenario fl --clients 12 --horizon 120 --store DIR
//! ecofl metrics --store DIR
//! ```
//!
//! A shell over [`ecofl::scenario`]: it pairs argv into `--key value`
//! flags, builds the command's [`Scenario`], runs it and prints. Every
//! failure path is a typed [`EcoFlError`]; `main` prints its `Display`
//! form, which carries the exact message.

use ecofl::obs::{ComputeSummary, Rollup};
use ecofl::prelude::*;
use ecofl::scenario::{Fl, KillStep, Scenario, Spike, Stored};
use ecofl_pipeline::gantt::{legend, render_view};
use ecofl_util::units::{fmt_bytes, fmt_flops};
use std::collections::HashMap;
use std::process::ExitCode;

/// Reads `--key value` pairs. A token outside a pair — a stray word, a
/// flag with no value after it — is an error, not something to skip: a
/// skipped token is a run with settings the user did not ask for.
fn parse_args(args: &[String]) -> Result<HashMap<String, String>, EcoFlError> {
    let mut map = HashMap::new();
    let mut tokens = args.iter();
    while let Some(token) = tokens.next() {
        let Some(key) = token.strip_prefix("--") else {
            return Err(EcoFlError::Config(format!(
                "unexpected argument '{token}' (flags are --key value pairs)"
            )));
        };
        match tokens.next() {
            Some(value) if !value.starts_with("--") => map.insert(key.to_owned(), value.clone()),
            _ => return Err(EcoFlError::Config(format!("--{key} needs a value"))),
        };
    }
    Ok(map)
}

/// Runs `scenario` and prints what it returns.
fn run(scenario: Scenario) -> Result<(), EcoFlError> {
    match scenario {
        Scenario::Devices => {
            println!("Table 1 device catalog:");
            for spec in ecofl_simnet::table1() {
                let (name, memory) = (spec.name, fmt_bytes(spec.memory_bytes));
                let (mbps, flops) = (spec.network_bps / 1e6, fmt_flops(spec.compute_flops));
                println!("  {name:<8} {memory:>10}  {mbps:>8.0} Mbps  {flops:>16}/s");
            }
        }
        Scenario::Plan(p) => {
            let (plan, model, devices) = (p.run()?, &p.model, &p.devices);
            println!("{} over {} device(s):", model.name, devices.len());
            let order: Vec<&str> = plan.order.iter().map(|&i| devices[i].name()).collect();
            println!("  device order : {order:?}");
            for s in 0..plan.partition.num_stages() {
                let range = plan.partition.stage_range(s);
                let share = 100.0 * model.range_flops(range.clone()) / model.total_flops();
                let (a, b, on) = (range.start, range.end, devices[plan.order[s]].name());
                println!("  stage {s}     : layers {a:>2}..{b:<2} ({share:.1}% of FLOPs) on {on}");
            }
            let (mbs, m, k, free) = (plan.micro_batch, plan.micro_batches, &plan.k, plan.ddb_free);
            println!("  micro-batch  : {mbs} ({m} per sync-round)");
            println!("  residency K  : {k:?} (DDB-free: {free})");
            println!("  throughput   : {:.2} samples/s", plan.report.throughput);
            let peaks: Vec<String> = plan
                .report
                .stage_peak_memory
                .iter()
                .map(|&b| fmt_bytes(b))
                .collect();
            println!("  peak memory  : {}", peaks.join(" / "));
        }
        Scenario::Gantt(p, width) => {
            let report = p.run(1)?;
            let v = match p.policy {
                SchedulePolicy::Interleaved { v, .. } => v,
                _ => 1,
            };
            let (name, schedule, mbs) = (&p.model.name, &p.schedule, p.profile.micro_batch());
            println!("{name} — {schedule} schedule, mbs {mbs}, M = {}", p.m);
            println!("{}", legend());
            print_lines(render_view(&report.trace_view(), 0, width, v));
            println!(
                "round {:.2}s, {:.1} samples/s",
                report.round_time, report.throughput
            );
        }
        Scenario::Spike(s) => {
            let (with, without) = s.run()?;
            println!("{}", spike_header(&s));
            println!(
                "  pre-spike            : {:6.2} samples/s",
                with.pre_spike_throughput
            );
            println!(
                "  post, w/o scheduler  : {:6.2} samples/s",
                without.post_spike_throughput
            );
            println!(
                "  post, w/  scheduler  : {:6.2} samples/s",
                with.post_spike_throughput
            );
            for ev in &with.events {
                let (t, old, new, pause) =
                    (ev.time, &ev.old_boundaries, &ev.new_boundaries, ev.pause);
                let moved = fmt_bytes(ev.bytes_moved);
                println!(
                    "  migration at {t:.1}s: {old:?} -> {new:?} ({moved} moved, {pause:.2}s stall)"
                );
            }
        }
        Scenario::Kill(k) => {
            let (stage, round, micro) = (k.stage, k.round, k.micro);
            k.run(|step| match step {
                KillStep::Killing => println!(
                    "{}-stage pipeline, killing stage {stage} before micro-batch {micro} of round {round}",
                    k.stages
                ),
                KillStep::Round(r, loss) => println!("  round {r}: loss {loss:.4}"),
                KillStep::Fault(r, e) => println!("  round {r}: FAULT — {e}"),
                KillStep::Recovered(r) => println!("  recovered from checkpoint of round {r}; replaying"),
            })?;
            println!("replayed parameters are bit-identical to the uninterrupted run");
        }
        Scenario::Fl(fl) => {
            let r = fl.run(None);
            println!("{}", fl_header(&r, &fl));
            for (t, acc) in r.accuracy.resample(15) {
                println!("  t = {t:8.1}s  accuracy {:5.1}%", acc * 100.0);
            }
            let (best, last) = (r.best_accuracy * 100.0, r.final_accuracy * 100.0);
            let (updates, regroups) = (r.global_updates, r.regroup_events);
            println!(
                "  best {best:.1}% | final {last:.1}% | {updates} updates | {regroups} regroups"
            );
        }
        Scenario::TracePipeline {
            pipeline: p,
            rounds,
            top,
            recorder,
        } => {
            let stored = p.record(rounds, &recorder)?;
            let (name, schedule, mbs) = (&p.model.name, &p.schedule, p.profile.micro_batch());
            println!(
                "{name} — {schedule} schedule, mbs {mbs}, M = {}, {rounds} round(s)",
                p.m
            );
            println!("{}", stored_line(&stored));
            // The report's compute spans are the ones the tracer received,
            // in the same order, so the summary needs no read of the store.
            let report = &stored.run;
            let summary: ComputeSummary = report.task_spans.iter().collect();
            for (r, row) in summary.rounds.into_iter().enumerate() {
                let (t0, t1, bubble) = row.unwrap_or((0.0, 0.0, 0.0));
                println!("  round {r}: window {t0:.2}s..{t1:.2}s, bubble fraction {bubble:.4}");
            }
            let trace_idle = summary.idle_time;
            let report_idle: f64 = report.stage_idle_time.iter().sum();
            let gap = (trace_idle - report_idle).abs();
            println!("  idle: {trace_idle:.6}s from trace, {report_idle:.6}s from executor (|Δ| = {gap:.1e})");
            println!("  top {top} slowest stage(s) by compute time:");
            for (stage, busy) in summary.slowest_stages.into_iter().take(top) {
                println!("    stage {stage}: {busy:.2}s");
            }
        }
        Scenario::TraceSpike(spike, recorder) => {
            let (stored, timeline) = spike.record(&recorder)?;
            println!("{}\n{}", spike_header(&spike), stored_line(&stored));
            let run = &stored.run;
            let (pre, post) = (run.pre_spike_throughput, run.post_spike_throughput);
            println!("  throughput: {pre:.2} -> {post:.2} samples/s");
            println!("  re-scheduling timeline:");
            for ev in timeline {
                let (t, kind, entity, value) = (ev.time, ev.kind, ev.entity, ev.value);
                println!("    {t:7.2}s  {kind:?} (entity {entity}, value {value:.2})");
            }
        }
        Scenario::TraceFl(fl, recorder) => {
            let (stored, summary) = fl.record(&recorder)?;
            let r = &stored.run;
            println!("{}\n{}", fl_header(r, &fl), stored_line(&stored));
            // The run records one `global_updates` increment of 1 per
            // update, so its tally is the counter's total.
            let (mean, best) = (summary.mean_accuracy * 100.0, summary.best_accuracy * 100.0);
            let (updates, drawdown) = (r.global_updates, summary.max_drawdown * 100.0);
            println!("  updates {updates} | mean accuracy {mean:.1}% | best {best:.1}% | max drawdown {drawdown:.1}%");
            for (th, t) in &summary.time_to {
                println!("  reached {:.0}% at t = {t:.1}s", th * 100.0);
            }
        }
        Scenario::Inspect(q) => {
            let store = q.open()?;
            println!("store: {}", q.dir.display());
            for seg in store.segments() {
                let (name, blocks, records) = (&seg.name, seg.blocks, seg.records);
                let (disk, raw) = (fmt_bytes(seg.compressed_bytes), fmt_bytes(seg.raw_bytes));
                println!("  {name:<16} {blocks:>4} block(s) {records:>8} record(s)  {disk} on disk / {raw} raw");
            }
            // Only the count and the first `--limit` matches are kept.
            let (mut matched, mut shown) = (0usize, Vec::new());
            let (decoded, total) = q.scan(&store, |record| {
                matched += 1;
                if shown.len() < q.limit {
                    shown.push(record);
                }
            })?;
            println!("query decoded {decoded} of {total} block(s), {matched} matching record(s)");
            for record in &shown {
                println!("  {record:?}");
            }
            if matched > q.limit {
                println!("  ... {} more (raise --limit)", matched - q.limit);
            }
            let metas = store.checkpoint_metas();
            if !metas.is_empty() {
                println!("checkpoints:");
                for m in &metas {
                    println!(
                        "  seq {:>4}  round {:>4}  {}",
                        m.seq,
                        m.round,
                        fmt_bytes(m.bytes)
                    );
                }
            }
        }
        Scenario::Metrics(q) => {
            let store = q.open()?;
            println!("store: {}", q.dir.display());
            let mut rollup = Rollup::default();
            q.scan(&store, |record| rollup.add(&record))?;
            print_lines(rollup.lines());
        }
    }
    Ok(())
}

/// The first stdout line of `spike` and `trace --scenario spike`.
fn spike_header(s: &Spike) -> String {
    let LoadSpike { device, at, load } = s.spike;
    format!(
        "{}: {:.0}% load on device {device} at t = {at}s",
        s.model.name,
        load * 100.0
    )
}

/// The first stdout line of `fl` and `trace --scenario fl`.
fn fl_header(r: &RunResult, fl: &Fl) -> String {
    let (clients, horizon) = (fl.setup.config.num_clients, fl.setup.config.horizon);
    format!(
        "{} on {} ({clients} clients, horizon {horizon}s):",
        r.strategy, fl.dataset.name
    )
}

/// The `trace:` line: the store and its record and block counts.
fn stored_line<T>(stored: &Stored<T>) -> String {
    let store = &stored.store;
    let (records, blocks) = (store.record_count(), store.trace_blocks().len());
    let dir = stored.dir.display();
    format!("trace: {dir} ({records} stored record(s), {blocks} block(s))")
}

fn print_lines(lines: impl IntoIterator<Item = String>) {
    for line in lines {
        println!("{line}");
    }
}

fn usage() -> &'static str {
    r"usage: ecofl <command> [--key value ...]
commands:
  devices                       print the Table 1 device catalog
  plan   --model M --devices D  partition + orchestrate a pipeline
         [--batch N] [--schedule 1f1b|gpipe|async|interleaved|zb]
  gantt  --model M --devices D  render a schedule Gantt chart
         [--schedule 1f1b|gpipe|async|interleaved|zb]
         [--mbs N] [--micro-batches N] [--width COLS]
  spike  --model M --devices D  run the Fig. 13 load-spike scenario
         [--load F] [--at T] [--device I] [--horizon T]
         [--kill-stage I]       instead (no --model): kill a stage of a
         [--kill-round N] [--kill-micro N] [--rounds N] [--seed N]
                                real MLP runtime, recover, replay, verify
  fl     [--strategy S]         run a federated-learning simulation
         [--clients N] [--horizon T] [--dataset mnist|fashion|cifar]
         [--comm-latency T] [--seed N]
         [--shards N]           back N virtual clients per data shard
                                (million-client runs; 0 = no sharing)
         [--clients-per-round N] [--groups N] [--grouping-batch N]
  trace  --model M --devices D  record a virtual-time trace into a
         segmented run store (summary-pruned compressed blocks)
         [--scenario pipeline|spike|fl] plus that scenario's flags:
         pipeline = gantt's (no --width) [--rounds N] [--top N],
         spike = spike's, fl = fl's
         [--store DIR] [--block-records N]
  trace  --store DIR            inspect an existing run store:
         [--rounds A..B] [--domain pipeline|scheduler|fl|grouping]
         [--kind span|event|counter|gauge] [--min-duration T]
         [--limit N]            segments, pruned query, checkpoints
  metrics --store DIR           roll a stored trace up: counter totals,
                                gauges, span percentiles, event counts
models : effnet-b0..b6, mobilenet-w1..w3 (optionally model@resolution)
devices: comma list of nanol, nanoh, tx2q, tx2n"
}

/// Puts `SIGPIPE` back to its default disposition. The Rust runtime starts
/// every program with the signal ignored, so writing to a closed pipe
/// (`ecofl fl … | head -3`) comes back as `EPIPE`, which `println!` turns
/// into a panic with a backtrace and exit code 101; with the default
/// disposition the process ends quietly on the signal, like any filter.
#[cfg(unix)]
fn restore_default_sigpipe() {
    extern "C" {
        fn signal(signum: std::ffi::c_int, handler: usize) -> usize;
    }
    const SIGPIPE: std::ffi::c_int = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: `signal` is async-signal-safe libc with no memory arguments;
    // `SIG_DFL` installs no handler of ours, and this runs first thing in
    // `main`, before any other thread exists.
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

fn main() -> ExitCode {
    #[cfg(unix)]
    restore_default_sigpipe();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = parse_args(&argv[1..]).and_then(|args| match command.as_str() {
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => match Scenario::parse(other, &args)? {
            Some(scenario) => run(scenario),
            None => Err(EcoFlError::Config(format!(
                "unknown command '{other}'\n{}",
                usage()
            ))),
        },
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofl::pipeline::ScheduleKind;

    /// `command`'s scenario from `--key value` pairs.
    fn parse(command: &str, flags: &[(&str, &str)]) -> Result<Scenario, EcoFlError> {
        let args = flags
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        Scenario::parse(command, &args).map(|s| s.expect("a known command"))
    }

    /// `plan`'s value over one TX2-Q unless `flags` sets `--devices`.
    fn plan(flags: &[(&str, &str)]) -> Result<ecofl::scenario::Plan, EcoFlError> {
        let flags = [&[("devices", "tx2q")], flags].concat();
        match parse("plan", &flags)? {
            Scenario::Plan(p) => Ok(p),
            _ => unreachable!("plan builds a Plan"),
        }
    }

    #[test]
    fn parse_args_collects_pairs() {
        let args: Vec<String> = ["--model", "effnet-b0", "--mbs", "8"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let map = parse_args(&args).unwrap();
        assert_eq!(map.get("model").map(String::as_str), Some("effnet-b0"));
        assert_eq!(map.get("mbs").map(String::as_str), Some("8"));
    }

    #[test]
    fn parse_args_rejects_tokens_outside_a_pair() {
        let parse = |tokens: &[&str]| {
            parse_args(&tokens.iter().map(ToString::to_string).collect::<Vec<_>>())
        };
        for (tokens, needle) in [
            (
                &["--horizon", "100", "--clients"][..],
                "--clients needs a value",
            ),
            (
                &["--clients", "--horizon", "100"],
                "--clients needs a value",
            ),
            (&["--clients", "12", "extra", "--seed", "1"], "'extra'"),
            (&["fedavg"], "'fedavg'"),
        ] {
            match parse(tokens) {
                Err(EcoFlError::Config(msg)) => assert!(msg.contains(needle), "{msg}"),
                other => panic!("{tokens:?}: expected a Config error, got {other:?}"),
            }
        }
        // A negative number is a value, not a flag.
        let map = parse(&["--comm-latency", "-1.5"]).unwrap();
        assert_eq!(map.get("comm-latency").map(String::as_str), Some("-1.5"));
    }

    #[test]
    fn check_flags_names_the_unknown_flag_and_the_command() {
        match parse("plan", &[("bach", "64")]).err() {
            Some(EcoFlError::Config(msg)) => assert_eq!(msg, "unknown flag --bach for plan"),
            other => panic!("expected a Config error, got {other:?}"),
        }
        // A command's flags are the union of its values' tables: the
        // store's `--block-records` beside the spike's own.
        let spike = [("model", "effnet-b0"), ("devices", "tx2q,nanoh")];
        let traced = [
            &spike[..],
            &[("scenario", "spike"), ("block-records", "64")],
        ]
        .concat();
        assert!(parse("trace", &traced).is_ok());
    }

    #[test]
    fn parse_model_variants_and_resolution() {
        let model = |name| plan(&[("model", name)]).map(|p| p.model);
        assert_eq!(model("effnet-b3").unwrap().name, "EfficientNet-B3@224");
        assert_eq!(
            model("mobilenet-w2@128").unwrap().name,
            "MobileNetV2-W2@128"
        );
        assert!(model("resnet").is_err());
        assert!(model("effnet-b1@abc").is_err());
    }

    #[test]
    fn parse_devices_list() {
        let devices = |spec| plan(&[("model", "effnet-b0"), ("devices", spec)]).map(|p| p.devices);
        let d = devices("tx2q, nanoh,nanol").unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].name(), "TX2-Q");
        assert_eq!(d[2].name(), "Nano-L");
        assert!(devices("gpu9000").is_err());
    }

    #[test]
    fn get_parses_with_default() {
        let seed = |flags: &[(&str, &str)]| fl_setup(flags).map(|s| s.config.seed);
        assert_eq!(seed(&[("seed", "7")]).unwrap(), 7);
        assert_eq!(seed(&[]).unwrap(), 42);
        assert!(seed(&[("seed", "x")]).is_err());
    }

    #[test]
    fn parse_rounds_accepts_half_open_ranges() {
        let rounds = |spec| match parse("trace", &[("store", "s"), ("rounds", spec)])? {
            Scenario::Inspect(q) => Ok(format!("{:?}", q.query)),
            _ => unreachable!("a store with no model is inspected"),
        };
        let query = |range| Ok(format!("{:?}", TraceQuery::new().rounds(range)));
        assert_eq!(rounds("2..5"), query(2..5));
        assert_eq!(rounds(" 0 .. 10 "), query(0..10));
        assert!(rounds("5").is_err());
        assert!(rounds("a..b").is_err());
        assert!(rounds("3..").is_err());
        assert_eq!(rounds("4..4"), query(4..4));
        assert!(matches!(rounds("5..2"), Err(EcoFlError::Config(_))));
    }

    /// The FL flag reader over `--key value` pairs, `fl`'s defaults.
    fn fl_setup(flags: &[(&str, &str)]) -> Result<FlSetup, EcoFlError> {
        match parse("fl", flags)? {
            Scenario::Fl(fl) => Ok(fl.setup),
            _ => unreachable!("fl builds an Fl"),
        }
    }

    #[test]
    fn fl_setup_validates_comm_latency() {
        let ok = fl_setup(&[("comm-latency", "2.5")]).unwrap();
        assert!((ok.config.comm_latency - 2.5).abs() < 1e-12);
        for bad in ["-1.0", "NaN"] {
            assert!(matches!(
                fl_setup(&[("comm-latency", bad)]),
                Err(EcoFlError::Config(_))
            ));
        }
    }

    #[test]
    fn fl_setup_scale_opts_virtualize_and_autobatch() {
        // Sharded: 100 virtual clients on 8 shards, explicit cohort size.
        let s = fl_setup(&[
            ("clients", "100"),
            ("shards", "8"),
            ("clients-per-round", "40"),
            ("groups", "3"),
        ])
        .unwrap();
        assert_eq!(s.data.num_clients(), 100);
        assert_eq!(s.data.num_shards(), 8);
        assert_eq!(s.config.clients_per_round, 40);
        assert_eq!(s.config.num_groups, 3);
        // Below the auto-batch threshold the exact greedy path stays on.
        assert_eq!(s.config.grouping_batch, 0);
        // Shards cannot exceed the population.
        assert!(matches!(
            fl_setup(&[("clients", "4"), ("shards", "8")]),
            Err(EcoFlError::Config(_))
        ));
        // Explicit override wins over the auto rule.
        let s = fl_setup(&[
            ("clients", "100"),
            ("shards", "4"),
            ("grouping-batch", "32"),
        ]);
        assert_eq!(s.unwrap().config.grouping_batch, 32);
    }

    #[test]
    fn errors_are_typed_and_keep_messages() {
        match parse("plan", &[("devices", "tx2q")]).err() {
            Some(EcoFlError::Config(msg)) => assert_eq!(msg, "--model is required"),
            other => panic!("expected Config error, got {other:?}"),
        }
        let schedule =
            |name| plan(&[("model", "effnet-b0"), ("schedule", name)]).map(|p| p.config.schedule);
        assert!(matches!(
            plan(&[("model", "resnet")]),
            Err(EcoFlError::Parse(_))
        ));
        assert!(matches!(
            fl_setup(&[("strategy", "sgd")]),
            Err(EcoFlError::Parse(_))
        ));
        assert!(matches!(schedule("rr"), Err(EcoFlError::Parse(_))));
        assert_eq!(schedule("zb").unwrap(), ScheduleKind::ZeroBubble);
        assert_eq!(
            schedule("interleaved").unwrap(),
            ScheduleKind::Interleaved1F1B
        );
        assert!(matches!(
            fl_setup(&[("dataset", "svhn")]),
            Err(EcoFlError::Parse(_))
        ));
    }
}

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
//! ecofl metrics --live fl --clients 12 --horizon 120 --store DIR
//! ecofl metrics --store DIR
//! ```
//!
//! Argument parsing is deliberately dependency-free: `--key value` pairs
//! after a subcommand, nothing else, and only the keys the subcommand
//! reads. Every failure path is a typed [`EcoFlError`]; `main` prints its
//! `Display` form, which carries the exact message.

use ecofl::obs::{trace_dir, ComputeSummary, Domain, EventKind, SpanKind};
use ecofl::prelude::*;
use ecofl_pipeline::adaptive::{simulate_load_spike_with, SchedulerConfig};
use ecofl_pipeline::executor::MAX_SIMULATED_MICRO_BATCHES;
use ecofl_pipeline::gantt::{legend, render_view};
use ecofl_pipeline::orchestrator::{distinct_order_count, MAX_DEVICE_ORDERS};
use ecofl_pipeline::schedule::ScheduleKind;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
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

/// Rejects a flag `command` does not read — `known` is the union of the
/// flag sets `usage()` lists for it. A misspelt flag would otherwise run
/// the default it was meant to override.
fn check_flags(
    args: &HashMap<String, String>,
    command: &str,
    known: &[&[&str]],
) -> Result<(), EcoFlError> {
    // The smallest offender, so the message does not depend on map order.
    match args
        .keys()
        .filter(|key| !known.iter().any(|set| set.contains(&key.as_str())))
        .min()
    {
        Some(key) => Err(EcoFlError::Config(format!(
            "unknown flag --{key} for {command}"
        ))),
        None => Ok(()),
    }
}

/// What `pipeline_args` reads.
const PIPELINE_FLAGS: &[&str] = &["model", "devices", "mbs", "micro-batches", "schedule"];
/// What `spike_args` reads.
const SPIKE_FLAGS: &[&str] = &["model", "devices", "load", "at", "device", "horizon"];
/// What `fl_args` reads.
const FL_FLAGS: &[&str] = &[
    "strategy",
    "clients",
    "horizon",
    "dataset",
    "comm-latency",
    "seed",
    "shards",
    "clients-per-round",
    "groups",
    "grouping-batch",
];
/// What `record_trace` reads.
const STORE_WRITE_FLAGS: &[&str] = &["store", "block-records", "out"];
/// The widest `gantt --width` rendered: wider than any terminal.
const MAX_GANTT_WIDTH: usize = 10_000;

fn require<'a>(args: &'a HashMap<String, String>, key: &str) -> Result<&'a String, EcoFlError> {
    args.get(key)
        .ok_or_else(|| EcoFlError::Config(format!("--{key} is required")))
}

fn parse_model(name: &str) -> Result<ModelProfile, EcoFlError> {
    let (base, res) = match name.split_once('@') {
        Some((b, r)) => (
            b,
            r.parse::<usize>()
                .map_err(|_| EcoFlError::Parse(format!("bad resolution in {name}")))?,
        ),
        None => (name, 224),
    };
    // The model builders assert this bound; a flag value must not reach
    // an assert.
    if res < 32 {
        return Err(EcoFlError::Config(format!(
            "--model {name}: resolution must be at least 32, got {res}"
        )));
    }
    match base {
        "effnet-b0" => Ok(efficientnet_at(0, res)),
        "effnet-b1" => Ok(efficientnet_at(1, res)),
        "effnet-b2" => Ok(efficientnet_at(2, res)),
        "effnet-b3" => Ok(efficientnet_at(3, res)),
        "effnet-b4" => Ok(efficientnet_at(4, res)),
        "effnet-b5" => Ok(efficientnet_at(5, res)),
        "effnet-b6" => Ok(efficientnet_at(6, res)),
        "mobilenet-w1" => Ok(mobilenet_v2_at(1.0, res)),
        "mobilenet-w2" => Ok(mobilenet_v2_at(2.0, res)),
        "mobilenet-w3" => Ok(mobilenet_v2_at(3.0, res)),
        other => Err(EcoFlError::Parse(format!(
            "unknown model '{other}' (effnet-b0..b6, mobilenet-w1..w3, optionally @<res>)"
        ))),
    }
}

fn parse_devices(spec: &str) -> Result<Vec<Device>, EcoFlError> {
    spec.split(',')
        .map(|d| match d.trim() {
            "nanol" | "nano-l" => Ok(Device::new(nano_l())),
            "nanoh" | "nano-h" => Ok(Device::new(nano_h())),
            "tx2q" | "tx2-q" => Ok(Device::new(tx2_q())),
            "tx2n" | "tx2-n" => Ok(Device::new(tx2_n())),
            other => Err(EcoFlError::Parse(format!(
                "unknown device '{other}' (nanol, nanoh, tx2q, tx2n)"
            ))),
        })
        .collect()
}

fn parse_strategy(name: &str) -> Result<Strategy, EcoFlError> {
    match name {
        "fedavg" => Ok(Strategy::FedAvg),
        "fedasync" => Ok(Strategy::FedAsync),
        "fedat" => Ok(Strategy::FedAt),
        "astraea" => Ok(Strategy::Astraea),
        "ecofl" => Ok(Strategy::EcoFl {
            dynamic_grouping: true,
        }),
        "ecofl-static" => Ok(Strategy::EcoFl {
            dynamic_grouping: false,
        }),
        other => Err(EcoFlError::Parse(format!(
            "unknown strategy '{other}' (fedavg, fedasync, fedat, astraea, ecofl, ecofl-static)"
        ))),
    }
}

fn parse_schedule(name: &str) -> Result<ScheduleKind, EcoFlError> {
    name.parse::<ScheduleKind>().map_err(EcoFlError::Parse)
}

fn get<T: std::str::FromStr>(
    args: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, EcoFlError> {
    match args.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| EcoFlError::Parse(format!("bad value for --{key}: {v}"))),
    }
}

/// A count flag that must be at least 1: zero would reach a library
/// assert instead of an error.
fn get_positive(
    args: &HashMap<String, String>,
    key: &str,
    default: usize,
) -> Result<usize, EcoFlError> {
    match get(args, key, default)? {
        0 => Err(EcoFlError::Config(format!("--{key} must be at least 1"))),
        n => Ok(n),
    }
}

fn cmd_devices() -> Result<(), EcoFlError> {
    println!("Table 1 device catalog:");
    for spec in ecofl_simnet::table1() {
        println!(
            "  {:<8} {:>10}  {:>8.0} Mbps  {:>16}/s",
            spec.name,
            ecofl_util::units::fmt_bytes(spec.memory_bytes),
            spec.network_bps / 1e6,
            ecofl_util::units::fmt_flops(spec.compute_flops),
        );
    }
    Ok(())
}

/// Rejects a device list longer than the model's layer list: every
/// stage holds at least one layer, so no partition exists.
fn check_stage_count(model: &ModelProfile, devices: &[Device]) -> Result<(), EcoFlError> {
    if devices.len() > model.num_layers() {
        return Err(EcoFlError::Config(format!(
            "--devices: {} devices but {} has {} layers; every stage needs at least one",
            devices.len(),
            model.name,
            model.num_layers()
        )));
    }
    Ok(())
}

fn cmd_plan(args: &HashMap<String, String>) -> Result<(), EcoFlError> {
    check_flags(args, "plan", &[&["model", "devices", "batch", "schedule"]])?;
    let model = parse_model(require(args, "model")?)?;
    let devices = parse_devices(require(args, "devices")?)?;
    check_stage_count(&model, &devices)?;
    let batch = get(args, "batch", 128usize)?;
    let schedule = parse_schedule(args.get("schedule").map_or("1f1b", String::as_str))?;
    let mbs_candidates = vec![32, 16, 8, 4];
    // Inputs that cannot yield a plan name their flag instead of
    // reporting "no feasible pipeline configuration".
    let smallest = mbs_candidates.iter().copied().min().unwrap_or(1);
    if batch < smallest {
        return Err(EcoFlError::Config(format!(
            "--batch {batch}: the global batch must hold at least one micro-batch \
             of the smallest candidate size, {smallest}"
        )));
    }
    // Each candidate simulates `eval_rounds` rounds of `batch / mbs`.
    let eval_rounds = 2;
    check_run_length(
        &format!("--batch {batch} at micro-batch {smallest}"),
        batch / smallest,
        eval_rounds,
    )?;
    let orders = distinct_order_count(&devices);
    if orders > MAX_DEVICE_ORDERS {
        return Err(EcoFlError::Config(format!(
            "--devices: {} devices form {orders} distinct orders, more than the \
             {MAX_DEVICE_ORDERS} the search walks; use fewer devices or repeat models",
            devices.len()
        )));
    }
    let plan = search_configuration(
        &model,
        &devices,
        &Link::mbps_100(),
        &OrchestratorConfig {
            global_batch: batch,
            mbs_candidates,
            eval_rounds,
            schedule,
        },
    )
    .ok_or_else(|| EcoFlError::Plan("no feasible pipeline configuration".into()))?;
    println!("{} over {} device(s):", model.name, devices.len());
    println!(
        "  device order : {:?}",
        plan.order
            .iter()
            .map(|&i| devices[i].name())
            .collect::<Vec<_>>()
    );
    for s in 0..plan.partition.num_stages() {
        let range = plan.partition.stage_range(s);
        println!(
            "  stage {s}     : layers {:>2}..{:<2} ({:.1}% of FLOPs) on {}",
            range.start,
            range.end,
            100.0 * model.range_flops(range.clone()) / model.total_flops(),
            devices[plan.order[s]].name(),
        );
    }
    println!(
        "  micro-batch  : {} ({} per sync-round)",
        plan.micro_batch, plan.micro_batches
    );
    println!(
        "  residency K  : {:?} (DDB-free: {})",
        plan.k, plan.ddb_free
    );
    println!("  throughput   : {:.2} samples/s", plan.report.throughput);
    println!(
        "  peak memory  : {}",
        plan.report
            .stage_peak_memory
            .iter()
            .map(|&b| ecofl_util::units::fmt_bytes(b))
            .collect::<Vec<_>>()
            .join(" / ")
    );
    Ok(())
}

/// Rejects a pipeline run of `rounds` × `micro_batches` past what one
/// executor run holds, naming the `flags` that set it. The threaded
/// `spike --kill-stage` demo, which builds every round's batches up
/// front, is held to the same cap.
fn check_run_length(flags: &str, micro_batches: usize, rounds: usize) -> Result<(), EcoFlError> {
    if micro_batches.saturating_mul(rounds) > MAX_SIMULATED_MICRO_BATCHES {
        return Err(EcoFlError::Config(format!(
            "{flags}: {rounds} round(s) of {micro_batches} micro-batch(es) exceed the \
             {MAX_SIMULATED_MICRO_BATCHES} micro-batches one simulated run holds"
        )));
    }
    Ok(())
}

/// What `gantt` and `trace --scenario pipeline` build from their shared
/// flags (`--model`, `--devices`, `--mbs`, `--micro-batches`,
/// `--schedule`): Eq. 1 partition → profile → policy.
struct PipelineArgs<'a> {
    model: ModelProfile,
    /// Micro-batches per sync-round.
    m: usize,
    /// The `--schedule` value as typed.
    schedule: &'a str,
    profile: PipelineProfile,
    policy: SchedulePolicy,
}

fn pipeline_args(args: &HashMap<String, String>) -> Result<PipelineArgs<'_>, EcoFlError> {
    let model = parse_model(require(args, "model")?)?;
    let devices = parse_devices(require(args, "devices")?)?;
    check_stage_count(&model, &devices)?;
    let mbs = get_positive(args, "mbs", 8)?;
    let m = get_positive(args, "micro-batches", 6)?;
    let link = Link::mbps_100();
    let partition = partition_dp(&model, &devices, &link, mbs)
        .ok_or_else(|| EcoFlError::Plan("no feasible partition".into()))?;
    let profile = PipelineProfile::new(&model, &partition.boundaries, &devices, &link, mbs);
    let schedule = args.get("schedule").map_or("1f1b", String::as_str);
    // Eq. 3 residency bounds; none may fit the devices' memory.
    let policy = parse_schedule(schedule)?
        .policy_for(&profile)
        .ok_or_else(|| EcoFlError::Plan("memory admits no residency".into()))?;
    Ok(PipelineArgs {
        model,
        m,
        schedule,
        profile,
        policy,
    })
}

fn cmd_gantt(args: &HashMap<String, String>) -> Result<(), EcoFlError> {
    check_flags(args, "gantt", &[PIPELINE_FLAGS, &["width"]])?;
    // `render_view` asserts on anything narrower, and allocates a
    // `stages × width` grid, so the upper bound is one no terminal reaches.
    let width = get(args, "width", 100usize)?;
    if width < 10 {
        return Err(EcoFlError::Config(format!(
            "--width must be at least 10 columns, got {width}"
        )));
    }
    if width > MAX_GANTT_WIDTH {
        return Err(EcoFlError::Config(format!(
            "--width must be at most {MAX_GANTT_WIDTH} columns, got {width}"
        )));
    }
    let p = pipeline_args(args)?;
    check_run_length("--micro-batches", p.m, 1)?;
    let mbs = p.profile.micro_batch();
    let v = match &p.policy {
        SchedulePolicy::Interleaved { v, .. } => *v,
        _ => 1,
    };
    let report = PipelineExecutor::new(&p.profile, p.policy)?.run(p.m, 1)?;
    println!(
        "{} — {} schedule, mbs {}, M = {}",
        p.model.name, p.schedule, mbs, p.m
    );
    println!("{}", legend());
    for line in render_view(&report.trace_view(), 0, width, v) {
        println!("{line}");
    }
    println!(
        "round {:.2}s, {:.1} samples/s",
        report.round_time, report.throughput
    );
    Ok(())
}

/// The flags shared by `spike` and `trace --scenario spike`: the
/// pipeline (`--model`, `--devices`) and the load spike that disturbs it
/// (`--load`, `--at`, `--device`, `--horizon`). The scenario checks them.
fn spike_args(
    args: &HashMap<String, String>,
) -> Result<(ModelProfile, Vec<Device>, LoadSpike, f64), EcoFlError> {
    let model = parse_model(require(args, "model")?)?;
    let devices = parse_devices(require(args, "devices")?)?;
    let load = get(args, "load", 0.6f64)?;
    let at = get(args, "at", 100.0f64)?;
    let device = get(args, "device", 1usize)?;
    let horizon = get(args, "horizon", 250.0f64)?;
    Ok((model, devices, LoadSpike { device, at, load }, horizon))
}

/// A spike scenario's error, with an input it refuses named by its flag:
/// each `BadSpike` field is spelt like the flag that sets it, and a
/// horizon of too many rounds is `--horizon`'s.
fn spike_error(e: SpikeError) -> EcoFlError {
    match e {
        SpikeError::BadSpike { field, expected } => {
            EcoFlError::Config(format!("--{field} must be {expected}"))
        }
        SpikeError::TooManyRounds => EcoFlError::Config(format!("--horizon {e}")),
        e => e.into(),
    }
}

/// The first stdout line of `spike` and `trace --scenario spike`.
fn spike_header(model: &str, spike: LoadSpike) -> String {
    let LoadSpike { device, at, load } = spike;
    format!(
        "{model}: {:.0}% load on device {device} at t = {at}s",
        load * 100.0
    )
}

fn cmd_spike(args: &HashMap<String, String>) -> Result<(), EcoFlError> {
    if args.contains_key("kill-stage") {
        return cmd_spike_kill(args);
    }
    check_flags(args, "spike", &[SPIKE_FLAGS])?;
    let (model, devices, spike, horizon) = spike_args(args)?;
    let link = Link::mbps_100();
    let with = simulate_load_spike(&model, &devices, &link, 8, 16, spike, horizon, true)
        .map_err(spike_error)?;
    let without = simulate_load_spike(&model, &devices, &link, 8, 16, spike, horizon, false)
        .map_err(spike_error)?;
    println!("{}", spike_header(&model.name, spike));
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
        println!(
            "  migration at {:.1}s: {:?} -> {:?} ({} moved, {:.2}s stall)",
            ev.time,
            ev.old_boundaries,
            ev.new_boundaries,
            ecofl_util::units::fmt_bytes(ev.bytes_moved),
            ev.pause
        );
    }
    Ok(())
}

/// §4.4 fault demo on the *real* threaded runtime: deterministically
/// kill one stage mid-round, surface the typed error, recover from the
/// last checkpoint, replay — and verify the final parameters are
/// bit-identical to an uninterrupted twin run.
fn cmd_spike_kill(args: &HashMap<String, String>) -> Result<(), EcoFlError> {
    use ecofl_pipeline::runtime::{FaultPlan, PipelineTrainer, RuntimeOptions, SegmentFactory};
    use ecofl_tensor::{Layer, Linear, ReLU};

    // `--model` is accepted and unused: the demo pipeline is a fixed MLP.
    check_flags(
        args,
        "spike --kill-stage",
        &[&[
            "model",
            "devices",
            "kill-stage",
            "kill-round",
            "kill-micro",
            "rounds",
            "seed",
        ]],
    )?;
    let devices = parse_devices(require(args, "devices")?)?;
    let stages = devices.len();
    let kill_stage = get(args, "kill-stage", 1usize)?;
    let kill_round = get(args, "kill-round", 1u64)?;
    let kill_micro = get(args, "kill-micro", 1usize)?;
    let rounds = get(args, "rounds", 3u64)?;
    let seed = get(args, "seed", 42u64)?;
    if stages < 2 {
        return Err(EcoFlError::Config(
            "--kill-stage needs at least 2 devices".into(),
        ));
    }
    if kill_stage >= stages {
        return Err(EcoFlError::Config(format!(
            "--kill-stage {kill_stage} out of range (have {stages} stages)"
        )));
    }
    if kill_round >= rounds {
        return Err(EcoFlError::Config(format!(
            "--kill-round {kill_round} out of range (running {rounds} rounds)"
        )));
    }
    let m = 4usize; // micro-batches per round of the demo run below
    check_run_length("--rounds", m, usize::try_from(rounds).unwrap_or(usize::MAX))?;
    if kill_micro >= m {
        return Err(EcoFlError::Config(format!(
            "--kill-micro {kill_micro} out of range (a round has {m} micro-batches)"
        )));
    }

    // A small MLP, one hidden block per device.
    let widths: Vec<usize> = std::iter::once(16)
        .chain(std::iter::repeat_n(24, stages - 1))
        .chain(std::iter::once(6))
        .collect();
    let make_factory = |seed: u64| -> SegmentFactory {
        let widths = widths.clone();
        Box::new(move || {
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
    };
    let bs = 8usize;
    let data: Vec<Vec<(Tensor, Vec<usize>)>> = (0..rounds)
        .map(|r| {
            let mut rng = Rng::new(seed.wrapping_add(1000 + r));
            (0..m)
                .map(|_| {
                    let x = Tensor::randn(&[bs, 16], 1.0, &mut rng);
                    let y = (0..bs).map(|_| rng.range_usize(0, 6)).collect();
                    (x, y)
                })
                .collect()
        })
        .collect();
    let k: Vec<usize> = (0..stages).map(|s| stages - s).collect();
    let lr = 0.1;

    // Uninterrupted twin.
    let opts = RuntimeOptions::default();
    let mut twin = PipelineTrainer::launch_supervised(make_factory(seed), k.clone(), opts)?;
    for batch in &data {
        twin.train_round(batch, lr)?;
    }
    let twin_params = twin.params()?;
    twin.shutdown();

    // Faulty run: same seed, one injected kill.
    println!(
        "{stages}-stage pipeline, killing stage {kill_stage} before micro-batch \
         {kill_micro} of round {kill_round}"
    );
    let opts = RuntimeOptions {
        fault_plan: FaultPlan::kill_at(kill_stage, kill_round, kill_micro),
        ..RuntimeOptions::default()
    };
    let mut trainer = PipelineTrainer::launch_supervised(make_factory(seed), k, opts)?;
    let mut r = 0u64;
    let mut faults = 0u32;
    while r < rounds {
        match trainer.train_round(&data[r as usize], lr) {
            Ok(loss) => {
                println!("  round {r}: loss {loss:.4}");
                r += 1;
            }
            Err(e) => {
                println!("  round {r}: FAULT — {e}");
                faults += 1;
                let back = trainer.recover()?;
                println!("  recovered from checkpoint of round {back}; replaying");
                r = back;
            }
        }
    }
    let params = trainer.params()?;
    trainer.shutdown();
    if faults == 0 {
        // Nothing was killed, so equal parameters would prove nothing.
        Err(EcoFlError::Config("the injected kill never fired".into()))
    } else if params == twin_params {
        println!("replayed parameters are bit-identical to the uninterrupted run");
        Ok(())
    } else {
        Err(EcoFlError::Exec(
            ecofl_pipeline::executor::ExecError::StageDied {
                stage: kill_stage,
                during: "recovery verification (parameters diverged from twin)".into(),
            },
        ))
    }
}

fn cmd_fl(args: &HashMap<String, String>) -> Result<(), EcoFlError> {
    check_flags(args, "fl", &[FL_FLAGS])?;
    let (strategy, dataset, setup) = fl_args(args, (60, 800.0, "cifar"))?;
    let r = run_strategy(strategy, &setup, None);
    println!(
        "{} on {} ({} clients, horizon {}s):",
        r.strategy, dataset.name, setup.config.num_clients, setup.config.horizon
    );
    for (t, acc) in r.accuracy.resample(15) {
        println!("  t = {t:8.1}s  accuracy {:5.1}%", acc * 100.0);
    }
    println!(
        "  best {:.1}% | final {:.1}% | {} updates | {} regroups",
        r.best_accuracy * 100.0,
        r.final_accuracy * 100.0,
        r.global_updates,
        r.regroup_events
    );
    Ok(())
}

fn parse_dataset(name: &str) -> Result<SyntheticSpec, EcoFlError> {
    match name {
        "mnist" => Ok(SyntheticSpec::mnist_like()),
        "fashion" => Ok(SyntheticSpec::fashion_like()),
        "cifar" => Ok(SyntheticSpec::cifar_like()),
        other => Err(EcoFlError::Parse(format!(
            "unknown dataset '{other}' (mnist, fashion, cifar)"
        ))),
    }
}

/// The `FlConfig` fields `fl_args` sets straight from a flag, by flag:
/// `FlConfig::validate` names the field it refuses, the CLI the flag.
const FL_FIELD_FLAGS: &[(&str, &str)] = &[
    ("num_clients", "--clients"),
    ("clients_per_round", "--clients-per-round"),
    ("num_groups", "--groups"),
    ("horizon", "--horizon"),
    ("comm_latency", "--comm-latency"),
];

/// Population threshold past which grouping auto-switches to mini-batch
/// association (overridable with `--grouping-batch`).
const AUTO_BATCH_THRESHOLD: usize = 10_000;
const AUTO_BATCH_SIZE: usize = 8192;

/// The flags shared by `fl`, `trace --scenario fl` and `metrics --live
/// fl`, which differ only in their `(clients, horizon, dataset)`
/// defaults. The scale knobs read 0 (or absent) as "auto": `--shards`
/// one data shard per client, larger populations round-robin onto the
/// shards; `--clients-per-round` `(clients / 3).clamp(4, 20)`; `--groups`
/// the config default; `--grouping-batch` exact greedy association below
/// 10k clients and 8192-client mini-batches from there.
fn fl_args(
    args: &HashMap<String, String>,
    (clients, horizon, dataset): (usize, f64, &str),
) -> Result<(Strategy, SyntheticSpec, FlSetup), EcoFlError> {
    let or_auto = |n: usize, auto: usize| if n == 0 { auto } else { n };
    let strategy = parse_strategy(args.get("strategy").map_or("ecofl", String::as_str))?;
    let clients = get(args, "clients", clients)?;
    let horizon = get(args, "horizon", horizon)?;
    let seed = get(args, "seed", 42u64)?;
    let comm_latency = get(args, "comm-latency", FlConfig::default().comm_latency)?;
    let dataset = parse_dataset(args.get("dataset").map_or(dataset, String::as_str))?;
    let shards = or_auto(get(args, "shards", 0usize)?, clients);
    let clients_per_round = get(args, "clients-per-round", 0usize)?;
    let groups = get(args, "groups", 0usize)?;
    let auto_batch = if clients >= AUTO_BATCH_THRESHOLD {
        AUTO_BATCH_SIZE
    } else {
        0
    };
    let grouping_batch = get(args, "grouping-batch", auto_batch)?;
    if shards > clients {
        return Err(EcoFlError::Config(format!(
            "--shards {shards} exceeds --clients {clients}"
        )));
    }
    let defaults = FlConfig::default();
    let config = FlConfig {
        num_clients: clients,
        clients_per_round: or_auto(clients_per_round, (clients / 3).clamp(4, 20)),
        num_groups: or_auto(groups, defaults.num_groups),
        grouping_batch,
        horizon,
        eval_interval: horizon / 25.0,
        comm_latency,
        seed,
        ..defaults
    };
    config.validate().map_err(|e| {
        // The message starts with the field it refuses; name the flag.
        let named = FL_FIELD_FLAGS.iter().find_map(|(field, flag)| {
            let rest = e.strip_prefix(field)?;
            rest.starts_with(' ').then(|| format!("{flag}{rest}"))
        });
        EcoFlError::Config(named.unwrap_or(e))
    })?;
    let data = FederatedDataset::generate(
        &dataset,
        shards,
        60,
        50,
        PartitionScheme::ClassesPerClient(2),
        None,
        seed,
    );
    let data = if shards < clients {
        data.virtualize(clients)
    } else {
        data
    };
    let setup = FlSetup {
        data,
        arch: ModelArch::Mlp,
        config,
    };
    Ok((strategy, dataset, setup))
}

/// Maps an I/O error of the run store at `dir` to a typed error naming it.
fn store_err(dir: &Path) -> impl Fn(std::io::Error) -> EcoFlError + '_ {
    move |e| EcoFlError::Io(format!("run store {}: {e}", dir.display()))
}

/// A trace a scenario recorded into its run store.
struct Stored<T> {
    /// What the scenario's run returned.
    run: T,
    dir: PathBuf,
    /// The sealed store.
    store: RunStore,
    /// Trace blocks the store held before this run's.
    first_block: usize,
}

impl<T> Stored<T> {
    /// Reads back this run's trace blocks whose summary `query` admits —
    /// a store an earlier run recorded into holds that run's blocks
    /// first — handing each block's records to `visit`, in order.
    fn read_own_blocks(
        &self,
        query: &TraceQuery,
        mut visit: impl FnMut(Vec<TraceRecord>),
    ) -> Result<(), EcoFlError> {
        let blocks = self.store.trace_blocks().iter().enumerate();
        for (i, block) in blocks.skip(self.first_block) {
            if query.admits(&block.summary) {
                visit(
                    self.store
                        .read_block_records(i)
                        .map_err(store_err(&self.dir))?,
                );
            }
        }
        Ok(())
    }

    /// The `trace:` line: the store and its record and block counts.
    fn line(&self) -> String {
        format!(
            "trace: {} ({} stored record(s), {} block(s))",
            self.dir.display(),
            self.store.record_count(),
            self.store.trace_blocks().len()
        )
    }
}

/// Runs `run` with a tracer that writes into a segmented run store as
/// it records — at `--store DIR`, or a per-scenario directory under the
/// shared trace dir — in blocks of `--block-records` records (default
/// 512), so the trace is never held whole. `--out FILE` then exports the
/// store as JSONL, the interchange format. A scenario validates its
/// other flags and builds its run before calling this, so a refused run
/// opens no store; a run that fails here leaves the store as it found
/// it: the tracer cuts off the blocks it wrote, and a directory this
/// call created is removed.
fn record_trace<T>(
    args: &HashMap<String, String>,
    name: &str,
    run: impl FnOnce(&Tracer) -> Result<T, EcoFlError>,
) -> Result<Stored<T>, EcoFlError> {
    let dir = args
        .get("store")
        .map_or_else(|| trace_dir().join(name), PathBuf::from);
    let block_records = get_positive(args, "block-records", 512)?;
    // The outermost directory this call creates, if any.
    let created = dir
        .ancestors()
        .take_while(|d| !d.as_os_str().is_empty() && !d.exists())
        .last()
        .map(Path::to_path_buf);
    let recorded = RunStore::open_or_create(dir.as_path())
        .map_err(store_err(&dir))
        .and_then(|store| {
            let store = store.with_block_records(block_records);
            let first_block = store.trace_blocks().len();
            let tracer = Tracer::from(store);
            let out = run(&tracer)?;
            let store = tracer.into_store().map_err(store_err(&dir))?;
            Ok((out, store, first_block))
        });
    let (run, store, first_block) = recorded.inspect_err(|_| {
        if let Some(created) = &created {
            let _ = std::fs::remove_dir_all(created);
        }
    })?;
    if let Some(out) = args.get("out") {
        store
            .export_jsonl(Path::new(out))
            .map_err(|e| EcoFlError::Io(format!("cannot write {out}: {e}")))?;
    }
    Ok(Stored {
        run,
        dir,
        store,
        first_block,
    })
}

fn cmd_trace(args: &HashMap<String, String>) -> Result<(), EcoFlError> {
    // `ecofl trace --store DIR` with no scenario and no model inspects an
    // existing store instead of recording a new trace.
    let scenario = match args.get("scenario") {
        Some(s) => s.as_str(),
        None if args.contains_key("store") && !args.contains_key("model") => "inspect",
        None => "pipeline",
    };
    match scenario {
        "pipeline" => cmd_trace_pipeline(args),
        "spike" => cmd_trace_spike(args),
        "fl" => cmd_trace_fl(args),
        "inspect" => cmd_trace_inspect(args),
        other => Err(EcoFlError::Parse(format!(
            "unknown scenario '{other}' (pipeline, spike, fl, inspect)"
        ))),
    }
}

/// Parses a half-open round range `a..b`; `b < a` is an error, not a
/// query that silently matches nothing.
fn parse_rounds(spec: &str) -> Result<std::ops::Range<u64>, EcoFlError> {
    let range = spec
        .split_once("..")
        .and_then(|(a, b)| Some(a.trim().parse::<u64>().ok()?..b.trim().parse::<u64>().ok()?))
        .ok_or_else(|| EcoFlError::Parse(format!("bad --rounds '{spec}' (expected a..b)")))?;
    if range.end < range.start {
        return Err(EcoFlError::Config(format!(
            "--rounds {spec}: the end is below the start"
        )));
    }
    Ok(range)
}

/// Opens a run store read-only and answers a summary-pruned query:
/// per-segment rollups, how many blocks the query decoded versus
/// skipped, the matching records, and the stored checkpoint ladder.
fn cmd_trace_inspect(args: &HashMap<String, String>) -> Result<(), EcoFlError> {
    check_flags(
        args,
        "trace --store",
        &[&[
            "scenario",
            "store",
            "rounds",
            "domain",
            "kind",
            "min-duration",
            "limit",
        ]],
    )?;
    let dir = PathBuf::from(require(args, "store")?);
    let mut query = TraceQuery::new();
    if let Some(spec) = args.get("rounds") {
        query = query.rounds(parse_rounds(spec)?);
    }
    if let Some(d) = args.get("domain") {
        query = query.domain(d.parse::<Domain>().map_err(EcoFlError::Parse)?);
    }
    if let Some(k) = args.get("kind") {
        query = query.kind(k.parse::<RecordKind>().map_err(EcoFlError::Parse)?);
    }
    if let Some(d) = args.get("min-duration") {
        let d: f64 = d
            .parse()
            .map_err(|_| EcoFlError::Parse(format!("bad value for --min-duration: {d}")))?;
        // No span is shorter than NaN, so the query would match them all.
        if d.is_nan() {
            return Err(EcoFlError::Config(
                "--min-duration must be a number of seconds, got NaN".into(),
            ));
        }
        query = query.min_duration(d);
    }
    let limit = get(args, "limit", 10usize)?;
    let store = RunStore::open(dir.as_path()).map_err(store_err(&dir))?;
    println!("store: {}", dir.display());
    for seg in store.segments() {
        println!(
            "  {:<16} {:>4} block(s) {:>8} record(s)  {} on disk / {} raw",
            seg.name,
            seg.blocks,
            seg.records,
            ecofl_util::units::fmt_bytes(seg.compressed_bytes),
            ecofl_util::units::fmt_bytes(seg.raw_bytes),
        );
    }
    // Only the count and the first `--limit` matches are kept.
    let (mut matched, mut shown) = (0usize, Vec::new());
    let (decoded, total) = store
        .scan(&query, |record| {
            matched += 1;
            if shown.len() < limit {
                shown.push(record);
            }
        })
        .map_err(store_err(&dir))?;
    println!("query decoded {decoded} of {total} block(s), {matched} matching record(s)");
    for record in &shown {
        println!("  {record:?}");
    }
    if matched > limit {
        println!("  ... {} more (raise --limit)", matched - limit);
    }
    let metas = store.checkpoint_metas();
    if !metas.is_empty() {
        println!("checkpoints:");
        for m in &metas {
            println!(
                "  seq {:>4}  round {:>4}  {}",
                m.seq,
                m.round,
                ecofl_util::units::fmt_bytes(m.bytes)
            );
        }
    }
    Ok(())
}

/// Traced pipeline run: per-round bubble fractions, total idle cross-check
/// against the executor's own accounting, and the slowest stages.
fn cmd_trace_pipeline(args: &HashMap<String, String>) -> Result<(), EcoFlError> {
    check_flags(
        args,
        "trace --scenario pipeline",
        &[
            &["scenario", "rounds", "top"],
            PIPELINE_FLAGS,
            STORE_WRITE_FLAGS,
        ],
    )?;
    let rounds = get_positive(args, "rounds", 2)?;
    let top = get(args, "top", 3usize)?;
    let p = pipeline_args(args)?;
    check_run_length("--micro-batches × --rounds", p.m, rounds)?;
    let mbs = p.profile.micro_batch();
    let executor = PipelineExecutor::new(&p.profile, p.policy)?;
    let stored = record_trace(args, "pipeline", |tracer| {
        Ok(executor.run_traced(p.m, rounds, tracer)?)
    })?;
    println!(
        "{} — {} schedule, mbs {}, M = {}, {rounds} round(s)",
        p.model.name, p.schedule, mbs, p.m
    );
    println!("{}", stored.line());
    // The report's compute spans are the ones the tracer received, in
    // the same order, so the summary needs no read of the store.
    let report = &stored.run;
    let summary: ComputeSummary = report.task_spans.iter().collect();
    for (r, row) in summary.rounds.into_iter().enumerate() {
        let (t0, t1, bubble) = row.unwrap_or((0.0, 0.0, 0.0));
        println!(
            "  round {r}: window {:.2}s..{:.2}s, bubble fraction {bubble:.4}",
            t0, t1
        );
    }
    let trace_idle = summary.idle_time;
    let report_idle: f64 = report.stage_idle_time.iter().sum();
    println!(
        "  idle: {trace_idle:.6}s from trace, {report_idle:.6}s from executor (|Δ| = {:.1e})",
        (trace_idle - report_idle).abs()
    );
    println!("  top {top} slowest stage(s) by compute time:");
    for (stage, busy) in summary.slowest_stages.into_iter().take(top) {
        println!("    stage {stage}: {busy:.2}s");
    }
    Ok(())
}

/// Traced §4.4 load-spike run: the re-scheduling timeline (lagger
/// detections, migrations, restarts) straight from the trace.
fn cmd_trace_spike(args: &HashMap<String, String>) -> Result<(), EcoFlError> {
    check_flags(
        args,
        "trace --scenario spike",
        &[&["scenario"], SPIKE_FLAGS, STORE_WRITE_FLAGS],
    )?;
    let (model, devices, spike, horizon) = spike_args(args)?;
    let stored = record_trace(args, "spike", |tracer| {
        simulate_load_spike_with(
            &model,
            &devices,
            &Link::mbps_100(),
            8,
            16,
            spike,
            horizon,
            true,
            SchedulerConfig::default(),
            tracer,
        )
        .map_err(spike_error)
    })?;
    // The timeline is read back from this run's blocks; the event-kind
    // query prunes every block without events.
    let mut timeline = Vec::new();
    stored.read_own_blocks(&TraceQuery::new().kind(RecordKind::Event), |records| {
        let block = TraceView::from_records(records);
        timeline.extend(block.reschedule_timeline().into_iter().copied());
    })?;
    let trace = &stored.run;
    println!("{}", spike_header(&model.name, spike));
    println!("{}", stored.line());
    println!(
        "  throughput: {:.2} -> {:.2} samples/s",
        trace.pre_spike_throughput, trace.post_spike_throughput
    );
    println!("  re-scheduling timeline:");
    for ev in timeline {
        println!(
            "    {:7.2}s  {:?} (entity {}, value {:.2})",
            ev.time, ev.kind, ev.entity, ev.value
        );
    }
    Ok(())
}

/// Traced FL run: convergence metrics recomputed from the trace alone.
fn cmd_trace_fl(args: &HashMap<String, String>) -> Result<(), EcoFlError> {
    check_flags(
        args,
        "trace --scenario fl",
        &[&["scenario"], FL_FLAGS, STORE_WRITE_FLAGS],
    )?;
    let (strategy, dataset, setup) = fl_args(args, (24, 300.0, "mnist"))?;
    let stored = record_trace(args, "fl", |tracer| {
        Ok(run_strategy(strategy, &setup, tracer))
    })?;
    let r = &stored.run;
    // Recompute convergence metrics by reading this run's blocks back:
    // the gauge-kind query prunes every block without accuracy samples.
    let gauges = TraceQuery::new().kind(RecordKind::Gauge);
    let mut samples = Vec::new();
    stored.read_own_blocks(&gauges, |records| {
        samples.extend(records.into_iter().filter(|r| gauges.matches(r)));
    })?;
    let samples = TraceView::from_records(samples);
    let summary = summarize_view(&samples, &r.strategy, &[0.3, 0.5, 0.7, 0.9])
        .map_err(store_err(&stored.dir))?;
    println!(
        "{} on {} ({} clients, horizon {}s):",
        r.strategy, dataset.name, setup.config.num_clients, setup.config.horizon
    );
    println!("{}", stored.line());
    // The run records one `global_updates` increment of 1 per update, so
    // its tally is the counter's total.
    println!(
        "  updates {} | mean accuracy {:.1}% | best {:.1}% | max drawdown {:.1}%",
        r.global_updates,
        summary.mean_accuracy * 100.0,
        summary.best_accuracy * 100.0,
        summary.max_drawdown * 100.0
    );
    for (th, t) in &summary.time_to {
        println!("  reached {:.0}% at t = {t:.1}s", th * 100.0);
    }
    Ok(())
}

/// The `metrics` report, folded one record at a time: counter totals,
/// gauge last / min / max / samples, and per (domain, kind) the span
/// durations — one `f64` per span, for exact percentiles — and the event
/// count. Totals are summed in record order, so a store and the slices it
/// was appended from roll up to the same lines.
#[derive(Default)]
struct Rollup {
    records: usize,
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, (f64, f64, f64, u64)>,
    spans: HashMap<(Domain, SpanKind), Vec<f64>>,
    events: HashMap<(Domain, EventKind), u64>,
}

impl Rollup {
    fn add(&mut self, record: &TraceRecord) {
        self.records += 1;
        match record {
            TraceRecord::Counter(c) => match self.counters.get_mut(&c.name) {
                Some(total) => *total += c.delta,
                // `0.0 +` as a total starts: a first delta of -0 sums to 0.
                None => {
                    self.counters.insert(c.name.clone(), 0.0 + c.delta);
                }
            },
            TraceRecord::Gauge(g) => match self.gauges.get_mut(&g.name) {
                Some((last, min, max, samples)) => {
                    (*last, *min, *max) = (g.value, min.min(g.value), max.max(g.value));
                    *samples += 1;
                }
                None => {
                    let v = g.value;
                    self.gauges.insert(g.name.clone(), (v, v, v, 1));
                }
            },
            TraceRecord::Span(sp) => self
                .spans
                .entry((sp.domain, sp.kind))
                .or_default()
                .push(sp.t1 - sp.t0),
            TraceRecord::Event(ev) => *self.events.entry((ev.domain, ev.kind)).or_default() += 1,
        }
    }

    /// The report, one line per metric, (domain, kind) keys in the order
    /// of their names. A percentile is the nearest-rank sample
    /// (`max(1, ⌈q·n⌉)` of the sorted durations); sorting in place leaves
    /// the fold free to go on.
    fn lines(&mut self) -> Vec<String> {
        let mut out = vec![format!("rollup of {} record(s)", self.records)];
        if !self.counters.is_empty() {
            out.push("  counters (total):".into());
            for (name, total) in &self.counters {
                out.push(format!("    {name:<30} {total:>14}"));
            }
        }
        if !self.gauges.is_empty() {
            out.push("  gauges (last / min / max / samples):".into());
            for (name, (last, min, max, samples)) in &self.gauges {
                out.push(format!(
                    "    {name:<30} {last:>12.4} {min:>12.4} {max:>12.4} {samples:>8}"
                ));
            }
        }
        let spans: BTreeMap<String, &mut Vec<f64>> = (self.spans.iter_mut())
            .map(|((domain, kind), durations)| (format!("{domain:?}.{kind:?}"), durations))
            .collect();
        if !spans.is_empty() {
            out.push("  spans (count / p50 / p95 / p99 / max duration, s):".into());
            for (key, durations) in spans {
                durations.sort_by(f64::total_cmp);
                let n = durations.len();
                let rank = |q: f64| durations[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
                out.push(format!(
                    "    {key:<30} {n:>8} {:>12.4e} {:>12.4e} {:>12.4e} {:>12.4e}",
                    rank(0.5),
                    rank(0.95),
                    rank(0.99),
                    durations[n - 1]
                ));
            }
        }
        let events: BTreeMap<String, u64> = (self.events.iter())
            .map(|((domain, kind), count)| (format!("{domain:?}.{kind:?}"), *count))
            .collect();
        if !events.is_empty() {
            out.push("  events (count):".into());
            for (key, count) in events {
                out.push(format!("    {key:<30} {count:>8}"));
            }
        }
        out
    }
}

/// The tensor crate's process-global kernel statistics: wall-clock
/// facts, so printed beside the rollup rather than folded into it.
fn kernel_lines() -> Vec<String> {
    let mut out = vec!["  kernels (calls / wall-clock ms):".to_string()];
    for stat in ecofl_tensor::kernel_stats() {
        out.push(format!(
            "    {:<30} {:>14} {:>12.3}",
            format!("{}.{}", stat.kernel, stat.path),
            stat.calls,
            stat.nanos as f64 / 1e6
        ));
    }
    out
}

fn cmd_metrics(args: &HashMap<String, String>) -> Result<(), EcoFlError> {
    if args.contains_key("live") {
        return cmd_metrics_live(args);
    }
    check_flags(args, "metrics --store", &[&["store"]])?;
    let dir = PathBuf::from(require(args, "store")?);
    let store = RunStore::open(dir.as_path()).map_err(store_err(&dir))?;
    println!("store: {}", dir.display());
    let mut rollup = Rollup::default();
    store
        .scan(&TraceQuery::new(), |record| rollup.add(&record))
        .map_err(store_err(&dir))?;
    for line in rollup.lines() {
        println!("{line}");
    }
    Ok(())
}

/// Runs an FL scenario on a worker thread and, every refresh tick, prints
/// the rollup of the trace it has recorded so far plus the kernel
/// statistics. A tick waits on the worker, so the run ends when the
/// worker does, however long `--refresh-ms` is. With `--store` each tick
/// appends the new records to the store and seals it, so a second
/// terminal can run `ecofl metrics --store DIR` mid-run; the final rollup
/// equals what that prints.
fn cmd_metrics_live(args: &HashMap<String, String>) -> Result<(), EcoFlError> {
    use std::io::IsTerminal as _;

    check_flags(
        args,
        "metrics --live",
        &[&["live", "refresh-ms", "store"], FL_FLAGS],
    )?;
    let scenario = require(args, "live")?;
    if scenario != "fl" {
        return Err(EcoFlError::Parse(format!(
            "unknown live scenario '{scenario}' (fl)"
        )));
    }
    let refresh = get_positive(args, "refresh-ms", 200)?;
    let (strategy, _, setup) = fl_args(args, (12, 120.0, "mnist"))?;

    let dir = args.get("store").map(PathBuf::from);
    let mut store = match &dir {
        Some(dir) => Some(RunStore::open_or_create(dir.as_path()).map_err(store_err(dir))?),
        None => None,
    };

    ecofl_tensor::reset_kernel_stats();
    ecofl_tensor::set_kernel_stats_enabled(true);
    let tracer = Tracer::new();
    // The worker holds the only sender: its drop, when the run returns or
    // panics, ends the current tick's wait.
    let (running, done) = std::sync::mpsc::channel::<()>();
    let worker = {
        let tracer = tracer.clone();
        std::thread::spawn(move || {
            let _running = running;
            run_strategy(strategy, &setup, &tracer)
        })
    };

    let live_tty = std::io::stdout().is_terminal();
    // Each tick folds, and appends to the store, only the records since
    // the last one.
    let (mut rollup, mut offset) = (Rollup::default(), 0);
    let mut fold_new = |rollup: &mut Rollup| -> Result<(), EcoFlError> {
        let (next, stored) = tracer.read_tail(offset, |tail| {
            tail.iter().for_each(|record| rollup.add(record));
            match &mut store {
                Some(st) => st.append(tail).and_then(|()| st.flush()),
                None => Ok(()),
            }
        });
        offset = next;
        match &dir {
            Some(dir) => stored.map_err(store_err(dir)),
            None => Ok(()),
        }
    };
    let refresh = std::time::Duration::from_millis(refresh as u64);
    while done.recv_timeout(refresh) == Err(std::sync::mpsc::RecvTimeoutError::Timeout) {
        fold_new(&mut rollup)?;
        if live_tty {
            print!("\x1b[2J\x1b[H");
        }
        for line in rollup.lines().into_iter().chain(kernel_lines()) {
            println!("{line}");
        }
        println!();
    }
    ecofl_tensor::set_kernel_stats_enabled(false);
    let result = worker
        .join()
        .map_err(|_| EcoFlError::Config("live FL run panicked".into()))?;

    // Final rollup: everything the run recorded.
    fold_new(&mut rollup)?;
    if let (Some(dir), Some(st)) = (&dir, &store) {
        println!(
            "persisted {} trace record(s) to {}",
            st.record_count(),
            dir.display()
        );
    }
    for line in rollup.lines().into_iter().chain(kernel_lines()) {
        println!("{line}");
    }
    println!(
        "{}: best {:.1}% | final {:.1}% | {} updates",
        result.strategy,
        result.best_accuracy * 100.0,
        result.final_accuracy * 100.0,
        result.global_updates
    );
    Ok(())
}

fn usage() -> &'static str {
    "usage: ecofl <command> [--key value ...]\n\
     commands:\n\
       devices                       print the Table 1 device catalog\n\
       plan   --model M --devices D  partition + orchestrate a pipeline\n\
              [--batch N] [--schedule 1f1b|gpipe|async|interleaved|zb]\n\
       gantt  --model M --devices D  render a schedule Gantt chart\n\
              [--schedule 1f1b|gpipe|async|interleaved|zb]\n\
              [--mbs N] [--micro-batches N] [--width COLS]\n\
       spike  --model M --devices D  run the Fig. 13 load-spike scenario\n\
              [--load F] [--at T] [--device I] [--horizon T]\n\
              [--kill-stage I]       instead: kill a real runtime stage,\n\
              [--kill-round N] [--kill-micro N] [--rounds N] [--seed N]\n\
                                     recover + replay, verify bit-identity\n\
       fl     [--strategy S]         run a federated-learning simulation\n\
              [--clients N] [--horizon T] [--dataset mnist|fashion|cifar]\n\
              [--comm-latency T] [--seed N]\n\
              [--shards N]           back N virtual clients per data shard\n\
                                     (million-client runs; 0 = no sharing)\n\
              [--clients-per-round N] [--groups N] [--grouping-batch N]\n\
       trace  --model M --devices D  record a virtual-time trace into a\n\
              segmented run store (summary-pruned compressed blocks)\n\
              [--scenario pipeline|spike|fl] plus that scenario's flags:\n\
              pipeline = gantt's (no --width) [--rounds N] [--top N],\n\
              spike = spike's, fl = fl's\n\
              [--store DIR] [--block-records N] [--out FILE (JSONL export)]\n\
       trace  --store DIR            inspect an existing run store:\n\
              [--rounds A..B] [--domain pipeline|scheduler|fl|grouping]\n\
              [--kind span|event|counter|gauge] [--min-duration T]\n\
              [--limit N]            segments, pruned query, checkpoints\n\
       metrics --live fl             run FL and print a live-refreshing\n\
              [fl's flags] [--refresh-ms N] [--store DIR]\n\
                                     rollup of its trace plus kernel stats,\n\
                                     appending each tick's records to DIR\n\
       metrics --store DIR           roll a stored trace up: counter totals,\n\
                                     gauges, span percentiles, event counts\n\
     models : effnet-b0..b6, mobilenet-w1..w3 (optionally model@resolution)\n\
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
        "devices" => check_flags(&args, "devices", &[]).and_then(|()| cmd_devices()),
        "plan" => cmd_plan(&args),
        "gantt" => cmd_gantt(&args),
        "spike" => cmd_spike(&args),
        "fl" => cmd_fl(&args),
        "trace" => cmd_trace(&args),
        "metrics" => cmd_metrics(&args),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(EcoFlError::Config(format!(
            "unknown command '{other}'\n{}",
            usage()
        ))),
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
        let args = parse_args(&["--bach".to_owned(), "64".to_owned()]).unwrap();
        match check_flags(&args, "plan", &[&["model", "devices", "batch"]]) {
            Err(EcoFlError::Config(msg)) => assert_eq!(msg, "unknown flag --bach for plan"),
            other => panic!("expected a Config error, got {other:?}"),
        }
        assert!(check_flags(&args, "plan", &[&["model"], &["bach"]]).is_ok());
    }

    #[test]
    fn parse_model_variants_and_resolution() {
        assert_eq!(
            parse_model("effnet-b3").unwrap().name,
            "EfficientNet-B3@224"
        );
        assert_eq!(
            parse_model("mobilenet-w2@128").unwrap().name,
            "MobileNetV2-W2@128"
        );
        assert!(parse_model("resnet").is_err());
        assert!(parse_model("effnet-b1@abc").is_err());
    }

    #[test]
    fn parse_devices_list() {
        let d = parse_devices("tx2q, nanoh,nanol").unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].name(), "TX2-Q");
        assert_eq!(d[2].name(), "Nano-L");
        assert!(parse_devices("gpu9000").is_err());
    }

    #[test]
    fn get_parses_with_default() {
        let mut map = HashMap::new();
        map.insert("n".to_owned(), "7".to_owned());
        assert_eq!(get(&map, "n", 1usize).unwrap(), 7);
        assert_eq!(get(&map, "missing", 42usize).unwrap(), 42);
        map.insert("bad".to_owned(), "x".to_owned());
        assert!(get(&map, "bad", 1usize).is_err());
    }

    #[test]
    fn parse_rounds_accepts_half_open_ranges() {
        assert_eq!(parse_rounds("2..5").unwrap(), 2..5);
        assert_eq!(parse_rounds(" 0 .. 10 ").unwrap(), 0..10);
        assert!(parse_rounds("5").is_err());
        assert!(parse_rounds("a..b").is_err());
        assert!(parse_rounds("3..").is_err());
        assert!(parse_rounds("4..4").unwrap().is_empty());
        assert!(matches!(parse_rounds("5..2"), Err(EcoFlError::Config(_))));
    }

    /// The FL flag reader over `--key value` pairs, `fl`'s defaults.
    fn fl_setup(flags: &[(&str, &str)]) -> Result<FlSetup, EcoFlError> {
        let args = flags
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        fl_args(&args, (12, 100.0, "mnist")).map(|(_, _, setup)| setup)
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
        let map = HashMap::new();
        match require(&map, "model") {
            Err(EcoFlError::Config(msg)) => assert_eq!(msg, "--model is required"),
            other => panic!("expected Config error, got {other:?}"),
        }
        assert!(matches!(parse_model("resnet"), Err(EcoFlError::Parse(_))));
        assert!(matches!(parse_strategy("sgd"), Err(EcoFlError::Parse(_))));
        assert!(matches!(parse_schedule("rr"), Err(EcoFlError::Parse(_))));
        assert_eq!(parse_schedule("zb").unwrap(), ScheduleKind::ZeroBubble);
        assert_eq!(
            parse_schedule("interleaved").unwrap(),
            ScheduleKind::Interleaved1F1B
        );
        assert!(matches!(parse_dataset("svhn"), Err(EcoFlError::Parse(_))));
    }
}

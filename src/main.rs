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
//! ecofl metrics --store DIR [--round N] [--export FILE]
//! ecofl metrics --import FILE
//! ```
//!
//! Argument parsing is deliberately dependency-free: `--key value` pairs
//! after a subcommand, nothing else, and only the keys the subcommand
//! reads. Every failure path is a typed [`EcoFlError`]; `main` prints its
//! `Display` form, which carries the exact message.

use ecofl::obs::metrics::LogHistogram;
use ecofl::obs::{trace_dir, Domain};
use ecofl::prelude::*;
use ecofl_pipeline::adaptive::{simulate_load_spike_with, SchedulerConfig};
use ecofl_pipeline::executor::MAX_SIMULATED_MICRO_BATCHES;
use ecofl_pipeline::gantt::{legend, render_view};
use ecofl_pipeline::orchestrator::MAX_DEVICE_ORDERS;
use ecofl_pipeline::schedule::ScheduleKind;
use std::collections::HashMap;
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
/// What `persist_trace` reads.
const STORE_WRITE_FLAGS: &[&str] = &["store", "block-records", "out"];

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

/// How many different device sequences the orders of `devices` spell:
/// `n! / Π multiplicity!` (in `f64`: only compared against the cap and
/// printed).
fn distinct_device_orders(devices: &[Device]) -> f64 {
    let factorial = |n: usize| (1..=n).map(|x| x as f64).product::<f64>();
    let mut orders = factorial(devices.len());
    for (i, device) in devices.iter().enumerate() {
        if !devices[..i].contains(device) {
            orders /= factorial(devices.iter().filter(|d| *d == device).count());
        }
    }
    orders
}

fn cmd_plan(args: &HashMap<String, String>) -> Result<(), EcoFlError> {
    check_flags(args, "plan", &[&["model", "devices", "batch", "schedule"]])?;
    let model = parse_model(require(args, "model")?)?;
    let devices = parse_devices(require(args, "devices")?)?;
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
    let orders = distinct_device_orders(&devices);
    if orders > MAX_DEVICE_ORDERS as f64 {
        return Err(EcoFlError::Config(format!(
            "--devices: {} devices form {orders:.0} distinct orders, more than the \
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
    // `render_view` asserts on anything narrower.
    let width = get(args, "width", 100usize)?;
    if width < 10 {
        return Err(EcoFlError::Config(format!(
            "--width must be at least 10 columns, got {width}"
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

/// A strictly positive, finite `--horizon` (virtual seconds). Zero or
/// NaN would otherwise run an empty simulation and print zeros.
fn check_horizon(horizon: f64) -> Result<f64, EcoFlError> {
    if horizon.is_finite() && horizon > 0.0 {
        Ok(horizon)
    } else {
        Err(EcoFlError::Config(format!(
            "--horizon must be a positive number of seconds, got {horizon}"
        )))
    }
}

/// The flags shared by `spike` and `trace --scenario spike`: the
/// pipeline (`--model`, `--devices`) and the load spike that disturbs it
/// (`--load`, `--at`, `--device`, `--horizon`), validated against it.
fn spike_args(
    args: &HashMap<String, String>,
) -> Result<(ModelProfile, Vec<Device>, LoadSpike, f64), EcoFlError> {
    let model = parse_model(require(args, "model")?)?;
    let devices = parse_devices(require(args, "devices")?)?;
    let load = get(args, "load", 0.6f64)?;
    let at = get(args, "at", 100.0f64)?;
    let device = get(args, "device", 1usize)?;
    let horizon = check_horizon(get(args, "horizon", 250.0f64)?)?;
    if !(0.0..1.0).contains(&load) {
        return Err(EcoFlError::Config(format!(
            "--load must be in [0, 1), got {load}"
        )));
    }
    if !(0.0..horizon).contains(&at) {
        return Err(EcoFlError::Config(format!(
            "--at must be in [0, --horizon {horizon}), got {at}"
        )));
    }
    if device >= devices.len() {
        return Err(EcoFlError::Config(format!(
            "--device {device} out of range"
        )));
    }
    Ok((model, devices, LoadSpike { device, at, load }, horizon))
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
    let with = simulate_load_spike(&model, &devices, &link, 8, 16, spike, horizon, true)?;
    let without = simulate_load_spike(&model, &devices, &link, 8, 16, spike, horizon, false)?;
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
    let clients = get_positive(args, "clients", clients)?;
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
    let horizon = check_horizon(horizon)?;
    if !comm_latency.is_finite() || comm_latency < 0.0 {
        return Err(EcoFlError::Config(format!(
            "--comm-latency must be a non-negative number of seconds, got {comm_latency}"
        )));
    }
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
    config.validate().map_err(EcoFlError::Config)?;
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

/// Persists `records` into a segmented run store — at `--store DIR`, or a
/// per-scenario directory under the shared trace dir — chunked into blocks
/// of `--block-records` records (default 512). `--out FILE` additionally
/// exports the stored trace as JSONL, the interchange format. Returns
/// the store directory plus its total record and block counts.
fn persist_trace(
    args: &HashMap<String, String>,
    name: &str,
    records: &[TraceRecord],
) -> Result<(PathBuf, u64, usize), EcoFlError> {
    let dir = args
        .get("store")
        .map_or_else(|| trace_dir().join(name), PathBuf::from);
    let block_records = get_positive(args, "block-records", 512)?;
    let io_err = |e: std::io::Error| EcoFlError::Io(format!("run store {}: {e}", dir.display()));
    let mut store = RunStore::open_or_create(dir.as_path())
        .map_err(io_err)?
        .with_block_records(block_records);
    store.append(records).map_err(io_err)?;
    store.flush().map_err(io_err)?;
    if let Some(out) = args.get("out") {
        store
            .export_jsonl(Path::new(out))
            .map_err(|e| EcoFlError::Io(format!("cannot write {out}: {e}")))?;
    }
    Ok((dir, store.record_count(), store.trace_blocks().len()))
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
    let io_err = |e: std::io::Error| EcoFlError::Io(format!("run store {}: {e}", dir.display()));
    let store = RunStore::open(dir.as_path()).map_err(io_err)?;
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
    let result = store.query(&query).map_err(io_err)?;
    println!(
        "query decoded {} of {} block(s), {} matching record(s)",
        result.blocks_decoded,
        result.blocks_total,
        result.records.len()
    );
    let limit = get(args, "limit", 10usize)?;
    for record in result.records.iter().take(limit) {
        println!("  {record:?}");
    }
    if result.records.len() > limit {
        println!(
            "  ... {} more (raise --limit)",
            result.records.len() - limit
        );
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
    let tracer = Tracer::new();
    let report = PipelineExecutor::new(&p.profile, p.policy)?.run_traced(p.m, rounds, &tracer)?;
    let view = tracer.view();

    let (store_dir, stored, blocks) = persist_trace(args, "pipeline", view.records())?;
    println!(
        "{} — {} schedule, mbs {}, M = {}, {rounds} round(s)",
        p.model.name, p.schedule, mbs, p.m
    );
    println!(
        "trace: {} ({stored} stored record(s), {blocks} block(s))",
        store_dir.display()
    );
    for (r, row) in view.round_table().into_iter().enumerate() {
        let (t0, t1, bubble) = row.unwrap_or((0.0, 0.0, 0.0));
        println!(
            "  round {r}: window {:.2}s..{:.2}s, bubble fraction {bubble:.4}",
            t0, t1
        );
    }
    let trace_idle = view.total_idle_time();
    let report_idle: f64 = report.stage_idle_time.iter().sum();
    println!(
        "  idle: {trace_idle:.6}s from trace, {report_idle:.6}s from executor (|Δ| = {:.1e})",
        (trace_idle - report_idle).abs()
    );
    println!("  top {top} slowest stage(s) by compute time:");
    for (stage, busy) in view.top_slowest_stages(top) {
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
    let tracer = Tracer::new();
    let trace = simulate_load_spike_with(
        &model,
        &devices,
        &Link::mbps_100(),
        8,
        16,
        spike,
        horizon,
        true,
        SchedulerConfig::default(),
        &tracer,
    )?;
    let view = tracer.view();
    let (store_dir, stored, blocks) = persist_trace(args, "spike", view.records())?;
    println!("{}", spike_header(&model.name, spike));
    println!(
        "trace: {} ({stored} stored record(s), {blocks} block(s))",
        store_dir.display()
    );
    println!(
        "  throughput: {:.2} -> {:.2} samples/s",
        trace.pre_spike_throughput, trace.post_spike_throughput
    );
    println!("  re-scheduling timeline:");
    for ev in view.reschedule_timeline() {
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
    let tracer = Tracer::new();
    let r = run_strategy(strategy, &setup, &tracer);
    let view = tracer.view();
    let (store_dir, stored, blocks) = persist_trace(args, "fl", view.records())?;
    // Recompute convergence metrics by reading the store back: the
    // gauge-kind query prunes every block without accuracy samples.
    let store = RunStore::open(store_dir.as_path())
        .map_err(|e| EcoFlError::Io(format!("run store {}: {e}", store_dir.display())))?;
    let summary = summarize_store(&store, &r.strategy, &[0.3, 0.5, 0.7, 0.9])
        .map_err(|e| EcoFlError::Io(format!("run store {}: {e}", store_dir.display())))?;
    println!(
        "{} on {} ({} clients, horizon {}s):",
        r.strategy, dataset.name, setup.config.num_clients, setup.config.horizon
    );
    println!(
        "trace: {} ({stored} stored record(s), {blocks} block(s))",
        store_dir.display()
    );
    println!(
        "  updates {} | mean accuracy {:.1}% | best {:.1}% | max drawdown {:.1}%",
        view.counter_total("global_updates"),
        summary.mean_accuracy * 100.0,
        summary.best_accuracy * 100.0,
        summary.max_drawdown * 100.0
    );
    for (th, t) in &summary.time_to {
        println!("  reached {:.0}% at t = {t:.1}s", th * 100.0);
    }
    Ok(())
}

/// Renders one metrics snapshot as an aligned ASCII dashboard.
fn render_snapshot(snap: &MetricsSnapshot) -> Vec<String> {
    let mut out = Vec::new();
    out.push(format!(
        "metrics snapshot — round {} ({} counter(s), {} gauge(s), {} histogram(s))",
        snap.round,
        snap.counters.len(),
        snap.gauges.len(),
        snap.histograms.len()
    ));
    if !snap.counters.is_empty() {
        out.push("  counters:".into());
        for c in &snap.counters {
            out.push(format!("    {:<30} {:>14}", c.name, c.value));
        }
    }
    if !snap.gauges.is_empty() {
        out.push("  gauges (last / min / max / samples):".into());
        for g in &snap.gauges {
            out.push(format!(
                "    {:<30} {:>12.4} {:>12.4} {:>12.4} {:>8}",
                g.name, g.last, g.min, g.max, g.samples
            ));
        }
    }
    if !snap.histograms.is_empty() {
        out.push("  histograms (p50 / p95 / p99 / max / count):".into());
        for h in &snap.histograms {
            let sketch = LogHistogram::from_snapshot(h);
            let q = |p: f64| sketch.quantile(p).unwrap_or(0.0);
            out.push(format!(
                "    {:<30} {:>12.4e} {:>12.4e} {:>12.4e} {:>12.4e} {:>8}",
                h.name,
                q(0.5),
                q(0.95),
                q(0.99),
                h.max,
                h.count
            ));
        }
    }
    out
}

/// Folds the tensor crate's process-global kernel statistics into the
/// hub as `kernel_<name>_<path>_{calls,ns}` counters. The counters are
/// written only here, so increment-by-delta keeps them equal to the
/// monotone totals.
fn scrape_kernel_stats(hub: &MetricsHub) {
    for stat in ecofl_tensor::kernel_stats() {
        let calls = hub.counter(&format!("kernel_{}_{}_calls", stat.kernel, stat.path));
        calls.inc(stat.calls.saturating_sub(calls.get()));
        let nanos = hub.counter(&format!("kernel_{}_{}_ns", stat.kernel, stat.path));
        nanos.inc(stat.nanos.saturating_sub(nanos.get()));
    }
}

fn cmd_metrics(args: &HashMap<String, String>) -> Result<(), EcoFlError> {
    if args.contains_key("live") {
        return cmd_metrics_live(args);
    }
    if let Some(file) = args.get("import") {
        return cmd_metrics_import(args, file);
    }
    cmd_metrics_inspect(args)
}

/// Opens a run store and renders its persisted metrics snapshots: the
/// latest by default, a specific round with `--round`, exported as
/// Prometheus text with `--export`.
fn cmd_metrics_inspect(args: &HashMap<String, String>) -> Result<(), EcoFlError> {
    check_flags(args, "metrics --store", &[&["store", "round", "export"]])?;
    let dir = PathBuf::from(require(args, "store")?);
    let io_err = |e: std::io::Error| EcoFlError::Io(format!("run store {}: {e}", dir.display()));
    let store = RunStore::open(dir.as_path()).map_err(io_err)?;
    let count = store.snapshot_count();
    println!("store: {} ({count} metrics snapshot(s))", dir.display());
    let snap = match args.get("round") {
        Some(r) => {
            let round: u64 = r
                .parse()
                .map_err(|_| EcoFlError::Parse(format!("bad value for --round: {r}")))?;
            store.snapshot_at_round(round).map_err(io_err)?
        }
        None => store.latest_snapshot().map_err(io_err)?,
    };
    let Some(snap) = snap else {
        return Err(EcoFlError::Config(
            "store holds no matching metrics snapshot".into(),
        ));
    };
    if let Some(out) = args.get("export") {
        std::fs::write(out, snap.to_prometheus())
            .map_err(|e| EcoFlError::Io(format!("cannot write {out}: {e}")))?;
        println!("exported Prometheus text to {out}");
    }
    for line in render_snapshot(&snap) {
        println!("{line}");
    }
    Ok(())
}

/// Parses a Prometheus-text export back into a snapshot and renders it
/// (the read half of the export round-trip); `--export` re-exports it.
fn cmd_metrics_import(args: &HashMap<String, String>, file: &str) -> Result<(), EcoFlError> {
    check_flags(args, "metrics --import", &[&["import", "export"]])?;
    let text = std::fs::read_to_string(file)
        .map_err(|e| EcoFlError::Io(format!("cannot read {file}: {e}")))?;
    let snap = MetricsSnapshot::from_prometheus(&text)
        .map_err(|e| EcoFlError::Parse(format!("{file}: {e}")))?;
    println!("imported {file}");
    if let Some(out) = args.get("export") {
        std::fs::write(out, snap.to_prometheus())
            .map_err(|e| EcoFlError::Io(format!("cannot write {out}: {e}")))?;
        println!("re-exported Prometheus text to {out}");
    }
    for line in render_snapshot(&snap) {
        println!("{line}");
    }
    Ok(())
}

/// Runs an FL scenario with a [`MetricsHub`] attached and renders a
/// refreshing dashboard while it trains. Every refresh tick rolls the
/// hub into a snapshot; with `--store` each tick is durably appended
/// (snapshot blocks seal per append), so a second terminal can inspect
/// the same store mid-run with `ecofl metrics --store DIR`.
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

    let mut store = match args.get("store") {
        Some(dir) => {
            let dir = PathBuf::from(dir);
            let st = RunStore::open_or_create(dir.as_path())
                .map_err(|e| EcoFlError::Io(format!("run store {}: {e}", dir.display())))?;
            Some((dir, st))
        }
        None => None,
    };

    let hub = MetricsHub::new();
    if let Some((_, st)) = &mut store {
        st.attach_metrics(&hub);
    }
    ecofl_tensor::reset_kernel_stats();
    ecofl_tensor::set_kernel_stats_enabled(true);

    let worker = {
        let hub = hub.clone();
        std::thread::spawn(move || run_strategy(strategy, &setup, &hub))
    };

    let live_tty = std::io::stdout().is_terminal();
    let mut tick = 0u64;
    let io_err = |e: std::io::Error| EcoFlError::Io(format!("metrics store: {e}"));
    while !worker.is_finished() {
        std::thread::sleep(std::time::Duration::from_millis(refresh as u64));
        tick += 1;
        scrape_kernel_stats(&hub);
        let snap = hub.snapshot(tick);
        if let Some((_, st)) = &mut store {
            st.append_snapshot(&snap).map_err(io_err)?;
        }
        if live_tty {
            print!("\x1b[2J\x1b[H");
        }
        for line in render_snapshot(&snap) {
            println!("{line}");
        }
        println!();
    }
    ecofl_tensor::set_kernel_stats_enabled(false);
    let result = worker
        .join()
        .map_err(|_| EcoFlError::Config("metered FL run panicked".into()))?;

    // Final rollup: everything the run recorded, tagged one past the
    // last live tick.
    tick += 1;
    scrape_kernel_stats(&hub);
    let snap = hub.snapshot(tick);
    if let Some((dir, st)) = &mut store {
        st.append_snapshot(&snap).map_err(io_err)?;
        println!(
            "persisted {} metrics snapshot(s) to {}",
            st.snapshot_count(),
            dir.display()
        );
    }
    for line in render_snapshot(&snap) {
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
       metrics --live fl             run FL with a metrics hub attached and\n\
              [fl's flags] [--refresh-ms N] [--store DIR]\n\
                                     render a live-refreshing dashboard,\n\
                                     appending each tick's snapshot to DIR\n\
       metrics --store DIR           inspect persisted metrics snapshots\n\
              [--round N] [--export FILE (Prometheus text)]\n\
       metrics --import FILE         parse a Prometheus export and render it\n\
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

//! FL layers (`fl_paper_300`, `fl_census_1m`): every op of the workload
//! is rebuilt in-process from its CLI flags and driven through the
//! public `Scheduler::drive` with a timing wrapper around its strategy
//! object. Where no public boundary exists inside a cohort
//! (`local_train`, fold, mix, eval, the event queue) the layer's cost is
//! *replayed*: its unit cost measured here on the run's own data, times
//! the call count the wrapper observed.

use crate::span::Spans;
use crate::Metrics;
use ecofl_benchmark::cliout;
use ecofl_benchmark::workloads::Op;
use ecofl_data::federated::PartitionScheme;
use ecofl_data::{FederatedDataset, SyntheticSpec};
use ecofl_fl::aggregate::StreamingAverage;
use ecofl_fl::sched::{AggregationStrategy, Cohort, HorizonPolicy};
use ecofl_fl::{
    fedasync_mix, local_train, strategy_object, weighted_average, FlConfig, FlSetup, LatencyModel,
    LocalTrainConfig, Scheduler, Strategy,
};
use ecofl_grouping::{kmeans_1d, kmeans_1d_minibatch, Grouper, GroupingConfig, GroupingStrategy};
use ecofl_models::ModelArch;
use ecofl_simnet::EventQueue;
use ecofl_tensor::{Sgd, Tensor};
use ecofl_util::Rng;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The flags of one `ecofl fl` op, with the CLI's defaults.
struct FlFlags {
    strategy: Strategy,
    dataset: &'static str,
    clients: usize,
    horizon: f64,
    seed: u64,
    shards: usize,
    clients_per_round: usize,
    groups: usize,
}

fn parse_flags(op: &Op) -> Result<FlFlags, String> {
    let num = |key: &str, default: usize| -> Result<usize, String> {
        op.flag(key).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("fl op: bad --{key} {v}"))
        })
    };
    Ok(FlFlags {
        strategy: match op.flag("strategy").unwrap_or("ecofl") {
            "fedavg" => Strategy::FedAvg,
            "fedasync" => Strategy::FedAsync,
            "fedat" => Strategy::FedAt,
            "astraea" => Strategy::Astraea,
            "ecofl" => Strategy::EcoFl {
                dynamic_grouping: true,
            },
            "ecofl-static" => Strategy::EcoFl {
                dynamic_grouping: false,
            },
            other => return Err(format!("fl op: unknown strategy {other}")),
        },
        dataset: match op.flag("dataset").unwrap_or("cifar") {
            "cifar" => "cifar",
            "fashion" => "fashion",
            "mnist" => "mnist",
            other => return Err(format!("fl op: unknown dataset {other}")),
        },
        clients: num("clients", 60)?,
        horizon: num("horizon", 800)? as f64,
        seed: num("seed", 42)? as u64,
        shards: num("shards", 0)?,
        clients_per_round: num("clients-per-round", 0)?,
        groups: num("groups", 0)?,
    })
}

/// The CLI's flag → `FlConfig` mapping (`fl_setup` in `src/main.rs`),
/// restated here because it lives in the binary. Every replayed run is
/// checked against the CLI's own result line, so drift shows as a
/// failed check, not as a silently different scenario.
fn config_of(f: &FlFlags) -> FlConfig {
    let defaults = FlConfig::default();
    FlConfig {
        num_clients: f.clients,
        clients_per_round: if f.clients_per_round == 0 {
            (f.clients / 3).clamp(4, 20)
        } else {
            f.clients_per_round
        },
        num_groups: if f.groups == 0 {
            defaults.num_groups
        } else {
            f.groups
        },
        grouping_batch: if f.clients >= 10_000 { 8192 } else { 0 },
        horizon: f.horizon,
        eval_interval: f.horizon / 25.0,
        seed: f.seed,
        ..defaults
    }
}

fn build_setup(f: &FlFlags, spans: &Spans) -> FlSetup {
    let spec = match f.dataset {
        "cifar" => SyntheticSpec::cifar_like(),
        "fashion" => SyntheticSpec::fashion_like(),
        _ => SyntheticSpec::mnist_like(),
    };
    let shards = if f.shards == 0 { f.clients } else { f.shards };
    let data = spans.time("data.generate", || {
        FederatedDataset::generate(
            &spec,
            shards,
            60,
            50,
            PartitionScheme::ClassesPerClient(2),
            None,
            f.seed,
        )
    });
    let data = if shards < f.clients {
        spans.time("data.virtualize", || data.virtualize(f.clients))
    } else {
        data
    };
    FlSetup {
        data,
        arch: ModelArch::Mlp,
        config: config_of(f),
    }
}

/// What the wrapper saw one strategy do.
#[derive(Default)]
struct Tally {
    /// Clients trained (members of every non-empty completed cohort;
    /// `failure_prob` is 0 in these workloads, so all survive).
    trained: u64,
    /// Completed cohorts handed to the strategy.
    cohorts: u64,
}

/// Times `begin` / `on_cohort` of the strategy it wraps and counts the
/// work passing through; everything else is forwarded untouched, so the
/// run is bit-identical to the unwrapped one.
struct Timed<'a> {
    inner: Box<dyn AggregationStrategy>,
    spans: &'a Spans,
    tally: Tally,
}

impl AggregationStrategy for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn seed_salt(&self) -> u64 {
        self.inner.seed_salt()
    }
    fn horizon_policy(&self) -> HorizonPolicy {
        self.inner.horizon_policy()
    }
    fn initial_eval_mark(&self) -> f64 {
        self.inner.initial_eval_mark()
    }
    fn begin(&mut self, sched: &mut Scheduler<'_>) {
        let inner = &mut self.inner;
        self.spans.time("fl.strategy.begin", || inner.begin(sched));
    }
    fn on_cohort(&mut self, sched: &mut Scheduler<'_>, t: f64, cohort: Cohort) {
        self.tally.cohorts += 1;
        self.tally.trained += cohort.members.len() as u64;
        let inner = &mut self.inner;
        self.spans.time("fl.strategy.on_cohort", || {
            inner.on_cohort(sched, t, cohort)
        });
    }
    fn regroup_events(&self) -> u64 {
        self.inner.regroup_events()
    }
    fn dropped_final(&self) -> usize {
        self.inner.dropped_final()
    }
}

/// Mean seconds per call of `f` over `iters` calls.
fn unit_cost(iters: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..iters {
        f();
    }
    started.elapsed().as_secs_f64() / iters as f64
}

/// Unit costs of the layers inside a cohort, measured on `setup`'s data.
struct UnitCosts {
    /// `local_train` of one client, seconds, without / with the
    /// proximal term.
    train_plain: f64,
    train_prox: f64,
    fold: f64,
    mix: f64,
    /// `weighted_average` over the tier models (FedAT's global rebuild).
    tier_average: f64,
    eval: f64,
    sgd_step: f64,
    queue_pair: f64,
}

fn measure_units(setup: &FlSetup) -> UnitCosts {
    let cfg = &setup.config;
    let test = setup.data.test();
    let mut rng = Rng::new(cfg.seed ^ 0xBE7C);
    let mut net = setup
        .arch
        .build(test.feature_dim(), test.num_classes(), &mut rng);
    let params = net.params();
    let shards = setup.data.num_shards().min(16);
    let train = |mu: f32| {
        let train_cfg = LocalTrainConfig {
            epochs: cfg.local_epochs,
            batch_size: cfg.batch_size,
            lr: cfg.learning_rate,
            mu,
        };
        let mut client = 0;
        unit_cost(shards * 2, || {
            let mut rng = Rng::new(client as u64);
            let data = setup.data.client(client % shards);
            black_box(local_train(setup.arch, &params, data, &train_cfg, &mut rng));
            client += 1;
        })
    };
    let other: Vec<f32> = params.iter().map(|p| p * 0.5).collect();
    let fold = {
        let mut acc = StreamingAverage::new(params.len(), 1e9);
        unit_cost(200, || acc.fold(black_box(&other), 60.0))
    };
    let mix = {
        let mut global = params.clone();
        unit_cost(200, || fedasync_mix(&mut global, black_box(&other), 0.5))
    };
    let tier_average = {
        let tiers: Vec<(&[f32], f64)> = (0..cfg.num_groups)
            .map(|g| (other.as_slice(), (g + 1) as f64))
            .collect();
        unit_cost(50, || {
            black_box(weighted_average(black_box(&tiers)));
        })
    };
    // The scheduler's evaluator is private; this is its loop: the test
    // set in batches of 256 through one reused network.
    let batches: Vec<(Tensor, Vec<usize>)> = (0..test.len())
        .collect::<Vec<_>>()
        .chunks(256)
        .map(|chunk| {
            let (feats, labels) = test.gather(chunk);
            (
                Tensor::from_vec(feats, &[labels.len(), test.feature_dim()]),
                labels,
            )
        })
        .collect();
    let eval = unit_cost(20, || {
        net.set_params(&params);
        for (x, y) in &batches {
            black_box(net.evaluate(x, y));
        }
    });
    let sgd_step = {
        let mut opt = Sgd::new(cfg.learning_rate).with_proximal(cfg.mu);
        let mut w = params.clone();
        unit_cost(200, || opt.step(&mut w, black_box(&other), Some(&params)))
    };
    let queue_pair = {
        // Steady state of the run's queue: one pending cohort per group
        // (or per concurrent worker), schedule one / pop one.
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut rng = Rng::new(7);
        for i in 0..cfg.clients_per_round as u64 {
            queue.schedule_after(rng.gaussian(30.0, 10.0).max(1.0), i);
        }
        unit_cost(20_000, || {
            queue.schedule_after(rng.gaussian(30.0, 10.0).max(1.0), 0);
            black_box(queue.pop());
        })
    };
    UnitCosts {
        train_plain: train(0.0),
        train_prox: train(cfg.mu),
        fold,
        mix,
        tier_average,
        eval,
        sgd_step,
        queue_pair,
    }
}

/// Times the grouping layer on the run's own inputs: the latencies the
/// scheduler samples (same RNG stream) and the label histograms
/// `Hierarchical::begin` builds.
fn measure_grouping(setup: &FlSetup, strategy: Strategy, spans: &Spans) {
    let cfg = &setup.config;
    let kind = match strategy {
        Strategy::FedAt => GroupingStrategy::LatencyOnly,
        Strategy::Astraea => GroupingStrategy::DataOnly,
        Strategy::EcoFl { .. } => cfg.grouping,
        Strategy::FedAvg | Strategy::FedAsync => return,
    };
    let salt = strategy_object(strategy).seed_salt();
    let mut rng = Rng::new(cfg.seed ^ salt);
    let latencies = LatencyModel::sample(
        cfg.num_clients,
        cfg.base_delay_mean,
        cfg.base_delay_std,
        &[0.2, 0.4, 0.6, 0.8, 1.0],
        cfg.dynamics.clone(),
        &mut rng,
    )
    .all_latencies();
    let data = &setup.data;
    let shard_hists: Vec<Vec<f64>> = data
        .clients()
        .iter()
        .map(|d| d.label_counts().iter().map(|&c| c as f64).collect())
        .collect();
    let label_counts: Vec<Vec<f64>> = (0..data.num_clients())
        .map(|i| shard_hists[data.shard_index(i)].clone())
        .collect();
    let grouping_cfg = GroupingConfig {
        num_groups: cfg.num_groups,
        strategy: kind,
        rt_relative: cfg.rt_relative,
        rt_min: cfg.rt_min,
        assign_batch: cfg.grouping_batch,
    };
    let mut km_rng = rng;
    spans.time("grouping.kmeans", || {
        if grouping_cfg.assign_batch > 0 {
            black_box(kmeans_1d_minibatch(
                &latencies,
                grouping_cfg.num_groups,
                grouping_cfg.assign_batch.min(1024),
                30,
                &mut km_rng,
            ));
        } else {
            black_box(kmeans_1d(
                &latencies,
                grouping_cfg.num_groups,
                &mut km_rng,
                100,
            ));
        }
    });
    let mut grouper = spans.time("grouping.initial", || {
        Grouper::initial(&latencies, &label_counts, grouping_cfg, &mut rng)
    });
    // Algorithm 1 on latency reports drawn the way the runtime dynamics
    // redraw them (a new collaborative degree on the same base delay).
    for i in 0..200usize {
        let client = (i * 7919) % latencies.len();
        let degree = [0.2, 0.4, 0.6, 0.8, 1.0][i % 5];
        let latency = latencies[client] * degree / 0.6;
        spans.time("grouping.observe", || {
            black_box(grouper.observe_latency(client, latency));
        });
    }
}

/// Runs the FL probe over `ops`, checking each replayed run against the
/// CLI's stdout for the same op. Returns `(in-process seconds, failures)`.
pub fn probe(
    ops: &[Op],
    cli_stdout: &[String],
    spans: &Spans,
    metrics: &mut Metrics,
) -> (f64, Vec<String>) {
    let mut failures = Vec::new();
    let mut run_s = 0.0;
    let (mut trained_calls, mut cohort_calls, mut eval_calls, mut regroups) =
        (0u64, 0u64, 0u64, 0u64);
    let mut train_busy = 0.0;
    let (mut fold_busy, mut mix_busy, mut eval_busy, mut queue_busy) = (0.0, 0.0, 0.0, 0.0);
    let mut units_by_dataset: HashMap<&'static str, UnitCosts> = HashMap::new();
    let mut grouped: Vec<(&'static str, bool)> = Vec::new();

    ecofl_tensor::reset_kernel_stats();
    for (i, op) in ops.iter().enumerate() {
        let flags = match parse_flags(op) {
            Ok(f) => f,
            Err(e) => {
                failures.push(e);
                continue;
            }
        };
        let setup = build_setup(&flags, spans);
        let mut timed = Timed {
            inner: strategy_object(flags.strategy),
            spans,
            tally: Tally::default(),
        };
        ecofl_tensor::set_kernel_stats_enabled(true);
        let t0 = Instant::now();
        let result = spans.time("fl.sched.run", || {
            Scheduler::drive(&setup, None, &mut timed)
        });
        let this_run = t0.elapsed().as_secs_f64();
        ecofl_tensor::set_kernel_stats_enabled(false);
        run_s += this_run;

        // The replayed scenario must be the CLI's scenario.
        match cli_stdout.get(i).map(|s| cliout::parse_fl(s)) {
            Some(Ok(cli)) => {
                let same = (cli.best * 1000.0).round() == (result.best_accuracy * 1000.0).round()
                    && cli.updates == result.global_updates
                    && cli.regroups == result.regroup_events;
                if !same {
                    failures.push(format!(
                        "op {i}: in-process run (best {:.3}, {} updates, {} regroups) differs from the CLI's ({:.3}, {}, {})",
                        result.best_accuracy, result.global_updates, result.regroup_events,
                        cli.best, cli.updates, cli.regroups
                    ));
                }
            }
            _ => failures.push(format!("op {i}: no CLI result to check the replay against")),
        }

        let units = units_by_dataset
            .entry(flags.dataset)
            .or_insert_with(|| measure_units(&setup));
        let proximal = matches!(flags.strategy, Strategy::Astraea | Strategy::EcoFl { .. });
        let trained = timed.tally.trained as f64;
        let updates = result.global_updates as f64;
        // One initial eval, one per accuracy point after it, one recall.
        let evals = result.accuracy.points().len() as f64 + 1.0;
        train_busy += trained
            * if proximal {
                units.train_prox
            } else {
                units.train_plain
            };
        match flags.strategy {
            Strategy::FedAsync => mix_busy += updates * units.mix,
            Strategy::FedAvg => fold_busy += trained * units.fold,
            Strategy::FedAt => {
                fold_busy += trained * units.fold;
                mix_busy += updates * units.tier_average;
            }
            Strategy::Astraea | Strategy::EcoFl { .. } => {
                fold_busy += trained * units.fold;
                mix_busy += updates * units.mix;
            }
        }
        eval_busy += evals * units.eval;
        queue_busy += timed.tally.cohorts as f64 * units.queue_pair;
        trained_calls += timed.tally.trained;
        cohort_calls += timed.tally.cohorts;
        eval_calls += evals as u64;
        regroups += result.regroup_events;

        // Grouping is timed once per (dataset, hierarchical or not) kind
        // of population: it does not depend on the strategy's later run.
        let hierarchical = !matches!(flags.strategy, Strategy::FedAvg | Strategy::FedAsync);
        if hierarchical && !grouped.contains(&(flags.dataset, proximal)) {
            grouped.push((flags.dataset, proximal));
            measure_grouping(&setup, flags.strategy, spans);
        }
    }
    let replayed_s = train_busy + fold_busy + mix_busy + eval_busy + queue_busy;

    let kernel = ecofl_tensor::kernel_stats();
    metrics.set(
        "tensor.kernel_ms",
        kernel.iter().map(|k| k.nanos).sum::<u64>() as f64 / 1e6,
    );
    metrics.set(
        "tensor.kernel_calls",
        kernel.iter().map(|k| k.calls).sum::<u64>() as f64,
    );
    let any_units = units_by_dataset.values().next();
    metrics.set(
        "tensor.sgd_step_us",
        any_units.map_or(0.0, |u| u.sgd_step * 1e6),
    );
    metrics.set(
        "fl.client.local_train_us",
        if trained_calls == 0 {
            0.0
        } else {
            train_busy * 1e6 / trained_calls as f64
        },
    );
    metrics.set("fl.client.local_train_calls", trained_calls as f64);
    metrics.set(
        "fl.aggregate.fold_us",
        any_units.map_or(0.0, |u| u.fold * 1e6),
    );
    metrics.set(
        "fl.aggregate.mix_us",
        any_units.map_or(0.0, |u| u.mix * 1e6),
    );
    metrics.set("fl.eval_ms", eval_busy * 1e3);
    metrics.set("fl.eval_calls", eval_calls as f64);
    metrics.set("data.generate_ms", spans.total("data.generate").busy_ms());
    metrics.set(
        "data.virtualize_ms",
        spans.total("data.virtualize").busy_ms(),
    );
    metrics.set(
        "grouping.kmeans_ms",
        spans.total("grouping.kmeans").busy_ms(),
    );
    metrics.set(
        "grouping.initial_ms",
        spans.total("grouping.initial").busy_ms(),
    );
    metrics.set(
        "grouping.observe_us",
        spans.total("grouping.observe").mean_us(),
    );
    metrics.set("grouping.regroups", regroups as f64);
    metrics.set(
        "simnet.event.schedule_pop_ns",
        any_units.map_or(0.0, |u| u.queue_pair * 1e9),
    );
    metrics.set("simnet.event.ops", 2.0 * cohort_calls as f64);

    let run = spans.total("fl.sched.run");
    let begin = spans.total("fl.strategy.begin");
    let on_cohort = spans.total("fl.strategy.on_cohort");
    metrics.set("fl.sched.run_ms", run.busy_ms());
    metrics.set("fl.strategy.begin_ms", begin.busy_ms());
    metrics.set("fl.strategy.on_cohort_ms", on_cohort.busy_ms());
    metrics.set("fl.strategy.on_cohort_calls", on_cohort.count as f64);
    // Queue pops, the initial eval and the final recall: the run's self time.
    metrics.set("fl.sched.core_ms", run.self_ns as f64 / 1e6);
    // Replayed layer busy time plus the one layer begin() is made of
    // (grouping), over the measured run time.
    let attributed = replayed_s + begin.busy_ns as f64 / 1e9;
    metrics.set(
        "fl.attributed_share",
        if run_s > 0.0 { attributed / run_s } else { 0.0 },
    );

    println!(
        "fl replay: train {:.1} ms + fold {:.1} + mix {:.1} + eval {:.1} + queue {:.3} + begin {:.1} = {:.1} ms of fl.sched.run {:.1} ms; unattributed {:.1} ms",
        train_busy * 1e3,
        fold_busy * 1e3,
        mix_busy * 1e3,
        eval_busy * 1e3,
        queue_busy * 1e3,
        begin.busy_ms(),
        attributed * 1e3,
        run_s * 1e3,
        (run_s - attributed) * 1e3
    );
    // What the CLI op does in-process: build the data, drive the run.
    let in_process =
        spans.total("data.generate").busy_ns + spans.total("data.virtualize").busy_ns + run.busy_ns;
    (in_process as f64 / 1e9, failures)
}

/// Peak live heap while the first op's scenario is built and run once
/// more with the counting allocator switched on, MiB above the level
/// at which counting started.
pub fn peak_live_mb(op: &Op) -> Result<f64, String> {
    let flags = parse_flags(op)?;
    let spans = Spans::new();
    crate::alloc::start_counting();
    let setup = build_setup(&flags, &spans);
    let mut strategy = strategy_object(flags.strategy);
    black_box(Scheduler::drive(&setup, None, strategy.as_mut()));
    drop(setup);
    let peak = crate::alloc::stop_counting();
    Ok(peak as f64 / (1024.0 * 1024.0))
}

//! The `ecofl` commands as values.
//!
//! [`Scenario::parse`] builds a command's value from its `--key value`
//! pairs and checks every rule no library entry point checks; the value
//! then runs, and the CLI prints what it returns. Each value reads its
//! flags through a table of its fields, each with the flag that sets it.
//! A command's tables do three jobs: the value is parsed through them, a
//! flag they do not list is refused, and a refused input is reported by
//! its flag.

use crate::error::EcoFlError;
pub use crate::record::Stored;
use crate::record::{record_trace, store_err, BLOCK_RECORDS};
use ecofl_data::federated::PartitionScheme;
use ecofl_data::{FederatedDataset, SyntheticSpec};
use ecofl_fl::engine::{run as run_fl, FlSetup, RunResult, Strategy};
use ecofl_fl::{summarize_view, ConvergenceSummary, FlConfig};
use ecofl_models::{efficientnet_at, mobilenet_v2_at, ModelArch, ModelProfile};
use ecofl_obs::{trace_dir, Domain, EventRecord, RecordKind, RunStore};
use ecofl_obs::{TraceQuery, TraceRecord, TraceView, Tracer};
use ecofl_pipeline::adaptive::{simulate_load_spike_with, LoadSpike, SchedulerConfig, SpikeTrace};
use ecofl_pipeline::executor::{ExecError, MAX_SIMULATED_MICRO_BATCHES};
use ecofl_pipeline::orchestrator::{distinct_order_count, PipelinePlan, MAX_DEVICE_ORDERS};
use ecofl_pipeline::runtime::{FaultPlan, PipelineTrainer, RuntimeOptions, SegmentFactory};
use ecofl_pipeline::{partition_dp, search_configuration, ExecutionReport, OrchestratorConfig};
use ecofl_pipeline::{PipelineExecutor, PipelineProfile, ScheduleKind, SchedulePolicy, SpikeError};
use ecofl_simnet::{nano_h, nano_l, tx2_n, tx2_q, Device, Link};
use ecofl_tensor::{Layer, Linear, ReLU, Tensor};
use ecofl_util::Rng;
use std::collections::HashMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

/// A value's fields, each with the flag that sets it (its `--key`).
type Table = &'static [(&'static str, &'static str)];

#[rustfmt::skip]
const PLAN: Table = &[("model", "model"), ("devices", "devices"), ("batch", "batch"),
    ("schedule", "schedule")];
#[rustfmt::skip]
const PIPELINE: Table = &[("model", "model"), ("devices", "devices"), ("mbs", "mbs"),
    ("m", "micro-batches"), ("schedule", "schedule")];
/// `BadSpike` spells its fields like these.
#[rustfmt::skip]
const SPIKE: Table = &[("model", "model"), ("devices", "devices"), ("load", "load"),
    ("at", "at"), ("device", "device"), ("horizon", "horizon")];
/// No `--model`: the demo pipeline is a fixed MLP.
#[rustfmt::skip]
const KILL: Table = &[("devices", "devices"), ("stage", "kill-stage"), ("round", "kill-round"),
    ("micro", "kill-micro"), ("rounds", "rounds"), ("seed", "seed")];
/// The fields are `FlConfig`'s where one is set, so a refusal of
/// `FlConfig::validate`, which names the field, names the flag.
#[rustfmt::skip]
const FL: Table = &[("strategy", "strategy"), ("num_clients", "clients"), ("horizon", "horizon"),
    ("dataset", "dataset"), ("comm_latency", "comm-latency"), ("seed", "seed"),
    ("shards", "shards"), ("clients_per_round", "clients-per-round"), ("num_groups", "groups"),
    ("grouping_batch", "grouping-batch")];
#[rustfmt::skip]
const RECORDER: Table = &[("scenario", "scenario"), ("dir", "store"),
    ("block_records", "block-records")];
#[rustfmt::skip]
const INSPECT: Table = &[("scenario", "scenario"), ("dir", "store"), ("rounds", "rounds"),
    ("domain", "domain"), ("kind", "kind"), ("min_duration", "min-duration"), ("limit", "limit")];

/// The widest `gantt --width` rendered: wider than any terminal.
const MAX_GANTT_WIDTH: usize = 10_000;
/// Population from which grouping switches to mini-batch association
/// unless `--grouping-batch` is given, and the batch it then uses.
const AUTO_BATCH_THRESHOLD: usize = 10_000;
const AUTO_BATCH_SIZE: usize = 8192;
/// Micro-batches per round of the kill demo.
const KILL_MICRO_BATCHES: usize = 4;

/// The flag `tables` list for `field`; every field read is listed.
fn flag_of(tables: &[Table], field: &str) -> &'static str {
    let mut entries = tables.iter().flat_map(|table| table.iter());
    match entries.find(|&&(f, _)| f == field) {
        Some(&(_, flag)) => flag,
        None => panic!("no flag sets {field}"),
    }
}

/// A refusal of `field`, named by its flag and followed by `rest`.
fn refuse(tables: &[Table], field: &str, rest: impl Display) -> EcoFlError {
    EcoFlError::Config(format!("--{}{rest}", flag_of(tables, field)))
}

/// A command's `--key value` pairs, read through its tables.
struct Flags<'a> {
    args: &'a HashMap<String, String>,
    tables: &'static [Table],
}

impl<'a> Flags<'a> {
    /// Refuses a flag no table of `command` lists — the smallest, so the
    /// message does not depend on map order. A misspelt flag would
    /// otherwise run the default it was meant to override.
    fn new(
        args: &'a HashMap<String, String>,
        command: &str,
        tables: &'static [Table],
    ) -> Result<Self, EcoFlError> {
        let known = |key: &str| tables.iter().any(|t| t.iter().any(|&(_, f)| f == key));
        match args.keys().filter(|key| !known(key)).min() {
            Some(key) => Err(EcoFlError::Config(format!(
                "unknown flag --{key} for {command}"
            ))),
            None => Ok(Flags { args, tables }),
        }
    }

    fn refuse(&self, field: &str, rest: impl Display) -> EcoFlError {
        refuse(self.tables, field, rest)
    }

    fn value(&self, field: &str) -> Option<&'a str> {
        (self.args.get(flag_of(self.tables, field))).map(String::as_str)
    }

    fn require(&self, field: &str) -> Result<&'a str, EcoFlError> {
        (self.value(field)).ok_or_else(|| self.refuse(field, " is required"))
    }

    fn opt<T: FromStr>(&self, field: &str) -> Result<Option<T>, EcoFlError> {
        let flag = flag_of(self.tables, field);
        let bad = |v| EcoFlError::Parse(format!("bad value for --{flag}: {v}"));
        (self.value(field))
            .map(|v| v.parse().map_err(|_| bad(v)))
            .transpose()
    }

    fn get<T: FromStr>(&self, field: &str, default: T) -> Result<T, EcoFlError> {
        Ok(self.opt(field)?.unwrap_or(default))
    }

    /// A count that must be at least 1: zero would reach a library
    /// assert instead of an error.
    fn positive(&self, field: &str, default: usize) -> Result<usize, EcoFlError> {
        match self.get(field, default)? {
            0 => Err(self.refuse(field, " must be at least 1")),
            n => Ok(n),
        }
    }

    fn model(&self) -> Result<ModelProfile, EcoFlError> {
        let name = self.require("model")?;
        let bad_res = |_| EcoFlError::Parse(format!("bad resolution in {name}"));
        let (base, res) = match name.split_once('@') {
            Some((b, r)) => (b, r.parse::<usize>().map_err(bad_res)?),
            None => (name, 224),
        };
        // The model builders assert this bound; a flag value must not
        // reach an assert.
        if res < 32 {
            let why = format!(" {name}: resolution must be at least 32, got {res}");
            return Err(self.refuse("model", why));
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

    fn devices(&self) -> Result<Vec<Device>, EcoFlError> {
        (self.require("devices")?.split(','))
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

    /// `--devices` for a pipeline of `model`: every stage holds at least
    /// one layer, so a list longer than the layer list has no partition.
    fn devices_for(&self, model: &ModelProfile) -> Result<Vec<Device>, EcoFlError> {
        let (devices, layers) = (self.devices()?, model.num_layers());
        if devices.len() > layers {
            let (n, name) = (devices.len(), &model.name);
            let why = format!(
                ": {n} devices but {name} has {layers} layers; every stage needs at least one"
            );
            return Err(self.refuse("devices", why));
        }
        Ok(devices)
    }

    fn schedule(&self) -> &'a str {
        self.value("schedule").unwrap_or("1f1b")
    }

    /// Refuses a pipeline run of `rounds` × `micro_batches` past what one
    /// executor run holds, naming the flags that set it: `fields`, and
    /// after them `detail`. The threaded `spike --kill-stage` demo, which
    /// builds every round's batches up front, is held to the same cap.
    fn run_length(
        &self,
        fields: &[&str],
        detail: &str,
        m: usize,
        rounds: usize,
    ) -> Result<(), EcoFlError> {
        if m.saturating_mul(rounds) <= MAX_SIMULATED_MICRO_BATCHES {
            return Ok(());
        }
        let flags: Vec<String> = fields
            .iter()
            .map(|&f| format!("--{}", flag_of(self.tables, f)))
            .collect();
        Err(EcoFlError::Config(format!(
            "{}{detail}: {rounds} round(s) of {m} micro-batch(es) exceed the \
             {MAX_SIMULATED_MICRO_BATCHES} micro-batches one simulated run holds",
            flags.join(" × ")
        )))
    }
}

fn parse_schedule(name: &str) -> Result<ScheduleKind, EcoFlError> {
    name.parse::<ScheduleKind>().map_err(EcoFlError::Parse)
}

/// A command's value, built from its flags.
pub enum Scenario {
    /// `devices`: the Table 1 catalog.
    Devices,
    /// `plan`.
    Plan(Plan),
    /// `gantt`: one sync-round, rendered `--width` columns wide.
    Gantt(Pipeline, usize),
    /// `spike`.
    Spike(Spike),
    /// `spike --kill-stage`.
    Kill(Kill),
    /// `fl`.
    Fl(Fl),
    /// `trace --scenario pipeline`, the default; `top` stages are listed.
    TracePipeline {
        pipeline: Pipeline,
        rounds: usize,
        top: usize,
        recorder: Recorder,
    },
    /// `trace --scenario spike`.
    TraceSpike(Spike, Recorder),
    /// `trace --scenario fl`.
    TraceFl(Fl, Recorder),
    /// `trace --store DIR` with no scenario and no model.
    Inspect(Inspect),
    /// `metrics --store DIR`.
    Metrics(Inspect),
}

impl Scenario {
    /// What `command` builds from its `--key value` pairs (keys without
    /// the dashes), or `None` if there is no such command.
    ///
    /// # Errors
    /// [`EcoFlError::Config`] or [`EcoFlError::Parse`] naming the flag at
    /// fault; [`EcoFlError::Plan`] when a pipeline admits no partition or
    /// residency.
    pub fn parse(
        command: &str,
        args: &HashMap<String, String>,
    ) -> Result<Option<Scenario>, EcoFlError> {
        let flags = |command: &str, tables: &'static [Table]| Flags::new(args, command, tables);
        Ok(Some(match command {
            "devices" => flags("devices", &[]).map(|_| Scenario::Devices)?,
            "plan" => Scenario::Plan(Plan::from_flags(&flags("plan", &[PLAN])?)?),
            "gantt" => {
                let f = flags("gantt", &[PIPELINE, &[("width", "width")]])?;
                // The renderer asserts on anything narrower, and allocates
                // a `stages × width` grid, so the upper bound is one no
                // terminal reaches.
                let width = f.get("width", 100usize)?;
                if width < 10 {
                    let why = format!(" must be at least 10 columns, got {width}");
                    return Err(f.refuse("width", why));
                }
                if width > MAX_GANTT_WIDTH {
                    let why = format!(" must be at most {MAX_GANTT_WIDTH} columns, got {width}");
                    return Err(f.refuse("width", why));
                }
                let pipeline = Pipeline::from_flags(&f)?;
                f.run_length(&["m"], "", pipeline.m, 1)?;
                Scenario::Gantt(pipeline, width)
            }
            "spike" if args.contains_key("kill-stage") => {
                Scenario::Kill(Kill::from_flags(&flags("spike --kill-stage", &[KILL])?)?)
            }
            "spike" => Scenario::Spike(Spike::from_flags(&flags("spike", &[SPIKE])?)?),
            "fl" => Scenario::Fl(Fl::from_flags(&flags("fl", &[FL])?, (60, 800.0, "cifar"))?),
            "trace" => Self::trace(args)?,
            "metrics" => {
                let f = flags("metrics --store", &[&[("dir", "store")]])?;
                let dir = PathBuf::from(f.require("dir")?);
                Scenario::Metrics(Inspect {
                    dir,
                    query: TraceQuery::new(),
                    limit: 0,
                })
            }
            _ => return Ok(None),
        }))
    }

    /// `ecofl trace`: `--store DIR` with no scenario and no model inspects
    /// an existing store instead of recording a new trace. A recording
    /// scenario reads the recorder's flags last, so its own are refused
    /// first.
    fn trace(args: &HashMap<String, String>) -> Result<Scenario, EcoFlError> {
        let scenario = match args.get("scenario") {
            Some(s) => s.as_str(),
            None if args.contains_key("store") && !args.contains_key("model") => "inspect",
            None => "pipeline",
        };
        let command = format!("trace --scenario {scenario}");
        let flags = |tables: &'static [Table]| Flags::new(args, &command, tables);
        Ok(match scenario {
            "pipeline" => {
                let f = flags(&[&[("rounds", "rounds"), ("top", "top")], PIPELINE, RECORDER])?;
                let rounds = f.positive("rounds", 2)?;
                let top = f.get("top", 3)?;
                let pipeline = Pipeline::from_flags(&f)?;
                f.run_length(&["m", "rounds"], "", pipeline.m, rounds)?;
                let recorder = Recorder::from_flags(&f, "pipeline")?;
                Scenario::TracePipeline {
                    pipeline,
                    rounds,
                    top,
                    recorder,
                }
            }
            "spike" => {
                let f = flags(&[SPIKE, RECORDER])?;
                let spike = Spike::from_flags(&f)?;
                Scenario::TraceSpike(spike, Recorder::from_flags(&f, "spike")?)
            }
            "fl" => {
                let f = flags(&[FL, RECORDER])?;
                let fl = Fl::from_flags(&f, (24, 300.0, "mnist"))?;
                Scenario::TraceFl(fl, Recorder::from_flags(&f, "fl")?)
            }
            "inspect" => {
                let f = Flags::new(args, "trace --store", &[INSPECT])?;
                Scenario::Inspect(Inspect::from_flags(&f)?)
            }
            other => {
                return Err(EcoFlError::Parse(format!(
                    "unknown scenario '{other}' (pipeline, spike, fl, inspect)"
                )))
            }
        })
    }
}

/// `ecofl plan`: the §4.3 search over device orders × micro-batch sizes.
pub struct Plan {
    pub model: ModelProfile,
    pub devices: Vec<Device>,
    /// `--batch`, the micro-batch sizes tried, the rounds each is
    /// simulated for and `--schedule`.
    pub config: OrchestratorConfig,
}

impl Plan {
    fn from_flags(f: &Flags) -> Result<Plan, EcoFlError> {
        let model = f.model()?;
        let devices = f.devices_for(&model)?;
        let batch = f.get("batch", 128usize)?;
        let schedule = parse_schedule(f.schedule())?;
        let mbs_candidates = vec![32, 16, 8, 4];
        // Inputs that cannot yield a plan name their flag instead of
        // reporting "no feasible pipeline configuration".
        let smallest = mbs_candidates.iter().copied().min().unwrap_or(1);
        if batch < smallest {
            return Err(f.refuse(
                "batch",
                format!(
                    " {batch}: the global batch must hold at least one micro-batch \
                 of the smallest candidate size, {smallest}"
                ),
            ));
        }
        // Each candidate simulates `eval_rounds` rounds of `batch / mbs`.
        let eval_rounds = 2;
        let detail = format!(" {batch} at micro-batch {smallest}");
        f.run_length(&["batch"], &detail, batch / smallest, eval_rounds)?;
        let orders = distinct_order_count(&devices);
        if orders > MAX_DEVICE_ORDERS {
            return Err(f.refuse(
                "devices",
                format!(
                    ": {} devices form {orders} distinct orders, more than the \
                 {MAX_DEVICE_ORDERS} the search walks; use fewer devices or repeat models",
                    devices.len()
                ),
            ));
        }
        let config = OrchestratorConfig {
            global_batch: batch,
            mbs_candidates,
            eval_rounds,
            schedule,
        };
        Ok(Plan {
            model,
            devices,
            config,
        })
    }

    /// The best plan the search finds.
    ///
    /// # Errors
    /// [`EcoFlError::Plan`] when no configuration is feasible.
    pub fn run(&self) -> Result<PipelinePlan, EcoFlError> {
        search_configuration(&self.model, &self.devices, &Link::mbps_100(), &self.config)
            .ok_or_else(|| EcoFlError::Plan("no feasible pipeline configuration".into()))
    }
}

/// What `gantt` and `trace --scenario pipeline` build from their shared
/// flags: Eq. 1 partition → profile → policy.
pub struct Pipeline {
    pub model: ModelProfile,
    /// Micro-batches per sync-round.
    pub m: usize,
    /// The `--schedule` value as typed.
    pub schedule: String,
    pub profile: PipelineProfile,
    /// The schedule under the Eq. 3 residency bounds.
    pub policy: SchedulePolicy,
}

impl Pipeline {
    fn from_flags(f: &Flags) -> Result<Pipeline, EcoFlError> {
        let model = f.model()?;
        let devices = f.devices_for(&model)?;
        let mbs = f.positive("mbs", 8)?;
        let m = f.positive("m", 6)?;
        let link = Link::mbps_100();
        let partition = partition_dp(&model, &devices, &link, mbs)
            .ok_or_else(|| EcoFlError::Plan("no feasible partition".into()))?;
        let profile = PipelineProfile::new(&model, &partition.boundaries, &devices, &link, mbs);
        let schedule = f.schedule();
        // Eq. 3 residency bounds; none may fit the devices' memory.
        let policy = parse_schedule(schedule)?
            .policy_for(&profile)
            .ok_or_else(|| EcoFlError::Plan("memory admits no residency".into()))?;
        let schedule = schedule.to_owned();
        Ok(Pipeline {
            model,
            m,
            schedule,
            profile,
            policy,
        })
    }

    fn executor(&self) -> Result<PipelineExecutor<'_>, EcoFlError> {
        Ok(PipelineExecutor::new(&self.profile, self.policy.clone())?)
    }

    /// `rounds` sync-rounds on the virtual-time executor.
    ///
    /// # Errors
    /// The executor's error.
    pub fn run(&self, rounds: usize) -> Result<ExecutionReport, EcoFlError> {
        Ok(self.executor()?.run(self.m, rounds)?)
    }

    /// [`Pipeline::run`] into `recorder`'s store. The executor is built
    /// first, so a pipeline it refuses opens no store.
    ///
    /// # Errors
    /// The executor's error, or [`EcoFlError::Io`] naming the store.
    pub fn record(
        &self,
        rounds: usize,
        recorder: &Recorder,
    ) -> Result<Stored<ExecutionReport>, EcoFlError> {
        let executor = self.executor()?;
        recorder.record(|tracer| Ok(executor.run_traced(self.m, rounds, tracer)?))
    }
}

/// The Fig. 13 load-spike scenario of `spike` and `trace --scenario
/// spike`: a pipeline and the load spike that disturbs it. The library
/// checks the spike.
pub struct Spike {
    pub model: ModelProfile,
    devices: Vec<Device>,
    /// `--device`, `--at`, `--load`.
    pub spike: LoadSpike,
    horizon: f64,
}

impl Spike {
    fn from_flags(f: &Flags) -> Result<Spike, EcoFlError> {
        let (model, devices) = (f.model()?, f.devices()?);
        let (load, at, device) = (
            f.get("load", 0.6)?,
            f.get("at", 100.0)?,
            f.get("device", 1)?,
        );
        let horizon = f.get("horizon", 250.0)?;
        Ok(Spike {
            model,
            devices,
            spike: LoadSpike { device, at, load },
            horizon,
        })
    }

    fn simulate(&self, scheduler: bool, tracer: Option<&Tracer>) -> Result<SpikeTrace, EcoFlError> {
        let (model, devices, link) = (&self.model, &self.devices, &Link::mbps_100());
        let (spike, horizon, config) = (self.spike, self.horizon, SchedulerConfig::default());
        simulate_load_spike_with(
            model, devices, link, 8, 16, spike, horizon, scheduler, config, tracer,
        )
        .map_err(|e| match e {
            SpikeError::BadSpike { field, expected } => {
                refuse(&[SPIKE], field, format!(" must be {expected}"))
            }
            SpikeError::TooManyRounds => refuse(&[SPIKE], "horizon", format!(" {e}")),
            e => e.into(),
        })
    }

    /// The run with the §4.4 scheduler, then the one without it.
    ///
    /// # Errors
    /// A refused input named by its flag; [`EcoFlError::Plan`] when the
    /// pipeline cannot be set up.
    pub fn run(&self) -> Result<(SpikeTrace, SpikeTrace), EcoFlError> {
        Ok((self.simulate(true, None)?, self.simulate(false, None)?))
    }

    /// The run with the scheduler into `recorder`'s store, and the
    /// re-scheduling timeline read back from this run's blocks: the
    /// event-kind query prunes every block without events.
    ///
    /// # Errors
    /// As [`Spike::run`], and [`EcoFlError::Io`] naming the store.
    pub fn record(
        &self,
        recorder: &Recorder,
    ) -> Result<(Stored<SpikeTrace>, Vec<EventRecord>), EcoFlError> {
        let stored = recorder.record(|tracer| self.simulate(true, Some(tracer)))?;
        let mut timeline = Vec::new();
        stored.read_own_blocks(&TraceQuery::new().kind(RecordKind::Event), |records| {
            let block = TraceView::from_records(records);
            timeline.extend(block.reschedule_timeline().into_iter().copied());
        })?;
        Ok((stored, timeline))
    }
}

/// `ecofl spike --kill-stage`: the §4.4 fault demo on the threaded
/// runtime. It kills one stage mid-round, recovers from the last
/// checkpoint, replays, and checks the final parameters against an
/// uninterrupted twin run, bit for bit.
pub struct Kill {
    /// Pipeline stages, one per device.
    pub stages: usize,
    /// `--kill-stage`: the stage killed.
    pub stage: usize,
    /// `--kill-round`: the round it is killed in.
    pub round: u64,
    /// `--kill-micro`: the micro-batch it is killed before.
    pub micro: usize,
    rounds: u64,
    seed: u64,
}

/// One step of the kill demo's faulty run, as it happens.
pub enum KillStep {
    /// The twin has run; the faulty run starts.
    Killing,
    /// A round trained to this mean loss.
    Round(u64, f32),
    /// A round failed.
    Fault(u64, ExecError),
    /// The pipeline recovered from the checkpoint of this round and
    /// replays from it.
    Recovered(u64),
}

impl Kill {
    fn from_flags(f: &Flags) -> Result<Kill, EcoFlError> {
        let stages = f.devices()?.len();
        let (stage, round) = (f.get("stage", 1usize)?, f.get("round", 1u64)?);
        let micro = f.get("micro", 1usize)?;
        let (rounds, seed) = (f.get("rounds", 3u64)?, f.get("seed", 42u64)?);
        if stages < 2 {
            return Err(f.refuse("stage", " needs at least 2 devices"));
        }
        if stage >= stages {
            let why = format!(" {stage} out of range (have {stages} stages)");
            return Err(f.refuse("stage", why));
        }
        if round >= rounds {
            let why = format!(" {round} out of range (running {rounds} rounds)");
            return Err(f.refuse("round", why));
        }
        let m = KILL_MICRO_BATCHES;
        f.run_length(
            &["rounds"],
            "",
            m,
            usize::try_from(rounds).unwrap_or(usize::MAX),
        )?;
        if micro >= m {
            let why = format!(" {micro} out of range (a round has {m} micro-batches)");
            return Err(f.refuse("micro", why));
        }
        Ok(Kill {
            stages,
            stage,
            round,
            micro,
            rounds,
            seed,
        })
    }

    /// Runs the twin, then the faulty run, handing each step of the
    /// latter to `on_step` as it happens.
    ///
    /// # Errors
    /// The runtime's error; [`EcoFlError::Config`] when the kill never
    /// fired, so equal parameters would prove nothing;
    /// [`EcoFlError::Exec`] when the replayed parameters differ from the
    /// twin's.
    pub fn run(&self, mut on_step: impl FnMut(KillStep)) -> Result<(), EcoFlError> {
        let (stages, seed, lr) = (self.stages, self.seed, 0.1);
        // A small MLP, one hidden block per device.
        let widths: Vec<usize> = std::iter::once(16)
            .chain(std::iter::repeat_n(24, stages - 1))
            .chain(std::iter::once(6))
            .collect();
        let factory = || -> SegmentFactory {
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
        let data: Vec<Vec<(Tensor, Vec<usize>)>> = (0..self.rounds)
            .map(|r| {
                let mut rng = Rng::new(seed.wrapping_add(1000 + r));
                (0..KILL_MICRO_BATCHES)
                    .map(|_| {
                        let x = Tensor::randn(&[bs, 16], 1.0, &mut rng);
                        let y = (0..bs).map(|_| rng.range_usize(0, 6)).collect();
                        (x, y)
                    })
                    .collect()
            })
            .collect();
        let k: Vec<usize> = (0..stages).map(|s| stages - s).collect();

        // Uninterrupted twin.
        let opts = RuntimeOptions::default();
        let mut twin = PipelineTrainer::launch_supervised(factory(), k.clone(), opts)?;
        for batch in &data {
            twin.train_round(batch, lr)?;
        }
        let twin_params = twin.params()?;
        twin.shutdown();

        // Faulty run: same seed, one injected kill.
        on_step(KillStep::Killing);
        let (stage, round, micro) = (self.stage, self.round, self.micro);
        let fault_plan = FaultPlan::kill_at(stage, round, micro);
        let opts = RuntimeOptions {
            fault_plan,
            ..RuntimeOptions::default()
        };
        let mut trainer = PipelineTrainer::launch_supervised(factory(), k, opts)?;
        let (mut r, mut faults) = (0u64, 0u32);
        while r < self.rounds {
            match trainer.train_round(&data[r as usize], lr) {
                Ok(loss) => {
                    on_step(KillStep::Round(r, loss));
                    r += 1;
                }
                Err(e) => {
                    on_step(KillStep::Fault(r, e));
                    faults += 1;
                    r = trainer.recover()?;
                    on_step(KillStep::Recovered(r));
                }
            }
        }
        let params = trainer.params()?;
        trainer.shutdown();
        if faults == 0 {
            Err(EcoFlError::Config("the injected kill never fired".into()))
        } else if params == twin_params {
            Ok(())
        } else {
            let during = "recovery verification (parameters diverged from twin)".into();
            Err(EcoFlError::Exec(ExecError::StageDied { stage, during }))
        }
    }
}

/// The FL run of `fl` and `trace --scenario fl`, which differ only in
/// their `(clients, horizon, dataset)` defaults.
pub struct Fl {
    pub strategy: Strategy,
    pub dataset: SyntheticSpec,
    pub setup: FlSetup,
}

impl Fl {
    /// The scale knobs read 0 (or absent) as "auto": `--shards` one data
    /// shard per client, larger populations round-robin onto the shards;
    /// `--clients-per-round` `(clients / 3).clamp(4, 20)`; `--groups` the
    /// config default; `--grouping-batch` exact greedy association below
    /// 10k clients and 8192-client mini-batches from there.
    fn from_flags(f: &Flags, defaults: (usize, f64, &str)) -> Result<Fl, EcoFlError> {
        let or_auto = |n: usize, auto: usize| if n == 0 { auto } else { n };
        let strategy = match f.value("strategy").unwrap_or("ecofl") {
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
            other => {
                let known = "(fedavg, fedasync, fedat, astraea, ecofl, ecofl-static)";
                return Err(EcoFlError::Parse(format!(
                    "unknown strategy '{other}' {known}"
                )));
            }
        };
        let clients = f.get("num_clients", defaults.0)?;
        let horizon = f.get("horizon", defaults.1)?;
        let seed = f.get("seed", 42u64)?;
        let comm_latency = f.get("comm_latency", FlConfig::default().comm_latency)?;
        let dataset = match f.value("dataset").unwrap_or(defaults.2) {
            "mnist" => SyntheticSpec::mnist_like(),
            "fashion" => SyntheticSpec::fashion_like(),
            "cifar" => SyntheticSpec::cifar_like(),
            other => {
                let known = "(mnist, fashion, cifar)";
                return Err(EcoFlError::Parse(format!(
                    "unknown dataset '{other}' {known}"
                )));
            }
        };
        let shards = or_auto(f.get("shards", 0)?, clients);
        let clients_per_round = f.get("clients_per_round", 0)?;
        let groups = f.get("num_groups", 0)?;
        let auto_batch = if clients >= AUTO_BATCH_THRESHOLD {
            AUTO_BATCH_SIZE
        } else {
            0
        };
        let grouping_batch = f.get("grouping_batch", auto_batch)?;
        if shards > clients {
            let clients_flag = flag_of(f.tables, "num_clients");
            let why = format!(" {shards} exceeds --{clients_flag} {clients}");
            return Err(f.refuse("shards", why));
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
            let mut fields = f.tables.iter().flat_map(|t| t.iter());
            let named = fields.find_map(|&(field, flag)| {
                let rest = e.strip_prefix(field)?;
                rest.starts_with(' ').then(|| format!("--{flag}{rest}"))
            });
            EcoFlError::Config(named.unwrap_or(e))
        })?;
        let scheme = PartitionScheme::ClassesPerClient(2);
        let data = FederatedDataset::generate(&dataset, shards, 60, 50, scheme, None, seed);
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
        Ok(Fl {
            strategy,
            dataset,
            setup,
        })
    }

    /// Runs the federation, recorded into `tracer` (`None` for nothing).
    pub fn run<'a>(&'a self, tracer: impl Into<Option<&'a Tracer>>) -> RunResult {
        run_fl(self.strategy, &self.setup, tracer)
    }

    /// [`Fl::run`] into `recorder`'s store, and the convergence metrics
    /// recomputed from this run's blocks alone: the gauge-kind query
    /// prunes every block without accuracy samples.
    ///
    /// # Errors
    /// [`EcoFlError::Io`] naming the store.
    pub fn record(
        &self,
        recorder: &Recorder,
    ) -> Result<(Stored<RunResult>, ConvergenceSummary), EcoFlError> {
        let stored = recorder.record(|tracer| Ok(self.run(tracer)))?;
        let gauges = TraceQuery::new().kind(RecordKind::Gauge);
        let mut samples = Vec::new();
        stored.read_own_blocks(&gauges, |records| {
            samples.extend(records.into_iter().filter(|r| gauges.matches(r)));
        })?;
        let samples = TraceView::from_records(samples);
        let summary = summarize_view(&samples, &stored.run.strategy, &[0.3, 0.5, 0.7, 0.9])
            .map_err(store_err(&stored.dir))?;
        Ok((stored, summary))
    }
}

/// Where a `trace` scenario records: `--store DIR`, or a directory named
/// after the scenario under the shared trace dir, in blocks of
/// `--block-records` records.
pub struct Recorder {
    dir: PathBuf,
    block_records: usize,
}

impl Recorder {
    fn from_flags(f: &Flags, name: &str) -> Result<Recorder, EcoFlError> {
        let dir = f
            .value("dir")
            .map_or_else(|| trace_dir().join(name), PathBuf::from);
        let block_records = f.positive("block_records", BLOCK_RECORDS)?;
        Ok(Recorder { dir, block_records })
    }

    fn record<T>(
        &self,
        run: impl FnOnce(&Tracer) -> Result<T, EcoFlError>,
    ) -> Result<Stored<T>, EcoFlError> {
        record_trace(&self.dir, self.block_records, run)
    }
}

/// A read of an existing run store: `trace --store` answers a
/// summary-pruned query, `metrics --store` rolls up every record.
pub struct Inspect {
    pub dir: PathBuf,
    pub query: TraceQuery,
    /// `--limit`: matching records printed.
    pub limit: usize,
}

impl Inspect {
    fn from_flags(f: &Flags) -> Result<Inspect, EcoFlError> {
        let dir = PathBuf::from(f.require("dir")?);
        let mut query = TraceQuery::new();
        if let Some(spec) = f.value("rounds") {
            // `b < a` is an error, not a query that silently matches nothing.
            let flag = flag_of(f.tables, "rounds");
            let bad = || EcoFlError::Parse(format!("bad --{flag} '{spec}' (expected a..b)"));
            let bound = |s: &str| s.trim().parse::<u64>().ok();
            let (a, b) = spec.split_once("..").ok_or_else(bad)?;
            let range = bound(a).zip(bound(b)).map(|(a, b)| a..b).ok_or_else(bad)?;
            if range.end < range.start {
                return Err(f.refuse("rounds", format!(" {spec}: the end is below the start")));
            }
            query = query.rounds(range);
        }
        if let Some(d) = f.value("domain") {
            query = query.domain(d.parse::<Domain>().map_err(EcoFlError::Parse)?);
        }
        if let Some(k) = f.value("kind") {
            query = query.kind(k.parse::<RecordKind>().map_err(EcoFlError::Parse)?);
        }
        if let Some(d) = f.opt::<f64>("min_duration")? {
            // No span is shorter than NaN, so the query would match them all.
            if d.is_nan() {
                return Err(f.refuse("min_duration", " must be a number of seconds, got NaN"));
            }
            query = query.min_duration(d);
        }
        Ok(Inspect {
            dir,
            query,
            limit: f.get("limit", 10)?,
        })
    }

    /// Opens the store read-only.
    ///
    /// # Errors
    /// [`EcoFlError::Io`] naming the store.
    pub fn open(&self) -> Result<RunStore, EcoFlError> {
        RunStore::open(self.dir.as_path()).map_err(store_err(&self.dir))
    }

    /// [`RunStore::scan`] of `store` under the query.
    ///
    /// # Errors
    /// [`EcoFlError::Io`] naming the store.
    pub fn scan(
        &self,
        store: &RunStore,
        visit: impl FnMut(TraceRecord),
    ) -> Result<(usize, usize), EcoFlError> {
        store.scan(&self.query, visit).map_err(store_err(&self.dir))
    }
}

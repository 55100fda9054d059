//! The end-to-end Eco-FL system.
//!
//! Ties the two halves of the paper together the way Fig. 2 draws them:
//!
//! 1. **Client side** — every smart home's device cluster is planned into
//!    an edge collaborative pipeline (§4: Eq. 1 partitioning, §4.3
//!    orchestration). The planned pipeline's simulated throughput
//!    determines how fast that home finishes one FL round.
//! 2. **Server side** — those pipeline-derived response latencies feed the
//!    grouping-based hierarchical FL engine (§5), which trains a real
//!    model over synthetic non-IID data with Eco-FL aggregation.

use crate::error::EcoFlError;
use crate::record::{record_trace, BLOCK_RECORDS};
use ecofl_data::federated::PartitionScheme;
use ecofl_data::{FederatedDataset, SyntheticSpec};
use ecofl_fl::engine::{run as run_fl, FlSetup, RunResult, Strategy};
use ecofl_fl::FlConfig;
use ecofl_models::{efficientnet, ModelArch, ModelProfile};
use ecofl_obs::{RunStore, Tracer};
use ecofl_pipeline::orchestrator::{search_configuration, OrchestratorConfig, PipelinePlan};
use ecofl_simnet::{Device, DeviceSpec, Link};
use std::path::PathBuf;

/// A participating client: a named cluster of trusted in-home devices.
#[derive(Debug, Clone)]
pub struct SmartHome {
    /// Display name.
    pub name: String,
    /// The home's trusted devices (portal node first by convention).
    pub devices: Vec<DeviceSpec>,
}

impl SmartHome {
    /// Creates a home from its device list.
    ///
    /// # Panics
    /// Panics if the device list is empty.
    #[must_use]
    pub fn new(name: &str, devices: Vec<DeviceSpec>) -> Self {
        assert!(!devices.is_empty(), "SmartHome: need at least one device");
        Self {
            name: name.to_owned(),
            devices,
        }
    }
}

/// Builder for [`EcoFlSystem`].
#[derive(Debug, Clone)]
pub struct EcoFlSystemBuilder {
    homes: Vec<SmartHome>,
    replicate_to: Option<usize>,
    fl_config: FlConfig,
    dataset: SyntheticSpec,
    scheme: PartitionScheme,
    samples_per_client: usize,
    test_per_class: usize,
    pipeline_model: ModelProfile,
    orchestrator: OrchestratorConfig,
    strategy: Strategy,
    seed: u64,
    run_store: Option<PathBuf>,
}

impl Default for EcoFlSystemBuilder {
    fn default() -> Self {
        Self {
            homes: Vec::new(),
            replicate_to: None,
            fl_config: FlConfig::default(),
            dataset: SyntheticSpec::mnist_like(),
            scheme: PartitionScheme::ClassesPerClient(2),
            samples_per_client: 60,
            test_per_class: 50,
            pipeline_model: efficientnet(0),
            orchestrator: OrchestratorConfig {
                global_batch: 64,
                mbs_candidates: vec![16, 8, 4],
                eval_rounds: 1,
                ..OrchestratorConfig::default()
            },
            strategy: Strategy::EcoFl {
                dynamic_grouping: true,
            },
            seed: 42,
            run_store: None,
        }
    }
}

impl EcoFlSystemBuilder {
    /// Sets the smart-home templates (at least one required).
    #[must_use]
    pub fn homes(mut self, homes: Vec<SmartHome>) -> Self {
        self.homes = homes;
        self
    }

    /// Cycles the home templates to reach `n` FL clients (the paper uses
    /// 300 clients built from a handful of hardware profiles).
    #[must_use]
    pub fn replicate_homes(mut self, n: usize) -> Self {
        self.replicate_to = Some(n);
        self
    }

    /// Overrides the FL configuration.
    #[must_use]
    pub fn fl_config(mut self, cfg: FlConfig) -> Self {
        self.fl_config = cfg;
        self
    }

    /// Selects the synthetic dataset family.
    #[must_use]
    pub fn dataset(mut self, spec: SyntheticSpec) -> Self {
        self.dataset = spec;
        self
    }

    /// Selects the non-IID partition scheme.
    #[must_use]
    pub fn partition(mut self, scheme: PartitionScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Sets training samples per client.
    #[must_use]
    pub fn samples_per_client(mut self, n: usize) -> Self {
        self.samples_per_client = n;
        self
    }

    /// Sets test-set samples per class.
    #[must_use]
    pub fn test_per_class(mut self, n: usize) -> Self {
        self.test_per_class = n;
        self
    }

    /// Overrides the pipeline orchestrator configuration (global batch,
    /// micro-batch candidates, evaluation rounds, and the schedule every
    /// home's plan is searched and evaluated under).
    #[must_use]
    pub fn orchestrator(mut self, cfg: OrchestratorConfig) -> Self {
        self.orchestrator = cfg;
        self
    }

    /// Sets the DNN whose pipeline training defines each home's speed.
    #[must_use]
    pub fn pipeline_model(mut self, model: ModelProfile) -> Self {
        self.pipeline_model = model;
        self
    }

    /// Selects the server aggregation strategy (default: Eco-FL with
    /// dynamic grouping).
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the global seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Persists every run of the built system to the segmented run
    /// store at `path`: each run records its FL trace straight into the
    /// store's trace segment, one block as it fills, and seals it, so it
    /// can be queried offline with `TraceQuery` without re-running.
    /// [`build`] opens (or creates) the store to fail bad paths early; a
    /// write failure during [`run`] is an [`EcoFlError::Io`], never a
    /// silently lost trace.
    ///
    /// [`build`]: Self::build
    /// [`run`]: EcoFlSystem::run
    #[must_use]
    pub fn run_store(mut self, path: impl Into<PathBuf>) -> Self {
        self.run_store = Some(path.into());
        self
    }

    /// Validates and assembles the system.
    ///
    /// # Errors
    /// [`EcoFlError::Config`] when no homes are configured, a home has
    /// no devices (its `devices` field is public, so a literal can skip
    /// [`SmartHome::new`]'s check) or the FL config fails
    /// [`FlConfig::validate`] (non-positive eval interval, negative
    /// communication latency, …); [`EcoFlError::Plan`] when some home
    /// admits no feasible pipeline plan.
    pub fn build(self) -> Result<EcoFlSystem, EcoFlError> {
        if self.homes.is_empty() {
            return Err(EcoFlError::Config(
                "EcoFlSystem: at least one smart home is required".into(),
            ));
        }
        if let Some(home) = self.homes.iter().find(|h| h.devices.is_empty()) {
            return Err(EcoFlError::Config(format!(
                "EcoFlSystem: home {} has no devices",
                home.name
            )));
        }
        self.fl_config
            .validate()
            .map_err(|msg| EcoFlError::Config(format!("EcoFlSystem: {msg}")))?;
        let link = Link::mbps_100();
        let mut plans = Vec::with_capacity(self.homes.len());
        for home in &self.homes {
            let devices: Vec<Device> = home
                .devices
                .iter()
                .map(|spec| Device::new(spec.clone()))
                .collect();
            let plan =
                search_configuration(&self.pipeline_model, &devices, &link, &self.orchestrator)
                    .ok_or_else(|| {
                        EcoFlError::Plan(format!(
                            "EcoFlSystem: no feasible pipeline plan for home {}",
                            home.name
                        ))
                    })?;
            plans.push(plan);
        }
        if let Some(dir) = &self.run_store {
            RunStore::open_or_create(dir)
                .map_err(|e| EcoFlError::Config(format!("run store {}: {e}", dir.display())))?;
        }
        Ok(EcoFlSystem {
            builder: self,
            plans,
        })
    }

    /// Shorthand: `EcoFlSystem::builder()`.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Report of one full system run.
#[derive(Debug, Clone)]
pub struct EcoFlReport {
    /// One pipeline plan per smart-home template, in input order.
    pub pipeline_plans: Vec<PipelinePlan>,
    /// Pipeline-derived base response delay per FL client, seconds.
    pub client_delays: Vec<f64>,
    /// The FL run result under the configured strategy.
    pub fl: RunResult,
}

/// A validated, ready-to-run Eco-FL system.
#[derive(Debug)]
pub struct EcoFlSystem {
    builder: EcoFlSystemBuilder,
    plans: Vec<PipelinePlan>,
}

impl EcoFlSystem {
    /// Starts building a system.
    #[must_use]
    pub fn builder() -> EcoFlSystemBuilder {
        EcoFlSystemBuilder::default()
    }

    /// Pipeline plans per home template (available before running).
    #[must_use]
    pub fn plans(&self) -> &[PipelinePlan] {
        &self.plans
    }

    /// Runs the full system: pipeline-derived latencies → hierarchical FL.
    ///
    /// `tracer` observes the whole FL phase (`None` for nothing): it
    /// records rounds, local-train windows, aggregations, staleness
    /// weights and re-grouping events at virtual timestamps. The report
    /// is identical with or without it. A system with a run store
    /// records into the store instead, so it takes `None`.
    ///
    /// # Errors
    /// [`EcoFlError::Config`] when a tracer is passed to a system with a
    /// run store; [`EcoFlError::Io`] when the run store cannot be opened
    /// or written.
    pub fn run<'a>(
        &self,
        tracer: impl Into<Option<&'a Tracer>>,
    ) -> Result<EcoFlReport, EcoFlError> {
        let tracer: Option<&Tracer> = tracer.into();
        let b = &self.builder;
        if b.run_store.is_some() && tracer.is_some() {
            return Err(EcoFlError::Config(
                "EcoFlSystem::run: a system with a run_store records into it; \
                 pass None, not a tracer"
                    .into(),
            ));
        }
        let n_clients = b.replicate_to.unwrap_or(b.homes.len()).max(b.homes.len());

        // One FL round ≈ e local epochs over the client's shard, executed
        // by the home's pipeline at its simulated throughput.
        let samples_per_round = (b.fl_config.local_epochs * b.samples_per_client) as f64;
        let client_delays: Vec<f64> = (0..n_clients)
            .map(|c| {
                let plan = &self.plans[c % self.plans.len()];
                samples_per_round / plan.report.throughput.max(1e-9)
            })
            .collect();

        let rlg: Vec<usize> = (0..n_clients).map(|c| c % b.fl_config.num_groups).collect();
        let needs_rlg = matches!(
            b.scheme,
            PartitionScheme::RlgIid | PartitionScheme::RlgNiid(_)
        );
        let data = FederatedDataset::generate(
            &b.dataset,
            n_clients,
            b.samples_per_client,
            b.test_per_class,
            b.scheme,
            needs_rlg.then_some(rlg.as_slice()),
            b.seed,
        );

        let mut fl_config = b.fl_config.clone();
        fl_config.num_clients = n_clients;
        fl_config.base_delay_override = Some(client_delays.clone());
        fl_config.seed = b.seed;

        let setup = FlSetup {
            data,
            arch: ModelArch::Mlp,
            config: fl_config,
        };
        let fl = match &b.run_store {
            Some(dir) => {
                record_trace(dir, BLOCK_RECORDS, |tracer| {
                    Ok(run_fl(b.strategy, &setup, tracer))
                })?
                .run
            }
            None => run_fl(b.strategy, &setup, tracer),
        };
        Ok(EcoFlReport {
            pipeline_plans: self.plans.clone(),
            client_delays,
            fl,
        })
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use ecofl_pipeline::schedule::ScheduleKind;
    use ecofl_simnet::{nano_h, nano_l, tx2_q};

    fn homes() -> Vec<SmartHome> {
        vec![
            SmartHome::new("fast", vec![tx2_q(), nano_h()]),
            SmartHome::new("slow", vec![nano_l()]),
        ]
    }

    fn quick_cfg() -> FlConfig {
        FlConfig {
            horizon: 200.0,
            eval_interval: 50.0,
            clients_per_round: 4,
            num_groups: 2,
            ..FlConfig::tiny()
        }
    }

    #[test]
    fn builder_requires_homes() {
        assert!(EcoFlSystem::builder().build().is_err());
    }

    #[test]
    fn system_plans_and_runs() {
        let system = EcoFlSystem::builder()
            .homes(homes())
            .replicate_homes(8)
            .fl_config(quick_cfg())
            .seed(3)
            .build()
            .expect("feasible");
        assert_eq!(system.plans().len(), 2);
        let report = system.run(None).expect("runs");
        assert_eq!(report.client_delays.len(), 8);
        assert!(report.fl.global_updates > 0);
        // The multi-device fast home must out-pace the lone Nano-L.
        assert!(
            report.client_delays[0] < report.client_delays[1],
            "fast home delay {} vs slow {}",
            report.client_delays[0],
            report.client_delays[1]
        );
    }

    #[test]
    fn every_schedule_kind_plans_end_to_end() {
        for kind in ScheduleKind::all() {
            let system = EcoFlSystem::builder()
                .homes(homes())
                .replicate_homes(4)
                .fl_config(quick_cfg())
                .orchestrator(OrchestratorConfig {
                    global_batch: 64,
                    mbs_candidates: vec![16, 8, 4],
                    eval_rounds: 1,
                    schedule: kind,
                })
                .seed(3)
                .build()
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            for plan in system.plans() {
                assert!(
                    plan.report.throughput > 0.0,
                    "{}: zero throughput",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn builder_errors_are_typed() {
        match EcoFlSystem::builder().build() {
            Err(EcoFlError::Config(msg)) => assert!(msg.contains("at least one smart home")),
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn builder_names_a_home_without_devices() {
        // A struct literal skips `SmartHome::new`'s assert.
        let mut homes = homes();
        homes.push(SmartHome {
            name: "empty-nest".into(),
            devices: Vec::new(),
        });
        match EcoFlSystem::builder().homes(homes).build() {
            Err(EcoFlError::Config(msg)) => {
                assert!(msg.contains("home empty-nest has no devices"), "{msg:?}");
            }
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn builder_rejects_invalid_fl_config() {
        // Each broken field surfaces as a typed Config error at build
        // time, before any pipeline planning runs.
        type BreakField = fn(&mut FlConfig);
        let cases: &[(BreakField, &str)] = &[
            (|c| c.eval_interval = 0.0, "eval_interval"),
            (|c| c.comm_latency = -1.0, "comm_latency"),
        ];
        for (break_field, field) in cases {
            let mut cfg = quick_cfg();
            break_field(&mut cfg);
            match EcoFlSystem::builder().homes(homes()).fl_config(cfg).build() {
                Err(EcoFlError::Config(msg)) => {
                    assert!(msg.contains(field), "{field}: message was {msg:?}");
                }
                other => panic!("{field}: expected Config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn traced_system_run_matches_untraced() {
        let system = EcoFlSystem::builder()
            .homes(homes())
            .replicate_homes(6)
            .fl_config(quick_cfg())
            .test_per_class(40)
            .orchestrator(OrchestratorConfig {
                global_batch: 64,
                mbs_candidates: vec![16, 8],
                eval_rounds: 1,
                ..OrchestratorConfig::default()
            })
            .seed(11)
            .build()
            .expect("feasible");
        let plain = system.run(None).expect("runs");
        let tracer = Tracer::new();
        let traced = system.run(&tracer).expect("runs");
        assert_eq!(plain.fl.accuracy, traced.fl.accuracy);
        assert_eq!(plain.client_delays, traced.client_delays);
        let view = tracer.view();
        assert!(view.counter_total("global_updates") > 0.0);
        assert!(!view.gauge_series("accuracy").is_empty());
    }

    #[test]
    fn comm_latency_plumbs_through_to_the_fl_scheduler() {
        let make = |comm: f64| {
            EcoFlSystem::builder()
                .homes(homes())
                .replicate_homes(6)
                .fl_config(FlConfig {
                    comm_latency: comm,
                    ..quick_cfg()
                })
                .seed(5)
                .build()
                .unwrap()
                .run(None)
                .expect("runs")
        };
        let cheap = make(0.0);
        let costly = make(60.0);
        // A 60 s uplink tax on every round must slow the update rate at
        // an equal horizon; the pipeline half is untouched by it.
        assert!(
            costly.fl.global_updates < cheap.fl.global_updates,
            "comm latency {} updates vs {}",
            costly.fl.global_updates,
            cheap.fl.global_updates
        );
        assert_eq!(cheap.client_delays, costly.client_delays);
    }

    #[test]
    fn run_store_persists_the_fl_trace_or_reports_an_io_error() {
        let dir = std::env::temp_dir().join(format!("ecofl-system-store-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let system = EcoFlSystem::builder()
            .homes(homes())
            .replicate_homes(6)
            .fl_config(quick_cfg())
            .run_store(&dir)
            .seed(13)
            .build()
            .expect("feasible");
        let report = system.run(None).expect("runs");
        assert!(report.fl.global_updates > 0);
        // FNV-1a 64 of the trace segment, as the in-memory-tracer-then-
        // append writer of earlier builds wrote it: both writers cut the
        // same blocks, so the recorder must not change a byte.
        let seg = std::fs::read(dir.join("trace.seg")).expect("trace segment");
        let digest = seg.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(
            format!("{digest:016x}"),
            "62132d62fc7d5aa1",
            "trace.seg bytes"
        );
        let store = RunStore::open(&dir).expect("store was written");
        assert!(store.record_count() > 0, "FL trace must be in the store");
        let summary = ecofl_fl::summarize_store(&store, "eco-fl", &[0.3])
            .expect("summary straight off the store");
        assert!(summary.best_accuracy > 0.0);
        // The store path turns into a regular file behind the system's
        // back: the next run's write fails typed, not with a panic.
        drop(store);
        std::fs::remove_dir_all(&dir).expect("the store directory exists");
        std::fs::write(&dir, b"not a directory").expect("writes");
        match system.run(None) {
            Err(EcoFlError::Io(msg)) => assert!(msg.contains("run store"), "{msg}"),
            other => panic!("expected Io error, got {other:?}"),
        }
        std::fs::remove_file(&dir).ok();
    }

    #[test]
    fn deterministic_system_runs() {
        let make = || {
            EcoFlSystem::builder()
                .homes(homes())
                .replicate_homes(6)
                .fl_config(quick_cfg())
                .seed(9)
                .build()
                .unwrap()
                .run(None)
                .expect("runs")
        };
        let a = make();
        let b = make();
        assert_eq!(a.fl.accuracy, b.fl.accuracy);
        assert_eq!(a.client_delays, b.client_delays);
    }
}

//! # ecofl-pipeline
//!
//! The edge collaborative pipeline-training engine of Eco-FL (§4 of the
//! paper), plus every baseline it is compared against.
//!
//! ## Simulation side (drives Figs. 4, 5, 11, 12, 13 and Table 2)
//!
//! - [`profiler`] — per-stage forward/backward compute and communication
//!   times from analytic model profiles and device specs (§4.2 profiling),
//! - [`partition`] — the heterogeneity-aware dynamic-programming workload
//!   partitioner of Eq. 1, with memory-capacity constraints, and the
//!   PipeDream-style homogeneous splitter used as the Fig. 12 baseline,
//! - [`orchestrator`] — bubble analysis (SSB of Eq. 2, DDB), the in-flight
//!   forward bounds `P_s` of Eq. 3, memory bounds `Q_s`, `K_s = min(P_s,
//!   Q_s)`, and the device-order / micro-batch-size search of §4.3,
//! - [`schedule`] — [`SchedulePolicy`], the one value that names a
//!   schedule (1F1B-Sync, BAF-Sync, 1F1B-Async, interleaved 1F1B,
//!   zero-bubble) with its residency bounds `K_s`, answers the
//!   executor's admission queries and generates the deterministic
//!   per-stage task stream; [`ScheduleKind`] is its data-free tag,
//! - [`executor`] — a discrete-event executor that runs any of the five
//!   schedules over simulated devices and links, with per-stage memory
//!   accounting (OOM detection), one compute span per executed task, and
//!   busy time and bubbles folded from those spans,
//! - [`baselines`] — data-parallel and single-device training cost models
//!   (the Fig. 10/11 comparison points),
//! - [`adaptive`] — the §4.4 runtime: periodic stage-time reports, lagger
//!   detection, repartitioning, workload migration and pipeline restart
//!   (Fig. 13).
//!
//! ## Prototype side
//!
//! - [`runtime`] — a real multi-threaded 1F1B-Sync pipeline: each stage is
//!   an OS thread owning a segment of a genuine `ecofl-tensor` network,
//!   connected by bounded MPMC channels, walking the same per-stage task
//!   stream the schedule layer generates. Its updates are bit-identical
//!   to single-device gradient-accumulation training, which the tests
//!   assert — the 1F1B-Sync schedule changes execution order, never
//!   semantics.

pub mod adaptive;
pub mod baselines;
pub mod executor;
pub mod gantt;
pub mod orchestrator;
pub mod partition;
pub mod profiler;
pub mod runtime;
pub mod schedule;

pub use adaptive::SpikeError;
pub use baselines::{data_parallel_epoch, single_device_epoch};
pub use executor::{ExecutionReport, PipelineExecutor, SchedulePolicy};
pub use orchestrator::{search_configuration, OrchestratorConfig};
pub use partition::partition_dp;
pub use profiler::PipelineProfile;
pub use schedule::ScheduleKind;

//! # ecofl-fl
//!
//! The federated-learning half of the Eco-FL reproduction (§5): a
//! virtual-time simulation engine in which *real* models are trained with
//! *real* SGD on every client, while response latencies, grouping,
//! aggregation order and runtime dynamics follow the paper's §6.1 setup.
//!
//! The server side is split scheduler-from-strategy, Flower-style: one
//! event-driven round scheduler drives every aggregation policy through
//! a trait object, mirroring the schedule-policy/execution-engine split
//! the pipeline half already has.
//!
//! ## Module map
//!
//! - [`config`] — experiment configuration (300 clients, ≤20 concurrent,
//!   `e = 3` local epochs, batch 10, FedProx `µ = 0.05`, 5 response-latency
//!   groups, dynamic collaborative degrees in {0.2 … 1.0}),
//! - [`client`] — local training: `e` epochs of mini-batch SGD with the
//!   optional proximal pull toward the group model,
//! - [`aggregate`] — weighted FedAvg averaging and FedAsync α-mixing with
//!   polynomial staleness discounting,
//! - [`latency`] — per-client response-latency model (normal base delay ×
//!   collaborative degree) and the runtime degree-resampling dynamics,
//! - [`sched`] — the event-driven round scheduler: virtual clock
//!   ([`ecofl_simnet::EventQueue`] of cohort completions), client
//!   dispatch, evaluation cadence, tracer instrumentation, and local
//!   training folded into the average client by client, in member order,
//! - `strategies` — [`sched::AggregationStrategy`] objects deciding
//!   what to aggregate and when: FedAvg, FedAsync, and the hierarchical
//!   family (FedAT, Astraea, Eco-FL ± Algorithm 1 dynamic re-grouping),
//! - [`engine`] — the [`Strategy`] selector, run setup and
//!   result types, and the [`engine::run`] entry point,
//! - [`metrics`] — convergence summaries from results or traces,
//! - [`mod@reference`] — centralized accuracy-per-epoch reference curves used
//!   to compose the Fig. 10 time-to-accuracy plots.

pub mod aggregate;
pub mod client;
pub mod config;
pub mod engine;
pub mod latency;
pub mod metrics;
pub mod reference;
pub mod sched;
pub(crate) mod strategies;

pub use aggregate::{fedasync_mix, weighted_average};
pub use client::{local_train, LocalTrainConfig};
pub use config::{DynamicsConfig, FlConfig};
pub use engine::{FlSetup, Strategy};
pub use latency::LatencyModel;
pub use metrics::{summarize_store, summarize_view, ConvergenceSummary};
pub use sched::{AggregationStrategy, Scheduler};
pub use strategies::strategy_object;

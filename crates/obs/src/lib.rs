//! # ecofl-obs
//!
//! The unified **virtual-time** observability layer of the Eco-FL
//! reproduction: one substrate through which every timing claim of the
//! paper — 1F1B-Sync bubble structure (§4.3, Eqs. 2–3), lagger detection
//! and re-scheduling latency (§4.4), staleness-adaptive async mixing
//! (§5.1), and Algorithm 1 re-grouping — is recorded, queried, and
//! exported.
//!
//! ## Design
//!
//! - **Virtual time only.** Every record carries timestamps read from the
//!   simulation clocks (`ecofl_simnet::EventQueue` / executor virtual
//!   time), never wall time. Two runs with the same seed produce
//!   byte-identical traces.
//! - **One store, in recording order.** A [`Tracer`] is a cloneable
//!   handle; every clone pushes onto one shared buffer, so each handle
//!   sees every record the moment it is made. Engines record on the
//!   thread that runs them, so the buffer's lock is never contended.
//!   `Tracer::new` keeps the whole trace in memory; a tracer made from a
//!   [`RunStore`] (`Tracer::from(store)`) writes each block into it as
//!   the block fills, so it holds less than one block, and
//!   [`Tracer::into_store`] seals the trace. Either way the store's
//!   bytes are the same.
//! - **Typed records.** [`TraceRecord`] is a closed enum of spans,
//!   events, counters, and gauges — no stringly-typed keys on the hot
//!   path; see `record`.
//! - **Std-only.** No async runtime, no external deps; JSON encoding via
//!   `ecofl-compat`'s serde layer.
//!
//! ## One recorder
//!
//! The tracer is the only recorder of virtual time: a metric over a
//! run — a counter total, a gauge's extremes, a span-duration
//! percentile — is a fold over its records. What a trace cannot hold
//! is wall-clock time, so [`metrics`] keeps a [`MetricsHub`] of
//! counters and exact count/sum/min/max histograms for the threaded
//! pipeline runtime alone, reached through its `RuntimeOptions`; it
//! never influences results (see `tests/metrics_perturbation.rs`).
//!
//! ## Non-goals
//!
//! For the *trace* layer: no wall-clock timestamps, no
//! sampling/overflow dropping (traces are complete or the run
//! aborts), and no cross-process collection — consumers read a
//! finished [`TraceView`], the run store, or the JSONL file a run
//! exported.
//!
//! ```
//! use ecofl_obs::{Domain, SpanKind, Tracer};
//! let tracer = Tracer::new();
//! tracer.span(Domain::Pipeline, SpanKind::Forward, 0, 0, 0, 0.0, 1.5);
//! tracer.span(Domain::Pipeline, SpanKind::Backward, 0, 0, 0, 1.5, 4.0);
//! let view = tracer.view();
//! assert_eq!(view.records().len(), 2);
//! assert!(view.makespan() >= 4.0);
//! ```

mod block;
pub mod metrics;
pub(crate) mod record;
pub mod store;
pub(crate) mod tracer;
pub(crate) mod view;

pub use metrics::{Counter, Histogram, MetricsHub, MetricsSnapshot};
pub use record::{
    CounterRecord, Domain, EventKind, EventRecord, GaugeRecord, SpanKind, SpanRecord, TraceRecord,
};
pub use store::{trace_dir, RecordKind, RunStore, TraceQuery};
pub use tracer::Tracer;
pub use view::{ComputeSummary, Rollup, TraceView};

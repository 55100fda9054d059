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
//!   handle; every clone pushes onto one shared `Vec`, so each handle
//!   sees every record the moment it is made. Engines record on the
//!   thread that runs them, so the store's lock is never contended.
//! - **Typed records.** [`TraceRecord`] is a closed enum of spans,
//!   events, counters, and gauges — no stringly-typed keys on the hot
//!   path; see `record`.
//! - **Std-only.** No async runtime, no external deps; JSON encoding via
//!   `ecofl-compat`'s serde layer.
//!
//! ## Streaming metrics
//!
//! The trace substrate is exact and replayable but O(events) in
//! memory. Its streaming complement is [`metrics`]: a [`MetricsHub`]
//! of bounded-memory aggregators (counters, gauges, quantile
//! sketches) that *is* allowed to observe wall-clock time — it feeds
//! live dashboards and per-round [`MetricsSnapshot`] rollups, and by
//! construction never influences virtual-time results (see the
//! perturbation gate in `tests/metrics_perturbation.rs`).
//!
//! ## Non-goals
//!
//! For the *trace* layer: no wall-clock timestamps, no
//! sampling/overflow dropping (traces are complete or the run
//! aborts), and no cross-process collection — consumers read a
//! finished [`TraceView`] or the JSONL file a run exported. Live
//! observation belongs to the metrics layer, not the tracer.
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
pub(crate) mod context;
pub mod metrics;
pub(crate) mod record;
pub(crate) mod sink;
pub mod store;
pub(crate) mod tracer;
pub(crate) mod view;

pub use context::Obs;
pub use metrics::{Counter, Gauge, Histogram, LogHistogram, MetricsHub, MetricsSnapshot};
pub use record::{
    CounterRecord, Domain, EventKind, EventRecord, GaugeRecord, SpanKind, SpanRecord, TraceRecord,
};
pub use sink::trace_dir;
pub use store::{RecordKind, RunStore, TraceQuery};
pub use tracer::Tracer;
pub use view::TraceView;

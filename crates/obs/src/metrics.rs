//! The wall-clock metrics hub of the threaded pipeline runtime.
//!
//! Everything the paper times happens in virtual time and is recorded by
//! the [`Tracer`](crate::Tracer); a metric over virtual time is a fold
//! over its records. The one thing a trace cannot hold is *real* time:
//! the threaded runtime's per-stage compute, portal waits, checkpoints
//! and restores, measured with `Instant`. A [`MetricsHub`] handed in
//! through `RuntimeOptions::metrics` collects those as named
//! [`Counter`]s and [`Histogram`]s, and [`MetricsHub::snapshot`] rolls
//! them into a [`MetricsSnapshot`].
//!
//! A hub is a cheap cloneable handle (an `Arc`); a registry lookup takes
//! the registry lock once, after which the returned handle touches only
//! its own cell, so the runtime resolves its handles at launch. Recording
//! never perturbs the computation: the runtime's parameters are
//! bit-identical with a hub attached or not
//! (`tests/metrics_perturbation.rs`).

use ecofl_compat::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotone counter handle. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` to the total (relaxed atomic add).
    pub fn inc(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }
}

/// A histogram handle: the exact count, sum, minimum and maximum of the
/// observations. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cell: Arc<Mutex<HistogramSnapshot>>,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: f64) {
        let mut h = self.cell.lock();
        h.min = if h.count == 0 { v } else { h.min.min(v) };
        h.max = if h.count == 0 { v } else { h.max.max(v) };
        h.count += 1;
        h.sum += v;
    }
}

#[derive(Debug, Default)]
struct HubInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// The metric registry: get-or-create named aggregators, roll them up
/// into snapshots. Cloning shares the registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    inner: Arc<HubInner>,
}

impl MetricsHub {
    /// Creates an empty hub.
    #[must_use]
    pub fn new() -> MetricsHub {
        MetricsHub::default()
    }

    /// The counter registered under `name` (created on first use).
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock();
        map.entry(name.to_owned()).or_default().clone()
    }

    /// The histogram registered under `name` (created on first use).
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.inner.histograms.lock();
        map.entry(name.to_owned()).or_default().clone()
    }

    /// Rolls every registered metric into a snapshot tagged `round`.
    /// Values are cumulative since hub creation; names sort
    /// alphabetically within each metric type.
    #[must_use]
    pub fn snapshot(&self, round: u64) -> MetricsSnapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .iter()
            .map(|(name, c)| CounterSnapshot {
                name: name.clone(),
                value: c.cell.load(Ordering::Relaxed),
            })
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .iter()
            .map(|(name, h)| HistogramSnapshot {
                name: name.clone(),
                ..h.cell.lock().clone()
            })
            .collect();
        MetricsSnapshot {
            round,
            counters,
            histograms,
        }
    }
}

/// One counter's rollup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Cumulative total.
    pub value: u64,
}

/// One histogram's rollup.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Exact sum.
    pub sum: f64,
    /// Exact minimum (`0.0` when empty).
    pub min: f64,
    /// Exact maximum (`0.0` when empty).
    pub max: f64,
}

/// A point-in-time rollup of every metric in a hub.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// The tick the snapshot closed.
    pub round: u64,
    /// Counter rollups, name-sorted.
    pub counters: Vec<CounterSnapshot>,
    /// Histogram rollups, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up a counter total by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a histogram rollup by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_clones() {
        let hub = MetricsHub::new();
        let a = hub.counter("reqs");
        let b = hub.counter("reqs");
        a.inc(2);
        b.inc(3);
        assert_eq!(hub.snapshot(0).counter("reqs"), Some(5));
        assert_eq!(hub.snapshot(0).counter("missing"), None);
    }

    #[test]
    fn histogram_holds_exact_count_sum_min_max() {
        let hub = MetricsHub::new();
        let _ = hub.histogram("empty");
        let h = hub.histogram("lat");
        for v in [3.0, -1.0, 2.5] {
            h.record(v);
        }
        hub.histogram("lat").record(7.0);
        let snap = hub.snapshot(4);
        let lat = snap.histogram("lat").expect("registered");
        assert_eq!((lat.count, lat.sum, lat.min, lat.max), (4, 11.5, -1.0, 7.0));
        let empty = snap.histogram("empty").expect("registered");
        assert_eq!((empty.count, empty.min, empty.max), (0, 0.0, 0.0));
        assert_eq!(snap.round, 4);
        assert_eq!(snap.histogram("missing"), None);
    }
}

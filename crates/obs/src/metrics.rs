//! Streaming metrics: bounded-memory aggregation for long runs.
//!
//! The trace layer ([`Tracer`](crate::Tracer)) materializes every
//! record — exact, replayable, and O(events) in memory, which is the
//! wrong trade at the ROADMAP's million-client target and says nothing
//! about the *real* threaded runtime. This module is the streaming
//! complement: a [`MetricsHub`] registry of named aggregators whose
//! memory is bounded regardless of how many observations flow through
//! them, rolled up on demand into a serializable [`MetricsSnapshot`].
//!
//! ## Aggregators
//!
//! - [`Counter`] — a monotone `u64` total. One relaxed atomic add per
//!   increment; 8 bytes of state.
//! - [`Gauge`] — last/min/max/sample-count of an `f64` series. One
//!   uncontended mutex per set; 32 bytes of state.
//! - [`Histogram`] — a mergeable log-bucketed quantile sketch in the
//!   DDSketch family: values map to geometric buckets
//!   `(γ^(i−1), γ^i]` with `γ = (1+α)/(1−α)`, so any quantile is
//!   answered within **relative error α** (default 1%). Bucket count
//!   is capped (`Histogram::MAX_BUCKETS`); on overflow the lowest
//!   buckets collapse into one, preserving upper-quantile accuracy.
//!   Worst-case memory is `O(max_buckets)` — independent of both the
//!   observation count and the value range.
//!
//! ## Recording model
//!
//! A [`MetricsHub`] is a cheap cloneable handle (an `Arc`); registry
//! lookups take a registry lock once, after which the returned
//! [`Counter`]/[`Gauge`]/[`Histogram`] handles touch only their own
//! cell — instrumented hot loops resolve their handles at setup time
//! and record lock-cheap thereafter. Recording never blocks on, or
//! perturbs, the traced computation: the perturbation gate in
//! `tests/metrics_perturbation.rs` proves virtual-time results and
//! traces are bit-identical with a hub attached or detached.
//!
//! ## Snapshots and export
//!
//! [`MetricsHub::snapshot`] rolls every registered metric into a
//! [`MetricsSnapshot`] (names sorted, cumulative-since-start values).
//! Snapshots serialize as JSON (the versioned
//! [`RunStore`](crate::store::RunStore) record kind — see
//! `append_snapshot`) and as Prometheus-style exposition text via
//! [`MetricsSnapshot::to_prometheus`] /
//! [`MetricsSnapshot::from_prometheus`], which round-trip exactly.

use ecofl_compat::serde::{Deserialize, Serialize};
use ecofl_compat::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Version tag carried by persisted snapshots (the `metrics.seg`
/// record kind of [`RunStore`](crate::store::RunStore)).
pub(crate) const METRICS_SNAPSHOT_VERSION: u32 = 1;

/// Default histogram relative-error bound α.
pub(crate) const DEFAULT_HISTOGRAM_ALPHA: f64 = 0.01;

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct CounterCell {
    value: AtomicU64,
}

/// A monotone counter handle. Cloning shares the cell.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<CounterCell>,
}

impl Counter {
    /// Adds `n` to the total (relaxed atomic add).
    pub fn inc(&self, n: u64) {
        self.cell.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.value.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct GaugeState {
    last: f64,
    min: f64,
    max: f64,
    count: u64,
}

impl Default for GaugeState {
    fn default() -> Self {
        GaugeState {
            last: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            count: 0,
        }
    }
}

#[derive(Debug, Default)]
struct GaugeCell {
    state: Mutex<GaugeState>,
}

/// A last/min/max gauge handle. Cloning shares the cell.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<GaugeCell>,
}

impl Gauge {
    /// Records a sample.
    ///
    /// # Panics
    /// Panics on a non-finite value — aggregated extremes would be
    /// meaningless and `inf`/`NaN` do not survive JSON export.
    pub fn set(&self, v: f64) {
        assert!(v.is_finite(), "Gauge::set: non-finite value {v}");
        let mut s = self.cell.state.lock();
        s.last = v;
        s.min = s.min.min(v);
        s.max = s.max.max(v);
        s.count += 1;
    }

    /// The most recent sample (0.0 before the first set).
    #[must_use]
    pub fn last(&self) -> f64 {
        self.cell.state.lock().last
    }
}

// ---------------------------------------------------------------------------
// Log-bucketed quantile histogram (DDSketch-style)
// ---------------------------------------------------------------------------

/// The mergeable log-bucketed quantile sketch behind [`Histogram`].
///
/// Non-positive observations land in a dedicated zero bucket; positive
/// values map to bucket `i = ceil(ln v / ln γ)` so bucket `i` covers
/// `(γ^(i−1), γ^i]`. Quantiles are answered from the bucket midpoint
/// `2γ^i / (γ+1)`, which is within `α` relative error of every value
/// the bucket can hold. Exact `count`/`sum`/`min`/`max` ride along.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    alpha: f64,
    /// `ln γ`, cached.
    ln_gamma: f64,
    max_buckets: usize,
    /// Observations `<= 0` (durations and byte counts are never
    /// negative; a negative value clamps here rather than panicking).
    zero: u64,
    /// Sparse bucket counts, keyed by bucket index.
    buckets: BTreeMap<i32, u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl LogHistogram {
    /// Default bucket cap: at α = 1% this covers ~46 orders of
    /// magnitude before any collapse, in at most ~16 KiB.
    pub const DEFAULT_MAX_BUCKETS: usize = 1024;

    /// Creates a sketch with relative-error bound `alpha` and at most
    /// `max_buckets` live buckets.
    ///
    /// # Panics
    /// Panics unless `0 < alpha < 1` and `max_buckets >= 2`.
    #[must_use]
    pub fn new(alpha: f64, max_buckets: usize) -> LogHistogram {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "LogHistogram: alpha must be in (0, 1), got {alpha}"
        );
        assert!(
            max_buckets >= 2,
            "LogHistogram: need at least 2 buckets, got {max_buckets}"
        );
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        LogHistogram {
            alpha,
            ln_gamma: gamma.ln(),
            max_buckets,
            zero: 0,
            buckets: BTreeMap::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Total observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact minimum (`0.0` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum (`0.0` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Live log buckets (excluding the zero bucket).
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Bucket index of a positive value.
    fn index_of(&self, v: f64) -> i32 {
        let i = (v.ln() / self.ln_gamma).ceil();
        // Clamp the astronomically-out-of-range rather than wrap.
        i.clamp(f64::from(i32::MIN), f64::from(i32::MAX)) as i32
    }

    /// Midpoint value of bucket `i`: within α of anything it holds.
    fn value_of(&self, i: i32) -> f64 {
        let gamma_i = (f64::from(i) * self.ln_gamma).exp();
        2.0 * gamma_i / ((1.0 + self.alpha) / (1.0 - self.alpha) + 1.0)
    }

    /// Records one observation.
    ///
    /// # Panics
    /// Panics on a non-finite value.
    pub fn record(&mut self, v: f64) {
        assert!(v.is_finite(), "LogHistogram::record: non-finite value {v}");
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v <= 0.0 {
            self.zero += 1;
            return;
        }
        *self.buckets.entry(self.index_of(v)).or_insert(0) += 1;
        self.collapse();
    }

    /// Folds `other` into `self` (same α required).
    ///
    /// # Panics
    /// Panics if the two sketches disagree on α.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert!(
            (self.alpha - other.alpha).abs() < 1e-12,
            "LogHistogram::merge: alpha mismatch ({} vs {})",
            self.alpha,
            other.alpha
        );
        self.zero += other.zero;
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        for (&i, &n) in &other.buckets {
            *self.buckets.entry(i).or_insert(0) += n;
        }
        self.collapse();
    }

    /// Enforces the bucket cap by collapsing the lowest buckets into
    /// one — upper quantiles (the latency tail) keep full accuracy.
    fn collapse(&mut self) {
        while self.buckets.len() > self.max_buckets {
            let (&lo, &n_lo) = self.buckets.iter().next().expect("nonempty");
            self.buckets.remove(&lo);
            let (&next, _) = self.buckets.iter().next().expect("len >= 2");
            *self.buckets.get_mut(&next).expect("present") += n_lo;
        }
    }

    /// The `q`-quantile estimate, `q ∈ [0, 1]`; `None` when empty.
    ///
    /// For a value that landed in an uncollapsed bucket the estimate is
    /// within `α` relative error of the exact sample quantile (rank
    /// `max(1, ceil(q·n))` of the sorted observations).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        if rank <= self.zero {
            return Some(0.0);
        }
        let mut seen = self.zero;
        for (&i, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(self.value_of(i));
            }
        }
        // Rounding pushed the rank past the last bucket.
        Some(self.max)
    }

    /// Serializable form (see [`HistogramSnapshot`]).
    #[must_use]
    pub fn to_snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_owned(),
            alpha: self.alpha,
            zero: self.zero,
            buckets: self
                .buckets
                .iter()
                .map(|(&index, &count)| HistogramBucket { index, count })
                .collect(),
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max(),
        }
    }

    /// Rebuilds a sketch from its snapshot (for offline merging).
    #[must_use]
    pub fn from_snapshot(snap: &HistogramSnapshot) -> LogHistogram {
        let mut h = LogHistogram::new(snap.alpha, Self::DEFAULT_MAX_BUCKETS);
        h.zero = snap.zero;
        h.count = snap.count;
        h.sum = snap.sum;
        if snap.count > 0 {
            h.min = snap.min;
            h.max = snap.max;
        }
        for b in &snap.buckets {
            *h.buckets.entry(b.index).or_insert(0) += b.count;
        }
        h
    }
}

#[derive(Debug)]
struct HistogramCell {
    sketch: Mutex<LogHistogram>,
}

/// A quantile-histogram handle. Cloning shares the cell.
#[derive(Debug, Clone)]
pub struct Histogram {
    cell: Arc<HistogramCell>,
}

impl Histogram {
    /// Default bucket cap of hub-registered histograms.
    pub(crate) const MAX_BUCKETS: usize = LogHistogram::DEFAULT_MAX_BUCKETS;

    /// Records one observation.
    pub fn record(&self, v: f64) {
        self.cell.sketch.lock().record(v);
    }

    /// The `q`-quantile estimate; `None` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.cell.sketch.lock().quantile(q)
    }
}

// ---------------------------------------------------------------------------
// Hub
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct HubInner {
    counters: Mutex<BTreeMap<String, Arc<CounterCell>>>,
    gauges: Mutex<BTreeMap<String, Arc<GaugeCell>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCell>>>,
}

/// The metric registry: get-or-create named aggregators, roll them up
/// into snapshots. Cloning shares the registry (an `Arc`), so one hub
/// threads through scheduler, runtime, store and CLI alike.
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    inner: Arc<HubInner>,
}

/// Metric names must survive the Prometheus exposition grammar.
fn check_name(name: &str) {
    assert!(
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "metric name {name:?} must be non-empty [A-Za-z0-9_:]+"
    );
}

impl MetricsHub {
    /// Creates an empty hub.
    #[must_use]
    pub fn new() -> MetricsHub {
        MetricsHub::default()
    }

    /// The counter registered under `name` (created on first use).
    ///
    /// # Panics
    /// Panics on a name outside `[A-Za-z0-9_:]+`.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        check_name(name);
        let mut map = self.inner.counters.lock();
        let cell = map.entry(name.to_owned()).or_default();
        Counter {
            cell: Arc::clone(cell),
        }
    }

    /// The gauge registered under `name` (created on first use).
    ///
    /// # Panics
    /// Panics on a name outside `[A-Za-z0-9_:]+`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        check_name(name);
        let mut map = self.inner.gauges.lock();
        let cell = map.entry(name.to_owned()).or_default();
        Gauge {
            cell: Arc::clone(cell),
        }
    }

    /// The histogram registered under `name` (created on first use with
    /// α = `DEFAULT_HISTOGRAM_ALPHA`).
    ///
    /// # Panics
    /// Panics on a name outside `[A-Za-z0-9_:]+`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, DEFAULT_HISTOGRAM_ALPHA)
    }

    /// [`MetricsHub::histogram`] with an explicit α for first-time
    /// registration (an existing histogram keeps its original α).
    ///
    /// # Panics
    /// Panics on a bad name or `alpha` outside `(0, 1)`.
    #[must_use]
    pub(crate) fn histogram_with(&self, name: &str, alpha: f64) -> Histogram {
        check_name(name);
        let mut map = self.inner.histograms.lock();
        let cell = map.entry(name.to_owned()).or_insert_with(|| {
            Arc::new(HistogramCell {
                sketch: Mutex::new(LogHistogram::new(alpha, Histogram::MAX_BUCKETS)),
            })
        });
        Histogram {
            cell: Arc::clone(cell),
        }
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
            .map(|(name, cell)| CounterSnapshot {
                name: name.clone(),
                value: cell.value.load(Ordering::Relaxed),
            })
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .iter()
            .map(|(name, cell)| {
                let s = *cell.state.lock();
                GaugeSnapshot {
                    name: name.clone(),
                    last: s.last,
                    min: if s.count == 0 { 0.0 } else { s.min },
                    max: if s.count == 0 { 0.0 } else { s.max },
                    samples: s.count,
                }
            })
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .iter()
            .map(|(name, cell)| cell.sketch.lock().to_snapshot(name))
            .collect();
        MetricsSnapshot {
            round,
            counters,
            gauges,
            histograms,
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot types
// ---------------------------------------------------------------------------

/// One counter's rollup.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Cumulative total.
    pub value: u64,
}

/// One gauge's rollup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Most recent sample (`0.0` when never set).
    pub last: f64,
    /// Smallest sample (`0.0` when never set).
    pub min: f64,
    /// Largest sample (`0.0` when never set).
    pub max: f64,
    /// Samples recorded.
    pub samples: u64,
}

/// One log bucket of a [`HistogramSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Bucket index `i`: the bucket covers `(γ^(i−1), γ^i]`.
    pub index: i32,
    /// Observations in the bucket.
    pub count: u64,
}

/// One histogram's rollup: the full sketch state, so snapshots merge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Relative-error bound α.
    pub alpha: f64,
    /// Observations `<= 0`.
    pub zero: u64,
    /// Live log buckets, ascending index.
    pub buckets: Vec<HistogramBucket>,
    /// Total observations.
    pub count: u64,
    /// Exact sum.
    pub sum: f64,
    /// Exact minimum (`0.0` when empty).
    pub min: f64,
    /// Exact maximum (`0.0` when empty).
    pub max: f64,
}

/// A point-in-time rollup of every metric in a hub, tagged with the
/// round it closed. This is what persists into a
/// [`RunStore`](crate::store::RunStore) (as the versioned `metrics.seg`
/// record kind) and what the Prometheus-style exporter renders.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Round (or refresh tick) the snapshot closed.
    pub round: u64,
    /// Counter rollups, name-sorted.
    pub counters: Vec<CounterSnapshot>,
    /// Gauge rollups, name-sorted.
    pub gauges: Vec<GaugeSnapshot>,
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

    /// Looks up a gauge rollup by name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<&GaugeSnapshot> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// Looks up a histogram rollup by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Renders Prometheus-style exposition text. The format is
    /// self-describing enough to parse back
    /// ([`MetricsSnapshot::from_prometheus`]) — counters are plain
    /// samples, gauges add `_min`/`_max`/`_samples` series, histograms
    /// emit per-bucket samples labeled with the bucket index plus
    /// `_sum`/`_count`/`_min`/`_max`/`_zero`/`_alpha`. `f64` values use
    /// Rust's shortest round-trip formatting, so export → parse is
    /// exact.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# ecofl-metrics v{METRICS_SNAPSHOT_VERSION} round={}",
            self.round
        );
        for c in &self.counters {
            let _ = writeln!(out, "# TYPE {} counter", c.name);
            let _ = writeln!(out, "{} {}", c.name, c.value);
        }
        for g in &self.gauges {
            let _ = writeln!(out, "# TYPE {} gauge", g.name);
            let _ = writeln!(out, "{} {}", g.name, g.last);
            let _ = writeln!(out, "{}_min {}", g.name, g.min);
            let _ = writeln!(out, "{}_max {}", g.name, g.max);
            let _ = writeln!(out, "{}_samples {}", g.name, g.samples);
        }
        for h in &self.histograms {
            let _ = writeln!(out, "# TYPE {} histogram", h.name);
            let _ = writeln!(out, "{}_alpha {}", h.name, h.alpha);
            let _ = writeln!(out, "{}_zero {}", h.name, h.zero);
            for b in &h.buckets {
                let _ = writeln!(out, "{}_bucket{{idx=\"{}\"}} {}", h.name, b.index, b.count);
            }
            let _ = writeln!(out, "{}_count {}", h.name, h.count);
            let _ = writeln!(out, "{}_sum {}", h.name, h.sum);
            let _ = writeln!(out, "{}_min {}", h.name, h.min);
            let _ = writeln!(out, "{}_max {}", h.name, h.max);
        }
        out
    }

    /// Parses [`MetricsSnapshot::to_prometheus`] output back into a
    /// snapshot.
    ///
    /// # Errors
    /// Returns a description of the first malformed line.
    pub fn from_prometheus(text: &str) -> Result<MetricsSnapshot, String> {
        enum Section {
            Counter,
            Gauge,
            Histogram,
        }
        let mut snap = MetricsSnapshot::default();
        let mut current: Option<(String, Section)> = None;
        let mut saw_header = false;
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            let at = |what: &str| format!("line {}: {what} ({line:?})", ln + 1);
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                let rest = rest.trim();
                if let Some(hdr) = rest.strip_prefix("ecofl-metrics ") {
                    let mut version = None;
                    let mut round = None;
                    for tok in hdr.split_whitespace() {
                        if let Some(v) = tok.strip_prefix('v') {
                            version = v.parse::<u32>().ok();
                        } else if let Some(r) = tok.strip_prefix("round=") {
                            round = r.parse::<u64>().ok();
                        }
                    }
                    match (version, round) {
                        (Some(METRICS_SNAPSHOT_VERSION), Some(r)) => {
                            snap.round = r;
                            saw_header = true;
                        }
                        (Some(v), _) => {
                            return Err(at(&format!("unsupported snapshot version {v}")))
                        }
                        _ => return Err(at("malformed snapshot header")),
                    }
                } else if let Some(ty) = rest.strip_prefix("TYPE ") {
                    let mut parts = ty.split_whitespace();
                    let name = parts.next().ok_or_else(|| at("TYPE without name"))?;
                    let section = match parts.next() {
                        Some("counter") => Section::Counter,
                        Some("gauge") => Section::Gauge,
                        Some("histogram") => Section::Histogram,
                        _ => return Err(at("TYPE without a known kind")),
                    };
                    match &section {
                        Section::Counter => snap.counters.push(CounterSnapshot {
                            name: name.to_owned(),
                            value: 0,
                        }),
                        Section::Gauge => snap.gauges.push(GaugeSnapshot {
                            name: name.to_owned(),
                            last: 0.0,
                            min: 0.0,
                            max: 0.0,
                            samples: 0,
                        }),
                        Section::Histogram => snap.histograms.push(HistogramSnapshot {
                            name: name.to_owned(),
                            alpha: DEFAULT_HISTOGRAM_ALPHA,
                            zero: 0,
                            buckets: Vec::new(),
                            count: 0,
                            sum: 0.0,
                            min: 0.0,
                            max: 0.0,
                        }),
                    }
                    current = Some((name.to_owned(), section));
                }
                // Other comments are ignored, like Prometheus does.
                continue;
            }
            let (series, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| at("sample without a value"))?;
            let (name, section) = current
                .as_ref()
                .ok_or_else(|| at("sample before any # TYPE"))?;
            let parse_u64 = |v: &str| v.parse::<u64>().map_err(|_| at("expected an integer"));
            let parse_f64 = |v: &str| v.parse::<f64>().map_err(|_| at("expected a number"));
            match section {
                Section::Counter => {
                    if series != name {
                        return Err(at("unexpected series in counter section"));
                    }
                    snap.counters.last_mut().expect("pushed at TYPE").value = parse_u64(value)?;
                }
                Section::Gauge => {
                    let g = snap.gauges.last_mut().expect("pushed at TYPE");
                    let suffix = series
                        .strip_prefix(name.as_str())
                        .ok_or_else(|| at("series outside current gauge"))?;
                    match suffix {
                        "" => g.last = parse_f64(value)?,
                        "_min" => g.min = parse_f64(value)?,
                        "_max" => g.max = parse_f64(value)?,
                        "_samples" => g.samples = parse_u64(value)?,
                        _ => return Err(at("unknown gauge series suffix")),
                    }
                }
                Section::Histogram => {
                    let h = snap.histograms.last_mut().expect("pushed at TYPE");
                    let suffix = series
                        .strip_prefix(name.as_str())
                        .ok_or_else(|| at("series outside current histogram"))?;
                    if let Some(label) = suffix
                        .strip_prefix("_bucket{idx=\"")
                        .and_then(|s| s.strip_suffix("\"}"))
                    {
                        let index = label.parse::<i32>().map_err(|_| at("bad bucket index"))?;
                        h.buckets.push(HistogramBucket {
                            index,
                            count: parse_u64(value)?,
                        });
                    } else {
                        match suffix {
                            "_alpha" => h.alpha = parse_f64(value)?,
                            "_zero" => h.zero = parse_u64(value)?,
                            "_count" => h.count = parse_u64(value)?,
                            "_sum" => h.sum = parse_f64(value)?,
                            "_min" => h.min = parse_f64(value)?,
                            "_max" => h.max = parse_f64(value)?,
                            _ => return Err(at("unknown histogram series suffix")),
                        }
                    }
                }
            }
        }
        if !saw_header {
            return Err("missing `# ecofl-metrics` header".to_owned());
        }
        Ok(snap)
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
        assert_eq!(hub.counter("reqs").get(), 5);
    }

    #[test]
    fn gauge_tracks_last_min_max() {
        let hub = MetricsHub::new();
        let g = hub.gauge("load");
        g.set(3.0);
        g.set(-1.0);
        g.set(2.0);
        let snap = hub.snapshot(0);
        let gs = snap.gauge("load").expect("registered");
        assert_eq!((gs.last, gs.min, gs.max, gs.samples), (2.0, -1.0, 3.0, 3));
    }

    #[test]
    fn histogram_quantiles_within_alpha() {
        let mut h = LogHistogram::new(0.01, 1024);
        let values: Vec<f64> = (1..=1000).map(|i| f64::from(i) * 0.5).collect();
        for &v in &values {
            h.record(v);
        }
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).max(1);
            let exact = values[rank - 1];
            let est = h.quantile(q).expect("nonempty");
            assert!(
                (est - exact).abs() / exact <= 0.01 + 1e-9,
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn histogram_collapse_bounds_memory() {
        let mut h = LogHistogram::new(0.01, 16);
        for i in 0..10_000 {
            h.record((f64::from(i) * 0.01).exp());
        }
        assert!(h.bucket_count() <= 16);
        assert_eq!(h.count(), 10_000);
        // The tail keeps its accuracy through collapse.
        let est = h.quantile(1.0).expect("nonempty");
        let exact = (9999.0 * 0.01f64).exp();
        assert!((est - exact).abs() / exact <= 0.01 + 1e-9);
    }

    #[test]
    fn histogram_merge_is_union() {
        let mut a = LogHistogram::new(0.01, 1024);
        let mut b = LogHistogram::new(0.01, 1024);
        let mut all = LogHistogram::new(0.01, 1024);
        for i in 1..=500 {
            a.record(f64::from(i));
            all.record(f64::from(i));
        }
        for i in 501..=1000 {
            b.record(f64::from(i));
            all.record(f64::from(i));
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn zero_and_negative_land_in_zero_bucket() {
        let mut h = LogHistogram::new(0.01, 64);
        h.record(0.0);
        h.record(-3.0);
        h.record(5.0);
        assert_eq!(h.quantile(0.1), Some(0.0));
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), -3.0);
    }

    #[test]
    fn prometheus_text_round_trips() {
        let hub = MetricsHub::new();
        hub.counter("fl_clients_dispatched").inc(40);
        hub.gauge("fl_accuracy").set(0.625);
        let h = hub.histogram("fl_round_latency_s");
        for i in 1..=100 {
            h.record(f64::from(i) * 0.125);
        }
        let _ = hub.histogram("empty_hist"); // registered, no samples
        let snap = hub.snapshot(7);
        let text = snap.to_prometheus();
        let back = MetricsSnapshot::from_prometheus(&text).expect("parse");
        assert_eq!(back, snap);
        assert_eq!(back.to_prometheus(), text);
    }

    #[test]
    fn prometheus_rejects_garbage() {
        assert!(MetricsSnapshot::from_prometheus("no header\n").is_err());
        assert!(MetricsSnapshot::from_prometheus(
            "# ecofl-metrics v1 round=0\nname_without_type 3\n"
        )
        .is_err());
        assert!(
            MetricsSnapshot::from_prometheus("# ecofl-metrics v99 round=0\n").is_err(),
            "unsupported version must be rejected"
        );
    }

    #[test]
    #[should_panic(expected = "metric name")]
    fn bad_names_are_rejected() {
        let _ = MetricsHub::new().counter("has space");
    }
}

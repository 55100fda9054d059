//! In-memory trace queries.
//!
//! [`TraceView`] is the read side of the obs layer: the Gantt renderer,
//! the convergence metrics, the `ecofl trace` CLI aggregations, and the
//! invariant tests all consume a view instead of re-deriving structure
//! from raw span lists. A view comes from a [`Tracer`](crate::Tracer), a
//! [`RunStore`](crate::RunStore) query, or a pipeline report's own
//! compute spans (`ExecutionReport::trace_view`), which are the same
//! records an attached tracer receives.

use crate::record::{Domain, EventKind, EventRecord, SpanKind, SpanRecord, TraceRecord};
use std::collections::{BTreeMap, HashMap};

/// A queryable snapshot of a trace.
///
/// Records stay in their deterministic recording order; all aggregations
/// are computed on demand from that one list.
#[derive(Debug, Clone, Default)]
pub struct TraceView {
    records: Vec<TraceRecord>,
}

impl TraceView {
    /// Wraps a record list (normally produced by
    /// [`Tracer::records`](crate::Tracer::records)).
    #[must_use]
    pub fn from_records(records: Vec<TraceRecord>) -> Self {
        Self { records }
    }

    /// Every record, in recording order.
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// All span records.
    pub fn spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.records.iter().filter_map(TraceRecord::as_span)
    }

    /// All event records.
    pub fn events(&self) -> impl Iterator<Item = &EventRecord> {
        self.records.iter().filter_map(TraceRecord::as_event)
    }

    /// Spans of one `(domain, kind)` pair.
    pub fn spans_of(&self, domain: Domain, kind: SpanKind) -> impl Iterator<Item = &SpanRecord> {
        self.spans()
            .filter(move |s| s.domain == domain && s.kind == kind)
    }

    /// Pipeline compute spans (forward + backward) of one sync-round.
    pub fn compute_spans(&self, round: usize) -> impl Iterator<Item = &SpanRecord> {
        self.spans()
            .filter(move |s| s.is_compute() && s.round == round)
    }

    /// Events of one kind, in recording (time) order.
    #[must_use]
    pub fn events_of(&self, kind: EventKind) -> Vec<&EventRecord> {
        self.events().filter(|e| e.kind == kind).collect()
    }

    /// Number of pipeline stages seen in compute spans.
    #[must_use]
    pub fn stage_count(&self) -> usize {
        self.spans()
            .filter(|s| s.is_compute())
            .map(|s| s.entity + 1)
            .max()
            .unwrap_or(0)
    }

    /// Number of pipeline sync-rounds seen in compute spans.
    #[must_use]
    pub fn pipeline_rounds(&self) -> usize {
        self.spans()
            .filter(|s| s.is_compute())
            .map(|s| s.round + 1)
            .max()
            .unwrap_or(0)
    }

    /// Latest timestamp in the trace (span ends included); `0` if empty.
    #[must_use]
    pub fn makespan(&self) -> f64 {
        self.records
            .iter()
            .map(|r| match r {
                TraceRecord::Span(s) => s.t1,
                other => other.time(),
            })
            .fold(0.0, f64::max)
    }

    /// `[start, end]` window of one pipeline sync-round: extremes of its
    /// compute spans. `None` when the round has no compute spans.
    #[must_use]
    pub fn round_window(&self, round: usize) -> Option<(f64, f64)> {
        let mut t0 = f64::INFINITY;
        let mut t1 = f64::NEG_INFINITY;
        for s in self.compute_spans(round) {
            t0 = t0.min(s.t0);
            t1 = t1.max(s.t1);
        }
        (t0 < t1).then_some((t0, t1))
    }

    /// Bubble fraction of one sync-round: the fraction of the round's
    /// `stages × window` device-time that no compute span covers — the
    /// measured counterpart of the paper's Eq. 2/3 bubble analysis.
    /// `None` when the round has no compute spans.
    #[must_use]
    pub fn bubble_fraction(&self, round: usize) -> Option<f64> {
        let (t0, t1) = self.round_window(round)?;
        let stages = self.stage_count();
        let window = t1 - t0;
        let busy: f64 = self.compute_spans(round).map(SpanRecord::duration).sum();
        Some(1.0 - busy / (stages as f64 * window))
    }

    /// Total idle device-time across the whole pipeline trace:
    /// `stages × (max end − min start) − Σ busy`. Matches the sum of
    /// `ExecutionReport::stage_idle_time` for a trace recorded by
    /// `PipelineExecutor::run_traced`.
    #[must_use]
    pub fn total_idle_time(&self) -> f64 {
        self.spans().collect::<ComputeSummary>().idle_time
    }

    /// Stages ranked by total compute time, slowest first, capped at `k`.
    #[must_use]
    pub fn top_slowest_stages(&self, k: usize) -> Vec<(usize, f64)> {
        let mut ranked = self.spans().collect::<ComputeSummary>().slowest_stages;
        ranked.truncate(k);
        ranked
    }

    /// `(time, value)` samples of one gauge, in recording order.
    #[must_use]
    pub fn gauge_series(&self, name: &str) -> Vec<(f64, f64)> {
        self.records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Gauge(g) if g.name == name => Some((g.time, g.value)),
                _ => None,
            })
            .collect()
    }

    /// Sum of one counter's increments over the whole trace.
    #[must_use]
    pub fn counter_total(&self, name: &str) -> f64 {
        self.records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Counter(c) if c.name == name => Some(c.delta),
                _ => None,
            })
            // From +0.0: `sum` starts at −0.0, so a counter with no
            // increments would print as `-0`.
            .fold(0.0, |total, delta| total + delta)
    }

    /// The §4.4 re-scheduling timeline: lagger detections, migrations,
    /// and restarts in time order.
    #[must_use]
    pub fn reschedule_timeline(&self) -> Vec<&EventRecord> {
        self.events()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::LaggerDetected | EventKind::Migration | EventKind::Restart
                )
            })
            .collect()
    }
}

/// The compute spans of a pipeline trace folded in one pass: each
/// sync-round's window and bubble fraction, the total idle device-time
/// and the stages ranked by compute time. Collect it from any
/// `&SpanRecord`s — a [`TraceView`]'s spans, or a pipeline report's own
/// compute spans, which are not copied; spans that are not pipeline
/// compute ([`SpanRecord::is_compute`]) are skipped. Each number has the
/// bits of the per-round and per-trace [`TraceView`] queries, since it
/// is the same fold over the same spans in the same order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ComputeSummary {
    /// Entry `r` is sync-round `r`'s `(t0, t1, bubble fraction)` — what
    /// [`TraceView::round_window`] and [`TraceView::bubble_fraction`]
    /// return — or `None` where those do, for every round up to the last
    /// one with a compute span.
    pub rounds: Vec<Option<(f64, f64, f64)>>,
    /// [`TraceView::total_idle_time`].
    pub idle_time: f64,
    /// Every stage with its total compute time, slowest first: the
    /// uncapped [`TraceView::top_slowest_stages`].
    pub slowest_stages: Vec<(usize, f64)>,
}

impl<'a> FromIterator<&'a SpanRecord> for ComputeSummary {
    fn from_iter<I: IntoIterator<Item = &'a SpanRecord>>(spans: I) -> Self {
        // (min t0, max t1, Σ duration) per round and over the whole
        // trace, and Σ duration per stage.
        let empty = (f64::INFINITY, f64::NEG_INFINITY, 0.0f64);
        let (mut rounds, mut whole) = (Vec::new(), empty);
        let mut stage_busy: Vec<f64> = Vec::new();
        for s in spans.into_iter().filter(|s| s.is_compute()) {
            for acc in [&mut whole, grown(&mut rounds, s.round, empty)] {
                acc.0 = acc.0.min(s.t0);
                acc.1 = acc.1.max(s.t1);
                acc.2 += s.duration();
            }
            *grown(&mut stage_busy, s.entity, 0.0) += s.duration();
        }
        let stages = stage_busy.len() as f64;
        let rounds = rounds
            .into_iter()
            .map(|(t0, t1, busy)| (t0 < t1).then(|| (t0, t1, 1.0 - busy / (stages * (t1 - t0)))))
            .collect();
        let (t0, t1, busy) = whole;
        let idle_time = if t0 >= t1 {
            0.0
        } else {
            stages * (t1 - t0) - busy
        };
        let mut slowest_stages: Vec<(usize, f64)> = stage_busy.into_iter().enumerate().collect();
        slowest_stages.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite totals"));
        ComputeSummary {
            rounds,
            idle_time,
            slowest_stages,
        }
    }
}

/// The `metrics` report, folded one record at a time: counter totals,
/// gauge last / min / max / samples, and per (domain, kind) the span
/// durations — one `f64` per span, for exact percentiles — and the event
/// count. Totals are summed in record order, so a store and the slices it
/// was appended from roll up to the same lines.
#[derive(Debug, Default)]
pub struct Rollup {
    records: usize,
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, (f64, f64, f64, u64)>,
    spans: HashMap<(Domain, SpanKind), Vec<f64>>,
    events: HashMap<(Domain, EventKind), u64>,
}

impl Rollup {
    /// Folds one more record in.
    pub fn add(&mut self, record: &TraceRecord) {
        self.records += 1;
        match record {
            TraceRecord::Counter(c) => match self.counters.get_mut(&c.name) {
                Some(total) => *total += c.delta,
                // `0.0 +` as a total starts: a first delta of -0 sums to 0.
                None => {
                    self.counters.insert(c.name.clone(), 0.0 + c.delta);
                }
            },
            TraceRecord::Gauge(g) => match self.gauges.get_mut(&g.name) {
                Some((last, min, max, samples)) => {
                    (*last, *min, *max) = (g.value, min.min(g.value), max.max(g.value));
                    *samples += 1;
                }
                None => {
                    let v = g.value;
                    self.gauges.insert(g.name.clone(), (v, v, v, 1));
                }
            },
            TraceRecord::Span(sp) => self
                .spans
                .entry((sp.domain, sp.kind))
                .or_default()
                .push(sp.t1 - sp.t0),
            TraceRecord::Event(ev) => *self.events.entry((ev.domain, ev.kind)).or_default() += 1,
        }
    }

    /// The report, one line per metric, (domain, kind) keys in the order
    /// of their names. A percentile is the nearest-rank sample
    /// (`max(1, ⌈q·n⌉)` of the sorted durations); sorting in place leaves
    /// the fold free to go on.
    pub fn lines(&mut self) -> Vec<String> {
        let mut out = vec![format!("rollup of {} record(s)", self.records)];
        if !self.counters.is_empty() {
            out.push("  counters (total):".into());
            for (name, total) in &self.counters {
                out.push(format!("    {name:<30} {total:>14}"));
            }
        }
        if !self.gauges.is_empty() {
            out.push("  gauges (last / min / max / samples):".into());
            for (name, (last, min, max, samples)) in &self.gauges {
                out.push(format!(
                    "    {name:<30} {last:>12.4} {min:>12.4} {max:>12.4} {samples:>8}"
                ));
            }
        }
        let spans: BTreeMap<String, &mut Vec<f64>> = (self.spans.iter_mut())
            .map(|((domain, kind), durations)| (format!("{domain:?}.{kind:?}"), durations))
            .collect();
        if !spans.is_empty() {
            out.push("  spans (count / p50 / p95 / p99 / max duration, s):".into());
            for (key, durations) in spans {
                durations.sort_by(f64::total_cmp);
                let n = durations.len();
                let rank = |q: f64| durations[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
                out.push(format!(
                    "    {key:<30} {n:>8} {:>12.4e} {:>12.4e} {:>12.4e} {:>12.4e}",
                    rank(0.5),
                    rank(0.95),
                    rank(0.99),
                    durations[n - 1]
                ));
            }
        }
        let events: BTreeMap<String, u64> = (self.events.iter())
            .map(|((domain, kind), count)| (format!("{domain:?}.{kind:?}"), *count))
            .collect();
        if !events.is_empty() {
            out.push("  events (count):".into());
            for (key, count) in events {
                out.push(format!("    {key:<30} {count:>8}"));
            }
        }
        out
    }
}

/// Entry `i` of `v`, which first grows with `fill` to hold it.
fn grown<T: Clone>(v: &mut Vec<T>, i: usize, fill: T) -> &mut T {
    if v.len() <= i {
        v.resize(i + 1, fill);
    }
    &mut v[i]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;

    /// Two stages, two micro-batches, hand-laid 1F1B-ish schedule.
    fn tiny_trace() -> TraceView {
        let t = Tracer::new();
        // stage 0: F0 [0,1] F1 [1,2] B0 [3,4] B1 [5,6]
        // stage 1: F0 [1,2] B0 [2,3] F1 [3,4] B1 [4,5]
        let spans = [
            (0, SpanKind::Forward, 0, 0.0, 1.0),
            (0, SpanKind::Forward, 1, 1.0, 2.0),
            (1, SpanKind::Forward, 0, 1.0, 2.0),
            (1, SpanKind::Backward, 0, 2.0, 3.0),
            (0, SpanKind::Backward, 0, 3.0, 4.0),
            (1, SpanKind::Forward, 1, 3.0, 4.0),
            (1, SpanKind::Backward, 1, 4.0, 5.0),
            (0, SpanKind::Backward, 1, 5.0, 6.0),
        ];
        for &(stage, kind, micro, t0, t1) in &spans {
            t.span(Domain::Pipeline, kind, stage, 0, micro, t0, t1);
        }
        t.event(Domain::Scheduler, EventKind::LaggerDetected, 1, 6.0, 0.0);
        t.gauge("accuracy", 6.0, 0.5);
        t.counter("global_updates", 6.0, 1.0);
        t.view()
    }

    #[test]
    fn structure_queries() {
        let v = tiny_trace();
        assert_eq!(v.stage_count(), 2);
        assert_eq!(v.pipeline_rounds(), 1);
        assert_eq!(v.round_window(0), Some((0.0, 6.0)));
        assert_eq!(v.round_window(1), None);
        assert!((v.makespan() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn bubble_accounting() {
        let v = tiny_trace();
        // 8 unit spans over 2 stages × 6 s window → bubble 1 − 8/12.
        let bubble = v.bubble_fraction(0).expect("round exists");
        assert!((bubble - (1.0 - 8.0 / 12.0)).abs() < 1e-12);
        assert!((v.total_idle_time() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn compute_summary_has_the_bits_of_the_per_round_calls() {
        // Three rounds of awkward floats on three stages; round 1 is
        // left without compute spans and round 3 has a single instant.
        let t = Tracer::new();
        let mut at = 0.1;
        for (round, spans) in [(0usize, 7usize), (2, 5), (3, 0)] {
            for i in 0..spans {
                let len = 0.3 + 0.7 / (i as f64 + 3.0);
                t.span(
                    Domain::Pipeline,
                    SpanKind::Forward,
                    i % 3,
                    round,
                    i,
                    at,
                    at + len,
                );
                t.span(
                    Domain::Pipeline,
                    SpanKind::CommForward,
                    i % 3,
                    round,
                    i,
                    at,
                    at + 9.0,
                );
                at += len / 3.0;
            }
        }
        t.span(Domain::Pipeline, SpanKind::Backward, 0, 3, 0, at, at);
        t.span(Domain::Fl, SpanKind::Round, 9, 1, 0, 0.0, 50.0);
        let v = t.view();
        let table = v.spans().collect::<ComputeSummary>().rounds;
        assert_eq!(table.len(), v.pipeline_rounds());
        assert_eq!(table.len(), 4);
        for (r, row) in table.iter().enumerate() {
            let expected = v.round_window(r).map(|(t0, t1)| {
                let bubble = v.bubble_fraction(r).expect("a window has a bubble");
                (t0.to_bits(), t1.to_bits(), bubble.to_bits())
            });
            let row = row.map(|(t0, t1, b)| (t0.to_bits(), t1.to_bits(), b.to_bits()));
            assert_eq!(row, expected, "round {r}");
        }
        assert!(table[0].is_some() && table[2].is_some());
        assert!(table[1].is_none() && table[3].is_none());
        let summary = |v: &TraceView| v.spans().collect::<ComputeSummary>();
        assert!(summary(&tiny_trace()).rounds[0].is_some());
        assert_eq!(summary(&TraceView::default()), ComputeSummary::default());
    }

    #[test]
    fn rankings_and_series() {
        let v = tiny_trace();
        let top = v.top_slowest_stages(2);
        assert_eq!(top.len(), 2);
        assert!((top[0].1 - 4.0).abs() < 1e-12);
        assert_eq!(v.gauge_series("accuracy"), vec![(6.0, 0.5)]);
        assert!((v.counter_total("global_updates") - 1.0).abs() < 1e-12);
        assert_eq!(v.counter_total("no_such_counter").to_bits(), 0);
        assert_eq!(v.reschedule_timeline().len(), 1);
        assert_eq!(v.events_of(EventKind::LaggerDetected).len(), 1);
    }

    #[test]
    fn empty_view_is_quiet() {
        let v = TraceView::default();
        assert_eq!(v.stage_count(), 0);
        assert_eq!(v.bubble_fraction(0), None);
        assert_eq!(v.total_idle_time(), 0.0);
        assert!(v.top_slowest_stages(3).is_empty());
    }
}

//! Convergence metrics over accuracy-vs-time traces.
//!
//! The figures in §6.2 are compared qualitatively ("faster convergence and
//! higher achieved accuracy"); this module makes those comparisons
//! quantitative and reusable: time-to-threshold ladders, normalized
//! area-under-curve, and post-peak stability.

#[cfg(test)]
use crate::engine::RunResult;
use ecofl_obs::{RecordKind, RunStore, TraceQuery, TraceView};
use ecofl_util::TimeSeries;

/// Quantitative summary of one accuracy trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceSummary {
    /// Strategy name the summary describes.
    pub strategy: String,
    /// `(threshold, first time reached)` for each requested threshold that
    /// was reached.
    pub time_to: Vec<(f64, f64)>,
    /// Mean accuracy over the trace's time span (AUC ÷ span) — rewards
    /// both speed and height.
    pub mean_accuracy: f64,
    /// Best accuracy observed.
    pub best_accuracy: f64,
    /// Largest drop below the running best after it was set — instability
    /// under biased asynchronous updates shows up here.
    pub max_drawdown: f64,
}

/// Summarizes a run against a ladder of accuracy thresholds straight from
/// its [`RunResult`]: the oracle [`summarize_view`] is tested against.
#[cfg(test)]
fn summarize(result: &RunResult, thresholds: &[f64]) -> ConvergenceSummary {
    summarize_series(&result.strategy, &result.accuracy, thresholds)
}

/// Summarizes a run against a ladder of accuracy thresholds from a
/// recorded trace: reconstructs the accuracy-vs-time trace from the
/// `"accuracy"` gauge stream a traced run emits (one sample per
/// evaluation), so a JSONL trace on disk is enough to recompute every
/// convergence metric.
///
/// # Errors
/// [`std::io::ErrorKind::InvalidData`] if the gauge goes back in time, as
/// in a store two runs appended to.
pub fn summarize_view(
    view: &TraceView,
    strategy: &str,
    thresholds: &[f64],
) -> std::io::Result<ConvergenceSummary> {
    let points = view.gauge_series("accuracy");
    let ordered = points.windows(2).all(|w| w[0].0 <= w[1].0);
    if !(ordered && points.iter().all(|p| p.0.is_finite())) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "the accuracy gauge goes back in time: a summary reads the trace of one run",
        ));
    }
    let accuracy: TimeSeries = points.into_iter().collect();
    Ok(summarize_series(strategy, &accuracy, thresholds))
}

/// The one fold behind [`summarize_view`] and its test oracle. The best
/// accuracy is the curve's maximum, which is how a run sets
/// `RunResult::best_accuracy`.
fn summarize_series(
    strategy: &str,
    accuracy: &TimeSeries,
    thresholds: &[f64],
) -> ConvergenceSummary {
    ConvergenceSummary {
        strategy: strategy.to_owned(),
        time_to: thresholds
            .iter()
            .filter_map(|&th| accuracy.time_to_reach(th).map(|t| (th, t)))
            .collect(),
        mean_accuracy: mean_over_span(accuracy),
        best_accuracy: accuracy.max_value().unwrap_or(0.0),
        max_drawdown: max_drawdown(accuracy),
    }
}

/// [`summarize_view`] straight off a [`RunStore`]: a gauge-kind
/// [`TraceQuery`] prunes every block without gauges before decoding,
/// so recomputing convergence metrics over a large stored run touches
/// only the blocks that carry accuracy samples.
///
/// # Errors
/// Returns any store read/decode error, and [`summarize_view`]'s.
pub fn summarize_store(
    store: &RunStore,
    strategy: &str,
    thresholds: &[f64],
) -> std::io::Result<ConvergenceSummary> {
    let view = store.view(&TraceQuery::new().kind(RecordKind::Gauge))?;
    summarize_view(&view, strategy, thresholds)
}

/// AUC divided by the observed time span (`0` for fewer than two points).
#[must_use]
pub(crate) fn mean_over_span(trace: &TimeSeries) -> f64 {
    let points = trace.points();
    if points.len() < 2 {
        return points.first().map_or(0.0, |&(_, v)| v);
    }
    let span = points[points.len() - 1].0 - points[0].0;
    if span <= 0.0 {
        points[0].1
    } else {
        trace.auc() / span
    }
}

/// Largest drop below the running best — `0` for a monotone trace.
#[must_use]
pub fn max_drawdown(trace: &TimeSeries) -> f64 {
    let mut best = f64::NEG_INFINITY;
    let mut worst_drop = 0.0f64;
    for &(_, v) in trace.points() {
        best = best.max(v);
        worst_drop = worst_drop.max(best - v);
    }
    worst_drop
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(points: &[(f64, f64)]) -> TimeSeries {
        points.iter().copied().collect()
    }

    #[test]
    fn mean_over_span_rewards_early_risers() {
        let fast = trace(&[(0.0, 0.8), (10.0, 0.9)]);
        let slow = trace(&[(0.0, 0.1), (10.0, 0.9)]);
        assert!(mean_over_span(&fast) > mean_over_span(&slow));
    }

    #[test]
    fn mean_over_span_degenerate_inputs() {
        assert_eq!(mean_over_span(&TimeSeries::new()), 0.0);
        assert_eq!(mean_over_span(&trace(&[(5.0, 0.7)])), 0.7);
        assert_eq!(mean_over_span(&trace(&[(5.0, 0.7), (5.0, 0.9)])), 0.7);
    }

    #[test]
    fn drawdown_zero_for_monotone() {
        let t = trace(&[(0.0, 0.1), (1.0, 0.5), (2.0, 0.9)]);
        assert_eq!(max_drawdown(&t), 0.0);
    }

    #[test]
    fn drawdown_measures_worst_dip() {
        let t = trace(&[(0.0, 0.2), (1.0, 0.8), (2.0, 0.5), (3.0, 0.7), (4.0, 0.3)]);
        assert!((max_drawdown(&t) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn summarize_view_matches_summarize_on_same_curve() {
        let tracer = ecofl_obs::Tracer::new();
        let points = [(0.0, 0.1), (10.0, 0.5), (20.0, 0.8), (30.0, 0.6)];
        for (t, v) in points {
            tracer.gauge("accuracy", t, v);
        }
        let from_view = summarize_view(&tracer.view(), "test", &[0.3, 0.6, 0.95]).unwrap();
        let result = RunResult {
            strategy: "test".into(),
            accuracy: trace(&points),
            final_accuracy: 0.6,
            best_accuracy: 0.8,
            global_updates: 4,
            regroup_events: 0,
            dropped_final: 0,
            final_recall: vec![0.6; 10],
        };
        assert_eq!(from_view, summarize(&result, &[0.3, 0.6, 0.95]));
        // A second run's samples go back in time: an error, not a panic.
        tracer.gauge("accuracy", 0.0, 0.2);
        let err = summarize_view(&tracer.view(), "test", &[0.3]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn summarize_collects_reached_thresholds() {
        let result = RunResult {
            strategy: "test".into(),
            accuracy: trace(&[(0.0, 0.1), (10.0, 0.5), (20.0, 0.8)]),
            final_accuracy: 0.8,
            best_accuracy: 0.8,
            global_updates: 3,
            regroup_events: 0,
            dropped_final: 0,
            final_recall: vec![0.8; 10],
        };
        let s = summarize(&result, &[0.3, 0.6, 0.95]);
        assert_eq!(s.time_to, vec![(0.3, 10.0), (0.6, 20.0)]);
        assert_eq!(s.best_accuracy, 0.8);
        assert_eq!(s.max_drawdown, 0.0);
        assert!(s.mean_accuracy > 0.0);
    }
}

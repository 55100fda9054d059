//! Time-series helpers for accuracy-vs-time / throughput-vs-time traces.
//!
//! Every figure in the paper's evaluation is a series of `(timestamp,
//! value)` points; this module provides the common machinery to build,
//! query, and summarize such series (time-to-threshold, area-under-curve,
//! resampling for plotting).

/// A monotone-time series of `(t, value)` samples.
///
/// Timestamps are virtual seconds. Samples must be appended in
/// non-decreasing time order; this is asserted so that simulation bugs
/// surface immediately instead of corrupting figures downstream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    #[must_use]
    pub fn new() -> Self {
        Self { points: Vec::new() }
    }

    /// Appends a sample.
    ///
    /// # Panics
    /// Panics if `t` is NaN or earlier than the previous sample's time.
    pub fn push(&mut self, t: f64, value: f64) {
        assert!(t.is_finite(), "TimeSeries: non-finite timestamp {t}");
        if let Some(&(prev, _)) = self.points.last() {
            assert!(
                t >= prev,
                "TimeSeries: timestamps must be non-decreasing ({t} < {prev})"
            );
        }
        self.points.push((t, value));
    }

    /// All samples in time order.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last sample, if any.
    #[must_use]
    pub fn last(&self) -> Option<(f64, f64)> {
        self.points.last().copied()
    }

    /// Maximum value seen, if any.
    #[must_use]
    pub fn max_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Earliest time at which the value reaches `threshold`, if ever.
    ///
    /// This is the "time-to-accuracy" metric of Figs. 7, 8, and 10.
    #[must_use]
    pub fn time_to_reach(&self, threshold: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|&&(_, v)| v >= threshold)
            .map(|&(t, _)| t)
    }

    /// Value at time `t` using step ("last observation carried forward")
    /// semantics. Returns `None` before the first sample.
    #[must_use]
    pub fn value_at(&self, t: f64) -> Option<f64> {
        // partition_point gives the first index with time > t.
        let idx = self.points.partition_point(|&(pt, _)| pt <= t);
        if idx == 0 {
            None
        } else {
            Some(self.points[idx - 1].1)
        }
    }

    /// Resamples the series onto `n` evenly spaced timestamps spanning the
    /// observed range, with step semantics. Useful for aligning several
    /// methods' traces onto one printable grid.
    ///
    /// Returns an empty vector if the series is empty or `n == 0`.
    #[must_use]
    pub fn resample(&self, n: usize) -> Vec<(f64, f64)> {
        if self.points.is_empty() || n == 0 {
            return Vec::new();
        }
        let t0 = self.points[0].0;
        let t1 = self.points[self.points.len() - 1].0;
        if n == 1 || t1 <= t0 {
            return vec![(t0, self.points[0].1)];
        }
        (0..n)
            .map(|i| {
                let t = t0 + (t1 - t0) * i as f64 / (n - 1) as f64;
                (t, self.value_at(t).expect("t within range"))
            })
            .collect()
    }

    /// Trapezoidal area under the curve over the sampled range.
    #[must_use]
    pub fn auc(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| 0.5 * (w[1].1 + w[0].1) * (w[1].0 - w[0].0))
            .sum()
    }
}

impl FromIterator<(f64, f64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (f64, f64)>>(iter: I) -> Self {
        let mut s = TimeSeries::new();
        for (t, v) in iter {
            s.push(t, v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TimeSeries {
        [(0.0, 10.0), (1.0, 20.0), (2.0, 15.0), (4.0, 30.0)]
            .into_iter()
            .collect()
    }

    #[test]
    fn push_and_query() {
        let s = sample();
        assert_eq!(s.len(), 4);
        assert_eq!(s.last(), Some((4.0, 30.0)));
        assert_eq!(s.max_value(), Some(30.0));
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_time_travel() {
        let mut s = TimeSeries::new();
        s.push(5.0, 1.0);
        s.push(4.0, 1.0);
    }

    #[test]
    fn time_to_reach() {
        let s = sample();
        assert_eq!(s.time_to_reach(15.0), Some(1.0));
        assert_eq!(s.time_to_reach(30.0), Some(4.0));
        assert_eq!(s.time_to_reach(31.0), None);
        assert_eq!(s.time_to_reach(-1.0), Some(0.0));
    }

    #[test]
    fn value_at_step_semantics() {
        let s = sample();
        assert_eq!(s.value_at(-0.1), None);
        assert_eq!(s.value_at(0.0), Some(10.0));
        assert_eq!(s.value_at(0.9), Some(10.0));
        assert_eq!(s.value_at(1.0), Some(20.0));
        assert_eq!(s.value_at(3.9), Some(15.0));
        assert_eq!(s.value_at(100.0), Some(30.0));
    }

    #[test]
    fn resample_grid() {
        let s = sample();
        let r = s.resample(5);
        assert_eq!(r.len(), 5);
        assert_eq!(r[0], (0.0, 10.0));
        assert_eq!(r[4], (4.0, 30.0));
        assert_eq!(r[2].0, 2.0);
        assert_eq!(r[2].1, 15.0);
        assert!(s.resample(0).is_empty());
        assert!(TimeSeries::new().resample(5).is_empty());
    }

    #[test]
    fn auc_trapezoid() {
        let s: TimeSeries = [(0.0, 0.0), (2.0, 2.0)].into_iter().collect();
        assert!((s.auc() - 2.0).abs() < 1e-12);
        assert_eq!(TimeSeries::new().auc(), 0.0);
    }
}

//! Streaming and batch statistics.
//!
//! Used throughout the reproduction: the pipeline profiler keeps running
//! means of per-layer execution times, the FL server tracks response-latency
//! statistics per group, and the bench harness summarizes figure series.

use ecofl_compat::serde::{Deserialize, Serialize};

/// Arithmetic mean of a slice; `0.0` for an empty slice.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance of a slice; `0.0` for fewer than two elements.
#[must_use]
pub(crate) fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
#[must_use]
pub fn stddev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Linear-interpolated percentile (`p` in `[0, 100]`).
///
/// Returns `None` on an empty slice. The input need not be sorted.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("percentile: NaN in input"));
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = rank - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Welford's online mean/variance accumulator.
///
/// Numerically stable; O(1) memory, suitable for long-running profiler
/// streams.
///
/// # Examples
///
/// ```
/// use ecofl_util::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] { s.push(x); }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.count(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (`0.0` when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (`0.0` with fewer than two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`+inf` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`-inf` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel-reduction friendly).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exponential moving average used by the runtime profiler to smooth
/// per-stage execution-time reports before lagger detection (§4.4).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Ema {
    alpha: f64,
    value: Option<f64>,
}

impl Ema {
    /// Creates an EMA with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1]`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "Ema: alpha must be in (0,1]");
        Self { alpha, value: None }
    }

    /// Feeds one observation and returns the updated average.
    pub fn push(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(prev) => self.alpha * x + (1.0 - self.alpha) * prev,
        };
        self.value = Some(v);
        v
    }

    /// Current average, if any observation has been fed.
    #[must_use]
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(variance(&[5.0]), 0.0);
        assert!((variance(&[1.0, 2.0, 3.0]) - 2.0 / 3.0).abs() < 1e-12);
        assert!((stddev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        assert_eq!(percentile(&xs, 50.0), Some(2.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn running_stats_matches_batch() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut s = RunningStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert!((s.mean() - mean(&xs)).abs() < 1e-9);
        assert!((s.variance() - variance(&xs)).abs() < 1e-9);
        assert_eq!(s.count(), 100);
        assert_eq!(s.min(), xs.iter().copied().fold(f64::INFINITY, f64::min));
        assert_eq!(
            s.max(),
            xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        );
    }

    #[test]
    fn running_stats_merge_matches_single_stream() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 0.7 - 3.0).collect();
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..20] {
            a.push(x);
        }
        for &x in &xs[20..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(1.0);
        a.push(2.0);
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);
        let mut e = RunningStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn ema_converges() {
        let mut e = Ema::new(0.5);
        assert_eq!(e.value(), None);
        assert_eq!(e.push(10.0), 10.0);
        let v = e.push(0.0);
        assert_eq!(v, 5.0);
        for _ in 0..64 {
            e.push(0.0);
        }
        assert!(e.value().unwrap() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ema_rejects_bad_alpha() {
        let _ = Ema::new(0.0);
    }
}

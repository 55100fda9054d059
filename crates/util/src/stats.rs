//! Batch statistics and the smoothing average.
//!
//! [`mean`] averages the grouper's per-group figures (JS-from-IID,
//! latency centers, barrier latencies); [`stddev`] is the within-group
//! latency spread of the `grouping_lambda` example; [`Ema`] smooths
//! per-stage execution times before lagger detection (§4.4).

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

/// Exponential moving average used by the runtime profiler to smooth
/// per-stage execution-time reports before lagger detection (§4.4).
#[derive(Debug, Clone, Copy)]
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

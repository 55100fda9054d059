//! Model aggregation primitives.
//!
//! - [`weighted_average`] — the FedAvg/intra-group synchronous rule:
//!   `w ← Σ_c (|D_c|/|D^g|) · w_c`,
//! - [`StreamingAverage`] — the same rule folded incrementally, so a
//!   cohort's updates can be aggregated and dropped one at a time
//!   instead of all being held live at once,
//! - [`fedasync_mix`] — the FedAsync/inter-group asynchronous rule:
//!   `w(k) = (1−α) w(k−1) + α w_new`,
//! - [`staleness_alpha`] — polynomial staleness discounting
//!   `α_τ = α · (1 + k − τ)^{-a}` (Xie et al. 2019), which Eco-FL applies
//!   to group models arriving late.

/// Weighted average of parameter vectors.
///
/// # Panics
/// Panics on empty input, mismatched lengths, or non-positive total
/// weight.
#[must_use]
pub fn weighted_average(updates: &[(&[f32], f64)]) -> Vec<f32> {
    assert!(!updates.is_empty(), "weighted_average: no updates");
    let dim = updates[0].0.len();
    let total: f64 = updates.iter().map(|(_, w)| *w).sum();
    assert!(
        total > 0.0,
        "weighted_average: total weight must be positive"
    );
    let mut out = vec![0.0f64; dim];
    for (params, weight) in updates {
        assert_eq!(params.len(), dim, "weighted_average: length mismatch");
        let w = *weight / total;
        for (acc, &p) in out.iter_mut().zip(*params) {
            *acc += w * f64::from(p);
        }
    }
    out.into_iter().map(|x| x as f32).collect()
}

/// Streaming form of [`weighted_average`]: updates are folded in one at
/// a time and can be dropped immediately after, so peak memory is one
/// parameter vector per *in-flight* update rather than one per cohort
/// member.
///
/// The total weight must be known up front (in this simulator it is —
/// `num_samples` per client is fixed by the dataset before training
/// runs). Folding updates **in the same order** with the same weights
/// then performs the exact `acc += (w/total)·f64(p)` operation sequence
/// of `weighted_average`, so the result is bit-identical to the batch
/// rule.
#[derive(Debug, Clone)]
pub struct StreamingAverage {
    acc: Vec<f64>,
    total: f64,
    folded: f64,
}

impl StreamingAverage {
    /// Starts an accumulator for vectors of length `dim` whose weights
    /// will sum to `total_weight`.
    ///
    /// # Panics
    /// Panics if `total_weight` is not positive and finite.
    #[must_use]
    pub fn new(dim: usize, total_weight: f64) -> Self {
        assert!(
            total_weight > 0.0 && total_weight.is_finite(),
            "StreamingAverage: total weight must be positive, got {total_weight}"
        );
        Self {
            acc: vec![0.0f64; dim],
            total: total_weight,
            folded: 0.0,
        }
    }

    /// Folds one update into the running average.
    ///
    /// # Panics
    /// Panics on a length mismatch.
    pub fn fold(&mut self, params: &[f32], weight: f64) {
        assert_eq!(
            params.len(),
            self.acc.len(),
            "StreamingAverage: length mismatch"
        );
        let w = weight / self.total;
        for (acc, &p) in self.acc.iter_mut().zip(params) {
            *acc += w * f64::from(p);
        }
        self.folded += weight;
    }

    /// Finishes the average, rounding to `f32` exactly as
    /// [`weighted_average`] does.
    #[must_use]
    pub(crate) fn finish(self) -> Vec<f32> {
        self.acc.into_iter().map(|x| x as f32).collect()
    }
}

/// FedAsync mixing: `w ← (1−α) w + α w_new`, in place.
///
/// # Panics
/// Panics if lengths differ or `α` is outside `(0, 1]`.
pub fn fedasync_mix(global: &mut [f32], new: &[f32], alpha: f64) {
    assert_eq!(global.len(), new.len(), "fedasync_mix: length mismatch");
    assert!(
        alpha > 0.0 && alpha <= 1.0,
        "fedasync_mix: alpha must be in (0,1], got {alpha}"
    );
    let a = alpha as f32;
    for (g, &n) in global.iter_mut().zip(new) {
        *g = (1.0 - a) * *g + a * n;
    }
}

/// Staleness-adjusted mixing weight: `α · (1 + staleness)^(−exponent)`.
///
/// `staleness` is the number of global updates that happened since the
/// contributor synchronized (`k − τ`).
#[must_use]
pub fn staleness_alpha(alpha: f64, staleness: u64, exponent: f64) -> f64 {
    assert!(alpha > 0.0 && alpha <= 1.0);
    assert!(exponent >= 0.0);
    alpha * (1.0 + staleness as f64).powf(-exponent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_of_identical_is_identity() {
        let p = [1.0f32, -2.0, 3.0];
        let avg = weighted_average(&[(&p, 5.0), (&p, 3.0)]);
        for (a, b) in avg.iter().zip(&p) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn weights_proportional() {
        let a = [0.0f32];
        let b = [10.0f32];
        let avg = weighted_average(&[(&a, 1.0), (&b, 3.0)]);
        assert!((avg[0] - 7.5).abs() < 1e-6);
    }

    #[test]
    fn preserves_weighted_mean_property() {
        // Aggregating in two steps equals one step when weights compose.
        let u1 = [1.0f32, 2.0];
        let u2 = [3.0f32, 4.0];
        let u3 = [5.0f32, 6.0];
        let direct = weighted_average(&[(&u1, 1.0), (&u2, 1.0), (&u3, 2.0)]);
        let partial = weighted_average(&[(&u1, 1.0), (&u2, 1.0)]);
        let nested = weighted_average(&[(&partial, 2.0), (&u3, 2.0)]);
        for (a, b) in direct.iter().zip(&nested) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "total weight")]
    fn rejects_zero_weights() {
        let p = [1.0f32];
        let _ = weighted_average(&[(&p, 0.0)]);
    }

    #[test]
    fn streaming_average_bit_identical_to_batch() {
        // Pseudo-random but fully deterministic inputs; the streaming
        // fold must reproduce weighted_average *bitwise*, not just
        // approximately — `train_cohort_folded` is held bit-identical
        // to train-then-average by it.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let updates: Vec<(Vec<f32>, f64)> = (0..17)
            .map(|i| {
                let v: Vec<f32> = (0..257).map(|_| next()).collect();
                (v, 10.0 + i as f64 * 3.0)
            })
            .collect();
        let refs: Vec<(&[f32], f64)> = updates.iter().map(|(v, w)| (v.as_slice(), *w)).collect();
        let batch = weighted_average(&refs);

        let total: f64 = updates.iter().map(|(_, w)| *w).sum();
        let mut stream = StreamingAverage::new(257, total);
        for (v, w) in &updates {
            stream.fold(v, *w);
        }
        let streamed = stream.finish();
        assert_eq!(batch.len(), streamed.len());
        for (a, b) in batch.iter().zip(&streamed) {
            assert_eq!(a.to_bits(), b.to_bits(), "streaming fold diverged");
        }
    }

    #[test]
    #[should_panic(expected = "total weight")]
    fn streaming_rejects_nonpositive_total() {
        let _ = StreamingAverage::new(4, 0.0);
    }

    #[test]
    fn mix_moves_toward_new_model() {
        let mut g = vec![0.0f32, 0.0];
        fedasync_mix(&mut g, &[1.0, -1.0], 0.25);
        assert!((g[0] - 0.25).abs() < 1e-6);
        assert!((g[1] + 0.25).abs() < 1e-6);
        fedasync_mix(&mut g, &[1.0, -1.0], 1.0);
        assert_eq!(g, vec![1.0, -1.0]);
    }

    #[test]
    fn staleness_discounts_monotonically() {
        let a0 = staleness_alpha(0.5, 0, 0.5);
        let a1 = staleness_alpha(0.5, 1, 0.5);
        let a8 = staleness_alpha(0.5, 8, 0.5);
        assert_eq!(a0, 0.5);
        assert!(a1 < a0);
        assert!(a8 < a1);
        assert!(a8 > 0.0);
        // Zero exponent disables discounting.
        assert_eq!(staleness_alpha(0.3, 100, 0.0), 0.3);
    }
}

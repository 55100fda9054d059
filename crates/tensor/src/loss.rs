//! Softmax cross-entropy loss and classification accuracy.

use crate::kernel::{kernel_path, on_tier, KernelPath};
use crate::tensor::Tensor;

/// Numerically stable softmax of one logit row, in place.
#[inline(always)]
fn softmax_row(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in row.iter_mut() {
        let e = (*x - max).exp();
        *x = e;
        sum += e;
    }
    let inv = 1.0 / sum;
    for x in row.iter_mut() {
        *x *= inv;
    }
}

/// Numerically stable row-wise softmax of a `[B, K]` logit matrix: the
/// oracle the in-place head is tested against.
#[cfg(test)]
fn softmax(logits: &Tensor) -> Tensor {
    let k = logits.cols();
    let mut out = logits.clone();
    out.data_mut().chunks_mut(k.max(1)).for_each(softmax_row);
    out
}

/// Mean softmax cross-entropy head.
///
/// `loss_and_grad` returns the scalar mean loss over the batch and the
/// gradient with respect to the logits — `(softmax(x) − one_hot(y)) / B`.
#[derive(Debug, Default, Clone)]
pub struct SoftmaxCrossEntropy;

impl SoftmaxCrossEntropy {
    /// Creates the loss head.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Computes `(mean loss, d loss / d logits)` for `[B, K]` logits and a
    /// batch of class indices. The logits are consumed: probabilities and
    /// then the gradient are written over them, so the head allocates
    /// nothing.
    ///
    /// # Panics
    /// Panics if `targets.len()` differs from the batch size or a target is
    /// out of range.
    pub fn loss_and_grad(&mut self, mut logits: Tensor, targets: &[usize]) -> (f32, Tensor) {
        let (b, k) = (logits.rows(), logits.cols());
        assert_eq!(targets.len(), b, "loss: batch size mismatch");
        // SAFETY: `kernel_path` returns a tier only after detecting its CPU
        // features.
        let loss = unsafe { head_on(kernel_path(), logits.data_mut(), k, targets) };
        (loss, logits)
    }
}

/// The head's row loop on an explicit tier ([`on_tier`]): `logits` holds
/// `targets.len()` rows of `k` logits, overwritten with the gradient; returns
/// the mean loss. `exp` / `ln` are libm calls on every tier.
///
/// # Safety
/// The CPU must support `path`'s instruction set.
unsafe fn head_on(path: KernelPath, logits: &mut [f32], k: usize, targets: &[usize]) -> f32 {
    // SAFETY: the caller vouches for `path`.
    unsafe { on_tier(path, move || head_body(logits, k, targets)) }
}

#[inline(always)]
fn head_body(logits: &mut [f32], k: usize, targets: &[usize]) -> f32 {
    let mut loss = 0.0f32;
    let inv_b = 1.0 / targets.len() as f32;
    for (i, &t) in targets.iter().enumerate() {
        assert!(t < k, "loss: target {t} out of range for {k} classes");
        let row = &mut logits[i * k..(i + 1) * k];
        softmax_row(row);
        loss -= row[t].max(1e-12).ln();
        row[t] -= 1.0;
        for g in row.iter_mut() {
            *g *= inv_b;
        }
    }
    loss * inv_b
}

/// Index of the largest logit of a row — the last one among equals, as
/// `Iterator::max_by` picks — or `None` for an empty row or one holding a
/// NaN (a diverged model has no prediction).
#[must_use]
pub fn argmax(row: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &v) in row.iter().enumerate() {
        if v.is_nan() {
            return None;
        }
        if best.is_none_or(|(_, top)| v >= top) {
            best = Some((i, v));
        }
    }
    best.map(|(i, _)| i)
}

/// Fraction of rows whose argmax matches the target class. A row with a
/// NaN logit counts as wrong.
///
/// # Panics
/// Panics if `targets.len()` differs from the number of logit rows.
#[must_use]
pub(crate) fn accuracy(logits: &Tensor, targets: &[usize]) -> f64 {
    let (b, k) = (logits.rows(), logits.cols());
    assert_eq!(targets.len(), b, "accuracy: batch size mismatch");
    if b == 0 {
        return 0.0;
    }
    let correct = logits
        .data()
        .chunks(k.max(1))
        .zip(targets)
        .filter(|&(row, &t)| argmax(row) == Some(t))
        .count();
    correct as f64 / b as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{assert_bits, awkward_values, host_paths};
    use ecofl_util::Rng;

    #[test]
    fn every_tier_runs_the_head_with_the_bits_of_the_portable_loop() {
        let mut rng = Rng::new(0x4EAD);
        for k in 1..=67 {
            for rows in [1, 3, 10] {
                let logits = awkward_values(rows * k, &mut rng);
                let targets: Vec<usize> = (0..rows).map(|_| rng.range_usize(0, k)).collect();
                let mut want = logits.clone();
                // SAFETY: the portable tier runs on any CPU.
                let want_loss = unsafe { head_on(KernelPath::Portable, &mut want, k, &targets) };
                for path in host_paths() {
                    let mut got = logits.clone();
                    // SAFETY: `host_paths` lists detected tiers only.
                    let loss = unsafe { head_on(path, &mut got, k, &targets) };
                    let what = format!("{path:?} {rows}x{k}");
                    assert_bits(&[loss], &[want_loss], &format!("{what} loss"));
                    assert_bits(&got, &want, &what);
                }
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let p = softmax(&logits);
        for row in p.data().chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(row.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let logits = Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]);
        let p = softmax(&logits);
        assert!(p.data().iter().all(|x| x.is_finite()));
        assert!(p.data()[1] > p.data()[0]);
    }

    #[test]
    fn loss_decreases_with_correct_confidence() {
        let mut head = SoftmaxCrossEntropy::new();
        let confident = Tensor::from_vec(vec![5.0, 0.0], &[1, 2]);
        let unsure = Tensor::from_vec(vec![0.1, 0.0], &[1, 2]);
        let (l1, _) = head.loss_and_grad(confident, &[0]);
        let (l2, _) = head.loss_and_grad(unsure, &[0]);
        assert!(l1 < l2);
    }

    #[test]
    fn grad_is_probs_minus_onehot_over_batch() {
        let mut head = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![0.0, 0.0], &[1, 2]);
        let (loss, grad) = head.loss_and_grad(logits, &[1]);
        assert!((loss - (2.0f32).ln()).abs() < 1e-6);
        assert!((grad.data()[0] - 0.5).abs() < 1e-6);
        assert!((grad.data()[1] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn grad_matches_finite_difference() {
        let mut head = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![0.3, -0.7, 1.2, 0.0, 0.5, -0.5], &[2, 3]);
        let targets = [2usize, 0];
        let (_, grad) = head.loss_and_grad(logits.clone(), &targets);
        let eps = 1e-3f32;
        for i in 0..6 {
            let mut plus = logits.clone();
            plus.data_mut()[i] += eps;
            let mut minus = logits.clone();
            minus.data_mut()[i] -= eps;
            let (lp, _) = head.loss_and_grad(plus, &targets);
            let (lm, _) = head.loss_and_grad(minus, &targets);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad.data()[i]).abs() < 1e-3,
                "logit {i}: {numeric} vs {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn accuracy_counts_argmax() {
        let logits = Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4], &[3, 2]);
        assert_eq!(accuracy(&logits, &[0, 1, 1]), 2.0 / 3.0);
        assert_eq!(accuracy(&logits, &[0, 1, 0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn loss_rejects_bad_target() {
        let mut head = SoftmaxCrossEntropy::new();
        let logits = Tensor::zeros(&[1, 2]);
        let _ = head.loss_and_grad(logits, &[2]);
    }

    #[test]
    fn the_gradient_is_written_over_the_logits() {
        let mut head = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![0.3, -0.7, 1.2, 0.0, 0.5, -0.5], &[2, 3]);
        let (buffer, probs) = (logits.data().as_ptr(), softmax(&logits));
        let (_, grad) = head.loss_and_grad(logits, &[2, 0]);
        assert_eq!(grad.data().as_ptr(), buffer);
        let mut want = probs.data().to_vec();
        want[2] -= 1.0;
        want[3] -= 1.0;
        let want: Vec<f32> = want.iter().map(|g| g * 0.5).collect();
        assert_eq!(grad.data(), &want[..]);
    }

    #[test]
    fn argmax_takes_the_last_of_equals_and_refuses_nan() {
        assert_eq!(argmax(&[0.1, 0.9, 0.9, 0.2]), Some(2));
        assert_eq!(argmax(&[-0.0, 0.0]), Some(1));
        assert_eq!(argmax(&[f32::NEG_INFINITY]), Some(0));
        assert_eq!(argmax(&[1.0, f32::NAN, 3.0]), None);
        assert_eq!(argmax(&[]), None);
        // The reference: what `max_by(partial_cmp)` picked on finite rows.
        let row = [0.5f32, 2.0, -1.0, 2.0, 0.0];
        let by_max = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i);
        assert_eq!(argmax(&row), by_max);
    }

    #[test]
    fn a_nan_row_counts_as_wrong_instead_of_panicking() {
        let logits = Tensor::from_vec(vec![0.9, 0.1, f32::NAN, 0.8, 0.6, 0.4], &[3, 2]);
        assert_eq!(accuracy(&logits, &[0, 1, 0]), 2.0 / 3.0);
        let diverged = Tensor::full(&[4, 3], f32::NAN);
        assert_eq!(accuracy(&diverged, &[0, 1, 2, 0]), 0.0);
    }
}

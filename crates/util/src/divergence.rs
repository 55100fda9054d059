//! Probability-distribution divergences.
//!
//! The Eco-FL grouping cost (paper Eq. 4) is
//! `COST_n^g = |L_g - L_n| + λ · JS(π_n^g, π_iid)`, where `JS` is the
//! Jensen–Shannon divergence between the label distribution a group would
//! have after absorbing client `n` and the uniform (IID) distribution.
//! The paper uses JS rather than KL because JS is symmetric and, with
//! base-2 logarithms, normalized to `[0, 1]`.

/// Normalizes a non-negative weight vector into a probability distribution.
///
/// Returns a uniform distribution if the input sums to zero (an empty label
/// histogram is treated as "no information", matching how the grouping code
/// treats clients before profiling).
///
/// # Panics
/// Panics if the input is empty or contains a negative/non-finite value.
#[must_use]
pub fn normalize_distribution(weights: &[f64]) -> Vec<f64> {
    assert!(!weights.is_empty(), "normalize_distribution: empty input");
    for &w in weights {
        assert!(
            w.is_finite() && w >= 0.0,
            "normalize_distribution: weights must be finite and non-negative, got {w}"
        );
    }
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return vec![1.0 / weights.len() as f64; weights.len()];
    }
    weights.iter().map(|w| w / total).collect()
}

/// Kullback–Leibler divergence `KL(p ‖ q)` in bits.
///
/// Returns `f64::INFINITY` when `p` has mass where `q` has none (absolute
/// continuity violated).
///
/// # Panics
/// Panics if the slices have different lengths.
#[must_use]
pub fn kl_divergence(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "kl_divergence: length mismatch");
    let mut acc = 0.0;
    for (&pi, &qi) in p.iter().zip(q) {
        if pi > 0.0 {
            if qi <= 0.0 {
                return f64::INFINITY;
            }
            acc += pi * (pi / qi).log2();
        }
    }
    acc
}

/// Jensen–Shannon divergence in bits; symmetric and bounded in `[0, 1]`.
///
/// `JS(p, q) = ½ KL(p ‖ m) + ½ KL(q ‖ m)` with `m = ½(p + q)`.
///
/// # Examples
///
/// ```
/// use ecofl_util::js_divergence;
/// let p = [1.0, 0.0];
/// let q = [0.0, 1.0];
/// assert!((js_divergence(&p, &q) - 1.0).abs() < 1e-12, "disjoint support ⇒ 1 bit");
/// assert_eq!(js_divergence(&p, &p), 0.0);
/// ```
///
/// # Panics
/// Panics if the slices have different lengths.
#[must_use]
pub fn js_divergence(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "js_divergence: length mismatch");
    let mut acc = 0.0;
    for (&pi, &qi) in p.iter().zip(q) {
        let m = 0.5 * (pi + qi);
        if pi > 0.0 {
            acc += 0.5 * pi * (pi / m).log2();
        }
        if qi > 0.0 {
            acc += 0.5 * qi * (qi / m).log2();
        }
    }
    // Clamp tiny negative rounding noise.
    acc.max(0.0)
}

/// Uniform distribution over `n` classes — the `π_iid` reference of Eq. 4.
///
/// # Panics
/// Panics if `n == 0`.
#[must_use]
pub fn uniform_distribution(n: usize) -> Vec<f64> {
    assert!(n > 0, "uniform_distribution: n must be positive");
    vec![1.0 / n as f64; n]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_basic() {
        let d = normalize_distribution(&[1.0, 3.0]);
        assert_eq!(d, vec![0.25, 0.75]);
    }

    #[test]
    fn normalize_zero_gives_uniform() {
        let d = normalize_distribution(&[0.0, 0.0, 0.0, 0.0]);
        assert_eq!(d, vec![0.25; 4]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn normalize_rejects_negative() {
        let _ = normalize_distribution(&[1.0, -0.5]);
    }

    #[test]
    fn kl_properties() {
        let p = [0.5, 0.5];
        let q = [0.9, 0.1];
        assert!(kl_divergence(&p, &p).abs() < 1e-12);
        assert!(kl_divergence(&p, &q) > 0.0);
        assert_eq!(kl_divergence(&[1.0, 0.0], &[0.0, 1.0]), f64::INFINITY);
    }

    #[test]
    fn js_symmetric_and_bounded() {
        let p = [0.7, 0.2, 0.1];
        let q = [0.1, 0.1, 0.8];
        let a = js_divergence(&p, &q);
        let b = js_divergence(&q, &p);
        assert!((a - b).abs() < 1e-12, "JS must be symmetric");
        assert!(a > 0.0 && a <= 1.0);
    }

    #[test]
    fn js_identity_zero() {
        let p = normalize_distribution(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert!(js_divergence(&p, &p).abs() < 1e-12);
    }

    #[test]
    fn js_disjoint_support_is_one() {
        let p = [0.5, 0.5, 0.0, 0.0];
        let q = [0.0, 0.0, 0.5, 0.5];
        assert!((js_divergence(&p, &q) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn js_handles_finite_where_kl_infinite() {
        // The whole reason the paper picks JS over KL.
        let p = [1.0, 0.0];
        let q = [0.5, 0.5];
        assert!(kl_divergence(&q, &p).is_infinite());
        let js = js_divergence(&p, &q);
        assert!(js.is_finite() && js > 0.0 && js < 1.0);
    }
}

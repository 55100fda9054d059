//! Stochastic gradient descent with the FedProx proximal term.
//!
//! Eco-FL's intra-group local solver (§5.1) minimizes
//! `h_c(w) = F_c(w) + µ/2 · ‖w − w_group‖²` — plain local loss plus a
//! proximal pull toward the group model, which damps client drift under
//! non-IID data (FedProx, Sahu et al. 2018). The proximal gradient
//! contribution is `µ · (w − w_ref)` and is applied here, at the optimizer,
//! so models stay oblivious to the FL algorithm above them.

use ecofl_compat::serde::{Deserialize, Serialize};

/// SGD over flat parameter vectors, with optional momentum and an optional
/// FedProx proximal pull toward a reference parameter vector.
///
/// # Examples
///
/// ```
/// use ecofl_tensor::Sgd;
/// let mut opt = Sgd::new(0.1);
/// let mut w = vec![1.0f32];
/// opt.step(&mut w, &[2.0], None); // w ← 1 − 0.1·2
/// assert!((w[0] - 0.8).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    mu: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    #[must_use]
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            momentum: 0.0,
            mu: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Adds classical momentum.
    #[must_use]
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        self.momentum = momentum;
        self
    }

    /// Sets the FedProx proximal coefficient `µ` (0 disables the term).
    #[must_use]
    pub fn with_proximal(mut self, mu: f32) -> Self {
        assert!(mu >= 0.0, "proximal coefficient must be non-negative");
        self.mu = mu;
        self
    }

    /// Applies one update step in place.
    ///
    /// `reference` is the anchor `w_group` for the proximal term; pass
    /// `None` when `µ = 0` or no anchor applies (e.g. plain FedAvg local
    /// training).
    ///
    /// # Panics
    /// Panics if vector lengths disagree, or if `µ > 0` but no reference is
    /// supplied.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32], reference: Option<&[f32]>) {
        self.step_at(0, params.len(), params, grads, reference);
    }

    /// [`Sgd::step`] on one piece of a model whose `total` parameters live
    /// in several tensors: `params` / `grads` are the piece starting at
    /// flat index `offset`, while `reference` anchors the **whole** model
    /// and the momentum buffer is one flat `total`-long vector, both read
    /// from `offset`. Stepping every piece is therefore bit-identical to
    /// one `step` over the concatenation — and needs no copy of it.
    ///
    /// The mode branches (`µ > 0`? momentum?) are resolved once, outside
    /// the element loop, so each specialization below is a straight-line
    /// fused-multiply-add stream the compiler vectorizes. The per-element
    /// arithmetic is unchanged from the original branch-in-loop form, so
    /// results stay **bit-identical** to
    /// [`crate::reference::naive_sgd_step`] on every configuration.
    ///
    /// # Panics
    /// Panics if the piece does not fit `total`, if lengths disagree, or
    /// if `µ > 0` but no reference is supplied.
    pub fn step_at(
        &mut self,
        offset: usize,
        total: usize,
        params: &mut [f32],
        grads: &[f32],
        reference: Option<&[f32]>,
    ) {
        assert_eq!(
            params.len(),
            grads.len(),
            "step: params/grads length mismatch"
        );
        let piece = offset..offset + params.len();
        assert!(piece.end <= total, "step: piece {piece:?} outside {total}");
        let anchor = if self.mu > 0.0 {
            let anchor = reference.expect("step: proximal term requires a reference vector");
            assert_eq!(total, anchor.len(), "step: reference length mismatch");
            Some(&anchor[piece.clone()])
        } else {
            None
        };
        if self.momentum > 0.0 && self.velocity.len() != total {
            self.velocity = vec![0.0; total];
        }
        let velocity: &mut [f32] = if self.momentum > 0.0 {
            &mut self.velocity[piece]
        } else {
            &mut []
        };
        let (lr, mom, mu) = (self.lr, self.momentum, self.mu);
        match (anchor, mom > 0.0) {
            (None, false) => {
                for (p, &g) in params.iter_mut().zip(grads) {
                    *p -= lr * g;
                }
            }
            (None, true) => {
                for ((p, &g), v) in params.iter_mut().zip(grads).zip(velocity) {
                    let vnew = mom * *v + g;
                    *v = vnew;
                    *p -= lr * vnew;
                }
            }
            (Some(anchor), false) => {
                for ((p, &g), &a) in params.iter_mut().zip(grads).zip(anchor) {
                    // ∇[µ/2‖w − w_ref‖²] = µ(w − w_ref)
                    let gp = g + mu * (*p - a);
                    *p -= lr * gp;
                }
            }
            (Some(anchor), true) => {
                for (((p, &g), &a), v) in params.iter_mut().zip(grads).zip(anchor).zip(velocity) {
                    let gp = g + mu * (*p - a);
                    let vnew = mom * *v + gp;
                    *v = vnew;
                    *p -= lr * vnew;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_step() {
        let mut opt = Sgd::new(0.1);
        let mut w = vec![1.0, -2.0];
        opt.step(&mut w, &[0.5, -0.5], None);
        assert!((w[0] - 0.95).abs() < 1e-6);
        assert!((w[1] + 1.95).abs() < 1e-6);
    }

    #[test]
    fn proximal_pulls_toward_reference() {
        let mut opt = Sgd::new(0.1).with_proximal(1.0);
        let reference = vec![0.0f32];
        let mut w = vec![10.0f32];
        // Zero data gradient: only the proximal pull acts.
        for _ in 0..100 {
            opt.step(&mut w, &[0.0], Some(&reference));
        }
        assert!(
            w[0].abs() < 0.01,
            "w should decay toward the anchor, got {}",
            w[0]
        );
    }

    #[test]
    fn proximal_strength_scales_with_mu() {
        let reference = vec![0.0f32];
        let mut w_small = vec![1.0f32];
        let mut w_large = vec![1.0f32];
        Sgd::new(0.1)
            .with_proximal(0.1)
            .step(&mut w_small, &[0.0], Some(&reference));
        Sgd::new(0.1)
            .with_proximal(1.0)
            .step(&mut w_large, &[0.0], Some(&reference));
        assert!(w_large[0] < w_small[0]);
    }

    #[test]
    fn momentum_accelerates_constant_gradient() {
        let mut plain = Sgd::new(0.1);
        let mut momentum = Sgd::new(0.1).with_momentum(0.9);
        let mut wp = vec![0.0f32];
        let mut wm = vec![0.0f32];
        for _ in 0..10 {
            plain.step(&mut wp, &[1.0], None);
            momentum.step(&mut wm, &[1.0], None);
        }
        assert!(
            wm[0] < wp[0],
            "momentum should move farther: {} vs {}",
            wm[0],
            wp[0]
        );
    }

    #[test]
    #[should_panic(expected = "reference")]
    fn proximal_requires_reference() {
        let mut opt = Sgd::new(0.1).with_proximal(0.5);
        let mut w = vec![1.0f32];
        opt.step(&mut w, &[0.0], None);
    }

    #[test]
    fn stepping_the_pieces_equals_stepping_the_whole() {
        let reference: Vec<f32> = (0..7).map(|i| i as f32 * 0.1).collect();
        let grads: Vec<f32> = (0..7).map(|i| (i as f32 - 3.0) * 0.3).collect();
        let mut whole_opt = Sgd::new(0.1).with_momentum(0.9).with_proximal(0.05);
        let mut piece_opt = whole_opt.clone();
        let mut whole = vec![1.0f32; 7];
        let mut pieces = whole.clone();
        for _ in 0..3 {
            whole_opt.step(&mut whole, &grads, Some(&reference));
            let mut offset = 0;
            for len in [4, 0, 3] {
                let piece = offset..offset + len;
                piece_opt.step_at(
                    offset,
                    7,
                    &mut pieces[piece.clone()],
                    &grads[piece],
                    Some(&reference),
                );
                offset += len;
            }
            assert_eq!(whole, pieces);
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn step_at_rejects_a_piece_past_the_model() {
        Sgd::new(0.1).step_at(3, 4, &mut [0.0; 2], &[0.0; 2], None);
    }

    #[test]
    fn minimizes_quadratic() {
        // f(w) = (w-3)², ∇f = 2(w-3)
        let mut opt = Sgd::new(0.1).with_momentum(0.5);
        let mut w = vec![0.0f32];
        for _ in 0..100 {
            let g = 2.0 * (w[0] - 3.0);
            opt.step(&mut w, &[g], None);
        }
        assert!((w[0] - 3.0).abs() < 1e-3);
    }
}

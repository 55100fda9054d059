//! Stochastic gradient descent with the FedProx proximal term.
//!
//! Eco-FL's intra-group local solver (§5.1) minimizes
//! `h_c(w) = F_c(w) + µ/2 · ‖w − w_group‖²` — plain local loss plus a
//! proximal pull toward the group model, which damps client drift under
//! non-IID data (FedProx, Sahu et al. 2018). The proximal gradient
//! contribution is `µ · (w − w_ref)` and is applied here, at the optimizer,
//! so models stay oblivious to the FL algorithm above them.

use crate::kernel::{kernel_path, on_tier, KernelPath};

/// SGD over flat parameter vectors, with an optional FedProx proximal pull
/// toward a reference parameter vector.
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
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    mu: f32,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    #[must_use]
    pub fn new(lr: f32) -> Self {
        Self { lr, mu: 0.0 }
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
    /// and is read from `offset`. Stepping every piece is therefore
    /// bit-identical to one `step` over the concatenation — and needs no
    /// copy of it.
    ///
    /// The mode branch (`µ > 0`?) is resolved once, outside the element
    /// loop, so each specialization is a straight-line `mul`/`sub` stream
    /// the compiler vectorizes at the host's width (`step_on`). The
    /// per-element arithmetic is unchanged from the original
    /// branch-in-loop form, so results stay **bit-identical** to
    /// [`crate::reference::naive_sgd_step`] on every configuration and
    /// every tier.
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
            Some(&anchor[piece])
        } else {
            None
        };
        // SAFETY: `kernel_path` returns a tier only after detecting its CPU
        // features.
        unsafe { step_on(kernel_path(), self.lr, self.mu, params, grads, anchor) };
    }
}

/// The element loop of [`Sgd::step_at`] on an explicit tier ([`on_tier`]);
/// the unit tests call it with every tier the host supports.
///
/// # Safety
/// The CPU must support `path`'s instruction set.
unsafe fn step_on(
    path: KernelPath,
    lr: f32,
    mu: f32,
    params: &mut [f32],
    grads: &[f32],
    anchor: Option<&[f32]>,
) {
    // SAFETY: the caller vouches for `path`.
    unsafe { on_tier(path, move || step_body(lr, mu, params, grads, anchor)) }
}

#[inline(always)]
fn step_body(lr: f32, mu: f32, params: &mut [f32], grads: &[f32], anchor: Option<&[f32]>) {
    match anchor {
        None => {
            for (p, &g) in params.iter_mut().zip(grads) {
                *p -= lr * g;
            }
        }
        Some(anchor) => {
            for ((p, &g), &a) in params.iter_mut().zip(grads).zip(anchor) {
                // ∇[µ/2‖w − w_ref‖²] = µ(w − w_ref)
                let gp = g + mu * (*p - a);
                *p -= lr * gp;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{assert_bits, awkward_values, host_paths};
    use ecofl_util::Rng;

    #[test]
    fn every_tier_steps_the_bits_of_the_portable_loop() {
        let mut rng = Rng::new(0x5_6D57E9);
        for len in 0..=67 {
            let init = awkward_values(len, &mut rng);
            let grads = awkward_values(len, &mut rng);
            let anchor = awkward_values(len, &mut rng);
            for mu in [0.0, 0.05] {
                let anchor = (mu > 0.0).then_some(anchor.as_slice());
                let mut want = init.clone();
                // SAFETY: the portable tier runs on any CPU.
                unsafe { step_on(KernelPath::Portable, 0.1, mu, &mut want, &grads, anchor) };
                for path in host_paths() {
                    let mut got = init.clone();
                    // SAFETY: `host_paths` lists detected tiers only.
                    unsafe { step_on(path, 0.1, mu, &mut got, &grads, anchor) };
                    assert_bits(&got, &want, &format!("{path:?} µ={mu} len {len}"));
                }
            }
        }
    }

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
        let mut whole_opt = Sgd::new(0.1).with_proximal(0.05);
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
        let mut opt = Sgd::new(0.1);
        let mut w = vec![0.0f32];
        for _ in 0..100 {
            let g = 2.0 * (w[0] - 3.0);
            opt.step(&mut w, &[g], None);
        }
        assert!((w[0] - 3.0).abs() < 1e-3);
    }
}

//! Neural-network layers with manual backprop.
//!
//! Each layer caches what its backward pass needs during `forward`. The
//! [`Layer`] trait also exposes flat parameter/gradient serialization: FL
//! aggregation (FedAvg / FedAsync / Eco-FL's hierarchical scheme) exchanges
//! flat `f32` vectors, and the pipeline partitioner reasons about per-layer
//! parameter byte counts.
//!
//! Tensors travel through a layer stack **by value**: `forward` consumes
//! its input (a `Linear` moves it into its cache instead of cloning it) and
//! `backward` consumes the gradient it is handed. That lets every layer
//! keep the buffers it would otherwise free — `Linear` writes its output
//! into the last gradient it consumed and its input gradient over the
//! cached input, `ReLU` clamps and masks in place — so a steady-state
//! training step allocates nothing, while the arithmetic (and every result
//! bit) is that of the allocating step kept as the test oracle in
//! `tests/oracle`.

use crate::kernel::{kernel_path, on_tier, KernelPath};
use crate::tensor::Tensor;
use ecofl_util::Rng;
use std::collections::VecDeque;

/// A differentiable network layer.
///
/// Contract: forwards and backwards match FIFO — the `n`-th `backward`
/// receives the gradient of the loss with respect to the output of the
/// `n`-th `forward` not yet backpropagated, and returns the gradient with
/// respect to that forward's input. Several forwards may be in flight
/// (pipelined micro-batches). Parameter gradients accumulate until
/// [`Layer::zero_grads`].
pub trait Layer: Send {
    /// Computes the layer output, caching activations for backward.
    fn forward(&mut self, input: Tensor) -> Tensor;

    /// Backpropagates `grad_out` (d loss / d output), accumulating parameter
    /// gradients and returning d loss / d input.
    fn backward(&mut self, grad_out: Tensor) -> Tensor;

    /// [`Layer::backward`] for a caller with no consumer for
    /// d loss / d input — the first layer of a [`crate::Network`], stage 0
    /// of a pipeline. Parameter gradients accumulate and the cache is
    /// popped exactly as in `backward`, but a layer may skip the
    /// input-gradient product: the returned tensor is a buffer for the
    /// caller to recycle, its contents unspecified.
    fn backward_params_only(&mut self, grad_out: Tensor) -> Tensor {
        self.backward(grad_out)
    }

    /// Total number of scalar parameters.
    fn param_len(&self) -> usize {
        0
    }

    /// Appends all parameters to `out` in a fixed layer-defined order.
    fn write_params(&self, _out: &mut Vec<f32>) {}

    /// Reads parameters back from `src`, returning the number consumed.
    fn read_params(&mut self, _src: &[f32]) -> usize {
        0
    }

    /// Appends all accumulated gradients to `out` (same order as params).
    fn write_grads(&self, _out: &mut Vec<f32>) {}

    /// Calls `visit(params, grads)` on each parameter tensor where it
    /// lives, in [`Layer::write_params`] order — the in-place optimizer
    /// step ([`crate::Network::sgd_step`]).
    fn visit_params(&mut self, _visit: &mut dyn FnMut(&mut [f32], &[f32])) {}

    /// Clears accumulated gradients.
    fn zero_grads(&mut self) {}

    /// Drops any cached forward activations without running backward.
    ///
    /// Needed after inference-only forwards (evaluation) so pipelined
    /// training, which matches forwards and backwards FIFO, stays in sync.
    fn clear_cache(&mut self) {}

    /// Human-readable layer name for diagnostics.
    fn name(&self) -> &'static str;
}

/// Backpropagates `grad` through `layers` (a [`crate::Network`], a pipeline
/// stage) from the last to the first. With `input_grad` unset nobody
/// consumes d loss / d input, so the first layer runs
/// [`Layer::backward_params_only`] and what comes back is only a buffer to
/// recycle.
pub fn backward_through(
    layers: &mut [Box<dyn Layer>],
    mut grad: Tensor,
    input_grad: bool,
) -> Tensor {
    let Some((first, rest)) = layers.split_first_mut() else {
        return grad;
    };
    for layer in rest.iter_mut().rev() {
        grad = layer.backward(grad);
    }
    if input_grad {
        first.backward(grad)
    } else {
        first.backward_params_only(grad)
    }
}

/// `acc[j] += Σ_r g[r,j]` over the rows of `g`, each column summed from
/// `+0.0` in ascending row order *before* it is added: the bits of a
/// separate row-sum vector added onto `acc`, without the vector.
fn add_column_sums(acc: &mut [f32], g: &[f32]) {
    // SAFETY: `kernel_path` returns a tier only after detecting its CPU
    // features.
    unsafe { add_column_sums_on(kernel_path(), acc, g) };
}

/// [`add_column_sums`] on an explicit tier ([`on_tier`]).
///
/// # Safety
/// The CPU must support `path`'s instruction set.
unsafe fn add_column_sums_on(path: KernelPath, acc: &mut [f32], g: &[f32]) {
    // SAFETY: the caller vouches for `path`.
    unsafe { on_tier(path, move || column_sums_body(acc, g)) }
}

#[inline(always)]
fn column_sums_body(acc: &mut [f32], g: &[f32]) {
    const STRIP: usize = 16;
    let n = acc.len();
    for (s, strip) in acc.chunks_mut(STRIP).enumerate() {
        let mut sums = [0.0f32; STRIP];
        for row in g.chunks_exact(n) {
            for (sum, &v) in sums.iter_mut().zip(&row[s * STRIP..][..strip.len()]) {
                *sum += v;
            }
        }
        for (a, sum) in strip.iter_mut().zip(sums) {
            *a += sum;
        }
    }
}

/// Fully connected layer: `y = x W + b`, `x: [B, in]`, `W: [in, out]`.
pub struct Linear {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: VecDeque<Tensor>,
    /// The last gradient consumed: a `[B, out]` buffer the next forward
    /// writes its output into.
    spare: Option<Tensor>,
}

impl Linear {
    /// He-initialized linear layer.
    #[must_use]
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        let std = (2.0 / in_dim as f64).sqrt() as f32;
        Self {
            weight: Tensor::randn(&[in_dim, out_dim], std, rng),
            ..Self::zeroed(in_dim, out_dim)
        }
    }

    /// Zero-initialized linear layer — for receivers that immediately
    /// overwrite the parameters (`set_params`), skipping the Gaussian
    /// draws of [`Linear::new`].
    #[must_use]
    pub fn zeroed(in_dim: usize, out_dim: usize) -> Self {
        Self {
            weight: Tensor::zeros(&[in_dim, out_dim]),
            bias: Tensor::zeros(&[out_dim]),
            grad_weight: Tensor::zeros(&[in_dim, out_dim]),
            grad_bias: Tensor::zeros(&[out_dim]),
            cached_input: VecDeque::new(),
            spare: None,
        }
    }

    /// Pops the forward this gradient belongs to and accumulates
    /// `dW += xᵀ·g`, `db += Σ_rows g`; returns the popped input.
    fn accumulate_grads(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .pop_front()
            .expect("Linear::backward called before forward");
        // Asserts `grad_out` is `[B, out]`, which the bias sum relies on.
        input.matmul_tn_acc(grad_out, &mut self.grad_weight);
        add_column_sums(self.grad_bias.data_mut(), grad_out.data());
        input
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: Tensor) -> Tensor {
        let mut out = self.spare.take().unwrap_or_else(|| Tensor::zeros(&[0, 0]));
        input.matmul_into(&self.weight, &mut out);
        out.add_row_bias(&self.bias);
        self.cached_input.push_back(input);
        out
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        // dW = xᵀ g ; db = Σ_rows g ; dx = g Wᵀ, written over x's buffer.
        // Both transpose-composed products run kernels that never
        // materialize a transpose.
        let mut grad_in = self.accumulate_grads(&grad_out);
        grad_out.matmul_nt_into(&self.weight, &mut grad_in);
        self.spare = Some(grad_out);
        grad_in
    }

    fn backward_params_only(&mut self, grad_out: Tensor) -> Tensor {
        let input = self.accumulate_grads(&grad_out);
        self.spare = Some(grad_out);
        input
    }

    fn param_len(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn write_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.weight.data());
        out.extend_from_slice(self.bias.data());
    }

    fn read_params(&mut self, src: &[f32]) -> usize {
        let w = self.weight.len();
        let b = self.bias.len();
        self.weight.data_mut().copy_from_slice(&src[..w]);
        self.bias.data_mut().copy_from_slice(&src[w..w + b]);
        w + b
    }

    fn write_grads(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.grad_weight.data());
        out.extend_from_slice(self.grad_bias.data());
    }

    fn visit_params(&mut self, visit: &mut dyn FnMut(&mut [f32], &[f32])) {
        visit(self.weight.data_mut(), self.grad_weight.data());
        visit(self.bias.data_mut(), self.grad_bias.data());
    }

    fn zero_grads(&mut self) {
        self.grad_weight.zero();
        self.grad_bias.zero();
    }

    fn clear_cache(&mut self) {
        self.cached_input.clear();
    }

    fn name(&self) -> &'static str {
        "linear"
    }
}

/// Rectified linear unit, applied element-wise.
#[derive(Default)]
pub struct ReLU {
    masks: VecDeque<Vec<bool>>,
    /// The last mask consumed, refilled by the next forward.
    spare: Vec<bool>,
}

impl ReLU {
    /// Creates a ReLU layer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// ReLU's forward in place on an explicit tier ([`on_tier`]): clamps `x`
/// and records in `mask` which elements passed.
///
/// # Safety
/// The CPU must support `path`'s instruction set.
unsafe fn relu_forward_on(path: KernelPath, x: &mut [f32], mask: &mut Vec<bool>) {
    // SAFETY: the caller vouches for `path`.
    unsafe { on_tier(path, move || relu_forward_body(x, mask)) }
}

#[inline(always)]
fn relu_forward_body(x: &mut [f32], mask: &mut Vec<bool>) {
    mask.clear();
    // Unconditional stores of a selected value: a branch on the sign of
    // an activation mispredicts every other element.
    mask.extend(x.iter_mut().map(|x| {
        let keep = *x > 0.0;
        *x = if keep { *x } else { 0.0 };
        keep
    }));
}

/// ReLU's backward in place on an explicit tier ([`on_tier`]): zeroes the
/// gradient where the forward's `mask` is unset.
///
/// # Safety
/// The CPU must support `path`'s instruction set.
unsafe fn relu_backward_on(path: KernelPath, g: &mut [f32], mask: &[bool]) {
    // SAFETY: the caller vouches for `path`.
    unsafe { on_tier(path, move || relu_backward_body(g, mask)) }
}

#[inline(always)]
fn relu_backward_body(g: &mut [f32], mask: &[bool]) {
    for (g, &keep) in g.iter_mut().zip(mask) {
        *g = if keep { *g } else { 0.0 };
    }
}

impl Layer for ReLU {
    fn forward(&mut self, mut input: Tensor) -> Tensor {
        let mut mask = std::mem::take(&mut self.spare);
        // SAFETY: `kernel_path` returns a tier only after detecting its CPU
        // features.
        unsafe { relu_forward_on(kernel_path(), input.data_mut(), &mut mask) };
        self.masks.push_back(mask);
        input
    }

    fn backward(&mut self, mut grad_out: Tensor) -> Tensor {
        let mask = self
            .masks
            .pop_front()
            .expect("ReLU::backward called before forward");
        assert_eq!(
            grad_out.len(),
            mask.len(),
            "ReLU::backward: gradient size mismatch with cached forward"
        );
        // SAFETY: `kernel_path` returns a tier only after detecting its CPU
        // features.
        unsafe { relu_backward_on(kernel_path(), grad_out.data_mut(), &mask) };
        self.spare = mask;
        grad_out
    }

    fn clear_cache(&mut self) {
        self.masks.clear();
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{assert_bits, awkward_values, host_paths};
    use crate::loss::SoftmaxCrossEntropy;

    #[test]
    fn every_tier_runs_relu_with_the_bits_of_the_portable_loops() {
        let mut rng = Rng::new(0x4E_1D);
        for len in 0..=67 {
            let x = awkward_values(len, &mut rng);
            let g = awkward_values(len, &mut rng);
            let (mut want_x, mut want_mask) = (x.clone(), Vec::new());
            let mut want_g = g.clone();
            // SAFETY: the portable tier runs on any CPU.
            unsafe {
                relu_forward_on(KernelPath::Portable, &mut want_x, &mut want_mask);
                relu_backward_on(KernelPath::Portable, &mut want_g, &want_mask);
            }
            for path in host_paths() {
                // A stale, longer mask buffer is cleared, not appended to.
                let (mut got_x, mut got_mask) = (x.clone(), vec![true; 70]);
                let mut got_g = g.clone();
                // SAFETY: `host_paths` lists detected tiers only.
                unsafe {
                    relu_forward_on(path, &mut got_x, &mut got_mask);
                    relu_backward_on(path, &mut got_g, &got_mask);
                }
                assert_bits(&got_x, &want_x, &format!("{path:?} forward, len {len}"));
                assert_eq!(got_mask, want_mask, "{path:?} mask, len {len}");
                assert_bits(&got_g, &want_g, &format!("{path:?} backward, len {len}"));
            }
        }
    }

    #[test]
    fn every_tier_adds_the_column_sums_of_the_portable_loop() {
        let mut rng = Rng::new(0xC0_15);
        for n in 0..=67 {
            for rows in [1, 3, 10] {
                let g = awkward_values(rows * n, &mut rng);
                let acc = awkward_values(n, &mut rng);
                let mut want = acc.clone();
                // SAFETY: the portable tier runs on any CPU.
                unsafe { add_column_sums_on(KernelPath::Portable, &mut want, &g) };
                for path in host_paths() {
                    let mut got = acc.clone();
                    // SAFETY: `host_paths` lists detected tiers only.
                    unsafe { add_column_sums_on(path, &mut got, &g) };
                    assert_bits(&got, &want, &format!("{path:?} {rows}x{n}"));
                }
            }
        }
    }

    /// Central finite-difference check of d loss / d params for one layer
    /// whose `[B, K]` output feeds a cross-entropy head.
    fn finite_diff_check<L: Layer>(mut layer: L, input: Tensor, targets: &[usize], tol: f32) {
        let mut head = SoftmaxCrossEntropy::new();
        let logits = |layer: &mut L| {
            let out = layer.forward(input.clone());
            layer.clear_cache();
            out
        };

        // Analytic gradient.
        layer.zero_grads();
        let (_, grad) = head.loss_and_grad(layer.forward(input.clone()), targets);
        let _ = layer.backward(grad);
        let mut analytic = Vec::new();
        layer.write_grads(&mut analytic);

        // Numeric gradient.
        let mut params = Vec::new();
        layer.write_params(&mut params);
        let eps = 1e-2f32;
        for i in (0..params.len()).step_by((params.len() / 24).max(1)) {
            let orig = params[i];
            params[i] = orig + eps;
            layer.read_params(&params);
            let (lp, _) = head.loss_and_grad(logits(&mut layer), targets);
            params[i] = orig - eps;
            layer.read_params(&params);
            let (lm, _) = head.loss_and_grad(logits(&mut layer), targets);
            params[i] = orig;
            layer.read_params(&params);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic[i]).abs() < tol.max(0.05 * numeric.abs()),
                "param {i}: numeric {numeric} vs analytic {}",
                analytic[i]
            );
        }
    }

    #[test]
    fn linear_forward_known() {
        let mut rng = Rng::new(1);
        let mut l = Linear::new(2, 2, &mut rng);
        l.read_params(&[1.0, 2.0, 3.0, 4.0, 0.5, -0.5]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = l.forward(x);
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn linear_gradients_match_finite_difference() {
        let mut rng = Rng::new(2);
        let layer = Linear::new(6, 4, &mut rng);
        let input = Tensor::randn(&[3, 6], 1.0, &mut rng);
        finite_diff_check(layer, input, &[0, 2, 3], 2e-2);
    }

    #[test]
    fn relu_masks_gradient() {
        let mut r = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[2, 2]);
        let y = r.forward(x);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 4.0]);
        let g = Tensor::full(&[2, 2], 1.0);
        let gx = r.backward(g);
        assert_eq!(gx.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn linear_recycles_buffers_and_keeps_fifo_order() {
        let mut rng = Rng::new(7);
        let mut l = Linear::new(3, 2, &mut rng);
        // Two micro-batches in flight: backwards pop in forward order, and
        // each input gradient is written over its own cached input.
        let x1 = Tensor::randn(&[4, 3], 1.0, &mut rng);
        let x2 = Tensor::randn(&[2, 3], 1.0, &mut rng);
        let (x1_buf, x2_buf) = (x1.data().as_ptr(), x2.data().as_ptr());
        let y1 = l.forward(x1);
        let y2 = l.forward(x2);
        assert_eq!((y1.shape(), y2.shape()), (&[4, 2][..], &[2, 2][..]));
        let g1 = Tensor::randn(&[4, 2], 1.0, &mut rng);
        let gx1 = l.backward(g1.clone());
        assert_eq!(gx1, g1.matmul_nt(&l.weight));
        assert_eq!(gx1.data().as_ptr(), x1_buf);
        let g2 = Tensor::zeros(&[2, 2]);
        let g2_buf = g2.data().as_ptr();
        let gx2 = l.backward(g2);
        assert_eq!((gx2.shape(), gx2.data().as_ptr()), (&[2, 3][..], x2_buf));
        // The gradient consumed last is the next forward's output buffer,
        // resized to the new batch.
        let y3 = l.forward(Tensor::zeros(&[1, 3]));
        assert_eq!((y3.shape(), y3.data().as_ptr()), (&[1, 2][..], g2_buf));
    }

    #[test]
    fn params_only_backward_skips_nothing_but_the_input_gradient() {
        let mut rng = Rng::new(8);
        let mut full = Linear::new(5, 3, &mut rng);
        let mut skip = Linear::zeroed(5, 3);
        let mut params = Vec::new();
        full.write_params(&mut params);
        skip.read_params(&params);
        for batch in [4, 1, 7] {
            let x = Tensor::randn(&[batch, 5], 1.0, &mut rng);
            let g = Tensor::randn(&[batch, 3], 1.0, &mut rng);
            assert_eq!(full.forward(x.clone()), skip.forward(x.clone()));
            let _ = full.backward(g.clone());
            let recycled = skip.backward_params_only(g);
            assert_eq!(recycled.shape(), &[batch, 5]);
        }
        let (mut gf, mut gs) = (Vec::new(), Vec::new());
        full.write_grads(&mut gf);
        skip.write_grads(&mut gs);
        assert_eq!(gf, gs);
        assert!(skip.cached_input.is_empty());
    }

    #[test]
    fn column_sums_add_a_sum_formed_from_positive_zero() {
        // 40 columns span three strips; a column of −0.0 sums to +0.0
        // before it meets a −0.0 accumulator: −0.0 + +0.0 = +0.0.
        let n = 40;
        let g: Vec<f32> = (0..3 * n)
            .map(|i| if i % n == 0 { -0.0 } else { i as f32 })
            .collect();
        let mut acc = vec![-0.0f32; n];
        add_column_sums(&mut acc, &g);
        let want = Tensor::from_vec(g, &[3, n]).sum_rows();
        for (j, (a, w)) in acc.iter().zip(want.data()).enumerate() {
            assert_eq!(a.to_bits(), (-0.0f32 + w).to_bits(), "column {j}");
        }
        assert_eq!(acc[0].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn visit_params_walks_write_params_order() {
        let mut rng = Rng::new(9);
        let mut l = Linear::new(4, 3, &mut rng);
        let _ = l.forward(Tensor::randn(&[2, 4], 1.0, &mut rng));
        let _ = l.backward(Tensor::randn(&[2, 3], 1.0, &mut rng));
        let (mut params, mut grads) = (Vec::new(), Vec::new());
        l.write_params(&mut params);
        l.write_grads(&mut grads);
        let (mut seen_p, mut seen_g) = (Vec::new(), Vec::new());
        l.visit_params(&mut |p, g| {
            seen_p.extend_from_slice(p);
            seen_g.extend_from_slice(g);
        });
        assert_eq!((seen_p, seen_g), (params, grads));
    }

    #[test]
    fn param_round_trip() {
        let mut rng = Rng::new(5);
        let mut l = Linear::new(4, 3, &mut rng);
        let mut before = Vec::new();
        l.write_params(&mut before);
        assert_eq!(before.len(), l.param_len());
        let consumed = l.read_params(&before);
        assert_eq!(consumed, before.len());
        let mut after = Vec::new();
        l.write_params(&mut after);
        assert_eq!(before, after);
    }
}

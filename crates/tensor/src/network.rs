//! Sequential network container.
//!
//! A [`Network`] is an ordered stack of boxed [`Layer`]s plus a softmax
//! cross-entropy head. It exposes the flat parameter-vector view that the
//! FL aggregators operate on: `params()` / `set_params()` round-trip the
//! entire model as one `Vec<f32>`, and `grads()` yields the matching
//! gradient vector after a backward pass. Training does not go through
//! that view: [`Network::sgd_step`] updates every parameter tensor where it
//! lives.

use crate::layers::{backward_through, Layer};
use crate::loss::{accuracy, SoftmaxCrossEntropy};
use crate::optim::Sgd;
use crate::tensor::Tensor;

/// A sequential feed-forward classification network.
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    head: SoftmaxCrossEntropy,
    /// The buffer the first layer handed back from the last training
    /// step: the next forward copies its input into it.
    input: Option<Tensor>,
}

impl Network {
    /// Builds a network from an ordered list of layers.
    #[must_use]
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Self {
            layers,
            head: SoftmaxCrossEntropy::new(),
            input: None,
        }
    }

    /// Total number of scalar parameters.
    #[must_use]
    pub fn param_len(&self) -> usize {
        self.layers.iter().map(|l| l.param_len()).sum()
    }

    /// Runs a forward pass and returns the logits.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut x = self.input.take().unwrap_or_else(|| Tensor::zeros(&[0]));
        x.clone_from(input);
        for layer in &mut self.layers {
            x = layer.forward(x);
        }
        x
    }

    /// Forward + loss + backward: accumulates gradients and returns the
    /// mean batch loss. Nothing consumes d loss / d input, so the first
    /// layer's input-gradient product is skipped, not computed and dropped.
    pub fn train_step(&mut self, input: &Tensor, targets: &[usize]) -> f32 {
        let logits = self.forward(input);
        let (loss, grad) = self.head.loss_and_grad(logits, targets);
        self.input = Some(backward_through(&mut self.layers, grad, false));
        loss
    }

    /// One optimizer step on the accumulated gradients, applied to every
    /// parameter tensor in place. `anchor` is the proximal reference in
    /// the flat [`Network::params`] layout; the pieces are stepped at
    /// their flat offsets ([`Sgd::step_at`]), so the result is bit-identical
    /// to `params` → [`Sgd::step`] → `set_params` without the three copies.
    pub fn sgd_step(&mut self, opt: &mut Sgd, anchor: Option<&[f32]>) {
        let total = self.param_len();
        let mut offset = 0;
        for layer in &mut self.layers {
            layer.visit_params(&mut |params, grads| {
                opt.step_at(offset, total, params, grads, anchor);
                offset += params.len();
            });
        }
        assert_eq!(
            offset, total,
            "sgd_step: layers visited {offset} of {total} parameters"
        );
    }

    /// Mean loss and accuracy without touching gradients.
    ///
    /// Drops the forward's cached activations afterwards so evaluation
    /// never desynchronizes the FIFO forward/backward matching used by
    /// pipelined training.
    pub fn evaluate(&mut self, input: &Tensor, targets: &[usize]) -> (f32, f64) {
        let logits = self.forward(input);
        self.clear_caches();
        let accuracy = accuracy(&logits, targets);
        let (loss, _) = self.head.loss_and_grad(logits, targets);
        (loss, accuracy)
    }

    /// Drops all cached forward activations (inference-only cleanup).
    pub fn clear_caches(&mut self) {
        for layer in &mut self.layers {
            layer.clear_cache();
        }
    }

    /// All parameters as one flat vector (layer order, fixed layout).
    #[must_use]
    pub fn params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_len());
        self.params_into(&mut out);
        out
    }

    /// Clears `out` and writes all parameters into it, reusing its
    /// allocation.
    pub(crate) fn params_into(&self, out: &mut Vec<f32>) {
        out.clear();
        for layer in &self.layers {
            layer.write_params(out);
        }
    }

    /// All accumulated gradients, same layout as [`Network::params`].
    #[must_use]
    pub fn grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_len());
        self.grads_into(&mut out);
        out
    }

    /// Clears `out` and writes all gradients into it, reusing its
    /// allocation.
    pub(crate) fn grads_into(&self, out: &mut Vec<f32>) {
        out.clear();
        for layer in &self.layers {
            layer.write_grads(out);
        }
    }

    /// Overwrites all parameters from a flat vector.
    ///
    /// # Panics
    /// Panics if `src.len()` differs from [`Network::param_len`].
    pub fn set_params(&mut self, src: &[f32]) {
        assert_eq!(
            src.len(),
            self.param_len(),
            "set_params: expected {} values, got {}",
            self.param_len(),
            src.len()
        );
        let mut offset = 0;
        for layer in &mut self.layers {
            offset += layer.read_params(&src[offset..]);
        }
        debug_assert_eq!(offset, src.len());
    }

    /// Clears all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, ReLU};
    use crate::optim::Sgd;
    use ecofl_util::Rng;

    fn tiny_net(rng: &mut Rng) -> Network {
        Network::new(vec![
            Box::new(Linear::new(4, 8, rng)),
            Box::new(ReLU::new()),
            Box::new(Linear::new(8, 3, rng)),
        ])
    }

    /// Linearly separable 3-class toy problem.
    fn toy_batch() -> (Tensor, Vec<usize>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..30 {
            let class = i % 3;
            let mut row = vec![0.1f32; 4];
            row[class] = 1.0 + (i as f32 % 5.0) * 0.01;
            xs.extend_from_slice(&row);
            ys.push(class);
        }
        (Tensor::from_vec(xs, &[30, 4]), ys)
    }

    #[test]
    fn param_round_trip() {
        let mut rng = Rng::new(1);
        let mut net = tiny_net(&mut rng);
        let p = net.params();
        assert_eq!(p.len(), net.param_len());
        assert_eq!(p.len(), 4 * 8 + 8 + 8 * 3 + 3);
        net.set_params(&p);
        assert_eq!(net.params(), p);
    }

    #[test]
    fn training_reduces_loss_and_learns() {
        let mut rng = Rng::new(2);
        let mut net = tiny_net(&mut rng);
        let (x, y) = toy_batch();
        let mut opt = Sgd::new(0.5);
        let (initial_loss, _) = net.evaluate(&x, &y);
        for _ in 0..60 {
            net.zero_grads();
            let _ = net.train_step(&x, &y);
            net.sgd_step(&mut opt, None);
        }
        let (final_loss, acc) = net.evaluate(&x, &y);
        assert!(
            final_loss < initial_loss * 0.5,
            "{initial_loss} -> {final_loss}"
        );
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn grads_layout_matches_params() {
        let mut rng = Rng::new(3);
        let mut net = tiny_net(&mut rng);
        let (x, y) = toy_batch();
        net.zero_grads();
        let _ = net.train_step(&x, &y);
        assert_eq!(net.grads().len(), net.param_len());
    }

    #[test]
    fn zero_grads_clears() {
        let mut rng = Rng::new(4);
        let mut net = tiny_net(&mut rng);
        let (x, y) = toy_batch();
        let _ = net.train_step(&x, &y);
        assert!(net.grads().iter().any(|&g| g != 0.0));
        net.zero_grads();
        assert!(net.grads().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn sgd_step_in_place_equals_the_flat_copy_chain() {
        let mut rng = Rng::new(6);
        let mut in_place = tiny_net(&mut rng);
        let mut flat = tiny_net(&mut Rng::new(6));
        let anchor = in_place.params();
        let (x, y) = toy_batch();
        let mut opt_a = Sgd::new(0.1).with_proximal(0.05);
        let mut opt_b = opt_a.clone();
        for _ in 0..4 {
            in_place.zero_grads();
            flat.zero_grads();
            assert_eq!(in_place.train_step(&x, &y), flat.train_step(&x, &y));
            in_place.sgd_step(&mut opt_a, Some(&anchor));
            let mut params = flat.params();
            opt_b.step(&mut params, &flat.grads(), Some(&anchor));
            flat.set_params(&params);
            assert_eq!(in_place.params(), params);
        }
    }

    #[test]
    fn the_input_buffer_comes_back_from_the_first_layer() {
        let mut rng = Rng::new(7);
        let mut net = tiny_net(&mut rng);
        let (x, y) = toy_batch();
        let _ = net.train_step(&x, &y);
        let buffer = net.input.as_ref().expect("recycled").data().as_ptr();
        let _ = net.train_step(&x, &y);
        assert_eq!(
            net.input.as_ref().expect("recycled").data().as_ptr(),
            buffer
        );
    }

    #[test]
    #[should_panic(expected = "set_params")]
    fn set_params_checks_length() {
        let mut rng = Rng::new(5);
        let mut net = tiny_net(&mut rng);
        net.set_params(&[0.0; 3]);
    }
}

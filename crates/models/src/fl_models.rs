//! Trainable client models for the FL simulations.
//!
//! The FL-scale experiments need models that are cheap enough to train for
//! hundreds of clients over hundreds of virtual rounds, yet expressive
//! enough that non-IID label skew genuinely hurts convergence. A two-hidden-
//! layer MLP on the 32-dimensional synthetic features fills that role (it
//! is the synthetic-data analogue of the FedAVG "2NN"); a small CNN over
//! 8×8 single-channel layouts exercises the convolution path.

use ecofl_tensor::{AvgPool2d, Conv2d, Flatten, Layer, Linear, Network, ReLU, Tensor};
use ecofl_util::Rng;

/// Which client architecture to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelArch {
    /// Two-hidden-layer MLP (FedAVG's "2NN" analogue).
    Mlp,
    /// Small convolutional network over an 8×8 single-channel layout;
    /// requires `feature_dim == 64`.
    Cnn,
}

impl ModelArch {
    /// Builds a fresh, randomly initialized network for this architecture.
    #[must_use]
    pub fn build(self, feature_dim: usize, num_classes: usize, rng: &mut Rng) -> Network {
        match self {
            ModelArch::Mlp => mlp_for(feature_dim, num_classes, rng),
            ModelArch::Cnn => cnn_for(feature_dim, num_classes, rng),
        }
    }

    /// Builds the network skeleton with **zeroed** parameters, for callers
    /// that immediately overwrite them with `set_params` (every FL client
    /// synchronizing a group/global model). Skips the ~`param_len()`
    /// Gaussian draws [`ModelArch::build`] spends on weights that are
    /// discarded one call later.
    #[must_use]
    pub fn build_uninit(self, feature_dim: usize, num_classes: usize) -> Network {
        match self {
            ModelArch::Mlp => mlp_uninit(feature_dim, num_classes),
            ModelArch::Cnn => cnn_uninit(feature_dim, num_classes),
        }
    }
}

/// Two-hidden-layer MLP: `in → 64 → 32 → classes` with ReLU.
#[must_use]
pub fn mlp_for(feature_dim: usize, num_classes: usize, rng: &mut Rng) -> Network {
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Linear::new(feature_dim, 64, rng)),
        Box::new(ReLU::new()),
        Box::new(Linear::new(64, 32, rng)),
        Box::new(ReLU::new()),
        Box::new(Linear::new(32, num_classes, rng)),
    ];
    Network::new(layers)
}

/// Small CNN: two conv+pool stages then a linear head. Input features are
/// interpreted as a `[B, 1, 8, 8]` image.
///
/// # Panics
/// Panics unless `feature_dim == 64`.
#[must_use]
pub(crate) fn cnn_for(feature_dim: usize, num_classes: usize, rng: &mut Rng) -> Network {
    assert_eq!(
        feature_dim, 64,
        "cnn_for: CNN expects 64 features (8×8 layout), got {feature_dim}"
    );
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Reshape8x8),
        Box::new(Conv2d::new(1, 8, 3, 1, rng)),
        Box::new(ReLU::new()),
        Box::new(AvgPool2d::new(2)),
        Box::new(Conv2d::new(8, 16, 3, 1, rng)),
        Box::new(ReLU::new()),
        Box::new(AvgPool2d::new(2)),
        Box::new(Flatten::new()),
        Box::new(Linear::new(16 * 2 * 2, num_classes, rng)),
    ];
    Network::new(layers)
}

/// Parameter-free skeleton of [`mlp_for`] (zeroed weights).
#[must_use]
pub(crate) fn mlp_uninit(feature_dim: usize, num_classes: usize) -> Network {
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Linear::zeroed(feature_dim, 64)),
        Box::new(ReLU::new()),
        Box::new(Linear::zeroed(64, 32)),
        Box::new(ReLU::new()),
        Box::new(Linear::zeroed(32, num_classes)),
    ];
    Network::new(layers)
}

/// Parameter-free skeleton of [`cnn_for`] (zeroed weights).
///
/// # Panics
/// Panics unless `feature_dim == 64`.
#[must_use]
pub(crate) fn cnn_uninit(feature_dim: usize, num_classes: usize) -> Network {
    assert_eq!(
        feature_dim, 64,
        "cnn_uninit: CNN expects 64 features (8×8 layout), got {feature_dim}"
    );
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Reshape8x8),
        Box::new(Conv2d::zeroed(1, 8, 3, 1)),
        Box::new(ReLU::new()),
        Box::new(AvgPool2d::new(2)),
        Box::new(Conv2d::zeroed(8, 16, 3, 1)),
        Box::new(ReLU::new()),
        Box::new(AvgPool2d::new(2)),
        Box::new(Flatten::new()),
        Box::new(Linear::zeroed(16 * 2 * 2, num_classes)),
    ];
    Network::new(layers)
}

/// Adapter layer: `[B, 64] → [B, 1, 8, 8]` and back for gradients.
struct Reshape8x8;

impl Layer for Reshape8x8 {
    fn forward(&mut self, mut input: Tensor) -> Tensor {
        let b = input.shape()[0];
        input.set_shape(&[b, 1, 8, 8]);
        input
    }

    fn backward(&mut self, mut grad_out: Tensor) -> Tensor {
        let b = grad_out.shape()[0];
        grad_out.set_shape(&[b, 64]);
        grad_out
    }

    fn name(&self) -> &'static str {
        "reshape8x8"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofl_data::SyntheticSpec;
    use ecofl_tensor::Sgd;

    #[test]
    fn mlp_shapes() {
        let mut rng = Rng::new(1);
        let mut net = mlp_for(32, 10, &mut rng);
        assert_eq!(net.param_len(), 32 * 64 + 64 + 64 * 32 + 32 + 32 * 10 + 10);
        let x = Tensor::zeros(&[4, 32]);
        let y = net.forward(&x);
        assert_eq!(y.shape(), &[4, 10]);
    }

    #[test]
    fn cnn_shapes() {
        let mut rng = Rng::new(2);
        let mut net = cnn_for(64, 10, &mut rng);
        let x = Tensor::zeros(&[2, 64]);
        let y = net.forward(&x);
        assert_eq!(y.shape(), &[2, 10]);
    }

    #[test]
    #[should_panic(expected = "64 features")]
    fn cnn_requires_matching_dim() {
        let mut rng = Rng::new(3);
        let _ = cnn_for(32, 10, &mut rng);
    }

    #[test]
    fn mlp_learns_synthetic_task() {
        let spec = SyntheticSpec::mnist_like();
        let protos = spec.prototypes(10);
        let mut rng = Rng::new(11);
        let train = protos.sample_balanced(20, &mut rng);
        let test = protos.sample_balanced(10, &mut rng);
        let mut net = mlp_for(spec.feature_dim, spec.num_classes, &mut rng);
        let mut opt = Sgd::new(0.05);
        for _epoch in 0..30 {
            for batch in train.batches(20, &mut rng) {
                let (feats, labels) = train.gather(&batch);
                let x = Tensor::from_vec(feats, &[labels.len(), spec.feature_dim]);
                net.zero_grads();
                let _ = net.train_step(&x, &labels);
                net.sgd_step(&mut opt, None);
            }
        }
        let (feats, labels) = test.gather(&(0..test.len()).collect::<Vec<_>>());
        let x = Tensor::from_vec(feats, &[labels.len(), spec.feature_dim]);
        let (_, acc) = net.evaluate(&x, &labels);
        assert!(acc > 0.8, "MLP should learn the easy task, got {acc}");
    }

    #[test]
    fn deterministic_initialization() {
        let a = mlp_for(32, 10, &mut Rng::new(5)).params();
        let b = mlp_for(32, 10, &mut Rng::new(5)).params();
        assert_eq!(a, b);
    }

    #[test]
    fn uninit_skeletons_match_layout_with_zeroed_params() {
        for arch in [ModelArch::Mlp, ModelArch::Cnn] {
            let built = arch.build(64, 10, &mut Rng::new(6));
            let mut skeleton = arch.build_uninit(64, 10);
            assert_eq!(skeleton.param_len(), built.param_len());
            assert!(skeleton.params().iter().all(|&p| p == 0.0));
            // The layouts must agree: round-tripping the real params
            // through the skeleton is the identity.
            skeleton.set_params(&built.params());
            assert_eq!(skeleton.params(), built.params());
        }
    }
}

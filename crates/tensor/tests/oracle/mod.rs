//! The training step as it was before the by-value `Layer` API: every op
//! allocates its result, nothing is done in place, every gradient product
//! is computed, and SGD runs on flat copies of the parameters.
//!
//! This is the differential oracle of `tests/train_step_oracle.rs` and of
//! `ecofl-fl`'s `tests/train_fingerprint.rs` (included there by `#[path]`):
//! the production step recycles buffers, skips the first layer's input
//! gradient and steps parameters where they live, and must still produce
//! these bits. It runs on the same kernels (`Tensor::matmul*`), which
//! `tests/kernel_equivalence.rs` pins to the scalar chains separately.
#![allow(dead_code)]

use ecofl_tensor::{reference, Tensor};
use std::collections::VecDeque;

pub enum OracleLayer {
    Linear {
        weight: Tensor,
        bias: Tensor,
        grad_weight: Tensor,
        grad_bias: Tensor,
        cached_input: VecDeque<Tensor>,
    },
    ReLU {
        masks: VecDeque<Vec<bool>>,
    },
}

impl OracleLayer {
    pub fn linear(in_dim: usize, out_dim: usize) -> Self {
        OracleLayer::Linear {
            weight: Tensor::zeros(&[in_dim, out_dim]),
            bias: Tensor::zeros(&[out_dim]),
            grad_weight: Tensor::zeros(&[in_dim, out_dim]),
            grad_bias: Tensor::zeros(&[out_dim]),
            cached_input: VecDeque::new(),
        }
    }

    pub fn relu() -> Self {
        OracleLayer::ReLU {
            masks: VecDeque::new(),
        }
    }

    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        match self {
            OracleLayer::Linear {
                weight,
                bias,
                cached_input,
                ..
            } => {
                let mut out = input.matmul(weight);
                out.add_row_bias(bias);
                cached_input.push_back(input.clone());
                out
            }
            OracleLayer::ReLU { masks } => {
                let mut mask = Vec::with_capacity(input.len());
                let data = input
                    .data()
                    .iter()
                    .map(|&x| {
                        let keep = x > 0.0;
                        mask.push(keep);
                        if keep {
                            x
                        } else {
                            0.0
                        }
                    })
                    .collect();
                masks.push_back(mask);
                Tensor::from_vec(data, input.shape())
            }
        }
    }

    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match self {
            OracleLayer::Linear {
                weight,
                grad_weight,
                grad_bias,
                cached_input,
                ..
            } => {
                let input = cached_input.pop_front().expect("backward before forward");
                input.matmul_tn_acc(grad_out, grad_weight);
                let gb = grad_out.sum_rows();
                grad_bias.add_scaled(&gb, 1.0);
                grad_out.matmul_nt(weight)
            }
            OracleLayer::ReLU { masks } => {
                let mask = masks.pop_front().expect("backward before forward");
                assert_eq!(grad_out.len(), mask.len());
                let data = grad_out
                    .data()
                    .iter()
                    .zip(&mask)
                    .map(|(&g, &keep)| if keep { g } else { 0.0 })
                    .collect();
                Tensor::from_vec(data, grad_out.shape())
            }
        }
    }

    fn write_params(&self, out: &mut Vec<f32>) {
        match self {
            OracleLayer::Linear { weight, bias, .. } => {
                out.extend_from_slice(weight.data());
                out.extend_from_slice(bias.data());
            }
            OracleLayer::ReLU { .. } => {}
        }
    }

    fn read_params(&mut self, src: &[f32]) -> usize {
        match self {
            OracleLayer::Linear { weight, bias, .. } => {
                let (w, b) = (weight.len(), bias.len());
                weight.data_mut().copy_from_slice(&src[..w]);
                bias.data_mut().copy_from_slice(&src[w..w + b]);
                w + b
            }
            OracleLayer::ReLU { .. } => 0,
        }
    }

    fn write_grads(&self, out: &mut Vec<f32>) {
        match self {
            OracleLayer::Linear {
                grad_weight,
                grad_bias,
                ..
            } => {
                out.extend_from_slice(grad_weight.data());
                out.extend_from_slice(grad_bias.data());
            }
            OracleLayer::ReLU { .. } => {}
        }
    }

    fn zero_grads(&mut self) {
        match self {
            OracleLayer::Linear {
                grad_weight,
                grad_bias,
                ..
            } => {
                grad_weight.zero();
                grad_bias.zero();
            }
            OracleLayer::ReLU { .. } => {}
        }
    }
}

/// Row-wise softmax into a fresh tensor.
fn softmax(logits: &Tensor) -> Tensor {
    let (b, k) = (logits.rows(), logits.cols());
    let mut out = vec![0.0f32; b * k];
    for (row_in, row_out) in logits.data().chunks(k).zip(out.chunks_mut(k)) {
        let max = row_in.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for (o, &x) in row_out.iter_mut().zip(row_in) {
            let e = (x - max).exp();
            *o = e;
            sum += e;
        }
        let inv = 1.0 / sum;
        for o in row_out.iter_mut() {
            *o *= inv;
        }
    }
    Tensor::from_vec(out, &[b, k])
}

/// `(mean loss, d loss / d logits)`, probabilities and gradient each in a
/// fresh buffer.
pub fn loss_and_grad(logits: &Tensor, targets: &[usize]) -> (f32, Tensor) {
    let (b, k) = (logits.rows(), logits.cols());
    assert_eq!(targets.len(), b);
    let probs = softmax(logits);
    let mut loss = 0.0f32;
    let mut grad = probs.data().to_vec();
    let inv_b = 1.0 / b as f32;
    for (i, &t) in targets.iter().enumerate() {
        assert!(t < k);
        let p = probs.data()[i * k + t].max(1e-12);
        loss -= p.ln();
        grad[i * k + t] -= 1.0;
    }
    for g in &mut grad {
        *g *= inv_b;
    }
    (loss * inv_b, Tensor::from_vec(grad, &[b, k]))
}

pub struct OracleNet {
    pub layers: Vec<OracleLayer>,
}

impl OracleNet {
    /// `ecofl_models::mlp_uninit`'s layout: `in → 64 → 32 → classes`.
    pub fn mlp(feature_dim: usize, num_classes: usize) -> Self {
        Self {
            layers: vec![
                OracleLayer::linear(feature_dim, 64),
                OracleLayer::relu(),
                OracleLayer::linear(64, 32),
                OracleLayer::relu(),
                OracleLayer::linear(32, num_classes),
            ],
        }
    }

    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        x
    }

    /// Forward + loss + the whole backward, the first layer's input
    /// gradient included; returns `(loss, d loss / d input)`.
    pub fn train_step_with_input_grad(
        &mut self,
        input: &Tensor,
        targets: &[usize],
    ) -> (f32, Tensor) {
        let logits = self.forward(input);
        let (loss, mut grad) = loss_and_grad(&logits, targets);
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        (loss, grad)
    }

    pub fn train_step(&mut self, input: &Tensor, targets: &[usize]) -> f32 {
        self.train_step_with_input_grad(input, targets).0
    }

    pub fn params(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for layer in &self.layers {
            layer.write_params(&mut out);
        }
        out
    }

    pub fn grads(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for layer in &self.layers {
            layer.write_grads(&mut out);
        }
        out
    }

    pub fn set_params(&mut self, src: &[f32]) {
        let mut offset = 0;
        for layer in &mut self.layers {
            offset += layer.read_params(&src[offset..]);
        }
        assert_eq!(offset, src.len());
    }

    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }
}

/// SGD + FedProx on flat copies: `params()` / `grads()` out,
/// [`reference::naive_sgd_step`] on the vectors, `set_params` back.
pub struct FlatSgd {
    lr: f32,
    mu: f32,
    anchor: Vec<f32>,
}

impl FlatSgd {
    pub fn new(lr: f32, mu: f32, anchor: &[f32]) -> Self {
        Self {
            lr,
            mu,
            anchor: anchor.to_vec(),
        }
    }

    pub fn step(&mut self, net: &mut OracleNet) {
        let mut params = net.params();
        reference::naive_sgd_step(
            &mut params,
            &net.grads(),
            (self.mu > 0.0).then_some(self.anchor.as_slice()),
            self.lr,
            self.mu,
        );
        net.set_params(&params);
    }
}

//! Property-based tests for tensor algebra and gradient plumbing.

use ecofl_compat::check::{any_u64, f32_in, forall, pair, quad, triple, usize_in};
use ecofl_tensor::{Layer, Linear, Network, ReLU, Sgd, Tensor};
use ecofl_util::Rng;

const CASES: usize = 64;

#[test]
fn matmul_identity_is_noop() {
    let input = triple(any_u64(), usize_in(1, 12), usize_in(1, 12));
    forall("matmul_identity_is_noop", CASES, &input, |&(seed, n, m)| {
        let mut rng = Rng::new(seed);
        let a = Tensor::randn(&[n, m], 1.0, &mut rng);
        let out = a.matmul(&Tensor::eye(m));
        for (x, y) in a.data().iter().zip(out.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    });
}

#[test]
fn transpose_is_involution() {
    let input = triple(any_u64(), usize_in(1, 10), usize_in(1, 10));
    forall("transpose_is_involution", CASES, &input, |&(seed, n, m)| {
        let mut rng = Rng::new(seed);
        let a = Tensor::randn(&[n, m], 1.0, &mut rng);
        assert_eq!(a.clone(), a.transpose().transpose());
    });
}

#[test]
fn matmul_distributes_over_addition() {
    let input = quad(any_u64(), usize_in(1, 8), usize_in(1, 8), usize_in(1, 8));
    forall(
        "matmul_distributes_over_addition",
        CASES,
        &input,
        |&(seed, n, k, m)| {
            let mut rng = Rng::new(seed);
            let a = Tensor::randn(&[n, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, m], 1.0, &mut rng);
            let c = Tensor::randn(&[k, m], 1.0, &mut rng);
            let lhs = a.matmul(&b.add(&c));
            let rhs = a.matmul(&b).add(&a.matmul(&c));
            for (x, y) in lhs.data().iter().zip(rhs.data()) {
                assert!((x - y).abs() < 1e-3, "{x} vs {y}");
            }
        },
    );
}

#[test]
fn scale_then_norm() {
    let input = triple(any_u64(), usize_in(1, 32), f32_in(-4.0, 4.0));
    forall("scale_then_norm", CASES, &input, |&(seed, n, s)| {
        let mut rng = Rng::new(seed);
        let a = Tensor::randn(&[n], 1.0, &mut rng);
        let scaled = a.scale(s);
        assert!((scaled.norm_sq() - s * s * a.norm_sq()).abs() < 1e-2 * (1.0 + a.norm_sq()));
    });
}

#[test]
fn network_param_round_trip() {
    let input = pair(any_u64(), usize_in(1, 32));
    forall(
        "network_param_round_trip",
        CASES,
        &input,
        |&(seed, hidden)| {
            let mut rng = Rng::new(seed);
            let mut net = Network::new(vec![
                Box::new(Linear::new(6, hidden, &mut rng)) as Box<dyn Layer>,
                Box::new(ReLU::new()),
                Box::new(Linear::new(hidden, 3, &mut rng)),
            ]);
            let params = net.params();
            assert_eq!(params.len(), net.param_len());
            net.set_params(&params);
            assert_eq!(net.params(), params);
        },
    );
}

#[test]
fn sgd_zero_gradient_is_fixed_point_without_prox() {
    let input = triple(any_u64(), usize_in(1, 64), f32_in(0.001, 1.0));
    forall(
        "sgd_zero_gradient_is_fixed_point_without_prox",
        CASES,
        &input,
        |&(seed, n, lr)| {
            let mut rng = Rng::new(seed);
            let mut w: Vec<f32> = (0..n).map(|_| rng.next_f32()).collect();
            let before = w.clone();
            Sgd::new(lr).step(&mut w, &vec![0.0; n], None);
            assert_eq!(w, before);
        },
    );
}

#[test]
fn sgd_proximal_never_overshoots_anchor() {
    let input = triple(any_u64(), usize_in(1, 32), f32_in(0.01, 1.0));
    forall(
        "sgd_proximal_never_overshoots_anchor",
        CASES,
        &input,
        |&(seed, n, mu)| {
            // With zero data gradient and lr·mu < 1, each step moves toward
            // the anchor without crossing it.
            let mut rng = Rng::new(seed);
            let anchor: Vec<f32> = (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
            let mut w: Vec<f32> = (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
            let mut opt = Sgd::new(0.5).with_proximal(mu);
            for _ in 0..5 {
                let before: Vec<f32> = w.clone();
                opt.step(&mut w, &vec![0.0; n], Some(&anchor));
                for i in 0..n {
                    let d_before = (before[i] - anchor[i]).abs();
                    let d_after = (w[i] - anchor[i]).abs();
                    assert!(d_after <= d_before + 1e-6);
                }
            }
        },
    );
}

#[test]
fn relu_output_nonnegative_and_sparse_grad() {
    let input = pair(any_u64(), usize_in(1, 64));
    forall(
        "relu_output_nonnegative_and_sparse_grad",
        CASES,
        &input,
        |&(seed, n)| {
            let mut rng = Rng::new(seed);
            let x = Tensor::randn(&[1, n], 1.0, &mut rng);
            let mut relu = ReLU::new();
            let y = relu.forward(x.clone());
            assert!(y.data().iter().all(|&v| v >= 0.0));
            let g = Tensor::full(&[1, n], 1.0);
            let gx = relu.backward(g);
            for (i, &v) in gx.data().iter().enumerate() {
                if x.data()[i] > 0.0 {
                    assert_eq!(v, 1.0);
                } else {
                    assert_eq!(v, 0.0);
                }
            }
        },
    );
}

#[test]
fn train_step_gradient_descends_loss_locally() {
    forall(
        "train_step_gradient_descends_loss_locally",
        CASES,
        &any_u64(),
        |&seed| {
            // A single small SGD step on the computed gradient must not
            // increase the loss on the same batch (first-order descent).
            let mut rng = Rng::new(seed);
            let mut net = Network::new(vec![
                Box::new(Linear::new(4, 8, &mut rng)) as Box<dyn Layer>,
                Box::new(ReLU::new()),
                Box::new(Linear::new(8, 3, &mut rng)),
            ]);
            let x = Tensor::randn(&[6, 4], 1.0, &mut rng);
            let y: Vec<usize> = (0..6).map(|i| i % 3).collect();
            net.zero_grads();
            let loss_before = net.train_step(&x, &y);
            let mut params = net.params();
            let grads = net.grads();
            for (p, g) in params.iter_mut().zip(&grads) {
                *p -= 1e-3 * g;
            }
            net.set_params(&params);
            let (loss_after, _) = net.evaluate(&x, &y);
            assert!(
                loss_after <= loss_before + 1e-4,
                "{loss_before} -> {loss_after}"
            );
        },
    );
}

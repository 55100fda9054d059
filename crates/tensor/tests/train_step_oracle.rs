//! Differential sweep of the training step against the allocating oracle
//! in `tests/oracle` (the step as it was before the by-value `Layer` API).
//!
//! `Network::train_step` + `Network::sgd_step` recycle every buffer, skip
//! the first layer's input-gradient product and step the parameters where
//! they live; the oracle clones, allocates, computes every product and
//! runs `naive_sgd_step` on flat copies. Over the MLP, batch 1 / 7 / 10 /
//! 16 / 33 with ragged tails, µ 0 / 0.05 and three epochs, every loss,
//! every gradient and every parameter must agree **bit for bit** — and so
//! must a third stack of production layers that does *not* skip the first
//! layer, whose input gradient is checked too.

mod oracle;

use ecofl_tensor::{
    backward_through, Layer, Linear, Network, ReLU, Sgd, SoftmaxCrossEntropy, Tensor,
};
use ecofl_util::Rng;
use oracle::{FlatSgd, OracleNet};

const SAMPLES: usize = 43;
const CLASSES: usize = 10;
const EPOCHS: usize = 3;
const FEATURES: usize = 32;

/// `ecofl_models`' MLP over `FEATURES` inputs (that crate sits above this
/// one).
fn mlp(rng: &mut Rng) -> Vec<Box<dyn Layer>> {
    vec![
        Box::new(Linear::new(FEATURES, 64, rng)),
        Box::new(ReLU::new()),
        Box::new(Linear::new(64, 32, rng)),
        Box::new(ReLU::new()),
        Box::new(Linear::new(32, CLASSES, rng)),
    ]
}

fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g:e} vs {w:e}");
    }
}

fn flat(layers: &[Box<dyn Layer>], write: fn(&dyn Layer, &mut Vec<f32>)) -> Vec<f32> {
    let mut out = Vec::new();
    for layer in layers {
        write(layer.as_ref(), &mut out);
    }
    out
}

fn check(batch_size: usize, mu: f32) {
    let what = format!("batch {batch_size} mu {mu}");
    let seed = batch_size as u64 * 31 + u64::from(mu > 0.0) * 7;
    let mut net = Network::new(mlp(&mut Rng::new(seed)));
    // The same weights in a stack stepped without the first-layer skip,
    // and in the oracle.
    let mut unskipped = mlp(&mut Rng::new(seed));
    let mut head = SoftmaxCrossEntropy::new();
    let start = net.params();
    let mut reference = OracleNet::mlp(FEATURES, CLASSES);
    reference.set_params(&start);

    let mut rng = Rng::new(seed ^ 0xDA7A);
    let features: Vec<f32> = (0..SAMPLES * FEATURES)
        .map(|_| rng.next_gaussian() as f32)
        .collect();
    let labels: Vec<usize> = (0..SAMPLES).map(|_| rng.range_usize(0, CLASSES)).collect();

    let mut opt = Sgd::new(0.05).with_proximal(mu);
    let mut unskipped_opt = opt.clone();
    let mut reference_opt = FlatSgd::new(0.05, mu, &start);
    let anchor = (mu > 0.0).then_some(start.as_slice());

    for epoch in 0..EPOCHS {
        for (step, (rows, y)) in features
            .chunks(batch_size * FEATURES)
            .zip(labels.chunks(batch_size))
            .enumerate()
        {
            let what = format!("{what}, epoch {epoch} step {step}");
            let x = Tensor::from_vec(rows.to_vec(), &[y.len(), FEATURES]);

            net.zero_grads();
            let loss = net.train_step(&x, y);

            reference.zero_grads();
            let (want_loss, want_input_grad) = reference.train_step_with_input_grad(&x, y);
            assert_eq!(loss.to_bits(), want_loss.to_bits(), "{what}: loss");
            assert_bits(&net.grads(), &reference.grads(), &format!("{what}: grads"));

            let mut out = x.clone();
            for layer in &mut unskipped {
                layer.zero_grads();
                out = layer.forward(out);
            }
            let (unskipped_loss, grad) = head.loss_and_grad(out, y);
            let input_grad = backward_through(&mut unskipped, grad, true);
            assert_eq!(unskipped_loss.to_bits(), want_loss.to_bits(), "{what}");
            assert_eq!(input_grad.shape(), x.shape(), "{what}: input gradient");
            assert_bits(
                input_grad.data(),
                want_input_grad.data(),
                &format!("{what}: input gradient"),
            );
            assert_bits(
                &flat(&unskipped, |l, out| l.write_grads(out)),
                &reference.grads(),
                &format!("{what}: unskipped grads"),
            );

            net.sgd_step(&mut opt, anchor);
            reference_opt.step(&mut reference);
            let want = reference.params();
            assert_bits(&net.params(), &want, &format!("{what}: params"));

            let mut offset = 0;
            for layer in &mut unskipped {
                layer.visit_params(&mut |params, grads| {
                    unskipped_opt.step_at(offset, want.len(), params, grads, anchor);
                    offset += params.len();
                });
            }
            assert_bits(
                &flat(&unskipped, |l, out| l.write_params(out)),
                &want,
                &format!("{what}: unskipped params"),
            );
        }
    }
}

#[test]
fn mlp_train_step_matches_the_allocating_oracle_bitwise() {
    for batch_size in [1, 7, 10, 16, 33] {
        for mu in [0.0, 0.05] {
            check(batch_size, mu);
        }
    }
}

/// Several micro-batches in flight, as the pipelined runtime drives a
/// stage: forwards queue up, backwards pop FIFO, buffers are recycled out
/// of order — same bits as the oracle running the same interleaving.
#[test]
fn interleaved_micro_batches_keep_fifo_semantics() {
    let mut rng = Rng::new(77);
    let mut layers = mlp(&mut rng);
    let mut reference = OracleNet::mlp(FEATURES, CLASSES);
    reference.set_params(&flat(&layers, |l, out| l.write_params(out)));
    let mut head = SoftmaxCrossEntropy::new();

    let batches: Vec<(Tensor, Vec<usize>)> = [5usize, 8, 3, 8]
        .iter()
        .map(|&b| {
            let y = (0..b).map(|_| rng.range_usize(0, CLASSES)).collect();
            (Tensor::randn(&[b, FEATURES], 1.0, &mut rng), y)
        })
        .collect();

    // Two rounds of F F B F B F B B (1F1B with two in flight).
    for _round in 0..2 {
        let mut logits = std::collections::VecDeque::new();
        let mut want_logits = std::collections::VecDeque::new();
        let mut next_bwd = 0;
        for verb in [0usize, 0, 1, 0, 1, 0, 1, 1] {
            if verb == 0 {
                let (x, _) = &batches[logits.len() + next_bwd];
                let mut out = x.clone();
                for layer in &mut layers {
                    out = layer.forward(out);
                }
                logits.push_back(out);
                want_logits.push_back(reference.forward(x));
            } else {
                let (_, y) = &batches[next_bwd];
                next_bwd += 1;
                let out: Tensor = logits.pop_front().expect("forward first");
                let want_out: Tensor = want_logits.pop_front().expect("forward first");
                assert_bits(out.data(), want_out.data(), "logits");
                let (loss, grad) = head.loss_and_grad(out, y);
                let (want_loss, mut want_grad) = oracle::loss_and_grad(&want_out, y);
                assert_eq!(loss.to_bits(), want_loss.to_bits());
                let input_grad = backward_through(&mut layers, grad, true);
                for layer in reference.layers.iter_mut().rev() {
                    want_grad = layer.backward(&want_grad);
                }
                assert_bits(input_grad.data(), want_grad.data(), "input gradient");
            }
        }
        assert_bits(
            &flat(&layers, |l, out| l.write_grads(out)),
            &reference.grads(),
            "accumulated grads",
        );
    }
}

//! Property tests proving the kernels in `ecofl_tensor::kernel` against
//! the retained references in `ecofl_tensor::reference`.
//!
//! The equivalence contract (DESIGN.md §7):
//!
//! | kernel                  | every tier, every host                       |
//! |-------------------------|----------------------------------------------|
//! | `matmul`, `matmul_tn`   | bit-identical to `chain_matmul{,_tn}`        |
//! | `matmul_tn_acc`         | bit-identical to `prior + chain_matmul_tn`   |
//! | `matmul_nt`             | bit-identical to `chain_matmul_nt` (8 lanes) |
//! | `Sgd::step`             | bit-identical to `naive_sgd_step`            |
//!
//! The chains are fused (`f32::mul_add`, one rounding per step) on every
//! tier, the portable one included, so there is one expected answer per
//! product whatever CPU runs it. Against the textbook `mul` + `add` naive
//! loops the chains — and `matmul_nt`'s eight partial sums — stay within
//! `2·k·ε` of the inner product of absolute values: each of the `k` steps
//! skips or reorders at most one rounding. That bound is asserted too, so
//! the chains cannot drift from the textbook product.
//!
//! This file drives the public `Tensor` API on the tier the process
//! selected: the sweep below covers the tile edges at the sizes the shipped
//! models issue, `large_products_match_their_chains_bitwise` the same tiles at
//! ≥ 2²² multiply-accumulates. The unit tests in `kernel.rs` run *every*
//! tier the host supports over the same sizes against the same chains.

use ecofl_compat::check::{any_u64, forall, quad, triple, usize_in};
use ecofl_tensor::{reference, Sgd, Tensor};
use ecofl_util::Rng;

const CASES: usize = 48;

/// Row counts either side of the 5/6-row tiles, depths around the 8-lane
/// NT chunk, widths around the 8-, 16- and 64-column strips of the three
/// tiers.
const MS: [usize; 7] = [1, 5, 7, 10, 23, 24, 25];
const KS: [usize; 7] = [1, 7, 8, 9, 10, 32, 64];
const NS: [usize; 11] = [1, 7, 10, 15, 16, 17, 31, 32, 33, 64, 65];

fn randv(n: usize, rng: &mut Rng) -> Vec<f32> {
    (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect()
}

/// Uniform values seeded with `±0.0`, with magnitudes whose products
/// underflow (a fused chain from zero can land on `-0.0`), and — read as
/// rows of `cols > 1` elements — with a dead (all-zero) first column.
fn operand(len: usize, cols: usize, rng: &mut Rng) -> Vec<f32> {
    (0..len)
        .map(|i| {
            if cols > 1 && i % cols == 0 {
                return 0.0;
            }
            match rng.range_usize(0, 12) {
                0 => 0.0,
                1 => -0.0,
                2 => 1e-30,
                3 => -1e-30,
                _ => rng.next_f32() * 2.0 - 1.0,
            }
        })
        .collect()
}

/// Asserts exact bitwise equality (the "bit-identical" contract).
fn assert_bits(actual: &[f32], expect: &[f32], what: &str) {
    assert_eq!(actual.len(), expect.len(), "{what}: length");
    for (i, (a, e)) in actual.iter().zip(expect).enumerate() {
        assert_eq!(a.to_bits(), e.to_bits(), "{what}[{i}]: {a} != {e} bitwise");
    }
}

/// Asserts the documented rounding tolerance: `|a − e| ≤ 2·k·ε·(1+absref)`
/// where `absref` is the same reduction over absolute values — the
/// rigorous bound for `k` fused/reassociated accumulation steps.
fn assert_tol(actual: &[f32], expect: &[f32], absref: &[f32], k: usize, what: &str) {
    assert_eq!(actual.len(), expect.len(), "{what}: length");
    for (i, ((a, e), ar)) in actual.iter().zip(expect).zip(absref).enumerate() {
        let tol = 2.0 * k as f32 * f32::EPSILON * (1.0 + ar);
        assert!(
            (a - e).abs() <= tol,
            "{what}[{i}]: {a} vs {e} exceeds tol {tol}"
        );
    }
}

fn abs(v: &[f32]) -> Vec<f32> {
    v.iter().map(|x| x.abs()).collect()
}

/// All three products (and the accumulating form) of one shape against
/// their chains, bit for bit, and against the naive loops within the
/// documented bound. `a` is read as `[m,k]` by `matmul` / `matmul_nt` and
/// as `[k,m]` by `matmul_tn`.
fn check_products(seed: u64, m: usize, k: usize, n: usize) {
    let mut rng = Rng::new(seed);
    let what = format!("{m}x{k}x{n}");
    let a = operand(m * k, k, &mut rng);
    let b = operand(k * n, n, &mut rng);
    let bt = operand(n * k, 0, &mut rng);
    let prior = operand(m * n, 0, &mut rng);
    let (a_mk, a_km) = (
        Tensor::from_vec(a.clone(), &[m, k]),
        Tensor::from_vec(a.clone(), &[k, m]),
    );
    let b_kn = Tensor::from_vec(b.clone(), &[k, n]);
    let b_nk = Tensor::from_vec(bt.clone(), &[n, k]);

    let nn = a_mk.matmul(&b_kn);
    assert_bits(
        nn.data(),
        &reference::chain_matmul(&a, &b, m, k, n),
        &format!("matmul {what}"),
    );
    let naive = reference::naive_matmul(&a, &b, m, k, n);
    let absref = reference::naive_matmul(&abs(&a), &abs(&b), m, k, n);
    assert_tol(nn.data(), &naive, &absref, k, &format!("matmul {what}"));

    let tn_chain = reference::chain_matmul_tn(&a, &b, k, m, n);
    // `matmul_tn` accumulates onto zeros: `+0.0 + chain`.
    let tn_fresh: Vec<f32> = tn_chain.iter().map(|c| 0.0 + c).collect();
    assert_bits(
        a_km.matmul_tn(&b_kn).data(),
        &tn_fresh,
        &format!("matmul_tn {what}"),
    );
    let mut acc = Tensor::from_vec(prior.clone(), &[m, n]);
    a_km.matmul_tn_acc(&b_kn, &mut acc);
    let tn_acc: Vec<f32> = prior.iter().zip(&tn_chain).map(|(o, c)| o + c).collect();
    assert_bits(acc.data(), &tn_acc, &format!("matmul_tn_acc {what}"));
    let naive = reference::naive_matmul_tn(&a, &b, k, m, n);
    let absref = reference::naive_matmul_tn(&abs(&a), &abs(&b), k, m, n);
    assert_tol(&tn_chain, &naive, &absref, k, &format!("matmul_tn {what}"));

    let nt = a_mk.matmul_nt(&b_nk);
    assert_bits(
        nt.data(),
        &reference::chain_matmul_nt(&a, &bt, m, k, n),
        &format!("matmul_nt {what}"),
    );
    let naive = reference::naive_matmul_nt(&a, &bt, m, k, n);
    let absref = reference::naive_matmul_nt(&abs(&a), &abs(&bt), m, k, n);
    assert_tol(nt.data(), &naive, &absref, k, &format!("matmul_nt {what}"));
}

#[test]
fn products_match_their_chains_bitwise_on_tile_edges() {
    for m in MS {
        for k in KS {
            for n in NS {
                check_products((m * 10_000 + k * 100 + n) as u64, m, k, n);
            }
        }
    }
}

#[test]
fn products_match_their_chains_bitwise_on_random_shapes() {
    let input = quad(any_u64(), usize_in(1, 40), usize_in(1, 40), usize_in(1, 70));
    forall(
        "products_match_their_chains_bitwise_on_random_shapes",
        CASES,
        &input,
        |&(seed, m, k, n)| check_products(seed, m, k, n),
    );
}

/// Products far larger than anything a shipped model issues (each
/// ≥ 2²² multiply-accumulates, operands well past L1): the same chains,
/// bit for bit, with ragged row tiles and column strips.
#[test]
fn large_products_match_their_chains_bitwise() {
    for (m, k, n) in [
        (48, 512, 256),
        (25, 520, 323),
        (49, 300, 290),
        (170, 165, 150),
    ] {
        assert!(m * k * n >= 1 << 22, "{m}x{k}x{n} must be a large product");
        check_products((m * k + n) as u64, m, k, n);
    }
}

#[test]
fn sgd_step_is_bit_identical_to_naive() {
    let gen = triple(
        any_u64(),
        usize_in(1, 80),
        usize_in(0, 1), // proximal on/off
    );
    forall(
        "sgd_step_is_bit_identical_to_naive",
        CASES,
        &gen,
        |&(seed, len, with_mu)| {
            let mu = 0.05 * with_mu as f32;
            let mut rng = Rng::new(seed);
            let init = randv(len, &mut rng);
            let anchor = randv(len, &mut rng);
            let anchor_opt = (mu > 0.0).then_some(anchor.as_slice());

            let mut opt = Sgd::new(0.05).with_proximal(mu);
            let mut fast = init.clone();
            let mut naive = init;
            for step in 0..4 {
                let grads = randv(len, &mut rng);
                opt.step(&mut fast, &grads, anchor_opt);
                reference::naive_sgd_step(&mut naive, &grads, anchor_opt, 0.05, mu);
                assert_bits(&fast, &naive, &format!("sgd step {step}"));
            }
        },
    );
}

#[test]
fn local_train_shapes_agree_across_the_three_products() {
    // The exact MLP shapes the FL clients train (64→32→10): the gradient
    // product `xᵀ·g` read in place must be, bit for bit, the plain product
    // of the materialized transpose — both are the same ascending-`p`
    // chain. Catches wiring regressions in `layers.rs` (e.g. a gradient
    // product mapped to the wrong kernel).
    let input = triple(any_u64(), usize_in(1, 16), usize_in(1, 48));
    forall(
        "local_train_shapes_agree_across_the_three_products",
        24,
        &input,
        |&(seed, batch, hidden)| {
            let mut rng = Rng::new(seed);
            let x = Tensor::from_vec(randv(batch * 64, &mut rng), &[batch, 64]);
            let g = Tensor::from_vec(randv(batch * hidden, &mut rng), &[batch, hidden]);
            let mut in_place = Tensor::zeros(&[64, hidden]);
            x.matmul_tn_acc(&g, &mut in_place);
            let materialized: Vec<f32> = x
                .transpose()
                .matmul(&g)
                .data()
                .iter()
                .map(|c| 0.0 + c)
                .collect();
            assert_bits(in_place.data(), &materialized, "xᵀ·g vs transpose(x)·g");
        },
    );
}

//! Property-based tests for aggregation math and the latency model.

use ecofl_compat::check::{
    any_u64, f32_in, f64_in, forall, pair, triple, u64_in, usize_in, vec_exact, vec_in,
};
use ecofl_fl::aggregate::{fedasync_mix, staleness_alpha, weighted_average};
use ecofl_fl::config::DynamicsConfig;
use ecofl_fl::latency::LatencyModel;
use ecofl_util::Rng;

const CASES: usize = 256;

#[test]
fn weighted_average_is_convex_combination() {
    let updates = vec_in(
        pair(vec_exact(f32_in(-10.0, 10.0), 5), f64_in(0.1, 100.0)),
        1,
        10,
    );
    forall(
        "weighted_average_is_convex_combination",
        CASES,
        &updates,
        |updates| {
            let refs: Vec<(&[f32], f64)> =
                updates.iter().map(|(p, w)| (p.as_slice(), *w)).collect();
            let avg = weighted_average(&refs);
            for dim in 0..5 {
                let lo = updates
                    .iter()
                    .map(|(p, _)| p[dim])
                    .fold(f32::INFINITY, f32::min);
                let hi = updates
                    .iter()
                    .map(|(p, _)| p[dim])
                    .fold(f32::NEG_INFINITY, f32::max);
                assert!(avg[dim] >= lo - 1e-4 && avg[dim] <= hi + 1e-4);
            }
        },
    );
}

#[test]
fn weighted_average_scale_invariant_in_weights() {
    let input = triple(
        vec_in(vec_exact(f32_in(-5.0, 5.0), 4), 2, 6),
        vec_exact(f64_in(0.1, 10.0), 6),
        f64_in(0.1, 100.0),
    );
    forall(
        "weighted_average_scale_invariant_in_weights",
        CASES,
        &input,
        |(params, weights, scale)| {
            let n = params.len();
            let w = &weights[..n];
            let refs: Vec<(&[f32], f64)> = params
                .iter()
                .zip(w)
                .map(|(p, &wt)| (p.as_slice(), wt))
                .collect();
            let scaled: Vec<(&[f32], f64)> = params
                .iter()
                .zip(w)
                .map(|(p, &wt)| (p.as_slice(), wt * scale))
                .collect();
            let a = weighted_average(&refs);
            let b = weighted_average(&scaled);
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-4);
            }
        },
    );
}

#[test]
fn fedasync_mix_interpolates() {
    let input = triple(
        vec_in(f32_in(-10.0, 10.0), 1, 20),
        vec_in(f32_in(-10.0, 10.0), 1, 20),
        f64_in(0.01, 1.0),
    );
    forall(
        "fedasync_mix_interpolates",
        CASES,
        &input,
        |(global, delta, alpha)| {
            let n = global.len().min(delta.len());
            let mut w = global[..n].to_vec();
            let new = &delta[..n];
            let before = w.clone();
            fedasync_mix(&mut w, new, *alpha);
            for i in 0..n {
                let lo = before[i].min(new[i]) - 1e-4;
                let hi = before[i].max(new[i]) + 1e-4;
                assert!(w[i] >= lo && w[i] <= hi);
            }
        },
    );
}

#[test]
fn fedasync_alpha_one_replaces() {
    let global = vec_in(f32_in(-10.0, 10.0), 1, 10);
    forall("fedasync_alpha_one_replaces", CASES, &global, |global| {
        let new: Vec<f32> = global.iter().map(|x| x + 1.0).collect();
        let mut w = global.clone();
        fedasync_mix(&mut w, &new, 1.0);
        for (a, b) in w.iter().zip(&new) {
            assert!((a - b).abs() < 1e-6);
        }
    });
}

#[test]
fn staleness_alpha_monotone() {
    let input = triple(f64_in(0.01, 1.0), f64_in(0.0, 2.0), u64_in(0, 100));
    forall(
        "staleness_alpha_monotone",
        CASES,
        &input,
        |&(alpha, exp, s)| {
            let a = staleness_alpha(alpha, s, exp);
            let b = staleness_alpha(alpha, s + 1, exp);
            assert!(b <= a + 1e-12);
            assert!(a <= alpha + 1e-12);
            assert!(b > 0.0);
        },
    );
}

#[test]
fn latency_model_positive_and_bounded_by_degree() {
    let input = pair(any_u64(), usize_in(1, 100));
    forall(
        "latency_model_positive_and_bounded_by_degree",
        CASES,
        &input,
        |&(seed, n)| {
            let mut rng = Rng::new(seed);
            let m = LatencyModel::sample(n, 30.0, 10.0, &[0.2, 0.4, 0.6, 0.8, 1.0], None, &mut rng);
            for c in 0..m.len() {
                let l = m.response_latency(c);
                assert!(l > 0.0);
                // Latency at degree d is base/d, so it is at most base/0.2.
                assert!(l <= 5.0 * (30.0 + 10.0 * 6.0) / 1.0 + 1e4);
            }
        },
    );
}

#[test]
fn perturbation_only_moves_within_degree_set() {
    let input = triple(any_u64(), usize_in(1, 40), usize_in(1, 50));
    forall(
        "perturbation_only_moves_within_degree_set",
        CASES,
        &input,
        |&(seed, n, rounds)| {
            let degrees = vec![0.2, 0.4, 0.6, 0.8, 1.0];
            let mut rng = Rng::new(seed);
            let mut m = LatencyModel::sample(
                n,
                30.0,
                10.0,
                &degrees,
                Some(DynamicsConfig {
                    change_prob: 0.5,
                    degrees: degrees.clone(),
                }),
                &mut rng,
            );
            for _ in 0..rounds {
                for c in 0..n {
                    let _ = m.maybe_perturb(c, &mut rng);
                    assert!(degrees.iter().any(|&d| (m.degree(c) - d).abs() < 1e-12));
                }
            }
        },
    );
}

#[test]
fn explicit_delays_round_trip() {
    let delays = vec_in(f64_in(0.1, 1e3), 1, 50);
    forall("explicit_delays_round_trip", CASES, &delays, |delays| {
        let m = LatencyModel::from_delays(delays, None);
        for (c, &d) in delays.iter().enumerate() {
            assert!((m.response_latency(c) - d).abs() < 1e-12);
        }
    });
}

//! Property-based tests for the util crate's numeric foundations.

use ecofl_compat::check::{
    any_u64, f64_in, forall, pair, triple, u64_in, usize_in, vec_exact, vec_in, Gen,
};
use ecofl_util::{
    divergence::uniform_distribution, js_divergence, kl_divergence, normalize_distribution, Rng,
    TimeSeries,
};

const CASES: usize = 256;

fn prob_vector(n: usize) -> Gen<Vec<f64>> {
    vec_exact(f64_in(0.0, 100.0), n).map(|v| {
        let eps: Vec<f64> = v.iter().map(|x| x + 1e-9).collect();
        normalize_distribution(&eps)
    })
}

#[test]
fn js_symmetric_and_bounded() {
    let input = pair(prob_vector(10), prob_vector(10));
    forall("js_symmetric_and_bounded", CASES, &input, |(p, q)| {
        let a = js_divergence(p, q);
        let b = js_divergence(q, p);
        assert!((a - b).abs() < 1e-12);
        assert!((0.0..=1.0 + 1e-12).contains(&a));
    });
}

#[test]
fn js_identity_is_zero() {
    forall("js_identity_is_zero", CASES, &prob_vector(8), |p| {
        assert!(js_divergence(p, p) < 1e-12);
    });
}

#[test]
fn kl_nonnegative() {
    let input = pair(prob_vector(6), prob_vector(6));
    forall("kl_nonnegative", CASES, &input, |(p, q)| {
        assert!(kl_divergence(p, q) >= -1e-12);
    });
}

#[test]
fn uniform_minimizes_js_to_itself() {
    forall(
        "uniform_minimizes_js_to_itself",
        CASES,
        &usize_in(2, 12),
        |&n| {
            let u = uniform_distribution(n);
            assert!(js_divergence(&u, &u) < 1e-12);
        },
    );
}

#[test]
fn normalize_sums_to_one() {
    let v = vec_in(f64_in(0.0, 1e6), 1, 20);
    forall("normalize_sums_to_one", CASES, &v, |v| {
        let d = normalize_distribution(v);
        let total: f64 = d.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(d.iter().all(|&x| x >= 0.0));
    });
}

#[test]
fn next_below_respects_bound() {
    let input = pair(any_u64(), u64_in(1, 1_000_000));
    forall(
        "next_below_respects_bound",
        CASES,
        &input,
        |&(seed, bound)| {
            let mut rng = Rng::new(seed);
            for _ in 0..64 {
                assert!(rng.next_below(bound) < bound);
            }
        },
    );
}

#[test]
fn sample_indices_distinct_and_in_range() {
    let input = triple(any_u64(), usize_in(1, 200), f64_in(0.0, 1.0));
    forall(
        "sample_indices_distinct_and_in_range",
        CASES,
        &input,
        |&(seed, n, frac)| {
            let k = ((n as f64 * frac) as usize).min(n);
            let mut rng = Rng::new(seed);
            let s = rng.sample_indices(n, k);
            assert_eq!(s.len(), k);
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), k);
            assert!(d.iter().all(|&i| i < n));
        },
    );
}

/// The partial Fisher–Yates `sample_indices` computes, over the whole
/// index vector: the same draws in the same order, O(n) memory. The
/// oracle the sparse sampler is held to.
fn dense_sample_indices(rng: &mut Rng, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.range_usize(i, n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

/// Same sample, and the stream left where the dense loop leaves it.
fn assert_sampler_matches_dense(seed: u64, n: usize, k: usize) {
    let (mut sparse, mut dense) = (Rng::new(seed), Rng::new(seed));
    assert_eq!(
        sparse.sample_indices(n, k),
        dense_sample_indices(&mut dense, n, k),
        "seed {seed} n {n} k {k}"
    );
    assert_eq!(
        sparse.next_u64(),
        dense.next_u64(),
        "seed {seed} n {n} k {k}"
    );
}

#[test]
fn sample_indices_matches_the_dense_fisher_yates() {
    // Every (n, k) of a small population, k = 0 and k = n included.
    for n in 0..=48 {
        for k in 0..=n {
            for seed in 0..4 {
                assert_sampler_matches_dense(seed, n, k);
            }
        }
    }
    // Census-sized populations: a few picks, or a sizeable share.
    let input = triple(any_u64(), usize_in(1, 200_000), f64_in(0.0, 1.0));
    forall(
        "sample_indices_matches_the_dense_fisher_yates",
        CASES / 8,
        &input,
        |&(seed, n, frac)| {
            let k = if seed % 2 == 0 {
                n.min(1 + seed as usize % 32)
            } else {
                (n as f64 * frac) as usize
            };
            assert_sampler_matches_dense(seed, n, k.min(n));
        },
    );
}

#[test]
fn rng_split_streams_differ() {
    forall("rng_split_streams_differ", CASES, &any_u64(), |&seed| {
        let mut parent = Rng::new(seed);
        let mut child = parent.split();
        let same = (0..32)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert!(same < 3);
    });
}

#[test]
fn time_series_value_at_is_last_sample() {
    let points = vec_in(pair(f64_in(0.0, 1e3), f64_in(-10.0, 10.0)), 1, 50);
    forall(
        "time_series_value_at_is_last_sample",
        CASES,
        &points,
        |points| {
            let mut sorted = points.clone();
            sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let ts: TimeSeries = sorted.iter().copied().collect();
            // At exactly the last timestamp the value is the final sample.
            let (t_last, _) = sorted[sorted.len() - 1];
            let expected = sorted.iter().rev().find(|&&(t, _)| t <= t_last).unwrap().1;
            assert_eq!(ts.value_at(t_last), Some(expected));
            // Before the first sample there is no value.
            assert_eq!(ts.value_at(sorted[0].0 - 1.0), None);
        },
    );
}

#[test]
fn time_to_reach_is_monotone_in_threshold() {
    let input = triple(
        vec_in(pair(f64_in(0.0, 1e3), f64_in(0.0, 1.0)), 1, 50),
        f64_in(0.0, 1.0),
        f64_in(0.0, 1.0),
    );
    forall(
        "time_to_reach_is_monotone_in_threshold",
        CASES,
        &input,
        |(points, th1, th2)| {
            let mut sorted = points.clone();
            sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let ts: TimeSeries = sorted.into_iter().collect();
            let (lo, hi) = if th1 <= th2 {
                (*th1, *th2)
            } else {
                (*th2, *th1)
            };
            match (ts.time_to_reach(lo), ts.time_to_reach(hi)) {
                (Some(a), Some(b)) => assert!(a <= b),
                (None, Some(_)) => panic!("lower threshold must be reached first"),
                _ => {}
            }
        },
    );
}

//! Cross-module behavioural tests for util: the interactions between the
//! RNG, statistics, and series types that single-module unit tests miss.

use ecofl_util::{
    divergence::uniform_distribution, js_divergence, normalize_distribution, stats::stddev, Rng,
    TimeSeries,
};

#[test]
fn rng_streams_feed_stats_reproducibly() {
    let collect = |seed: u64| {
        let mut rng = Rng::new(seed);
        let xs: Vec<f64> = (0..500).map(|_| rng.gaussian(10.0, 3.0)).collect();
        (ecofl_util::mean(&xs), stddev(&xs))
    };
    let (m1, s1) = collect(77);
    let (m2, s2) = collect(77);
    assert_eq!(m1, m2);
    assert_eq!(s1, s2);
    assert!((m1 - 10.0).abs() < 0.5);
    assert!((s1 - 3.0).abs() < 0.5);
}

#[test]
fn empirical_label_histograms_converge_to_uniform() {
    // Sampling labels uniformly must drive JS-from-uniform toward zero —
    // the statistical backbone of the grouping experiments.
    let mut rng = Rng::new(5);
    let mut js_small = 0.0;
    let mut js_large = 0.0;
    for (n, js) in [(30usize, &mut js_small), (30_000, &mut js_large)] {
        let mut counts = vec![0.0f64; 10];
        for _ in 0..n {
            counts[rng.range_usize(0, 10)] += 1.0;
        }
        let dist = normalize_distribution(&counts);
        *js = js_divergence(&dist, &uniform_distribution(10));
    }
    assert!(js_large < js_small, "{js_large} vs {js_small}");
    assert!(js_large < 0.01);
}

#[test]
fn accuracy_trace_composition() {
    // Build a trace the way the FL engine does, then query it the way the
    // bench harness does.
    let mut trace = TimeSeries::new();
    let mut acc = 0.1;
    let mut t = 0.0;
    while acc < 0.9 {
        trace.push(t, acc);
        acc += 0.08;
        t += 25.0;
    }
    trace.push(t, 0.9);
    let resampled = trace.resample(10);
    assert_eq!(resampled.len(), 10);
    assert!(resampled.windows(2).all(|w| w[0].1 <= w[1].1 + 1e-12));
    let t50 = trace.time_to_reach(0.5).expect("reached");
    assert!(trace.value_at(t50).unwrap() >= 0.5);
    assert!(trace.value_at(t50 - 1.0).unwrap() < 0.5);
    assert!(trace.auc() > 0.0);
}

#[test]
fn weighted_index_matches_distribution_statistically() {
    let mut rng = Rng::new(11);
    let weights = [2.0, 5.0, 3.0];
    let mut counts = [0u32; 3];
    let n = 60_000;
    for _ in 0..n {
        counts[rng.weighted_index(&weights).unwrap()] += 1;
    }
    for (i, &w) in weights.iter().enumerate() {
        let expect = w / 10.0 * f64::from(n);
        let got = f64::from(counts[i]);
        assert!(
            (got - expect).abs() < expect * 0.05,
            "bucket {i}: {got} vs {expect}"
        );
    }
}

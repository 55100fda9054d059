//! Property-based tests for the analytic profile zoo.

use ecofl_compat::check::{f64_in, forall, pair, triple, u32_in, usize_in, vec_in};
use ecofl_models::profiles::{efficientnet_at, mlp_profile, mobilenet_v2_at};

const CASES: usize = 32;

#[test]
fn effnet_flops_monotone_in_resolution() {
    let input = triple(usize_in(0, 7), usize_in(32, 128), usize_in(16, 128));
    forall(
        "effnet_flops_monotone_in_resolution",
        CASES,
        &input,
        |&(b, lo, delta)| {
            let small = efficientnet_at(b, lo);
            let large = efficientnet_at(b, lo + delta);
            assert!(large.total_flops() > small.total_flops());
            // Parameters are resolution-independent for conv nets.
            assert_eq!(large.total_param_bytes(), small.total_param_bytes());
        },
    );
}

#[test]
fn effnet_layer_count_independent_of_resolution() {
    let input = pair(usize_in(0, 7), usize_in(32, 256));
    forall(
        "effnet_layer_count_independent_of_resolution",
        CASES,
        &input,
        |&(b, res)| {
            let native = efficientnet_at(b, 224);
            let custom = efficientnet_at(b, res);
            assert_eq!(native.num_layers(), custom.num_layers());
        },
    );
}

#[test]
fn mobilenet_flops_grow_with_width() {
    let input = pair(usize_in(32, 160), u32_in(1, 4));
    forall(
        "mobilenet_flops_grow_with_width",
        CASES,
        &input,
        |&(res, w)| {
            let narrow = mobilenet_v2_at(f64::from(w), res);
            let wide = mobilenet_v2_at(f64::from(w) + 0.5, res);
            assert!(wide.total_flops() > narrow.total_flops());
            assert!(wide.total_param_bytes() > narrow.total_param_bytes());
        },
    );
}

#[test]
fn range_flops_partitions_total() {
    let input = pair(usize_in(0, 5), f64_in(0.01, 0.99));
    forall(
        "range_flops_partitions_total",
        CASES,
        &input,
        |&(b, cut_frac)| {
            let p = efficientnet_at(b, 96);
            let l = p.num_layers();
            let cut = ((l as f64 * cut_frac) as usize).clamp(1, l - 1);
            let split = p.range_flops(0..cut) + p.range_flops(cut..l);
            assert!((split - p.total_flops()).abs() < 1e-6 * p.total_flops());
        },
    );
}

#[test]
fn every_layer_physically_sane() {
    forall(
        "every_layer_physically_sane",
        CASES,
        &usize_in(0, 7),
        |&b| {
            let p = efficientnet_at(b, 128);
            for layer in &p.layers {
                assert!(layer.flops_fwd > 0.0);
                assert!(layer.flops_bwd >= layer.flops_fwd);
                assert!(layer.activation_bytes > 0);
                assert!(layer.train_activation_bytes > 0);
                assert!(layer.param_bytes > 0);
            }
        },
    );
}

#[test]
fn mlp_profile_dimensions() {
    let dims = vec_in(usize_in(1, 128), 2, 6);
    forall("mlp_profile_dimensions", CASES, &dims, |dims| {
        let p = mlp_profile(dims);
        assert_eq!(p.num_layers(), dims.len() - 1);
        // Last layer's activation is the output width.
        assert_eq!(
            p.layers.last().unwrap().activation_bytes,
            *dims.last().unwrap() as u64 * 4
        );
        // Param bytes: sum of (in*out + out) * 4.
        let expected: u64 = dims
            .windows(2)
            .map(|w| (w[0] * w[1] + w[1]) as u64 * 4)
            .sum();
        assert_eq!(p.total_param_bytes(), expected);
    });
}

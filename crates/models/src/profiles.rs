//! Analytic layer profiles of the pipeline workloads.
//!
//! The paper's pipeline profiler (§4.2) records, per layer `l`:
//! computation time `T_l^d` (derived here from FLOPs and the device's
//! compute rate), output activation bytes `a_l`, input-gradient bytes
//! `g_l`, and parameter bytes `w_l`. This module computes those from the
//! published EfficientNet and MobileNetV2 architectures, treating each
//! MBConv / inverted-residual block as one partitionable "layer" (matching
//! the paper's suggestion to schedule at residual-block granularity).
//!
//! Conventions (per sample):
//! - conv FLOPs = `2 · K² · C_in · C_out · H_out · W_out`,
//! - backward FLOPs ≈ 2× forward (grad-input + grad-weight passes),
//! - activations/gradients are f32 (4 bytes per element),
//! - the gradient flowing backward across a stage boundary has the shape
//!   of that boundary's activation, so `g_l = a_l`.

/// Per-layer profile (per-sample quantities).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerProfile {
    /// Human-readable layer name.
    pub name: String,
    /// Forward-pass FLOPs per sample.
    pub flops_fwd: f64,
    /// Backward-pass FLOPs per sample.
    pub flops_bwd: f64,
    /// Output activation bytes per sample (`a_l`; also `g_l`) — what
    /// crosses a pipeline cut placed after this layer.
    pub activation_bytes: u64,
    /// Activation bytes *stashed for backward* per sample: the inputs of
    /// every convolution inside the block (needed for weight gradients),
    /// including the 6×-expanded intermediate tensors of inverted
    /// residuals. This is what occupies device memory per in-flight
    /// micro-batch; it is several times larger than the boundary
    /// activation.
    pub train_activation_bytes: u64,
    /// Parameter bytes (`w_l`).
    pub param_bytes: u64,
}

impl LayerProfile {
    /// Combined forward+backward FLOPs per sample.
    #[must_use]
    pub fn total_flops(&self) -> f64 {
        self.flops_fwd + self.flops_bwd
    }
}

/// A whole model as an ordered list of partitionable layers.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    /// Model name, e.g. `"EfficientNet-B4"`.
    pub name: String,
    /// Ordered per-layer profiles.
    pub layers: Vec<LayerProfile>,
    /// Input bytes per sample (the stage-0 ingress).
    pub input_bytes: u64,
}

impl ModelProfile {
    /// Number of partitionable layers.
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total forward+backward FLOPs per sample.
    #[must_use]
    pub fn total_flops(&self) -> f64 {
        self.layers.iter().map(LayerProfile::total_flops).sum()
    }

    /// Total parameter bytes.
    #[must_use]
    pub fn total_param_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.param_bytes).sum()
    }

    /// Combined FLOPs of layers `range` (for `T(i→j, n)` in Eq. 1).
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn range_flops(&self, range: std::ops::Range<usize>) -> f64 {
        self.layers[range]
            .iter()
            .map(LayerProfile::total_flops)
            .sum()
    }

    /// Activation bytes leaving layer `l` (`a_l`), i.e. crossing a cut
    /// placed after `l`.
    #[must_use]
    pub fn activation_bytes_after(&self, l: usize) -> u64 {
        self.layers[l].activation_bytes
    }

    /// Largest per-sample activation across all layers — a quick gauge of
    /// how communication-heavy the model is.
    #[must_use]
    pub fn peak_activation_bytes(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.activation_bytes)
            .max()
            .unwrap_or(0)
    }
}

const F32: u64 = 4;

/// Rounds channels to the nearest multiple of 8, never dropping below
/// 90% of the requested width (the EfficientNet/MobileNet convention).
fn round_channels(c: f64) -> usize {
    let rounded = ((c + 4.0) / 8.0).floor() * 8.0;
    let rounded = rounded.max(8.0);
    if rounded < 0.9 * c {
        rounded as usize + 8
    } else {
        rounded as usize
    }
}

fn conv_flops(k: usize, c_in: usize, c_out: usize, h_out: usize, w_out: usize) -> f64 {
    2.0 * (k * k * c_in * c_out * h_out * w_out) as f64
}

fn depthwise_flops(k: usize, c: usize, h_out: usize, w_out: usize) -> f64 {
    2.0 * (k * k * c * h_out * w_out) as f64
}

/// One inverted-residual (MBConv) block profile.
#[allow(clippy::too_many_arguments)]
fn mbconv(
    name: String,
    c_in: usize,
    c_out: usize,
    expand: usize,
    kernel: usize,
    stride: usize,
    h_in: usize,
    w_in: usize,
) -> (LayerProfile, usize, usize) {
    let c_mid = c_in * expand;
    let (h_out, w_out) = (h_in.div_ceil(stride), w_in.div_ceil(stride));
    let mut fwd = 0.0;
    let mut params = 0usize;
    if expand != 1 {
        fwd += conv_flops(1, c_in, c_mid, h_in, w_in);
        params += c_in * c_mid;
    }
    fwd += depthwise_flops(kernel, c_mid, h_out, w_out);
    params += kernel * kernel * c_mid;
    fwd += conv_flops(1, c_mid, c_out, h_out, w_out);
    params += c_mid * c_out;
    // Stashed-for-backward tensors: each conv's input. The depthwise and
    // projection convs see the t×-expanded tensor, which dominates.
    let mut stash = c_mid * h_in * w_in // depthwise input (expanded)
        + c_mid * h_out * w_out; // projection input
    if expand != 1 {
        stash += c_in * h_in * w_in; // expansion input (block input)
    }
    let profile = LayerProfile {
        name,
        flops_fwd: fwd,
        flops_bwd: 2.0 * fwd,
        activation_bytes: (c_out * h_out * w_out) as u64 * F32,
        train_activation_bytes: stash as u64 * F32,
        param_bytes: params as u64 * F32,
    };
    (profile, h_out, w_out)
}

/// EfficientNet-B0 baseline stage table: `(expand, channels, repeats,
/// stride, kernel)`.
const EFFNET_STAGES: [(usize, usize, usize, usize, usize); 7] = [
    (1, 16, 1, 1, 3),
    (6, 24, 2, 2, 3),
    (6, 40, 2, 2, 5),
    (6, 80, 3, 2, 3),
    (6, 112, 3, 1, 5),
    (6, 192, 4, 2, 5),
    (6, 320, 1, 1, 3),
];

/// Compound-scaling coefficients `(width, depth, resolution)` for B0–B6.
const EFFNET_SCALE: [(f64, f64, usize); 7] = [
    (1.0, 1.0, 224),
    (1.0, 1.1, 240),
    (1.1, 1.2, 260),
    (1.2, 1.4, 300),
    (1.4, 1.8, 380),
    (1.6, 2.2, 456),
    (1.8, 2.6, 528),
];

/// Builds the analytic profile of EfficientNet-B`b` at its native
/// compound-scaled input resolution.
///
/// # Panics
/// Panics if `b > 6`.
#[must_use]
pub fn efficientnet(b: usize) -> ModelProfile {
    let (_, _, resolution) = EFFNET_SCALE[usize::min(b, 6)];
    efficientnet_at(b, resolution)
}

/// Builds EfficientNet-B`b` for a custom input resolution (e.g. 32 for
/// CIFAR-10, the dataset the paper's pipeline experiments train on).
///
/// # Panics
/// Panics if `b > 6` or the resolution is below 32.
#[must_use]
pub fn efficientnet_at(b: usize, resolution: usize) -> ModelProfile {
    assert!(b <= 6, "efficientnet: only B0..B6 are defined, got B{b}");
    assert!(resolution >= 32, "efficientnet: resolution must be ≥ 32");
    let (width, depth, _) = EFFNET_SCALE[b];
    let mut layers = Vec::new();

    // Stem: 3×3 stride-2 conv to round(32·w) channels.
    let c_stem = round_channels(32.0 * width);
    let (mut h, mut w) = (resolution.div_ceil(2), resolution.div_ceil(2));
    let stem_fwd = conv_flops(3, 3, c_stem, h, w);
    layers.push(LayerProfile {
        name: "stem".into(),
        flops_fwd: stem_fwd,
        flops_bwd: 2.0 * stem_fwd,
        activation_bytes: (c_stem * h * w) as u64 * F32,
        train_activation_bytes: (3 * resolution * resolution) as u64 * F32,
        param_bytes: (3 * 3 * 3 * c_stem) as u64 * F32,
    });

    let mut c_in = c_stem;
    for (si, &(expand, c, repeats, stride, kernel)) in EFFNET_STAGES.iter().enumerate() {
        let c_out = round_channels(c as f64 * width);
        let reps = (repeats as f64 * depth).ceil() as usize;
        for r in 0..reps {
            let s = if r == 0 { stride } else { 1 };
            let (profile, nh, nw) = mbconv(
                format!("mbconv{}_{}", si + 1, r),
                c_in,
                c_out,
                expand,
                kernel,
                s,
                h,
                w,
            );
            layers.push(profile);
            h = nh;
            w = nw;
            c_in = c_out;
        }
    }

    // Head: 1×1 conv to round(1280·w), global pool, FC to 1000.
    let c_head = round_channels(1280.0 * width);
    let head_fwd = conv_flops(1, c_in, c_head, h, w) + 2.0 * (c_head * 1000) as f64;
    layers.push(LayerProfile {
        name: "head".into(),
        flops_fwd: head_fwd,
        flops_bwd: 2.0 * head_fwd,
        activation_bytes: 1000 * F32,
        train_activation_bytes: (c_in * h * w + c_head) as u64 * F32,
        param_bytes: (c_in * c_head + c_head * 1000) as u64 * F32,
    });

    ModelProfile {
        name: format!("EfficientNet-B{b}@{resolution}"),
        layers,
        input_bytes: (3 * resolution * resolution) as u64 * F32,
    }
}

/// MobileNetV2 stage table: `(expand, channels, repeats, stride)` with
/// 3×3 depthwise kernels throughout.
const MBV2_STAGES: [(usize, usize, usize, usize); 7] = [
    (1, 16, 1, 1),
    (6, 24, 2, 2),
    (6, 32, 3, 2),
    (6, 64, 4, 2),
    (6, 96, 3, 1),
    (6, 160, 3, 2),
    (6, 320, 1, 1),
];

/// Builds the analytic profile of MobileNetV2 with the given width
/// multiplier (the paper's `W2`/`W3` are `width_mult = 2.0`/`3.0`) at the
/// native 224×224 resolution.
///
/// # Panics
/// Panics on a non-positive multiplier.
#[must_use]
pub fn mobilenet_v2(width_mult: f64) -> ModelProfile {
    mobilenet_v2_at(width_mult, 224)
}

/// Builds MobileNetV2 for a custom input resolution.
///
/// # Panics
/// Panics on a non-positive multiplier or a resolution below 32.
#[must_use]
pub fn mobilenet_v2_at(width_mult: f64, resolution: usize) -> ModelProfile {
    assert!(
        width_mult > 0.0,
        "mobilenet_v2: width multiplier must be positive"
    );
    assert!(resolution >= 32, "mobilenet_v2: resolution must be ≥ 32");
    let mut layers = Vec::new();

    let c_stem = round_channels(32.0 * width_mult);
    let (mut h, mut w) = (resolution / 2, resolution / 2);
    let stem_fwd = conv_flops(3, 3, c_stem, h, w);
    layers.push(LayerProfile {
        name: "stem".into(),
        flops_fwd: stem_fwd,
        flops_bwd: 2.0 * stem_fwd,
        activation_bytes: (c_stem * h * w) as u64 * F32,
        train_activation_bytes: (3 * resolution * resolution) as u64 * F32,
        param_bytes: (3 * 3 * 3 * c_stem) as u64 * F32,
    });

    let mut c_in = c_stem;
    for (si, &(expand, c, repeats, stride)) in MBV2_STAGES.iter().enumerate() {
        let c_out = round_channels(c as f64 * width_mult);
        for r in 0..repeats {
            let s = if r == 0 { stride } else { 1 };
            let (profile, nh, nw) = mbconv(
                format!("bottleneck{}_{}", si + 1, r),
                c_in,
                c_out,
                expand,
                3,
                s,
                h,
                w,
            );
            layers.push(profile);
            h = nh;
            w = nw;
            c_in = c_out;
        }
    }

    // Head keeps the 1280-channel top regardless of multiplier < 1; for
    // multiplier ≥ 1 it scales, matching the reference implementation.
    let c_head = round_channels((1280.0 * width_mult.max(1.0)).max(1280.0));
    let head_fwd = conv_flops(1, c_in, c_head, h, w) + 2.0 * (c_head * 1000) as f64;
    layers.push(LayerProfile {
        name: "head".into(),
        flops_fwd: head_fwd,
        flops_bwd: 2.0 * head_fwd,
        activation_bytes: 1000 * F32,
        train_activation_bytes: (c_in * h * w + c_head) as u64 * F32,
        param_bytes: (c_in * c_head + c_head * 1000) as u64 * F32,
    });

    let suffix = if (width_mult - 1.0).abs() < 1e-9 {
        String::new()
    } else {
        format!("-W{width_mult:.0}")
    };
    ModelProfile {
        name: format!("MobileNetV2{suffix}@{resolution}"),
        layers,
        input_bytes: (3 * resolution * resolution) as u64 * F32,
    }
}

/// Analytic profile of a fully connected network with the given layer
/// widths (`dims[0]` inputs through `dims.last()` outputs). Each linear
/// layer (plus its activation) is one partitionable unit, so the pipeline
/// planner can split the *actual FL client models* across home devices,
/// closing the loop between the §4 pipeline and the §5 FL system.
///
/// # Panics
/// Panics with fewer than two dims.
#[must_use]
pub fn mlp_profile(dims: &[usize]) -> ModelProfile {
    assert!(
        dims.len() >= 2,
        "mlp_profile: need at least input and output dims"
    );
    let layers = dims
        .windows(2)
        .enumerate()
        .map(|(i, w)| {
            let (fan_in, fan_out) = (w[0], w[1]);
            let fwd = 2.0 * (fan_in * fan_out) as f64;
            LayerProfile {
                name: format!("linear{i}_{fan_in}x{fan_out}"),
                flops_fwd: fwd,
                flops_bwd: 2.0 * fwd,
                activation_bytes: fan_out as u64 * F32,
                train_activation_bytes: (fan_in + fan_out) as u64 * F32,
                param_bytes: (fan_in * fan_out + fan_out) as u64 * F32,
            }
        })
        .collect();
    ModelProfile {
        name: format!("MLP-{dims:?}"),
        layers,
        input_bytes: dims[0] as u64 * F32,
    }
}

/// Profile of the FL client architectures in `fl_models` (the MLP used by
/// the FL simulations, layer-for-layer).
#[must_use]
pub fn fl_mlp_profile(feature_dim: usize, num_classes: usize) -> ModelProfile {
    mlp_profile(&[feature_dim, 64, 32, num_classes])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b0_flops_in_published_ballpark() {
        // EfficientNet-B0 inference is ~0.39 GFLOPs (0.78 GFLOPs with the
        // multiply+add convention used here); our block-level model omits
        // SE blocks so accept a generous band.
        let p = efficientnet(0);
        let gflops = p.layers.iter().map(|l| l.flops_fwd).sum::<f64>() / 1e9;
        assert!(
            (0.4..1.2).contains(&gflops),
            "B0 forward {gflops} GFLOPs out of expected band"
        );
    }

    #[test]
    fn scaling_is_monotone() {
        let mut prev = 0.0;
        for b in 0..=6 {
            let total = efficientnet(b).total_flops();
            assert!(
                total > prev,
                "B{b} total {total} not greater than previous {prev}"
            );
            prev = total;
        }
    }

    #[test]
    fn b6_depth_exceeds_b0() {
        assert!(efficientnet(6).num_layers() > efficientnet(0).num_layers());
    }

    #[test]
    fn mobilenet_width_scaling() {
        let w1 = mobilenet_v2(1.0).total_flops();
        let w2 = mobilenet_v2(2.0).total_flops();
        let w3 = mobilenet_v2(3.0).total_flops();
        assert!(
            w2 > 2.0 * w1,
            "width 2 should be ≳4× flops of width 1 in conv terms"
        );
        assert!(w3 > w2);
    }

    #[test]
    fn mobilenet_layer_count_fixed() {
        // 1 stem + 17 bottlenecks + 1 head regardless of width.
        assert_eq!(mobilenet_v2(1.0).num_layers(), 19);
        assert_eq!(mobilenet_v2(3.0).num_layers(), 19);
    }

    #[test]
    fn activations_concentrate_in_front() {
        // The Fig. 5 premise: early layers carry the biggest activations.
        let p = efficientnet(1);
        let n = p.num_layers();
        let front_max = p.layers[..n / 3]
            .iter()
            .map(|l| l.activation_bytes)
            .max()
            .unwrap();
        let back_max = p.layers[2 * n / 3..]
            .iter()
            .map(|l| l.activation_bytes)
            .max()
            .unwrap();
        assert!(
            front_max > 4 * back_max,
            "front activations ({front_max}) should dominate back ({back_max})"
        );
    }

    #[test]
    fn range_flops_sums() {
        let p = efficientnet(0);
        let total: f64 = p.range_flops(0..p.num_layers());
        assert!((total - p.total_flops()).abs() < 1e-3);
        let split = p.range_flops(0..5) + p.range_flops(5..p.num_layers());
        assert!((split - total).abs() < 1e-3);
    }

    #[test]
    fn param_bytes_positive_everywhere() {
        for b in [0, 4, 6] {
            for l in &efficientnet(b).layers {
                assert!(l.param_bytes > 0, "layer {} has no params", l.name);
                assert!(l.activation_bytes > 0);
                // The stem stashes only its (small) input; every MBConv
                // stashes the expanded intermediates, dwarfing its output.
                let floor = if l.name == "stem" {
                    l.activation_bytes / 8
                } else {
                    l.activation_bytes / 4
                };
                assert!(
                    l.train_activation_bytes >= floor,
                    "stashed activations should be substantial for {}",
                    l.name
                );
                assert!(l.flops_bwd > l.flops_fwd);
            }
        }
    }

    #[test]
    fn round_channels_conventions() {
        assert_eq!(round_channels(32.0), 32);
        assert_eq!(round_channels(35.0), 32);
        assert_eq!(round_channels(36.0), 40);
        assert_eq!(round_channels(4.0), 8);
        // Never drop below 90%.
        assert!(round_channels(100.0) as f64 >= 90.0);
    }

    #[test]
    fn mlp_profile_matches_fl_model_params() {
        // The analytic param bytes must equal the trainable model's actual
        // parameter count × 4 bytes.
        let profile = fl_mlp_profile(32, 10);
        let mut rng = ecofl_util::Rng::new(1);
        let net = crate::fl_models::mlp_for(32, 10, &mut rng);
        assert_eq!(
            profile.total_param_bytes(),
            net.param_len() as u64 * 4,
            "analytic profile disagrees with the real model"
        );
        assert_eq!(profile.num_layers(), 3);
        assert!(profile.total_flops() > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least input")]
    fn mlp_profile_rejects_single_dim() {
        let _ = mlp_profile(&[10]);
    }

    #[test]
    #[should_panic(expected = "B0..B6")]
    fn rejects_unknown_variant() {
        let _ = efficientnet(7);
    }
}

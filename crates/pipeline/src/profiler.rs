//! Pipeline profiling (§4.2, "Profiling" phase).
//!
//! The paper's profiler measures, for every layer `l` on every device `d`,
//! the combined FP+BP time `T_l^d` and records activation bytes `a_l`,
//! gradient bytes `g_l` and parameter bytes `w_l`. With simulated hardware
//! those quantities derive from the analytic model profiles
//! (`ecofl-models`) and device compute rates (`ecofl-simnet`):
//!
//! `T_l^d = mbs · (flops_fwd + flops_bwd)_l / rate_d`.

use ecofl_models::ModelProfile;
use ecofl_simnet::{Device, Link};

/// Bytes of optimizer + gradient state kept per parameter byte (params,
/// gradients, SGD momentum).
pub(crate) const PARAM_STATE_FACTOR: u64 = 3;

/// Half-saturation batch size of the GPU-efficiency curve: a kernel over
/// `b` samples sustains `b / (b + MBS_HALF_SAT)` of peak throughput.
/// Small micro-batches under-fill the GPU — the §4.3 observation that
/// "too tiny micro-batch size will result in the under-utilization of
/// computational resources".
pub(crate) const MBS_HALF_SAT: f64 = 2.0;

/// GPU efficiency factor at a given micro-batch size.
#[must_use]
pub(crate) fn batch_efficiency(micro_batch: usize) -> f64 {
    micro_batch as f64 / (micro_batch as f64 + MBS_HALF_SAT)
}

/// Profile of one pipeline stage (a contiguous layer segment bound to one
/// device) at a given micro-batch size.
#[derive(Debug, Clone, PartialEq)]
pub struct StageProfile {
    /// Index of the device executing this stage (into the pipeline's
    /// device order).
    pub device: usize,
    /// Layer range `[start, end)` of the global model.
    pub layers: std::ops::Range<usize>,
    /// Forward compute time per micro-batch, seconds (`T^s_{t,f}`).
    pub t_fwd: f64,
    /// Backward compute time per micro-batch, seconds (`T^s_{t,b}`).
    pub t_bwd: f64,
    /// Forward (activation) transfer time to the next stage per
    /// micro-batch, seconds (`T^s_{c,f}`); zero for the last stage.
    pub c_fwd: f64,
    /// Backward (gradient) transfer time from the next stage per
    /// micro-batch, seconds (`T^s_{c,b}`); zero for the last stage.
    pub c_bwd: f64,
    /// Bytes of parameters held by the stage.
    pub param_bytes: u64,
    /// Activation bytes resident per in-flight micro-batch (every layer
    /// output inside the stage is stashed for backward).
    pub activation_bytes_per_mb: u64,
    /// Activation bytes crossing the cut to the next stage per
    /// micro-batch; zero for the last stage.
    pub boundary_bytes: u64,
    /// Memory capacity of the device hosting this stage, bytes.
    pub memory_budget_bytes: u64,
    /// GPU efficiency at this profile's micro-batch size (useful compute
    /// per busy second).
    pub efficiency: f64,
}

impl StageProfile {
    /// Combined compute time per micro-batch.
    #[must_use]
    pub(crate) fn t_total(&self) -> f64 {
        self.t_fwd + self.t_bwd
    }

    /// Combined compute + communication per micro-batch — the "width" of
    /// the stage in the bubble analysis of §4.3.
    #[must_use]
    pub(crate) fn full_width(&self) -> f64 {
        self.t_fwd + self.t_bwd + self.c_fwd + self.c_bwd
    }

    /// Static memory demand: parameters + gradients + optimizer state.
    #[must_use]
    pub(crate) fn static_bytes(&self) -> u64 {
        self.param_bytes * PARAM_STATE_FACTOR
    }

    /// Peak memory when `k` micro-batches are resident.
    #[must_use]
    pub fn memory_with_residency(&self, k: usize) -> u64 {
        self.static_bytes() + self.activation_bytes_per_mb * k as u64
    }

    /// Maximum number of in-flight micro-batches the device memory can
    /// hold (`Q_s` in §4.3). Zero means even one micro-batch overflows.
    #[must_use]
    pub(crate) fn max_residency(&self, memory_bytes: u64) -> usize {
        if self.activation_bytes_per_mb == 0 {
            return usize::MAX;
        }
        let free = memory_bytes.saturating_sub(self.static_bytes());
        (free / self.activation_bytes_per_mb) as usize
    }
}

/// A fully profiled pipeline: a model partitioned over an ordered list of
/// devices with a given micro-batch size.
#[derive(Debug, Clone)]
pub struct PipelineProfile {
    stages: Vec<StageProfile>,
    micro_batch: usize,
}

impl PipelineProfile {
    /// Profiles `model` split at `cuts` over `devices` (in pipeline
    /// order) with the given `link` between adjacent devices.
    ///
    /// `cuts` are the stage boundaries: stage `s` covers
    /// `[cuts[s], cuts[s+1])` with implicit `cuts[0] = 0`,
    /// `cuts[last] = L`. The paper's assumption 2 (§4.3) — forward and
    /// backward boundary transfers have equal size — holds by
    /// construction (`g_l = a_l`).
    ///
    /// # Panics
    /// Panics if the cut vector does not describe `devices.len()`
    /// non-empty contiguous stages.
    #[must_use]
    pub fn new(
        model: &ModelProfile,
        boundaries: &[usize],
        devices: &[Device],
        link: &Link,
        micro_batch: usize,
    ) -> Self {
        assert!(
            micro_batch > 0,
            "PipelineProfile: micro-batch must be positive"
        );
        let l = model.num_layers();
        let s = devices.len();
        assert_eq!(
            boundaries.len(),
            s + 1,
            "PipelineProfile: need {s}+1 boundaries, got {}",
            boundaries.len()
        );
        assert_eq!(
            boundaries[0], 0,
            "PipelineProfile: first boundary must be 0"
        );
        assert_eq!(
            boundaries[s], l,
            "PipelineProfile: last boundary must equal layer count {l}"
        );
        let mbs = micro_batch as f64;
        let eff = batch_efficiency(micro_batch);
        let stages = (0..s)
            .map(|i| {
                let range = boundaries[i]..boundaries[i + 1];
                assert!(
                    range.start < range.end,
                    "PipelineProfile: stage {i} is empty"
                );
                let rate = devices[i].effective_flops() * eff;
                let fwd_flops: f64 = model.layers[range.clone()]
                    .iter()
                    .map(|x| x.flops_fwd)
                    .sum();
                let bwd_flops: f64 = model.layers[range.clone()]
                    .iter()
                    .map(|x| x.flops_bwd)
                    .sum();
                let act_per_mb: u64 = model.layers[range.clone()]
                    .iter()
                    .map(|x| x.train_activation_bytes)
                    .sum::<u64>()
                    * micro_batch as u64;
                let params: u64 = model.layers[range.clone()]
                    .iter()
                    .map(|x| x.param_bytes)
                    .sum();
                let (c_fwd, c_bwd, boundary) = if i + 1 < s {
                    let cut_bytes =
                        model.activation_bytes_after(range.end - 1) * micro_batch as u64;
                    let t = link.transfer_time(cut_bytes);
                    (t, t, cut_bytes)
                } else {
                    (0.0, 0.0, 0)
                };
                StageProfile {
                    device: i,
                    layers: range,
                    t_fwd: mbs * fwd_flops / rate,
                    t_bwd: mbs * bwd_flops / rate,
                    c_fwd,
                    c_bwd,
                    param_bytes: params,
                    activation_bytes_per_mb: act_per_mb,
                    boundary_bytes: boundary,
                    memory_budget_bytes: devices[i].spec().memory_bytes,
                    efficiency: eff,
                }
            })
            .collect();
        Self {
            stages,
            micro_batch,
        }
    }

    /// Builds a profile directly from pre-computed stage profiles
    /// (used by tests and the adaptive rescheduler when splicing stages).
    ///
    /// # Panics
    /// Panics if `stages` is empty or `micro_batch` is zero.
    #[must_use]
    pub fn from_stages(stages: Vec<StageProfile>, micro_batch: usize) -> Self {
        assert!(!stages.is_empty(), "from_stages: need at least one stage");
        assert!(micro_batch > 0, "from_stages: micro-batch must be positive");
        Self {
            stages,
            micro_batch,
        }
    }

    /// Per-stage profiles in pipeline order.
    #[must_use]
    pub fn stages(&self) -> &[StageProfile] {
        &self.stages
    }

    /// Number of stages.
    #[must_use]
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// The micro-batch size this profile was computed at.
    #[must_use]
    pub fn micro_batch(&self) -> usize {
        self.micro_batch
    }

    /// Per-micro-batch time of the slowest stage — the pipeline's
    /// steady-state bottleneck (the "lagger" of §4.2).
    #[must_use]
    pub fn bottleneck_time(&self) -> f64 {
        self.stages
            .iter()
            .map(StageProfile::t_total)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofl_models::efficientnet;
    use ecofl_simnet::{nano_h, tx2_n, Device};

    fn two_stage() -> PipelineProfile {
        let model = efficientnet(0);
        let l = model.num_layers();
        let devices = vec![Device::new(tx2_n()), Device::new(nano_h())];
        PipelineProfile::new(&model, &[0, l / 2, l], &devices, &Link::mbps_100(), 8)
    }

    #[test]
    fn stage_times_positive_and_scaled() {
        let p = two_stage();
        assert_eq!(p.num_stages(), 2);
        for s in p.stages() {
            assert!(s.t_fwd > 0.0);
            assert!(s.t_bwd > s.t_fwd, "backward ≈ 2× forward");
            assert!(s.param_bytes > 0);
        }
        // Stage 0 must communicate; last stage must not.
        assert!(p.stages()[0].c_fwd > 0.0);
        assert_eq!(p.stages()[1].c_fwd, 0.0);
        assert_eq!(p.stages()[1].boundary_bytes, 0);
    }

    #[test]
    fn micro_batch_scales_compute_linearly() {
        let model = efficientnet(0);
        let l = model.num_layers();
        let devices = vec![Device::new(tx2_n()), Device::new(nano_h())];
        let link = Link::mbps_100();
        let p8 = PipelineProfile::new(&model, &[0, l / 2, l], &devices, &link, 8);
        let p16 = PipelineProfile::new(&model, &[0, l / 2, l], &devices, &link, 16);
        let r = p16.stages()[0].t_fwd / p8.stages()[0].t_fwd;
        // Linear in samples, corrected by the GPU batch-efficiency curve:
        // doubling mbs less than doubles time because larger kernels run
        // closer to peak.
        let expected = 2.0 * batch_efficiency(8) / batch_efficiency(16);
        assert!((r - expected).abs() < 1e-9, "ratio {r} vs {expected}");
        assert!(r > 1.0 && r < 2.0);
    }

    #[test]
    fn memory_model_monotone_in_residency() {
        let p = two_stage();
        let s = &p.stages()[0];
        assert!(s.memory_with_residency(2) > s.memory_with_residency(1));
        let q = s.max_residency(s.memory_with_residency(3));
        assert_eq!(q, 3);
        // Tiny memory → zero residency.
        assert_eq!(s.max_residency(s.static_bytes()), 0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_empty_stage() {
        let model = efficientnet(0);
        let l = model.num_layers();
        let devices = vec![Device::new(tx2_n()), Device::new(nano_h())];
        let _ = PipelineProfile::new(&model, &[0, 0, l], &devices, &Link::mbps_100(), 8);
    }

    #[test]
    fn external_load_slows_stage() {
        let model = efficientnet(0);
        let l = model.num_layers();
        let mut d0 = Device::new(tx2_n());
        d0.set_external_load(0.5);
        let devices = vec![d0, Device::new(nano_h())];
        let loaded = PipelineProfile::new(&model, &[0, l / 2, l], &devices, &Link::mbps_100(), 8);
        let clean = two_stage();
        assert!(loaded.stages()[0].t_fwd > clean.stages()[0].t_fwd * 1.9);
    }
}

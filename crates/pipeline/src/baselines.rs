//! Training baselines the pipeline is compared against (Figs. 10–11).
//!
//! - **Single-device training**: the whole model on one device; feasible
//!   only if parameters + one batch of activations fit its memory.
//! - **Data-parallel training (DP)**: every device holds a full model
//!   replica, the global batch is sharded proportionally to device speed
//!   (the paper's heterogeneity-aware DP baseline), and every step ends
//!   with a gradient synchronization over the 100 Mbps network. The
//!   synchronization term is what makes DP collapse on IoT links — the
//!   paper measures 66.29% transmission overhead and finds DP *slower
//!   than a single device* for MobileNet-W3.

use crate::executor::DEFAULT_TASK_OVERHEAD;
use crate::profiler::PARAM_STATE_FACTOR;
use ecofl_models::ModelProfile;
use ecofl_simnet::{Device, Link};

/// Result of a single-device epoch estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleDeviceReport {
    /// Device name.
    pub device: String,
    /// Seconds per epoch.
    pub epoch_time: f64,
    /// Samples per second.
    pub throughput: f64,
    /// Largest batch slice the memory admits.
    pub max_batch: usize,
}

/// Estimates one training epoch on a single device.
///
/// The device micro-batches internally (gradient accumulation), so the
/// run is feasible whenever one sample's activations fit; throughput
/// degrades at tiny admissible batch sizes through the per-task overhead.
///
/// Returns `None` if even a single sample cannot be trained.
#[must_use]
pub fn single_device_epoch(
    model: &ModelProfile,
    device: &Device,
    batch: usize,
    epoch_samples: usize,
) -> Option<SingleDeviceReport> {
    let params: u64 = model.total_param_bytes();
    let act_per_sample: u64 = model.layers.iter().map(|l| l.train_activation_bytes).sum();
    let static_bytes = params * PARAM_STATE_FACTOR;
    let mem = device.spec().memory_bytes;
    if static_bytes + act_per_sample > mem {
        return None;
    }
    let max_batch = ((mem - static_bytes) / act_per_sample.max(1)) as usize;
    let eff_batch = batch.min(max_batch).max(1);
    let steps = epoch_samples.div_ceil(eff_batch);
    let flops_per_sample = model.total_flops();
    let compute = epoch_samples as f64 * flops_per_sample
        / (device.effective_flops() * crate::profiler::batch_efficiency(eff_batch));
    // Forward + backward dispatch per step.
    let overhead = steps as f64 * 2.0 * DEFAULT_TASK_OVERHEAD;
    let epoch_time = compute + overhead;
    Some(SingleDeviceReport {
        device: device.name().to_owned(),
        epoch_time,
        throughput: epoch_samples as f64 / epoch_time,
        max_batch,
    })
}

/// Result of a data-parallel epoch estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct DataParallelReport {
    /// Seconds per epoch.
    pub epoch_time: f64,
    /// Compute seconds per epoch (slowest replica).
    pub compute_time: f64,
    /// Gradient-synchronization seconds per epoch.
    pub comm_time: f64,
    /// Fraction of the epoch spent on transmission.
    pub comm_fraction: f64,
    /// Samples per second.
    pub throughput: f64,
    /// Per-device utilization (compute ÷ wall time).
    pub per_device_utilization: Vec<f64>,
    /// Batch shard per device.
    pub shards: Vec<usize>,
}

/// Estimates one data-parallel training epoch.
///
/// Shards each global batch across `devices` proportionally to effective
/// speed, then synchronizes gradients every step with a ring all-reduce
/// over `link`: `2 · (D−1)/D · param_bytes / bandwidth` per step.
///
/// Returns `None` if some replica cannot hold the full model plus its
/// shard's activations (DP requires a complete replica everywhere — the
/// memory pressure the paper's §1 highlights).
#[must_use]
pub fn data_parallel_epoch(
    model: &ModelProfile,
    devices: &[Device],
    link: &Link,
    global_batch: usize,
    epoch_samples: usize,
) -> Option<DataParallelReport> {
    if devices.is_empty() {
        return None;
    }
    let d = devices.len();
    let params = model.total_param_bytes();
    let act_per_sample: u64 = model.layers.iter().map(|l| l.train_activation_bytes).sum();

    // Speed-proportional shards (largest-remainder rounding).
    let total_rate: f64 = devices.iter().map(Device::effective_flops).sum();
    let mut shards: Vec<usize> = devices
        .iter()
        .map(|dev| {
            ((global_batch as f64 * dev.effective_flops() / total_rate).floor() as usize).max(1)
        })
        .collect();
    let mut assigned: usize = shards.iter().sum();
    let mut i = 0;
    while assigned < global_batch {
        shards[i % d] += 1;
        assigned += 1;
        i += 1;
    }
    while assigned > global_batch {
        if let Some(s) = shards.iter_mut().rev().find(|s| **s > 1) {
            *s -= 1;
            assigned -= 1;
        } else {
            break;
        }
    }

    // Memory feasibility: every replica holds the full model; shards are
    // processed in internal sub-batches (gradient accumulation), so one
    // sample's activations must fit. The admissible sub-batch size also
    // caps the kernel efficiency the device can reach.
    let mut sub_batches = Vec::with_capacity(d);
    for (dev, &shard) in devices.iter().zip(&shards) {
        let static_bytes = params * PARAM_STATE_FACTOR;
        if static_bytes + act_per_sample > dev.spec().memory_bytes {
            return None;
        }
        let max_fit = ((dev.spec().memory_bytes - static_bytes) / act_per_sample.max(1)) as usize;
        sub_batches.push(shard.min(max_fit).max(1));
    }

    let flops_per_sample = model.total_flops();
    let steps = epoch_samples.div_ceil(global_batch);
    // Per step the wall time is the slowest replica.
    let step_compute = devices
        .iter()
        .zip(shards.iter().zip(&sub_batches))
        .map(|(dev, (&s, &sub))| {
            s as f64 * flops_per_sample
                / (dev.effective_flops() * crate::profiler::batch_efficiency(sub))
        })
        .fold(0.0, f64::max)
        + 2.0 * DEFAULT_TASK_OVERHEAD;
    // Ring all-reduce of gradients each step.
    let step_comm = if d > 1 {
        2.0 * (d as f64 - 1.0) / d as f64 * params as f64 / link.bandwidth()
            + 2.0 * (d as f64 - 1.0) * link.latency()
    } else {
        0.0
    };
    let compute_time = steps as f64 * step_compute;
    let comm_time = steps as f64 * step_comm;
    let epoch_time = compute_time + comm_time;

    let per_device_utilization = devices
        .iter()
        .zip(shards.iter().zip(&sub_batches))
        .map(|(dev, (&s, &sub))| {
            let busy = steps as f64 * s as f64 * flops_per_sample
                / (dev.effective_flops() * crate::profiler::batch_efficiency(sub));
            busy / epoch_time
        })
        .collect();

    Some(DataParallelReport {
        epoch_time,
        compute_time,
        comm_time,
        comm_fraction: comm_time / epoch_time,
        throughput: epoch_samples as f64 / epoch_time,
        per_device_utilization,
        shards,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofl_models::{efficientnet, mobilenet_v2};
    use ecofl_simnet::{nano_h, nano_l, tx2_q, DeviceSpec};

    #[test]
    fn single_device_scales_with_speed() {
        let model = efficientnet(1);
        let fast = single_device_epoch(&model, &Device::new(tx2_q()), 32, 1000).unwrap();
        let slow = single_device_epoch(&model, &Device::new(nano_l()), 32, 1000).unwrap();
        assert!(fast.epoch_time < slow.epoch_time);
        let ratio = slow.epoch_time / fast.epoch_time;
        let rate_ratio = tx2_q().compute_flops / nano_l().compute_flops;
        assert!((ratio - rate_ratio).abs() / rate_ratio < 0.05);
    }

    #[test]
    fn single_device_oom_returns_none() {
        let model = efficientnet(6);
        let tiny = Device::new(DeviceSpec::new("tiny", 1e9, 1 << 20, 1e8));
        assert!(single_device_epoch(&model, &tiny, 8, 100).is_none());
    }

    #[test]
    fn dp_shards_proportional_to_speed() {
        let model = mobilenet_v2(1.0);
        let devices = vec![Device::new(tx2_q()), Device::new(nano_l())];
        let r = data_parallel_epoch(&model, &devices, &Link::mbps_100(), 30, 300).unwrap();
        assert_eq!(r.shards.iter().sum::<usize>(), 30);
        assert!(
            r.shards[0] > 2 * r.shards[1],
            "fast device should take the larger shard: {:?}",
            r.shards
        );
    }

    #[test]
    fn dp_comm_dominates_for_wide_mobilenet() {
        // The §6.3 observation: for MobileNet-W3 gradient sync exceeds
        // compute per epoch on 100 Mbps.
        let model = mobilenet_v2(3.0);
        let devices = vec![
            Device::new(tx2_q()),
            Device::new(nano_h()),
            Device::new(nano_h()),
        ];
        let r = data_parallel_epoch(&model, &devices, &Link::mbps_100(), 128, 1280).unwrap();
        assert!(
            r.comm_fraction > 0.4,
            "W3 DP should be transmission-bound, got {}",
            r.comm_fraction
        );
    }

    #[test]
    fn dp_single_replica_has_no_comm() {
        let model = mobilenet_v2(1.0);
        let devices = vec![Device::new(tx2_q())];
        let r = data_parallel_epoch(&model, &devices, &Link::mbps_100(), 16, 160).unwrap();
        assert_eq!(r.comm_time, 0.0);
        assert_eq!(r.comm_fraction, 0.0);
    }

    #[test]
    fn dp_can_lose_to_single_device() {
        // MobileNet-W3 over 100 Mbps: the paper finds DP slower than one
        // TX2-Q.
        let model = mobilenet_v2(3.0);
        let cluster = vec![
            Device::new(tx2_q()),
            Device::new(nano_h()),
            Device::new(nano_h()),
        ];
        let dp = data_parallel_epoch(&model, &cluster, &Link::mbps_100(), 64, 640).unwrap();
        let single = single_device_epoch(&model, &Device::new(tx2_q()), 64, 640).unwrap();
        assert!(
            dp.epoch_time > single.epoch_time,
            "DP {} should be slower than single TX2-Q {}",
            dp.epoch_time,
            single.epoch_time
        );
    }

    #[test]
    fn utilization_below_one_under_comm() {
        let model = mobilenet_v2(2.0);
        let devices = vec![Device::new(nano_l()), Device::new(nano_h())];
        let r = data_parallel_epoch(&model, &devices, &Link::mbps_100(), 32, 320).unwrap();
        for &u in &r.per_device_utilization {
            assert!(u > 0.0 && u < 1.0);
        }
    }
}

//! Client-side local training.
//!
//! Each participating client trains the current group/global model on its
//! own shard for `e` local epochs of mini-batch SGD. In Eco-FL's
//! intra-group solver the loss carries the FedProx proximal term
//! `µ/2 · ‖w − w_group‖²` (§5.1), implemented in the optimizer so the model
//! itself stays agnostic.

use ecofl_data::Dataset;
use ecofl_models::ModelArch;
use ecofl_tensor::{Sgd, Tensor};
use ecofl_util::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Local-solver hyper-parameters for one training call.
#[derive(Debug, Clone, Copy)]
pub struct LocalTrainConfig {
    /// Local epochs `e`.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Proximal coefficient µ (0 disables the term).
    pub mu: f32,
}

static LIVE_UPDATES: AtomicUsize = AtomicUsize::new(0);
static PEAK_LIVE_UPDATES: AtomicUsize = AtomicUsize::new(0);

/// Process-wide count of [`LocalUpdate`]s currently alive. The
/// streaming-aggregation contract — one update alive at a time, whatever
/// the cohort size and the client population — is asserted against this and
/// [`peak_live_update_count`] by the `memory_bound` integration test.
#[must_use]
pub fn live_update_count() -> usize {
    LIVE_UPDATES.load(Ordering::Relaxed)
}

/// High-water mark of [`live_update_count`] since the last
/// [`reset_peak_live_updates`].
#[must_use]
pub fn peak_live_update_count() -> usize {
    PEAK_LIVE_UPDATES.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the current live count.
pub fn reset_peak_live_updates() {
    PEAK_LIVE_UPDATES.store(LIVE_UPDATES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// RAII tally of one live [`LocalUpdate`]: counts itself in on
/// construction/clone and out on drop, maintaining the high-water mark.
/// Kept as a private field so partial moves out of `LocalUpdate`
/// (e.g. `update.params`) still decrement when the token drops.
#[derive(Debug)]
struct LiveToken;

impl LiveToken {
    fn new() -> Self {
        let live = LIVE_UPDATES.fetch_add(1, Ordering::Relaxed) + 1;
        PEAK_LIVE_UPDATES.fetch_max(live, Ordering::Relaxed);
        LiveToken
    }
}

impl Clone for LiveToken {
    fn clone(&self) -> Self {
        LiveToken::new()
    }
}

impl Drop for LiveToken {
    fn drop(&mut self) {
        LIVE_UPDATES.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Result of a local training call.
#[derive(Debug, Clone)]
pub struct LocalUpdate {
    /// Updated parameters.
    pub params: Vec<f32>,
    /// Samples used (`|D_c|`, the FedAvg aggregation weight).
    pub num_samples: usize,
    /// Mean training loss over the final epoch.
    pub final_loss: f32,
    _live: LiveToken,
}

/// Trains `start_params` on `data` and returns the updated parameters.
///
/// The proximal anchor is `start_params` itself — the group model the
/// client synchronized from, matching `h_c(w) = F_c(w) + µ/2‖w − w^g‖²`.
///
/// The step loop allocates nothing: one epoch order, one feature tensor
/// and one label vector are reused across batches, the network recycles
/// its activations, and SGD steps the parameters where they live
/// (`crates/fl/tests/alloc_bound.rs` holds the count).
///
/// # Panics
/// Panics if `data` is empty, `cfg.batch_size` is zero or the architecture
/// mismatches the dataset.
#[must_use]
pub fn local_train(
    arch: ModelArch,
    start_params: &[f32],
    data: &Dataset,
    cfg: &LocalTrainConfig,
    rng: &mut Rng,
) -> LocalUpdate {
    assert!(!data.is_empty(), "local_train: empty client dataset");
    assert!(
        cfg.batch_size > 0,
        "local_train: batch_size must be positive"
    );
    // The synchronized group model overwrites every weight, so build the
    // zeroed skeleton instead of spending `param_len()` Gaussian draws on
    // an initialization that is discarded immediately.
    let mut model = arch.build_uninit(data.feature_dim(), data.num_classes());
    model.set_params(start_params);
    let mut opt = Sgd::new(cfg.lr).with_proximal(cfg.mu);
    let anchor = (cfg.mu > 0.0).then_some(start_params);

    let mut order = Vec::with_capacity(data.len());
    let mut x = Tensor::zeros(&[0, data.feature_dim()]);
    let mut labels = Vec::with_capacity(cfg.batch_size.min(data.len()));
    let mut final_loss = 0.0f32;
    for _epoch in 0..cfg.epochs {
        let mut epoch_loss = 0.0f32;
        data.epoch_order(&mut order, rng);
        let batches = order.chunks(cfg.batch_size);
        let n_batches = batches.len();
        for batch in batches {
            x.resize(&[batch.len(), data.feature_dim()]);
            data.gather_into(batch, x.data_mut(), &mut labels);
            model.zero_grads();
            epoch_loss += model.train_step(&x, &labels);
            model.sgd_step(&mut opt, anchor);
        }
        final_loss = epoch_loss / n_batches.max(1) as f32;
    }

    LocalUpdate {
        params: model.params(),
        num_samples: data.len(),
        final_loss,
        _live: LiveToken::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofl_data::SyntheticSpec;

    fn setup() -> (Dataset, Vec<f32>) {
        let spec = SyntheticSpec::mnist_like();
        let protos = spec.prototypes(1);
        let mut rng = Rng::new(2);
        let data = protos.sample_balanced(10, &mut rng);
        let model = ModelArch::Mlp.build(spec.feature_dim, spec.num_classes, &mut Rng::new(3));
        (data, model.params())
    }

    fn cfg() -> LocalTrainConfig {
        LocalTrainConfig {
            epochs: 3,
            batch_size: 10,
            lr: 0.05,
            mu: 0.0,
        }
    }

    #[test]
    fn training_changes_params_and_reports_samples() {
        let (data, start) = setup();
        let up = local_train(ModelArch::Mlp, &start, &data, &cfg(), &mut Rng::new(4));
        assert_eq!(up.num_samples, 100);
        assert_ne!(up.params, start);
        assert!(up.final_loss.is_finite());
    }

    #[test]
    fn more_epochs_reduce_loss() {
        let (data, start) = setup();
        let short = local_train(
            ModelArch::Mlp,
            &start,
            &data,
            &LocalTrainConfig { epochs: 1, ..cfg() },
            &mut Rng::new(5),
        );
        let long = local_train(
            ModelArch::Mlp,
            &start,
            &data,
            &LocalTrainConfig {
                epochs: 10,
                ..cfg()
            },
            &mut Rng::new(5),
        );
        assert!(long.final_loss < short.final_loss);
    }

    #[test]
    fn proximal_term_limits_drift() {
        let (data, start) = setup();
        let free = local_train(
            ModelArch::Mlp,
            &start,
            &data,
            &LocalTrainConfig { mu: 0.0, ..cfg() },
            &mut Rng::new(6),
        );
        let anchored = local_train(
            ModelArch::Mlp,
            &start,
            &data,
            &LocalTrainConfig { mu: 1.0, ..cfg() },
            &mut Rng::new(6),
        );
        let drift = |p: &[f32]| -> f32 {
            p.iter()
                .zip(&start)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
        };
        assert!(
            drift(&anchored.params) < drift(&free.params),
            "proximal term must reduce drift from the anchor"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let (data, start) = setup();
        let a = local_train(ModelArch::Mlp, &start, &data, &cfg(), &mut Rng::new(7));
        let b = local_train(ModelArch::Mlp, &start, &data, &cfg(), &mut Rng::new(7));
        assert_eq!(a.params, b.params);
    }
}

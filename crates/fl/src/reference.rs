//! Centralized accuracy-per-epoch reference curves.
//!
//! Fig. 10 plots time-to-accuracy for *pipeline-trained* EfficientNet /
//! MobileNet. Statistical efficiency (accuracy as a function of epochs) is
//! identical across the training methods the figure compares — they all
//! compute the same synchronous SGD — so the curves differ only by
//! seconds-per-epoch. We therefore measure a real accuracy-per-epoch curve
//! once (centralized training on the hard synthetic task) and compose it
//! with each method's simulated epoch time, exactly separating statistical
//! efficiency from hardware throughput.

use crate::sched::batch_accuracy;
use ecofl_data::Dataset;
use ecofl_models::ModelArch;
use ecofl_tensor::{Sgd, Tensor};
use ecofl_util::Rng;

/// A reference curve: test accuracy after each training epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceCurve {
    /// `accuracy[e]` = test accuracy after `e + 1` epochs.
    pub accuracy: Vec<f64>,
}

impl ReferenceCurve {
    /// Trains `arch` centrally for `epochs` epochs and records test
    /// accuracy after each.
    #[must_use]
    pub fn train(
        arch: ModelArch,
        train: &Dataset,
        test: &Dataset,
        epochs: usize,
        batch_size: usize,
        lr: f32,
        seed: u64,
    ) -> Self {
        let mut rng = Rng::new(seed);
        let mut model = arch.build(train.feature_dim(), train.num_classes(), &mut rng);
        let mut opt = Sgd::new(lr);
        let test_idx: Vec<usize> = (0..test.len()).collect();
        let (tf, tl) = test.gather(&test_idx);
        let tx = Tensor::from_vec(tf, &[tl.len(), test.feature_dim()]);

        let mut accuracy = Vec::with_capacity(epochs);
        for _epoch in 0..epochs {
            for batch in train.batches(batch_size, &mut rng) {
                let (feats, labels) = train.gather(&batch);
                let x = Tensor::from_vec(feats, &[labels.len(), train.feature_dim()]);
                model.zero_grads();
                let _ = model.train_step(&x, &labels);
                model.sgd_step(&mut opt, None);
            }
            accuracy.push(batch_accuracy(&mut model, &tx, &tl));
        }
        Self { accuracy }
    }

    /// Number of epochs recorded.
    #[must_use]
    pub fn epochs(&self) -> usize {
        self.accuracy.len()
    }

    /// Composes the curve with a per-epoch wall time, yielding the
    /// accuracy-vs-time series of one Fig. 10 method.
    #[must_use]
    pub fn timed(&self, epoch_seconds: f64) -> ecofl_util::TimeSeries {
        assert!(epoch_seconds > 0.0, "timed: epoch time must be positive");
        self.accuracy
            .iter()
            .enumerate()
            .map(|(e, &a)| ((e + 1) as f64 * epoch_seconds, a))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofl_data::SyntheticSpec;

    #[test]
    fn curve_improves_and_times_scale() {
        let spec = SyntheticSpec::mnist_like();
        let protos = spec.prototypes(3);
        let mut rng = Rng::new(4);
        let train = protos.sample_balanced(30, &mut rng);
        let test = protos.sample_balanced(10, &mut rng);
        let curve = ReferenceCurve::train(ModelArch::Mlp, &train, &test, 8, 10, 0.01, 5);
        assert_eq!(curve.epochs(), 8);
        assert!(
            curve.accuracy.last().unwrap() >= &curve.accuracy[0],
            "accuracy should not degrade with epochs"
        );
        assert!(
            *curve.accuracy.last().unwrap() > 0.5,
            "model should learn the easy task, got {:?}",
            curve.accuracy
        );
        let fast = curve.timed(10.0);
        let slow = curve.timed(30.0);
        assert_eq!(fast.len(), 8);
        assert!((slow.points()[0].0 - 3.0 * fast.points()[0].0).abs() < 1e-9);
        // Time-to-accuracy ordering follows epoch time.
        let target = curve.accuracy[3];
        assert!(fast.time_to_reach(target).unwrap() < slow.time_to_reach(target).unwrap());
    }
}

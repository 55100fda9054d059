//! Deterministic synthetic dataset generation.
//!
//! Each class `c` gets a set of prototype vectors drawn once from a
//! class-level Gaussian; a sample is a randomly chosen prototype plus
//! isotropic noise. Separation (prototype scale ÷ noise scale) and the
//! number of prototypes per class control difficulty:
//!
//! | preset | separation | prototypes/class | stands in for |
//! |---|---|---|---|
//! | `mnist_like` | high | 1 | MNIST |
//! | `fashion_like` | medium | 2 | Fashion-MNIST |
//! | `cifar_like` | low | 4 | CIFAR-10 |
//!
//! The generator is fully determined by the seed, so every experiment in
//! the bench harness is replayable bit-for-bit.

use crate::dataset::Dataset;
use ecofl_util::Rng;

/// Parameters of a synthetic classification task.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Number of label classes.
    pub num_classes: usize,
    /// Feature dimensionality.
    pub feature_dim: usize,
    /// Scale of class prototype vectors (inter-class distance).
    pub separation: f64,
    /// Standard deviation of per-sample noise.
    pub noise: f64,
    /// Prototype vectors per class (intra-class multi-modality).
    pub modes_per_class: usize,
    /// Human-readable name used in bench output.
    pub name: &'static str,
}

impl SyntheticSpec {
    /// Easy, well-separated 10-class task (stands in for MNIST).
    #[must_use]
    pub fn mnist_like() -> Self {
        Self {
            num_classes: 10,
            feature_dim: 32,
            separation: 3.0,
            noise: 1.0,
            modes_per_class: 1,
            name: "mnist-like",
        }
    }

    /// Medium task with two modes per class (stands in for Fashion-MNIST).
    #[must_use]
    pub fn fashion_like() -> Self {
        Self {
            num_classes: 10,
            feature_dim: 32,
            separation: 2.0,
            noise: 1.0,
            modes_per_class: 2,
            name: "fashion-like",
        }
    }

    /// Hard task: low separation, four modes per class (stands in for
    /// CIFAR-10).
    #[must_use]
    pub fn cifar_like() -> Self {
        Self {
            num_classes: 10,
            feature_dim: 32,
            separation: 1.3,
            noise: 1.0,
            modes_per_class: 4,
            name: "cifar-like",
        }
    }

    /// Image-shaped task: 64 features laid out as an 8×8 single-channel
    /// "image" for the CNN client architecture. Difficulty between the
    /// mnist-like and cifar-like presets.
    #[must_use]
    pub fn image_like() -> Self {
        Self {
            num_classes: 10,
            feature_dim: 64,
            separation: 2.2,
            noise: 1.0,
            modes_per_class: 2,
            name: "image-like",
        }
    }

    /// Generates the class prototypes for this spec under the given seed.
    #[must_use]
    pub fn prototypes(&self, seed: u64) -> Prototypes {
        let mut rng = Rng::new(seed ^ 0xEC0F_1F1A);
        let mut protos =
            Vec::with_capacity(self.num_classes * self.modes_per_class * self.feature_dim);
        for _ in 0..self.num_classes * self.modes_per_class {
            for _ in 0..self.feature_dim {
                protos.push((rng.next_gaussian() * self.separation) as f32);
            }
        }
        Prototypes {
            spec: self.clone(),
            protos,
        }
    }
}

/// Frozen class prototypes; the sampling distribution of the task.
///
/// Keeping prototypes separate from sampling lets every client and the test
/// set draw from the *same* underlying task while using independent RNG
/// streams.
#[derive(Debug, Clone)]
pub struct Prototypes {
    spec: SyntheticSpec,
    protos: Vec<f32>,
}

impl Prototypes {
    /// The generating spec.
    #[must_use]
    pub(crate) fn spec(&self) -> &SyntheticSpec {
        &self.spec
    }

    /// Draws `n` samples of class `class` into `features`/`labels`.
    ///
    /// # Panics
    /// Panics if `class` is out of range.
    pub(crate) fn sample_class_into(
        &self,
        class: usize,
        n: usize,
        rng: &mut Rng,
        features: &mut Vec<f32>,
        labels: &mut Vec<usize>,
    ) {
        assert!(class < self.spec.num_classes, "sample: class out of range");
        let dim = self.spec.feature_dim;
        for _ in 0..n {
            let mode = rng.range_usize(0, self.spec.modes_per_class);
            let base = (class * self.spec.modes_per_class + mode) * dim;
            for d in 0..dim {
                features
                    .push(self.protos[base + d] + (rng.next_gaussian() * self.spec.noise) as f32);
            }
            labels.push(class);
        }
    }

    /// Draws a dataset with `per_class` samples of every class.
    #[must_use]
    pub fn sample_balanced(&self, per_class: usize, rng: &mut Rng) -> Dataset {
        let mut features =
            Vec::with_capacity(per_class * self.spec.num_classes * self.spec.feature_dim);
        let mut labels = Vec::with_capacity(per_class * self.spec.num_classes);
        for c in 0..self.spec.num_classes {
            self.sample_class_into(c, per_class, rng, &mut features, &mut labels);
        }
        Dataset::new(
            features,
            labels,
            self.spec.feature_dim,
            self.spec.num_classes,
        )
    }

    /// Draws a dataset whose per-class counts follow `counts`.
    ///
    /// # Panics
    /// Panics if `counts.len()` differs from the number of classes.
    #[must_use]
    pub fn sample_with_counts(&self, counts: &[usize], rng: &mut Rng) -> Dataset {
        assert_eq!(
            counts.len(),
            self.spec.num_classes,
            "sample_with_counts: counts length mismatch"
        );
        let total: usize = counts.iter().sum();
        let mut features = Vec::with_capacity(total * self.spec.feature_dim);
        let mut labels = Vec::with_capacity(total);
        for (c, &n) in counts.iter().enumerate() {
            self.sample_class_into(c, n, rng, &mut features, &mut labels);
        }
        Dataset::new(
            features,
            labels,
            self.spec.feature_dim,
            self.spec.num_classes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_sampling_shapes() {
        let spec = SyntheticSpec::mnist_like();
        let protos = spec.prototypes(1);
        let mut rng = Rng::new(2);
        let d = protos.sample_balanced(20, &mut rng);
        assert_eq!(d.len(), 200);
        assert_eq!(d.label_counts(), vec![20; 10]);
        assert_eq!(d.feature_dim(), 32);
    }

    #[test]
    fn deterministic_given_seeds() {
        let spec = SyntheticSpec::fashion_like();
        let a = spec.prototypes(5).sample_balanced(10, &mut Rng::new(9));
        let b = spec.prototypes(5).sample_balanced(10, &mut Rng::new(9));
        assert_eq!(a, b);
    }

    #[test]
    fn counts_sampling() {
        let spec = SyntheticSpec::mnist_like();
        let protos = spec.prototypes(1);
        let mut rng = Rng::new(3);
        let counts = vec![0, 5, 0, 0, 3, 0, 0, 0, 0, 2];
        let d = protos.sample_with_counts(&counts, &mut rng);
        assert_eq!(d.label_counts(), counts);
    }

    #[test]
    fn classes_are_statistically_separated() {
        // Nearest-prototype classification on an easy set should beat 90%.
        let spec = SyntheticSpec::mnist_like();
        let protos = spec.prototypes(11);
        let mut rng = Rng::new(12);
        let d = protos.sample_balanced(30, &mut rng);
        // Rebuild prototype means per class from data.
        let dim = d.feature_dim();
        let mut means = vec![vec![0.0f64; dim]; 10];
        let counts = d.label_counts();
        for i in 0..d.len() {
            let c = d.labels()[i];
            for (m, &x) in means[c].iter_mut().zip(d.feature_row(i)) {
                *m += f64::from(x);
            }
        }
        for (c, mv) in means.iter_mut().enumerate() {
            for m in mv.iter_mut() {
                *m /= counts[c] as f64;
            }
        }
        let mut correct = 0;
        for i in 0..d.len() {
            let row = d.feature_row(i);
            let best = (0..10)
                .min_by(|&a, &b| {
                    let da: f64 = means[a]
                        .iter()
                        .zip(row)
                        .map(|(m, &x)| (m - f64::from(x)).powi(2))
                        .sum();
                    let db: f64 = means[b]
                        .iter()
                        .zip(row)
                        .map(|(m, &x)| (m - f64::from(x)).powi(2))
                        .sum();
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap();
            if best == d.labels()[i] {
                correct += 1;
            }
        }
        let acc = correct as f64 / d.len() as f64;
        assert!(
            acc > 0.9,
            "nearest-mean accuracy {acc} too low for the easy preset"
        );
    }

    #[test]
    fn difficulty_ordering_holds() {
        // Harder presets should show worse nearest-class-mean accuracy.
        fn nearest_mean_acc(spec: &SyntheticSpec, seed: u64) -> f64 {
            let protos = spec.prototypes(seed);
            let mut rng = Rng::new(seed + 1);
            let train = protos.sample_balanced(50, &mut rng);
            let test = protos.sample_balanced(20, &mut rng);
            let dim = train.feature_dim();
            let k = train.num_classes();
            let mut means = vec![vec![0.0f64; dim]; k];
            let counts = train.label_counts();
            for i in 0..train.len() {
                let c = train.labels()[i];
                for (m, &x) in means[c].iter_mut().zip(train.feature_row(i)) {
                    *m += f64::from(x);
                }
            }
            for (c, mv) in means.iter_mut().enumerate() {
                for m in mv.iter_mut() {
                    *m /= counts[c].max(1) as f64;
                }
            }
            let mut correct = 0;
            for i in 0..test.len() {
                let row = test.feature_row(i);
                let best = (0..k)
                    .min_by(|&a, &b| {
                        let da: f64 = means[a]
                            .iter()
                            .zip(row)
                            .map(|(m, &x)| (m - f64::from(x)).powi(2))
                            .sum();
                        let db: f64 = means[b]
                            .iter()
                            .zip(row)
                            .map(|(m, &x)| (m - f64::from(x)).powi(2))
                            .sum();
                        da.partial_cmp(&db).unwrap()
                    })
                    .unwrap();
                if best == test.labels()[i] {
                    correct += 1;
                }
            }
            correct as f64 / test.len() as f64
        }
        let easy = nearest_mean_acc(&SyntheticSpec::mnist_like(), 100);
        let hard = nearest_mean_acc(&SyntheticSpec::cifar_like(), 100);
        assert!(
            easy > hard,
            "difficulty ordering violated: mnist-like {easy} <= cifar-like {hard}"
        );
    }
}

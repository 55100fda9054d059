//! In-memory labelled dataset.

use ecofl_compat::serde::{Deserialize, Serialize};
use ecofl_util::Rng;

/// A dense, in-memory classification dataset.
///
/// Features are stored row-major (`len × feature_dim`); labels are class
/// indices in `0..num_classes`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    features: Vec<f32>,
    labels: Vec<usize>,
    feature_dim: usize,
    num_classes: usize,
}

impl Dataset {
    /// Creates a dataset from raw parts.
    ///
    /// # Panics
    /// Panics if lengths are inconsistent or a label is out of range.
    #[must_use]
    pub fn new(
        features: Vec<f32>,
        labels: Vec<usize>,
        feature_dim: usize,
        num_classes: usize,
    ) -> Self {
        assert!(feature_dim > 0, "Dataset: feature_dim must be positive");
        assert!(num_classes > 0, "Dataset: num_classes must be positive");
        assert_eq!(
            features.len(),
            labels.len() * feature_dim,
            "Dataset: features length {} != {} samples × {} dims",
            features.len(),
            labels.len(),
            feature_dim
        );
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "Dataset: label out of range"
        );
        Self {
            features,
            labels,
            feature_dim,
            num_classes,
        }
    }

    /// Creates an empty dataset with the given dimensions.
    #[must_use]
    pub fn empty(feature_dim: usize, num_classes: usize) -> Self {
        Self::new(Vec::new(), Vec::new(), feature_dim, num_classes)
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    #[must_use]
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Number of label classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// All labels.
    #[must_use]
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Feature row of sample `i`.
    #[must_use]
    pub fn feature_row(&self, i: usize) -> &[f32] {
        &self.features[i * self.feature_dim..(i + 1) * self.feature_dim]
    }

    /// Contiguous feature matrix for a set of sample indices, plus labels —
    /// ready to wrap in a tensor batch.
    #[must_use]
    pub fn gather(&self, indices: &[usize]) -> (Vec<f32>, Vec<usize>) {
        let mut feats = vec![0.0; indices.len() * self.feature_dim];
        let mut labs = Vec::with_capacity(indices.len());
        self.gather_into(indices, &mut feats, &mut labs);
        (feats, labs)
    }

    /// [`Dataset::gather`] into buffers the caller reuses from batch to
    /// batch: the rows are written over `feats`, the labels replace the
    /// contents of `labels`.
    ///
    /// # Panics
    /// Panics unless `feats` holds exactly `indices.len()` feature rows.
    pub fn gather_into(&self, indices: &[usize], feats: &mut [f32], labels: &mut Vec<usize>) {
        assert_eq!(
            feats.len(),
            indices.len() * self.feature_dim,
            "gather_into: feature buffer does not hold {} rows",
            indices.len()
        );
        labels.clear();
        let dim = self.feature_dim;
        for (n, &i) in indices.iter().enumerate() {
            feats[n * dim..(n + 1) * dim].copy_from_slice(self.feature_row(i));
            labels.push(self.labels[i]);
        }
    }

    /// A new dataset holding copies of the selected samples.
    #[must_use]
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let (features, labels) = self.gather(indices);
        Dataset::new(features, labels, self.feature_dim, self.num_classes)
    }

    /// Appends all samples of another dataset.
    ///
    /// # Panics
    /// Panics if dimensions disagree.
    pub fn extend(&mut self, other: &Dataset) {
        assert_eq!(self.feature_dim, other.feature_dim, "extend: dim mismatch");
        assert_eq!(
            self.num_classes, other.num_classes,
            "extend: class-count mismatch"
        );
        self.features.extend_from_slice(&other.features);
        self.labels.extend_from_slice(&other.labels);
    }

    /// Normalized label histogram — the client's `π` in the grouping cost
    /// (Eq. 4). Uniform if the dataset is empty.
    #[must_use]
    pub fn label_distribution(&self) -> Vec<f64> {
        let mut counts = vec![0.0f64; self.num_classes];
        for &l in &self.labels {
            counts[l] += 1.0;
        }
        ecofl_util::normalize_distribution(&counts)
    }

    /// Raw label counts per class.
    #[must_use]
    pub fn label_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Per-feature mean and standard deviation over this dataset — the
    /// statistics a client computes locally before training.
    #[must_use]
    pub fn feature_stats(&self) -> (Vec<f32>, Vec<f32>) {
        let n = self.len().max(1) as f32;
        let mut mean = vec![0.0f32; self.feature_dim];
        for row in self.features.chunks(self.feature_dim) {
            for (m, &x) in mean.iter_mut().zip(row) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0f32; self.feature_dim];
        for row in self.features.chunks(self.feature_dim) {
            for ((v, &m), &x) in var.iter_mut().zip(&mean).zip(row) {
                *v += (x - m) * (x - m);
            }
        }
        let std = var.into_iter().map(|v| (v / n).sqrt().max(1e-6)).collect();
        (mean, std)
    }

    /// Returns a z-score-normalized copy using the given statistics
    /// (typically [`Dataset::feature_stats`] of a reference set, so train
    /// and test share one normalization).
    ///
    /// # Panics
    /// Panics if the statistics' length differs from the feature dim.
    #[must_use]
    pub fn normalized(&self, mean: &[f32], std: &[f32]) -> Dataset {
        assert_eq!(mean.len(), self.feature_dim, "normalized: mean length");
        assert_eq!(std.len(), self.feature_dim, "normalized: std length");
        let features = self
            .features
            .chunks(self.feature_dim)
            .flat_map(|row| {
                row.iter()
                    .zip(mean.iter().zip(std))
                    .map(|(&x, (&m, &s))| (x - m) / s)
            })
            .collect();
        Dataset::new(
            features,
            self.labels.clone(),
            self.feature_dim,
            self.num_classes,
        )
    }

    /// Splits the dataset into `(train, test)` with `test_fraction` of
    /// the samples (randomized, deterministic under `rng`).
    ///
    /// # Panics
    /// Panics unless `test_fraction` is in `(0, 1)`.
    #[must_use]
    pub fn train_test_split(&self, test_fraction: f64, rng: &mut Rng) -> (Dataset, Dataset) {
        assert!(
            test_fraction > 0.0 && test_fraction < 1.0,
            "train_test_split: fraction must be in (0,1)"
        );
        let mut idx: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut idx);
        let n_test = ((self.len() as f64 * test_fraction).round() as usize)
            .clamp(1, self.len().saturating_sub(1).max(1));
        let (test_idx, train_idx) = idx.split_at(n_test);
        (self.subset(train_idx), self.subset(test_idx))
    }

    /// Sample indices in randomized order, chunked into mini-batches.
    #[must_use]
    pub fn batches(&self, batch_size: usize, rng: &mut Rng) -> Vec<Vec<usize>> {
        assert!(batch_size > 0, "batches: batch_size must be positive");
        let mut order = Vec::new();
        self.epoch_order(&mut order, rng);
        order.chunks(batch_size).map(<[usize]>::to_vec).collect()
    }

    /// Replaces `order` with one epoch's shuffled sample indices — the
    /// permutation [`Dataset::batches`] chunks (same draws from `rng`),
    /// into a buffer the caller reuses from epoch to epoch.
    pub fn epoch_order(&self, order: &mut Vec<usize>, rng: &mut Rng) {
        order.clear();
        order.extend(0..self.len());
        rng.shuffle(order);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        Dataset::new(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![0, 1, 0], 2, 2)
    }

    #[test]
    fn construction_and_access() {
        let d = small();
        assert_eq!(d.len(), 3);
        assert_eq!(d.feature_dim(), 2);
        assert_eq!(d.feature_row(1), &[3.0, 4.0]);
        assert_eq!(d.labels(), &[0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        let _ = Dataset::new(vec![0.0; 2], vec![5], 2, 2);
    }

    #[test]
    fn gather_and_subset() {
        let d = small();
        let (f, l) = d.gather(&[2, 0]);
        assert_eq!(f, vec![5.0, 6.0, 1.0, 2.0]);
        assert_eq!(l, vec![0, 0]);
        let s = d.subset(&[1]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.labels(), &[1]);
    }

    #[test]
    fn label_distribution_normalizes() {
        let d = small();
        let dist = d.label_distribution();
        assert!((dist[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((dist[1] - 1.0 / 3.0).abs() < 1e-12);
        let e = Dataset::empty(4, 10);
        assert_eq!(e.label_distribution(), vec![0.1; 10]);
    }

    #[test]
    fn extend_concatenates() {
        let mut d = small();
        let other = small();
        d.extend(&other);
        assert_eq!(d.len(), 6);
        assert_eq!(d.label_counts(), vec![4, 2]);
    }

    #[test]
    fn feature_stats_and_normalization() {
        let d = Dataset::new(vec![0.0, 10.0, 2.0, 10.0, 4.0, 10.0], vec![0, 1, 0], 2, 2);
        let (mean, std) = d.feature_stats();
        assert!((mean[0] - 2.0).abs() < 1e-6);
        assert!((mean[1] - 10.0).abs() < 1e-6);
        // Second feature is constant: std floored, not zero.
        assert!(std[1] >= 1e-6);
        let norm = d.normalized(&mean, &std);
        let (nm, _) = norm.feature_stats();
        assert!(
            nm.iter().all(|m| m.abs() < 1e-5),
            "normalized mean ~0: {nm:?}"
        );
        assert_eq!(norm.labels(), d.labels());
    }

    #[test]
    fn normalization_is_shared_across_sets() {
        // Test data normalized with train statistics keeps relative scale.
        let train = Dataset::new(vec![0.0, 2.0, 4.0, 6.0], vec![0, 1], 2, 2);
        let test = Dataset::new(vec![8.0, 10.0], vec![0], 2, 2);
        let (m, s) = train.feature_stats();
        let nt = test.normalized(&m, &s);
        // Test values sit above the train distribution → positive scores.
        assert!(nt.feature_row(0).iter().all(|&x| x > 0.0));
    }

    #[test]
    fn split_partitions_samples() {
        let d = Dataset::new((0..40).map(|i| i as f32).collect(), vec![0; 20], 2, 2);
        let mut rng = Rng::new(3);
        let (train, test) = d.train_test_split(0.25, &mut rng);
        assert_eq!(train.len() + test.len(), d.len());
        assert_eq!(test.len(), 5);
        // No overlap: every original row appears exactly once.
        let mut firsts: Vec<f32> = train
            .labels()
            .iter()
            .enumerate()
            .map(|(i, _)| train.feature_row(i)[0])
            .chain(
                test.labels()
                    .iter()
                    .enumerate()
                    .map(|(i, _)| test.feature_row(i)[0]),
            )
            .collect();
        firsts.sort_by(f32::total_cmp);
        let expected: Vec<f32> = (0..20).map(|i| (i * 2) as f32).collect();
        assert_eq!(firsts, expected);
    }

    #[test]
    fn reused_buffers_give_what_the_allocating_forms_give() {
        let d = small();
        let (mut feats, mut labels) = (vec![9.0; 4], vec![7; 5]);
        d.gather_into(&[2, 0], &mut feats, &mut labels);
        assert_eq!((feats, labels), d.gather(&[2, 0]));
        let mut order = vec![42; 9];
        d.epoch_order(&mut order, &mut Rng::new(7));
        let batches = d.batches(2, &mut Rng::new(7));
        assert_eq!(order, batches.concat());
    }

    #[test]
    #[should_panic(expected = "does not hold 2 rows")]
    fn gather_into_checks_the_feature_buffer() {
        small().gather_into(&[0, 1], &mut [0.0; 3], &mut Vec::new());
    }

    #[test]
    fn batches_cover_every_sample_once() {
        let d = small();
        let mut rng = Rng::new(7);
        let batches = d.batches(2, &mut rng);
        assert_eq!(batches.len(), 2);
        let mut all: Vec<usize> = batches.concat();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2]);
    }
}

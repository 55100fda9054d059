//! In-memory labelled dataset.

use ecofl_util::Rng;

/// A dense, in-memory classification dataset.
///
/// Features are stored row-major (`len × feature_dim`); labels are class
/// indices in `0..num_classes`.
#[derive(Debug, Clone, PartialEq)]
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
    pub(crate) fn new(
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
        let e = Dataset::new(Vec::new(), Vec::new(), 4, 10);
        assert_eq!(e.label_distribution(), vec![0.1; 10]);
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

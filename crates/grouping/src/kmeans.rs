//! One-dimensional k-means for response-latency clustering.
//!
//! The paper seeds its initial grouping with "K-means algorithm \[15\] to
//! cluster clients based on their response latency". Latencies are
//! scalar, so this is 1-D k-means with k-means++ seeding and Lloyd
//! iterations; deterministic under the supplied RNG.

use ecofl_util::Rng;

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansResult {
    /// Cluster index per input point.
    pub assignment: Vec<usize>,
    /// Cluster centroids, one per cluster (some may be empty only when
    /// there were fewer distinct points than clusters).
    pub centroids: Vec<f64>,
}

/// Runs k-means++ / Lloyd on scalar `points`.
///
/// # Panics
/// Panics if `k == 0`, `points` is empty, or any point is non-finite.
#[must_use]
pub fn kmeans_1d(points: &[f64], k: usize, rng: &mut Rng, max_iters: usize) -> KmeansResult {
    assert!(k > 0, "kmeans_1d: k must be positive");
    assert!(!points.is_empty(), "kmeans_1d: empty input");
    assert!(
        points.iter().all(|p| p.is_finite()),
        "kmeans_1d: non-finite point"
    );
    let k = k.min(points.len());

    // k-means++ seeding.
    let mut centroids = Vec::with_capacity(k);
    centroids.push(points[rng.range_usize(0, points.len())]);
    while centroids.len() < k {
        let d2: Vec<f64> = points
            .iter()
            .map(|&p| {
                centroids
                    .iter()
                    .map(|&c| (p - c) * (p - c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        match rng.weighted_index(&d2) {
            Some(idx) => centroids.push(points[idx]),
            // All points coincide with existing centroids; duplicate one.
            None => centroids.push(centroids[0]),
        }
    }

    let mut assignment = vec![0usize; points.len()];
    for _ in 0..max_iters {
        // Assign.
        let mut changed = false;
        for (i, &p) in points.iter().enumerate() {
            let best = centroids
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    let da = (p - a.1) * (p - a.1);
                    let db = (p - b.1) * (p - b.1);
                    da.partial_cmp(&db).expect("finite distances")
                })
                .map(|(j, _)| j)
                .expect("k >= 1");
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        // Update.
        let mut sums = vec![0.0f64; centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        for (&a, &p) in assignment.iter().zip(points) {
            sums[a] += p;
            counts[a] += 1;
        }
        for (c, (&s, &n)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
            if n > 0 {
                *c = s / n as f64;
            }
        }
        if !changed {
            break;
        }
    }

    KmeansResult {
        assignment,
        centroids,
    }
}

/// Mini-batch k-means (Sculley 2010) on scalar `points`: k-means++
/// seeds drawn from a deterministic stride subsample, then `iters`
/// with-replacement batches of `batch_size` points applied with
/// per-center learning rates `1/v_c`, and one exact full assignment
/// pass at the end.
///
/// Runtime is O(`iters`·`batch_size`·k + n·k) — independent of n² and,
/// for fixed iteration budget, linear in n — versus O(n·k·`max_iters`)
/// Lloyd sweeps in [`kmeans_1d`]. Centroid quality on latency
/// distributions is near-identical (1-D, well-separated bands); the
/// trade is exactness of the interior Lloyd iterations, not of the
/// final assignment. Deterministic under the supplied RNG.
///
/// # Panics
/// Panics if `k == 0` or `batch_size == 0`, `points` is empty, or any
/// point is non-finite.
#[must_use]
pub fn kmeans_1d_minibatch(
    points: &[f64],
    k: usize,
    batch_size: usize,
    iters: usize,
    rng: &mut Rng,
) -> KmeansResult {
    let centroids = minibatch_centroids(points, k, batch_size, iters, rng);

    // Exact final assignment over every point.
    let assignment: Vec<usize> = points
        .iter()
        .map(|&p| {
            centroids
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    let da = (p - a.1) * (p - a.1);
                    let db = (p - b.1) * (p - b.1);
                    da.partial_cmp(&db).expect("finite distances")
                })
                .map(|(j, _)| j)
                .expect("k >= 1")
        })
        .collect();

    KmeansResult {
        assignment,
        centroids,
    }
}

/// The centroids of [`kmeans_1d_minibatch`] without its O(n·k) final
/// assignment pass — all the grouper's association seeds from. Same
/// draws from `rng`, same centroid bits.
pub(crate) fn minibatch_centroids(
    points: &[f64],
    k: usize,
    batch_size: usize,
    iters: usize,
    rng: &mut Rng,
) -> Vec<f64> {
    assert!(k > 0, "kmeans_1d_minibatch: k must be positive");
    assert!(batch_size > 0, "kmeans_1d_minibatch: empty batch");
    assert!(!points.is_empty(), "kmeans_1d_minibatch: empty input");
    assert!(
        points.iter().all(|p| p.is_finite()),
        "kmeans_1d_minibatch: non-finite point"
    );
    let k = k.min(points.len());

    // Deterministic stride subsample for seeding: k-means++ over the
    // full 10⁶-point set would itself be O(n·k).
    let sample_target = batch_size.max(k * 20).min(points.len());
    let stride = (points.len() / sample_target).max(1);
    let sample: Vec<f64> = points.iter().copied().step_by(stride).collect();

    // k-means++ over the subsample.
    let mut centroids = Vec::with_capacity(k);
    centroids.push(sample[rng.range_usize(0, sample.len())]);
    while centroids.len() < k {
        let d2: Vec<f64> = sample
            .iter()
            .map(|&p| {
                centroids
                    .iter()
                    .map(|&c| (p - c) * (p - c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        match rng.weighted_index(&d2) {
            Some(idx) => centroids.push(sample[idx]),
            None => centroids.push(centroids[0]),
        }
    }

    // Mini-batch updates: each batch point pulls its nearest center
    // toward it with a learning rate that decays as the center absorbs
    // more points.
    let mut counts = vec![0u64; centroids.len()];
    for _ in 0..iters {
        for _ in 0..batch_size {
            let p = points[rng.range_usize(0, points.len())];
            let (best, _) = centroids
                .iter()
                .enumerate()
                .map(|(j, &c)| (j, (p - c) * (p - c)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
                .expect("k >= 1");
            counts[best] += 1;
            let lr = 1.0 / counts[best] as f64;
            centroids[best] += lr * (p - centroids[best]);
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separates_two_obvious_clusters() {
        let mut rng = Rng::new(1);
        let points = [1.0, 1.1, 0.9, 10.0, 10.2, 9.8];
        let r = kmeans_1d(&points, 2, &mut rng, 50);
        // First three must share a cluster, last three the other.
        assert_eq!(r.assignment[0], r.assignment[1]);
        assert_eq!(r.assignment[1], r.assignment[2]);
        assert_eq!(r.assignment[3], r.assignment[4]);
        assert_eq!(r.assignment[4], r.assignment[5]);
        assert_ne!(r.assignment[0], r.assignment[3]);
        // Centroids near 1 and 10.
        let mut c = r.centroids.clone();
        c.sort_by(f64::total_cmp);
        assert!((c[0] - 1.0).abs() < 0.2);
        assert!((c[1] - 10.0).abs() < 0.3);
    }

    #[test]
    fn k_clamped_to_point_count() {
        let mut rng = Rng::new(2);
        let r = kmeans_1d(&[5.0, 6.0], 10, &mut rng, 10);
        assert!(r.centroids.len() <= 2);
        assert_eq!(r.assignment.len(), 2);
    }

    #[test]
    fn deterministic_under_seed() {
        let points: Vec<f64> = (0..50).map(|i| (i % 7) as f64 * 3.0).collect();
        let a = kmeans_1d(&points, 4, &mut Rng::new(9), 100);
        let b = kmeans_1d(&points, 4, &mut Rng::new(9), 100);
        assert_eq!(a, b);
    }

    #[test]
    fn identical_points_single_effective_cluster() {
        let mut rng = Rng::new(3);
        let r = kmeans_1d(&[4.2; 8], 3, &mut rng, 10);
        // Everyone lands on a centroid equal to the point value.
        for &a in &r.assignment {
            assert!((r.centroids[a] - 4.2).abs() < 1e-12);
        }
    }

    #[test]
    fn minibatch_separates_two_obvious_bands() {
        // 10k points in two latency bands; the mini-batch path must
        // recover centroids near the band means and keep each band in
        // one cluster.
        let mut gen = Rng::new(21);
        let points: Vec<f64> = (0..10_000)
            .map(|i| {
                if i % 2 == 0 {
                    10.0 + gen.range_f64(-1.0, 1.0)
                } else {
                    60.0 + gen.range_f64(-1.0, 1.0)
                }
            })
            .collect();
        let r = kmeans_1d_minibatch(&points, 2, 256, 30, &mut Rng::new(5));
        let mut c = r.centroids.clone();
        c.sort_by(f64::total_cmp);
        assert!((c[0] - 10.0).abs() < 1.0, "fast centroid at {}", c[0]);
        assert!((c[1] - 60.0).abs() < 1.0, "slow centroid at {}", c[1]);
        for (i, &p) in points.iter().enumerate() {
            let same_band = (p < 35.0) == (r.centroids[r.assignment[i]] < 35.0);
            assert!(same_band, "point {p} assigned across the band gap");
        }
    }

    #[test]
    fn minibatch_deterministic_under_seed() {
        let points: Vec<f64> = (0..5000).map(|i| (i % 97) as f64 * 0.7).collect();
        let a = kmeans_1d_minibatch(&points, 5, 128, 20, &mut Rng::new(9));
        let b = kmeans_1d_minibatch(&points, 5, 128, 20, &mut Rng::new(9));
        assert_eq!(a, b);
    }

    #[test]
    fn minibatch_final_assignment_is_exact() {
        let points: Vec<f64> = (0..3000).map(|i| f64::from(i) * 0.11).collect();
        let r = kmeans_1d_minibatch(&points, 4, 64, 15, &mut Rng::new(4));
        for (i, &p) in points.iter().enumerate() {
            let assigned = (p - r.centroids[r.assignment[i]]).abs();
            for &c in &r.centroids {
                assert!(assigned <= (p - c).abs() + 1e-9);
            }
        }
    }

    #[test]
    fn minibatch_k_clamped_to_point_count() {
        let r = kmeans_1d_minibatch(&[5.0, 6.0], 10, 8, 5, &mut Rng::new(2));
        assert!(r.centroids.len() <= 2);
        assert_eq!(r.assignment.len(), 2);
    }

    #[test]
    fn assignment_minimizes_distance() {
        let mut rng = Rng::new(4);
        let points: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.37).collect();
        let r = kmeans_1d(&points, 5, &mut rng, 100);
        for (i, &p) in points.iter().enumerate() {
            let assigned = (p - r.centroids[r.assignment[i]]).abs();
            for &c in &r.centroids {
                assert!(assigned <= (p - c).abs() + 1e-9);
            }
        }
    }
}

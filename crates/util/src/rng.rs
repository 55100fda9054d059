//! Deterministic pseudo-random number generation.
//!
//! The whole reproduction is seeded: the same seed must produce bit-identical
//! experiment traces on every run and every platform. We therefore avoid
//! platform entropy entirely and build on the SplitMix64 generator
//! (Steele, Lea & Flood, OOPSLA 2014), which has a full 2^64 period, passes
//! BigCrush, and whose stream is trivially splittable for spawning
//! independent per-client / per-device generators.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};

/// A deterministic, splittable pseudo-random number generator.
///
/// Internally a SplitMix64 stream. Cheap to copy (16 bytes), `Send + Sync`
/// free of interior mutability, and suitable for seeding thousands of
/// independent client streams via [`Rng::split`].
///
/// # Examples
///
/// ```
/// use ecofl_util::Rng;
/// let mut rng = Rng::new(42);
/// let x = rng.next_f64();
/// assert!((0.0..1.0).contains(&x));
/// let mut rng2 = Rng::new(42);
/// assert_eq!(x, rng2.next_f64(), "same seed, same stream");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rng {
    state: u64,
    /// Odd "gamma" increment; distinct gammas give independent streams.
    gamma: u64,
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn mix_gamma(z: u64) -> u64 {
    let z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    let z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    let z = (z ^ (z >> 33)) | 1; // gamma must be odd
    if z.count_ones() < 24 {
        z ^ 0xAAAA_AAAA_AAAA_AAAA
    } else {
        z
    }
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            state: mix64(seed),
            gamma: GOLDEN_GAMMA,
        }
    }

    /// Derives an independent child generator.
    ///
    /// The child's stream is statistically independent from the parent's
    /// subsequent output; use this to hand every FL client or simulated
    /// device its own generator so that reordering one component's draws
    /// does not perturb the others.
    #[must_use]
    pub fn split(&mut self) -> Self {
        let state = self.next_u64();
        let gamma = mix_gamma(self.next_u64());
        Self { state, gamma }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(self.gamma);
        mix64(self.state)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift
    /// rejection method (unbiased).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below: bound must be positive");
        // Lemire 2019: "Fast Random Integer Generation in an Interval".
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "range_usize: empty range {lo}..{hi}");
        lo + self.next_below((hi - lo) as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Standard normal draw (Box–Muller, polar form).
    pub fn next_gaussian(&mut self) -> f64 {
        // Polar Box–Muller; rejection loop terminates with probability 1.
        loop {
            let u = 2.0 * self.next_f64() - 1.0;
            let v = 2.0 * self.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Normal draw with the given mean and standard deviation.
    #[inline]
    pub fn gaussian(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.next_gaussian()
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element, or `None` if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.range_usize(0, slice.len())])
        }
    }

    /// Samples `k` distinct indices from `0..n` (order randomized).
    ///
    /// A partial Fisher–Yates over the identity array `0..n` that is
    /// never built: `displaced` holds only the slots a swap has moved
    /// off their own index, and slot `i` leaves it once step `i` has
    /// read it (no later draw can land below `i + 1`). The draws are
    /// `range_usize(i, n)` for `i` in `0..k`, in order, and the result
    /// is the array's first `k` slots, so a census-sized `n` costs O(k)
    /// time and memory. The map never holds more than `min(k, n / 2)`
    /// slots — fewer than the `n` of the array it stands for. Its hasher
    /// has fixed keys, not `RandomState`'s per-process ones, so the
    /// sampler reads no platform entropy and does the same work on
    /// every run.
    ///
    /// # Panics
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "sample_indices: k={k} > n={n}");
        let mut displaced: HashMap<usize, usize, BuildHasherDefault<DefaultHasher>> =
            HashMap::with_capacity_and_hasher(k.min(n / 2), BuildHasherDefault::default());
        (0..k)
            .map(|i| {
                let j = self.range_usize(i, n);
                let at_i = displaced.remove(&i).unwrap_or(i);
                if j == i {
                    at_i
                } else {
                    displaced.insert(j, at_i).unwrap_or(j)
                }
            })
            .collect()
    }

    /// Draws an index according to the (unnormalized, non-negative) weights.
    ///
    /// Returns `None` if the weights are empty or all zero/non-finite.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights
            .iter()
            .copied()
            .filter(|w| w.is_finite() && *w > 0.0)
            .sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w.is_finite() && w > 0.0 {
                target -= w;
                if target <= 0.0 {
                    return Some(i);
                }
            }
        }
        // Floating-point slack: fall back to the last positive weight.
        weights.iter().rposition(|&w| w.is_finite() && w > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should diverge");
    }

    #[test]
    fn split_streams_are_independent_of_parent_advance() {
        let mut parent = Rng::new(99);
        let mut child = parent.split();
        let first = child.next_u64();
        // Re-derive: same parent state sequence gives the same child.
        let mut parent2 = Rng::new(99);
        let mut child2 = parent2.split();
        assert_eq!(first, child2.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_unbiased_small_bound() {
        let mut rng = Rng::new(5);
        let mut counts = [0usize; 5];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.next_below(5) as usize] += 1;
        }
        for &c in &counts {
            let expect = n as f64 / 5.0;
            assert!(
                (c as f64 - expect).abs() < expect * 0.05,
                "bucket count {c} too far from {expect}"
            );
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Rng::new(11);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::new(17);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = Rng::new(19);
        for _ in 0..100 {
            let s = rng.sample_indices(50, 20);
            assert_eq!(s.len(), 20);
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 20, "indices must be distinct");
            assert!(d.iter().all(|&i| i < 50));
        }
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = Rng::new(23);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&w).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.25, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_degenerate() {
        let mut rng = Rng::new(29);
        assert_eq!(rng.weighted_index(&[]), None);
        assert_eq!(rng.weighted_index(&[0.0, 0.0]), None);
        assert_eq!(rng.weighted_index(&[f64::NAN]), None);
        assert_eq!(rng.weighted_index(&[0.0, 2.0]), Some(1));
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = Rng::new(31);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
    }
}

//! Group state and the Eq. 4 assignment cost.

use ecofl_util::{js_divergence, normalize_distribution};

/// Left-to-right sum of the members' latencies, read through `members`
/// from the population's latency slice.
fn member_sum(members: &[u32], latencies: &[f64]) -> f64 {
    members.iter().map(|&m| latencies[m as usize]).sum()
}

/// Mutable state of one client group.
///
/// Tracks member ids (their latencies, for the group center `L_g`, are
/// read from the owner's per-client latency slice through them) and the
/// pooled label counts (for the group distribution `π^g`).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupState {
    /// Group index.
    pub id: usize,
    /// Member client ids.
    pub members: Vec<u32>,
    /// Pooled label counts over members.
    label_counts: Vec<f64>,
    /// The members' latencies summed left to right in member order, kept
    /// as a running sum: an admit appends, so adding the new latency
    /// repeats the next step of the left-to-right sum bit for bit;
    /// `remove` and `update_latency` change an interior term and re-sum.
    latency_sum: f64,
    /// Central response latency `L_g` (mean of member latencies; seeded
    /// from the k-means centroid while empty).
    center: f64,
}

impl GroupState {
    /// Creates an empty group seeded at a latency centroid.
    #[must_use]
    pub(crate) fn new(id: usize, seed_center: f64, num_classes: usize) -> Self {
        Self {
            id,
            members: Vec::new(),
            label_counts: vec![0.0; num_classes],
            latency_sum: member_sum(&[], &[]),
            center: seed_center,
        }
    }

    /// Current group latency center `L_g`.
    #[must_use]
    pub fn center(&self) -> f64 {
        self.center
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the group has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Normalized pooled label distribution `π^g`.
    #[must_use]
    pub(crate) fn distribution(&self) -> Vec<f64> {
        normalize_distribution(&self.label_counts)
    }

    /// JS divergence of the pooled distribution from uniform.
    #[must_use]
    pub(crate) fn js_from_iid(&self) -> f64 {
        let n = self.label_counts.len();
        js_divergence(&self.distribution(), &vec![1.0 / n as f64; n])
    }

    /// JS-from-IID of the group *after* hypothetically absorbing a client
    /// with the given label counts — the `JS(π_n^g, π_iid)` term of Eq. 4.
    #[must_use]
    pub(crate) fn union_js_from_iid(&self, client_counts: &[f64]) -> f64 {
        union_js_from_iid_parts(&self.label_counts, client_counts)
    }

    /// The group's pooled label counts (the raw `π^g` numerator).
    #[must_use]
    pub fn label_counts(&self) -> &[f64] {
        &self.label_counts
    }

    /// Adds a member whose latency is `latencies[client]`.
    pub(crate) fn admit(&mut self, client: usize, latencies: &[f64], client_counts: &[f64]) {
        debug_assert!(!self.members.contains(&(client as u32)), "duplicate admit");
        self.admit_deferred(client, latencies[client], client_counts);
        self.refresh_center(latencies);
    }

    /// [`GroupState::admit`] without moving the center: the batched
    /// association path scores a whole batch against frozen centers,
    /// admits, then calls [`GroupState::refresh_center`] once per
    /// touched group.
    pub(crate) fn admit_deferred(&mut self, client: usize, latency: f64, client_counts: &[f64]) {
        self.members.push(client as u32);
        self.latency_sum += latency;
        for (acc, &c) in self.label_counts.iter_mut().zip(client_counts) {
            *acc += c;
        }
    }

    /// Moves the latency center onto the members admitted so far: O(1),
    /// the running sum over the member count. `latencies` is the
    /// per-client slice the members' latencies were admitted from.
    pub(crate) fn refresh_center(&mut self, latencies: &[f64]) {
        debug_assert_eq!(
            self.latency_sum.to_bits(),
            member_sum(&self.members, latencies).to_bits(),
            "running latency sum left the left-to-right sum"
        );
        if !self.members.is_empty() {
            self.center = self.latency_sum / self.members.len() as f64;
        }
    }

    /// Removes a member.
    ///
    /// # Panics
    /// Panics if the client is not a member.
    pub(crate) fn remove(&mut self, client: usize, latencies: &[f64], client_counts: &[f64]) {
        let idx = self.position(client, "remove");
        self.members.swap_remove(idx);
        for (acc, &c) in self.label_counts.iter_mut().zip(client_counts) {
            *acc = (*acc - c).max(0.0);
        }
        self.resum_center(latencies);
    }

    /// Re-centers after a member's latency changed in `latencies`
    /// (runtime drift).
    ///
    /// # Panics
    /// Panics if the client is not a member.
    pub(crate) fn update_latency(&mut self, client: usize, latencies: &[f64]) {
        self.position(client, "update_latency");
        self.resum_center(latencies);
    }

    /// Index of `client` in `members`.
    fn position(&self, client: usize, op: &str) -> usize {
        self.members
            .iter()
            .position(|&m| m as usize == client)
            .unwrap_or_else(|| panic!("{op}: client not in group"))
    }

    /// Re-sums the member latencies in member order — O(members), the
    /// price of a center whose bits do not depend on the history of
    /// removals — and moves the center.
    fn resum_center(&mut self, latencies: &[f64]) {
        self.latency_sum = member_sum(&self.members, latencies);
        self.refresh_center(latencies);
    }
}

/// [`GroupState::union_js_from_iid`] over raw parts: JS-from-IID of a
/// group's pooled counts after absorbing `client_counts`.
///
/// One pass pair, no allocation: the union total first, then per class
/// the normalised share against `1/n`. That is `normalize_distribution`
/// then `js_divergence` against a uniform vector with the intermediate
/// vectors elided — the same additions in the same left-to-right order
/// and the same per-element arithmetic, so the same bits (the
/// `fused_union_js_matches_three_vec_version` sweep holds it to that).
///
/// # Panics
/// Panics on a class-count mismatch, zero classes, or a pooled count
/// that is negative or not finite.
#[must_use]
pub(crate) fn union_js_from_iid_parts(group_counts: &[f64], client_counts: &[f64]) -> f64 {
    assert_eq!(
        client_counts.len(),
        group_counts.len(),
        "union_js: class-count mismatch"
    );
    assert!(!group_counts.is_empty(), "union_js: no classes");
    let union = || group_counts.iter().zip(client_counts).map(|(a, b)| a + b);
    let total: f64 = union()
        .inspect(|w| {
            assert!(
                w.is_finite() && *w >= 0.0,
                "union_js: counts must be finite and non-negative, got {w}"
            );
        })
        .sum();
    let iid = 1.0 / group_counts.len() as f64;
    let mut acc = 0.0;
    for w in union() {
        // An all-zero union normalises to uniform.
        let p = if total <= 0.0 { iid } else { w / total };
        let m = 0.5 * (p + iid);
        if p > 0.0 {
            acc += 0.5 * p * (p / m).log2();
        }
        acc += 0.5 * iid * (iid / m).log2();
    }
    // Clamp tiny negative rounding noise.
    acc.max(0.0)
}

/// The Eq. 4 cost of assigning a client to a group:
/// `|L_g − L_n| + λ · JS(π_n^g, π_iid)`.
///
/// With `latency_weight = 0` this is Astraea's data-only criterion; with
/// `lambda = 0` it is FedAT's latency-only criterion.
#[must_use]
pub fn assignment_cost(
    group: &GroupState,
    client_latency: f64,
    client_counts: &[f64],
    lambda: f64,
    latency_weight: f64,
) -> f64 {
    latency_weight * (group.center() - client_latency).abs()
        + lambda * group.union_js_from_iid(client_counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(spec: &[(usize, f64)], k: usize) -> Vec<f64> {
        let mut v = vec![0.0; k];
        for &(i, c) in spec {
            v[i] = c;
        }
        v
    }

    #[test]
    fn admit_remove_round_trip() {
        let mut g = GroupState::new(0, 5.0, 4);
        assert!(g.is_empty());
        assert_eq!(g.center(), 5.0);
        let c0 = counts(&[(0, 10.0)], 4);
        let c1 = counts(&[(1, 10.0)], 4);
        let mut lat = vec![0.0; 10];
        lat[7] = 4.0;
        lat[9] = 6.0;
        g.admit(7, &lat, &c0);
        g.admit(9, &lat, &c1);
        assert_eq!(g.len(), 2);
        assert_eq!(g.center(), 5.0);
        assert_eq!(g.distribution(), vec![0.5, 0.5, 0.0, 0.0]);
        g.remove(7, &lat, &c0);
        assert_eq!(g.members, vec![9u32]);
        assert_eq!(g.center(), 6.0);
        assert_eq!(g.distribution(), vec![0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn union_js_improves_when_client_fills_gap() {
        let mut g = GroupState::new(0, 1.0, 2);
        g.admit(0, &[1.0], &counts(&[(0, 10.0)], 2));
        // Client with the missing class lowers divergence; same class
        // keeps it.
        let fills = g.union_js_from_iid(&counts(&[(1, 10.0)], 2));
        let skews = g.union_js_from_iid(&counts(&[(0, 10.0)], 2));
        assert!(fills < skews);
        assert!(fills < g.js_from_iid());
    }

    #[test]
    fn cost_tradeoff_matches_lambda() {
        let mut g = GroupState::new(0, 10.0, 2);
        g.admit(0, &[10.0], &counts(&[(0, 5.0)], 2));
        let near_skewed = assignment_cost(&g, 10.0, &counts(&[(0, 5.0)], 2), 0.0, 1.0);
        let far_balanced = assignment_cost(&g, 20.0, &counts(&[(1, 5.0)], 2), 0.0, 1.0);
        // λ = 0: latency decides.
        assert!(near_skewed < far_balanced);
        let near_skewed = assignment_cost(&g, 10.0, &counts(&[(0, 5.0)], 2), 1000.0, 1.0);
        let far_balanced = assignment_cost(&g, 20.0, &counts(&[(1, 5.0)], 2), 1000.0, 1.0);
        // Huge λ: data decides.
        assert!(near_skewed > far_balanced);
    }

    #[test]
    fn latency_update_moves_center() {
        let mut g = GroupState::new(0, 0.0, 2);
        let mut lat = vec![0.0, 10.0, 20.0];
        g.admit(1, &lat, &counts(&[(0, 1.0)], 2));
        g.admit(2, &lat, &counts(&[(1, 1.0)], 2));
        assert_eq!(g.center(), 15.0);
        lat[2] = 40.0;
        g.update_latency(2, &lat);
        assert_eq!(g.center(), 25.0);
    }

    /// The three-`Vec` union-JS the fused pass replaced: union, then
    /// `normalize_distribution`, then `js_divergence` against a uniform
    /// vector.
    fn union_js_three_vec(group_counts: &[f64], client_counts: &[f64]) -> f64 {
        let union: Vec<f64> = group_counts
            .iter()
            .zip(client_counts)
            .map(|(a, b)| a + b)
            .collect();
        let n = union.len();
        js_divergence(&normalize_distribution(&union), &vec![1.0 / n as f64; n])
    }

    #[test]
    fn fused_union_js_matches_three_vec_version() {
        let mut rng = ecofl_util::Rng::new(17);
        // Dense, sparse, all-zero and single-class vectors, 1..=12
        // classes, small and huge counts.
        let mut draw = |classes: usize, shape: usize| -> Vec<f64> {
            (0..classes)
                .map(|c| match shape {
                    0 => 0.0,
                    1 => rng.range_f64(0.0, 500.0),
                    2 if c == classes / 2 => rng.range_f64(1.0, 60.0),
                    3 if rng.bernoulli(0.3) => rng.range_f64(0.0, 1e9),
                    4 => rng.range_f64(0.0, 1e-9),
                    _ => 0.0,
                })
                .collect()
        };
        for classes in 1..=12 {
            for group_shape in 0..5 {
                for client_shape in 0..5 {
                    for _ in 0..8 {
                        let group = draw(classes, group_shape);
                        let client = draw(classes, client_shape);
                        assert_eq!(
                            union_js_from_iid_parts(&group, &client).to_bits(),
                            union_js_three_vec(&group, &client).to_bits(),
                            "group {group:?} client {client:?}"
                        );
                    }
                }
            }
        }
        // Zero total: the uniform fallback, exactly zero divergence.
        assert_eq!(union_js_from_iid_parts(&[0.0; 4], &[0.0; 4]), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn union_js_rejects_negative_counts() {
        let _ = union_js_from_iid_parts(&[1.0, 2.0], &[0.0, -3.0]);
    }

    #[test]
    fn appended_latency_sum_equals_the_resum() {
        // Admits only append, so the running sum must be the
        // left-to-right sum to the bit; removals and updates re-sum. The
        // latency slice is kept in step the way `Grouper` keeps its own.
        let mut rng = ecofl_util::Rng::new(5);
        let mut g = GroupState::new(0, 1.0, 2);
        let row = [1.0, 0.0];
        let mut lat = vec![0.0; 400];
        for client in 0..400 {
            lat[client] = rng.range_f64(1e-3, 1e3);
            g.admit(client, &lat, &row);
            if client % 7 == 3 {
                g.remove(client / 2, &lat, &row);
                lat[client / 2] = rng.range_f64(1e-3, 1e3);
                g.admit(client / 2, &lat, &row);
            }
            if client % 11 == 5 {
                lat[client] = rng.range_f64(1e-3, 1e3);
                g.update_latency(client, &lat);
            }
            let resum = g.members.iter().map(|&m| lat[m as usize]).sum::<f64>() / g.len() as f64;
            assert_eq!(
                g.center().to_bits(),
                resum.to_bits(),
                "after client {client}"
            );
        }
    }

    #[test]
    fn empty_group_distribution_is_uniform() {
        let g = GroupState::new(0, 1.0, 5);
        assert_eq!(g.distribution(), vec![0.2; 5]);
        assert!(g.js_from_iid() < 1e-12);
    }
}

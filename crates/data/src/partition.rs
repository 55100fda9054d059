//! Federated label partitioners (§6.1 of the paper).
//!
//! Two layers of non-IIDness exist in a hierarchical FL system: per-client
//! skew and per-group (RLG — response-latency group) skew. The paper's
//! settings are reproduced here:
//!
//! - [`classes_per_client`]: "the samples in each client are only assigned
//!   from two random classes" — client-level skew,
//! - `rlg_iid`: each RLG gets all 10 classes (group-level IID),
//! - [`rlg_niid`]: each RLG gets only 3 classes (group-level non-IID, the
//!   "businessmen of certain areas" scenario).

use crate::dataset::Dataset;
use crate::synth::Prototypes;
use ecofl_util::Rng;

/// IID partition: every client draws a balanced sample of all classes.
///
/// `samples_per_client` is rounded down to a multiple of the class count.
#[must_use]
pub(crate) fn iid(
    protos: &Prototypes,
    n_clients: usize,
    samples_per_client: usize,
    rng: &mut Rng,
) -> Vec<Dataset> {
    let k = protos.spec().num_classes;
    let per_class = (samples_per_client / k).max(1);
    (0..n_clients)
        .map(|_| {
            let mut crng = rng.split();
            protos.sample_balanced(per_class, &mut crng)
        })
        .collect()
}

/// Client-level non-IID partition: each client holds samples from exactly
/// `classes_per` random classes (the paper uses 2), split evenly.
///
/// # Panics
/// Panics if `classes_per` is zero or exceeds the class count.
#[must_use]
pub fn classes_per_client(
    protos: &Prototypes,
    n_clients: usize,
    classes_per: usize,
    samples_per_client: usize,
    rng: &mut Rng,
) -> Vec<Dataset> {
    let k = protos.spec().num_classes;
    assert!(
        classes_per >= 1 && classes_per <= k,
        "classes_per_client: need 1..={k} classes, got {classes_per}"
    );
    (0..n_clients)
        .map(|_| {
            let classes = rng.sample_indices(k, classes_per);
            let mut counts = vec![0usize; k];
            let base = samples_per_client / classes_per;
            let mut rem = samples_per_client % classes_per;
            for &c in &classes {
                counts[c] = base + usize::from(rem > 0);
                rem = rem.saturating_sub(1);
            }
            let mut crng = rng.split();
            protos.sample_with_counts(&counts, &mut crng)
        })
        .collect()
}

/// RLG-IID assignment: every client draws from all classes regardless of
/// its response-latency group, so group-level label distributions are
/// (approximately) uniform.
///
/// `client_rlg[i]` is the RLG index of client `i`; it only matters for the
/// NIID variant but is accepted here for interface symmetry.
#[must_use]
pub(crate) fn rlg_iid(
    protos: &Prototypes,
    client_rlg: &[usize],
    samples_per_client: usize,
    rng: &mut Rng,
) -> Vec<Dataset> {
    iid(protos, client_rlg.len(), samples_per_client, rng)
}

/// RLG-NIID assignment: each response-latency group is assigned
/// `classes_per_rlg` label classes (the paper uses 3), and every client in
/// the group draws only from its group's classes.
///
/// Class subsets are chosen per group with a round-robin offset so that all
/// classes stay covered globally when there are enough groups.
///
/// # Panics
/// Panics if `classes_per_rlg` is zero or exceeds the class count.
#[must_use]
pub fn rlg_niid(
    protos: &Prototypes,
    client_rlg: &[usize],
    classes_per_rlg: usize,
    samples_per_client: usize,
    rng: &mut Rng,
) -> Vec<Dataset> {
    let k = protos.spec().num_classes;
    assert!(
        classes_per_rlg >= 1 && classes_per_rlg <= k,
        "rlg_niid: need 1..={k} classes per RLG, got {classes_per_rlg}"
    );
    let n_groups = client_rlg.iter().copied().max().map_or(0, |m| m + 1);
    // Deterministic per-group class subsets: stride across the label space
    // so groups overlap partially (mirrors the paper's behavioural-cluster
    // story where similar users share label types).
    let group_classes: Vec<Vec<usize>> = (0..n_groups)
        .map(|g| {
            let start = (g * classes_per_rlg) % k;
            (0..classes_per_rlg).map(|j| (start + j) % k).collect()
        })
        .collect();
    client_rlg
        .iter()
        .map(|&g| {
            let classes = &group_classes[g];
            let mut counts = vec![0usize; k];
            let base = samples_per_client / classes.len();
            let mut rem = samples_per_client % classes.len();
            for &c in classes {
                counts[c] += base + usize::from(rem > 0);
                rem = rem.saturating_sub(1);
            }
            let mut crng = rng.split();
            protos.sample_with_counts(&counts, &mut crng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SyntheticSpec;
    use ecofl_util::js_divergence;

    fn protos() -> Prototypes {
        SyntheticSpec::mnist_like().prototypes(1)
    }

    #[test]
    fn iid_clients_are_balanced() {
        let p = protos();
        let mut rng = Rng::new(2);
        let clients = iid(&p, 5, 50, &mut rng);
        assert_eq!(clients.len(), 5);
        for c in &clients {
            assert_eq!(c.label_counts(), vec![5; 10]);
        }
    }

    #[test]
    fn two_class_clients_hold_two_classes() {
        let p = protos();
        let mut rng = Rng::new(3);
        let clients = classes_per_client(&p, 20, 2, 60, &mut rng);
        for c in &clients {
            let nonzero = c.label_counts().iter().filter(|&&n| n > 0).count();
            assert_eq!(nonzero, 2, "client must hold exactly two classes");
            assert_eq!(c.len(), 60);
        }
    }

    #[test]
    fn odd_sample_count_distributes_remainder() {
        let p = protos();
        let mut rng = Rng::new(4);
        let clients = classes_per_client(&p, 4, 3, 10, &mut rng);
        for c in &clients {
            assert_eq!(c.len(), 10);
            let counts: Vec<usize> = c.label_counts().into_iter().filter(|&n| n > 0).collect();
            assert_eq!(counts.len(), 3);
            assert!(counts.iter().all(|&n| n == 3 || n == 4));
        }
    }

    #[test]
    fn rlg_niid_groups_have_skewed_distributions() {
        let p = protos();
        let mut rng = Rng::new(5);
        // 3 groups × 4 clients.
        let client_rlg: Vec<usize> = (0..12).map(|i| i / 4).collect();
        let clients = rlg_niid(&p, &client_rlg, 3, 30, &mut rng);
        // Group-level distribution: union of member datasets.
        let uniform = vec![0.1f64; 10];
        for g in 0..3 {
            let mut counts = vec![0.0f64; 10];
            for (i, c) in clients.iter().enumerate() {
                if client_rlg[i] == g {
                    for (acc, n) in counts.iter_mut().zip(c.label_counts()) {
                        *acc += n as f64;
                    }
                }
            }
            let dist = ecofl_util::normalize_distribution(&counts);
            let js = js_divergence(&dist, &uniform);
            assert!(js > 0.3, "group {g} should be far from IID, js = {js}");
            assert_eq!(dist.iter().filter(|&&x| x > 0.0).count(), 3);
        }
    }

    #[test]
    fn rlg_iid_groups_are_near_uniform() {
        let p = protos();
        let mut rng = Rng::new(6);
        let client_rlg: Vec<usize> = (0..12).map(|i| i / 4).collect();
        let clients = rlg_iid(&p, &client_rlg, 50, &mut rng);
        let uniform = vec![0.1f64; 10];
        for g in 0..3 {
            let mut counts = vec![0.0f64; 10];
            for (i, c) in clients.iter().enumerate() {
                if client_rlg[i] == g {
                    for (acc, n) in counts.iter_mut().zip(c.label_counts()) {
                        *acc += n as f64;
                    }
                }
            }
            let dist = ecofl_util::normalize_distribution(&counts);
            assert!(js_divergence(&dist, &uniform) < 0.01);
        }
    }

    #[test]
    fn rlg_class_subsets_differ_between_groups() {
        let p = protos();
        let mut rng = Rng::new(7);
        let client_rlg = vec![0, 1];
        let clients = rlg_niid(&p, &client_rlg, 3, 30, &mut rng);
        assert_ne!(
            clients[0].label_counts(),
            clients[1].label_counts(),
            "different RLGs must hold different class subsets"
        );
    }
}

//! Federated dataset bundle: per-client training shards + a held-out,
//! balanced test set used by the server to evaluate the global model.

use crate::dataset::Dataset;
use crate::partition;
use crate::synth::{Prototypes, SyntheticSpec};
use ecofl_util::Rng;

/// Which non-IID regime to generate (matching §6.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartitionScheme {
    /// Balanced classes on every client.
    Iid,
    /// Each client holds `k` random classes (paper default: 2).
    ClassesPerClient(usize),
    /// Group-level IID: all classes in every response-latency group.
    RlgIid,
    /// Group-level non-IID: `k` classes per response-latency group
    /// (paper default: 3).
    RlgNiid(usize),
}

/// A complete federated learning dataset: one shard per client plus a
/// held-out test set drawn from the same task.
///
/// At million-client scale the dataset is *virtualized*
/// ([`FederatedDataset::virtualize`]): `n` virtual clients are mapped
/// round-robin onto the materialized shards, so data memory stays
/// O(shards) while the scheduler sees `n` clients. Two virtual clients
/// sharing a shard still train independently — their RNG streams (and
/// hence their local updates) differ.
#[derive(Debug, Clone)]
pub struct FederatedDataset {
    clients: Vec<Dataset>,
    test: Dataset,
    num_classes: usize,
    /// When set, the population presented by [`Self::num_clients`] /
    /// [`Self::client`]; the materialized shards back it round-robin.
    num_virtual: Option<usize>,
}

impl FederatedDataset {
    /// Generates a federated dataset.
    ///
    /// `client_rlg` maps each client to its response-latency group; it is
    /// required (and only used) by the RLG schemes.
    ///
    /// # Panics
    /// Panics if an RLG scheme is requested without `client_rlg`, or if
    /// `client_rlg` length differs from `n_clients`.
    #[must_use]
    pub fn generate(
        spec: &SyntheticSpec,
        n_clients: usize,
        samples_per_client: usize,
        test_per_class: usize,
        scheme: PartitionScheme,
        client_rlg: Option<&[usize]>,
        seed: u64,
    ) -> Self {
        let protos: Prototypes = spec.prototypes(seed);
        let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        let clients = match scheme {
            PartitionScheme::Iid => {
                partition::iid(&protos, n_clients, samples_per_client, &mut rng)
            }
            PartitionScheme::ClassesPerClient(k) => {
                partition::classes_per_client(&protos, n_clients, k, samples_per_client, &mut rng)
            }
            PartitionScheme::RlgIid => {
                let rlg = client_rlg.expect("RlgIid requires client_rlg");
                assert_eq!(rlg.len(), n_clients, "client_rlg length mismatch");
                partition::rlg_iid(&protos, rlg, samples_per_client, &mut rng)
            }
            PartitionScheme::RlgNiid(k) => {
                let rlg = client_rlg.expect("RlgNiid requires client_rlg");
                assert_eq!(rlg.len(), n_clients, "client_rlg length mismatch");
                partition::rlg_niid(&protos, rlg, k, samples_per_client, &mut rng)
            }
        };
        let mut test_rng = rng.split();
        let test = protos.sample_balanced(test_per_class, &mut test_rng);
        Self {
            clients,
            test,
            num_classes: spec.num_classes,
            num_virtual: None,
        }
    }

    /// Presents this dataset as `n` virtual clients backed round-robin
    /// by the materialized shards (`virtual client i → shard i %
    /// num_shards()`). The scheduler, grouper and failure model all see
    /// `n` clients; data memory stays proportional to the shard count.
    ///
    /// # Panics
    /// Panics if `n` is smaller than the number of materialized shards
    /// (that would silently orphan shards).
    #[must_use]
    pub fn virtualize(mut self, n: usize) -> Self {
        assert!(
            n >= self.clients.len(),
            "virtualize: {n} virtual clients cannot cover {} shards",
            self.clients.len()
        );
        self.num_virtual = Some(n);
        self
    }

    /// Number of clients (virtual population when virtualized).
    #[must_use]
    pub fn num_clients(&self) -> usize {
        self.num_virtual.unwrap_or(self.clients.len())
    }

    /// Number of materialized shards (= `num_clients()` when not
    /// virtualized).
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.clients.len()
    }

    /// The materialized shard backing client `i`.
    #[must_use]
    pub fn shard_index(&self, i: usize) -> usize {
        debug_assert!(i < self.num_clients());
        i % self.clients.len()
    }

    /// Training shard of client `i` (the backing shard when
    /// virtualized).
    #[must_use]
    pub fn client(&self, i: usize) -> &Dataset {
        &self.clients[self.shard_index(i)]
    }

    /// The materialized shards — one entry per *shard*, not per virtual
    /// client; use [`Self::shard_index`] to map a client id onto this
    /// slice.
    #[must_use]
    pub fn clients(&self) -> &[Dataset] {
        &self.clients
    }

    /// The held-out test set.
    #[must_use]
    pub fn test(&self) -> &Dataset {
        &self.test
    }

    /// Number of label classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Per-client label distributions `π_n` (Eq. 4 inputs); one entry
    /// per client, replicated from the backing shard when virtualized.
    #[must_use]
    pub fn client_label_distributions(&self) -> Vec<Vec<f64>> {
        let shard_dists: Vec<Vec<f64>> = self
            .clients
            .iter()
            .map(Dataset::label_distribution)
            .collect();
        match self.num_virtual {
            None => shard_dists,
            Some(n) => (0..n)
                .map(|i| shard_dists[self.shard_index(i)].clone())
                .collect(),
        }
    }

    /// Total training samples across all clients (`|D|` in the FL
    /// objective) — counts each virtual client's view of its shard.
    #[must_use]
    pub fn total_train_samples(&self) -> usize {
        match self.num_virtual {
            None => self.clients.iter().map(Dataset::len).sum(),
            Some(n) => (0..n).map(|i| self.client(i).len()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_iid() {
        let fd = FederatedDataset::generate(
            &SyntheticSpec::mnist_like(),
            8,
            40,
            10,
            PartitionScheme::Iid,
            None,
            42,
        );
        assert_eq!(fd.num_clients(), 8);
        assert_eq!(fd.test().len(), 100);
        assert_eq!(fd.total_train_samples(), 8 * 40);
    }

    #[test]
    fn generate_two_class() {
        let fd = FederatedDataset::generate(
            &SyntheticSpec::mnist_like(),
            10,
            60,
            5,
            PartitionScheme::ClassesPerClient(2),
            None,
            7,
        );
        for dist in fd.client_label_distributions() {
            assert_eq!(dist.iter().filter(|&&p| p > 0.0).count(), 2);
        }
    }

    #[test]
    fn generate_rlg_niid() {
        let rlg: Vec<usize> = (0..10).map(|i| i % 5).collect();
        let fd = FederatedDataset::generate(
            &SyntheticSpec::mnist_like(),
            10,
            30,
            5,
            PartitionScheme::RlgNiid(3),
            Some(&rlg),
            7,
        );
        for dist in fd.client_label_distributions() {
            assert_eq!(dist.iter().filter(|&&p| p > 0.0).count(), 3);
        }
    }

    #[test]
    fn deterministic_generation() {
        let make = || {
            FederatedDataset::generate(
                &SyntheticSpec::cifar_like(),
                5,
                20,
                4,
                PartitionScheme::ClassesPerClient(2),
                None,
                99,
            )
        };
        let a = make();
        let b = make();
        for i in 0..5 {
            assert_eq!(a.client(i), b.client(i));
        }
        assert_eq!(a.test(), b.test());
    }

    #[test]
    fn virtualize_maps_round_robin_onto_shards() {
        let fd = FederatedDataset::generate(
            &SyntheticSpec::mnist_like(),
            4,
            20,
            5,
            PartitionScheme::Iid,
            None,
            13,
        )
        .virtualize(11);
        assert_eq!(fd.num_clients(), 11);
        assert_eq!(fd.num_shards(), 4);
        for i in 0..11 {
            assert_eq!(fd.shard_index(i), i % 4);
            assert_eq!(fd.client(i), &fd.clients()[i % 4]);
        }
        assert_eq!(fd.client_label_distributions().len(), 11);
        assert_eq!(fd.total_train_samples(), 11 * 20);
    }

    #[test]
    #[should_panic(expected = "cannot cover")]
    fn virtualize_rejects_fewer_clients_than_shards() {
        let fd = FederatedDataset::generate(
            &SyntheticSpec::mnist_like(),
            4,
            10,
            2,
            PartitionScheme::Iid,
            None,
            13,
        );
        let _ = fd.virtualize(3);
    }

    #[test]
    #[should_panic(expected = "requires client_rlg")]
    fn rlg_scheme_requires_mapping() {
        let _ = FederatedDataset::generate(
            &SyntheticSpec::mnist_like(),
            4,
            10,
            2,
            PartitionScheme::RlgNiid(3),
            None,
            1,
        );
    }
}

//! Property-based tests for dataset generation and partitioning.

use ecofl_compat::check::{any_u64, forall, pair, quad, usize_in};
use ecofl_data::federated::PartitionScheme;
use ecofl_data::{partition, FederatedDataset, SyntheticSpec};
use ecofl_util::Rng;

const CASES: usize = 32;

fn spec() -> SyntheticSpec {
    SyntheticSpec::mnist_like()
}

#[test]
fn classes_per_client_has_exact_class_count() {
    let input = quad(any_u64(), usize_in(1, 30), usize_in(1, 10), usize_in(2, 80));
    forall(
        "classes_per_client_has_exact_class_count",
        CASES,
        &input,
        |&(seed, n, k, samples)| {
            let s = spec();
            let protos = s.prototypes(seed);
            let mut rng = Rng::new(seed ^ 7);
            let clients = partition::classes_per_client(&protos, n, k, samples, &mut rng);
            assert_eq!(clients.len(), n);
            for c in &clients {
                assert_eq!(c.len(), samples);
                let nonzero = c.label_counts().iter().filter(|&&x| x > 0).count();
                assert!(nonzero <= k);
                if samples >= k {
                    assert_eq!(nonzero, k);
                }
            }
        },
    );
}

#[test]
fn label_distribution_is_probability() {
    let input = pair(any_u64(), usize_in(1, 100));
    forall(
        "label_distribution_is_probability",
        CASES,
        &input,
        |&(seed, samples)| {
            let s = spec();
            let protos = s.prototypes(seed);
            let mut rng = Rng::new(seed ^ 9);
            let d = protos.sample_balanced(samples, &mut rng);
            let dist = d.label_distribution();
            assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(dist.iter().all(|&p| p >= 0.0));
        },
    );
}

#[test]
fn rlg_niid_keeps_classes_within_group_subsets() {
    let input = quad(any_u64(), usize_in(1, 6), usize_in(1, 6), usize_in(1, 5));
    forall(
        "rlg_niid_keeps_classes_within_group_subsets",
        CASES,
        &input,
        |&(seed, groups, per_group, classes_per)| {
            let s = spec();
            let protos = s.prototypes(seed);
            let mut rng = Rng::new(seed ^ 11);
            let rlg: Vec<usize> = (0..groups * per_group).map(|i| i / per_group).collect();
            let clients = partition::rlg_niid(&protos, &rlg, classes_per, 30, &mut rng);
            // Clients in the same group must hold identical class supports.
            for g in 0..groups {
                let supports: Vec<Vec<usize>> = clients
                    .iter()
                    .zip(&rlg)
                    .filter(|(_, &r)| r == g)
                    .map(|(c, _)| {
                        c.label_counts()
                            .iter()
                            .enumerate()
                            .filter(|(_, &n)| n > 0)
                            .map(|(i, _)| i)
                            .collect()
                    })
                    .collect();
                for w in supports.windows(2) {
                    assert_eq!(&w[0], &w[1], "group {g} class support differs");
                }
                assert!(supports[0].len() <= classes_per);
            }
        },
    );
}

#[test]
fn federated_dataset_accounting() {
    let input = quad(any_u64(), usize_in(1, 25), usize_in(4, 60), usize_in(1, 20));
    forall(
        "federated_dataset_accounting",
        CASES,
        &input,
        |&(seed, n, samples, test_per_class)| {
            let fd = FederatedDataset::generate(
                &spec(),
                n,
                samples,
                test_per_class,
                PartitionScheme::ClassesPerClient(2),
                None,
                seed,
            );
            assert_eq!(fd.num_clients(), n);
            assert_eq!(fd.total_train_samples(), n * samples);
            assert_eq!(fd.test().len(), test_per_class * 10);
            assert_eq!(fd.client_label_distributions().len(), n);
        },
    );
}

#[test]
fn generation_is_deterministic() {
    forall("generation_is_deterministic", CASES, &any_u64(), |&seed| {
        let make = || {
            FederatedDataset::generate(
                &spec(),
                6,
                20,
                4,
                PartitionScheme::ClassesPerClient(2),
                None,
                seed,
            )
        };
        let a = make();
        let b = make();
        for i in 0..6 {
            assert_eq!(a.client(i), b.client(i));
        }
        assert_eq!(a.test(), b.test());
    });
}

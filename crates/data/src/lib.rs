//! # ecofl-data
//!
//! Synthetic classification datasets and federated partitioners for the
//! Eco-FL reproduction.
//!
//! The paper evaluates on MNIST, Fashion-MNIST and CIFAR-10. Those
//! downloads are unavailable offline, so this crate generates deterministic
//! Gaussian-prototype datasets with three difficulty presets whose relative
//! hardness mirrors the originals:
//!
//! - [`SyntheticSpec::mnist_like`] — well-separated classes (easy),
//! - [`SyntheticSpec::fashion_like`] — moderate separation, sub-clusters,
//! - [`SyntheticSpec::cifar_like`] — low separation, heavy sub-cluster
//!   structure and noise (hard).
//!
//! What the FL experiments actually measure — convergence damage from
//! non-IID label skew across clients and groups, and its interaction with
//! aggregation strategy — is a function of the *label partitioning*, which
//! is reproduced exactly as described in §6.1:
//!
//! - [`partition::classes_per_client`] — every client holds samples from
//!   `k` random classes (the paper uses `k = 2`),
//! - `partition::rlg_iid` / [`partition::rlg_niid`] — label distributions
//!   assigned per response-latency group (10 classes vs 3 classes per RLG).

pub(crate) mod dataset;
pub mod federated;
pub mod partition;
pub(crate) mod synth;

pub use dataset::Dataset;
pub use federated::FederatedDataset;
pub use synth::SyntheticSpec;

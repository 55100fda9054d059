//! # ecofl-grouping
//!
//! The heterogeneity-aware adaptive client grouping of Eco-FL (§5.2).
//!
//! The server profiles every client's response latency `L_n` and label
//! distribution `π_n`, then groups clients to balance *system*
//! heterogeneity (similar latency within a group, so synchronous
//! intra-group aggregation has no stragglers) against *data* heterogeneity
//! (each group's pooled label distribution close to IID). The knob is the
//! cost of Eq. 4:
//!
//! ```text
//! COST_n^g = |L_g − L_n| + λ · JS(π_n^g, π_iid)
//! ```
//!
//! where `π_n^g` is the group's distribution *after* absorbing client `n`.
//! `λ = 0` degenerates to latency-only grouping (FedAT); `λ → ∞` to
//! data-only grouping (Astraea) — both are implemented as baselines.
//!
//! - `kmeans` — 1-D k-means++ clustering of response latencies (the
//!   initial-grouping seed),
//! - `cost` — Eq. 4 and the group-state bookkeeping,
//! - `grouper` — initial greedy association, the latency thresholds
//!   `RT_g`, the drop-out pool, and Algorithm 1's dynamic re-grouping.

pub(crate) mod cost;
pub(crate) mod grouper;
pub(crate) mod kmeans;
pub(crate) mod report;

pub use cost::assignment_cost;
pub use grouper::{Grouper, GroupingConfig, GroupingStrategy, RegroupOutcome};
pub use kmeans::{kmeans_1d, kmeans_1d_minibatch};
pub use report::GroupingReport;

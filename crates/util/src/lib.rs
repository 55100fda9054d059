//! # ecofl-util
//!
//! Shared foundations for the Eco-FL reproduction: a small deterministic
//! random-number generator, batch statistics, probability-distribution
//! divergences (KL / Jensen-Shannon, used by the grouping cost of the paper's
//! Eq. 4), time-series utilities for accuracy-vs-time traces, and unit
//! formatting helpers.
//!
//! Everything in this crate is deterministic and allocation-conscious: the
//! simulator and the federated-learning engine both sit in hot loops on top
//! of these primitives.

pub mod divergence;
pub(crate) mod rng;
pub(crate) mod series;
pub mod stats;
pub mod units;

pub use divergence::{js_divergence, kl_divergence, normalize_distribution};
pub use rng::Rng;
pub use series::TimeSeries;
pub use stats::mean;

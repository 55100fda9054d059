//! Per-client response-latency model and runtime dynamics (§6.1).
//!
//! Each client's *original* response delay is drawn once from a normal
//! distribution; its *actual* delay is `original / collaborative degree`
//! where the collaborative degree in {0.2 … 1.0} captures how much edge
//! collaboration (pipeline helpers) the client currently enjoys — a degree
//! of 1.0 means a full pipeline (fastest), 0.2 almost none (5× slower).
//!
//! Under the dynamic setting, after a client participates in a round it
//! resamples its degree with a fixed probability, shifting its latency.
//! Eco-FL's server reacts via Algorithm 1; static baselines suffer the
//! resulting stragglers.

use crate::config::DynamicsConfig;
use ecofl_util::Rng;

/// The collaborative degrees a sampled client starts at (§6.1).
pub(crate) const INITIAL_DEGREES: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];

/// Entries a model's degree table can hold: a client's degree is a `u8`
/// index into it.
const TABLE_CAPACITY: usize = u8::MAX as usize + 1;

/// The longest `dynamics.degrees` list any model can index: the table
/// holds the initial choices first, [`INITIAL_DEGREES`] at most.
pub(crate) const MAX_DYNAMIC_DEGREES: usize = TABLE_CAPACITY - INITIAL_DEGREES.len();

/// The latency state of all clients.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    base_delays: Vec<f64>,
    /// Client → index of its current degree in `degree_table`: one byte
    /// per client instead of the `f64` it names.
    degrees: Vec<u8>,
    /// The initial degree choices, then `dynamics.degrees`.
    degree_table: Vec<f64>,
    /// Resampling probability under runtime dynamics.
    change_prob: Option<f64>,
    /// Where `dynamics.degrees` starts in `degree_table`.
    dynamic_from: usize,
}

impl LatencyModel {
    /// Samples base delays (truncated normal, floor 1 s) and initial
    /// degrees for `n` clients.
    ///
    /// # Panics
    /// Panics if `n` is zero, `degrees` is empty, `dynamics` has no
    /// degree choices, or `degrees` and `dynamics.degrees` together
    /// hold more than 256 entries — the `u8` index's range
    /// (`FlConfig::validate` refuses such a `dynamics`).
    #[must_use]
    pub fn sample(
        n: usize,
        mean: f64,
        std: f64,
        degrees: &[f64],
        dynamics: Option<DynamicsConfig>,
        rng: &mut Rng,
    ) -> Self {
        assert!(n > 0, "LatencyModel: need at least one client");
        assert!(!degrees.is_empty(), "LatencyModel: need degree choices");
        let base_delays = (0..n).map(|_| rng.gaussian(mean, std).max(1.0)).collect();
        // `Rng::choose`'s draw, kept as the index it picks.
        let degs = (0..n)
            .map(|_| rng.range_usize(0, degrees.len()) as u8)
            .collect();
        Self::with_table(base_delays, degs, degrees, dynamics)
    }

    /// Builds a model from explicit base delays; all clients start at a
    /// collaborative degree of 1.0.
    ///
    /// # Panics
    /// Panics on an empty delay vector, a non-positive delay, a
    /// `dynamics` without degree choices or with more than 255 of them
    /// (the `u8` index's range after the initial 1.0).
    #[must_use]
    pub fn from_delays(delays: &[f64], dynamics: Option<DynamicsConfig>) -> Self {
        assert!(!delays.is_empty(), "LatencyModel: need at least one client");
        assert!(
            delays.iter().all(|&d| d > 0.0),
            "LatencyModel: delays must be positive"
        );
        Self::with_table(delays.to_vec(), vec![0; delays.len()], &[1.0], dynamics)
    }

    /// Lays out the degree table as `initial` then the dynamics' choices.
    fn with_table(
        base_delays: Vec<f64>,
        degrees: Vec<u8>,
        initial: &[f64],
        dynamics: Option<DynamicsConfig>,
    ) -> Self {
        let mut degree_table = initial.to_vec();
        let change_prob = dynamics.map(|d| {
            assert!(!d.degrees.is_empty(), "LatencyModel: nonempty degrees");
            degree_table.extend(&d.degrees);
            d.change_prob
        });
        assert!(
            degree_table.len() <= TABLE_CAPACITY,
            "LatencyModel: {} degree choices overflow the u8 index",
            degree_table.len()
        );
        Self {
            base_delays,
            degrees,
            degree_table,
            change_prob,
            dynamic_from: initial.len(),
        }
    }

    /// Number of clients.
    #[must_use]
    pub fn len(&self) -> usize {
        self.base_delays.len()
    }

    /// Whether the model is empty (never true after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.base_delays.is_empty()
    }

    /// Current response latency of a client, seconds.
    #[must_use]
    pub fn response_latency(&self, client: usize) -> f64 {
        self.base_delays[client] / self.degree(client)
    }

    /// All current response latencies.
    #[must_use]
    pub fn all_latencies(&self) -> Vec<f64> {
        (0..self.len()).map(|c| self.response_latency(c)).collect()
    }

    /// Current collaborative degree of a client.
    #[must_use]
    pub fn degree(&self, client: usize) -> f64 {
        self.degree_table[usize::from(self.degrees[client])]
    }

    /// Applies the post-participation dynamics to a client. Returns `true`
    /// if its degree (and hence latency) changed.
    pub fn maybe_perturb(&mut self, client: usize, rng: &mut Rng) -> bool {
        let Some(change_prob) = self.change_prob else {
            return false;
        };
        if !rng.bernoulli(change_prob) {
            return false;
        }
        // `Rng::choose` over the dynamics' choices, as a table index.
        let choices = self.degree_table.len() - self.dynamic_from;
        let new = self.dynamic_from + rng.range_usize(0, choices);
        let changed = (self.degree_table[new] - self.degree(client)).abs() > 1e-12;
        self.degrees[client] = new as u8;
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(dynamics: Option<DynamicsConfig>) -> LatencyModel {
        LatencyModel::sample(
            50,
            30.0,
            10.0,
            &[0.2, 0.4, 0.6, 0.8, 1.0],
            dynamics,
            &mut Rng::new(1),
        )
    }

    #[test]
    fn latencies_positive_and_degree_scaled() {
        let m = model(None);
        for c in 0..m.len() {
            assert!(m.response_latency(c) >= 1.0);
            let expected = m.base_delays[c] / m.degree(c);
            assert_eq!(m.response_latency(c), expected);
        }
    }

    #[test]
    fn lower_degree_means_higher_latency() {
        let mut m = model(None);
        m.degrees[0] = 4;
        assert_eq!(m.degree(0), 1.0);
        let fast = m.response_latency(0);
        m.degrees[0] = 0;
        assert_eq!(m.degree(0), 0.2);
        let slow = m.response_latency(0);
        assert!((slow - 5.0 * fast).abs() < 1e-9);
    }

    #[test]
    fn no_dynamics_never_perturbs() {
        let mut m = model(None);
        let mut rng = Rng::new(2);
        for c in 0..m.len() {
            assert!(!m.maybe_perturb(c, &mut rng));
        }
    }

    #[test]
    fn dynamics_perturb_at_configured_rate() {
        let mut m = model(Some(DynamicsConfig {
            change_prob: 0.5,
            degrees: vec![0.2, 1.0],
        }));
        let mut rng = Rng::new(3);
        let mut attempts = 0;
        let mut fired = 0;
        for _ in 0..200 {
            for c in 0..m.len() {
                attempts += 1;
                // maybe_perturb returns true only when the value changed;
                // count draws via latency comparison instead.
                let before = m.degree(c);
                let _ = m.maybe_perturb(c, &mut rng);
                if (m.degree(c) - before).abs() > 1e-12 {
                    fired += 1;
                }
            }
        }
        // P(change) = 0.5 × P(new != old) = 0.5 × 0.5 = 0.25 here.
        let rate = f64::from(fired) / f64::from(attempts);
        assert!((rate - 0.25).abs() < 0.03, "perturb rate {rate}");
    }

    #[test]
    fn deterministic_sampling() {
        let a = model(None);
        let b = model(None);
        assert_eq!(a.all_latencies(), b.all_latencies());
    }
}

//! Experiment configuration mirroring §6.1 of the paper.

use crate::latency::{INITIAL_DEGREES, MAX_DYNAMIC_DEGREES};
use ecofl_grouping::{GroupingConfig, GroupingStrategy};

/// Runtime dynamics: clients periodically resample their collaborative
/// degree, changing their response latency mid-training.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicsConfig {
    /// Probability that a client resamples its degree after participating
    /// in a round.
    pub change_prob: f64,
    /// The degree choices (paper: {0.2, 0.4, 0.6, 0.8, 1.0}).
    pub degrees: Vec<f64>,
}

impl Default for DynamicsConfig {
    fn default() -> Self {
        Self {
            change_prob: 0.15,
            degrees: vec![0.2, 0.4, 0.6, 0.8, 1.0],
        }
    }
}

/// The most cohort completions one run may simulate. A run costs time
/// linear in its completions, so a horizon that allows more is refused
/// before anything runs. The paper's set-up (300 clients, 20 per round,
/// 3000 s) allows about 30 000; the 1M-client census (800 s) about 8 000.
pub(crate) const MAX_COHORT_COMPLETIONS: u64 = 1_000_000;

/// Polynomial staleness exponent of FedAsync's mixing weight
/// `α · (1 + staleness)^(−exponent)`.
pub(crate) const STALENESS_EXPONENT: f64 = 0.5;

/// Delay before a hierarchical strategy re-probes a group that had no
/// dispatchable members (all busy or dropped), virtual seconds. It is
/// kept apart from `comm_latency` so probe cadence does not follow an
/// unrelated knob.
pub(crate) const PROBE_BACKOFF: f64 = 30.0;

/// Full FL experiment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FlConfig {
    /// Total number of clients (paper: 300).
    pub num_clients: usize,
    /// Maximum clients training concurrently per round (paper: 20).
    pub clients_per_round: usize,
    /// Local epochs per round (paper: 3).
    pub local_epochs: usize,
    /// Local mini-batch size (paper: 10).
    pub batch_size: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// FedProx proximal coefficient µ (paper: 0.05).
    pub mu: f32,
    /// FedAsync base mixing weight α.
    pub alpha: f64,
    /// Number of groups / response-latency groups (paper: 5).
    pub num_groups: usize,
    /// Grouping criterion for hierarchical strategies.
    pub grouping: GroupingStrategy,
    /// Latency threshold `RT_g` relative to the group center.
    pub rt_relative: f64,
    /// Absolute floor of `RT_g`, virtual seconds.
    pub rt_min: f64,
    /// Virtual-time horizon of the run, seconds.
    pub horizon: f64,
    /// Evaluate the global model at most once per this many virtual
    /// seconds (keeps traces compact).
    pub eval_interval: f64,
    /// Fixed client↔server communication latency added to every
    /// response, seconds.
    pub comm_latency: f64,
    /// Mean of the base response-delay distribution, seconds.
    pub base_delay_mean: f64,
    /// Std-dev of the base response-delay distribution, seconds.
    pub base_delay_std: f64,
    /// Runtime dynamics; `None` freezes collaborative degrees.
    pub dynamics: Option<DynamicsConfig>,
    /// Explicit per-client base delays (seconds). When set, overrides the
    /// normal-distribution sampling — used by the top-level system to feed
    /// pipeline-derived response latencies into the FL engine.
    pub base_delay_override: Option<Vec<f64>>,
    /// Mini-batch size for the Eq. 4 group-association sweep. `0`
    /// keeps the exact O(n²) greedy assignment (the paper-scale
    /// default); a positive value switches to batched association and
    /// mini-batch k-means seeding, keeping grouping linear at 10⁵–10⁶
    /// clients.
    pub grouping_batch: usize,
    /// RNG seed for the whole run.
    pub seed: u64,
}

impl Default for FlConfig {
    fn default() -> Self {
        Self {
            num_clients: 300,
            clients_per_round: 20,
            local_epochs: 3,
            batch_size: 10,
            learning_rate: 0.05,
            mu: 0.05,
            alpha: 0.7,
            num_groups: 5,
            grouping: GroupingStrategy::EcoFl { lambda: 1000.0 },
            rt_relative: 0.6,
            rt_min: 5.0,
            horizon: 3000.0,
            eval_interval: 20.0,
            comm_latency: 1.0,
            base_delay_mean: 30.0,
            base_delay_std: 10.0,
            dynamics: Some(DynamicsConfig::default()),
            base_delay_override: None,
            grouping_batch: 0,
            seed: 42,
        }
    }
}

impl FlConfig {
    /// A small configuration for tests and doc examples: 24 clients, short
    /// horizon.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            num_clients: 24,
            clients_per_round: 8,
            horizon: 600.0,
            eval_interval: 30.0,
            num_groups: 3,
            ..Self::default()
        }
    }

    /// An upper bound on the cohort completions of a run, from the
    /// config alone. At most `clients_per_round` cohorts are in flight
    /// at once (FedAsync's workers; FedAvg has one) or one per group
    /// (the hierarchical strategies), and none completes sooner than
    /// the shortest cohort: the 1 s floor of `LatencyModel::sample` (or
    /// the smallest `base_delay_override`) divided by the largest
    /// collaborative degree, plus `comm_latency` — or an empty-cohort
    /// probe's `PROBE_BACKOFF`. Each in-flight chain completes at most
    /// `horizon / shortest + 1` times.
    fn cohort_completion_bound(&self) -> f64 {
        let floor = self
            .base_delay_override
            .as_ref()
            .map_or(1.0, |d| d.iter().copied().fold(f64::INFINITY, f64::min));
        let max_degree = INITIAL_DEGREES
            .iter()
            .chain(self.dynamics.iter().flat_map(|d| &d.degrees))
            .fold(1.0, |a: f64, &b| a.max(b));
        let shortest = (floor / max_degree + self.comm_latency).min(PROBE_BACKOFF);
        let in_flight = self
            .clients_per_round
            .min(self.num_clients)
            .max(self.num_groups);
        in_flight as f64 * (self.horizon / shortest + 1.0)
    }

    /// Clients sampled per group round in hierarchical strategies
    /// (respects the global concurrency cap).
    #[must_use]
    pub(crate) fn clients_per_group_round(&self) -> usize {
        (self.clients_per_round / self.num_groups).max(1)
    }

    /// The grouping knobs as the grouper takes them (a hierarchical
    /// strategy substitutes its own criterion for `strategy`).
    #[must_use]
    pub(crate) fn grouping_config(&self) -> GroupingConfig {
        GroupingConfig {
            num_groups: self.num_groups,
            strategy: self.grouping,
            rt_relative: self.rt_relative,
            rt_min: self.rt_min,
            assign_batch: self.grouping_batch,
        }
    }

    /// Validates the scheduler-facing and local-solver knobs, returning a
    /// description of the first violation.
    ///
    /// Out-of-range values used to flow silently into the run: a
    /// non-positive `eval_interval` made the eval watermark spin, a negative
    /// `comm_latency` scheduled events in the past, and the solver knobs
    /// reached asserts deep inside a worker (`batch_size: 0` in the
    /// batcher, a negative or NaN `mu` in the optimizer, `local_epochs: 0`
    /// in the latency model, a NaN `alpha` in the staleness weight). The
    /// builder and the CLI map an `Err` here to `EcoFlError::Config`.
    ///
    /// A finite, positive `learning_rate` that is merely too large is
    /// legal: the run diverges, scores NaN rows as wrong and reports the
    /// accuracy it got.
    ///
    /// The population and latency knobs are checked too. Zero clients
    /// tripped the latency model's assert, zero `clients_per_round` ran
    /// empty rounds (FedAvg) or none at all (FedAsync), a NaN delay
    /// mean or std became a silent 1 s for every client through
    /// `max(1.0)`, a wrong-length or non-positive `base_delay_override`
    /// tripped an assert, an empty or non-positive `degrees` list
    /// panicked or made latencies infinite at the first perturbation,
    /// a `degrees` list longer than the latency model's `u8` degree
    /// index reaches tripped its assert, and a `change_prob` outside
    /// `[0, 1]` silently never or always fired.
    ///
    /// A horizon that is not positive and finite is refused (zero ran an
    /// empty simulation and reported zeros), and so is one that allows
    /// more than `MAX_COHORT_COMPLETIONS` cohort completions: the run
    /// time is linear in the horizon, so `1e300` never returned.
    ///
    /// # Errors
    /// Returns `Err(message)` naming the offending field and value.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_clients == 0 {
            return Err("num_clients must be at least 1, got 0".to_owned());
        }
        if self.clients_per_round == 0 {
            return Err("clients_per_round must be at least 1, got 0".to_owned());
        }
        for (name, x) in [
            ("base_delay_mean", self.base_delay_mean),
            ("base_delay_std", self.base_delay_std),
        ] {
            if !x.is_finite() {
                return Err(format!("{name} must be finite, got {x}"));
            }
        }
        if let Some(delays) = &self.base_delay_override {
            if delays.len() != self.num_clients {
                return Err(format!(
                    "base_delay_override must hold one delay per client ({}), got {}",
                    self.num_clients,
                    delays.len()
                ));
            }
            if let Some(bad) = delays.iter().find(|&&d| !(d > 0.0 && d.is_finite())) {
                return Err(format!(
                    "base_delay_override delays must be positive and finite, got {bad}"
                ));
            }
        }
        if let Some(dynamics) = &self.dynamics {
            if !(dynamics.change_prob >= 0.0 && dynamics.change_prob <= 1.0) {
                return Err(format!(
                    "dynamics.change_prob must be in [0, 1], got {}",
                    dynamics.change_prob
                ));
            }
            if dynamics.degrees.is_empty() {
                return Err("dynamics.degrees must not be empty".to_owned());
            }
            if dynamics.degrees.len() > MAX_DYNAMIC_DEGREES {
                return Err(format!(
                    "dynamics.degrees must hold at most {MAX_DYNAMIC_DEGREES} choices \
                     (a client's degree is a u8 table index), got {}",
                    dynamics.degrees.len()
                ));
            }
            if let Some(bad) = dynamics
                .degrees
                .iter()
                .find(|&&d| !(d > 0.0 && d.is_finite()))
            {
                return Err(format!(
                    "dynamics.degrees must be positive and finite, got {bad}"
                ));
            }
        }
        if self.batch_size == 0 {
            return Err("batch_size must be at least 1, got 0".to_owned());
        }
        if self.local_epochs == 0 {
            return Err("local_epochs must be at least 1, got 0".to_owned());
        }
        // `!(x >= lo && x <= hi)` style so NaN fails every check.
        if !(self.learning_rate > 0.0 && self.learning_rate.is_finite()) {
            return Err(format!(
                "learning_rate must be positive and finite, got {}",
                self.learning_rate
            ));
        }
        if !(self.mu >= 0.0 && self.mu.is_finite()) {
            return Err(format!(
                "mu must be non-negative and finite, got {}",
                self.mu
            ));
        }
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(format!("alpha must be in (0, 1], got {}", self.alpha));
        }
        // Before `eval_interval`, which callers derive from it.
        if !(self.horizon > 0.0 && self.horizon.is_finite()) {
            return Err(format!(
                "horizon must be positive and finite, got {}",
                self.horizon
            ));
        }
        if !(self.eval_interval > 0.0 && self.eval_interval.is_finite()) {
            return Err(format!(
                "eval_interval must be positive and finite, got {}",
                self.eval_interval
            ));
        }
        if !(self.comm_latency >= 0.0 && self.comm_latency.is_finite()) {
            return Err(format!(
                "comm_latency must be non-negative and finite, got {}",
                self.comm_latency
            ));
        }
        // After the latency knobs: the bound divides by what they give.
        let completions = self.cohort_completion_bound();
        if completions.is_nan() || completions > MAX_COHORT_COMPLETIONS as f64 {
            return Err(format!(
                "horizon {:e} s allows up to {completions:.3e} cohort completions, \
                 more than the {MAX_COHORT_COMPLETIONS} one run simulates",
                self.horizon
            ));
        }
        // Zero groups would divide by zero in
        // `clients_per_group_round`; the rest reaches Eq. 4.
        self.grouping_config().validate(self.num_clients)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = FlConfig::default();
        assert_eq!(c.num_clients, 300);
        assert_eq!(c.clients_per_round, 20);
        assert_eq!(c.local_epochs, 3);
        assert_eq!(c.batch_size, 10);
        assert!((c.mu - 0.05).abs() < 1e-9);
        assert_eq!(c.num_groups, 5);
        assert!((c.comm_latency - 1.0).abs() < 1e-12);
        let d = c.dynamics.unwrap();
        assert_eq!(d.degrees, vec![0.2, 0.4, 0.6, 0.8, 1.0]);
    }

    #[test]
    fn validate_accepts_defaults_and_tiny() {
        assert!(FlConfig::default().validate().is_ok());
        assert!(FlConfig::tiny().validate().is_ok());
        // Boundary values are legal.
        let mut c = FlConfig::tiny();
        c.comm_latency = 0.0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_eval_interval() {
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let mut c = FlConfig::tiny();
            c.eval_interval = bad;
            let err = c.validate().unwrap_err();
            assert!(err.contains("eval_interval"), "got: {err}");
        }
    }

    #[test]
    fn validate_rejects_bad_comm_latency() {
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let mut c = FlConfig::tiny();
            c.comm_latency = bad;
            let err = c.validate().unwrap_err();
            assert!(err.contains("comm_latency"), "got: {err}");
        }
    }

    #[test]
    fn validate_bounds_the_cohort_completions_a_horizon_allows() {
        // The paper's run and the 1M-client census pass.
        let paper = FlConfig::default();
        assert!(paper.validate().is_ok());
        let census = FlConfig {
            num_clients: 1_000_000,
            horizon: 800.0,
            ..FlConfig::default()
        };
        assert!(census.validate().is_ok());
        // 20 in flight, cohorts of at least 1 s + 1 s comm latency.
        let at = |horizon: f64| {
            FlConfig {
                horizon,
                ..paper.clone()
            }
            .validate()
        };
        assert!(at(99_990.0).is_ok());
        for bad in [100_000.0, 1e300, f64::INFINITY, f64::NAN, 0.0, -1.0] {
            let err = at(bad).unwrap_err();
            assert!(err.starts_with("horizon "), "got: {err}");
        }
        // Faster cohorts lower the horizon that fits: a 0.01 s override
        // delay at degree 1.0 and no comm latency.
        let fast = FlConfig {
            num_clients: 2,
            clients_per_round: 2,
            num_groups: 1,
            dynamics: None,
            comm_latency: 0.0,
            base_delay_override: Some(vec![0.01, 5.0]),
            horizon: 10_000.0,
            ..FlConfig::default()
        };
        assert!(fast.validate().unwrap_err().contains("cohort completions"));
    }

    #[test]
    fn validate_rejects_zero_batch_size() {
        let mut c = FlConfig::tiny();
        c.batch_size = 0;
        assert!(c.validate().unwrap_err().contains("batch_size"));
    }

    #[test]
    fn validate_rejects_zero_local_epochs() {
        let mut c = FlConfig::tiny();
        c.local_epochs = 0;
        assert!(c.validate().unwrap_err().contains("local_epochs"));
    }

    #[test]
    fn validate_rejects_bad_learning_rate_but_not_a_large_one() {
        for bad in [0.0, -0.05, f32::NAN, f32::INFINITY] {
            let mut c = FlConfig::tiny();
            c.learning_rate = bad;
            let err = c.validate().unwrap_err();
            assert!(err.contains("learning_rate"), "got: {err}");
        }
        let mut c = FlConfig::tiny();
        c.learning_rate = 1e9;
        assert!(c.validate().is_ok(), "divergence is a result, not an error");
    }

    #[test]
    fn validate_rejects_bad_mu() {
        for bad in [-1.0, f32::NAN, f32::INFINITY] {
            let mut c = FlConfig::tiny();
            c.mu = bad;
            let err = c.validate().unwrap_err();
            assert!(err.contains("mu must"), "got: {err}");
        }
        let mut c = FlConfig::tiny();
        c.mu = 0.0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_alpha_outside_the_half_open_unit_interval() {
        for bad in [0.0, -0.3, 1.5, f64::NAN, f64::INFINITY] {
            let mut c = FlConfig::tiny();
            c.alpha = bad;
            let err = c.validate().unwrap_err();
            assert!(err.contains("alpha"), "got: {err}");
        }
        let mut c = FlConfig::tiny();
        c.alpha = 1.0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_grouping_knobs() {
        let mut c = FlConfig::tiny();
        c.num_groups = 0;
        assert!(c.validate().unwrap_err().contains("num_groups"));
        let mut c = FlConfig::tiny();
        c.grouping = GroupingStrategy::EcoFl { lambda: f64::NAN };
        assert!(c.validate().unwrap_err().contains("lambda"));
        let mut c = FlConfig::tiny();
        c.rt_min = -1.0;
        assert!(c.validate().unwrap_err().contains("rt_min"));
    }

    #[test]
    fn validate_rejects_zero_clients() {
        let mut c = FlConfig::tiny();
        c.num_clients = 0;
        assert!(c.validate().unwrap_err().contains("num_clients"));
    }

    #[test]
    fn validate_rejects_zero_clients_per_round() {
        let mut c = FlConfig::tiny();
        c.clients_per_round = 0;
        assert!(c.validate().unwrap_err().contains("clients_per_round"));
    }

    #[test]
    fn validate_rejects_non_finite_base_delays() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut c = FlConfig::tiny();
            c.base_delay_mean = bad;
            let err = c.validate().unwrap_err();
            assert!(err.contains("base_delay_mean"), "got: {err}");
            let mut c = FlConfig::tiny();
            c.base_delay_std = bad;
            let err = c.validate().unwrap_err();
            assert!(err.contains("base_delay_std"), "got: {err}");
        }
    }

    #[test]
    fn validate_rejects_empty_degrees() {
        let mut c = FlConfig::tiny();
        c.dynamics = Some(DynamicsConfig {
            degrees: Vec::new(),
            ..DynamicsConfig::default()
        });
        assert!(c.validate().unwrap_err().contains("dynamics.degrees"));
    }

    #[test]
    fn validate_rejects_more_degrees_than_a_u8_index_reaches() {
        let mut c = FlConfig::tiny();
        c.dynamics = Some(DynamicsConfig {
            degrees: vec![0.5; MAX_DYNAMIC_DEGREES],
            ..DynamicsConfig::default()
        });
        assert_eq!(c.validate(), Ok(()));
        c.dynamics = Some(DynamicsConfig {
            degrees: vec![0.5; MAX_DYNAMIC_DEGREES + 1],
            ..DynamicsConfig::default()
        });
        let err = c.validate().unwrap_err();
        assert!(err.contains("dynamics.degrees"), "got: {err}");
        assert!(
            err.contains(&format!("got {}", MAX_DYNAMIC_DEGREES + 1)),
            "got: {err}"
        );
    }

    #[test]
    fn validate_rejects_non_positive_degrees() {
        for bad in [0.0, -0.4, f64::NAN, f64::INFINITY] {
            let mut c = FlConfig::tiny();
            c.dynamics = Some(DynamicsConfig {
                degrees: vec![0.2, bad, 1.0],
                ..DynamicsConfig::default()
            });
            let err = c.validate().unwrap_err();
            assert!(err.contains("dynamics.degrees"), "got: {err}");
        }
    }

    #[test]
    fn validate_rejects_change_prob_outside_the_unit_interval() {
        for bad in [-0.1, 1.5, f64::NAN] {
            let mut c = FlConfig::tiny();
            c.dynamics = Some(DynamicsConfig {
                change_prob: bad,
                ..DynamicsConfig::default()
            });
            let err = c.validate().unwrap_err();
            assert!(err.contains("dynamics.change_prob"), "got: {err}");
        }
        // Frozen dynamics have nothing to check; the bounds are legal.
        for ok in [None, Some(0.0), Some(1.0)] {
            let mut c = FlConfig::tiny();
            c.dynamics = ok.map(|change_prob| DynamicsConfig {
                change_prob,
                ..DynamicsConfig::default()
            });
            assert!(c.validate().is_ok());
        }
    }

    #[test]
    fn validate_rejects_a_bad_base_delay_override() {
        let n = FlConfig::tiny().num_clients;
        let wrong_length = vec![10.0; n - 1];
        let mut non_positive = vec![10.0; n];
        non_positive[3] = 0.0;
        let mut non_finite = vec![10.0; n];
        non_finite[5] = f64::NAN;
        for bad in [wrong_length, non_positive, non_finite] {
            let mut c = FlConfig::tiny();
            c.base_delay_override = Some(bad);
            let err = c.validate().unwrap_err();
            assert!(err.contains("base_delay_override"), "got: {err}");
        }
        let mut c = FlConfig::tiny();
        c.base_delay_override = Some(vec![10.0; n]);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn per_group_sampling_respects_cap() {
        let c = FlConfig::default();
        assert_eq!(c.clients_per_group_round(), 4);
        let mut c2 = FlConfig::tiny();
        c2.num_groups = 100;
        assert_eq!(c2.clients_per_group_round(), 1);
    }
}

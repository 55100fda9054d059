//! Experiment configuration mirroring §6.1 of the paper.

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
    /// Polynomial staleness exponent for async mixing.
    pub staleness_exponent: f64,
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
    /// Probability that a selected client fails to return its update
    /// (crash, disconnect, battery). Synchronous aggregations proceed over
    /// the survivors; a round whose every participant failed is skipped.
    ///
    /// This is the *statistical* view of the same disturbance that
    /// `ecofl_pipeline::runtime::FaultPlan` injects *deterministically*
    /// one level down: a stage dying inside a client's collaborative
    /// pipeline. A client whose runtime checkpoints, recovers and
    /// replays (§4.4) returns its update late instead of becoming a
    /// `failure_prob` casualty, so the two knobs model the
    /// without-recovery and with-recovery ends of the same failure.
    pub failure_prob: f64,
    /// Delay before a hierarchical strategy re-probes a group that had
    /// no dispatchable members (all busy or dropped), virtual seconds.
    /// Retry probes previously piggybacked on `comm_latency`, silently
    /// coupling probe cadence to an unrelated knob.
    pub probe_backoff: f64,
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
            staleness_exponent: 0.5,
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
            failure_prob: 0.0,
            probe_backoff: 30.0,
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
    /// Out-of-range values used to flow silently into the run: a NaN or
    /// `>1` `failure_prob` reached `rng.bernoulli` unchecked (making
    /// the failure model ill-defined or a no-op), a non-positive
    /// `eval_interval` made the eval watermark spin, a negative
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
    /// and a `change_prob` outside `[0, 1]` silently never or always
    /// fired.
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
        if !(self.staleness_exponent >= 0.0 && self.staleness_exponent.is_finite()) {
            return Err(format!(
                "staleness_exponent must be non-negative and finite, got {}",
                self.staleness_exponent
            ));
        }
        if !(self.failure_prob >= 0.0 && self.failure_prob <= 1.0) {
            return Err(format!(
                "failure_prob must be in [0, 1], got {}",
                self.failure_prob
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
        if !(self.probe_backoff > 0.0 && self.probe_backoff.is_finite()) {
            return Err(format!(
                "probe_backoff must be positive and finite, got {}",
                self.probe_backoff
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
        c.failure_prob = 1.0;
        c.comm_latency = 0.0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_failure_prob() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let mut c = FlConfig::tiny();
            c.failure_prob = bad;
            let err = c.validate().unwrap_err();
            assert!(err.contains("failure_prob"), "got: {err}");
        }
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
    fn validate_rejects_bad_probe_backoff() {
        for bad in [0.0, -3.0, f64::NAN] {
            let mut c = FlConfig::tiny();
            c.probe_backoff = bad;
            let err = c.validate().unwrap_err();
            assert!(err.contains("probe_backoff"), "got: {err}");
        }
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
    fn validate_rejects_bad_staleness_exponent() {
        for bad in [-0.5, f64::NAN, f64::INFINITY] {
            let mut c = FlConfig::tiny();
            c.staleness_exponent = bad;
            let err = c.validate().unwrap_err();
            assert!(err.contains("staleness_exponent"), "got: {err}");
        }
        let mut c = FlConfig::tiny();
        c.staleness_exponent = 0.0;
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

//! [`AggregationStrategy`] objects: what to aggregate and when.
//!
//! Each object encodes one server-side aggregation policy over the
//! shared [`Scheduler`](crate::sched::Scheduler) core — it samples and
//! dispatches cohorts, folds finished local updates into the global
//! model, and keeps per-strategy state (FedAsync's version counter,
//! FedAT's tier models, the hierarchical grouper). Everything else —
//! clock, dropout, evaluation cadence, tracing — lives in the
//! scheduler.

use crate::aggregate::{fedasync_mix, staleness_alpha, weighted_average};
use crate::config::STALENESS_EXPONENT;
use crate::engine::Strategy;
use crate::sched::{AggregationStrategy, Cohort, HorizonPolicy, Scheduler, SharedParams};
use ecofl_grouping::{Grouper, GroupingConfig, GroupingStrategy, RegroupOutcome};

/// Builds the strategy object behind a [`Strategy`] selector.
#[must_use]
pub fn strategy_object(strategy: Strategy) -> Box<dyn AggregationStrategy> {
    match strategy {
        Strategy::FedAvg => Box::new(FedAvg::new()),
        Strategy::FedAsync => Box::new(FedAsync::new()),
        Strategy::FedAt => Box::new(Hierarchical::new(HierKind::FedAt)),
        Strategy::Astraea => Box::new(Hierarchical::new(HierKind::Astraea)),
        Strategy::EcoFl { dynamic_grouping } => {
            Box::new(Hierarchical::new(HierKind::EcoFl { dynamic_grouping }))
        }
    }
}

/// Synchronous FedAvg (McMahan et al. 2017): one global barrier per
/// round over a random client sample; the round lasts as long as its
/// slowest participant.
pub(crate) struct FedAvg {
    round: u64,
}

impl FedAvg {
    /// Creates the strategy at round zero.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self { round: 0 }
    }

    fn dispatch(&self, sched: &mut Scheduler<'_>) {
        let cfg = sched.config();
        let n = cfg.num_clients;
        let k = cfg.clients_per_round.min(n);
        let members = sched.rng().sample_indices(n, k);
        let round_time = sched.cohort_round_time(&members);
        let t = sched.now();
        let r = self.round as usize;
        sched.trace_round_span(0, r, t, t + round_time);
        for &c in &members {
            let done = t + sched.response_latency(c);
            sched.trace_local_train(c, r, t, done);
        }
        sched.dispatch_after(
            round_time,
            Cohort {
                group: 0,
                members,
                start_params: SharedParams::default(),
                version: self.round,
                started: t,
            },
        );
    }
}

impl Default for FedAvg {
    fn default() -> Self {
        Self::new()
    }
}

impl AggregationStrategy for FedAvg {
    fn name(&self) -> &'static str {
        "FedAvg"
    }

    fn seed_salt(&self) -> u64 {
        0xFEDA
    }

    fn horizon_policy(&self) -> HorizonPolicy {
        HorizonPolicy::ProcessAll
    }

    fn initial_eval_mark(&self) -> f64 {
        f64::NEG_INFINITY
    }

    fn begin(&mut self, sched: &mut Scheduler<'_>) {
        if sched.now() < sched.config().horizon {
            self.dispatch(sched);
        }
    }

    fn on_cohort(&mut self, sched: &mut Scheduler<'_>, t: f64, cohort: Cohort) {
        // The cohort trains from the live global model: FedAvg has a
        // single outstanding round, so dispatch-time and completion-time
        // globals coincide. The streaming fold keeps one finished update
        // live at a time and is bit-identical to train-then-weighted_average.
        let start = sched.global_shared();
        let avg = sched.train_cohort_folded(&cohort.members, &start, 0.0, cohort.version);
        sched.set_global(avg);
        sched.trace_aggregation(0, t, cohort.members.len() as f64);
        sched.note_update(t);
        self.round += 1;
        for &c in &cohort.members {
            let _ = sched.perturb(c);
        }
        sched.maybe_eval(t);
        if t < sched.config().horizon {
            self.dispatch(sched);
        }
    }
}

/// Fully asynchronous FedAsync (Xie et al. 2019): single-client cohorts
/// mixed into the global model with a constant α as each one lands (the
/// staleness-adaptive weighting is an optional variant in Xie et al.;
/// Eco-FL's own inter-group aggregator uses the staleness-aware form,
/// §5.1).
pub(crate) struct FedAsync {
    version: u64,
    tag: u64,
}

impl FedAsync {
    /// Creates the strategy at version zero.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self { version: 0, tag: 0 }
    }

    fn dispatch_one(&self, sched: &mut Scheduler<'_>) {
        let n = sched.config().num_clients;
        let client = sched.rng().range_usize(0, n);
        let delay = sched.response_latency(client) + sched.config().comm_latency;
        let started = sched.now();
        // A cheap handle on the dispatch-time snapshot: every worker
        // dispatched between two global updates shares one vector.
        let start_params = sched.global_shared();
        sched.dispatch_after(
            delay,
            Cohort {
                group: 0,
                members: vec![client],
                start_params,
                version: self.version,
                started,
            },
        );
    }
}

impl Default for FedAsync {
    fn default() -> Self {
        Self::new()
    }
}

impl AggregationStrategy for FedAsync {
    fn name(&self) -> &'static str {
        "FedAsync"
    }

    fn seed_salt(&self) -> u64 {
        0xA517
    }

    fn horizon_policy(&self) -> HorizonPolicy {
        HorizonPolicy::DiscardLate
    }

    fn initial_eval_mark(&self) -> f64 {
        0.0
    }

    fn begin(&mut self, sched: &mut Scheduler<'_>) {
        let cfg = sched.config();
        let concurrent = cfg.clients_per_round.min(cfg.num_clients);
        for _ in 0..concurrent {
            self.dispatch_one(sched);
        }
    }

    fn on_cohort(&mut self, sched: &mut Scheduler<'_>, t: f64, cohort: Cohort) {
        self.tag += 1;
        let client = cohort.members[0];
        sched.trace_local_train(client, cohort.version as usize, cohort.started, t);
        let update = sched.train_client(client, &cohort.start_params, 0.0, self.tag);
        let alpha = sched.config().alpha.clamp(1e-3, 1.0);
        fedasync_mix(sched.global_mut(), &update.params, alpha);
        self.version += 1;
        sched.trace_aggregation(client, t, alpha);
        sched.trace_gauge("staleness_alpha", t, alpha);
        sched.note_update(t);
        let _ = sched.perturb(client);
        // Immediately dispatch a replacement worker.
        self.dispatch_one(sched);
        sched.maybe_eval(t);
    }
}

/// Which hierarchical flavour to run.
#[derive(Debug, Clone, Copy)]
pub(crate) enum HierKind {
    /// FedAT latency tiers (Chai et al. 2021).
    FedAt,
    /// The hierarchical framework with Astraea's data-only grouping.
    Astraea,
    /// Eco-FL (this paper): Eq. 4 grouping, FedProx intra-group rounds,
    /// staleness-aware async inter-group mixing.
    EcoFl {
        /// Enable Algorithm 1 dynamic re-grouping.
        dynamic_grouping: bool,
    },
}

impl HierKind {
    fn grouping(self, lambda: f64) -> GroupingStrategy {
        match self {
            HierKind::FedAt => GroupingStrategy::LatencyOnly,
            HierKind::Astraea => GroupingStrategy::DataOnly,
            HierKind::EcoFl { .. } => GroupingStrategy::EcoFl { lambda },
        }
    }

    fn dynamic(self) -> bool {
        matches!(
            self,
            HierKind::EcoFl {
                dynamic_grouping: true
            }
        )
    }

    fn proximal(self) -> bool {
        !matches!(self, HierKind::FedAt)
    }

    fn name(self) -> &'static str {
        match self {
            HierKind::FedAt => "FedAT",
            HierKind::Astraea => "Astraea",
            HierKind::EcoFl {
                dynamic_grouping: true,
            } => "Eco-FL",
            HierKind::EcoFl {
                dynamic_grouping: false,
            } => "Eco-FL w/o DG",
        }
    }
}

/// The grouping-based hierarchical framework (§5): synchronous
/// intra-group rounds, asynchronous inter-group aggregation, one
/// concurrent round per group. [`HierKind`] selects the grouping
/// criterion and inter-group mixing rule.
pub(crate) struct Hierarchical {
    kind: HierKind,
    grouper: Option<Grouper>,
    // FedAT keeps the latest model of every tier and recomputes the
    // global as a straggler-boosted weighted average of tier models
    // (Chai et al. 2021) — not incremental mixing. Averaging tier models
    // that drift toward disjoint label subsets is exactly what degrades
    // FedAT under RLG-NIID (Fig. 8). Shared handles: a tier's in-flight
    // cohort holds the same snapshot the tier table does.
    tier_models: Vec<SharedParams>,
    version: u64,
    tag: u64,
    regroups: u64,
}

impl Hierarchical {
    /// Creates the strategy; the grouper is built at [`begin`] time from
    /// the run's latency model.
    ///
    /// [`begin`]: AggregationStrategy::begin
    #[must_use]
    pub(crate) fn new(kind: HierKind) -> Self {
        Self {
            kind,
            grouper: None,
            tier_models: Vec::new(),
            version: 0,
            tag: 0,
            regroups: 0,
        }
    }

    fn grouper(&self) -> &Grouper {
        self.grouper.as_ref().expect("grouper built in begin()")
    }

    /// The model a group's next round synchronizes from: FedAT tiers
    /// evolve from their own tier model (semi-independent FedAvg per
    /// tier; the global weighted average is the served model only),
    /// everyone else from the live global model. Returned as a shared
    /// handle: dispatching a cohort never copies the weight vector.
    fn start_model(&self, sched: &mut Scheduler<'_>, group: usize) -> SharedParams {
        match self.kind {
            HierKind::FedAt => self.tier_models[group].clone(),
            _ => sched.global_shared(),
        }
    }

    /// Dispatches the next round for `group` at its current start model.
    fn dispatch(&self, sched: &mut Scheduler<'_>, group: usize) {
        let members_all = &self.grouper().groups()[group].members;
        if members_all.is_empty() {
            // Empty group: dispatch a retry probe (members may be
            // regrouped in); the empty-members round time is the
            // configured probe backoff.
            let retry_delay = sched.cohort_round_time(&[]);
            let started = sched.now();
            sched.dispatch_after(
                retry_delay,
                Cohort {
                    group,
                    members: Vec::new(),
                    start_params: SharedParams::default(),
                    version: self.version,
                    started,
                },
            );
            return;
        }
        let per_group = sched.config().clients_per_group_round();
        let take = per_group.min(members_all.len());
        let picked = sched.rng().sample_indices(members_all.len(), take);
        let members: Vec<usize> = picked
            .into_iter()
            .map(|i| members_all[i] as usize)
            .collect();
        // Synchronous intra-group barrier: slowest sampled member.
        let round_time = sched.cohort_round_time(&members);
        // Local-train windows at the latencies the barrier was computed
        // from (perturbations land only after the merge).
        let start = sched.now();
        for &c in &members {
            let done = start + sched.response_latency(c);
            sched.trace_local_train(c, self.version as usize, start, done);
        }
        let start_params = self.start_model(sched, group);
        sched.dispatch_after(
            round_time,
            Cohort {
                group,
                members,
                start_params,
                version: self.version,
                started: start,
            },
        );
    }

    /// Folds one latency observation into Algorithm 1, tracing the
    /// outcome; the caller decides which outcomes count as re-grouping
    /// events.
    fn observe(&mut self, sched: &Scheduler<'_>, t: f64, client: usize) -> RegroupOutcome {
        let latency = sched.response_latency(client);
        let outcome = self
            .grouper
            .as_mut()
            .expect("grouper built in begin()")
            .observe_latency(client, latency);
        if let Some(tr) = sched.tracer() {
            outcome.trace(tr, t, client);
        }
        outcome
    }
}

impl AggregationStrategy for Hierarchical {
    fn name(&self) -> &'static str {
        self.kind.name()
    }

    fn seed_salt(&self) -> u64 {
        0x41E2
    }

    fn horizon_policy(&self) -> HorizonPolicy {
        HorizonPolicy::DiscardLate
    }

    fn initial_eval_mark(&self) -> f64 {
        0.0
    }

    fn begin(&mut self, sched: &mut Scheduler<'_>) {
        let cfg = sched.config();
        let lambda = match cfg.grouping {
            GroupingStrategy::EcoFl { lambda } => lambda,
            _ => 1000.0,
        };
        let grouping_cfg = GroupingConfig {
            strategy: self.kind.grouping(lambda),
            ..cfg.grouping_config()
        };
        // One label histogram per *shard*, shared by the virtual
        // clients mapped onto it: profiling a million-virtual-client
        // population costs O(shards·classes) histogram work and one
        // `u32` per client, and the grouper scores Eq. 4's data term
        // per shard, not per client.
        let data = &sched.setup().data;
        let shard_hists: Vec<Vec<f64>> = data
            .clients()
            .iter()
            .map(|d| d.label_counts().iter().map(|&c| c as f64).collect())
            .collect();
        let shard_of: Vec<u32> = (0..data.num_clients())
            .map(|i| data.shard_index(i) as u32)
            .collect();
        let latencies = sched.all_latencies();
        self.grouper = Some(Grouper::initial_shared(
            latencies,
            shard_hists,
            shard_of,
            grouping_cfg,
            sched.rng(),
        ));
        let num_groups = self.grouper().groups().len();
        if matches!(self.kind, HierKind::FedAt) {
            self.tier_models = vec![sched.global_shared(); num_groups];
        }
        for g in 0..num_groups {
            self.dispatch(sched, g);
        }
    }

    fn on_cohort(&mut self, sched: &mut Scheduler<'_>, t: f64, cohort: Cohort) {
        if cohort.members.is_empty() {
            self.dispatch(sched, cohort.group);
            return;
        }
        self.tag += 1;
        // Intra-group synchronous round (FedProx local solver for Eco-FL
        // and Astraea; plain SGD for FedAT).
        let mu = if self.kind.proximal() {
            sched.config().mu
        } else {
            0.0
        };
        // Streaming fold: bit-identical to train-then-weighted_average,
        // but one update is live at a time.
        let group_model =
            sched.train_cohort_folded(&cohort.members, &cohort.start_params, mu, self.tag);

        sched.trace_round_span(cohort.group, cohort.version as usize, cohort.started, t);
        // Inter-group aggregation.
        match self.kind {
            HierKind::FedAt => {
                // FedAT: store the tier's fresh model and rebuild the
                // global as a weighted average over all tier models, with
                // slower tiers weighted higher to counter their lower
                // update frequency.
                self.tier_models[cohort.group] = SharedParams::new(group_model);
                let mut centers: Vec<(usize, f64)> = self
                    .grouper()
                    .groups()
                    .iter()
                    .map(|g| (g.id, g.center()))
                    .collect();
                centers.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
                let t_count = centers.len();
                let refs: Vec<(&[f32], f64)> = centers
                    .iter()
                    .enumerate()
                    .map(|(rank, &(id, _))| {
                        (
                            self.tier_models[id].as_slice(),
                            (rank + 1) as f64 / t_count as f64,
                        )
                    })
                    .collect();
                sched.set_global(weighted_average(&refs));
                sched.trace_aggregation(cohort.group, t, 1.0);
            }
            _ => {
                let alpha = staleness_alpha(
                    sched.config().alpha,
                    self.version - cohort.version,
                    STALENESS_EXPONENT,
                )
                .clamp(1e-3, 1.0);
                fedasync_mix(sched.global_mut(), &group_model, alpha);
                sched.trace_aggregation(cohort.group, t, alpha);
                sched.trace_gauge("staleness_alpha", t, alpha);
            }
        }
        self.version += 1;
        sched.note_update(t);

        // Runtime dynamics on participants, then Algorithm 1.
        for &c in &cohort.members {
            let changed = sched.perturb(c);
            if self.kind.dynamic() && changed {
                match self.observe(sched, t, c) {
                    RegroupOutcome::Moved { .. }
                    | RegroupOutcome::Dropped { .. }
                    | RegroupOutcome::Rejoined { .. } => self.regroups += 1,
                    RegroupOutcome::Stayed | RegroupOutcome::StillDropped => {}
                }
            }
        }
        // Give dropped clients a chance to rejoin, at the latency each
        // was dropped with: a pooled client is in no in-flight cohort,
        // so nothing has perturbed it since.
        if self.kind.dynamic() {
            let grouper = self.grouper.as_mut().expect("grouper built in begin()");
            debug_assert!(
                grouper
                    .dropped()
                    .into_iter()
                    .all(|c| grouper.latency_of(c).to_bits() == sched.response_latency(c).to_bits()),
                "a pooled client's recorded latency left the latency model's"
            );
            for (client, to) in grouper.rejoin_pass() {
                if let Some(tr) = sched.tracer() {
                    RegroupOutcome::Rejoined { to }.trace(tr, t, client);
                }
                self.regroups += 1;
            }
        }

        self.dispatch(sched, cohort.group);
        sched.maybe_eval(t);
    }

    fn regroup_events(&self) -> u64 {
        self.regroups
    }

    fn dropped_final(&self) -> usize {
        self.grouper.as_ref().map_or(0, Grouper::num_dropped)
    }
}

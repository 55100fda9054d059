//! The event-driven round scheduler at the heart of the FL engine.
//!
//! One [`Scheduler`] drives every aggregation strategy: it owns the
//! virtual clock (an [`ecofl_simnet::EventQueue`] of [`Cohort`]
//! completions), client dispatch, the evaluation cadence, and all
//! [`Tracer`] instrumentation.
//! Strategy objects implementing [`AggregationStrategy`] only decide
//! *what to aggregate and when*: they schedule cohorts, fold finished
//! local updates into the global model, and keep whatever per-strategy
//! state (tier models, grouper, staleness versions) they need.
//!
//! Local training runs on the calling thread, one client at a time:
//! each client draws from its own `(seed, client, tag)` RNG stream, and
//! a cohort's updates are folded into the average in member order as
//! soon as each is trained, so exactly one finished [`LocalUpdate`] is
//! alive at a time (asserted by the `memory_bound` integration test).

use crate::aggregate::StreamingAverage;
use crate::client::{local_train, LocalTrainConfig, LocalUpdate};
use crate::config::{FlConfig, PROBE_BACKOFF};
use crate::engine::{FlSetup, RunResult};
use crate::latency::{LatencyModel, INITIAL_DEGREES};
use ecofl_compat::sync::Shared;
use ecofl_obs::{Domain, EventKind, SpanKind, Tracer};
use ecofl_simnet::EventQueue;
use ecofl_tensor::{argmax, Network, Tensor};
use ecofl_util::{Rng, TimeSeries};

/// A cheap shared handle on a frozen parameter snapshot. Cloning bumps
/// a reference count instead of copying the weight vector, so an
/// in-flight cohort costs O(1) memory for its start model no matter how
/// many cohorts share the same snapshot. Deref coercion makes a
/// `&SharedParams` usable anywhere a `&[f32]` is expected.
pub(crate) type SharedParams = Shared<Vec<f32>>;

/// A scheduled unit of client work: the cohort of clients that finishes
/// local training together. FedAvg rounds are one cohort of the whole
/// sample, FedAsync updates are single-member cohorts, hierarchical
/// strategies dispatch one cohort per group round.
pub struct Cohort {
    /// Owning group (0 for flat strategies).
    pub group: usize,
    /// Participating clients; empty cohorts are retry probes for
    /// currently-empty groups.
    pub members: Vec<usize>,
    /// Shared handle on the model snapshot the cohort synchronized
    /// from; an empty vector when the strategy trains from the live
    /// global model instead.
    pub start_params: SharedParams,
    /// Global model version (or round index) at dispatch time.
    pub version: u64,
    /// Virtual dispatch timestamp.
    pub started: f64,
}

/// What the scheduler does with cohorts that complete at or after the
/// horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HorizonPolicy {
    /// Stop at the first pop past the horizon, discarding the cohort
    /// (FedAsync and the hierarchical strategies).
    DiscardLate,
    /// Process every pending cohort; the strategy stops dispatching new
    /// ones past the horizon (FedAvg's trailing synchronous round).
    ProcessAll,
}

/// An aggregation policy driven by the [`Scheduler`].
///
/// Implementations decide what to aggregate and when; the scheduler
/// owns the clock, dispatch, dropout, evaluation and tracing.
pub trait AggregationStrategy {
    /// Display name used in figures and [`RunResult::strategy`].
    fn name(&self) -> &'static str;

    /// Per-strategy RNG stream salt (xor-ed into the run seed).
    fn seed_salt(&self) -> u64;

    /// Horizon semantics for late cohorts.
    fn horizon_policy(&self) -> HorizonPolicy;

    /// Initial evaluation watermark: `0.0` delays the first periodic
    /// eval by one interval, `NEG_INFINITY` evaluates after the first
    /// cohort.
    fn initial_eval_mark(&self) -> f64;

    /// Called once at virtual time zero: build strategy state and
    /// dispatch the initial cohorts.
    fn begin(&mut self, sched: &mut Scheduler<'_>);

    /// Handle one completed cohort at virtual time `t`.
    fn on_cohort(&mut self, sched: &mut Scheduler<'_>, t: f64, cohort: Cohort);

    /// Dynamic re-grouping moves/drops/rejoins performed (hierarchical
    /// strategies only).
    fn regroup_events(&self) -> u64 {
        0
    }

    /// Clients in the drop-out pool at the horizon.
    fn dropped_final(&self) -> usize {
        0
    }
}

/// The event-driven round scheduler: one virtual clock, one global
/// model, one dropout model and one tracer feed for every strategy.
pub struct Scheduler<'a> {
    setup: &'a FlSetup,
    tracer: Option<&'a Tracer>,
    rng: Rng,
    latency: LatencyModel,
    evaluator: Evaluator,
    queue: EventQueue<Cohort>,
    w: Vec<f32>,
    /// Lazily-built shared snapshot of `w`, handed to dispatching
    /// cohorts; invalidated whenever the global model changes so stale
    /// snapshots are never served.
    shared_snapshot: Option<SharedParams>,
    accuracy: TimeSeries,
    updates: u64,
    last_eval: f64,
}

impl<'a> Scheduler<'a> {
    /// Runs `strategy` over `setup` and returns the finished
    /// [`RunResult`], recording every scheduler record into `tracer`
    /// (`None` for nothing). The tracer only observes: results are
    /// bit-identical with or without it.
    pub fn drive(
        setup: &'a FlSetup,
        tracer: impl Into<Option<&'a Tracer>>,
        strategy: &mut dyn AggregationStrategy,
    ) -> RunResult {
        let cfg = &setup.config;
        if let Err(msg) = cfg.validate() {
            panic!("invalid FlConfig: {msg}");
        }
        let mut rng = Rng::new(cfg.seed ^ strategy.seed_salt());
        let latency = make_latency(cfg, &mut rng);
        let mut sched = Scheduler {
            setup,
            tracer: tracer.into(),
            rng,
            latency,
            evaluator: Evaluator::new(setup),
            queue: EventQueue::new(),
            w: initial_params(setup),
            shared_snapshot: None,
            accuracy: TimeSeries::new(),
            updates: 0,
            last_eval: strategy.initial_eval_mark(),
        };
        let acc0 = sched.evaluator.accuracy(&sched.w);
        sched.record_accuracy(0.0, acc0);
        strategy.begin(&mut sched);
        let discard_late = strategy.horizon_policy() == HorizonPolicy::DiscardLate;
        while let Some((t, cohort)) = sched.queue.pop() {
            if discard_late && t >= cfg.horizon {
                break;
            }
            strategy.on_cohort(&mut sched, t, cohort);
        }
        let recall = sched.evaluator.recall(&sched.w, setup.data.num_classes());
        finish(
            strategy.name(),
            sched.accuracy,
            sched.updates,
            strategy.regroup_events(),
            strategy.dropped_final(),
            recall,
        )
    }

    /// The experiment setup this run drives.
    #[must_use]
    pub(crate) fn setup(&self) -> &FlSetup {
        self.setup
    }

    /// The run configuration.
    #[must_use]
    pub(crate) fn config(&self) -> &FlConfig {
        &self.setup.config
    }

    /// Current virtual time (timestamp of the last completed cohort).
    #[must_use]
    pub(crate) fn now(&self) -> f64 {
        self.queue.now()
    }

    /// The strategy-stream RNG (latency sampling, cohort sampling,
    /// dropout and dynamics all draw from this one stream, in dispatch
    /// order).
    pub(crate) fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// The tracer handle, when tracing.
    #[must_use]
    pub(crate) fn tracer(&self) -> Option<&Tracer> {
        self.tracer
    }

    /// Current response latency of `client`, virtual seconds.
    #[must_use]
    pub(crate) fn response_latency(&self, client: usize) -> f64 {
        self.latency.response_latency(client)
    }

    /// Response latencies of every client, indexed by client id.
    #[must_use]
    pub(crate) fn all_latencies(&self) -> Vec<f64> {
        self.latency.all_latencies()
    }

    /// Synchronous-barrier duration of a cohort: its slowest member's
    /// response latency plus the client↔server communication latency.
    ///
    /// An **empty** cohort is a retry probe for a group with no
    /// dispatchable members; it completes after the fixed
    /// [`PROBE_BACKOFF`] delay. (It used to fold from `0.0` and return
    /// bare `comm_latency`, silently pinning probe cadence to an
    /// unrelated knob — a default 1-second comm latency meant a probe
    /// storm against any temporarily-empty group.)
    #[must_use]
    pub(crate) fn cohort_round_time(&self, members: &[usize]) -> f64 {
        if members.is_empty() {
            return PROBE_BACKOFF;
        }
        members
            .iter()
            .map(|&c| self.latency.response_latency(c))
            .fold(0.0, f64::max)
            + self.setup.config.comm_latency
    }

    /// Applies runtime dynamics to `client` (collaborative-degree
    /// resampling); returns whether its latency changed.
    pub(crate) fn perturb(&mut self, client: usize) -> bool {
        self.latency.maybe_perturb(client, &mut self.rng)
    }

    /// A shared handle on the current global model. The snapshot is
    /// built (one vector copy) at most once per model version and then
    /// served by reference-count bump to every cohort dispatched before
    /// the next update — so N in-flight cohorts reading the same global
    /// cost one vector, not N.
    pub(crate) fn global_shared(&mut self) -> SharedParams {
        if let Some(s) = &self.shared_snapshot {
            return s.clone();
        }
        let s = SharedParams::new(self.w.clone());
        self.shared_snapshot = Some(s.clone());
        s
    }

    /// Mutable access to the global model (incremental async mixing).
    pub(crate) fn global_mut(&mut self) -> &mut Vec<f32> {
        self.shared_snapshot = None;
        &mut self.w
    }

    /// Replaces the global model wholesale (synchronous averaging).
    pub(crate) fn set_global(&mut self, w: Vec<f32>) {
        self.shared_snapshot = None;
        self.w = w;
    }

    /// Schedules `cohort` to complete `delay` virtual seconds from now.
    pub(crate) fn dispatch_after(&mut self, delay: f64, cohort: Cohort) {
        self.queue.schedule_after(delay, cohort);
    }

    /// Trains client `c` from `start` parameters on its deterministic
    /// `(seed, client, tag)` RNG stream, so the update depends on
    /// nothing but its arguments and the setup.
    #[must_use]
    pub(crate) fn train_client(&self, c: usize, start: &[f32], mu: f32, tag: u64) -> LocalUpdate {
        let cfg = &self.setup.config;
        let train_cfg = LocalTrainConfig {
            epochs: cfg.local_epochs,
            batch_size: cfg.batch_size,
            lr: cfg.learning_rate,
            mu,
        };
        let mut rng = client_rng(cfg.seed, c, tag);
        local_train(
            self.setup.arch,
            start,
            self.setup.data.client(c),
            &train_cfg,
            &mut rng,
        )
    }

    /// Trains `members` in order with [`Scheduler::train_client`] and
    /// folds each update into a [`StreamingAverage`] as soon as it is
    /// trained, so one weight vector is live at a time whatever the
    /// cohort (or client-population) size.
    ///
    /// Per-client sample counts are fixed by the dataset before
    /// training, so the total weight is known up front and the fold
    /// performs the exact operation sequence of
    /// [`crate::aggregate::weighted_average`] over the full member list
    /// — the returned average is bit-identical to the unfused
    /// train-then-aggregate path.
    ///
    /// A cohort that is empty, or whose members hold no training
    /// samples, has nothing to average: `start` comes back unchanged.
    #[must_use]
    pub(crate) fn train_cohort_folded(
        &self,
        members: &[usize],
        start: &[f32],
        mu: f32,
        tag: u64,
    ) -> Vec<f32> {
        let total: f64 = members
            .iter()
            .map(|&c| self.setup.data.client(c).len() as f64)
            .sum();
        if total == 0.0 {
            return start.to_vec();
        }
        let mut acc = StreamingAverage::new(start.len(), total);
        for &c in members {
            let update = self.train_client(c, start, mu, tag);
            acc.fold(&update.params, update.num_samples as f64);
        }
        acc.finish()
    }

    /// Records one global model update (counter + tally).
    pub(crate) fn note_update(&mut self, t: f64) {
        self.updates += 1;
        if let Some(tr) = self.tracer {
            tr.counter("global_updates", t, 1.0);
        }
    }

    /// Evaluates the global model if the cadence interval elapsed.
    ///
    /// The watermark advances in **whole-interval multiples** from its
    /// previous position, keeping successive evaluations on the
    /// configured `eval_interval` grid. (It used to jump to the cohort
    /// completion time `t` itself, so under irregular completions every
    /// eval re-anchored the grid and the effective cadence drifted up
    /// to one interval late per eval — pinned by the
    /// `eval_watermark_advances_on_interval_grid` regression test.)
    pub(crate) fn maybe_eval(&mut self, t: f64) {
        let interval = self.setup.config.eval_interval;
        if t - self.last_eval >= interval {
            let acc = self.evaluator.accuracy(&self.w);
            self.record_accuracy(t, acc);
            if self.last_eval.is_finite() {
                self.last_eval += ((t - self.last_eval) / interval).floor() * interval;
            } else {
                // A non-finite mark (FedAvg's evaluate-after-first-
                // cohort sentinel) has no grid to stay on yet; anchor
                // it at the first eval time.
                self.last_eval = t;
            }
        }
    }

    /// Adds one accuracy sample to the result series and the trace.
    fn record_accuracy(&mut self, t: f64, acc: f64) {
        self.accuracy.push(t, acc);
        self.trace_gauge("accuracy", t, acc);
    }

    /// Traces one round span (`Domain::Fl`).
    pub(crate) fn trace_round_span(&self, entity: usize, index: usize, start: f64, end: f64) {
        if let Some(tr) = self.tracer {
            tr.span(Domain::Fl, SpanKind::Round, entity, index, 0, start, end);
        }
    }

    /// Traces one client's local-training window.
    pub(crate) fn trace_local_train(&self, client: usize, index: usize, start: f64, end: f64) {
        if let Some(tr) = self.tracer {
            tr.span(
                Domain::Fl,
                SpanKind::LocalTrain,
                client,
                index,
                0,
                start,
                end,
            );
        }
    }

    /// Traces one aggregation event.
    pub(crate) fn trace_aggregation(&self, entity: usize, t: f64, value: f64) {
        if let Some(tr) = self.tracer {
            tr.event(Domain::Fl, EventKind::Aggregation, entity, t, value);
        }
    }

    /// Traces a named gauge sample.
    pub(crate) fn trace_gauge(&self, name: &'static str, t: f64, value: f64) {
        if let Some(tr) = self.tracer {
            tr.gauge(name, t, value);
        }
    }
}

/// Batched test-set evaluator that reuses one network instance.
struct Evaluator {
    net: Network,
    batches: Vec<(Tensor, Vec<usize>)>,
}

impl Evaluator {
    fn new(setup: &FlSetup) -> Self {
        let mut rng = Rng::new(setup.config.seed ^ 0xEEAA);
        let test = setup.data.test();
        let net = setup
            .arch
            .build(test.feature_dim(), test.num_classes(), &mut rng);
        let batches = (0..test.len())
            .collect::<Vec<_>>()
            .chunks(256)
            .map(|chunk| {
                let (feats, labels) = test.gather(chunk);
                (
                    Tensor::from_vec(feats, &[labels.len(), test.feature_dim()]),
                    labels,
                )
            })
            .collect();
        Self { net, batches }
    }

    fn accuracy(&mut self, params: &[f32]) -> f64 {
        self.net.set_params(params);
        let mut correct = 0.0;
        let mut total = 0.0;
        for (x, y) in &self.batches {
            let acc = batch_accuracy(&mut self.net, x, y);
            correct += acc * y.len() as f64;
            total += y.len() as f64;
        }
        correct / total.max(1.0)
    }

    /// Per-class recall of `params` on the test set.
    fn recall(&mut self, params: &[f32], num_classes: usize) -> Vec<f64> {
        self.net.set_params(params);
        let mut correct = vec![0usize; num_classes];
        let mut total = vec![0usize; num_classes];
        for (x, y) in &self.batches {
            let logits = self.net.forward(x);
            self.net.clear_caches();
            let k = logits.cols();
            for (row, &t) in logits.data().chunks(k).zip(y) {
                total[t] += 1;
                // A NaN row (a diverged model) predicts nothing.
                if argmax(row) == Some(t) {
                    correct[t] += 1;
                }
            }
        }
        correct
            .iter()
            .zip(&total)
            .map(|(&c, &t)| if t == 0 { 0.0 } else { c as f64 / t as f64 })
            .collect()
    }
}

/// Top-1 accuracy of `net` on one batch — what `Network::evaluate`
/// returns beside the softmax-CE loss, without computing that loss.
pub(crate) fn batch_accuracy(net: &mut Network, x: &Tensor, y: &[usize]) -> f64 {
    let logits = net.forward(x);
    net.clear_caches();
    if y.is_empty() {
        return 0.0;
    }
    let correct = logits
        .data()
        .chunks(logits.cols().max(1))
        .zip(y)
        .filter(|&(row, &t)| argmax(row) == Some(t))
        .count();
    correct as f64 / y.len() as f64
}

/// Deterministic per-(client, round) RNG stream.
fn client_rng(seed: u64, client: usize, tag: u64) -> Rng {
    Rng::new(
        seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag.wrapping_mul(0xD134_2543),
    )
}

/// Initial global parameters (same for every strategy at equal seed).
fn initial_params(setup: &FlSetup) -> Vec<f32> {
    let mut rng = Rng::new(setup.config.seed ^ 0x11D0);
    let test = setup.data.test();
    setup
        .arch
        .build(test.feature_dim(), test.num_classes(), &mut rng)
        .params()
}

/// Builds the latency model: explicit overrides win, otherwise sample.
fn make_latency(cfg: &FlConfig, rng: &mut Rng) -> LatencyModel {
    match &cfg.base_delay_override {
        Some(delays) => {
            assert_eq!(
                delays.len(),
                cfg.num_clients,
                "base_delay_override length must match num_clients"
            );
            LatencyModel::from_delays(delays, cfg.dynamics.clone())
        }
        None => LatencyModel::sample(
            cfg.num_clients,
            cfg.base_delay_mean,
            cfg.base_delay_std,
            &INITIAL_DEGREES,
            cfg.dynamics.clone(),
            rng,
        ),
    }
}

fn finish(
    name: &str,
    accuracy: TimeSeries,
    updates: u64,
    regroups: u64,
    dropped: usize,
    final_recall: Vec<f64>,
) -> RunResult {
    let final_accuracy = accuracy.last().map_or(0.0, |(_, v)| v);
    let best_accuracy = accuracy.max_value().unwrap_or(0.0);
    RunResult {
        strategy: name.to_owned(),
        accuracy,
        final_accuracy,
        best_accuracy,
        global_updates: updates,
        regroup_events: regroups,
        dropped_final: dropped,
        final_recall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::weighted_average;
    use crate::engine::FlSetup;
    use ecofl_data::{federated::PartitionScheme, FederatedDataset, SyntheticSpec};
    use ecofl_models::ModelArch;

    fn setup_with(cfg: FlConfig, samples_per_client: usize) -> FlSetup {
        let data = FederatedDataset::generate(
            &SyntheticSpec::mnist_like(),
            cfg.num_clients,
            samples_per_client,
            10,
            PartitionScheme::Iid,
            None,
            cfg.seed,
        );
        FlSetup {
            data,
            arch: ModelArch::Mlp,
            config: cfg,
        }
    }

    fn probe_cohort() -> Cohort {
        Cohort {
            group: 0,
            members: Vec::new(),
            start_params: SharedParams::default(),
            version: 0,
            started: 0.0,
        }
    }

    /// Dispatches empty probe cohorts at fixed absolute times and asks
    /// for an eval on each completion — the irregular-completion shape
    /// that used to drag the eval watermark off the grid.
    struct GridProbe {
        times: Vec<f64>,
    }

    impl AggregationStrategy for GridProbe {
        fn name(&self) -> &'static str {
            "grid-probe"
        }
        fn seed_salt(&self) -> u64 {
            0x6171
        }
        fn horizon_policy(&self) -> HorizonPolicy {
            HorizonPolicy::ProcessAll
        }
        fn initial_eval_mark(&self) -> f64 {
            0.0
        }
        fn begin(&mut self, sched: &mut Scheduler<'_>) {
            for &t in &self.times {
                sched.dispatch_after(t, probe_cohort());
            }
        }
        fn on_cohort(&mut self, sched: &mut Scheduler<'_>, t: f64, _cohort: Cohort) {
            sched.maybe_eval(t);
        }
    }

    #[test]
    fn eval_watermark_advances_on_interval_grid() {
        let cfg = FlConfig {
            num_clients: 4,
            clients_per_round: 2,
            eval_interval: 20.0,
            horizon: 1000.0,
            ..FlConfig::tiny()
        };
        let setup = setup_with(cfg, 12);
        // Completions at 25/45/60/85 with interval 20: the watermark
        // walks the grid 0→20→40→60→80, so *every* completion ≥ one
        // interval past the previous grid point evaluates. The old
        // `last_eval = t` re-anchoring skipped t=60 (60 − 45 < 20).
        let mut strat = GridProbe {
            times: vec![25.0, 45.0, 60.0, 85.0],
        };
        let r = Scheduler::drive(&setup, None, &mut strat);
        let eval_times: Vec<f64> = r.accuracy.points().iter().map(|&(t, _)| t).collect();
        assert_eq!(eval_times, vec![0.0, 25.0, 45.0, 60.0, 85.0]);
    }

    #[test]
    fn eval_grid_handles_nonfinite_initial_mark() {
        let cfg = FlConfig {
            num_clients: 4,
            clients_per_round: 2,
            eval_interval: 20.0,
            horizon: 1000.0,
            ..FlConfig::tiny()
        };
        let setup = setup_with(cfg, 12);
        // NEG_INFINITY sentinel (FedAvg): first completion must both
        // evaluate and anchor a *finite* grid — no NaN watermark.
        struct NegInf(Vec<f64>);
        impl AggregationStrategy for NegInf {
            fn name(&self) -> &'static str {
                "neg-inf-probe"
            }
            fn seed_salt(&self) -> u64 {
                0x6172
            }
            fn horizon_policy(&self) -> HorizonPolicy {
                HorizonPolicy::ProcessAll
            }
            fn initial_eval_mark(&self) -> f64 {
                f64::NEG_INFINITY
            }
            fn begin(&mut self, sched: &mut Scheduler<'_>) {
                for &t in &self.0 {
                    sched.dispatch_after(t, probe_cohort());
                }
            }
            fn on_cohort(&mut self, sched: &mut Scheduler<'_>, t: f64, _cohort: Cohort) {
                sched.maybe_eval(t);
            }
        }
        let mut strat = NegInf(vec![7.0, 12.0, 27.0, 55.0]);
        let r = Scheduler::drive(&setup, None, &mut strat);
        let eval_times: Vec<f64> = r.accuracy.points().iter().map(|&(t, _)| t).collect();
        // t=7 evaluates (sentinel) and anchors the grid at 7; 12 is
        // within the interval, 27 and 55 are on/past grid points.
        assert_eq!(eval_times, vec![0.0, 7.0, 27.0, 55.0]);
    }

    /// Captures scheduler-path observations from inside `begin`.
    #[derive(Default)]
    struct Inspect {
        empty_round_time: f64,
        single_round_time: f64,
        latency0: f64,
        snapshots_shared: bool,
        snapshot_invalidated: bool,
        folded_matches_batch: bool,
        empty_fold_is_start: bool,
    }

    impl AggregationStrategy for Inspect {
        fn name(&self) -> &'static str {
            "inspect"
        }
        fn seed_salt(&self) -> u64 {
            0x6173
        }
        fn horizon_policy(&self) -> HorizonPolicy {
            HorizonPolicy::ProcessAll
        }
        fn initial_eval_mark(&self) -> f64 {
            0.0
        }
        fn begin(&mut self, sched: &mut Scheduler<'_>) {
            self.empty_round_time = sched.cohort_round_time(&[]);
            self.single_round_time = sched.cohort_round_time(&[0]);
            self.latency0 = sched.response_latency(0);

            let a = sched.global_shared();
            let b = sched.global_shared();
            self.snapshots_shared = SharedParams::ptr_eq(&a, &b);
            sched.set_global(a.as_ref().clone());
            let c = sched.global_shared();
            self.snapshot_invalidated = !SharedParams::ptr_eq(&a, &c);

            // Streaming train-and-fold must be bit-identical to the
            // unfused train-then-aggregate path over the whole cohort.
            let members: Vec<usize> = (0..sched.config().num_clients).collect();
            let start = sched.w.clone();
            let folded = sched.train_cohort_folded(&members, &start, 0.0, 3);
            let updates: Vec<LocalUpdate> = members
                .iter()
                .map(|&c| sched.train_client(c, &start, 0.0, 3))
                .collect();
            let refs: Vec<(&[f32], f64)> = updates
                .iter()
                .map(|u| (u.params.as_slice(), u.num_samples as f64))
                .collect();
            let batch = weighted_average(&refs);
            self.folded_matches_batch = folded.len() == batch.len()
                && folded
                    .iter()
                    .zip(&batch)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            // No members: nothing to average, not a panic.
            self.empty_fold_is_start = sched.train_cohort_folded(&[], &start, 0.0, 3) == start;
        }
        fn on_cohort(&mut self, _sched: &mut Scheduler<'_>, _t: f64, _cohort: Cohort) {}
    }

    #[test]
    fn empty_cohort_uses_probe_backoff_and_fold_is_bit_identical() {
        let cfg = FlConfig {
            num_clients: 73,
            clients_per_round: 8,
            local_epochs: 1,
            comm_latency: 1.0,
            horizon: 10.0,
            ..FlConfig::tiny()
        };
        let setup = setup_with(cfg, 8);
        let mut strat = Inspect::default();
        let _ = Scheduler::drive(&setup, None, &mut strat);
        // Empty members = retry probe: explicit backoff, decoupled
        // from comm_latency.
        assert_eq!(strat.empty_round_time, PROBE_BACKOFF);
        assert_eq!(strat.single_round_time, strat.latency0 + 1.0);
        assert!(strat.snapshots_shared, "snapshot should be served shared");
        assert!(
            strat.snapshot_invalidated,
            "set_global must invalidate the shared snapshot"
        );
        assert!(
            strat.folded_matches_batch,
            "train_cohort_folded diverged from train_client + weighted_average"
        );
        assert!(
            strat.empty_fold_is_start,
            "an empty cohort must fold to its start parameters"
        );
    }
}

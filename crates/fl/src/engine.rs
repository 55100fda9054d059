//! The virtual-time FL engine façade: strategy selection and run results.
//!
//! All strategies train *real* models (genuine SGD on every client's
//! shard, one client at a time, folded in member order) while the clock
//! advances by simulated response latencies.
//! Since the scheduler/strategy split, this module only holds the
//! [`Strategy`] selector, the [`FlSetup`]/[`RunResult`]
//! types and the [`run`] entry point; the event-driven
//! round scheduler lives in [`crate::sched`] and the per-strategy
//! aggregation objects in `crate::strategies`:
//!
//! - [`Strategy::FedAvg`] — synchronous rounds over a random client
//!   sample; the round lasts as long as its slowest participant,
//! - [`Strategy::FedAsync`] — fully asynchronous single-client updates
//!   with staleness-discounted mixing,
//! - [`Strategy::FedAt`] — latency-only tiers, synchronous within a tier,
//!   asynchronous (slower-tier-boosted) across tiers,
//! - [`Strategy::Astraea`] — the hierarchical framework with Astraea's
//!   data-only grouping,
//! - [`Strategy::EcoFl`] — Eq. 4 grouping with FedProx intra-group rounds
//!   and staleness-aware async inter-group mixing; `dynamic_grouping`
//!   toggles Algorithm 1 (the "w/o DG" ablation of Fig. 7).

use crate::config::FlConfig;
use crate::sched::Scheduler;
use crate::strategies::strategy_object;
use ecofl_data::FederatedDataset;
use ecofl_models::ModelArch;
use ecofl_obs::Obs;
use ecofl_util::TimeSeries;

/// Which FL algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Synchronous FedAvg (McMahan et al. 2017).
    FedAvg,
    /// Asynchronous FedAsync (Xie et al. 2019).
    FedAsync,
    /// FedAT latency tiers (Chai et al. 2021).
    FedAt,
    /// Hierarchical framework with Astraea's data-only grouping.
    Astraea,
    /// Eco-FL (this paper).
    EcoFl {
        /// Enable Algorithm 1 dynamic re-grouping.
        dynamic_grouping: bool,
    },
}

impl Strategy {
    /// The canonical §6 comparison lineup, in figure order: FedAvg,
    /// FedAsync, FedAT, Eco-FL without dynamic grouping, Eco-FL.
    pub const LINEUP: [Strategy; 5] = [
        Strategy::FedAvg,
        Strategy::FedAsync,
        Strategy::FedAt,
        Strategy::EcoFl {
            dynamic_grouping: false,
        },
        Strategy::EcoFl {
            dynamic_grouping: true,
        },
    ];
}

/// Everything a run needs.
pub struct FlSetup {
    /// Client shards + test set.
    pub data: FederatedDataset,
    /// Client model architecture.
    pub arch: ModelArch,
    /// Hyper-parameters and simulation knobs.
    pub config: FlConfig,
}

/// Outcome of one strategy run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Strategy display name.
    pub strategy: String,
    /// Test accuracy vs. virtual time.
    pub accuracy: TimeSeries,
    /// Accuracy at the horizon.
    pub final_accuracy: f64,
    /// Best accuracy observed.
    pub best_accuracy: f64,
    /// Global model updates performed.
    pub global_updates: u64,
    /// Dynamic re-grouping moves/drops/rejoins performed.
    pub regroup_events: u64,
    /// Clients in the drop-out pool at the horizon.
    pub dropped_final: usize,
    /// Per-class recall of the final global model on the test set —
    /// non-IID damage shows up as collapsed recall on the classes a
    /// biased aggregation under-serves.
    pub final_recall: Vec<f64>,
}

/// Runs `strategy` on `setup` and returns its accuracy trace.
///
/// `obs` is what the run reports to (`None` for nothing): a tracer
/// records every round, local-train window, aggregation, staleness
/// weight and re-grouping decision (domain
/// [`Domain::Fl`](ecofl_obs::Domain::Fl) /
/// [`Domain::Grouping`](ecofl_obs::Domain::Grouping), all timestamps
/// virtual); a hub is fed the scheduler's `fl_*` series as the run
/// progresses, so a live dashboard can snapshot it from another thread.
/// Training outcomes are bit-identical whatever is attached.
///
/// # Panics
/// Panics on inconsistent setup (e.g. zero clients).
#[must_use]
pub fn run<'a>(strategy: Strategy, setup: &'a FlSetup, obs: impl Into<Obs<'a>>) -> RunResult {
    Scheduler::drive(setup, obs, strategy_object(strategy).as_mut())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofl_data::{federated::PartitionScheme, SyntheticSpec};
    use ecofl_obs::{Domain, EventKind, SpanKind, Tracer};

    fn tiny_setup(scheme: PartitionScheme, seed: u64) -> FlSetup {
        let cfg = FlConfig {
            horizon: 400.0,
            eval_interval: 40.0,
            seed,
            ..FlConfig::tiny()
        };
        let data = FederatedDataset::generate(
            &SyntheticSpec::mnist_like(),
            cfg.num_clients,
            40,
            20,
            scheme,
            None,
            seed,
        );
        FlSetup {
            data,
            arch: ModelArch::Mlp,
            config: cfg,
        }
    }

    #[test]
    fn fedavg_learns() {
        let setup = tiny_setup(PartitionScheme::Iid, 1);
        let r = run(Strategy::FedAvg, &setup, None);
        assert!(r.global_updates > 2);
        assert!(
            r.best_accuracy > 0.3,
            "FedAvg should learn the easy task, got {}",
            r.best_accuracy
        );
        let first = r.accuracy.points()[0].1;
        assert!(r.best_accuracy > first, "accuracy should improve");
    }

    #[test]
    fn fedasync_makes_many_updates() {
        let setup = tiny_setup(PartitionScheme::Iid, 2);
        let avg = run(Strategy::FedAvg, &setup, None);
        let asynchronous = run(Strategy::FedAsync, &setup, None);
        assert!(
            asynchronous.global_updates > avg.global_updates,
            "async {} should update more often than sync {}",
            asynchronous.global_updates,
            avg.global_updates
        );
    }

    #[test]
    fn ecofl_runs_and_learns_non_iid() {
        let setup = tiny_setup(PartitionScheme::ClassesPerClient(2), 3);
        let r = run(
            Strategy::EcoFl {
                dynamic_grouping: true,
            },
            &setup,
            None,
        );
        assert_eq!(r.strategy, "Eco-FL");
        assert!(r.global_updates > 3);
        assert!(r.best_accuracy > 0.25, "got {}", r.best_accuracy);
    }

    #[test]
    fn hierarchy_produces_more_updates_than_fedavg() {
        // Groups aggregate concurrently; wall-clock update rate must beat
        // one global synchronous barrier.
        let setup = tiny_setup(PartitionScheme::ClassesPerClient(2), 4);
        let avg = run(Strategy::FedAvg, &setup, None);
        let eco = run(
            Strategy::EcoFl {
                dynamic_grouping: true,
            },
            &setup,
            None,
        );
        assert!(eco.global_updates > avg.global_updates);
    }

    #[test]
    fn traced_run_matches_untraced_and_records_fl_domain() {
        let setup = tiny_setup(PartitionScheme::ClassesPerClient(2), 7);
        let plain = run(
            Strategy::EcoFl {
                dynamic_grouping: true,
            },
            &setup,
            None,
        );
        let tracer = Tracer::new();
        let traced = run(
            Strategy::EcoFl {
                dynamic_grouping: true,
            },
            &setup,
            &tracer,
        );
        // Tracing must not perturb the simulation.
        assert_eq!(plain.accuracy, traced.accuracy);
        assert_eq!(plain.global_updates, traced.global_updates);
        assert_eq!(plain.regroup_events, traced.regroup_events);

        let view = tracer.view();
        // One counter tick per global update, one α gauge per async merge.
        assert!((view.counter_total("global_updates") - traced.global_updates as f64).abs() < 1e-9);
        let alphas = view.gauge_series("staleness_alpha");
        assert_eq!(alphas.len(), traced.global_updates as usize);
        assert!(alphas.iter().all(|&(_, a)| (1e-3..=1.0).contains(&a)));
        // Round spans cover the merges; local-train spans sit inside the
        // engine horizon and aggregation events match updates.
        let rounds: Vec<_> = view.spans_of(Domain::Fl, SpanKind::Round).collect();
        assert_eq!(rounds.len(), traced.global_updates as usize);
        assert!(view.spans_of(Domain::Fl, SpanKind::LocalTrain).count() >= rounds.len());
        assert_eq!(
            view.events_of(EventKind::Aggregation).len(),
            traced.global_updates as usize
        );
        // The accuracy gauge stream reproduces the RunResult trace.
        let gauged: Vec<(f64, f64)> = view.gauge_series("accuracy");
        assert_eq!(gauged, traced.accuracy.points().to_vec());
        // Dynamic re-grouping shows up as grouping-domain events.
        let regroup_events = view
            .events()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::RegroupMoved
                        | EventKind::RegroupDropped
                        | EventKind::RegroupRejoined
                )
            })
            .count();
        assert_eq!(regroup_events as u64, traced.regroup_events);
    }

    #[test]
    fn deterministic_runs() {
        let setup = tiny_setup(PartitionScheme::ClassesPerClient(2), 5);
        let a = run(Strategy::FedAvg, &setup, None);
        let b = run(Strategy::FedAvg, &setup, None);
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.global_updates, b.global_updates);
    }

    #[test]
    fn final_recall_is_well_formed() {
        let setup = tiny_setup(PartitionScheme::Iid, 15);
        let r = run(Strategy::FedAvg, &setup, None);
        assert_eq!(r.final_recall.len(), setup.data.num_classes());
        assert!(r.final_recall.iter().all(|&x| (0.0..=1.0).contains(&x)));
        // Mean recall on a balanced test set equals overall accuracy.
        let mean_recall: f64 = r.final_recall.iter().sum::<f64>() / r.final_recall.len() as f64;
        assert!(
            (mean_recall - r.final_accuracy).abs() < 0.05,
            "mean recall {mean_recall} should track final accuracy {}",
            r.final_accuracy
        );
    }

    #[test]
    fn cnn_clients_train_end_to_end() {
        // The convolutional client path through the same engine.
        let cfg = FlConfig {
            num_clients: 8,
            clients_per_round: 4,
            num_groups: 2,
            horizon: 250.0,
            eval_interval: 60.0,
            learning_rate: 0.1,
            seed: 21,
            ..FlConfig::tiny()
        };
        let data = FederatedDataset::generate(
            &SyntheticSpec::image_like(),
            cfg.num_clients,
            30,
            10,
            PartitionScheme::ClassesPerClient(2),
            None,
            21,
        );
        let setup = FlSetup {
            data,
            arch: ModelArch::Cnn,
            config: cfg,
        };
        let r = run(
            Strategy::EcoFl {
                dynamic_grouping: true,
            },
            &setup,
            None,
        );
        assert!(r.global_updates > 0);
        assert!(
            r.best_accuracy > 0.15,
            "CNN should beat chance, got {}",
            r.best_accuracy
        );
    }

    #[test]
    fn a_diverged_run_reports_its_accuracy_instead_of_panicking() {
        // A valid but absurd step size drives every weight to NaN within a
        // round; NaN rows score as wrong, so the run ends with a number.
        let mut setup = tiny_setup(PartitionScheme::Iid, 8);
        setup.config.learning_rate = 1e9;
        assert!(setup.config.validate().is_ok());
        for strategy in [
            Strategy::FedAvg,
            Strategy::EcoFl {
                dynamic_grouping: true,
            },
        ] {
            let r = run(strategy, &setup, None);
            assert!(r.global_updates > 0);
            assert!((0.0..=1.0).contains(&r.final_accuracy), "{r:?}");
            assert!(r.final_recall.iter().all(|x| (0.0..=1.0).contains(x)));
        }
    }

    #[test]
    fn fedat_and_astraea_run() {
        let setup = tiny_setup(PartitionScheme::ClassesPerClient(2), 6);
        let fedat = run(Strategy::FedAt, &setup, None);
        let astraea = run(Strategy::Astraea, &setup, None);
        assert!(fedat.global_updates > 0);
        assert!(astraea.global_updates > 0);
        assert_eq!(fedat.strategy, "FedAT");
        assert_eq!(astraea.strategy, "Astraea");
    }
}

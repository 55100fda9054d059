//! Failure-injection tests: the FL engine must stay live and keep
//! learning when selected clients crash or disconnect mid-round.

use ecofl_data::federated::PartitionScheme;
use ecofl_data::{FederatedDataset, SyntheticSpec};
use ecofl_fl::engine::{run, FlSetup, Strategy};
use ecofl_fl::FlConfig;
use ecofl_models::ModelArch;

fn setup(failure_prob: f64, seed: u64) -> FlSetup {
    let config = FlConfig {
        num_clients: 24,
        clients_per_round: 8,
        num_groups: 3,
        horizon: 500.0,
        eval_interval: 60.0,
        failure_prob,
        seed,
        ..FlConfig::default()
    };
    let data = FederatedDataset::generate(
        &SyntheticSpec::mnist_like(),
        config.num_clients,
        40,
        20,
        PartitionScheme::ClassesPerClient(2),
        None,
        seed,
    );
    FlSetup {
        data,
        arch: ModelArch::Mlp,
        config,
    }
}

#[test]
fn all_strategies_survive_moderate_failures() {
    let s = setup(0.3, 31);
    for strategy in [
        Strategy::FedAvg,
        Strategy::FedAsync,
        Strategy::FedAt,
        Strategy::EcoFl {
            dynamic_grouping: true,
        },
    ] {
        let r = run(strategy, &s, None);
        assert!(
            r.global_updates > 0,
            "{}: engine must stay live under 30% failures",
            r.strategy
        );
        assert!(
            r.best_accuracy > 0.3,
            "{}: must still learn (got {:.2})",
            r.strategy,
            r.best_accuracy
        );
    }
}

#[test]
fn extreme_failures_do_not_hang_or_panic() {
    let s = setup(0.95, 32);
    let r = run(
        Strategy::EcoFl {
            dynamic_grouping: true,
        },
        &s,
        None,
    );
    // With 95% failures most rounds are empty, but the loop must reach the
    // horizon without deadlocking.
    assert!(r.accuracy.last().is_some());
}

#[test]
fn failures_cost_accuracy_but_not_correctness() {
    let clean = run(Strategy::FedAvg, &setup(0.0, 33), None);
    let faulty = run(Strategy::FedAvg, &setup(0.5, 33), None);
    assert!(
        faulty.global_updates <= clean.global_updates,
        "failures cannot create extra updates"
    );
    assert!(
        faulty.best_accuracy <= clean.best_accuracy + 0.05,
        "50% failures should not outperform a clean run"
    );
    assert!(
        faulty.best_accuracy > 0.2,
        "engine must still make progress"
    );
}

#[test]
fn failure_prob_zero_is_bitwise_identical_to_default() {
    let a = run(Strategy::FedAvg, &setup(0.0, 34), None);
    let b = run(Strategy::FedAvg, &setup(0.0, 34), None);
    assert_eq!(a.accuracy, b.accuracy);
}

//! Peak-memory contract of the streaming-aggregation path: an N-client
//! run keeps exactly one finished per-client weight vector
//! ([`LocalUpdate`]) alive at any instant — each is folded into the
//! average before the next client trains, whatever the cohort size and
//! the client population.
//!
//! Lives in its own integration binary so the process-wide live/peak
//! counters see no traffic from unrelated tests.

use ecofl_data::{federated::PartitionScheme, FederatedDataset, SyntheticSpec};
use ecofl_fl::client::{live_update_count, peak_live_update_count, reset_peak_live_updates};
use ecofl_fl::engine::{run, FlSetup, Strategy};
use ecofl_fl::FlConfig;
use ecofl_models::ModelArch;

fn setup(cfg: FlConfig) -> FlSetup {
    let data = FederatedDataset::generate(
        &SyntheticSpec::mnist_like(),
        cfg.num_clients,
        8,
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

#[test]
fn one_live_weight_vector_whatever_the_cohort_size() {
    // Cohorts of 150 clients, so a materialize-everything path would
    // peak at 150 live updates per round.
    let cfg = FlConfig {
        num_clients: 200,
        clients_per_round: 150,
        local_epochs: 1,
        horizon: 700.0,
        eval_interval: 100.0,
        ..FlConfig::tiny()
    };
    let s = setup(cfg);

    reset_peak_live_updates();
    let r = run(Strategy::FedAvg, &s, None);
    assert!(r.global_updates >= 2, "need full-size cohorts to exercise");
    assert_eq!(live_update_count(), 0, "updates must not outlive cohorts");
    assert_eq!(
        peak_live_update_count(),
        1,
        "each update must be folded before the next client trains"
    );

    // The hierarchical (Eco-FL) path must obey the same bound.
    let cfg = FlConfig {
        num_clients: 200,
        clients_per_round: 150,
        num_groups: 2,
        local_epochs: 1,
        horizon: 700.0,
        eval_interval: 100.0,
        ..FlConfig::tiny()
    };
    let s = setup(cfg);
    reset_peak_live_updates();
    let r = run(
        Strategy::EcoFl {
            dynamic_grouping: true,
        },
        &s,
        None,
    );
    assert!(r.global_updates >= 2);
    assert_eq!(live_update_count(), 0);
    assert_eq!(peak_live_update_count(), 1);
}

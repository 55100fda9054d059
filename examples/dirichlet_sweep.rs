//! Extension demo: sweeping data heterogeneity continuously with the
//! Dirichlet partitioner (α → 0 is extreme label skew, α → ∞ is IID) and
//! watching how Eco-FL and FedAvg cope.
//!
//! The paper evaluates two fixed skew settings (2 classes per client;
//! 3 classes per RLG); Dirichlet sweeps generalize both and are the
//! de-facto standard in later FL literature.
//!
//! ```text
//! cargo run --release --example dirichlet_sweep
//! ```

use ecofl::prelude::*;
use ecofl_util::js_divergence;

fn main() {
    let seed = 7;
    println!("60 clients, cifar-like task, Dirichlet(α) label skew\n");
    println!(
        "{:>8} {:>16} {:>14} {:>14}",
        "alpha", "mean client JS", "FedAvg best", "Eco-FL best"
    );
    let uniform = vec![0.1f64; 10];
    for alpha in [0.05, 0.2, 1.0, 5.0, 100.0] {
        let config = FlConfig {
            num_clients: 60,
            clients_per_round: 15,
            num_groups: 5,
            horizon: 700.0,
            eval_interval: 70.0,
            seed,
            ..FlConfig::default()
        };
        let data = FederatedDataset::generate(
            &SyntheticSpec::cifar_like(),
            config.num_clients,
            60,
            40,
            PartitionScheme::Dirichlet(alpha),
            None,
            seed,
        );
        let mean_js: f64 = data
            .client_label_distributions()
            .iter()
            .map(|d| js_divergence(d, &uniform))
            .sum::<f64>()
            / data.num_clients() as f64;
        let setup = FlSetup {
            data,
            arch: ModelArch::Mlp,
            config,
        };
        let fedavg = run_strategy(Strategy::FedAvg, &setup, None);
        let ecofl = run_strategy(
            Strategy::EcoFl {
                dynamic_grouping: true,
            },
            &setup,
            None,
        );
        println!(
            "{alpha:>8.2} {mean_js:>16.3} {:>13.1}% {:>13.1}%",
            fedavg.best_accuracy * 100.0,
            ecofl.best_accuracy * 100.0,
        );
    }
    println!(
        "\nLower α ⇒ higher per-client label skew (JS from uniform) ⇒ harder \
         federation; the hierarchical aggregator holds up better than plain FedAvg."
    );
}

//! Server-side comparison (§5): Eco-FL's grouping-based hierarchical
//! aggregation against FedAvg, FedAsync and FedAT under the dynamic
//! setting with non-IID clients.
//!
//! ```text
//! cargo run --release --example hierarchical_fl
//! ```

use ecofl::prelude::*;

fn main() {
    let config = FlConfig {
        num_clients: 60,
        clients_per_round: 15,
        num_groups: 5,
        horizon: 1200.0,
        eval_interval: 60.0,
        seed: 7,
        ..FlConfig::default()
    };
    let data = FederatedDataset::generate(
        &SyntheticSpec::fashion_like(),
        config.num_clients,
        60,
        50,
        PartitionScheme::ClassesPerClient(2),
        None,
        config.seed,
    );
    let setup = FlSetup {
        data,
        arch: ModelArch::Mlp,
        config,
    };

    println!("60 clients, 2-class non-IID shards, dynamic collaborative degrees\n");
    let mut results = Vec::new();
    for s in Strategy::LINEUP {
        let r = run_strategy(s, &setup, None);
        println!(
            "{:<14} best {:5.1}%  final {:5.1}%  {} updates  {} regroups",
            r.strategy,
            r.best_accuracy * 100.0,
            r.final_accuracy * 100.0,
            r.global_updates,
            r.regroup_events,
        );
        results.push(r);
    }

    // Time-to-accuracy at a common target.
    let target = 0.6
        * results
            .iter()
            .map(|r| r.best_accuracy)
            .fold(f64::NEG_INFINITY, f64::max);
    println!("\ntime to reach {:.1}% accuracy:", target * 100.0);
    for r in &results {
        match r.accuracy.time_to_reach(target) {
            Some(t) => println!("{:<14} {t:7.1} s", r.strategy),
            None => println!("{:<14} never", r.strategy),
        }
    }
}

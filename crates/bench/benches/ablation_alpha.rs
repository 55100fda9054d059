//! Ablation — the inter-group mixing weight α and the FedProx proximal
//! coefficient µ of Eco-FL's hierarchical aggregator (§5.1 design
//! choices).
//!
//! Small α under-weights fresh group models (slow convergence); large α
//! lets biased group models swing the global (the staleness discount
//! damps, but cannot remove, the oscillation). µ anchors local training
//! to the group model, trading per-round progress against client drift.

use ecofl_bench::{header, write_json};
use ecofl_compat::serde::Serialize;
use ecofl_data::federated::PartitionScheme;
use ecofl_data::{FederatedDataset, SyntheticSpec};
use ecofl_fl::engine::{run, FlSetup, Strategy};
use ecofl_fl::FlConfig;
use ecofl_models::ModelArch;

#[derive(Serialize)]
struct Row {
    alpha: f64,
    mu: f32,
    best_accuracy: f64,
    final_accuracy: f64,
    global_updates: u64,
}

fn run_at(alpha: f64, mu: f32, data: &FederatedDataset, seed: u64) -> Row {
    let config = FlConfig {
        num_clients: 60,
        clients_per_round: 15,
        num_groups: 5,
        horizon: 1200.0,
        eval_interval: 60.0,
        alpha,
        mu,
        seed,
        ..FlConfig::default()
    };
    let setup = FlSetup {
        data: data.clone(),
        arch: ModelArch::Mlp,
        config,
    };
    let r = run(
        Strategy::EcoFl {
            dynamic_grouping: true,
        },
        &setup,
        None,
    );
    Row {
        alpha,
        mu,
        best_accuracy: r.best_accuracy,
        final_accuracy: r.final_accuracy,
        global_updates: r.global_updates,
    }
}

fn main() {
    header("Ablation: Eco-FL α (inter-group mixing) and µ (proximal term)");
    let seed = 2024;
    let data = FederatedDataset::generate(
        &SyntheticSpec::cifar_like(),
        60,
        60,
        60,
        PartitionScheme::ClassesPerClient(2),
        None,
        seed,
    );

    println!(
        "{:>6} {:>6} {:>10} {:>10} {:>9}",
        "alpha", "mu", "best", "final", "updates"
    );
    let mut rows = Vec::new();
    for alpha in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let r = run_at(alpha, 0.05, &data, seed);
        println!(
            "{:>6.1} {:>6.2} {:>9.1}% {:>9.1}% {:>9}",
            r.alpha,
            r.mu,
            r.best_accuracy * 100.0,
            r.final_accuracy * 100.0,
            r.global_updates
        );
        rows.push(r);
    }
    for mu in [0.0f32, 0.05, 0.2, 1.0] {
        let r = run_at(0.7, mu, &data, seed);
        println!(
            "{:>6.1} {:>6.2} {:>9.1}% {:>9.1}% {:>9}",
            r.alpha,
            r.mu,
            r.best_accuracy * 100.0,
            r.final_accuracy * 100.0,
            r.global_updates
        );
        rows.push(r);
    }

    // Shape checks: mid-range α beats the tiny-α extreme; a very strong
    // proximal term (µ = 1) slows learning relative to the paper's 0.05.
    let best_of = |pred: &dyn Fn(&Row) -> bool| {
        rows.iter()
            .filter(|r| pred(r))
            .map(|r| r.best_accuracy)
            .fold(0.0, f64::max)
    };
    let tiny_alpha = best_of(&|r: &Row| r.alpha == 0.1 && r.mu == 0.05);
    let mid_alpha = best_of(&|r: &Row| (0.5..=0.9).contains(&r.alpha) && r.mu == 0.05);
    assert!(
        mid_alpha > tiny_alpha,
        "mid-range α ({mid_alpha}) should beat α = 0.1 ({tiny_alpha})"
    );
    let paper_mu = best_of(&|r: &Row| r.alpha == 0.7 && r.mu == 0.05);
    let strong_mu = best_of(&|r: &Row| r.alpha == 0.7 && r.mu == 1.0);
    assert!(
        paper_mu >= strong_mu,
        "the paper's µ = 0.05 ({paper_mu}) should not lose to µ = 1 ({strong_mu})"
    );
    println!("\nShape checks passed: mid α > tiny α; µ = 0.05 ≥ µ = 1.");
    write_json("ablation_alpha", &rows);
}

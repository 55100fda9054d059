//! Fig. 8 — effectiveness of the grouping strategy under RLG-IID and
//! RLG-NIID label assignments.
//!
//! The paper runs MNIST; our mnist-like synthetic preset is *more*
//! separable than MNIST for an MLP and saturates for every method, hiding
//! the grouping effect, so this figure uses the hard (cifar-like) preset
//! where group-level label bias genuinely damages convergence.
//!
//! Clients fall into 5 response-latency groups (RLGs). Under RLG-IID
//! every RLG sees all 10 classes; under RLG-NIID each RLG holds only 3
//! classes (the "businessmen" correlation between device speed and data).
//!
//! Expected shape (paper):
//! - RLG-IID: Eco-FL ≈ FedAT (both fine), Astraea suffers stragglers
//!   because it mixes fast and slow clients in one group,
//! - RLG-NIID: FedAT's latency-only groups are exactly the skewed RLGs
//!   and convergence collapses; Eco-FL and Astraea stay healthy, with
//!   Eco-FL converging faster (it also respects latency).

use ecofl_bench::{header, write_json};
use ecofl_compat::serde::Serialize;
use ecofl_data::federated::PartitionScheme;
use ecofl_data::{FederatedDataset, SyntheticSpec};
use ecofl_fl::engine::{run, FlSetup, Strategy};
use ecofl_fl::FlConfig;
use ecofl_models::ModelArch;
use ecofl_util::Rng;

#[derive(Serialize)]
struct Curve {
    setting: &'static str,
    strategy: String,
    points: Vec<(f64, f64)>,
    best_accuracy: f64,
    final_accuracy: f64,
    time_to_60: Option<f64>,
    min_class_recall: f64,
}

/// Samples base delays and derives each client's RLG as its latency
/// quintile, so the data assignment genuinely correlates with speed.
fn latencies_and_rlg(n: usize, seed: u64) -> (Vec<f64>, Vec<usize>) {
    let mut rng = Rng::new(seed);
    let delays: Vec<f64> = (0..n).map(|_| rng.gaussian(40.0, 18.0).max(3.0)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| delays[a].partial_cmp(&delays[b]).expect("finite"));
    let mut rlg = vec![0usize; n];
    for (rank, &client) in order.iter().enumerate() {
        rlg[client] = rank * 5 / n;
    }
    (delays, rlg)
}

fn run_setting(setting: &'static str, scheme: PartitionScheme, seed: u64, out: &mut Vec<Curve>) {
    let n = 100;
    let (delays, rlg) = latencies_and_rlg(n, seed);
    let config = FlConfig {
        num_clients: n,
        clients_per_round: 20,
        num_groups: 5,
        horizon: 4000.0,
        eval_interval: 100.0,
        dynamics: None, // grouping robustness is probed statically
        base_delay_override: Some(delays),
        learning_rate: 0.1,
        seed,
        ..FlConfig::default()
    };
    let data = FederatedDataset::generate(
        &SyntheticSpec::cifar_like(),
        n,
        30,
        60,
        scheme,
        Some(&rlg),
        seed,
    );
    let setup = FlSetup {
        data,
        arch: ModelArch::Mlp,
        config,
    };
    println!("\n--- {setting} @ cifar-like ---");
    for strategy in [
        Strategy::Astraea,
        Strategy::FedAt,
        Strategy::EcoFl {
            dynamic_grouping: true,
        },
    ] {
        let r = run(strategy, &setup, None);
        let t70 = r.accuracy.time_to_reach(0.60);
        let min_recall = r.final_recall.iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "{:<10} best {:5.1}%  final {:5.1}%  60% at {}  worst-class recall {:4.1}%",
            r.strategy,
            r.best_accuracy * 100.0,
            r.final_accuracy * 100.0,
            t70.map_or("never".into(), |t| format!("{t:.0} s")),
            min_recall * 100.0,
        );
        out.push(Curve {
            setting,
            strategy: r.strategy.clone(),
            points: r.accuracy.resample(30),
            best_accuracy: r.best_accuracy,
            final_accuracy: r.final_accuracy,
            time_to_60: t70,
            min_class_recall: min_recall,
        });
    }
}

fn main() {
    header("Fig. 8: grouping effectiveness under RLG-IID / RLG-NIID");
    let mut curves = Vec::new();
    run_setting("RLG-IID", PartitionScheme::RlgIid, 81, &mut curves);
    run_setting("RLG-NIID", PartitionScheme::RlgNiid(3), 82, &mut curves);

    let get = |setting: &str, strategy: &str| {
        curves
            .iter()
            .find(|c| c.setting == setting && c.strategy == strategy)
            .expect("curve present")
    };

    // RLG-NIID: Eco-FL must clearly beat FedAT (the paper's ≤26.3% gap).
    let eco = get("RLG-NIID", "Eco-FL");
    let fedat = get("RLG-NIID", "FedAT");
    assert!(
        eco.best_accuracy > fedat.best_accuracy + 0.03,
        "RLG-NIID: Eco-FL ({:.3}) must clearly beat FedAT ({:.3})",
        eco.best_accuracy,
        fedat.best_accuracy
    );
    let uplift = (eco.best_accuracy - fedat.best_accuracy) * 100.0;
    // RLG-NIID: Astraea healthy too; Eco-FL not much slower to 60%.
    let astraea = get("RLG-NIID", "Astraea");
    if let (Some(te), Some(ta)) = (eco.time_to_60, astraea.time_to_60) {
        assert!(
            te <= ta * 1.25,
            "RLG-NIID: Eco-FL should not be much slower than Astraea to 60%"
        );
    }
    // RLG-IID: Eco-FL and FedAT comparable.
    let eco_iid = get("RLG-IID", "Eco-FL");
    let fedat_iid = get("RLG-IID", "FedAT");
    assert!(
        (eco_iid.best_accuracy - fedat_iid.best_accuracy).abs() < 0.1,
        "RLG-IID: Eco-FL and FedAT should be comparable"
    );
    // The mechanism behind FedAT's collapse: some classes are starved by
    // tier-biased aggregation, visible as worst-class recall.
    assert!(
        eco.min_class_recall > fedat.min_class_recall,
        "Eco-FL's worst class ({:.2}) should be served better than FedAT's ({:.2})",
        eco.min_class_recall,
        fedat.min_class_recall
    );
    println!(
        "\nShape checks passed. RLG-NIID accuracy uplift over FedAT: +{uplift:.1} \
         percentage points (paper headline: up to 26.3%); FedAT's worst-class \
         recall {:.0}% vs Eco-FL {:.0}% exposes the tier-bias mechanism.",
        fedat.min_class_recall * 100.0,
        eco.min_class_recall * 100.0
    );
    write_json("fig8", &curves);
}

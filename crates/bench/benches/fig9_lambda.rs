//! Fig. 9 — sensitivity of the Eq. 4 grouping cost to λ (RLG-NIID).
//!
//! As λ grows the grouper trades latency tightness for data balance:
//! average group JS divergence falls while the groups' synchronous
//! barrier latency (the slowest member each round) creeps up as slower
//! clients join faster groups for their data. Accuracy holds or improves;
//! under Eco-FL's staleness-damped asynchronous mixing the final-accuracy
//! sensitivity to λ is milder here than in the paper's long CIFAR-10
//! runs (see EXPERIMENTS.md).

use ecofl_bench::{header, write_json};
use ecofl_compat::serde::Serialize;
use ecofl_data::federated::PartitionScheme;
use ecofl_data::{FederatedDataset, SyntheticSpec};
use ecofl_fl::engine::{run, FlSetup, Strategy};
use ecofl_fl::FlConfig;
use ecofl_grouping::{Grouper, GroupingConfig, GroupingStrategy};
use ecofl_models::ModelArch;
use ecofl_util::Rng;

#[derive(Serialize)]
struct Row {
    lambda: f64,
    avg_group_js: f64,
    avg_group_latency: f64,
    final_accuracy: f64,
    best_accuracy: f64,
}

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

fn main() {
    header("Fig. 9: λ sensitivity on RLG-NIID (avg JS, avg latency, accuracy)");
    let n = 100;
    let seed = 91;
    let (delays, rlg) = latencies_and_rlg(n, seed);
    let data = FederatedDataset::generate(
        &SyntheticSpec::cifar_like(),
        n,
        30,
        60,
        PartitionScheme::RlgNiid(3),
        Some(&rlg),
        seed,
    );
    let label_counts: Vec<Vec<f64>> = data
        .clients()
        .iter()
        .map(|d| d.label_counts().iter().map(|&c| c as f64).collect())
        .collect();

    println!(
        "{:>7} {:>14} {:>18} {:>12} {:>12}",
        "lambda", "avg group JS", "barrier lat (s)", "best acc", "final acc"
    );
    let mut rows = Vec::new();
    for lambda in [0.0, 250.0, 500.0, 1000.0, 1500.0, 2000.0] {
        // Grouping-level metrics (exactly what the figure's left axes show).
        let grouper = Grouper::initial(
            &delays,
            &label_counts,
            GroupingConfig {
                num_groups: 5,
                strategy: GroupingStrategy::EcoFl { lambda },
                rt_relative: 0.6,
                rt_min: 5.0,
                assign_batch: 0,
            },
            &mut Rng::new(seed + 1),
        );
        let avg_js = grouper.avg_group_js();
        let avg_latency = grouper.avg_group_barrier_latency();

        // End-to-end accuracy at this λ.
        let config = FlConfig {
            num_clients: n,
            clients_per_round: 20,
            num_groups: 5,
            horizon: 2500.0,
            eval_interval: 100.0,
            dynamics: None,
            base_delay_override: Some(delays.clone()),
            grouping: GroupingStrategy::EcoFl { lambda },
            learning_rate: 0.1,
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
        println!(
            "{:>7.0} {:>14.4} {:>18.2} {:>11.1}% {:>11.1}%",
            lambda,
            avg_js,
            avg_latency,
            r.best_accuracy * 100.0,
            r.final_accuracy * 100.0
        );
        rows.push(Row {
            lambda,
            avg_group_js: avg_js,
            avg_group_latency: avg_latency,
            final_accuracy: r.final_accuracy,
            best_accuracy: r.best_accuracy,
        });
    }

    // Shape checks: JS decreases with λ; barrier latency does not fall;
    // accuracy stays healthy across the sweep.
    assert!(
        rows.last().unwrap().avg_group_js <= rows[0].avg_group_js + 1e-9,
        "avg JS must not increase with λ"
    );
    assert!(
        rows.last().unwrap().avg_group_latency >= rows[0].avg_group_latency - 1e-9,
        "group barrier latency should not fall as λ grows"
    );
    let acc_floor = rows
        .iter()
        .map(|r| r.best_accuracy)
        .fold(f64::INFINITY, f64::min);
    let acc_ceil = rows.iter().map(|r| r.best_accuracy).fold(0.0, f64::max);
    assert!(
        acc_ceil - acc_floor < 0.08,
        "accuracy must not collapse anywhere in the sweep ({acc_floor}..{acc_ceil})"
    );
    println!(
        "\nShape checks passed: JS falls and barrier latency rises with λ; accuracy \
         stays within {:.1} pp across the sweep.",
        (acc_ceil - acc_floor) * 100.0
    );
    write_json("fig9", &rows);
}

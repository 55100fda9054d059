//! Parallel-vs-sequential bit-identity of sharded local training.
//!
//! The scheduler shards each cohort's local training across the compat
//! worker pool (`ECOFL_THREADS` workers) and reduces results in member
//! order, so the run must be bit-identical to a sequential one at any
//! thread count. This file holds a single test so the `ECOFL_THREADS`
//! manipulation never races a concurrent test in the same process; CI
//! runs it under `--release` as well, where the optimized float paths
//! would expose any reduction-order dependence.

use ecofl_data::federated::PartitionScheme;
use ecofl_data::{FederatedDataset, SyntheticSpec};
use ecofl_fl::engine::{run, FlSetup, Strategy};
use ecofl_fl::FlConfig;
use ecofl_models::ModelArch;

fn setup(seed: u64, failure_prob: f64) -> FlSetup {
    let config = FlConfig {
        num_clients: 24,
        clients_per_round: 8,
        num_groups: 3,
        horizon: 300.0,
        eval_interval: 40.0,
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
fn parallel_training_is_bit_identical_across_thread_counts() {
    let setups = [setup(17, 0.0), setup(18, 0.2)];
    let strategies = [
        Strategy::FedAvg,
        Strategy::FedAsync,
        Strategy::EcoFl {
            dynamic_grouping: true,
        },
    ];
    // threads = 1 is the sequential path inside compat::par (the worker
    // pool is bypassed entirely); 2 and 8 shard the cohort.
    let mut per_thread_results = Vec::new();
    for threads in ["1", "2", "8"] {
        std::env::set_var("ECOFL_THREADS", threads);
        let mut results = Vec::new();
        for s in &setups {
            for strategy in strategies {
                results.push(run(strategy, s, None));
            }
        }
        per_thread_results.push((threads, results));
    }
    std::env::remove_var("ECOFL_THREADS");

    let (_, sequential) = &per_thread_results[0];
    for (threads, results) in &per_thread_results[1..] {
        for (seq, par) in sequential.iter().zip(results) {
            assert_eq!(
                seq.accuracy, par.accuracy,
                "{}: accuracy trace must be bit-identical at {threads} threads",
                seq.strategy
            );
            assert_eq!(seq.final_accuracy.to_bits(), par.final_accuracy.to_bits());
            assert_eq!(seq.best_accuracy.to_bits(), par.best_accuracy.to_bits());
            assert_eq!(seq.global_updates, par.global_updates);
            assert_eq!(seq.regroup_events, par.regroup_events);
            assert_eq!(seq.dropped_final, par.dropped_final);
            let seq_bits: Vec<u64> = seq.final_recall.iter().map(|v| v.to_bits()).collect();
            let par_bits: Vec<u64> = par.final_recall.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                seq_bits, par_bits,
                "{}: per-class recall must be bit-identical at {threads} threads",
                seq.strategy
            );
        }
    }
}

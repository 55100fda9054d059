//! The λ trade-off of the Eq. 4 grouping cost (the Fig. 9 experiment in
//! miniature): larger λ balances group label distributions (lower JS
//! divergence) at the price of wider latency spread inside groups.
//!
//! ```text
//! cargo run --release --example grouping_lambda
//! ```

use ecofl::prelude::*;
use ecofl_grouping::GroupingReport;
use ecofl_util::stats::stddev;

fn main() {
    let mut rng = Rng::new(2024);
    // 100 clients: latency spread over 5–60 s, each holding 2 classes.
    let mut latencies = Vec::new();
    let mut label_counts = Vec::new();
    for i in 0..100 {
        latencies.push(rng.range_f64(5.0, 60.0));
        let mut counts = vec![0.0; 10];
        counts[i % 10] = 30.0;
        counts[(i + 1) % 10] = 30.0;
        label_counts.push(counts);
    }

    println!("lambda | avg group JS | avg group latency | in-group latency spread");
    println!("-------+--------------+-------------------+------------------------");
    for lambda in [0.0, 250.0, 500.0, 1000.0, 1500.0, 2000.0] {
        let grouper = Grouper::initial(
            &latencies,
            &label_counts,
            GroupingConfig {
                num_groups: 5,
                strategy: GroupingStrategy::EcoFl { lambda },
                rt_relative: 0.8,
                rt_min: 5.0,
                assign_batch: 0,
            },
            &mut Rng::new(11),
        );
        // Latency spread within groups: mean of per-group stddevs.
        let spreads: Vec<f64> = grouper
            .groups()
            .iter()
            .filter(|g| g.len() > 1)
            .map(|g| {
                let ls: Vec<f64> = g
                    .members
                    .iter()
                    .map(|&c| grouper.latency_of(c as usize))
                    .collect();
                stddev(&ls)
            })
            .collect();
        println!(
            "{lambda:6.0} | {:12.4} | {:15.2} s | {:20.2} s",
            grouper.avg_group_js(),
            grouper.avg_group_latency(),
            ecofl_util::mean(&spreads),
        );
    }
    println!("\nλ = 0 is FedAT (latency only); λ → ∞ approaches Astraea (data only).");

    // Full composition report at the paper's default λ.
    let grouper = Grouper::initial(
        &latencies,
        &label_counts,
        GroupingConfig {
            num_groups: 5,
            strategy: GroupingStrategy::EcoFl { lambda: 1000.0 },
            rt_relative: 0.8,
            rt_min: 5.0,
            assign_batch: 0,
        },
        &mut Rng::new(11),
    );
    println!("\ngroup composition at λ = 1000:");
    for line in GroupingReport::capture(&grouper).render() {
        println!("  {line}");
    }
}

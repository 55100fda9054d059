//! Quickstart: plan edge pipelines for a few smart homes, then run the
//! full hierarchical FL system on top of them.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ecofl::prelude::*;

fn main() -> Result<(), EcoFlError> {
    // 1. Describe the edge fleet: each FL participant is a *smart home*
    //    holding a small cluster of trusted, heterogeneous devices.
    let homes = vec![
        SmartHome::new("duplex", vec![tx2_q(), nano_h(), nano_h()]),
        SmartHome::new("loft", vec![tx2_q(), nano_l()]),
        SmartHome::new("studio", vec![nano_h()]),
    ];

    // 2. Build the system: Eq. 1 partitions EfficientNet-B0 across each
    //    home's devices and §4.3 picks device order + micro-batch size.
    let system = EcoFlSystem::builder()
        .homes(homes)
        .replicate_homes(30)
        .dataset(SyntheticSpec::mnist_like())
        .partition(PartitionScheme::ClassesPerClient(2))
        .fl_config(FlConfig {
            num_clients: 30,
            clients_per_round: 10,
            num_groups: 3,
            horizon: 800.0,
            eval_interval: 40.0,
            ..FlConfig::default()
        })
        .seed(42)
        .build()
        .expect("all homes admit a pipeline plan");

    println!("=== Edge collaborative pipeline plans ===");
    for (home, plan) in ["duplex", "loft", "studio"].iter().zip(system.plans()) {
        println!(
            "{home:>8}: {} stage(s), mbs={}, order={:?}, K={:?}, {:.1} samples/s",
            plan.partition.num_stages(),
            plan.micro_batch,
            plan.order,
            plan.k,
            plan.report.throughput,
        );
    }

    // 3. Run: pipeline throughput → response latency → grouping-based
    //    hierarchical aggregation with dynamic re-grouping.
    let report = system.run(None)?;
    println!("\n=== Federated training (Eco-FL) ===");
    for (t, acc) in report.fl.accuracy.points() {
        println!("t = {t:7.1}s   accuracy = {:5.1}%", acc * 100.0);
    }
    println!(
        "\nbest accuracy {:.1}% after {} global updates ({} regroup events)",
        report.fl.best_accuracy * 100.0,
        report.fl.global_updates,
        report.fl.regroup_events,
    );
    Ok(())
}

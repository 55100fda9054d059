//! Ablation — sensitivity of the §4.4 adaptive rescheduler to its
//! deviation threshold and restart overhead (the two design knobs
//! DESIGN.md calls out for the Fig. 13 mechanism).
//!
//! A lower threshold reacts faster but can fire on noise; a higher one
//! tolerates more degradation before migrating. The restart overhead
//! prices each migration, trading reaction speed against stall time.

use ecofl_bench::{header, write_json};
use ecofl_compat::serde::Serialize;
use ecofl_models::efficientnet_at;
use ecofl_pipeline::adaptive::{simulate_load_spike_with, LoadSpike, SchedulerConfig};
use ecofl_simnet::{nano_h, tx2_q, Device, Link};

#[derive(Serialize)]
struct Row {
    deviation_threshold: f64,
    restart_overhead: f64,
    migrations: usize,
    post_spike_throughput: f64,
    recovery_fraction: f64,
}

fn main() {
    header("Ablation: §4.4 rescheduler tuning (load spike on device 1 at t = 100 s)");
    let model = efficientnet_at(4, 224);
    let link = Link::mbps_100();
    let devices = vec![
        Device::new(tx2_q()),
        Device::new(nano_h()),
        Device::new(nano_h()),
    ];
    let horizon = 300.0;
    let mut rows = Vec::new();
    let mut best_reasonable = 0.0f64;
    // A heavy spike (every threshold fires; restart overhead is the
    // discriminator) and a mild one (a 30% load is a ~43% stage-time
    // deviation, so only thresholds below 0.43 fire at all).
    for load in [0.6, 0.3] {
        let spike = LoadSpike {
            device: 1,
            at: 100.0,
            load,
        };
        let baseline = simulate_load_spike_with(
            &model,
            &devices,
            &link,
            8,
            16,
            spike,
            horizon,
            false,
            SchedulerConfig::default(),
            None,
        )
        .expect("feasible spike scenario");
        let lost = baseline.pre_spike_throughput - baseline.post_spike_throughput;
        println!(
            "\nload {:.0}%: static pipeline pre {:.2} -> post {:.2} samples/s (lost {:.2})",
            load * 100.0,
            baseline.pre_spike_throughput,
            baseline.post_spike_throughput,
            lost
        );
        println!(
            "{:>10} {:>9} {:>11} {:>12} {:>10}",
            "threshold", "restart", "migrations", "post (smp/s)", "recovered"
        );
        for threshold in [0.05, 0.1, 0.25, 0.5, 1.0] {
            for restart in [0.5, 2.0, 10.0] {
                let cfg = SchedulerConfig {
                    deviation_threshold: threshold,
                    restart_overhead: restart,
                    ..SchedulerConfig::default()
                };
                let t = simulate_load_spike_with(
                    &model, &devices, &link, 8, 16, spike, horizon, true, cfg, None,
                )
                .expect("feasible spike scenario");
                let recovered = if lost > 0.0 {
                    (t.post_spike_throughput - baseline.post_spike_throughput) / lost
                } else {
                    0.0
                };
                println!(
                    "{threshold:>10.2} {restart:>9.1} {:>11} {:>12.2} {:>9.0}%",
                    t.events.len(),
                    t.post_spike_throughput,
                    recovered * 100.0
                );
                assert!(
                    t.post_spike_throughput + 1e-9 >= baseline.post_spike_throughput,
                    "scheduler must never end below the static pipeline"
                );
                if load > 0.5 && threshold <= 0.5 && restart <= 2.0 {
                    best_reasonable = best_reasonable.max(recovered);
                }
                if load < 0.5 && threshold >= 1.0 {
                    assert!(
                        t.events.is_empty(),
                        "a 43% deviation must not fire a 100% threshold"
                    );
                }
                rows.push(Row {
                    deviation_threshold: threshold,
                    restart_overhead: restart,
                    migrations: t.events.len(),
                    post_spike_throughput: t.post_spike_throughput,
                    recovery_fraction: recovered,
                });
            }
        }
    }

    assert!(
        best_reasonable > 0.5,
        "a reasonable tuning should recover >50% of the lost throughput, got {best_reasonable}"
    );
    println!(
        "\nShape checks passed: all tunings ≥ static; coarse thresholds ignore mild \
         spikes; best reasonable tuning recovers {:.0}% of the heavy spike.",
        best_reasonable * 100.0
    );
    write_json("ablation_rescheduler", &rows);
}

//! Wall-clock overhead gate for the metrics hub on the 1F1B hot path.
//!
//! Ignored by default — wall-clock ratios are meaningless under the
//! normal parallel test runner. `scripts/ci.sh` runs it explicitly
//! (release, watchdogged), mirroring the
//! committed `pipeline_1f1b_round_b2_m16` /
//! `pipeline_1f1b_round_b2_m16_metered` bench pair.

use ecofl::prelude::*;
use ecofl_pipeline::executor::{PipelineExecutor, SchedulePolicy};
use ecofl_pipeline::orchestrator::k_bounds;
use ecofl_pipeline::partition::partition_dp;
use ecofl_pipeline::profiler::PipelineProfile;
use std::hint::black_box;
use std::time::Instant;

/// Generous bound: per-task hub cost is one atomic add plus one
/// mutex-guarded sketch insert, well under the event loop's own work;
/// the slack absorbs scheduler noise on loaded CI machines.
const MAX_MEDIAN_RATIO: f64 = 2.5;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

#[test]
#[ignore = "wall-clock perf gate; scripts/ci.sh runs it explicitly"]
fn hub_overhead_on_1f1b_round_is_bounded() {
    // The headline bench's 1F1B hot path: EfficientNet-B2 over
    // TX2-Q + 2x Nano-H, mbs 16, one 16-micro-batch sync-round.
    let model = efficientnet_at(2, 224);
    let devices = vec![
        Device::new(tx2_q()),
        Device::new(nano_h()),
        Device::new(nano_h()),
    ];
    let link = Link::mbps_100();
    let partition = partition_dp(&model, &devices, &link, 16).expect("feasible");
    let profile = PipelineProfile::new(&model, &partition.boundaries, &devices, &link, 16);
    let k = k_bounds(&profile).expect("residency");

    let hub = MetricsHub::new();
    let run_once = |obs: Obs<'_>| -> f64 {
        let exec = PipelineExecutor::new(
            black_box(&profile),
            SchedulePolicy::OneFOneBSync { k: k.clone() },
        )
        .expect("valid schedule");
        let t0 = Instant::now();
        black_box(exec.run_traced(16, 1, obs).expect("no OOM"));
        t0.elapsed().as_secs_f64()
    };

    for _ in 0..3 {
        run_once(Obs::default());
        run_once((&hub).into());
    }
    // Interleave A/B samples so clock drift hits both sides equally.
    let mut plain = Vec::new();
    let mut metered = Vec::new();
    for _ in 0..15 {
        plain.push(run_once(Obs::default()));
        metered.push(run_once((&hub).into()));
    }
    let (p, m) = (median(plain), median(metered));
    let ratio = m / p;
    println!("1f1b round: plain {p:.6}s, metered {m:.6}s, ratio {ratio:.3}");
    assert!(
        ratio < MAX_MEDIAN_RATIO,
        "metrics hub costs {ratio:.2}x on the 1F1B round (bound {MAX_MEDIAN_RATIO}x)"
    );
    // Sanity: the metered side really was recording.
    assert!(hub.snapshot(0).counter("exec_tasks").unwrap_or(0) > 0);

    // On the same hot path, tracer and hub in one `Obs` record what
    // each alone records, and all three runs report the same.
    let exec = PipelineExecutor::new(&profile, SchedulePolicy::OneFOneBSync { k })
        .expect("valid schedule");
    let (tracer, tracer2) = (Tracer::new(), Tracer::new());
    let (hub, hub2) = (MetricsHub::new(), MetricsHub::new());
    let traced = exec.run_traced(16, 1, &tracer).expect("no OOM");
    let metered = exec.run_traced(16, 1, &hub).expect("no OOM");
    let both = exec.run_traced(16, 1, Obs::from(&tracer2).with_hub(&hub2));
    assert_eq!(tracer2.records(), tracer.records());
    assert_eq!(hub2.snapshot(0), hub.snapshot(0));
    assert_eq!(both.expect("no OOM").task_spans, traced.task_spans);
    assert_eq!(metered.task_spans, traced.task_spans);
}

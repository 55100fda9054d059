//! Wall-clock overhead gate for the tracer on the 1F1B hot path.
//!
//! Ignored by default — wall-clock ratios are meaningless under the
//! normal parallel test runner. `scripts/ci.sh` runs it explicitly
//! (release, watchdogged).

use ecofl::prelude::*;
use ecofl_pipeline::executor::{PipelineExecutor, SchedulePolicy};
use ecofl_pipeline::orchestrator::k_bounds;
use ecofl_pipeline::partition::partition_dp;
use ecofl_pipeline::profiler::PipelineProfile;
use std::hint::black_box;
use std::time::Instant;

/// Generous bound: per-task tracer cost is one uncontended lock and one
/// `Vec` push per span, well under the event loop's own work; the slack
/// absorbs scheduler noise on loaded CI machines.
const MAX_MEDIAN_RATIO: f64 = 2.5;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

#[test]
#[ignore = "wall-clock perf gate; scripts/ci.sh runs it explicitly"]
fn tracer_overhead_on_1f1b_round_is_bounded() {
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

    // A fresh tracer per traced sample, so every sample records the same
    // number of spans into an empty store.
    let run_once = |tracer: Option<&Tracer>| -> f64 {
        let exec = PipelineExecutor::new(
            black_box(&profile),
            SchedulePolicy::OneFOneBSync { k: k.clone() },
        )
        .expect("valid schedule");
        let t0 = Instant::now();
        black_box(exec.run_traced(16, 1, tracer).expect("no OOM"));
        t0.elapsed().as_secs_f64()
    };

    for _ in 0..3 {
        run_once(None);
        run_once(Some(&Tracer::new()));
    }
    // Interleave A/B samples so clock drift hits both sides equally.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut last = Tracer::new();
    for _ in 0..15 {
        plain.push(run_once(None));
        last = Tracer::new();
        traced.push(run_once(Some(&last)));
    }
    let (p, t) = (median(plain), median(traced));
    let ratio = t / p;
    println!("1f1b round: plain {p:.6}s, traced {t:.6}s, ratio {ratio:.3}");
    assert!(
        ratio < MAX_MEDIAN_RATIO,
        "the tracer costs {ratio:.2}x on the 1F1B round (bound {MAX_MEDIAN_RATIO}x)"
    );

    // Sanity: the traced side really was recording, and recording only
    // observed — its compute spans are the report's.
    let exec = PipelineExecutor::new(&profile, SchedulePolicy::OneFOneBSync { k })
        .expect("valid schedule");
    let report = exec.run(16, 1).expect("no OOM");
    let spans: Vec<_> = last
        .view()
        .spans()
        .filter(|s| s.is_compute())
        .copied()
        .collect();
    assert_eq!(spans, report.task_spans);
}

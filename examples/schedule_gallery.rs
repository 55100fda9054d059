//! Renders the pipeline schedules of the paper's Figs. 3–4 as ASCII
//! Gantt charts: Eco-FL's 1F1B-Sync at the Eq. 3 residency bounds, a
//! starved variant showing data-dependency bubbles, Gpipe's BAF-Sync,
//! PipeDream's flush-free 1F1B-Async, and the two extension schedules —
//! interleaved 1F1B (one row per *virtual* stage) and zero-bubble 1F1B
//! (the two backward halves rendered distinctly).
//!
//! ```text
//! cargo run --release --example schedule_gallery
//! ```

use ecofl::prelude::*;
use ecofl_pipeline::executor::ExecError;
use ecofl_pipeline::gantt::{legend, render_view};
use ecofl_pipeline::orchestrator::p_bounds;

fn show(title: &str, v: usize, result: Result<ExecutionReport, ExecError>) {
    println!("\n=== {title} ===");
    match result {
        Ok(report) => {
            for line in render_view(&report.trace_view(), 0, 100, v) {
                println!("{line}");
            }
            println!(
                "round {:.2}s, {:.1} samples/s, peak mem {}",
                report.round_time,
                report.throughput,
                report
                    .stage_peak_memory
                    .iter()
                    .map(|&b| ecofl_util::units::fmt_bytes(b))
                    .collect::<Vec<_>>()
                    .join(" / "),
            );
        }
        Err(e) => println!("aborted: {e}"),
    }
}

fn main() {
    let model = efficientnet_at(0, 224);
    let link = Link::mbps_100();
    let devices = vec![
        Device::new(tx2_q()),
        Device::new(nano_h()),
        Device::new(nano_h()),
    ];
    let mbs = 8;
    let m = 6;
    let partition = partition_dp(&model, &devices, &link, mbs).expect("feasible");
    let profile = PipelineProfile::new(&model, &partition.boundaries, &devices, &link, mbs);
    let p = p_bounds(&profile);
    println!("EfficientNet-B0 on ⟨TX2-Q, Nano-H, Nano-H⟩, mbs = {mbs}, M = {m}; P = {p:?}");
    println!("{}", legend());

    show(
        "1F1B-Sync, K = P (Eco-FL, Fig. 3)",
        1,
        PipelineExecutor::new(&profile, SchedulePolicy::OneFOneBSync { k: p.clone() })
            .expect("valid schedule")
            .run(m, 1),
    );
    show(
        "1F1B-Sync, starved K = [2,2,1] (Fig. 4 DDB)",
        1,
        PipelineExecutor::new(&profile, SchedulePolicy::OneFOneBSync { k: vec![2, 2, 1] })
            .expect("valid schedule")
            .run(m, 1),
    );
    show(
        "Gpipe BAF-Sync (all forwards, then all backwards)",
        1,
        PipelineExecutor::new(&profile, SchedulePolicy::BafSync)
            .expect("valid schedule")
            .run(m, 1),
    );
    show(
        "PipeDream 1F1B-Async (no flush, weight stashing)",
        1,
        PipelineExecutor::new(&profile, SchedulePolicy::OneFOneBAsync { k: p.clone() })
            .expect("valid schedule")
            .run(m, 1),
    );
    let interleaved = ScheduleKind::Interleaved1F1B
        .policy_for(&profile)
        .expect("fits");
    show(
        "Interleaved 1F1B, v = 2 (rows are virtual stages: dev d.chunk)",
        2,
        PipelineExecutor::new(&profile, interleaved)
            .expect("valid schedule")
            .run(m, 1),
    );
    show(
        "Zero-bubble 1F1B (a = activation-grad half, A = weight-grad half)",
        1,
        PipelineExecutor::new(&profile, SchedulePolicy::ZeroBubble { k: p })
            .expect("valid schedule")
            .run(m, 1),
    );
}

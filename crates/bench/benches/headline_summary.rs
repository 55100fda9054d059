//! Headline summary — the abstract's three claims, recomputed from the
//! figure benches' JSON outputs:
//!
//! 1. "upgrade the training accuracy by up to 26.3%"  → fig8 (RLG-NIID,
//!    Eco-FL vs FedAT),
//! 2. "reduce the local training time by up to 61.5%" → fig11 (pipeline
//!    vs single-device epoch time),
//! 3. "improve the local training throughput by up to 2.6×" → fig10
//!    (pipeline vs data-parallel time-to-accuracy).
//!
//! Run after the figure benches (`cargo bench --workspace` orders targets
//! alphabetically, so `fig*` precede `headline_summary`).
//!
//! Besides recomputing the claims, this target times the headline-scale
//! workloads themselves (an end-to-end FL run, a 1F1B pipeline round,
//! and a Table-2-style schedule x device-mix matrix of `sched_*` cases)
//! and writes a `BENCH_headline.json` snapshot — the wall-clock
//! trajectory that complements `BENCH_micro.json`'s kernel view.

use ecofl_bench::{
    bench_iters, bench_warmup, header, results_dir, time_case, write_bench_snapshot,
};
use ecofl_compat::json::{self, Value};
use ecofl_data::federated::PartitionScheme;
use ecofl_data::{FederatedDataset, SyntheticSpec};
use ecofl_fl::engine::{run, FlSetup, Strategy};
use ecofl_fl::FlConfig;
use ecofl_models::{efficientnet_at, ModelArch};
use ecofl_pipeline::executor::{PipelineExecutor, SchedulePolicy};
use ecofl_pipeline::orchestrator::{k_bounds, search_configuration, OrchestratorConfig};
use ecofl_pipeline::partition::partition_dp;
use ecofl_pipeline::profiler::PipelineProfile;
use ecofl_pipeline::schedule::ScheduleKind;
use ecofl_simnet::{nano_h, nano_l, tx2_n, tx2_q, Device, DeviceSpec, Link};
use std::hint::black_box;

/// End-to-end runs are ~1000x a micro case; default to fewer measured
/// iterations (still overridable via `ECOFL_BENCH_ITERS`).
const DEFAULT_ITERS: usize = 5;
const DEFAULT_WARMUP: usize = 1;

fn bench_fl_runs() {
    let config = FlConfig::tiny();
    let data = FederatedDataset::generate(
        &SyntheticSpec::mnist_like(),
        config.num_clients,
        60,
        60,
        PartitionScheme::ClassesPerClient(2),
        None,
        config.seed,
    );
    let setup = FlSetup {
        data,
        arch: ModelArch::Mlp,
        config,
    };
    let iters = bench_iters(DEFAULT_ITERS);
    let warmup = bench_warmup(DEFAULT_WARMUP);
    time_case("fl_run_fedavg_tiny", warmup, iters, || {
        run(Strategy::FedAvg, black_box(&setup), None)
    });
    time_case("fl_run_ecofl_tiny", warmup, iters, || {
        run(
            Strategy::EcoFl {
                dynamic_grouping: true,
            },
            black_box(&setup),
            None,
        )
    });
}

fn bench_sched_dispatch_100k() {
    // 100k virtual clients round-robined onto 64 data shards: the
    // census-scale scheduler path (event queue, shared
    // start-parameter snapshots, streaming delta folds) end to end.
    let config = FlConfig {
        num_clients: 100_000,
        clients_per_round: 256,
        horizon: 150.0,
        eval_interval: 50.0,
        ..FlConfig::tiny()
    };
    let data = FederatedDataset::generate(
        &SyntheticSpec::mnist_like(),
        64,
        60,
        60,
        PartitionScheme::ClassesPerClient(2),
        None,
        config.seed,
    )
    .virtualize(config.num_clients);
    let setup = FlSetup {
        data,
        arch: ModelArch::Mlp,
        config,
    };
    let iters = bench_iters(DEFAULT_ITERS);
    let warmup = bench_warmup(DEFAULT_WARMUP);
    time_case("sched_dispatch_100k", warmup, iters, || {
        run(Strategy::FedAvg, black_box(&setup), None)
    });
}

fn bench_pipeline_round() {
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
    let iters = bench_iters(DEFAULT_ITERS);
    let warmup = bench_warmup(DEFAULT_WARMUP);
    time_case("pipeline_1f1b_round_b2_m16", warmup, iters, || {
        PipelineExecutor::new(
            black_box(&profile),
            SchedulePolicy::OneFOneBSync { k: k.clone() },
        )
        .expect("valid schedule")
        .run(16, 1)
    });
    // The same round with a MetricsHub attached: the pair is the
    // committed record of hub overhead on the 1F1B hot path, CI-gated
    // by tests/metrics_overhead.rs.
    let hub = ecofl_obs::MetricsHub::new();
    time_case("pipeline_1f1b_round_b2_m16_metered", warmup, iters, || {
        PipelineExecutor::new(
            black_box(&profile),
            SchedulePolicy::OneFOneBSync { k: k.clone() },
        )
        .expect("valid schedule")
        .run_traced(16, 1, &hub)
    });
}

/// The §4.3 search as `ecofl plan --model effnet-b6 --batch 256` runs it
/// over the benchmark's six-device home: 180 distinct orders of 720 × 4
/// micro-batch sizes.
fn bench_plan_search() {
    let model = efficientnet_at(6, 224);
    let devices = [tx2_q(), tx2_n(), tx2_n(), nano_h(), nano_h(), nano_l()].map(Device::new);
    let link = Link::mbps_100();
    let config = OrchestratorConfig {
        global_batch: 256,
        mbs_candidates: vec![32, 16, 8, 4],
        eval_rounds: 2,
        ..OrchestratorConfig::default()
    };
    let iters = bench_iters(DEFAULT_ITERS);
    let warmup = bench_warmup(DEFAULT_WARMUP);
    time_case("plan_search_b6_6dev", warmup, iters, || {
        search_configuration(black_box(&model), &devices, &link, &config)
    });
}

/// Table-2-style matrix: every registered schedule on two heterogeneous
/// device mixes. Each cell becomes a `sched_<kind>_<mix>` wall-clock
/// case in `BENCH_headline.json`; the simulated throughput and analytic
/// bubble are printed alongside, and zero-bubble must land strictly
/// below 1F1B-Sync's Eq. 2 bubble on every mix.
fn bench_schedule_matrix() {
    let mixes: [(&str, Vec<DeviceSpec>, usize); 2] = [
        ("b2_qhh_m16", vec![tx2_q(), nano_h(), nano_h()], 16),
        ("b0_nh_m8", vec![tx2_n(), nano_h()], 8),
    ];
    let iters = bench_iters(DEFAULT_ITERS);
    let warmup = bench_warmup(DEFAULT_WARMUP);
    println!(
        "{:<12} {:<12} {:>12} {:>10}",
        "mix", "schedule", "samples/s", "bubble/rd"
    );
    for (mix, specs, m) in mixes {
        let arch = if mix.starts_with("b2") { 2 } else { 0 };
        let model = efficientnet_at(arch, 224);
        let devices: Vec<Device> = specs.into_iter().map(Device::new).collect();
        let link = Link::mbps_100();
        let mbs = m.min(8);
        let partition = partition_dp(&model, &devices, &link, mbs).expect("feasible");
        let profile = PipelineProfile::new(&model, &partition.boundaries, &devices, &link, mbs);
        let bubble = |kind: ScheduleKind| -> f64 {
            let policy = kind.policy_for(&profile).expect("residency");
            let report = PipelineExecutor::new(&profile, policy.clone())
                .expect("valid schedule")
                .run(m, 1)
                .expect("no OOM");
            println!(
                "{mix:<12} {:<12} {:>12.2} {:>10.4}",
                kind.name(),
                report.throughput,
                report.ssb_per_round
            );
            time_case(
                &format!("sched_{}_{mix}", kind.name()),
                warmup,
                iters,
                || {
                    PipelineExecutor::new(black_box(&profile), policy.clone())
                        .expect("valid schedule")
                        .run(m, 1)
                },
            );
            report.ssb_per_round
        };
        let mut by_kind = std::collections::BTreeMap::new();
        for kind in ScheduleKind::all() {
            by_kind.insert(kind.name(), bubble(kind));
        }
        assert!(
            by_kind["zb"] < by_kind["1f1b"],
            "{mix}: zero-bubble must beat the Eq. 2 bubble ({} vs {})",
            by_kind["zb"],
            by_kind["1f1b"]
        );
    }
}

fn load(id: &str) -> Option<Value> {
    let path = results_dir().join(format!("{id}.json"));
    let text = std::fs::read_to_string(path).ok()?;
    json::from_str(&text).ok()
}

fn main() {
    header("Headline workloads (wall-clock)");
    bench_fl_runs();
    bench_sched_dispatch_100k();
    bench_pipeline_round();
    bench_plan_search();
    header("Schedule matrix (Table-2 style: schedule x device mix)");
    bench_schedule_matrix();
    write_bench_snapshot("headline");

    header("Headline claims vs measured");
    let mut missing = Vec::new();

    // 1. Accuracy uplift (fig8, RLG-NIID).
    match load("fig8") {
        Some(v) => {
            let arr = v.as_array().expect("fig8 array");
            let best = |strategy: &str| {
                arr.iter()
                    .find(|c| c["setting"] == "RLG-NIID" && c["strategy"] == strategy)
                    .and_then(|c| c["best_accuracy"].as_f64())
                    .expect("curve")
            };
            let uplift = (best("Eco-FL") - best("FedAT")) * 100.0;
            println!(
                "accuracy uplift vs FedAT (RLG-NIID): +{uplift:.1} pp   (paper: up to +26.3%)"
            );
        }
        None => missing.push("fig8"),
    }

    // 2. Training-time reduction (fig11).
    match load("fig11") {
        Some(v) => {
            let arr = v.as_array().expect("fig11 array");
            let mut best_cut = 0.0f64;
            let mut at = String::new();
            for workload in [
                "EfficientNet-B1 @ Pipeline-2",
                "MobileNet-W2 @ Pipeline-2",
                "EfficientNet-B4 @ Pipeline-3",
                "MobileNet-W3 @ Pipeline-3",
            ] {
                let pipe = arr
                    .iter()
                    .filter(|r| r["workload"] == workload)
                    .filter(|r| r["method"].as_str().unwrap_or("").contains("pipeline"))
                    .filter_map(|r| r["epoch_time"].as_f64())
                    .fold(f64::INFINITY, f64::min);
                // "Up to": against the member device that would otherwise
                // train alone (the paper's participant without
                // collaboration), i.e. the slowest single-device baseline.
                let single = arr
                    .iter()
                    .filter(|r| r["workload"] == workload)
                    .filter(|r| r["method"].as_str().unwrap_or("").contains("only"))
                    .filter_map(|r| r["epoch_time"].as_f64())
                    .fold(f64::NEG_INFINITY, f64::max);
                let cut = (1.0 - pipe / single) * 100.0;
                if cut > best_cut {
                    best_cut = cut;
                    at = workload.into();
                }
            }
            println!(
                "local training time reduction vs training alone: -{best_cut:.1}% \
                 on {at}   (paper: up to -61.5%)"
            );
        }
        None => missing.push("fig11"),
    }

    // 3. Throughput / time-to-accuracy speedup (fig10).
    match load("fig10") {
        Some(v) => {
            let arr = v.as_array().expect("fig10 array");
            let mut best = 0.0f64;
            let mut at = String::new();
            for workload in [
                "EfficientNet-B1 @ Pipeline-2",
                "MobileNet-W2 @ Pipeline-2",
                "EfficientNet-B4 @ Pipeline-3",
                "MobileNet-W3 @ Pipeline-3",
            ] {
                let ttt = |m: &str| {
                    arr.iter()
                        .filter(|r| r["workload"] == workload)
                        .filter(|r| r["method"].as_str().unwrap_or("").contains(m))
                        .filter_map(|r| r["time_to_target"].as_f64())
                        .fold(f64::INFINITY, f64::min)
                };
                let speedup = ttt("Data Parallelism") / ttt("Eco-FL Pipeline");
                if speedup.is_finite() && speedup > best {
                    best = speedup;
                    at = workload.into();
                }
            }
            println!(
                "time-to-accuracy speedup vs data parallelism: {best:.1}x on {at}   \
                 (paper: up to 2.6x)"
            );
        }
        None => missing.push("fig10"),
    }

    if missing.is_empty() {
        println!("\nAll three headline claims reproduced in shape.");
    } else {
        println!(
            "\n[note] missing inputs: {missing:?} — run `cargo bench --workspace` so the \
             figure benches write their JSON first."
        );
    }
}

//! Fig. 10 — time-to-accuracy of single-device, data-parallel, and
//! Eco-FL pipeline training on the four pipeline workloads.
//!
//! All methods run the same synchronous SGD, so the accuracy-per-epoch
//! curve is shared; methods differ in seconds-per-epoch. A genuine
//! reference curve is trained once (the client MLP on the hard synthetic
//! task, standing in for CIFAR-10 — see DESIGN.md), and each method's curve is
//! that reference stretched by its simulated epoch time from the Fig. 11
//! harness. Shape: pipeline reaches the target accuracy first; DP last
//! (slower than a single device for MobileNet-W3).

use ecofl_bench::{header, print_series, write_json};
use ecofl_compat::serde::Serialize;
use ecofl_data::SyntheticSpec;
use ecofl_fl::reference::ReferenceCurve;
use ecofl_models::{efficientnet_at, mobilenet_v2_at, ModelArch, ModelProfile};
use ecofl_pipeline::baselines::{data_parallel_epoch, single_device_epoch};
use ecofl_pipeline::orchestrator::{search_configuration, OrchestratorConfig};
use ecofl_simnet::{nano_h, nano_l, tx2_q, Device, DeviceSpec, Link};
use ecofl_util::Rng;

const EPOCH_SAMPLES: usize = 50_000;
const GLOBAL_BATCH: usize = 64;

#[derive(Serialize)]
struct Series {
    workload: String,
    method: String,
    epoch_time: f64,
    curve: Vec<(f64, f64)>,
    time_to_target: Option<f64>,
}

fn epoch_times(
    model: &ModelProfile,
    cluster: &[DeviceSpec],
    singles: &[DeviceSpec],
) -> Vec<(String, f64)> {
    let link = Link::mbps_100();
    let devices: Vec<Device> = cluster.iter().cloned().map(Device::new).collect();
    let mut out = Vec::new();
    for s in singles {
        if let Some(r) =
            single_device_epoch(model, &Device::new(s.clone()), GLOBAL_BATCH, EPOCH_SAMPLES)
        {
            out.push((format!("{} only", s.name), r.epoch_time));
        }
    }
    if let Some(dp) = data_parallel_epoch(model, &devices, &link, GLOBAL_BATCH, EPOCH_SAMPLES) {
        out.push(("Data Parallelism".into(), dp.epoch_time));
    }
    let plan = search_configuration(
        model,
        &devices,
        &link,
        &OrchestratorConfig {
            global_batch: GLOBAL_BATCH,
            mbs_candidates: vec![16, 8, 4],
            eval_rounds: 2,
            ..OrchestratorConfig::default()
        },
    )
    .expect("pipeline plan");
    out.push((
        "Eco-FL Pipeline".into(),
        EPOCH_SAMPLES as f64 / plan.report.throughput,
    ));
    out
}

fn main() {
    header("Fig. 10: time-to-accuracy per training method");

    // One genuine reference run: accuracy after each epoch on the hard
    // (CIFAR-10-like) synthetic task.
    let spec = SyntheticSpec::cifar_like();
    let protos = spec.prototypes(99);
    let mut rng = Rng::new(100);
    let train = protos.sample_balanced(120, &mut rng);
    let test = protos.sample_balanced(40, &mut rng);
    let reference = ReferenceCurve::train(ModelArch::Mlp, &train, &test, 25, 16, 0.03, 7);
    let best = reference
        .accuracy
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let target = 0.9 * best;
    println!(
        "reference curve: {} epochs, best accuracy {:.1}%, target {:.1}%",
        reference.epochs(),
        best * 100.0,
        target * 100.0
    );

    let two_stage = [nano_l(), nano_h()];
    let three_stage = [tx2_q(), nano_h(), nano_h()];
    let workloads: Vec<(String, ModelProfile, &[DeviceSpec], Vec<DeviceSpec>)> = vec![
        (
            "EfficientNet-B1 @ Pipeline-2".into(),
            efficientnet_at(1, 224),
            &two_stage,
            vec![nano_h(), nano_l()],
        ),
        (
            "MobileNet-W2 @ Pipeline-2".into(),
            mobilenet_v2_at(2.0, 224),
            &two_stage,
            vec![nano_h(), nano_l()],
        ),
        (
            "EfficientNet-B4 @ Pipeline-3".into(),
            efficientnet_at(4, 224),
            &three_stage,
            vec![tx2_q(), nano_h()],
        ),
        (
            "MobileNet-W3 @ Pipeline-3".into(),
            mobilenet_v2_at(3.0, 224),
            &three_stage,
            vec![tx2_q(), nano_h()],
        ),
    ];

    let mut all = Vec::new();
    for (name, model, cluster, singles) in &workloads {
        println!("\n--- {name} ---");
        let mut fastest_to_target: Option<(String, f64)> = None;
        for (method, epoch_time) in epoch_times(model, cluster, singles) {
            let curve = reference.timed(epoch_time);
            let ttt = curve.time_to_reach(target);
            println!(
                "{:<18} {:>9.1} s/epoch   target hit at {}",
                method,
                epoch_time,
                ttt.map_or("never".into(), |t| format!("{t:.0} s")),
            );
            if let Some(t) = ttt {
                if fastest_to_target.as_ref().is_none_or(|(_, bt)| t < *bt) {
                    fastest_to_target = Some((method.clone(), t));
                }
            }
            all.push(Series {
                workload: name.clone(),
                method,
                epoch_time,
                curve: curve.resample(12),
                time_to_target: ttt,
            });
        }
        let (winner, _) = fastest_to_target.expect("someone reaches the target");
        assert_eq!(
            winner, "Eco-FL Pipeline",
            "{name}: the pipeline must reach the target first"
        );
    }

    // 2.6× headline: pipeline vs DP time-to-target on MobileNet-W3.
    let pick = |method: &str| {
        all.iter()
            .find(|s| s.workload.contains("W3") && s.method.contains(method))
            .and_then(|s| s.time_to_target)
            .expect("target reached")
    };
    let speedup = pick("Data Parallelism") / pick("Eco-FL Pipeline");
    println!(
        "\nMobileNet-W3: pipeline reaches the target {speedup:.1}x faster than DP \
         (paper: 2.6x)."
    );
    assert!(speedup > 1.5, "pipeline must hold a clear speedup over DP");

    print_series(
        "example series: Eco-FL Pipeline on MobileNet-W3 (accuracy)",
        &all.iter()
            .find(|s| s.workload.contains("W3") && s.method == "Eco-FL Pipeline")
            .unwrap()
            .curve,
        "",
    );
    write_json("fig10", &all);
}

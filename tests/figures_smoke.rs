//! Miniature versions of every figure experiment, sized for `cargo test`:
//! each asserts the same qualitative shape as its full bench target, so
//! the reproduction's claims are validated on every test run, not only
//! when the bench harness is invoked.

use ecofl::prelude::*;
use ecofl_pipeline::executor::ExecError;
use ecofl_pipeline::orchestrator::{k_bounds, p_bounds};
use ecofl_pipeline::partition::partition_objective;

fn three_devices() -> Vec<Device> {
    vec![
        Device::new(tx2_q()),
        Device::new(nano_h()),
        Device::new(nano_h()),
    ]
}

/// Fig. 4 in miniature: starving a stage below `P_s` loses throughput.
#[test]
fn fig4_shape_starvation_costs_throughput() {
    let model = efficientnet_at(0, 224);
    let link = Link::mbps_100();
    let devices = three_devices();
    let partition = partition_dp(&model, &devices, &link, 4).unwrap();
    let profile = PipelineProfile::new(&model, &partition.boundaries, &devices, &link, 4);
    let p = p_bounds(&profile);
    let run_k = |k: Vec<usize>| {
        PipelineExecutor::new(&profile, SchedulePolicy::OneFOneBSync { k })
            .expect("valid schedule")
            .run(8, 2)
            .unwrap()
            .throughput
    };
    let healthy = run_k(p.clone());
    let mut starved_k = p;
    starved_k[0] = 1;
    let starved = run_k(starved_k);
    assert!(healthy > starved * 1.05);
}

/// Fig. 12 in miniature: Eq. 1 beats the even split on heterogeneous
/// devices.
#[test]
fn fig12_shape_dp_beats_even_split() {
    let model = efficientnet_at(1, 224);
    let link = Link::mbps_100();
    let devices = vec![Device::new(tx2_n()), Device::new(nano_h())];
    let ours = partition_dp(&model, &devices, &link, 8).unwrap();
    let even = partition_even(&model, 2).unwrap();
    let ours_obj = partition_objective(&model, &ours, &devices, &link, 8);
    let even_obj = partition_objective(&model, &even, &devices, &link, 8);
    assert!(ours_obj < even_obj * 0.8, "{ours_obj} vs {even_obj}");
}

/// Table 2 in miniature: Gpipe OOMs where 1F1B-Sync fits.
#[test]
fn table2_shape_gpipe_memory_dominates() {
    let model = efficientnet_at(6, 228);
    let link = Link::mbps_100();
    let devices = vec![Device::new(tx2_n()), Device::new(nano_h())];
    let partition = partition_dp(&model, &devices, &link, 8).unwrap();
    let profile = PipelineProfile::new(&model, &partition.boundaries, &devices, &link, 8);
    let k = k_bounds(&profile).unwrap();
    assert!(
        PipelineExecutor::new(&profile, SchedulePolicy::OneFOneBSync { k })
            .expect("valid schedule")
            .run(8, 1)
            .is_ok()
    );
    assert!(matches!(
        PipelineExecutor::new(&profile, SchedulePolicy::BafSync)
            .expect("valid schedule")
            .run(8, 1),
        Err(ExecError::Oom { .. })
    ));
}

/// Fig. 11 in miniature: on MobileNet-W3, pipeline < single TX2-Q < DP.
#[test]
fn fig11_shape_dp_loses_on_wide_mobilenet() {
    let model = mobilenet_v2_at(3.0, 224);
    let link = Link::mbps_100();
    let devices = three_devices();
    let dp = data_parallel_epoch(&model, &devices, &link, 64, 6400).unwrap();
    let single = single_device_epoch(&model, &devices[0], 64, 6400).unwrap();
    let plan = search_configuration(
        &model,
        &devices,
        &link,
        &OrchestratorConfig {
            global_batch: 64,
            mbs_candidates: vec![16, 8],
            eval_rounds: 1,
            ..OrchestratorConfig::default()
        },
    )
    .unwrap();
    let pipe_epoch = 6400.0 / plan.report.throughput;
    assert!(pipe_epoch < single.epoch_time);
    assert!(single.epoch_time < dp.epoch_time);
    assert!(dp.comm_fraction > 0.5);
}

/// Fig. 13 in miniature: the scheduler recovers throughput after a spike.
#[test]
fn fig13_shape_scheduler_recovers() {
    let model = efficientnet_at(4, 224);
    let link = Link::mbps_100();
    let devices = three_devices();
    let spike = LoadSpike {
        device: 1,
        at: 60.0,
        load: 0.6,
    };
    let with = simulate_load_spike(&model, &devices, &link, 8, 8, spike, 160.0, true)
        .expect("feasible spike scenario");
    let without = simulate_load_spike(&model, &devices, &link, 8, 8, spike, 160.0, false)
        .expect("feasible spike scenario");
    assert!(with.post_spike_throughput > without.post_spike_throughput * 1.1);
}

/// Fig. 8 in miniature: under group-level non-IID, latency-only tiers
/// (FedAT) lose to the Eq. 4 grouping.
#[test]
fn fig8_shape_fedat_collapses_under_rlg_niid() {
    let n = 40;
    let mut rng = ecofl::util::Rng::new(82);
    let delays: Vec<f64> = (0..n).map(|_| rng.gaussian(40.0, 18.0).max(3.0)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| delays[a].partial_cmp(&delays[b]).unwrap());
    let mut rlg = vec![0usize; n];
    for (rank, &client) in order.iter().enumerate() {
        rlg[client] = rank * 5 / n;
    }
    let config = FlConfig {
        num_clients: n,
        clients_per_round: 10,
        num_groups: 5,
        horizon: 1500.0,
        eval_interval: 150.0,
        dynamics: None,
        base_delay_override: Some(delays),
        learning_rate: 0.1,
        seed: 82,
        ..FlConfig::default()
    };
    let data = FederatedDataset::generate(
        &SyntheticSpec::cifar_like(),
        n,
        30,
        30,
        PartitionScheme::RlgNiid(3),
        Some(&rlg),
        82,
    );
    let setup = FlSetup {
        data,
        arch: ModelArch::Mlp,
        config,
    };
    let fedat = run_strategy(Strategy::FedAt, &setup, None);
    let ecofl = run_strategy(
        Strategy::EcoFl {
            dynamic_grouping: true,
        },
        &setup,
        None,
    );
    assert!(
        ecofl.best_accuracy > fedat.best_accuracy + 0.02,
        "Eco-FL {} vs FedAT {}",
        ecofl.best_accuracy,
        fedat.best_accuracy
    );
}

/// Fig. 9 in miniature: λ trades group data balance against latency
/// tightness.
#[test]
fn fig9_shape_lambda_tradeoff() {
    let mut rng = ecofl::util::Rng::new(91);
    let latencies: Vec<f64> = (0..60).map(|_| rng.range_f64(5.0, 60.0)).collect();
    let counts: Vec<Vec<f64>> = (0..60)
        .map(|i| {
            let mut c = vec![0.0; 10];
            c[i % 10] = 30.0;
            c
        })
        .collect();
    let js_at = |lambda: f64| {
        Grouper::initial(
            &latencies,
            &counts,
            GroupingConfig {
                num_groups: 5,
                strategy: GroupingStrategy::EcoFl { lambda },
                rt_relative: 0.8,
                rt_min: 5.0,
                assign_batch: 0,
            },
            &mut ecofl::util::Rng::new(7),
        )
        .avg_group_js()
    };
    assert!(js_at(2000.0) < js_at(0.0));
}

//! Cross-crate integration tests: the full Eco-FL system exercised
//! end-to-end through the public `ecofl` facade.

use ecofl::prelude::*;

fn quick_fl_config(seed: u64) -> FlConfig {
    FlConfig {
        num_clients: 24,
        clients_per_round: 8,
        num_groups: 3,
        horizon: 400.0,
        eval_interval: 50.0,
        seed,
        ..FlConfig::default()
    }
}

#[test]
fn full_system_pipeline_to_fl() {
    let homes = vec![
        SmartHome::new("fast", vec![tx2_q(), nano_h()]),
        SmartHome::new("mid", vec![nano_h(), nano_h()]),
        SmartHome::new("slow", vec![nano_l()]),
    ];
    let system = EcoFlSystem::builder()
        .homes(homes)
        .replicate_homes(24)
        .dataset(SyntheticSpec::mnist_like())
        .partition(PartitionScheme::ClassesPerClient(2))
        .fl_config(quick_fl_config(11))
        .seed(11)
        .build()
        .expect("system builds");

    // Every home template must get a feasible plan, ordered by capability.
    assert_eq!(system.plans().len(), 3);
    for plan in system.plans() {
        assert!(plan.report.throughput > 0.0);
        assert!(!plan.k.is_empty());
    }
    let report = system.run(None).expect("runs");
    assert_eq!(report.client_delays.len(), 24);
    assert!(
        report.client_delays[0] < report.client_delays[2],
        "two-device home must respond faster than the lone Nano-L"
    );
    assert!(report.fl.global_updates > 0);
    assert!(report.fl.best_accuracy > 0.2, "system must learn something");
}

#[test]
fn pipeline_beats_single_device_end_to_end() {
    // Partition → orchestrate → execute: collaborative throughput must
    // beat the best member device training alone.
    let model = efficientnet_at(1, 224);
    let link = Link::mbps_100();
    let devices = vec![Device::new(tx2_q()), Device::new(nano_h())];
    let plan = search_configuration(
        &model,
        &devices,
        &link,
        &OrchestratorConfig {
            global_batch: 64,
            mbs_candidates: vec![16, 8, 4],
            eval_rounds: 2,
            ..OrchestratorConfig::default()
        },
    )
    .expect("plan");
    let single = single_device_epoch(&model, &devices[0], 64, 1000).expect("fits");
    let pipeline_epoch = 1000.0 / plan.report.throughput;
    assert!(
        pipeline_epoch < single.epoch_time,
        "pipeline epoch {pipeline_epoch} must beat single-device {}",
        single.epoch_time
    );
}

#[test]
fn strategies_share_initialization_and_data() {
    // With one seed, every strategy starts from identical weights and
    // shards; their t = 0 accuracy must agree exactly.
    let data = FederatedDataset::generate(
        &SyntheticSpec::mnist_like(),
        24,
        40,
        20,
        PartitionScheme::ClassesPerClient(2),
        None,
        5,
    );
    let setup = FlSetup {
        data,
        arch: ModelArch::Mlp,
        config: quick_fl_config(5),
    };
    let a = run_strategy(Strategy::FedAvg, &setup, None);
    let b = run_strategy(
        Strategy::EcoFl {
            dynamic_grouping: true,
        },
        &setup,
        None,
    );
    assert_eq!(
        a.accuracy.points()[0].1,
        b.accuracy.points()[0].1,
        "identical seed must give identical initial accuracy"
    );
}

#[test]
fn determinism_across_full_runs() {
    let homes = vec![SmartHome::new("h", vec![tx2_q(), nano_h()])];
    let make = || {
        EcoFlSystem::builder()
            .homes(homes.clone())
            .replicate_homes(12)
            .fl_config(FlConfig {
                num_clients: 12,
                clients_per_round: 4,
                num_groups: 2,
                horizon: 250.0,
                eval_interval: 50.0,
                ..FlConfig::tiny()
            })
            .seed(77)
            .build()
            .expect("builds")
            .run(None)
            .expect("runs")
    };
    let r1 = make();
    let r2 = make();
    assert_eq!(r1.fl.accuracy, r2.fl.accuracy);
    assert_eq!(r1.fl.global_updates, r2.fl.global_updates);
    assert_eq!(r1.client_delays, r2.client_delays);
}

#[test]
fn adaptive_rescheduling_recovers_throughput() {
    let model = efficientnet_at(4, 224);
    let link = Link::mbps_100();
    let devices = vec![
        Device::new(tx2_q()),
        Device::new(nano_h()),
        Device::new(nano_h()),
    ];
    let spike = LoadSpike {
        device: 1,
        at: 80.0,
        load: 0.6,
    };
    let with = simulate_load_spike(&model, &devices, &link, 8, 8, spike, 220.0, true)
        .expect("feasible spike scenario");
    let without = simulate_load_spike(&model, &devices, &link, 8, 8, spike, 220.0, false)
        .expect("feasible spike scenario");
    assert!(with.post_spike_throughput > without.post_spike_throughput);
    assert!(!with.events.is_empty());
}

#[test]
fn threaded_pipeline_trains_a_real_model() {
    // The multi-threaded 1F1B-Sync prototype on a real synthetic task.
    use ecofl::tensor::{Layer, Linear, ReLU};
    use ecofl::util::Rng;

    let spec = SyntheticSpec::mnist_like();
    let protos = spec.prototypes(3);
    let mut rng = Rng::new(4);
    let train = protos.sample_balanced(20, &mut rng);

    let mut wrng = Rng::new(5);
    let segments: Vec<Vec<Box<dyn Layer>>> = vec![
        vec![
            Box::new(Linear::new(spec.feature_dim, 32, &mut wrng)) as Box<dyn Layer>,
            Box::new(ReLU::new()),
        ],
        vec![Box::new(Linear::new(32, spec.num_classes, &mut wrng)) as Box<dyn Layer>],
    ];
    let mut trainer = PipelineTrainer::launch(segments, vec![2, 1]);

    let mut first_loss = None;
    let mut last_loss = 0.0;
    for round in 0..25 {
        let batches: Vec<(Tensor, Vec<usize>)> = train
            .batches(25, &mut rng)
            .into_iter()
            .map(|idx| {
                let (feats, labels) = train.gather(&idx);
                (
                    Tensor::from_vec(feats, &[labels.len(), spec.feature_dim]),
                    labels,
                )
            })
            .collect();
        last_loss = trainer
            .train_round(&batches, 0.1)
            .expect("healthy pipeline round");
        if round == 0 {
            first_loss = Some(last_loss);
        }
    }
    let first = first_loss.unwrap();
    assert!(
        last_loss < first * 0.6,
        "pipelined training must reduce loss: {first} -> {last_loss}"
    );
    let (fwd, bwd) = trainer.comm_stats();
    assert!(
        fwd[0] > 0 && bwd[0] > 0,
        "boundary traffic must be recorded"
    );
    trainer.shutdown();
}

#[test]
fn grouping_responds_to_latency_drift_in_engine() {
    // Under dynamics, Eco-FL must actually perform regroups while the
    // static variant performs none.
    let data = FederatedDataset::generate(
        &SyntheticSpec::mnist_like(),
        30,
        40,
        20,
        PartitionScheme::ClassesPerClient(2),
        None,
        9,
    );
    let mut config = quick_fl_config(9);
    config.num_clients = 30;
    config.horizon = 800.0;
    config.dynamics = Some(DynamicsConfig {
        change_prob: 0.5,
        degrees: vec![0.2, 1.0],
    });
    let setup = FlSetup {
        data,
        arch: ModelArch::Mlp,
        config,
    };
    let dynamic = run_strategy(
        Strategy::EcoFl {
            dynamic_grouping: true,
        },
        &setup,
        None,
    );
    let static_ = run_strategy(
        Strategy::EcoFl {
            dynamic_grouping: false,
        },
        &setup,
        None,
    );
    assert!(
        dynamic.regroup_events > 0,
        "dynamics must trigger regrouping"
    );
    assert_eq!(static_.regroup_events, 0);
}

//! Coverage of the `EcoFlSystemBuilder` surface: every option, the error
//! paths, and the interplay between options and the run.

use ecofl_core::prelude::*;
use ecofl_core::system::EcoFlSystemBuilder;

fn homes() -> Vec<SmartHome> {
    vec![
        SmartHome::new("a", vec![tx2_q(), nano_h()]),
        SmartHome::new("b", vec![nano_h()]),
    ]
}

fn quick() -> FlConfig {
    FlConfig {
        num_clients: 10,
        clients_per_round: 4,
        num_groups: 2,
        horizon: 200.0,
        eval_interval: 60.0,
        ..FlConfig::tiny()
    }
}

#[test]
fn empty_builder_fails_with_message() {
    let err = EcoFlSystemBuilder::new().build().unwrap_err();
    assert!(
        matches!(err, EcoFlError::Config(_)),
        "expected Config error, got {err:?}"
    );
    assert!(
        err.to_string().contains("smart home"),
        "unexpected message: {err}"
    );
}

#[test]
fn infeasible_home_fails_with_home_name() {
    // A home with more devices than any model has layers per stage can't
    // happen; instead give a device with absurdly little memory.
    let tiny = DeviceSpec::new("tiny", 1e9, 1024, 1e8);
    let err = EcoFlSystem::builder()
        .homes(vec![SmartHome::new("broken-home", vec![tiny])])
        .fl_config(quick())
        .build()
        .unwrap_err();
    assert!(
        matches!(err, EcoFlError::Plan(_)),
        "expected Plan error, got {err:?}"
    );
    assert!(
        err.to_string().contains("broken-home"),
        "unexpected message: {err}"
    );
}

#[test]
fn bad_local_solver_knobs_are_config_errors_not_worker_panics() {
    type Spoil = fn(&mut FlConfig);
    let cases: [(&str, Spoil); 5] = [
        ("batch_size", |c| c.batch_size = 0),
        ("local_epochs", |c| c.local_epochs = 0),
        ("learning_rate", |c| c.learning_rate = f32::NAN),
        ("mu", |c| c.mu = -1.0),
        ("alpha", |c| c.alpha = f64::NAN),
    ];
    for (field, spoil) in cases {
        let mut config = quick();
        spoil(&mut config);
        let err = EcoFlSystem::builder()
            .homes(homes())
            .fl_config(config)
            .build()
            .and_then(|system| system.run(None))
            .unwrap_err();
        assert!(
            matches!(err, EcoFlError::Config(_)) && err.to_string().contains(field),
            "{field}: expected a Config error naming it, got {err:?}"
        );
    }
}

#[test]
fn bad_population_and_latency_knobs_are_config_errors_not_panics() {
    type Spoil = fn(&mut FlConfig);
    let cases: [(&str, Spoil); 9] = [
        ("horizon", |c| c.horizon = 0.0),
        ("clients_per_round", |c| c.clients_per_round = 0),
        ("num_clients", |c| c.num_clients = 0),
        ("base_delay_mean", |c| c.base_delay_mean = f64::NAN),
        ("dynamics.degrees", |c| {
            c.dynamics.as_mut().expect("dynamics on").degrees.clear();
        }),
        ("dynamics.degrees", |c| {
            c.dynamics.as_mut().expect("dynamics on").degrees[0] = 0.0;
        }),
        ("dynamics.degrees", |c| {
            c.dynamics.as_mut().expect("dynamics on").degrees = vec![0.5; 300];
        }),
        ("dynamics.change_prob", |c| {
            c.dynamics.as_mut().expect("dynamics on").change_prob = 1.5;
        }),
        ("base_delay_override", |c| {
            c.base_delay_override = Some(vec![5.0; 3]);
        }),
    ];
    for (field, spoil) in cases {
        let mut config = quick();
        spoil(&mut config);
        let err = EcoFlSystem::builder()
            .homes(homes())
            .fl_config(config)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, EcoFlError::Config(_)) && err.to_string().contains(field),
            "{field}: expected a Config error naming it, got {err:?}"
        );
    }
}

#[test]
fn dataset_and_partition_options_flow_through() {
    let report = EcoFlSystem::builder()
        .homes(homes())
        .replicate_homes(10)
        .dataset(SyntheticSpec::fashion_like())
        .partition(PartitionScheme::Iid)
        .samples_per_client(24)
        .fl_config(quick())
        .seed(5)
        .build()
        .expect("builds")
        .run(None)
        .expect("runs");
    assert_eq!(report.client_delays.len(), 10);
    assert!(report.fl.global_updates > 0);
}

#[test]
fn strategy_option_switches_algorithm() {
    let base = EcoFlSystem::builder()
        .homes(homes())
        .replicate_homes(10)
        .fl_config(quick())
        .seed(6);
    let fedavg = base
        .clone()
        .strategy(Strategy::FedAvg)
        .build()
        .unwrap()
        .run(None)
        .expect("runs");
    let ecofl = base
        .strategy(Strategy::EcoFl {
            dynamic_grouping: true,
        })
        .build()
        .unwrap()
        .run(None)
        .expect("runs");
    assert_eq!(fedavg.fl.strategy, "FedAvg");
    assert_eq!(ecofl.fl.strategy, "Eco-FL");
}

#[test]
fn pipeline_model_option_changes_plans() {
    let small = EcoFlSystem::builder()
        .homes(homes())
        .pipeline_model(efficientnet_at(0, 96))
        .fl_config(quick())
        .build()
        .unwrap();
    let big = EcoFlSystem::builder()
        .homes(homes())
        .pipeline_model(efficientnet_at(4, 224))
        .fl_config(quick())
        .build()
        .unwrap();
    // The lighter workload must plan to higher throughput on equal homes.
    assert!(
        small.plans()[0].report.throughput > big.plans()[0].report.throughput,
        "B0@96 should out-run B4@224"
    );
}

#[test]
fn replicate_homes_never_shrinks_below_templates() {
    let system = EcoFlSystem::builder()
        .homes(homes())
        .replicate_homes(1) // fewer than templates: clamped up
        .fl_config(quick())
        .seed(4)
        .build()
        .unwrap();
    let report = system.run(None).expect("runs");
    assert!(report.client_delays.len() >= 2);
}

#[test]
fn a_run_store_holds_each_run_once_and_refuses_a_second_tracer() {
    let dir = std::env::temp_dir().join(format!("ecofl-builder-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let system = EcoFlSystem::builder()
        .homes(homes())
        .replicate_homes(6)
        .fl_config(quick())
        .run_store(&dir)
        .seed(13)
        .build()
        .expect("builds");
    let stored = || RunStore::open(&dir).expect("store opens").record_count();
    // The store records through its own tracer; a caller's as well is
    // refused before anything runs.
    match system.run(&Tracer::new()) {
        Err(EcoFlError::Config(msg)) => {
            assert!(msg.contains("run_store") && msg.contains("tracer"), "{msg}");
        }
        other => panic!("expected a Config error, got {other:?}"),
    }
    assert_eq!(stored(), 0);
    // Each run appends its own records once: the second run stores as
    // many again, not the first run's over.
    system.run(None).expect("runs");
    let once = stored();
    assert!(once > 0);
    system.run(None).expect("runs");
    assert_eq!(stored(), 2 * once);
    std::fs::remove_dir_all(&dir).ok();
}

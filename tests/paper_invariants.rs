//! Integration tests asserting the paper's analytic invariants across
//! crate boundaries — the statements §4 makes about schedules, partitions
//! and memory, checked against the executing system rather than against
//! formulas alone.

use ecofl::prelude::*;
use ecofl_pipeline::executor::ExecError;
use ecofl_pipeline::orchestrator::{k_bounds, p_bounds, q_bounds};
use ecofl_pipeline::partition::{partition_feasible, partition_objective};
use ecofl_pipeline::profiler::PipelineProfile;

fn devices3() -> Vec<Device> {
    vec![
        Device::new(tx2_q()),
        Device::new(nano_h()),
        Device::new(nano_h()),
    ]
}

/// §4.2: the DP's objective value must lower-bound every alternative
/// feasible partition (sampled alternatives, full check in unit tests).
#[test]
fn dp_partition_is_optimal_among_shifted_variants() {
    let model = efficientnet_at(0, 224);
    let link = Link::mbps_100();
    let devices = devices3();
    let mbs = 8;
    let best = partition_dp(&model, &devices, &link, mbs).expect("feasible");
    let best_obj = partition_objective(&model, &best, &devices, &link, mbs);
    // Perturb each internal boundary by ±1 and ±2.
    for b in 1..best.boundaries.len() - 1 {
        for delta in [-2i64, -1, 1, 2] {
            let mut cand = best.clone();
            let moved = cand.boundaries[b] as i64 + delta;
            if moved <= cand.boundaries[b - 1] as i64 || moved >= cand.boundaries[b + 1] as i64 {
                continue;
            }
            cand.boundaries[b] = moved as usize;
            if !partition_feasible(&model, &cand, &devices, mbs) {
                continue;
            }
            let obj = partition_objective(&model, &cand, &devices, &link, mbs);
            assert!(
                obj + 1e-12 >= best_obj,
                "perturbed partition {cand:?} beats DP: {obj} < {best_obj}"
            );
        }
    }
}

/// §4.3: running with K = P must be at least as fast as any K < P
/// (DDB-free optimality of the Eq. 3 bounds).
#[test]
fn eq3_bounds_are_throughput_optimal_residencies() {
    let model = efficientnet_at(0, 224);
    let link = Link::mbps_100();
    let devices = devices3();
    let partition = partition_dp(&model, &devices, &link, 8).expect("feasible");
    let profile = PipelineProfile::new(&model, &partition.boundaries, &devices, &link, 8);
    let p = p_bounds(&profile);
    let reference = PipelineExecutor::new(&profile, SchedulePolicy::OneFOneBSync { k: p.clone() })
        .expect("valid schedule")
        .run(12, 2)
        .expect("runs");
    for s in 0..p.len() {
        if p[s] <= 1 {
            continue;
        }
        let mut starved = p.clone();
        starved[s] -= 1;
        let r = PipelineExecutor::new(&profile, SchedulePolicy::OneFOneBSync { k: starved })
            .expect("valid schedule")
            .run(12, 2)
            .expect("runs");
        assert!(
            r.throughput <= reference.throughput + 1e-9,
            "starving stage {s} should not raise throughput"
        );
    }
    // And more residency than P gains nothing (P already hides the
    // round-trip).
    let mut extra = p.clone();
    extra[0] += 2;
    let r = PipelineExecutor::new(&profile, SchedulePolicy::OneFOneBSync { k: extra })
        .expect("valid schedule")
        .run(12, 2)
        .expect("runs");
    assert!(
        (r.throughput - reference.throughput).abs() / reference.throughput < 0.02,
        "residency beyond P should be throughput-neutral: {} vs {}",
        r.throughput,
        reference.throughput
    );
}

/// §4.1/Table 2: at equal settings Gpipe's peak memory exceeds
/// 1F1B-Sync's whenever M > max K, and both compute the same amount of
/// work (identical throughput ordering is not required, memory is).
#[test]
fn gpipe_memory_dominates_1f1b() {
    let model = efficientnet_at(2, 224);
    let link = Link::mbps_100();
    let devices = vec![Device::new(tx2_q()), Device::new(nano_h())];
    for mbs in [4usize, 8] {
        let partition = partition_dp(&model, &devices, &link, mbs).expect("feasible");
        let profile = PipelineProfile::new(&model, &partition.boundaries, &devices, &link, mbs);
        let k = k_bounds(&profile).expect("fits");
        let m = 2 * k.iter().max().copied().unwrap_or(1) + 2;
        let ours = PipelineExecutor::new(&profile, SchedulePolicy::OneFOneBSync { k })
            .expect("valid schedule")
            .run(m, 1)
            .expect("ours runs");
        match PipelineExecutor::new(&profile, SchedulePolicy::BafSync)
            .expect("valid schedule")
            .run(m, 1)
        {
            Ok(gpipe) => {
                assert!(
                    gpipe.stage_peak_memory[0] > ours.stage_peak_memory[0],
                    "mbs {mbs}: Gpipe {} must exceed ours {}",
                    gpipe.stage_peak_memory[0],
                    ours.stage_peak_memory[0]
                );
            }
            Err(ExecError::Oom { .. }) => {
                // OOM is an acceptable (stronger) outcome for Gpipe.
            }
            Err(e) => panic!("simulator can only fail with Oom, got {e}"),
        }
    }
}

/// §4.3: Q bounds respect memory; K never exceeds either bound — for the
/// Eq. 3 bounds at each micro-batch size and for the plan the
/// orchestrator's search picks.
#[test]
fn residency_bounds_consistency() {
    let model = efficientnet_at(4, 224);
    let link = Link::mbps_100();
    let devices = devices3();
    let mut cases = Vec::new();
    for mbs in [4usize, 8, 16] {
        let Some(partition) = partition_dp(&model, &devices, &link, mbs) else {
            continue;
        };
        let profile = PipelineProfile::new(&model, &partition.boundaries, &devices, &link, mbs);
        if let Some(k) = k_bounds(&profile) {
            cases.push((mbs, profile, k));
        }
    }
    let plan = search_configuration(
        &model,
        &devices,
        &link,
        &OrchestratorConfig {
            global_batch: 32,
            mbs_candidates: vec![8, 4],
            eval_rounds: 1,
            ..OrchestratorConfig::default()
        },
    )
    .expect("a plan");
    let ordered: Vec<Device> = plan.order.iter().map(|&i| devices[i].clone()).collect();
    let profile = PipelineProfile::new(
        &model,
        &plan.partition.boundaries,
        &ordered,
        &link,
        plan.micro_batch,
    );
    cases.push((plan.micro_batch, profile, plan.k));
    for (mbs, profile, k) in cases {
        let p = p_bounds(&profile);
        let q = q_bounds(&profile);
        for s in 0..k.len() {
            assert!(k[s] <= p[s] && k[s] <= q[s], "K must be min(P, Q)");
            assert!(k[s] >= 1);
            // Memory with K resident micro-batches must fit the budget.
            let stage = &profile.stages()[s];
            assert!(
                stage.memory_with_residency(k[s]) <= stage.memory_budget_bytes,
                "stage {s} at mbs {mbs} exceeds its budget with K={}",
                k[s]
            );
        }
    }
}

/// §6.3 claim: a larger micro-batch size (with equal total samples per
/// round) must not reduce the executor's throughput when memory admits
/// the same relative residency.
#[test]
fn larger_micro_batches_help_when_memory_allows() {
    let model = efficientnet_at(0, 224);
    let link = Link::mbps_100();
    let devices = devices3();
    let run_at = |mbs: usize, m: usize| {
        let partition = partition_dp(&model, &devices, &link, mbs).expect("feasible");
        let profile = PipelineProfile::new(&model, &partition.boundaries, &devices, &link, mbs);
        let k = k_bounds(&profile).expect("fits");
        PipelineExecutor::new(&profile, SchedulePolicy::OneFOneBSync { k })
            .expect("valid schedule")
            .run(m, 2)
            .expect("runs")
            .throughput
    };
    let small = run_at(4, 32);
    let large = run_at(16, 8);
    assert!(
        large > small,
        "mbs 16 ({large}) should outperform mbs 4 ({small}) at equal samples/round"
    );
}

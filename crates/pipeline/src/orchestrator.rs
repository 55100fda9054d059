//! Pipeline orchestration (§4.3): bubble bounds, residency limits, and the
//! device-order / micro-batch-size search.
//!
//! - [`p_bounds`] — the per-stage in-flight forward bounds `P_s` of Eq. 3,
//!   the smallest residency that avoids data-dependency bubbles (DDB),
//! - [`q_bounds`] — memory-feasible residency `Q_s` per stage,
//! - [`search_configuration`] — the paper's search: start from a large
//!   micro-batch size; if no device order can hold `K_s = P_s` forwards on
//!   every stage, shrink the micro-batch until one does, and pick the
//!   order with the best simulated throughput (Fig. 5's Config A vs B/C).

use crate::executor::{ExecutionReport, PipelineExecutor, DEFAULT_TASK_OVERHEAD};
use crate::partition::{Partition, PrefixDp};
use crate::profiler::PipelineProfile;
use crate::schedule::ScheduleKind;
use ecofl_models::ModelProfile;
use ecofl_simnet::{Device, Link};

/// Computes the Eq. 3 residency bounds `P_s`.
///
/// Iterating from the last stage (`P_{S-1} = 1`):
///
/// ```text
/// P_{s-1} = P_s + ⌈ (T_{t,f}^{s-1} + T_{t,b}^{s-1} + T_{c,f}^{s-1} + T_{c,b}^{s-1})
///                   / (T_{t,f}^s + T_{t,b}^s) ⌉
/// ```
///
/// For balanced stages this reduces to the paper's closed forms:
/// `P_s = S − s` when communication is negligible and
/// `P_s = 2(S−s) − 1` when boundary transfers cost about as much as
/// compute.
#[must_use]
pub fn p_bounds(profile: &PipelineProfile) -> Vec<usize> {
    let stages = profile.stages();
    let s_count = stages.len();
    let mut p = vec![1usize; s_count];
    for s in (1..s_count).rev() {
        let width = stages[s - 1].full_width();
        let pace = stages[s].t_total();
        let extra = if pace > 0.0 {
            (width / pace).ceil() as usize
        } else {
            1
        };
        p[s - 1] = p[s] + extra.max(1);
    }
    p
}

/// Memory-feasible residency `Q_s` for every stage.
#[must_use]
pub fn q_bounds(profile: &PipelineProfile) -> Vec<usize> {
    profile
        .stages()
        .iter()
        .map(|sp| sp.max_residency(sp.memory_budget_bytes))
        .collect()
}

/// `K_s = min(P_s, Q_s)` — the actual residency the runtime enforces.
///
/// Returns `None` when some stage cannot hold even one micro-batch.
#[must_use]
pub fn k_bounds(profile: &PipelineProfile) -> Option<Vec<usize>> {
    let p = p_bounds(profile);
    let q = q_bounds(profile);
    let k: Vec<usize> = p.iter().zip(&q).map(|(&a, &b)| a.min(b)).collect();
    if k.contains(&0) {
        None
    } else {
        Some(k)
    }
}

/// Analytic sync-round time under the §4.3 ideal model: `M` micro-batches
/// paced by the bottleneck stage plus the synchronous static bubble of
/// Eq. 2 (the leading/trailing trapezoid). Valid for DDB-free pipelines
/// (`K_s = P_s`); the executor should land close to this, which the tests
/// verify — a strong cross-check between the formula the paper reasons
/// with and the event-driven engine we measure with.
#[cfg(test)]
fn analytic_round_time(profile: &PipelineProfile, micro_batches: usize) -> f64 {
    let stages = profile.stages();
    let bottleneck = stages
        .iter()
        .map(crate::profiler::StageProfile::t_total)
        .fold(0.0, f64::max);
    let ssb: f64 = stages[..stages.len().saturating_sub(1)]
        .iter()
        .map(crate::profiler::StageProfile::full_width)
        .sum();
    micro_batches as f64 * bottleneck + ssb
}

/// An upper bound on the throughput (samples/s) any of the five
/// schedules can reach on `profile` with `task_overhead` seconds of
/// dispatch cost per compute task.
///
/// Every device runs one compute task at a time, and the device hosting
/// the bottleneck stage must run that stage's `M` forwards and `M`
/// backwards each sync-round, so a round lasts at least
/// `M · max_s(t_fwd + t_bwd + 2 · task_overhead)` and delivers
/// `M · mbs` samples. Interleaved chunks and zero-bubble backward halves
/// add up to the same per-stage compute and only pay *more* dispatches;
/// flush-free streaming removes bubbles, not work. The executor
/// accumulates its clock by chained `now + duration` additions, so
/// compare with a relative guard (the search uses
/// [`BOUND_GUARD`]` = 1e-9`, orders of magnitude above the rounding of a
/// few thousand additions) rather than exactly.
#[must_use]
pub(crate) fn throughput_upper_bound(profile: &PipelineProfile, task_overhead: f64) -> f64 {
    profile.micro_batch() as f64 / (profile.bottleneck_time() + 2.0 * task_overhead)
}

/// Relative slack granted to [`throughput_upper_bound`] before the search
/// trusts it to rule a candidate out.
const BOUND_GUARD: f64 = 1e-9;

/// Most distinct device orders [`search_configuration`] will evaluate —
/// `8!`, what eight all-different devices need. Lists whose distinct
/// orders exceed it yield `None`; repeated device models shrink the count
/// to `n! / Π multiplicity!`, so nine identical devices are one order.
pub const MAX_DEVICE_ORDERS: usize = 40_320;

/// Search-space configuration for [`search_configuration`].
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Global mini-batch size per sync-round. A micro-batch size that
    /// does not divide it truncates the round to
    /// `⌊global_batch / mbs⌋ · mbs` samples (100 at micro-batch 16 trains
    /// 6 × 16 = 96); candidates larger than it are skipped.
    pub global_batch: usize,
    /// Candidate micro-batch sizes, tried largest-first.
    pub mbs_candidates: Vec<usize>,
    /// Sync-rounds simulated when scoring a candidate.
    pub eval_rounds: usize,
    /// Pipeline schedule evaluated for every candidate; the cost model
    /// queries the schedule for its bubble/memory profile rather than
    /// assuming Eq. 2.
    pub schedule: ScheduleKind,
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        Self {
            global_batch: 128,
            mbs_candidates: vec![32, 16, 8, 4, 2, 1],
            eval_rounds: 2,
            schedule: ScheduleKind::OneFOneBSync,
        }
    }
}

/// A fully resolved pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelinePlan {
    /// Device order: `order[s]` is the index (into the search's device
    /// list) of the device running stage `s`.
    pub order: Vec<usize>,
    /// Stage boundaries.
    pub partition: Partition,
    /// Chosen micro-batch size.
    pub micro_batch: usize,
    /// Micro-batches per sync-round (`M = global_batch / mbs`).
    pub micro_batches: usize,
    /// Residency limits `K_s`.
    pub k: Vec<usize>,
    /// Whether every stage satisfies `K_s = P_s` (no DDB expected).
    pub ddb_free: bool,
    /// Simulated execution report for this plan.
    pub report: ExecutionReport,
}

/// Rearranges `slots` so that slot `p` holds what slot `perm[p]` held.
fn apply_permutation(perm: &[usize], slots: &mut [usize]) {
    let moved: Vec<usize> = perm.iter().map(|&src| slots[src]).collect();
    slots.copy_from_slice(&moved);
}

/// `class[i]`: the first index holding a device equal to `devices[i]`.
fn device_classes(devices: &[Device]) -> Vec<usize> {
    (0..devices.len())
        .map(|i| (0..i).find(|&j| devices[j] == devices[i]).unwrap_or(i))
        .collect()
}

/// The distinct device orders of `devices` as index permutations, in the
/// order Heap's algorithm first meets each device *sequence* (devices
/// compare by `PartialEq`: spec, load, allocation). `None` once there are
/// more than `cap` of them.
///
/// Heap's recursion at level `k` tries each of its `k` elements in slot
/// `k − 1` and permutes the rest below it. When the device now in that
/// slot equals one tried there earlier at this level, the subtree would
/// arrange the same device multiset under the same suffix — every
/// sequence in it was already met — so it is stepped over by applying the
/// subtree's net slot permutation (`net[k − 1]`, a function of `k` alone).
/// What remains is exactly the first occurrences, visited in the full
/// walk's order, at `O(n²)` per order instead of `n!` in total.
fn distinct_orders(devices: &[Device], cap: usize) -> Option<Vec<Vec<usize>>> {
    fn walk(
        k: usize,
        slots: &mut [usize],
        class: &[usize],
        net: &[Vec<usize>],
        cap: usize,
        out: &mut Vec<Vec<usize>>,
    ) -> bool {
        if k <= 1 {
            if out.len() == cap {
                return false;
            }
            out.push(slots.to_vec());
            return true;
        }
        let mut tried = Vec::with_capacity(k);
        for i in 0..k {
            let c = class[slots[k - 1]];
            if tried.contains(&c) {
                apply_permutation(&net[k - 1], &mut slots[..k - 1]);
            } else {
                tried.push(c);
                if !walk(k - 1, slots, class, net, cap, out) {
                    return false;
                }
            }
            slots.swap(if k.is_multiple_of(2) { i } else { 0 }, k - 1);
        }
        true
    }

    let n = devices.len();
    let class = device_classes(devices);
    let mut net: Vec<Vec<usize>> = vec![Vec::new(), vec![0]];
    for k in 2..=n {
        let mut slots: Vec<usize> = (0..k).collect();
        for i in 0..k {
            apply_permutation(&net[k - 1], &mut slots[..k - 1]);
            slots.swap(if k.is_multiple_of(2) { i } else { 0 }, k - 1);
        }
        net.push(slots);
    }
    let mut out = Vec::new();
    let mut slots: Vec<usize> = (0..n).collect();
    walk(n, &mut slots, &class, &net, cap, &mut out).then_some(out)
}

/// A candidate that passed Eq. 1 and the memory bounds, ranked for the
/// executor by what is known before its run.
struct Ranked {
    ddb_free: bool,
    /// Guarded [`throughput_upper_bound`].
    ceiling: f64,
    /// `(mbs index, order index)`: the candidate's place in the
    /// exhaustive walk, which breaks throughput ties.
    key: (usize, usize),
    /// Offset of its boundaries in the search's flat boundary list.
    cuts: usize,
}

/// Runs the §4.3 configuration search.
///
/// Tries micro-batch sizes largest-first; within one size, evaluates every
/// distinct device order via the Eq. 1 partitioner and the event-driven
/// executor. Prefers DDB-free plans (`K_s = P_s` everywhere); if a size
/// admits none, it falls to the next smaller size, and only if *no* size
/// is DDB-free does it return the best feasible plan with
/// `K_s = min(P_s, Q_s)`.
///
/// The result is the one the exhaustive walk over all `n!` index
/// permutations would return: the first candidate, in walk order, of the
/// highest throughput. Orders that repeat an earlier device sequence are
/// not re-evaluated: partition, profile and report are pure functions of
/// the ordered devices, so the first occurrence already wins every tie,
/// `order` included. Eq. 1 runs once per size over the orders sorted by
/// device sequence, reusing the DP rows of the shared prefix.
///
/// The executor then runs in best-first bound order: DDB-free candidates
/// before fallbacks, each by `throughput_upper_bound` descending, ties
/// by walk position. Every later candidate's bound is no higher, so the
/// search stops at the first bound below the incumbent, skips one equal
/// to it from later in the walk, and replaces the incumbent on a higher
/// throughput or an equal one from earlier in the walk. Fallbacks run
/// only when no DDB-free run succeeded.
///
/// Returns `None` when no order/size combination is executable at all, or
/// when the devices have more than [`MAX_DEVICE_ORDERS`] distinct orders.
#[must_use]
pub fn search_configuration(
    model: &ModelProfile,
    devices: &[Device],
    link: &Link,
    config: &OrchestratorConfig,
) -> Option<PipelinePlan> {
    let orders = distinct_orders(devices, MAX_DEVICE_ORDERS)?;
    let ordered: Vec<Vec<Device>> = orders
        .iter()
        .map(|order| order.iter().map(|&i| devices[i].clone()).collect())
        .collect();
    // Eq. 1 visits the orders sorted by device sequence, so that
    // neighbours share the longest prefix of DP rows.
    let class = device_classes(devices);
    let mut by_sequence: Vec<usize> = (0..orders.len()).collect();
    by_sequence.sort_by(|&a, &b| {
        let sequence = |o: usize| orders[o].iter().map(|&i| class[i]);
        sequence(a).cmp(sequence(b))
    });
    let micro_batches_at = |mbs: usize| config.global_batch / mbs;

    // Pass 1: Eq. 1, the profile and the bounds of every candidate; only
    // the ranking and the boundaries are kept.
    let mut ranked = Vec::new();
    let mut cuts: Vec<usize> = Vec::new();
    for (mi, &mbs) in config.mbs_candidates.iter().enumerate() {
        if mbs == 0 || mbs > config.global_batch {
            continue;
        }
        let m = micro_batches_at(mbs);
        let mut dp = PrefixDp::new(model, link, mbs);
        for &oi in &by_sequence {
            let Some(partition) = dp.partition(&ordered[oi]) else {
                continue;
            };
            let profile =
                PipelineProfile::new(model, &partition.boundaries, &ordered[oi], link, mbs);
            let p = p_bounds(&profile);
            let Some(k) = k_bounds(&profile) else {
                continue;
            };
            ranked.push(Ranked {
                ddb_free: k == p && m >= *p.iter().max().unwrap_or(&1),
                // `PipelineExecutor::new` dispatches at this overhead.
                ceiling: throughput_upper_bound(&profile, DEFAULT_TASK_OVERHEAD)
                    * (1.0 + BOUND_GUARD),
                key: (mi, oi),
                cuts: cuts.len(),
            });
            cuts.extend_from_slice(&partition.boundaries);
        }
    }
    // Prefer the best-throughput DDB-free plan across all admissible
    // micro-batch sizes; the paper stops at the largest feasible size, but
    // scoring by simulated sync-round time is strictly consistent with its
    // stated goal ("pick up a devices' order resulting in the least
    // sync-round time") and never worse.
    ranked.sort_by(|a, b| {
        b.ddb_free
            .cmp(&a.ddb_free)
            .then(b.ceiling.total_cmp(&a.ceiling))
            .then(a.key.cmp(&b.key))
    });

    // Pass 2: the executor, best bound first.
    let mut best: Option<((usize, usize), PipelinePlan)> = None;
    for c in &ranked {
        if let Some((key, plan)) = &best {
            let incumbent = plan.report.throughput;
            // A DDB-free plan beats every fallback; no later bound can
            // beat the incumbent, nor tie it from earlier in the walk.
            if (plan.ddb_free && !c.ddb_free) || c.ceiling < incumbent {
                break;
            }
            if c.ceiling == incumbent && c.key > *key {
                continue;
            }
        }
        let (mi, oi) = c.key;
        let mbs = config.mbs_candidates[mi];
        let m = micro_batches_at(mbs);
        let partition = Partition {
            boundaries: cuts[c.cuts..=c.cuts + devices.len()].to_vec(),
        };
        let profile = PipelineProfile::new(model, &partition.boundaries, &ordered[oi], link, mbs);
        let Some(k) = k_bounds(&profile) else {
            continue;
        };
        let Some(policy) = config.schedule.policy_for(&profile) else {
            continue;
        };
        let Ok(exec) = PipelineExecutor::new(&profile, policy) else {
            continue;
        };
        let Ok(report) = exec.run(m, config.eval_rounds) else {
            continue;
        };
        let wins = best.as_ref().is_none_or(|(key, plan)| {
            let incumbent = plan.report.throughput;
            report.throughput > incumbent || (report.throughput == incumbent && c.key < *key)
        });
        if wins {
            let plan = PipelinePlan {
                order: orders[oi].clone(),
                partition,
                micro_batch: mbs,
                micro_batches: m,
                k,
                ddb_free: c.ddb_free,
                report,
            };
            best = Some((c.key, plan));
        }
    }
    best.map(|(_, plan)| plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::oracle::{home_gen, model_zoo, partition_dp_reference};
    use crate::partition::partition_dp;
    use crate::schedule::SchedulePolicy;
    use ecofl_compat::check::{f64_in, forall, pair, quad, triple, usize_in, vec_in};
    use ecofl_models::{efficientnet, efficientnet_at, mobilenet_v2};
    use ecofl_simnet::{nano_h, nano_l, tx2_n, tx2_q, Device};

    fn profile3(mbs: usize) -> PipelineProfile {
        let model = efficientnet(0);
        let devices = vec![
            Device::new(tx2_q()),
            Device::new(nano_h()),
            Device::new(nano_h()),
        ];
        let partition = partition_dp(&model, &devices, &Link::mbps_100(), mbs).expect("feasible");
        PipelineProfile::new(
            &model,
            &partition.boundaries,
            &devices,
            &Link::mbps_100(),
            mbs,
        )
    }

    #[test]
    fn p_bounds_decrease_along_pipeline() {
        let p = profile3(8);
        let bounds = p_bounds(&p);
        assert_eq!(*bounds.last().unwrap(), 1, "last stage holds exactly one");
        for w in bounds.windows(2) {
            assert!(w[0] > w[1], "P must strictly decrease: {bounds:?}");
        }
    }

    #[test]
    fn p_bounds_closed_forms() {
        // Balanced synthetic stages: equal compute, no comm → P_s = S - s;
        // comm equal to compute → P_s = 2(S-s)-1.
        use crate::profiler::StageProfile;
        fn synthetic(c: f64) -> PipelineProfile {
            let stages: Vec<StageProfile> = (0..4)
                .map(|s| StageProfile {
                    device: s,
                    layers: s..s + 1,
                    t_fwd: 0.5,
                    t_bwd: 0.5,
                    c_fwd: if s < 3 { c / 2.0 } else { 0.0 },
                    c_bwd: if s < 3 { c / 2.0 } else { 0.0 },
                    param_bytes: 1,
                    activation_bytes_per_mb: 1,
                    boundary_bytes: 1,
                    memory_budget_bytes: 1 << 30,
                    efficiency: 1.0,
                })
                .collect();
            PipelineProfile::from_stages(stages, 1)
        }
        assert_eq!(p_bounds(&synthetic(0.0)), vec![4, 3, 2, 1]);
        assert_eq!(p_bounds(&synthetic(1.0)), vec![7, 5, 3, 1]);
    }

    #[test]
    fn q_bounds_reflect_memory() {
        let p = profile3(8);
        let q = q_bounds(&p);
        assert_eq!(q.len(), 3);
        assert!(
            q.iter().all(|&x| x >= 1),
            "all stages should fit ≥1 mb: {q:?}"
        );
    }

    #[test]
    fn search_finds_a_plan() {
        let model = efficientnet(0);
        let devices = vec![
            Device::new(tx2_q()),
            Device::new(nano_h()),
            Device::new(nano_h()),
        ];
        let cfg = OrchestratorConfig {
            global_batch: 64,
            mbs_candidates: vec![16, 8, 4],
            eval_rounds: 1,
            ..OrchestratorConfig::default()
        };
        let plan = search_configuration(&model, &devices, &Link::mbps_100(), &cfg).expect("plan");
        assert_eq!(plan.order.len(), 3);
        assert_eq!(plan.micro_batches, 64 / plan.micro_batch);
        assert!(plan.report.throughput > 0.0);
    }

    #[test]
    fn search_prefers_fast_device_first_for_activation_heavy_model() {
        // EfficientNet's front layers carry the largest activations and
        // most work; the search should not leave the TX2 idle at the back.
        let model = efficientnet(1);
        let devices = vec![
            Device::new(nano_h()),
            Device::new(nano_h()),
            Device::new(tx2_q()),
        ];
        let cfg = OrchestratorConfig {
            global_batch: 64,
            mbs_candidates: vec![16, 8],
            eval_rounds: 1,
            ..OrchestratorConfig::default()
        };
        let plan = search_configuration(&model, &devices, &Link::mbps_100(), &cfg).expect("plan");
        // Whatever the order, throughput must beat the worst order.
        let worst_order = vec![
            Device::new(nano_h()),
            Device::new(nano_h()),
            Device::new(tx2_q()),
        ];
        let worst_partition =
            partition_dp(&model, &worst_order, &Link::mbps_100(), plan.micro_batch).unwrap();
        let worst_profile = PipelineProfile::new(
            &model,
            &worst_partition.boundaries,
            &worst_order,
            &Link::mbps_100(),
            plan.micro_batch,
        );
        let worst_k = k_bounds(&worst_profile).unwrap();
        let worst =
            PipelineExecutor::new(&worst_profile, SchedulePolicy::OneFOneBSync { k: worst_k })
                .expect("valid")
                .run(plan.micro_batches, 1)
                .unwrap();
        assert!(plan.report.throughput >= worst.throughput * 0.999);
    }

    #[test]
    fn executor_matches_analytic_round_time_when_ddb_free() {
        let model = efficientnet(0);
        let devices = vec![
            Device::new(tx2_q()),
            Device::new(nano_h()),
            Device::new(nano_h()),
        ];
        let link = Link::mbps_100();
        for (mbs, m) in [(4usize, 16usize), (8, 12), (8, 24)] {
            let partition = partition_dp(&model, &devices, &link, mbs).expect("feasible");
            let profile = PipelineProfile::new(&model, &partition.boundaries, &devices, &link, mbs);
            let p = p_bounds(&profile);
            let report = PipelineExecutor::new(&profile, SchedulePolicy::OneFOneBSync { k: p })
                .expect("valid")
                .with_task_overhead(0.0)
                .run(m, 1)
                .expect("runs");
            let analytic = analytic_round_time(&profile, m);
            let rel = (report.round_time - analytic).abs() / analytic;
            assert!(
                rel < 0.15,
                "mbs {mbs}, M {m}: measured {:.4} vs analytic {analytic:.4} ({:.1}% off)",
                report.round_time,
                rel * 100.0
            );
        }
    }

    /// All permutations of `0..n` in Heap's-algorithm order — the walk
    /// the search made before it skipped repeated device sequences.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        fn heap_rec(k: usize, arr: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if k == 1 {
                out.push(arr.clone());
                return;
            }
            for i in 0..k {
                heap_rec(k - 1, arr, out);
                if k.is_multiple_of(2) {
                    arr.swap(i, k - 1);
                } else {
                    arr.swap(0, k - 1);
                }
            }
        }
        let mut result = Vec::new();
        heap_rec(n, &mut (0..n).collect(), &mut result);
        result
    }

    /// The exhaustive §4.3 search: every index permutation × micro-batch
    /// size through the reference DP, the profiler and the executor, no
    /// candidate skipped. The differential oracle of
    /// [`search_configuration`].
    fn search_exhaustive(
        model: &ModelProfile,
        devices: &[Device],
        link: &Link,
        config: &OrchestratorConfig,
    ) -> Option<PipelinePlan> {
        let orders = permutations(devices.len());
        let mut best_fallback: Option<PipelinePlan> = None;
        let mut best_ddb_free: Option<PipelinePlan> = None;
        for &mbs in &config.mbs_candidates {
            if mbs == 0 || mbs > config.global_batch {
                continue;
            }
            let m = config.global_batch / mbs;
            for order in &orders {
                let ordered: Vec<Device> = order.iter().map(|&i| devices[i].clone()).collect();
                let Some(partition) = partition_dp_reference(model, &ordered, link, mbs) else {
                    continue;
                };
                let profile =
                    PipelineProfile::new(model, &partition.boundaries, &ordered, link, mbs);
                let p = p_bounds(&profile);
                let Some(k) = k_bounds(&profile) else {
                    continue;
                };
                let ddb_free = k == p && m >= *p.iter().max().unwrap_or(&1);
                let Some(policy) = config.schedule.policy_for(&profile) else {
                    continue;
                };
                let Ok(exec) = PipelineExecutor::new(&profile, policy) else {
                    continue;
                };
                let Ok(report) = exec.run(m, config.eval_rounds) else {
                    continue;
                };
                let plan = PipelinePlan {
                    order: order.clone(),
                    partition,
                    micro_batch: mbs,
                    micro_batches: m,
                    k,
                    ddb_free,
                    report,
                };
                let best = if ddb_free {
                    &mut best_ddb_free
                } else {
                    &mut best_fallback
                };
                if best
                    .as_ref()
                    .is_none_or(|b| plan.report.throughput > b.report.throughput)
                {
                    *best = Some(plan);
                }
            }
        }
        best_ddb_free.or(best_fallback)
    }

    #[test]
    fn search_returns_the_exhaustive_plan() {
        // One search pair per case keeps the unoptimized `cargo test`
        // affordable (six devices walk 720 × 2 candidates); scripts/ci.sh
        // reruns this in release with ECOFL_CHECK_CASES raised.
        let zoo = model_zoo();
        let link = Link::mbps_100();
        let sizes = [32usize, 16, 8, 4, 2, 1];
        let input = quad(
            home_gen(6),
            usize_in(0, zoo.len()),
            usize_in(0, 5),
            // (global batch, first micro-batch candidate); 100 and 50 are
            // divisible by some candidates and truncated by others.
            pair(usize_in(0, 4), usize_in(0, sizes.len() - 1)),
        );
        forall(
            "search_returns_the_exhaustive_plan",
            10,
            &input,
            |(home, model, kind, (batch, first))| {
                let config = OrchestratorConfig {
                    global_batch: [128, 64, 100, 50][*batch],
                    mbs_candidates: sizes[*first..*first + 2].to_vec(),
                    eval_rounds: 2,
                    schedule: ScheduleKind::all()[*kind],
                };
                let fast = search_configuration(&zoo[*model], home, &link, &config);
                let exhaustive = search_exhaustive(&zoo[*model], home, &link, &config);
                // `Debug` prints every f64 as its shortest round-trip
                // string, so equal text means bit-equal plans.
                assert_eq!(
                    format!("{fast:?}"),
                    format!("{exhaustive:?}"),
                    "{} under {config:?}",
                    zoo[*model].name
                );
            },
        );
    }

    #[test]
    fn search_breaks_exact_ties_as_the_exhaustive_walk() {
        // Twins that differ only in `allocated_bytes` are distinct devices
        // (their own classes, so their swaps are distinct orders) with the
        // same compute and memory budget: every swap ties exactly, and only
        // the walk position can pick the winner.
        let twin = |spec, allocated| {
            let mut d = Device::new(spec);
            assert!(d.try_allocate(allocated));
            d
        };
        let link = Link::mbps_100();
        // (model, home, a twin pair)
        let tied = [
            (
                efficientnet(2),
                vec![twin(nano_h(), 0), twin(nano_h(), 1), twin(tx2_q(), 0)],
                (0, 1),
            ),
            (
                efficientnet_at(4, 224),
                vec![
                    twin(tx2_n(), 0),
                    twin(nano_h(), 1),
                    twin(tx2_n(), 1),
                    twin(nano_h(), 0),
                ],
                (1, 3),
            ),
            (
                mobilenet_v2(3.0),
                vec![twin(nano_h(), 1), twin(nano_h(), 2), twin(nano_h(), 3)],
                (0, 2),
            ),
        ];
        // Fallback only: no order is DDB-free at any size.
        let fallback = (
            efficientnet_at(6, 380),
            vec![
                twin(nano_h(), 0),
                twin(nano_h(), 0),
                twin(nano_l(), 0),
                twin(nano_l(), 0),
            ],
            (0, 0),
        );
        for (i, (model, home, (x, y))) in tied.iter().chain([&fallback]).enumerate() {
            for schedule in ScheduleKind::all() {
                let config = OrchestratorConfig {
                    global_batch: 128,
                    mbs_candidates: vec![32, 16, 8, 4],
                    eval_rounds: 2,
                    schedule,
                };
                let fast = search_configuration(model, home, &link, &config);
                let exhaustive = search_exhaustive(model, home, &link, &config);
                let what = format!("{} under {}", model.name, schedule.name());
                assert_eq!(format!("{fast:?}"), format!("{exhaustive:?}"), "{what}");
                let Some(plan) = fast else {
                    // GPipe holds a whole round of activations.
                    assert!(
                        i == tied.len() || schedule == ScheduleKind::BafSync,
                        "{what}: no plan"
                    );
                    continue;
                };
                if i == tied.len() {
                    assert!(!plan.ddb_free, "{what}: the home must be fallback-only");
                    continue;
                }
                // The winner with its twins swapped — a distinct order —
                // ties it bit for bit.
                let swapped: Vec<usize> = plan
                    .order
                    .iter()
                    .map(|&d| match d {
                        d if d == *x => *y,
                        d if d == *y => *x,
                        d => d,
                    })
                    .collect();
                let ordered: Vec<Device> = swapped.iter().map(|&d| home[d].clone()).collect();
                let partition =
                    partition_dp(model, &ordered, &link, plan.micro_batch).expect("feasible");
                let profile = PipelineProfile::new(
                    model,
                    &partition.boundaries,
                    &ordered,
                    &link,
                    plan.micro_batch,
                );
                let report =
                    PipelineExecutor::new(&profile, schedule.policy_for(&profile).unwrap())
                        .expect("valid")
                        .run(plan.micro_batches, 2)
                        .expect("runs");
                assert_eq!(
                    report.throughput.to_bits(),
                    plan.report.throughput.to_bits(),
                    "{what}: the swapped order {swapped:?} must tie {:?}",
                    plan.order
                );
            }
        }
    }

    fn factorial(n: usize) -> usize {
        (1..=n).product()
    }

    #[test]
    fn distinct_orders_are_heaps_first_occurrences() {
        forall(
            "distinct_orders_are_heaps_first_occurrences",
            64,
            &home_gen(7),
            |home| {
                // The full walk, keeping an order only when no earlier one
                // spelled the same device sequence.
                let mut seen: Vec<Vec<&Device>> = Vec::new();
                let mut first_occurrences = Vec::new();
                for order in permutations(home.len()) {
                    let sequence: Vec<&Device> = order.iter().map(|&i| &home[i]).collect();
                    if !seen.contains(&sequence) {
                        seen.push(sequence);
                        first_occurrences.push(order);
                    }
                }
                let orders = distinct_orders(home, usize::MAX).expect("uncapped");
                assert_eq!(orders, first_occurrences);

                // n! / Π multiplicity!
                let mut multiset = factorial(home.len());
                let mut counted = vec![false; home.len()];
                for i in 0..home.len() {
                    if !counted[i] {
                        let same = (i..home.len()).filter(|&j| home[j] == home[i]);
                        multiset /= factorial(same.clone().count());
                        same.for_each(|j| counted[j] = true);
                    }
                }
                assert_eq!(orders.len(), multiset);
            },
        );
    }

    #[test]
    fn all_distinct_devices_still_walk_every_permutation() {
        let mut devices: Vec<Device> = ecofl_simnet::table1()
            .into_iter()
            .map(Device::new)
            .collect();
        // A fifth and sixth that differ from their twins by load only.
        for (i, load) in [(0, 0.25), (2, 0.5)] {
            let mut d = devices[i].clone();
            d.set_external_load(load);
            devices.push(d);
        }
        for n in 1..=devices.len() {
            let orders = distinct_orders(&devices[..n], usize::MAX).expect("uncapped");
            assert_eq!(orders, permutations(n));
        }
        let twins = vec![Device::new(nano_h()); 9];
        assert_eq!(
            distinct_orders(&twins, MAX_DEVICE_ORDERS),
            Some(vec![(0..9).collect::<Vec<usize>>()]),
            "nine identical devices are one order"
        );
        assert_eq!(distinct_orders(&devices[..4], 23), None, "4! = 24 > 23");
        assert!(distinct_orders(&devices[..4], 24).is_some());
    }

    #[test]
    fn search_never_panics_on_long_device_lists() {
        let model = efficientnet(0);
        let link = Link::mbps_100();
        let cfg = OrchestratorConfig {
            global_batch: 32,
            mbs_candidates: vec![8],
            eval_rounds: 1,
            ..OrchestratorConfig::default()
        };
        // Nine identical devices: one order, and a plan.
        let twins = vec![Device::new(nano_h()); 9];
        let plan = search_configuration(&model, &twins, &link, &cfg).expect("one order");
        assert_eq!(plan.order, (0..9).collect::<Vec<_>>());
        // Nine devices that all differ (by load): 9! orders, over the cap.
        let distinct: Vec<Device> = (0..9)
            .map(|i| {
                let mut d = Device::new(nano_h());
                d.set_external_load(0.05 * i as f64);
                d
            })
            .collect();
        assert!(search_configuration(&model, &distinct, &link, &cfg).is_none());
        // More devices than layers, and none at all.
        let crowd = vec![Device::new(nano_h()); model.num_layers() + 1];
        assert!(search_configuration(&model, &crowd, &link, &cfg).is_none());
        assert!(search_configuration(&model, &[], &link, &cfg).is_none());
    }

    #[test]
    fn non_dividing_micro_batch_truncates_the_round() {
        let model = efficientnet(0);
        let devices = vec![Device::new(tx2_q()), Device::new(nano_h())];
        let cfg = OrchestratorConfig {
            global_batch: 100,
            mbs_candidates: vec![16],
            eval_rounds: 1,
            ..OrchestratorConfig::default()
        };
        let plan = search_configuration(&model, &devices, &Link::mbps_100(), &cfg).expect("plan");
        assert_eq!((plan.micro_batch, plan.micro_batches), (16, 6));
        assert_eq!(plan.report.micro_batches * plan.micro_batch, 96);
        // A global batch below every candidate leaves nothing to search.
        let cfg = OrchestratorConfig {
            global_batch: 3,
            mbs_candidates: vec![32, 16, 8, 4],
            ..cfg
        };
        assert!(search_configuration(&model, &devices, &Link::mbps_100(), &cfg).is_none());
    }

    #[test]
    fn throughput_upper_bound_holds_for_every_schedule() {
        use crate::profiler::StageProfile;
        // Random stage times (with and without communication), random
        // overhead including zero, every schedule kind — interleaved runs
        // at v = 2, async streams flush-free across rounds.
        let stage = triple(f64_in(1e-3, 0.5), f64_in(1e-3, 1.0), f64_in(0.0, 0.3));
        let input = quad(
            vec_in(stage, 1, 6),
            f64_in(0.0, 0.01),
            usize_in(1, 24),
            usize_in(1, 4),
        );
        forall(
            "throughput_upper_bound_holds_for_every_schedule",
            96,
            &input,
            |(times, overhead, m, rounds)| {
                let last = times.len() - 1;
                let stages: Vec<StageProfile> = times
                    .iter()
                    .enumerate()
                    .map(|(s, &(t_fwd, t_bwd, c))| StageProfile {
                        device: s,
                        layers: 2 * s..2 * s + 2,
                        t_fwd,
                        t_bwd,
                        c_fwd: if s < last { c } else { 0.0 },
                        c_bwd: if s < last { c } else { 0.0 },
                        param_bytes: 1000,
                        activation_bytes_per_mb: 1000,
                        boundary_bytes: 1000,
                        memory_budget_bytes: 1 << 30,
                        efficiency: 0.8,
                    })
                    .collect();
                let profile = PipelineProfile::from_stages(stages, 8);
                // Zero overhead on every other case.
                let overhead = if m % 2 == 0 { 0.0 } else { *overhead };
                let ceiling = throughput_upper_bound(&profile, overhead) * (1.0 + BOUND_GUARD);
                for kind in ScheduleKind::all() {
                    let policy = kind.policy_for(&profile).expect("memory is ample");
                    let report = PipelineExecutor::new(&profile, policy)
                        .expect("valid")
                        .with_task_overhead(overhead)
                        .run(*m, *rounds)
                        .expect("runs");
                    assert!(
                        ceiling >= report.throughput,
                        "{}: bound {ceiling} < measured {}",
                        kind.name(),
                        report.throughput
                    );
                }
            },
        );
    }

    #[test]
    fn throughput_upper_bound_holds_on_partitioned_models() {
        let zoo = model_zoo();
        let link = Link::mbps_100();
        forall(
            "throughput_upper_bound_holds_on_partitioned_models",
            24,
            &triple(home_gen(5), usize_in(0, zoo.len()), usize_in(0, 4)),
            |(home, model, mbs)| {
                let mbs = [16usize, 8, 4, 2][*mbs];
                let Some(partition) = partition_dp(&zoo[*model], home, &link, mbs) else {
                    return;
                };
                let profile =
                    PipelineProfile::new(&zoo[*model], &partition.boundaries, home, &link, mbs);
                for kind in ScheduleKind::all() {
                    let Some(policy) = kind.policy_for(&profile) else {
                        continue;
                    };
                    let exec = PipelineExecutor::new(&profile, policy).expect("valid");
                    let ceiling =
                        throughput_upper_bound(&profile, exec.task_overhead) * (1.0 + BOUND_GUARD);
                    if let Ok(report) = exec.run(64 / mbs, 2) {
                        assert!(ceiling >= report.throughput, "{}", kind.name());
                    }
                }
            },
        );
    }
}

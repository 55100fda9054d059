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
use crate::profiler::{PipelineProfile, StageProfile};
use crate::schedule::{interleave_profile, ScheduleKind, DEFAULT_INTERLEAVE};
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

/// An upper bound on the throughput (samples/s) the executor reports for
/// `rounds` sync-rounds of `micro_batches` on `profile` under `kind`,
/// with `task_overhead` seconds of dispatch cost per compute task. `k`
/// is `k_bounds(profile)`, the residency every non-interleaved policy of
/// [`ScheduleKind::policy_for`] runs with.
///
/// A synchronous round starts when the previous one has drained, and
/// the flush-free schedule streams all `rounds · micro_batches` through
/// one window, so the makespan is at least the windows times
/// [`window_floor`]. Interleaving runs the chunked profile, whose
/// per-chunk residency `k` does not describe: its floor drops the
/// residency terms, as BAF-Sync's (which has none) does. Allocates
/// nothing except that chunked profile.
///
/// The executor accumulates its clock by chained `now + duration`
/// additions, so compare with a relative guard (the search uses
/// [`BOUND_GUARD`]` = 1e-9`, orders of magnitude above the rounding of a
/// few thousand additions) rather than exactly.
#[must_use]
pub(crate) fn throughput_ceiling(
    profile: &PipelineProfile,
    kind: ScheduleKind,
    k: &[usize],
    micro_batches: usize,
    rounds: usize,
    task_overhead: f64,
) -> f64 {
    let chunked;
    let (stages, k) = match kind {
        ScheduleKind::Interleaved1F1B => {
            chunked = interleave_profile(profile, DEFAULT_INTERLEAVE);
            (chunked.stages(), None)
        }
        ScheduleKind::BafSync => (profile.stages(), None),
        _ => (profile.stages(), Some(k)),
    };
    let (window, windows) = if kind == ScheduleKind::OneFOneBAsync {
        (micro_batches * rounds, 1)
    } else {
        (micro_batches, rounds)
    };
    let split = kind == ScheduleKind::ZeroBubble;
    let floor = window_floor(stages, k, split, window, task_overhead);
    (micro_batches * rounds * profile.micro_batch()) as f64 / (windows as f64 * floor)
}

/// A lower bound on the executor's time from a window's first dispatch
/// to its last task's end, for `m` micro-batches over the executed
/// `stages` (devices shared by several of them run one task at a time),
/// under residency `k` (`None`: unbounded) and a `split` backward.
///
/// Per micro-batch, stage `s` runs a forward `f_s`, the task that sends
/// the gradient upstream `g_s` (the backward, or its input half), and
/// the weight half `w_s` that frees the activation after it (zero
/// unsplit). With `A_s` the forward chain of micro-batch 0 down to `s`,
/// `U_s` the gradient chain from `s` up to stage 0 and stage 0's weight
/// half, and `D_s` one micro-batch's round trip from its forward start on
/// `s` to its gradient task's end there, `L = A_s + D_s + U_s` (for any
/// `s`) is one micro-batch alone. The window lasts at least the maximum
/// of:
///
/// - **stage work**: `A_s`, then the device's `M` forwards and gradient
///   tasks, then `U_s` — or, the weight halves included, no drain;
/// - **residency**: the last forward on `s` starts after the `M − 1`
///   before it and at least `M − K_s` released micro-batches, and after
///   `⌊(M−1)/K_s⌋` round trips (forward `i + K_s` waits for micro-batch
///   `i`'s release); it then needs `D_s + U_s`. And no gradient task
///   starts before `A_s + D_s − g_s`, when at most `K_s` forwards have
///   started, so `M − K_s` forwards and all `M` gradient tasks follow;
/// - **links**: each link carries its `M` activations or gradients one
///   at a time, `L + (M − 1) · c`.
fn window_floor(
    stages: &[StageProfile],
    k: Option<&[usize]>,
    split: bool,
    m: usize,
    overhead: f64,
) -> f64 {
    let tasks = |sp: &StageProfile| {
        let f = sp.t_fwd + overhead;
        if split {
            let half = sp.t_bwd * 0.5 + overhead;
            (f, half, half)
        } else {
            (f, sp.t_bwd + overhead, 0.0)
        }
    };
    let last = stages.len() - 1;
    let links = &stages[..last];
    let mf = m as f64;
    let w0 = tasks(&stages[0]).2;
    let latency = stages
        .iter()
        .map(|sp| {
            let (f, g, _) = tasks(sp);
            f + g
        })
        .sum::<f64>()
        + links.iter().map(|sp| sp.c_fwd + sp.c_bwd).sum::<f64>()
        + w0;
    let widest_link = links
        .iter()
        .map(|sp| sp.c_fwd.max(sp.c_bwd))
        .fold(0.0, f64::max);
    let mut floor = latency + (mf - 1.0) * widest_link;
    let (mut fill, mut drain) = (0.0, w0);
    for (s, sp) in stages.iter().enumerate() {
        let (f, g, w) = tasks(sp);
        let trip = latency - fill - drain;
        let (last_forward, after_first_gradient) = match k.map(|k| k[s]) {
            None => ((mf - 1.0) * f, (mf - 1.0) * g),
            Some(ks) => {
                let released = m.saturating_sub(ks) as f64;
                let (waits, head) = ((m - 1) / ks, (m - 1) % ks);
                let serial = (mf - 1.0) * f + released * (g + w);
                let chained = head as f64 * f + waits as f64 * (trip + w);
                (serial.max(chained), released * f + (mf - 1.0) * g)
            }
        };
        floor = floor.max(latency + last_forward.max(after_first_gradient));
        if !stages[..s].iter().any(|x| x.device == sp.device) {
            let (mut sent, mut all) = (0.0, 0.0);
            for x in stages[s..].iter().filter(|x| x.device == sp.device) {
                let (f, g, w) = tasks(x);
                sent += f + g;
                all += f + g + w;
            }
            floor = floor.max(fill + (mf * sent + drain).max(mf * all));
        }
        if s < last {
            fill += f + sp.c_fwd;
            drain += sp.c_bwd + g;
        }
    }
    floor
}

/// Relative slack granted to [`throughput_ceiling`] before the search
/// trusts it to rule a candidate out.
const BOUND_GUARD: f64 = 1e-9;

#[cfg(test)]
thread_local! {
    /// Executor runs pass 2 of [`search_configuration`] has started on
    /// this thread.
    static EXECUTOR_RUNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Eq. 1 cells `PrefixDp` has evaluated on this thread, pass 1's and
    /// every `partition_dp` call's.
    pub(crate) static EQ1_CELLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Starts `s` those cells' scans covered: the starts whose segment
    /// fits the cell's device, and at least one layer for each earlier
    /// stage.
    pub(crate) static EQ1_POSITIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

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

/// How many distinct device sequences the orders of `devices` spell —
/// `n! / Π multiplicity!`, devices compared by `PartialEq` (spec, load,
/// allocation) — saturating at `usize::MAX`. [`search_configuration`]
/// walks them only up to [`MAX_DEVICE_ORDERS`].
#[must_use]
pub fn distinct_order_count(devices: &[Device]) -> usize {
    // The multinomial of each prefix: the last one times `i + 1` over the
    // new device's multiplicity, an exact division. It never falls, so
    // the first overflow saturates for good.
    let class = device_classes(devices);
    (0..class.len())
        .try_fold(1usize, |count, i| {
            let multiplicity = class[..=i].iter().filter(|&&c| c == class[i]).count();
            usize::try_from(count as u128 * (i as u128 + 1) / multiplicity as u128).ok()
        })
        .unwrap_or(usize::MAX)
}

/// The distinct device orders of `devices` as index permutations, in the
/// order Heap's algorithm first meets each device *sequence* (devices
/// compare by `PartialEq`: spec, load, allocation); there are
/// [`distinct_order_count`] of them.
///
/// Heap's recursion at level `k` tries each of its `k` elements in slot
/// `k − 1` and permutes the rest below it. When the device now in that
/// slot equals one tried there earlier at this level, the subtree would
/// arrange the same device multiset under the same suffix — every
/// sequence in it was already met — so it is stepped over by applying the
/// subtree's net slot permutation (`net[k − 1]`, a function of `k` alone).
/// What remains is exactly the first occurrences, visited in the full
/// walk's order, at `O(n²)` per order instead of `n!` in total.
fn distinct_orders(devices: &[Device]) -> Vec<Vec<usize>> {
    fn walk(
        k: usize,
        slots: &mut [usize],
        class: &[usize],
        net: &[Vec<usize>],
        out: &mut Vec<Vec<usize>>,
    ) {
        if k <= 1 {
            out.push(slots.to_vec());
            return;
        }
        let mut tried = Vec::with_capacity(k);
        for i in 0..k {
            let c = class[slots[k - 1]];
            if tried.contains(&c) {
                apply_permutation(&net[k - 1], &mut slots[..k - 1]);
            } else {
                tried.push(c);
                walk(k - 1, slots, class, net, out);
            }
            slots.swap(if k.is_multiple_of(2) { i } else { 0 }, k - 1);
        }
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
    walk(n, &mut slots, &class, &net, &mut out);
    out
}

/// A candidate that passed Eq. 1 and the memory bounds, ranked for the
/// executor by what is known before its run.
struct Ranked {
    ddb_free: bool,
    /// Guarded [`throughput_ceiling`].
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
/// before fallbacks, each by `throughput_ceiling` descending, ties
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
    if distinct_order_count(devices) > MAX_DEVICE_ORDERS {
        return None;
    }
    let orders = distinct_orders(devices);
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
                ceiling: throughput_ceiling(
                    &profile,
                    config.schedule,
                    &k,
                    m,
                    config.eval_rounds,
                    DEFAULT_TASK_OVERHEAD,
                ) * (1.0 + BOUND_GUARD),
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
        #[cfg(test)]
        EXECUTOR_RUNS.with(|runs| runs.set(runs.get() + 1));
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
    use ecofl_compat::check::{f64_in, forall, pair, quad, usize_in, vec_in};
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

    #[test]
    fn benchmark_plans_run_the_executor_at_most_the_measured_times() {
        use ecofl_models::mobilenet_v2_at;
        // The ten `pipeline_plan` ops of the benchmark: `ecofl plan --batch
        // 256` over its two homes and five models, at the CLI's defaults.
        let homes = [
            vec![tx2_q(), tx2_n(), nano_h(), nano_h(), nano_l()],
            vec![tx2_q(), tx2_n(), tx2_n(), nano_h(), nano_h(), nano_l()],
        ];
        let models = [
            efficientnet_at(4, 224),
            efficientnet_at(6, 224),
            efficientnet_at(6, 380),
            mobilenet_v2_at(3.0, 224),
            mobilenet_v2_at(3.0, 380),
        ];
        let config = OrchestratorConfig {
            global_batch: 256,
            mbs_candidates: vec![32, 16, 8, 4],
            eval_rounds: 2,
            schedule: ScheduleKind::OneFOneBSync,
        };
        let count = |counter: &'static std::thread::LocalKey<std::cell::Cell<usize>>| {
            counter.with(std::cell::Cell::get)
        };
        let (cells, positions) = (count(&EQ1_CELLS), count(&EQ1_POSITIONS));
        let mut runs = Vec::new();
        for home in &homes {
            let devices: Vec<Device> = home.iter().cloned().map(Device::new).collect();
            for model in &models {
                let before = count(&EXECUTOR_RUNS);
                let plan = search_configuration(model, &devices, &Link::mbps_100(), &config);
                assert!(plan.is_some(), "{} has a plan", model.name);
                runs.push(count(&EXECUTOR_RUNS) - before);
            }
        }
        // Measured with the round-aware ceiling; the fill- and
        // residency-blind `M · max_s(t_fwd + t_bwd + 2o)` ran 543.
        let total: usize = runs.iter().sum();
        assert!(
            total <= 89,
            "{total} executor runs over the ten ops {runs:?}"
        );
        // Pass 1 evaluates the Eq. 1 cells of reduction 4, and each scans
        // only the starts whose segment fits its device (reduction 6).
        let (cells, positions) = (count(&EQ1_CELLS) - cells, count(&EQ1_POSITIONS) - positions);
        assert_eq!(cells, 271_956, "Eq. 1 cells over the ten ops");
        assert!(
            positions <= 4_880_258,
            "{positions} Eq. 1 starts scanned over the ten ops"
        );
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
                let orders = distinct_orders(home);
                assert_eq!(orders, first_occurrences);
                // n! / Π multiplicity!, held to the brute-force walk.
                assert_eq!(distinct_order_count(home), orders.len());
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
            let orders = distinct_orders(&devices[..n]);
            assert_eq!(orders, permutations(n));
        }
        let twins = vec![Device::new(nano_h()); 9];
        assert_eq!(
            distinct_orders(&twins),
            vec![(0..9).collect::<Vec<usize>>()],
            "nine identical devices are one order"
        );
        assert_eq!(distinct_order_count(&twins), 1);
        assert_eq!(distinct_order_count(&devices[..4]), 24, "4!");
        // Three each of Table 1's four devices: 12! / (3!)⁴, past the cap.
        let twelve: Vec<Device> = devices[..4].iter().cycle().take(12).cloned().collect();
        assert_eq!(distinct_order_count(&twelve), 369_600);
        // Ten each of the six, 60! / (10!)⁶ ≈ 3e43, saturates.
        let sixty: Vec<Device> = devices.iter().cycle().take(60).cloned().collect();
        assert_eq!(distinct_order_count(&sixty), usize::MAX);
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

    /// Asserts the guarded [`throughput_ceiling`] of every schedule that
    /// runs `rounds` rounds of `m` on `profile` at `overhead` against the
    /// throughput it reports; a profile without residency, a schedule
    /// without a policy and an OOM are skipped.
    fn assert_ceilings_hold(profile: &PipelineProfile, m: usize, rounds: usize, overhead: f64) {
        let Some(k) = k_bounds(profile) else {
            return;
        };
        for kind in ScheduleKind::all() {
            let Some(policy) = kind.policy_for(profile) else {
                continue;
            };
            let exec = PipelineExecutor::new(profile, policy)
                .expect("valid")
                .with_task_overhead(overhead);
            let Ok(report) = exec.run(m, rounds) else {
                continue;
            };
            let ceiling = throughput_ceiling(profile, kind, &k, m, rounds, overhead);
            assert!(
                ceiling * (1.0 + BOUND_GUARD) >= report.throughput,
                "{}: ceiling {ceiling} < measured {} at K {k:?}, M {m}, {rounds} round(s)",
                kind.name(),
                report.throughput
            );
        }
    }

    #[test]
    fn throughput_upper_bound_holds_for_every_schedule() {
        // Random stage times (with and without communication), random
        // memory budgets holding 1 to 31 activations (so `K_s` reaches 1
        // and, from 24 up, exceeds every `M`), random overhead including
        // zero, rounds 1–4, every schedule kind — interleaved runs at
        // v = 2, async streams flush-free across rounds.
        let stage = quad(
            f64_in(1e-3, 0.5),
            f64_in(1e-3, 1.0),
            f64_in(0.0, 0.3),
            usize_in(1, 32),
        );
        let input = quad(
            vec_in(stage, 1, 6),
            f64_in(0.0, 0.01),
            usize_in(1, 24),
            usize_in(1, 5),
        );
        forall(
            "throughput_upper_bound_holds_for_every_schedule",
            96,
            &input,
            |(stages, overhead, m, rounds)| {
                let last = stages.len() - 1;
                let stages: Vec<StageProfile> = stages
                    .iter()
                    .enumerate()
                    .map(|(s, &(t_fwd, t_bwd, c, resident))| {
                        let mut sp = StageProfile {
                            device: s,
                            layers: 2 * s..2 * s + 2,
                            t_fwd,
                            t_bwd,
                            c_fwd: if s < last { c } else { 0.0 },
                            c_bwd: if s < last { c } else { 0.0 },
                            // One parameter byte: async's `K_s` weight
                            // copies still fit beside `K_s` activations.
                            param_bytes: 1,
                            activation_bytes_per_mb: 1000,
                            boundary_bytes: 1000,
                            memory_budget_bytes: 0,
                            efficiency: 0.8,
                        };
                        sp.memory_budget_bytes = sp.memory_with_residency(resident) + 100;
                        sp
                    })
                    .collect();
                let profile = PipelineProfile::from_stages(stages, 8);
                // Zero overhead on every other case.
                let overhead = if m % 2 == 0 { 0.0 } else { *overhead };
                assert_ceilings_hold(&profile, *m, *rounds, overhead);
            },
        );
    }

    #[test]
    fn throughput_upper_bound_holds_on_partitioned_models() {
        let zoo = model_zoo();
        let link = Link::mbps_100();
        // Eq. 1 partitions of random homes; each stage's budget cut to hold
        // 1 to 23 activations, or left at the device's memory from 24 up.
        let input = quad(
            home_gen(5),
            usize_in(0, zoo.len()),
            pair(usize_in(0, 4), usize_in(1, 5)),
            vec_in(usize_in(1, 40), 5, 6),
        );
        forall(
            "throughput_upper_bound_holds_on_partitioned_models",
            24,
            &input,
            |(home, model, (mbs, rounds), resident)| {
                let mbs = [16usize, 8, 4, 2][*mbs];
                let Some(partition) = partition_dp(&zoo[*model], home, &link, mbs) else {
                    return;
                };
                let profile =
                    PipelineProfile::new(&zoo[*model], &partition.boundaries, home, &link, mbs);
                let stages: Vec<StageProfile> = profile
                    .stages()
                    .iter()
                    .zip(resident)
                    .map(|(sp, &resident)| {
                        let mut sp = sp.clone();
                        if resident < 24 {
                            let cut = sp.memory_with_residency(resident);
                            sp.memory_budget_bytes = sp.memory_budget_bytes.min(cut);
                        }
                        sp
                    })
                    .collect();
                let profile = PipelineProfile::from_stages(stages, mbs);
                assert_ceilings_hold(&profile, 64 / mbs, *rounds, DEFAULT_TASK_OVERHEAD);
            },
        );
    }
}

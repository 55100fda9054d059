//! Pipeline schedules: one value, [`SchedulePolicy`], says which schedule
//! a pipeline trains under and with what residency bounds;
//! [`ScheduleKind`] is its data-free tag for configs, the CLI and sweeps.
//!
//! A policy answers two kinds of questions:
//!
//! - **Admission queries** consumed by the event-driven
//!   [`crate::executor::PipelineExecutor`]: per-stage residency bounds
//!   `K_s`, weight-version stashing, whether backwards are gated
//!   (BAF-Sync), whether micro-batches stream across round boundaries
//!   (flush-free), and whether the backward pass splits into
//!   activation-gradient and weight-gradient tasks (zero-bubble).
//! - **A deterministic per-stage task stream**
//!   (`ScheduleKind::stage_stream`) — the nominal order `Fwd(mb)` /
//!   `Bwd(mb)` (optionally `BwdInput(mb)`/`BwdWeight(mb)`) ending in
//!   `Sync`. It is the program each stage thread of the threaded
//!   [`crate::runtime`] walks, and the oracle of the schedule-legality
//!   property suite. The executor does *not* walk it: there a backward
//!   becomes ready only when its gradient arrives, so the executed order
//!   may deviate from the nominal stream, but it always respects the
//!   same data dependencies and residency bounds, which the legality
//!   checker asserts on the executed spans.
//!
//! The five schedules:
//!
//! | schedule | bubble per round | memory |
//! |---|---|---|
//! | 1F1B-Sync (Eco-FL §4.1) | Eq. 2 SSB | `K_s` activations |
//! | BAF-Sync (Gpipe) | Eq. 2 SSB (+DDB) | `M` activations |
//! | 1F1B-Async (PipeDream) | SSB paid once | `K_s` weight copies |
//! | Interleaved 1F1B | SSB / v (per-device warmup) | `K_j` per virtual stage |
//! | Zero-bubble | SSB − (S−1)·t_b/2 | `K_s` activations |

use crate::profiler::{PipelineProfile, StageProfile};

/// Virtual stages per device used when a schedule selector
/// ([`ScheduleKind::policy_for`]) has to pick an interleaving depth
/// without an explicit `v`.
pub const DEFAULT_INTERLEAVE: usize = 2;

/// One task in a schedule's nominal per-stage stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageTask {
    /// Forward pass of micro-batch `n`.
    Fwd(usize),
    /// Full backward pass of micro-batch `n` (unsplit schedules).
    Bwd(usize),
    /// Activation-gradient half of the backward of micro-batch `n`
    /// (zero-bubble schedules): computes and sends the upstream gradient,
    /// deferring the weight gradient.
    BwdInput(usize),
    /// Weight-gradient half of the backward of micro-batch `n`
    /// (zero-bubble schedules): local work, schedulable into bubbles.
    BwdWeight(usize),
    /// Synchronous flush: weights update, the round ends.
    Sync,
}

/// Eq. 2: the synchronous static bubble — `Σ_{s<S-1} full_width(s)`.
#[must_use]
pub(crate) fn eq2_ssb(profile: &PipelineProfile) -> f64 {
    let stages = profile.stages();
    stages[..stages.len().saturating_sub(1)]
        .iter()
        .map(StageProfile::full_width)
        .sum::<f64>()
}

/// A pipeline schedule: which of the five orderings, plus the residency
/// bounds it runs with. The executor asks it the admission questions
/// below; the answers are pure functions of the value, which both
/// engines rely on for bit-identical replay.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulePolicy {
    /// Eco-FL's memory-efficient synchronous 1F1B with per-stage
    /// residency limits `K_s`.
    OneFOneBSync {
        /// Max forwards resident per stage (`K_s = min(P_s, Q_s)`).
        k: Vec<usize>,
    },
    /// Gpipe's backward-after-forward synchronous schedule: all `M`
    /// forwards precede any backward.
    BafSync,
    /// PipeDream's asynchronous 1F1B: same per-stage ordering as
    /// 1F1B-Sync but no pipeline flush — micro-batches stream across
    /// sync-round boundaries, which removes the SSB but requires each
    /// stage to stash one weight version per in-flight micro-batch
    /// (`K_s` copies of its parameters). That weight-stashing memory is
    /// the reason §2 rules PipeDream out for memory-limited IoT devices.
    OneFOneBAsync {
        /// Max forwards resident per stage.
        k: Vec<usize>,
    },
    /// Interleaved 1F1B: each device hosts `v` virtual stages (model
    /// chunks), shrinking the per-device warmup bubble to ~`SSB / v` at
    /// the cost of `v − 1` extra transfer hops per micro-batch.
    Interleaved {
        /// Max forwards resident per *virtual* stage (length `S · v`).
        k: Vec<usize>,
        /// Virtual stages per device (`v ≥ 1`).
        v: usize,
    },
    /// Zero-bubble 1F1B: the backward splits into an activation-gradient
    /// task (sends the upstream gradient after `t_b/2`) and a deferred
    /// weight-gradient task scheduled into what would otherwise be
    /// bubble time.
    ZeroBubble {
        /// Max forwards resident per stage.
        k: Vec<usize>,
    },
}

impl SchedulePolicy {
    /// The selector variant of this policy.
    #[must_use]
    pub(crate) fn kind(&self) -> ScheduleKind {
        match self {
            SchedulePolicy::OneFOneBSync { .. } => ScheduleKind::OneFOneBSync,
            SchedulePolicy::BafSync => ScheduleKind::BafSync,
            SchedulePolicy::OneFOneBAsync { .. } => ScheduleKind::OneFOneBAsync,
            SchedulePolicy::Interleaved { .. } => ScheduleKind::Interleaved1F1B,
            SchedulePolicy::ZeroBubble { .. } => ScheduleKind::ZeroBubble,
        }
    }

    /// Human-readable schedule name (stable; used in test diagnostics).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SchedulePolicy::OneFOneBSync { .. } => "1F1B-Sync",
            SchedulePolicy::BafSync => "BAF-Sync",
            SchedulePolicy::OneFOneBAsync { .. } => "1F1B-Async",
            SchedulePolicy::Interleaved { .. } => "Interleaved-1F1B",
            SchedulePolicy::ZeroBubble { .. } => "Zero-Bubble",
        }
    }

    /// The residency vector, one `K_s` per (virtual) stage, or `None` for
    /// unbounded (BAF-Sync holds all `M` activations).
    pub(crate) fn k(&self) -> Option<&[usize]> {
        match self {
            SchedulePolicy::BafSync => None,
            SchedulePolicy::OneFOneBSync { k }
            | SchedulePolicy::OneFOneBAsync { k }
            | SchedulePolicy::Interleaved { k, .. }
            | SchedulePolicy::ZeroBubble { k } => Some(k),
        }
    }

    /// Residency limit `K_s` of (virtual) stage `stage`, or `None` for
    /// unbounded.
    #[must_use]
    pub fn residency(&self, stage: usize) -> Option<usize> {
        self.k().map(|k| k[stage])
    }

    /// Weight versions stashed per stage (1 unless weight-stashing
    /// async).
    #[must_use]
    pub(crate) fn weight_versions(&self, stage: usize) -> u64 {
        match self {
            SchedulePolicy::OneFOneBAsync { k } => k[stage] as u64,
            _ => 1,
        }
    }

    /// Whether micro-batches stream across round boundaries (no flush).
    #[must_use]
    pub fn flush_free(&self) -> bool {
        matches!(self, SchedulePolicy::OneFOneBAsync { .. })
    }

    /// Whether the backward splits into `BwdInput`/`BwdWeight` tasks.
    #[must_use]
    pub fn split_backward(&self) -> bool {
        matches!(self, SchedulePolicy::ZeroBubble { .. })
    }

    /// Whether a ready backward wins over an admissible forward (the
    /// early-backward rule of 1F1B; BAF-Sync prefers forwards).
    #[must_use]
    pub(crate) fn prefer_backward(&self) -> bool {
        !matches!(self, SchedulePolicy::BafSync)
    }

    /// Whether stage `stage` of `s_count` may start a backward now, given
    /// it has forwarded `fp_done` of `m` micro-batches this round.
    /// BAF-Sync gates the last stage until every forward is done;
    /// upstream stages receive gradients late enough that the gate only
    /// matters there.
    #[must_use]
    pub(crate) fn backward_allowed(
        &self,
        stage: usize,
        s_count: usize,
        fp_done: usize,
        m: usize,
    ) -> bool {
        !matches!(self, SchedulePolicy::BafSync) || stage != s_count - 1 || fp_done == m
    }

    /// Virtual stages per device (1 unless interleaved).
    #[must_use]
    pub(crate) fn virtual_per_device(&self) -> usize {
        match self {
            SchedulePolicy::Interleaved { v, .. } => (*v).max(1),
            _ => 1,
        }
    }

    /// The nominal task stream of (virtual) stage `stage` for one
    /// sync-round of `m` micro-batches: `ScheduleKind::stage_stream` at
    /// this policy's residency.
    #[must_use]
    pub fn stage_stream(&self, stage: usize, m: usize) -> Vec<StageTask> {
        self.kind()
            .stage_stream(self.residency(stage).unwrap_or(m), m)
    }

    /// Analytic bubble per sync-round for `profile` *as executed* (the
    /// interleaved schedule receives the virtual-stage profile).
    #[must_use]
    pub(crate) fn bubble_per_round(&self, profile: &PipelineProfile) -> f64 {
        let stages = profile.stages();
        match self {
            // Warmup only has to reach the last *device* once (its first
            // virtual stage), not traverse the whole virtual chain: the
            // per-device bubble spans the first S−1 virtual stages, each
            // 1/v of a physical stage wide.
            SchedulePolicy::Interleaved { .. } => {
                let devices = stages.len() / self.virtual_per_device();
                stages[..devices.saturating_sub(1)]
                    .iter()
                    .map(StageProfile::full_width)
                    .sum::<f64>()
            }
            // The upstream gradient leaves after the activation-gradient
            // half, so each warmup/drain hop shortens by t_b/2 relative
            // to Eq. 2.
            SchedulePolicy::ZeroBubble { .. } => stages[..stages.len().saturating_sub(1)]
                .iter()
                .map(|sp| sp.full_width() - sp.t_bwd * 0.5)
                .sum::<f64>(),
            _ => eq2_ssb(profile),
        }
    }
}

/// Data-free schedule selector for registries, configs, and CI sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    /// Eco-FL 1F1B-Sync.
    OneFOneBSync,
    /// Gpipe BAF-Sync.
    BafSync,
    /// PipeDream 1F1B-Async.
    OneFOneBAsync,
    /// Interleaved 1F1B (virtual stages per device).
    Interleaved1F1B,
    /// Zero-bubble 1F1B (split backward).
    ZeroBubble,
}

impl ScheduleKind {
    /// Every registered schedule, in gallery order — the sweep the
    /// conformance gate and benches iterate.
    #[must_use]
    pub fn all() -> [ScheduleKind; 5] {
        [
            ScheduleKind::OneFOneBSync,
            ScheduleKind::BafSync,
            ScheduleKind::OneFOneBAsync,
            ScheduleKind::Interleaved1F1B,
            ScheduleKind::ZeroBubble,
        ]
    }

    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ScheduleKind::OneFOneBSync => "1f1b",
            ScheduleKind::BafSync => "gpipe",
            ScheduleKind::OneFOneBAsync => "async",
            ScheduleKind::Interleaved1F1B => "interleaved",
            ScheduleKind::ZeroBubble => "zb",
        }
    }

    /// Builds a concrete [`SchedulePolicy`] for `profile` using the Eq. 3
    /// residency bounds (`K_s = min(P_s, Q_s)`); the interleaved variant
    /// derives bounds on its [`DEFAULT_INTERLEAVE`]-deep virtual profile.
    /// `None` when some stage cannot hold even one micro-batch.
    #[must_use]
    pub fn policy_for(self, profile: &PipelineProfile) -> Option<SchedulePolicy> {
        use crate::orchestrator::k_bounds;
        match self {
            ScheduleKind::OneFOneBSync => {
                k_bounds(profile).map(|k| SchedulePolicy::OneFOneBSync { k })
            }
            ScheduleKind::BafSync => Some(SchedulePolicy::BafSync),
            ScheduleKind::OneFOneBAsync => {
                k_bounds(profile).map(|k| SchedulePolicy::OneFOneBAsync { k })
            }
            ScheduleKind::Interleaved1F1B => {
                let vp = interleave_profile(profile, DEFAULT_INTERLEAVE);
                k_bounds(&vp).map(|k| SchedulePolicy::Interleaved {
                    k,
                    v: DEFAULT_INTERLEAVE,
                })
            }
            ScheduleKind::ZeroBubble => k_bounds(profile).map(|k| SchedulePolicy::ZeroBubble { k }),
        }
    }

    /// The nominal per-stage task stream for one sync-round of `m`
    /// micro-batches at residency `k`: every forward and backward of the
    /// round in the order the stage would run them absent timing skew —
    /// `min(k, m)` warmup forwards, then alternate backward/forward, then
    /// the remaining backwards — ending with [`StageTask::Sync`] unless
    /// the schedule is flush-free. BAF-Sync is the same shape with the
    /// whole round as warmup (it ignores `k`); zero-bubble emits each
    /// backward as its two halves.
    ///
    /// This is the only place a per-stage order is written down. The
    /// threaded runtime walks it keyed by kind and its physical stage's
    /// `k` (so interleaving's virtual stages do not appear there), and
    /// the legality suite checks it for every policy.
    #[must_use]
    pub(crate) fn stage_stream(self, k: usize, m: usize) -> Vec<StageTask> {
        let warmup = if self == ScheduleKind::BafSync {
            m
        } else {
            k.min(m).max(1)
        };
        let split = self == ScheduleKind::ZeroBubble;
        let mut out = Vec::with_capacity((2 + usize::from(split)) * m + 1);
        out.extend((0..warmup).map(StageTask::Fwd));
        let mut fp = warmup;
        for n in 0..m {
            if split {
                out.push(StageTask::BwdInput(n));
                out.push(StageTask::BwdWeight(n));
            } else {
                out.push(StageTask::Bwd(n));
            }
            if fp < m {
                out.push(StageTask::Fwd(fp));
                fp += 1;
            }
        }
        if self != ScheduleKind::OneFOneBAsync {
            out.push(StageTask::Sync);
        }
        out
    }
}

impl std::str::FromStr for ScheduleKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "1f1b" => Ok(ScheduleKind::OneFOneBSync),
            "gpipe" => Ok(ScheduleKind::BafSync),
            "async" => Ok(ScheduleKind::OneFOneBAsync),
            "interleaved" => Ok(ScheduleKind::Interleaved1F1B),
            "zb" | "zerobubble" => Ok(ScheduleKind::ZeroBubble),
            other => Err(format!(
                "unknown schedule {other:?} (1f1b, gpipe, async, interleaved, zb)"
            )),
        }
    }
}

/// Derives the virtual-stage profile for interleaved 1F1B: each physical
/// stage splits into `v` equal chunks, ordered chunk-major (virtual stage
/// `j = r·S + s` is chunk `r` of device `s`), so every device hosts `v`
/// virtual stages and micro-batches visit each device `v` times.
///
/// Compute, parameters and activations divide evenly across the chunks;
/// inter-device boundaries keep their profiled transfer cost, and the
/// `v − 1` wrap boundaries (last device back to device 0) are charged the
/// mean of the profiled inter-device transfers — an approximation, since
/// the physical profiler never measured those cuts.
#[must_use]
pub(crate) fn interleave_profile(profile: &PipelineProfile, v: usize) -> PipelineProfile {
    assert!(v >= 1, "interleave_profile: v must be ≥ 1");
    if v == 1 {
        return profile.clone();
    }
    let phys = profile.stages();
    let s = phys.len();
    let vf = v as f64;
    let inter = &phys[..s - 1];
    let wrap_c = if inter.is_empty() {
        0.0
    } else {
        inter.iter().map(|p| p.c_fwd).sum::<f64>() / inter.len() as f64
    };
    let wrap_bytes = if inter.is_empty() {
        0
    } else {
        inter.iter().map(|p| p.boundary_bytes).sum::<u64>() / inter.len() as u64
    };
    let mut stages = Vec::with_capacity(s * v);
    for r in 0..v {
        for (si, p) in phys.iter().enumerate() {
            let last = r == v - 1 && si == s - 1;
            let wraps = si == s - 1 && !last;
            let (c_fwd, c_bwd, boundary_bytes) = if last {
                (0.0, 0.0, 0)
            } else if wraps {
                (wrap_c, wrap_c, wrap_bytes)
            } else {
                (p.c_fwd, p.c_bwd, p.boundary_bytes)
            };
            // Even u64 splits, remainders charged to chunk 0 so device
            // totals are preserved exactly.
            let split = |b: u64| b / v as u64 + if r == 0 { b % v as u64 } else { 0 };
            let len = p.layers.len();
            let lo = p.layers.start + (len * r) / v;
            let hi = p.layers.start + (len * (r + 1)) / v;
            stages.push(StageProfile {
                device: p.device,
                layers: lo..hi,
                t_fwd: p.t_fwd / vf,
                t_bwd: p.t_bwd / vf,
                c_fwd,
                c_bwd,
                param_bytes: split(p.param_bytes),
                activation_bytes_per_mb: split(p.activation_bytes_per_mb),
                boundary_bytes,
                memory_budget_bytes: p.memory_budget_bytes,
                efficiency: p.efficiency,
            });
        }
    }
    PipelineProfile::from_stages(stages, profile.micro_batch())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_profile(s: usize) -> PipelineProfile {
        let stages: Vec<StageProfile> = (0..s)
            .map(|i| StageProfile {
                device: i,
                layers: i..i + 1,
                t_fwd: 1.0,
                t_bwd: 2.0,
                c_fwd: if i < s - 1 { 0.25 } else { 0.0 },
                c_bwd: if i < s - 1 { 0.25 } else { 0.0 },
                param_bytes: 600,
                activation_bytes_per_mb: 100,
                boundary_bytes: 50,
                memory_budget_bytes: 1 << 30,
                efficiency: 1.0,
            })
            .collect();
        PipelineProfile::from_stages(stages, 1)
    }

    #[test]
    fn stream_covers_every_micro_batch_once() {
        let m = 7;
        for kind in ScheduleKind::all() {
            let p = uniform_profile(3);
            let exec_p = if kind == ScheduleKind::Interleaved1F1B {
                interleave_profile(&p, DEFAULT_INTERLEAVE)
            } else {
                p.clone()
            };
            let sched = kind.policy_for(&p).expect("bounds fit");
            for stage in 0..exec_p.num_stages() {
                let stream = sched.stage_stream(stage, m);
                let fwds: Vec<usize> = stream
                    .iter()
                    .filter_map(|t| match t {
                        StageTask::Fwd(n) => Some(*n),
                        _ => None,
                    })
                    .collect();
                let bwds: Vec<usize> = stream
                    .iter()
                    .filter_map(|t| match t {
                        StageTask::Bwd(n) | StageTask::BwdWeight(n) => Some(*n),
                        _ => None,
                    })
                    .collect();
                assert_eq!(fwds, (0..m).collect::<Vec<_>>(), "{}", sched.name());
                assert_eq!(bwds, (0..m).collect::<Vec<_>>(), "{}", sched.name());
                let syncs = stream.iter().filter(|t| **t == StageTask::Sync).count();
                assert_eq!(syncs, usize::from(!sched.flush_free()));
            }
        }
    }

    #[test]
    fn stream_respects_residency_and_order() {
        for kind in ScheduleKind::all() {
            let p = uniform_profile(4);
            let exec_p = if kind == ScheduleKind::Interleaved1F1B {
                interleave_profile(&p, DEFAULT_INTERLEAVE)
            } else {
                p.clone()
            };
            let sched = kind.policy_for(&p).expect("bounds fit");
            for stage in 0..exec_p.num_stages() {
                let mut resident = 0usize;
                let mut fwd_done = [false; 9];
                let mut bwd_in_done = [false; 9];
                for t in sched.stage_stream(stage, 9) {
                    match t {
                        StageTask::Fwd(n) => {
                            resident += 1;
                            fwd_done[n] = true;
                            if let Some(k) = sched.residency(stage) {
                                assert!(resident <= k, "{}: residency exceeded", sched.name());
                            }
                        }
                        StageTask::Bwd(n) => {
                            assert!(fwd_done[n], "backward before forward");
                            resident -= 1;
                        }
                        StageTask::BwdInput(n) => {
                            assert!(fwd_done[n]);
                            bwd_in_done[n] = true;
                        }
                        StageTask::BwdWeight(n) => {
                            assert!(bwd_in_done[n], "weight grad before activation grad");
                            resident -= 1;
                        }
                        StageTask::Sync => assert_eq!(resident, 0, "sync with residents"),
                    }
                }
            }
        }
    }

    #[test]
    fn interleave_preserves_device_totals() {
        let p = uniform_profile(3);
        let vp = interleave_profile(&p, 3);
        assert_eq!(vp.num_stages(), 9);
        for d in 0..3 {
            let params: u64 = vp
                .stages()
                .iter()
                .filter(|sp| sp.device == d)
                .map(|sp| sp.param_bytes)
                .sum();
            assert_eq!(params, p.stages()[d].param_bytes);
            let t: f64 = vp
                .stages()
                .iter()
                .filter(|sp| sp.device == d)
                .map(StageProfile::t_total)
                .sum();
            assert!((t - p.stages()[d].t_total()).abs() < 1e-12);
        }
        // Chunk-major order: devices cycle 0,1,2,0,1,2,…
        let order: Vec<usize> = vp.stages().iter().map(|sp| sp.device).collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn bubble_formulas_ordered() {
        let p = uniform_profile(4);
        let ssb = eq2_ssb(&p);
        let sync = ScheduleKind::OneFOneBSync.policy_for(&p).unwrap();
        assert!((sync.bubble_per_round(&p) - ssb).abs() < 1e-12);
        let zb = ScheduleKind::ZeroBubble.policy_for(&p).unwrap();
        assert!(
            zb.bubble_per_round(&p) < ssb,
            "zero-bubble must undercut Eq. 2"
        );
        let il = ScheduleKind::Interleaved1F1B.policy_for(&p).unwrap();
        let vp = interleave_profile(&p, DEFAULT_INTERLEAVE);
        assert!(
            il.bubble_per_round(&vp) < ssb,
            "interleaving must shrink the warmup bubble"
        );
    }
}

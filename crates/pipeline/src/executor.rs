//! Discrete-event execution of pipeline-training schedules.
//!
//! The executor holds a [`SchedulePolicy`] by value and asks it admission
//! questions — residency bounds `K_s`, backward gating, forward/backward
//! preference, weight-version stashing, flush-freedom, backward
//! splitting. It does not walk the policy's nominal `stage_stream`: a
//! task starts when its data has arrived and the policy admits it, so the
//! executed order can differ from the nominal one. All five schedules
//! (1F1B-Sync, BAF-Sync, 1F1B-Async, interleaved 1F1B, zero-bubble) run
//! through the same event loop:
//!
//! - **1F1B-Sync** (Eco-FL, §4.1): every stage prefers the earliest ready
//!   backward task (the *early backward schedule* that releases activation
//!   memory for reuse) and admits a new forward only while fewer than
//!   `K_s` micro-batches are resident;
//! - **BAF-Sync** (Gpipe): forwards for the whole sync-round run first,
//!   backwards only begin after the last stage has forwarded every
//!   micro-batch, so all `M` activations stay resident;
//! - **1F1B-Async** (PipeDream): flush-free streaming with `K_s` stashed
//!   weight versions per stage;
//! - **interleaved 1F1B**: each device hosts `v` virtual stages of the
//!   interleaved profile (`schedule::interleave_profile`); a device
//!   runs one compute task at a time across its chunks, backwards first;
//! - **zero-bubble**: the backward splits into an activation-gradient
//!   task (sends the upstream gradient at `t_b/2`) and a weight-gradient
//!   task deferred into bubble time.
//!
//! Memory is *accounted, not assumed*: each forward allocates the stage's
//! per-micro-batch activation bytes on the simulated device and each
//! backward releases them; exceeding capacity aborts the run with
//! [`ExecError::Oom`] — which is exactly how the Gpipe rows of Table 2
//! fail while 1F1B-Sync fits.
//!
//! Devices execute one compute task at a time; links serialize transfers
//! per direction. A fixed per-task dispatch overhead models kernel-launch
//! and synchronization costs, making "GPU utilization" (useful compute ÷
//! makespan) improve with micro-batch size the way Table 2 reports.
//!
//! Each started task is recorded once, as a [`SpanRecord`]:
//! the report keeps it in [`ExecutionReport::task_spans`] and an attached
//! [`Tracer`] receives the same values. Per-stage busy and idle time and
//! the measured DDB are a fold over those spans after the event loop;
//! [`ExecutionReport::trace_view`] lifts them into a [`TraceView`] for
//! the Gantt renderer and the trace queries.

use crate::profiler::PipelineProfile;
use crate::schedule::interleave_profile;
use ecofl_obs::{Domain, SpanKind, SpanRecord, TraceRecord, TraceView, Tracer};
use ecofl_simnet::{Device, EventQueue};
use std::collections::VecDeque;

pub use crate::schedule::SchedulePolicy;

/// Default per-compute-task dispatch overhead in seconds (kernel launch,
/// synchronization, scheduler hop).
pub(crate) const DEFAULT_TASK_OVERHEAD: f64 = 0.002;

/// Most micro-batches one [`PipelineExecutor::run`] simulates
/// (`micro_batches × rounds`). Every micro-batch leaves a few compute
/// spans per stage in the report, so this bounds a run's memory and time:
/// at the cap, a traced zero-bubble run of EfficientNet-B4 over four
/// devices peaks at ≈ 230 MiB and takes ≈ 0.5 s. Shipped uses stay far
/// below it — the largest is the benchmark's 160 rounds × 32
/// micro-batches, and `ecofl plan --batch 256` simulates 2 × 64.
pub const MAX_SIMULATED_MICRO_BATCHES: usize = 1 << 16;

/// Why a run aborted.
///
/// The simulated executor produces [`ExecError::Oom`] and the
/// configuration errors ([`ExecError::ResidencyLen`],
/// [`ExecError::ResidencyZero`], [`ExecError::Schedule`]); the real
/// threaded runtime ([`crate::runtime`]) produces the remaining
/// variants, which together form its never-panic contract: every
/// runtime disturbance (stage death, shape mismatch, unrecoverable
/// trainer) surfaces as one of these in bounded time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Stage `stage` exceeded its device memory at micro-batch `micro`.
    Oom {
        /// Stage index that overflowed.
        stage: usize,
        /// Micro-batch whose forward allocation failed.
        micro: usize,
    },
    /// A schedule's residency vector does not have one entry per
    /// (virtual) stage.
    ResidencyLen {
        /// Stages the profile (after interleaving) actually has.
        expected: usize,
        /// Length of the supplied `k` vector.
        got: usize,
    },
    /// A residency entry is zero — no stage can run with no admitted
    /// micro-batches.
    ResidencyZero {
        /// Stage whose `K_s` is zero.
        stage: usize,
    },
    /// The schedule configuration itself is invalid (e.g. an
    /// interleaving depth of zero).
    Schedule {
        /// What was wrong.
        detail: String,
    },
    /// A stage thread of the real runtime died (panic, injected fault,
    /// or channel disconnect cascade). `stage` is the *first* stage to
    /// die — neighbours that fail afterwards from the resulting channel
    /// disconnects are not reported.
    StageDied {
        /// First stage that died.
        stage: usize,
        /// What the stage was doing when it died.
        during: String,
    },
    /// `SetParams` carried a vector whose length does not match the
    /// stage's parameter count; the stage refused to apply it (no
    /// partial/stale-tail write happens).
    ParamLenMismatch {
        /// Stage that rejected the vector.
        stage: usize,
        /// The stage's own flat parameter count.
        expected: usize,
        /// Length of the rejected vector.
        got: usize,
    },
    /// The full flat parameter vector handed to `set_params` does not
    /// match the sum of the per-stage lengths.
    ParamVecLen {
        /// Sum of the per-stage lengths.
        expected: usize,
        /// Length of the supplied vector.
        got: usize,
    },
    /// `recover()` was called on a trainer launched without a segment
    /// factory (plain `launch`), which cannot rebuild dead stages.
    RecoveryUnsupported,
    /// The configured run store failed: the checkpoint segment could
    /// not be opened, written, or decoded.
    CheckpointStore {
        /// Underlying store or codec failure.
        detail: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Oom { stage, micro } => {
                write!(f, "OOM on stage {stage} at micro-batch {micro}")
            }
            ExecError::ResidencyLen { expected, got } => {
                write!(
                    f,
                    "residency vector length {got} does not match the stage count {expected}"
                )
            }
            ExecError::ResidencyZero { stage } => {
                write!(f, "residency K must be ≥ 1, but stage {stage} has K = 0")
            }
            ExecError::Schedule { detail } => {
                write!(f, "invalid schedule configuration: {detail}")
            }
            ExecError::StageDied { stage, during } => {
                write!(f, "stage {stage} died during {during}")
            }
            ExecError::ParamLenMismatch {
                stage,
                expected,
                got,
            } => {
                write!(
                    f,
                    "stage {stage} rejected a parameter vector of length {got} (expected {expected})"
                )
            }
            ExecError::ParamVecLen { expected, got } => {
                write!(
                    f,
                    "parameter vector length {got} does not match the stage layout total {expected}"
                )
            }
            ExecError::RecoveryUnsupported => {
                write!(
                    f,
                    "recovery unsupported: trainer was launched without a segment factory"
                )
            }
            ExecError::CheckpointStore { detail } => {
                write!(f, "checkpoint store: {detail}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Measured results of a pipeline run.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Total simulated makespan, seconds.
    pub makespan: f64,
    /// Average sync-round time, seconds.
    pub round_time: f64,
    /// Training throughput, samples per second.
    pub throughput: f64,
    /// Busy fraction (incl. overhead) per stage over the makespan.
    pub stage_busy_utilization: Vec<f64>,
    /// Useful-compute fraction per stage over the makespan — the paper's
    /// "Avg. GPU Utilization".
    pub stage_gpu_utilization: Vec<f64>,
    /// Peak memory per stage, bytes (static + resident activations).
    pub stage_peak_memory: Vec<u64>,
    /// Idle time per stage within the makespan, seconds.
    pub stage_idle_time: Vec<f64>,
    /// Analytic bubble per sync-round for the executed schedule (Eq. 2
    /// for the synchronous schedules), seconds.
    pub ssb_per_round: f64,
    /// Measured data-dependency bubble per stage per sync-round (idle
    /// beyond the analytic SSB), seconds.
    pub ddb_per_round: Vec<f64>,
    /// Number of sync-rounds executed.
    pub rounds: usize,
    /// Micro-batches per sync-round.
    pub micro_batches: usize,
    /// Every executed compute task in dispatch order (schedule trace): a
    /// [`Domain::Pipeline`] compute span whose `entity` is the (virtual)
    /// stage, and whose `t1` includes the dispatch overhead.
    pub task_spans: Vec<SpanRecord>,
}

impl ExecutionReport {
    /// A [`TraceView`] over this report's compute spans — the bridge for
    /// reports produced without a [`Tracer`] attached.
    #[must_use]
    pub fn trace_view(&self) -> TraceView {
        TraceView::from_records(
            self.task_spans
                .iter()
                .copied()
                .map(TraceRecord::Span)
                .collect(),
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Task {
    Fp(usize),
    Bp(usize),
    /// Activation-gradient half of a split backward.
    BpIn(usize),
    /// Weight-gradient half of a split backward.
    BpW(usize),
}

#[derive(Debug)]
enum Event {
    ComputeDone { stage: usize, task: Task },
    FwdArrive { stage: usize, micro: usize },
    BwdArrive { stage: usize, micro: usize },
}

struct StageState {
    /// Next micro-batch index to forward.
    fp_next: usize,
    /// Forwards completed this round.
    fp_done: usize,
    /// Activations arrived from upstream, in arrival order.
    fp_inbox: VecDeque<usize>,
    /// Backward tasks ready to run (full backward, or the
    /// activation-gradient half under a split schedule).
    bp_ready: VecDeque<usize>,
    /// Deferred weight-gradient tasks (split schedules only).
    bpw_ready: VecDeque<usize>,
    /// Backwards completed this round.
    bp_done: usize,
    /// Micro-batches resident (FP issued, BP not finished).
    in_flight: usize,
    peak_mem: u64,
    useful_time: f64,
    /// Serialization horizon for the outgoing forward link.
    fwd_link_free: f64,
    /// Serialization horizon for the outgoing backward link.
    bwd_link_free: f64,
}

/// Event-driven pipeline executor.
pub struct PipelineExecutor<'a> {
    profile: &'a PipelineProfile,
    /// The chunked profile actually executed under an interleaved
    /// schedule (`None` for single-chunk schedules).
    virtual_profile: Option<PipelineProfile>,
    schedule: SchedulePolicy,
    /// Per-compute-task dispatch overhead, seconds.
    task_overhead: f64,
}

impl<'a> PipelineExecutor<'a> {
    /// Creates an executor for `profile` under `policy`.
    ///
    /// # Errors
    /// [`ExecError::ResidencyLen`] when a residency vector does not have
    /// one entry per (virtual) stage, [`ExecError::ResidencyZero`] when an
    /// entry is zero, [`ExecError::Schedule`] when the schedule
    /// configuration itself is invalid (e.g. interleave depth 0).
    pub fn new(profile: &'a PipelineProfile, policy: SchedulePolicy) -> Result<Self, ExecError> {
        if matches!(policy, SchedulePolicy::Interleaved { v: 0, .. }) {
            return Err(ExecError::Schedule {
                detail: "interleave depth v must be ≥ 1".into(),
            });
        }
        let v = policy.virtual_per_device();
        let expected = profile.num_stages() * v;
        if let Some(k) = policy.k() {
            if k.len() != expected {
                return Err(ExecError::ResidencyLen {
                    expected,
                    got: k.len(),
                });
            }
            if let Some(stage) = k.iter().position(|&x| x == 0) {
                return Err(ExecError::ResidencyZero { stage });
            }
        }
        let virtual_profile = (v > 1).then(|| interleave_profile(profile, v));
        Ok(Self {
            profile,
            virtual_profile,
            schedule: policy,
            task_overhead: DEFAULT_TASK_OVERHEAD,
        })
    }

    /// The profile the event loop actually executes: the interleaved
    /// virtual-stage profile when one exists, the physical profile
    /// otherwise.
    #[must_use]
    pub(crate) fn exec_profile(&self) -> &PipelineProfile {
        self.virtual_profile.as_ref().unwrap_or(self.profile)
    }

    /// Overrides the per-task dispatch overhead.
    #[must_use]
    pub fn with_task_overhead(mut self, overhead: f64) -> Self {
        assert!(overhead >= 0.0);
        self.task_overhead = overhead;
        self
    }

    /// Runs `rounds` sync-rounds of `micro_batches` micro-batches each.
    ///
    /// # Errors
    /// Returns [`ExecError::Oom`] when a forward's activation allocation
    /// exceeds a stage device's memory, [`ExecError::Schedule`] when
    /// either count is zero or `micro_batches × rounds` exceeds
    /// [`MAX_SIMULATED_MICRO_BATCHES`] (checked before anything is
    /// allocated).
    pub fn run(&self, micro_batches: usize, rounds: usize) -> Result<ExecutionReport, ExecError> {
        self.run_traced(micro_batches, rounds, None)
    }

    /// [`run`](Self::run), recording into `tracer` (`None` for nothing)
    /// forward/backward compute spans and activation/gradient transfer
    /// spans per micro-batch (domain [`Domain::Pipeline`]) at virtual
    /// timestamps. The tracer only *observes* — reports and virtual
    /// timestamps are bit-identical with or without it.
    ///
    /// # Errors
    /// Exactly as [`run`](Self::run); the spans recorded up to a failing
    /// allocation stay in the trace.
    pub fn run_traced<'o>(
        &self,
        micro_batches: usize,
        rounds: usize,
        tracer: impl Into<Option<&'o Tracer>>,
    ) -> Result<ExecutionReport, ExecError> {
        if micro_batches == 0 || rounds == 0 {
            return Err(ExecError::Schedule {
                detail: format!("zero count: {rounds} round(s) of {micro_batches} micro-batch(es)"),
            });
        }
        if micro_batches
            .checked_mul(rounds)
            .is_none_or(|total| total > MAX_SIMULATED_MICRO_BATCHES)
        {
            return Err(ExecError::Schedule {
                detail: format!(
                    "{rounds} round(s) of {micro_batches} micro-batch(es) exceed the \
                     {MAX_SIMULATED_MICRO_BATCHES} one run simulates"
                ),
            });
        }
        let profile = self.exec_profile();
        let s_count = profile.num_stages();
        let stages = profile.stages();

        // One simulated device per physical device; under interleaving
        // several virtual stages share one.
        let dev_count = stages.iter().map(|sp| sp.device).max().unwrap_or(0) + 1;
        let mut devices: Vec<Device> = (0..dev_count)
            .map(|d| {
                let sp = stages
                    .iter()
                    .find(|sp| sp.device == d)
                    .expect("contiguous device indices");
                Device::new(sp.clone_device_spec())
            })
            .collect();
        let mut dev_stages: Vec<Vec<usize>> = vec![Vec::new(); dev_count];
        let mut oom_setup: Option<usize> = None;
        for (i, sp) in stages.iter().enumerate() {
            dev_stages[sp.device].push(i);
            // Static footprint: params + grads + optimizer state,
            // multiplied by stashed weight versions for async 1F1B.
            let static_total = sp.static_bytes() * self.schedule.weight_versions(i);
            // Weight stashing can itself overflow the device.
            if !devices[sp.device].try_allocate(static_total) && oom_setup.is_none() {
                oom_setup = Some(i);
            }
        }
        if let Some(stage) = oom_setup {
            return Err(ExecError::Oom { stage, micro: 0 });
        }
        let state: Vec<StageState> = stages
            .iter()
            .map(|sp| StageState {
                fp_next: 0,
                fp_done: 0,
                fp_inbox: VecDeque::new(),
                bp_ready: VecDeque::new(),
                bpw_ready: VecDeque::new(),
                bp_done: 0,
                in_flight: 0,
                peak_mem: devices[sp.device].allocated_bytes(),
                useful_time: 0.0,
                fwd_link_free: 0.0,
                bwd_link_free: 0.0,
            })
            .collect();

        let mut queue: EventQueue<Event> = EventQueue::new();
        let mut engine = Engine {
            profile,
            schedule: &self.schedule,
            task_overhead: self.task_overhead,
            state,
            devices,
            device_busy: vec![false; dev_count],
            dev_stages,
            task_spans: Vec::new(),
            tracer: tracer.into(),
        };
        let mut round_ends = Vec::with_capacity(rounds);

        // Flush-free schedules stream every micro-batch through one
        // continuous 1F1B window; synchronous schedules flush per round.
        let (outer_rounds, batch_per_round) = if self.schedule.flush_free() {
            (1, micro_batches * rounds)
        } else {
            (rounds, micro_batches)
        };
        for round in 0..outer_rounds {
            let micro_batches = batch_per_round;
            // Reset per-round counters (weights update at the flush; its
            // cost is negligible next to FP/BP and omitted, as in §4.3's
            // ideal model).
            for st in engine.state.iter_mut() {
                st.fp_next = 0;
                st.fp_done = 0;
                st.bp_done = 0;
                debug_assert!(st.fp_inbox.is_empty());
                debug_assert!(st.bp_ready.is_empty());
                debug_assert!(st.bpw_ready.is_empty());
                debug_assert_eq!(st.in_flight, 0);
            }
            let round_start = queue.now();
            // Kick stage 0's device (only stage 0 can self-start).
            let dev0 = profile.stages()[0].device;
            engine.dispatch_device(dev0, &mut queue, micro_batches, round)?;

            while let Some((now, ev)) = queue.pop() {
                match ev {
                    Event::ComputeDone { stage, task } => {
                        engine.on_compute_done(stage, task, now, &mut queue, round);
                    }
                    Event::FwdArrive { stage, micro } => {
                        engine.state[stage].fp_inbox.push_back(micro);
                    }
                    Event::BwdArrive { stage, micro } => {
                        engine.state[stage].bp_ready.push_back(micro);
                    }
                }
                let dev = match ev {
                    Event::ComputeDone { stage, .. }
                    | Event::FwdArrive { stage, .. }
                    | Event::BwdArrive { stage, .. } => profile.stages()[stage].device,
                };
                engine.dispatch_device(dev, &mut queue, micro_batches, round)?;
            }
            let round_end = queue.now();
            debug_assert!(
                engine.state.iter().all(|st| st.bp_done == micro_batches),
                "round ended with incomplete backwards"
            );
            debug_assert!(round_end > round_start);
            round_ends.push(round_end);
        }

        let makespan = queue.now();
        let samples = (rounds * micro_batches * profile.micro_batch()) as f64;
        let ssb = self.schedule.bubble_per_round(profile);
        let mut stage_busy = Vec::with_capacity(s_count);
        let mut stage_gpu = Vec::with_capacity(s_count);
        let mut stage_idle = Vec::with_capacity(s_count);
        let mut ddb = Vec::with_capacity(s_count);
        let busy_times = stage_busy_times(&engine.task_spans, s_count);
        for (st, busy) in engine.state.iter().zip(busy_times) {
            stage_busy.push(busy / makespan);
            stage_gpu.push(st.useful_time / makespan);
            let idle = makespan - busy;
            stage_idle.push(idle);
            ddb.push(((idle / rounds as f64) - ssb).max(0.0));
        }

        Ok(ExecutionReport {
            makespan,
            round_time: makespan / rounds as f64,
            throughput: samples / makespan,
            stage_busy_utilization: stage_busy,
            stage_gpu_utilization: stage_gpu,
            stage_peak_memory: engine.state.iter().map(|st| st.peak_mem).collect(),
            stage_idle_time: stage_idle,
            ssb_per_round: ssb,
            ddb_per_round: ddb,
            rounds,
            micro_batches,
            task_spans: engine.task_spans,
        })
    }
}

/// Busy time per stage, folded over the executed spans in dispatch order:
/// a stage's span that starts within 1e-9 s of the end of its open busy
/// interval extends it, any other non-empty span opens a new one, and the
/// closed intervals' lengths `e − s` sum in order. Every span ends by the
/// makespan, so this is the stage's busy time over `[0, makespan)`.
fn stage_busy_times(spans: &[SpanRecord], stages: usize) -> Vec<f64> {
    let mut open: Vec<Option<(f64, f64)>> = vec![None; stages];
    let mut busy = vec![0.0; stages];
    for s in spans {
        match &mut open[s.entity] {
            Some((_, end)) if (s.t0 - *end).abs() < 1e-9 => *end = s.t1,
            slot if s.t1 > s.t0 => {
                if let Some((a, b)) = slot.replace((s.t0, s.t1)) {
                    busy[s.entity] += b - a;
                }
            }
            _ => {}
        }
    }
    for (slot, total) in open.into_iter().zip(&mut busy) {
        if let Some((a, b)) = slot {
            *total += b - a;
        }
    }
    busy
}

/// Which task class a dispatch pass scans for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// Ready backwards (full, or the activation-gradient half).
    Backward,
    /// Admissible forwards.
    Forward,
    /// Deferred weight-gradient halves (split schedules).
    Weight,
}

/// Mutable per-run execution state, split from [`PipelineExecutor`] so
/// the event handlers can borrow it wholesale.
struct Engine<'e> {
    profile: &'e PipelineProfile,
    schedule: &'e SchedulePolicy,
    task_overhead: f64,
    state: Vec<StageState>,
    devices: Vec<Device>,
    device_busy: Vec<bool>,
    /// Stage indices hosted by each device, ascending.
    dev_stages: Vec<Vec<usize>>,
    task_spans: Vec<SpanRecord>,
    tracer: Option<&'e Tracer>,
}

impl Engine<'_> {
    /// Handles a finished compute task: frees the device, routes the
    /// produced activation/gradient, then re-dispatches the device.
    fn on_compute_done(
        &mut self,
        stage: usize,
        task: Task,
        now: f64,
        queue: &mut EventQueue<Event>,
        round: usize,
    ) {
        let s_count = self.state.len();
        let sp = &self.profile.stages()[stage];
        self.device_busy[sp.device] = false;
        match task {
            Task::Fp(m) => {
                self.state[stage].fp_done += 1;
                if stage + 1 < s_count {
                    // Serialize on the forward link.
                    let start = now.max(self.state[stage].fwd_link_free);
                    let done = start + sp.c_fwd;
                    self.state[stage].fwd_link_free = done;
                    if let Some(tr) = self.tracer {
                        tr.span(
                            Domain::Pipeline,
                            SpanKind::CommForward,
                            stage,
                            round,
                            m,
                            start,
                            done,
                        );
                    }
                    queue.schedule(
                        done,
                        Event::FwdArrive {
                            stage: stage + 1,
                            micro: m,
                        },
                    );
                } else {
                    // Last stage: its own backward becomes ready (possibly
                    // gated for BAF).
                    self.state[stage].bp_ready.push_back(m);
                }
            }
            Task::Bp(m) => {
                self.finish_backward(stage, sp.activation_bytes_per_mb);
                self.send_upstream_grad(stage, m, now, queue, round);
            }
            Task::BpIn(m) => {
                // Upstream gradient leaves now; the weight half is
                // deferred into bubble time.
                self.state[stage].bpw_ready.push_back(m);
                self.send_upstream_grad(stage, m, now, queue, round);
            }
            Task::BpW(_) => {
                self.finish_backward(stage, sp.activation_bytes_per_mb);
            }
        }
    }

    /// Books the completion of a backward at `stage`: counter, residency,
    /// activation memory.
    fn finish_backward(&mut self, stage: usize, activation_bytes: u64) {
        let dev = self.profile.stages()[stage].device;
        self.state[stage].bp_done += 1;
        self.state[stage].in_flight -= 1;
        self.devices[dev].free(activation_bytes);
    }

    /// Serializes micro-batch `m`'s gradient onto the backward link out of
    /// `stage` (no-op at stage 0).
    fn send_upstream_grad(
        &mut self,
        stage: usize,
        m: usize,
        now: f64,
        queue: &mut EventQueue<Event>,
        round: usize,
    ) {
        if stage == 0 {
            return;
        }
        let up = &self.profile.stages()[stage - 1];
        let start = now.max(self.state[stage].bwd_link_free);
        let done = start + up.c_bwd;
        self.state[stage].bwd_link_free = done;
        if let Some(tr) = self.tracer {
            tr.span(
                Domain::Pipeline,
                SpanKind::CommBackward,
                stage,
                round,
                m,
                start,
                done,
            );
        }
        queue.schedule(
            done,
            Event::BwdArrive {
                stage: stage - 1,
                micro: m,
            },
        );
    }

    /// Dispatches the next admissible task on `dev` if it is idle: scans
    /// the device's stages in pass order (backwards before forwards for
    /// early-backward schedules, forwards first for BAF-Sync, deferred
    /// weight gradients last) and starts at most one task.
    fn dispatch_device(
        &mut self,
        dev: usize,
        queue: &mut EventQueue<Event>,
        micro_batches: usize,
        round: usize,
    ) -> Result<(), ExecError> {
        if self.device_busy[dev] {
            return Ok(());
        }
        let passes: &[Pass] = if self.schedule.prefer_backward() {
            &[Pass::Backward, Pass::Forward, Pass::Weight]
        } else {
            &[Pass::Forward, Pass::Backward]
        };
        for &pass in passes {
            for i in 0..self.dev_stages[dev].len() {
                let stage = self.dev_stages[dev][i];
                if let Some(task) = self.select_task(stage, pass, micro_batches)? {
                    self.start_task(stage, task, queue, round);
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Pops the next `pass`-class task on `stage` if the schedule admits
    /// one, performing the forward's activation allocation.
    fn select_task(
        &mut self,
        stage: usize,
        pass: Pass,
        micro_batches: usize,
    ) -> Result<Option<Task>, ExecError> {
        let s_count = self.state.len();
        let sp = &self.profile.stages()[stage];
        match pass {
            Pass::Backward => {
                let allowed = self.schedule.backward_allowed(
                    stage,
                    s_count,
                    self.state[stage].fp_done,
                    micro_batches,
                );
                if allowed && !self.state[stage].bp_ready.is_empty() {
                    let m = self.state[stage].bp_ready.pop_front().expect("nonempty");
                    Ok(Some(if self.schedule.split_backward() {
                        Task::BpIn(m)
                    } else {
                        Task::Bp(m)
                    }))
                } else {
                    Ok(None)
                }
            }
            Pass::Weight => Ok(self.state[stage].bpw_ready.pop_front().map(Task::BpW)),
            Pass::Forward => {
                let fp_allowed = self
                    .schedule
                    .residency(stage)
                    .is_none_or(|k| self.state[stage].in_flight < k);
                let fp_available = self.state[stage].fp_next < micro_batches
                    && (stage == 0 || {
                        // In-order arrival: the inbox head must be the next
                        // micro-batch.
                        self.state[stage].fp_inbox.front() == Some(&self.state[stage].fp_next)
                    });
                if !(fp_allowed && fp_available) {
                    return Ok(None);
                }
                let m = self.state[stage].fp_next;
                let dev = sp.device;
                if !self.devices[dev].try_allocate(sp.activation_bytes_per_mb) {
                    return Err(ExecError::Oom { stage, micro: m });
                }
                self.state[stage].in_flight += 1;
                self.state[stage].peak_mem = self.state[stage]
                    .peak_mem
                    .max(self.devices[dev].allocated_bytes());
                self.state[stage].fp_next += 1;
                if stage > 0 {
                    let head = self.state[stage].fp_inbox.pop_front();
                    debug_assert_eq!(head, Some(m));
                }
                Ok(Some(Task::Fp(m)))
            }
        }
    }

    /// Starts `task` on `stage`'s device, recording the span and
    /// scheduling its completion.
    fn start_task(
        &mut self,
        stage: usize,
        task: Task,
        queue: &mut EventQueue<Event>,
        round: usize,
    ) {
        let sp = &self.profile.stages()[stage];
        let now = queue.now();
        // Wall-clock duration is the profiled (efficiency-corrected)
        // stage time plus dispatch overhead; only the fraction of it
        // doing peak-rate arithmetic counts as "GPU-useful". A split
        // backward spends t_bwd/2 per half.
        let wall = match task {
            Task::Fp(_) => sp.t_fwd,
            Task::Bp(_) => sp.t_bwd,
            Task::BpIn(_) | Task::BpW(_) => sp.t_bwd * 0.5,
        };
        let duration = wall + self.task_overhead;
        self.device_busy[sp.device] = true;
        self.state[stage].useful_time += wall * sp.efficiency;
        let (micro, kind) = match task {
            Task::Fp(m) => (m, SpanKind::Forward),
            Task::Bp(m) => (m, SpanKind::Backward),
            Task::BpIn(m) => (m, SpanKind::BackwardInput),
            Task::BpW(m) => (m, SpanKind::BackwardWeight),
        };
        let span = SpanRecord {
            domain: Domain::Pipeline,
            kind,
            entity: stage,
            round,
            micro,
            t0: now,
            t1: now + duration,
        };
        self.task_spans.push(span);
        if let Some(tr) = self.tracer {
            tr.span(
                span.domain,
                span.kind,
                span.entity,
                span.round,
                span.micro,
                span.t0,
                span.t1,
            );
        }
        queue.schedule(span.t1, Event::ComputeDone { stage, task });
    }
}

// Small helper: StageProfile carries times, not a DeviceSpec; reconstruct
// a memory-only spec for accounting. Compute rate is irrelevant here since
// stage times are pre-computed.
impl crate::profiler::StageProfile {
    fn clone_device_spec(&self) -> ecofl_simnet::DeviceSpec {
        ecofl_simnet::DeviceSpec::new(
            &format!("stage{}", self.device),
            1.0,
            self.memory_budget_bytes,
            1.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::p_bounds;
    use crate::profiler::PipelineProfile;
    use crate::schedule::DEFAULT_INTERLEAVE;
    use ecofl_models::efficientnet;
    use ecofl_simnet::{nano_h, tx2_n, Device, Link};

    fn profile(mbs: usize) -> PipelineProfile {
        let model = efficientnet(0);
        let l = model.num_layers();
        let devices = vec![Device::new(tx2_n()), Device::new(nano_h())];
        PipelineProfile::new(&model, &[0, l / 2, l], &devices, &Link::mbps_100(), mbs)
    }

    #[test]
    fn one_f_one_b_completes_all_micro_batches() {
        let p = profile(4);
        let k = p_bounds(&p);
        let exec = PipelineExecutor::new(&p, SchedulePolicy::OneFOneBSync { k }).unwrap();
        let r = exec.run(8, 2).expect("no OOM");
        assert_eq!(r.rounds, 2);
        assert!(r.throughput > 0.0);
        assert!(r.makespan > 0.0);
        assert_eq!(r.stage_peak_memory.len(), 2);
    }

    #[test]
    fn wrong_residency_length_is_a_typed_error() {
        let p = profile(4);
        let err = PipelineExecutor::new(&p, SchedulePolicy::OneFOneBSync { k: vec![2] })
            .err()
            .expect("must reject");
        assert_eq!(
            err,
            ExecError::ResidencyLen {
                expected: 2,
                got: 1
            }
        );
        let err = PipelineExecutor::new(&p, SchedulePolicy::OneFOneBSync { k: vec![2, 0] })
            .err()
            .expect("must reject");
        assert_eq!(err, ExecError::ResidencyZero { stage: 1 });
        // Interleaved expects one entry per *virtual* stage.
        let err = PipelineExecutor::new(
            &p,
            SchedulePolicy::Interleaved {
                k: vec![2, 2],
                v: 2,
            },
        )
        .err()
        .expect("must reject");
        assert_eq!(
            err,
            ExecError::ResidencyLen {
                expected: 4,
                got: 2
            }
        );
        assert!(matches!(
            PipelineExecutor::new(&p, SchedulePolicy::Interleaved { k: vec![], v: 0 }),
            Err(ExecError::Schedule { .. })
        ));
    }

    #[test]
    fn traced_run_matches_untraced_and_accounts_idle() {
        let p = profile(4);
        let k = p_bounds(&p);
        let exec = PipelineExecutor::new(&p, SchedulePolicy::OneFOneBSync { k }).unwrap();
        let tracer = Tracer::new();
        let traced = exec.run_traced(8, 2, &tracer).expect("no OOM");
        let plain = exec.run(8, 2).expect("no OOM");
        assert_eq!(traced.makespan, plain.makespan);
        assert_eq!(traced.task_spans, plain.task_spans);

        let view = tracer.view();
        assert_eq!(view.stage_count(), 2);
        assert_eq!(view.pipeline_rounds(), 2);
        // Trace-derived idle equals the report's stage idle totals.
        let report_idle: f64 = traced.stage_idle_time.iter().sum();
        assert!(
            (view.total_idle_time() - report_idle).abs() < 1e-9,
            "trace idle {} vs report idle {report_idle}",
            view.total_idle_time()
        );
        // Comm spans present in both directions.
        assert!(view
            .spans_of(Domain::Pipeline, SpanKind::CommForward)
            .next()
            .is_some());
        assert!(view
            .spans_of(Domain::Pipeline, SpanKind::CommBackward)
            .next()
            .is_some());
        // The report's spans are the tracer's compute spans, and the
        // trace_view bridge sees the same compute structure.
        let traced_compute: Vec<SpanRecord> =
            view.spans().filter(|s| s.is_compute()).copied().collect();
        assert_eq!(traced.task_spans, traced_compute);
        let bridged = traced.trace_view();
        assert_eq!(bridged.stage_count(), view.stage_count());
        assert!((bridged.total_idle_time() - view.total_idle_time()).abs() < 1e-9);
    }

    #[test]
    fn zero_counts_are_a_schedule_error() {
        let p = profile(4);
        let exec = PipelineExecutor::new(&p, SchedulePolicy::BafSync).unwrap();
        let rejected = |m, r| matches!(exec.run(m, r), Err(ExecError::Schedule { .. }));
        assert!(rejected(0, 1) && rejected(1, 0));
    }

    #[test]
    fn runs_past_the_cap_are_a_schedule_error() {
        let p = profile(4);
        let exec = PipelineExecutor::new(&p, SchedulePolicy::BafSync).unwrap();
        let rejected = |m, r| matches!(exec.run(m, r), Err(ExecError::Schedule { .. }));
        let cap = MAX_SIMULATED_MICRO_BATCHES;
        assert!(rejected(cap + 1, 1) && rejected(cap / 2, 3) && rejected(usize::MAX, 2));
    }

    #[test]
    fn throughput_grows_with_micro_batch_count() {
        // More micro-batches per round amortize the SSB.
        let p = profile(4);
        let k = p_bounds(&p);
        let exec = PipelineExecutor::new(&p, SchedulePolicy::OneFOneBSync { k }).unwrap();
        let t4 = exec.run(4, 2).unwrap().throughput;
        let t16 = exec.run(16, 2).unwrap().throughput;
        assert!(t16 > t4, "throughput {t16} should exceed {t4}");
    }

    #[test]
    fn gpipe_holds_more_memory_than_1f1b() {
        let p = profile(4);
        let k = p_bounds(&p);
        let m = 8;
        let ours = PipelineExecutor::new(&p, SchedulePolicy::OneFOneBSync { k })
            .unwrap()
            .run(m, 1)
            .unwrap();
        let gpipe = PipelineExecutor::new(&p, SchedulePolicy::BafSync)
            .unwrap()
            .run(m, 1)
            .unwrap();
        assert!(
            gpipe.stage_peak_memory[0] > ours.stage_peak_memory[0],
            "Gpipe peak {} must exceed 1F1B peak {}",
            gpipe.stage_peak_memory[0],
            ours.stage_peak_memory[0]
        );
    }

    #[test]
    fn equal_results_across_runs_deterministic() {
        let p = profile(8);
        let k = p_bounds(&p);
        let e1 = PipelineExecutor::new(&p, SchedulePolicy::OneFOneBSync { k: k.clone() })
            .unwrap()
            .run(8, 3)
            .unwrap();
        let e2 = PipelineExecutor::new(&p, SchedulePolicy::OneFOneBSync { k })
            .unwrap()
            .run(8, 3)
            .unwrap();
        assert_eq!(e1.makespan, e2.makespan);
        assert_eq!(e1.stage_peak_memory, e2.stage_peak_memory);
    }

    #[test]
    fn utilization_bounded() {
        let p = profile(8);
        let k = p_bounds(&p);
        let r = PipelineExecutor::new(&p, SchedulePolicy::OneFOneBSync { k })
            .unwrap()
            .run(8, 2)
            .unwrap();
        for (&b, &g) in r
            .stage_busy_utilization
            .iter()
            .zip(&r.stage_gpu_utilization)
        {
            assert!((0.0..=1.0).contains(&b));
            assert!(g <= b, "useful fraction cannot exceed busy fraction");
        }
    }

    #[test]
    fn async_1f1b_streams_without_flush() {
        // Flush-free streaming must beat the synchronous schedule for the
        // same total work (SSB paid once, not per round).
        let p = profile(4);
        let k = p_bounds(&p);
        let sync = PipelineExecutor::new(&p, SchedulePolicy::OneFOneBSync { k: k.clone() })
            .unwrap()
            .run(8, 4)
            .unwrap();
        let asynchronous = PipelineExecutor::new(&p, SchedulePolicy::OneFOneBAsync { k })
            .unwrap()
            .run(8, 4)
            .unwrap();
        assert!(
            asynchronous.throughput > sync.throughput,
            "async {} must beat sync {}",
            asynchronous.throughput,
            sync.throughput
        );
        // Same total work either way.
        let a = asynchronous.throughput * asynchronous.makespan;
        let b = sync.throughput * sync.makespan;
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    fn async_1f1b_stashes_weight_versions() {
        // PipeDream-style weight stashing multiplies the static footprint
        // by K_s — the §2 memory objection.
        let p = profile(4);
        let k = p_bounds(&p);
        let sync = PipelineExecutor::new(&p, SchedulePolicy::OneFOneBSync { k: k.clone() })
            .unwrap()
            .run(4, 1)
            .unwrap();
        let asynchronous =
            PipelineExecutor::new(&p, SchedulePolicy::OneFOneBAsync { k: k.clone() })
                .unwrap()
                .run(4, 1)
                .unwrap();
        assert!(
            asynchronous.stage_peak_memory[0] > sync.stage_peak_memory[0],
            "stage 0 must hold {} weight versions",
            k[0]
        );
    }

    #[test]
    fn async_weight_stashing_can_oom_where_sync_fits() {
        // Shrink the stage-0 budget until K weight copies overflow but a
        // single copy plus activations still fits.
        let p = profile(4);
        let k = p_bounds(&p);
        let mut stages = p.stages().to_vec();
        let s0 = &mut stages[0];
        // One byte under the async peak (K weight copies + K resident
        // activations) but comfortably above the sync peak (one copy).
        s0.memory_budget_bytes = (s0.static_bytes() + s0.activation_bytes_per_mb) * k[0] as u64 - 1;
        let tight = PipelineProfile::from_stages(stages, p.micro_batch());
        assert!(
            PipelineExecutor::new(&tight, SchedulePolicy::OneFOneBSync { k: k.clone() })
                .unwrap()
                .run(4, 1)
                .is_ok()
        );
        assert!(matches!(
            PipelineExecutor::new(&tight, SchedulePolicy::OneFOneBAsync { k })
                .unwrap()
                .run(4, 1),
            Err(ExecError::Oom { stage: 0, .. })
        ));
    }

    #[test]
    fn small_k_creates_ddb() {
        // Starving the first stage with K=1 forces dependency bubbles
        // downstream relative to the proper P bounds.
        let p = profile(4);
        let proper = p_bounds(&p);
        let starved = vec![1; p.num_stages()];
        let good = PipelineExecutor::new(&p, SchedulePolicy::OneFOneBSync { k: proper })
            .unwrap()
            .run(12, 1)
            .unwrap();
        let bad = PipelineExecutor::new(&p, SchedulePolicy::OneFOneBSync { k: starved })
            .unwrap()
            .run(12, 1)
            .unwrap();
        assert!(
            bad.makespan > good.makespan,
            "starved pipeline {} should be slower than {}",
            bad.makespan,
            good.makespan
        );
    }

    #[test]
    fn zero_bubble_completes_and_splits_backward() {
        use crate::orchestrator::k_bounds;
        use crate::partition::partition_dp;
        use ecofl_models::efficientnet_at;
        use ecofl_simnet::{tx2_q, DeviceSpec};

        // The half-split B0 at P bounds, then two Eq. 1 partitions at K
        // bounds: B2 over tx2q,nanoh,nanoh at M = 16 and B0 over tx2n,nanoh
        // at M = 8, both at mbs min(M, 8).
        let dp_case = |b: usize, specs: Vec<DeviceSpec>, m: usize| {
            let model = efficientnet_at(b, 224);
            let devices: Vec<Device> = specs.into_iter().map(Device::new).collect();
            let link = Link::mbps_100();
            let mbs = m.min(8);
            let partition = partition_dp(&model, &devices, &link, mbs).expect("feasible");
            let p = PipelineProfile::new(&model, &partition.boundaries, &devices, &link, mbs);
            let k = k_bounds(&p).expect("residency");
            (p, k, m)
        };
        let half_split = profile(4);
        let half_k = p_bounds(&half_split);
        let cases = [
            (half_split, half_k, 8),
            dp_case(2, vec![tx2_q(), nano_h(), nano_h()], 16),
            dp_case(0, vec![tx2_n(), nano_h()], 8),
        ];
        for (p, k, m) in cases {
            let zb = PipelineExecutor::new(&p, SchedulePolicy::ZeroBubble { k: k.clone() })
                .unwrap()
                .run(m, 2)
                .unwrap();
            // Per round and stage: m forwards + m input halves + m weight halves.
            assert_eq!(zb.task_spans.len(), 2 * 3 * m * p.num_stages());
            let inputs = zb
                .task_spans
                .iter()
                .filter(|s| s.kind == SpanKind::BackwardInput)
                .count();
            let weights = zb
                .task_spans
                .iter()
                .filter(|s| s.kind == SpanKind::BackwardWeight)
                .count();
            assert_eq!(inputs, 2 * m * p.num_stages());
            assert_eq!(weights, 2 * m * p.num_stages());
            // The analytic bubble must undercut Eq. 2.
            let sync = PipelineExecutor::new(&p, SchedulePolicy::OneFOneBSync { k })
                .unwrap()
                .run(m, 2)
                .unwrap();
            assert!(
                zb.ssb_per_round < sync.ssb_per_round,
                "{} stages, M = {m}: zero-bubble {} vs Eq. 2 {}",
                p.num_stages(),
                zb.ssb_per_round,
                sync.ssb_per_round
            );
        }
    }

    #[test]
    fn interleaved_runs_virtual_stages_per_device() {
        use crate::orchestrator::k_bounds;
        let p = profile(4);
        let vp = crate::schedule::interleave_profile(&p, DEFAULT_INTERLEAVE);
        let k = k_bounds(&vp).expect("virtual stages fit");
        let exec = PipelineExecutor::new(
            &p,
            SchedulePolicy::Interleaved {
                k,
                v: DEFAULT_INTERLEAVE,
            },
        )
        .unwrap();
        let m = 8;
        let r = exec.run(m, 1).unwrap();
        // Report is per *virtual* stage.
        assert_eq!(r.stage_peak_memory.len(), 2 * DEFAULT_INTERLEAVE);
        assert_eq!(r.task_spans.len(), 2 * m * 2 * DEFAULT_INTERLEAVE);
        // One compute at a time per device: spans of virtual stages sharing
        // a device never overlap.
        for (i, a) in r.task_spans.iter().enumerate() {
            for b in &r.task_spans[i + 1..] {
                if vp.stages()[a.entity].device == vp.stages()[b.entity].device {
                    assert!(
                        a.t1 <= b.t0 + 1e-12 || b.t1 <= a.t0 + 1e-12,
                        "device-sharing spans overlap: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }
}

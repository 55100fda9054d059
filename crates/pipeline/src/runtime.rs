//! Multi-threaded 1F1B-Sync pipeline runtime with a supervision tree.
//!
//! Where [`crate::executor`] *simulates* pipeline timing on modelled
//! hardware, this module actually *trains*: each stage is an OS thread
//! owning a contiguous segment of a real `ecofl-tensor` network, and
//! micro-batch activations/gradients flow through MPMC channels,
//! serialized to wire [`Bytes`] exactly as they would cross a network.
//!
//! # Schedule
//!
//! The default schedule is the paper's 1F1B-Sync: stage `s` warms up with
//! `K_s` forwards, then strictly alternates backward/forward, and the
//! sync-round ends with a pipeline flush that applies the accumulated
//! gradients. Each stage thread takes that order — for any
//! [`RuntimeOptions::schedule`] — from `ScheduleKind::stage_stream`, the
//! same generator the legality suite checks.
//! Because gradient accumulation is order-preserving per layer, the
//! resulting parameter updates are **bit-identical** to single-device
//! gradient-accumulation training over the same micro-batches — the
//! schedule changes execution order, never semantics. The tests assert
//! this exactly. Inter-stage channels are bounded by the *receiving*
//! stage's residency `K_s`, so the in-flight micro-batch memory really is
//! limited by the §4.3 (Eq. 3) analysis rather than an arbitrary buffer.
//!
//! # Protocol
//!
//! The portal (the thread owning [`PipelineTrainer`]) talks to each stage
//! over a control and a reply channel; a sync-round is **one** round trip:
//!
//! | portal → every stage | stage → portal | when |
//! |---|---|---|
//! | `Round { m, k, round, sched, lr, scale }` | `RoundDone { losses, params }` | every [`train_round`] |
//! | `Collect` | `Params` | launch checkpoint, [`params`] |
//! | `SetParams` | `SetDone { expected, got }` | [`set_params`], [`recover`] |
//! | `Shutdown` | — | teardown |
//!
//! The flush is stage-local: a stage's update depends only on its own
//! `m` backwards, so once it has walked its stream it applies
//! `p -= lr · g · scale` (`scale = 1/m`) to its own parameters, zeroes
//! the gradients and answers with the post-flush parameters, from which
//! the portal assembles the round's checkpoint — no second trip to apply,
//! no third to collect. Stages therefore flush at different moments, and
//! a stage that dies late leaves its neighbours a round ahead of it; that
//! state is never observable: any death poisons the trainer, every
//! reading call then returns the stored error, the checkpoint is replaced
//! only after *all* `S` replies arrived, and [`recover`] rebuilds *every*
//! stage from the factory before restoring it.
//!
//! # Supervision tree and the never-panic contract
//!
//! The portal supervises the stage threads. Every stage runs inside a
//! panic-catching wrapper: when a stage dies — a real panic in layer
//! code, an injected [`FaultPlan`] kill, or a channel-disconnect cascade
//! from a dead neighbour — it posts a death note (stage index + what it
//! was doing) to a shared board *before* its channels close, so the first
//! note on the board is always the root cause. Portal-side waits all go
//! through the disconnect-aware bounded [`recv_timeout_timed`] of
//! `ecofl-compat`, so a dead or wedged stage surfaces as
//! [`ExecError::StageDied`] in bounded time instead of a hang.
//!
//! The public runtime API **never panics on a runtime disturbance**:
//! [`train_round`], [`params`], [`set_params`] and [`recover`] all return
//! `Result<_, ExecError>`. (Constructor shape checks — empty segments,
//! `K` arity — remain documented panics: they are programmer errors, not
//! disturbances.) After an error the trainer is *poisoned*: further calls
//! return the stored error until [`recover`] rebuilds it.
//!
//! # Checkpoint / recovery (§4.4 on the real runtime)
//!
//! The portal holds the full parameter vector as of launch and of every
//! sync-round flush, as a typed [`CheckpointRecord`] carrying a monotone
//! sequence number. With [`RuntimeOptions::store_path`] set, every
//! snapshot is also appended to the run store's checkpoint segment and
//! sealed (visible to fresh opens, outliving a kill of the process but
//! not an OS crash: nothing is fsynced), and [`recover`] restores from
//! the store's newest checkpoint instead of the in-memory copy —
//! bit-identical by construction (the store holds the record's own
//! encoding), which
//! `tests/fault_injection.rs` asserts. [`stored_checkpoints`] and
//! [`load_checkpoint_at_or_before`] read the same segment offline for
//! point-in-time recovery and cross-run diffing. Recovery tears the
//! broken pipeline down (unblocking and joining every surviving thread),
//! relaunches all stages from the segment factory, restores the
//! checkpoint, and rewinds the round counter — so replaying the
//! interrupted round yields parameters **bit-identical** to an
//! uninterrupted run on the same data (asserted across random stage
//! counts, micro-batch counts and kill points). It needs a way to rebuild
//! dead stages, so it is available from
//! [`PipelineTrainer::launch_supervised`] (which takes a segment
//! factory); plain [`PipelineTrainer::launch`] reports
//! [`ExecError::RecoveryUnsupported`].
//!
//! # Observability
//!
//! With [`RuntimeOptions::tracer`] set, the portal records
//! `EventKind::{StageDied, CheckpointTaken, RoundReplayed}` under
//! `Domain::Pipeline`. The runtime executes in real time, so these
//! events carry the sync-round index as their (virtual) timestamp.
//!
//! [`recv_timeout_timed`]: ecofl_compat::sync::channel::Receiver::recv_timeout_timed
//! [`train_round`]: PipelineTrainer::train_round
//! [`params`]: PipelineTrainer::params
//! [`set_params`]: PipelineTrainer::set_params
//! [`recover`]: PipelineTrainer::recover

use crate::executor::ExecError;
use crate::schedule::{ScheduleKind, StageTask};
use ecofl_compat::bytes::{Bytes, BytesMut};
use ecofl_compat::sync::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use ecofl_compat::sync::Mutex;
use ecofl_obs::store::CheckpointMeta;
use ecofl_obs::{Counter, Domain, EventKind, Histogram, MetricsHub, RunStore, Tracer};
use ecofl_tensor::{backward_through, Layer, SoftmaxCrossEntropy, Tensor};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serializes a tensor (shape + payload) into wire bytes.
#[must_use]
pub(crate) fn encode_tensor(t: &Tensor) -> Bytes {
    let mut buf = BytesMut::with_capacity(8 + t.shape().len() * 8 + t.len() * 4);
    buf.put_u64_le(t.shape().len() as u64);
    for &d in t.shape() {
        buf.put_u64_le(d as u64);
    }
    for &x in t.data() {
        buf.put_f32_le(x);
    }
    buf.freeze()
}

/// Deserializes a tensor produced by [`encode_tensor`].
///
/// # Panics
/// Panics on a malformed buffer.
#[must_use]
pub(crate) fn decode_tensor(mut bytes: Bytes) -> Tensor {
    let rank = bytes.get_u64_le() as usize;
    let shape: Vec<usize> = (0..rank).map(|_| bytes.get_u64_le() as usize).collect();
    let n: usize = shape.iter().product();
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(bytes.get_f32_le());
    }
    Tensor::from_vec(data, &shape)
}

/// Bytes moved across each stage boundary, shared with the portal.
#[derive(Debug, Default)]
pub(crate) struct CommStats {
    /// Forward (activation) bytes per boundary.
    pub fwd_bytes: Vec<u64>,
    /// Backward (gradient) bytes per boundary.
    pub bwd_bytes: Vec<u64>,
}

/// One deterministic stage kill: stage `stage` dies immediately before
/// the forward pass of micro-batch `micro` in sync-round `round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPoint {
    /// Stage to kill.
    pub stage: usize,
    /// Sync-round (0-based, counted over the trainer's lifetime) in
    /// which the kill fires.
    pub round: u64,
    /// Micro-batch index (0-based within the round) whose forward the
    /// stage dies before. A `micro >= m` never fires.
    pub micro: usize,
}

/// Deterministic fault-injection plan for the §4.4 recovery loop: which
/// stages die, when. Injected deaths are clean thread exits (no panic
/// output), reported exactly like real crashes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled kills.
    pub kills: Vec<KillPoint>,
}

impl FaultPlan {
    /// No injected faults.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// A single kill at the given point.
    #[must_use]
    pub fn kill_at(stage: usize, round: u64, micro: usize) -> Self {
        Self {
            kills: vec![KillPoint {
                stage,
                round,
                micro,
            }],
        }
    }

    /// Kill points scheduled for one stage, as `(round, micro)` pairs.
    fn for_stage(&self, stage: usize) -> Vec<(u64, usize)> {
        self.kills
            .iter()
            .filter(|k| k.stage == stage)
            .map(|k| (k.round, k.micro))
            .collect()
    }
}

/// Supervision knobs of the runtime.
#[derive(Debug, Clone)]
pub struct RuntimeOptions {
    /// Upper bound on any single portal-side wait for a stage reply.
    /// Dead stages are detected much earlier via channel disconnect;
    /// this bound catches genuinely wedged (live but silent) stages.
    pub recv_timeout: Duration,
    /// Deterministic fault injection (empty by default).
    pub fault_plan: FaultPlan,
    /// Failure/recovery event sink (`StageDied`, `CheckpointTaken`,
    /// `RoundReplayed` under `Domain::Pipeline`, timestamped by round).
    pub tracer: Option<Tracer>,
    /// Run-store directory for stored checkpoints. When set, every
    /// checkpoint is also appended to the store's checkpoint segment
    /// under a monotone sequence number, and [`PipelineTrainer::recover`]
    /// restores from the store instead of the in-memory snapshot. The
    /// store is opened (or created) at launch; opening an existing
    /// store continues its sequence numbering, enabling cross-run
    /// point-in-time recovery and diffing.
    pub store_path: Option<PathBuf>,
    /// Pipeline schedule whose `ScheduleKind::stage_stream` the stage
    /// threads walk each round. The runtime is round-synchronous with
    /// one segment per device, so the stream's `BwdWeight` and `Sync`
    /// tasks are no-ops here; which gradients accumulate is unchanged,
    /// so round results are bit-identical across schedules.
    pub schedule: ScheduleKind,
    /// Streaming metrics hub. When set, the runtime records *real
    /// wall-clock* observations into `rt_*` metrics: per-stage
    /// forward/backward compute nanoseconds, portal reply-wait
    /// nanoseconds (via the `recv_timeout_timed` hook), checkpoint /
    /// restore latency, and counters for stage deaths, checkpoints,
    /// restores and reply-wait timeouts. The hub only *observes* — the
    /// parameter stream and the trace are bit-identical with or
    /// without it (asserted by `tests/metrics_perturbation.rs`).
    pub metrics: Option<MetricsHub>,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        Self {
            recv_timeout: Duration::from_secs(30),
            fault_plan: FaultPlan::none(),
            tracer: None,
            store_path: None,
            schedule: ScheduleKind::OneFOneBSync,
            metrics: None,
        }
    }
}

/// The `rt_*` metric handles, resolved once at launch so the hot paths
/// never touch the hub's registry maps; every stage thread holds a clone
/// for its two compute series.
#[derive(Clone)]
struct RtMetrics {
    fwd_compute_ns: Histogram,
    bwd_compute_ns: Histogram,
    recv_wait_ns: Histogram,
    recv_timeouts: Counter,
    stage_deaths: Counter,
    checkpoints: Counter,
    checkpoint_ns: Histogram,
    restores: Counter,
    restore_ns: Histogram,
    round_ns: Histogram,
}

impl RtMetrics {
    fn new(hub: &MetricsHub) -> Self {
        Self {
            fwd_compute_ns: hub.histogram("rt_fwd_compute_ns"),
            bwd_compute_ns: hub.histogram("rt_bwd_compute_ns"),
            recv_wait_ns: hub.histogram("rt_recv_wait_ns"),
            recv_timeouts: hub.counter("rt_recv_timeouts"),
            stage_deaths: hub.counter("rt_stage_deaths"),
            checkpoints: hub.counter("rt_checkpoints"),
            checkpoint_ns: hub.histogram("rt_checkpoint_ns"),
            restores: hub.counter("rt_restores"),
            restore_ns: hub.histogram("rt_restore_ns"),
            round_ns: hub.histogram("rt_round_ns"),
        }
    }
}

/// Rebuilds the stage segments after a crash; must return the same
/// layer architecture every call (parameters are overwritten from the
/// checkpoint, so their values are irrelevant).
pub type SegmentFactory = Box<dyn Fn() -> Vec<Vec<Box<dyn Layer>>>>;

enum Ctrl {
    /// Run one sync-round of `m` micro-batches with warmup residency `k`
    /// under schedule `sched`, then flush: SGD with `lr` on the
    /// accumulated gradients scaled by `scale`, and zero them. `round`
    /// is the trainer-lifetime round index (drives fault injection).
    Round {
        m: usize,
        k: usize,
        round: u64,
        sched: ScheduleKind,
        lr: f32,
        scale: f32,
    },
    /// Send this stage's flat parameters to the portal.
    Collect,
    /// Overwrite this stage's parameters (acked with `Reply::SetDone`).
    SetParams(Vec<f32>),
    Shutdown,
}

enum Reply {
    Params(Vec<f32>),
    /// The round ran and was flushed: per-micro-batch losses (last
    /// stage only) and the stage's post-flush parameters.
    RoundDone {
        losses: Vec<f32>,
        params: Vec<f32>,
    },
    /// Ack for `SetParams`: the stage's own parameter count and the
    /// length it was handed. On mismatch nothing was applied.
    SetDone {
        expected: usize,
        got: usize,
    },
}

impl Reply {
    /// `(expected, got)` of a `SetDone` ack.
    fn set_done(self) -> Option<(usize, usize)> {
        match self {
            Reply::SetDone { expected, got } => Some((expected, got)),
            _ => None,
        }
    }
}

/// Why a stage thread exited abnormally.
enum StageFail {
    /// A `FaultPlan` kill fired.
    Killed { round: u64, micro: usize },
    /// A peer (portal or neighbour stage) disconnected mid-protocol.
    Disconnect { during: &'static str },
}

impl StageFail {
    /// Maps a channel error to the disconnect it means, seen `during`.
    fn gone<E>(during: &'static str) -> impl FnOnce(E) -> StageFail {
        move |_| StageFail::Disconnect { during }
    }

    fn describe(&self) -> String {
        match self {
            StageFail::Killed { round, micro } => {
                format!("injected kill before forward of micro-batch {micro} in round {round}")
            }
            StageFail::Disconnect { during } => format!("{during} (peer disconnected)"),
        }
    }
}

/// One entry on the shared death board. The first entry is the root
/// cause: a dying stage posts its note *before* dropping its channels,
/// so cascade victims always file later.
struct DeathNote {
    stage: usize,
    during: String,
}

type DeathBoard = Arc<Mutex<Vec<DeathNote>>>;

struct StageThread {
    ctrl_tx: Sender<Ctrl>,
    reply_rx: Receiver<Reply>,
    handle: Option<JoinHandle<()>>,
}

/// A running multi-threaded pipeline trainer (the "smart home"
/// prototype), supervised and crash-recoverable — see the
/// [module docs](self) for the supervision and checkpoint contract.
pub struct PipelineTrainer {
    stages: Vec<StageThread>,
    input_tx: Sender<Bytes>,
    target_tx: Sender<Vec<usize>>,
    k: Vec<usize>,
    comm: Arc<Mutex<CommStats>>,
    deaths: DeathBoard,
    opts: RuntimeOptions,
    factory: Option<SegmentFactory>,
    /// Index of the next sync-round.
    round: u64,
    checkpoint: CheckpointRecord,
    /// Sequence number the next checkpoint will carry. Resumes from the
    /// store's last stored number + 1 when a store is configured.
    next_ckpt_seq: u64,
    store: Option<RunStore>,
    failure: Option<ExecError>,
    replaying: bool,
    metrics: Option<RtMetrics>,
}

/// Wire-format version of [`CheckpointRecord::encode`].
pub(crate) const CHECKPOINT_VERSION: u32 = 1;

/// A versioned §4.4 parameter snapshot: the full flat parameter vector
/// with its per-stage split, tagged by a store-wide monotone sequence
/// number and the sync-round it captured. Taken at launch and after
/// every sync-round flush; with [`RuntimeOptions::store_path`] set,
/// each one is appended to the run store and sealed, where
/// [`stored_checkpoints`] / [`load_checkpoint_at_or_before`] give
/// point-in-time recovery and cross-run diffing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointRecord {
    /// Monotone sequence number, unique within a store across runs.
    pub seq: u64,
    /// Sync-round the snapshot captured (recovery rewinds here).
    pub round: u64,
    /// Flat parameter count per stage, in stage order.
    pub stage_lens: Vec<usize>,
    /// The full flat parameter vector (stage order).
    pub params: Vec<f32>,
}

impl CheckpointRecord {
    /// Serializes the record, little-endian throughout: `u32` version,
    /// `u64` seq, round and stage count, one `u64` length per stage,
    /// then the parameters as `encode_tensor` writes a rank-1 tensor
    /// (`u64` rank 1, `u64` count, the `f32`s).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let words = [self.seq, self.round, self.stage_lens.len() as u64]
            .into_iter()
            .chain(self.stage_lens.iter().map(|&len| len as u64))
            .chain([1, self.params.len() as u64]);
        let mut buf = Vec::with_capacity(44 + self.stage_lens.len() * 8 + self.params.len() * 4);
        buf.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        words.for_each(|w| buf.extend_from_slice(&w.to_le_bytes()));
        for p in &self.params {
            buf.extend_from_slice(&p.to_le_bytes());
        }
        buf
    }

    /// Deserializes an [`encode`](Self::encode) payload. Every count the
    /// payload states is checked against the payload's own length, in
    /// checked arithmetic, before anything is allocated for it.
    ///
    /// # Errors
    /// [`ExecError::CheckpointStore`] on a truncated buffer, unknown
    /// version, or a parameter tensor inconsistent with the header.
    pub fn decode(payload: &[u8]) -> Result<CheckpointRecord, ExecError> {
        let bad = |detail: String| ExecError::CheckpointStore { detail };
        let word = |bytes: &[u8]| u64::from_le_bytes(bytes[..8].try_into().expect("eight bytes"));
        if payload.len() < 28 {
            return Err(bad(format!(
                "checkpoint payload truncated ({} bytes)",
                payload.len()
            )));
        }
        let version = u32::from_le_bytes(payload[..4].try_into().expect("four bytes"));
        if version != CHECKPOINT_VERSION {
            return Err(bad(format!("unknown checkpoint version {version}")));
        }
        let (seq, round, nstages) = (
            word(&payload[4..]),
            word(&payload[12..]),
            word(&payload[20..]),
        );
        let body = &payload[28..];
        let lens_bytes = usize::try_from(nstages)
            .ok()
            .and_then(|n| n.checked_mul(8))
            .filter(|&bytes| bytes <= body.len())
            .ok_or_else(|| bad(format!("checkpoint header claims {nstages} stages")))?;
        let (lens, tensor) = body.split_at(lens_bytes);
        let total = lens
            .chunks_exact(8)
            .try_fold(0u64, |sum, len| sum.checked_add(word(len)));
        // A rank-1 [total] tensor is 8 (rank) + 8 (dim) + 4·total bytes.
        let tensor_bytes = total.and_then(|t| t.checked_mul(4)?.checked_add(16));
        let consistent = tensor_bytes == Some(tensor.len() as u64)
            && word(tensor) == 1
            && Some(word(&tensor[8..])) == total;
        if !consistent {
            return Err(bad(format!(
                "checkpoint params region ({} bytes) is not the rank-1 tensor its {nstages} \
                 stage lengths add up to",
                tensor.len()
            )));
        }
        Ok(CheckpointRecord {
            seq,
            round,
            // Each length is at most `total`, which fits the payload.
            stage_lens: lens.chunks_exact(8).map(|len| word(len) as usize).collect(),
            params: tensor[16..]
                .chunks_exact(4)
                .map(|p| f32::from_le_bytes(p.try_into().expect("four bytes")))
                .collect(),
        })
    }

    /// The parameter vector split back into per-stage slices.
    ///
    /// # Errors
    /// [`ExecError::CheckpointStore`] if `stage_lens` does not sum to
    /// `params.len()` (a decoded record is always consistent; a
    /// hand-built one need not be).
    pub fn stage_params(&self) -> Result<Vec<Vec<f32>>, ExecError> {
        let total = self
            .stage_lens
            .iter()
            .try_fold(0usize, |sum, &len| sum.checked_add(len));
        if total != Some(self.params.len()) {
            return Err(ExecError::CheckpointStore {
                detail: format!(
                    "inconsistent checkpoint record: {} stage lengths for {} parameters",
                    self.stage_lens.len(),
                    self.params.len()
                ),
            });
        }
        let mut out = Vec::with_capacity(self.stage_lens.len());
        let mut offset = 0;
        for &len in &self.stage_lens {
            out.push(self.params[offset..offset + len].to_vec());
            offset += len;
        }
        Ok(out)
    }
}

fn store_err(e: std::io::Error) -> ExecError {
    ExecError::CheckpointStore {
        detail: e.to_string(),
    }
}

/// Lists `(seq, round)` of every checkpoint in the store at `dir`.
///
/// # Errors
/// [`ExecError::CheckpointStore`] if the store cannot be opened.
pub fn stored_checkpoints(dir: &Path) -> Result<Vec<CheckpointMeta>, ExecError> {
    Ok(RunStore::open(dir).map_err(store_err)?.checkpoint_metas())
}

/// Loads the newest checkpoint with sequence number ≤ `seq` from the
/// store at `dir` — the point-in-time half of §4.4 recovery, also
/// usable across runs (e.g. for diffing two checkpoints).
///
/// # Errors
/// [`ExecError::CheckpointStore`] on open/read/decode failure.
pub fn load_checkpoint_at_or_before(
    dir: &Path,
    seq: u64,
) -> Result<Option<CheckpointRecord>, ExecError> {
    let store = RunStore::open(dir).map_err(store_err)?;
    match store
        .latest_checkpoint_at_or_before(seq)
        .map_err(store_err)?
    {
        Some((_, payload)) => Ok(Some(CheckpointRecord::decode(&payload)?)),
        None => Ok(None),
    }
}

/// Loads the newest checkpoint from the store at `dir`.
///
/// # Errors
/// [`ExecError::CheckpointStore`] on open/read/decode failure.
pub fn load_latest_checkpoint(dir: &Path) -> Result<Option<CheckpointRecord>, ExecError> {
    load_checkpoint_at_or_before(dir, u64::MAX)
}

struct StageCtx {
    layers: Vec<Box<dyn Layer>>,
    is_last: bool,
    upstream_grad_tx: Option<Sender<Bytes>>,
    input_rx: Receiver<Bytes>,
    downstream_act_tx: Option<Sender<Bytes>>,
    grad_rx: Option<Receiver<Bytes>>,
    target_rx: Option<Receiver<Vec<usize>>>,
    ctrl_rx: Receiver<Ctrl>,
    reply_tx: Sender<Reply>,
    comm: Arc<Mutex<CommStats>>,
    stage_idx: usize,
    /// `(round, micro)` kill points for this stage.
    kills: Vec<(u64, usize)>,
    deaths: DeathBoard,
    metrics: Option<RtMetrics>,
}

impl StageCtx {
    fn kill_due(&self, round: u64, micro: usize) -> bool {
        self.kills.iter().any(|&(r, n)| r == round && n == micro)
    }
}

fn do_fwd(ctx: &mut StageCtx, pending_logits: &mut VecDeque<Tensor>) -> Result<(), StageFail> {
    let bytes = ctx
        .input_rx
        .recv()
        .map_err(StageFail::gone("activation receive"))?;
    let x = decode_tensor(bytes);
    // Compute-only window: the blocking receive above is channel-wait,
    // not compute, and is excluded from the histogram.
    let t0 = ctx.metrics.as_ref().map(|_| Instant::now());
    let mut out = x;
    for layer in &mut ctx.layers {
        out = layer.forward(out);
    }
    if let (Some(m), Some(t0)) = (&ctx.metrics, t0) {
        m.fwd_compute_ns.record(t0.elapsed().as_nanos() as f64);
    }
    if ctx.is_last {
        pending_logits.push_back(out);
    } else {
        let encoded = encode_tensor(&out);
        ctx.comm.lock().fwd_bytes[ctx.stage_idx] += encoded.len() as u64;
        ctx.downstream_act_tx
            .as_ref()
            .expect("non-last stage has downstream")
            .send(encoded)
            .map_err(StageFail::gone("activation send"))?;
    }
    Ok(())
}

fn do_bwd(
    ctx: &mut StageCtx,
    head: &mut SoftmaxCrossEntropy,
    pending_logits: &mut VecDeque<Tensor>,
    losses: &mut Vec<f32>,
) -> Result<(), StageFail> {
    let grad = if ctx.is_last {
        let logits = pending_logits.pop_front().expect("logit for backward");
        let targets = ctx
            .target_rx
            .as_ref()
            .expect("last stage has targets")
            .recv()
            .map_err(StageFail::gone("target receive"))?;
        let (loss, grad) = head.loss_and_grad(logits, &targets);
        losses.push(loss);
        grad
    } else {
        let bytes = ctx
            .grad_rx
            .as_ref()
            .expect("non-last stage has grad channel")
            .recv()
            .map_err(StageFail::gone("gradient receive"))?;
        decode_tensor(bytes)
    };
    let t0 = ctx.metrics.as_ref().map(|_| Instant::now());
    // Stage 0 has no upstream: nobody consumes its input gradient, so its
    // first layer does not compute one.
    let grad = backward_through(&mut ctx.layers, grad, ctx.upstream_grad_tx.is_some());
    if let (Some(m), Some(t0)) = (&ctx.metrics, t0) {
        m.bwd_compute_ns.record(t0.elapsed().as_nanos() as f64);
    }
    if let Some(tx) = &ctx.upstream_grad_tx {
        let encoded = encode_tensor(&grad);
        ctx.comm.lock().bwd_bytes[ctx.stage_idx - 1] += encoded.len() as u64;
        tx.send(encoded).map_err(StageFail::gone("gradient send"))?;
    }
    Ok(())
}

/// What a stage thread does for one task of the nominal stream.
///
/// The runtime is round-synchronous with one physical segment per
/// device: `Bwd` and `BwdInput` both run the whole backward (the
/// weight-gradient half has no separate kernel here), and the flush is
/// what a stage does once its stream is walked, so `BwdWeight` and `Sync`
/// map to nothing.
/// Flush-freedom, virtual stages and the backward split are
/// executor-level refinements that do not change which gradients are
/// accumulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    /// Receive the next activation and run forward `n` — the
    /// fault-injection point [`KillPoint`] names.
    Fwd(usize),
    /// Receive the next gradient (or pop a pending logit) and run a
    /// backward.
    Bwd,
}

impl Verb {
    fn of(task: StageTask) -> Option<Verb> {
        match task {
            StageTask::Fwd(n) => Some(Verb::Fwd(n)),
            StageTask::Bwd(_) | StageTask::BwdInput(_) => Some(Verb::Bwd),
            StageTask::BwdWeight(_) | StageTask::Sync => None,
        }
    }
}

/// The stage protocol loop. `Ok(())` is a clean shutdown (explicit
/// `Ctrl::Shutdown` or the portal dropping the control channel);
/// `Err(_)` is a death the wrapper reports to the board.
fn stage_loop(ctx: &mut StageCtx) -> Result<(), StageFail> {
    let mut head = SoftmaxCrossEntropy::new();
    // Logits awaiting their backward at the last stage (FIFO).
    let mut pending_logits: VecDeque<Tensor> = VecDeque::new();
    // Own flat parameter count, for `SetParams` length validation.
    let own_params: usize = ctx.layers.iter().map(|layer| layer.param_len()).sum();
    // The flush's gradient scratch, kept across rounds.
    let mut grads: Vec<f32> = Vec::with_capacity(own_params);

    loop {
        match ctx.ctrl_rx.recv() {
            Ok(Ctrl::Round {
                m,
                k,
                round,
                sched,
                lr,
                scale,
            }) => {
                let mut losses = Vec::new();
                // Walk the schedule's nominal stream (for 1F1B: warmup
                // with K forwards, then alternate BP/FP, drain remaining
                // backwards). Ordering within the round is ultimately
                // enforced by channel data availability; the stream fixes
                // the verb sequence and the fault-injection points, which
                // fire before each forward.
                for verb in sched.stage_stream(k, m).into_iter().filter_map(Verb::of) {
                    match verb {
                        Verb::Fwd(micro) => {
                            if ctx.kill_due(round, micro) {
                                return Err(StageFail::Killed { round, micro });
                            }
                            do_fwd(ctx, &mut pending_logits)?;
                        }
                        Verb::Bwd => {
                            do_bwd(ctx, &mut head, &mut pending_logits, &mut losses)?;
                        }
                    }
                }
                // Pipeline flush, stage-local: this stage's `m` backwards
                // are all its update depends on.
                let mut params = Vec::with_capacity(own_params);
                grads.clear();
                for layer in &ctx.layers {
                    layer.write_params(&mut params);
                    layer.write_grads(&mut grads);
                }
                for (p, g) in params.iter_mut().zip(&grads) {
                    *p -= lr * g * scale;
                }
                let mut offset = 0;
                for layer in &mut ctx.layers {
                    offset += layer.read_params(&params[offset..]);
                    layer.zero_grads();
                }
                ctx.reply_tx
                    .send(Reply::RoundDone { losses, params })
                    .map_err(StageFail::gone("round-done reply"))?;
            }
            Ok(Ctrl::Collect) => {
                let mut params = Vec::with_capacity(own_params);
                for layer in &ctx.layers {
                    layer.write_params(&mut params);
                }
                ctx.reply_tx
                    .send(Reply::Params(params))
                    .map_err(StageFail::gone("params reply"))?;
            }
            Ok(Ctrl::SetParams(params)) => {
                let got = params.len();
                if got == own_params {
                    let mut offset = 0;
                    for layer in &mut ctx.layers {
                        offset += layer.read_params(&params[offset..]);
                    }
                    assert_eq!(offset, got, "layer param accounting diverged");
                }
                // On mismatch nothing was applied — no stale-tail
                // corruption; the portal turns the ack into a typed error.
                ctx.reply_tx
                    .send(Reply::SetDone {
                        expected: own_params,
                        got,
                    })
                    .map_err(StageFail::gone("set-params ack"))?;
            }
            Ok(Ctrl::Shutdown) | Err(_) => return Ok(()),
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string panic payload>".to_string())
    }
}

/// Thread body: runs the protocol loop under `catch_unwind` and posts a
/// death note before the context (and with it every channel endpoint)
/// drops, so neighbours can only observe the disconnect *after* the
/// root cause is on the board.
fn stage_thread(mut ctx: StageCtx) {
    let outcome = catch_unwind(AssertUnwindSafe(|| stage_loop(&mut ctx)));
    let during = match outcome {
        Ok(Ok(())) => None,
        Ok(Err(fail)) => Some(fail.describe()),
        Err(payload) => Some(format!("panic: {}", panic_message(payload.as_ref()))),
    };
    if let Some(during) = during {
        ctx.deaths.lock().push(DeathNote {
            stage: ctx.stage_idx,
            during,
        });
    }
}

/// Everything `spawn_stages` wires up.
struct Wiring {
    stages: Vec<StageThread>,
    input_tx: Sender<Bytes>,
    target_tx: Sender<Vec<usize>>,
}

/// Builds the channel topology and spawns one thread per stage.
///
/// Data channels between stages are bounded by the *receiving* stage's
/// residency: the activation channel into stage `s+1` holds at most
/// `k[s+1]` micro-batches and the gradient channel back into stage `s`
/// at most `k[s]`, so in-flight memory is governed by the §4.3 `K_s`
/// bound. The portal-side input/target channels stay unbounded — the
/// portal owns the round's batches either way, and a bounded feed would
/// let a dead stage 0 wedge the portal inside `send`.
fn spawn_stages(
    segments: Vec<Vec<Box<dyn Layer>>>,
    k: &[usize],
    comm: &Arc<Mutex<CommStats>>,
    deaths: &DeathBoard,
    fault_plan: &FaultPlan,
    metrics: Option<&RtMetrics>,
) -> Wiring {
    let s_count = segments.len();
    let (input_tx, first_rx) = unbounded::<Bytes>();
    let mut act_rx = Some(first_rx);
    let mut grad_txs: Vec<Option<Sender<Bytes>>> = vec![None; s_count];
    let mut grad_rxs: Vec<Option<Receiver<Bytes>>> = vec![None; s_count];
    for s in 0..s_count.saturating_sub(1) {
        let (tx, rx) = bounded::<Bytes>(k[s]);
        grad_txs[s + 1] = Some(tx); // stage s+1 sends grads up to s
        grad_rxs[s] = Some(rx);
    }
    let (target_tx, target_rx) = unbounded::<Vec<usize>>();

    let mut stages = Vec::with_capacity(s_count);
    for (s, layers) in segments.into_iter().enumerate() {
        assert!(!layers.is_empty(), "PipelineTrainer: stage {s} empty");
        let (ctrl_tx, ctrl_rx) = unbounded::<Ctrl>();
        let (reply_tx, reply_rx) = unbounded::<Reply>();
        let is_last = s == s_count - 1;
        let (downstream_act_tx, next_rx) = if is_last {
            (None, None)
        } else {
            let (tx, rx) = bounded::<Bytes>(k[s + 1]);
            (Some(tx), Some(rx))
        };
        let ctx = StageCtx {
            layers,
            is_last,
            upstream_grad_tx: grad_txs[s].take(),
            input_rx: act_rx.take().expect("input channel"),
            downstream_act_tx,
            grad_rx: grad_rxs[s].take(),
            target_rx: is_last.then(|| target_rx.clone()),
            ctrl_rx,
            reply_tx,
            comm: Arc::clone(comm),
            stage_idx: s,
            kills: fault_plan.for_stage(s),
            deaths: Arc::clone(deaths),
            metrics: metrics.cloned(),
        };
        act_rx = next_rx;
        let handle = std::thread::Builder::new()
            .name(format!("ecofl-stage-{s}"))
            .spawn(move || stage_thread(ctx))
            .expect("spawn stage thread");
        stages.push(StageThread {
            ctrl_tx,
            reply_rx,
            handle: Some(handle),
        });
    }

    Wiring {
        stages,
        input_tx,
        target_tx,
    }
}

impl PipelineTrainer {
    /// Launches one thread per stage with default supervision and no
    /// fault injection. Kept for callers that own their segments
    /// directly; such a trainer cannot [`recover`](Self::recover)
    /// (there is no factory to rebuild dead stages from).
    ///
    /// `segments[s]` is the ordered layer list of stage `s`; `k[s]` is the
    /// warmup residency (use `S − s`, the §4.3 bound with negligible
    /// communication, for an in-memory channel transport).
    ///
    /// # Panics
    /// Panics on empty segments, a `k` length mismatch, or a stage dying
    /// during launch.
    #[must_use]
    pub fn launch(segments: Vec<Vec<Box<dyn Layer>>>, k: Vec<usize>) -> Self {
        Self::build(segments, k, RuntimeOptions::default(), None)
            .expect("PipelineTrainer::launch: stage died during launch")
    }

    /// Launches a supervised, crash-recoverable trainer: `factory()`
    /// builds the stage segments now and again on every
    /// [`recover`](Self::recover).
    ///
    /// # Errors
    /// [`ExecError::StageDied`] if a stage dies before the initial
    /// checkpoint completes (possible with a `FaultPlan`, pathological
    /// otherwise).
    ///
    /// # Panics
    /// Panics on empty segments or a `k` length mismatch (programmer
    /// errors, same contract as [`launch`](Self::launch)).
    pub fn launch_supervised(
        factory: SegmentFactory,
        k: Vec<usize>,
        opts: RuntimeOptions,
    ) -> Result<Self, ExecError> {
        let segments = factory();
        Self::build(segments, k, opts, Some(factory))
    }

    fn build(
        segments: Vec<Vec<Box<dyn Layer>>>,
        k: Vec<usize>,
        opts: RuntimeOptions,
        factory: Option<SegmentFactory>,
    ) -> Result<Self, ExecError> {
        let s_count = segments.len();
        assert!(s_count > 0, "PipelineTrainer: need at least one stage");
        assert_eq!(k.len(), s_count, "PipelineTrainer: K length mismatch");
        assert!(k.iter().all(|&x| x >= 1));

        let comm = Arc::new(Mutex::new(CommStats {
            fwd_bytes: vec![0; s_count.saturating_sub(1)],
            bwd_bytes: vec![0; s_count.saturating_sub(1)],
        }));
        let deaths: DeathBoard = Arc::new(Mutex::new(Vec::new()));
        // Open the run store before spawning anything: a bad path fails
        // the launch with a typed error instead of a mid-round surprise.
        let store = opts.store_path.as_ref().map(RunStore::open_or_create);
        let store = store.transpose().map_err(store_err)?;
        let next_ckpt_seq = store
            .as_ref()
            .and_then(|s| s.checkpoint_metas().last().map(|m| m.seq + 1))
            .unwrap_or(0);
        let metrics = opts.metrics.as_ref().map(RtMetrics::new);
        let wiring = spawn_stages(
            segments,
            &k,
            &comm,
            &deaths,
            &opts.fault_plan,
            metrics.as_ref(),
        );

        let mut trainer = Self {
            stages: wiring.stages,
            input_tx: wiring.input_tx,
            target_tx: wiring.target_tx,
            k,
            comm,
            deaths,
            opts,
            factory,
            round: 0,
            checkpoint: CheckpointRecord::default(),
            next_ckpt_seq,
            store,
            failure: None,
            replaying: false,
            metrics,
        };
        // Checkpoint 0: the pristine launch parameters, so a crash in the
        // very first round is recoverable too.
        let launch_params = trainer.collect_params("checkpoint collect")?;
        trainer.store_checkpoint(&launch_params)?;
        Ok(trainer)
    }

    /// The last parameter checkpoint, as a typed record.
    #[must_use]
    pub fn checkpoint(&self) -> &CheckpointRecord {
        &self.checkpoint
    }

    /// The stored failure, if the trainer is poisoned.
    #[must_use]
    pub fn failure(&self) -> Option<&ExecError> {
        self.failure.as_ref()
    }

    /// Builds the `StageDied` error for a wait on stage `s` that ended
    /// without a reply: the root cause is the *first* note on the death
    /// board; an empty board means the stage is alive but silent
    /// (wedged), attributed to `s` itself.
    fn death_error(&self, s: usize, during: &str) -> ExecError {
        let (stage, during) = match self.deaths.lock().first() {
            Some(first) => (first.stage, first.during.clone()),
            None => {
                let wedged = format!("{during} (no reply within {:?})", self.opts.recv_timeout);
                (s, wedged)
            }
        };
        ExecError::StageDied { stage, during }
    }

    /// Sends `ctrl` to stage `s`. A closed control channel means the
    /// stage is gone: the trainer is poisoned with the root cause.
    fn dispatch(&mut self, s: usize, ctrl: Ctrl, during: &str) -> Result<(), ExecError> {
        if self.stages[s].ctrl_tx.send(ctrl).is_ok() {
            return Ok(());
        }
        let e = self.death_error(s, &format!("{during} dispatch"));
        Err(self.fail(e))
    }

    /// Bounded, disconnect-aware wait for the reply from stage `s` that
    /// `pick` accepts; a death, a silent stage or any other reply
    /// poisons the trainer. With a hub attached, the wall-clock time
    /// spent blocked is recorded into `rt_recv_wait_ns` (and
    /// `rt_recv_timeouts` counts waits that exhausted
    /// [`RuntimeOptions::recv_timeout`]).
    fn expect_reply<T>(
        &mut self,
        s: usize,
        during: &str,
        pick: impl FnOnce(Reply) -> Option<T>,
    ) -> Result<T, ExecError> {
        let (res, waited) = self.stages[s]
            .reply_rx
            .recv_timeout_timed(self.opts.recv_timeout);
        if let Some(m) = &self.metrics {
            m.recv_wait_ns.record(waited.as_nanos() as f64);
            if matches!(res, Err(RecvTimeoutError::Timeout)) {
                m.recv_timeouts.inc(1);
            }
        }
        let e = match res.map(pick) {
            Ok(Some(picked)) => return Ok(picked),
            Ok(None) => ExecError::StageDied {
                stage: s,
                during: format!("{during} (unexpected reply)"),
            },
            Err(_) => self.death_error(s, during),
        };
        Err(self.fail(e))
    }

    /// Records a `Domain::Pipeline` event at (virtual) time `round`.
    fn trace(&self, kind: EventKind, entity: usize, round: u64, value: f64) {
        if let Some(tr) = &self.opts.tracer {
            tr.event(Domain::Pipeline, kind, entity, round as f64, value);
        }
    }

    /// Poisons the trainer and reports the failure to the tracer.
    fn fail(&mut self, err: ExecError) -> ExecError {
        if let ExecError::StageDied { stage, .. } = &err {
            if let Some(m) = &self.metrics {
                m.stage_deaths.inc(1);
            }
            self.trace(EventKind::StageDied, *stage, self.round, 0.0);
        }
        self.failure = Some(err.clone());
        err
    }

    /// Asks every stage for its flat parameters (stage order): the
    /// launch checkpoint and [`params`](Self::params). A round's
    /// checkpoint needs no such round trip — it rides on `RoundDone`.
    fn collect_params(&mut self, during: &str) -> Result<Vec<Vec<f32>>, ExecError> {
        for s in 0..self.stages.len() {
            self.dispatch(s, Ctrl::Collect, during)?;
        }
        (0..self.stages.len())
            .map(|s| {
                self.expect_reply(s, during, |reply| match reply {
                    Reply::Params(p) => Some(p),
                    _ => None,
                })
            })
            .collect()
    }

    /// Makes the stages' parameters as of `self.round` the current
    /// checkpoint and, with a store configured, appends and seals it.
    fn store_checkpoint(&mut self, stage_params: &[Vec<f32>]) -> Result<(), ExecError> {
        let t0 = Instant::now();
        // Overwritten in place: a round's snapshot reuses the last one's
        // buffers instead of allocating the parameter vector again.
        let checkpoint = &mut self.checkpoint;
        (checkpoint.seq, checkpoint.round) = (self.next_ckpt_seq, self.round);
        checkpoint.stage_lens.clear();
        checkpoint.params.clear();
        for params in stage_params {
            checkpoint.stage_lens.push(params.len());
            checkpoint.params.extend_from_slice(params);
        }
        self.next_ckpt_seq += 1;
        if let Some(store) = &mut self.store {
            // append_checkpoint seals the segment, so from here on the
            // snapshot outlives a kill of this process (not an OS crash,
            // and not a kill inside the next append).
            let payload = self.checkpoint.encode();
            if let Err(e) = store.append_checkpoint(self.checkpoint.seq, self.round, &payload) {
                return Err(self.fail(store_err(e)));
            }
        }
        self.trace(EventKind::CheckpointTaken, 0, self.round, self.round as f64);
        if let Some(m) = &self.metrics {
            m.checkpoints.inc(1);
            m.checkpoint_ns.record(t0.elapsed().as_nanos() as f64);
        }
        Ok(())
    }

    /// Trains one sync-round over `micro_batches` and flushes with plain
    /// SGD at `lr` (gradients averaged over the micro-batch count), then
    /// checkpoints the post-flush parameters. Returns the mean
    /// micro-batch loss, computed from the last stage's per-micro-batch
    /// losses.
    ///
    /// # Errors
    /// [`ExecError::StageDied`] if any stage dies (or stops replying for
    /// longer than [`RuntimeOptions::recv_timeout`]) during the round;
    /// the trainer is then poisoned until [`recover`](Self::recover).
    ///
    /// # Panics
    /// Panics if `micro_batches` is empty (programmer error, not a
    /// runtime disturbance).
    pub fn train_round(
        &mut self,
        micro_batches: &[(Tensor, Vec<usize>)],
        lr: f32,
    ) -> Result<f32, ExecError> {
        if let Some(e) = &self.failure {
            return Err(e.clone());
        }
        let m = micro_batches.len();
        assert!(m > 0, "train_round: need at least one micro-batch");
        let t0 = Instant::now();
        let round = self.round;
        for s in 0..self.stages.len() {
            let ctrl = Ctrl::Round {
                m,
                k: self.k[s],
                round,
                sched: self.opts.schedule,
                lr,
                // Synchronized update with 1/M gradient scaling.
                scale: 1.0 / m as f32,
            };
            self.dispatch(s, ctrl, "round")?;
        }
        let last = self.stages.len() - 1;
        for (x, targets) in micro_batches {
            if self.input_tx.send(encode_tensor(x)).is_err() {
                let e = self.death_error(0, "input feed");
                return Err(self.fail(e));
            }
            if self.target_tx.send(targets.clone()).is_err() {
                let e = self.death_error(last, "target feed");
                return Err(self.fail(e));
            }
        }
        let mut mean_loss = 0.0f32;
        let mut stage_params = Vec::with_capacity(self.stages.len());
        for s in 0..self.stages.len() {
            let (losses, params) =
                self.expect_reply(s, "round execution", |reply| match reply {
                    Reply::RoundDone { losses, params } => Some((losses, params)),
                    _ => None,
                })?;
            let owed = if s == last { m } else { 0 };
            assert_eq!(
                losses.len(),
                owed,
                "stage {s}: the last stage alone reports losses, one per micro-batch"
            );
            if s == last {
                mean_loss = losses.iter().sum::<f32>() / m as f32;
            }
            stage_params.push(params);
        }
        // Every stage has flushed: its reply is the post-flush snapshot.
        self.round += 1;
        self.store_checkpoint(&stage_params)?;
        if let Some(mx) = &self.metrics {
            mx.round_ns.record(t0.elapsed().as_nanos() as f64);
        }
        if self.replaying {
            self.replaying = false;
            self.trace(EventKind::RoundReplayed, 0, round, round as f64);
        }
        Ok(mean_loss)
    }

    /// Rebuilds the pipeline after a failure: tears down every surviving
    /// stage thread (all waits are disconnect-bounded, so teardown
    /// cannot hang on our code), relaunches all stages from the segment
    /// factory, restores the last checkpoint and rewinds the round
    /// counter to it. Replaying the interrupted round with the same data
    /// then yields parameters bit-identical to an uninterrupted run.
    /// Returns the checkpoint round now current. Injected [`FaultPlan`]
    /// kills scheduled in or before the replayed round are disarmed —
    /// faults model transient disturbances, so replay must be able to
    /// make progress; kills in later rounds stay armed.
    ///
    /// Calling `recover` on a healthy trainer is allowed and simply
    /// rolls back to the last checkpoint (which a healthy trainer takes
    /// after every round, so this is a no-op parameter-wise).
    ///
    /// # Errors
    /// [`ExecError::RecoveryUnsupported`] without a segment factory;
    /// [`ExecError::CheckpointStore`] if the checkpoint cannot be read or
    /// does not split into its stage lengths;
    /// [`ExecError::StageDied`] / [`ExecError::ParamLenMismatch`] if the
    /// relaunched stages die or the factory returns a different
    /// architecture.
    pub fn recover(&mut self) -> Result<u64, ExecError> {
        if self.factory.is_none() {
            return Err(ExecError::RecoveryUnsupported);
        }
        let t0 = Instant::now();
        // With a store configured, restore from its newest stored
        // checkpoint (the same snapshot store_checkpoint persisted, so
        // replay stays bit-identical to the in-memory path); this is
        // what makes recovery survive portal restarts, not just stage
        // deaths. Without one, use the in-memory snapshot.
        if let Some(store) = &self.store {
            let newest = store.latest_checkpoint().map_err(store_err)?;
            let (_, payload) = newest.ok_or_else(|| ExecError::CheckpointStore {
                detail: "store has no checkpoint to recover from".into(),
            })?;
            self.checkpoint = CheckpointRecord::decode(&payload)?;
        }
        let restore = self.checkpoint.stage_params()?;
        self.teardown();
        let segments = self.factory.as_ref().expect("factory checked above")();
        assert_eq!(
            segments.len(),
            self.k.len(),
            "segment factory changed the stage count"
        );
        // Injected faults model *transient* disturbances: kills scheduled
        // in or before the round being replayed are disarmed, otherwise
        // the relaunched pipeline would re-fire the same kill on replay
        // and never make progress. Kills in later rounds stay armed.
        self.opts
            .fault_plan
            .kills
            .retain(|kp| kp.round > self.checkpoint.round);
        self.deaths = Arc::new(Mutex::new(Vec::new()));
        let wiring = spawn_stages(
            segments,
            &self.k,
            &self.comm,
            &self.deaths,
            &self.opts.fault_plan,
            self.metrics.as_ref(),
        );
        self.stages = wiring.stages;
        self.input_tx = wiring.input_tx;
        self.target_tx = wiring.target_tx;
        self.failure = None;
        self.round = self.checkpoint.round;
        self.replaying = true;
        // Restore the checkpoint into the fresh stages.
        for (s, params) in restore.into_iter().enumerate() {
            self.dispatch(s, Ctrl::SetParams(params), "checkpoint restore")?;
        }
        for s in 0..self.stages.len() {
            let (expected, got) = self.expect_reply(s, "checkpoint restore", Reply::set_done)?;
            if expected != got {
                let e = ExecError::ParamLenMismatch {
                    stage: s,
                    expected,
                    got,
                };
                return Err(self.fail(e));
            }
        }
        if let Some(m) = &self.metrics {
            m.restores.inc(1);
            m.restore_ns.record(t0.elapsed().as_nanos() as f64);
        }
        Ok(self.round)
    }

    /// Collects the full flat parameter vector (stage order).
    ///
    /// # Errors
    /// [`ExecError::StageDied`] if a stage died (the trainer is then
    /// poisoned), or the stored failure if already poisoned.
    pub fn params(&mut self) -> Result<Vec<f32>, ExecError> {
        if let Some(e) = &self.failure {
            return Err(e.clone());
        }
        Ok(self.collect_params("params collect")?.concat())
    }

    /// Overwrites the full flat parameter vector (stage order), acked by
    /// every stage. Each stage hard-checks the slice length against its
    /// own parameter count and refuses to apply a mismatched vector, so
    /// a short vector can never leave tail parameters silently stale.
    ///
    /// # Errors
    /// [`ExecError::ParamVecLen`] if `params.len()` differs from the sum
    /// of `stage_lens` (nothing is sent); [`ExecError::ParamLenMismatch`]
    /// if a stage's slice does not match its actual layout (stages with
    /// matching lengths have applied theirs — fix `stage_lens` and
    /// retry); [`ExecError::StageDied`] if a stage died.
    ///
    /// # Panics
    /// Panics if `stage_lens` does not have one entry per stage
    /// (programmer error).
    pub fn set_params(&mut self, params: &[f32], stage_lens: &[usize]) -> Result<(), ExecError> {
        if let Some(e) = &self.failure {
            return Err(e.clone());
        }
        assert_eq!(
            stage_lens.len(),
            self.stages.len(),
            "set_params: need one length per stage"
        );
        let total: usize = stage_lens.iter().sum();
        if total != params.len() {
            return Err(ExecError::ParamVecLen {
                expected: total,
                got: params.len(),
            });
        }
        let mut offset = 0;
        for (s, &len) in stage_lens.iter().enumerate() {
            let slice = params[offset..offset + len].to_vec();
            self.dispatch(s, Ctrl::SetParams(slice), "set-params")?;
            offset += len;
        }
        // Drain every ack (keeping the reply protocol in sync) before
        // reporting the first mismatch.
        let mut first_mismatch = None;
        for s in 0..self.stages.len() {
            let (expected, got) = self.expect_reply(s, "set-params ack", Reply::set_done)?;
            if expected != got && first_mismatch.is_none() {
                first_mismatch = Some(ExecError::ParamLenMismatch {
                    stage: s,
                    expected,
                    got,
                });
            }
        }
        match first_mismatch {
            // A rejected vector leaves the stages healthy: not poisoned.
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Snapshot of cross-boundary traffic so far.
    #[must_use]
    pub fn comm_stats(&self) -> (Vec<u64>, Vec<u64>) {
        let c = self.comm.lock();
        (c.fwd_bytes.clone(), c.bwd_bytes.clone())
    }

    /// Unblocks and joins every stage thread, healthy or broken: sends
    /// `Shutdown`, drops the portal-side data feeds (so a stage stuck
    /// waiting for an input that never came observes the disconnect),
    /// then joins. Death-cascade disconnects unblock everything else.
    fn teardown(&mut self) {
        for stage in &self.stages {
            let _ = stage.ctrl_tx.send(Ctrl::Shutdown);
        }
        let (dummy_in, _) = unbounded::<Bytes>();
        let (dummy_tg, _) = unbounded::<Vec<usize>>();
        drop(std::mem::replace(&mut self.input_tx, dummy_in));
        drop(std::mem::replace(&mut self.target_tx, dummy_tg));
        for stage in &mut self.stages {
            if let Some(h) = stage.handle.take() {
                let _ = h.join();
            }
        }
    }

    /// Stops all stage threads (dropping the trainer tears it down).
    pub fn shutdown(self) {}
}

impl Drop for PipelineTrainer {
    fn drop(&mut self) {
        self.teardown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofl_tensor::{Linear, Network, ReLU};
    use ecofl_util::Rng;

    type Segments = Vec<Vec<Box<dyn Layer>>>;

    /// Builds identical layer stacks twice: once as pipeline segments,
    /// once as a monolithic network.
    fn build(seed: u64) -> (Segments, Network, Vec<usize>) {
        let mk = |rng: &mut Rng| -> Vec<Vec<Box<dyn Layer>>> {
            vec![
                vec![
                    Box::new(Linear::new(8, 16, rng)) as Box<dyn Layer>,
                    Box::new(ReLU::new()),
                ],
                vec![
                    Box::new(Linear::new(16, 12, rng)) as Box<dyn Layer>,
                    Box::new(ReLU::new()),
                ],
                vec![Box::new(Linear::new(12, 4, rng)) as Box<dyn Layer>],
            ]
        };
        let mut rng1 = Rng::new(seed);
        let segments = mk(&mut rng1);
        let mut rng2 = Rng::new(seed);
        let reference_layers: Vec<Box<dyn Layer>> = mk(&mut rng2).into_iter().flatten().collect();
        let reference = Network::new(reference_layers);
        let stage_lens = vec![8 * 16 + 16, 16 * 12 + 12, 12 * 4 + 4];
        (segments, reference, stage_lens)
    }

    fn micro_batches(seed: u64, m: usize, bs: usize) -> Vec<(Tensor, Vec<usize>)> {
        let mut rng = Rng::new(seed);
        (0..m)
            .map(|_| {
                let x = Tensor::randn(&[bs, 8], 1.0, &mut rng);
                let y = (0..bs).map(|_| rng.range_usize(0, 4)).collect();
                (x, y)
            })
            .collect()
    }

    #[test]
    fn inconsistent_checkpoint_records_are_a_store_error() {
        let record = |stage_lens: Vec<usize>, params: usize| CheckpointRecord {
            seq: 3,
            round: 2,
            stage_lens,
            params: (0..params).map(|i| i as f32).collect(),
        };
        assert_eq!(
            record(vec![2, 3], 5).stage_params(),
            Ok(vec![vec![0.0, 1.0], vec![2.0, 3.0, 4.0]])
        );
        for (lens, params) in [
            (vec![2, 3], 4),
            (vec![2, 3], 6),
            (vec![], 1),
            (vec![usize::MAX, 2], 1),
        ] {
            assert!(
                matches!(
                    record(lens.clone(), params).stage_params(),
                    Err(ExecError::CheckpointStore { .. })
                ),
                "{lens:?} over {params} parameters"
            );
        }
    }

    #[test]
    fn tensor_codec_round_trip() {
        let mut rng = Rng::new(1);
        let t = Tensor::randn(&[3, 5, 2], 1.0, &mut rng);
        let decoded = decode_tensor(encode_tensor(&t));
        assert_eq!(t, decoded);
    }

    #[test]
    fn pipeline_matches_single_device_exactly() {
        let (segments, mut reference, _) = build(77);
        let k = vec![3, 2, 1];
        let mut trainer = PipelineTrainer::launch(segments, k);
        let batches = micro_batches(5, 6, 4);
        let lr = 0.1;

        // Pipeline round.
        let pipe_loss = trainer.train_round(&batches, lr).expect("healthy round");

        // Reference: gradient accumulation then one scaled update.
        let mut ref_loss = 0.0;
        reference.zero_grads();
        for (x, y) in &batches {
            ref_loss += reference.train_step(x, y);
        }
        ref_loss /= batches.len() as f32;
        let mut params = reference.params();
        let grads = reference.grads();
        let scale = 1.0 / batches.len() as f32;
        for (p, g) in params.iter_mut().zip(&grads) {
            *p -= lr * g * scale;
        }
        reference.set_params(&params);

        assert!(
            (pipe_loss - ref_loss).abs() < 1e-6,
            "{pipe_loss} vs {ref_loss}"
        );
        let pipe_params = trainer.params().expect("healthy collect");
        assert_eq!(
            pipe_params, params,
            "1F1B-Sync must be bit-identical to gradient accumulation"
        );
        trainer.shutdown();
    }

    #[test]
    fn unit_residency_is_bit_identical_too() {
        // K_s = 1 everywhere shrinks every bounded channel to capacity 1;
        // the schedule serializes but the semantics must not move.
        let (segments, _, _) = build(31);
        let mut wide = PipelineTrainer::launch(segments, vec![3, 2, 1]);
        let (segments, _, _) = build(31);
        let mut narrow = PipelineTrainer::launch(segments, vec![1, 1, 1]);
        let batches = micro_batches(6, 5, 4);
        let lw = wide.train_round(&batches, 0.1).expect("wide round");
        let ln = narrow.train_round(&batches, 0.1).expect("narrow round");
        assert_eq!(lw, ln, "loss must not depend on residency");
        assert_eq!(
            wide.params().expect("wide params"),
            narrow.params().expect("narrow params"),
            "parameters must not depend on residency"
        );
        wide.shutdown();
        narrow.shutdown();
    }

    #[test]
    fn multiple_rounds_reduce_loss() {
        let (segments, _, _) = build(88);
        let mut trainer = PipelineTrainer::launch(segments, vec![3, 2, 1]);
        // Fixed batches make the loss monotone-ish under SGD.
        let batches = micro_batches(9, 4, 8);
        let first = trainer.train_round(&batches, 0.2).expect("round");
        let mut last = first;
        for _ in 0..30 {
            last = trainer.train_round(&batches, 0.2).expect("round");
        }
        assert!(last < first * 0.8, "loss {first} -> {last} should drop");
        trainer.shutdown();
    }

    #[test]
    fn comm_stats_track_boundary_traffic() {
        let (segments, _, _) = build(99);
        let mut trainer = PipelineTrainer::launch(segments, vec![3, 2, 1]);
        let batches = micro_batches(2, 3, 4);
        let _ = trainer.train_round(&batches, 0.1).unwrap();
        let (fwd, bwd) = trainer.comm_stats();
        assert_eq!(fwd.len(), 2);
        // Boundary 0 carries [4,16] activations thrice; boundary 1 [4,12].
        assert!(fwd[0] > 0 && fwd[1] > 0);
        assert!(bwd[0] > 0 && bwd[1] > 0);
        assert!(fwd[0] > fwd[1], "wider boundary moves more bytes");
        trainer.shutdown();
    }

    #[test]
    fn set_params_round_trip() {
        let (segments, _, stage_lens) = build(55);
        let mut trainer = PipelineTrainer::launch(segments, vec![3, 2, 1]);
        let mut params = trainer.params().expect("params");
        for p in params.iter_mut() {
            *p = 0.5;
        }
        trainer
            .set_params(&params, &stage_lens)
            .expect("set_params");
        assert_eq!(trainer.params().expect("params"), params);
        trainer.shutdown();
    }

    #[test]
    fn set_params_rejects_short_vector_with_typed_error() {
        let (segments, _, stage_lens) = build(56);
        let mut trainer = PipelineTrainer::launch(segments, vec![3, 2, 1]);
        let before = trainer.params().expect("params");
        let short = vec![0.5f32; before.len() - 3];
        match trainer.set_params(&short, &stage_lens) {
            Err(ExecError::ParamVecLen { expected, got }) => {
                assert_eq!(expected, before.len());
                assert_eq!(got, before.len() - 3);
            }
            other => panic!("expected ParamVecLen, got {other:?}"),
        }
        assert_eq!(
            trainer.params().expect("params"),
            before,
            "a rejected vector must not touch any parameter"
        );
        trainer.shutdown();
    }

    #[test]
    fn set_params_rejects_bad_split_and_stays_usable() {
        let (segments, _, stage_lens) = build(57);
        let mut trainer = PipelineTrainer::launch(segments, vec![3, 2, 1]);
        let params = trainer.params().expect("params");
        // Same total, wrong split: stage 0's slice is one element short.
        let mut bad = stage_lens.clone();
        bad[0] -= 1;
        bad[1] += 1;
        match trainer.set_params(&params, &bad) {
            Err(ExecError::ParamLenMismatch { stage, .. }) => assert_eq!(stage, 0),
            other => panic!("expected ParamLenMismatch, got {other:?}"),
        }
        // The stages are healthy: a correct call and a round still work.
        trainer.set_params(&params, &stage_lens).expect("set");
        let _ = trainer
            .train_round(&micro_batches(3, 2, 4), 0.1)
            .expect("round after rejected set_params");
        trainer.shutdown();
    }

    #[test]
    fn single_stage_pipeline_works() {
        let mut rng = Rng::new(3);
        let segments: Vec<Vec<Box<dyn Layer>>> = vec![vec![Box::new(Linear::new(8, 4, &mut rng))]];
        let mut trainer = PipelineTrainer::launch(segments, vec![1]);
        let batches = micro_batches(4, 2, 4);
        let loss = trainer.train_round(&batches, 0.1).expect("round");
        assert!(loss.is_finite() && loss > 0.0);
        trainer.shutdown();
    }

    #[test]
    fn unsupervised_trainer_reports_recovery_unsupported() {
        let (segments, _, _) = build(60);
        let mut trainer = PipelineTrainer::launch(segments, vec![3, 2, 1]);
        assert_eq!(trainer.recover(), Err(ExecError::RecoveryUnsupported));
        trainer.shutdown();
    }

    /// The step program the runtime used to generate for itself, with
    /// each forward numbered by the running count its loop kept for the
    /// kill point — the reference for what `stage_loop` now reads off
    /// `stage_stream`.
    fn reference_program(kind: ScheduleKind, m: usize, k: usize) -> Vec<Verb> {
        let mut ids = 0..;
        let mut fwd = move || Verb::Fwd(ids.next().expect("unbounded range"));
        let mut out = Vec::with_capacity(2 * m);
        if kind == ScheduleKind::BafSync {
            out.extend(std::iter::repeat_with(&mut fwd).take(m));
            out.extend(std::iter::repeat_n(Verb::Bwd, m));
        } else {
            let w = k.min(m).max(1);
            out.extend(std::iter::repeat_with(&mut fwd).take(w));
            let mut fp = w;
            for _ in 0..m {
                out.push(Verb::Bwd);
                if fp < m {
                    out.push(fwd());
                    fp += 1;
                }
            }
        }
        out
    }

    #[test]
    fn walked_verbs_and_kill_points_match_the_reference_program() {
        for kind in ScheduleKind::all() {
            for k in 1..=4 {
                for m in 1..=8 {
                    let walked: Vec<Verb> = kind
                        .stage_stream(k, m)
                        .into_iter()
                        .filter_map(Verb::of)
                        .collect();
                    assert_eq!(
                        walked,
                        reference_program(kind, m, k),
                        "{kind:?} k={k} m={m}"
                    );
                }
            }
        }
    }
}

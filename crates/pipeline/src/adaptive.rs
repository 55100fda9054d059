//! Adaptive pipeline re-scheduling (§4.4, Fig. 13).
//!
//! Every training worker periodically reports its FP/BP execution time to
//! the portal node. The portal smooths reports with an EMA; when a
//! stage's current time deviates from its history beyond a threshold, it
//! re-runs the Eq. 1 partitioner against the devices' *current* effective
//! speeds, migrates the moved layers' parameters over the network, and
//! restarts the pipeline.
//!
//! [`simulate_load_spike`] drives the whole Fig. 13 scenario: a pipeline
//! trains in steady state, an external GPU load lands on one device at a
//! chosen time, and the run proceeds either with or without the adaptive
//! scheduler, producing per-device utilization and throughput series.

use crate::executor::PipelineExecutor;
use crate::partition::{partition_dp, Partition};
use crate::profiler::PipelineProfile;
use crate::schedule::ScheduleKind;
use ecofl_models::ModelProfile;
use ecofl_obs::{Domain, EventKind, Tracer};
use ecofl_simnet::{Device, Link};
use ecofl_util::stats::Ema;
use ecofl_util::TimeSeries;

/// Why a Fig. 13 spike scenario cannot run at all. These cover the
/// *setup* of the scenario; a repartition that turns out infeasible
/// *mid-run* is not an error — the scheduler falls back to the
/// unmigrated pipeline (§4.4: degrade, don't die).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpikeError {
    /// The Eq. 1 partitioner found no feasible initial partition (e.g.
    /// fewer layers than devices, or memory bounds violated everywhere).
    InfeasibleInitialPartition,
    /// The initial pipeline admits no executable schedule of the
    /// configured kind ([`SchedulerConfig::schedule`]).
    InitialPipelineStalled,
    /// After the spike landed, the (unmigrated) pipeline no longer
    /// admits an executable schedule.
    SpikedPipelineStalled,
    /// The horizon spans more sync-rounds at the current round time than
    /// one scenario simulates (2 M). Every round records one series point per
    /// device plus one, so the run is refused before that outgrows memory.
    TooManyRounds,
    /// An input is out of range: `horizon` must be positive and finite,
    /// and of the [`LoadSpike`], `at` must lie in `[0, horizon)` (a later
    /// spike never fires), `load` in `[0, 1)`, `device` index a device.
    BadSpike {
        /// The offending field: `horizon`, `at`, `load` or `device`.
        field: &'static str,
        /// What the field must be.
        expected: &'static str,
    },
}

/// The most sync-rounds one spike scenario simulates: 2.5× the ≈ 0.8 M
/// rounds of the smallest shipped pipeline (`effnet-b0@32`, 0.13 s rounds)
/// over a 100 000 s horizon.
const MAX_SPIKE_ROUNDS: usize = 2_000_000;

impl std::fmt::Display for SpikeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpikeError::InfeasibleInitialPartition => {
                write!(f, "no feasible initial partition for the spike scenario")
            }
            SpikeError::InitialPipelineStalled => {
                write!(f, "initial pipeline admits no executable schedule")
            }
            SpikeError::SpikedPipelineStalled => {
                write!(f, "post-spike pipeline admits no executable schedule")
            }
            SpikeError::TooManyRounds => {
                write!(f, "spans more than {MAX_SPIKE_ROUNDS} pipeline rounds")
            }
            SpikeError::BadSpike { field, expected } => {
                write!(f, "load spike `{field}` must be {expected}")
            }
        }
    }
}

impl std::error::Error for SpikeError {}

/// One re-scheduling action taken by the portal node.
#[derive(Debug, Clone, PartialEq)]
pub struct RescheduleEvent {
    /// Simulation time of the decision, seconds.
    pub time: f64,
    /// Stage boundaries before migration.
    pub old_boundaries: Vec<usize>,
    /// Stage boundaries after migration.
    pub new_boundaries: Vec<usize>,
    /// Parameter bytes moved between devices.
    pub bytes_moved: u64,
    /// Pipeline stall: migration transfer + restart overhead, seconds.
    pub pause: f64,
}

/// Lagger detector: EMA-smoothed per-stage times with a relative
/// deviation threshold.
#[derive(Debug, Clone)]
pub(crate) struct AdaptiveScheduler {
    /// Relative deviation of a stage's time vs. history that triggers
    /// re-scheduling (paper: "a large deviation").
    pub deviation_threshold: f64,
    /// Fixed restart overhead added to every migration, seconds.
    pub restart_overhead: f64,
    history: Vec<Ema>,
}

impl AdaptiveScheduler {
    /// Creates a detector for `num_stages` stages.
    #[must_use]
    pub(crate) fn new(num_stages: usize, deviation_threshold: f64, restart_overhead: f64) -> Self {
        assert!(deviation_threshold > 0.0);
        assert!(restart_overhead >= 0.0);
        Self {
            deviation_threshold,
            restart_overhead,
            history: vec![Ema::new(0.3); num_stages],
        }
    }

    /// Feeds one round of per-stage execution-time reports; returns the
    /// index of a stage whose current report deviates from its EMA history
    /// beyond the threshold, if any.
    pub(crate) fn observe(&mut self, stage_times: &[f64]) -> Option<usize> {
        assert_eq!(stage_times.len(), self.history.len());
        let mut trigger = None;
        for (s, (&t, ema)) in stage_times.iter().zip(self.history.iter_mut()).enumerate() {
            if let Some(prev) = ema.value() {
                let dev = (t - prev).abs() / prev.max(1e-12);
                if dev > self.deviation_threshold && trigger.is_none() {
                    trigger = Some(s);
                }
            }
            ema.push(t);
        }
        trigger
    }

    /// Resets history after a migration (old per-stage times no longer
    /// apply to the new partition).
    pub(crate) fn reset(&mut self) {
        let n = self.history.len();
        self.history = vec![Ema::new(0.3); n];
    }
}

/// Parameter bytes that change devices between two partitions of the same
/// model over the same device order.
#[must_use]
pub(crate) fn migration_bytes(model: &ModelProfile, old: &Partition, new: &Partition) -> u64 {
    assert_eq!(old.num_stages(), new.num_stages());
    let mut moved = 0u64;
    for (l, layer) in model.layers.iter().enumerate() {
        let old_stage = (0..old.num_stages())
            .find(|&s| old.stage_range(s).contains(&l))
            .expect("layer covered");
        let new_stage = (0..new.num_stages())
            .find(|&s| new.stage_range(s).contains(&l))
            .expect("layer covered");
        if old_stage != new_stage {
            moved += layer.param_bytes;
        }
    }
    moved
}

/// The external load spike of Fig. 13.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSpike {
    /// Device index (in pipeline order) receiving the external workload.
    pub device: usize,
    /// Simulation time at which the load lands, seconds.
    pub at: f64,
    /// External-load fraction applied, in `[0, 1)`.
    pub load: f64,
}

/// Output of [`simulate_load_spike`].
#[derive(Debug, Clone)]
pub struct SpikeTrace {
    /// Per-device utilization over time (window-sampled).
    pub device_utilization: Vec<TimeSeries>,
    /// Pipeline throughput over time, samples per second.
    pub throughput: TimeSeries,
    /// Migrations performed (empty without the scheduler).
    pub events: Vec<RescheduleEvent>,
    /// Mean throughput after the spike until the horizon.
    pub post_spike_throughput: f64,
    /// Mean throughput before the spike.
    pub pre_spike_throughput: f64,
}

/// Steady-state per-round statistics for one pipeline configuration.
struct SteadyState {
    round_time: f64,
    stage_util: Vec<f64>,
    stage_times: Vec<f64>,
    samples_per_round: f64,
}

fn steady_state(
    model: &ModelProfile,
    partition: &Partition,
    devices: &[Device],
    link: &Link,
    mbs: usize,
    micro_batches: usize,
    schedule: ScheduleKind,
) -> Option<SteadyState> {
    let profile = PipelineProfile::new(model, &partition.boundaries, devices, link, mbs);
    let policy = schedule.policy_for(&profile)?;
    let exec = PipelineExecutor::new(&profile, policy).ok()?;
    let report = exec.run(micro_batches, 1).ok()?;
    Some(SteadyState {
        round_time: report.round_time,
        stage_util: report.stage_gpu_utilization.clone(),
        stage_times: profile
            .stages()
            .iter()
            .map(crate::profiler::StageProfile::t_total)
            .collect(),
        samples_per_round: (micro_batches * mbs) as f64,
    })
}

/// Tunables of the §4.4 rescheduler used by [`simulate_load_spike_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Relative stage-time deviation that triggers re-scheduling.
    pub deviation_threshold: f64,
    /// Fixed restart overhead per migration, seconds.
    pub restart_overhead: f64,
    /// Pipeline schedule the rescheduled pipeline runs.
    pub schedule: ScheduleKind,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            deviation_threshold: 0.25,
            restart_overhead: 2.0,
            schedule: ScheduleKind::OneFOneBSync,
        }
    }
}

/// Runs the Fig. 13 scenario with the default scheduler tuning.
///
/// # Errors
/// [`SpikeError`] if the scenario cannot be set up (a horizon that is
/// not positive and finite, a spike outside `[0, horizon)`, naming no
/// device or with a load outside `[0, 1)`, infeasible initial partition, a
/// pipeline with no executable schedule, or a horizon of more rounds
/// than one scenario simulates). A repartition
/// that is infeasible *mid-run* is handled by falling back to the
/// unmigrated pipeline, never by an error.
#[allow(clippy::too_many_arguments)]
pub fn simulate_load_spike(
    model: &ModelProfile,
    devices: &[Device],
    link: &Link,
    mbs: usize,
    micro_batches: usize,
    spike: LoadSpike,
    horizon: f64,
    with_scheduler: bool,
) -> Result<SpikeTrace, SpikeError> {
    simulate_load_spike_with(
        model,
        devices,
        link,
        mbs,
        micro_batches,
        spike,
        horizon,
        with_scheduler,
        SchedulerConfig::default(),
        None,
    )
}

/// Runs the Fig. 13 scenario with explicit scheduler tuning, recording
/// the §4.4 re-scheduling timeline into `tracer` (`None` for nothing):
/// [`EventKind::LaggerDetected`] per detector trigger,
/// [`EventKind::Migration`] (value = bytes moved) and
/// [`EventKind::Restart`] (value = stall seconds) per committed
/// migration, all under [`Domain::Scheduler`] at virtual timestamps.
///
/// # Errors
/// [`SpikeError`] if the scenario cannot be set up; see
/// [`simulate_load_spike`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_load_spike_with<'a>(
    model: &ModelProfile,
    devices: &[Device],
    link: &Link,
    mbs: usize,
    micro_batches: usize,
    spike: LoadSpike,
    horizon: f64,
    with_scheduler: bool,
    scheduler_cfg: SchedulerConfig,
    tracer: impl Into<Option<&'a Tracer>>,
) -> Result<SpikeTrace, SpikeError> {
    let bad = |field, expected| Err(SpikeError::BadSpike { field, expected });
    if !(horizon > 0.0 && horizon.is_finite()) {
        return bad("horizon", "positive and finite");
    }
    if !(0.0..horizon).contains(&spike.at) {
        return bad("at", "in [0, horizon)");
    }
    if !(0.0..1.0).contains(&spike.load) {
        return bad("load", "in [0, 1)");
    }
    if spike.device >= devices.len() {
        return bad("device", "the index of one of the devices");
    }
    let tracer = tracer.into();
    let mut devices: Vec<Device> = devices.to_vec();
    let mut partition =
        partition_dp(model, &devices, link, mbs).ok_or(SpikeError::InfeasibleInitialPartition)?;
    let schedule = scheduler_cfg.schedule;
    let steady_of = |partition: &Partition, devices: &[Device]| {
        steady_state(
            model,
            partition,
            devices,
            link,
            mbs,
            micro_batches,
            schedule,
        )
    };
    let mut steady = steady_of(&partition, &devices).ok_or(SpikeError::InitialPipelineStalled)?;

    let mut scheduler = AdaptiveScheduler::new(
        devices.len(),
        scheduler_cfg.deviation_threshold,
        scheduler_cfg.restart_overhead,
    );
    let mut util_series: Vec<TimeSeries> = vec![TimeSeries::new(); devices.len()];
    let mut throughput = TimeSeries::new();
    let mut events = Vec::new();

    let mut t = 0.0;
    let mut spiked = false;
    let mut pre_samples = 0.0;
    let mut pre_time = 0.0;
    let mut post_samples = 0.0;
    let mut post_time = 0.0;
    let mut rounds = 0usize;

    while t < horizon {
        // Apply the spike at its time (quantized to round starts).
        if !spiked && t >= spike.at {
            devices[spike.device].set_external_load(spike.load);
            steady = steady_of(&partition, &devices).ok_or(SpikeError::SpikedPipelineStalled)?;
            spiked = true;
        }
        // One sync-round at the current configuration, unless the rounds
        // left at this pace would pass the cap.
        let round = steady.round_time;
        if rounds as f64 + (horizon - t) / round > MAX_SPIKE_ROUNDS as f64 {
            return Err(SpikeError::TooManyRounds);
        }
        rounds += 1;
        for (d, series) in util_series.iter_mut().enumerate() {
            series.push(t, steady.stage_util[d]);
        }
        throughput.push(t, steady.samples_per_round / round);
        if spiked {
            post_samples += steady.samples_per_round;
            post_time += round;
        } else {
            pre_samples += steady.samples_per_round;
            pre_time += round;
        }
        t += round;

        // Portal receives the per-stage reports at the round boundary.
        if with_scheduler {
            if let Some(lagger) = scheduler.observe(&steady.stage_times) {
                if let Some(tr) = tracer {
                    tr.event(
                        Domain::Scheduler,
                        EventKind::LaggerDetected,
                        lagger,
                        t,
                        steady.stage_times[lagger],
                    );
                }
                // §4.4 degrade-don't-die: a mid-run repartition can be
                // infeasible (the spiked device's memory bound may now
                // reject every cut) or yield an inexecutable pipeline.
                // Both the candidate partition and its steady state are
                // evaluated *before* committing anything; on failure the
                // scheduler keeps the current (unmigrated) pipeline.
                let candidate = partition_dp(model, &devices, link, mbs)
                    .filter(|p| *p != partition)
                    .and_then(|p| steady_of(&p, &devices).map(|s| (p, s)));
                if let Some((new_partition, new_steady)) = candidate {
                    let moved = migration_bytes(model, &partition, &new_partition);
                    let pause = link.transfer_time(moved) + scheduler.restart_overhead;
                    if let Some(tr) = tracer {
                        tr.event(
                            Domain::Scheduler,
                            EventKind::Migration,
                            lagger,
                            t,
                            moved as f64,
                        );
                        tr.event(
                            Domain::Scheduler,
                            EventKind::Restart,
                            lagger,
                            t + pause,
                            pause,
                        );
                    }
                    events.push(RescheduleEvent {
                        time: t,
                        old_boundaries: partition.boundaries.clone(),
                        new_boundaries: new_partition.boundaries.clone(),
                        bytes_moved: moved,
                        pause,
                    });
                    // Pipeline stalls during migration: utilization zero.
                    for series in util_series.iter_mut() {
                        series.push(t, 0.0);
                    }
                    throughput.push(t, 0.0);
                    if spiked {
                        post_time += pause;
                    } else {
                        pre_time += pause;
                    }
                    t += pause;
                    partition = new_partition;
                    steady = new_steady;
                    scheduler.reset();
                }
            }
        }
    }

    Ok(SpikeTrace {
        device_utilization: util_series,
        throughput,
        events,
        post_spike_throughput: if post_time > 0.0 {
            post_samples / post_time
        } else {
            0.0
        },
        pre_spike_throughput: if pre_time > 0.0 {
            pre_samples / pre_time
        } else {
            0.0
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofl_models::efficientnet;
    use ecofl_simnet::{nano_h, tx2_q};

    fn setup() -> (ecofl_models::ModelProfile, Vec<Device>, Link) {
        (
            efficientnet(1),
            vec![
                Device::new(tx2_q()),
                Device::new(nano_h()),
                Device::new(nano_h()),
            ],
            Link::mbps_100(),
        )
    }

    #[test]
    fn detector_triggers_on_deviation() {
        let mut s = AdaptiveScheduler::new(2, 0.25, 1.0);
        assert_eq!(s.observe(&[1.0, 1.0]), None, "no history yet");
        assert_eq!(s.observe(&[1.0, 1.0]), None, "stable");
        assert_eq!(s.observe(&[1.05, 1.0]), None, "within threshold");
        assert_eq!(s.observe(&[2.0, 1.0]), Some(0), "2x slowdown");
    }

    #[test]
    fn detector_reset_clears_history() {
        let mut s = AdaptiveScheduler::new(1, 0.25, 1.0);
        let _ = s.observe(&[1.0]);
        s.reset();
        assert_eq!(s.observe(&[100.0]), None, "fresh history after reset");
    }

    #[test]
    fn migration_bytes_zero_for_identical_partitions() {
        let (model, devices, link) = setup();
        let p = partition_dp(&model, &devices, &link, 8).unwrap();
        assert_eq!(migration_bytes(&model, &p, &p), 0);
    }

    #[test]
    fn migration_bytes_counts_moved_layers() {
        let (model, _, _) = setup();
        let l = model.num_layers();
        let a = Partition {
            boundaries: vec![0, 5, 10, l],
        };
        let b = Partition {
            boundaries: vec![0, 6, 10, l],
        };
        // Only layer 5 moved (stage 1 → stage 0).
        assert_eq!(migration_bytes(&model, &a, &b), model.layers[5].param_bytes);
    }

    #[test]
    fn scheduler_recovers_throughput_after_spike() {
        let (model, devices, link) = setup();
        let spike = LoadSpike {
            device: 1,
            at: 100.0,
            load: 0.6,
        };
        let without = simulate_load_spike(&model, &devices, &link, 8, 8, spike, 250.0, false)
            .expect("feasible scenario");
        let with = simulate_load_spike(&model, &devices, &link, 8, 8, spike, 250.0, true)
            .expect("feasible scenario");
        assert!(without.events.is_empty());
        assert!(!with.events.is_empty(), "scheduler should migrate");
        assert!(
            with.post_spike_throughput > without.post_spike_throughput * 1.05,
            "scheduler {} should beat static {} after the spike",
            with.post_spike_throughput,
            without.post_spike_throughput
        );
        // Neither run should out-perform the pre-spike pipeline.
        assert!(with.post_spike_throughput <= with.pre_spike_throughput * 1.01);
    }

    #[test]
    fn traced_spike_records_reschedule_timeline() {
        let (model, devices, link) = setup();
        let spike = LoadSpike {
            device: 1,
            at: 100.0,
            load: 0.6,
        };
        let run = |tracer: Option<&Tracer>| {
            simulate_load_spike_with(
                &model,
                &devices,
                &link,
                8,
                8,
                spike,
                250.0,
                true,
                SchedulerConfig::default(),
                tracer,
            )
            .expect("feasible scenario")
        };
        let tracer = Tracer::new();
        let trace = run(Some(&tracer));
        assert!(!trace.events.is_empty(), "scheduler should migrate");
        let view = tracer.view();
        let migrations = view.events_of(EventKind::Migration);
        assert_eq!(migrations.len(), trace.events.len());
        for (ev, rec) in trace.events.iter().zip(&migrations) {
            assert!((rec.time - ev.time).abs() < 1e-12);
            assert!((rec.value - ev.bytes_moved as f64).abs() < 1e-12);
        }
        // Every migration is preceded by a lagger detection at its time.
        assert!(view.events_of(EventKind::LaggerDetected).len() >= migrations.len());
        let restarts = view.events_of(EventKind::Restart);
        assert_eq!(restarts.len(), trace.events.len());
        for (ev, rec) in trace.events.iter().zip(&restarts) {
            assert!((rec.value - ev.pause).abs() < 1e-12);
        }

        // The tracer only observes: an untraced run reports the same.
        assert_eq!(format!("{:?}", run(None)), format!("{trace:?}"));
    }

    #[test]
    fn spike_depresses_static_pipeline() {
        let (model, devices, link) = setup();
        let spike = LoadSpike {
            device: 1,
            at: 60.0,
            load: 0.6,
        };
        let trace = simulate_load_spike(&model, &devices, &link, 8, 8, spike, 200.0, false)
            .expect("feasible scenario");
        assert!(
            trace.post_spike_throughput < trace.pre_spike_throughput * 0.8,
            "static pipeline should lose throughput: pre {} post {}",
            trace.pre_spike_throughput,
            trace.post_spike_throughput
        );
    }

    #[test]
    fn infeasible_initial_partition_is_a_typed_error() {
        // One layer across three devices: partition_dp cannot give every
        // device a non-empty stage, so setup must fail — with an error,
        // not a panic.
        let (model, devices, link) = setup();
        let tiny = ecofl_models::ModelProfile {
            name: "tiny".to_string(),
            layers: vec![model.layers[0].clone()],
            input_bytes: model.input_bytes,
        };
        let spike = LoadSpike {
            device: 1,
            at: 10.0,
            load: 0.5,
        };
        let result = simulate_load_spike(&tiny, &devices, &link, 8, 8, spike, 50.0, true);
        assert_eq!(result.unwrap_err(), SpikeError::InfeasibleInitialPartition);
    }

    #[test]
    fn a_spike_on_no_device_is_a_typed_error() {
        let (model, devices, link) = setup();
        let spike = LoadSpike {
            device: devices.len(),
            at: 10.0,
            load: 0.5,
        };
        let err =
            simulate_load_spike(&model, &devices, &link, 8, 8, spike, 50.0, true).unwrap_err();
        assert!(
            matches!(
                err,
                SpikeError::BadSpike {
                    field: "device",
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("`device`"), "{err}");
    }

    #[test]
    fn a_spike_load_outside_the_unit_interval_is_a_typed_error() {
        let (model, devices, link) = setup();
        // A load outside `[0, 1)` is refused by name, and so are a spike
        // outside `[0, horizon)`, which never fires, and a horizon that is
        // not positive, which runs nothing.
        for (load, at, horizon, field) in [
            (1.0, 10.0, 50.0, "load"),
            (-0.1, 10.0, 50.0, "load"),
            (f64::NAN, 10.0, 50.0, "load"),
            (0.5, -5.0, 50.0, "at"),
            (0.5, 50.0, 50.0, "at"),
            (0.5, 10.0, 0.0, "horizon"),
        ] {
            let spike = LoadSpike {
                device: 0,
                at,
                load,
            };
            let err = simulate_load_spike(&model, &devices, &link, 8, 8, spike, horizon, true)
                .unwrap_err();
            assert!(
                matches!(err, SpikeError::BadSpike { field: f, .. } if f == field),
                "{load} at {at} of {horizon}: {err:?}"
            );
        }
    }

    /// `SchedulerConfig::schedule` picks the schedule, so a stall message
    /// must not claim one.
    #[test]
    fn stall_messages_name_no_schedule() {
        for err in [
            SpikeError::InitialPipelineStalled,
            SpikeError::SpikedPipelineStalled,
        ] {
            let msg = err.to_string();
            assert!(msg.contains("no executable schedule"), "{msg}");
            assert!(!msg.contains("1F1B"), "{msg}");
        }
    }
}

//! Typed trace records.
//!
//! All records carry **virtual** timestamps in seconds, read from the
//! simulation clock of whatever subsystem produced them. A trace keeps
//! them in recording order, which stays a total order even when two
//! records share a timestamp.

use ecofl_compat::serde::{Deserialize, Serialize};

/// Which subsystem produced a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Domain {
    /// The edge collaborative pipeline executor (§4).
    Pipeline,
    /// The §4.4 adaptive re-scheduler.
    Scheduler,
    /// The hierarchical FL engine (§5).
    Fl,
    /// Algorithm 1 dynamic re-grouping (§5.2).
    Grouping,
}

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpanKind {
    /// Forward pass of one micro-batch on one stage.
    Forward,
    /// Backward pass of one micro-batch on one stage.
    Backward,
    /// Activation-gradient half of a split backward (zero-bubble
    /// schedules): computes and sends the upstream gradient.
    BackwardInput,
    /// Weight-gradient half of a split backward (zero-bubble schedules):
    /// local work deferred into bubble time.
    BackwardWeight,
    /// Activation transfer to the next stage.
    CommForward,
    /// Gradient transfer to the previous stage.
    CommBackward,
    /// One client's simulated local-training window.
    LocalTrain,
    /// One intra-group (or FedAvg cohort) round, dispatch → merge.
    Round,
}

/// Instantaneous happenings (no duration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// The portal's EMA detector flagged a lagger stage.
    LaggerDetected,
    /// A partition migration was committed (value = bytes moved).
    Migration,
    /// The pipeline restarted after a migration (value = stall seconds).
    Restart,
    /// One inter-group/global aggregation was applied.
    Aggregation,
    /// A client moved between groups (value = destination group).
    RegroupMoved,
    /// A client was dropped to the drop-out pool.
    RegroupDropped,
    /// A dropped client rejoined (value = destination group).
    RegroupRejoined,
    /// A pipeline stage thread died (entity = stage; time = sync-round).
    StageDied,
    /// The runtime snapshotted parameters after a sync-round flush
    /// (time = value = checkpoint round).
    CheckpointTaken,
    /// A crashed sync-round was replayed to completion after recovery
    /// (time = value = replayed round).
    RoundReplayed,
}

/// The on-disk code of every variant, as stored in a columnar trace
/// block's shape byte (see `block.rs`). `code` is an exhaustive match, so
/// a new variant does not compile until it is given a code here, and
/// `from_code` is generated from the same table, so the two directions
/// cannot disagree. Codes are **append-only**: changing or reusing one
/// makes every store already on disk decode to the wrong variant. `$bits`
/// is the width of the type's field in the shape byte; a code that does
/// not fit fails the build.
macro_rules! block_codes {
    ($ty:ident: $bits:literal bits { $($variant:ident = $code:literal),+ $(,)? }) => {
        const _: () = assert!($($code < (1u8 << $bits))&&+);

        impl $ty {
            pub(crate) const fn code(self) -> u8 {
                match self {
                    $($ty::$variant => $code),+
                }
            }

            pub(crate) const fn from_code(code: u8) -> Option<$ty> {
                match code {
                    $($code => Some($ty::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

block_codes!(Domain: 2 bits {
    Pipeline = 0,
    Scheduler = 1,
    Fl = 2,
    Grouping = 3,
});

block_codes!(SpanKind: 4 bits {
    Forward = 0,
    Backward = 1,
    BackwardInput = 2,
    BackwardWeight = 3,
    CommForward = 4,
    CommBackward = 5,
    LocalTrain = 6,
    Round = 7,
});

block_codes!(EventKind: 4 bits {
    LaggerDetected = 0,
    Migration = 1,
    Restart = 2,
    Aggregation = 3,
    RegroupMoved = 4,
    RegroupDropped = 5,
    RegroupRejoined = 6,
    StageDied = 7,
    CheckpointTaken = 8,
    RoundReplayed = 9,
});

/// A duration: something ran from `t0` to `t1` in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Producing subsystem.
    pub domain: Domain,
    /// What the span measures.
    pub kind: SpanKind,
    /// Stage index (pipeline), client index (`LocalTrain`), or group
    /// index (`Round`).
    pub entity: usize,
    /// Sync-round (pipeline) or engine round tag (FL).
    pub round: usize,
    /// Micro-batch index; `0` where not applicable.
    pub micro: usize,
    /// Start, virtual seconds.
    pub t0: f64,
    /// End, virtual seconds.
    pub t1: f64,
}

/// An instantaneous event with an optional payload value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Producing subsystem.
    pub domain: Domain,
    /// What happened.
    pub kind: EventKind,
    /// Subject (stage, client, or group index).
    pub entity: usize,
    /// When, virtual seconds.
    pub time: f64,
    /// Payload (bytes moved, stall seconds, destination group, …).
    pub value: f64,
}

/// A named monotone counter increment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterRecord {
    /// Counter name (e.g. `"global_updates"`).
    pub name: String,
    /// When, virtual seconds.
    pub time: f64,
    /// Increment applied (≥ 0 by convention).
    pub delta: f64,
}

/// A named sampled value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeRecord {
    /// Gauge name (e.g. `"staleness_alpha"`, `"accuracy"`).
    pub name: String,
    /// When, virtual seconds.
    pub time: f64,
    /// Sampled value.
    pub value: f64,
}

/// One record in a trace: the closed sum of everything a [`Tracer`]
/// accepts.
///
/// [`Tracer`]: crate::Tracer
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceRecord {
    /// A duration.
    Span(SpanRecord),
    /// An instantaneous event.
    Event(EventRecord),
    /// A counter increment.
    Counter(CounterRecord),
    /// A gauge sample.
    Gauge(GaugeRecord),
}

impl TraceRecord {
    /// The record's timestamp: a span's start, otherwise its time.
    #[must_use]
    pub(crate) fn time(&self) -> f64 {
        match self {
            TraceRecord::Span(s) => s.t0,
            TraceRecord::Event(e) => e.time,
            TraceRecord::Counter(c) => c.time,
            TraceRecord::Gauge(g) => g.time,
        }
    }

    /// The span inside, if this is a span record.
    #[must_use]
    pub(crate) fn as_span(&self) -> Option<&SpanRecord> {
        match self {
            TraceRecord::Span(s) => Some(s),
            _ => None,
        }
    }

    /// The event inside, if this is an event record.
    #[must_use]
    pub(crate) fn as_event(&self) -> Option<&EventRecord> {
        match self {
            TraceRecord::Event(e) => Some(e),
            _ => None,
        }
    }
}

impl SpanRecord {
    /// Span duration in virtual seconds.
    #[must_use]
    pub(crate) fn duration(&self) -> f64 {
        self.t1 - self.t0
    }

    /// Whether this span is pipeline compute (forward or any backward
    /// phase, including the split halves of zero-bubble schedules).
    #[must_use]
    pub fn is_compute(&self) -> bool {
        self.domain == Domain::Pipeline
            && matches!(
                self.kind,
                SpanKind::Forward
                    | SpanKind::Backward
                    | SpanKind::BackwardInput
                    | SpanKind::BackwardWeight
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofl_compat::json;

    #[test]
    fn span_duration_and_compute() {
        let s = SpanRecord {
            domain: Domain::Pipeline,
            kind: SpanKind::Forward,
            entity: 1,
            round: 0,
            micro: 3,
            t0: 2.0,
            t1: 3.5,
        };
        assert!((s.duration() - 1.5).abs() < 1e-12);
        assert!(s.is_compute());
        let comm = SpanRecord {
            kind: SpanKind::CommForward,
            ..s
        };
        assert!(!comm.is_compute());
    }

    #[test]
    fn block_codes_are_pinned() {
        // These bytes are on disk in every columnar trace block: a code
        // may be appended, never changed. Each row reads both ways.
        macro_rules! pinned {
            ($ty:ident: $($variant:ident = $code:literal),+) => {{
                $(
                    assert_eq!($ty::$variant.code(), $code);
                    assert_eq!($ty::from_code($code), Some($ty::$variant));
                )+
                let count = [$($code),+].len() as u8;
                assert_eq!($ty::from_code(count), None, "an unpinned code");
            }};
        }
        pinned!(Domain: Pipeline = 0, Scheduler = 1, Fl = 2, Grouping = 3);
        pinned!(SpanKind: Forward = 0, Backward = 1, BackwardInput = 2, BackwardWeight = 3,
            CommForward = 4, CommBackward = 5, LocalTrain = 6, Round = 7);
        pinned!(EventKind: LaggerDetected = 0, Migration = 1, Restart = 2, Aggregation = 3,
            RegroupMoved = 4, RegroupDropped = 5, RegroupRejoined = 6, StageDied = 7,
            CheckpointTaken = 8, RoundReplayed = 9);
        assert_eq!(SpanKind::from_code(15), None);
        assert_eq!(EventKind::from_code(15), None);
    }

    #[test]
    fn records_serialize_as_tagged_variants() {
        let r = TraceRecord::Gauge(GaugeRecord {
            name: "accuracy".into(),
            time: 10.0,
            value: 0.5,
        });
        let text = json::to_string(&r).expect("serialize");
        assert!(text.contains("Gauge"), "externally tagged: {text}");
        let back: TraceRecord = json::from_str(&text).expect("parse");
        assert_eq!(back, r);
    }
}

//! The recording handle.
//!
//! A [`Tracer`] is cheap to clone: every clone shares one record store,
//! a `Vec` in recording order behind a lock, so a record is visible to
//! every handle the moment it is pushed. Every engine records on the
//! thread that runs it, so the lock is never contended.

use crate::record::{
    CounterRecord, Domain, EventKind, EventRecord, GaugeRecord, SpanKind, SpanRecord, TraceRecord,
};
use crate::view::TraceView;
use ecofl_compat::sync::Mutex;
use std::sync::Arc;

/// A virtual-time trace recorder.
///
/// See the [crate docs](crate) for the recording model. All timestamps
/// are virtual seconds supplied by the caller — a `Tracer` never reads a
/// clock itself.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    records: Arc<Mutex<Vec<TraceRecord>>>,
}

impl Tracer {
    /// Creates a tracer with an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&self, record: TraceRecord) {
        self.records.lock().push(record);
    }

    /// Records a span: `kind` ran on `entity` from `t0` to `t1` (virtual
    /// seconds) during `round`, micro-batch `micro`.
    ///
    /// # Panics
    /// Panics if the interval is inverted or non-finite.
    #[allow(clippy::too_many_arguments)] // flat arg list keeps call sites one line
    pub fn span(
        &self,
        domain: Domain,
        kind: SpanKind,
        entity: usize,
        round: usize,
        micro: usize,
        t0: f64,
        t1: f64,
    ) {
        assert!(
            t0.is_finite() && t1.is_finite() && t1 >= t0,
            "Tracer::span: bad interval [{t0}, {t1}]"
        );
        self.push(TraceRecord::Span(SpanRecord {
            domain,
            kind,
            entity,
            round,
            micro,
            t0,
            t1,
        }));
    }

    /// Records an instantaneous event with a payload value.
    ///
    /// # Panics
    /// Panics if `time` is not finite.
    pub fn event(&self, domain: Domain, kind: EventKind, entity: usize, time: f64, value: f64) {
        assert!(time.is_finite(), "Tracer::event: bad time {time}");
        self.push(TraceRecord::Event(EventRecord {
            domain,
            kind,
            entity,
            time,
            value,
        }));
    }

    /// Records a counter increment.
    ///
    /// # Panics
    /// Panics if `time` is not finite.
    pub fn counter(&self, name: &str, time: f64, delta: f64) {
        assert!(time.is_finite(), "Tracer::counter: bad time {time}");
        self.push(TraceRecord::Counter(CounterRecord {
            name: name.to_owned(),
            time,
            delta,
        }));
    }

    /// Records a gauge sample.
    ///
    /// # Panics
    /// Panics if `time` is not finite.
    pub fn gauge(&self, name: &str, time: f64, value: f64) {
        assert!(time.is_finite(), "Tracer::gauge: bad time {time}");
        self.push(TraceRecord::Gauge(GaugeRecord {
            name: name.to_owned(),
            time,
            value,
        }));
    }

    /// Snapshot of every record so far, from every clone, in recording
    /// order.
    #[must_use]
    pub fn records(&self) -> Vec<TraceRecord> {
        self.records.lock().clone()
    }

    /// Builds a queryable [`TraceView`] over a copy of the trace so far:
    /// the view of a live trace, which other handles may still extend.
    #[must_use]
    pub fn view(&self) -> TraceView {
        TraceView::from_records(self.records())
    }

    /// Takes the finished trace as a [`TraceView`] without copying it.
    /// Only if another handle is still alive is the trace copied, as
    /// [`Tracer::view`] would.
    #[must_use]
    pub fn into_view(self) -> TraceView {
        let records = match Arc::try_unwrap(self.records) {
            Ok(only) => std::mem::take(&mut *only.lock()),
            Err(shared) => shared.lock().clone(),
        };
        TraceView::from_records(records)
    }

    /// Hands the records from offset `from` on (`0` for the whole trace)
    /// to `read` where they lie, not copied, and returns the offset to
    /// resume from — the number of records so far — with `read`'s
    /// result. A thread that records meanwhile waits for `read`, so a
    /// caller that appends the tail to a [`RunStore`](crate::RunStore)
    /// and folds it gets the same records in both.
    pub fn read_tail<R>(&self, from: usize, read: impl FnOnce(&[TraceRecord]) -> R) -> (usize, R) {
        let records = self.records.lock();
        let out = read(records.get(from..).unwrap_or_default());
        (records.len(), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_store() {
        let a = Tracer::new();
        let b = a.clone();
        a.counter("x", 0.0, 1.0);
        b.counter("x", 1.0, 2.0);
        a.counter("x", 2.0, 3.0);
        let times = |t: &Tracer| {
            t.records()
                .iter()
                .map(TraceRecord::time)
                .collect::<Vec<_>>()
        };
        // Each handle sees the other's records at once, in recording order.
        assert_eq!(times(&a), [0.0, 1.0, 2.0]);
        assert_eq!(times(&b), times(&a));
        b.counter("x", 3.0, 4.0);
        drop(b);
        assert_eq!(times(&a), [0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn into_view_takes_the_trace_and_copies_only_a_shared_one() {
        let a = Tracer::new();
        a.counter("x", 0.0, 1.0);
        let b = a.clone();
        b.counter("x", 1.0, 2.0);
        // `b` is still alive: `a`'s view is a copy and `b` keeps recording.
        assert_eq!(a.into_view().records().len(), 2);
        b.counter("x", 2.0, 3.0);
        let (len, tail) = b.read_tail(1, <[TraceRecord]>::to_vec);
        assert_eq!((len, tail.len()), (3, 2));
        assert_eq!(b.read_tail(len, <[TraceRecord]>::len), (3, 0));
        assert_eq!(b.read_tail(99, <[TraceRecord]>::len), (3, 0));
        assert_eq!(b.into_view().records().len(), 3);
    }

    #[test]
    #[should_panic(expected = "bad interval")]
    fn rejects_inverted_span() {
        Tracer::new().span(Domain::Pipeline, SpanKind::Forward, 0, 0, 0, 2.0, 1.0);
    }
}

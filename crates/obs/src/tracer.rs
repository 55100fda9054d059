//! The recording handle.
//!
//! A [`Tracer`] is cheap to clone: every clone shares one record store,
//! a `Vec` in recording order behind a lock, so a record is visible to
//! every handle the moment it is pushed. Every engine records on the
//! thread that runs it, so the lock is never contended.

use crate::record::{
    CounterRecord, Domain, EventKind, EventRecord, GaugeRecord, SpanKind, SpanRecord, TraceRecord,
};
use crate::store::RunStore;
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

    /// Builds a queryable [`TraceView`] over a snapshot of the trace.
    #[must_use]
    pub fn view(&self) -> TraceView {
        TraceView::from_records(self.records())
    }

    /// Appends the records from offset `from` on (`0` for the whole
    /// trace) to `store` and flushes it, so another process can read the
    /// store mid-run. Returns the offset to resume from: the number of
    /// records so far. The records are written from where they lie, not
    /// copied, so a thread that records meanwhile waits for the write.
    ///
    /// # Errors
    /// Returns any serialization or I/O error from the store.
    pub fn persist(&self, store: &mut RunStore, from: usize) -> std::io::Result<usize> {
        let records = self.records.lock();
        store.append(records.get(from..).unwrap_or_default())?;
        store.flush()?;
        Ok(records.len())
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
    #[should_panic(expected = "bad interval")]
    fn rejects_inverted_span() {
        Tracer::new().span(Domain::Pipeline, SpanKind::Forward, 0, 0, 0, 2.0, 1.0);
    }
}

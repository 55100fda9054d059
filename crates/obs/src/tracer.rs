//! The recording handle.
//!
//! A [`Tracer`] is cheap to clone: every clone shares one buffer, a
//! `Vec` in recording order behind a lock, so a record is visible to
//! every handle the moment it is pushed. Every engine records on the
//! thread that runs it, so the lock is never contended.
//!
//! A tracer made from a [`RunStore`] (`Tracer::from(store)`) writes
//! into it while it records: its buffer holds less than one block, and
//! when the buffer reaches the store's records-per-block it is encoded,
//! appended and cleared under the same lock. The blocks are then the
//! ones [`RunStore::append`] cuts from the whole trace, so the store's
//! bytes do not depend on which of the two wrote them.
//! [`Tracer::into_store`] writes the tail and seals the store; a
//! store-backed tracer dropped without it, or one whose writes failed,
//! cuts the store's trace back to what it held before.

use crate::record::{
    CounterRecord, Domain, EventKind, EventRecord, GaugeRecord, SpanKind, SpanRecord, TraceRecord,
};
use crate::store::RunStore;
use crate::view::TraceView;
use ecofl_compat::sync::Mutex;
use std::io;
use std::sync::Arc;

/// A virtual-time trace recorder.
///
/// See the [crate docs](crate) for the recording model. All timestamps
/// are virtual seconds supplied by the caller — a `Tracer` never reads a
/// clock itself.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    shared: Arc<Mutex<Shared>>,
}

/// What every clone of a [`Tracer`] shares.
#[derive(Debug, Default)]
struct Shared {
    /// The records not written to a store: the whole trace of an
    /// in-memory tracer, less than one block of a store-backed one.
    records: Vec<TraceRecord>,
    /// Where a store-backed tracer writes its blocks.
    sink: Option<Sink>,
}

/// A store-backed tracer's store, and how far its writes got.
#[derive(Debug)]
struct Sink {
    store: RunStore,
    /// Trace blocks the store held before this tracer wrote any.
    blocks_before: usize,
    /// The first append error; nothing is written after it.
    written: io::Result<()>,
}

impl Sink {
    fn write(&mut self, records: &[TraceRecord]) {
        if self.written.is_ok() {
            self.written = self.store.append(records);
        }
    }

    /// Undoes this tracer's appends; the store's trace is what it was.
    fn roll_back(&mut self) {
        // Best effort, like `Segment`'s seal on drop: there is no caller
        // left to report to.
        let _ = self.store.truncate_trace(self.blocks_before);
    }
}

impl Drop for Shared {
    fn drop(&mut self) {
        // The last handle is gone and `into_store` never took the store:
        // the trace was abandoned, so its blocks are not kept.
        if let Some(sink) = &mut self.sink {
            sink.roll_back();
        }
    }
}

impl From<RunStore> for Tracer {
    /// A tracer that writes into `store` as it records, one block of
    /// [`RunStore::with_block_records`] records at a time; see
    /// [`Tracer::into_store`].
    fn from(store: RunStore) -> Tracer {
        let sink = Sink {
            blocks_before: store.trace_blocks().len(),
            store,
            written: Ok(()),
        };
        Tracer {
            shared: Arc::new(Mutex::new(Shared {
                records: Vec::new(),
                sink: Some(sink),
            })),
        }
    }
}

impl Tracer {
    /// Creates a tracer that keeps its trace in memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&self, record: TraceRecord) {
        let mut shared = self.shared.lock();
        let Shared { records, sink } = &mut *shared;
        records.push(record);
        if let Some(sink) = sink {
            if records.len() >= sink.store.block_records() {
                sink.write(records);
                records.clear();
            }
        }
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
    /// order. A store-backed tracer holds only the records of the block
    /// it has not yet written, so that is all it returns.
    #[must_use]
    pub fn records(&self) -> Vec<TraceRecord> {
        self.shared.lock().records.clone()
    }

    /// Builds a queryable [`TraceView`] over a copy of the trace so far:
    /// the view of a live trace, which other handles may still extend.
    /// Of a store-backed tracer it views what [`Tracer::records`]
    /// returns, the unwritten tail.
    #[must_use]
    pub fn view(&self) -> TraceView {
        TraceView::from_records(self.records())
    }

    /// Writes the records not yet in the store as its last block, seals
    /// the store and hands it back. Clones that outlive this call keep
    /// recording, into memory.
    ///
    /// # Errors
    /// Returns the first error of any block write or of the seal, and
    /// then leaves the store's trace as it was before this tracer wrote
    /// to it; `InvalidInput` if the tracer writes into no store.
    pub fn into_store(self) -> io::Result<RunStore> {
        let (sink, tail) = {
            let mut shared = self.shared.lock();
            (shared.sink.take(), std::mem::take(&mut shared.records))
        };
        let Some(mut sink) = sink else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "Tracer::into_store: this tracer writes into no store",
            ));
        };
        sink.write(&tail);
        let sealed = std::mem::replace(&mut sink.written, Ok(())).and_then(|()| sink.store.flush());
        match sealed {
            Ok(()) => Ok(sink.store),
            Err(e) => {
                sink.roll_back();
                Err(e)
            }
        }
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
        let err = a
            .into_store()
            .expect_err("an in-memory tracer has no store");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    #[should_panic(expected = "bad interval")]
    fn rejects_inverted_span() {
        Tracer::new().span(Domain::Pipeline, SpanKind::Forward, 0, 0, 0, 2.0, 1.0);
    }
}

//! The recording handle.
//!
//! A [`Tracer`] is cheap to clone: every clone shares one record store
//! but owns a private staging buffer, so the hot recording path is a
//! plain `Vec::push` with no lock. Buffers merge into the shared store
//! when they fill, on [`Tracer::flush`], and on drop. Records carry a
//! process-wide sequence number assigned at record time, so the merged
//! trace has one deterministic total order regardless of which handle
//! recorded what.

use crate::record::{
    CounterRecord, Domain, EventKind, EventRecord, GaugeRecord, SpanKind, SpanRecord, TraceRecord,
};
use crate::view::TraceView;
use ecofl_compat::sync::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Records staged per handle before merging into the shared store.
const FLUSH_THRESHOLD: usize = 4096;

#[derive(Debug, Default)]
struct Shared {
    merged: Mutex<Vec<(u64, TraceRecord)>>,
    seq: AtomicU64,
}

/// A virtual-time trace recorder.
///
/// See the [crate docs](crate) for the recording model. All timestamps
/// are virtual seconds supplied by the caller — a `Tracer` never reads a
/// clock itself.
#[derive(Debug)]
pub struct Tracer {
    shared: Arc<Shared>,
    local: RefCell<Vec<(u64, TraceRecord)>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Tracer {
    /// A clone shares the store but starts with an empty staging buffer.
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
            local: RefCell::new(Vec::new()),
        }
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        self.flush();
    }
}

impl Tracer {
    /// Creates a tracer with an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self {
            shared: Arc::new(Shared::default()),
            local: RefCell::new(Vec::new()),
        }
    }

    fn push(&self, record: TraceRecord) {
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        let mut local = self.local.borrow_mut();
        local.push((seq, record));
        if local.len() >= FLUSH_THRESHOLD {
            self.shared.merged.lock().append(&mut local);
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

    /// Merges this handle's staged records into the shared store.
    pub(crate) fn flush(&self) {
        let mut local = self.local.borrow_mut();
        if !local.is_empty() {
            self.shared.merged.lock().append(&mut local);
        }
    }

    /// Snapshot of every record merged so far (including this handle's
    /// staged ones), in recording order. Records staged in *other* live
    /// handles are invisible until those handles flush or drop.
    ///
    /// Each record is cloned once: references are sorted by `seq`, which
    /// puts interleaved flushes from several handles back in order.
    #[must_use]
    pub fn records(&self) -> Vec<TraceRecord> {
        self.flush();
        let merged = self.shared.merged.lock();
        let mut order: Vec<&(u64, TraceRecord)> = merged.iter().collect();
        order.sort_unstable_by_key(|&&(seq, _)| seq);
        order.into_iter().map(|(_, r)| r.clone()).collect()
    }

    /// Builds a queryable [`TraceView`] over a snapshot of the trace.
    #[must_use]
    pub fn view(&self) -> TraceView {
        TraceView::from_records(self.records())
    }

    /// Appends a snapshot of the trace to `store` and flushes it,
    /// returning how many records were persisted.
    ///
    /// # Errors
    /// Returns any serialization or I/O error from the store.
    pub fn persist(&self, store: &mut crate::store::RunStore) -> std::io::Result<usize> {
        let records = self.records();
        store.append(&records)?;
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
        b.flush();
        assert_eq!(a.records().len(), 2);
    }

    #[test]
    fn records_keep_recording_order() {
        // One handle, flushing past the threshold twice: the merged
        // buffer stays in `seq` order.
        let n = super::FLUSH_THRESHOLD as u32 * 2 + 5;
        let t = Tracer::new();
        for i in 0..n {
            t.gauge("g", f64::from(i), f64::from(i));
        }
        let recs = t.records();
        assert!(merged_in_seq_order(&t));
        assert_eq!(recs, sorted_by_seq(&t));
        let times: Vec<f64> = recs.iter().map(super::TraceRecord::time).collect();
        assert_eq!(times, (0..n).map(f64::from).collect::<Vec<_>>());
    }

    /// Oracle: every merged record, its `(seq, record)` tuples cloned and
    /// sorted by `seq`.
    fn sorted_by_seq(t: &Tracer) -> Vec<TraceRecord> {
        let mut tagged = t.shared.merged.lock().clone();
        tagged.sort_by_key(|&(seq, _)| seq);
        tagged.into_iter().map(|(_, r)| r).collect()
    }

    fn merged_in_seq_order(t: &Tracer) -> bool {
        t.shared.merged.lock().windows(2).all(|w| w[0].0 < w[1].0)
    }

    #[test]
    fn interleaved_clones_come_back_in_recording_order() {
        let a = Tracer::new();
        let b = a.clone();
        for i in 0..200u32 {
            let (this, other) = if i % 2 == 0 { (&a, &b) } else { (&b, &a) };
            let name = if i % 2 == 0 { "a" } else { "b" };
            if i % 3 == 0 {
                this.counter(name, f64::from(i), 1.0);
            } else {
                this.span(
                    Domain::Pipeline,
                    SpanKind::Forward,
                    0,
                    0,
                    0,
                    f64::from(i),
                    f64::from(i),
                );
            }
            // Uneven flushes: each handle's runs land out of `seq` order.
            if i % 7 == 3 {
                this.flush();
            }
            if i % 11 == 5 {
                other.flush();
            }
        }
        b.flush();
        a.flush();
        assert!(!merged_in_seq_order(&a), "the case must exercise the sort");
        let recs = a.records();
        assert_eq!(recs, sorted_by_seq(&a));
        let times: Vec<f64> = recs.iter().map(TraceRecord::time).collect();
        assert_eq!(times, (0..200).map(f64::from).collect::<Vec<_>>());
    }

    #[test]
    fn drop_merges_staged_records() {
        let a = Tracer::new();
        {
            let b = a.clone();
            b.counter("dropped", 0.0, 1.0);
        }
        assert_eq!(a.records().len(), 1);
    }

    #[test]
    fn auto_flush_past_threshold() {
        let t = Tracer::new();
        for i in 0..(super::FLUSH_THRESHOLD + 10) {
            t.counter("c", i as f64, 1.0);
        }
        assert!(t.local.borrow().len() < super::FLUSH_THRESHOLD);
        assert_eq!(t.records().len(), super::FLUSH_THRESHOLD + 10);
    }

    #[test]
    #[should_panic(expected = "bad interval")]
    fn rejects_inverted_span() {
        Tracer::new().span(Domain::Pipeline, SpanKind::Forward, 0, 0, 0, 2.0, 1.0);
    }
}

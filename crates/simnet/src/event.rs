//! Deterministic discrete-event queue.
//!
//! Events are ordered by `(time, insertion sequence)`: when two events share
//! a timestamp the one scheduled first fires first. This makes every
//! simulation trace a pure function of its inputs — a property the
//! integration tests assert and the bench harness relies on.
//!
//! The queue is a `BinaryHeap` keyed on `(time, seq)`. Measured pending
//! depths are 1–20 events in every FL and pipeline scenario the CLI runs
//! (256 only under `fedasync --clients-per-round 256`), where the heap's
//! pop + schedule costs 27–55 ns; DESIGN.md §11 has the numbers and why
//! the calendar queue that used to sit here was removed.

use crate::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first ordering.
        // `total_cmp` is a true total order over f64, so comparison can
        // never panic (NaN is rejected at `schedule` time anyway).
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered event queue with deterministic tie-breaking.
///
/// # Examples
///
/// ```
/// use ecofl_simnet::EventQueue;
/// let mut q = EventQueue::new();
/// q.schedule(2.0, "late");
/// q.schedule(1.0, "early");
/// assert_eq!(q.pop(), Some((1.0, "early")));
/// assert_eq!(q.pop(), Some((2.0, "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
        }
    }

    /// Current simulation time: the timestamp of the last popped event.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is NaN or earlier than the current time (events may
    /// not be scheduled into the past).
    pub fn schedule(&mut self, time: SimTime, event: E) {
        assert!(time.is_finite(), "EventQueue: non-finite time {time}");
        assert!(
            time >= self.now,
            "EventQueue: scheduling into the past ({time} < {})",
            self.now
        );
        self.heap.push(Scheduled {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Schedules `event` after a non-negative delay from now.
    ///
    /// # Panics
    /// Panics if `delay` is negative or NaN.
    pub fn schedule_after(&mut self, delay: SimTime, event: E) {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "EventQueue: bad delay {delay}"
        );
        self.schedule(self.now + delay, event);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| {
            self.now = s.time;
            (s.time, s.event)
        })
    }

    /// Timestamp of the next event without popping it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(3.0, 3);
        q.schedule(1.0, 1);
        q.schedule(2.0, 2);
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(1.0, i);
        }
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn identical_timestamps_tie_break_fifo_under_total_cmp() {
        // Regression for the total_cmp ordering: exact-equal (NaN-free)
        // timestamps must still break ties by insertion sequence, even
        // when scheduling interleaves with popping at the tied instant.
        let mut q = EventQueue::new();
        let t = 123.456_f64;
        q.schedule(t, 1);
        q.schedule(t, 2);
        assert_eq!(q.pop(), Some((t, 1)));
        q.schedule(t, 3);
        assert_eq!(q.pop(), Some((t, 2)));
        assert_eq!(q.pop(), Some((t, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(5.0, 0);
        assert_eq!(q.now(), 0.0);
        let _ = q.pop();
        assert_eq!(q.now(), 5.0);
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(2.0, 1);
        let _ = q.pop();
        q.schedule_after(3.0, 2);
        assert_eq!(q.pop(), Some((5.0, 2)));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn rejects_scheduling_into_past() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        let _ = q.pop();
        q.schedule(4.0, ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(7.0, 0);
        assert_eq!(q.peek_time(), Some(7.0));
        assert_eq!(q.now(), 0.0);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}

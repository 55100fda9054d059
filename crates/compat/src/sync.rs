//! Synchronization primitives: a panic-tolerant [`Mutex`] (replacing
//! parking_lot) and MPMC channels (replacing `crossbeam::channel`).
//!
//! Only the surface this workspace uses is replicated: `Mutex::lock`
//! returning a guard directly (no poison `Result`), and
//! bounded/unbounded channels whose `Sender` *and* `Receiver` are
//! cloneable, with disconnect-aware blocking `send`/`recv`.
//!
//! **Why not `std::sync::mpsc`:** every activation, gradient and reply of
//! the threaded runtime waits in these channels, and std's `Receiver`
//! cannot be cloned nor its wait tuned (see [`channel`]). Swapped in for
//! the runtime's channels, it took `ecofl spike --devices tx2q,nanoh
//! --rounds 2000 --kill-round 1000 --kill-micro 1 --kill-stage 0|1
//! --seed 5` 0.335 s [0.331, 0.350] against 0.184 s [0.179, 0.188] here
//! (median [q1, q3], 10 alternating pairs, 2-vCPU x86-64 Linux VM; std
//! faster in 0/10).

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard};

/// A cheaply-clonable shared immutable handle (an alias of
/// [`std::sync::Arc`]). Used where the simulator hands one snapshot —
/// e.g. the global model's weight vector — to many concurrent readers:
/// cloning a `Shared<Vec<f32>>` is a reference-count bump, not a copy
/// of the vector, so per-client weight materialization is deferred to
/// the moment training actually needs a mutable copy.
pub type Shared<T> = Arc<T>;

/// A mutual-exclusion lock with parking_lot's calling convention:
/// `lock()` returns the guard directly. A panic while holding the lock
/// does not poison it for later users (the protected invariants in this
/// workspace are all recoverable counters/statistics).
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Self {
        Self {
            inner: StdMutex::new(value),
        }
    }

    /// Acquires the lock, blocking the current thread.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Multi-producer multi-consumer channels: a `VecDeque` under one lock
/// with two condition variables — the threaded pipeline runtime's only
/// blocking primitive, so its hand-off cost is the runtime's.
///
/// **A receiver backs off before it parks.** A stage's reply is usually
/// microseconds away, and parking for it puts a `futex` sleep and a
/// cross-CPU wake-up (tens of µs in a VM) on the round's critical path.
/// So an empty `recv` first watches an atomic mirror of the queue length
/// (and the sender count, so a disconnect ends the wait too) for
/// `SPIN_HINTS` `spin_loop` turns, then `YIELDS` `yield_now` turns —
/// crossbeam-channel's `Backoff::snooze` shape — and only then takes the
/// lock and parks. The two counts are private constants, not knobs; a
/// host with fewer cores than threads dictates their shape, because the
/// peer a spinner waits for may need the spinner's core. On 2 vCPUs with
/// three runtime threads (the benchmark's `rt_1f1b_recover`, wall
/// seconds, one run each): no back-off 2.06; 16 hints + 4 / 16 / 64 / 128 / 512 / 4096
/// yields 1.62 / 0.46 / 0.40 / 0.41 / 0.43 / 0.42; 256 hints + 128
/// yields 0.56; spinning alone for 5 / 20 / 50 / 200 µs 1.27 / 1.74 /
/// 1.78 / 3.68. Yielding is what pays and spinning is poison, and the
/// whole window stays far below any timeout a caller can state.
///
/// **A wake-up goes only to a parked peer.** `Condvar::notify_one` is a
/// system call whether or not anyone sleeps, so the queue keeps, under
/// its lock, how many receivers and senders are parked, and `send` /
/// `recv` notify only when that count is non-zero. No wake-up can be
/// lost: a waiter counts itself in under the lock before `Condvar::wait`
/// releases it, and the notifier reads the count under the same lock
/// after its push or pop. A disconnect notifies everyone, always.
pub mod channel {
    use super::{fmt, Arc, AtomicUsize, Condvar, Ordering, StdMutex, VecDeque};
    use std::sync::{MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    /// Error returned by [`Sender::send`] when every receiver is gone;
    /// carries the rejected message like crossbeam's.
    #[derive(Clone, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Elides the payload so `T: Debug` is not required (crossbeam
    /// does the same — senders of non-Debug control messages still get
    /// `.expect()`).
    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty
    /// and every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty, disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv_timeout_timed`]: the wait is bounded
    /// both by sender disconnects and by wall-clock time, so a caller
    /// supervising worker threads can never hang on a dead peer.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The deadline elapsed with the channel still empty (senders
        /// may or may not still be alive).
        Timeout,
        /// The channel is empty and every sender has been dropped.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => write!(f, "timed out waiting on channel"),
                RecvTimeoutError::Disconnected => {
                    write!(f, "receiving on an empty, disconnected channel")
                }
            }
        }
    }

    /// A receiver's back-off before it parks (why these, and why they
    /// are not knobs: the module docs).
    const SPIN_HINTS: u32 = 16;
    const YIELDS: u32 = 128;

    /// What the queue lock protects; the parked counts are written only
    /// under it (the module docs say why that loses no wake-up).
    struct Queue<T> {
        items: VecDeque<T>,
        /// Receivers inside a `not_empty` wait.
        parked_receivers: usize,
        /// Senders inside a `not_full` wait.
        parked_senders: usize,
    }

    type Guard<'a, T> = MutexGuard<'a, Queue<T>>;

    struct Shared<T> {
        queue: StdMutex<Queue<T>>,
        /// Mirror of `items.len()`, stored under the lock and read
        /// without it by a receiver's back-off. A hint only: every
        /// decision is made again under the lock.
        len: AtomicUsize,
        /// `None` = unbounded.
        capacity: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> Guard<'_, T> {
            self.queue.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Pops the head and, lock released, wakes one parked sender if
        /// there is one; hands the guard back when the queue is empty.
        fn pop<'a>(&self, mut queue: Guard<'a, T>) -> Result<T, Guard<'a, T>> {
            let Some(value) = queue.items.pop_front() else {
                return Err(queue);
            };
            self.len.store(queue.items.len(), Ordering::SeqCst);
            let wake = queue.parked_senders > 0;
            drop(queue);
            if wake {
                self.not_full.notify_one();
            }
            Ok(value)
        }

        /// Waits a bounded while, without the lock, for a message or for
        /// the last sender to go.
        fn back_off(&self) {
            for turn in 0..SPIN_HINTS + YIELDS {
                if self.len.load(Ordering::SeqCst) > 0 || self.senders.load(Ordering::SeqCst) == 0 {
                    return;
                }
                if turn < SPIN_HINTS {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }

        /// The last peer on one side is gone: wake every waiter of the
        /// other side. Passing through the lock first orders the wake
        /// after any waiter that read the old peer count but has not
        /// parked yet.
        fn disconnect(&self, waiters: &Condvar) {
            drop(self.lock());
            waiters.notify_all();
        }
    }

    /// The sending half; clone freely for multiple producers.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; clone freely for multiple consumers.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Sender<T> {
        /// Sends a message, blocking while a bounded channel is full.
        ///
        /// # Errors
        /// Returns the message if all receivers have been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let shared = &*self.shared;
            let mut queue = shared.lock();
            loop {
                if shared.receivers.load(Ordering::SeqCst) == 0 {
                    return Err(SendError(value));
                }
                match shared.capacity {
                    Some(cap) if queue.items.len() >= cap => {
                        queue.parked_senders += 1;
                        let parked = shared.not_full.wait(queue);
                        queue = parked.unwrap_or_else(PoisonError::into_inner);
                        queue.parked_senders -= 1;
                    }
                    _ => break,
                }
            }
            queue.items.push_back(value);
            shared.len.store(queue.items.len(), Ordering::SeqCst);
            let wake = queue.parked_receivers > 0;
            drop(queue);
            if wake {
                shared.not_empty.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// The one receive loop: a short back-off, then parked until a
        /// message, the last sender's drop or `deadline` (`None`: never).
        fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
            let shared = &*self.shared;
            shared.back_off();
            let mut queue = shared.lock();
            loop {
                queue = match shared.pop(queue) {
                    Ok(value) => return Ok(value),
                    Err(queue) => queue,
                };
                if shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
                if remaining.is_some_and(|r| r.is_zero()) {
                    return Err(RecvTimeoutError::Timeout);
                }
                queue.parked_receivers += 1;
                queue = match remaining {
                    Some(remaining) => {
                        let parked = shared.not_empty.wait_timeout(queue, remaining);
                        parked.unwrap_or_else(PoisonError::into_inner).0
                    }
                    None => {
                        let parked = shared.not_empty.wait(queue);
                        parked.unwrap_or_else(PoisonError::into_inner)
                    }
                };
                queue.parked_receivers -= 1;
            }
        }

        /// Receives a message, blocking while the channel is empty.
        ///
        /// # Errors
        /// Returns [`RecvError`] if the channel is empty and all senders
        /// have been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.recv_until(None).map_err(|_| RecvError)
        }

        /// Receives a message, blocking at most `timeout`: the
        /// disconnect-aware bounded wait that failure supervision is
        /// built on. Returns as soon as a message arrives, every sender
        /// disconnects, or the deadline passes — whichever is first.
        /// Also returns a wall-clock measurement of how long the call
        /// actually blocked — the timing hook the runtime's
        /// channel-wait profiling is built on. The returned
        /// duration covers the whole call (back-off and parked wait to
        /// outcome), so an immediate pop reports a near-zero wait and a
        /// timeout reports approximately `timeout`. `Timeout` is never
        /// returned before the deadline; the back-off does not look at
        /// the clock, so a `timeout` shorter than its window can run
        /// over by that window.
        ///
        /// # Errors
        /// [`RecvTimeoutError::Disconnected`] if the channel is empty
        /// with all senders dropped, [`RecvTimeoutError::Timeout`] if
        /// the deadline elapsed first.
        pub fn recv_timeout_timed(
            &self,
            timeout: Duration,
        ) -> (Result<T, RecvTimeoutError>, Duration) {
            let start = Instant::now();
            let outcome = self.recv_until(Some(start + timeout));
            (outcome, start.elapsed())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::SeqCst);
            Self {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::SeqCst);
            Self {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.shared.disconnect(&self.shared.not_empty);
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.shared.receivers.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.shared.disconnect(&self.shared.not_full);
            }
        }
    }

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: StdMutex::new(Queue {
                items: VecDeque::new(),
                parked_receivers: 0,
                parked_senders: 0,
            }),
            len: AtomicUsize::new(0),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// Creates a channel with unlimited buffering.
    #[must_use]
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a channel that holds at most `cap` in-flight messages;
    /// `send` blocks while full, which is what keeps pipeline stage
    /// memory honest.
    ///
    /// # Panics
    /// Panics if `cap` is zero (rendezvous channels are not supported).
    #[must_use]
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        assert!(cap > 0, "bounded channel capacity must be positive");
        with_capacity(Some(cap))
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, unbounded, RecvError, RecvTimeoutError, SendError};
    use super::Mutex;
    use crate::check::CheckRng;
    use std::sync::{Arc, Barrier};
    use std::time::{Duration, Instant};

    /// Runs `body` on its own thread and fails, instead of hanging, if it
    /// is not done within a minute: a lost wake-up parks a thread for
    /// good. (The verdict comes over a std channel, not the one on trial.)
    fn under_watchdog<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = done_tx.send(body());
        });
        match done_rx.recv_timeout(Duration::from_secs(60)) {
            Ok(value) => {
                worker.join().expect("worker finished");
                value
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("watchdog: a channel operation hung")
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().expect_err("worker panicked"))
            }
        }
    }

    /// Seeded scheduling noise: mostly nothing, sometimes a yield, rarely
    /// a sleep long enough that the peers run out of back-off and park.
    fn jitter(rng: &mut CheckRng) {
        match rng.below(512) {
            0 => std::thread::sleep(Duration::from_millis(1)),
            1..=4 => std::thread::sleep(Duration::from_micros(50)),
            5..=40 => std::thread::yield_now(),
            _ => {}
        }
    }

    #[test]
    fn mutex_basic_and_poison_tolerant() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1, "lock still usable after a panic");
    }

    #[test]
    fn unbounded_fifo_across_threads() {
        let (tx, rx) = unbounded::<u32>();
        let producer = std::thread::spawn(move || {
            for i in 0..1000 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        for _ in 0..1000 {
            got.push(rx.recv().unwrap());
        }
        producer.join().unwrap();
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
        assert_eq!(rx.recv(), Err(RecvError), "senders gone, queue empty");
    }

    #[test]
    fn bounded_blocks_producer_until_consumed() {
        let (tx, rx) = bounded::<u32>(2);
        let producer = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        for _ in 0..100 {
            got.push(rx.recv().unwrap());
        }
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn recv_timeout_returns_a_queued_message_immediately() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(7).unwrap();
        assert_eq!(rx.recv_timeout_timed(Duration::from_millis(1)).0, Ok(7));
    }

    #[test]
    fn recv_timeout_observes_disconnect_before_deadline() {
        let (tx, rx) = unbounded::<u32>();
        let dropper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop(tx);
        });
        let start = Instant::now();
        assert_eq!(
            rx.recv_timeout_timed(Duration::from_secs(60)).0,
            Err(RecvTimeoutError::Disconnected)
        );
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "disconnect must end the wait long before the deadline"
        );
        dropper.join().unwrap();
    }

    #[test]
    fn recv_timeout_wakes_on_late_send() {
        let (tx, rx) = unbounded::<u32>();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(9).unwrap();
        });
        assert_eq!(rx.recv_timeout_timed(Duration::from_secs(60)).0, Ok(9));
        sender.join().unwrap();
    }

    #[test]
    fn recv_timeout_timed_measures_the_blocked_wait() {
        // Immediate pop: near-zero wait.
        let (tx, rx) = unbounded::<u32>();
        tx.send(7).unwrap();
        let (got, waited) = rx.recv_timeout_timed(Duration::from_secs(60));
        assert_eq!(got, Ok(7));
        assert!(waited < Duration::from_secs(1), "no blocking to report");

        // Full timeout: the measurement covers the deadline.
        let (_tx2, rx2) = unbounded::<u32>();
        let (got, waited) = rx2.recv_timeout_timed(Duration::from_millis(30));
        assert_eq!(got, Err(RecvTimeoutError::Timeout));
        assert!(waited >= Duration::from_millis(25), "waited {waited:?}");

        // Late send: the measurement covers the actual block, not the
        // full timeout.
        let (tx3, rx3) = unbounded::<u32>();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx3.send(9).unwrap();
        });
        let (got, waited) = rx3.recv_timeout_timed(Duration::from_secs(60));
        assert_eq!(got, Ok(9));
        assert!(waited >= Duration::from_millis(10), "waited {waited:?}");
        assert!(waited < Duration::from_secs(30), "waited {waited:?}");
        sender.join().unwrap();
    }

    #[test]
    fn send_fails_after_all_receivers_drop() {
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn cloned_receivers_share_the_stream() {
        let (tx, rx1) = unbounded::<u32>();
        let rx2 = rx1.clone();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let a = rx1.recv().unwrap();
        let b = rx2.recv().unwrap();
        let mut both = vec![a, b];
        both.sort_unstable();
        assert_eq!(both, vec![1, 2], "each message delivered exactly once");
    }

    #[test]
    fn capacity_one_ping_pong_of_100k_messages() {
        under_watchdog(|| {
            let (ping_tx, ping_rx) = bounded::<u32>(1);
            let (pong_tx, pong_rx) = bounded::<u32>(1);
            let echo = std::thread::spawn(move || {
                while let Ok(i) = ping_rx.recv() {
                    pong_tx.send(i).unwrap();
                }
            });
            for i in 0..100_000 {
                ping_tx.send(i).unwrap();
                assert_eq!(pong_rx.recv(), Ok(i));
            }
            drop(ping_tx);
            echo.join().unwrap();
            assert_eq!(pong_rx.recv(), Err(RecvError));
        });
    }

    #[test]
    fn jittered_mpmc_delivers_each_message_once_in_producer_order() {
        const PER_PRODUCER: u64 = 3000;
        under_watchdog(|| {
            let (tx, rx) = bounded::<(u64, u64)>(3);
            let producers: Vec<_> = (0..4u64)
                .map(|p| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        let mut rng = CheckRng::new(p);
                        for i in 0..PER_PRODUCER {
                            jitter(&mut rng);
                            tx.send((p, i)).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);
            let consumers: Vec<_> = (0..3u64)
                .map(|c| {
                    let rx = rx.clone();
                    std::thread::spawn(move || {
                        let mut rng = CheckRng::new(100 + c);
                        let mut got = Vec::new();
                        while let Ok(message) = rx.recv() {
                            got.push(message);
                            jitter(&mut rng);
                        }
                        got
                    })
                })
                .collect();
            drop(rx);
            for producer in producers {
                producer.join().unwrap();
            }
            let mut all = Vec::new();
            for consumer in consumers {
                let got = consumer.join().unwrap();
                // The queue is FIFO, so what one consumer took from one
                // producer it took in the order that producer sent it.
                for p in 0..4 {
                    let from_p: Vec<u64> = got.iter().filter(|m| m.0 == p).map(|m| m.1).collect();
                    assert!(from_p.windows(2).all(|w| w[0] < w[1]), "producer {p}");
                }
                all.extend(got);
            }
            all.sort_unstable();
            let expect: Vec<(u64, u64)> = (0..4)
                .flat_map(|p| (0..PER_PRODUCER).map(move |i| (p, i)))
                .collect();
            assert_eq!(all, expect, "every message exactly once");
        });
    }

    #[test]
    fn a_waiting_receiver_sees_the_last_sender_go() {
        // The sender goes the moment the receiver starts waiting (inside
        // its back-off, or between its last look and parking), and once
        // after the receiver has surely parked.
        for round in 0..=2000 {
            under_watchdog(move || {
                let (tx, rx) = unbounded::<u32>();
                let start = Arc::new(Barrier::new(2));
                let receiver = {
                    let start = Arc::clone(&start);
                    std::thread::spawn(move || {
                        start.wait();
                        (
                            rx.recv(),
                            rx.recv_timeout_timed(Duration::from_secs(3600)).0,
                        )
                    })
                };
                start.wait();
                if round == 2000 {
                    std::thread::sleep(Duration::from_millis(50));
                }
                let dropped = Instant::now();
                drop(tx);
                let (blocking, bounded) = receiver.join().unwrap();
                assert_eq!(blocking, Err(RecvError));
                assert_eq!(bounded, Err(RecvTimeoutError::Disconnected));
                assert!(dropped.elapsed() < Duration::from_secs(10), "round {round}");
            });
        }
    }

    #[test]
    fn a_sender_blocked_on_a_full_queue_sees_the_last_receiver_go() {
        for round in 0..=2000 {
            under_watchdog(move || {
                let (tx, rx) = bounded::<u32>(1);
                tx.send(1).unwrap();
                let start = Arc::new(Barrier::new(2));
                let sender = {
                    let start = Arc::clone(&start);
                    std::thread::spawn(move || {
                        start.wait();
                        tx.send(2)
                    })
                };
                start.wait();
                if round == 2000 {
                    std::thread::sleep(Duration::from_millis(50));
                }
                let dropped = Instant::now();
                drop(rx);
                assert_eq!(sender.join().unwrap(), Err(SendError(2)));
                assert!(dropped.elapsed() < Duration::from_secs(10), "round {round}");
            });
        }
    }

    #[test]
    fn recv_timeout_never_times_out_before_its_deadline() {
        under_watchdog(|| {
            let (_tx, rx) = unbounded::<u32>();
            for millis in [0, 1, 3, 10, 40] {
                let timeout = Duration::from_millis(millis);
                let start = Instant::now();
                let (got, waited) = rx.recv_timeout_timed(timeout);
                let elapsed = start.elapsed();
                assert_eq!(got, Err(RecvTimeoutError::Timeout));
                assert!(elapsed >= timeout, "{elapsed:?} of {timeout:?}");
                // The reported wait is the call's: back-off included.
                assert!(waited >= timeout && waited <= elapsed, "{waited:?}");
            }
        });
    }
}

//! Differential property suite: [`EventQueue`] must be pop-for-pop
//! identical to a stable-sorted `Vec` model — same `(time, event)`
//! sequence, same clock, same lengths — under random schedule/pop
//! interleavings (tie storms where the FIFO insertion-sequence contract
//! is the only thing separating events, far-future gaps, everything at
//! one instant) and under 10⁵-event soaks.

use ecofl_simnet::EventQueue;

/// Tiny deterministic PRNG (xorshift64*) so the suite needs no crates.
struct Prng(u64);

impl Prng {
    fn new(seed: u64) -> Self {
        Prng(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The model: pending `(time, event)` pairs kept sorted by time, a new
/// pair going after every pair with an equal or earlier time — which is
/// the `(time, insertion sequence)` order by construction.
#[derive(Default)]
struct Model {
    pending: Vec<(f64, u64)>,
    now: f64,
}

impl Model {
    fn schedule(&mut self, t: f64, event: u64) {
        let at = self.pending.partition_point(|&(u, _)| u <= t);
        self.pending.insert(at, (t, event));
    }

    fn pop(&mut self) -> Option<(f64, u64)> {
        let head = (!self.pending.is_empty()).then(|| self.pending.remove(0))?;
        self.now = head.0;
        Some(head)
    }
}

/// Runs one random interleaving on the queue and the model, asserting
/// lockstep equality after every operation.
fn differential_run(seed: u64, ops: usize, tie_permille: u64) {
    let mut rng = Prng::new(seed);
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut model = Model::default();
    // Recently scheduled times, recycled to force exact-equal
    // timestamps (bitwise ties) into the queue.
    let mut recent: Vec<f64> = Vec::new();
    let mut next_event = 0u64;

    for _ in 0..ops {
        let do_pop = !queue.is_empty() && rng.below(100) < 40;
        if do_pop {
            assert_eq!(queue.pop(), model.pop(), "pop diverged (seed {seed})");
        } else {
            let reuse_tie = !recent.is_empty() && rng.below(1000) < tie_permille;
            let t = if reuse_tie {
                recent[rng.below(recent.len() as u64) as usize].max(queue.now())
            } else {
                // Mixed scales: dense near-term, occasional far-future gap.
                let spread = match rng.below(10) {
                    0 => 1e6,
                    1..=3 => 1e3,
                    _ => 50.0,
                };
                queue.now() + rng.unit_f64() * spread
            };
            recent.push(t);
            if recent.len() > 32 {
                recent.remove(0);
            }
            queue.schedule(t, next_event);
            model.schedule(t, next_event);
            next_event += 1;
        }
        assert_eq!(
            queue.len(),
            model.pending.len(),
            "len diverged (seed {seed})"
        );
        assert_eq!(queue.now(), model.now, "clock diverged (seed {seed})");
        assert_eq!(
            queue.peek_time(),
            model.pending.first().map(|&(t, _)| t),
            "peek diverged (seed {seed})"
        );
    }
    // Drain completely: residual order must match too.
    loop {
        let a = queue.pop();
        assert_eq!(a, model.pop(), "drain diverged (seed {seed})");
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn random_interleavings_match_model() {
    for seed in 1..=40u64 {
        differential_run(seed, 600, 150);
    }
}

#[test]
fn tie_heavy_interleavings_match_model() {
    // Half of all schedules reuse a live timestamp: pop order is then
    // dominated by the insertion-sequence tie-break.
    for seed in 100..=120u64 {
        differential_run(seed, 400, 500);
    }
}

#[test]
fn soak_100k_events_matches_model() {
    differential_run(0xDEAD_BEEF, 100_000, 120);
}

#[test]
fn all_at_one_instant_matches_model() {
    // Every schedule after the first reuses a live timestamp, so the
    // whole run sits on a handful of instants and order is pure FIFO.
    differential_run(7, 400, 1000);
}

#[test]
fn soak_100k_bulk_schedule_then_drain() {
    // Pure schedule-then-drain at 10⁵ events: the throughput shape the
    // `eventqueue_schedule_pop` bench measures, asserted for ordering
    // here against a stable sort. Also checks the clock ends at the max
    // scheduled time.
    let mut rng = Prng::new(97);
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut expected: Vec<(f64, u64)> = Vec::new();
    for i in 0..100_000u64 {
        let t = rng.unit_f64() * 1e5;
        queue.schedule(t, i);
        expected.push((t, i));
    }
    expected.sort_by(|a, b| a.0.total_cmp(&b.0));
    let popped: Vec<(f64, u64)> = std::iter::from_fn(|| queue.pop()).collect();
    assert_eq!(popped, expected);
    assert_eq!(queue.now(), expected.last().expect("non-empty").0);
}

//! A minimal, deterministic property-testing harness — the proptest
//! replacement.
//!
//! Values are drawn from composable [`Gen`] generators seeded by the
//! same SplitMix64 stream as `ecofl_util::rng` (duplicated here because
//! `ecofl-util` depends on this crate, so the dependency cannot point
//! the other way). Every run is fully deterministic: the case seed is
//! derived from the property name, so there is no environment entropy
//! and no regression file churn. Set `ECOFL_CHECK_SEED=<u64>` to
//! explore a different stream, and `ECOFL_CHECK_CASES=<n>` to scale the
//! case count globally.
//!
//! On failure the harness greedily shrinks the counterexample (smaller
//! numbers, shorter vectors, component-wise for tuples) and reports the
//! shrunk value plus the property name and seed needed to replay it.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The harness's SplitMix64 stream (mirrors `ecofl_util::Rng`'s core).
#[derive(Debug, Clone, Copy)]
pub struct CheckRng {
    state: u64,
}

impl CheckRng {
    /// Creates a stream from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: mix64(seed) }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }

    /// Uniform in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below: bound must be positive");
        // Multiply-shift; the tiny bias is irrelevant for test-case
        // generation.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub(crate) fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A shrinker: proposes smaller variants of a failing value.
type Shrinker<T> = Rc<dyn Fn(&T) -> Vec<T>>;

/// A generator: a sampling function plus a shrinker proposing smaller
/// variants of a failing value.
pub struct Gen<T> {
    sample: Rc<dyn Fn(&mut CheckRng) -> T>,
    shrink: Shrinker<T>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Self {
            sample: Rc::clone(&self.sample),
            shrink: Rc::clone(&self.shrink),
        }
    }
}

impl<T: 'static> Gen<T> {
    /// Builds a generator from explicit sample and shrink functions.
    pub fn new(
        sample: impl Fn(&mut CheckRng) -> T + 'static,
        shrink: impl Fn(&T) -> Vec<T> + 'static,
    ) -> Self {
        Self {
            sample: Rc::new(sample),
            shrink: Rc::new(shrink),
        }
    }

    /// Draws one value.
    pub fn sample(&self, rng: &mut CheckRng) -> T {
        (self.sample)(rng)
    }

    /// Proposes shrunk candidates for a failing value.
    pub(crate) fn shrink(&self, value: &T) -> Vec<T> {
        (self.shrink)(value)
    }

    /// Maps the generated value (the `prop_map` analogue). Mapped
    /// generators do not shrink — there is no inverse to shrink through.
    pub fn map<U: 'static>(self, f: impl Fn(T) -> U + 'static) -> Gen<U> {
        let sample = self.sample;
        Gen {
            sample: Rc::new(move |rng| f((sample)(rng))),
            shrink: Rc::new(|_| Vec::new()),
        }
    }
}

/// Shrink an integer magnitude: candidates halve toward `lo`.
fn shrink_toward_u64(value: u64, lo: u64) -> Vec<u64> {
    let mut out = Vec::new();
    if value > lo {
        out.push(lo);
        let mut delta = value - lo;
        while delta > 1 {
            delta /= 2;
            out.push(value - delta);
        }
    }
    out.dedup();
    out
}

/// Any `u64` (the `any::<u64>()` analogue).
#[must_use]
pub fn any_u64() -> Gen<u64> {
    Gen::new(|rng| rng.next_u64(), |&v| shrink_toward_u64(v, 0))
}

/// Uniform `u64` in `[lo, hi)`.
#[must_use]
pub fn u64_in(lo: u64, hi: u64) -> Gen<u64> {
    assert!(lo < hi, "u64_in: empty range {lo}..{hi}");
    Gen::new(
        move |rng| lo + rng.below(hi - lo),
        move |&v| shrink_toward_u64(v, lo),
    )
}

/// Uniform `usize` in `[lo, hi)`.
#[must_use]
pub fn usize_in(lo: usize, hi: usize) -> Gen<usize> {
    u64_in(lo as u64, hi as u64).map_shrinkable(|v| v as usize, |&v| v as u64)
}

/// Uniform `u32` in `[lo, hi)`.
#[must_use]
pub fn u32_in(lo: u32, hi: u32) -> Gen<u32> {
    u64_in(u64::from(lo), u64::from(hi)).map_shrinkable(|v| v as u32, |&v| u64::from(v))
}

impl Gen<u64> {
    /// Integer-to-integer map that keeps shrinking working by mapping
    /// back into the source domain.
    fn map_shrinkable<U: 'static>(
        self,
        fwd: impl Fn(u64) -> U + Copy + 'static,
        back: impl Fn(&U) -> u64 + 'static,
    ) -> Gen<U> {
        let sample = self.sample;
        let shrink = self.shrink;
        Gen {
            sample: Rc::new(move |rng| fwd((sample)(rng))),
            shrink: Rc::new(move |u| (shrink)(&back(u)).into_iter().map(fwd).collect()),
        }
    }
}

/// Uniform `f64` in `[lo, hi)`; shrinks toward `lo`.
#[must_use]
pub fn f64_in(lo: f64, hi: f64) -> Gen<f64> {
    assert!(lo < hi, "f64_in: empty range {lo}..{hi}");
    Gen::new(
        move |rng| lo + (hi - lo) * rng.unit_f64(),
        move |&v| {
            let mut out = Vec::new();
            if v > lo {
                out.push(lo);
                let mid = lo + (v - lo) / 2.0;
                if mid > lo && mid < v {
                    out.push(mid);
                }
            }
            out
        },
    )
}

/// Uniform `f32` in `[lo, hi)`; shrinks toward `lo`.
#[must_use]
pub fn f32_in(lo: f32, hi: f32) -> Gen<f32> {
    let g = f64_in(f64::from(lo), f64::from(hi));
    let shrink = g.shrink;
    let sample = g.sample;
    Gen {
        sample: Rc::new(move |rng| (sample)(rng) as f32),
        shrink: Rc::new(move |&v| {
            (shrink)(&f64::from(v))
                .into_iter()
                .map(|x| x as f32)
                .collect()
        }),
    }
}

/// Vector of `lo..hi` elements (the `collection::vec(g, lo..hi)`
/// analogue). Shrinks by dropping halves, dropping single elements,
/// and shrinking individual elements.
#[must_use]
pub fn vec_in<T: Clone + 'static>(elem: Gen<T>, lo: usize, hi: usize) -> Gen<Vec<T>> {
    assert!(lo < hi, "vec_in: empty range {lo}..{hi}");
    let sample_elem = elem.clone();
    Gen::new(
        move |rng| {
            let n = lo + rng.below((hi - lo) as u64) as usize;
            (0..n).map(|_| sample_elem.sample(rng)).collect()
        },
        move |v: &Vec<T>| {
            let mut out: Vec<Vec<T>> = Vec::new();
            let n = v.len();
            // Structural shrinks: halves, then single-element drops.
            if n > lo {
                if n / 2 >= lo {
                    out.push(v[..n / 2].to_vec());
                    out.push(v[n - n / 2..].to_vec());
                }
                for i in 0..n.min(8) {
                    let mut shorter = v.clone();
                    shorter.remove(i);
                    out.push(shorter);
                }
            }
            // Element-wise shrinks (first few positions only).
            for i in 0..n.min(4) {
                for cand in elem.shrink(&v[i]) {
                    let mut copy = v.clone();
                    copy[i] = cand;
                    out.push(copy);
                }
            }
            out
        },
    )
}

/// Vector of exactly `n` elements (the fixed-length `collection::vec`).
#[must_use]
pub fn vec_exact<T: Clone + 'static>(elem: Gen<T>, n: usize) -> Gen<Vec<T>> {
    let sample_elem = elem.clone();
    Gen::new(
        move |rng| (0..n).map(|_| sample_elem.sample(rng)).collect(),
        move |v: &Vec<T>| {
            let mut out = Vec::new();
            for i in 0..v.len().min(4) {
                for cand in elem.shrink(&v[i]) {
                    let mut copy = v.clone();
                    copy[i] = cand;
                    out.push(copy);
                }
            }
            out
        },
    )
}

/// Pair of independent draws; shrinks component-wise.
#[must_use]
pub fn pair<A: Clone + 'static, B: Clone + 'static>(a: Gen<A>, b: Gen<B>) -> Gen<(A, B)> {
    let (sa, sb) = (a.clone(), b.clone());
    Gen::new(
        move |rng| (sa.sample(rng), sb.sample(rng)),
        move |(x, y): &(A, B)| {
            let mut out: Vec<(A, B)> = Vec::new();
            for cand in a.shrink(x) {
                out.push((cand, y.clone()));
            }
            for cand in b.shrink(y) {
                out.push((x.clone(), cand));
            }
            out
        },
    )
}

/// Triple of independent draws; shrinks component-wise.
#[must_use]
pub fn triple<A: Clone + 'static, B: Clone + 'static, C: Clone + 'static>(
    a: Gen<A>,
    b: Gen<B>,
    c: Gen<C>,
) -> Gen<(A, B, C)> {
    pair(a, pair(b, c)).map_tuple3()
}

impl<A: Clone + 'static, B: Clone + 'static, C: Clone + 'static> Gen<(A, (B, C))> {
    fn map_tuple3(self) -> Gen<(A, B, C)> {
        let sample = self.sample;
        let shrink = self.shrink;
        Gen {
            sample: Rc::new(move |rng| {
                let (a, (b, c)) = (sample)(rng);
                (a, b, c)
            }),
            shrink: Rc::new(move |(a, b, c): &(A, B, C)| {
                (shrink)(&(a.clone(), (b.clone(), c.clone())))
                    .into_iter()
                    .map(|(a, (b, c))| (a, b, c))
                    .collect()
            }),
        }
    }
}

/// Quadruple of independent draws; shrinks component-wise.
#[must_use]
pub fn quad<A, B, C, D>(a: Gen<A>, b: Gen<B>, c: Gen<C>, d: Gen<D>) -> Gen<(A, B, C, D)>
where
    A: Clone + 'static,
    B: Clone + 'static,
    C: Clone + 'static,
    D: Clone + 'static,
{
    let inner = pair(pair(a, b), pair(c, d));
    let sample = inner.sample;
    let shrink = inner.shrink;
    Gen {
        sample: Rc::new(move |rng| {
            let ((a, b), (c, d)) = (sample)(rng);
            (a, b, c, d)
        }),
        shrink: Rc::new(move |(a, b, c, d): &(A, B, C, D)| {
            (shrink)(&((a.clone(), b.clone()), (c.clone(), d.clone())))
                .into_iter()
                .map(|((a, b), (c, d))| (a, b, c, d))
                .collect()
        }),
    }
}

fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn base_seed(name: &str) -> u64 {
    let env = std::env::var("ECOFL_CHECK_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0xEC0F_1AB5);
    env ^ fnv1a(name)
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

fn fails<T>(prop: &impl Fn(&T), value: &T) -> Option<String> {
    // Silence the default per-panic backtrace spam while probing.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = catch_unwind(AssertUnwindSafe(|| prop(value)));
    std::panic::set_hook(prev);
    result.err().map(|p| panic_message(p.as_ref()))
}

/// Maximum shrink steps before giving up and reporting the best-so-far
/// counterexample.
const SHRINK_BUDGET: usize = 400;

/// Runs `prop` against `cases` values drawn from `gen`; the property
/// fails by panicking (plain `assert!` works). On failure the value is
/// shrunk and the harness panics with a replayable report.
///
/// # Panics
/// Panics if the property fails for any generated case.
pub fn forall<T: Debug + Clone + 'static>(
    name: &str,
    cases: usize,
    gen: &Gen<T>,
    prop: impl Fn(&T),
) {
    let cases = std::env::var("ECOFL_CHECK_CASES")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(cases)
        .max(1);
    let seed = base_seed(name);
    for case in 0..cases {
        let mut rng = CheckRng::new(seed.wrapping_add(GOLDEN_GAMMA.wrapping_mul(case as u64)));
        let original = gen.sample(&mut rng);
        let Some(first_msg) = fails(&prop, &original) else {
            continue;
        };
        // Greedy shrink: walk to the first failing candidate, repeat.
        let mut current = original.clone();
        let mut message = first_msg;
        let mut steps = 0usize;
        'outer: while steps < SHRINK_BUDGET {
            for candidate in gen.shrink(&current) {
                steps += 1;
                if let Some(msg) = fails(&prop, &candidate) {
                    current = candidate;
                    message = msg;
                    continue 'outer;
                }
                if steps >= SHRINK_BUDGET {
                    break;
                }
            }
            break;
        }
        panic!(
            "property '{name}' failed (case {case}, base seed {seed:#x})\n\
             shrunk counterexample: {current:?}\n\
             original counterexample: {original:?}\n\
             assertion: {message}\n\
             replay with ECOFL_CHECK_SEED={}",
            seed ^ fnv1a(name)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_stays_quiet() {
        forall(
            "sum_commutes",
            64,
            &pair(any_u64(), any_u64()),
            |&(a, b)| {
                assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
            },
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let g = vec_in(u64_in(0, 100), 1, 20);
        let mut r1 = CheckRng::new(9);
        let mut r2 = CheckRng::new(9);
        assert_eq!(g.sample(&mut r1), g.sample(&mut r2));
    }

    #[test]
    fn ranges_are_respected() {
        let g = triple(usize_in(4, 60), f64_in(1.0, 500.0), u32_in(1, 4));
        let mut rng = CheckRng::new(3);
        for _ in 0..2000 {
            let (n, x, w) = g.sample(&mut rng);
            assert!((4..60).contains(&n));
            assert!((1.0..500.0).contains(&x));
            assert!((1..4).contains(&w));
        }
    }

    #[test]
    fn vec_lengths_are_respected() {
        let g = vec_in(f64_in(0.0, 1.0), 2, 7);
        let mut rng = CheckRng::new(4);
        for _ in 0..500 {
            let v = g.sample(&mut rng);
            assert!((2..7).contains(&v.len()));
        }
    }

    #[test]
    fn failure_is_reported_with_shrunk_value() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            forall("gt_100_fails", 200, &u64_in(0, 10_000), |&v| {
                assert!(v < 100, "value {v} too big");
            });
        }));
        let msg = panic_message(result.expect_err("property must fail").as_ref());
        assert!(msg.contains("property 'gt_100_fails' failed"), "{msg}");
        // Greedy halving toward the range floor lands exactly on the
        // boundary counterexample.
        assert!(msg.contains("shrunk counterexample: 100"), "{msg}");
    }

    #[test]
    fn shrink_respects_vec_min_length() {
        let g = vec_in(u64_in(0, 10), 3, 9);
        let mut rng = CheckRng::new(5);
        for _ in 0..100 {
            let v = g.sample(&mut rng);
            for cand in g.shrink(&v) {
                assert!(cand.len() >= 3, "shrink below min length: {cand:?}");
            }
        }
    }
}

//! Heterogeneity-aware workload partitioning (§4.2, Eq. 1).
//!
//! Finds stage boundaries that minimize the lagger — the slowest stage's
//! per-micro-batch time — while accounting for inter-stage communication
//! and per-device memory capacity. The recurrence is the paper's Eq. 1:
//!
//! ```text
//! A(0→j, D_n) = min_{s} max{ A(0→s, D_{n-1}),
//!                            (a_s + g_s) / B_{n-2},
//!                            T(s+1→j, n−1) }
//! ```
//!
//! solved bottom-up in `O(D · L²)`. [`partition_even`] is the PipeDream
//! baseline of Fig. 12: it balances raw FLOPs assuming homogeneous
//! devices, ignoring their actual speeds.

use crate::profiler::PARAM_STATE_FACTOR;
use ecofl_models::ModelProfile;
use ecofl_simnet::{Device, Link};
use std::sync::OnceLock;

/// A pipeline partition: `boundaries[s]..boundaries[s+1]` is the layer
/// range of stage `s`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Stage boundaries; `len() == num_stages + 1`, first is 0, last is
    /// the model's layer count.
    pub boundaries: Vec<usize>,
}

impl Partition {
    /// Number of stages.
    #[must_use]
    pub fn num_stages(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// Layer range of stage `s`.
    #[must_use]
    pub fn stage_range(&self, s: usize) -> std::ops::Range<usize> {
        self.boundaries[s]..self.boundaries[s + 1]
    }
}

/// Per-micro-batch compute time of layers `range` on a device.
fn seg_time(model: &ModelProfile, range: std::ops::Range<usize>, rate: f64, mbs: usize) -> f64 {
    mbs as f64 * model.range_flops(range) / rate
}

/// Whether layers `range` fit in `device`'s memory with at least one
/// resident micro-batch.
fn fits(model: &ModelProfile, range: std::ops::Range<usize>, device: &Device, mbs: usize) -> bool {
    let params: u64 = model.layers[range.clone()]
        .iter()
        .map(|l| l.param_bytes)
        .sum();
    let act: u64 = model.layers[range]
        .iter()
        .map(|l| l.train_activation_bytes)
        .sum::<u64>()
        * mbs as u64;
    params * PARAM_STATE_FACTOR + act <= device.spec().memory_bytes
}

/// Combined forward+backward boundary-transfer time for a cut after layer
/// `cut − 1` (the `(a_s + g_s)/B` term of Eq. 1).
fn comm_time(model: &ModelProfile, cut: usize, link: &Link, mbs: usize) -> f64 {
    let bytes = 2 * model.activation_bytes_after(cut - 1) * mbs as u64;
    link.transfer_time(bytes)
}

/// Lookup tables, built once per `(model, link, mbs)`, that make every
/// `(s, j, device)` query of the Eq. 1 recurrence O(1) while returning
/// exactly what the naive [`fits`] / [`seg_time`] / [`comm_time`] return.
struct DpTables {
    /// `param_prefix[i]` = parameter bytes of layers `0..i` (u64, exact).
    param_prefix: Vec<u64>,
    /// `act_prefix[i]` = per-sample training-activation bytes of `0..i`.
    act_prefix: Vec<u64>,
    /// `flops[segment(s, j)]` = `model.range_flops(s..j)`, accumulated
    /// left to right from `s` exactly as `range_flops` adds — a
    /// prefix-sum *difference* would round differently in the last ulp
    /// and could flip a `cost < best_cost` tie.
    flops: Vec<f64>,
    /// `comm[s]` = `comm_time(model, s, link, mbs)` for cuts `1..l`.
    comm: Vec<f64>,
    mbs: usize,
}

/// Index of segment `s..j` (`s < j`) in the triangular segment tables:
/// `j`-major, so the recurrence's inner loop over `s` reads contiguously.
fn segment(s: usize, j: usize) -> usize {
    (j * j - j) / 2 + s
}

impl DpTables {
    fn new(model: &ModelProfile, link: &Link, mbs: usize) -> Self {
        let l = model.num_layers();
        let mut param_prefix = vec![0u64; l + 1];
        let mut act_prefix = vec![0u64; l + 1];
        for (i, layer) in model.layers.iter().enumerate() {
            param_prefix[i + 1] = param_prefix[i] + layer.param_bytes;
            act_prefix[i + 1] = act_prefix[i] + layer.train_activation_bytes;
        }
        let mut flops = vec![0.0f64; segment(0, l + 1)];
        for s in 0..l {
            let mut acc = 0.0f64;
            for j in s + 1..=l {
                acc += model.layers[j - 1].total_flops();
                flops[segment(s, j)] = acc;
            }
        }
        let mut comm = vec![0.0f64; l + 1];
        for (s, c) in comm.iter_mut().enumerate().take(l).skip(1) {
            *c = comm_time(model, s, link, mbs);
        }
        Self {
            param_prefix,
            act_prefix,
            flops,
            comm,
            mbs,
        }
    }

    /// [`fits`] for layers `s..j`.
    fn fits(&self, s: usize, j: usize, device: &Device) -> bool {
        let params = self.param_prefix[j] - self.param_prefix[s];
        let act = (self.act_prefix[j] - self.act_prefix[s]) * self.mbs as u64;
        params * PARAM_STATE_FACTOR + act <= device.spec().memory_bytes
    }

    /// The least `s` in `from..j` whose layers `s..j` fit `device`, or `j`
    /// when none does. [`DpTables::fits`] is monotone in `s` — the bytes of
    /// `s..j` are exact differences of the prefixes, and a shorter segment
    /// holds no more — so the starts that fit are the suffix
    /// `first_fit..j`; and since `s..j + 1` holds `s..j`, the first fit
    /// never decreases in `j`, so one pointer serves a whole row.
    fn first_fit(&self, from: usize, j: usize, device: &Device) -> usize {
        (from..j).find(|&s| self.fits(s, j, device)).unwrap_or(j)
    }

    /// [`seg_time`] at `rate` for every segment, laid out as `flops`:
    /// `segments[segment(s, j)]` is the time of layers `s..j`, the same
    /// expression `mbs · flops / rate` evaluated once per entry.
    fn segments(&self, rate: f64) -> Vec<f64> {
        self.flops
            .iter()
            .map(|&flops| self.mbs as f64 * flops / rate)
            .collect()
    }
}

/// Which instantiation of the Eq. 1 row scan ([`min_lagger_on`]) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowPath {
    /// The scalar strict-`<` loop — any CPU, and the oracle of the other.
    Portable,
    /// Eight `s` a vector: lanes of laggers, a vector min, the first lane
    /// equal to it.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// The row scan this host runs, picked once per process.
fn row_path() -> RowPath {
    static PATH: OnceLock<RowPath> = OnceLock::new();
    *PATH.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            return RowPath::Avx512;
        }
        RowPath::Portable
    })
}

/// Every row scan this host can run, for the tests that hold each to the
/// portable one.
#[cfg(test)]
fn host_paths() -> Vec<RowPath> {
    let mut paths = vec![RowPath::Portable];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        paths.push(RowPath::Avx512);
    }
    paths
}

/// Eq. 1's inner term for one `s`: `max(prefix, comm, seg)`, each max
/// spelled `a > b ? a : b`, the rule of `vmaxpd`. `f64::max` leaves the
/// sign of a `±0` tie to the compiler; this spelling fixes it, so every
/// tier returns the same bits. A NaN `comm` or `seg` loses to the finite
/// prefix, as under `f64::max`.
#[inline(always)]
fn lagger(prefix: f64, comm: f64, seg: f64) -> f64 {
    let max = |a: f64, b: f64| if a > b { a } else { b };
    max(seg, max(comm, prefix))
}

/// Eq. 1's scan over the starts `s` of one cell, given the slices of
/// `prev` / `comm` / `seg` from its first admissible `s`: the least
/// [`lagger`] over the finite prefixes and the index that first reaches
/// it under strict `<` (`usize::MAX`, cost `+∞`, when none does).
fn min_lagger(prev: &[f64], comm: &[f64], seg: &[f64]) -> (f64, usize) {
    let mut best_cost = f64::INFINITY;
    let mut best_s = usize::MAX;
    for (s, ((&prefix, &comm), &seg)) in prev.iter().zip(comm).zip(seg).enumerate() {
        if !prefix.is_finite() {
            continue;
        }
        let cost = lagger(prefix, comm, seg);
        if cost < best_cost {
            best_cost = cost;
            best_s = s;
        }
    }
    (best_cost, best_s)
}

/// [`min_lagger`] compiled for `path`, bit for bit.
///
/// # Safety
/// The CPU must support `path`'s instruction set ([`row_path`] only
/// returns such a tier).
#[inline(always)]
unsafe fn min_lagger_on(path: RowPath, prev: &[f64], comm: &[f64], seg: &[f64]) -> (f64, usize) {
    assert!(comm.len() == prev.len() && seg.len() == prev.len());
    match path {
        RowPath::Portable => min_lagger(prev, comm, seg),
        // SAFETY: the caller vouches for `avx512f`; the lengths agree.
        #[cfg(target_arch = "x86_64")]
        RowPath::Avx512 => unsafe { min_lagger_avx512(prev, comm, seg) },
    }
}

/// [`min_lagger`] eight starts a vector. No lane is NaN: a live lane's
/// prefix is finite, [`lagger`] of a finite prefix is never NaN, and the
/// others are `+∞`. So the strict-`<` chain's result is the least lane,
/// and its `s` the first lane that compares equal to it (`+0.0 == −0.0`,
/// and that lane's own bits are returned).
///
/// # Safety
/// `avx512f` must be available and the three slices must have one length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn min_lagger_avx512(prev: &[f64], comm: &[f64], seg: &[f64]) -> (f64, usize) {
    use std::arch::x86_64::{
        _mm512_cmp_pd_mask, _mm512_min_pd, _mm512_reduce_min_pd, _mm512_set1_pd, _mm512_storeu_pd,
        _CMP_EQ_OQ,
    };
    let len = prev.len();
    let mut least = _mm512_set1_pd(f64::INFINITY);
    for base in (0..len).step_by(8) {
        // SAFETY: the caller's guarantees, and `base < len`.
        least = _mm512_min_pd(least, unsafe { lagger_lanes(prev, comm, seg, base) });
    }
    let least = _mm512_reduce_min_pd(least);
    if least == f64::INFINITY {
        return (f64::INFINITY, usize::MAX);
    }
    for base in (0..len).step_by(8) {
        // SAFETY: as above.
        let lanes = unsafe { lagger_lanes(prev, comm, seg, base) };
        let hits = _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(lanes, _mm512_set1_pd(least));
        if hits != 0 {
            let lane = hits.trailing_zeros() as usize;
            let mut cost = [0.0f64; 8];
            // SAFETY: `cost` holds eight `f64`.
            unsafe { _mm512_storeu_pd(cost.as_mut_ptr(), lanes) };
            return (cost[lane], base + lane);
        }
    }
    unreachable!("the least lane is one of the lanes")
}

/// [`lagger`] of starts `base..base + 8`, `+∞` in the lanes whose prefix
/// is not finite or that lie past the end.
///
/// # Safety
/// `avx512f` must be available, `base < prev.len()`, and `comm` and `seg`
/// must be as long as `prev`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn lagger_lanes(
    prev: &[f64],
    comm: &[f64],
    seg: &[f64],
    base: usize,
) -> std::arch::x86_64::__m512d {
    use std::arch::x86_64::{
        __mmask8, _mm512_abs_pd, _mm512_mask_cmp_pd_mask, _mm512_mask_mov_pd,
        _mm512_maskz_loadu_pd, _mm512_max_pd, _mm512_set1_pd, _CMP_LT_OQ,
    };
    let live = (0xffu16 >> 8usize.saturating_sub(prev.len() - base)) as __mmask8;
    // SAFETY: masked-off lanes are not read, and the live ones
    // (`base..min(base + 8, len)`) lie inside all three slices.
    let (p, c, g) = unsafe {
        (
            _mm512_maskz_loadu_pd(live, prev.as_ptr().add(base)),
            _mm512_maskz_loadu_pd(live, comm.as_ptr().add(base)),
            _mm512_maskz_loadu_pd(live, seg.as_ptr().add(base)),
        )
    };
    let inf = _mm512_set1_pd(f64::INFINITY);
    // `|p| < ∞` is false for ±∞ and NaN alike.
    let finite = _mm512_mask_cmp_pd_mask::<_CMP_LT_OQ>(live, _mm512_abs_pd(p), inf);
    // `vmaxpd(a, b)` is `a > b ? a : b`, [`lagger`]'s max.
    let cost = _mm512_max_pd(g, _mm512_max_pd(c, p));
    _mm512_mask_mov_pd(inf, finite, cost)
}

/// One complete Eq. 1 row `n`: `best[j]` is the optimal lagger of layers
/// `0..j` on the first `n` devices, `choice[j]` the prefix length `s` it
/// chose, and `device` the device of stage `n − 1` it was computed for.
struct DpRow {
    device: Device,
    best: Vec<f64>,
    choice: Vec<usize>,
}

/// The Eq. 1 dynamic program for many device orders of one
/// `(model, link, mbs)`.
///
/// The tables are built once, and the segment times once per distinct
/// device rate. Row `n` is a pure function of the first `n` devices
/// (compared by `PartialEq`), so it is kept and reused by every later
/// order that starts with the same `n` devices; an order recomputes only
/// the rows after the prefix it shares with the rows held. The last row
/// is evaluated at `j = L` alone, the only entry reconstruction reads.
pub(crate) struct PrefixDp {
    tables: DpTables,
    layers: usize,
    /// The row scan: a tier [`row_path`] (or, in tests, `host_paths`)
    /// returned, so one this host runs.
    path: RowPath,
    /// `(rate bits, DpTables::segments(rate))` per device rate met.
    segments: Vec<(u64, Vec<f64>)>,
    /// Complete rows `1..=rows.len()` (index `n − 1`) of the last order.
    rows: Vec<DpRow>,
}

impl PrefixDp {
    pub(crate) fn new(model: &ModelProfile, link: &Link, mbs: usize) -> Self {
        // SAFETY: `row_path` picks a tier the host runs.
        unsafe { Self::on(row_path(), model, link, mbs) }
    }

    /// [`PrefixDp::new`] scanning rows with `path`.
    ///
    /// # Safety
    /// The CPU must support `path`'s instruction set.
    unsafe fn on(path: RowPath, model: &ModelProfile, link: &Link, mbs: usize) -> Self {
        Self {
            tables: DpTables::new(model, link, mbs),
            layers: model.num_layers(),
            path,
            segments: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// [`partition_dp`] for `devices`, reusing the rows of the previous
    /// call that belong to the same leading devices.
    pub(crate) fn partition(&mut self, devices: &[Device]) -> Option<Partition> {
        let (l, d) = (self.layers, devices.len());
        if d == 0 || l < d {
            return None;
        }
        if d == 1 {
            return self.tables.fits(0, l, &devices[0]).then(|| Partition {
                boundaries: vec![0, l],
            });
        }
        // Rows 1..d−1 are kept whole; the prefix they share with the
        // previous call's rows is still valid.
        let shared = self
            .rows
            .iter()
            .zip(&devices[..d - 1])
            .take_while(|(row, device)| row.device == **device)
            .count();
        self.rows.truncate(shared);
        for n in shared + 1..d {
            let row = self.row(n, &devices[n - 1]);
            self.rows.push(row);
        }

        let device = &devices[d - 1];
        let segments = self.segments_at(device.effective_flops());
        let lo = self.tables.first_fit(0, l, device);
        let (cost, s) = self.cell(d, l, lo, &self.rows[d - 2].best, &self.segments[segments].1);
        if !cost.is_finite() {
            return None;
        }
        let mut boundaries = vec![0usize; d + 1];
        boundaries[d] = l;
        boundaries[d - 1] = s;
        let mut j = s;
        for n in (2..d).rev() {
            let s = self.rows[n - 1].choice[j];
            debug_assert_ne!(s, usize::MAX);
            boundaries[n - 1] = s;
            j = s;
        }
        Some(Partition { boundaries })
    }

    /// The index in `self.segments` of the segment times at `rate`,
    /// built on first use.
    fn segments_at(&mut self, rate: f64) -> usize {
        let key = rate.to_bits();
        self.segments
            .iter()
            .position(|(k, _)| *k == key)
            .unwrap_or_else(|| {
                self.segments.push((key, self.tables.segments(rate)));
                self.segments.len() - 1
            })
    }

    /// Row `n` (`1 ≤ n < D`) for `device` on stage `n − 1`, over
    /// `self.rows[n − 2]`.
    fn row(&mut self, n: usize, device: &Device) -> DpRow {
        let l = self.layers;
        let mut best = vec![f64::INFINITY; l + 1];
        let mut choice = vec![usize::MAX; l + 1];
        let segments = self.segments_at(device.effective_flops());
        let segments = &self.segments[segments].1;
        if n == 1 {
            for (j, cost) in best.iter_mut().enumerate().skip(1) {
                if self.tables.fits(0, j, device) {
                    *cost = segments[segment(0, j)];
                }
            }
        } else {
            let prev = &self.rows[n - 2].best;
            // Need at least n layers for n non-empty stages.
            let mut lo = 0;
            for j in n..=l {
                lo = self.tables.first_fit(lo, j, device);
                (best[j], choice[j]) = self.cell(n, j, lo, prev, segments);
            }
        }
        DpRow {
            device: device.clone(),
            best,
            choice,
        }
    }

    /// Eq. 1 at `(n, j)` (`n ≥ 2`): the cheapest lagger of layers `0..j`
    /// with `device` on stage `n − 1`, and the prefix length `s` that
    /// first reaches it (`usize::MAX` when none is feasible). Layers `s..j`
    /// fit the device from `s = lo` on; `segments` are its segment times.
    fn cell(&self, n: usize, j: usize, lo: usize, prev: &[f64], segments: &[f64]) -> (f64, usize) {
        let lo = lo.max(n - 1);
        #[cfg(test)]
        {
            use crate::orchestrator::{EQ1_CELLS, EQ1_POSITIONS};
            EQ1_CELLS.with(|cells| cells.set(cells.get() + 1));
            EQ1_POSITIONS.with(|positions| positions.set(positions.get() + (j - lo)));
        }
        let at = segment(0, j);
        // SAFETY: `self.path` is a tier the host runs.
        let (cost, s) = unsafe {
            min_lagger_on(
                self.path,
                &prev[lo..j],
                &self.tables.comm[lo..j],
                &segments[at + lo..at + j],
            )
        };
        (cost, s.saturating_add(lo))
    }
}

/// Runs the Eq. 1 dynamic program.
///
/// `devices` is the pipeline order (stage `s` runs on `devices[s]`).
/// Returns `None` when no feasible partition exists — fewer layers than
/// devices, or no split satisfies every stage's memory constraint.
///
/// `O(D · L²)`: the memory check, segment time and cut transfer time of
/// the recurrence come from tables built in `O(L²)`. A one-order call of
/// the search's prefix-reusing DP.
#[must_use]
pub fn partition_dp(
    model: &ModelProfile,
    devices: &[Device],
    link: &Link,
    mbs: usize,
) -> Option<Partition> {
    PrefixDp::new(model, link, mbs).partition(devices)
}

/// Test oracles shared by this module's and the orchestrator's
/// differential suites.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{comm_time, fits, seg_time, Partition};
    use ecofl_compat::check::{CheckRng, Gen};
    use ecofl_models::{efficientnet, mobilenet_v2, ModelProfile};
    use ecofl_simnet::{table1, Device, Link};

    /// The `O(D · L³)` Eq. 1 recurrence over the naive [`fits`] /
    /// [`seg_time`] / [`comm_time`] — the differential oracle that
    /// [`partition_dp`]'s tables must reproduce boundary for boundary.
    pub(crate) fn partition_dp_reference(
        model: &ModelProfile,
        devices: &[Device],
        link: &Link,
        mbs: usize,
    ) -> Option<Partition> {
        let l = model.num_layers();
        let d = devices.len();
        if d == 0 || l < d {
            return None;
        }
        if d == 1 {
            if !fits(model, 0..l, &devices[0], mbs) {
                return None;
            }
            return Some(Partition {
                boundaries: vec![0, l],
            });
        }

        const INF: f64 = f64::INFINITY;
        // best[n][j]: optimal lagger using first n devices for layers 0..j.
        let mut best = vec![vec![INF; l + 1]; d + 1];
        // choice[n][j]: the prefix length s chosen at the optimum.
        let mut choice = vec![vec![usize::MAX; l + 1]; d + 1];

        #[allow(clippy::needless_range_loop)]
        for j in 1..=l {
            if fits(model, 0..j, &devices[0], mbs) {
                best[1][j] = seg_time(model, 0..j, devices[0].effective_flops(), mbs);
            }
        }

        for n in 2..=d {
            let rate = devices[n - 1].effective_flops();
            // Need at least n layers for n non-empty stages, and leave enough
            // layers for the remaining devices.
            for j in n..=l {
                let mut best_cost = INF;
                let mut best_s = usize::MAX;
                #[allow(clippy::needless_range_loop)]
                for s in (n - 1)..j {
                    let prefix = best[n - 1][s];
                    if !prefix.is_finite() {
                        continue;
                    }
                    if !fits(model, s..j, &devices[n - 1], mbs) {
                        continue;
                    }
                    let cost = prefix.max(comm_time(model, s, link, mbs)).max(seg_time(
                        model,
                        s..j,
                        rate,
                        mbs,
                    ));
                    if cost < best_cost {
                        best_cost = cost;
                        best_s = s;
                    }
                }
                best[n][j] = best_cost;
                choice[n][j] = best_s;
            }
        }

        if !best[d][l].is_finite() {
            return None;
        }
        // Reconstruct boundaries from the choice table.
        let mut boundaries = vec![0usize; d + 1];
        boundaries[d] = l;
        let mut j = l;
        for n in (2..=d).rev() {
            let s = choice[n][j];
            debug_assert_ne!(s, usize::MAX);
            boundaries[n - 1] = s;
            j = s;
        }
        Some(Partition { boundaries })
    }

    /// effnet-b0..b6 and mobilenet-w1..w3 — every model the CLI names.
    pub(crate) fn model_zoo() -> Vec<ModelProfile> {
        (0..=6)
            .map(efficientnet)
            .chain([1.0, 2.0, 3.0].map(mobilenet_v2))
            .collect()
    }

    /// A smart home: `1..=max` devices drawn with repetition from
    /// Table 1, about one in five carrying an external load (which makes
    /// it a different device from its unloaded twins).
    pub(crate) fn home_gen(max: usize) -> Gen<Vec<Device>> {
        Gen::new(
            move |rng: &mut CheckRng| {
                let catalog = table1();
                (0..=rng.below(max as u64))
                    .map(|_| {
                        let mut d = Device::new(catalog[rng.below(4) as usize].clone());
                        if rng.below(5) == 0 {
                            d.set_external_load(0.25 * (1 + rng.below(3)) as f64);
                        }
                        d
                    })
                    .collect()
            },
            // Shrink by dropping one device at a time.
            |home: &Vec<Device>| {
                (0..home.len())
                    .filter(|_| home.len() > 1)
                    .map(|i| {
                        let mut smaller = home.clone();
                        smaller.remove(i);
                        smaller
                    })
                    .collect()
            },
        )
    }
}

/// The lagger value of a given partition under the Eq. 1 objective
/// (maximum over stage compute times and cut communication times).
#[must_use]
pub fn partition_objective(
    model: &ModelProfile,
    partition: &Partition,
    devices: &[Device],
    link: &Link,
    mbs: usize,
) -> f64 {
    let mut worst = 0.0f64;
    #[allow(clippy::needless_range_loop)]
    for s in 0..partition.num_stages() {
        let range = partition.stage_range(s);
        worst = worst.max(seg_time(model, range, devices[s].effective_flops(), mbs));
        if s + 1 < partition.num_stages() {
            worst = worst.max(comm_time(model, partition.boundaries[s + 1], link, mbs));
        }
    }
    worst
}

/// Whether every stage of `partition` fits its device's memory.
#[must_use]
pub fn partition_feasible(
    model: &ModelProfile,
    partition: &Partition,
    devices: &[Device],
    mbs: usize,
) -> bool {
    (0..partition.num_stages()).all(|s| fits(model, partition.stage_range(s), &devices[s], mbs))
}

/// PipeDream-style homogeneous partitioning (the Fig. 12 baseline).
///
/// Splits layers so each stage holds an (approximately) equal share of
/// total FLOPs, ignoring device heterogeneity — "the workload will be
/// evenly divided into different stages". Greedy prefix packing: stage `s`
/// takes layers until its share reaches `total / D`.
///
/// Returns `None` if there are fewer layers than devices.
#[must_use]
pub fn partition_even(model: &ModelProfile, num_stages: usize) -> Option<Partition> {
    let l = model.num_layers();
    if num_stages == 0 || l < num_stages {
        return None;
    }
    let total = model.total_flops();
    let target = total / num_stages as f64;
    let mut boundaries = Vec::with_capacity(num_stages + 1);
    boundaries.push(0usize);
    let mut acc = 0.0;
    let mut next_target = target;
    for (i, layer) in model.layers.iter().enumerate() {
        acc += layer.total_flops();
        let stages_done = boundaries.len(); // includes leading 0
        let remaining_layers = l - (i + 1);
        let remaining_stages = num_stages - stages_done;
        if stages_done < num_stages && (acc >= next_target || remaining_layers == remaining_stages)
        {
            boundaries.push(i + 1);
            next_target += target;
        }
    }
    boundaries.push(l);
    debug_assert_eq!(boundaries.len(), num_stages + 1);
    Some(Partition { boundaries })
}

#[cfg(test)]
mod tests {
    use super::oracle::{home_gen, model_zoo, partition_dp_reference};
    use super::*;
    use ecofl_compat::check::{any_u64, forall, pair, triple, usize_in, CheckRng};
    use ecofl_models::{efficientnet, mobilenet_v2, LayerProfile};
    use ecofl_simnet::{nano_h, nano_l, tx2_n, tx2_q, DeviceSpec};

    fn devices2() -> Vec<Device> {
        vec![Device::new(tx2_n()), Device::new(nano_h())]
    }

    /// Exhaustive search over all boundary placements (small inputs only).
    fn brute_force(
        model: &ModelProfile,
        devices: &[Device],
        link: &Link,
        mbs: usize,
    ) -> Option<(f64, Partition)> {
        let l = model.num_layers();
        let d = devices.len();
        let mut best: Option<(f64, Partition)> = None;
        // Choose d-1 cut positions from 1..l.
        fn rec(
            cuts: &mut Vec<usize>,
            start: usize,
            need: usize,
            l: usize,
            out: &mut Vec<Vec<usize>>,
        ) {
            if need == 0 {
                out.push(cuts.clone());
                return;
            }
            for c in start..l {
                cuts.push(c);
                rec(cuts, c + 1, need - 1, l, out);
                cuts.pop();
            }
        }
        let mut all = Vec::new();
        rec(&mut Vec::new(), 1, d - 1, l, &mut all);
        for cuts in all {
            let mut boundaries = vec![0];
            boundaries.extend(cuts);
            boundaries.push(l);
            let p = Partition { boundaries };
            if !partition_feasible(model, &p, devices, mbs) {
                continue;
            }
            let obj = partition_objective(model, &p, devices, link, mbs);
            if best.as_ref().is_none_or(|(b, _)| obj < *b) {
                best = Some((obj, p));
            }
        }
        best
    }

    #[test]
    fn dp_matches_brute_force_small() {
        let model = efficientnet(0);
        let link = Link::mbps_100();
        for (devices, mbs) in [
            (devices2(), 4usize),
            (
                vec![
                    Device::new(nano_h()),
                    Device::new(tx2_q()),
                    Device::new(nano_h()),
                ],
                8,
            ),
            (vec![Device::new(nano_l()), Device::new(tx2_n())], 16),
        ] {
            let dp = partition_dp(&model, &devices, &link, mbs).expect("feasible");
            let dp_obj = partition_objective(&model, &dp, &devices, &link, mbs);
            let (bf_obj, _) = brute_force(&model, &devices, &link, mbs).expect("feasible");
            assert!(
                (dp_obj - bf_obj).abs() < 1e-9,
                "DP {dp_obj} != brute force {bf_obj} for {} devices mbs={mbs}",
                devices.len()
            );
        }
    }

    #[test]
    fn dp_gives_fast_device_more_work() {
        let model = mobilenet_v2(1.0);
        let link = Link::mbps_100();
        // TX2-N is ~2.8× a Nano-L: its stage should carry more FLOPs.
        let devices = vec![Device::new(tx2_n()), Device::new(nano_l())];
        let p = partition_dp(&model, &devices, &link, 8).expect("feasible");
        let f0 = model.range_flops(p.stage_range(0));
        let f1 = model.range_flops(p.stage_range(1));
        assert!(
            f0 > 1.5 * f1,
            "fast stage flops {f0} should dominate slow stage {f1}"
        );
    }

    #[test]
    fn even_split_balances_flops_not_time() {
        let model = efficientnet(1);
        let p = partition_even(&model, 2).expect("feasible");
        let f0 = model.range_flops(p.stage_range(0));
        let f1 = model.range_flops(p.stage_range(1));
        let ratio = f0.max(f1) / f0.min(f1);
        assert!(
            ratio < 1.6,
            "even split should roughly balance flops, ratio {ratio}"
        );
    }

    #[test]
    fn dp_beats_even_split_on_heterogeneous_devices() {
        let model = efficientnet(1);
        let link = Link::mbps_100();
        let devices = vec![Device::new(tx2_n()), Device::new(nano_h())];
        let dp = partition_dp(&model, &devices, &link, 8).expect("dp feasible");
        let even = partition_even(&model, 2).expect("even feasible");
        let dp_obj = partition_objective(&model, &dp, &devices, &link, 8);
        let even_obj = partition_objective(&model, &even, &devices, &link, 8);
        assert!(
            dp_obj < even_obj,
            "heterogeneity-aware {dp_obj} must beat even split {even_obj}"
        );
    }

    #[test]
    fn infeasible_when_fewer_layers_than_devices() {
        let model = efficientnet(0);
        let n = model.num_layers();
        let devices: Vec<Device> = (0..=n).map(|_| Device::new(nano_h())).collect();
        assert!(partition_dp(&model, &devices, &Link::mbps_100(), 4).is_none());
    }

    #[test]
    fn memory_constraint_can_forbid_partitions() {
        let model = efficientnet(4);
        // A device with absurdly small memory cannot host any stage.
        let tiny = Device::new(ecofl_simnet::DeviceSpec::new("tiny", 1e9, 1024, 1e8));
        let devices = vec![tiny.clone(), tiny];
        assert!(partition_dp(&model, &devices, &Link::mbps_100(), 8).is_none());
    }

    #[test]
    fn single_device_partition() {
        let model = efficientnet(0);
        let devices = vec![Device::new(tx2_n())];
        let p = partition_dp(&model, &devices, &Link::mbps_100(), 4).expect("fits");
        assert_eq!(p.num_stages(), 1);
        assert_eq!(p.stage_range(0), 0..model.num_layers());
    }

    #[test]
    fn boundaries_are_strictly_increasing() {
        let model = mobilenet_v2(2.0);
        let devices = vec![
            Device::new(nano_h()),
            Device::new(tx2_q()),
            Device::new(nano_h()),
        ];
        let p = partition_dp(&model, &devices, &Link::mbps_100(), 8).expect("feasible");
        for w in p.boundaries.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(p.boundaries[0], 0);
        assert_eq!(*p.boundaries.last().unwrap(), model.num_layers());
    }

    #[test]
    fn tables_reproduce_the_reference_dp() {
        let zoo = model_zoo();
        let link = Link::mbps_100();
        forall(
            "tables_reproduce_the_reference_dp",
            48,
            &pair(home_gen(6), usize_in(0, zoo.len())),
            |(home, model)| {
                let model = &zoo[*model];
                for mbs in [32, 16, 8, 4, 2, 1] {
                    let expected = partition_dp_reference(model, home, &link, mbs);
                    for path in host_paths() {
                        // SAFETY: `host_paths` lists detected tiers only.
                        let mut dp = unsafe { PrefixDp::on(path, model, &link, mbs) };
                        assert_eq!(
                            dp.partition(home),
                            expected,
                            "{} at mbs {mbs} on {path:?}",
                            model.name
                        );
                    }
                    assert_eq!(partition_dp(model, home, &link, mbs), expected);
                }
            },
        );
    }

    /// Every distinct device sequence of `home`, each spelled by the index
    /// of its device's first occurrence, in lexicographic order — so
    /// neighbours share the longest prefixes.
    fn distinct_sequences(home: &[Device]) -> Vec<Vec<usize>> {
        fn extend(prefix: &mut Vec<usize>, left: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if left.is_empty() {
                out.push(prefix.clone());
                return;
            }
            for i in 0..left.len() {
                if i > 0 && left[i] == left[i - 1] {
                    continue;
                }
                let c = left.remove(i);
                prefix.push(c);
                extend(prefix, left, out);
                prefix.pop();
                left.insert(i, c);
            }
        }
        let mut left: Vec<usize> = (0..home.len())
            .map(|i| (0..i).find(|&j| home[j] == home[i]).unwrap_or(i))
            .collect();
        left.sort_unstable();
        let mut out = Vec::new();
        extend(&mut Vec::new(), &mut left, &mut out);
        out
    }

    #[test]
    fn prefix_rows_never_go_stale() {
        let zoo = model_zoo();
        let link = Link::mbps_100();
        // Nothing but the smallest segments fits here: its rows are
        // infinite, and so is every row after it.
        let cramped = Device::new(DeviceSpec::new("cramped", 1e9, 96 << 20, 1e8));
        forall(
            "prefix_rows_never_go_stale",
            16,
            &triple(home_gen(4), usize_in(0, zoo.len()), any_u64()),
            |(home, model, seed)| {
                let mut rng = CheckRng::new(*seed);
                let mut home = home.clone();
                if rng.below(2) == 0 {
                    // A twin that differs by its load alone must not
                    // inherit the other's rows.
                    let mut twin = home[rng.below(home.len() as u64) as usize].clone();
                    twin.set_external_load(0.5);
                    home.insert(rng.below(home.len() as u64 + 1) as usize, twin);
                }
                if rng.below(3) == 0 {
                    home.insert(rng.below(home.len() as u64 + 1) as usize, cramped.clone());
                }
                let mut model = zoo[*model].clone();
                if rng.below(4) == 0 {
                    // Fewer layers than the longer orders have devices.
                    model.layers.truncate((home.len() - 1).max(1));
                }
                let sorted = distinct_sequences(&home);
                let mut shuffled = sorted.clone();
                for i in (1..shuffled.len()).rev() {
                    shuffled.swap(i, rng.below(i as u64 + 1) as usize);
                }
                for mbs in [32, 4] {
                    let mut reference = std::collections::HashMap::new();
                    for path in host_paths() {
                        // SAFETY: `host_paths` lists detected tiers only.
                        let mut dp = unsafe { PrefixDp::on(path, &model, &link, mbs) };
                        for sequence in sorted.iter().chain(&shuffled) {
                            // Now and then the same order again, or the
                            // order one device shorter (whose last row the
                            // longer one keeps whole).
                            let mut lens = vec![sequence.len()];
                            if rng.below(2) == 0 {
                                lens.push(sequence.len());
                            }
                            if sequence.len() > 1 && rng.below(2) == 0 {
                                lens.push(sequence.len() - 1);
                            }
                            for len in lens {
                                let prefix = &sequence[..len];
                                let devices: Vec<Device> =
                                    prefix.iter().map(|&i| home[i].clone()).collect();
                                let expected =
                                    reference.entry(prefix.to_vec()).or_insert_with(|| {
                                        partition_dp_reference(&model, &devices, &link, mbs)
                                    });
                                assert_eq!(
                                    &dp.partition(&devices),
                                    expected,
                                    "{} over {:?} at mbs {mbs} on {path:?}",
                                    model.name,
                                    devices.iter().map(Device::name).collect::<Vec<_>>()
                                );
                            }
                        }
                    }
                }
            },
        );
    }

    /// A row value: mostly from a handful of small integers, so that equal
    /// laggers recur at several starts, else a corner of IEEE arithmetic.
    fn row_value(rng: &mut CheckRng) -> f64 {
        match rng.below(12) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            5 => 1e-300 * rng.below(4) as f64,
            _ => rng.below(4) as f64,
        }
    }

    #[test]
    fn every_tier_eq1_row_matches_the_scalar_scan() {
        // The strict `<` keeps the first of several equal minima, with
        // that start's own bits.
        let (comm, seg) = ([0.0; 5], [-0.0; 5]);
        for (prev, want) in [
            ([5.0, 1.0, 3.0, 1.0, 1.0], (1.0f64, 1)),
            ([5.0, 1.0, -0.0, 0.0, 0.0], (-0.0, 2)),
        ] {
            for path in host_paths() {
                // SAFETY: `host_paths` lists detected tiers only.
                let (cost, s) = unsafe { min_lagger_on(path, &prev, &comm, &seg) };
                assert_eq!((cost.to_bits(), s), (want.0.to_bits(), want.1), "{path:?}");
            }
        }
        let mut rng = CheckRng::new(0xE01A);
        // Every tail length of the eight-lane scan, past the longest row a
        // CLI model has (47 layers).
        for len in 0..=70 {
            for case in 0..60 {
                let mut row = |finite_prefix: bool| -> Vec<f64> {
                    (0..len)
                        .map(|_| match row_value(&mut rng) {
                            v if finite_prefix && !v.is_finite() => 2.0,
                            v => v,
                        })
                        .collect()
                };
                let (mut prev, comm, seg) = match case % 4 {
                    // Corners everywhere.
                    0 | 1 => (row(false), row(false), row(false)),
                    // Finite laggers only: ties decide.
                    2 => (row(true), row(true), row(true)),
                    // A feasible-looking row behind non-finite prefixes.
                    _ => (vec![f64::INFINITY; len], row(true), row(true)),
                };
                if case % 8 == 7 {
                    // No start admissible: every prefix NaN or ±∞.
                    for p in &mut prev {
                        *p = [f64::NAN, f64::NEG_INFINITY, f64::INFINITY][rng.below(3) as usize];
                    }
                }
                let (want, want_s) = min_lagger(&prev, &comm, &seg);
                for path in host_paths() {
                    // SAFETY: `host_paths` lists detected tiers only.
                    let (got, s) = unsafe { min_lagger_on(path, &prev, &comm, &seg) };
                    assert_eq!(
                        (got.to_bits(), s),
                        (want.to_bits(), want_s),
                        "{path:?} on {prev:?} / {comm:?} / {seg:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn flops_table_keeps_the_addition_order_of_range_flops() {
        // Layer FLOPs with full 53-bit mantissas at mixed magnitudes: a
        // prefix-sum difference rounds differently from the left-to-right
        // sum `range_flops` takes, and Eq. 1 compares those sums with `<`.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let layers: Vec<LayerProfile> = (0..24)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let f = (1 + (x >> 11)) as f64 * if i % 3 == 0 { 1e-3 } else { 1e-7 };
                LayerProfile {
                    name: format!("l{i}"),
                    flops_fwd: f,
                    flops_bwd: 2.0 * f,
                    activation_bytes: 1000 + 37 * i as u64,
                    train_activation_bytes: 4000,
                    param_bytes: 500,
                }
            })
            .collect();
        let model = ModelProfile {
            name: "ulp".into(),
            layers,
            input_bytes: 1000,
        };
        let l = model.num_layers();
        let prefix: Vec<f64> = (0..=l).map(|j| model.range_flops(0..j)).collect();
        let disagreeing = (0..l)
            .flat_map(|s| (s + 1..=l).map(move |j| (s, j)))
            .filter(|&(s, j)| prefix[j] - prefix[s] != model.range_flops(s..j))
            .count();
        assert!(
            disagreeing > 0,
            "the model must separate the two arithmetics"
        );

        let tables = DpTables::new(&model, &Link::mbps_100(), 8);
        let segments = tables.segments(3e9);
        for s in 0..l {
            for j in s + 1..=l {
                assert_eq!(
                    segments[segment(s, j)].to_bits(),
                    seg_time(&model, s..j, 3e9, 8).to_bits(),
                    "segment {s}..{j}"
                );
            }
        }
        let device = |rate: f64| Device::new(DeviceSpec::new("d", rate, 1 << 32, 1e8));
        for rates in [
            vec![1e9, 1e9],
            vec![1e9, 2e9, 1e9],
            vec![3e9, 1e9, 2e9, 1e9],
            vec![1e9; 6],
        ] {
            let devices: Vec<Device> = rates.into_iter().map(device).collect();
            for mbs in [1, 4, 32] {
                assert_eq!(
                    partition_dp(&model, &devices, &Link::mbps_100(), mbs),
                    partition_dp_reference(&model, &devices, &Link::mbps_100(), mbs),
                );
            }
        }
    }
}

//! Register-tiled matrix kernels.
//!
//! This module is the compute core behind [`crate::Tensor::matmul`] and the
//! `Linear`/`Sgd` hot paths. Everything here runs on the calling thread:
//! no kernel spawns a thread or splits a product across threads.
//!
//! Each GEMM entry point has **one** driver per SIMD tier, whatever the
//! size of the product: operands are read where they lie. `b`'s rows are
//! already contiguous `NR`-column strips at stride `n`, `a`'s scalars sit
//! at stride `k` (`a·b`) or `m` (`aᵀ·b` — the transpose is never
//! materialized), row tiles are sized to `m` (ten rows are two five-row
//! tiles, not a six and a four) and the column tail is masked
//! (AVX-512) or runs a narrower loop. Nothing is packed or copied: every
//! product a shipped model issues is L1-resident (the largest is the
//! 256-row evaluation batch, `256 × 32 × 64`), where packing panels costs
//! more than the arithmetic. `a·bᵀ` walks both operands contiguously one
//! output row at a time, except on the AVX-512 tier: there it is an outer
//! product over `bᵀ`, transposed in registers into a 4 KiB stack panel per
//! 16-column strip.
//!
//! # SIMD tiers and the bit-identity contract
//!
//! Three instantiations of the driver exist, selected once per process
//! from the CPU's features:
//!
//! - **portable**: scalar `f32::mul_add` (IEEE `fusedMultiplyAdd`),
//! - **AVX2+FMA**: the same body compiled with
//!   `#[target_feature(enable = "avx2", enable = "fma")]`,
//! - **AVX-512**: explicit `_mm512_fmadd_ps` tiles held in zmm registers.
//!
//! The training step's elementwise loops (SGD, ReLU, bias, column sums,
//! the loss head) are one safe body each, compiled per tier through
//! [`on_tier`]; they are bit-identical to the portable body everywhere.
//!
//! They differ only in *where* an element is computed. One output element
//! of `a·b` / `aᵀ·b` is the same scalar chain on every tier: `acc = 0`,
//! then `acc = a_p.mul_add(b_p, acc)` for ascending `p`, then `out = acc`
//! (or `out = out + acc` when accumulating). `a·bᵀ` keeps eight partial
//! sums (lane `l` takes `p ≡ l mod 8`) folded as
//! `((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))`; lanes a short depth never
//! reaches are left untouched rather than fed `fma(0, 0, ·)`, which would
//! turn a `-0.0` lane into `+0.0`. So every tier — and therefore every
//! host — is **bit-identical** to the one scalar chain in
//! [`crate::reference`] (`chain_matmul*`); `tests/kernel_equivalence.rs`
//! and the unit tests below assert `to_bits` equality. Against the
//! textbook `mul`+`add` loops (`naive_*`) the chain differs by at most
//! `2·k·ε` relative to the absolute-value inner product (each fused step
//! skips one intermediate rounding).
//!
//! The price of one arithmetic is paid by the portable tier on x86-64
//! without AVX2+FMA, where `mul_add` is a libm `fmaf` call per
//! multiply-accumulate (≈ 10× the old `mul`+`add` tier on a whole `ecofl
//! fl` run; DESIGN.md §7). aarch64 has `fmadd` natively.

use std::sync::OnceLock;

/// Row-tile height limit: 6 rows × 4 zmm registers is 24 of AVX-512's 32
/// accumulators (for `a·b` four column vectors, for `a·bᵀ` a lane and
/// three partial folds), 6 × 2 ymm (or xmm) 12 of the 16 the narrower
/// tiers have.
const MR: usize = 6;
/// Column-strip width of the portable tiles (two 4-lane SSE registers).
const NR_PORTABLE: usize = 8;
/// Column-strip width of the AVX2 tiles (two 8-lane registers).
const NR_FMA: usize = 16;
/// Column-strip width of the AVX-512 tiles (four 16-lane registers).
const NR_AVX512: usize = 64;

/// Which kernel instantiation runtime dispatch selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KernelPath {
    /// Scalar `mul_add`, tiles up to 6×8 — any CPU.
    Portable,
    /// AVX2 + FMA, tiles up to 6×16.
    Fma,
    /// AVX-512, tiles up to 6×64 (four 16-lane zmm accumulators per row).
    Avx512,
}

pub(crate) fn kernel_path() -> KernelPath {
    static PATH: OnceLock<KernelPath> = OnceLock::new();
    *PATH.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                // The AVX-512 tier is a superset: its elementwise
                // instantiation is compiled with AVX2+FMA enabled too.
                if std::arch::is_x86_feature_detected!("avx512f") {
                    return KernelPath::Avx512;
                }
                return KernelPath::Fma;
            }
        }
        KernelPath::Portable
    })
}

/// Every tier this host can run — on an AVX-512 box all three — for the
/// unit tests that hold each instantiation to the portable one.
#[cfg(test)]
pub(crate) fn host_paths() -> Vec<KernelPath> {
    let mut paths = vec![KernelPath::Portable];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        paths.push(KernelPath::Fma);
        if std::arch::is_x86_feature_detected!("avx512f") {
            paths.push(KernelPath::Avx512);
        }
    }
    paths
}

/// Values that reach the corners of IEEE arithmetic — `±0.0`, NaN, `±∞`,
/// subnormals, magnitudes whose products underflow or overflow — mixed
/// with uniform draws in `[-1, 1)`: the operands of the unit tests that
/// hold each tier's elementwise loops to the portable one.
#[cfg(test)]
pub(crate) fn awkward_values(len: usize, rng: &mut ecofl_util::Rng) -> Vec<f32> {
    (0..len)
        .map(|_| match rng.range_usize(0, 20) {
            0 => 0.0,
            1 => -0.0,
            2 => f32::NAN,
            3 => f32::INFINITY,
            4 => f32::NEG_INFINITY,
            5 => 1e-40,
            6 => -3e-42,
            7 => 1e-30,
            8 => -1e-30,
            9 => 3e38,
            10 => -3e38,
            _ => rng.next_f32() * 2.0 - 1.0,
        })
        .collect()
}

/// Asserts `to_bits` equality, element by element.
#[cfg(test)]
pub(crate) fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g:e} vs {w:e}");
    }
}

/// Runs the training step's elementwise loops — `Sgd::step_at`, ReLU,
/// the bias add and column sums, the loss head — compiled for `path`.
/// `body` is one safe generic body; it is inlined into a thin
/// `#[target_feature]` wrapper per tier, where the autovectorizer sees
/// the tier's registers (16-lane zmm on AVX-512, where the baseline
/// x86-64 build has 4-lane SSE2). Rust never contracts `a * b + c` into
/// an FMA, so every tier computes the body's operations exactly: the
/// results are bit-identical to the portable instantiation. `body` should
/// pass its slices to an `#[inline(always)]` function: slices read from
/// a closure's captures lose their no-alias facts, and the loop stays
/// scalar.
///
/// # Safety
/// The CPU must support `path`'s instruction set ([`kernel_path`] only
/// returns such a tier).
#[inline(always)]
pub(crate) unsafe fn on_tier<R>(path: KernelPath, body: impl FnOnce() -> R) -> R {
    match path {
        // SAFETY: the caller vouches for the tier's features.
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx512 => unsafe { body_avx512(body) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        KernelPath::Fma => unsafe { body_fma(body) },
        _ => body(),
    }
}

/// [`on_tier`]'s AVX2+FMA instantiation.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
fn body_fma<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// [`on_tier`]'s AVX-512 instantiation.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
fn body_avx512<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// Human-readable name of the selected dispatch path.
fn path_name(path: KernelPath) -> &'static str {
    match path {
        KernelPath::Portable => "portable",
        KernelPath::Fma => "fma",
        KernelPath::Avx512 => "avx512",
    }
}

/// Dispatch-entry statistics: per-(kernel, ISA path) call counts and
/// cumulative wall-clock nanoseconds.
///
/// Collection is off by default and the disabled check is one relaxed
/// atomic load per kernel call — the hot path pays nothing until
/// [`set_kernel_stats_enabled`] turns it on (done only by the
/// `benchmark/layers` probe and tests, never by library code or the
/// CLI).
mod stats {
    use super::{kernel_path, path_name, KernelPath};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Instant;

    pub(super) const KERNEL_NAMES: [&str; 3] = ["gemm", "gemm_tn", "gemm_nt"];
    const N_KERNELS: usize = KERNEL_NAMES.len();
    const N_PATHS: usize = 3;

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static CALLS: [AtomicU64; N_KERNELS * N_PATHS] =
        [const { AtomicU64::new(0) }; N_KERNELS * N_PATHS];
    static NANOS: [AtomicU64; N_KERNELS * N_PATHS] =
        [const { AtomicU64::new(0) }; N_KERNELS * N_PATHS];

    fn slot(kernel: usize) -> usize {
        kernel * N_PATHS + kernel_path() as usize
    }

    pub(super) fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    pub(super) fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    pub(super) fn reset() {
        for c in &CALLS {
            c.store(0, Ordering::Relaxed);
        }
        for n in &NANOS {
            n.store(0, Ordering::Relaxed);
        }
    }

    /// An RAII timer charging the enclosing kernel call to its
    /// (kernel, path) slot on drop; a no-op when collection is off.
    pub(super) struct KernelTimer {
        start: Option<(usize, Instant)>,
    }

    pub(super) fn time_kernel(kernel: usize) -> KernelTimer {
        KernelTimer {
            start: enabled().then(|| (slot(kernel), Instant::now())),
        }
    }

    impl Drop for KernelTimer {
        fn drop(&mut self) {
            if let Some((slot, start)) = self.start {
                CALLS[slot].fetch_add(1, Ordering::Relaxed);
                NANOS[slot].fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        }
    }

    pub(super) fn snapshot() -> Vec<super::KernelStat> {
        let paths = [KernelPath::Portable, KernelPath::Fma, KernelPath::Avx512];
        let mut out = Vec::new();
        for (k, kernel) in KERNEL_NAMES.iter().enumerate() {
            for (p, path) in paths.iter().enumerate() {
                let slot = k * N_PATHS + p;
                let calls = CALLS[slot].load(Ordering::Relaxed);
                if calls == 0 {
                    continue;
                }
                out.push(super::KernelStat {
                    kernel,
                    path: path_name(*path),
                    calls,
                    nanos: NANOS[slot].load(Ordering::Relaxed),
                });
            }
        }
        out
    }
}

pub(crate) const K_GEMM: usize = 0;
pub(crate) const K_GEMM_TN: usize = 1;
pub(crate) const K_GEMM_NT: usize = 2;

/// One row of [`kernel_stats`]: cumulative calls and wall-clock
/// nanoseconds one dispatch entry point spent on one ISA path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelStat {
    /// Dispatch entry point (`gemm`, `gemm_tn`, `gemm_nt`).
    pub kernel: &'static str,
    /// ISA path runtime dispatch selected (`portable`, `fma`,
    /// `avx512`).
    pub path: &'static str,
    /// Calls since collection was enabled (or last reset).
    pub calls: u64,
    /// Cumulative wall-clock nanoseconds across those calls.
    pub nanos: u64,
}

/// Turns kernel dispatch statistics collection on or off. Off (the
/// default), kernel calls pay one relaxed atomic load; on, each call
/// adds two relaxed atomic adds and an `Instant` read.
pub fn set_kernel_stats_enabled(on: bool) {
    stats::set_enabled(on);
}

/// Zeroes every (kernel, path) slot.
pub fn reset_kernel_stats() {
    stats::reset();
}

/// The non-zero (kernel, path) rows collected so far, in a stable
/// (kernel, path) order.
#[must_use]
pub fn kernel_stats() -> Vec<KernelStat> {
    stats::snapshot()
}

/// Where a GEMM reads its left-hand operand from.
///
/// `Rows` is the plain product (`a·b`); `Cols` is `aᵀ·b` — the tiles read
/// columns of the `[k,m]` operand directly, so the transpose is never
/// materialized.
#[derive(Clone, Copy)]
enum ASrc<'a> {
    /// A row-major `[m,k]` matrix.
    Rows { a: &'a [f32] },
    /// A row-major `[k,m]` matrix, read transposed.
    Cols { a: &'a [f32], m: usize },
}

impl<'a> ASrc<'a> {
    /// `(buffer, row stride, depth stride)` for depth `k`: output row `i`,
    /// depth `p` reads `buffer[i·row_stride + p·depth_stride]`.
    fn strides(self, k: usize) -> (&'a [f32], usize, usize) {
        match self {
            ASrc::Rows { a } => (a, k, 1),
            ASrc::Cols { a, m } => (a, 1, m),
        }
    }
}

/// Splits `m` output rows into the fewest tiles of at most [`MR`] rows,
/// as evenly as possible (ten rows are 5 + 5, not 6 + 4), yielding
/// `(first_row, rows)`.
fn row_tiles(m: usize) -> impl Iterator<Item = (usize, usize)> {
    let tiles = m.div_ceil(MR);
    let (base, extra) = (m / tiles.max(1), m % tiles.max(1));
    (0..tiles).map(move |t| (t * base + t.min(extra), base + usize::from(t < extra)))
}

/// Expands to `$tile::<rows, $width>($args)` for a runtime `$rows` in
/// `1..=MR`, so every row-tile height is its own fully unrolled
/// instantiation.
macro_rules! for_tile_rows {
    ($rows:expr, $tile:ident, $width:tt, $args:tt) => {
        match $rows {
            1 => $tile::<1, $width> $args,
            2 => $tile::<2, $width> $args,
            3 => $tile::<3, $width> $args,
            4 => $tile::<4, $width> $args,
            5 => $tile::<5, $width> $args,
            6 => $tile::<6, $width> $args,
            rows => unreachable!("row_tiles yields 1..=MR rows, got {rows}"),
        }
    };
}

/// One `R×cb` output tile of the portable / AVX2 instantiations, read
/// straight from the operands: `acc[r][j] = a[ib+r, p].mul_add(b[p, jb+j],
/// acc[r][j])` for ascending `p` from zero, then stored (or added onto
/// `out`). A full-width strip (`cb == NR`) runs fixed-trip loops the
/// compiler keeps in vector registers; the column tail runs the same
/// chain over `cb` lanes.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile<const R: usize, const NR: usize>(
    asrc: ASrc<'_>,
    ib: usize,
    k: usize,
    b: &[f32],
    n: usize,
    jb: usize,
    cb: usize,
    out: &mut [f32],
    accumulate: bool,
) {
    let (a, row_stride, depth_stride) = asrc.strides(k);
    let a = &a[ib * row_stride..];
    let mut acc = [[0.0f32; NR]; R];
    if cb == NR {
        for p in 0..k {
            let brow: &[f32; NR] = b[p * n + jb..][..NR]
                .try_into()
                .expect("a full strip is NR wide");
            for (r, accr) in acc.iter_mut().enumerate() {
                let a_rp = a[r * row_stride + p * depth_stride];
                for j in 0..NR {
                    accr[j] = a_rp.mul_add(brow[j], accr[j]);
                }
            }
        }
    } else {
        for p in 0..k {
            let brow = &b[p * n + jb..][..cb];
            for (r, accr) in acc.iter_mut().enumerate() {
                let a_rp = a[r * row_stride + p * depth_stride];
                for (c, &b_pj) in accr.iter_mut().zip(brow) {
                    *c = a_rp.mul_add(b_pj, *c);
                }
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let orow = &mut out[(ib + r) * n + jb..][..cb];
        if accumulate {
            for (o, &v) in orow.iter_mut().zip(accr) {
                *o += v;
            }
        } else {
            orow.copy_from_slice(&accr[..cb]);
        }
    }
}

/// The GEMM driver of the portable and AVX2 instantiations: column
/// strips outermost (a strip of `b` stays cache-hot across the row
/// tiles), [`row_tiles`] inside, one [`tile`] each.
#[inline(always)]
fn tile_driver<const NR: usize>(
    asrc: ASrc<'_>,
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    accumulate: bool,
) {
    for jb in (0..n).step_by(NR) {
        let cb = (n - jb).min(NR);
        for (ib, rb) in row_tiles(m) {
            for_tile_rows!(rb, tile, NR, (asrc, ib, k, b, n, jb, cb, out, accumulate));
        }
    }
}

fn gemm_portable(
    asrc: ASrc<'_>,
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    accumulate: bool,
) {
    tile_driver::<NR_PORTABLE>(asrc, m, k, b, n, out, accumulate);
}

/// The AVX2+FMA instantiation of [`tile_driver`]: the same safe,
/// bounds-checked body as [`gemm_portable`], where `mul_add` is one
/// `vfmadd` and a strip is 16 columns wide.
// SAFETY: safe body; reached only through `gemm_on`'s `unsafe` call, whose
// caller established AVX2+FMA (`kernel_path`'s runtime detection).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
fn gemm_fma(
    asrc: ASrc<'_>,
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    accumulate: bool,
) {
    tile_driver::<NR_FMA>(asrc, m, k, b, n, out, accumulate);
}

/// One `R`-row × `NV`-register (`cols ≤ 16·NV` columns) AVX-512 tile,
/// accumulators held in `R·NV ≤ 24` zmm registers for the
/// whole depth loop. Lane for lane it is `acc = a.mul_add(b, acc)` for
/// ascending `p` from zero; columns at or past `cols` are masked out of
/// every load and store.
///
/// # Safety
/// `avx512f` must be available, `16·(NV−1) < cols ≤ 16·NV`, and for every
/// `r < R`, `p < k`, `c < cols` the addresses `a + r·row_stride +
/// p·depth_stride`, `b + p·ldb + c` and `out + r·ldo + c` must lie inside
/// their (distinct) allocations, `out`'s exclusively borrowed.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_avx512<const R: usize, const NV: usize>(
    a: *const f32,
    row_stride: usize,
    depth_stride: usize,
    b: *const f32,
    ldb: usize,
    k: usize,
    cols: usize,
    out: *mut f32,
    ldo: usize,
    accumulate: bool,
) {
    use std::arch::x86_64::{
        __mmask16, _mm512_add_ps, _mm512_fmadd_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps,
        _mm512_set1_ps, _mm512_setzero_ps,
    };
    let mut live = [0 as __mmask16; NV];
    for (v, mask) in live.iter_mut().enumerate() {
        *mask = ((1u32 << (cols - 16 * v).min(16)) - 1) as __mmask16;
    }
    // SAFETY: the caller guarantees every unmasked lane of every access
    // below is in bounds (see `# Safety`); masked-off lanes are neither
    // read nor written by the `maskz_loadu` / `mask_storeu` forms, and
    // each vector's first lane (`16·v < cols`) is live, so the pointer
    // offsets themselves stay inside the allocations.
    unsafe {
        let mut acc = [[_mm512_setzero_ps(); NV]; R];
        for p in 0..k {
            let brow = b.add(p * ldb);
            let mut bv = [_mm512_setzero_ps(); NV];
            for (v, bvv) in bv.iter_mut().enumerate() {
                *bvv = _mm512_maskz_loadu_ps(live[v], brow.add(16 * v));
            }
            for (r, accr) in acc.iter_mut().enumerate() {
                let a_rp = _mm512_set1_ps(*a.add(r * row_stride + p * depth_stride));
                for (c, &bvv) in accr.iter_mut().zip(&bv) {
                    *c = _mm512_fmadd_ps(a_rp, bvv, *c);
                }
            }
        }
        if accumulate {
            // Every prior row is read before any row is stored: when `n`
            // is not a multiple of 16 a row's 64-byte window overlaps the
            // next row's, and a load behind an overlapping masked store
            // waits for that store to retire.
            for (r, accr) in acc.iter_mut().enumerate() {
                for (v, c) in accr.iter_mut().enumerate() {
                    *c = _mm512_add_ps(
                        _mm512_maskz_loadu_ps(live[v], out.add(r * ldo + 16 * v)),
                        *c,
                    );
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            for (v, &c) in accr.iter().enumerate() {
                _mm512_mask_storeu_ps(out.add(r * ldo + 16 * v), live[v], c);
            }
        }
    }
}

/// The AVX-512 GEMM driver: 64-column strips (four zmm registers, the
/// last strip as many as its columns need) × [`row_tiles`].
///
/// # Safety
/// `avx512f` must be available and the operands must hold exactly the
/// elements their shapes name: `[m,k]` (or `[k,m]` for `ASrc::Cols`) in
/// `asrc`, `k·n` in `b`, `m·n` in `out`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_avx512(
    asrc: ASrc<'_>,
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    accumulate: bool,
) {
    let (a, row_stride, depth_stride) = asrc.strides(k);
    for jb in (0..n).step_by(NR_AVX512) {
        let cols = (n - jb).min(NR_AVX512);
        for (ib, rb) in row_tiles(m) {
            // SAFETY: `row_tiles` keeps `ib + r < m` for `r < rb` and the
            // strip keeps `jb + c < n` for `c < cols`, so with the operand
            // lengths this function requires the tile reads
            // `a[(ib+r)·row_stride + p·depth_stride]` (`< m·k` in either
            // layout), `b[p·n + jb + c]` (`< k·n`) and touches
            // `out[(ib+r)·n + jb + c]` (`< m·n`); `out` is exclusively
            // borrowed and cannot alias the shared operands.
            unsafe {
                let a = a.as_ptr().add(ib * row_stride);
                let b = b.as_ptr().add(jb);
                let o = out.as_mut_ptr().add(ib * n + jb);
                macro_rules! strip {
                    ($nv:tt) => {
                        for_tile_rows!(
                            rb,
                            tile_avx512,
                            $nv,
                            (a, row_stride, depth_stride, b, n, k, cols, o, n, accumulate)
                        )
                    };
                }
                match cols.div_ceil(16) {
                    1 => strip!(1),
                    2 => strip!(2),
                    3 => strip!(3),
                    4 => strip!(4),
                    nv => unreachable!("a strip is 1..=4 registers wide, got {nv}"),
                }
            }
        }
    }
}

/// Panics unless an operand holds exactly `rows·cols` elements. Every
/// GEMM entry runs this on all three operands before any tile code, so
/// the raw-pointer tiles never see a buffer shorter than its shape.
fn check_operand(kernel: &str, operand: &str, len: usize, rows: usize, cols: usize) {
    assert!(
        rows.checked_mul(cols) == Some(len),
        "{kernel}: operand `{operand}` holds {len} elements, its shape [{rows},{cols}] needs {}",
        rows.saturating_mul(cols)
    );
}

/// `out (+)= a·b` (`a: [m,k]`) or, `transposed`, `out (+)= aᵀ·b`
/// (`a: [k,m]`) on an explicit tier; [`gemm`] / [`gemm_tn`] call it with
/// the process's tier, the unit tests with every tier the host supports.
/// Operand lengths are checked here, ahead of any tile code.
///
/// # Safety
/// The CPU must support `path`'s instruction set ([`kernel_path`] only
/// returns such a tier).
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_on(
    path: KernelPath,
    a: &[f32],
    transposed: bool,
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    accumulate: bool,
) {
    let (kernel, asrc) = if transposed {
        check_operand("gemm_tn", "a", a.len(), k, m);
        ("gemm_tn", ASrc::Cols { a, m })
    } else {
        check_operand("gemm", "a", a.len(), m, k);
        ("gemm", ASrc::Rows { a })
    };
    check_operand(kernel, "b", b.len(), k, n);
    check_operand(kernel, "out", out.len(), m, n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // An empty sum is `+0.0`, stored or added like any other.
        for o in out.iter_mut() {
            *o = if accumulate { *o + 0.0 } else { 0.0 };
        }
        return;
    }
    match path {
        // SAFETY: the caller vouches for `avx512f`, and `check_operand`
        // above established the three operand lengths the raw-pointer
        // tiles require.
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx512 => unsafe {
            gemm_avx512(asrc, m, k, b, n, out, accumulate);
        },
        // SAFETY: the caller vouches for AVX2+FMA; the body is safe code.
        #[cfg(target_arch = "x86_64")]
        KernelPath::Fma => unsafe {
            gemm_fma(asrc, m, k, b, n, out, accumulate);
        },
        _ => gemm_portable(asrc, m, k, b, n, out, accumulate),
    }
}

/// `out = a·b` for row-major `a: [m,k]`, `b: [k,n]`, `out: [m,n]`.
///
/// # Panics
/// Panics if an operand's length disagrees with its shape.
pub(crate) fn gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = stats::time_kernel(K_GEMM);
    // SAFETY: `kernel_path` returns a tier only after detecting its CPU
    // features.
    unsafe { gemm_on(kernel_path(), a, false, m, k, b, n, out, false) };
}

/// `out (+)= aᵀ·b` for row-major `a: [k,m]`, `b: [k,n]`, `out: [m,n]`,
/// without materializing `aᵀ`.
///
/// # Panics
/// Panics if an operand's length disagrees with its shape.
pub(crate) fn gemm_tn(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    n: usize,
    accumulate: bool,
) {
    let _t = stats::time_kernel(K_GEMM_TN);
    // SAFETY: `kernel_path` returns a tier only after detecting its CPU
    // features.
    unsafe { gemm_on(kernel_path(), a, true, m, k, b, n, out, accumulate) };
}

/// `a·bᵀ` into `out`, portable instantiation:
/// `out[i,j] = fold(lanes)` with `lanes[l] = Σ_{p ≡ l mod 8} a[i,p]·b[j,p]`
/// accumulated as `x.mul_add(y, lanes[l])` for ascending `p`.
///
/// Both operands are walked contiguously (that is the point of the NT
/// layout — no transpose is formed, nothing is packed). The eight partial
/// sums and their fixed pairwise fold are the kernel's defined semantics
/// ([`crate::reference::chain_matmul_nt`]): deterministic, reassociated
/// relative to the naive scalar chain.
fn nt_rows_portable(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    const LANES: usize = 8;
    for (r, orow) in out.chunks_mut(n).enumerate() {
        let arow = &a[r * k..][..k];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            let mut lanes = [0.0f32; LANES];
            let mut chunks_a = arow.chunks_exact(LANES);
            let mut chunks_b = brow.chunks_exact(LANES);
            for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
                for l in 0..LANES {
                    lanes[l] = ca[l].mul_add(cb[l], lanes[l]);
                }
            }
            // A short tail touches only the lanes it reaches.
            for (lane, (&av, &bv)) in lanes
                .iter_mut()
                .zip(chunks_a.remainder().iter().zip(chunks_b.remainder()))
            {
                *lane = av.mul_add(bv, *lane);
            }
            *o = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
                + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
        }
    }
}

/// Lane-select masks for a depth tail / output tail of `t` lanes:
/// `TAIL_MASKS[8 - t..][..8]` has its first `t` lanes set.
#[cfg(target_arch = "x86_64")]
static TAIL_MASKS: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// `CJ ≤ 8` adjacent outputs of one row of `a·bᵀ` at once: one ymm
/// accumulator per output holds its eight partial sums (`a`'s chunk is
/// loaded once for all of them), and a `hadd` tree folds all `CJ`
/// accumulators together — per output exactly
/// `((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))`, the fold of
/// [`nt_rows_portable`]. Depth-tail lanes are blended back so a lane the
/// tail does not reach keeps its value (`fma(0, 0, -0.0)` would be `+0.0`).
// SAFETY: a safe `#[target_feature]` function — only [`nt_rows_fma`],
// compiled with the same features, can call it outside `unsafe`; the
// operand lengths its loads rely on are asserted on entry.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
fn nt_outputs_fma<const CJ: usize>(arow: &[f32], brows: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_blendv_ps, _mm256_castsi256_ps, _mm256_fmadd_ps, _mm256_hadd_ps,
        _mm256_loadu_ps, _mm256_loadu_si256, _mm256_maskload_ps, _mm256_maskstore_ps,
        _mm256_permute2f128_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    let k = arow.len();
    assert!(
        CJ <= 8 && brows.len() == CJ * k && out.len() == CJ,
        "nt_outputs_fma: {CJ} outputs need {CJ} rows of b"
    );
    let (full, tail) = (k / 8, k % 8);
    // SAFETY: with the lengths asserted above, chunk `c < full` reads
    // lanes `8c..8c+8 ≤ k` of `arow` and of each `brows[j·k..][..k]`; the
    // tail reads only its first `tail` lanes (`maskload` does not touch
    // masked-off lanes), i.e. up to index `k − 1`; the store writes `CJ`
    // lanes of `out` (all eight only when `CJ == 8`). `TAIL_MASKS[8−t..]`
    // has eight entries for every `t ≤ 8`. AVX2 and FMA are enabled on
    // this function.
    unsafe {
        let (ap, bp) = (arow.as_ptr(), brows.as_ptr());
        let mut acc = [_mm256_setzero_ps(); 8];
        for c in 0..full {
            let av = _mm256_loadu_ps(ap.add(8 * c));
            for (j, lanes) in acc.iter_mut().enumerate().take(CJ) {
                *lanes = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(j * k + 8 * c)), *lanes);
            }
        }
        if tail > 0 {
            let mask = _mm256_loadu_si256(TAIL_MASKS.as_ptr().add(8 - tail).cast());
            let av = _mm256_maskload_ps(ap.add(8 * full), mask);
            for (j, lanes) in acc.iter_mut().enumerate().take(CJ) {
                let bv = _mm256_maskload_ps(bp.add(j * k + 8 * full), mask);
                let reached = _mm256_fmadd_ps(av, bv, *lanes);
                *lanes = _mm256_blendv_ps(*lanes, reached, _mm256_castsi256_ps(mask));
            }
        }
        // hadd(x, y) = [x0+x1, x2+x3, y0+y1, y2+y3 | x4+x5, x6+x7, y4+y5,
        // y6+y7]; two levels leave output j's (l0+l1)+(l2+l3) in the low
        // 128-bit half and (l4+l5)+(l6+l7) in the high half.
        let q0 = _mm256_hadd_ps(
            _mm256_hadd_ps(acc[0], acc[1]),
            _mm256_hadd_ps(acc[2], acc[3]),
        );
        let q1 = _mm256_hadd_ps(
            _mm256_hadd_ps(acc[4], acc[5]),
            _mm256_hadd_ps(acc[6], acc[7]),
        );
        let low = _mm256_permute2f128_ps::<0x20>(q0, q1);
        let high = _mm256_permute2f128_ps::<0x31>(q0, q1);
        let folded = _mm256_add_ps(low, high);
        if CJ == 8 {
            _mm256_storeu_ps(out.as_mut_ptr(), folded);
        } else {
            let live = _mm256_loadu_si256(TAIL_MASKS.as_ptr().add(8 - CJ).cast());
            _mm256_maskstore_ps(out.as_mut_ptr(), live, folded);
        }
    }
}

/// `a·bᵀ` into `out`, AVX2+FMA instantiation: eight outputs per row at a
/// time through [`nt_outputs_fma`], the last group as many as are left.
// SAFETY: safe, bounds-checked body; reached only through `gemm_nt_on`'s
// `unsafe` call, whose caller established AVX2+FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
fn nt_rows_fma(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    for (r, orow) in out.chunks_mut(n).enumerate() {
        let arow = &a[r * k..][..k];
        let mut groups = orow.chunks_exact_mut(8);
        for (g, outs) in (&mut groups).enumerate() {
            nt_outputs_fma::<8>(arow, &b[8 * g * k..][..8 * k], outs);
        }
        let outs = groups.into_remainder();
        let brows = &b[(n - outs.len()) * k..];
        match outs.len() {
            0 => {}
            1 => nt_outputs_fma::<1>(arow, brows, outs),
            2 => nt_outputs_fma::<2>(arow, brows, outs),
            3 => nt_outputs_fma::<3>(arow, brows, outs),
            4 => nt_outputs_fma::<4>(arow, brows, outs),
            5 => nt_outputs_fma::<5>(arow, brows, outs),
            6 => nt_outputs_fma::<6>(arow, brows, outs),
            7 => nt_outputs_fma::<7>(arow, brows, outs),
            left => unreachable!("chunks_exact_mut(8) leaves under 8 outputs, got {left}"),
        }
    }
}

/// Depth of the AVX-512 `a·bᵀ` panel: `bᵀ` is staged on the stack
/// [`NT_KC`] depths × 16 columns at a time (4 KiB).
const NT_KC: usize = 64;
/// Rows run per staged block of `bᵀ`: their lane accumulators carry
/// across the depth blocks of a `k > NT_KC` product (on the stack, 6 KiB).
const NT_ROWS: usize = 12;

/// Transposes `cols ≤ 16` rows of `b` (row `c` at `b + c·k`), depths
/// `0..kc`, into `panel[p] = [b[c·k + p] for c in 0..16]`, columns at or
/// past `cols` zero. One 16 × 16 block at a time: four rounds of
/// in-register shuffles (`unpack{lo,hi}_ps`, `unpack{lo,hi}_pd`, two
/// `shuffle_f32x4`).
///
/// # Safety
/// `avx512f` must be available, `kc ≤ NT_KC`, and `b + c·k + p` must lie
/// inside `b`'s allocation for every `c < cols`, `p < kc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline(never)]
unsafe fn nt_panel_avx512(
    b: *const f32,
    k: usize,
    cols: usize,
    kc: usize,
    panel: &mut [std::mem::MaybeUninit<std::arch::x86_64::__m512>; NT_KC],
) {
    use std::arch::x86_64::{
        _mm512_castpd_ps, _mm512_castps_pd, _mm512_maskz_loadu_ps, _mm512_setzero_ps,
        _mm512_shuffle_f32x4, _mm512_unpackhi_pd, _mm512_unpackhi_ps, _mm512_unpacklo_pd,
        _mm512_unpacklo_ps,
    };
    let zero = _mm512_setzero_ps();
    for d0 in (0..kc).step_by(16) {
        let width = (kc - d0).min(16);
        let live = ((1u32 << width) - 1) as u16;
        let mut r = [zero; 16];
        for (c, row) in r.iter_mut().enumerate() {
            let mask = if c < cols { live } else { 0 };
            // SAFETY: row `c < cols` reads depths `d0..d0 + width ≤ kc` of
            // its row only (the mask stops the load there); a row past
            // `cols` has an empty mask and reads no memory.
            *row = unsafe { _mm512_maskz_loadu_ps(mask, b.wrapping_add(c * k + d0)) };
        }
        // Per 128-bit lane `L` of the vectors, after each round: `t[2j]` /
        // `t[2j+1]` interleave rows `2j`, `2j+1` at columns `4L, 4L+1` /
        // `4L+2, 4L+3`;
        let mut t = [zero; 16];
        for j in 0..8 {
            t[2 * j] = _mm512_unpacklo_ps(r[2 * j], r[2 * j + 1]);
            t[2 * j + 1] = _mm512_unpackhi_ps(r[2 * j], r[2 * j + 1]);
        }
        // `u[4g + q]` holds rows `4g..4g+4` of column `4L + q`;
        let mut u = [zero; 16];
        for g in 0..4 {
            for h in 0..2 {
                let x = _mm512_castps_pd(t[4 * g + h]);
                let y = _mm512_castps_pd(t[4 * g + 2 + h]);
                u[4 * g + 2 * h] = _mm512_castpd_ps(_mm512_unpacklo_pd(x, y));
                u[4 * g + 2 * h + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(x, y));
            }
        }
        // `v[8h + 2q + o]` holds the lanes `L ≡ o (mod 2)` of `u[8h + q]`
        // and of `u[8h + 4 + q]`;
        let mut v = [zero; 16];
        for h in 0..2 {
            for q in 0..4 {
                let (x, y) = (u[8 * h + q], u[8 * h + 4 + q]);
                v[8 * h + 2 * q] = _mm512_shuffle_f32x4::<0x88>(x, y);
                v[8 * h + 2 * q + 1] = _mm512_shuffle_f32x4::<0xDD>(x, y);
            }
        }
        // and column `4L + q` is `u[q].L, u[4+q].L, u[8+q].L, u[12+q].L`.
        let mut columns = [zero; 16];
        for q in 0..4 {
            for o in 0..2 {
                let (x, y) = (v[2 * q + o], v[8 + 2 * q + o]);
                columns[4 * o + q] = _mm512_shuffle_f32x4::<0x88>(x, y);
                columns[4 * (o + 2) + q] = _mm512_shuffle_f32x4::<0xDD>(x, y);
            }
        }
        for (slot, column) in panel[d0..d0 + width].iter_mut().zip(columns) {
            slot.write(column);
        }
    }
}

/// Lane accumulators of one row of a 16-column `a·bᵀ` strip.
#[cfg(target_arch = "x86_64")]
type NtLanes = [std::mem::MaybeUninit<std::arch::x86_64::__m512>; 8];

/// One depth block of an `R`-row × `cols ≤ 16`-column tile of `a·bᵀ` on
/// the AVX-512 tier, one lane at a time. Lane `l` of row `r` starts from
/// `+0.0` on the `first` block, else from `carry`, and takes
/// `fma(a[r, p], bᵀ[p, ·], ·)` for the block's depths `p ≡ l (mod 8)` in
/// ascending order; a lane the depth never reaches stays as it was. After
/// the `last` block each finished lane is folded in as it completes —
/// `((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))` needs four vectors per row, not
/// eight — and the sums are stored under a column mask; otherwise the
/// lanes go back to `carry`.
///
/// # Safety
/// `avx512f` must be available; `panel` must be initialized; `a + r·k + p`
/// must be readable for `r < R`, `p < panel.len()`; `out` must hold rows
/// `0..R` of `cols ≤ 16` columns at stride `ldo`; `carry` must hold `R`
/// rows, initialized unless `first`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn nt_tile_avx512<const R: usize>(
    a: *const f32,
    k: usize,
    panel: &[std::mem::MaybeUninit<std::arch::x86_64::__m512>],
    carry: &mut [NtLanes],
    (first, last): (bool, bool),
    out: *mut f32,
    cols: usize,
    ldo: usize,
) {
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_fmadd_ps, _mm512_mask_storeu_ps, _mm512_set1_ps, _mm512_setzero_ps,
    };
    let carry = &mut carry[..R];
    let zero = _mm512_setzero_ps();
    // Per row: `lo` takes `l0`, `l0+l1`, then `(l0+l1)+(l2+l3)` and the
    // whole fold; `hi` takes `l2`, then `l4`, `l4+l5`; `six` takes `l6`.
    let (mut lo, mut hi, mut six) = ([zero; R], [zero; R], [zero; R]);
    // SAFETY: the caller vouches for the panel, the carried lanes, every
    // `a` read (`p < panel.len()`) and the `out` rows.
    unsafe {
        // Lane `$l` of every row, then its step of the fold; a literal
        // lane keeps the accumulators in registers.
        macro_rules! lane {
            ($l:literal, |$r:ident, $v:ident| $fold:expr) => {
                let mut acc = [zero; R];
                if !first {
                    for (v, carried) in acc.iter_mut().zip(&*carry) {
                        *v = carried[$l].assume_init();
                    }
                }
                let mut p = $l;
                while p < panel.len() {
                    let bv = panel[p].assume_init();
                    for (r, v) in acc.iter_mut().enumerate() {
                        *v = _mm512_fmadd_ps(_mm512_set1_ps(*a.add(r * k + p)), bv, *v);
                    }
                    p += 8;
                }
                if last {
                    for ($r, &$v) in acc.iter().enumerate() {
                        $fold;
                    }
                } else {
                    for (&v, carried) in acc.iter().zip(&mut *carry) {
                        carried[$l].write(v);
                    }
                }
            };
        }
        lane!(0, |r, v| lo[r] = v);
        lane!(1, |r, v| lo[r] = _mm512_add_ps(lo[r], v));
        lane!(2, |r, v| hi[r] = v);
        lane!(3, |r, v| lo[r] =
            _mm512_add_ps(lo[r], _mm512_add_ps(hi[r], v)));
        lane!(4, |r, v| hi[r] = v);
        lane!(5, |r, v| hi[r] = _mm512_add_ps(hi[r], v));
        lane!(6, |r, v| six[r] = v);
        lane!(7, |r, v| {
            let upper = _mm512_add_ps(hi[r], _mm512_add_ps(six[r], v));
            lo[r] = _mm512_add_ps(lo[r], upper);
        });
        if last {
            let live = ((1u32 << cols) - 1) as u16;
            for (r, &v) in lo.iter().enumerate() {
                _mm512_mask_storeu_ps(out.add(r * ldo), live, v);
            }
        }
    }
}

/// `a·bᵀ` into `out` on the AVX-512 tier, as outer products over `bᵀ`:
/// 16-column strips outermost; per strip, each depth block of `bᵀ` is
/// staged into a stack panel ([`nt_panel_avx512`]) and run through row
/// tiles of at most [`MR`] rows ([`nt_tile_avx512`]), [`NT_ROWS`] rows
/// per staged block. A product with one depth block (`k ≤ NT_KC`, every
/// shipped model) and at most [`NT_ROWS`] rows (a training batch of 10)
/// stages each strip once. Per output lane the arithmetic is that of
/// [`nt_rows_portable`].
///
/// # Safety
/// `avx512f` must be available and the operands must hold exactly `m·k`
/// (`a`), `n·k` (`b`) and `m·n` (`out`) elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn nt_avx512(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    use std::mem::MaybeUninit;
    let mut panel = [const { MaybeUninit::uninit() }; NT_KC];
    let mut carry: [NtLanes; NT_ROWS] = [[const { MaybeUninit::uninit() }; 8]; NT_ROWS];
    for jb in (0..n).step_by(16) {
        let cols = (n - jb).min(16);
        for i0 in (0..m).step_by(NT_ROWS) {
            let rows = (m - i0).min(NT_ROWS);
            for pb in (0..k).step_by(NT_KC) {
                let kc = (k - pb).min(NT_KC);
                let blocks = (pb == 0, pb + kc == k);
                // SAFETY: rows `jb..jb + cols ≤ n` of `b` hold `k` depths
                // each and the block reads depths `pb..pb + kc ≤ k`; row
                // tiles keep `i0 + ib + r < m`, so with the operand lengths
                // this function requires every `a` read and `out` write of
                // the tiles is in bounds (`out` is exclusively borrowed);
                // the tiles read the lanes their rows carried from the
                // previous block.
                unsafe {
                    nt_panel_avx512(b[jb * k + pb..].as_ptr(), k, cols, kc, &mut panel);
                    for (ib, rb) in row_tiles(rows) {
                        let i = i0 + ib;
                        let a = a[i * k + pb..].as_ptr();
                        let o = out[i * n + jb..].as_mut_ptr();
                        let carry = &mut carry[ib..];
                        let panel = &panel[..kc];
                        macro_rules! tile {
                            ($r:literal) => {
                                nt_tile_avx512::<$r>(a, k, panel, carry, blocks, o, cols, n)
                            };
                        }
                        match rb {
                            1 => tile!(1),
                            2 => tile!(2),
                            3 => tile!(3),
                            4 => tile!(4),
                            5 => tile!(5),
                            6 => tile!(6),
                            rows => unreachable!("row_tiles yields 1..=MR rows, got {rows}"),
                        }
                    }
                }
            }
        }
    }
}

/// `out = a·bᵀ` on an explicit tier; [`gemm_nt`] calls it with the
/// process's tier, the unit tests with every tier the host supports.
/// Operand lengths are checked here, ahead of any tile code.
///
/// # Safety
/// The CPU must support `path`'s instruction set ([`kernel_path`] only
/// returns such a tier).
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_nt_on(
    path: KernelPath,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    check_operand("gemm_nt", "a", a.len(), m, k);
    check_operand("gemm_nt", "b", b.len(), n, k);
    check_operand("gemm_nt", "out", out.len(), m, n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // An empty sum is `+0.0` (the fold of eight untouched lanes).
        out.fill(0.0);
        return;
    }
    match path {
        // SAFETY: the caller vouches for `avx512f`, and `check_operand`
        // above established the operand lengths the raw-pointer tiles
        // require.
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx512 => unsafe { nt_avx512(a, b, m, k, n, out) },
        // SAFETY: the caller vouches for AVX2+FMA; the body is safe code.
        #[cfg(target_arch = "x86_64")]
        KernelPath::Fma => unsafe { nt_rows_fma(a, b, k, n, out) },
        _ => nt_rows_portable(a, b, k, n, out),
    }
}

/// `out = a·bᵀ` for row-major `a: [m,k]`, `b: [n,k]`, `out: [m,n]`.
///
/// # Panics
/// Panics if an operand's length disagrees with its shape.
pub(crate) fn gemm_nt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = stats::time_kernel(K_GEMM_NT);
    // SAFETY: `kernel_path` returns a tier only after detecting its CPU
    // features.
    unsafe { gemm_nt_on(kernel_path(), a, b, out, m, k, n) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use ecofl_util::Rng;

    #[test]
    fn gemm_known_values() {
        // [2,3]·[3,2] with small integers is exact on every path.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        let mut out = [0.0f32; 4];
        gemm(&a, &b, &mut out, 2, 3, 2);
        assert_eq!(out, [58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn gemm_tn_equals_explicit_transpose() {
        // aᵀ·b where a is [k=2, m=3].
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // rows [1 2 3], [4 5 6]
        let b = [1.0, 0.0, 0.0, 1.0]; // k=2, n=2 identity
        let mut out = [0.0f32; 6];
        gemm_tn(&a, &b, &mut out, 2, 3, 2, false);
        assert_eq!(out, [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn gemm_tn_accumulates_in_place() {
        let a = [1.0, 2.0]; // k=2, m=1
        let b = [3.0, 4.0]; // k=2, n=1
        let mut out = [10.0f32];
        gemm_tn(&a, &b, &mut out, 2, 1, 1, true);
        assert_eq!(out, [10.0 + 1.0 * 3.0 + 2.0 * 4.0]);
    }

    #[test]
    fn gemm_nt_is_row_dot_products() {
        let a = [1.0, 2.0, 3.0, 4.0]; // m=2, k=2
        let b = [5.0, 6.0, 7.0, 8.0]; // n=2, k=2
        let mut out = [0.0f32; 4];
        gemm_nt(&a, &b, &mut out, 2, 2, 2);
        assert_eq!(out, [17.0, 23.0, 39.0, 53.0]);
    }

    /// Operands that reach the sign-of-zero corners of the contract:
    /// uniform values mixed with `±0.0`, magnitudes whose products
    /// underflow (the fused chain from zero can land on `-0.0`), and —
    /// read as rows of `cols > 1` elements — a dead (all-zero) first
    /// column.
    fn operand(len: usize, cols: usize, rng: &mut Rng) -> Vec<f32> {
        (0..len)
            .map(|i| {
                if cols > 1 && i % cols == 0 {
                    return 0.0;
                }
                match rng.range_usize(0, 12) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => 1e-30,
                    3 => -1e-30,
                    _ => rng.next_f32() * 2.0 - 1.0,
                }
            })
            .collect()
    }

    const MS: [usize; 7] = [1, 5, 7, 10, 23, 24, 25];
    const KS: [usize; 7] = [1, 7, 8, 9, 10, 32, 64];
    const NS: [usize; 11] = [1, 7, 10, 15, 16, 17, 31, 32, 33, 64, 65];

    #[test]
    fn gemm_matches_the_scalar_chain_on_every_host_tier() {
        let mut rng = Rng::new(0xD1_5EC7);
        for (&m, &k, &n) in MS
            .iter()
            .flat_map(|m| KS.iter().map(move |k| (m, k)))
            .flat_map(|(m, k)| NS.iter().map(move |n| (m, k, n)))
        {
            // Depth 0 of `a·b` and output column 0 are dead.
            let a = operand(m * k, k, &mut rng);
            let b = operand(k * n, n, &mut rng);
            let prior = operand(m * n, 0, &mut rng);
            for transposed in [false, true] {
                let chain = if transposed {
                    reference::chain_matmul_tn(&a, &b, k, m, n)
                } else {
                    reference::chain_matmul(&a, &b, m, k, n)
                };
                for accumulate in [false, true] {
                    let want: Vec<f32> = if accumulate {
                        prior.iter().zip(&chain).map(|(o, c)| o + c).collect()
                    } else {
                        chain.clone()
                    };
                    for path in host_paths() {
                        let mut out = prior.clone();
                        // SAFETY: `host_paths` lists detected tiers only.
                        unsafe {
                            gemm_on(path, &a, transposed, m, k, &b, n, &mut out, accumulate);
                        }
                        let what = format!("{path:?} t={transposed} acc={accumulate} {m}x{k}x{n}");
                        assert_bits(&out, &want, &what);
                    }
                }
            }
        }
    }

    /// Depths past the AVX-512 `a·bᵀ` panel ([`NT_KC`]): lanes carried
    /// across two and three depth blocks, over more than [`NT_ROWS`] rows.
    const NT_DEEP_KS: [usize; 3] = [65, 73, 136];

    #[test]
    fn nt_rows_match_the_eight_lane_chain_on_every_host_tier() {
        let mut rng = Rng::new(0x8_1A4E5);
        for (&m, &k, &n) in MS
            .iter()
            .flat_map(|m| KS.iter().chain(&NT_DEEP_KS).map(move |k| (m, k)))
            .flat_map(|(m, k)| NS.iter().map(move |n| (m, k, n)))
        {
            let a = operand(m * k, k, &mut rng);
            let b = operand(n * k, 0, &mut rng);
            let chain = reference::chain_matmul_nt(&a, &b, m, k, n);
            for path in host_paths() {
                let mut out = vec![f32::NAN; m * n];
                // SAFETY: `host_paths` lists detected tiers only.
                unsafe { gemm_nt_on(path, &a, &b, &mut out, m, k, n) };
                assert_bits(&out, &chain, &format!("{path:?} nt {m}x{k}x{n}"));
            }
            let mut out = vec![f32::NAN; m * n];
            gemm_nt(&a, &b, &mut out, m, k, n);
            assert_bits(&out, &chain, &format!("dispatched nt {m}x{k}x{n}"));
        }
    }

    #[test]
    fn a_fused_chain_from_zero_can_reach_negative_zero_on_every_host_tier() {
        // 1e-30 · −1e-30 underflows: `fma(x, y, +0.0)` rounds the exact
        // product to −0.0 (in two steps the product is already −0.0 and
        // `+0.0 + −0.0` is +0.0). NT: depth 9 reaches lane 0 twice and
        // lanes 1..8 once, so an `fma(0, 0, lane)` over the unreached part
        // of a tail would turn the −0.0 lanes into +0.0; depth 73 does the
        // same to lanes carried across two depth blocks of the AVX-512
        // panel.
        let negative_zero = (-0.0f32).to_bits();
        for path in host_paths() {
            let mut out = [1.0f32];
            // SAFETY: `host_paths` lists detected tiers only.
            unsafe { gemm_on(path, &[1e-30], false, 1, 1, &[-1e-30], 1, &mut out, false) };
            assert_eq!(out[0].to_bits(), negative_zero, "{path:?}");
        }
        for k in [9, 73] {
            let (a, b) = (vec![1e-30f32; k], vec![-1e-30f32; k]);
            let chain = reference::chain_matmul_nt(&a, &b, 1, k, 1);
            assert_eq!(chain[0].to_bits(), negative_zero, "chain, depth {k}");
            for path in host_paths() {
                let mut out = [1.0f32];
                // SAFETY: `host_paths` lists detected tiers only.
                unsafe { gemm_nt_on(path, &a, &b, &mut out, 1, k, 1) };
                assert_eq!(out[0].to_bits(), negative_zero, "{path:?} nt, depth {k}");
            }
        }
    }

    #[test]
    fn row_tiles_cover_every_row_once_in_even_tiles() {
        for m in 0..=40 {
            let tiles: Vec<_> = row_tiles(m).collect();
            assert_eq!(tiles.len(), m.div_ceil(MR));
            let mut next = 0;
            for &(first, rows) in &tiles {
                assert_eq!(first, next);
                assert!((1..=MR).contains(&rows));
                next += rows;
            }
            assert_eq!(next, m);
            let heights = tiles.iter().map(|t| t.1);
            assert!(heights.clone().max().unwrap_or(0) - heights.min().unwrap_or(0) <= 1);
        }
        assert_eq!(row_tiles(10).collect::<Vec<_>>(), [(0, 5), (5, 5)]);
    }

    #[test]
    fn empty_depth_is_a_positive_zero_sum() {
        for path in host_paths() {
            let mut out = [3.0f32, -0.0];
            // SAFETY: `host_paths` lists detected tiers only.
            unsafe { gemm_on(path, &[], false, 2, 0, &[], 1, &mut out, false) };
            assert_eq!(out.map(f32::to_bits), [0, 0], "{path:?}");
            let mut out = [3.0f32, -0.0];
            // SAFETY: as above.
            unsafe { gemm_on(path, &[], true, 2, 0, &[], 1, &mut out, true) };
            assert_eq!(out.map(f32::to_bits), [3.0f32.to_bits(), 0], "{path:?}");
        }
        for path in host_paths() {
            let mut out = [3.0f32, -0.0];
            // SAFETY: `host_paths` lists detected tiers only.
            unsafe { gemm_nt_on(path, &[], &[], &mut out, 2, 0, 1) };
            assert_eq!(out.map(f32::to_bits), [0, 0], "{path:?} nt");
        }
    }

    // Operand lengths are `assert!`ed, not `debug_assert!`ed: the tiles
    // below the entries run on raw pointers (CI reruns these in release).
    #[test]
    #[should_panic(expected = "gemm: operand `a` holds 5 elements")]
    fn gemm_rejects_a_short_operand() {
        gemm(&[0.0; 5], &[0.0; 6], &mut [0.0; 4], 2, 3, 2);
    }

    #[test]
    #[should_panic(expected = "gemm: operand `out` holds 3 elements")]
    fn gemm_rejects_a_short_output() {
        gemm(&[0.0; 6], &[0.0; 6], &mut [0.0; 3], 2, 3, 2);
    }

    #[test]
    #[should_panic(expected = "gemm_tn: operand `b` holds 7 elements")]
    fn gemm_tn_rejects_a_long_operand() {
        gemm_tn(&[0.0; 6], &[0.0; 7], &mut [0.0; 4], 3, 2, 2, true);
    }

    #[test]
    #[should_panic(expected = "gemm_nt: operand `b` holds 5 elements")]
    fn gemm_nt_rejects_a_short_operand() {
        gemm_nt(&[0.0; 6], &[0.0; 5], &mut [0.0; 4], 2, 3, 2);
    }

    #[test]
    #[should_panic(expected = "needs 18446744073709551615")]
    fn operand_shapes_that_overflow_are_rejected() {
        gemm(&[], &[], &mut [], usize::MAX, 2, 0);
    }

    #[test]
    fn kernel_stats_count_calls_only_while_enabled() {
        // Serialized against other uses of the process-global stats by
        // running everything inside this one test.
        reset_kernel_stats();
        let a = [1.0f32; 16];
        let b = [2.0f32; 16];
        let mut out = [0.0f32; 16];
        gemm(&a, &b, &mut out, 4, 4, 4);
        assert!(
            kernel_stats().is_empty(),
            "disabled collection must record nothing"
        );

        set_kernel_stats_enabled(true);
        gemm(&a, &b, &mut out, 4, 4, 4);
        gemm(&a, &b, &mut out, 4, 4, 4);
        gemm_nt(&a, &b, &mut out, 4, 4, 4);
        set_kernel_stats_enabled(false);
        gemm(&a, &b, &mut out, 4, 4, 4);

        // Other tests in this binary may run concurrently and land
        // kernel calls inside the enabled window, so the counts are
        // lower bounds; the disabled window before it saw nothing.
        let stats = kernel_stats();
        let gemm_row = stats.iter().find(|s| s.kernel == "gemm").expect("gemm row");
        assert!(gemm_row.calls >= 2, "enabled-window calls must count");
        let nt_row = stats
            .iter()
            .find(|s| s.kernel == "gemm_nt")
            .expect("gemm_nt row");
        assert!(nt_row.calls >= 1);
        assert!(
            stats
                .iter()
                .all(|s| ["portable", "fma", "avx512"].contains(&s.path)),
            "paths must be the dispatch names"
        );
        reset_kernel_stats();
        assert!(kernel_stats().is_empty());
    }
}

//! Register-tiled matrix and convolution kernels.
//!
//! This module is the compute core behind [`crate::Tensor::matmul`] and the
//! `Conv2d`/`Sgd` hot paths. Everything here runs on the calling thread:
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
//! output row at a time.
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
/// accumulators, 6 × 2 ymm (or xmm) 12 of the 16 the narrower tiers have.
const MR: usize = 6;
/// Column-strip width of the portable tiles (two 4-lane SSE registers).
const NR_PORTABLE: usize = 8;
/// Column-strip width of the AVX2 tiles (two 8-lane registers).
const NR_FMA: usize = 16;
/// Column-strip width of the AVX-512 tiles (four 16-lane registers).
const NR_AVX512: usize = 64;

/// Which kernel instantiation runtime dispatch selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KernelPath {
    /// Scalar `mul_add`, tiles up to 6×8 — any CPU.
    Portable,
    /// AVX2 + FMA, tiles up to 6×16.
    Fma,
    /// AVX-512, tiles up to 6×64 (four 16-lane zmm accumulators per row).
    Avx512,
}

fn kernel_path() -> KernelPath {
    static PATH: OnceLock<KernelPath> = OnceLock::new();
    *PATH.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                // The NT/conv helpers run the AVX2 instantiation even on
                // the AVX-512 tier, so that tier requires both.
                if std::arch::is_x86_feature_detected!("avx512f") {
                    return KernelPath::Avx512;
                }
                return KernelPath::Fma;
            }
        }
        KernelPath::Portable
    })
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
/// cumulative wall-clock nanoseconds, scraped by the metrics layer.
///
/// Collection is off by default and the disabled check is one relaxed
/// atomic load per kernel call — the hot path pays nothing until
/// [`set_kernel_stats_enabled`] turns it on (done by metered CLI runs
/// and benches, never by library code).
mod stats {
    use super::{kernel_path, path_name, KernelPath};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Instant;

    pub(super) const KERNEL_NAMES: [&str; 5] =
        ["gemm", "gemm_tn", "gemm_nt", "conv2d_fwd", "conv2d_bwd"];
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
pub(crate) const K_CONV_FWD: usize = 3;
pub(crate) const K_CONV_BWD: usize = 4;

/// One row of [`kernel_stats`]: cumulative calls and wall-clock
/// nanoseconds one dispatch entry point spent on one ISA path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelStat {
    /// Dispatch entry point (`gemm`, `gemm_tn`, `gemm_nt`,
    /// `conv2d_fwd`, `conv2d_bwd`).
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
        for (r, accr) in acc.iter().enumerate() {
            for (v, &c) in accr.iter().enumerate() {
                let o = out.add(r * ldo + 16 * v);
                let value = if accumulate {
                    _mm512_add_ps(_mm512_maskz_loadu_ps(live[v], o), c)
                } else {
                    c
                };
                _mm512_mask_storeu_ps(o, live[v], value);
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

/// `a·bᵀ` into `out`, AVX2+FMA instantiation (also the AVX-512 tier's):
/// eight outputs per row at a time through [`nt_outputs_fma`], the last
/// group as many as are left.
// SAFETY: safe, bounds-checked body; reached only through `gemm_nt`'s
// `unsafe` call, made after `kernel_path` detected AVX2+FMA.
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

/// `out = a·bᵀ` for row-major `a: [m,k]`, `b: [n,k]`, `out: [m,n]`.
///
/// Both operands are already walked contiguously, so one row kernel per
/// tier runs over the whole output.
///
/// # Panics
/// Panics if an operand's length disagrees with its shape.
pub(crate) fn gemm_nt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = stats::time_kernel(K_GEMM_NT);
    check_operand("gemm_nt", "a", a.len(), m, k);
    check_operand("gemm_nt", "b", b.len(), n, k);
    check_operand("gemm_nt", "out", out.len(), m, n);
    if m == 0 || n == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if kernel_path() != KernelPath::Portable {
        // SAFETY: `kernel_path` leaves the portable tier only after AVX2
        // and FMA were detected at runtime.
        unsafe { nt_rows_fma(a, b, k, n, out) };
        return;
    }
    nt_rows_portable(a, b, k, n, out);
}

/// Geometry of one `Conv2d` application (stride 1, symmetric zero padding).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConvShape {
    pub batch: usize,
    pub in_c: usize,
    pub h: usize,
    pub w: usize,
    pub out_c: usize,
    pub k: usize,
    pub pad: usize,
    pub oh: usize,
    pub ow: usize,
}

impl ConvShape {
    /// Valid output-row range for kernel row `ky`: `oy` such that
    /// `iy = oy + ky - pad ∈ [0, h)`.
    fn oy_range(&self, ky: usize) -> (usize, usize) {
        let lo = self.pad.saturating_sub(ky);
        let hi = (self.h + self.pad - ky).min(self.oh);
        (lo.min(hi), hi)
    }

    /// Valid output-column range for kernel column `kx`.
    fn ox_range(&self, kx: usize) -> (usize, usize) {
        let lo = self.pad.saturating_sub(kx);
        let hi = (self.w + self.pad - kx).min(self.ow);
        (lo.min(hi), hi)
    }
}

/// Blocked Conv2d forward: `out[bi,oc] = bias[oc] + Σ_{ic,ky,kx} w·x`.
///
/// The loops are restructured so the innermost loop streams a contiguous
/// output row against a contiguous input row (no per-pixel padding
/// branches); per output element the taps still arrive in the naive
/// `(ic, ky, kx)` order with the bias added first, so results are
/// bit-identical to [`crate::reference::naive_conv2d_forward`].
pub(crate) fn conv2d_forward(x: &[f32], wgt: &[f32], bias: &[f32], s: &ConvShape, out: &mut [f32]) {
    let _t = stats::time_kernel(K_CONV_FWD);
    for (plane_idx, oplane) in out.chunks_mut(s.oh * s.ow).enumerate() {
        let (bi, oc) = (plane_idx / s.out_c, plane_idx % s.out_c);
        oplane.fill(bias[oc]);
        for ic in 0..s.in_c {
            let xplane = &x[((bi * s.in_c + ic) * s.h) * s.w..][..s.h * s.w];
            for ky in 0..s.k {
                let (ylo, yhi) = s.oy_range(ky);
                for kx in 0..s.k {
                    let (xlo, xhi) = s.ox_range(kx);
                    if xlo >= xhi {
                        continue;
                    }
                    let wv = wgt[((oc * s.in_c + ic) * s.k + ky) * s.k + kx];
                    for oy in ylo..yhi {
                        let iy = oy + ky - s.pad;
                        let ix0 = xlo + kx - s.pad;
                        let xrow = &xplane[iy * s.w + ix0..][..xhi - xlo];
                        let orow = &mut oplane[oy * s.ow + xlo..oy * s.ow + xhi];
                        for (o, &xv) in orow.iter_mut().zip(xrow) {
                            *o += wv * xv;
                        }
                    }
                }
            }
        }
    }
}

/// Blocked Conv2d backward.
///
/// Three passes, each with its own equivalence contract against
/// [`crate::reference::naive_conv2d_backward`]:
///
/// - `gb`: contributions arrive in the naive `(bi, oy, ox)` order per
///   channel — **bit-identical**.
/// - `gw` (one `oc` weight slice at a time): the per-row dot products use
///   8-lane partial sums, reassociating the naive scalar chain —
///   **documented tolerance**.
/// - `gx` (one batch element's input planes at a time): contiguous axpy
///   rows; tap order per input element differs from the naive loop nest —
///   **documented tolerance**.
pub(crate) fn conv2d_backward(
    x: &[f32],
    wgt: &[f32],
    g: &[f32],
    s: &ConvShape,
    gx: &mut [f32],
    gw: &mut [f32],
    gb: &mut [f32],
) {
    let _t = stats::time_kernel(K_CONV_BWD);
    let oplane = s.oh * s.ow;

    // Pass 1: bias gradient, naive accumulation order per channel.
    for bi in 0..s.batch {
        for (oc, gbo) in gb.iter_mut().enumerate() {
            let gplane = &g[(bi * s.out_c + oc) * oplane..][..oplane];
            for &gv in gplane {
                *gbo += gv;
            }
        }
    }

    // Pass 2: weight gradient — each `oc` owns a disjoint `gw` slice.
    for (oc, gwo) in gw.chunks_mut(s.in_c * s.k * s.k).enumerate() {
        for bi in 0..s.batch {
            let gplane = &g[(bi * s.out_c + oc) * oplane..][..oplane];
            for ic in 0..s.in_c {
                let xplane = &x[((bi * s.in_c + ic) * s.h) * s.w..][..s.h * s.w];
                for ky in 0..s.k {
                    let (ylo, yhi) = s.oy_range(ky);
                    for kx in 0..s.k {
                        let (xlo, xhi) = s.ox_range(kx);
                        if xlo >= xhi {
                            continue;
                        }
                        let mut lanes = [0.0f32; 8];
                        for oy in ylo..yhi {
                            let iy = oy + ky - s.pad;
                            let ix0 = xlo + kx - s.pad;
                            let grow = &gplane[oy * s.ow + xlo..oy * s.ow + xhi];
                            let xrow = &xplane[iy * s.w + ix0..][..xhi - xlo];
                            let mut ga = grow.chunks_exact(8);
                            let mut xa = xrow.chunks_exact(8);
                            for (gc, xc) in (&mut ga).zip(&mut xa) {
                                for l in 0..8 {
                                    lanes[l] += gc[l] * xc[l];
                                }
                            }
                            for (l, (&gv, &xv)) in
                                ga.remainder().iter().zip(xa.remainder()).enumerate()
                            {
                                lanes[l] += gv * xv;
                            }
                        }
                        gwo[(ic * s.k + ky) * s.k + kx] += ((lanes[0] + lanes[1])
                            + (lanes[2] + lanes[3]))
                            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
                    }
                }
            }
        }
    }

    // Pass 3: input gradient — each batch element owns a disjoint plane.
    for (bi, gxb) in gx.chunks_mut(s.in_c * s.h * s.w).enumerate() {
        for oc in 0..s.out_c {
            let gplane = &g[(bi * s.out_c + oc) * oplane..][..oplane];
            for ic in 0..s.in_c {
                let gxplane = &mut gxb[ic * s.h * s.w..(ic + 1) * s.h * s.w];
                for ky in 0..s.k {
                    let (ylo, yhi) = s.oy_range(ky);
                    for kx in 0..s.k {
                        let (xlo, xhi) = s.ox_range(kx);
                        if xlo >= xhi {
                            continue;
                        }
                        let wv = wgt[((oc * s.in_c + ic) * s.k + ky) * s.k + kx];
                        for oy in ylo..yhi {
                            let iy = oy + ky - s.pad;
                            let ix0 = xlo + kx - s.pad;
                            let grow = &gplane[oy * s.ow + xlo..oy * s.ow + xhi];
                            let gxrow = &mut gxplane[iy * s.w + ix0..iy * s.w + ix0 + xhi - xlo];
                            for (gxv, &gv) in gxrow.iter_mut().zip(grow) {
                                *gxv += wv * gv;
                            }
                        }
                    }
                }
            }
        }
    }
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

    /// Every tier this host can run — on an AVX-512 box all three.
    fn host_paths() -> Vec<KernelPath> {
        let mut paths = vec![KernelPath::Portable];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            paths.push(KernelPath::Fma);
            if std::arch::is_x86_feature_detected!("avx512f") {
                paths.push(KernelPath::Avx512);
            }
        }
        paths
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

    fn assert_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g:e} vs {w:e}");
        }
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

    #[test]
    fn nt_rows_match_the_eight_lane_chain_on_every_host_tier() {
        let mut rng = Rng::new(0x8_1A4E5);
        for (&m, &k, &n) in MS
            .iter()
            .flat_map(|m| KS.iter().map(move |k| (m, k)))
            .flat_map(|(m, k)| NS.iter().map(move |n| (m, k, n)))
        {
            let a = operand(m * k, k, &mut rng);
            let b = operand(n * k, 0, &mut rng);
            let chain = reference::chain_matmul_nt(&a, &b, m, k, n);
            let mut out = vec![f32::NAN; m * n];
            nt_rows_portable(&a, &b, k, n, &mut out);
            assert_bits(&out, &chain, &format!("portable nt {m}x{k}x{n}"));
            #[cfg(target_arch = "x86_64")]
            if host_paths().contains(&KernelPath::Fma) {
                out.fill(f32::NAN);
                // SAFETY: AVX2 and FMA were detected by `host_paths`.
                unsafe { nt_rows_fma(&a, &b, k, n, &mut out) };
                assert_bits(&out, &chain, &format!("fma nt {m}x{k}x{n}"));
            }
            out.fill(f32::NAN);
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
        // of a tail would turn the −0.0 lanes into +0.0.
        let negative_zero = (-0.0f32).to_bits();
        for path in host_paths() {
            let mut out = [1.0f32];
            // SAFETY: `host_paths` lists detected tiers only.
            unsafe { gemm_on(path, &[1e-30], false, 1, 1, &[-1e-30], 1, &mut out, false) };
            assert_eq!(out[0].to_bits(), negative_zero, "{path:?}");
        }
        let a = [1e-30f32; 9];
        let b = [-1e-30f32; 9];
        assert_eq!(
            reference::chain_matmul_nt(&a, &b, 1, 9, 1)[0].to_bits(),
            negative_zero
        );
        let mut out = [1.0f32];
        nt_rows_portable(&a, &b, 9, 1, &mut out);
        assert_eq!(out[0].to_bits(), negative_zero, "portable nt");
        out = [1.0];
        gemm_nt(&a, &b, &mut out, 1, 9, 1);
        assert_eq!(out[0].to_bits(), negative_zero, "dispatched nt");
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
        let mut out = [3.0f32, -0.0];
        gemm_nt(&[], &[], &mut out, 2, 0, 1);
        assert_eq!(out.map(f32::to_bits), [0, 0]);
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

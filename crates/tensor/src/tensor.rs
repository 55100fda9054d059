//! Row-major dense `f32` tensors with shape checking.
//!
//! The hot path of the whole FL simulation is `matmul` inside client local
//! training; it and the transpose-composed products [`Tensor::matmul_tn`] /
//! [`Tensor::matmul_nt`] delegate to the register-tiled kernels in
//! [`crate::kernel`] (SIMD-dispatched at runtime, parallelized across fixed
//! row chunks once the work is large enough to amortize the fork-join
//! cost — see that module for the determinism and bit-identity contract
//! against [`crate::reference`]). The `*_into` forms and [`Tensor::resize`]
//! write into a tensor the caller already owns, which is how the layers
//! run a training step without allocating.

use crate::kernel;
use ecofl_util::Rng;

/// A dense, row-major `f32` tensor.
///
/// # Examples
///
/// ```
/// use ecofl_tensor::Tensor;
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = Tensor::eye(2);
/// let c = a.matmul(&b);
/// assert_eq!(c.data(), a.data());
/// ```
#[derive(Debug, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Self {
            data: self.data.clone(),
            shape: self.shape.clone(),
        }
    }

    /// Copies `source` over `self`, keeping `self`'s allocations when they
    /// are large enough.
    fn clone_from(&mut self, source: &Self) {
        self.data.clone_from(&source.data);
        self.shape.clone_from(&source.shape);
    }
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    #[must_use]
    pub fn zeros(shape: &[usize]) -> Self {
        let n = shape.iter().product();
        Self {
            data: vec![0.0; n],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor filled with `value`.
    #[must_use]
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n = shape.iter().product();
        Self {
            data: vec![value; n],
            shape: shape.to_vec(),
        }
    }

    /// Identity matrix of size `n × n`.
    #[must_use]
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the product of `shape`.
    #[must_use]
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            n,
            "from_vec: buffer length {} != shape volume {n}",
            data.len()
        );
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Gaussian-initialized tensor (mean 0, the given std), deterministic
    /// under the provided RNG. Used for weight init.
    #[must_use]
    pub fn randn(shape: &[usize], std: f32, rng: &mut Rng) -> Self {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| rng.next_gaussian() as f32 * std).collect();
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer (row-major).
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Gives the tensor a new shape of any volume, keeping its allocations
    /// when they are large enough — how a recycled buffer follows a ragged
    /// last batch. Elements kept keep their values, new ones are zero;
    /// callers overwrite all of them.
    pub fn resize(&mut self, shape: &[usize]) {
        self.data.resize(shape.iter().product(), 0.0);
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }

    /// Number of rows of a 2-D tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not 2-D.
    #[must_use]
    pub fn rows(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "rows: tensor is not 2-D");
        self.shape[0]
    }

    /// Number of columns of a 2-D tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not 2-D.
    #[must_use]
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "cols: tensor is not 2-D");
        self.shape[1]
    }

    /// Matrix product of two 2-D tensors (`[m,k] × [k,n] → [m,n]`).
    ///
    /// Runs the register-tiled kernel in `crate::kernel`; results are
    /// bit-identical across hosts: every element is the
    /// scalar chain [`crate::reference::chain_matmul`].
    ///
    /// # Panics
    /// Panics on non-2-D inputs or mismatched inner dimensions.
    #[must_use]
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&[0, 0]);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul`] written over `out`, which is resized to `[m,n]`.
    ///
    /// # Panics
    /// Panics on non-2-D inputs or mismatched inner dimensions.
    pub(crate) fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul: inner dimensions {k} vs {k2}");
        out.resize(&[m, n]);
        kernel::gemm(&self.data, &other.data, &mut out.data, m, k, n);
    }

    /// `selfᵀ · other` without materializing the transpose
    /// (`[k,m]ᵀ × [k,n] → [m,n]`).
    ///
    /// This is the gradient product `xᵀ·g` in `Linear::backward`; the
    /// kernel reads (or packs) columns of `self` where they lie instead of
    /// building the `[m,k]` transpose.
    ///
    /// # Panics
    /// Panics on non-2-D inputs or mismatched leading dimensions.
    #[must_use]
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&[self.cols(), other.cols()]);
        self.matmul_tn_acc(other, &mut out);
        out
    }

    /// `acc += selfᵀ · other`, the accumulating form of
    /// [`Tensor::matmul_tn`] used for gradient accumulation.
    ///
    /// # Panics
    /// Panics on non-2-D inputs or shape mismatches (including `acc`).
    pub fn matmul_tn_acc(&self, other: &Tensor, acc: &mut Tensor) {
        let (k, m) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul_tn: leading dimensions {k} vs {k2}");
        assert_eq!(
            acc.shape(),
            &[m, n],
            "matmul_tn_acc: accumulator shape mismatch"
        );
        kernel::gemm_tn(&self.data, &other.data, &mut acc.data, k, m, n, true);
    }

    /// `self · otherᵀ` without materializing the transpose
    /// (`[m,k] × [n,k]ᵀ → [m,n]`).
    ///
    /// This is the gradient product `g·Wᵀ` in `Linear::backward`. Both
    /// operands are walked row-contiguously; the per-element dot product
    /// is the eight-lane chain [`crate::reference::chain_matmul_nt`], bit
    /// for bit, which reassociates
    /// [`crate::reference::naive_matmul_nt`] within the documented
    /// tolerance.
    ///
    /// # Panics
    /// Panics on non-2-D inputs or mismatched trailing dimensions.
    #[must_use]
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&[0, 0]);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul_nt`] written over `out`, which is resized to
    /// `[m,n]`.
    ///
    /// # Panics
    /// Panics on non-2-D inputs or mismatched trailing dimensions.
    pub(crate) fn matmul_nt_into(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k) = (self.rows(), self.cols());
        let (n, k2) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul_nt: trailing dimensions {k} vs {k2}");
        out.resize(&[m, n]);
        kernel::gemm_nt(&self.data, &other.data, &mut out.data, m, k, n);
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not 2-D.
    #[must_use]
    pub fn transpose(&self) -> Tensor {
        let (m, n) = (self.rows(), self.cols());
        let mut out = vec![0.0f32; m * n];
        for (i, row) in self.data.chunks(n).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                out[j * m + i] = v;
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Element-wise sum.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    #[must_use]
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "add: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// In-place `self += scale * other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape, other.shape, "add_scaled: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Returns `self * scalar`.
    #[must_use]
    pub fn scale(&self, scalar: f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|a| a * scalar).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Adds a `[n]` bias vector to every row of a `[m, n]` tensor, in place.
    ///
    /// # Panics
    /// Panics if shapes are incompatible.
    pub fn add_row_bias(&mut self, bias: &Tensor) {
        let n = self.cols();
        assert_eq!(bias.len(), n, "add_row_bias: bias length mismatch");
        // SAFETY: `kernel_path` returns a tier only after detecting its CPU
        // features.
        unsafe { add_row_bias_on(kernel::kernel_path(), &mut self.data, bias.data()) };
    }

    /// Sum over rows of a 2-D tensor → `[n]` vector (bias gradient).
    #[must_use]
    pub fn sum_rows(&self) -> Tensor {
        let n = self.cols();
        let mut out = vec![0.0f32; n];
        for row in self.data.chunks(n) {
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        Tensor::from_vec(out, &[n])
    }

    /// Squared L2 norm of all elements.
    #[must_use]
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Fills the buffer with zeros (gradient reset between steps).
    pub fn zero(&mut self) {
        self.data.fill(0.0);
    }
}

/// [`Tensor::add_row_bias`]'s loop on an explicit tier
/// ([`kernel::on_tier`]): `bias` added onto every `bias.len()`-wide row of
/// `x`.
///
/// # Safety
/// The CPU must support `path`'s instruction set.
unsafe fn add_row_bias_on(path: kernel::KernelPath, x: &mut [f32], bias: &[f32]) {
    // SAFETY: the caller vouches for `path`.
    unsafe { kernel::on_tier(path, move || add_row_bias_body(x, bias)) }
}

#[inline(always)]
fn add_row_bias_body(x: &mut [f32], bias: &[f32]) {
    for row in x.chunks_mut(bias.len()) {
        for (x, b) in row.iter_mut().zip(bias) {
            *x += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{assert_bits, awkward_values, host_paths, KernelPath};

    #[test]
    fn every_tier_adds_the_row_bias_with_the_bits_of_the_portable_loop() {
        let mut rng = Rng::new(0xB1_A5);
        for n in 1..=67 {
            for rows in [1, 3, 10] {
                let x = awkward_values(rows * n, &mut rng);
                let bias = awkward_values(n, &mut rng);
                let mut want = x.clone();
                // SAFETY: the portable tier runs on any CPU.
                unsafe { add_row_bias_on(KernelPath::Portable, &mut want, &bias) };
                for path in host_paths() {
                    let mut got = x.clone();
                    // SAFETY: `host_paths` lists detected tiers only.
                    unsafe { add_row_bias_on(path, &mut got, &bias) };
                    assert_bits(&got, &want, &format!("{path:?} {rows}x{n}"));
                }
            }
        }
    }

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert!(t.data().iter().all(|&x| x == 0.0));
        let f = Tensor::full(&[4], 2.5);
        assert!(f.data().iter().all(|&x| x == 2.5));
    }

    #[test]
    #[should_panic(expected = "volume")]
    fn from_vec_checks_volume() {
        let _ = Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn matmul_known_result() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = Rng::new(1);
        let a = Tensor::randn(&[5, 5], 1.0, &mut rng);
        let c = a.matmul(&Tensor::eye(5));
        for (x, y) in a.data().iter().zip(c.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn matmul_matches_the_tier_chain_bitwise() {
        // In-crate smoke check of the contract tests/kernel_equivalence.rs
        // sweeps: every element is the scalar chain, bit for bit.
        let mut rng = Rng::new(2);
        let (m, k, n) = (80, 70, 90);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let chain = crate::reference::chain_matmul(a.data(), b.data(), m, k, n);
        assert_eq!(a.matmul(&b).data(), &chain[..]);
    }

    #[test]
    fn into_forms_resize_and_reuse_the_output() {
        let mut rng = Rng::new(21);
        let a = Tensor::randn(&[10, 6], 1.0, &mut rng);
        let w = Tensor::randn(&[6, 4], 1.0, &mut rng);
        let g = Tensor::randn(&[10, 4], 1.0, &mut rng);
        let mut out = Tensor::full(&[3, 50], 7.0);
        let before = out.data().as_ptr();
        a.matmul_into(&w, &mut out);
        assert_eq!(out, a.matmul(&w));
        g.matmul_nt_into(&w, &mut out);
        assert_eq!(out, g.matmul_nt(&w));
        assert_eq!(out.shape(), &[10, 6]);
        assert_eq!(out.data().as_ptr(), before, "150 elements fit 40 and 60");
    }

    #[test]
    fn resize_works_in_place() {
        let mut t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        t.resize(&[1, 2]);
        assert_eq!((t.shape(), t.data()), (&[1, 2][..], &[1.0, 2.0][..]));
        t.resize(&[2, 2]);
        assert_eq!(t.data(), &[1.0, 2.0, 0.0, 0.0]);
        let mut copy = Tensor::zeros(&[9]);
        copy.clone_from(&t);
        assert_eq!(copy, t);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose_composition() {
        let mut rng = Rng::new(12);
        let a = Tensor::randn(&[9, 5], 1.0, &mut rng); // [k=9, m=5]
        let b = Tensor::randn(&[9, 7], 1.0, &mut rng); // [k=9, n=7]
        let fused = a.matmul_tn(&b);
        let composed = a.transpose().matmul(&b);
        assert_eq!(fused.shape(), &[5, 7]);
        for (x, y) in fused.data().iter().zip(composed.data()) {
            assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_tn_acc_accumulates() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]); // [k=2, m=1]
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2, 1]); // [k=2, n=1]
        let mut acc = Tensor::full(&[1, 1], 5.0);
        a.matmul_tn_acc(&b, &mut acc);
        assert_eq!(acc.data(), &[5.0 + 1.0 * 3.0 + 2.0 * 4.0]);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose_composition() {
        let mut rng = Rng::new(13);
        let a = Tensor::randn(&[6, 11], 1.0, &mut rng); // [m=6, k=11]
        let b = Tensor::randn(&[8, 11], 1.0, &mut rng); // [n=8, k=11]
        let fused = a.matmul_nt(&b);
        let composed = a.matmul(&b.transpose());
        assert_eq!(fused.shape(), &[6, 8]);
        for (x, y) in fused.data().iter().zip(composed.data()) {
            assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()), "{x} vs {y}");
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_checks_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trip() {
        let mut rng = Rng::new(3);
        let a = Tensor::randn(&[3, 7], 1.0, &mut rng);
        let t = a.transpose();
        assert_eq!(t.shape(), &[7, 3]);
        assert_eq!(a, t.transpose());
    }

    #[test]
    fn add_and_scale() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert_eq!(a.add(&b).data(), &[4.0, 6.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
        let mut c = a.clone();
        c.add_scaled(&b, -1.0);
        assert_eq!(c.data(), &[-2.0, -2.0]);
    }

    #[test]
    fn row_bias_and_sum_rows() {
        let mut x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        x.add_row_bias(&b);
        assert_eq!(x.data(), &[11.0, 22.0, 13.0, 24.0]);
        let s = x.sum_rows();
        assert_eq!(s.data(), &[24.0, 46.0]);
    }

    #[test]
    fn norm_sq_sums_squares() {
        let t = Tensor::from_vec(vec![3.0, 4.0], &[1, 2]);
        assert_eq!(t.norm_sq(), 25.0);
    }

    #[test]
    fn randn_deterministic() {
        let mut r1 = Rng::new(42);
        let mut r2 = Rng::new(42);
        let a = Tensor::randn(&[10], 0.5, &mut r1);
        let b = Tensor::randn(&[10], 0.5, &mut r2);
        assert_eq!(a, b);
    }
}

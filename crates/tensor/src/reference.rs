//! Retained reference kernels — the semantic ground truth for
//! [`crate::kernel`].
//!
//! Two kinds, both deliberately kept *simple* (no zero-skips, no blocking):
//!
//! - the **scalar chains** (`chain_matmul`, `chain_matmul_tn`,
//!   `chain_matmul_nt`): per output element, the exact sequence of
//!   floating-point operations every GEMM driver performs on every tier —
//!   ascending-`p` `f32::mul_add` from zero; eight lane sums and a fixed
//!   fold for `a·bᵀ`. The kernels match them **bit for bit** on every
//!   host;
//! - the **naive loops** (`naive_*`): the textbook `mul` + `add` products
//!   the chains stay within the documented rounding bound of, plus the
//!   naive convolution (bias first, `(ic, ky, kx)` taps ascending) and the
//!   branch-in-loop SGD step.
//!
//! `tests/kernel_equivalence.rs` and the unit tests in `kernel.rs` assert
//! the contract (see `DESIGN.md` §7, "Kernel tiling and the tolerance
//! policy").

/// `out[i,j] = acc_k` with `acc_0 = 0`, `acc_{p+1} = step(a[i·ra + p·pa],
/// b[p·n + j], acc_p)`: the loop nest the `a·b` / `aᵀ·b` chains and naive
/// products share, each with its own multiply-accumulate.
fn product(
    (a, ra, pa): (&[f32], usize, usize),
    b: &[f32],
    (m, k, n): (usize, usize, usize),
    step: impl Fn(f32, f32, f32) -> f32,
) -> Vec<f32> {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc = step(a[i * ra + p * pa], b[p * n + j], acc);
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// The scalar chain every `a·b` kernel computes, element by element, on
/// every tier: `acc = 0`, `acc = a[i,p].mul_add(b[p,j], acc)` for
/// ascending `p`. The kernels match it **bit for bit**.
#[must_use]
pub fn chain_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    product((a, k, 1), b, (m, k, n), f32::mul_add)
}

/// [`chain_matmul`] for `aᵀ·b`, `a: [k,m]`.
#[must_use]
pub fn chain_matmul_tn(a: &[f32], b: &[f32], k: usize, m: usize, n: usize) -> Vec<f32> {
    product((a, 1, m), b, (m, k, n), f32::mul_add)
}

/// The chain every `a·bᵀ` kernel computes (`a: [m,k]`, `b: [n,k]`): eight
/// partial sums, lane `l` taking the depths `p ≡ l (mod 8)` in ascending
/// order from zero, folded as `((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))`. A
/// lane a short depth never reaches stays `+0.0`.
#[must_use]
pub fn chain_matmul_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut lanes = [0.0f32; 8];
            for p in 0..k {
                lanes[p % 8] = a[i * k + p].mul_add(b[j * k + p], lanes[p % 8]);
            }
            out[i * n + j] = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
                + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
        }
    }
    out
}

/// Naive `out = a·b` for row-major `a: [m,k]`, `b: [k,n]`: the plain
/// `mul` + `add` chain.
#[must_use]
pub fn naive_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    product((a, k, 1), b, (m, k, n), |x, y, acc| acc + x * y)
}

/// Naive `out = aᵀ·b` for row-major `a: [k,m]`, `b: [k,n]`.
#[must_use]
pub fn naive_matmul_tn(a: &[f32], b: &[f32], k: usize, m: usize, n: usize) -> Vec<f32> {
    product((a, 1, m), b, (m, k, n), |x, y, acc| acc + x * y)
}

/// Naive `out = a·bᵀ` for row-major `a: [m,k]`, `b: [n,k]`: one scalar
/// accumulator per element, which the 8-lane kernels reassociate (see
/// [`chain_matmul_nt`] for what they compute exactly).
#[must_use]
pub fn naive_matmul_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[j * k + p];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// Naive stride-1 zero-padded Conv2d forward.
///
/// `x: [batch, in_c, h, w]`, `wgt: [out_c, in_c, k, k]`, `bias: [out_c]` →
/// `[batch, out_c, oh, ow]` with `oh = h + 2·pad + 1 − k`.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn naive_conv2d_forward(
    x: &[f32],
    wgt: &[f32],
    bias: &[f32],
    batch: usize,
    in_c: usize,
    h: usize,
    w: usize,
    out_c: usize,
    k: usize,
    pad: usize,
) -> Vec<f32> {
    let (oh, ow) = (h + 2 * pad + 1 - k, w + 2 * pad + 1 - k);
    let mut out = vec![0.0f32; batch * out_c * oh * ow];
    for bi in 0..batch {
        for oc in 0..out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias[oc];
                    for ic in 0..in_c {
                        for ky in 0..k {
                            let iy = (oy + ky) as isize - pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox + kx) as isize - pad as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xi = ((bi * in_c + ic) * h + iy as usize) * w + ix as usize;
                                let wi = ((oc * in_c + ic) * k + ky) * k + kx;
                                acc += x[xi] * wgt[wi];
                            }
                        }
                    }
                    out[((bi * out_c + oc) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    out
}

/// Naive Conv2d backward → `(gx, gw, gb)`, all freshly allocated.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn naive_conv2d_backward(
    x: &[f32],
    wgt: &[f32],
    g: &[f32],
    batch: usize,
    in_c: usize,
    h: usize,
    w: usize,
    out_c: usize,
    k: usize,
    pad: usize,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (oh, ow) = (h + 2 * pad + 1 - k, w + 2 * pad + 1 - k);
    let mut gx = vec![0.0f32; batch * in_c * h * w];
    let mut gw = vec![0.0f32; out_c * in_c * k * k];
    let mut gb = vec![0.0f32; out_c];
    for bi in 0..batch {
        for oc in 0..out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let go = g[((bi * out_c + oc) * oh + oy) * ow + ox];
                    gb[oc] += go;
                    for ic in 0..in_c {
                        for ky in 0..k {
                            let iy = (oy + ky) as isize - pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox + kx) as isize - pad as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xi = ((bi * in_c + ic) * h + iy as usize) * w + ix as usize;
                                let wi = ((oc * in_c + ic) * k + ky) * k + kx;
                                gw[wi] += go * x[xi];
                                gx[xi] += go * wgt[wi];
                            }
                        }
                    }
                }
            }
        }
    }
    (gx, gw, gb)
}

/// Naive SGD/momentum/FedProx step — one element at a time, every branch
/// evaluated inside the loop, exactly as `Sgd::step` was originally
/// written. The rewritten optimizer must match this **bit-identically**
/// (the update expression per element is unchanged; only the branching
/// moved out of the loop).
pub fn naive_sgd_step(
    params: &mut [f32],
    grads: &[f32],
    reference: Option<&[f32]>,
    velocity: Option<&mut [f32]>,
    lr: f32,
    momentum: f32,
    mu: f32,
) {
    let mut velocity = velocity;
    for i in 0..params.len() {
        let mut g = grads[i];
        if mu > 0.0 {
            g += mu * (params[i] - reference.expect("naive_sgd_step: missing reference")[i]);
        }
        let update = if momentum > 0.0 {
            let vel = velocity
                .as_deref_mut()
                .expect("naive_sgd_step: missing velocity");
            let v = momentum * vel[i] + g;
            vel[i] = v;
            v
        } else {
            g
        };
        params[i] -= lr * update;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_matmul_known() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        assert_eq!(
            naive_matmul(&a, &b, 2, 3, 2),
            vec![58.0, 64.0, 139.0, 154.0]
        );
    }

    #[test]
    fn tn_and_nt_agree_with_explicit_transposes() {
        // a: [2,3], b: [2,3] → aᵀ·b is [3,3]; a·aᵀ is [2,2].
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let at = [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]; // [3,2]
        assert_eq!(
            naive_matmul_tn(&a, &a, 2, 3, 3),
            naive_matmul(&at, &a, 3, 2, 3)
        );
        assert_eq!(
            naive_matmul_nt(&a, &a, 2, 3, 2),
            naive_matmul(&a, &at, 2, 3, 2)
        );
    }

    #[test]
    fn conv_identity_kernel_passes_input_through() {
        // 1×1 kernel of weight 1, no padding: conv is the identity.
        let x: Vec<f32> = (0..2 * 3 * 3).map(|i| i as f32).collect();
        let out = naive_conv2d_forward(&x, &[1.0, 0.0, 0.0, 1.0], &[0.0, 0.0], 1, 2, 3, 3, 2, 1, 0);
        // out channel 0 sees input channel 0, channel 1 sees channel 1.
        assert_eq!(out, x);
    }

    #[test]
    fn naive_sgd_matches_hand_computation() {
        let mut w = vec![1.0f32, -2.0];
        naive_sgd_step(&mut w, &[0.5, -0.5], None, None, 0.1, 0.0, 0.0);
        assert_eq!(w, vec![1.0 - 0.1 * 0.5, -2.0 + 0.1 * 0.5]);
    }
}

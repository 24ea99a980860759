//! GEMM — blocked, parallel matrix multiply, plus the reduced-precision
//! variants CoMet (§3.6) computes with.
//!
//! `C ← α·A·B + β·C`, column-major, parallelised over column panels of `C`
//! with a k-blocked inner kernel. The reduced-precision paths emulate
//! tensor-core semantics: FP16 inputs with FP32 accumulation
//! (`gemm_f16_acc32`) and Int8 inputs with Int32 accumulation (`gemm_i8`).

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use exa_hal::exec;

/// Cache block in the k dimension.
const KBLOCK: usize = 64;
/// Column panel width per parallel task.
const JPANEL: usize = 8;
/// Cache block in the m (row) dimension: one `MB`-row tile of a C column
/// (2 KiB at f64) stays L1-resident across a whole k-block instead of
/// streaming the full column once per k iteration.
const MB: usize = 256;

/// General matrix multiply: `c ← alpha * a * b + beta * c`.
///
/// # Panics
/// Panics when dimensions are incompatible.
pub fn gemm<S: Scalar>(alpha: S, a: &Matrix<S>, b: &Matrix<S>, beta: S, c: &mut Matrix<S>) {
    let (m, k) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    assert_eq!(k, kb, "inner dimensions must agree");
    assert_eq!(c.rows(), m, "C row count mismatch");
    assert_eq!(c.cols(), n, "C column count mismatch");
    if m == 0 || n == 0 {
        return;
    }

    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let c_cols = c.as_mut_slice();

    // Each panel of `JPANEL` columns of C is independent.
    exec::par_chunks_mut(c_cols, m * JPANEL, |panel, c_panel| {
        let j0 = panel * JPANEL;
        let ncols = c_panel.len() / m;
        // Scale C by beta once.
        for x in c_panel.iter_mut() {
            *x = beta * *x;
        }
        // k-blocked, row-blocked accumulation. Splitting the row loop
        // into MB tiles only reorders independent axpy spans — every
        // C element still accumulates its k terms in ascending order,
        // so results are bit-identical to the unblocked kernel.
        let mut k0 = 0;
        while k0 < k {
            let kend = (k0 + KBLOCK).min(k);
            for (jj, c_col) in c_panel.chunks_mut(m).enumerate().take(ncols) {
                let j = j0 + jj;
                let mut i0 = 0;
                while i0 < m {
                    let iend = (i0 + MB).min(m);
                    let c_blk = &mut c_col[i0..iend];
                    for kk in k0..kend {
                        let bkj = alpha * b_data[kk + j * k];
                        let a_blk = &a_data[kk * m + i0..kk * m + iend];
                        for (ci, &aik) in c_blk.iter_mut().zip(a_blk) {
                            let prod = aik * bkj;
                            *ci += prod;
                        }
                    }
                    i0 = iend;
                }
            }
            k0 = kend;
        }
    });
}

/// Convenience: `A * B` with fresh output.
pub fn matmul<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> Matrix<S> {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(S::one(), a, b, S::zero(), &mut c);
    c
}

/// FLOPs performed by a GEMM of these dimensions in the given scalar type.
pub fn gemm_flops<S: Scalar>(m: usize, n: usize, k: usize) -> f64 {
    m as f64 * n as f64 * k as f64 * S::FLOPS_PER_MULADD
}

// ---- reduced precision ---------------------------------------------------

/// Round an `f32` through IEEE half precision (round-to-nearest-even),
/// returning the value a tensor core would actually see.
pub fn f16_round(x: f32) -> f32 {
    f16_to_f32(f32_to_f16(x))
}

/// Convert `f32` to IEEE 754 binary16 bits (round-to-nearest-even, with
/// proper subnormal and overflow handling).
pub fn f32_to_f16(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;

    if exp == 0xFF {
        // Inf / NaN.
        return sign | 0x7C00 | if mant != 0 { 0x0200 } else { 0 };
    }
    // Rebias 127 -> 15.
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7C00; // overflow to inf
    }
    if unbiased >= -14 {
        // Normal half.
        let half_exp = (unbiased + 15) as u32;
        let mut half_mant = mant >> 13;
        // Round to nearest even on the 13 dropped bits.
        let rem = mant & 0x1FFF;
        if rem > 0x1000 || (rem == 0x1000 && (half_mant & 1) == 1) {
            half_mant += 1;
        }
        let combined = (half_exp << 10) + half_mant; // mantissa carry bumps exp
        return sign | combined as u16;
    }
    if unbiased >= -24 {
        // Subnormal half: value = half_mant · 2⁻²⁴, so shift the 24-bit
        // full mantissa right by (−e − 1) ∈ [14, 23] with round-to-even.
        let shift = (-unbiased - 1) as u32;
        let full = mant | 0x0080_0000; // implicit leading 1
        let mut half_mant = full >> shift;
        let rem = full & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        if rem > halfway || (rem == halfway && (half_mant & 1) == 1) {
            half_mant += 1;
        }
        return sign | half_mant as u16;
    }
    sign // underflow to zero
}

/// Convert IEEE 754 binary16 bits to `f32`.
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let mant = (h & 0x03FF) as u32;
    let bits = if exp == 0x1F {
        sign | 0x7F80_0000 | (mant << 13)
    } else if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // Subnormal: normalise.
            let mut e = -1i32;
            let mut m = mant;
            while m & 0x0400 == 0 {
                m <<= 1;
                e -= 1;
            }
            m &= 0x03FF;
            let exp32 = (e + 1 - 15 + 127) as u32;
            sign | (exp32 << 23) | (m << 13)
        }
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(bits)
}

/// GEMM with FP16 inputs and FP32 accumulation (tensor-core semantics):
/// inputs are rounded through binary16 and products accumulate in `f32`.
pub fn gemm_f16_acc32(a: &Matrix<f32>, b: &Matrix<f32>) -> Matrix<f32> {
    let (m, k) = (a.rows(), a.cols());
    assert_eq!(k, b.rows());
    let n = b.cols();
    let ah: Vec<f32> = a.as_slice().iter().map(|&x| f16_round(x)).collect();
    let bh: Vec<f32> = b.as_slice().iter().map(|&x| f16_round(x)).collect();
    let mut c = Matrix::zeros(m, n);
    let c_slice = c.as_mut_slice();
    exec::par_chunks_mut(c_slice, m, |j, c_col| {
        for kk in 0..k {
            let bkj = bh[kk + j * k];
            let a_col = &ah[kk * m..kk * m + m];
            for (ci, &aik) in c_col.iter_mut().zip(a_col) {
                *ci += aik * bkj;
            }
        }
    });
    c
}

/// GEMM with Int8 inputs and Int32 accumulation (DP4A / int8 MFMA
/// semantics). Matrices are column-major slices with explicit dims.
pub fn gemm_i8(m: usize, n: usize, k: usize, a: &[i8], b: &[i8]) -> Vec<i32> {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    let mut c = vec![0i32; m * n];
    exec::par_chunks_mut(&mut c, m, |j, c_col| {
        for kk in 0..k {
            let bkj = b[kk + j * k] as i32;
            let a_col = &a[kk * m..kk * m + m];
            for (ci, &aik) in c_col.iter_mut().zip(a_col) {
                *ci += aik as i32 * bkj;
            }
        }
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C64;

    fn assert_gemm_matches_ref<S: Scalar>(m: usize, n: usize, k: usize, seed: u64, tol: f64) {
        let a = Matrix::<S>::seeded_random(m, k, seed);
        let b = Matrix::<S>::seeded_random(k, n, seed + 1);
        let fast = matmul(&a, &b);
        let slow = a.matmul_ref(&b);
        assert!(
            fast.max_abs_diff(&slow) < tol,
            "gemm mismatch at {m}x{n}x{k}: {}",
            fast.max_abs_diff(&slow)
        );
    }

    #[test]
    fn gemm_matches_reference_f64() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 7),
            (17, 17, 17),
            (64, 32, 48),
            (100, 3, 200),
        ] {
            assert_gemm_matches_ref::<f64>(m, n, k, 11, 1e-11);
        }
    }

    #[test]
    fn gemm_matches_reference_f32() {
        assert_gemm_matches_ref::<f32>(33, 29, 65, 3, 1e-3);
    }

    #[test]
    fn gemm_matches_reference_complex() {
        assert_gemm_matches_ref::<C64>(24, 24, 24, 5, 1e-11);
    }

    #[test]
    fn alpha_beta_semantics() {
        let a = Matrix::<f64>::seeded_random(8, 8, 1);
        let b = Matrix::<f64>::seeded_random(8, 8, 2);
        let c0 = Matrix::<f64>::seeded_random(8, 8, 3);
        let mut c = c0.clone();
        gemm(2.0, &a, &b, 0.5, &mut c);
        let expect = {
            let mut ab = a.matmul_ref(&b);
            for j in 0..8 {
                for i in 0..8 {
                    ab[(i, j)] = 2.0 * ab[(i, j)] + 0.5 * c0[(i, j)];
                }
            }
            ab
        };
        assert!(c.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn gemm_flop_counts() {
        assert_eq!(gemm_flops::<f64>(10, 20, 30), 12_000.0);
        assert_eq!(gemm_flops::<C64>(10, 20, 30), 48_000.0);
    }

    #[test]
    fn f16_round_trip_exact_values() {
        for x in [0.0f32, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 6.1035156e-5] {
            assert_eq!(f16_round(x), x, "{x} should be exactly representable");
        }
    }

    #[test]
    fn f16_rounds_inexact_values() {
        // 1 + 2^-11 rounds to 1 in half precision (10 mantissa bits).
        let x = 1.0f32 + 2f32.powi(-11);
        assert_eq!(f16_round(x), 1.0);
        // 1 + 2^-10 is representable.
        let y = 1.0f32 + 2f32.powi(-10);
        assert_eq!(f16_round(y), y);
    }

    #[test]
    fn f16_overflow_and_subnormals() {
        assert!(f16_round(1e6).is_infinite());
        assert_eq!(f16_round(f32::INFINITY), f32::INFINITY);
        // Smallest half subnormal ~5.96e-8 survives; much smaller flushes to 0.
        let tiny = 5.9604645e-8f32;
        assert!(f16_round(tiny) > 0.0);
        assert_eq!(f16_round(1e-9), 0.0);
        // Sign preserved through zero flush.
        assert!(f16_round(-1e-9).to_bits() == (-0.0f32).to_bits());
    }

    #[test]
    fn f16_gemm_close_but_not_exact() {
        let a = Matrix::<f32>::seeded_random(32, 32, 7);
        let b = Matrix::<f32>::seeded_random(32, 32, 8);
        let full = matmul(&a, &b);
        let half = gemm_f16_acc32(&a, &b);
        let diff = full.max_abs_diff(&half);
        assert!(diff > 0.0, "half precision must actually lose bits");
        assert!(diff < 0.05, "but stay close: diff {diff}");
    }

    #[test]
    fn i8_gemm_exact_small_integers() {
        // 2x2: a = [1 2; 3 4] (column major: 1,3,2,4), b = [5 6; 7 8].
        let a = [1i8, 3, 2, 4];
        let b = [5i8, 7, 6, 8];
        let c = gemm_i8(2, 2, 2, &a, &b);
        assert_eq!(c, vec![19, 43, 22, 50]);
    }

    #[test]
    fn i8_gemm_accumulates_in_i32() {
        // 127*127*k would overflow i8/i16 quickly; i32 must hold it.
        let k = 1024;
        let a = vec![127i8; k]; // 1 x k
        let b = vec![127i8; k]; // k x 1
        let c = gemm_i8(1, 1, k, &a, &b);
        assert_eq!(c[0], 127 * 127 * k as i32);
    }

    #[test]
    fn empty_dims_are_noops() {
        let a = Matrix::<f64>::zeros(0, 5);
        let b = Matrix::<f64>::zeros(5, 0);
        let c = matmul(&a, &b);
        assert_eq!(c.rows(), 0);
        assert_eq!(c.cols(), 0);
    }
}

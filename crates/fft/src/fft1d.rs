//! One-dimensional complex FFTs.
//!
//! Powers of two run the crate's shared in-place kernel (`pow2.rs`:
//! radix-2² passes on AVX2 where the host has it, the textbook radix-2
//! Cooley–Tukey loop elsewhere, bit for bit the same either way); other
//! lengths fall back to Bluestein's chirp-z algorithm (which reduces any
//! length to a power-of-two cyclic convolution).

use crate::pow2;
use exa_linalg::C64;
use std::f64::consts::PI;

/// Forward DFT, in place: `X[k] = Σ x[j]·e^{-2πi jk/n}`.
pub fn fft(data: &mut [C64]) {
    fft_batch(data, data.len());
}

/// Inverse DFT, in place, normalised by `1/n` so `ifft(fft(x)) = x`.
pub fn ifft(data: &mut [C64]) {
    ifft_batch(data, data.len());
}

/// Bluestein's algorithm: any-length DFT via a power-of-two convolution.
fn bluestein(data: &mut [C64], inverse: bool) {
    let n = data.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    // Chirp: w[j] = e^{sign·πi j²/n}. Use j² mod 2n to stay accurate.
    let chirp: Vec<C64> = (0..n)
        .map(|j| {
            let jj = (j * j) % (2 * n);
            C64::cis(sign * PI * jj as f64 / n as f64)
        })
        .collect();

    let m = (2 * n - 1).next_power_of_two();
    let mut a = vec![C64::ZERO; m];
    let mut b = vec![C64::ZERO; m];
    for j in 0..n {
        a[j] = data[j] * chirp[j];
        b[j] = chirp[j].conj();
    }
    for j in 1..n {
        b[m - j] = chirp[j].conj();
    }
    pow2::transform(&mut a, m, false);
    pow2::transform(&mut b, m, false);
    for (x, y) in a.iter_mut().zip(&b) {
        *x *= *y;
    }
    pow2::transform(&mut a, m, true);
    let scale = 1.0 / m as f64;
    for k in 0..n {
        data[k] = a[k].scale(scale) * chirp[k];
    }
}

/// Forward DFT of `lines.len() / n` contiguous length-`n` lines, bit-for-bit
/// identical to calling [`fft`] per line.
///
/// Power-of-two lines go through the shared kernel with one plan lookup
/// for the whole batch; every per-line floating-point operation and its
/// order are unchanged (lines are independent), so batching never moves
/// a bit. The executed 3-D FFT hands each rank's whole part over as one
/// batch.
pub fn fft_batch(lines: &mut [C64], n: usize) {
    transform(lines, n, false);
}

/// Inverse counterpart of [`fft_batch`], bit-identical to per-line [`ifft`].
pub fn ifft_batch(lines: &mut [C64], n: usize) {
    transform(lines, n, true);
    let scale = 1.0 / n as f64;
    for z in lines.iter_mut() {
        *z = z.scale(scale);
    }
}

/// Dispatch on line length.
fn transform(lines: &mut [C64], n: usize, inverse: bool) {
    assert_eq!(lines.len() % n.max(1), 0, "batch must hold whole lines");
    if n <= 1 {
        return;
    }
    if n.is_power_of_two() {
        pow2::transform(lines, n, inverse);
    } else {
        for line in lines.chunks_mut(n) {
            bluestein(line, inverse);
        }
    }
}

/// Reference O(n²) DFT, the oracle for property tests.
pub fn dft_naive(input: &[C64], inverse: bool) -> Vec<C64> {
    let n = input.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut out = vec![C64::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        for (j, &x) in input.iter().enumerate() {
            let ang = sign * 2.0 * PI * (j * k % n) as f64 / n as f64;
            *o += x * C64::cis(ang);
        }
        if inverse {
            *o = o.scale(1.0 / n as f64);
        }
    }
    out
}

/// FLOPs of one complex FFT of length `n` (the standard `5 n log₂ n`).
pub fn fft_flops(n: usize) -> f64 {
    let n = n as f64;
    5.0 * n * n.log2().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal(n: usize, seed: u64) -> Vec<C64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let re = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let im = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                C64::new(re, im)
            })
            .collect()
    }

    fn max_err(a: &[C64], b: &[C64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn round_trip_pow2_and_general() {
        for n in [1, 2, 4, 8, 64, 256, 3, 5, 12, 100, 243] {
            let orig = signal(n, n as u64);
            let mut x = orig.clone();
            fft(&mut x);
            ifft(&mut x);
            assert!(
                max_err(&x, &orig) < 1e-10,
                "n = {n}: {}",
                max_err(&x, &orig)
            );
        }
    }

    #[test]
    fn matches_naive_dft() {
        for n in [2, 4, 16, 3, 7, 24, 30] {
            let x = signal(n, 1000 + n as u64);
            let mut fast = x.clone();
            fft(&mut fast);
            let slow = dft_naive(&x, false);
            assert!(max_err(&fast, &slow) < 1e-9, "n = {n}");
        }
    }

    #[test]
    fn delta_transforms_to_constant() {
        let mut x = vec![C64::ZERO; 32];
        x[0] = C64::ONE;
        fft(&mut x);
        for z in &x {
            assert!((*z - C64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn pure_tone_lands_in_one_bin() {
        let n = 64;
        let f = 5;
        let mut x: Vec<C64> = (0..n)
            .map(|j| C64::cis(2.0 * PI * (f * j) as f64 / n as f64))
            .collect();
        fft(&mut x);
        for (k, z) in x.iter().enumerate() {
            if k == f {
                assert!((z.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(z.abs() < 1e-9, "leakage at bin {k}: {}", z.abs());
            }
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        for n in [16, 48, 128] {
            let x = signal(n, 7 + n as u64);
            let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
            let mut freq = x.clone();
            fft(&mut freq);
            let freq_energy: f64 = freq.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
            assert!(
                (time_energy - freq_energy).abs() < 1e-9 * time_energy.max(1.0),
                "n = {n}"
            );
        }
    }

    #[test]
    fn linearity() {
        let n = 32;
        let a = signal(n, 1);
        let b = signal(n, 2);
        let sum: Vec<C64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let mut fa = a.clone();
        fft(&mut fa);
        let mut fb = b.clone();
        fft(&mut fb);
        let mut fs = sum.clone();
        fft(&mut fs);
        let combined: Vec<C64> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_err(&fs, &combined) < 1e-10);
    }

    #[test]
    fn batch_is_bitwise_per_line() {
        for n in [4usize, 64, 256, 12, 100] {
            for batch in [1usize, 2, 5, 16] {
                let orig = signal(n * batch, (n * 31 + batch) as u64);
                let mut per_line = orig.clone();
                for line in per_line.chunks_mut(n) {
                    fft(line);
                }
                let mut batched = orig.clone();
                fft_batch(&mut batched, n);
                let same = per_line.iter().zip(&batched).all(|(a, b)| {
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
                });
                assert!(
                    same,
                    "fft_batch differs from per-line fft at n={n} batch={batch}"
                );
                for line in per_line.chunks_mut(n) {
                    ifft(line);
                }
                ifft_batch(&mut batched, n);
                let same = per_line.iter().zip(&batched).all(|(a, b)| {
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
                });
                assert!(
                    same,
                    "ifft_batch differs from per-line ifft at n={n} batch={batch}"
                );
            }
        }
    }

    #[test]
    fn flops_formula_sane() {
        assert!((fft_flops(1024) - 5.0 * 1024.0 * 10.0).abs() < 1.0);
        assert!(fft_flops(1) > 0.0);
    }
}

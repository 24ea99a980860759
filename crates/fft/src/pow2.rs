//! The power-of-two butterfly kernel every power-of-two transform shares.
//!
//! A [`Plan`] for `(n, inverse)` holds the bit-reversal permutation as a
//! swap list and each butterfly stage's twiddles back to back. On x86-64
//! hosts with AVX2 the kernel fuses stage pairs into radix-2² passes,
//! two complex values per `__m256d`: each pass loads four points, runs
//! both stages' butterflies in registers and stores them once, so a
//! 128-point line takes 4 passes over memory instead of 7. An odd stage
//! count ends with one radix-2 pass. Every other host, and `n < 8`, runs
//! the textbook radix-2 loop ([`radix2`]) over the same plan.
//!
//! The AVX2 passes are bit-identical to that loop, which the tests use
//! as their oracle: each butterfly computes `v = hi·w` as
//! `(re·re − im·im, re·im + im·re)`, then `u ± v`, with the same twiddle
//! values, in separate multiplies and adds — no FMA, no reassociation,
//! and no multiply skipped for the trivial twiddle `(1, −0.0)`, so signed
//! zeros come out as before.

use exa_linalg::C64;
use std::cell::RefCell;
use std::f64::consts::PI;
use std::rc::Rc;

/// Half-length twiddle table of a size-`n` transform:
/// `tw[k] = e^{sign·2πi k/n}` for `k < n/2`. Every plan twiddle is an
/// entry of it.
fn half_table(n: usize, inverse: bool) -> Vec<C64> {
    let sign = if inverse { 1.0 } else { -1.0 };
    (0..n / 2)
        .map(|k| C64::cis(sign * 2.0 * PI * k as f64 / n as f64))
        .collect()
}

/// A length-`n` power-of-two transform plan, a pure function of
/// `(n, inverse)`.
struct Plan {
    n: usize,
    /// Bit-reversal permutation as `(i, j)` swaps, `i < j`.
    swaps: Vec<(usize, usize)>,
    /// Stage twiddles: the stage of half-span `h` reads `tw[h - 1..2h - 1]`,
    /// where `tw[h - 1 + k]` is half-table entry `k · n / 2h`.
    tw: Vec<C64>,
    /// Run the AVX2 passes: the host has AVX2 and `n ≥ 8`.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    avx2: bool,
}

impl Plan {
    fn new(n: usize, inverse: bool) -> Self {
        assert!(n >= 2 && n.is_power_of_two(), "power-of-two length >= 2");
        let bits = n.trailing_zeros();
        let swaps = (0..n)
            .map(|i| (i, i.reverse_bits() >> (usize::BITS - bits)))
            .filter(|&(i, j)| j > i)
            .collect();
        let half = half_table(n, inverse);
        let mut tw = Vec::with_capacity(n - 1);
        let mut h = 1;
        while h < n {
            let stride = n / (2 * h);
            tw.extend((0..h).map(|k| half[k * stride]));
            h *= 2;
        }
        Plan {
            n,
            swaps,
            tw,
            avx2: n >= 8 && avx2_detected(),
        }
    }

    /// Twiddles of the stage with half-span `h`.
    fn stage(&self, h: usize) -> &[C64] {
        &self.tw[h - 1..2 * h - 1]
    }

    fn permute(&self, x: &mut [C64]) {
        for &(i, j) in &self.swaps {
            x.swap(i, j);
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_detected() -> bool {
    is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_detected() -> bool {
    false
}

/// The cached plan for `(n, inverse)`. Plans are cached per thread (the
/// distributed 3-D FFT transforms thousands of equal-length lines back
/// to back); they are pure functions of the key, so the cache never
/// affects results.
fn plan(n: usize, inverse: bool) -> Rc<Plan> {
    type CacheEntry = (usize, bool, Rc<Plan>);
    thread_local! {
        static CACHE: RefCell<Vec<CacheEntry>> = const { RefCell::new(Vec::new()) };
    }
    CACHE.with(|c| {
        let mut c = c.borrow_mut();
        if let Some((_, _, p)) = c.iter().find(|(m, inv, _)| *m == n && *inv == inverse) {
            return Rc::clone(p);
        }
        let p = Rc::new(Plan::new(n, inverse));
        if c.len() >= 16 {
            c.remove(0);
        }
        c.push((n, inverse, Rc::clone(&p)));
        p
    })
}

/// Transform `lines` in place as consecutive length-`n` lines (`n` a
/// power of two, at least 2), unnormalised.
pub(crate) fn transform(lines: &mut [C64], n: usize, inverse: bool) {
    let p = plan(n, inverse);
    #[cfg(target_arch = "x86_64")]
    if p.avx2 {
        // SAFETY: `p.avx2` is set only when the running CPU reports AVX2,
        // and `transform_lines` checks the line lengths itself.
        unsafe { avx2::transform_lines(&p, lines) };
        return;
    }
    radix2(&p, lines);
}

/// The textbook radix-2 loop over whole lines: one pass per stage. It is
/// the fallback for hosts without AVX2 and for `n < 8`, and the oracle
/// the AVX2 passes are tested against.
fn radix2(p: &Plan, lines: &mut [C64]) {
    let n = p.n;
    assert_eq!(lines.len() % n, 0, "whole lines only");
    for x in lines.chunks_exact_mut(n) {
        p.permute(x);
        let mut h = 1;
        while h < n {
            let w = p.stage(h);
            for chunk in x.chunks_exact_mut(2 * h) {
                let (lo, hi) = chunk.split_at_mut(h);
                for k in 0..h {
                    let u = lo[k];
                    let v = hi[k] * w[k];
                    lo[k] = u + v;
                    hi[k] = u - v;
                }
            }
            h *= 2;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The radix-2² passes with two complex values per `__m256d`
    //! (`[re₀, im₀, re₁, im₁]`, the memory order of two `C64`s).

    use super::Plan;
    use exa_linalg::C64;
    use std::arch::x86_64::*;

    /// `h·w` for two complex pairs, `wr`/`wi` holding each twiddle's real
    /// and imaginary part twice (see [`splat`]): `[hr·wr − hi·wi, hi·wr + hr·wi]` per
    /// lane. IEEE addition and multiplication commute exactly, so this is
    /// the scalar `(hr·wr − hi·wi, hr·wi + hi·wr)` bit for bit.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn cmul(h: __m256d, wr: __m256d, wi: __m256d) -> __m256d {
        let swapped = _mm256_permute_pd::<0b0101>(h);
        _mm256_addsub_pd(_mm256_mul_pd(h, wr), _mm256_mul_pd(swapped, wi))
    }

    /// Split `[re₀, im₀, re₁, im₁]` (two twiddles as loaded) into
    /// `([re₀, re₀, re₁, re₁], [im₀, im₀, im₁, im₁])`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn splat(w: __m256d) -> (__m256d, __m256d) {
        (_mm256_movedup_pd(w), _mm256_permute_pd::<0b1111>(w))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn butterfly(u: __m256d, h: __m256d, wr: __m256d, wi: __m256d) -> (__m256d, __m256d) {
        let v = cmul(h, wr, wi);
        (_mm256_add_pd(u, v), _mm256_sub_pd(u, v))
    }

    /// Transform consecutive length-`p.n` lines in place.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn transform_lines(p: &Plan, lines: &mut [C64]) {
        let n = p.n;
        assert!(n >= 8, "the AVX2 passes need n >= 8");
        assert_eq!(lines.len() % n, 0, "whole lines only");
        assert_eq!(p.tw.len(), n - 1);
        for x in lines.chunks_exact_mut(n) {
            p.permute(x);
            // SAFETY: `x` holds exactly `n` points, and the plan holds
            // `n - 1` twiddles (both asserted above).
            unsafe { line(p, x.as_mut_ptr().cast::<f64>()) };
        }
    }

    /// All butterfly passes of one bit-reversed line.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, `x` must point to `2n` writable `f64`s
    /// (`n` `C64`s, `n = p.n ≥ 8`) and `p.tw` must hold `n - 1`
    /// twiddles.
    #[target_feature(enable = "avx2")]
    unsafe fn line(p: &Plan, x: *mut f64) {
        let n = p.n;
        let tw = p.tw.as_ptr().cast::<f64>();
        // SAFETY (every load and store below): complex index `c` is
        // `f64` offset `2c`, a 256-bit access reads `c` and `c + 1`, and
        // every `c + 1` used is below `n`; likewise twiddle index `j`,
        // and every `j + 1` read is below `n - 1`.
        unsafe {
            let ld = |c: usize| _mm256_loadu_pd(x.add(2 * c));
            let st = |c: usize, v: __m256d| _mm256_storeu_pd(x.add(2 * c), v);
            let twiddle = |j: usize| splat(_mm256_loadu_pd(tw.add(2 * j)));

            // Stages of half-span 1 and 2: all four points of a block sit
            // in two registers, so lanes are regrouped in between.
            let w1 = (_mm256_set1_pd(p.tw[0].re), _mm256_set1_pd(p.tw[0].im));
            let w2 = twiddle(1);
            for b in (0..n).step_by(4) {
                let (a01, a23) = (ld(b), ld(b + 2));
                let lo = _mm256_permute2f128_pd::<0x20>(a01, a23);
                let hi = _mm256_permute2f128_pd::<0x31>(a01, a23);
                let (p02, p13) = butterfly(lo, hi, w1.0, w1.1);
                let lo = _mm256_permute2f128_pd::<0x20>(p02, p13);
                let hi = _mm256_permute2f128_pd::<0x31>(p02, p13);
                let (q01, q23) = butterfly(lo, hi, w2.0, w2.1);
                st(b, q01);
                st(b + 2, q23);
            }

            // Stages of half-span h and 2h, fused, two butterflies of each
            // stage per register.
            let mut h = 4;
            while 4 * h <= n {
                for b in (0..n).step_by(4 * h) {
                    for k in (0..h).step_by(2) {
                        let (w1r, w1i) = twiddle(h - 1 + k);
                        let (p0, p1) = butterfly(ld(b + k), ld(b + h + k), w1r, w1i);
                        let (p2, p3) = butterfly(ld(b + 2 * h + k), ld(b + 3 * h + k), w1r, w1i);
                        let (w2r, w2i) = twiddle(2 * h - 1 + k);
                        let (q0, q2) = butterfly(p0, p2, w2r, w2i);
                        let (w2r, w2i) = twiddle(3 * h - 1 + k);
                        let (q1, q3) = butterfly(p1, p3, w2r, w2i);
                        st(b + k, q0);
                        st(b + h + k, q1);
                        st(b + 2 * h + k, q2);
                        st(b + 3 * h + k, q3);
                    }
                }
                h *= 4;
            }

            // An odd stage count leaves the last stage, half-span n/2.
            if 2 * h == n {
                for k in (0..h).step_by(2) {
                    let (wr, wi) = twiddle(h - 1 + k);
                    let (u, v) = butterfly(ld(k), ld(h + k), wr, wi);
                    st(k, u);
                    st(h + k, v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `lines` length-`n` lines cycling through four kinds: mixed values
    /// (signed zeros, subnormals, magnitudes from 1e-300 to 1e300, zero
    /// imaginary parts), real lines (every imaginary part `+0.0`, as in
    /// the DNS field), sparse lines (mostly `±0.0`), and all-`±0.0`
    /// lines — so signed zeros survive deep into the passes.
    fn awkward(n: usize, lines: usize, seed: u64) -> Vec<C64> {
        let mut s = seed;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 11
        };
        let part = |r: u64| {
            let unit = (r >> 4) as f64 / (1u64 << 49) as f64 - 0.5;
            match r % 8 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::from_bits(1 + (r >> 20)), // subnormal
                3 => unit * 1e300,
                4 => unit * 1e-300,
                _ => unit,
            }
        };
        let zero = |r: u64| if r.is_multiple_of(2) { 0.0 } else { -0.0 };
        (0..n * lines)
            .map(|i| {
                let (a, b) = (next(), next());
                match (i / n) % 4 {
                    0 => C64::new(part(a), if b % 3 == 0 { 0.0 } else { part(b / 3) }),
                    1 => C64::new(part(a), 0.0),
                    2 if a % 8 == 0 => C64::new(part(a / 8), part(b)),
                    _ => C64::new(zero(a), zero(b)),
                }
            })
            .collect()
    }

    /// Check the AVX2 passes against [`radix2`] for every power of two
    /// from 8 to 4096, both directions, at batch sizes {1, 2, 5, 16}.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernel_is_bitwise_radix2() {
        if !is_x86_feature_detected!("avx2") {
            eprintln!("host has no AVX2: it runs radix2 only");
            return;
        }
        let bits = |v: &[C64]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for log in 3..=12 {
            let n = 1usize << log;
            for inverse in [false, true] {
                let p = Plan::new(n, inverse);
                for batch in [1usize, 2, 5, 16] {
                    let orig = awkward(n, batch, (n * 7 + batch) as u64);
                    let mut want = orig.clone();
                    radix2(&p, &mut want);
                    let mut got = orig;
                    // SAFETY: AVX2 support checked above.
                    unsafe { avx2::transform_lines(&p, &mut got) };
                    assert!(
                        bits(&got) == bits(&want),
                        "n={n} inverse={inverse} batch={batch}"
                    );
                }
            }
        }
    }

    #[test]
    fn awkward_inputs_cover_the_edge_cases() {
        let v = awkward(1024, 4, 1);
        let parts = || v.iter().flat_map(|z| [z.re, z.im]);
        assert!(parts().any(|x| x == 0.0 && x.is_sign_negative()));
        assert!(parts().any(|x| x == 0.0 && x.is_sign_positive()));
        assert!(parts().any(|x| x.is_subnormal()));
        assert!(parts().any(|x| x.abs() > 1e299));
        assert!(v.iter().any(|z| z.im == 0.0 && z.re != 0.0));
        assert!(v[1024..2048].iter().all(|z| z.im.to_bits() == 0));
    }
}

//! Double-precision complex arithmetic.
//!
//! LSMS (§3.2) works on "non-Hermitian double precision complex dense
//! matrices", and every FFT in GESTS/ExaSky moves complex data. This is the
//! `Z` in `ZGEMM`/`ZGETRF`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number, laid out as `[re, im]` (the
/// interleaved layout vector FFT kernels load directly).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// 0 + 0i.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    /// 1 + 0i.
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };
    /// 0 + 1i.
    pub const I: C64 = C64 { re: 0.0, im: 1.0 };

    /// Construct from parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// A real number as complex.
    #[inline]
    pub const fn from_re(re: f64) -> Self {
        C64 { re, im: 0.0 }
    }

    /// `e^{iθ}` — the FFT twiddle factor.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        C64 {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        C64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `|z|²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Argument (phase angle).
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        C64 {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Scale by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        C64 {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, o: C64) -> C64 {
        C64 {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, o: C64) -> C64 {
        C64 {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, o: C64) -> C64 {
        C64 {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
}

impl Div for C64 {
    type Output = C64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, o: C64) -> C64 {
        self * o.recip()
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline]
    fn neg(self) -> C64 {
        C64 {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl AddAssign for C64 {
    #[inline]
    fn add_assign(&mut self, o: C64) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl SubAssign for C64 {
    #[inline]
    fn sub_assign(&mut self, o: C64) {
        self.re -= o.re;
        self.im -= o.im;
    }
}

impl MulAssign for C64 {
    #[inline]
    fn mul_assign(&mut self, o: C64) {
        *self = *self * o;
    }
}

impl Mul<f64> for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, s: f64) -> C64 {
        self.scale(s)
    }
}

impl Sum for C64 {
    fn sum<I: Iterator<Item = C64>>(iter: I) -> C64 {
        iter.fold(C64::ZERO, |a, b| a + b)
    }
}

impl From<f64> for C64 {
    fn from(re: f64) -> Self {
        C64::from_re(re)
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn close(a: C64, b: C64) -> bool {
        (a - b).abs() < EPS
    }

    #[test]
    fn field_axioms_spot_checks() {
        let (a, b, c, d) = (3.0, -4.0, -1.0, 2.0);
        let z = C64::new(a, b);
        let w = C64::new(c, d);
        assert!(close(z + w, C64::new(2.0, -2.0)));
        assert!(close(z * w, C64::new(a * c - b * d, a * d + b * c)));
        assert!(close(z * C64::ONE, z));
        assert!(close(z + C64::ZERO, z));
        assert!(close(z * z.recip(), C64::ONE));
        assert!(close((z / w) * w, z));
        assert!(close(-z + z, C64::ZERO));
    }

    #[test]
    fn conjugation_and_norm() {
        let z = C64::new(3.0, 4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert!(close(z * z.conj(), C64::from_re(25.0)));
        assert_eq!(z.conj().conj(), z);
    }

    #[test]
    fn cis_is_unit_circle() {
        for k in 0..16 {
            let theta = k as f64 * std::f64::consts::PI / 8.0;
            let z = C64::cis(theta);
            assert!((z.abs() - 1.0).abs() < EPS);
            assert!(
                (z.arg() - theta.rem_euclid(2.0 * std::f64::consts::PI)).abs() < EPS
                    || (z.arg() + 2.0 * std::f64::consts::PI
                        - theta.rem_euclid(2.0 * std::f64::consts::PI))
                    .abs()
                        < EPS
            );
        }
        // i^2 = -1 through cis.
        assert!(close(
            C64::cis(std::f64::consts::FRAC_PI_2) * C64::cis(std::f64::consts::FRAC_PI_2),
            C64::from_re(-1.0)
        ));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!(close(C64::I * C64::I, C64::from_re(-1.0)));
    }

    #[test]
    fn sum_and_scale() {
        let s: C64 = (0..10).map(|k| C64::new(k as f64, -(k as f64))).sum();
        assert!(close(s, C64::new(45.0, -45.0)));
        assert!(close(C64::new(1.0, 2.0) * 2.0, C64::new(2.0, 4.0)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", C64::new(1.0, 2.0)), "1+2i");
        assert_eq!(format!("{}", C64::new(1.0, -2.0)), "1-2i");
    }
}

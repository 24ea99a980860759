//! The scalar abstraction that lets GEMM/LU/eigen run on `f32`, `f64`, and
//! [`C64`] from a single implementation — the same role the `S/D/C/Z`
//! prefixes play in BLAS.

use crate::complex::C64;
use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A BLAS-style scalar: a field element with conjugation and magnitude.
pub trait Scalar:
    Copy
    + Default
    + Debug
    + PartialEq
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + 'static
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Embed a real number.
    fn from_f64(x: f64) -> Self;
    /// Complex conjugate (identity for real types).
    fn conj(self) -> Self;
    /// Magnitude as a real number.
    fn abs(self) -> f64;
    /// FLOPs per multiply-add in this type, for cost accounting (2 for real
    /// types, 8 for complex: 4 mul + 4 add).
    const FLOPS_PER_MULADD: f64;
}

impl Scalar for f64 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline]
    fn conj(self) -> Self {
        self
    }
    #[inline]
    fn abs(self) -> f64 {
        f64::abs(self)
    }
    const FLOPS_PER_MULADD: f64 = 2.0;
}

impl Scalar for f32 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline]
    fn conj(self) -> Self {
        self
    }
    #[inline]
    fn abs(self) -> f64 {
        f32::abs(self) as f64
    }
    const FLOPS_PER_MULADD: f64 = 2.0;
}

impl Scalar for C64 {
    #[inline]
    fn zero() -> Self {
        C64::ZERO
    }
    #[inline]
    fn one() -> Self {
        C64::ONE
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        C64::from_re(x)
    }
    #[inline]
    fn conj(self) -> Self {
        C64::conj(self)
    }
    #[inline]
    fn abs(self) -> f64 {
        C64::abs(self)
    }
    const FLOPS_PER_MULADD: f64 = 8.0;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn axioms<S: Scalar>() {
        let two = S::from_f64(2.0);
        let three = S::from_f64(3.0);
        assert_eq!(two + S::zero(), two);
        assert_eq!(two * S::one(), two);
        assert_eq!(two * three, S::from_f64(6.0));
        assert_eq!((three - two - S::one()).abs(), 0.0);
        assert!((S::from_f64(-5.0).abs() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn real_scalars() {
        axioms::<f32>();
        axioms::<f64>();
        assert_eq!(1.5f64.conj(), 1.5);
    }

    #[test]
    fn complex_scalar() {
        axioms::<C64>();
        let z = C64::new(1.0, 1.0);
        assert_eq!(Scalar::conj(z), C64::new(1.0, -1.0));
        assert_eq!(C64::FLOPS_PER_MULADD, 8.0);
        assert_eq!(f64::FLOPS_PER_MULADD, 2.0);
    }
}

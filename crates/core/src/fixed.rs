//! 16-bit fixed-point arithmetic.
//!
//! PUMA computes in 16-bit fixed point (§3.2.1 of the paper: "We use 16 bit
//! fixed-point precision that provides very high accuracy in inference
//! applications"). This module provides [`Fixed`], a Q4.12 two's-complement
//! value (4 integer bits including sign, 12 fractional bits), together with
//! saturating arithmetic and conversions. Q4.12 covers the range
//! `[-8.0, 8.0)` with a resolution of `2^-12 ≈ 0.000244`, which comfortably
//! holds normalized weights and activations of the paper's workloads.
//!
//! Multiplication and accumulation use wider intermediates (`i32`/`i64`) and
//! saturate only on the final narrowing, mirroring how the shift-and-add
//! reduction after the crossbar ADC behaves (§3.2, Fig. 2b).
//!
//! # Examples
//!
//! ```
//! use puma_core::fixed::Fixed;
//!
//! let a = Fixed::from_f32(1.5);
//! let b = Fixed::from_f32(-0.25);
//! let c = a * b;
//! assert!((c.to_f32() + 0.375).abs() < 1e-3);
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Number of fractional bits in the [`Fixed`] Q-format.
pub const FRAC_BITS: u32 = 12;

/// Scale factor `2^FRAC_BITS` used by conversions.
pub const SCALE: f32 = (1i32 << FRAC_BITS) as f32;

/// A 16-bit Q4.12 fixed-point number.
///
/// All arithmetic saturates at the representable range instead of wrapping,
/// which matches the behaviour of the accelerator datapath (an overflowing
/// ADC/shift-and-add result clamps rather than aliasing).
///
/// # Examples
///
/// ```
/// use puma_core::fixed::Fixed;
/// assert_eq!(Fixed::ONE.to_f32(), 1.0);
/// assert_eq!((Fixed::MAX + Fixed::ONE), Fixed::MAX); // saturation
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[repr(transparent)]
pub struct Fixed(i16);

impl Fixed {
    /// The additive identity.
    pub const ZERO: Fixed = Fixed(0);
    /// The multiplicative identity (`1.0`).
    pub const ONE: Fixed = Fixed(1 << FRAC_BITS);
    /// Smallest representable value (`-8.0`).
    pub const MIN: Fixed = Fixed(i16::MIN);
    /// Largest representable value (`8.0 - 2^-12`).
    pub const MAX: Fixed = Fixed(i16::MAX);
    /// Smallest positive increment (`2^-12`).
    pub const EPSILON: Fixed = Fixed(1);

    /// Creates a fixed-point value from its raw two's-complement bits.
    #[inline]
    pub const fn from_bits(bits: i16) -> Self {
        Fixed(bits)
    }

    /// A vector of `len` zeros taken from the allocator already zeroed,
    /// so the pages it spans stay untouched — and cost no resident
    /// memory — until something writes them. Large, sparsely used state
    /// planes (the simulator's memory and register arenas) allocate with
    /// this instead of `vec![Fixed::ZERO; len]`, which writes every word.
    pub fn zeroed_vec(len: usize) -> Vec<Fixed> {
        if len == 0 {
            return Vec::new();
        }
        let layout = std::alloc::Layout::array::<Fixed>(len).expect("zeroed_vec: length overflow");
        // SAFETY: `Fixed` is a `repr(transparent)` `i16`, so all-zero
        // bytes are a valid `Fixed` (`Fixed::ZERO`). The buffer comes from
        // the global allocator with exactly the layout a `Vec<Fixed>` of
        // capacity `len` owns, and all `len` elements are initialized.
        unsafe {
            let ptr = std::alloc::alloc_zeroed(layout).cast::<Fixed>();
            if ptr.is_null() {
                std::alloc::handle_alloc_error(layout);
            }
            Vec::from_raw_parts(ptr, len, len)
        }
    }

    /// Returns the raw two's-complement bit pattern.
    #[inline]
    pub const fn to_bits(self) -> i16 {
        self.0
    }

    /// Converts from `f32`, rounding to nearest and saturating at the
    /// representable range. NaN converts to zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use puma_core::fixed::Fixed;
    /// assert_eq!(Fixed::from_f32(100.0), Fixed::MAX);
    /// assert_eq!(Fixed::from_f32(f32::NAN), Fixed::ZERO);
    /// ```
    #[inline]
    pub fn from_f32(value: f32) -> Self {
        if value.is_nan() {
            return Fixed::ZERO;
        }
        let scaled = (value * SCALE).round();
        if scaled >= i16::MAX as f32 {
            Fixed::MAX
        } else if scaled <= i16::MIN as f32 {
            Fixed::MIN
        } else {
            Fixed(scaled as i16)
        }
    }

    /// Converts to `f32` exactly (every Q4.12 value is representable).
    #[inline]
    pub fn to_f32(self) -> f32 {
        self.0 as f32 / SCALE
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Fixed) -> Fixed {
        Fixed(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Fixed) -> Fixed {
        Fixed(self.0.saturating_sub(rhs.0))
    }

    /// Saturating multiplication with round-to-nearest on the dropped bits.
    #[inline]
    pub fn saturating_mul(self, rhs: Fixed) -> Fixed {
        let wide = self.0 as i32 * rhs.0 as i32;
        // Round to nearest: add half an ULP before the arithmetic shift.
        let rounded = (wide + (1 << (FRAC_BITS - 1))) >> FRAC_BITS;
        Fixed(clamp_i32(rounded))
    }

    /// Saturating division. Division by zero saturates to `MAX`/`MIN`
    /// according to the sign of the dividend (`0 / 0` yields zero).
    #[inline]
    pub fn saturating_div(self, rhs: Fixed) -> Fixed {
        if rhs.0 == 0 {
            return match self.0.signum() {
                1 => Fixed::MAX,
                -1 => Fixed::MIN,
                _ => Fixed::ZERO,
            };
        }
        let wide = ((self.0 as i32) << FRAC_BITS) / rhs.0 as i32;
        Fixed(clamp_i32(wide))
    }

    /// Absolute value, saturating (`|MIN|` clamps to `MAX`).
    #[inline]
    pub fn abs(self) -> Fixed {
        if self.0 == i16::MIN {
            Fixed::MAX
        } else {
            Fixed(self.0.abs())
        }
    }

    /// Returns the larger of two values.
    #[inline]
    pub fn max(self, other: Fixed) -> Fixed {
        Fixed(self.0.max(other.0))
    }

    /// Returns the smaller of two values.
    #[inline]
    pub fn min(self, other: Fixed) -> Fixed {
        Fixed(self.0.min(other.0))
    }

    /// Rectified linear unit: `max(0, self)`.
    #[inline]
    pub fn relu(self) -> Fixed {
        Fixed(self.0.max(0))
    }

    /// Returns true if the value is negative.
    #[inline]
    pub fn is_negative(self) -> bool {
        self.0 < 0
    }
}

/// Narrows a Q4.12 value held in an `i32` back to 16 bits with saturation.
#[inline]
pub fn clamp_i32(wide: i32) -> i16 {
    if wide > i16::MAX as i32 {
        i16::MAX
    } else if wide < i16::MIN as i32 {
        i16::MIN
    } else {
        wide as i16
    }
}

/// Narrows a Q-format accumulator held in an `i64` back to 16 bits with
/// saturation after an arithmetic right shift by `shift` bits.
///
/// This is the shift-and-add reduction step used when recombining crossbar
/// bit slices (§3.2, Fig. 2b).
#[inline]
pub fn narrow_accumulator(acc: i64, shift: u32) -> i16 {
    let shifted = acc >> shift;
    if shifted > i16::MAX as i64 {
        i16::MAX
    } else if shifted < i16::MIN as i64 {
        i16::MIN
    } else {
        shifted as i16
    }
}

impl Add for Fixed {
    type Output = Fixed;
    #[inline]
    fn add(self, rhs: Fixed) -> Fixed {
        self.saturating_add(rhs)
    }
}

impl Sub for Fixed {
    type Output = Fixed;
    #[inline]
    fn sub(self, rhs: Fixed) -> Fixed {
        self.saturating_sub(rhs)
    }
}

impl Mul for Fixed {
    type Output = Fixed;
    #[inline]
    fn mul(self, rhs: Fixed) -> Fixed {
        self.saturating_mul(rhs)
    }
}

impl Div for Fixed {
    type Output = Fixed;
    #[inline]
    fn div(self, rhs: Fixed) -> Fixed {
        self.saturating_div(rhs)
    }
}

impl Neg for Fixed {
    type Output = Fixed;
    #[inline]
    fn neg(self) -> Fixed {
        Fixed(if self.0 == i16::MIN { i16::MAX } else { -self.0 })
    }
}

impl Sum for Fixed {
    fn sum<I: Iterator<Item = Fixed>>(iter: I) -> Fixed {
        iter.fold(Fixed::ZERO, Fixed::saturating_add)
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl From<Fixed> for f32 {
    fn from(value: Fixed) -> f32 {
        value.to_f32()
    }
}

impl From<i16> for Fixed {
    /// Interprets the integer as raw Q4.12 bits.
    fn from(bits: i16) -> Fixed {
        Fixed::from_bits(bits)
    }
}

/// Computes a fixed-point dot product with a 64-bit accumulator.
///
/// The accumulator holds Q8.24 products; the final narrowing shifts back to
/// Q4.12 and saturates, matching the accelerator's MVM datapath.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// use puma_core::fixed::{dot, Fixed};
/// let a = vec![Fixed::ONE, Fixed::from_f32(2.0)];
/// let b = vec![Fixed::from_f32(0.5), Fixed::from_f32(0.25)];
/// assert!((dot(&a, &b).to_f32() - 1.0).abs() < 1e-3);
/// ```
pub fn dot(a: &[Fixed], b: &[Fixed]) -> Fixed {
    assert_eq!(a.len(), b.len(), "dot product operands must match in length");
    let acc: i64 =
        a.iter().zip(b.iter()).map(|(x, y)| x.to_bits() as i64 * y.to_bits() as i64).sum();
    Fixed::from_bits(narrow_accumulator(acc, FRAC_BITS))
}

/// Quantizes a slice of `f32` values to fixed point.
pub fn quantize_slice(values: &[f32]) -> Vec<Fixed> {
    values.iter().copied().map(Fixed::from_f32).collect()
}

/// Dequantizes a slice of fixed-point values to `f32`.
pub fn dequantize_slice(values: &[Fixed]) -> Vec<f32> {
    values.iter().copied().map(Fixed::to_f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_roundtrips() {
        assert_eq!(Fixed::ONE.to_f32(), 1.0);
        assert_eq!(Fixed::from_f32(1.0), Fixed::ONE);
    }

    #[test]
    fn conversion_saturates() {
        assert_eq!(Fixed::from_f32(1e9), Fixed::MAX);
        assert_eq!(Fixed::from_f32(-1e9), Fixed::MIN);
    }

    #[test]
    fn nan_becomes_zero() {
        assert_eq!(Fixed::from_f32(f32::NAN), Fixed::ZERO);
    }

    #[test]
    fn addition_saturates() {
        assert_eq!(Fixed::MAX + Fixed::MAX, Fixed::MAX);
        assert_eq!(Fixed::MIN + Fixed::MIN, Fixed::MIN);
    }

    #[test]
    fn multiplication_matches_float() {
        let a = Fixed::from_f32(1.25);
        let b = Fixed::from_f32(-2.0);
        assert!((a * b).to_f32() + 2.5 < 1e-3);
    }

    #[test]
    fn multiplication_rounds_to_nearest() {
        // 0.5 * eps = eps/2 which rounds up to eps.
        let half = Fixed::from_f32(0.5);
        assert_eq!(half * Fixed::EPSILON, Fixed::EPSILON);
    }

    #[test]
    fn division_by_zero_saturates() {
        assert_eq!(Fixed::ONE / Fixed::ZERO, Fixed::MAX);
        assert_eq!(-Fixed::ONE / Fixed::ZERO, Fixed::MIN);
        assert_eq!(Fixed::ZERO / Fixed::ZERO, Fixed::ZERO);
    }

    #[test]
    fn negation_of_min_saturates() {
        assert_eq!(-Fixed::MIN, Fixed::MAX);
        assert_eq!(Fixed::MIN.abs(), Fixed::MAX);
    }

    #[test]
    fn relu_clamps_negative() {
        assert_eq!(Fixed::from_f32(-1.0).relu(), Fixed::ZERO);
        assert_eq!(Fixed::from_f32(1.0).relu(), Fixed::ONE);
    }

    #[test]
    fn dot_product_matches_reference() {
        let a = quantize_slice(&[0.5, -0.25, 1.0, 2.0]);
        let b = quantize_slice(&[1.0, 1.0, -0.5, 0.125]);
        let expected = 0.5 - 0.25 - 0.5 + 0.25;
        assert!((dot(&a, &b).to_f32() - expected).abs() < 1e-2);
    }

    #[test]
    fn dot_product_saturates_not_wraps() {
        let a = vec![Fixed::MAX; 64];
        let b = vec![Fixed::MAX; 64];
        assert_eq!(dot(&a, &b), Fixed::MAX);
    }

    #[test]
    fn sum_folds_with_saturation() {
        let total: Fixed = vec![Fixed::MAX, Fixed::MAX, Fixed::MAX].into_iter().sum();
        assert_eq!(total, Fixed::MAX);
    }

    #[test]
    fn display_shows_float_value() {
        assert_eq!(format!("{}", Fixed::ONE), "1");
        assert!(!format!("{:?}", Fixed::ZERO).is_empty());
    }

    #[test]
    fn narrow_accumulator_clamps() {
        assert_eq!(narrow_accumulator(i64::MAX, FRAC_BITS), i16::MAX);
        assert_eq!(narrow_accumulator(i64::MIN, FRAC_BITS), i16::MIN);
        assert_eq!(narrow_accumulator(1 << FRAC_BITS, FRAC_BITS), 1);
    }
}

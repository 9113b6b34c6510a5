//! Fixed-point arithmetic for virtual-time tags.
//!
//! The paper's kernel implementation (§3.2) cannot use floating point
//! inside Linux 2.2, so start tags, finish tags and surplus values are
//! kept in integers scaled by a constant factor `10^n`; the authors found
//! `n = 4` adequate. We reproduce that representation: a [`Fixed`] is an
//! `i128` mantissa interpreted as `mantissa / SCALE` with
//! `SCALE = 10_000`.
//!
//! # Overflow: width instead of wrap-around
//!
//! Deviation from the paper: its 32-bit tags overflow, so §3.2
//! periodically shifts every tag back by the minimum start tag. Here the
//! `i128` mantissa alone keeps tags in range and nothing shifts. A tag
//! moves in only three ways:
//!
//! * a charge adds `φ.div_into_int(ran) = ran·SCALE²/φ_raw ≤ ran·SCALE²`
//!   raw units, since `φ_raw ≥ 1`;
//! * an arrival or wake sets it to `max(F, v)`;
//! * an idle machine sets it to `v`.
//!
//! The last two never exceed the largest existing tag, so no tag exceeds
//! the machine's total service × `SCALE²`. Total service is at most
//! `u32::MAX` CPUs × `u64::MAX` ns, and the assertion below shows that
//! fits with a 21× margin. (WFQ's expected finish tag looks one more
//! quantum ahead; stride scales its charge by `STRIDE1 / Q`, at most 1
//! for `Q ≥ 2²⁰` ns.) The bound covers tags only: a shift never changed
//! a difference such as `S − v` or a surplus, so the range of surplus
//! arithmetic is the same with or without one.
//!
//! Width costs time: an `i128` division is a runtime-library call, and
//! every surplus `φ·(S − v)` is one. So `mul_fixed`, `div_fixed` and
//! `div_into_int` compute `a·m/d` in `i64` when the operands and `a·m`
//! fit (and the quotient is not `i64::MIN / −1`), else in `i128`. The
//! result is the same bit for bit: both widths then hold the same exact
//! product, and both truncate its quotient toward zero.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// The paper's scaling factor: captures 4 digits past the decimal point.
pub const SCALE: i128 = 10_000;

const _: () = assert!((u32::MAX as i128) * (u64::MAX as i128) <= i128::MAX / (SCALE * SCALE));

/// `a · m / d`, truncated toward zero, in the narrowest width that holds
/// it (see the module docs).
#[inline(always)]
fn mul_div(a: i128, m: i128, d: i128) -> i128 {
    let narrow = || {
        let p = i64::try_from(a).ok()?.checked_mul(i64::try_from(m).ok()?)?;
        p.checked_div(i64::try_from(d).ok()?)
    };
    narrow().map_or_else(|| a * m / d, i128::from)
}

/// A fixed-point number with [`SCALE`] fractional resolution.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fixed(i128);

impl Fixed {
    /// Zero.
    pub const ZERO: Fixed = Fixed(0);
    /// The maximum representable value; used as an "infinity" sentinel.
    pub const MAX: Fixed = Fixed(i128::MAX);

    /// Constructs the fixed-point representation of an integer.
    pub const fn from_int(v: i64) -> Fixed {
        Fixed(v as i128 * SCALE)
    }

    /// Constructs the fixed-point representation of `num / den`.
    ///
    /// Rounds toward zero, exactly like the kernel's integer division.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub const fn from_ratio(num: i64, den: i64) -> Fixed {
        assert!(den != 0, "from_ratio: zero denominator");
        Fixed(num as i128 * SCALE / den as i128)
    }

    /// Constructs a value from a raw scaled mantissa.
    pub const fn from_raw(raw: i128) -> Fixed {
        Fixed(raw)
    }

    /// Returns the raw scaled mantissa.
    pub const fn raw(self) -> i128 {
        self.0
    }

    /// Converts to `f64` (reporting only; never used in scheduling).
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / SCALE as f64
    }

    /// Returns the smaller of two values.
    pub fn min(self, other: Fixed) -> Fixed {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two values.
    pub fn max(self, other: Fixed) -> Fixed {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Multiplies two fixed-point values, rescaling the product.
    ///
    /// `(a * SCALE) * (b * SCALE) / SCALE = a*b * SCALE`.
    pub fn mul_fixed(self, rhs: Fixed) -> Fixed {
        Fixed(mul_div(self.0, rhs.0, SCALE))
    }

    /// Divides two fixed-point values, rescaling the quotient.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub fn div_fixed(self, rhs: Fixed) -> Fixed {
        assert!(rhs.0 != 0, "div_fixed: division by zero");
        Fixed(mul_div(self.0, SCALE, rhs.0))
    }

    /// Divides an unscaled integer quantity (e.g. a quantum length in
    /// nanoseconds) by this fixed-point weight, producing a fixed-point
    /// result. This is the `q / φ_i` operation used in tag updates; in the
    /// kernel it is written `q * 10^n / φ_i` (§3.2).
    ///
    /// # Panics
    ///
    /// Panics if the weight is zero.
    pub fn div_into_int(self, q: u64) -> Fixed {
        assert!(self.0 != 0, "div_into_int: zero weight");
        // `q * SCALE * SCALE / mantissa` keeps the result in fixed-point:
        // q/(mantissa/SCALE) scaled by SCALE.
        Fixed(mul_div(q as i128, SCALE * SCALE, self.0))
    }
}

impl Add for Fixed {
    type Output = Fixed;
    fn add(self, rhs: Fixed) -> Fixed {
        Fixed(self.0 + rhs.0)
    }
}

impl AddAssign for Fixed {
    fn add_assign(&mut self, rhs: Fixed) {
        self.0 += rhs.0;
    }
}

impl Sub for Fixed {
    type Output = Fixed;
    fn sub(self, rhs: Fixed) -> Fixed {
        Fixed(self.0 - rhs.0)
    }
}

impl SubAssign for Fixed {
    fn sub_assign(&mut self, rhs: Fixed) {
        self.0 -= rhs.0;
    }
}

impl Neg for Fixed {
    type Output = Fixed;
    fn neg(self) -> Fixed {
        Fixed(-self.0)
    }
}

impl Mul<i64> for Fixed {
    type Output = Fixed;
    fn mul(self, rhs: i64) -> Fixed {
        Fixed(self.0 * rhs as i128)
    }
}

impl Div<i64> for Fixed {
    type Output = Fixed;
    fn div(self, rhs: i64) -> Fixed {
        Fixed(self.0 / rhs as i128)
    }
}

impl fmt::Debug for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fixed({})", self.to_f64())
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let int = self.0 / SCALE;
        let frac = (self.0 % SCALE).unsigned_abs();
        if self.0 < 0 && int == 0 {
            write!(f, "-0.{frac:04}")
        } else {
            write!(f, "{int}.{frac:04}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn integer_roundtrip() {
        assert_eq!(Fixed::from_int(0), Fixed::ZERO);
        assert_eq!(Fixed::from_int(1).raw(), SCALE);
        assert_eq!(Fixed::from_int(42).raw() / SCALE, 42);
        assert_eq!(Fixed::from_int(-3).raw() / SCALE, -3);
    }

    #[test]
    fn ratio_truncates_like_kernel_division() {
        // 1/3 with 4 fractional digits is 0.3333.
        assert_eq!(Fixed::from_ratio(1, 3).raw(), 3_333);
        assert_eq!(Fixed::from_ratio(2, 3).raw(), 6_666);
        assert_eq!(Fixed::from_ratio(10, 1), Fixed::from_int(10));
    }

    #[test]
    fn tag_update_matches_paper_example() {
        // SFQ counter from Example 1: S_i += q / w_i with q = 1ms and
        // w = 10 advances the tag by 0.1 per quantum.
        let w = Fixed::from_int(10);
        let q_ns = 1u64; // abstract unit; the ratio is what matters
        let delta = w.div_into_int(q_ns);
        assert_eq!(delta, Fixed::from_ratio(1, 10));
        // After 1000 quanta the tag reaches 100.
        let mut s = Fixed::ZERO;
        for _ in 0..1000 {
            s += delta;
        }
        assert_eq!(s, Fixed::from_int(100));
    }

    #[test]
    fn mul_div_fixed() {
        let a = Fixed::from_ratio(3, 2); // 1.5
        let b = Fixed::from_int(4);
        assert_eq!(a.mul_fixed(b), Fixed::from_int(6));
        assert_eq!(b.div_fixed(a), Fixed::from_ratio(8, 3));
    }

    #[test]
    fn ordering_and_minmax() {
        let a = Fixed::from_ratio(1, 2);
        let b = Fixed::from_ratio(2, 3);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display_formats_fractions() {
        assert_eq!(format!("{}", Fixed::from_ratio(1, 2)), "0.5000");
        assert_eq!(format!("{}", Fixed::from_int(3)), "3.0000");
        assert_eq!(format!("{}", -Fixed::from_ratio(1, 4)), "-0.2500");
    }

    #[test]
    fn div_into_int_is_q_over_phi() {
        // q = 200ms in ns, phi = 3: expect 200e6/3 with 4-digit precision.
        let phi = Fixed::from_int(3);
        let got = phi.div_into_int(200_000_000);
        let want = Fixed::from_raw(200_000_000i128 * SCALE / 3);
        assert_eq!(got, want);
    }

    proptest! {
        #[test]
        fn from_int_ordering_is_preserved(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000) {
            let (fa, fb) = (Fixed::from_int(a), Fixed::from_int(b));
            prop_assert_eq!(a.cmp(&b), fa.cmp(&fb));
        }

        #[test]
        fn add_sub_roundtrip(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000) {
            let (fa, fb) = (Fixed::from_int(a), Fixed::from_int(b));
            prop_assert_eq!(fa + fb - fb, fa);
        }

        #[test]
        fn ratio_error_is_below_one_ulp(num in 0i64..1_000_000, den in 1i64..1_000_000) {
            let f = Fixed::from_ratio(num, den);
            let exact = num as f64 / den as f64;
            let err = (f.to_f64() - exact).abs();
            prop_assert!(err < 1.0 / SCALE as f64, "err = {err}");
        }

        #[test]
        fn div_into_int_error_is_small(q in 1u64..1_000_000_000, w in 1i64..100_000) {
            let phi = Fixed::from_int(w);
            let got = phi.div_into_int(q).to_f64();
            let exact = q as f64 / w as f64;
            // Relative error bounded by the fixed-point resolution.
            prop_assert!((got - exact).abs() <= 1.0 / SCALE as f64 + exact * 1e-12);
        }
    }

    /// Mantissas within 2²⁰ of where a width limit falls: ±2⁶³ (an
    /// operand), ±2⁶³/`SCALE` (`div_fixed`'s product), ±√2⁶³
    /// (`mul_fixed`'s), `i64::MAX`/`SCALE²` and `u64::MAX`/`SCALE²`
    /// (`div_into_int`'s quantity), and zero.
    fn near_width_limits() -> impl Strategy<Value = i128> {
        const ANCHORS: [i128; 9] = [
            0,
            1 << 63,
            -(1 << 63),
            (1 << 63) / SCALE,
            -(1 << 63) / SCALE,
            3_037_000_499,
            -3_037_000_499,
            i64::MAX as i128 / (SCALE * SCALE),
            u64::MAX as i128 / (SCALE * SCALE),
        ];
        (0..ANCHORS.len(), -(1i64 << 20)..1 << 20).prop_map(|(k, off)| ANCHORS[k] + off as i128)
    }

    #[test]
    fn i64_min_over_minus_one_takes_the_wide_path() {
        // The one `i64` quotient that overflows. `SCALE` and `SCALE²`
        // keep every public operation off it, so drive the helper too.
        assert_eq!(mul_div(i64::MIN.into(), 1, -1), 1 << 63);
        let min = Fixed::from_raw(i64::MIN.into());
        let got = min.div_fixed(Fixed::from_raw(-1)).raw();
        assert_eq!(got, -(i64::MIN as i128) * SCALE);
    }

    // The references are the `i128` expressions each operation was
    // before it gained a narrow path.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn mul_fixed_equals_the_wide_expression(a in near_width_limits(), b in near_width_limits()) {
            prop_assert_eq!(Fixed(a).mul_fixed(Fixed(b)).raw(), a * b / SCALE);
        }

        #[test]
        fn div_fixed_equals_the_wide_expression(a in near_width_limits(), b in near_width_limits()) {
            prop_assume!(b != 0);
            prop_assert_eq!(Fixed(a).div_fixed(Fixed(b)).raw(), a * SCALE / b);
        }

        #[test]
        fn div_into_int_equals_the_wide_expression(q in near_width_limits(), phi in near_width_limits()) {
            prop_assume!(phi != 0);
            let q = q.unsigned_abs() as u64;
            prop_assert_eq!(Fixed(phi).div_into_int(q).raw(), q as i128 * SCALE * SCALE / phi);
        }
    }
}

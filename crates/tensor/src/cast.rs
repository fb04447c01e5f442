//! Checked numeric conversions for the tensor hot paths.
//!
//! Lint rule L004 bans bare `as` casts between floats and integers (and
//! narrowing `as f32`/`as usize` in general) inside the tensor hot paths:
//! a silent `as` can truncate, wrap, or round without any trace, which is
//! exactly the kind of silent numeric corruption the sanitizer layer exists
//! to catch. These helpers make every conversion's contract explicit and
//! verify it under `debug_assertions`, while compiling to the plain cast in
//! release builds.

/// Converts a length/count to `f32` for averaging.
///
/// Exact for values up to 2²⁴; above that the nearest representable float
/// is returned, which is the correct semantic for mean denominators.
#[inline]
pub fn len_to_f32(n: usize) -> f32 {
    n as f32 // lint: allow(L004, the checked-cast helper itself)
}

/// Converts a length/count to `f64` for averaging.
///
/// Exact for values up to 2⁵³, which covers every in-memory length.
#[inline]
pub fn len_to_f64(n: usize) -> f64 {
    n as f64 // lint: allow(L004, the checked-cast helper itself)
}

/// Quantizes a rounded ratio to a saturating signed 8-bit level, the
/// checked narrowing the wire codec's i8 path routes through (lint rule
/// L017 bans bare narrowing casts in codec paths).
///
/// Non-finite inputs map to level 0 — a NaN-poisoned element must not
/// produce an undefined cast.
///
/// The narrowing itself is integer-only so that a loop over this function
/// vectorizes (a float→int `as` is a saturating conversion, which LLVM
/// lowers one lane at a time on x86): `clamped` is an integer in
/// [−127, 127], so adding 1.5·2²³ is exact and leaves that integer, in
/// two's complement, in the low mantissa bits of the sum.
#[inline]
pub fn f32_to_i8_sat(x: f32) -> i8 {
    if !x.is_finite() {
        return 0;
    }
    let clamped = x.round().clamp(-127.0, 127.0);
    let biased = clamped + 12_582_912.0;
    biased.to_bits() as u8 as i8 // lint: allow(L004, keeps the low mantissa byte, see above)
}

/// Explicit precision-narrowing conversion from `f64` to `f32`.
///
/// Verifies under `debug_assertions` that a finite input stays finite
/// (i.e. the value does not overflow `f32`'s range).
#[inline]
pub fn f64_to_f32(x: f64) -> f32 {
    let out = x as f32; // lint: allow(L004, the checked-cast helper itself)
    debug_assert!(
        x.is_finite() == out.is_finite(),
        "f64_to_f32 overflowed: {x}"
    );
    out
}

/// Converts a non-negative finite `f32` to an index, erroring on anything
/// that would truncate or wrap.
///
/// # Errors
///
/// Returns [`crate::TensorError::InvalidCast`] for negative, non-finite or
/// fractional inputs.
pub fn f32_to_usize(x: f32) -> crate::Result<usize> {
    if !x.is_finite() || x < 0.0 || x.fract() != 0.0 || x > usize::MAX as f64 as f32 {
        return Err(crate::TensorError::InvalidCast {
            value: f64::from(x),
            target: "usize",
        });
    }
    Ok(x as usize) // lint: allow(L004, validated just above)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_conversions_are_exact_in_range() {
        assert_eq!(len_to_f32(0), 0.0);
        assert_eq!(len_to_f32(1 << 24), 16_777_216.0);
    }

    #[test]
    fn f64_narrowing() {
        assert_eq!(f64_to_f32(1.5), 1.5f32);
        assert_eq!(f64_to_f32(0.1) as f64, 0.1f32 as f64);
    }

    #[test]
    fn i8_saturation_and_non_finite_handling() {
        assert_eq!(f32_to_i8_sat(0.0), 0);
        assert_eq!(f32_to_i8_sat(0.4), 0);
        assert_eq!(f32_to_i8_sat(0.6), 1);
        assert_eq!(f32_to_i8_sat(-126.7), -127);
        assert_eq!(f32_to_i8_sat(127.0), 127);
        assert_eq!(f32_to_i8_sat(1e9), 127);
        assert_eq!(f32_to_i8_sat(-1e9), -127);
        assert_eq!(f32_to_i8_sat(f32::NAN), 0);
        assert_eq!(f32_to_i8_sat(f32::INFINITY), 0);
        assert_eq!(f32_to_i8_sat(-0.0), 0);
        assert_eq!(f32_to_i8_sat(f32::MAX), 127);
        assert_eq!(f32_to_i8_sat(f32::MIN), -127);
    }

    #[test]
    fn i8_narrowing_agrees_with_the_saturating_cast_on_every_level() {
        // Every level, every tie and both neighbours of every tie.
        for quarter in -4 * 130..=4 * 130 {
            let x = quarter as f32 * 0.25;
            let (above, below) = (x.to_bits() + 1, x.to_bits().wrapping_sub(1));
            for x in [x, f32::from_bits(above), f32::from_bits(below)] {
                let want = x.round().clamp(-127.0, 127.0) as i8;
                assert_eq!(f32_to_i8_sat(x), want, "x = {x}");
            }
        }
    }

    #[test]
    fn f32_to_usize_accepts_integers_only() {
        assert_eq!(f32_to_usize(42.0).unwrap(), 42);
        assert!(f32_to_usize(-1.0).is_err());
        assert!(f32_to_usize(1.5).is_err());
        assert!(f32_to_usize(f32::NAN).is_err());
        assert!(f32_to_usize(f32::INFINITY).is_err());
    }
}

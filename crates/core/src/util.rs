//! Low-level numeric helpers shared across all format implementations.
//!
//! Everything in this module is bit-exact: exponent extraction works on the
//! raw IEEE-754 representation (including subnormals) and rounding uses
//! round-half-to-even on exactly representable dyadic rationals.

/// Returns `floor(log2(|x|))` for a finite, nonzero `x`, computed from the
/// IEEE-754 bit pattern (handles subnormal inputs exactly).
///
/// # Panics
///
/// Panics in debug builds if `x` is zero, NaN, or infinite; callers are
/// expected to have filtered those out.
///
/// # Examples
///
/// ```
/// # use mx_core::util::exponent_of;
/// assert_eq!(exponent_of(1.0), 0);
/// assert_eq!(exponent_of(-6.5), 2);
/// assert_eq!(exponent_of(0.75), -1);
/// ```
// `#[inline]` on the per-element helpers (this one, `round_half_even`,
// `pow2`): the engine's block core calls them from another module, and
// without it their inlining depends on which codegen unit each lands in.
#[inline]
pub fn exponent_of(x: f32) -> i32 {
    debug_assert!(
        x.is_finite() && x != 0.0,
        "exponent_of requires finite nonzero input"
    );
    let bits = x.abs().to_bits();
    let exp_field = (bits >> 23) as i32;
    if exp_field > 0 {
        exp_field - 127
    } else {
        // Subnormal: value is mantissa * 2^-149; the exponent is set by the
        // position of the most significant mantissa bit.
        let mant = bits & 0x7f_ffff;
        let msb = 31 - mant.leading_zeros() as i32;
        msb - 149
    }
}

/// Largest exponent (per [`exponent_of`]) over the nonzero elements of `xs`,
/// or `None` when every element is zero (or `xs` is empty).
///
/// # Examples
///
/// ```
/// # use mx_core::util::max_exponent;
/// assert_eq!(max_exponent(&[0.0, 0.75, -6.5]), Some(2));
/// assert_eq!(max_exponent(&[0.0, 0.0]), None);
/// ```
pub fn max_exponent(xs: &[f32]) -> Option<i32> {
    xs.iter()
        .filter(|x| **x != 0.0 && x.is_finite())
        .map(|&x| exponent_of(x))
        .max()
}

/// Rounds `v` to the nearest integer, breaking ties toward the even integer
/// (IEEE-754 `roundTiesToEven`).
///
/// # Examples
///
/// ```
/// # use mx_core::util::round_half_even;
/// assert_eq!(round_half_even(2.5), 2.0);
/// assert_eq!(round_half_even(3.5), 4.0);
/// assert_eq!(round_half_even(-2.5), -2.0);
/// assert_eq!(round_half_even(2.4), 2.0);
/// ```
#[inline]
pub fn round_half_even(v: f64) -> f64 {
    let floor = v.floor();
    let diff = v - floor;
    if diff > 0.5 {
        floor + 1.0
    } else if diff < 0.5 {
        floor
    } else if (floor * 0.5).fract() == 0.0 {
        // floor is even
        floor
    } else {
        floor + 1.0
    }
}

/// Exact power of two as `f64`.
///
/// Valid for `|e| <= 1022`, far beyond any exponent reachable from `f32`
/// inputs and BDR formats (whose ulps lie in `2^[−164, 128]`).
///
/// # Panics
///
/// Panics, in every build profile, if `e` is outside `−1022 ..= 1022`:
/// the bit pattern built below would then be a different `f64`, not a
/// rounded one.
///
/// # Examples
///
/// ```
/// # use mx_core::util::pow2;
/// assert_eq!(pow2(3), 8.0);
/// assert_eq!(pow2(-2), 0.25);
/// ```
#[inline]
pub fn pow2(e: i32) -> f64 {
    assert!(
        (-1022..=1022).contains(&e),
        "pow2 exponent {e} out of exact range"
    );
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// Sum of squares of a slice, accumulated in `f64`.
pub fn power(xs: &[f32]) -> f64 {
    xs.iter().map(|&x| (x as f64) * (x as f64)).sum()
}

/// Sum of squared differences between two equal-length slices, in `f64`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn noise_power(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "noise_power requires equal-length slices");
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_of_normals() {
        assert_eq!(exponent_of(1.0), 0);
        assert_eq!(exponent_of(1.9999), 0);
        assert_eq!(exponent_of(2.0), 1);
        assert_eq!(exponent_of(-2.0), 1);
        assert_eq!(exponent_of(0.5), -1);
        assert_eq!(exponent_of(7.2), 2);
        assert_eq!(exponent_of(f32::MAX), 127);
        assert_eq!(exponent_of(f32::MIN_POSITIVE), -126);
    }

    #[test]
    fn exponent_of_subnormals() {
        // Smallest positive subnormal: 2^-149.
        assert_eq!(exponent_of(f32::from_bits(1)), -149);
        // Largest subnormal is just below 2^-126.
        let largest_subnormal = f32::from_bits(0x007f_ffff);
        assert_eq!(exponent_of(largest_subnormal), -127);
        // 2^-140 constructed bit-exactly (powi underflows through infinity).
        assert_eq!(exponent_of(f32::from_bits(1 << 9)), -140);
    }

    #[test]
    fn exponent_matches_log2_floor() {
        let mut x = 1.37e-30f32;
        while x < 1e30 {
            assert_eq!(exponent_of(x), x.abs().log2().floor() as i32, "x = {x}");
            x *= 3.7;
        }
    }

    #[test]
    fn max_exponent_handles_zeros() {
        assert_eq!(max_exponent(&[]), None);
        assert_eq!(max_exponent(&[0.0, -0.0]), None);
        assert_eq!(max_exponent(&[0.0, 3.0]), Some(1));
    }

    #[test]
    fn round_half_even_ties() {
        assert_eq!(round_half_even(0.5), 0.0);
        assert_eq!(round_half_even(1.5), 2.0);
        assert_eq!(round_half_even(-0.5), 0.0);
        assert_eq!(round_half_even(-1.5), -2.0);
        assert_eq!(round_half_even(-2.5), -2.0);
        assert_eq!(round_half_even(127.5), 128.0);
        assert_eq!(round_half_even(128.5), 128.0);
    }

    #[test]
    fn round_half_even_non_ties() {
        assert_eq!(round_half_even(0.49999), 0.0);
        assert_eq!(round_half_even(0.50001), 1.0);
        assert_eq!(round_half_even(-3.7), -4.0);
        assert_eq!(round_half_even(1e9 + 0.25), 1e9);
    }

    #[test]
    fn pow2_exact() {
        assert_eq!(pow2(0), 1.0);
        assert_eq!(pow2(10), 1024.0);
        assert_eq!(pow2(-149), 2.0f64.powi(-149));
        assert_eq!(pow2(300), 2.0f64.powi(300));
        assert_eq!(pow2(1022), 2.0f64.powi(1022));
        assert_eq!(pow2(-1022), f64::MIN_POSITIVE);
    }

    #[test]
    #[should_panic(expected = "pow2 exponent 1023 out of exact range")]
    fn pow2_refuses_exponents_past_the_top_in_every_profile() {
        pow2(1023);
    }

    #[test]
    #[should_panic(expected = "pow2 exponent -1023 out of exact range")]
    fn pow2_refuses_exponents_past_the_bottom_in_every_profile() {
        pow2(-1023);
    }

    #[test]
    fn power_and_noise_power() {
        assert_eq!(power(&[3.0, 4.0]), 25.0);
        assert_eq!(noise_power(&[1.0, 2.0], &[1.5, 1.0]), 0.25 + 1.0);
    }
}

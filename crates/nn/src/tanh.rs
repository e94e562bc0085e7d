//! `tanh` for `f32` without libm: a branch-free, lane-wise transcription of
//! fdlibm's `s_tanhf.c` and `s_expm1f.c`, the algorithm glibc's `tanhf`
//! runs.
//!
//! fdlibm picks one of a handful of branches per input and runs a fixed
//! sequence of `f32` operations on it. [`tanh`] computes *every* branch a
//! `tanhf` call can reach, in fdlibm's order and with fdlibm's constants,
//! then selects the one fdlibm would have returned. (Where two branches
//! differ only in an operand, the operand is selected first and the
//! operation done once; each lane still performs exactly its own branch's
//! operations.)
//!
//! There is no libm call and no `mul_add`, and every operation is an IEEE
//! single-precision add, subtract, multiply or divide (or a float/integer
//! conversion, or an integer operation on the bits), so the result is the
//! same on every host, every instantiation and every vector width — and
//! it is the bits of fdlibm's scalar code. With no branch left, a loop
//! over a slice vectorizes: the activation kernels in [`crate::layers`]
//! instantiate one such loop per kernel tier.
//!
//! The unit tests hold a line-by-line scalar transcription of the two C
//! files (`tanh/fdlibm.rs`) as the oracle and compare bit for bit.

/// `ln 2` split so that `k · LN2_HI` is exact for the `k` fdlibm uses.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
/// `ln 2 − LN2_HI`.
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
/// `1 / ln 2`.
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// Scaled coefficients of expm1's rational approximation on
/// `[−0.5 ln 2, 0.5 ln 2]`.
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);
/// `1.0e30`: `x − ((HUGE + x) − HUGE)` is expm1's identity for tiny `x`.
const HUGE: f32 = 1.0e30;
/// `1.0e-30`: `1 − TINY` is tanh's saturated magnitude.
const TINY: f32 = 1.0e-30;

/// fdlibm's `expm1f(x)` on the arguments `tanhf` passes it: finite `x`
/// with `−2 < x < 44` (`−2|t|` for `|t| < 1`, `2|t|` for `1 ≤ |t| < 22`).
///
/// On that domain fdlibm's overflow filter (`|x| ≥ 27 ln 2`) never
/// returns, the `k = 1` arm needs `0.35 < x < 1.04` and the `k = 128` arm
/// `x > 88`, so none of them is transcribed. Every other arm is: the tiny
/// identity, `k = 0`, `k = −1`, and the three exponent-add forms.
///
/// Arms that differ only in an operand share the operation, with the
/// operand selected first; each lane still performs exactly its own arm's
/// operations. The reduction `x − k·ln2` is written once for all `k`:
/// fdlibm's near-`ln 2` step `x ∓ ln2_hi`, `±ln2_lo` is that form at
/// `k = ±1` (multiplying by ±1 is exact), and at `k = 0` the form returns
/// `x` unchanged, which is what fdlibm's unreduced arm uses.
#[inline(always)]
fn expm1(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let neg = x.is_sign_negative();

    // Argument reduction x = k·ln2 + (hi − lo), with c the rounding error
    // of hi − lo. Far out, k = trunc(x/ln2 ± 0.5); the conversion
    // saturates, and on the domain the value fits, so it is C's truncation.
    let far_k = (INVLN2 * x + if neg { -0.5 } else { 0.5 }) as i32;
    let near_k = if neg { -1 } else { 1 };
    let k = if hx <= 0x3eb1_7218 {
        0 // |x| ≤ 0.5 ln2
    } else if hx < 0x3f85_1592 {
        near_k // |x| < 1.5 ln2
    } else {
        far_k
    };
    let kf = k as f32;
    let hi = x - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let x = hi - lo;
    let c = (hi - x) - lo;

    // x is now in the primary range.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    let k_zero = x - (x * e - hxs);
    let e = (x * (e - c) - c) - hxs;
    let k_minus_one = 0.5 * (x - e) - 0.5;

    // The exponent-add arms build y, then add k to y's exponent field:
    // k ≤ −2 or k > 56: y = 1 − (e − x), result y·2^k − 1;
    // 2 ≤ k < 23: y = (1 − 2^−k) − (e − x) (fdlibm writes 1 − 2^−k's bits
    // directly; the subtraction is exact), result y·2^k;
    // 23 ≤ k ≤ 56: y = (x − (e + 2^−k)) + 1, result y·2^k.
    let far = k <= -2 || k > 56;
    let pow = f32::from_bits((0x7f_i32.wrapping_sub(k) << 23) as u32); // 2^−k
    let lead = if far { 1.0 } else { 1.0 - pow };
    let low = lead - (e - x);
    let high = (x - (e + pow)) + 1.0;
    let y = if far || k < 23 { low } else { high };
    let y = f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
    let exp_add = if far { y - 1.0 } else { y };

    if hx < 0x3300_0000 {
        // |x| < 2^−25; k = 0, so x is still the argument.
        x - ((HUGE + x) - HUGE)
    } else if k == 0 {
        k_zero
    } else if k == -1 {
        k_minus_one
    } else {
        exp_add
    }
}

/// `tanh(x)`, bit for bit fdlibm's `tanhf` (and so glibc's) on every
/// `f32`, including `±0`, subnormals, `±∞` (`±1`) and NaN (NaN).
///
/// Branch-free: every arm is computed and the result selected, so a loop
/// of calls vectorizes (see the module docs). The arms' three divisions
/// (`1/x` for `±∞`/NaN, `2/(t + 2)` and `−t/(t + 2)`) share one divider
/// with the operands selected per lane.
#[inline(always)]
pub(crate) fn tanh(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let neg = x.is_sign_negative();
    let non_finite = ix >= 0x7f80_0000;
    // |x| ≥ 1: 1 − 2/(t + 2), t = expm1(2|x|); below: −t/(t + 2),
    // t = expm1(−2|x|).
    let big = ix >= 0x3f80_0000;
    let ax = f32::from_bits(ix);
    let t = expm1(if big { 2.0 * ax } else { -2.0 * ax });
    let num = if non_finite {
        1.0
    } else if big {
        2.0
    } else {
        -t
    };
    let den = if non_finite { x } else { t + 2.0 };
    let q = num / den;
    let z = if ix >= 0x41b0_0000 {
        1.0 - TINY // |x| ≥ 22
    } else if big {
        1.0 - q
    } else {
        q
    };
    if non_finite {
        // tanh(±∞) = 1/x ± 1 = ±1, tanh(NaN) = NaN.
        if neg {
            q - 1.0
        } else {
            q + 1.0
        }
    } else if ix < 0x2400_0000 {
        x * (1.0 + x) // |x| < 2^−55, ±0 included
    } else if neg {
        -z
    } else {
        z
    }
}

#[cfg(test)]
mod fdlibm;

#[cfg(test)]
mod tests;

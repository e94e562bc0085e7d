//! Block Data Representations (BDR): the paper's unified two-level scaling
//! framework (Fig. 5) with hardware power-of-two scale factors.
//!
//! A BDR format partitions a tensor into blocks of `k1` elements sharing a
//! `d1`-bit first-level scale (a power-of-two exponent set to the exponent of
//! the block's largest magnitude) and sub-blocks of `k2` elements sharing a
//! `d2`-bit *microexponent*: a small right-shift `τᵢ = min(E − Eᵢ, 2^d2 − 1)`
//! that recovers precision for sub-blocks whose local maximum is smaller than
//! the block maximum. Each element stores a sign and an `m`-bit magnitude
//! with the binary point after the leading bit.
//!
//! Setting `d2 = 0` degenerates to classic block floating point (MSFP);
//! `k1 = k2 = 1` with a private per-element exponent is scalar floating
//! point. The MX formats of the paper are `k1 = 16, k2 = 2, d1 = 8, d2 = 1`
//! with `m ∈ {2, 4, 7}` (see [`BdrFormat::MX4`], [`BdrFormat::MX6`],
//! [`BdrFormat::MX9`]).

use crate::engine::QuantEngine;
use crate::error::FormatError;
use crate::VectorQuantizer;
use rand::Rng;
use std::fmt;

/// Maximum supported explicit mantissa bits (an `f32` mantissa cannot carry
/// more information).
pub const MAX_MANTISSA_BITS: u32 = 23;
/// Maximum supported first-level scale width (an 8-bit exponent already
/// covers the full `f32` range).
pub const MAX_D1: u32 = 8;
/// Maximum supported microexponent width.
pub const MAX_D2: u32 = 4;

/// A validated BDR format: `(m, d1, d2, k1, k2)` per Fig. 5 of the paper.
///
/// # Examples
///
/// ```
/// # use mx_core::bdr::BdrFormat;
/// let mx9 = BdrFormat::MX9;
/// assert_eq!(mx9.bits_per_element(), 9.0);
/// let q = mx9.quantize_dequantize(&[1.0, 0.5, -0.25, 0.0]);
/// assert_eq!(q, vec![1.0, 0.5, -0.25, 0.0]); // exactly representable
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BdrFormat {
    m: u32,
    d1: u32,
    d2: u32,
    k1: usize,
    k2: usize,
    name: Option<&'static str>,
}

// Equality is structural over the numeric parameters; the display name is
// presentation only (so `BdrFormat::MX4 == BdrFormat::new(2, 8, 1, 16, 2)?`).
impl PartialEq for BdrFormat {
    fn eq(&self, other: &Self) -> bool {
        (self.m, self.d1, self.d2, self.k1, self.k2)
            == (other.m, other.d1, other.d2, other.k1, other.k2)
    }
}

impl Eq for BdrFormat {}

impl std::hash::Hash for BdrFormat {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (self.m, self.d1, self.d2, self.k1, self.k2).hash(state);
    }
}

impl BdrFormat {
    /// MX9 (Table II): 7 mantissa bits, 9 bits/element average. Drop-in
    /// replacement for FP32/BF16 in training per the paper.
    pub const MX9: Self = Self::preset(7, 8, 1, 16, 2, "MX9");
    /// MX6 (Table II): 4 mantissa bits, 6 bits/element average.
    pub const MX6: Self = Self::preset(4, 8, 1, 16, 2, "MX6");
    /// MX4 (Table II): 2 mantissa bits, 4 bits/element average.
    pub const MX4: Self = Self::preset(2, 8, 1, 16, 2, "MX4");
    /// MSFP16-style block floating point: 7 mantissa bits, block 16, no
    /// microexponents (`d2 = 0`).
    pub const MSFP16: Self = Self::preset(7, 8, 0, 16, 16, "MSFP16");
    /// MSFP12-style block floating point: 3 mantissa bits, block 16, no
    /// microexponents.
    pub const MSFP12: Self = Self::preset(3, 8, 0, 16, 16, "MSFP12");

    const fn preset(m: u32, d1: u32, d2: u32, k1: usize, k2: usize, name: &'static str) -> Self {
        BdrFormat {
            m,
            d1,
            d2,
            k1,
            k2,
            name: Some(name),
        }
    }

    /// Creates a validated BDR format.
    ///
    /// # Errors
    ///
    /// - [`FormatError::InvalidMantissa`] if `m` is zero or above
    ///   [`MAX_MANTISSA_BITS`].
    /// - [`FormatError::InvalidScaleWidth`] if `d1` is zero or above
    ///   [`MAX_D1`], or `d2` above [`MAX_D2`].
    /// - [`FormatError::InvalidBlockStructure`] if `k2` is zero or does not
    ///   divide `k1`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use mx_core::bdr::BdrFormat;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let fmt = BdrFormat::new(4, 8, 2, 32, 4)?;
    /// assert_eq!(fmt.max_shift(), 3);
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(m: u32, d1: u32, d2: u32, k1: usize, k2: usize) -> Result<Self, FormatError> {
        if m == 0 || m > MAX_MANTISSA_BITS {
            return Err(FormatError::InvalidMantissa {
                m,
                max: MAX_MANTISSA_BITS,
            });
        }
        if d1 == 0 || d1 > MAX_D1 {
            return Err(FormatError::InvalidScaleWidth {
                level: 1,
                bits: d1,
                max: MAX_D1,
            });
        }
        if d2 > MAX_D2 {
            return Err(FormatError::InvalidScaleWidth {
                level: 2,
                bits: d2,
                max: MAX_D2,
            });
        }
        if k1 == 0 || k2 == 0 || !k1.is_multiple_of(k2) {
            return Err(FormatError::InvalidBlockStructure { k1, k2 });
        }
        Ok(BdrFormat {
            m,
            d1,
            d2,
            k1,
            k2,
            name: None,
        })
    }

    /// Draws a format from the whole legal [`Self::new`] lattice — every
    /// mantissa and scale width the constructor admits, block size `k1`
    /// (any size up to 64 when `None`) and any sub-block size dividing it.
    /// The generator of the differential suites, which assert bit-identity
    /// on formats off the preset list.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, k1: Option<usize>) -> Self {
        let k1 = k1.unwrap_or_else(|| rng.gen_range(1..=64usize));
        let divisors: Vec<usize> = (1..=k1).filter(|&d| k1.is_multiple_of(d)).collect();
        Self::new(
            rng.gen_range(1..=MAX_MANTISSA_BITS),
            rng.gen_range(1..=MAX_D1),
            rng.gen_range(0..=MAX_D2),
            k1,
            divisors[rng.gen_range(0..divisors.len())],
        )
        .expect("legal by construction")
    }

    /// Explicit mantissa bits per element (excluding the sign bit).
    pub fn m(&self) -> u32 {
        self.m
    }

    /// First-level (shared exponent) scale width in bits.
    pub fn d1(&self) -> u32 {
        self.d1
    }

    /// Second-level (microexponent) scale width in bits; `0` means classic
    /// block floating point.
    pub fn d2(&self) -> u32 {
        self.d2
    }

    /// First-level block granularity.
    pub fn k1(&self) -> usize {
        self.k1
    }

    /// Second-level sub-block granularity.
    pub fn k2(&self) -> usize {
        self.k2
    }

    /// Maximum sub-block shift `β = 2^d2 − 1`.
    pub fn max_shift(&self) -> u32 {
        (1u32 << self.d2) - 1
    }

    /// Bias added to the shared exponent when packing it into `d1` bits
    /// (`2^(d1−1) − 1`, the IEEE-style offset).
    pub fn exp_bias(&self) -> i64 {
        (1i64 << (self.d1 - 1)) - 1
    }

    /// Largest `m`-bit magnitude code (`2^m − 1`); larger values saturate.
    pub fn max_code(&self) -> u64 {
        (1u64 << self.m) - 1
    }

    /// Packed storage footprint in bits of one block of `len` elements:
    /// the shared exponent, one microexponent per sub-block, and a
    /// sign + `m`-bit magnitude per element.
    pub fn block_bits(&self, len: usize) -> usize {
        self.d1 as usize + len.div_ceil(self.k2) * self.d2 as usize + len * (1 + self.m as usize)
    }

    /// Average storage bits per element:
    /// `(m + 1) + d1/k1 + d2/k2` (Fig. 5).
    ///
    /// # Examples
    ///
    /// ```
    /// # use mx_core::bdr::BdrFormat;
    /// assert_eq!(BdrFormat::MX6.bits_per_element(), 6.0);
    /// assert_eq!(BdrFormat::MSFP12.bits_per_element(), 4.5);
    /// ```
    pub fn bits_per_element(&self) -> f64 {
        (self.m + 1) as f64 + self.d1 as f64 / self.k1 as f64 + self.d2 as f64 / self.k2 as f64
    }

    /// Largest first-level exponent representable in `d1` bits
    /// (bias `2^(d1-1) − 1`).
    pub fn max_shared_exp(&self) -> i32 {
        1 << (self.d1 - 1)
    }

    /// Smallest first-level exponent representable in `d1` bits.
    pub fn min_shared_exp(&self) -> i32 {
        -((1 << (self.d1 - 1)) - 1)
    }

    /// Quantizes `xs` (any length; the tail may form a partial block) and
    /// returns the dequantized values.
    ///
    /// # Examples
    ///
    /// ```
    /// # use mx_core::bdr::BdrFormat;
    /// let x: Vec<f32> = (0..40).map(|i| i as f32 * 0.1).collect();
    /// let q = BdrFormat::MX9.quantize_dequantize(&x);
    /// assert_eq!(q.len(), 40);
    /// ```
    pub fn quantize_dequantize(&self, xs: &[f32]) -> Vec<f32> {
        QuantEngine::new(*self).quantize_dequantize(xs)
    }

    /// Quantizes `xs` in place (same semantics as
    /// [`Self::quantize_dequantize`] but reusing the buffer).
    pub fn quantize_dequantize_in_place(&self, xs: &mut [f32]) {
        QuantEngine::new(*self).quantize_dequantize_in_place(xs)
    }

    /// Quantizes one block (length at most [`Self::k1`]) down to raw integer
    /// codes — the form a hardware datapath consumes (see `mx-hw`).
    ///
    /// The shared exponent is the exponent of the largest magnitude, clamped
    /// to the `d1`-bit range; shift `τᵢ = min(E − Eᵢ, β)` where `Eᵢ` is the
    /// local maximum exponent of sub-block `i` (all-zero sub-blocks get
    /// `β`). A block with no finite nonzero element returns shared exponent
    /// 0, zero shifts and zero codes. Dequantizing the result (see
    /// [`QuantizedBlock::dequantize`]) agrees exactly with
    /// [`Self::quantize_dequantize`] on the block.
    ///
    /// # Panics
    ///
    /// Panics if the block is longer than [`Self::k1`].
    ///
    /// # Examples
    ///
    /// ```
    /// # use mx_core::bdr::BdrFormat;
    /// let q = BdrFormat::MX6.quantize_block_codes(&[1.0, -0.5]);
    /// assert_eq!(q.shared_exp, 0);
    /// assert_eq!(q.signs, vec![false, true]);
    /// assert_eq!(q.codes, vec![8, 4]); // 1.0 = 8 * 2^-3, 0.5 = 4 * 2^-3
    /// ```
    pub fn quantize_block_codes(&self, block: &[f32]) -> QuantizedBlock {
        QuantEngine::new(*self).quantize_block_codes(block)
    }

    /// Worst-case absolute quantization error for an element in a sub-block
    /// with shift `τ` inside a block with shared exponent `E`:
    /// `2^(E − τ − m)` (Eq. 8 of the paper). Exceeded only by saturation of
    /// the largest code, which the paper's bound also excludes.
    pub fn error_bound(&self, shared_exp: i32, shift: u32) -> f64 {
        crate::util::pow2(shared_exp - shift as i32 - self.m as i32)
    }
}

impl fmt::Display for BdrFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.name {
            Some(n) => f.write_str(n),
            None => write!(
                f,
                "BDR(m={},d1={},d2={},k1={},k2={})",
                self.m, self.d1, self.d2, self.k1, self.k2
            ),
        }
    }
}

/// One block quantized down to the integer codes a hardware datapath
/// consumes: shared exponent, per-sub-block shifts, and per-element
/// sign/magnitude codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedBlock {
    /// The format the codes belong to.
    pub format: BdrFormat,
    /// Shared block exponent `E`.
    pub shared_exp: i32,
    /// Microexponent shifts, one per sub-block.
    pub shifts: Vec<u32>,
    /// Per-element sign bits (`true` = negative).
    pub signs: Vec<bool>,
    /// Per-element `m`-bit magnitude codes.
    pub codes: Vec<u32>,
}

impl QuantizedBlock {
    /// Reconstructs the `f32` values the codes represent; agrees exactly with
    /// [`BdrFormat::quantize_dequantize`] on the original block.
    pub fn dequantize(&self) -> Vec<f32> {
        let fmt = &self.format;
        self.codes
            .iter()
            .zip(self.signs.iter())
            .enumerate()
            .map(|(i, (&code, &neg))| {
                let shift = self.shifts[i / fmt.k2()];
                let ulp = crate::engine::ulp_of(fmt, self.shared_exp, shift);
                let mag = (code as f64 * ulp) as f32;
                if neg {
                    -mag
                } else {
                    mag
                }
            })
            .collect()
    }

    /// Number of elements in the block.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the block holds no elements.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }
}

/// [`VectorQuantizer`] adapter for a [`BdrFormat`] (stateless: BDR scaling is
/// hardware-managed and purely data-dependent).
///
/// # Examples
///
/// ```
/// # use mx_core::bdr::{BdrFormat, BdrQuantizer};
/// # use mx_core::VectorQuantizer;
/// let mut q = BdrQuantizer::new(BdrFormat::MX6);
/// let y = q.quantize_dequantize(&[0.1, -0.2, 0.3]);
/// assert_eq!(y.len(), 3);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BdrQuantizer {
    format: BdrFormat,
}

impl BdrQuantizer {
    /// Wraps a format as a reusable vector quantizer.
    pub fn new(format: BdrFormat) -> Self {
        BdrQuantizer { format }
    }

    /// The wrapped format.
    pub fn format(&self) -> BdrFormat {
        self.format
    }
}

impl VectorQuantizer for BdrQuantizer {
    fn label(&self) -> String {
        self.format.to_string()
    }

    fn bits_per_element(&self) -> f64 {
        self.format.bits_per_element()
    }

    fn quantize_dequantize(&mut self, xs: &[f32]) -> Vec<f32> {
        self.format.quantize_dequantize(xs)
    }

    fn quantize_dequantize_into(&mut self, xs: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.extend_from_slice(xs);
        self.format.quantize_dequantize_in_place(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_bit_budgets_match_table_ii() {
        assert_eq!(BdrFormat::MX9.bits_per_element(), 9.0);
        assert_eq!(BdrFormat::MX6.bits_per_element(), 6.0);
        assert_eq!(BdrFormat::MX4.bits_per_element(), 4.0);
        assert_eq!(BdrFormat::MSFP16.bits_per_element(), 8.5);
        assert_eq!(BdrFormat::MSFP12.bits_per_element(), 4.5);
    }

    #[test]
    fn validation() {
        assert!(BdrFormat::new(0, 8, 1, 16, 2).is_err());
        assert!(BdrFormat::new(4, 0, 1, 16, 2).is_err());
        assert!(BdrFormat::new(4, 9, 1, 16, 2).is_err());
        assert!(BdrFormat::new(4, 8, 5, 16, 2).is_err());
        assert!(BdrFormat::new(4, 8, 1, 16, 3).is_err());
        assert!(BdrFormat::new(4, 8, 1, 16, 0).is_err());
        assert!(BdrFormat::new(4, 8, 1, 16, 2).is_ok());
        assert!(BdrFormat::new(4, 8, 0, 16, 16).is_ok());
    }

    #[test]
    fn exact_powers_of_two_round_trip() {
        let fmt = BdrFormat::MX9;
        let x = [1.0f32, 0.5, -0.25, 2.0, 4.0, -8.0, 16.0, 8.0];
        assert_eq!(fmt.quantize_dequantize(&x), x.to_vec());
    }

    #[test]
    fn half_ulp_value_ties_to_zero() {
        // A power of two sitting exactly half an ulp above zero is lost to
        // round-ties-to-even: 0.125 shares a sub-block with 16.0 under MX9
        // (ulp 0.25 at eff. exponent 4), so 0.125/0.25 = 0.5 rounds to 0.
        let q = BdrFormat::MX9.quantize_dequantize(&[16.0, 0.125]);
        assert_eq!(q, vec![16.0, 0.0]);
    }

    #[test]
    fn zero_block_stays_zero() {
        let fmt = BdrFormat::MX6;
        let x = vec![0.0f32; 16];
        assert_eq!(fmt.quantize_dequantize(&x), x);
        let qb = fmt.quantize_block_codes(&x);
        assert_eq!(qb.shared_exp, 0);
        assert_eq!(qb.shifts, vec![0; 8]);
        assert_eq!(qb.codes, vec![0; 16]);
    }

    #[test]
    fn plan_block_shared_exp_tracks_max() {
        let fmt = BdrFormat::MX9;
        let mut x = vec![0.01f32; 16];
        x[5] = -6.5; // exponent 2
        let plan = fmt.quantize_block_codes(&x);
        assert_eq!(plan.shared_exp, 2);
        assert_eq!(plan.shifts.len(), 8);
        // Sub-block holding x[5] (index 2) has local max exponent 2 -> shift 0.
        assert_eq!(plan.shifts[2], 0);
        // Others have local max exponent -7 -> shift clamps at beta = 1.
        assert_eq!(plan.shifts[0], 1);
    }

    #[test]
    fn microexponent_halves_noise_for_small_sub_blocks() {
        // Construct a block where one sub-block is 2x smaller than the rest:
        // MX (d2=1) should represent it with one extra bit of precision
        // relative to the equivalent BFP (d2=0) format.
        let bfp = BdrFormat::new(4, 8, 0, 16, 16).unwrap();
        let mx = BdrFormat::new(4, 8, 1, 16, 2).unwrap();
        let mut x = vec![0.0f32; 16];
        x[0] = 1.9375; // pins shared exponent at 0
        x[1] = 1.0;
        // Small sub-block: values near 0.4 (exponent -2).
        x[2] = 0.4;
        x[3] = 0.43;
        let nb = crate::util::noise_power(&bfp.quantize_dequantize(&x), &x);
        let nm = crate::util::noise_power(&mx.quantize_dequantize(&x), &x);
        assert!(
            nm < nb,
            "microexponents should reduce noise: mx={nm} bfp={nb}"
        );
    }

    #[test]
    fn error_bound_holds_without_saturation() {
        let fmt = BdrFormat::MX6;
        // Pseudo-random but deterministic values in [-1, 1).
        let x: Vec<f32> = (0..256)
            .map(|i| {
                let v = ((i * 2654435761u64 as usize) % 10007) as f32 / 10007.0;
                v * 2.0 - 1.0
            })
            .collect();
        let max_code = (1u32 << fmt.m()) - 1;
        for (block_idx, block) in x.chunks(fmt.k1()).enumerate() {
            let plan = fmt.quantize_block_codes(block);
            let q = fmt.quantize_dequantize(block);
            for (i, (xi, qi)) in block.iter().zip(q.iter()).enumerate() {
                let shift = plan.shifts[i / fmt.k2()];
                let bound = fmt.error_bound(plan.shared_exp, shift);
                // The block maximum saturates to the top code when it lies in
                // the upper half-ulp below 2^(E+1); there the error can reach
                // a full ulp (2x the half-ulp bound). The paper's proof has
                // the same slack.
                let ulp = 2.0 * bound;
                let saturated = (qi.abs() as f64 - max_code as f64 * ulp).abs() < 1e-12;
                let limit = if saturated { 2.0 * bound } else { bound };
                assert!(
                    ((xi - qi).abs() as f64) <= limit + 1e-12,
                    "block {block_idx} elem {i}: |{xi} - {qi}| > {limit}"
                );
            }
        }
    }

    #[test]
    fn saturation_clamps_to_max_code() {
        // m = 2: codes 0..=3, ulp at E=0 is 2^(0-1) = 0.5, max magnitude 1.5.
        let fmt = BdrFormat::new(2, 8, 0, 4, 4).unwrap();
        let x = [1.99f32, 0.0, 0.0, 0.0];
        let q = fmt.quantize_dequantize(&x);
        assert_eq!(q[0], 1.5);
    }

    #[test]
    fn negative_values_mirror_positive() {
        let fmt = BdrFormat::MX4;
        let x: Vec<f32> = (1..=16).map(|i| i as f32 * 0.17).collect();
        let neg: Vec<f32> = x.iter().map(|v| -v).collect();
        let qp = fmt.quantize_dequantize(&x);
        let qn = fmt.quantize_dequantize(&neg);
        for (p, n) in qp.iter().zip(qn.iter()) {
            assert_eq!(*p, -*n);
        }
    }

    #[test]
    fn partial_tail_block() {
        let fmt = BdrFormat::MX6;
        let x: Vec<f32> = (0..21).map(|i| (i as f32 - 10.0) * 0.3).collect();
        let q = fmt.quantize_dequantize(&x);
        assert_eq!(q.len(), 21);
        // Tail block of 5 elements quantizes independently of the first 16.
        let tail = fmt.quantize_dequantize(&x[16..]);
        assert_eq!(&q[16..], &tail[..]);
    }

    #[test]
    fn idempotent() {
        let fmt = BdrFormat::MX6;
        let x: Vec<f32> = (0..64)
            .map(|i| ((i * 37) % 101) as f32 * 0.013 - 0.6)
            .collect();
        let q1 = fmt.quantize_dequantize(&x);
        let q2 = fmt.quantize_dequantize(&q1);
        assert_eq!(q1, q2);
    }

    #[test]
    fn in_place_matches_allocating() {
        let fmt = BdrFormat::MX9;
        let x: Vec<f32> = (0..50).map(|i| (i as f32).sin()).collect();
        let q = fmt.quantize_dequantize(&x);
        let mut y = x.clone();
        fmt.quantize_dequantize_in_place(&mut y);
        assert_eq!(q, y);
    }

    #[test]
    fn tiny_values_below_shared_exponent_flush_toward_zero() {
        let fmt = BdrFormat::MX4; // m = 2
        let mut x = vec![0.0f32; 16];
        x[0] = 1.0; // shared exp 0
        x[15] = 1e-6; // far below representable range at m=2, shift<=1
        let q = fmt.quantize_dequantize(&x);
        assert_eq!(q[0], 1.0);
        assert_eq!(q[15], 0.0);
    }

    #[test]
    fn shared_exponent_clamps_to_d1_range() {
        let fmt = BdrFormat::new(4, 4, 1, 16, 2).unwrap(); // d1=4: exp in [-7, 8]
        assert_eq!(fmt.max_shared_exp(), 8);
        assert_eq!(fmt.min_shared_exp(), -7);
        let mut x = vec![0.0f32; 16];
        x[0] = 2.0f32.powi(20); // exponent 20, clamps to 8
        let plan = fmt.quantize_block_codes(&x);
        assert_eq!(plan.shared_exp, 8);
        // The value saturates to the max code at the clamped exponent.
        let q = fmt.quantize_dequantize(&x);
        let max_mag = (2.0f32 - 2.0f32.powi(1 - 4)) * 2.0f32.powi(8);
        assert_eq!(q[0], max_mag);
    }

    #[test]
    fn display_names() {
        assert_eq!(BdrFormat::MX9.to_string(), "MX9");
        assert_eq!(
            BdrFormat::new(4, 8, 2, 32, 4).unwrap().to_string(),
            "BDR(m=4,d1=8,d2=2,k1=32,k2=4)"
        );
    }

    #[test]
    fn codes_dequantize_matches_quantize_dequantize() {
        for fmt in [
            BdrFormat::MX4,
            BdrFormat::MX6,
            BdrFormat::MX9,
            BdrFormat::MSFP12,
        ] {
            let x: Vec<f32> = (0..16)
                .map(|i| ((i * 73) % 29) as f32 * 0.21 - 2.5)
                .collect();
            let qb = fmt.quantize_block_codes(&x);
            assert_eq!(qb.len(), 16);
            assert_eq!(qb.dequantize(), fmt.quantize_dequantize(&x), "{fmt}");
        }
    }

    #[test]
    fn codes_for_zero_block() {
        let qb = BdrFormat::MX6.quantize_block_codes(&[0.0; 8]);
        assert_eq!(qb.codes, vec![0; 8]);
        assert_eq!(qb.shifts.len(), 4);
        assert_eq!(qb.dequantize(), vec![0.0; 8]);
    }

    #[test]
    #[should_panic(expected = "exceeds k1")]
    fn block_codes_reject_a_block_longer_than_k1() {
        BdrFormat::MX6.quantize_block_codes(&[1.0; 17]);
    }

    #[test]
    fn codes_respect_mantissa_width() {
        let fmt = BdrFormat::MX4; // m = 2 -> codes in 0..=3
        let x: Vec<f32> = (0..16).map(|i| (i as f32 + 1.0) * 0.37).collect();
        let qb = fmt.quantize_block_codes(&x);
        assert!(qb.codes.iter().all(|&c| c <= 3));
    }

    #[test]
    fn quantizer_trait_adapter() {
        use crate::VectorQuantizer;
        let mut q = BdrQuantizer::new(BdrFormat::MX9);
        assert_eq!(q.label(), "MX9");
        assert_eq!(q.bits_per_element(), 9.0);
        let x = vec![0.1f32; 16];
        assert_eq!(q.quantize_dequantize(&x).len(), 16);
    }
}

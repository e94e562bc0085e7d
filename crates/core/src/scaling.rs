//! The software-scaled rows of Table I — scaled INT, scalar floats under a
//! software scale (FP8/FP6/FP4) and VSQ — as one quantizer, plus the
//! first-level scale strategies they share.
//!
//! In the paper's two-level framework (§III) the three differ only in their
//! parts. Each stores an FP32 software scale `s` per `k1` elements and one
//! element code per value, an integer or a narrow float; VSQ adds a `d2`-bit
//! unsigned integer sub-scale `ss` per [`VSQ_VECTOR`] elements.
//! [`ScaledQuantizer`] is that scheme with the parts as parameters. Its one
//! block routine, [`ScaledQuantizer::quantize_block`], runs in division
//! form:
//!
//! - `s = amax / (max_sub · max_elem)`, where `max_sub = 2^d2 − 1` with a
//!   sub-scale and 1 without, so the block's amax lands on the largest code;
//! - with a sub-scale, each vector takes the smallest integer multiplier
//!   that does not clip it, `ss = ceil(vmax / (s · max_elem))` clamped to
//!   `1..=max_sub`;
//! - each element becomes `round_half_even(x / s)` clamped to the code
//!   range, or the narrow float's `cast(x / s)`, times `s`.
//!
//! The same routine is mx-nn's per-tensor scalar cast (a whole tensor as
//! one block). Hardware-scaled BDR formats — power-of-two scales on a shift
//! path — belong to [`crate::engine`], not to this module.
//!
//! Static weights can be scaled offline from their exact maximum; dynamic
//! activations and gradients cannot. The paper's Fig. 7 scales them by the
//! "delayed scaling" of NVIDIA's Transformer Engine: the current tensor's
//! scale comes from the amax over a window of previously observed tensors.

use crate::scalar::ScalarFormat;
use crate::util::round_half_even;
use crate::VectorQuantizer;
use std::collections::VecDeque;
use std::fmt;

/// Bits spent on each software-managed FP32 scale factor.
pub const FP32_SCALE_BITS: f64 = 32.0;

/// Vector size over which VSQ's integer sub-scale is shared (the VSQ paper
/// and Fig. 4 use 16).
pub const VSQ_VECTOR: usize = 16;

/// Nominal software-scale granularity of a scalar-float quantizer (the
/// paper quotes `k1 ≈ 10K` for FP8).
pub const DEFAULT_TENSOR_BLOCK: usize = 10_000;

/// Strategy for choosing the software-managed first-level scale factor.
#[derive(Debug, Clone, PartialEq)]
pub enum ScaleStrategy {
    /// Scale each block from its own observed maximum (offline / inference
    /// style; requires a pass over the data before quantizing it).
    Amax,
    /// Delayed scaling: use the maximum over the previous `window` observed
    /// blocks; the current block's maximum only affects *future* scales.
    /// Values above the stale scale saturate, mimicking dynamic-outlier
    /// clipping in training.
    Delayed {
        /// Number of past blocks whose maxima are tracked.
        window: usize,
    },
}

impl Default for ScaleStrategy {
    /// The paper's Fig. 7 setting: delayed scaling with a window of recent
    /// history (here 16 blocks).
    fn default() -> Self {
        ScaleStrategy::Delayed { window: 16 }
    }
}

impl fmt::Display for ScaleStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScaleStrategy::Amax => f.write_str("amax"),
            ScaleStrategy::Delayed { window } => write!(f, "delayed({window})"),
        }
    }
}

/// Stateful tracker that turns a [`ScaleStrategy`] into per-block maxima.
#[derive(Debug, Clone)]
pub struct ScaleTracker {
    strategy: ScaleStrategy,
    history: VecDeque<f32>,
}

impl ScaleTracker {
    /// Creates a tracker with the given strategy.
    pub fn new(strategy: ScaleStrategy) -> Self {
        ScaleTracker {
            strategy,
            history: VecDeque::new(),
        }
    }

    /// The configured strategy.
    pub fn strategy(&self) -> &ScaleStrategy {
        &self.strategy
    }

    /// Returns the amax estimate to use for `block`, then records the block's
    /// own amax into the history.
    ///
    /// Under [`ScaleStrategy::Amax`] this is simply the block's maximum; under
    /// delayed scaling it is the window maximum (falling back to the current
    /// block when no history exists yet, as frameworks do on the first step).
    pub fn observe(&mut self, block: &[f32]) -> f32 {
        let amax = block.iter().fold(0.0f32, |acc, x| acc.max(x.abs()));
        match self.strategy {
            ScaleStrategy::Amax => amax,
            ScaleStrategy::Delayed { window } => {
                let est = if self.history.is_empty() {
                    amax
                } else {
                    self.history.iter().fold(0.0f32, |acc, &x| acc.max(x))
                };
                self.history.push_back(amax);
                while self.history.len() > window {
                    self.history.pop_front();
                }
                est
            }
        }
    }

    /// Clears accumulated history (e.g. between independent experiments).
    pub fn reset(&mut self) {
        self.history.clear();
    }
}

/// How a [`ScaledQuantizer`] stores each scaled element.
///
/// # Examples
///
/// ```
/// # use mx_core::{scaling::{ElementCode::Float, ScaleStrategy::Amax, *}, *};
/// let mut fp8 = ScaledQuantizer::new(Float(ScalarFormat::E4M3), None, 10_000, Amax);
/// assert_eq!(fp8.quantize_dequantize(&[1000.0, 1.0])[0], 1000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ElementCode {
    /// Symmetric two's-complement integer: codes `±(2^(bits−1) − 1)`.
    Int {
        /// Bit-width including sign.
        bits: u32,
    },
    /// Narrow scalar float, cast with the format's own rounding and
    /// saturation.
    Float(ScalarFormat),
}

impl ElementCode {
    /// Largest element magnitude: `2^(bits−1) − 1`, or the format's max
    /// finite value.
    fn max_value(self) -> f64 {
        match self {
            ElementCode::Int { bits } => ((1i64 << (bits - 1)) - 1) as f64,
            ElementCode::Float(f) => f.max_finite() as f64,
        }
    }

    /// Replaces every `x` of `span` with its code at scale `s`, times `s`.
    fn quantize_span(self, span: &mut [f32], s: f64) {
        match self {
            ElementCode::Int { .. } => {
                let max_code = self.max_value();
                for v in span {
                    let q = round_half_even(*v as f64 / s).clamp(-max_code, max_code);
                    *v = (q * s) as f32;
                }
            }
            ElementCode::Float(f) => {
                for v in span {
                    *v = (f.cast((*v as f64 / s) as f32) as f64 * s) as f32;
                }
            }
        }
    }
}

/// A software-scaled quantizer: an FP32 scale per `k1` elements, an
/// optional `d2`-bit integer sub-scale per [`VSQ_VECTOR`] elements, and an
/// [`ElementCode`] per value. Table I's rows are its configurations:
///
/// | Row | Code | Sub-scale | Label |
/// |---|---|---|---|
/// | INT | `Int { bits }` | none | `INT8(k1=1024,amax)` |
/// | FP8 | `Float(format)` | none | `FP8-E4M3(delayed(16))` |
/// | VSQ | `Int { bits }` | `Some(d2)` | `VSQ6(d2=4,k1=1024,amax)` |
///
/// # Examples
///
/// ```
/// # use mx_core::{scaling::{ElementCode::Int, ScaleStrategy::Amax, *}, *};
/// // The block's max element lands on the largest code: it comes back exact.
/// let mut int8 = ScaledQuantizer::new(Int { bits: 8 }, None, 1024, Amax);
/// assert_eq!(int8.quantize_dequantize(&[0.5, -1.0, 0.25])[1], -1.0);
/// ```
#[derive(Debug, Clone)]
pub struct ScaledQuantizer {
    code: ElementCode,
    d2: Option<u32>,
    k1: usize,
    tracker: ScaleTracker,
}

impl ScaledQuantizer {
    /// Creates a quantizer storing `code` elements under one FP32 scale per
    /// `k1` elements and, when `d2` is given, one `d2`-bit integer sub-scale
    /// per [`VSQ_VECTOR`] elements.
    ///
    /// # Panics
    ///
    /// Panics if an integer code's `bits` is not in `2..=16`, `d2` is not in
    /// `1..=10`, `k1` is zero, or — with a sub-scale — `k1` is not a
    /// multiple of [`VSQ_VECTOR`].
    ///
    /// # Examples
    ///
    /// ```
    /// # use mx_core::{scaling::{ElementCode::Int, ScaleStrategy::Amax, *}, *};
    /// let mut vsq4 = ScaledQuantizer::new(Int { bits: 4 }, Some(4), 1024, Amax);
    /// assert_eq!(vsq4.quantize_dequantize(&[0.8, -0.4, 0.1, 0.0])[0], 0.8);
    /// ```
    pub fn new(code: ElementCode, d2: Option<u32>, k1: usize, strategy: ScaleStrategy) -> Self {
        if let ElementCode::Int { bits } = code {
            assert!(
                (2..=16).contains(&bits),
                "INT bit-width {bits} outside 2..=16"
            );
        }
        if let Some(d2) = d2 {
            assert!(
                (1..=10).contains(&d2),
                "sub-scale width {d2} outside 1..=10"
            );
            assert!(
                k1 > 0 && k1.is_multiple_of(VSQ_VECTOR),
                "k1 must be a positive multiple of 16"
            );
        }
        assert!(k1 > 0, "block granularity must be nonzero");
        ScaledQuantizer {
            code,
            d2,
            k1,
            tracker: ScaleTracker::new(strategy),
        }
    }

    /// Quantize-dequantizes `block` in place as one first-level block: the
    /// strategy turns it into an amax, which sets the scale (see the module
    /// doc for the arithmetic). A block — or, with a sub-scale, a vector —
    /// whose amax is zero (every element ±0 or NaN) becomes `+0.0`.
    ///
    /// [`VectorQuantizer::quantize_dequantize`] calls this once per `k1`
    /// elements; a per-tensor caller passes the whole tensor.
    pub fn quantize_block(&mut self, block: &mut [f32]) {
        let amax = self.tracker.observe(block);
        if amax == 0.0 {
            block.fill(0.0);
            return;
        }
        let max_elem = self.code.max_value();
        let Some(d2) = self.d2 else {
            return self.code.quantize_span(block, amax as f64 / max_elem);
        };
        let max_sub = ((1u32 << d2) - 1) as f64;
        let s = amax as f64 / (max_sub * max_elem);
        for vector in block.chunks_mut(VSQ_VECTOR) {
            let vmax = vector.iter().fold(0.0f32, |acc, x| acc.max(x.abs())) as f64;
            if vmax == 0.0 {
                vector.fill(0.0);
                continue;
            }
            let ss = (vmax / (s * max_elem)).ceil().clamp(1.0, max_sub);
            self.code.quantize_span(vector, s * ss);
        }
    }
}

impl VectorQuantizer for ScaledQuantizer {
    fn label(&self) -> String {
        let (k1, strategy) = (self.k1, self.tracker.strategy());
        match (self.code, self.d2) {
            (ElementCode::Int { bits }, None) => format!("INT{bits}(k1={k1},{strategy})"),
            (ElementCode::Int { bits }, Some(d2)) => {
                format!("VSQ{bits}(d2={d2},k1={k1},{strategy})")
            }
            (ElementCode::Float(f), None) => format!("{f}({strategy})"),
            (ElementCode::Float(f), Some(d2)) => format!("{f}(d2={d2},k1={k1},{strategy})"),
        }
    }

    fn bits_per_element(&self) -> f64 {
        let code = match self.code {
            ElementCode::Int { bits } => bits,
            ElementCode::Float(f) => f.total_bits(),
        };
        let sub = self.d2.map_or(0.0, |d2| d2 as f64 / VSQ_VECTOR as f64);
        code as f64 + sub + FP32_SCALE_BITS / self.k1 as f64
    }

    fn quantize_dequantize(&mut self, xs: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.quantize_dequantize_into(xs, &mut out);
        out
    }

    fn quantize_dequantize_into(&mut self, xs: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.extend_from_slice(xs);
        for block in out.chunks_mut(self.k1) {
            self.quantize_block(block);
        }
    }

    fn reset(&mut self) {
        self.tracker.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amax_ignores_history() {
        let mut t = ScaleTracker::new(ScaleStrategy::Amax);
        assert_eq!(t.observe(&[1.0, -3.0]), 3.0);
        assert_eq!(t.observe(&[0.5]), 0.5);
    }

    #[test]
    fn delayed_uses_previous_blocks() {
        let mut t = ScaleTracker::new(ScaleStrategy::Delayed { window: 2 });
        // First block: no history, falls back to own amax.
        assert_eq!(t.observe(&[2.0]), 2.0);
        // Second block: history = [2.0].
        assert_eq!(t.observe(&[8.0]), 2.0);
        // Third block: history = [2.0, 8.0].
        assert_eq!(t.observe(&[1.0]), 8.0);
        // Fourth block: history = [8.0, 1.0] (window evicted 2.0).
        assert_eq!(t.observe(&[0.1]), 8.0);
        // Fifth: history = [1.0, 0.1].
        assert_eq!(t.observe(&[0.1]), 1.0);
    }

    #[test]
    fn reset_clears_history() {
        let mut t = ScaleTracker::new(ScaleStrategy::default());
        t.observe(&[100.0]);
        t.reset();
        assert_eq!(t.observe(&[1.0]), 1.0);
    }

    #[test]
    fn zero_blocks_give_zero_amax() {
        let mut t = ScaleTracker::new(ScaleStrategy::Amax);
        assert_eq!(t.observe(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn display() {
        assert_eq!(ScaleStrategy::Amax.to_string(), "amax");
        assert_eq!(ScaleStrategy::default().to_string(), "delayed(16)");
    }

    /// A block with no finite nonzero element has amax 0 and no scale: every
    /// code writes `+0.0` over it, `-0.0` and NaN included — for the whole
    /// block, and with a sub-scale for each such vector.
    #[test]
    fn blocks_of_signed_zeros_and_nans_become_positive_zero() {
        let e4m3 = ElementCode::Float(ScalarFormat::E4M3);
        for (code, d2) in [
            (ElementCode::Int { bits: 8 }, None),
            (e4m3, None),
            (ElementCode::Int { bits: 4 }, Some(4)),
            (e4m3, Some(6)),
        ] {
            let mut q = ScaledQuantizer::new(code, d2, 32, ScaleStrategy::Amax);
            let mut block = [-0.0f32, f32::NAN, 0.0, -0.0].repeat(8);
            q.quantize_block(&mut block);
            assert!(block.iter().all(|v| v.to_bits() == 0), "{}", q.label());
        }
        let mut vsq = ScaledQuantizer::new(
            ElementCode::Int { bits: 4 },
            Some(4),
            32,
            ScaleStrategy::Amax,
        );
        let mut block = [-0.0f32; 32];
        block[0] = 1.0;
        block[16] = f32::NAN;
        vsq.quantize_block(&mut block);
        assert!(block[16..].iter().all(|v| v.to_bits() == 0));
        assert_eq!(block[0], 1.0);
    }

    /// A sub-scale on a float code composes like VSQ's: a small vector keeps
    /// its own resolution under a large neighbour.
    #[test]
    fn float_code_takes_a_sub_scale() {
        let e2m1 = ElementCode::Float(ScalarFormat::FP4_E2M1);
        let mut x = vec![4.0f32; 16];
        x.extend([0.01f32; 16]);
        let mut flat = ScaledQuantizer::new(e2m1, None, 32, ScaleStrategy::Amax);
        let mut sub = ScaledQuantizer::new(e2m1, Some(8), 32, ScaleStrategy::Amax);
        assert_eq!(flat.quantize_dequantize(&x)[16], 0.0);
        let y = sub.quantize_dequantize(&x);
        assert!((y[16] - 0.01).abs() < 0.002, "{}", y[16]);
        assert_eq!(sub.label(), "FP4-E2M1(d2=8,k1=32,amax)");
        assert!((sub.bits_per_element() - (4.0 + 0.5 + 1.0)).abs() < 1e-12);
    }

    /// The allocating and the in-place entry points give the same bits, and
    /// `quantize_dequantize` is `quantize_block` over each `k1`-block.
    #[test]
    fn entry_points_agree() {
        let x: Vec<f32> = (0..100)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.37)
            .collect();
        let mut a = ScaledQuantizer::new(
            ElementCode::Int { bits: 6 },
            Some(4),
            32,
            ScaleStrategy::default(),
        );
        let mut b = a.clone();
        let mut c = a.clone();
        let mut out = vec![7.0; 3];
        b.quantize_dequantize_into(&x, &mut out);
        let mut blocks = x.clone();
        for block in blocks.chunks_mut(32) {
            c.quantize_block(block);
        }
        assert_eq!(a.quantize_dequantize(&x), out);
        assert_eq!(out, blocks);
    }
}

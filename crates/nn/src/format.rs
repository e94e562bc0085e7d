//! Tensor-level numeric formats and directional quantization.
//!
//! MX is a *directional* format: hardware benefits require quantizing along
//! the dot-product reduction dimension, which makes quantization and
//! transposition non-commutative (§V of the paper). [`TensorFormat`]
//! abstracts over the formats a tensor operation can run in, and
//! [`quantize_along`] implements axis-aware quantization for 2-D tensors.
//!
//! Block (BDR) formats route through the unified
//! [`mx_core::engine::QuantEngine`]: row-axis quantization uses the
//! engine's row kernel and column-axis quantization uses the *strided*
//! column kernel, which walks `k1`-blocks directly down each column —
//! the seed's transpose → quantize → transpose round trip is gone. Large
//! tensors are split across cores by the engine's chunked parallel
//! front-end (bit-identical to serial).
//!
//! Note that [`quantize_along`] is the *fake-quantization* view (values
//! come back as `f32`). Matrix products between two BDR-format operands
//! never materialize that view: [`crate::qflow::quantized_matmul_ab`]
//! routes them through [`mx_core::gemm`], which consumes the integer block
//! codes directly and is bit-identical to fake-quantize + blocked `f32`
//! matmul.

use crate::tensor::Tensor;
use mx_core::bdr::BdrFormat;
use mx_core::engine::QuantEngine;
use mx_core::scalar::ScalarFormat;
use mx_core::scaling::{ElementCode, ScaleStrategy, ScaledQuantizer, DEFAULT_TENSOR_BLOCK};
use std::fmt;

/// Numeric format for a tensor operand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TensorFormat {
    /// Full precision (no quantization).
    Fp32,
    /// BFloat16 element-wise rounding.
    Bf16,
    /// Scalar narrow float with per-tensor amax scaling (FP8-style; the
    /// scale maps the tensor's amax onto the format's max finite value).
    /// The cast is [`ScaledQuantizer::quantize_block`] over the whole
    /// tensor — the block routine of the Fig. 7 FP8 rows — so a tensor
    /// whose amax is zero (all ±0 or NaN) becomes `+0.0`.
    ScalarScaled(ScalarFormat),
    /// Block format quantized along the reduction dimension.
    Bdr(BdrFormat),
}

impl TensorFormat {
    /// Convenience constant: MX9 block format.
    pub const MX9: Self = TensorFormat::Bdr(BdrFormat::MX9);
    /// Convenience constant: MX6 block format.
    pub const MX6: Self = TensorFormat::Bdr(BdrFormat::MX6);
    /// Convenience constant: MX4 block format.
    pub const MX4: Self = TensorFormat::Bdr(BdrFormat::MX4);

    /// Whether this format leaves values untouched.
    pub fn is_identity(&self) -> bool {
        matches!(self, TensorFormat::Fp32)
    }

    /// Whether one scale spans the whole tensor, so the cast of a value
    /// depends on every other value in it: a gathered or batched tensor
    /// casts differently from its rows alone.
    pub fn is_per_tensor_scaled(&self) -> bool {
        matches!(self, TensorFormat::ScalarScaled(_))
    }

    /// Average storage bits per element.
    pub fn bits_per_element(&self) -> f64 {
        match self {
            TensorFormat::Fp32 => 32.0,
            TensorFormat::Bf16 => 16.0,
            TensorFormat::ScalarScaled(f) => f.total_bits() as f64,
            TensorFormat::Bdr(f) => f.bits_per_element(),
        }
    }
}

impl fmt::Display for TensorFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorFormat::Fp32 => f.write_str("FP32"),
            TensorFormat::Bf16 => f.write_str("BF16"),
            TensorFormat::ScalarScaled(s) => write!(f, "{s}"),
            TensorFormat::Bdr(b) => write!(f, "{b}"),
        }
    }
}

/// Axis along which a 2-D tensor is quantized (the reduction dimension of
/// the tensor op that will consume it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Blocks run along each row (the last dimension) — e.g. the activations
    /// `A[M,K]` of `A·W`, quantized along `K`.
    Row,
    /// Blocks run down each column — e.g. the weights `W[K,N]` of `A·W`,
    /// quantized along `K`.
    Col,
}

/// Quantizes `t` (viewed as 2-D) to `format` along `axis`, returning the
/// dequantized ("fake-quantized") tensor.
///
/// Scalar formats are direction-free; block formats tile their `k1`-blocks
/// along the requested axis.
///
/// # Examples
///
/// ```
/// # use mx_nn::format::{quantize_along, Axis, TensorFormat};
/// # use mx_nn::tensor::Tensor;
/// let t = Tensor::from_vec((0..32).map(|i| i as f32 * 0.1).collect(), &[2, 16]);
/// let row_q = quantize_along(&t, TensorFormat::MX6, Axis::Row);
/// let col_q = quantize_along(&t, TensorFormat::MX6, Axis::Col);
/// // Quantization is directional: the two results differ.
/// assert_ne!(row_q.data(), col_q.data());
/// ```
pub fn quantize_along(t: &Tensor, format: TensorFormat, axis: Axis) -> Tensor {
    match (format, axis) {
        (TensorFormat::Fp32, _) => t.clone(),
        (TensorFormat::Bdr(fmt), Axis::Col) => {
            let cols = t.cols();
            let mut out = t.clone();
            QuantEngine::auto(fmt).quantize_dequantize_cols(out.data_mut(), cols);
            out
        }
        // Scalar formats are direction-free and BDR row-axis quantization is
        // the row kernel: all of them share the slice-level cast the plan
        // executor also runs, so planned and dynamic outputs cannot drift.
        _ => {
            let cols = t.cols();
            let mut out = t.clone();
            cast_rows(out.data_mut(), cols, format);
            out
        }
    }
}

/// Slice-level row-axis / element-wise cast: quantize-dequantizes `data`
/// (viewed as rows of `cols` elements) through `format` in place.
///
/// This is the one implementation behind [`quantize_along`]'s row axis,
/// [`cast_elementwise`], and the `plan` executor's fused cast steps —
/// sharing it is what makes compiled plans bit-identical to the dynamic
/// layer walk by construction.
pub(crate) fn cast_rows(data: &mut [f32], cols: usize, format: TensorFormat) {
    match format {
        TensorFormat::Fp32 => {}
        TensorFormat::Bf16 => {
            for v in data.iter_mut() {
                *v = ScalarFormat::BF16.cast(*v);
            }
        }
        TensorFormat::ScalarScaled(f) => ScaledQuantizer::new(
            ElementCode::Float(f),
            None,
            DEFAULT_TENSOR_BLOCK,
            ScaleStrategy::Amax,
        )
        .quantize_block(data),
        TensorFormat::Bdr(fmt) => QuantEngine::auto(fmt).quantize_dequantize_rows(data, cols),
    }
}

/// Casts every element of `t` through `format` without directional blocking
/// (used for element-wise operation outputs, e.g. BF16 vector ops).
pub fn cast_elementwise(t: &Tensor, format: TensorFormat) -> Tensor {
    match format {
        TensorFormat::Fp32 => t.clone(),
        // Element-wise casting has no reduction direction; BDR formats are
        // treated as row-blocked and hit the engine's row kernel.
        other => quantize_along(t, other, Axis::Row),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(rows: usize, cols: usize) -> Tensor {
        Tensor::from_vec(
            (0..rows * cols)
                .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.037)
                .collect(),
            &[rows, cols],
        )
    }

    #[test]
    fn fp32_is_identity() {
        let t = ramp(4, 16);
        assert_eq!(quantize_along(&t, TensorFormat::Fp32, Axis::Row), t);
        assert!(TensorFormat::Fp32.is_identity());
    }

    #[test]
    fn row_quantization_matches_per_row_vectors() {
        let t = ramp(3, 32);
        let q = quantize_along(&t, TensorFormat::MX6, Axis::Row);
        for r in 0..3 {
            let row = t.slice_rows(r, r + 1);
            let expect = BdrFormat::MX6.quantize_dequantize(row.data());
            assert_eq!(&q.data()[r * 32..(r + 1) * 32], &expect[..]);
        }
    }

    #[test]
    fn col_quantization_matches_transposed_rows() {
        let t = ramp(32, 3);
        let q = quantize_along(&t, TensorFormat::MX6, Axis::Col);
        let tt = t.transpose2d();
        for c in 0..3 {
            let col = tt.slice_rows(c, c + 1);
            let expect = BdrFormat::MX6.quantize_dequantize(col.data());
            for (r, &e) in expect.iter().enumerate() {
                assert_eq!(q.data()[r * 3 + c], e);
            }
        }
    }

    #[test]
    fn quantize_transpose_noncommutative() {
        // Fig. 8: Q(W^T) != Q(W)^T for directional formats.
        let t = ramp(16, 16);
        let q_then_t = quantize_along(&t, TensorFormat::MX4, Axis::Row).transpose2d();
        let t_then_q = quantize_along(&t.transpose2d(), TensorFormat::MX4, Axis::Row);
        assert_ne!(q_then_t.data(), t_then_q.data());
    }

    #[test]
    fn bf16_casting_clears_low_bits() {
        let t = ramp(2, 8);
        let q = cast_elementwise(&t, TensorFormat::Bf16);
        for &v in q.data() {
            assert_eq!(v.to_bits() & 0xffff, 0);
        }
    }

    #[test]
    fn scalar_scaled_maps_amax_to_max_finite() {
        let t = Tensor::from_vec(vec![3.0, -1.5, 0.75, 0.0], &[2, 2]);
        let q = quantize_along(
            &t,
            TensorFormat::ScalarScaled(ScalarFormat::E4M3),
            Axis::Row,
        );
        // Max element and power-of-two fractions of it survive exactly.
        assert_eq!(q.data(), t.data());
    }

    #[test]
    fn zero_tensor_is_fixed_point_for_all_formats() {
        let t = Tensor::zeros(&[4, 16]);
        for f in [
            TensorFormat::Fp32,
            TensorFormat::Bf16,
            TensorFormat::ScalarScaled(ScalarFormat::E5M2),
            TensorFormat::MX9,
        ] {
            assert_eq!(quantize_along(&t, f, Axis::Row), t, "{f}");
        }
    }

    #[test]
    fn bits_per_element() {
        assert_eq!(TensorFormat::Fp32.bits_per_element(), 32.0);
        assert_eq!(TensorFormat::Bf16.bits_per_element(), 16.0);
        assert_eq!(TensorFormat::MX9.bits_per_element(), 9.0);
        assert_eq!(
            TensorFormat::ScalarScaled(ScalarFormat::E4M3).bits_per_element(),
            8.0
        );
    }

    #[test]
    fn display_labels() {
        assert_eq!(TensorFormat::MX6.to_string(), "MX6");
        assert_eq!(TensorFormat::Bf16.to_string(), "BF16");
    }
}

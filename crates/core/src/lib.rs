//! # mx-core — Block Data Representations and shared microexponents
//!
//! A from-scratch reproduction of the numerics in *"With Shared
//! Microexponents, A Little Shifting Goes a Long Way"* (ISCA 2023): the
//! **BDR** framework for two-level block quantization and the **MX4 / MX6 /
//! MX9** shared-microexponent formats, together with every format family the
//! paper compares against — scalar FP8/FP6/FP4, software-scaled INT, block
//! floating point (MSFP), and VSQ — plus the QSNR statistical methodology
//! (Eq. 3) and the Theorem 1 fidelity lower bound.
//!
//! ## Quick tour
//!
//! Quantize a vector with MX9 and measure its fidelity:
//!
//! ```
//! use mx_core::bdr::{BdrFormat, BdrQuantizer};
//! use mx_core::qsnr::{measure_qsnr, Distribution, QsnrConfig};
//!
//! let mut q = BdrQuantizer::new(BdrFormat::MX9);
//! let qsnr = measure_qsnr(
//!     &mut q,
//!     Distribution::NormalVariableVariance,
//!     QsnrConfig { vectors: 64, vector_len: 512, seed: 1 },
//! );
//! assert!(qsnr > 30.0, "MX9 is a high-fidelity format: {qsnr} dB");
//! ```
//!
//! Pack values into a real MX bit stream:
//!
//! ```
//! use mx_core::{bdr::BdrFormat, mx::MxTensor};
//!
//! let activations: Vec<f32> = (0..128).map(|i| (i as f32 * 0.1).cos()).collect();
//! let packed = MxTensor::encode(BdrFormat::MX6, &activations);
//! assert_eq!(packed.as_bytes().len(), 128 * 6 / 8);
//! ```
//!
//! ## Module map
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`bdr`] | Fig. 5 — the BDR two-level scaling framework; MX/MSFP presets |
//! | [`engine`] | The unified block-quantization engine: one block plan, value / packed / strided kernels |
//! | [`gemm`] | Fig. 8 — integer-domain quantized GEMM over block codes, prepack/execute split |
//! | [`fgemm`] | Blocked, vectorized FP32 GEMM (the unquantized baseline path) |
//! | [`parallel`] | Chunked data-parallel utilities behind every multi-core path |
//! | [`mx`] | Fig. 4 — packed bit-stream encoding of MX tensors |
//! | [`scalar`] | FP8/FP6/FP4/BF16/FP16 scalar formats |
//! | [`fp_scaled`] | Table I row "FP8" — scalar floats under SW delayed scaling |
//! | [`int_quant`] | Table I row "INT" — software-scaled integers |
//! | [`vsq`] | Table I row "VSQ" — per-vector scaled quantization |
//! | [`scaling`] | First-level scale strategies (amax / delayed) |
//! | [`qsnr`] | Eq. 3 — quantization signal-to-noise methodology |
//! | [`theory`] | Theorem 1 — QSNR lower bound |
//! | [`taxonomy`] | Table I as data |
//! | [`knobs`] | Registry of `MX_*` environment knobs |
//! | [`bits`], [`util`] | Bit-exact plumbing |

#![warn(missing_docs)]
// Every unsafe operation inside an `unsafe fn` must sit in its own scoped
// `unsafe {}` block with a `// SAFETY:` justification — the contract
// `mx-audit` enforces on the kernel modules.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod bdr;
pub mod bits;
pub mod engine;
pub mod error;
pub mod fgemm;
pub mod fp_scaled;
pub mod gemm;
pub mod int_quant;
pub mod knobs;
pub mod mx;
pub mod parallel;
pub mod qsnr;
pub mod scalar;
pub mod scaling;
pub mod taxonomy;
pub mod theory;
pub mod util;
pub mod vsq;

pub use bdr::{BdrFormat, BdrQuantizer};
pub use engine::QuantEngine;
pub use error::FormatError;
pub use scalar::ScalarFormat;

/// A quantizer that maps `f32` vectors onto a format's representable grid.
///
/// `quantize_dequantize` returns the *recovered* values (`s·ss·Xq` in the
/// paper's notation): this "fake quantization" view is what both the QSNR
/// methodology and quantization-aware training consume. Implementations may
/// be stateful (delayed scaling tracks history), hence `&mut self`;
/// [`VectorQuantizer::reset`] clears any such state.
///
/// # Examples
///
/// ```
/// use mx_core::{BdrFormat, BdrQuantizer, VectorQuantizer};
///
/// let mut q = BdrQuantizer::new(BdrFormat::MX4);
/// assert_eq!(q.bits_per_element(), 4.0);
/// let y = q.quantize_dequantize(&[0.1, 0.2, 0.3]);
/// assert_eq!(y.len(), 3);
/// ```
pub trait VectorQuantizer {
    /// Human-readable configuration label (e.g. `"MX9"`,
    /// `"INT8(k1=1024,delayed(16))"`).
    fn label(&self) -> String;

    /// Average storage bits per element, including amortized scale factors.
    fn bits_per_element(&self) -> f64;

    /// Quantizes `xs` to the format's grid and returns the dequantized
    /// values.
    fn quantize_dequantize(&mut self, xs: &[f32]) -> Vec<f32>;

    /// [`Self::quantize_dequantize`] into a caller-owned buffer, so a loop
    /// over many vectors (the QSNR harness) can reuse one allocation.
    /// `out` is overwritten and resized to `xs.len()`. The default
    /// allocates as usual and moves the result in; quantizers that can
    /// write in place override it.
    fn quantize_dequantize_into(&mut self, xs: &[f32], out: &mut Vec<f32>) {
        *out = self.quantize_dequantize(xs);
    }

    /// Clears any accumulated scaling state (no-op for stateless formats).
    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp_scaled::FpScaledQuantizer;
    use crate::int_quant::IntQuantizer;
    use crate::scaling::ScaleStrategy;
    use crate::vsq::VsqQuantizer;

    /// All quantizer families are usable through the trait object interface.
    #[test]
    fn trait_objects_cover_every_family() {
        let mut quantizers: Vec<Box<dyn VectorQuantizer>> = vec![
            Box::new(BdrQuantizer::new(BdrFormat::MX9)),
            Box::new(BdrQuantizer::new(BdrFormat::MSFP12)),
            Box::new(IntQuantizer::new(8, 1024, ScaleStrategy::Amax)),
            Box::new(FpScaledQuantizer::new(
                ScalarFormat::E4M3,
                ScaleStrategy::Amax,
            )),
            Box::new(VsqQuantizer::new(4, 4, 1024, ScaleStrategy::Amax)),
        ];
        let x: Vec<f32> = (0..64).map(|i| (i as f32 * 0.21).sin()).collect();
        for q in quantizers.iter_mut() {
            let y = q.quantize_dequantize(&x);
            assert_eq!(y.len(), x.len(), "{}", q.label());
            assert!(q.bits_per_element() > 0.0);
            q.reset();
        }
    }

    /// The paper's headline fidelity ordering on the Fig. 7 distribution:
    /// MX9 > FP8(E4M3) quantization fidelity, and MX6 sits between the two
    /// FP8 variants.
    #[test]
    fn headline_qsnr_ordering() {
        use crate::qsnr::{measure_qsnr, Distribution, QsnrConfig};
        let cfg = QsnrConfig {
            vectors: 128,
            vector_len: 1024,
            seed: 123,
        };
        let d = Distribution::NormalVariableVariance;
        let mx9 = measure_qsnr(&mut BdrQuantizer::new(BdrFormat::MX9), d, cfg);
        let mx6 = measure_qsnr(&mut BdrQuantizer::new(BdrFormat::MX6), d, cfg);
        let e4m3 = measure_qsnr(
            &mut FpScaledQuantizer::new(ScalarFormat::E4M3, ScaleStrategy::default()),
            d,
            cfg,
        );
        let e5m2 = measure_qsnr(
            &mut FpScaledQuantizer::new(ScalarFormat::E5M2, ScaleStrategy::default()),
            d,
            cfg,
        );
        assert!(
            mx9 > e4m3 + 10.0,
            "MX9 ({mx9:.1} dB) well above FP8-E4M3 ({e4m3:.1} dB)"
        );
        assert!(
            mx6 > e5m2,
            "MX6 ({mx6:.1} dB) above FP8-E5M2 ({e5m2:.1} dB)"
        );
        assert!(
            mx6 < e4m3 + 3.0,
            "MX6 ({mx6:.1} dB) in the FP8 neighbourhood ({e4m3:.1} dB)"
        );
    }
}

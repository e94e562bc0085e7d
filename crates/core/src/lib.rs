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
//! | [`scaling`] | Table I rows "INT", "FP8" and "VSQ" — one software-scaled quantizer; first-level scale strategies (amax / delayed) |
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
pub mod gemm;
pub mod knobs;
pub mod mx;
pub mod parallel;
pub mod qsnr;
pub mod scalar;
pub mod scaling;
pub mod taxonomy;
pub mod theory;
pub mod util;

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
    use crate::scaling::{ElementCode, ScaleStrategy, ScaledQuantizer, DEFAULT_TENSOR_BLOCK};

    /// All quantizer families are usable through the trait object interface.
    #[test]
    fn trait_objects_cover_every_family() {
        let int8 = ElementCode::Int { bits: 8 };
        let int4 = ElementCode::Int { bits: 4 };
        let e4m3 = ElementCode::Float(ScalarFormat::E4M3);
        let mut quantizers: Vec<Box<dyn VectorQuantizer>> = vec![
            Box::new(BdrQuantizer::new(BdrFormat::MX9)),
            Box::new(BdrQuantizer::new(BdrFormat::MSFP12)),
            Box::new(ScaledQuantizer::new(int8, None, 1024, ScaleStrategy::Amax)),
            Box::new(ScaledQuantizer::new(
                e4m3,
                None,
                DEFAULT_TENSOR_BLOCK,
                ScaleStrategy::Amax,
            )),
            Box::new(ScaledQuantizer::new(
                int4,
                Some(4),
                1024,
                ScaleStrategy::Amax,
            )),
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
        let fp8 = |f| {
            ScaledQuantizer::new(
                ElementCode::Float(f),
                None,
                DEFAULT_TENSOR_BLOCK,
                ScaleStrategy::default(),
            )
        };
        let mx9 = measure_qsnr(&mut BdrQuantizer::new(BdrFormat::MX9), d, cfg);
        let mx6 = measure_qsnr(&mut BdrQuantizer::new(BdrFormat::MX6), d, cfg);
        let e4m3 = measure_qsnr(&mut fp8(ScalarFormat::E4M3), d, cfg);
        let e5m2 = measure_qsnr(&mut fp8(ScalarFormat::E5M2), d, cfg);
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

// Unit tests of `scaling::ScaledQuantizer`, one module per software-scaled
// row of Table I: INT (integer code), FP8 (float code), VSQ (integer code
// under a sub-scale).

#[cfg(test)]
mod int_quant {
    mod tests {
        use crate::scaling::{ElementCode, ScaleStrategy, ScaledQuantizer};
        use crate::VectorQuantizer;

        fn int(bits: u32, k1: usize, strategy: ScaleStrategy) -> ScaledQuantizer {
            ScaledQuantizer::new(ElementCode::Int { bits }, None, k1, strategy)
        }

        fn amax_int(bits: u32) -> ScaledQuantizer {
            int(bits, 1024, ScaleStrategy::Amax)
        }

        #[test]
        fn max_value_is_exact_with_amax_scaling() {
            let mut q = amax_int(8);
            let y = q.quantize_dequantize(&[3.7, -1.0, 0.0]);
            assert_eq!(y[0], 3.7);
            assert_eq!(y[2], 0.0);
        }

        #[test]
        fn int8_error_within_half_step() {
            let mut q = amax_int(8);
            let x: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.7).sin()).collect();
            let y = q.quantize_dequantize(&x);
            let step = 1.0 / 127.0; // amax is 1.0-ish
            for (a, b) in x.iter().zip(y.iter()) {
                assert!((a - b).abs() <= step, "{a} vs {b}");
            }
        }

        #[test]
        fn int4_is_coarser_than_int8() {
            let x: Vec<f32> = (0..1024)
                .map(|i| ((i * 61) % 997) as f32 / 997.0 - 0.5)
                .collect();
            let n8 = crate::util::noise_power(&amax_int(8).quantize_dequantize(&x), &x);
            let n4 = crate::util::noise_power(&amax_int(4).quantize_dequantize(&x), &x);
            assert!(
                n4 > 8.0 * n8,
                "INT4 noise {n4} should far exceed INT8 noise {n8}"
            );
        }

        #[test]
        fn delayed_scaling_clips_outliers() {
            let mut q = int(8, 4, ScaleStrategy::Delayed { window: 4 });
            // Prime history with small values.
            let _ = q.quantize_dequantize(&[0.1, -0.1, 0.05, 0.08]);
            // A new outlier saturates at the stale scale (0.1).
            let y = q.quantize_dequantize(&[10.0, 0.0, 0.0, 0.0]);
            assert!(y[0] <= 0.11, "outlier should clip near 0.1, got {}", y[0]);
        }

        #[test]
        fn zero_block() {
            let mut q = amax_int(8);
            assert_eq!(q.quantize_dequantize(&[0.0; 10]), vec![0.0; 10]);
        }

        #[test]
        fn bits_per_element_amortizes_scale() {
            let q = amax_int(4);
            assert!((q.bits_per_element() - (4.0 + 32.0 / 1024.0)).abs() < 1e-12);
        }

        #[test]
        fn reset_clears_delayed_history() {
            let mut q = int(8, 2, ScaleStrategy::Delayed { window: 8 });
            let _ = q.quantize_dequantize(&[100.0, 0.0]);
            q.reset();
            // After reset the first block scales from itself again.
            let y = q.quantize_dequantize(&[1.0, 0.5]);
            assert_eq!(y[0], 1.0);
        }

        #[test]
        fn label_mentions_configuration() {
            assert_eq!(amax_int(8).label(), "INT8(k1=1024,amax)");
        }

        #[test]
        #[should_panic(expected = "outside 2..=16")]
        fn rejects_1_bit() {
            let _ = int(1, 16, ScaleStrategy::Amax);
        }
    }
}

#[cfg(test)]
mod fp_scaled {
    mod tests {
        use crate::scalar::ScalarFormat;
        use crate::scaling::{ElementCode, ScaleStrategy, ScaledQuantizer, DEFAULT_TENSOR_BLOCK};
        use crate::VectorQuantizer;

        fn fp(format: ScalarFormat, k1: usize, strategy: ScaleStrategy) -> ScaledQuantizer {
            ScaledQuantizer::new(ElementCode::Float(format), None, k1, strategy)
        }

        fn amax_fp(format: ScalarFormat) -> ScaledQuantizer {
            fp(format, DEFAULT_TENSOR_BLOCK, ScaleStrategy::Amax)
        }

        #[test]
        fn amax_maps_to_max_finite() {
            let mut q = amax_fp(ScalarFormat::E4M3);
            let y = q.quantize_dequantize(&[8.0, 4.0, -2.0]);
            assert_eq!(y[0], 8.0);
            // 4.0 and 2.0 are powers of two times the max, still exact.
            assert_eq!(y[1], 4.0);
            assert_eq!(y[2], -2.0);
        }

        #[test]
        fn relative_error_bounded_by_format_precision() {
            let mut q = amax_fp(ScalarFormat::E4M3);
            let x: Vec<f32> = (1..500).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
            let y = q.quantize_dequantize(&x);
            for (a, b) in x.iter().zip(y.iter()) {
                if a.abs() > 0.1 {
                    // E4M3 has 3 mantissa bits: relative error <= 2^-4 for normals.
                    assert!(((a - b) / a).abs() <= 0.0625 + 1e-6, "{a} vs {b}");
                }
            }
        }

        #[test]
        fn delayed_scaling_saturates_new_outliers() {
            let mut q = fp(ScalarFormat::E4M3, 4, ScaleStrategy::Delayed { window: 4 });
            let _ = q.quantize_dequantize(&[1.0, 0.5, 0.2, 0.1]);
            let y = q.quantize_dequantize(&[100.0, 0.0, 0.0, 0.0]);
            // Scale was set for amax 1.0 -> 100 clips to about 1.0.
            assert!(y[0] <= 1.01, "expected clipping, got {}", y[0]);
        }

        #[test]
        fn bits_per_element_accounts_for_scale() {
            let q = amax_fp(ScalarFormat::E5M2);
            assert!((q.bits_per_element() - (8.0 + 32.0 / 10_000.0)).abs() < 1e-12);
            let q = fp(ScalarFormat::E5M2, 128, ScaleStrategy::Amax);
            assert!((q.bits_per_element() - (8.0 + 0.25)).abs() < 1e-12);
        }

        #[test]
        fn zero_tensor() {
            let mut q = amax_fp(ScalarFormat::E5M2);
            assert_eq!(q.quantize_dequantize(&[0.0; 8]), vec![0.0; 8]);
        }

        #[test]
        fn fp4_is_coarse_but_sane() {
            let mut q = amax_fp(ScalarFormat::FP4_E2M1);
            let x = [6.0f32, 3.0, 1.5, -6.0];
            // With amax 6 the scale is exactly 1, so these FP4 values round-trip.
            assert_eq!(q.quantize_dequantize(&x), x.to_vec());
        }

        #[test]
        fn label_and_reset() {
            let mut q = fp(ScalarFormat::E4M3, 2, ScaleStrategy::Delayed { window: 2 });
            assert_eq!(q.label(), "FP8-E4M3(delayed(2))");
            let _ = q.quantize_dequantize(&[50.0, 0.0]);
            q.reset();
            let y = q.quantize_dequantize(&[1.0, 0.0]);
            assert_eq!(y[0], 1.0);
        }
    }
}

#[cfg(test)]
mod vsq {
    mod tests {
        use crate::scaling::{ElementCode, ScaleStrategy, ScaledQuantizer};
        use crate::VectorQuantizer;

        fn vsq_with(bits: u32, d2: u32, k1: usize, strategy: ScaleStrategy) -> ScaledQuantizer {
            ScaledQuantizer::new(ElementCode::Int { bits }, Some(d2), k1, strategy)
        }

        fn vsq(bits: u32, d2: u32) -> ScaledQuantizer {
            vsq_with(bits, d2, 1024, ScaleStrategy::Amax)
        }

        #[test]
        fn per_vector_scaling_beats_flat_int_on_mixed_magnitudes() {
            // One vector of large values followed by one of small values: the
            // per-vector sub-scale preserves the small vector's resolution.
            let mut x = Vec::new();
            for i in 0..16 {
                x.push(1.0 + 0.01 * i as f32);
            }
            for i in 0..16 {
                x.push(0.01 + 0.0001 * i as f32);
            }
            let mut v = vsq(4, 8);
            let mut flat = ScaledQuantizer::new(
                ElementCode::Int { bits: 4 },
                None,
                1024,
                ScaleStrategy::Amax,
            );
            let yv = v.quantize_dequantize(&x);
            let yf = flat.quantize_dequantize(&x);
            // The small-magnitude vector is where per-vector scaling pays off:
            // flat INT4 flushes it entirely (scale set by the large vector),
            // while VSQ preserves it with its own sub-scale.
            let nv = crate::util::noise_power(&yv[16..], &x[16..]);
            let nf = crate::util::noise_power(&yf[16..], &x[16..]);
            assert!(
                nv < nf * 0.1,
                "VSQ small-vector noise {nv} should be well below flat INT {nf}"
            );
        }

        #[test]
        fn max_element_nearly_exact() {
            let mut q = vsq(8, 4);
            let x: Vec<f32> = (0..32).map(|i| if i == 7 { 5.0 } else { 0.3 }).collect();
            let y = q.quantize_dequantize(&x);
            assert!((y[7] - 5.0).abs() / 5.0 < 0.01);
        }

        #[test]
        fn zero_vectors_within_block() {
            let mut q = vsq(4, 4);
            let mut x = vec![0.0f32; 32];
            x[0] = 1.0;
            let y = q.quantize_dequantize(&x);
            assert_eq!(&y[16..], &[0.0; 16]);
            assert!((y[0] - 1.0).abs() < 0.1);
        }

        #[test]
        fn bits_per_element_accounting() {
            let q = vsq(4, 4);
            let expect = 4.0 + 4.0 / 16.0 + 32.0 / 1024.0;
            assert!((q.bits_per_element() - expect).abs() < 1e-12);
        }

        #[test]
        fn wider_subscale_reduces_noise() {
            // With more sub-scale bits the per-vector scale matches vmax better.
            let x: Vec<f32> = (0..256)
                .map(|i| {
                    let group = i / 16;
                    let base = 2.0f32.powi(-(group % 6));
                    base * (1.0 + 0.05 * (i % 16) as f32)
                })
                .collect();
            let n4 = crate::util::noise_power(&vsq(4, 4).quantize_dequantize(&x), &x);
            let n8 = crate::util::noise_power(&vsq(4, 8).quantize_dequantize(&x), &x);
            assert!(
                n8 <= n4,
                "d2=8 noise {n8} should not exceed d2=4 noise {n4}"
            );
        }

        #[test]
        fn delayed_scaling_is_supported() {
            let mut q = vsq_with(8, 4, 16, ScaleStrategy::Delayed { window: 2 });
            let _ = q.quantize_dequantize(&[1.0; 16]);
            let y = q.quantize_dequantize(&[10.0; 16]);
            // Stale scale (1.0) clips the new values near 1.0.
            assert!(y[0] < 1.1);
            q.reset();
        }

        #[test]
        #[should_panic(expected = "multiple of 16")]
        fn rejects_unaligned_k1() {
            let _ = vsq_with(4, 4, 100, ScaleStrategy::Amax);
        }

        #[test]
        fn label() {
            assert_eq!(vsq(6, 4).label(), "VSQ6(d2=4,k1=1024,amax)");
        }
    }
}

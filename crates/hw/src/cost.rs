//! The Fig. 7 x-axis: normalized area × memory efficiency product, plus the
//! [`FormatConfig`] enum that names every point in the evaluated design
//! space.

use crate::area::{AreaModel, PipelineGeometry};
use crate::memory::memory_cost_rel_fp8;
use mx_core::bdr::{BdrFormat, BdrQuantizer};
use mx_core::scalar::ScalarFormat;
use mx_core::scaling::{ElementCode, ScaleStrategy, ScaledQuantizer, FP32_SCALE_BITS, VSQ_VECTOR};
use mx_core::VectorQuantizer;
use std::fmt;

/// One evaluable point in the quantization design space: a format family
/// plus its scaling configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum FormatConfig {
    /// Hardware two-level block format (MX, MSFP, generic BDR).
    Bdr(BdrFormat),
    /// Scalar float with software first-level scaling over `k1` elements.
    ScalarSw {
        /// The element format.
        format: ScalarFormat,
        /// Software scale granularity (the paper uses ≈10K for FP8).
        k1: usize,
    },
    /// Software-scaled integer.
    Int {
        /// Integer width including sign.
        bits: u32,
        /// FP32 scale granularity.
        k1: usize,
    },
    /// Per-vector scaled quantization.
    Vsq {
        /// Integer data width including sign.
        bits: u32,
        /// Integer sub-scale width.
        d2: u32,
        /// FP32 scale granularity.
        k1: usize,
    },
}

impl FormatConfig {
    /// Display label matching the paper's naming.
    pub fn label(&self) -> String {
        match self {
            FormatConfig::Bdr(f) => f.to_string(),
            FormatConfig::ScalarSw { format, .. } => format.to_string(),
            FormatConfig::Int { bits, .. } => format!("scaled INT{bits}"),
            FormatConfig::Vsq { bits, d2, .. } => format!("VSQ{bits}(d2={d2})"),
        }
    }

    /// Average storage bits per element including amortized scales.
    pub fn bits_per_element(&self) -> f64 {
        match self {
            FormatConfig::Bdr(f) => f.bits_per_element(),
            FormatConfig::ScalarSw { format, k1 } => {
                format.total_bits() as f64 + FP32_SCALE_BITS / *k1 as f64
            }
            FormatConfig::Int { bits, k1 } => *bits as f64 + FP32_SCALE_BITS / *k1 as f64,
            FormatConfig::Vsq { bits, d2, k1 } => {
                *bits as f64 + *d2 as f64 / VSQ_VECTOR as f64 + FP32_SCALE_BITS / *k1 as f64
            }
        }
    }

    /// Storage bits per element *as seen by a 256-element tile*: scale
    /// factors whose granularity exceeds the tile (per-tensor software
    /// scales) are fetched once per tensor and do not travel with the tile,
    /// so they are excluded from the packing analysis — this is why the
    /// paper's FP8 tile packs into exactly four 64B lines.
    pub fn tile_bits_per_element(&self) -> f64 {
        let tile = crate::memory::TILE_ELEMENTS;
        match self {
            FormatConfig::Bdr(f) => f.bits_per_element(),
            FormatConfig::ScalarSw { format, k1 } => {
                let scale = if *k1 <= tile {
                    FP32_SCALE_BITS / *k1 as f64
                } else {
                    0.0
                };
                format.total_bits() as f64 + scale
            }
            FormatConfig::Int { bits, k1 } => {
                let scale = if *k1 <= tile {
                    FP32_SCALE_BITS / *k1 as f64
                } else {
                    0.0
                };
                *bits as f64 + scale
            }
            FormatConfig::Vsq { bits, d2, k1 } => {
                let scale = if *k1 <= tile {
                    FP32_SCALE_BITS / *k1 as f64
                } else {
                    0.0
                };
                *bits as f64 + *d2 as f64 / VSQ_VECTOR as f64 + scale
            }
        }
    }

    /// Builds the matching [`VectorQuantizer`] with the given software
    /// scaling strategy (ignored by hardware-scaled BDR formats).
    pub fn quantizer(&self, strategy: ScaleStrategy) -> Box<dyn VectorQuantizer + Send> {
        let (code, d2, k1) = match *self {
            FormatConfig::Bdr(f) => return Box::new(BdrQuantizer::new(f)),
            FormatConfig::ScalarSw { format, k1 } => (ElementCode::Float(format), None, k1),
            FormatConfig::Int { bits, k1 } => (ElementCode::Int { bits }, None, k1),
            FormatConfig::Vsq { bits, d2, k1 } => (ElementCode::Int { bits }, Some(d2), k1),
        };
        Box::new(ScaledQuantizer::new(code, d2, k1, strategy))
    }
}

impl fmt::Display for FormatConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Area + memory cost model with a fixed geometry, normalized to the dual
/// FP8 baseline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostModel {
    area: AreaModel,
    geometry: PipelineGeometry,
}

/// Cost of one configuration (all relative values are FP8 = 1.0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostReport {
    /// Absolute datapath area in NAND2-equivalent gates.
    pub area_gates: f64,
    /// Area normalized to the dual-mode FP8 baseline.
    pub area_norm: f64,
    /// Memory cost of a 256-element tile relative to FP8.
    pub memory_norm: f64,
    /// The Fig. 7 x-axis: `area_norm × memory_norm`.
    pub product: f64,
}

impl CostModel {
    /// Model with the default gate costs and geometry (r = 64, IO
    /// registered).
    pub fn new() -> Self {
        Self::default()
    }

    /// The pipeline geometry in use.
    pub fn geometry(&self) -> PipelineGeometry {
        self.geometry
    }

    /// Area of the dual-mode FP8 normalization baseline, in gates.
    pub fn baseline_gates(&self) -> f64 {
        self.area.fp8_dual_baseline(self.geometry)
    }

    /// Evaluates one configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// # use mx_hw::cost::{CostModel, FormatConfig};
    /// # use mx_core::bdr::BdrFormat;
    /// let model = CostModel::new();
    /// let mx6 = model.evaluate(&FormatConfig::Bdr(BdrFormat::MX6));
    /// let fp8 = model.evaluate(&FormatConfig::ScalarSw {
    ///     format: mx_core::scalar::ScalarFormat::E4M3,
    ///     k1: 10_000,
    /// });
    /// // The paper's headline: MX6 costs about half of FP8.
    /// assert!(mx6.product < 0.65 * fp8.product);
    /// ```
    pub fn evaluate(&self, config: &FormatConfig) -> CostReport {
        let geom = self.geometry;
        let area_gates = match config {
            FormatConfig::Bdr(f) => {
                // Geometry r must tile k1; round up to the nearest multiple.
                let r = geom.r.max(f.k1()).next_multiple_of(f.k1());
                let g = PipelineGeometry { r, ..geom };
                self.area.bdr_unit(f, g).total() * geom.r as f64 / r as f64
            }
            FormatConfig::ScalarSw { format, .. } => self.area.scalar_unit(format, geom).total(),
            FormatConfig::Int { bits, .. } => self.area.int_unit(*bits, geom).total(),
            FormatConfig::Vsq { bits, d2, .. } => self.area.vsq_unit(*bits, *d2, geom).total(),
        };
        let area_norm = area_gates / self.baseline_gates();
        let memory_norm = memory_cost_rel_fp8(config.tile_bits_per_element());
        CostReport {
            area_gates,
            area_norm,
            memory_norm,
            product: area_norm * memory_norm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new()
    }

    fn fp8_config() -> FormatConfig {
        FormatConfig::ScalarSw {
            format: ScalarFormat::E4M3,
            k1: 10_000,
        }
    }

    /// The calibration targets from §IV-C of the paper: MX9 hardware
    /// efficiency close to FP8; MX6 ≈ 2× cheaper; MX4 ≈ 4× cheaper.
    #[test]
    fn paper_calibration_targets() {
        let m = model();
        let fp8 = m.evaluate(&fp8_config()).product;
        let mx9 = m.evaluate(&FormatConfig::Bdr(BdrFormat::MX9)).product;
        let mx6 = m.evaluate(&FormatConfig::Bdr(BdrFormat::MX6)).product;
        let mx4 = m.evaluate(&FormatConfig::Bdr(BdrFormat::MX4)).product;
        assert!(
            (0.7..=1.15).contains(&(mx9 / fp8)),
            "MX9/FP8 product ratio {:.2} should be near 1",
            mx9 / fp8
        );
        assert!(
            (0.30..=0.60).contains(&(mx6 / fp8)),
            "MX6/FP8 product ratio {:.2} should be near 1/2",
            mx6 / fp8
        );
        assert!(
            (0.12..=0.35).contains(&(mx4 / fp8)),
            "MX4/FP8 product ratio {:.2} should be near 1/4",
            mx4 / fp8
        );
    }

    #[test]
    fn fp8_baseline_normalizes_near_one() {
        let m = model();
        let r = m.evaluate(&fp8_config());
        // Single-mode E4M3 sits just below the dual-mode baseline.
        assert!(
            r.area_norm > 0.8 && r.area_norm <= 1.0,
            "area_norm = {}",
            r.area_norm
        );
        assert_eq!(r.memory_norm, 1.0);
    }

    #[test]
    fn quantizers_construct_for_every_variant() {
        let configs = [
            FormatConfig::Bdr(BdrFormat::MX6),
            fp8_config(),
            FormatConfig::Int { bits: 8, k1: 1024 },
            FormatConfig::Vsq {
                bits: 4,
                d2: 4,
                k1: 1024,
            },
        ];
        let x: Vec<f32> = (0..64).map(|i| (i as f32 * 0.11).sin()).collect();
        for c in configs {
            let mut q = c.quantizer(ScaleStrategy::Amax);
            assert_eq!(q.quantize_dequantize(&x).len(), 64, "{c}");
            assert!(
                (q.bits_per_element() - c.bits_per_element()).abs() < 1e-9,
                "{c}"
            );
        }
    }

    #[test]
    fn labels() {
        assert_eq!(FormatConfig::Bdr(BdrFormat::MX9).label(), "MX9");
        assert_eq!(fp8_config().label(), "FP8-E4M3");
        assert_eq!(
            FormatConfig::Int { bits: 4, k1: 1024 }.label(),
            "scaled INT4"
        );
        assert_eq!(
            FormatConfig::Vsq {
                bits: 6,
                d2: 4,
                k1: 1024
            }
            .label(),
            "VSQ6(d2=4)"
        );
    }

    #[test]
    fn product_scales_with_both_axes() {
        let m = model();
        let mx6 = m.evaluate(&FormatConfig::Bdr(BdrFormat::MX6));
        assert!((mx6.product - mx6.area_norm * mx6.memory_norm).abs() < 1e-12);
        assert_eq!(mx6.memory_norm, 0.75);
    }

    #[test]
    fn msfp_cheaper_than_equal_mantissa_mx() {
        // MSFP16 (no microexponents) must be cheaper in area than MX9 but
        // costs more than MX6 overall.
        let m = model();
        let msfp16 = m.evaluate(&FormatConfig::Bdr(BdrFormat::MSFP16));
        let mx9 = m.evaluate(&FormatConfig::Bdr(BdrFormat::MX9));
        assert!(msfp16.area_norm < mx9.area_norm);
    }

    #[test]
    fn int_vs_fp_datapath_costs() {
        let m = model();
        let int8 = m.evaluate(&FormatConfig::Int { bits: 8, k1: 1024 });
        let fp8 = m.evaluate(&fp8_config());
        assert!(int8.area_norm < fp8.area_norm);
        // But INT needs the same memory.
        assert!(int8.memory_norm >= 1.0);
    }
}

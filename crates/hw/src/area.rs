//! Analytic standard-cell area model for the Fig. 6 dot-product pipeline.
//!
//! The paper synthesizes each configuration with Synopsys Design Compiler on
//! a leading process node, with a relaxed 10ns timing constraint and only
//! inputs/outputs registered, precisely so that the reported numbers reflect
//! the *core datapath area* rather than pipelining or synthesis-mapping
//! noise. That regime is what an analytic gate-count model captures: this
//! module prices each block of the Fig. 6 pipeline in NAND2-equivalent gate
//! units using standard asymptotics — array multipliers quadratic in
//! mantissa width, barrel shifters `width · log2(range)`, ripple adder trees
//! linear in operand width — and sums them. All relative comparisons in this
//! repository (Fig. 7's x-axis, Table II's knee analysis) are ratios of
//! these totals against the same dual-mode FP8 baseline the paper divides
//! by. See DESIGN.md §4 for the substitution rationale and calibration
//! targets.

use crate::pipeline::{PipelineConfig, DEFAULT_F_CAP};
use mx_core::bdr::BdrFormat;
use mx_core::scalar::ScalarFormat;
use std::fmt;

/// Per-primitive gate costs in NAND2-equivalent units.
///
/// The defaults follow standard-cell rules of thumb (full adder ≈ 5 gates,
/// 2:1 mux ≈ 3 gates/bit, flip-flop ≈ 4 gates); ablations may perturb them
/// to test the robustness of the Pareto frontier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateCosts {
    /// Full-adder cell (per bit of a ripple/array stage).
    pub full_adder: f64,
    /// 2-input AND (partial-product generation).
    pub and2: f64,
    /// 2-input XOR (sign logic).
    pub xor2: f64,
    /// Per-bit cost of one 2:1 mux stage (barrel shifters, max selection).
    pub mux_bit: f64,
    /// Per-bit cost of a magnitude comparator.
    pub comparator_bit: f64,
    /// Per-bit cost of two's-complement conversion.
    pub tc_bit: f64,
    /// Per-bit cost of a leading-zero counter.
    pub lzc_bit: f64,
    /// One flip-flop bit (IO registers only; see module docs).
    pub register_bit: f64,
    /// Fixed cost of the FP32 convert + accumulate tail of the pipeline.
    pub fp32_tail: f64,
    /// Fixed per-unit control/decode overhead.
    pub control: f64,
    /// Per-element operand routing/muxing (format-independent wiring that
    /// real layouts pay regardless of mantissa width).
    pub operand_routing: f64,
}

impl Default for GateCosts {
    fn default() -> Self {
        GateCosts {
            full_adder: 5.0,
            and2: 1.0,
            xor2: 2.5,
            mux_bit: 3.0,
            comparator_bit: 3.0,
            tc_bit: 3.0,
            lzc_bit: 2.0,
            register_bit: 4.0,
            fp32_tail: 2600.0,
            control: 2500.0,
            operand_routing: 40.0,
        }
    }
}

/// Physical shape of the dot-product unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineGeometry {
    /// Reduction dimension (elements consumed per pass). The paper's Fig. 7
    /// normalizes against a 64-element FP8 unit.
    pub r: usize,
    /// Whether operand/result registers are counted (the paper registers
    /// only inputs and outputs).
    pub io_registered: bool,
}

impl Default for PipelineGeometry {
    fn default() -> Self {
        PipelineGeometry {
            r: 64,
            io_registered: true,
        }
    }
}

/// Area of one dot-product unit, broken down by pipeline block (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaBreakdown {
    /// Mantissa/significand multipliers.
    pub multipliers: f64,
    /// Sign XOR array.
    pub sign_logic: f64,
    /// Sub-block scale adders (microexponents or VSQ integer scales).
    pub scale_add: f64,
    /// Two's-complement converters.
    pub tc_convert: f64,
    /// Conditional right-shifters at depth `log2(k2)`.
    pub cond_shift: f64,
    /// Intra-block adder trees (`k1 − 1` adders per block).
    pub block_tree: f64,
    /// Exponent adders, vector max, and subtract blocks.
    pub exponent_logic: f64,
    /// Normalization shifters aligning block results to the max exponent.
    pub align_shift: f64,
    /// Fixed-point reduction tree over `r/k1` block results.
    pub fixed_sum: f64,
    /// LZC + FP32 convert + FP32 accumulate tail.
    pub fp32_tail: f64,
    /// IO registers.
    pub registers: f64,
    /// Control/decode overhead.
    pub control: f64,
}

impl AreaBreakdown {
    /// Total NAND2-equivalent gate count.
    pub fn total(&self) -> f64 {
        self.multipliers
            + self.sign_logic
            + self.scale_add
            + self.tc_convert
            + self.cond_shift
            + self.block_tree
            + self.exponent_logic
            + self.align_shift
            + self.fixed_sum
            + self.fp32_tail
            + self.registers
            + self.control
    }
}

impl fmt::Display for AreaBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mult {:.0} | tc {:.0} | shift {:.0}+{:.0} | tree {:.0}+{:.0} | exp {:.0} | tail {:.0} | regs {:.0} | total {:.0}",
            self.multipliers,
            self.tc_convert,
            self.cond_shift,
            self.align_shift,
            self.block_tree,
            self.fixed_sum,
            self.exponent_logic,
            self.fp32_tail,
            self.registers,
            self.total()
        )
    }
}

/// The analytic area model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaModel {
    costs: GateCosts,
}

impl AreaModel {
    /// Model with the default gate costs.
    pub fn new() -> Self {
        Self::default()
    }

    /// The gate-cost table in use.
    pub fn costs(&self) -> &GateCosts {
        &self.costs
    }

    fn adder(&self, bits: u32) -> f64 {
        self.costs.full_adder * bits as f64
    }

    /// Unsigned array multiplier, `a × b` bits.
    fn multiplier(&self, a: u32, b: u32) -> f64 {
        if a == 0 || b == 0 {
            return 0.0;
        }
        self.costs.and2 * (a * b) as f64 + self.costs.full_adder * (a.saturating_sub(1) * b) as f64
    }

    /// Barrel shifter of `width` bits supporting shifts up to `max_shift`.
    fn shifter(&self, width: u32, max_shift: u32) -> f64 {
        if max_shift == 0 {
            return 0.0;
        }
        let stages = (max_shift + 1).next_power_of_two().trailing_zeros().max(1);
        self.costs.mux_bit * width as f64 * stages as f64
    }

    fn comparator(&self, bits: u32) -> f64 {
        self.costs.comparator_bit * bits as f64
    }

    fn lzc(&self, bits: u32) -> f64 {
        self.costs.lzc_bit * bits as f64
    }

    fn tc(&self, bits: u32) -> f64 {
        self.costs.tc_bit * bits as f64
    }

    /// Area of a BDR (MX / MSFP / generic block) unit per Fig. 6.
    pub fn bdr_unit(&self, fmt: &BdrFormat, geom: PipelineGeometry) -> AreaBreakdown {
        let r = geom.r as f64;
        let m = fmt.m();
        let beta = fmt.max_shift();
        let k1 = fmt.k1() as u32;
        let blocks = (geom.r / fmt.k1()).max(1) as f64;
        let log2_k1 = (k1 as f64).log2().ceil() as u32;
        // Width of the in-block accumulator: product (2m) + fractional bits
        // retained by the conditional shift (2β) + carry growth (log2 k1).
        let w_blk = 2 * m + 2 * beta + log2_k1;
        let f = DEFAULT_F_CAP.min(PipelineConfig::Bdr(*fmt).natural_width());
        let exp_w = fmt.d1() + 1;
        let log2_blocks = (blocks.log2().ceil() as u32).max(1);

        let mut a = AreaBreakdown {
            multipliers: r * self.multiplier(m, m),
            sign_logic: r * self.costs.xor2,
            tc_convert: r * self.tc(2 * m + 2 * beta),
            block_tree: blocks * (k1 - 1) as f64 * self.adder(w_blk),
            exponent_logic: blocks * self.adder(exp_w)              // Ea + Eb
                + (blocks - 1.0).max(0.0) * (self.comparator(exp_w) + self.costs.mux_bit * exp_w as f64) // Vector Max
                + blocks * self.adder(exp_w), // Subtract
            align_shift: blocks * self.shifter(f, f),
            fixed_sum: (blocks - 1.0).max(0.0) * self.adder(f + log2_blocks),
            fp32_tail: self.lzc(f + log2_blocks) + self.costs.fp32_tail,
            control: self.costs.control + r * self.costs.operand_routing,
            ..AreaBreakdown::default()
        };
        if beta > 0 {
            // One d2-bit scale adder per element pair's sub-block lane plus
            // the conditional right shift inside the summation tree.
            a.scale_add = (geom.r / fmt.k2()) as f64 * self.adder(fmt.d2() + 1);
            a.cond_shift = r * self.shifter(2 * m + 2 * beta, 2 * beta);
        }
        if geom.io_registered {
            let elem_bits = fmt.bits_per_element();
            a.registers = self.costs.register_bit * (2.0 * r * elem_bits + 32.0);
        }
        a
    }

    /// Area of a scalar floating-point unit (`k1 = k2 = 1`): per-element
    /// exponent handling and per-element normalization shifters dominate.
    pub fn scalar_unit(&self, fmt: &ScalarFormat, geom: PipelineGeometry) -> AreaBreakdown {
        let r = geom.r as f64;
        let sig = fmt.man_bits() + 1; // implicit leading one materialized
        let exp_w = fmt.exp_bits() + 1;
        let f = DEFAULT_F_CAP.min(PipelineConfig::Scalar(*fmt).natural_width());
        let log2_r = ((r.log2()).ceil() as u32).max(1);

        let mut a = AreaBreakdown {
            multipliers: r * self.multiplier(sig, sig),
            sign_logic: r * self.costs.xor2,
            tc_convert: r * self.tc(2 * sig),
            exponent_logic: r * self.adder(exp_w)
                + (r - 1.0) * (self.comparator(exp_w) + self.costs.mux_bit * exp_w as f64)
                + r * self.adder(exp_w),
            align_shift: r * self.shifter(f, f),
            fixed_sum: (r - 1.0) * self.adder(f + log2_r),
            fp32_tail: self.lzc(f + log2_r) + self.costs.fp32_tail,
            control: self.costs.control + r * self.costs.operand_routing,
            ..AreaBreakdown::default()
        };
        if geom.io_registered {
            a.registers = self.costs.register_bit * (2.0 * r * fmt.total_bits() as f64 + 32.0);
        }
        a
    }

    /// Area of a software-scaled INT unit: bare multiplier + adder-tree
    /// datapath (scaling lives in software), plus one FP32 descale at the
    /// output.
    pub fn int_unit(&self, bits: u32, geom: PipelineGeometry) -> AreaBreakdown {
        let r = geom.r as f64;
        let w = 2 * bits;
        let log2_r = ((r.log2()).ceil() as u32).max(1);
        let mut a = AreaBreakdown {
            multipliers: r * self.multiplier(bits, bits),
            fixed_sum: (r - 1.0) * self.adder(w + log2_r),
            fp32_tail: self.costs.fp32_tail, // FP32 descale multiply-accumulate
            control: self.costs.control + r * self.costs.operand_routing,
            ..AreaBreakdown::default()
        };
        if geom.io_registered {
            a.registers = self.costs.register_bit * (2.0 * r * bits as f64 + 32.0);
        }
        a
    }

    /// Area of a VSQ unit (the paper's separate pipeline for second-level
    /// INT scaling): INT data multipliers, per-16-vector trees, an integer
    /// sub-scale multiplier per vector, then alignment and reduction.
    pub fn vsq_unit(&self, bits: u32, d2: u32, geom: PipelineGeometry) -> AreaBreakdown {
        let r = geom.r as f64;
        let vectors = (geom.r / mx_core::scaling::VSQ_VECTOR).max(1) as f64;
        let w_vec = 2 * bits + 4; // products + carry growth over 16 elements
        let f = DEFAULT_F_CAP;
        let log2_v = (vectors.log2().ceil() as u32).max(1);
        let mut a = AreaBreakdown {
            multipliers: r * self.multiplier(bits, bits)
                + vectors * self.multiplier(d2, d2)          // ss_a * ss_b
                + vectors * self.multiplier(w_vec, 2 * d2), // rescale vector sum
            sign_logic: r * self.costs.xor2,
            tc_convert: r * self.tc(2 * bits),
            block_tree: vectors
                * (mx_core::scaling::VSQ_VECTOR as u32 - 1) as f64
                * self.adder(w_vec),
            align_shift: vectors * self.shifter(f, f),
            fixed_sum: (vectors - 1.0).max(0.0) * self.adder(f + log2_v),
            fp32_tail: self.lzc(f + log2_v) + self.costs.fp32_tail,
            control: self.costs.control + r * self.costs.operand_routing,
            ..AreaBreakdown::default()
        };
        if geom.io_registered {
            let elem_bits = bits as f64 + d2 as f64 / mx_core::scaling::VSQ_VECTOR as f64;
            a.registers = self.costs.register_bit * (2.0 * r * elem_bits + 32.0);
        }
        a
    }

    /// Area of the paper's normalization baseline: a configurable FP8 unit
    /// supporting both E4M3 and E5M2. Modeled as the per-block worst case of
    /// the two layouts plus a 10% reconfiguration overhead.
    pub fn fp8_dual_baseline(&self, geom: PipelineGeometry) -> f64 {
        let a = self.scalar_unit(&ScalarFormat::E4M3, geom);
        let b = self.scalar_unit(&ScalarFormat::E5M2, geom);
        let max = AreaBreakdown {
            multipliers: a.multipliers.max(b.multipliers),
            sign_logic: a.sign_logic.max(b.sign_logic),
            scale_add: a.scale_add.max(b.scale_add),
            tc_convert: a.tc_convert.max(b.tc_convert),
            cond_shift: a.cond_shift.max(b.cond_shift),
            block_tree: a.block_tree.max(b.block_tree),
            exponent_logic: a.exponent_logic.max(b.exponent_logic),
            align_shift: a.align_shift.max(b.align_shift),
            fixed_sum: a.fixed_sum.max(b.fixed_sum),
            fp32_tail: a.fp32_tail.max(b.fp32_tail),
            registers: a.registers.max(b.registers),
            control: a.control.max(b.control),
        };
        max.total() * 1.10
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> PipelineGeometry {
        PipelineGeometry::default()
    }

    #[test]
    fn mx_family_area_ordering() {
        let m = AreaModel::new();
        let a4 = m.bdr_unit(&BdrFormat::MX4, geom()).total();
        let a6 = m.bdr_unit(&BdrFormat::MX6, geom()).total();
        let a9 = m.bdr_unit(&BdrFormat::MX9, geom()).total();
        assert!(a4 < a6 && a6 < a9, "{a4} {a6} {a9}");
    }

    #[test]
    fn mx9_cheaper_than_fp8_baseline() {
        let m = AreaModel::new();
        let mx9 = m.bdr_unit(&BdrFormat::MX9, geom()).total();
        let fp8 = m.fp8_dual_baseline(geom());
        assert!(
            mx9 < fp8,
            "MX9 datapath ({mx9:.0}) should undercut dual FP8 ({fp8:.0}): block scaling \
             amortizes the per-element shifters"
        );
    }

    #[test]
    fn scalar_shifters_dominate() {
        // The per-element normalization shifters are the scalar pipeline's
        // biggest block — the core reason fine-grained HW scaling wins.
        let m = AreaModel::new();
        let a = m.scalar_unit(&ScalarFormat::E4M3, geom());
        assert!(a.align_shift > a.multipliers);
        assert!(a.align_shift > a.fixed_sum);
    }

    #[test]
    fn bfp_drops_microexponent_logic() {
        let m = AreaModel::new();
        let mx = m.bdr_unit(&BdrFormat::new(7, 8, 1, 16, 2).unwrap(), geom());
        let bfp = m.bdr_unit(&BdrFormat::new(7, 8, 0, 16, 16).unwrap(), geom());
        assert_eq!(bfp.cond_shift, 0.0);
        assert_eq!(bfp.scale_add, 0.0);
        assert!(mx.cond_shift > 0.0 && mx.scale_add > 0.0);
        assert!(bfp.total() < mx.total());
    }

    #[test]
    fn microexponent_overhead_is_marginal() {
        // Table II knee analysis: the d2 = 1 second level costs only a few
        // percent of the unit.
        let m = AreaModel::new();
        let mx9 = m.bdr_unit(&BdrFormat::MX9, geom());
        let overhead = (mx9.cond_shift + mx9.scale_add) / mx9.total();
        assert!(
            overhead < 0.15,
            "microexponent overhead {overhead:.3} should be small"
        );
    }

    #[test]
    fn int_unit_is_cheapest_datapath() {
        let m = AreaModel::new();
        let int8 = m.int_unit(8, geom()).total();
        let fp8 = m.fp8_dual_baseline(geom());
        assert!(int8 < fp8);
    }

    #[test]
    fn vsq_between_int_and_fp() {
        let m = AreaModel::new();
        let int4 = m.int_unit(4, geom()).total();
        let vsq4 = m.vsq_unit(4, 4, geom()).total();
        let fp8 = m.fp8_dual_baseline(geom());
        assert!(int4 < vsq4, "integer rescale logic costs something");
        assert!(vsq4 < fp8);
    }

    #[test]
    fn larger_r_amortizes_fixed_costs() {
        let m = AreaModel::new();
        let small = m.bdr_unit(
            &BdrFormat::MX6,
            PipelineGeometry {
                r: 16,
                io_registered: true,
            },
        );
        let large = m.bdr_unit(
            &BdrFormat::MX6,
            PipelineGeometry {
                r: 256,
                io_registered: true,
            },
        );
        let per_elem_small = small.total() / 16.0;
        let per_elem_large = large.total() / 256.0;
        assert!(per_elem_large < per_elem_small);
    }

    #[test]
    fn registers_can_be_excluded() {
        let m = AreaModel::new();
        let with = m.bdr_unit(
            &BdrFormat::MX6,
            PipelineGeometry {
                r: 64,
                io_registered: true,
            },
        );
        let without = m.bdr_unit(
            &BdrFormat::MX6,
            PipelineGeometry {
                r: 64,
                io_registered: false,
            },
        );
        assert_eq!(without.registers, 0.0);
        assert!(with.total() > without.total());
        // Registers stay a modest slice, consistent with the paper's ~10%.
        assert!(with.registers / with.total() < 0.25);
    }

    #[test]
    fn breakdown_total_sums_fields() {
        let m = AreaModel::new();
        let a = m.bdr_unit(&BdrFormat::MX9, geom());
        let manual = a.multipliers
            + a.sign_logic
            + a.scale_add
            + a.tc_convert
            + a.cond_shift
            + a.block_tree
            + a.exponent_logic
            + a.align_shift
            + a.fixed_sum
            + a.fp32_tail
            + a.registers
            + a.control;
        assert!((a.total() - manual).abs() < 1e-9);
        assert!(!a.to_string().is_empty());
    }

    #[test]
    fn shifter_stage_math() {
        let m = AreaModel::new();
        // max_shift 2 needs 2 stages (shift by 1 and 2); width 10.
        assert_eq!(m.shifter(10, 2), 3.0 * 10.0 * 2.0);
        // max_shift 1 -> 1 stage.
        assert_eq!(m.shifter(8, 1), 3.0 * 8.0);
        assert_eq!(m.shifter(8, 0), 0.0);
    }
}

//! Theorem 1 of the paper: a closed-form lower bound on the QSNR of BDR
//! formats, valid for vectors drawn from *arbitrary* distributions.
//!
//! For an `N`-dimensional vector quantized with mantissa width `m`, block
//! granularities `k1`/`k2`, and a `d2`-bit microexponent (with `d1 = 8` so
//! the shared exponent never clamps on `f32` inputs):
//!
//! ```text
//! QSNR ≥ 6.02·m + 10·log10( 2^(2β) / (min(N, k1) + (2^(2β) − 1)·k2) )
//! ```
//!
//! where `β = 2^d2 − 1` is the maximum sub-block shift. The bound is linear
//! in `m` (each mantissa bit is worth `20·log10(2) ≈ 6.02` dB) and
//! logarithmic in the block granularities, matching the empirical trends in
//! Fig. 7. A property-based test in this module checks the bound against
//! the implementation on adversarially shaped inputs.

use crate::bdr::BdrFormat;

/// Exact dB value of one mantissa bit, `20·log10(2)` (the paper rounds this
/// to 6.02).
pub const DB_PER_MANTISSA_BIT: f64 = 6.020599913279624;

/// Evaluates the Theorem 1 lower bound (in dB) for a given format and vector
/// length `n`.
///
/// # Examples
///
/// ```
/// # use mx_core::bdr::BdrFormat;
/// # use mx_core::theory::qsnr_lower_bound_db;
/// let b = qsnr_lower_bound_db(BdrFormat::MX9, 1024);
/// assert!(b > 34.0 && b < 36.0);
/// ```
pub fn qsnr_lower_bound_db(format: BdrFormat, n: usize) -> f64 {
    qsnr_lower_bound_db_raw(format.m(), format.d2(), format.k1(), format.k2(), n)
}

/// Raw-parameter form of [`qsnr_lower_bound_db`] (useful in sweeps that have
/// not materialized a validated [`BdrFormat`]).
pub fn qsnr_lower_bound_db_raw(m: u32, d2: u32, k1: usize, k2: usize, n: usize) -> f64 {
    let beta = (1u32 << d2) - 1;
    let four_beta = 2f64.powi(2 * beta as i32);
    let denom = n.min(k1) as f64 + (four_beta - 1.0) * k2 as f64;
    DB_PER_MANTISSA_BIT * m as f64 + 10.0 * (four_beta / denom).log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdr::BdrQuantizer;
    use crate::qsnr::qsnr_db;
    use crate::VectorQuantizer;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn bound_values_for_table_ii_formats() {
        // beta = 1 for all MX formats: bound = 6.02m + 10 log10(4 / (16 + 3*2)).
        let geom = 10.0 * (4.0f64 / 22.0).log10();
        for (fmt, m) in [
            (BdrFormat::MX9, 7.0),
            (BdrFormat::MX6, 4.0),
            (BdrFormat::MX4, 2.0),
        ] {
            let b = qsnr_lower_bound_db(fmt, 10_000);
            assert!((b - (DB_PER_MANTISSA_BIT * m + geom)).abs() < 1e-9);
        }
    }

    #[test]
    fn bound_improves_for_short_vectors() {
        // N < k1 effectively shrinks the block.
        let long = qsnr_lower_bound_db(BdrFormat::MX6, 1024);
        let short = qsnr_lower_bound_db(BdrFormat::MX6, 4);
        assert!(short > long);
    }

    #[test]
    fn bfp_bound_recovers_classic_form() {
        // d2 = 0 -> beta = 0 -> bound = 6.02m - 10 log10(k1).
        let fmt = BdrFormat::new(4, 8, 0, 16, 16).unwrap();
        let b = qsnr_lower_bound_db(fmt, 1000);
        let expect = DB_PER_MANTISSA_BIT * 4.0 - 10.0 * 16f64.log10();
        assert!((b - expect).abs() < 1e-9);
    }

    #[test]
    fn microexponents_improve_the_bound() {
        let bfp = BdrFormat::new(4, 8, 0, 16, 16).unwrap();
        let mx = BdrFormat::new(4, 8, 1, 16, 2).unwrap();
        assert!(qsnr_lower_bound_db(mx, 1024) > qsnr_lower_bound_db(bfp, 1024));
    }

    #[test]
    fn bound_holds_on_adversarial_two_scale_vector() {
        // One huge element pins the shared exponent; the rest sit 2^5 below,
        // the worst case for block formats.
        let fmt = BdrFormat::MX6;
        let mut x = vec![0.03125f32; 16];
        x[0] = 1.0;
        let q = fmt.quantize_dequantize(&x);
        let measured = qsnr_db(&x, &q);
        let bound = qsnr_lower_bound_db(fmt, x.len());
        assert!(
            measured >= bound - 1e-9,
            "measured {measured} < bound {bound}"
        );
    }

    /// Theorem 1: the per-vector QSNR of any BDR quantization is at least
    /// the closed-form bound, for arbitrary finite inputs. Property-style
    /// test over 512 randomly drawn (format, vector) cases.
    #[test]
    fn bound_holds_for_arbitrary_vectors() {
        let mut rng = StdRng::seed_from_u64(0x7e01);
        for case in 0..512 {
            let m = rng.gen_range(1u32..=8);
            let d2 = rng.gen_range(0u32..=3);
            let k2 = 1usize << rng.gen_range(0u32..=3);
            let k1 = 16usize.max(k2);
            let fmt = BdrFormat::new(m, 8, d2, k1, k2).unwrap();
            let len = rng.gen_range(1usize..80);
            // Arbitrary finite magnitudes across 60 decades, with explicit
            // zeros mixed in (they exercise the all-zero sub-block
            // shift = beta path) and values below the d1-representable
            // exponent range flushed to zero (DESIGN.md documents the
            // flush-to-zero divergence from FP32 subnormal semantics,
            // which Theorem 1 excludes).
            let values: Vec<f32> = (0..len)
                .map(|_| {
                    if rng.gen_bool(0.15) {
                        return 0.0;
                    }
                    let mag = 10f32.powf(rng.gen_range(-40.0f32..20.0));
                    let v = if rng.gen::<bool>() { mag } else { -mag };
                    if v.abs() < 1e-30 {
                        0.0
                    } else {
                        v
                    }
                })
                .collect();
            let mut q = BdrQuantizer::new(fmt);
            let out = q.quantize_dequantize(&values);
            let measured = qsnr_db(&values, &out);
            if measured.is_nan() {
                // All-zero input: bound vacuous.
                continue;
            }
            let bound = qsnr_lower_bound_db(fmt, values.len());
            assert!(
                measured >= bound - 1e-6,
                "case {case}: measured {measured} dB below bound {bound} dB for {fmt:?}"
            );
        }
    }

    /// The bound is monotone in m: more mantissa bits never lower it.
    #[test]
    fn bound_monotone_in_mantissa() {
        for m in 1u32..=22 {
            for d2 in 0u32..=4 {
                let a = qsnr_lower_bound_db_raw(m, d2, 16, 2, 1024);
                let b = qsnr_lower_bound_db_raw(m + 1, d2, 16, 2, 1024);
                assert!(b > a, "m={m} d2={d2}");
            }
        }
    }
}

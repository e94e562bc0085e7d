//! Fig. 6 — the bit-accurate dot-product pipeline: equivalence against a
//! software reference and the effect of the fixed-point accumulator width
//! `f` (the paper selects `f = min(25, max dynamic range)`).
//!
//! The second table measures what that truncating accumulator loses: over
//! many dots of uniform, N(0, 1) and log-uniform data (magnitudes spread
//! over `2^[−12, 12]`, so block exponents within one `r`-wide reduce
//! differ by many binades), at `r ∈ {16, 64, 256}`, the max and mean
//! |error| of the default `f` against the lossless `f = 90`, and the
//! share of dots whose result moved at all. The natural width is printed
//! beside `f`: where it is below 25 the cap does not bind.

use mx_bench::{fmt, print_table, write_csv};
use mx_core::bdr::BdrFormat;
use mx_core::scalar::ScalarFormat;
use mx_hw::pipeline::{DotProductPipeline, PipelineConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn vectors(n: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
    let b = (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
    (a, b)
}

/// Standard normal samples (Box–Muller on the seeded stream).
fn normals(n: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..n)
        .map(|_| {
            let u1 = 1.0 - rng.gen::<f64>();
            let u2 = rng.gen::<f64>();
            ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
        })
        .collect()
}

/// Signed magnitudes log-uniform over `2^[−12, 12]`.
fn log_uniform(n: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..n)
        .map(|_| {
            let sign = if rng.gen::<bool>() { -1.0 } else { 1.0 };
            sign * 2f32.powf(rng.gen_range(-12.0f32..12.0))
        })
        .collect()
}

/// Dots per (format, data, `r`) cell of the truncation table, and their
/// length.
const DOTS: usize = 300;
const DOT_LEN: usize = 1024;

/// The truncation study: for each format, data kind and `r`, `DOTS` dots
/// through the default-`f` pipeline and the `f = 90` one.
fn truncation(formats: &[(&str, PipelineConfig)]) {
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &(name, config) in formats {
        for data in ["uniform", "normal", "log-uniform"] {
            for r in [16usize, 64, 256] {
                let mut rng = StdRng::seed_from_u64(6 + r as u64);
                let engine = DotProductPipeline::new(config, r);
                let lossless = engine.with_accumulator_bits(90);
                let (mut max, mut sum, mut moved, mut scale) = (0.0f64, 0.0f64, 0usize, 0.0f64);
                for _ in 0..DOTS {
                    let (a, b) = match data {
                        "uniform" => {
                            let mut draw =
                                || (0..DOT_LEN).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
                            (draw(), draw())
                        }
                        "normal" => (normals(DOT_LEN, &mut rng), normals(DOT_LEN, &mut rng)),
                        _ => (
                            log_uniform(DOT_LEN, &mut rng),
                            log_uniform(DOT_LEN, &mut rng),
                        ),
                    };
                    let exact = lossless.dot(&a, &b) as f64;
                    let err = (engine.dot(&a, &b) as f64 - exact).abs();
                    scale += exact.abs();
                    max = max.max(err);
                    sum += err;
                    moved += usize::from(err > 0.0);
                }
                let mean = sum / DOTS as f64;
                let share = moved as f64 / DOTS as f64;
                rows.push(vec![
                    name.to_string(),
                    data.to_string(),
                    r.to_string(),
                    config.natural_width().to_string(),
                    engine.f().to_string(),
                    fmt(share, 3),
                    format!("{max:.3e}"),
                    format!("{mean:.3e}"),
                    format!("{:.3e}", scale / DOTS as f64),
                ]);
                csv.push(vec![
                    name.to_string(),
                    data.to_string(),
                    r.to_string(),
                    engine.f().to_string(),
                    share.to_string(),
                    max.to_string(),
                    mean.to_string(),
                    (scale / DOTS as f64).to_string(),
                ]);
            }
        }
    }
    print_table(
        &format!(
            "Fig. 6: default-f accumulator vs f = 90 ({DOTS} dots of {DOT_LEN} elements per row)"
        ),
        &[
            "format",
            "data",
            "r",
            "natural",
            "f (bits)",
            "dots moved",
            "max |err|",
            "mean |err|",
            "mean |dot|",
        ],
        &rows,
    );
    write_csv(
        "fig6_truncation",
        &[
            "format",
            "data",
            "r",
            "f",
            "moved_share",
            "max_abs_err",
            "mean_abs_err",
            "mean_abs_dot",
        ],
        &csv,
    );
}

fn reference(qa: &[f32], qb: &[f32], r: usize) -> f32 {
    let mut acc = 0.0f32;
    for (ca, cb) in qa.chunks(r).zip(qb.chunks(r)) {
        let chunk: f64 = ca
            .iter()
            .zip(cb.iter())
            .map(|(&x, &y)| x as f64 * y as f64)
            .sum();
        acc += chunk as f32;
    }
    acc
}

fn main() {
    let (a, b) = vectors(1024, 7);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let formats = [
        ("MX9", PipelineConfig::Bdr(BdrFormat::MX9)),
        ("MX6", PipelineConfig::Bdr(BdrFormat::MX6)),
        ("MX4", PipelineConfig::Bdr(BdrFormat::MX4)),
        ("MSFP12", PipelineConfig::Bdr(BdrFormat::MSFP12)),
        ("FP8-E4M3", PipelineConfig::Scalar(ScalarFormat::E4M3)),
    ];
    for (name, config) in formats {
        let engine = DotProductPipeline::new(config, 64);
        let got = engine.dot(&a, &b);
        let (qa, qb) = match config {
            PipelineConfig::Bdr(f) => (f.quantize_dequantize(&a), f.quantize_dequantize(&b)),
            PipelineConfig::Scalar(f) => (f.cast_slice(&a), f.cast_slice(&b)),
        };
        let expect = reference(&qa, &qb, 64);
        let lossless = engine.with_accumulator_bits(90).dot(&a, &b);
        rows.push(vec![
            name.to_string(),
            engine.f().to_string(),
            fmt(got as f64, 4),
            fmt(expect as f64, 4),
            fmt((got - expect).abs() as f64, 6),
            fmt((lossless - expect).abs() as f64, 6),
        ]);
        csv.push(vec![
            name.to_string(),
            engine.f().to_string(),
            got.to_string(),
            expect.to_string(),
        ]);
    }
    print_table(
        "Fig. 6: pipeline vs software reference (1024-element dot, r = 64)",
        &[
            "format",
            "f (bits)",
            "pipeline",
            "reference",
            "|err| @ default f",
            "|err| @ f=90",
        ],
        &rows,
    );
    println!("\nAt f = 90 the pipeline is bit-exact; the default f only drops");
    println!("bits the paper's hardware would also drop in its fixed-point reduce.\n");
    write_csv(
        "fig6_pipeline",
        &["format", "f", "pipeline", "reference"],
        &csv,
    );
    truncation(&formats);
}

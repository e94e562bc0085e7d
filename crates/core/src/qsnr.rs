//! Quantization signal-to-noise ratio (QSNR) — the paper's statistical
//! fidelity metric (Eq. 3) and the Monte-Carlo harness behind Fig. 7.
//!
//! `QSNR = −10·log10( E[‖Q(X) − X‖²] / E[‖X‖²] )` in decibels; higher is
//! better. The paper validates QSNR as a strong predictor of end-to-end
//! model loss in the narrow bit-width regime, which is what licenses the
//! design-space sweep to use it in place of full training runs.

use crate::util::{noise_power, power};
use crate::VectorQuantizer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Samples a standard normal variate via the Box-Muller transform (kept
/// in-crate so the numerics stack has no distribution dependencies).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

/// Data distributions used to stress quantizers.
///
/// The paper's headline sweep uses [`Distribution::NormalVariableVariance`]:
/// `X ~ N(0, σ²)` with `σ = |N(0, 1)|` redrawn per vector, covering the
/// spread of variances seen across weights, activations, gradients, and
/// errors in a training cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// `X ~ N(0, σ²)` with `σ = |N(0,1)|` drawn independently per vector.
    NormalVariableVariance,
    /// Fixed-variance Gaussian.
    Normal {
        /// Standard deviation.
        sigma: f32,
    },
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Lower bound.
        lo: f32,
        /// Upper bound.
        hi: f32,
    },
    /// Log-normal magnitudes with random signs (heavy right tail, models
    /// outlier-prone activations).
    LogNormalSigned {
        /// Shape parameter of the underlying normal.
        sigma: f32,
    },
    /// Laplace (double-exponential), a common fit for weight distributions.
    Laplace {
        /// Scale parameter `b`.
        scale: f32,
    },
}

impl Distribution {
    /// Samples one vector of `len` values.
    pub fn sample_vector<R: Rng + ?Sized>(&self, rng: &mut R, len: usize) -> Vec<f32> {
        match *self {
            Distribution::NormalVariableVariance => {
                let sigma = standard_normal(rng).abs().max(1e-6);
                (0..len).map(|_| sigma * standard_normal(rng)).collect()
            }
            Distribution::Normal { sigma } => {
                (0..len).map(|_| sigma * standard_normal(rng)).collect()
            }
            Distribution::Uniform { lo, hi } => (0..len).map(|_| rng.gen_range(lo..hi)).collect(),
            Distribution::LogNormalSigned { sigma } => (0..len)
                .map(|_| {
                    let mag = (sigma * standard_normal(rng)).exp();
                    if rng.gen::<bool>() {
                        mag
                    } else {
                        -mag
                    }
                })
                .collect(),
            Distribution::Laplace { scale } => (0..len)
                .map(|_| {
                    let u: f32 = rng.gen_range(-0.5f32..0.5);
                    let u = if u == 0.0 { 1e-9 } else { u };
                    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
                })
                .collect(),
        }
    }
}

impl fmt::Display for Distribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Distribution::NormalVariableVariance => f.write_str("N(0,|N(0,1)|^2)"),
            Distribution::Normal { sigma } => write!(f, "N(0,{sigma}^2)"),
            Distribution::Uniform { lo, hi } => write!(f, "U[{lo},{hi})"),
            Distribution::LogNormalSigned { sigma } => write!(f, "±LogNormal(0,{sigma})"),
            Distribution::Laplace { scale } => write!(f, "Laplace({scale})"),
        }
    }
}

/// Monte-Carlo configuration for [`measure_qsnr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QsnrConfig {
    /// Number of independent vectors.
    pub vectors: usize,
    /// Length of each vector.
    pub vector_len: usize,
    /// RNG seed (experiments are deterministic given the seed).
    pub seed: u64,
}

impl Default for QsnrConfig {
    /// A fast default suitable for tests. (The Fig. 7 harness measures on
    /// 256 vectors of 1024 too, 2048 under `MX_FULL`; the paper's run used
    /// 10K.)
    fn default() -> Self {
        QsnrConfig {
            vectors: 256,
            vector_len: 1024,
            seed: 0x5eed,
        }
    }
}

/// Computes the QSNR of a single quantized/original pair, in dB.
///
/// Returns `f64::INFINITY` for a lossless pair and `f64::NAN` when the
/// signal has no power (all-zero input).
///
/// # Examples
///
/// ```
/// # use mx_core::qsnr::qsnr_db;
/// assert!(qsnr_db(&[1.0, -1.0], &[1.0, -1.0]).is_infinite());
/// let q = qsnr_db(&[1.0, 1.0], &[1.1, 0.9]);
/// assert!((q - 20.0).abs() < 1e-4); // noise power ~0.02 vs signal 2.0
/// ```
pub fn qsnr_db(original: &[f32], quantized: &[f32]) -> f64 {
    power_ratio_db(power(original), noise_power(original, quantized))
}

/// Eq. 3 on accumulated powers: NaN without signal, `+∞` without noise.
fn power_ratio_db(signal: f64, noise: f64) -> f64 {
    if signal == 0.0 {
        return f64::NAN;
    }
    if noise == 0.0 {
        return f64::INFINITY;
    }
    -10.0 * (noise / signal).log10()
}

/// A Monte-Carlo sample set: the `cfg.vectors` vectors one QSNR measurement
/// quantizes, drawn once and measurable against any number of quantizers.
///
/// A design-space sweep measures every configuration on the same seed and
/// distribution, i.e. on the same numbers; drawing them once and sharing the
/// set read-only (it is `Sync`) removes the sampling cost from all but one
/// configuration. The set holds `vectors × vector_len × 4` bytes.
#[derive(Debug)]
pub struct SampleSet {
    /// The vectors back to back, in drawing order.
    data: Vec<f32>,
    vectors: usize,
    vector_len: usize,
    /// `Σ power(x)` over the vectors, summed in drawing order.
    signal: f64,
}

impl SampleSet {
    /// Draws `cfg.vectors` vectors of `cfg.vector_len` values from `dist`
    /// with a [`StdRng`] seeded by `cfg.seed`, one
    /// [`Distribution::sample_vector`] call per vector.
    pub fn draw(dist: Distribution, cfg: QsnrConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut data = Vec::with_capacity(cfg.vectors * cfg.vector_len);
        let mut signal = 0.0f64;
        for _ in 0..cfg.vectors {
            let x = dist.sample_vector(&mut rng, cfg.vector_len);
            signal += power(&x);
            data.extend_from_slice(&x);
        }
        SampleSet {
            data,
            vectors: cfg.vectors,
            vector_len: cfg.vector_len,
            signal,
        }
    }

    /// The vectors, in drawing order.
    pub fn vectors(&self) -> impl Iterator<Item = &[f32]> {
        (0..self.vectors).map(|i| &self.data[i * self.vector_len..][..self.vector_len])
    }

    /// The expected QSNR of `quantizer` over the set, as the ratio of
    /// expected noise power to expected signal power (matching Eq. 3's
    /// `E[·]/E[·]` form).
    ///
    /// Vectors are fed sequentially so that delayed-scaling quantizers
    /// build up realistic history; the quantizer is reset first. One output
    /// buffer serves every vector
    /// ([`VectorQuantizer::quantize_dequantize_into`]).
    pub fn measure(&self, quantizer: &mut dyn VectorQuantizer) -> f64 {
        quantizer.reset();
        let mut q = Vec::new();
        let mut noise = 0.0f64;
        for x in self.vectors() {
            quantizer.quantize_dequantize_into(x, &mut q);
            noise += noise_power(x, &q);
        }
        power_ratio_db(self.signal, noise)
    }

    /// Per-vector QSNR samples of `quantizer` (for variance/robustness
    /// analysis rather than the pooled estimate of [`Self::measure`]); the
    /// quantizer is reset first.
    pub fn samples(&self, quantizer: &mut dyn VectorQuantizer) -> Vec<f64> {
        quantizer.reset();
        let mut q = Vec::new();
        self.vectors()
            .map(|x| {
                quantizer.quantize_dequantize_into(x, &mut q);
                qsnr_db(x, &q)
            })
            .collect()
    }
}

/// Measures the expected QSNR of `quantizer` over `cfg.vectors` independent
/// vectors from `dist`: [`SampleSet::draw`] + [`SampleSet::measure`]. To
/// measure several quantizers on one `(dist, cfg)`, draw the set once.
pub fn measure_qsnr(
    quantizer: &mut dyn VectorQuantizer,
    dist: Distribution,
    cfg: QsnrConfig,
) -> f64 {
    SampleSet::draw(dist, cfg).measure(quantizer)
}

/// Per-vector QSNR samples: [`SampleSet::draw`] + [`SampleSet::samples`].
pub fn qsnr_samples(
    quantizer: &mut dyn VectorQuantizer,
    dist: Distribution,
    cfg: QsnrConfig,
) -> Vec<f64> {
    SampleSet::draw(dist, cfg).samples(quantizer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdr::{BdrFormat, BdrQuantizer};
    use crate::scaling::{ElementCode, ScaleStrategy, ScaledQuantizer};

    #[test]
    fn qsnr_db_basics() {
        assert!(qsnr_db(&[0.0, 0.0], &[0.0, 0.0]).is_nan());
        assert!(qsnr_db(&[1.0], &[1.0]).is_infinite());
        // 10% relative noise on every element -> 20 dB (up to f32 rounding
        // of the inputs themselves).
        let q = qsnr_db(&[2.0, -2.0], &[2.2, -1.8]);
        assert!((q - 20.0).abs() < 1e-4);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = QsnrConfig {
            vectors: 16,
            vector_len: 256,
            seed: 42,
        };
        let mut q1 = BdrQuantizer::new(BdrFormat::MX6);
        let mut q2 = BdrQuantizer::new(BdrFormat::MX6);
        let a = measure_qsnr(&mut q1, Distribution::NormalVariableVariance, cfg);
        let b = measure_qsnr(&mut q2, Distribution::NormalVariableVariance, cfg);
        assert_eq!(a, b);
    }

    /// `measure_qsnr` / `qsnr_samples` are draw + measure on the set: same
    /// bits as measuring a set drawn by hand, for a stateless and a
    /// history-keeping quantizer — and a dirty quantizer measures like a
    /// fresh one, because every measurement resets it first.
    #[test]
    fn measuring_is_draw_plus_measure_and_resets_the_quantizer() {
        let cfg = QsnrConfig {
            vectors: 12,
            vector_len: 200,
            seed: 14,
        };
        let d = Distribution::NormalVariableVariance;
        let set = SampleSet::draw(d, cfg);
        assert_eq!(set.vectors().count(), 12);
        assert!(set.vectors().all(|x| x.len() == 200));
        // The set is what the per-call loop drew: same generator, same order.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        for x in set.vectors() {
            assert_eq!(x, &d.sample_vector(&mut rng, 200)[..]);
        }

        let mut bdr = BdrQuantizer::new(BdrFormat::MX6);
        let mut delayed = ScaledQuantizer::new(
            ElementCode::Int { bits: 8 },
            None,
            64,
            ScaleStrategy::Delayed { window: 4 },
        );
        let quantizers: [&mut dyn VectorQuantizer; 2] = [&mut bdr, &mut delayed];
        for q in quantizers {
            let pooled = measure_qsnr(q, d, cfg);
            assert!(pooled.is_finite());
            // `q` now carries the history of a whole measurement.
            assert_eq!(set.measure(q).to_bits(), pooled.to_bits(), "{}", q.label());
            let per_vector = qsnr_samples(q, d, cfg);
            assert_eq!(set.samples(q), per_vector, "{}", q.label());
            assert_eq!(set.measure(q).to_bits(), pooled.to_bits(), "{}", q.label());
        }
    }

    /// No vectors, or empty ones, carry no signal power: NaN, as for a pair.
    #[test]
    fn degenerate_sets() {
        let d = Distribution::Normal { sigma: 1.0 };
        let mut q = BdrQuantizer::new(BdrFormat::MX9);
        for (vectors, vector_len) in [(0, 16), (4, 0)] {
            let cfg = QsnrConfig {
                vectors,
                vector_len,
                seed: 1,
            };
            assert!(measure_qsnr(&mut q, d, cfg).is_nan());
            assert_eq!(qsnr_samples(&mut q, d, cfg).len(), vectors);
        }
    }

    #[test]
    fn mx9_beats_mx6_beats_mx4() {
        let cfg = QsnrConfig {
            vectors: 64,
            vector_len: 512,
            seed: 7,
        };
        let d = Distribution::NormalVariableVariance;
        let q9 = measure_qsnr(&mut BdrQuantizer::new(BdrFormat::MX9), d, cfg);
        let q6 = measure_qsnr(&mut BdrQuantizer::new(BdrFormat::MX6), d, cfg);
        let q4 = measure_qsnr(&mut BdrQuantizer::new(BdrFormat::MX4), d, cfg);
        assert!(q9 > q6 + 10.0, "MX9 {q9} vs MX6 {q6}");
        assert!(q6 > q4 + 5.0, "MX6 {q6} vs MX4 {q4}");
    }

    #[test]
    fn mantissa_bit_adds_about_6db() {
        // Doubling mantissa resolution adds ~6.02 dB (Theorem 1's slope).
        let cfg = QsnrConfig {
            vectors: 64,
            vector_len: 512,
            seed: 9,
        };
        let d = Distribution::Normal { sigma: 1.0 };
        let m5 = BdrFormat::new(5, 8, 1, 16, 2).unwrap();
        let m6 = BdrFormat::new(6, 8, 1, 16, 2).unwrap();
        let q5 = measure_qsnr(&mut BdrQuantizer::new(m5), d, cfg);
        let q6 = measure_qsnr(&mut BdrQuantizer::new(m6), d, cfg);
        assert!((q6 - q5 - 6.02).abs() < 1.5, "slope {}", q6 - q5);
    }

    #[test]
    fn samples_have_expected_count_and_spread() {
        let cfg = QsnrConfig {
            vectors: 32,
            vector_len: 128,
            seed: 3,
        };
        let mut q =
            ScaledQuantizer::new(ElementCode::Int { bits: 8 }, None, 128, ScaleStrategy::Amax);
        let samples = qsnr_samples(&mut q, Distribution::NormalVariableVariance, cfg);
        assert_eq!(samples.len(), 32);
        assert!(samples.iter().all(|s| s.is_finite() && *s > 10.0));
    }

    #[test]
    fn distributions_sample_reasonable_values() {
        let mut rng = StdRng::seed_from_u64(1);
        for d in [
            Distribution::NormalVariableVariance,
            Distribution::Normal { sigma: 2.0 },
            Distribution::Uniform { lo: -1.0, hi: 1.0 },
            Distribution::LogNormalSigned { sigma: 1.0 },
            Distribution::Laplace { scale: 1.0 },
        ] {
            let v = d.sample_vector(&mut rng, 1000);
            assert_eq!(v.len(), 1000);
            assert!(
                v.iter().all(|x| x.is_finite()),
                "{d} produced non-finite values"
            );
            // Each has both signs except pathological draws.
            assert!(
                v.iter().any(|x| *x > 0.0) && v.iter().any(|x| *x < 0.0),
                "{d}"
            );
        }
    }

    #[test]
    fn laplace_heavy_tail_hurts_block_formats_less_with_microexponents() {
        // Sanity: MX6 should still beat MSFP12-ish BFP at equal mantissa
        // under a heavy-tailed distribution.
        let cfg = QsnrConfig {
            vectors: 64,
            vector_len: 512,
            seed: 11,
        };
        let d = Distribution::Laplace { scale: 1.0 };
        let bfp = BdrFormat::new(4, 8, 0, 16, 16).unwrap();
        let qmx = measure_qsnr(&mut BdrQuantizer::new(BdrFormat::MX6), d, cfg);
        let qbfp = measure_qsnr(&mut BdrQuantizer::new(bfp), d, cfg);
        assert!(qmx > qbfp, "MX6 {qmx} vs BFP {qbfp}");
    }
}

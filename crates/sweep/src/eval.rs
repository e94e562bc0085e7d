//! Parallel evaluation of design points: QSNR (Eq. 3 Monte-Carlo) × cost
//! (normalized area-memory product), the two axes of Fig. 7.

use crate::space;
use mx_core::qsnr::{Distribution, QsnrConfig, SampleSet};
use mx_core::scaling::ScaleStrategy;
use mx_hw::cost::{CostModel, FormatConfig};

/// One evaluated design point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Configuration label.
    pub label: String,
    /// The configuration itself.
    pub config: FormatConfig,
    /// Storage bits per element.
    pub bits_per_element: f64,
    /// Measured QSNR in dB.
    pub qsnr_db: f64,
    /// Normalized dot-product area.
    pub area_norm: f64,
    /// Normalized memory cost.
    pub memory_norm: f64,
    /// Fig. 7 x-axis: area × memory product.
    pub product: f64,
}

/// Sweep evaluation settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepSettings {
    /// Monte-Carlo settings for the QSNR measurement.
    pub qsnr: QsnrConfig,
    /// Data distribution (the paper's Fig. 7 uses
    /// [`Distribution::NormalVariableVariance`]).
    pub distribution: Distribution,
    /// Number of worker threads.
    pub threads: usize,
}

impl Default for SweepSettings {
    fn default() -> Self {
        SweepSettings {
            qsnr: QsnrConfig {
                vectors: 256,
                vector_len: 1024,
                seed: 0xf1e7,
            },
            distribution: Distribution::NormalVariableVariance,
            threads: mx_core::parallel::default_threads(),
        }
    }
}

/// Evaluates one configuration against an already drawn sample set.
fn evaluate_on(
    samples: &SampleSet,
    config: &FormatConfig,
    label: String,
    model: &CostModel,
) -> SweepPoint {
    let mut q = config.quantizer(ScaleStrategy::default());
    let qsnr_db = samples.measure(q.as_mut());
    let cost = model.evaluate(config);
    SweepPoint {
        label,
        config: config.clone(),
        bits_per_element: config.bits_per_element(),
        qsnr_db,
        area_norm: cost.area_norm,
        memory_norm: cost.memory_norm,
        product: cost.product,
    }
}

/// Evaluates one configuration, drawing the sample set for it alone. To
/// evaluate several on the same settings use [`evaluate_all`], which draws
/// once.
pub fn evaluate_point(
    config: &FormatConfig,
    label: String,
    model: &CostModel,
    settings: &SweepSettings,
) -> SweepPoint {
    let samples = SampleSet::draw(settings.distribution, settings.qsnr);
    evaluate_on(&samples, config, label, model)
}

/// Evaluates a list of configurations in parallel (order preserved).
///
/// Every configuration is measured on the same seed and distribution —
/// the same numbers — so the Monte-Carlo set is drawn once, before the
/// fan-out, and shared read-only by the workers; it lives for this call
/// only (`vectors × vector_len × 4` bytes). Work is distributed by the
/// shared [`mx_core::parallel::map`] utility — the same chunked front-end
/// the quantization engine uses — so the result is deterministic and
/// bit-identical to evaluating each configuration with
/// [`evaluate_point`].
pub fn evaluate_all(configs: &[FormatConfig], settings: &SweepSettings) -> Vec<SweepPoint> {
    let model = CostModel::new();
    let samples = SampleSet::draw(settings.distribution, settings.qsnr);
    mx_core::parallel::map(configs, settings.threads, |cfg| {
        evaluate_on(&samples, cfg, cfg.label(), &model)
    })
}

/// Evaluates the full Fig. 7 space.
pub fn evaluate_full_space(settings: &SweepSettings) -> Vec<SweepPoint> {
    evaluate_all(&space::full_space(), settings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_core::bdr::BdrFormat;

    fn fast_settings() -> SweepSettings {
        SweepSettings {
            qsnr: QsnrConfig {
                vectors: 24,
                vector_len: 256,
                seed: 1,
            },
            distribution: Distribution::NormalVariableVariance,
            threads: 4,
        }
    }

    /// One shared draw, fanned out, equals one draw per configuration on
    /// one thread — bit for bit, for every quantizer family (the
    /// software-scaled ones keep history across a measurement's vectors, so
    /// this also shows each configuration starts from a reset quantizer) and
    /// at every worker count, including more workers than some spans hold.
    #[test]
    fn parallel_matches_sequential() {
        use mx_core::scalar::ScalarFormat;
        let configs: Vec<FormatConfig> = vec![
            FormatConfig::Bdr(BdrFormat::MX9),
            FormatConfig::Bdr(BdrFormat::MX4),
            FormatConfig::Bdr(BdrFormat::new(5, 4, 2, 128, 1).unwrap()),
            FormatConfig::ScalarSw {
                format: ScalarFormat::E4M3,
                k1: 10_000,
            },
            FormatConfig::ScalarSw {
                format: ScalarFormat::FP4_E2M1,
                k1: 10_000,
            },
            FormatConfig::Int { bits: 8, k1: 1024 },
            FormatConfig::Int { bits: 4, k1: 1024 },
            FormatConfig::Vsq {
                bits: 4,
                d2: 6,
                k1: 1024,
            },
        ];
        let model = CostModel::new();
        for threads in [1, 2, 3] {
            let settings = SweepSettings {
                threads,
                ..fast_settings()
            };
            let all = evaluate_all(&configs, &settings);
            assert_eq!(all.len(), configs.len());
            for (p, c) in all.iter().zip(configs.iter()) {
                let alone = evaluate_point(c, c.label(), &model, &settings);
                assert_eq!(p.qsnr_db.to_bits(), alone.qsnr_db.to_bits(), "{c}");
                assert_eq!(p, &alone, "{c} threads={threads}");
            }
        }
    }

    #[test]
    fn points_have_sane_values() {
        let configs = vec![
            FormatConfig::Bdr(BdrFormat::MX6),
            FormatConfig::Int { bits: 8, k1: 1024 },
        ];
        let pts = evaluate_all(&configs, &fast_settings());
        for p in &pts {
            assert!(
                p.qsnr_db > 5.0 && p.qsnr_db < 80.0,
                "{}: {}",
                p.label,
                p.qsnr_db
            );
            assert!(p.product > 0.0 && p.product < 3.0);
            assert!(p.bits_per_element > 0.0);
        }
    }

    #[test]
    fn qsnr_ordering_in_sweep_points() {
        let configs = vec![
            FormatConfig::Bdr(BdrFormat::MX4),
            FormatConfig::Bdr(BdrFormat::MX6),
            FormatConfig::Bdr(BdrFormat::MX9),
        ];
        let pts = evaluate_all(&configs, &fast_settings());
        assert!(pts[0].qsnr_db < pts[1].qsnr_db);
        assert!(pts[1].qsnr_db < pts[2].qsnr_db);
    }
}

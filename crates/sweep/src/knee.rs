//! The Table II "knee" analysis: how QSNR and cost move when one parameter
//! of an MX format is perturbed — the evidence behind the paper's choice of
//! `d2 = 1`, `k2 = 2`, `k1 = 16`.

use crate::eval::{evaluate_all, SweepPoint, SweepSettings};
use mx_core::bdr::BdrFormat;
use mx_hw::cost::FormatConfig;

/// One perturbation result.
#[derive(Debug, Clone, PartialEq)]
pub struct KneeStep {
    /// What was changed, e.g. `"d2: 1 -> 2"`.
    pub change: String,
    /// Baseline point.
    pub base: SweepPoint,
    /// Perturbed point.
    pub variant: SweepPoint,
}

impl KneeStep {
    /// QSNR gained by the perturbation (dB).
    pub fn qsnr_delta(&self) -> f64 {
        self.variant.qsnr_db - self.base.qsnr_db
    }

    /// Relative cost increase of the perturbation (e.g. `0.3` = +30%).
    pub fn cost_ratio(&self) -> f64 {
        self.variant.product / self.base.product - 1.0
    }
}

/// Runs the paper's three knee perturbations around a base MX format:
/// `d2: 1→2`, `k2: 8→2`, and `k2: 2→1`. The four formats involved are
/// evaluated in one [`evaluate_all`] call, on one drawn sample set.
pub fn knee_analysis(base: BdrFormat, settings: &SweepSettings) -> Vec<KneeStep> {
    let (m, d1, k1) = (base.m(), base.d1(), base.k1());
    let mk = |d2: u32, k2: usize| BdrFormat::new(m, d1, d2, k1, k2).expect("valid variant");
    let formats = [base, mk(2, base.k2()), mk(base.d2(), 8), mk(base.d2(), 1)];
    let [base_pt, d2_up, k2_coarse, k2_fine]: [SweepPoint; 4] =
        evaluate_all(&formats.map(FormatConfig::Bdr), settings)
            .try_into()
            .expect("one point per format");
    vec![
        KneeStep {
            change: "d2: 1 -> 2".into(),
            base: base_pt.clone(),
            variant: d2_up,
        },
        KneeStep {
            change: "k2: 8 -> 2".into(),
            base: k2_coarse,
            variant: base_pt.clone(),
        },
        KneeStep {
            change: "k2: 2 -> 1".into(),
            base: base_pt,
            variant: k2_fine,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_core::qsnr::{Distribution, QsnrConfig};

    fn settings() -> SweepSettings {
        SweepSettings {
            qsnr: QsnrConfig {
                vectors: 128,
                vector_len: 1024,
                seed: 5,
            },
            distribution: Distribution::NormalVariableVariance,
            threads: 1,
        }
    }

    /// The paper's §IV-C knee narrative, checked qualitatively: each listed
    /// refinement gains QSNR, and the k2 8→2 step is far cheaper than the
    /// k2 2→1 step.
    #[test]
    fn knee_directions_match_the_paper() {
        let steps = knee_analysis(BdrFormat::MX6, &settings());
        for s in &steps {
            assert!(
                s.qsnr_delta() > 0.0,
                "{} should gain QSNR, got {:.2} dB",
                s.change,
                s.qsnr_delta()
            );
            assert!(s.cost_ratio() > -0.01, "{} should not be free", s.change);
        }
        let k2_8_to_2 = &steps[1];
        let k2_2_to_1 = &steps[2];
        assert!(
            k2_8_to_2.cost_ratio() < 0.10,
            "k2 8->2 should be nearly free, costs {:.1}%",
            100.0 * k2_8_to_2.cost_ratio()
        );
        assert!(
            k2_2_to_1.cost_ratio() > 2.0 * k2_8_to_2.cost_ratio(),
            "k2 2->1 ({:.2}) should cost much more than 8->2 ({:.2})",
            k2_2_to_1.cost_ratio(),
            k2_8_to_2.cost_ratio()
        );
        // And the QSNR gain of 8->2 should be the larger of the two k2 moves
        // (the diminishing-returns knee).
        assert!(k2_8_to_2.qsnr_delta() > k2_2_to_1.qsnr_delta());
    }

    #[test]
    fn d2_upgrade_gains_under_a_db_for_mx9() {
        let steps = knee_analysis(BdrFormat::MX9, &settings());
        let d2_step = &steps[0];
        assert!(
            d2_step.qsnr_delta() < 1.5,
            "d2 1->2 gain should be small at m=7: {:.2} dB",
            d2_step.qsnr_delta()
        );
    }
}

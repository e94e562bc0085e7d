//! Direct calls into `mx_core::gemm` at the shapes a plan issues, shared by
//! the layer probes and the traced round's replay.

use crate::gen::{self, ModelKind};
use mx_core::bdr::BdrFormat;
use mx_core::gemm::{quantized_gemm_prepacked_scratch, PackScratch, PackedOperand};
use mx_models::gpt::GptConfig;
use std::collections::BTreeMap;

/// [`gen::FORMATS`] as the core crate's block formats.
pub const BDR: [BdrFormat; 3] = [BdrFormat::MX9, BdrFormat::MX6, BdrFormat::MX4];

/// The weight GEMMs one forward of `kind` issues over `rows` activation
/// rows, as `(k, n, how many)`: derived from the dense dims and
/// `GptConfig::tiny()`, because the plan does not expose its nodes.
/// Attention's score and mix products are not weight GEMMs and stay in the
/// plan's self time.
pub fn gemm_shapes(kind: ModelKind) -> Vec<(usize, usize, usize)> {
    match kind {
        ModelKind::Dense => vec![(gen::DENSE_IN, gen::DENSE_OUT, 1)],
        ModelKind::Gpt => {
            let c = GptConfig::tiny();
            let d = c.d_model;
            vec![
                (d, d, 4 * c.n_layers), // wq, wk, wv, wo
                (d, 4 * d, c.n_layers), // fc1
                (4 * d, d, c.n_layers), // fc2
                (d, c.vocab, 1),        // head
            ]
        }
    }
}

/// Prepacked pseudo-random weight planes by `(k, n, format)` plus the
/// activation scratch, so a replayed GEMM pays what a planned one pays:
/// the execute half only.
pub struct GemmKit {
    seed: u64,
    planes: BTreeMap<(usize, usize, u8), PackedOperand>,
    scratch: PackScratch,
}

impl GemmKit {
    pub fn new(seed: u64) -> Self {
        GemmKit {
            seed,
            planes: BTreeMap::new(),
            scratch: PackScratch::new(),
        }
    }

    /// Packs the `(k, n, fmt)` plane if it is not packed yet.
    pub fn prepare(&mut self, k: usize, n: usize, fmt: u8) {
        let seed = self.seed;
        self.planes.entry((k, n, fmt)).or_insert_with(|| {
            let f = BDR[usize::from(fmt)];
            PackedOperand::pack_cols(&gen::weights(seed, k, n), k, n, f, f)
                .expect("MX presets pair with themselves")
        });
    }

    pub fn plane(&mut self, k: usize, n: usize, fmt: u8) -> &PackedOperand {
        self.prepare(k, n, fmt);
        &self.planes[&(k, n, fmt)]
    }

    /// One `m × k · k × n` product through the shape-aware dispatch point
    /// the plan and `qflow` call (`threads`: 0 = all cores, as they pass).
    pub fn run(
        &mut self,
        a: &[f32],
        m: usize,
        k: usize,
        n: usize,
        fmt: u8,
        threads: usize,
    ) -> Vec<f32> {
        self.prepare(k, n, fmt);
        let plane = &self.planes[&(k, n, fmt)];
        quantized_gemm_prepacked_scratch(
            a,
            m,
            BDR[usize::from(fmt)],
            plane,
            threads,
            &mut self.scratch,
        )
        .expect("plane packed for this pair")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_core::gemm::reference_gemm;

    #[test]
    fn kit_runs_the_real_kernel() {
        let mut kit = GemmKit::new(5);
        let (m, k, n) = (3, 32, 24);
        let a = gen::activations(9, m, k);
        let got = kit.run(&a, m, k, n, gen::MX6, 1);
        let want = reference_gemm(
            &a,
            &gen::weights(5, k, n),
            m,
            k,
            n,
            BdrFormat::MX6,
            BdrFormat::MX6,
        );
        assert_eq!(got.len(), m * n);
        assert!(got
            .iter()
            .zip(&want)
            .all(|(g, w)| g.to_bits() == w.to_bits()));
        assert!(kit.plane(k, n, gen::MX6).packed_bytes() > 0);
    }

    #[test]
    fn gpt_shapes_follow_the_config() {
        let shapes = gemm_shapes(ModelKind::Gpt);
        // 2 layers × (4 attention projections + fc1 + fc2) + head.
        assert_eq!(shapes.iter().map(|s| s.2).sum::<usize>(), 13);
        assert_eq!(shapes[0], (32, 32, 8));
        assert_eq!(gemm_shapes(ModelKind::Dense), vec![(512, 2048, 1)]);
    }
}

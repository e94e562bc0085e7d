//! Recommendation models (Tables III and VI): a DLRM stand-in (embeddings +
//! dot-product feature interactions + MLPs), a transformer-interaction
//! variant (PR-rec2 stand-in), and a DHEN-style hierarchical ensemble
//! (PR-rec3 stand-in), trained on synthetic CTR logs with AUC and
//! normalized-entropy metrics.

use crate::data::{self, CtrRecord, CTR_CARDINALITY, CTR_DENSE, CTR_FIELDS};
use crate::metrics::{auc, normalized_entropy};
use mx_nn::attention::TransformerBlock;
use mx_nn::format::TensorFormat;
use mx_nn::layers::{Activation, ActivationLayer, Embedding, Layer, Linear, Sequential};
use mx_nn::loss::bce_with_logits;
use mx_nn::optim::Adam;
use mx_nn::param::{HasParams, Param};
use mx_nn::qflow::QuantConfig;
use mx_nn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Interaction architecture, mirroring the paper's three production models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interaction {
    /// DLRM: pairwise dot products of feature embeddings (PR-rec1).
    DotProduct,
    /// Transformer encoder over the field embeddings (PR-rec2).
    Transformer,
    /// DHEN-style: dot-product *and* MLP interaction experts, hierarchically
    /// combined (PR-rec3).
    Dhen,
}

/// Embedding dimension shared by all fields.
const EMB_DIM: usize = 16;

/// Click-through-rate model with a configurable interaction module.
#[derive(Debug)]
pub struct CtrModel {
    embeddings: Vec<Embedding>,
    bottom: Sequential,
    interaction: Interaction,
    transformer: Option<TransformerBlock>,
    dhen_mlp: Option<Sequential>,
    top: Sequential,
    top_in: usize,
}

fn interaction_width(interaction: Interaction) -> usize {
    // Feature count: CTR_FIELDS embeddings + 1 dense projection.
    let f = CTR_FIELDS + 1;
    match interaction {
        // Upper triangle of pairwise dots + the dense projection itself.
        Interaction::DotProduct => f * (f - 1) / 2 + EMB_DIM,
        // Mean-pooled transformer output.
        Interaction::Transformer => EMB_DIM,
        // Dot block + MLP block concatenated.
        Interaction::Dhen => f * (f - 1) / 2 + EMB_DIM + EMB_DIM,
    }
}

impl CtrModel {
    /// Builds a CTR model.
    pub fn new(
        rng: &mut StdRng,
        interaction: Interaction,
        qcfg: QuantConfig,
        mixed_precision: bool,
    ) -> Self {
        let bottom_cfg = if mixed_precision {
            QuantConfig::fp32()
        } else {
            qcfg
        };
        let mut bottom = Sequential::new();
        bottom.push(Box::new(Linear::new(
            rng, CTR_DENSE, EMB_DIM, true, bottom_cfg,
        )));
        bottom.push(Box::new(ActivationLayer::new(
            Activation::Relu,
            qcfg.elementwise,
        )));
        let f = CTR_FIELDS + 1;
        let top_in = interaction_width(interaction);
        let mut top = Sequential::new();
        top.push(Box::new(Linear::new(rng, top_in, 32, true, qcfg)));
        top.push(Box::new(ActivationLayer::new(
            Activation::Relu,
            qcfg.elementwise,
        )));
        let head_cfg = if mixed_precision {
            QuantConfig::fp32()
        } else {
            qcfg
        };
        top.push(Box::new(Linear::new(rng, 32, 1, true, head_cfg)));
        let dhen_mlp = (interaction == Interaction::Dhen).then(|| {
            let mut m = Sequential::new();
            m.push(Box::new(Linear::new(rng, f * EMB_DIM, EMB_DIM, true, qcfg)));
            m.push(Box::new(ActivationLayer::new(
                Activation::Relu,
                qcfg.elementwise,
            )));
            m
        });
        CtrModel {
            embeddings: (0..CTR_FIELDS)
                .map(|_| Embedding::new(rng, CTR_CARDINALITY, EMB_DIM))
                .collect(),
            bottom,
            interaction,
            transformer: (interaction == Interaction::Transformer)
                .then(|| TransformerBlock::new(rng, EMB_DIM, 2, false, qcfg)),
            dhen_mlp,
            top,
            top_in,
        }
    }

    /// Quantizes the embedding tables themselves (the memory-side
    /// optimization §V applies to DLRM inference).
    pub fn quantize_tables(&mut self, format: TensorFormat) {
        for e in &mut self.embeddings {
            e.set_format(format);
        }
    }

    /// Forward over a batch of records, returning click logits `[n]` along
    /// with the per-feature tensors needed for backward.
    fn forward_batch(&mut self, records: &[CtrRecord], train: bool) -> (Tensor, ForwardCache) {
        let n = records.len();
        // Gather embeddings per field.
        let mut field_embs = Vec::with_capacity(CTR_FIELDS);
        for (fi, emb) in self.embeddings.iter_mut().enumerate() {
            let idx: Vec<usize> = records.iter().map(|r| r.categorical[fi]).collect();
            field_embs.push(emb.forward(&idx, train));
        }
        let dense_in = Tensor::from_vec(
            records
                .iter()
                .flat_map(|r| r.dense.iter().copied())
                .collect(),
            &[n, CTR_DENSE],
        );
        let dense_emb = self.bottom.forward(&dense_in, train);
        // Stack features: [n, f, EMB_DIM].
        let f = CTR_FIELDS + 1;
        let mut feats = Vec::with_capacity(n * f * EMB_DIM);
        for r in 0..n {
            for fe in field_embs.iter().chain(std::iter::once(&dense_emb)) {
                feats.extend_from_slice(&fe.data()[r * EMB_DIM..(r + 1) * EMB_DIM]);
            }
        }
        let feats = Tensor::from_vec(feats, &[n, f, EMB_DIM]);
        let interacted = match self.interaction {
            Interaction::DotProduct => dot_interactions(&feats, &dense_emb),
            Interaction::Transformer => {
                let t = self.transformer.as_mut().expect("transformer built");
                let out = t.forward(&feats, train);
                mean_pool(&out)
            }
            Interaction::Dhen => {
                let dots = dot_interactions(&feats, &dense_emb);
                let mlp = self.dhen_mlp.as_mut().expect("dhen built");
                let flat = feats.reshape(&[n, f * EMB_DIM]);
                let expert = mlp.forward(&flat, train);
                let mut combined = Vec::with_capacity(n * self.top_in);
                for r in 0..n {
                    combined
                        .extend_from_slice(&dots.data()[r * dots.cols()..(r + 1) * dots.cols()]);
                    combined.extend_from_slice(&expert.data()[r * EMB_DIM..(r + 1) * EMB_DIM]);
                }
                Tensor::from_vec(combined, &[n, self.top_in])
            }
        };
        let logits = self.top.forward(&interacted, train);
        let _ = dense_emb;
        (logits, ForwardCache { feats })
    }

    /// One training step over a batch; returns the BCE loss.
    pub fn train_step(&mut self, records: &[CtrRecord], opt: &mut Adam) -> f64 {
        self.zero_grads();
        let labels: Vec<f32> = records
            .iter()
            .map(|r| f32::from(u8::from(r.clicked)))
            .collect();
        let (logits, cache) = self.forward_batch(records, true);
        let (loss, grad) = bce_with_logits(&logits, &labels);
        self.backward_batch(&grad.reshape(&[records.len(), 1]), records, &cache);
        opt.step(self);
        loss
    }

    fn backward_batch(&mut self, grad: &Tensor, records: &[CtrRecord], cache: &ForwardCache) {
        let n = records.len();
        let f = CTR_FIELDS + 1;
        let g_inter = self.top.backward(grad);
        // Gradient w.r.t. the stacked features [n, f, EMB_DIM].
        let g_feats = match self.interaction {
            Interaction::DotProduct => dot_interactions_backward(&g_inter, &cache.feats),
            Interaction::Transformer => {
                let g3d = mean_pool_backward(&g_inter, f);
                let t = self.transformer.as_mut().expect("transformer built");
                t.backward(&g3d)
            }
            Interaction::Dhen => {
                let dots_w = f * (f - 1) / 2 + EMB_DIM;
                let mut g_dots = Vec::with_capacity(n * dots_w);
                let mut g_expert = Vec::with_capacity(n * EMB_DIM);
                for r in 0..n {
                    let row = &g_inter.data()[r * self.top_in..(r + 1) * self.top_in];
                    g_dots.extend_from_slice(&row[..dots_w]);
                    g_expert.extend_from_slice(&row[dots_w..]);
                }
                let g_dots = Tensor::from_vec(g_dots, &[n, dots_w]);
                let g_expert = Tensor::from_vec(g_expert, &[n, EMB_DIM]);
                let mlp = self.dhen_mlp.as_mut().expect("dhen built");
                let g_flat = mlp.backward(&g_expert);
                dot_interactions_backward(&g_dots, &cache.feats)
                    .add(&g_flat.reshape(&[n, f, EMB_DIM]))
            }
        };
        // Scatter feature gradients to embeddings and the dense tower.
        let mut g_dense = Tensor::zeros(&[n, EMB_DIM]);
        for (fi, emb) in self.embeddings.iter_mut().enumerate() {
            let mut g_field = Vec::with_capacity(n * EMB_DIM);
            for r in 0..n {
                let base = (r * f + fi) * EMB_DIM;
                g_field.extend_from_slice(&g_feats.data()[base..base + EMB_DIM]);
            }
            // Re-run the lookup so the embedding's scatter cache is aligned.
            let idx: Vec<usize> = records.iter().map(|r| r.categorical[fi]).collect();
            let _ = emb.forward(&idx, true);
            emb.backward(&Tensor::from_vec(g_field, &[n, EMB_DIM]));
        }
        {
            let gd = g_dense.data_mut();
            for r in 0..n {
                let base = (r * f + CTR_FIELDS) * EMB_DIM;
                for c in 0..EMB_DIM {
                    gd[r * EMB_DIM + c] = g_feats.data()[base + c];
                }
            }
        }
        let _ = self.bottom.backward(&g_dense);
        let _ = cache;
    }

    /// Predicted click probabilities for a batch.
    pub fn predict(&mut self, records: &[CtrRecord]) -> Vec<f32> {
        let (logits, _) = self.forward_batch(records, false);
        logits
            .data()
            .iter()
            .map(|&x| 1.0 / (1.0 + (-x).exp()))
            .collect()
    }
}

struct ForwardCache {
    feats: Tensor,
}

/// Pairwise dot products of the `f` feature vectors plus the dense
/// projection passthrough (classic DLRM interaction).
fn dot_interactions(feats: &Tensor, dense_emb: &Tensor) -> Tensor {
    let n = feats.shape()[0];
    let f = feats.shape()[1];
    let d = feats.shape()[2];
    let width = f * (f - 1) / 2 + d;
    let mut out = Vec::with_capacity(n * width);
    for r in 0..n {
        for i in 0..f {
            for j in (i + 1)..f {
                let a = &feats.data()[(r * f + i) * d..(r * f + i + 1) * d];
                let b = &feats.data()[(r * f + j) * d..(r * f + j + 1) * d];
                out.push(a.iter().zip(b).map(|(x, y)| x * y).sum());
            }
        }
        out.extend_from_slice(&dense_emb.data()[r * d..(r + 1) * d]);
    }
    Tensor::from_vec(out, &[n, width])
}

/// Backward of [`dot_interactions`] w.r.t. the stacked features. The dense
/// passthrough gradient is folded into the dense feature's slot.
fn dot_interactions_backward(grad: &Tensor, feats: &Tensor) -> Tensor {
    let n = feats.shape()[0];
    let f = feats.shape()[1];
    let d = feats.shape()[2];
    let mut g = Tensor::zeros(&[n, f, d]);
    let gd = g.data_mut();
    for r in 0..n {
        let mut col = 0usize;
        for i in 0..f {
            for j in (i + 1)..f {
                let gv = grad.data()[r * grad.cols() + col];
                for c in 0..d {
                    let a = feats.data()[(r * f + i) * d + c];
                    let b = feats.data()[(r * f + j) * d + c];
                    gd[(r * f + i) * d + c] += gv * b;
                    gd[(r * f + j) * d + c] += gv * a;
                }
                col += 1;
            }
        }
        // Dense passthrough occupies the trailing d columns and feeds the
        // last feature slot (the dense projection).
        for c in 0..d {
            gd[(r * f + (f - 1)) * d + c] += grad.data()[r * grad.cols() + col + c];
        }
    }
    g
}

fn mean_pool(x: &Tensor) -> Tensor {
    let (n, f, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let mut out = Tensor::zeros(&[n, d]);
    {
        let od = out.data_mut();
        for r in 0..n {
            for i in 0..f {
                for c in 0..d {
                    od[r * d + c] += x.data()[(r * f + i) * d + c] / f as f32;
                }
            }
        }
    }
    out
}

fn mean_pool_backward(grad: &Tensor, f: usize) -> Tensor {
    let (n, d) = (grad.shape()[0], grad.shape()[1]);
    let mut out = Tensor::zeros(&[n, f, d]);
    {
        let od = out.data_mut();
        for r in 0..n {
            for i in 0..f {
                for c in 0..d {
                    od[(r * f + i) * d + c] = grad.data()[r * d + c] / f as f32;
                }
            }
        }
    }
    out
}

impl HasParams for CtrModel {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for e in &mut self.embeddings {
            e.visit_params(f);
        }
        self.bottom.visit_params(f);
        if let Some(t) = &mut self.transformer {
            t.visit_params(f);
        }
        if let Some(m) = &mut self.dhen_mlp {
            m.visit_params(f);
        }
        self.top.visit_params(f);
    }
}

/// Recsys benchmark result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecsysResult {
    /// Held-out AUC.
    pub auc: f64,
    /// Held-out normalized entropy (lower is better).
    pub ne: f64,
}

/// Trains a CTR model and evaluates AUC/NE on held-out logs.
pub fn run_recsys(
    interaction: Interaction,
    qcfg: QuantConfig,
    mixed_precision: bool,
    iters: usize,
    seed: u64,
) -> RecsysResult {
    let logs = data::ctr_logs(seed, 3072);
    let (train, test) = logs.split_at(2560);
    let mut rng = StdRng::seed_from_u64(seed ^ 7);
    let mut model = CtrModel::new(&mut rng, interaction, qcfg, mixed_precision);
    let mut opt = Adam::new(2e-3);
    let batch = 64;
    for i in 0..iters {
        let start = (i * batch) % (train.len() - batch + 1);
        let _ = model.train_step(&train[start..start + batch], &mut opt);
    }
    let probs = model.predict(test);
    let labels: Vec<bool> = test.iter().map(|r| r.clicked).collect();
    RecsysResult {
        auc: auc(&probs, &labels),
        ne: normalized_entropy(&probs, &labels),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dlrm_learns_planted_structure() {
        // Seed pinned against the vendored RNG's stream (see vendor/rand).
        let r = run_recsys(Interaction::DotProduct, QuantConfig::fp32(), false, 120, 1);
        assert!(r.auc > 0.62, "DLRM AUC {:.3}", r.auc);
        assert!(r.ne < 1.0, "DLRM NE {:.3}", r.ne);
    }

    #[test]
    fn transformer_interaction_learns() {
        let r = run_recsys(Interaction::Transformer, QuantConfig::fp32(), false, 100, 5);
        assert!(r.auc > 0.55, "PR-rec2 AUC {:.3}", r.auc);
    }

    #[test]
    fn dhen_learns() {
        let r = run_recsys(Interaction::Dhen, QuantConfig::fp32(), false, 100, 7);
        assert!(r.auc > 0.6, "DHEN AUC {:.3}", r.auc);
    }

    #[test]
    fn mx9_training_tracks_fp32_ne() {
        let base = run_recsys(Interaction::DotProduct, QuantConfig::fp32(), false, 80, 11);
        let mx9 = run_recsys(
            Interaction::DotProduct,
            QuantConfig::uniform(TensorFormat::MX9),
            false,
            80,
            11,
        );
        let delta = (mx9.ne - base.ne).abs() / base.ne;
        assert!(delta < 0.05, "MX9 NE delta {:.4} too large", delta);
    }

    #[test]
    fn quantized_embedding_tables_still_predict() {
        let logs = data::ctr_logs(1, 256);
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = CtrModel::new(
            &mut rng,
            Interaction::DotProduct,
            QuantConfig::fp32(),
            false,
        );
        let before = m.predict(&logs[..32]);
        m.quantize_tables(TensorFormat::MX6);
        let after = m.predict(&logs[..32]);
        assert_eq!(before.len(), after.len());
        // Quantization changes values slightly but keeps them probabilities.
        assert!(after.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn dot_interaction_backward_gradcheck() {
        let n = 2;
        let f = 3;
        let d = 4;
        let feats = Tensor::from_vec(
            (0..n * f * d)
                .map(|i| ((i * 7 % 11) as f32 - 5.0) * 0.1)
                .collect(),
            &[n, f, d],
        );
        let dense = Tensor::from_vec(vec![0.3; n * d], &[n, d]);
        let y = dot_interactions(&feats, &dense);
        let g = dot_interactions_backward(&y, &feats);
        let eps = 1e-3;
        for i in 0..feats.numel() {
            let mut fp = feats.clone();
            fp.data_mut()[i] += eps;
            let mut fm = feats.clone();
            fm.data_mut()[i] -= eps;
            let lp = dot_interactions(&fp, &dense).sq_norm() / 2.0;
            let lm = dot_interactions(&fm, &dense).sq_norm() / 2.0;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            // The dense slot also feeds the passthrough; only compare the
            // interaction part (first f-1 features).
            if i % (f * d) < (f - 1) * d {
                assert!(
                    (num - g.data()[i]).abs() < 1e-2 * (1.0 + num.abs()),
                    "grad mismatch at {i}: {num} vs {}",
                    g.data()[i]
                );
            }
        }
    }
}

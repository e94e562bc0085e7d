//! Encoder-only transformer with an extractive-QA span head — the BERT
//! benchmark of Tables III and V (SQuAD-style EM / F1 on the synthetic QA
//! task).

use crate::data::{self, QaExample, QA_VOCAB};
use crate::metrics::span_em_f1;
use mx_nn::attention::TransformerBlock;
use mx_nn::layers::{Embedding, Layer, LayerNorm, Linear};
use mx_nn::loss::softmax_cross_entropy;
use mx_nn::optim::Adam;
use mx_nn::param::{HasParams, Param};
use mx_nn::plan::{CompiledPlan, Loc, PlanError, Planner, Stage};
use mx_nn::qflow::QuantConfig;
use mx_nn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Encoder-only transformer with start/end span logits.
#[derive(Debug)]
pub struct BertQa {
    tok_emb: Embedding,
    pos_emb: Embedding,
    blocks: Vec<TransformerBlock>,
    ln: LayerNorm,
    span_head: Linear, // 2 outputs per token: start and end logits
    d_model: usize,
    seq_len: usize,
}

impl BertQa {
    /// Builds the model (`d_model`/`n_layers` scale base vs large).
    pub fn new(
        rng: &mut StdRng,
        d_model: usize,
        n_layers: usize,
        seq_len: usize,
        qcfg: QuantConfig,
    ) -> Self {
        BertQa {
            tok_emb: Embedding::new(rng, QA_VOCAB, d_model),
            pos_emb: Embedding::new(rng, seq_len, d_model),
            blocks: (0..n_layers)
                .map(|_| TransformerBlock::new(rng, d_model, 2, false, qcfg))
                .collect(),
            ln: LayerNorm::new(d_model, qcfg.elementwise),
            span_head: Linear::new(rng, d_model, 2, true, qcfg),
            d_model,
            seq_len,
        }
    }

    /// Switches the quantization config (direct cast).
    pub fn set_quant(&mut self, qcfg: QuantConfig) {
        for b in &mut self.blocks {
            b.set_quant(qcfg);
        }
        self.span_head.set_quant(qcfg);
    }

    /// Context length the model was built for.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Lowers the inference forward of one `t`-token request into a
    /// [`CompiledPlan`] under `cfg` that executes batches of up to `batch`
    /// such requests — the same skeleton as the GPT lowering (embed →
    /// one stage per block → final norm + head), with non-causal
    /// attention and the two-logit span head.
    pub fn compile_plan(
        &self,
        cfg: QuantConfig,
        batch: usize,
        t: usize,
    ) -> Result<CompiledPlan, PlanError> {
        if t == 0 || t > self.seq_len {
            return Err(PlanError::Unsupported("bucket outside the encoder window"));
        }
        let d = self.d_model;
        let mut p = Planner::new();
        p.embed_stage(&self.tok_emb, &self.pos_emb, t)?;
        for blk in &self.blocks {
            p.transformer_block_stage(blk, cfg, t)?;
        }
        let mut s = Stage::new(t * d, t * 2);
        let normed = s.alloc(t * d);
        s.norm(&self.ln, Loc::In, normed, t);
        s.gemm(&self.span_head, normed, Loc::Out, t, cfg, None)?;
        p.push_stage(s);
        p.finish(batch)
    }

    /// Returns per-token `(start_logits, end_logits)` rows `[batch*seq, 2]`
    /// — the raw span head the QA metrics and the batched serving entry
    /// point ([`crate::zoo::BatchModel`]) both read.
    pub fn span_logits(&mut self, tokens: &[usize], batch: usize, train: bool) -> Tensor {
        let t = tokens.len() / batch;
        assert!(t <= self.seq_len);
        let tok = self.tok_emb.forward(tokens, train);
        let pos_idx: Vec<usize> = (0..batch).flat_map(|_| 0..t).collect();
        let pos = self.pos_emb.forward(&pos_idx, train);
        let mut x = tok.add(&pos).reshape(&[batch, t, self.d_model]);
        for b in &mut self.blocks {
            x = b.forward(&x, train);
        }
        let h = self
            .ln
            .forward(&x.reshape(&[batch * t, self.d_model]), train);
        self.span_head.forward(&h, train)
    }

    /// One training step on a batch of examples (all the same length);
    /// returns the loss (start CE + end CE).
    pub fn train_step(&mut self, batch: &[&QaExample], opt: &mut Adam) -> f64 {
        self.zero_grads();
        let b = batch.len();
        let t = batch[0].tokens.len();
        let tokens: Vec<usize> = batch
            .iter()
            .flat_map(|e| e.tokens.iter().copied())
            .collect();
        let logits = self.span_logits(&tokens, b, true);
        // Column 0 = start logits over positions, column 1 = end logits.
        let start_logits =
            Tensor::from_vec((0..b * t).map(|i| logits.data()[i * 2]).collect(), &[b, t]);
        let end_logits = Tensor::from_vec(
            (0..b * t).map(|i| logits.data()[i * 2 + 1]).collect(),
            &[b, t],
        );
        let starts: Vec<usize> = batch.iter().map(|e| e.start).collect();
        let ends: Vec<usize> = batch.iter().map(|e| e.end).collect();
        let (l1, g1) = softmax_cross_entropy(&start_logits, &starts);
        let (l2, g2) = softmax_cross_entropy(&end_logits, &ends);
        let mut grad = Tensor::zeros(&[b * t, 2]);
        {
            let gd = grad.data_mut();
            for i in 0..b * t {
                gd[i * 2] = g1.data()[i];
                gd[i * 2 + 1] = g2.data()[i];
            }
        }
        self.backprop(&grad, b, t);
        opt.step(self);
        l1 + l2
    }

    fn backprop(&mut self, grad: &Tensor, b: usize, t: usize) {
        let g = self.span_head.backward(grad);
        let g = self.ln.backward(&g);
        let mut g3d = g.reshape(&[b, t, self.d_model]);
        for blk in self.blocks.iter_mut().rev() {
            g3d = blk.backward(&g3d);
        }
        let g2d = g3d.reshape(&[b * t, self.d_model]);
        self.tok_emb.backward(&g2d);
        self.pos_emb.backward(&g2d);
    }

    /// Predicts the most likely `(start, end)` span (constrained to
    /// `start <= end`).
    pub fn predict(&mut self, tokens: &[usize]) -> (usize, usize) {
        let t = tokens.len();
        let logits = self.span_logits(tokens, 1, false);
        let start = (0..t)
            .max_by(|&a, &b| {
                logits.data()[a * 2]
                    .partial_cmp(&logits.data()[b * 2])
                    .expect("finite")
            })
            .expect("nonempty");
        let end = (start..t)
            .max_by(|&a, &b| {
                logits.data()[a * 2 + 1]
                    .partial_cmp(&logits.data()[b * 2 + 1])
                    .expect("finite")
            })
            .expect("nonempty");
        (start, end)
    }
}

impl HasParams for BertQa {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.tok_emb.visit_params(f);
        self.pos_emb.visit_params(f);
        for b in &mut self.blocks {
            b.visit_params(f);
        }
        self.ln.visit_params(f);
        self.span_head.visit_params(f);
    }
}

/// QA benchmark result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QaResult {
    /// Exact-match percentage.
    pub em: f64,
    /// Token-level F1 percentage.
    pub f1: f64,
}

/// Trains a [`BertQa`] and returns it with its held-out metrics.
pub fn train_bert_qa(
    d_model: usize,
    n_layers: usize,
    qcfg: QuantConfig,
    iters: usize,
    seed: u64,
) -> (BertQa, QaResult) {
    let seq = 36; // long enough that no answer span is ever truncated
    let train_set = data::qa_examples(seed, 320, seq);
    let mut rng = StdRng::seed_from_u64(seed ^ 1);
    let mut model = BertQa::new(&mut rng, d_model, n_layers, seq, qcfg);
    let mut opt = Adam::new(2e-3);
    let batch = 8;
    for i in 0..iters {
        let refs: Vec<&data::QaExample> = (0..batch)
            .map(|k| &train_set[(i * batch + k) % train_set.len()])
            .collect();
        let _ = model.train_step(&refs, &mut opt);
    }
    let result = evaluate_bert_qa(&mut model, seed);
    (model, result)
}

/// Evaluates EM/F1 on a held-out set.
pub fn evaluate_bert_qa(model: &mut BertQa, seed: u64) -> QaResult {
    let test_set = data::qa_examples(seed ^ 0xabc, 48, 36);
    let mut pred = Vec::new();
    let mut gold = Vec::new();
    for ex in &test_set {
        pred.push(model.predict(&ex.tokens));
        gold.push((ex.start, ex.end));
    }
    let (em, f1) = span_em_f1(&pred, &gold);
    QaResult { em, f1 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_nn::TensorFormat;

    #[test]
    fn bert_learns_span_extraction() {
        let (_, r) = train_bert_qa(32, 2, QuantConfig::fp32(), 400, 3);
        assert!(r.f1 > 50.0, "F1 too low: {:.1}", r.f1);
        assert!(r.em <= r.f1 + 1e-9, "EM cannot exceed F1");
    }

    #[test]
    fn direct_cast_mx9_preserves_qa() {
        let (mut model, base) = train_bert_qa(24, 1, QuantConfig::fp32(), 200, 5);
        model.set_quant(QuantConfig::uniform(TensorFormat::MX9));
        let cast = evaluate_bert_qa(&mut model, 5);
        assert!(
            (base.f1 - cast.f1).abs() < 6.0,
            "MX9 cast moved F1 {:.1} -> {:.1}",
            base.f1,
            cast.f1
        );
    }

    #[test]
    fn predict_respects_span_order() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = BertQa::new(&mut rng, 16, 1, 36, QuantConfig::fp32());
        let ex = &data::qa_examples(1, 1, 36)[0];
        let (s, e) = m.predict(&ex.tokens);
        assert!(s <= e && e < 36);
    }
}

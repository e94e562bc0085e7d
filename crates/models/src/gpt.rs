//! Decoder-only generative transformer (GPT family) with optional
//! mixture-of-experts MLPs — the workhorse behind Table IV (zero/few-shot
//! direct cast), Table VII (generative training), and Fig. 9 (MX6 training
//! cost), at laptop scale.

use crate::data;
use mx_nn::attention::TransformerBlock;
use mx_nn::layers::{Embedding, Layer, LayerNorm, Linear};
use mx_nn::loss::softmax_cross_entropy;
use mx_nn::optim::Adam;
use mx_nn::param::{HasParams, Param};
use mx_nn::plan::{CompiledPlan, Loc, PlanError, Planner, Stage};
use mx_nn::qflow::{quantized_matmul, QuantConfig};
use mx_nn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Architecture hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GptConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Model width.
    pub d_model: usize,
    /// Attention heads.
    pub n_heads: usize,
    /// Transformer blocks.
    pub n_layers: usize,
    /// Context length.
    pub seq_len: usize,
    /// Number of MoE experts in each block's MLP (0 or 1 = dense).
    pub experts: usize,
}

impl GptConfig {
    /// A tiny config for tests.
    pub fn tiny() -> Self {
        GptConfig {
            vocab: data::LM_VOCAB,
            d_model: 32,
            n_heads: 2,
            n_layers: 2,
            seq_len: 16,
            experts: 0,
        }
    }

    /// Scaled configs mirroring the paper's GPT size ladder (Table VII) at
    /// laptop scale: index 0..=4 maps to "XS, S, M, L, XL".
    pub fn ladder(step: usize) -> Self {
        let (d, l, h) = match step {
            0 => (16, 1, 1),
            1 => (24, 2, 2),
            2 => (32, 2, 2),
            3 => (48, 3, 3),
            _ => (64, 4, 4),
        };
        GptConfig {
            vocab: data::LM_VOCAB,
            d_model: d,
            n_heads: h,
            n_layers: l,
            seq_len: 24,
            experts: 0,
        }
    }

    /// The MoE variant of the ladder (Table VII's last row).
    pub fn moe(step: usize, experts: usize) -> Self {
        GptConfig {
            experts,
            ..Self::ladder(step)
        }
    }
}

/// Top-1 gated mixture-of-experts feed-forward layer (DeepSpeed-MoE style,
/// scaled down). The gate's softmax stays in FP32 per §V.
#[derive(Debug)]
struct MoeMlp {
    gate: Linear,
    experts: Vec<(Linear, Linear)>,
    cache: Option<(Tensor, Vec<usize>, Tensor, Vec<Tensor>)>, // x, choice, gate probs, hidden acts
}

impl MoeMlp {
    fn new(rng: &mut StdRng, d: usize, experts: usize, cfg: QuantConfig) -> Self {
        MoeMlp {
            gate: Linear::new(rng, d, experts, true, QuantConfig::fp32()),
            experts: (0..experts)
                .map(|_| {
                    (
                        Linear::new(rng, d, 2 * d, true, cfg),
                        Linear::new(rng, 2 * d, d, true, cfg),
                    )
                })
                .collect(),
            cache: None,
        }
    }

    fn set_quant(&mut self, cfg: QuantConfig) {
        for (a, b) in &mut self.experts {
            a.set_quant(cfg);
            b.set_quant(cfg);
        }
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let n = x.rows();
        let d = x.cols();
        let gate_logits = self.gate.forward(x, train);
        let gate_probs = gate_logits.softmax_rows();
        let e = self.experts.len();
        let mut choice = Vec::with_capacity(n);
        for r in 0..n {
            let row = &gate_probs.data()[r * e..(r + 1) * e];
            let best = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(i, _)| i)
                .expect("nonempty");
            choice.push(best);
        }
        let mut y = Tensor::zeros(&[n, d]);
        let mut hidden_acts = Vec::new();
        for (ei, (fc1, fc2)) in self.experts.iter_mut().enumerate() {
            let rows: Vec<usize> = (0..n).filter(|&r| choice[r] == ei).collect();
            if rows.is_empty() {
                hidden_acts.push(Tensor::zeros(&[0, 0]));
                continue;
            }
            let mut sub = Vec::with_capacity(rows.len() * d);
            for &r in &rows {
                sub.extend_from_slice(&x.data()[r * d..(r + 1) * d]);
            }
            let sub = Tensor::from_vec(sub, &[rows.len(), d]);
            let h = fc1.forward(&sub, train).map(|v| v.max(0.0));
            let out = fc2.forward(&h, train);
            let yd = y.data_mut();
            for (k, &r) in rows.iter().enumerate() {
                let p = gate_probs.data()[r * e + ei];
                for c in 0..d {
                    yd[r * d + c] = out.data()[k * d + c] * p;
                }
            }
            hidden_acts.push(h);
        }
        if train {
            self.cache = Some((x.clone(), choice, gate_probs, hidden_acts));
        }
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let (x, choice, gate_probs, hidden_acts) =
            self.cache.take().expect("backward before forward");
        let n = x.rows();
        let d = x.cols();
        let e = self.experts.len();
        let mut dx = Tensor::zeros(&[n, d]);
        let mut dgate_logits = Tensor::zeros(&[n, e]);
        for (ei, (fc1, fc2)) in self.experts.iter_mut().enumerate() {
            let rows: Vec<usize> = (0..n).filter(|&r| choice[r] == ei).collect();
            if rows.is_empty() {
                continue;
            }
            // Expert output gradient: dL/dout = grad * p; gate gradient via
            // dL/dp = grad . out, but out was not cached — recompute from the
            // cached hidden activations (cheap second matmul).
            let h = &hidden_acts[ei];
            let mut gsub = Vec::with_capacity(rows.len() * d);
            for &r in &rows {
                let p = gate_probs.data()[r * e + ei];
                for c in 0..d {
                    gsub.push(grad.data()[r * d + c] * p);
                }
            }
            let gsub = Tensor::from_vec(gsub, &[rows.len(), d]);
            // Gate prob gradient: out = fc2(relu(fc1(sub))).
            let out = quantized_matmul(h, &fc2.w.value, fc2.quant().fwd)
                .add_row(&fc2.b.as_ref().expect("bias").value);
            for (k, &r) in rows.iter().enumerate() {
                let mut dp = 0.0f32;
                for c in 0..d {
                    dp += grad.data()[r * d + c] * out.data()[k * d + c];
                }
                // Softmax backward restricted to the chosen logit (top-1
                // routing: straight-through on the winner).
                let p = gate_probs.data()[r * e + ei];
                let dgl = dgate_logits.data_mut();
                for j in 0..e {
                    let pj = gate_probs.data()[r * e + j];
                    let indicator = if j == ei { 1.0 } else { 0.0 };
                    dgl[r * e + j] += dp * p * (indicator - pj);
                }
            }
            let dh = fc2.backward(&gsub);
            let dh = dh.zip_map(h, |g, hv| if hv > 0.0 { g } else { 0.0 });
            let dsub = fc1.backward(&dh);
            let dxd = dx.data_mut();
            for (k, &r) in rows.iter().enumerate() {
                for c in 0..d {
                    dxd[r * d + c] += dsub.data()[k * d + c];
                }
            }
        }
        dx.add(&self.gate.backward(&dgate_logits))
    }
}

impl HasParams for MoeMlp {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.gate.visit_params(f);
        for (a, b) in &mut self.experts {
            a.visit_params(f);
            b.visit_params(f);
        }
    }
}

/// A decoder-only transformer language model.
#[derive(Debug)]
pub struct Gpt {
    config: GptConfig,
    tok_emb: Embedding,
    pos_emb: Embedding,
    blocks: Vec<TransformerBlock>,
    moes: Vec<Option<MoeMlpWrapper>>,
    ln_f: LayerNorm,
    head: Linear,
}

/// Wrapper so Debug derives cleanly.
#[derive(Debug)]
struct MoeMlpWrapper(MoeMlp);

impl Gpt {
    /// Builds a model with the given quantization config.
    pub fn new(rng: &mut StdRng, config: GptConfig, qcfg: QuantConfig) -> Self {
        let blocks = (0..config.n_layers)
            .map(|_| TransformerBlock::new(rng, config.d_model, config.n_heads, true, qcfg))
            .collect();
        let moes = (0..config.n_layers)
            .map(|_| {
                (config.experts > 1)
                    .then(|| MoeMlpWrapper(MoeMlp::new(rng, config.d_model, config.experts, qcfg)))
            })
            .collect();
        Gpt {
            config,
            tok_emb: Embedding::new(rng, config.vocab, config.d_model),
            pos_emb: Embedding::new(rng, config.seq_len, config.d_model),
            blocks,
            moes,
            ln_f: LayerNorm::new(config.d_model, qcfg.elementwise),
            head: Linear::new(rng, config.d_model, config.vocab, false, qcfg),
        }
    }

    /// The architecture config.
    pub fn config(&self) -> GptConfig {
        self.config
    }

    /// Switches every tensor op to a new quantization config ("direct
    /// cast").
    pub fn set_quant(&mut self, qcfg: QuantConfig) {
        for b in &mut self.blocks {
            b.set_quant(qcfg);
        }
        for m in self.moes.iter_mut().flatten() {
            m.0.set_quant(qcfg);
        }
        self.ln_f.set_quant(qcfg);
        self.head.set_quant(qcfg);
    }

    /// Lowers the inference forward of one `t`-token request into a
    /// [`CompiledPlan`] under `cfg` that executes batches of up to `batch`
    /// such requests: one stage per transformer block, with the embedding
    /// tables and every weight plane hoisted at plan time. Mixture-of-experts variants are unplannable (top-1 routing is
    /// data-dependent) and fail with a typed error.
    pub fn compile_plan(
        &self,
        cfg: QuantConfig,
        batch: usize,
        t: usize,
    ) -> Result<CompiledPlan, PlanError> {
        if self.moes.iter().any(|m| m.is_some()) {
            return Err(PlanError::Unsupported(
                "mixture-of-experts routing is data-dependent",
            ));
        }
        if t == 0 || t > self.config.seq_len {
            return Err(PlanError::Unsupported("bucket outside the context window"));
        }
        let d = self.config.d_model;
        let mut p = Planner::new();
        p.embed_stage(&self.tok_emb, &self.pos_emb, t)?;
        for blk in &self.blocks {
            p.transformer_block_stage(blk, cfg, t)?;
        }
        let mut s = Stage::new(t * d, t * self.config.vocab);
        let normed = s.alloc(t * d);
        s.norm(&self.ln_f, Loc::In, normed, t, cfg);
        s.gemm(&self.head, normed, Loc::Out, t, cfg, None)?;
        p.push_stage(s);
        p.finish(batch)
    }

    /// Forward pass over `tokens` (`batch × seq`, flattened), returning
    /// logits `[batch*seq, vocab]`.
    pub fn forward(&mut self, tokens: &[usize], batch: usize, train: bool) -> Tensor {
        let t = tokens.len() / batch;
        assert!(t <= self.config.seq_len, "sequence too long");
        let tok = self.tok_emb.forward(tokens, train);
        let pos_idx: Vec<usize> = (0..batch).flat_map(|_| 0..t).collect();
        let pos = self.pos_emb.forward(&pos_idx, train);
        let mut x = tok.add(&pos).reshape(&[batch, t, self.config.d_model]);
        for (block, moe) in self.blocks.iter_mut().zip(self.moes.iter_mut()) {
            x = block.forward(&x, train);
            if let Some(m) = moe {
                let flat = x.reshape(&[batch * t, self.config.d_model]);
                let y = m.0.forward(&flat, train);
                x = x.add(&y.reshape(x.shape()));
            }
        }
        let x = self
            .ln_f
            .forward(&x.reshape(&[batch * t, self.config.d_model]), train);
        self.head.forward(&x, train)
    }

    /// Backward from the loss gradient on the logits.
    pub fn backward(&mut self, grad: &Tensor, batch: usize) {
        let t = grad.rows() / batch;
        let d = self.config.d_model;
        let g = self.head.backward(grad);
        let g = self.ln_f.backward(&g);
        let mut g = g.reshape(&[batch, t, d]);
        for (block, moe) in self.blocks.iter_mut().zip(self.moes.iter_mut()).rev() {
            if let Some(m) = moe {
                let flat = g.reshape(&[batch * t, d]);
                let dmoe = m.0.backward(&flat);
                g = g.add(&dmoe.reshape(g.shape()));
            }
            g = block.backward(&g);
        }
        let g2d = g.reshape(&[batch * t, d]);
        self.tok_emb.backward(&g2d);
        self.pos_emb.backward(&g2d);
    }

    /// One training step on a next-token batch; returns the LM loss (mean
    /// cross-entropy, natural log).
    pub fn train_step(
        &mut self,
        inputs: &[usize],
        targets: &[usize],
        batch: usize,
        opt: &mut Adam,
    ) -> f64 {
        self.zero_grads();
        let logits = self.forward(inputs, batch, true);
        let (loss, grad) = softmax_cross_entropy(&logits, targets);
        self.backward(&grad, batch);
        opt.step(self);
        loss
    }

    /// Mean LM loss over a held-out corpus slice (no gradients).
    pub fn evaluate(&mut self, corpus: &[usize], windows: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = self.config.seq_len;
        let mut total = 0.0f64;
        for _ in 0..windows {
            let o = rng.gen_range(0..corpus.len() - t - 1);
            let logits = self.forward(&corpus[o..o + t], 1, false);
            let (loss, _) = softmax_cross_entropy(&logits, &corpus[o + 1..o + t + 1]);
            total += loss;
        }
        total / windows as f64
    }

    /// Total log-probability of `tokens[1..]` given the running context —
    /// the scoring primitive behind the few-shot multiple-choice tasks.
    pub fn score(&mut self, tokens: &[usize]) -> f64 {
        let t = tokens.len().min(self.config.seq_len);
        let tokens = &tokens[tokens.len() - t..];
        let logits = self.forward(tokens, 1, false);
        let v = self.config.vocab;
        let mut total = 0.0f64;
        for i in 0..t - 1 {
            let row = &logits.data()[i * v..(i + 1) * v];
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let logsum = max as f64
                + row
                    .iter()
                    .map(|&l| ((l - max) as f64).exp())
                    .sum::<f64>()
                    .ln();
            total += logits.data()[i * v + tokens[i + 1]] as f64 - logsum;
        }
        total
    }

    /// Greedy generation of `n` tokens after `prompt`.
    pub fn generate(&mut self, prompt: &[usize], n: usize) -> Vec<usize> {
        let mut seq = prompt.to_vec();
        for _ in 0..n {
            let t = seq.len().min(self.config.seq_len);
            let ctx = &seq[seq.len() - t..];
            let logits = self.forward(ctx, 1, false);
            let v = self.config.vocab;
            let row = &logits.data()[(t - 1) * v..t * v];
            let next = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(i, _)| i)
                .expect("nonempty");
            seq.push(next);
        }
        seq
    }
}

impl HasParams for Gpt {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.tok_emb.visit_params(f);
        self.pos_emb.visit_params(f);
        for b in &mut self.blocks {
            b.visit_params(f);
        }
        for m in self.moes.iter_mut().flatten() {
            m.0.visit_params(f);
        }
        self.ln_f.visit_params(f);
        self.head.visit_params(f);
    }
}

/// Result of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingRun {
    /// Final training loss.
    pub final_loss: f64,
    /// Held-out evaluation loss.
    pub eval_loss: f64,
    /// Loss every `eval_every` iterations.
    pub curve: Vec<f64>,
}

/// Trains a GPT on the synthetic corpus; deterministic given seeds.
pub fn train_lm(
    config: GptConfig,
    qcfg: QuantConfig,
    corpus: &[usize],
    iters: usize,
    batch: usize,
    lr: f32,
    seed: u64,
) -> (Gpt, TrainingRun) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = Gpt::new(&mut rng, config, qcfg);
    let mut opt = Adam::new(lr);
    let mut data_rng = StdRng::seed_from_u64(seed ^ 0xdead);
    let mut curve = Vec::new();
    let mut loss_acc = 0.0;
    let mut final_loss = f64::NAN;
    let eval_every = (iters / 10).max(1);
    for i in 0..iters {
        let (x, y) = data::lm_batch(&mut data_rng, corpus, batch, config.seq_len);
        let loss = model.train_step(&x, &y, batch, &mut opt);
        loss_acc += loss;
        if (i + 1) % eval_every == 0 {
            curve.push(loss_acc / eval_every as f64);
            loss_acc = 0.0;
        }
        final_loss = loss;
    }
    let eval_loss = model.evaluate(corpus, 16, seed ^ 0xbeef);
    (
        model,
        TrainingRun {
            final_loss,
            eval_loss,
            curve,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_nn::TensorFormat;

    fn corpus() -> Vec<usize> {
        data::markov_corpus(1, 4000, 0.4)
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = Gpt::new(&mut rng, GptConfig::tiny(), QuantConfig::fp32());
        let tokens: Vec<usize> = (0..32).map(|i| i % data::LM_VOCAB).collect();
        let a = m.forward(&tokens, 2, false);
        assert_eq!(a.shape(), &[32, data::LM_VOCAB]);
        let b = m.forward(&tokens, 2, false);
        assert_eq!(a, b);
    }

    #[test]
    fn training_reduces_loss() {
        let c = corpus();
        let (_, run) = train_lm(GptConfig::tiny(), QuantConfig::fp32(), &c, 60, 4, 3e-3, 7);
        let first = run.curve.first().copied().expect("curve");
        assert!(
            run.eval_loss < first,
            "no learning: first {first} eval {}",
            run.eval_loss
        );
        // Better than the uniform baseline ln(24) ≈ 3.18.
        assert!(run.eval_loss < (data::LM_VOCAB as f64).ln());
    }

    #[test]
    fn mx9_training_tracks_fp32() {
        let c = corpus();
        let (_, fp32) = train_lm(GptConfig::tiny(), QuantConfig::fp32(), &c, 50, 4, 3e-3, 11);
        let (_, mx9) = train_lm(
            GptConfig::tiny(),
            QuantConfig::uniform(TensorFormat::MX9),
            &c,
            50,
            4,
            3e-3,
            11,
        );
        let gap = (fp32.eval_loss - mx9.eval_loss).abs();
        assert!(
            gap < 0.25,
            "MX9 diverged from FP32: {} vs {}",
            fp32.eval_loss,
            mx9.eval_loss
        );
    }

    #[test]
    fn score_prefers_likely_continuations() {
        let c = corpus();
        let (mut m, _) = train_lm(GptConfig::tiny(), QuantConfig::fp32(), &c, 80, 4, 3e-3, 13);
        // Score a real corpus fragment vs a shuffled one.
        let real: Vec<usize> = c[100..110].to_vec();
        let mut fake = real.clone();
        fake.reverse();
        let sr = m.score(&real);
        let sf = m.score(&fake);
        assert!(sr > sf, "real {sr} should beat shuffled {sf}");
    }

    #[test]
    fn generate_extends_prompt() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = Gpt::new(&mut rng, GptConfig::tiny(), QuantConfig::fp32());
        let out = m.generate(&[1, 2, 3], 5);
        assert_eq!(out.len(), 8);
        assert_eq!(&out[..3], &[1, 2, 3]);
        assert!(out.iter().all(|&t| t < data::LM_VOCAB));
    }

    #[test]
    fn moe_variant_trains() {
        let c = corpus();
        let cfg = GptConfig {
            experts: 4,
            ..GptConfig::tiny()
        };
        let (_, run) = train_lm(cfg, QuantConfig::fp32(), &c, 40, 4, 3e-3, 5);
        assert!(
            run.eval_loss < (data::LM_VOCAB as f64).ln() + 0.1,
            "MoE loss {}",
            run.eval_loss
        );
    }

    #[test]
    fn direct_cast_changes_outputs_but_not_much_for_mx9() {
        let c = corpus();
        let (mut m, _) = train_lm(GptConfig::tiny(), QuantConfig::fp32(), &c, 40, 4, 3e-3, 17);
        let base = m.evaluate(&c, 8, 99);
        m.set_quant(QuantConfig::weights_activations(
            TensorFormat::MX9,
            TensorFormat::MX9,
        ));
        let cast = m.evaluate(&c, 8, 99);
        assert!(
            (cast - base).abs() < 0.05,
            "MX9 direct cast moved loss {base} -> {cast}"
        );
        m.set_quant(QuantConfig::weights_activations(
            TensorFormat::MX4,
            TensorFormat::MX4,
        ));
        let cast4 = m.evaluate(&c, 8, 99);
        assert!(cast4 > cast, "MX4 cast should be worse: {cast4} vs {cast}");
    }

    #[test]
    fn ladder_configs_grow() {
        let mut prev = 0;
        for step in 0..5 {
            let c = GptConfig::ladder(step);
            let mut rng = StdRng::seed_from_u64(0);
            let mut m = Gpt::new(&mut rng, c, QuantConfig::fp32());
            let n = m.param_count();
            assert!(n > prev, "ladder step {step} did not grow: {n}");
            prev = n;
        }
    }
}

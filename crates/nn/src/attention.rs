//! Multi-head self-attention and the transformer block, with MX quantization
//! on every internal tensor op (the paper quantizes *all* tensor reductions,
//! including `Q·Kᵀ` and `P·V`, while softmax stays a vector op).

use crate::format::cast_elementwise;
use crate::layers::{Activation, ActivationLayer, Layer, LayerNorm, Linear};
use crate::param::{HasParams, Param};
use crate::qflow::{quantized_matmul, transient_matmul, QuantConfig};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use std::ops::Range;

/// Rows `rows`, columns `cols` of a row-major matrix `d` wide, copied once
/// into a tensor: one head of one sequence.
fn block(x: &[f32], d: usize, rows: Range<usize>, cols: Range<usize>) -> Tensor {
    let (m, w) = (rows.len(), cols.len());
    let mut out = Vec::with_capacity(m * w);
    for row in x[rows.start * d..rows.end * d].chunks_exact(d) {
        out.extend_from_slice(&row[cols.clone()]);
    }
    Tensor::from_vec(out, &[m, w])
}

/// Writes `src` (`cols.len()` wide) over columns `cols` of the rows of a
/// row-major matrix `d` wide starting at row `row0`: [`block`]'s inverse.
fn put_block(x: &mut [f32], d: usize, row0: usize, cols: Range<usize>, src: &[f32]) {
    let rows = x[row0 * d..].chunks_exact_mut(d);
    for (row, s) in rows.zip(src.chunks_exact(cols.len())) {
        row[cols.clone()].copy_from_slice(s);
    }
}

/// Per-(batch, head) cache for the backward pass.
#[derive(Debug, Clone)]
pub(crate) struct HeadCache {
    q: Tensor,
    k: Tensor,
    v: Tensor,
    probs: Tensor,
}

/// The head-mixing core of attention — per (batch, head): `softmax(Q·Kᵀ/√dh)`
/// (optionally causally masked), cast to the element-wise format, times `V`,
/// scattered into `concat`. `q`, `k`, `v` and `concat` are row-major
/// `[b·t, d]` with `d = concat.len() / (b·t)`; `b` follows from their
/// length.
///
/// Shared verbatim by [`MultiHeadAttention::forward`] and the `plan`
/// executor's `AttnMix` node (which passes arena slices), which is what
/// keeps planned execution bit-identical to the dynamic path. `caches`
/// collects the per-head tensors the backward pass needs (training only;
/// the plan path passes `None`). The operands, geometry and formats
/// genuinely vary per call site.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attention_mix(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    concat: &mut [f32],
    t: usize,
    d: usize,
    n_heads: usize,
    causal: bool,
    fwd: crate::format::TensorFormat,
    elem: crate::format::TensorFormat,
    mut caches: Option<&mut Vec<HeadCache>>,
) {
    let dh = d / n_heads;
    let scale = 1.0 / (dh as f32).sqrt();
    for bi in 0..concat.len() / (t * d).max(1) {
        let rows = bi * t..(bi + 1) * t;
        for h in 0..n_heads {
            let cols = h * dh..(h + 1) * dh;
            let q_h = block(q, d, rows.clone(), cols.clone());
            let k_h = block(k, d, rows.clone(), cols.clone());
            let v_h = block(v, d, rows.clone(), cols.clone());
            // Scores: Q·Kᵀ is a tensor op -> quantized operands. Kᵀ and V
            // are fresh per request: their planes live for one product.
            let mut scores = transient_matmul(&q_h, &k_h.transpose2d(), fwd).scale(scale);
            if causal {
                // One data_mut borrow for the whole mask (each call
                // bumps the tensor generation).
                let s = scores.data_mut();
                for i in 0..t {
                    for j in (i + 1)..t {
                        s[i * t + j] = -1e9;
                    }
                }
            }
            let probs = cast_elementwise(&scores.softmax_rows(), elem);
            // Context: P·V is a tensor op -> quantized operands.
            let out_h = transient_matmul(&probs, &v_h, fwd);
            put_block(concat, d, rows.start, cols, out_h.data());
            if let Some(caches) = caches.as_deref_mut() {
                caches.push(HeadCache {
                    q: q_h,
                    k: k_h,
                    v: v_h,
                    probs,
                });
            }
        }
    }
}

/// Multi-head self-attention with optional causal masking.
#[derive(Debug)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    n_heads: usize,
    causal: bool,
    cfg: QuantConfig,
    cache: Option<(Vec<HeadCache>, usize, usize)>, // caches, batch, seq_len
}

impl MultiHeadAttention {
    /// Creates an attention module over `d_model` features with `n_heads`
    /// heads.
    ///
    /// # Panics
    ///
    /// Panics if `n_heads` does not divide `d_model`.
    pub fn new(
        rng: &mut StdRng,
        d_model: usize,
        n_heads: usize,
        causal: bool,
        cfg: QuantConfig,
    ) -> Self {
        assert!(d_model.is_multiple_of(n_heads), "heads must divide d_model");
        MultiHeadAttention {
            wq: Linear::new(rng, d_model, d_model, true, cfg),
            wk: Linear::new(rng, d_model, d_model, true, cfg),
            wv: Linear::new(rng, d_model, d_model, true, cfg),
            wo: Linear::new(rng, d_model, d_model, true, cfg),
            n_heads,
            causal,
            cfg,
            cache: None,
        }
    }

    /// Replaces the quantization config on all projections and internal ops.
    pub fn set_quant(&mut self, cfg: QuantConfig) {
        self.cfg = cfg;
        self.wq.set_quant(cfg);
        self.wk.set_quant(cfg);
        self.wv.set_quant(cfg);
        self.wo.set_quant(cfg);
    }

    /// Forward over `x` of shape `[batch, seq, d_model]`.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let (b, t, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let x2d = x.reshape(&[b * t, d]);
        let q = self.wq.forward(&x2d, train);
        let k = self.wk.forward(&x2d, train);
        let v = self.wv.forward(&x2d, train);
        let mut caches = Vec::new();
        let mut concat = Tensor::zeros(&[b * t, d]);
        attention_mix(
            q.data(),
            k.data(),
            v.data(),
            concat.data_mut(),
            t,
            d,
            self.n_heads,
            self.causal,
            self.cfg.fwd,
            self.cfg.elementwise,
            train.then_some(&mut caches),
        );
        if train {
            self.cache = Some((caches, b, t));
        }
        self.wo.forward(&concat, train).reshape(&[b, t, d])
    }

    /// `(wq, wk, wv, wo, n_heads, causal)` — what the `plan` module needs to
    /// lower this attention into projection GEMMs plus an `AttnMix` node.
    pub(crate) fn plan_parts(&self) -> (&Linear, &Linear, &Linear, &Linear, usize, bool) {
        (
            &self.wq,
            &self.wk,
            &self.wv,
            &self.wo,
            self.n_heads,
            self.causal,
        )
    }

    /// Backward from `grad` of shape `[batch, seq, d_model]`.
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        let (caches, b, t) = self.cache.take().expect("backward before forward");
        let d = grad.shape()[2];
        let dh = d / self.n_heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let g2d = grad.reshape(&[b * t, d]);
        let d_concat = self.wo.backward(&g2d);
        let mut dq_all = Tensor::zeros(&[b * t, d]);
        let mut dk_all = Tensor::zeros(&[b * t, d]);
        let mut dv_all = Tensor::zeros(&[b * t, d]);
        for bi in 0..b {
            for h in 0..self.n_heads {
                let cache = &caches[bi * self.n_heads + h];
                let cols = h * dh..(h + 1) * dh;
                let d_out = block(d_concat.data(), d, bi * t..(bi + 1) * t, cols.clone());
                // dV = Q(Pᵀ)·Q(dOut); dP = Q(dOut)·Q(Vᵀ).
                let dv = quantized_matmul(&cache.probs.transpose2d(), &d_out, self.cfg.bwd);
                let dp = quantized_matmul(&d_out, &cache.v.transpose2d(), self.cfg.bwd);
                // Softmax backward: dS = P ∘ (dP − rowsum(dP ∘ P)).
                let mut ds = dp.mul(&cache.probs);
                {
                    let dsd = ds.data_mut();
                    for r in 0..t {
                        let row_sum: f32 = dsd[r * t..(r + 1) * t].iter().sum();
                        for j in 0..t {
                            let p = cache.probs.data()[r * t + j];
                            dsd[r * t + j] -= p * row_sum;
                        }
                    }
                }
                let ds = ds.scale(scale);
                let dq = quantized_matmul(&ds, &cache.k, self.cfg.bwd);
                let dk = quantized_matmul(&ds.transpose2d(), &cache.q, self.cfg.bwd);
                for (all, g) in [(&mut dq_all, dq), (&mut dk_all, dk), (&mut dv_all, dv)] {
                    put_block(all.data_mut(), d, bi * t, cols.clone(), g.data());
                }
            }
        }
        let dx = self
            .wq
            .backward(&dq_all)
            .add(&self.wk.backward(&dk_all))
            .add(&self.wv.backward(&dv_all));
        dx.reshape(grad.shape())
    }
}

impl HasParams for MultiHeadAttention {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
    }
}

/// Pre-norm transformer block: `x + Attn(LN(x))`, then `x + MLP(LN(x))`.
#[derive(Debug)]
pub struct TransformerBlock {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    fc1: Linear,
    act: ActivationLayer,
    fc2: Linear,
}

impl TransformerBlock {
    /// Creates a block with a 4× MLP expansion.
    pub fn new(
        rng: &mut StdRng,
        d_model: usize,
        n_heads: usize,
        causal: bool,
        cfg: QuantConfig,
    ) -> Self {
        TransformerBlock {
            ln1: LayerNorm::new(d_model, cfg.elementwise),
            attn: MultiHeadAttention::new(rng, d_model, n_heads, causal, cfg),
            ln2: LayerNorm::new(d_model, cfg.elementwise),
            fc1: Linear::new(rng, d_model, 4 * d_model, true, cfg),
            act: ActivationLayer::new(Activation::Gelu, cfg.elementwise),
            fc2: Linear::new(rng, 4 * d_model, d_model, true, cfg),
        }
    }

    /// Replaces the quantization config everywhere in the block: every
    /// tensor op, and the element-wise casts of both norms and the GELU.
    pub fn set_quant(&mut self, cfg: QuantConfig) {
        self.ln1.set_quant(cfg);
        self.attn.set_quant(cfg);
        self.ln2.set_quant(cfg);
        self.fc1.set_quant(cfg);
        self.act.set_quant(cfg);
        self.fc2.set_quant(cfg);
    }

    /// `(ln1, attn, ln2, fc1, act, fc2)` — what the `plan` module needs to
    /// lower one pre-norm block into a stage.
    pub(crate) fn plan_parts(
        &self,
    ) -> (
        &LayerNorm,
        &MultiHeadAttention,
        &LayerNorm,
        &Linear,
        &ActivationLayer,
        &Linear,
    ) {
        (
            &self.ln1, &self.attn, &self.ln2, &self.fc1, &self.act, &self.fc2,
        )
    }

    /// Forward over `[batch, seq, d_model]`.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let normed = self.ln1.forward(x, train);
        let attn_out = self.attn.forward(&normed.reshape(x.shape()), train);
        let x1 = x.add(&attn_out);
        let normed2 = self.ln2.forward(&x1, train);
        let h = self.fc1.forward(&normed2, train);
        let h = self.act.forward(&h, train);
        let h = self.fc2.forward(&h, train);
        x1.add(&h.reshape(x.shape()))
    }

    /// Backward from `[batch, seq, d_model]`.
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        let g_mlp = self.fc2.backward(grad);
        let g_mlp = self.act.backward(&g_mlp);
        let g_mlp = self.fc1.backward(&g_mlp);
        let g_ln2 = self.ln2.backward(&g_mlp);
        let g_x1 = grad.add(&g_ln2.reshape(grad.shape()));
        let g_attn = self.attn.backward(&g_x1);
        let g_ln1 = self.ln1.backward(&g_attn);
        g_x1.add(&g_ln1.reshape(grad.shape()))
    }
}

impl HasParams for TransformerBlock {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.ln1.visit_params(f);
        self.attn.visit_params(f);
        self.ln2.visit_params(f);
        self.fc1.visit_params(f);
        self.act.visit_params(f);
        self.fc2.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn input(b: usize, t: usize, d: usize) -> Tensor {
        Tensor::from_vec(
            (0..b * t * d)
                .map(|i| ((i * 31 % 17) as f32 - 8.0) * 0.05)
                .collect(),
            &[b, t, d],
        )
    }

    #[test]
    fn attention_shapes() {
        let mut attn = MultiHeadAttention::new(&mut rng(), 8, 2, true, QuantConfig::fp32());
        let x = input(2, 4, 8);
        let y = attn.forward(&x, true);
        assert_eq!(y.shape(), &[2, 4, 8]);
        let dx = attn.backward(&y);
        assert_eq!(dx.shape(), &[2, 4, 8]);
    }

    #[test]
    fn causal_mask_blocks_future() {
        // With causal masking, output at position 0 must not depend on
        // later positions.
        let mut attn = MultiHeadAttention::new(&mut rng(), 8, 2, true, QuantConfig::fp32());
        let x1 = input(1, 4, 8);
        let mut x2 = x1.clone();
        // Perturb the last position only.
        for c in 0..8 {
            x2.data_mut()[3 * 8 + c] += 1.0;
        }
        let y1 = attn.forward(&x1, false);
        let y2 = attn.forward(&x2, false);
        for c in 0..8 {
            assert_eq!(y1.data()[c], y2.data()[c], "position 0 leaked future info");
        }
    }

    #[test]
    fn non_causal_attends_everywhere() {
        let mut attn = MultiHeadAttention::new(&mut rng(), 8, 1, false, QuantConfig::fp32());
        let x1 = input(1, 4, 8);
        let mut x2 = x1.clone();
        for c in 0..8 {
            x2.data_mut()[3 * 8 + c] += 1.0;
        }
        let y1 = attn.forward(&x1, false);
        let y2 = attn.forward(&x2, false);
        let diff: f32 = (0..8).map(|c| (y1.data()[c] - y2.data()[c]).abs()).sum();
        assert!(diff > 1e-6, "bidirectional attention should see position 3");
    }

    #[test]
    fn attention_input_gradcheck() {
        let mut attn = MultiHeadAttention::new(&mut rng(), 4, 1, true, QuantConfig::fp32());
        let x = input(1, 3, 4);
        let y = attn.forward(&x, true);
        let dx = attn.backward(&y);
        let eps = 1e-3;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp = attn.forward(&xp, false).sq_norm() / 2.0;
            let lm = attn.forward(&xm, false).sq_norm() / 2.0;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - dx.data()[i]).abs() < 3e-2 * (1.0 + num.abs()),
                "attention grad mismatch at {i}: {num} vs {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn transformer_block_gradcheck() {
        let mut blk = TransformerBlock::new(&mut rng(), 4, 1, true, QuantConfig::fp32());
        let x = input(1, 3, 4);
        let y = blk.forward(&x, true);
        assert_eq!(y.shape(), x.shape());
        let dx = blk.backward(&y);
        let eps = 1e-3;
        for i in (0..x.numel()).step_by(3) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp = blk.forward(&xp, false).sq_norm() / 2.0;
            let lm = blk.forward(&xm, false).sq_norm() / 2.0;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - dx.data()[i]).abs() < 5e-2 * (1.0 + num.abs()),
                "block grad mismatch at {i}: {num} vs {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn quantized_attention_stays_close_to_fp32() {
        let x = input(1, 8, 16);
        let mut a32 = MultiHeadAttention::new(&mut rng(), 16, 2, true, QuantConfig::fp32());
        let mut a9 = MultiHeadAttention::new(
            &mut rng(),
            16,
            2,
            true,
            QuantConfig::uniform(crate::format::TensorFormat::MX9),
        );
        let y32 = a32.forward(&x, false);
        let y9 = a9.forward(&x, false);
        let rel = y9.sub(&y32).sq_norm() / y32.sq_norm().max(1e-12);
        assert!(rel < 1e-3, "MX9 attention relative error {rel}");
    }

    #[test]
    fn param_counts() {
        let mut attn = MultiHeadAttention::new(&mut rng(), 8, 2, true, QuantConfig::fp32());
        // 4 projections of 8x8 + bias 8.
        assert_eq!(attn.param_count(), 4 * (64 + 8));
        let mut blk = TransformerBlock::new(&mut rng(), 8, 2, true, QuantConfig::fp32());
        // attention + 2 layernorms (2*8 each) + fc1 (8*32+32) + fc2 (32*8+8).
        assert_eq!(blk.param_count(), 4 * 72 + 2 * 16 + (256 + 32) + (256 + 8));
    }
}

//! Image classification benchmarks (Table III "Image Classification"
//! family): a tiny vision transformer (DeiT stand-in), a residual CNN
//! (ResNet stand-in), and a pointwise-heavy CNN (MobileNet stand-in), all on
//! the procedural shapes dataset.

use crate::data::{self, LabeledImage, IMAGE_SIDE, SHAPE_CLASSES};
use crate::metrics::top1_accuracy;
use mx_nn::attention::TransformerBlock;
use mx_nn::conv::{mean_pool, patchify, Conv2d, GlobalAvgPool};
use mx_nn::layers::{Activation, Layer, LayerNorm, Linear};
use mx_nn::loss::softmax_cross_entropy;
use mx_nn::optim::Adam;
use mx_nn::param::{HasParams, Param};
use mx_nn::plan::{CompiledPlan, Loc, PlanError, Planner, Stage};
use mx_nn::qflow::QuantConfig;
use mx_nn::tensor::Tensor;
use rand::rngs::StdRng;

/// A classifier over `[B, 1, side, side]` image tensors.
pub trait ImageClassifier: HasParams {
    /// Produces logits `[B, SHAPE_CLASSES]`.
    fn logits(&mut self, x: &Tensor, train: bool) -> Tensor;
    /// Backpropagates from the logits gradient.
    fn backprop(&mut self, grad: &Tensor);
    /// Switches quantization config (direct cast).
    fn set_quant(&mut self, qcfg: QuantConfig);
}

/// Tiny vision transformer: 4×4 patches → linear embed → blocks → mean pool.
#[derive(Debug)]
pub struct TinyViT {
    patch_embed: Linear,
    blocks: Vec<TransformerBlock>,
    ln: LayerNorm,
    head: Linear,
    d_model: usize,
    patches: usize,
}

const PATCH: usize = 4;

impl TinyViT {
    /// Builds the model (`d_model` scales DeiT-Tiny vs DeiT-Small).
    pub fn new(rng: &mut StdRng, d_model: usize, n_layers: usize, qcfg: QuantConfig) -> Self {
        let per_side = IMAGE_SIDE / PATCH;
        TinyViT {
            patch_embed: Linear::new(rng, PATCH * PATCH, d_model, true, qcfg),
            blocks: (0..n_layers)
                .map(|_| TransformerBlock::new(rng, d_model, 2, false, qcfg))
                .collect(),
            ln: LayerNorm::new(d_model, qcfg.elementwise),
            head: Linear::new(rng, d_model, SHAPE_CLASSES, true, qcfg),
            d_model,
            patches: per_side * per_side,
        }
    }

    /// Lowers the inference forward of one `IMAGE_SIDE × IMAGE_SIDE`
    /// image into a [`CompiledPlan`] under `cfg` that executes batches of
    /// up to `batch` images: patchify + embed, one transformer-block stage
    /// per block over the patch sequence, then norm → mean pool → head.
    pub fn compile_plan(&self, cfg: QuantConfig, batch: usize) -> Result<CompiledPlan, PlanError> {
        let (d, t) = (self.d_model, self.patches);
        let pixels = IMAGE_SIDE * IMAGE_SIDE;
        let mut p = Planner::new();
        p.pixels_input(pixels);
        let mut s = Stage::new(pixels, t * d);
        let patches = s.alloc(t * PATCH * PATCH);
        s.patchify(Loc::In, patches, IMAGE_SIDE, PATCH);
        s.gemm(&self.patch_embed, patches, Loc::Out, t, cfg, None)?;
        p.push_stage(s);
        for blk in &self.blocks {
            p.transformer_block_stage(blk, cfg, t)?;
        }
        let mut s = Stage::new(t * d, SHAPE_CLASSES);
        let normed = s.alloc(t * d);
        s.norm(&self.ln, Loc::In, normed, t, cfg);
        let pooled = s.alloc(d);
        s.mean_pool(normed, pooled, t, d);
        s.free(normed, t * d);
        s.gemm(&self.head, pooled, Loc::Out, 1, cfg, None)?;
        p.push_stage(s);
        p.finish(batch)
    }

    fn patchify(&self, x: &Tensor) -> Tensor {
        let rows = x.shape()[0] * self.patches;
        let mut out = Tensor::zeros(&[rows, PATCH * PATCH]);
        patchify(x.data(), out.data_mut(), IMAGE_SIDE, PATCH);
        out
    }
}

impl HasParams for TinyViT {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.patch_embed.visit_params(f);
        for b in &mut self.blocks {
            b.visit_params(f);
        }
        self.ln.visit_params(f);
        self.head.visit_params(f);
    }
}

impl ImageClassifier for TinyViT {
    fn logits(&mut self, x: &Tensor, train: bool) -> Tensor {
        let b = x.shape()[0];
        let patches = self.patchify(x);
        let emb = self.patch_embed.forward(&patches, train);
        let mut h = emb.reshape(&[b, self.patches, self.d_model]);
        for blk in &mut self.blocks {
            h = blk.forward(&h, train);
        }
        let h2d = self
            .ln
            .forward(&h.reshape(&[b * self.patches, self.d_model]), train);
        let mut pooled = Tensor::zeros(&[b, self.d_model]);
        mean_pool(h2d.data(), pooled.data_mut(), self.patches, self.d_model);
        self.head.forward(&pooled, train)
    }

    fn backprop(&mut self, grad: &Tensor) {
        let b = grad.rows();
        let d_pooled = self.head.backward(grad);
        let mut g = Tensor::zeros(&[b * self.patches, self.d_model]);
        {
            let gd = g.data_mut();
            for bi in 0..b {
                for p in 0..self.patches {
                    for c in 0..self.d_model {
                        gd[(bi * self.patches + p) * self.d_model + c] =
                            d_pooled.data()[bi * self.d_model + c] / self.patches as f32;
                    }
                }
            }
        }
        let g = self.ln.backward(&g);
        let mut g3d = g.reshape(&[b, self.patches, self.d_model]);
        for blk in self.blocks.iter_mut().rev() {
            g3d = blk.backward(&g3d);
        }
        let g2d = g3d.reshape(&[b * self.patches, self.d_model]);
        let _ = self.patch_embed.backward(&g2d);
    }

    fn set_quant(&mut self, qcfg: QuantConfig) {
        self.patch_embed.set_quant(qcfg);
        for b in &mut self.blocks {
            b.set_quant(qcfg);
        }
        self.ln.set_quant(qcfg);
        self.head.set_quant(qcfg);
    }
}

/// The CNNs' ReLU, in place: the activation loop the plan's fused `Conv`
/// and `Add` nodes run.
fn relu(mut t: Tensor) -> Tensor {
    Activation::Relu.apply_slice(t.data_mut());
    t
}

/// Residual CNN (ResNet stand-in): stem conv + `n_blocks` residual pairs +
/// global pool + linear.
#[derive(Debug)]
pub struct TinyResNet {
    stem: Conv2d,
    blocks: Vec<(Conv2d, Conv2d)>,
    pool: GlobalAvgPool,
    head: Linear,
    acts: Vec<(Tensor, Tensor)>, // per block: (pre-final-relu sum, a1 post-relu)
    stem_act: Option<Tensor>,
}

impl TinyResNet {
    /// Builds the model (`n_blocks` scales ResNet-18 vs ResNet-50).
    pub fn new(rng: &mut StdRng, channels: usize, n_blocks: usize, qcfg: QuantConfig) -> Self {
        TinyResNet {
            stem: Conv2d::new(rng, 1, channels, 3, qcfg),
            blocks: (0..n_blocks)
                .map(|_| {
                    (
                        Conv2d::new(rng, channels, channels, 3, qcfg),
                        Conv2d::new(rng, channels, channels, 3, qcfg),
                    )
                })
                .collect(),
            pool: GlobalAvgPool::new(),
            head: Linear::new(rng, channels, SHAPE_CLASSES, true, qcfg),
            acts: Vec::new(),
            stem_act: None,
        }
    }

    /// Lowers the inference forward of one `IMAGE_SIDE × IMAGE_SIDE`
    /// image into a [`CompiledPlan`] under `cfg` that executes batches of
    /// up to `batch` images: stem conv+ReLU, one stage per residual block
    /// (conv → conv → fused add+ReLU), then global pool → head.
    pub fn compile_plan(&self, cfg: QuantConfig, batch: usize) -> Result<CompiledPlan, PlanError> {
        let ch = self.head.d_in();
        let (side, hw) = (IMAGE_SIDE, IMAGE_SIDE * IMAGE_SIDE);
        let feat = ch * hw;
        let mut p = Planner::new();
        p.pixels_input(hw);
        let mut s = Stage::new(hw, feat);
        s.conv(&self.stem, Loc::In, Loc::Out, side, side, cfg, true)?;
        p.push_stage(s);
        for (c1, c2) in &self.blocks {
            let mut s = Stage::new(feat, feat);
            let a1 = s.alloc(feat);
            s.conv(c1, Loc::In, a1, side, side, cfg, true)?;
            let a2 = s.alloc(feat);
            s.conv(c2, a1, a2, side, side, cfg, false)?;
            s.free(a1, feat);
            s.add(Loc::In, a2, Loc::Out, feat, true);
            p.push_stage(s);
        }
        let mut s = Stage::new(feat, SHAPE_CLASSES);
        let pooled = s.alloc(ch);
        s.avg_pool(Loc::In, pooled, ch, hw);
        s.gemm(&self.head, pooled, Loc::Out, 1, cfg, None)?;
        p.push_stage(s);
        p.finish(batch)
    }
}

impl HasParams for TinyResNet {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.stem.visit_params(f);
        for (a, b) in &mut self.blocks {
            a.visit_params(f);
            b.visit_params(f);
        }
        self.head.visit_params(f);
    }
}

impl ImageClassifier for TinyResNet {
    fn logits(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.acts.clear();
        let mut h = relu(self.stem.forward(x, train));
        if train {
            self.stem_act = Some(h.clone());
        }
        for (c1, c2) in &mut self.blocks {
            let input = h.clone();
            let a1 = relu(c1.forward(&h, train));
            let a2 = c2.forward(&a1, train);
            let pre = input.add(&a2);
            h = relu(pre.clone());
            if train {
                self.acts.push((pre, a1));
            }
        }
        let pooled = self.pool.forward(&h, train);
        self.head.forward(&pooled, train)
    }

    fn backprop(&mut self, grad: &Tensor) {
        let g = self.head.backward(grad);
        let mut g = self.pool.backward(&g);
        for (i, (c1, c2)) in self.blocks.iter_mut().enumerate().rev() {
            let (pre_relu, a1) = &self.acts[i];
            // Final ReLU of the block.
            let g_sum = g.zip_map(pre_relu, |gv, pv| if pv > 0.0 { gv } else { 0.0 });
            // Residual: gradient flows both into the conv path and the skip.
            let g_a1 = c2.backward(&g_sum);
            let g_a1 = g_a1.zip_map(a1, |gv, av| if av > 0.0 { gv } else { 0.0 });
            let g_in = c1.backward(&g_a1);
            g = g_sum.add(&g_in);
        }
        // Stem ReLU mask (post-activation sign is exact for ReLU).
        let stem_act = self.stem_act.take().expect("backward before forward");
        let g = g.zip_map(&stem_act, |gv, av| if av > 0.0 { gv } else { 0.0 });
        let _ = self.stem.backward(&g);
    }

    fn set_quant(&mut self, qcfg: QuantConfig) {
        self.stem.set_quant(qcfg);
        for (a, b) in &mut self.blocks {
            a.set_quant(qcfg);
            b.set_quant(qcfg);
        }
        self.head.set_quant(qcfg);
    }
}

/// Pointwise-heavy CNN (MobileNet stand-in): 3×3 stem then 1×1 "pointwise"
/// convolutions only.
#[derive(Debug)]
pub struct TinyMobileNet {
    stem: Conv2d,
    pointwise: Vec<Conv2d>,
    pool: GlobalAvgPool,
    head: Linear,
    acts: Vec<Tensor>,
}

impl TinyMobileNet {
    /// Builds the model.
    pub fn new(rng: &mut StdRng, channels: usize, n_layers: usize, qcfg: QuantConfig) -> Self {
        TinyMobileNet {
            stem: Conv2d::new(rng, 1, channels, 3, qcfg),
            pointwise: (0..n_layers)
                .map(|_| Conv2d::new(rng, channels, channels, 1, qcfg))
                .collect(),
            pool: GlobalAvgPool::new(),
            head: Linear::new(rng, channels, SHAPE_CLASSES, true, qcfg),
            acts: Vec::new(),
        }
    }

    /// Lowers the inference forward of one `IMAGE_SIDE × IMAGE_SIDE`
    /// image into a [`CompiledPlan`] under `cfg` that executes batches of
    /// up to `batch` images: stem conv+ReLU, one conv+ReLU stage per
    /// pointwise layer, then global pool → head.
    pub fn compile_plan(&self, cfg: QuantConfig, batch: usize) -> Result<CompiledPlan, PlanError> {
        let ch = self.head.d_in();
        let (side, hw) = (IMAGE_SIDE, IMAGE_SIDE * IMAGE_SIDE);
        let feat = ch * hw;
        let mut p = Planner::new();
        p.pixels_input(hw);
        let mut s = Stage::new(hw, feat);
        s.conv(&self.stem, Loc::In, Loc::Out, side, side, cfg, true)?;
        p.push_stage(s);
        for c in &self.pointwise {
            let mut s = Stage::new(feat, feat);
            s.conv(c, Loc::In, Loc::Out, side, side, cfg, true)?;
            p.push_stage(s);
        }
        let mut s = Stage::new(feat, SHAPE_CLASSES);
        let pooled = s.alloc(ch);
        s.avg_pool(Loc::In, pooled, ch, hw);
        s.gemm(&self.head, pooled, Loc::Out, 1, cfg, None)?;
        p.push_stage(s);
        p.finish(batch)
    }
}

impl HasParams for TinyMobileNet {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.stem.visit_params(f);
        for c in &mut self.pointwise {
            c.visit_params(f);
        }
        self.head.visit_params(f);
    }
}

impl ImageClassifier for TinyMobileNet {
    fn logits(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.acts.clear();
        let mut h = relu(self.stem.forward(x, train));
        for c in &mut self.pointwise {
            if train {
                self.acts.push(h.clone());
            }
            h = relu(c.forward(&h, train));
            if train {
                self.acts.push(h.clone());
            }
        }
        let pooled = self.pool.forward(&h, train);
        self.head.forward(&pooled, train)
    }

    fn backprop(&mut self, grad: &Tensor) {
        let g = self.head.backward(grad);
        let mut g = self.pool.backward(&g);
        for (i, c) in self.pointwise.iter_mut().enumerate().rev() {
            let post = &self.acts[i * 2 + 1];
            let gv = g.zip_map(post, |gv, pv| if pv > 0.0 { gv } else { 0.0 });
            g = c.backward(&gv);
        }
        let _ = self.stem.backward(&g);
    }

    fn set_quant(&mut self, qcfg: QuantConfig) {
        self.stem.set_quant(qcfg);
        for c in &mut self.pointwise {
            c.set_quant(qcfg);
        }
        self.head.set_quant(qcfg);
    }
}

/// Result of a classification run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisionResult {
    /// Held-out top-1 accuracy (0–1).
    pub top1: f64,
    /// Final training loss.
    pub final_loss: f64,
}

/// Trains any [`ImageClassifier`] on the shapes dataset; returns held-out
/// accuracy.
pub fn train_classifier(
    model: &mut dyn ImageClassifier,
    iters: usize,
    lr: f32,
    seed: u64,
) -> VisionResult {
    let train_set = data::shape_images(seed, 192);
    let test_set = data::shape_images(seed ^ 0xff, 64);
    let mut opt = Adam::new(lr);
    let batch = 16;
    let mut loss = f64::NAN;
    for i in 0..iters {
        let start = (i * batch) % (train_set.len() - batch + 1);
        let chunk: Vec<LabeledImage> = train_set[start..start + batch].to_vec();
        let (x, y) = data::images_to_tensor(&chunk);
        model.zero_grads();
        let logits = model.logits(&x, true);
        let (l, grad) = softmax_cross_entropy(&logits, &y);
        model.backprop(&grad);
        opt.step(model as &mut dyn HasParams);
        loss = l;
    }
    let (x, y) = data::images_to_tensor(&test_set);
    let logits = model.logits(&x, false);
    VisionResult {
        top1: top1_accuracy(logits.data(), SHAPE_CLASSES, &y),
        final_loss: loss,
    }
}

/// Evaluates an already-trained classifier on a fresh held-out set.
pub fn evaluate_classifier(model: &mut dyn ImageClassifier, seed: u64) -> f64 {
    let test_set = data::shape_images(seed ^ 0xff, 64);
    let (x, y) = data::images_to_tensor(&test_set);
    let logits = model.logits(&x, false);
    top1_accuracy(logits.data(), SHAPE_CLASSES, &y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_nn::TensorFormat;
    use rand::SeedableRng;

    #[test]
    fn vit_learns_shapes() {
        // Seed pinned against the vendored RNG's stream (see vendor/rand).
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = TinyViT::new(&mut rng, 16, 1, QuantConfig::fp32());
        let r = train_classifier(&mut m, 40, 2e-3, 5);
        assert!(r.top1 > 0.6, "ViT accuracy {:.2}", r.top1);
    }

    #[test]
    fn resnet_learns_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = TinyResNet::new(&mut rng, 8, 1, QuantConfig::fp32());
        let r = train_classifier(&mut m, 30, 3e-3, 6);
        assert!(r.top1 > 0.6, "ResNet accuracy {:.2}", r.top1);
    }

    #[test]
    fn mobilenet_learns_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = TinyMobileNet::new(&mut rng, 8, 2, QuantConfig::fp32());
        let r = train_classifier(&mut m, 30, 3e-3, 7);
        assert!(r.top1 > 0.5, "MobileNet accuracy {:.2}", r.top1);
    }

    #[test]
    fn direct_cast_mx9_preserves_accuracy() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = TinyResNet::new(&mut rng, 8, 1, QuantConfig::fp32());
        let r = train_classifier(&mut m, 30, 3e-3, 8);
        let base = evaluate_classifier(&mut m, 8);
        m.set_quant(QuantConfig::uniform(TensorFormat::MX9));
        let cast = evaluate_classifier(&mut m, 8);
        assert!(
            (base - cast).abs() < 0.08,
            "MX9 cast moved accuracy {base:.2} -> {cast:.2} (trained to {:.2})",
            r.top1
        );
    }
}

//! Core layers with explicit forward/backward passes and Fig. 8 quantization
//! at every tensor-op boundary.
//!
//! Layers cache whatever the backward pass needs (always the *unquantized*
//! activations: the backward pass re-quantizes transposed tensors fresh,
//! which is exactly the transpose-before-quantize rule of §V).

use crate::format::{cast_elementwise, TensorFormat};
use crate::init;
use crate::param::{HasParams, Param};
use crate::qflow::{quantized_matmul, QuantConfig};
use crate::tanh::tanh;
use crate::tensor::{add_row_slice, Tensor};
use mx_core::gemm::{self, KernelBackend};
use rand::rngs::StdRng;

/// A differentiable module mapping one tensor to another.
pub trait Layer: HasParams {
    /// Forward pass. When `train` is true, caches activations for
    /// [`Layer::backward`].
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Backward pass: consumes `dL/dy`, accumulates parameter gradients,
    /// returns `dL/dx`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called without a preceding training-mode
    /// forward pass.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Replaces the quantization configuration on every tensor op this layer
    /// owns, and moves every element-wise cast it owns to
    /// `cfg.elementwise` (no-op for layers with neither). This is the
    /// paper's "direct cast": switching a trained model's formats in place.
    fn set_quant(&mut self, _cfg: QuantConfig) {}
}

/// Fully connected layer `y = x·W + b` with quantized operands (Fig. 8).
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix `[in, out]`.
    pub w: Param,
    /// Optional bias `[out]`.
    pub b: Option<Param>,
    cfg: QuantConfig,
    cached_x: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer with Xavier-initialized weights.
    pub fn new(rng: &mut StdRng, d_in: usize, d_out: usize, bias: bool, cfg: QuantConfig) -> Self {
        Linear {
            w: Param::new(init::xavier_uniform(rng, d_in, d_out)),
            b: bias.then(|| Param::new(Tensor::zeros(&[d_out]))),
            cfg,
            cached_x: None,
        }
    }

    /// Current quantization configuration.
    pub fn quant(&self) -> QuantConfig {
        self.cfg
    }

    /// Input width.
    pub fn d_in(&self) -> usize {
        self.w.value.shape()[0]
    }

    /// Output width.
    pub fn d_out(&self) -> usize {
        self.w.value.shape()[1]
    }
}

impl HasParams for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        if let Some(b) = &mut self.b {
            f(b);
        }
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            self.cached_x = Some(x.clone());
        }
        let mut y =
            crate::qflow::quantized_matmul_ab(x, &self.w.value, self.cfg.fwd, self.cfg.fwd_w);
        if let Some(b) = &self.b {
            add_row_slice(y.data_mut(), b.value.data());
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cached_x.as_ref().expect("backward before forward");
        let x2d = x.reshape(&[x.rows(), x.cols()]);
        let g2d = grad_out.reshape(&[grad_out.rows(), grad_out.cols()]);
        // dW[K,N] = Q(x^T)·Q(g): reduction over the batch dimension M.
        let dw = quantized_matmul(&x2d.transpose2d(), &g2d, self.cfg.bwd);
        self.w.accumulate(&dw);
        if let Some(b) = &mut self.b {
            b.accumulate(&g2d.sum_rows());
        }
        // dX[M,K] = Q(g)·Q(W^T): reduction over N; note the transpose
        // happens *before* quantization (transpose and MX quantization do
        // not commute).
        let dx = quantized_matmul(&g2d, &self.w.value.transpose2d(), self.cfg.bwd);
        dx.reshape(x.shape())
    }

    fn set_quant(&mut self, cfg: QuantConfig) {
        self.cfg = cfg;
    }
}

/// Element-wise activation functions.
///
/// GELU and Tanh evaluate `tanh` in-repo (module `tanh`), bit for bit
/// fdlibm's `tanhf`, so their results do not depend on the host libm.
/// Non-finite inputs follow from that:
///
/// - `Tanh`: `NaN → NaN`, `±∞ → ±1`, `±0 → ±0`, and `|x| ≥ 22 → ±1`.
/// - `Gelu`: `+∞ → +∞` and `NaN → NaN`, but `−∞ → NaN`, because the tanh
///   approximation computes `0.5·x·(1 + tanh(…))` and `1 + tanh(−∞)` is
///   `0`, so it ends in `−∞ · 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

/// `√(2/π)`, GELU's tanh-approximation scale.
#[inline(always)]
fn gelu_scale() -> f32 {
    (2.0f32 / std::f32::consts::PI).sqrt()
}

#[inline(always)]
fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + tanh(gelu_scale() * (x + 0.044715 * x * x * x)))
}

#[inline(always)]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// The activation loop with the `match` hoisted out of it. Inlined into
/// each tier of [`Activation::apply_slice_on`], so every instantiation is
/// compiled — and vectorized — with that tier's target features; the
/// element functions are branch-free, so every tier computes the same bits.
#[inline(always)]
fn apply_lanes(act: Activation, xs: &mut [f32]) {
    // Plain loops, not `for_each` closures: a closure is a function of its
    // own, which a tier's target features do not reach.
    match act {
        Activation::Relu => {
            for v in xs.iter_mut() {
                *v = v.max(0.0);
            }
        }
        Activation::Gelu => {
            for v in xs.iter_mut() {
                *v = gelu(*v);
            }
        }
        Activation::Sigmoid => {
            for v in xs.iter_mut() {
                *v = sigmoid(*v);
            }
        }
        Activation::Tanh => {
            for v in xs.iter_mut() {
                *v = tanh(*v);
            }
        }
    }
}

/// [`apply_lanes`] compiled for AVX-512F.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn apply_lanes_avx512(act: Activation, xs: &mut [f32]) {
    apply_lanes(act, xs);
}

/// [`apply_lanes`] compiled for AVX2.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn apply_lanes_avx2(act: Activation, xs: &mut [f32]) {
    apply_lanes(act, xs);
}

impl Activation {
    /// Applies the activation to every element of `xs` in place, on the
    /// instantiation [`gemm::selected_backend`] names — the same selection
    /// the GEMM kernels and the engine's block core follow. The one loop
    /// behind both the dynamic layer walk ([`ActivationLayer`]) and the
    /// `plan` executor's fused epilogues, so the two paths share their bits
    /// by sharing the code; every tier computes the same bits.
    pub(crate) fn apply_slice(self, xs: &mut [f32]) {
        self.apply_slice_on(gemm::selected_backend(), xs);
    }

    /// [`Activation::apply_slice`] on the `backend` tier, or the portable
    /// loop when this CPU lacks that tier's ISA.
    pub(crate) fn apply_slice_on(self, backend: KernelBackend, xs: &mut [f32]) {
        match backend {
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx512 if std::arch::is_x86_feature_detected!("avx512f") => {
                // SAFETY: AVX-512F was detected on this CPU by the guard.
                unsafe { apply_lanes_avx512(self, xs) }
            }
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                // SAFETY: AVX2 was detected on this CPU by the guard.
                unsafe { apply_lanes_avx2(self, xs) }
            }
            _ => apply_lanes(self, xs),
        }
    }

    fn derivative(self, x: f32) -> f32 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Gelu => {
                let c = gelu_scale();
                let u = c * (x + 0.044715 * x * x * x);
                let t = tanh(u);
                let du = c * (1.0 + 3.0 * 0.044715 * x * x);
                0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
            }
            Activation::Sigmoid => {
                let s = sigmoid(x);
                s * (1.0 - s)
            }
            Activation::Tanh => {
                let t = tanh(x);
                1.0 - t * t
            }
        }
    }
}

/// Activation layer (a "vector op" in Fig. 8: runs in the element-wise
/// format, BF16 in the paper).
#[derive(Debug, Clone)]
pub struct ActivationLayer {
    act: Activation,
    elem: TensorFormat,
    cached_x: Option<Tensor>,
}

impl ActivationLayer {
    /// Creates an activation layer computing in `elem` precision.
    pub fn new(act: Activation, elem: TensorFormat) -> Self {
        ActivationLayer {
            act,
            elem,
            cached_x: None,
        }
    }

    /// The activation — what the `plan` module needs to fuse this layer
    /// into the preceding GEMM node (the node's cast follows the plan's
    /// config, as [`Layer::set_quant`] moves this layer's).
    pub(crate) fn plan_parts(&self) -> Activation {
        self.act
    }
}

impl HasParams for ActivationLayer {
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

impl Layer for ActivationLayer {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            self.cached_x = Some(x.clone());
        }
        let mut y = x.data().to_vec();
        self.act.apply_slice(&mut y);
        cast_elementwise(&Tensor::from_vec(y, x.shape()), self.elem)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cached_x.as_ref().expect("backward before forward");
        let g = x.zip_map(grad_out, |xv, gv| self.act.derivative(xv) * gv);
        cast_elementwise(&g, self.elem)
    }

    fn set_quant(&mut self, cfg: QuantConfig) {
        self.elem = cfg.elementwise;
    }
}

/// Layer normalization over the last dimension, with learnable gain/bias.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Per-feature gain.
    pub gamma: Param,
    /// Per-feature bias.
    pub beta: Param,
    eps: f32,
    elem: TensorFormat,
    cache: Option<(Tensor, Vec<f32>)>, // normalized x, 1/std per row
}

impl LayerNorm {
    /// Creates a layer norm over `dim` features.
    pub fn new(dim: usize, elem: TensorFormat) -> Self {
        LayerNorm {
            gamma: Param::new(Tensor::full(&[dim], 1.0)),
            beta: Param::new(Tensor::zeros(&[dim])),
            eps: 1e-5,
            elem,
            cache: None,
        }
    }

    /// The epsilon — what the `plan` module needs to lower this layer into
    /// a `Norm` node (the node's cast follows the plan's config, as
    /// [`Layer::set_quant`] moves this layer's).
    pub(crate) fn plan_parts(&self) -> f32 {
        self.eps
    }
}

/// In-place row normalization (mean 0, variance 1 per `cols`-wide row),
/// pushing each row's `1/std` onto `inv_stds` when given one (the
/// training cache asks; inference does not). The one implementation
/// behind both [`LayerNorm::forward`] and the `plan` executor's `Norm`
/// node — sharing the exact accumulation order is what keeps the two paths
/// bit-identical.
pub(crate) fn normalize_rows(
    data: &mut [f32],
    cols: usize,
    eps: f32,
    mut inv_stds: Option<&mut Vec<f32>>,
) {
    for row in data.chunks_mut(cols) {
        let mean = row.iter().sum::<f32>() / cols as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
        let inv_std = 1.0 / (var + eps).sqrt();
        if let Some(inv_stds) = inv_stds.as_deref_mut() {
            inv_stds.push(inv_std);
        }
        for v in row.iter_mut() {
            *v = (*v - mean) * inv_std;
        }
    }
}

/// In-place per-feature gain/bias (`v ← v·γ[i % cols] + β[i % cols]`), the
/// second half of layer norm, shared with the `plan` executor.
pub(crate) fn scale_shift_rows(data: &mut [f32], cols: usize, gamma: &[f32], beta: &[f32]) {
    for (i, v) in data.iter_mut().enumerate() {
        *v = *v * gamma[i % cols] + beta[i % cols];
    }
}

impl HasParams for LayerNorm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let n = x.cols();
        let mut y = x.clone();
        let mut inv_stds = Vec::new();
        normalize_rows(y.data_mut(), n, self.eps, train.then_some(&mut inv_stds));
        if train {
            self.cache = Some((y.clone(), inv_stds));
        }
        scale_shift_rows(
            y.data_mut(),
            n,
            self.gamma.value.data(),
            self.beta.value.data(),
        );
        cast_elementwise(&y, self.elem)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (normalized, inv_stds) = self.cache.as_ref().expect("backward before forward");
        let n = grad_out.cols();
        let g: Vec<f32> = self.gamma.value.data().to_vec();
        // Parameter gradients.
        let mut dgamma = vec![0.0f32; n];
        let mut dbeta = vec![0.0f32; n];
        for (i, &go) in grad_out.data().iter().enumerate() {
            dgamma[i % n] += go * normalized.data()[i];
            dbeta[i % n] += go;
        }
        self.gamma.accumulate(&Tensor::from_vec(dgamma, &[n]));
        self.beta.accumulate(&Tensor::from_vec(dbeta, &[n]));
        // Input gradient (standard layer-norm backward).
        let mut dx = grad_out.clone();
        for (r, row) in dx.data_mut().chunks_mut(n).enumerate() {
            let x_row = &normalized.data()[r * n..(r + 1) * n];
            let mut sum_gy = 0.0f32;
            let mut sum_gy_x = 0.0f32;
            for (j, gv) in row.iter().enumerate() {
                let gy = gv * g[j];
                sum_gy += gy;
                sum_gy_x += gy * x_row[j];
            }
            let inv_std = inv_stds[r];
            for (j, gv) in row.iter_mut().enumerate() {
                let gy = *gv * g[j];
                *gv = inv_std * (gy - sum_gy / n as f32 - x_row[j] * sum_gy_x / n as f32);
            }
        }
        cast_elementwise(&dx, self.elem)
    }

    fn set_quant(&mut self, cfg: QuantConfig) {
        self.elem = cfg.elementwise;
    }
}

/// Embedding table with gather forward / scatter-add backward. Rows can be
/// quantized on lookup (the paper quantizes DLRM embedding tables to MX for
/// memory-bound inference).
#[derive(Debug, Clone)]
pub struct Embedding {
    /// The table, `[vocab, dim]`.
    pub table: Param,
    format: TensorFormat,
    cached_indices: Option<Vec<usize>>,
}

impl Embedding {
    /// Creates an embedding table initialized from `N(0, 0.02²)`.
    pub fn new(rng: &mut StdRng, vocab: usize, dim: usize) -> Self {
        Embedding {
            table: Param::new(init::normal(rng, 0.02, &[vocab, dim])),
            format: TensorFormat::Fp32,
            cached_indices: None,
        }
    }

    /// Quantizes rows on every lookup (storage-side quantization).
    pub fn set_format(&mut self, format: TensorFormat) {
        self.format = format;
    }

    /// The lookup-side storage format, for the `plan` module's table hoist.
    pub(crate) fn plan_format(&self) -> TensorFormat {
        self.format
    }

    /// Looks up `indices`, returning `[indices.len(), dim]`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn forward(&mut self, indices: &[usize], train: bool) -> Tensor {
        let (vocab, dim) = (self.table.value.shape()[0], self.table.value.shape()[1]);
        let mut out = Vec::with_capacity(indices.len() * dim);
        for &idx in indices {
            assert!(idx < vocab, "embedding index {idx} out of range {vocab}");
            out.extend_from_slice(&self.table.value.data()[idx * dim..(idx + 1) * dim]);
        }
        if train {
            self.cached_indices = Some(indices.to_vec());
        }
        let t = Tensor::from_vec(out, &[indices.len(), dim]);
        cast_elementwise(&t, self.format)
    }

    /// Scatter-adds `grad` (shape `[n, dim]`) into the table gradient.
    pub fn backward(&mut self, grad: &Tensor) {
        let indices = self
            .cached_indices
            .as_ref()
            .expect("backward before forward");
        let dim = self.table.value.shape()[1];
        assert_eq!(grad.rows(), indices.len());
        for (i, &idx) in indices.iter().enumerate() {
            let dst = &mut self.table.grad.data_mut()[idx * dim..(idx + 1) * dim];
            let src = &grad.data()[i * dim..(i + 1) * dim];
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d += s;
            }
        }
    }
}

impl HasParams for Embedding {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.table);
    }
}

/// A simple feed-forward stack of layers sharing one quantization config.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} layers)", self.layers.len())
    }
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl HasParams for Sequential {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut y = x.clone();
        for l in &mut self.layers {
            y = l.forward(&y, train);
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for l in self.layers.iter_mut().rev() {
            g = l.backward(&g);
        }
        g
    }

    fn set_quant(&mut self, cfg: QuantConfig) {
        for l in &mut self.layers {
            l.set_quant(cfg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    /// Finite-difference check of a layer's input gradient.
    fn check_input_grad(layer: &mut dyn Layer, x: &Tensor, tol: f32) {
        let y = layer.forward(x, true);
        // Loss = sum(y^2)/2 -> dL/dy = y.
        let dx = layer.backward(&y);
        let eps = 1e-3;
        for i in (0..x.numel()).step_by((x.numel() / 7).max(1)) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp = layer.forward(&xp, false).sq_norm() / 2.0;
            let lm = layer.forward(&xm, false).sq_norm() / 2.0;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - dx.data()[i]).abs() <= tol * (1.0 + num.abs()),
                "grad mismatch at {i}: numeric {num} vs analytic {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn activation_non_finite_semantics() {
        let inf = f32::INFINITY;
        let on_every_tier = |act: Activation, x: f32| {
            let ys = [
                KernelBackend::Scalar,
                KernelBackend::Avx2,
                KernelBackend::Avx512,
            ]
            .map(|b| {
                let mut y = [x];
                act.apply_slice_on(b, &mut y);
                y[0].to_bits()
            });
            assert!(ys.iter().all(|&y| y == ys[0]), "{act:?}({x}): tiers differ");
            f32::from_bits(ys[0])
        };
        let tanh = |x| on_every_tier(Activation::Tanh, x);
        assert!(tanh(f32::NAN).is_nan());
        assert_eq!(tanh(inf), 1.0);
        assert_eq!(tanh(-inf), -1.0);
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        for x in [22.0, 1e3, f32::MAX] {
            assert_eq!((tanh(x), tanh(-x)), (1.0, -1.0), "{x}");
        }
        let gelu = |x| on_every_tier(Activation::Gelu, x);
        assert_eq!(gelu(inf), inf);
        assert!(gelu(f32::NAN).is_nan());
        // 0.5·(−∞)·(1 + tanh(−∞)) = −∞ · 0.
        assert!(gelu(-inf).is_nan());
    }

    #[test]
    fn linear_forward_known_values() {
        let mut l = Linear::new(&mut rng(), 2, 2, true, QuantConfig::fp32());
        l.w.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        l.b.as_mut().unwrap().value = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let y = l.forward(&Tensor::from_vec(vec![1.0, 1.0], &[1, 2]), false);
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn linear_gradcheck_fp32() {
        let mut l = Linear::new(&mut rng(), 4, 3, true, QuantConfig::fp32());
        let x = Tensor::from_vec((0..8).map(|i| (i as f32 * 0.7).sin()).collect(), &[2, 4]);
        check_input_grad(&mut l, &x, 1e-2);
    }

    #[test]
    fn linear_weight_gradcheck_fp32() {
        let mut l = Linear::new(&mut rng(), 3, 2, false, QuantConfig::fp32());
        let x = Tensor::from_vec(vec![0.3, -0.2, 0.8, 0.1, 0.5, -0.7], &[2, 3]);
        let y = l.forward(&x, true);
        let _ = l.backward(&y);
        let analytic = l.w.grad.clone();
        let eps = 1e-3;
        for i in 0..analytic.numel() {
            let orig = l.w.value.data()[i];
            l.w.value.data_mut()[i] = orig + eps;
            let lp = l.forward(&x, false).sq_norm() / 2.0;
            l.w.value.data_mut()[i] = orig - eps;
            let lm = l.forward(&x, false).sq_norm() / 2.0;
            l.w.value.data_mut()[i] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - analytic.data()[i]).abs() < 1e-2 * (1.0 + num.abs()),
                "dW mismatch at {i}"
            );
        }
    }

    #[test]
    fn linear_quantized_forward_differs_from_fp32() {
        let x = Tensor::from_vec((0..32).map(|i| (i as f32 * 0.33).sin()).collect(), &[2, 16]);
        let mut l32 = Linear::new(&mut rng(), 16, 4, false, QuantConfig::fp32());
        let mut l4 = Linear::new(
            &mut rng(),
            16,
            4,
            false,
            QuantConfig::uniform(TensorFormat::MX4),
        );
        // Same weights (same seed).
        assert_eq!(l32.w.value, l4.w.value);
        let y32 = l32.forward(&x, false);
        let y4 = l4.forward(&x, false);
        assert_ne!(y32.data(), y4.data());
        // But MX9 stays close.
        let mut l9 = Linear::new(
            &mut rng(),
            16,
            4,
            false,
            QuantConfig::uniform(TensorFormat::MX9),
        );
        let y9 = l9.forward(&x, false);
        let e9 = y9.sub(&y32).sq_norm();
        let e4 = y4.sub(&y32).sq_norm();
        assert!(e9 < e4 * 0.1, "MX9 err {e9} vs MX4 err {e4}");
    }

    #[test]
    fn activations_gradcheck() {
        for act in [
            Activation::Relu,
            Activation::Gelu,
            Activation::Sigmoid,
            Activation::Tanh,
        ] {
            let mut l = ActivationLayer::new(act, TensorFormat::Fp32);
            let x = Tensor::from_vec(vec![0.5, -0.3, 1.2, -1.7, 0.01, 2.5, -0.9, 0.33], &[2, 4]);
            check_input_grad(&mut l, &x, 2e-2);
        }
    }

    #[test]
    fn gelu_known_values() {
        let mut y = [0.0, 100.0, -100.0];
        Activation::Gelu.apply_slice(&mut y);
        assert!((y[0]).abs() < 1e-7);
        assert!((y[1] - 100.0).abs() < 1e-3);
        assert!(y[2].abs() < 1e-3);
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let mut ln = LayerNorm::new(8, TensorFormat::Fp32);
        let x = Tensor::from_vec((0..16).map(|i| i as f32 * 3.0 + 5.0).collect(), &[2, 8]);
        let y = ln.forward(&x, false);
        for row in y.data().chunks(8) {
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn layernorm_gradcheck() {
        let mut ln = LayerNorm::new(4, TensorFormat::Fp32);
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.3, -0.8, 1.5, 0.2, -0.1], &[2, 4]);
        check_input_grad(&mut ln, &x, 2e-2);
    }

    #[test]
    fn embedding_gather_and_scatter() {
        let mut e = Embedding::new(&mut rng(), 10, 4);
        let out = e.forward(&[3, 3, 7], true);
        assert_eq!(out.shape(), &[3, 4]);
        assert_eq!(&out.data()[0..4], &out.data()[4..8]);
        let g = Tensor::full(&[3, 4], 1.0);
        e.backward(&g);
        // Index 3 appears twice: gradient 2.0; index 7 once: 1.0.
        assert_eq!(e.table.grad.data()[3 * 4], 2.0);
        assert_eq!(e.table.grad.data()[7 * 4], 1.0);
        assert_eq!(e.table.grad.data()[0], 0.0);
    }

    #[test]
    fn sequential_mlp_gradcheck() {
        let mut rng = rng();
        let mut seq = Sequential::new();
        seq.push(Box::new(Linear::new(
            &mut rng,
            4,
            8,
            true,
            QuantConfig::fp32(),
        )));
        seq.push(Box::new(ActivationLayer::new(
            Activation::Tanh,
            TensorFormat::Fp32,
        )));
        seq.push(Box::new(Linear::new(
            &mut rng,
            8,
            2,
            true,
            QuantConfig::fp32(),
        )));
        let x = Tensor::from_vec((0..8).map(|i| (i as f32 * 0.31).cos()).collect(), &[2, 4]);
        check_input_grad(&mut seq, &x, 2e-2);
        assert_eq!(seq.len(), 3);
        assert!(seq.param_count() > 0);
    }

    #[test]
    fn qat_config_uses_full_precision_backward() {
        // With fwd=MX4, bwd=FP32: forward is noisy but the backward matmuls
        // match the FP32 gradients of the quantized forward graph.
        let mut l = Linear::new(
            &mut rng(),
            16,
            2,
            false,
            QuantConfig::qat(TensorFormat::MX4),
        );
        let x = Tensor::from_vec((0..16).map(|i| (i as f32 * 0.3).sin()).collect(), &[1, 16]);
        let y = l.forward(&x, true);
        let dx = l.backward(&y);
        assert_eq!(dx.shape(), x.shape());
        assert!(l.w.grad.sq_norm() > 0.0);
    }
}

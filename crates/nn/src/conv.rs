//! 2-D convolution via im2col, sharing the quantized matmul primitive — the
//! reduction dimension of a convolution is the flattened patch
//! (`in_channels × kh × kw`), so MX blocks tile along it exactly as the
//! paper's compute flow requires for CNN benchmarks (ResNet/MobileNet rows
//! of Table III). Also the image-side slice kernels (the convolution
//! epilogue, global average pooling, ViT patch extraction and token mean)
//! that each layer shares with its `plan` executor node.

use crate::param::{HasParams, Param};
use crate::qflow::{quantized_matmul, QuantConfig};
use crate::tensor::Tensor;
use crate::{init, layers::Layer};
use rand::rngs::StdRng;

/// Stride-1, same-padding im2col lowering of one `[in_ch, h, w]` image into
/// `[h·w, in_ch·k·k]` patch rows. The one implementation behind both
/// [`Conv2d`]'s forward pass and the `plan` executor's `Conv` node — sharing
/// it keeps planned and dynamic convolutions bit-identical.
pub(crate) fn im2col(x: &[f32], in_ch: usize, k: usize, pad: usize, h: usize, w: usize) -> Tensor {
    let pad = pad as isize;
    let (oh, ow) = (h, w); // stride 1, same padding
    let patch = in_ch * k * k;
    let mut out = vec![0.0f32; oh * ow * patch];
    for oy in 0..oh {
        for ox in 0..ow {
            let row = (oy * ow + ox) * patch;
            let mut idx = row;
            for c in 0..in_ch {
                for ky in 0..k {
                    let iy = oy as isize + ky as isize - pad;
                    for kx in 0..k {
                        let ix = ox as isize + kx as isize - pad;
                        out[idx] = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                            x[c * h * w + iy as usize * w + ix as usize]
                        } else {
                            0.0
                        };
                        idx += 1;
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[oh * ow, patch])
}

/// Bias add and channel-major reorder of one image's `[h·w, out_ch]`
/// im2col product `y` into `out` (`[out_ch, h·w]`, `out_ch = bias.len()`).
/// The one epilogue behind [`Conv2d`]'s forward pass and the `plan`
/// executor's `Conv` node.
pub(crate) fn scatter_channels(y: &[f32], bias: &[f32], out: &mut [f32]) {
    let hw = y.len() / bias.len();
    for (p, row) in y.chunks_exact(bias.len()).enumerate() {
        for (oc, (&v, &b)) in row.iter().zip(bias).enumerate() {
            out[oc * hw + p] = v + b;
        }
    }
}

/// Mean of each `spatial`-sized chunk of `x` into the matching element of
/// `out` (sum, then divide). The one loop behind [`GlobalAvgPool`] and the
/// `plan` executor's `AvgPool` node.
pub(crate) fn avg_pool(x: &[f32], out: &mut [f32], spatial: usize) {
    for (o, chunk) in out.iter_mut().zip(x.chunks_exact(spatial)) {
        *o = chunk.iter().sum::<f32>() / spatial as f32;
    }
}

/// Cuts each `side × side` image of `images` into `patch × patch` tiles,
/// row-major over the tile grid, and writes every tile as one
/// `patch²`-wide row of `out`. The ViT patch embedding's input, shared with
/// the `plan` executor's `Patchify` node.
pub fn patchify(images: &[f32], out: &mut [f32], side: usize, patch: usize) {
    let grid = side / patch;
    let mut rows = out.chunks_exact_mut(patch);
    for img in images.chunks_exact(side * side) {
        for py in 0..grid {
            for px in 0..grid {
                for dy in 0..patch {
                    let at = (py * patch + dy) * side + px * patch;
                    let row = rows.next().expect("out holds every tile");
                    row.copy_from_slice(&img[at..at + patch]);
                }
            }
        }
    }
}

/// Mean over each request's `groups` rows of `cols` (`x` holds
/// `out.len() / cols` requests): every row is divided by `groups`, then
/// accumulated in order. The ViT token pooling, shared with the `plan`
/// executor's `MeanPool` node.
pub fn mean_pool(x: &[f32], out: &mut [f32], groups: usize, cols: usize) {
    out.fill(0.0);
    for (o, rows) in out
        .chunks_exact_mut(cols)
        .zip(x.chunks_exact(groups * cols))
    {
        for row in rows.chunks_exact(cols) {
            for (acc, &v) in o.iter_mut().zip(row) {
                *acc += v / groups as f32;
            }
        }
    }
}

/// 2-D convolution with square kernels, stride 1, and symmetric zero
/// padding.
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// Kernel as `[in_ch * k * k, out_ch]` (im2col layout).
    pub w: Param,
    /// Per-output-channel bias.
    pub b: Param,
    in_ch: usize,
    out_ch: usize,
    k: usize,
    pad: usize,
    cfg: QuantConfig,
    cache: Option<(Vec<Tensor>, [usize; 4])>, // im2col per batch item, input shape
}

impl Conv2d {
    /// Creates a `k × k` convolution (`pad = k/2` keeps spatial dims for odd
    /// `k`).
    pub fn new(rng: &mut StdRng, in_ch: usize, out_ch: usize, k: usize, cfg: QuantConfig) -> Self {
        let fan_in = in_ch * k * k;
        Conv2d {
            w: Param::new(init::he_normal(rng, fan_in, &[fan_in, out_ch])),
            b: Param::new(Tensor::zeros(&[out_ch])),
            in_ch,
            out_ch,
            k,
            pad: k / 2,
            cfg,
            cache: None,
        }
    }

    /// `(in_ch, out_ch, kernel, pad)` — what the `plan` module needs to
    /// lower this convolution into a `Conv` node.
    pub(crate) fn plan_parts(&self) -> (usize, usize, usize, usize) {
        (self.in_ch, self.out_ch, self.k, self.pad)
    }

    fn col2im(&self, cols: &Tensor, h: usize, w: usize) -> Vec<f32> {
        let k = self.k;
        let pad = self.pad as isize;
        let patch = self.in_ch * k * k;
        let mut out = vec![0.0f32; self.in_ch * h * w];
        for oy in 0..h {
            for ox in 0..w {
                let row = (oy * w + ox) * patch;
                let mut idx = row;
                for c in 0..self.in_ch {
                    for ky in 0..k {
                        let iy = oy as isize + ky as isize - pad;
                        for kx in 0..k {
                            let ix = ox as isize + kx as isize - pad;
                            if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                out[c * h * w + iy as usize * w + ix as usize] += cols.data()[idx];
                            }
                            idx += 1;
                        }
                    }
                }
            }
        }
        out
    }
}

impl HasParams for Conv2d {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }
}

impl Layer for Conv2d {
    /// Forward over `[batch, in_ch, h, w]`, returning `[batch, out_ch, h, w]`.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 4, "Conv2d expects [B, C, H, W]");
        let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
        assert_eq!(c, self.in_ch, "channel mismatch");
        let mut out = vec![0.0f32; b * self.out_ch * h * w];
        let mut cols_cache = Vec::new();
        let images = x.data().chunks_exact(c * h * w);
        for (xb, ob) in images.zip(out.chunks_exact_mut(self.out_ch * h * w)) {
            let cols = im2col(xb, self.in_ch, self.k, self.pad, h, w);
            // y [oh*ow, out_ch] = quantized cols · W.
            let y = crate::qflow::quantized_matmul_ab(
                &cols,
                &self.w.value,
                self.cfg.fwd,
                self.cfg.fwd_w,
            );
            scatter_channels(y.data(), self.b.value.data(), ob);
            if train {
                cols_cache.push(cols);
            }
        }
        if train {
            self.cache = Some((cols_cache, [b, c, h, w]));
        }
        Tensor::from_vec(out, &[b, self.out_ch, h, w])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (cols_cache, [b, c, h, w]) = self.cache.take().expect("backward before forward");
        let mut dx = Vec::with_capacity(b * c * h * w);
        for (bi, cols) in cols_cache.iter().enumerate() {
            // Back to [oh*ow, out_ch] layout.
            let gb = &grad_out.data()[bi * self.out_ch * h * w..(bi + 1) * self.out_ch * h * w];
            let g2d = Tensor::from_vec(gb.to_vec(), &[self.out_ch, h * w]).transpose2d();
            let dw = quantized_matmul(&cols.transpose2d(), &g2d, self.cfg.bwd);
            self.w.accumulate(&dw);
            self.b.accumulate(&g2d.sum_rows());
            let dcols = quantized_matmul(&g2d, &self.w.value.transpose2d(), self.cfg.bwd);
            dx.extend_from_slice(&self.col2im(&dcols, h, w));
        }
        self.cache = None;
        Tensor::from_vec(dx, &[b, c, h, w])
    }

    fn set_quant(&mut self, cfg: QuantConfig) {
        self.cfg = cfg;
    }
}

/// Global average pooling: `[B, C, H, W] -> [B, C]`.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    cache: Option<[usize; 4]>,
}

impl GlobalAvgPool {
    /// Creates the pooling layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl HasParams for GlobalAvgPool {
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let s = x.shape();
        let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
        if train {
            self.cache = Some([b, c, h, w]);
        }
        let mut out = vec![0.0f32; b * c];
        avg_pool(x.data(), &mut out, h * w);
        Tensor::from_vec(out, &[b, c])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let [b, c, h, w] = self.cache.take().expect("backward before forward");
        let scale = 1.0 / (h * w) as f32;
        let mut dx = Vec::with_capacity(b * c * h * w);
        for &g in grad_out.data() {
            dx.extend(std::iter::repeat_n(g * scale, h * w));
        }
        Tensor::from_vec(dx, &[b, c, h, w])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn conv_identity_kernel() {
        // A 1x1 conv with identity weights passes channels through.
        let mut conv = Conv2d::new(&mut rng(), 2, 2, 1, QuantConfig::fp32());
        conv.w.value = Tensor::eye(2);
        conv.b.value = Tensor::zeros(&[2]);
        let x = Tensor::from_vec(
            (0..2 * 2 * 3 * 3).map(|i| i as f32).collect(),
            &[2, 2, 3, 3],
        );
        let y = conv.forward(&x, false);
        assert_eq!(y, x);
    }

    #[test]
    fn conv_shapes_and_padding() {
        let mut conv = Conv2d::new(&mut rng(), 3, 8, 3, QuantConfig::fp32());
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[2, 8, 8, 8]);
    }

    #[test]
    fn conv_known_3x3_sum_kernel() {
        // All-ones 3x3 kernel on a constant image: interior pixels see 9,
        // corners see 4 (padding zeros).
        let mut conv = Conv2d::new(&mut rng(), 1, 1, 3, QuantConfig::fp32());
        conv.w.value = Tensor::full(&[9, 1], 1.0);
        conv.b.value = Tensor::zeros(&[1]);
        let x = Tensor::full(&[1, 1, 4, 4], 1.0);
        let y = conv.forward(&x, false);
        assert_eq!(y.data()[0], 4.0); // corner
        assert_eq!(y.data()[5], 9.0); // interior
    }

    #[test]
    fn conv_gradcheck() {
        let mut conv = Conv2d::new(&mut rng(), 2, 3, 3, QuantConfig::fp32());
        let x = Tensor::from_vec(
            (0..2 * 2 * 4 * 4)
                .map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.1)
                .collect(),
            &[2, 2, 4, 4],
        );
        let y = conv.forward(&x, true);
        let dx = conv.backward(&y);
        let eps = 1e-2;
        for i in (0..x.numel()).step_by(9) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp = conv.forward(&xp, false).sq_norm() / 2.0;
            let lm = conv.forward(&xm, false).sq_norm() / 2.0;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - dx.data()[i]).abs() < 3e-2 * (1.0 + num.abs()),
                "conv grad mismatch at {i}: {num} vs {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn pool_averages_and_distributes() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[1, 2, 2, 2]);
        let y = pool.forward(&x, true);
        assert_eq!(y.data(), &[1.5, 5.5]);
        let dy = Tensor::from_vec(vec![4.0, 8.0], &[1, 2]);
        let dx = pool.backward(&dy);
        assert_eq!(dx.data(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn quantized_conv_close_to_fp32() {
        let x = Tensor::from_vec(
            (0..2 * 6 * 6)
                .map(|i| ((i * 11 % 23) as f32 - 11.0) * 0.08)
                .collect(),
            &[1, 2, 6, 6],
        );
        let mut c32 = Conv2d::new(&mut rng(), 2, 4, 3, QuantConfig::fp32());
        let mut c9 = Conv2d::new(
            &mut rng(),
            2,
            4,
            3,
            QuantConfig::uniform(crate::format::TensorFormat::MX9),
        );
        let y32 = c32.forward(&x, false);
        let y9 = c9.forward(&x, false);
        let rel = y9.sub(&y32).sq_norm() / y32.sq_norm().max(1e-12);
        assert!(rel < 1e-3, "MX9 conv relative error {rel}");
    }
}

//! # mx-nn — a minimal DNN training stack with MX/BDR quantized compute
//!
//! The substrate behind the paper's end-to-end experiments (§V–§VI): dense
//! tensors, layers with explicit backward passes, FP32 master-weight
//! optimizers, and — the point of the exercise — the Fig. 8 quantized
//! compute flow, where every tensor operation quantizes both operands along
//! the reduction dimension and element-wise ops run in a scalar format.
//!
//! Quantization is *directional*: `Q(Wᵀ) ≠ Q(W)ᵀ`, so the backward pass
//! re-quantizes transposed tensors fresh (two quantized weight copies per
//! Fig. 8). Switching a trained model between FP32 and MX formats is a
//! one-line [`qflow::QuantConfig`] change, which is exactly what "direct
//! cast" means in Tables III–V.
//!
//! ## Example: train a quantized MLP
//!
//! ```
//! use mx_nn::format::TensorFormat;
//! use mx_nn::layers::{Activation, ActivationLayer, Layer, Linear, Sequential};
//! use mx_nn::loss::softmax_cross_entropy;
//! use mx_nn::optim::Sgd;
//! use mx_nn::param::HasParams;
//! use mx_nn::qflow::QuantConfig;
//! use mx_nn::tensor::Tensor;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let cfg = QuantConfig::uniform(TensorFormat::MX9);
//! let mut model = Sequential::new();
//! model.push(Box::new(Linear::new(&mut rng, 4, 16, true, cfg)));
//! model.push(Box::new(ActivationLayer::new(Activation::Relu, cfg.elementwise)));
//! model.push(Box::new(Linear::new(&mut rng, 16, 2, true, cfg)));
//!
//! let x = Tensor::from_vec(vec![0.1, 0.7, -0.3, 0.2, 0.9, -0.1, 0.4, 0.0], &[2, 4]);
//! let targets = [0usize, 1];
//! let opt = Sgd::new(0.1);
//! for _ in 0..10 {
//!     model.zero_grads();
//!     let logits = model.forward(&x, true);
//!     let (_loss, grad) = softmax_cross_entropy(&logits, &targets);
//!     model.backward(&grad);
//!     opt.step(&mut model);
//! }
//! ```

#![warn(missing_docs)]

pub mod attention;
pub mod conv;
pub mod format;
pub mod init;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod param;
pub mod plan;
pub mod qflow;
pub mod rnn;
mod tanh;
pub mod tensor;

pub use format::TensorFormat;
pub use param::{HasParams, Param};
pub use qflow::QuantConfig;
pub use tensor::Tensor;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, ActivationLayer, Layer, Linear, Sequential};
    use crate::loss::softmax_cross_entropy;
    use crate::optim::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// End-to-end sanity: a small MLP learns XOR under FP32 and MX9, and the
    /// two runs reach similar losses (the drop-in-replacement claim in
    /// miniature).
    #[test]
    fn xor_learns_in_fp32_and_mx9() {
        let losses: Vec<f64> = [QuantConfig::fp32(), QuantConfig::uniform(TensorFormat::MX9)]
            .into_iter()
            .map(|cfg| {
                let mut rng = StdRng::seed_from_u64(3);
                let mut model = Sequential::new();
                model.push(Box::new(Linear::new(&mut rng, 2, 16, true, cfg)));
                model.push(Box::new(ActivationLayer::new(
                    Activation::Tanh,
                    cfg.elementwise,
                )));
                model.push(Box::new(Linear::new(&mut rng, 16, 2, true, cfg)));
                let x = Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], &[4, 2]);
                let t = [0usize, 1, 1, 0];
                let mut opt = Adam::new(0.02);
                let mut last = f64::NAN;
                for _ in 0..300 {
                    model.zero_grads();
                    let logits = model.forward(&x, true);
                    let (loss, grad) = softmax_cross_entropy(&logits, &t);
                    model.backward(&grad);
                    opt.step(&mut model);
                    last = loss;
                }
                last
            })
            .collect();
        assert!(losses[0] < 0.05, "FP32 failed to learn XOR: {}", losses[0]);
        assert!(losses[1] < 0.05, "MX9 failed to learn XOR: {}", losses[1]);
        assert!(
            (losses[0] - losses[1]).abs() < 0.05,
            "FP32 {} vs MX9 {}",
            losses[0],
            losses[1]
        );
    }

    /// MX4 forward + FP32 backward (QAT config) still trains, just noisier.
    #[test]
    fn qat_mx4_still_learns() {
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = QuantConfig::qat(TensorFormat::MX4);
        let mut model = Sequential::new();
        model.push(Box::new(Linear::new(&mut rng, 2, 32, true, cfg)));
        model.push(Box::new(ActivationLayer::new(
            Activation::Relu,
            cfg.elementwise,
        )));
        model.push(Box::new(Linear::new(&mut rng, 32, 2, true, cfg)));
        let x = Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], &[4, 2]);
        let t = [0usize, 1, 1, 0];
        let mut opt = Adam::new(0.02);
        let mut first = f64::NAN;
        let mut last = f64::NAN;
        for i in 0..400 {
            model.zero_grads();
            let logits = model.forward(&x, true);
            let (loss, grad) = softmax_cross_entropy(&logits, &t);
            model.backward(&grad);
            opt.step(&mut model);
            if i == 0 {
                first = loss;
            }
            last = loss;
        }
        assert!(
            last < first * 0.5,
            "QAT-MX4 did not improve: {first} -> {last}"
        );
    }
}

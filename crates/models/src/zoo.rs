//! Uniform batched-inference entry point over the model zoo.
//!
//! Every servable model implements [`BatchModel`]: a per-request
//! input/output length contract (fixed, or variable up to a native maximum
//! for sequence models), a direct-cast [`BatchModel::set_quant`] switch, and
//! one [`BatchModel::forward_batch`] call that runs `batch` concatenated
//! requests in a single forward pass. The contract that makes batching
//! useful for serving is **row independence**: every tensor op in the zoo's
//! inference path (quantized GEMMs, layer norm, softmax, per-sequence
//! attention, per-image convolution) computes each request's outputs from
//! that request's inputs alone, so a coalesced batch is *bit-identical* to
//! running the requests one at a time — batching is semantically invisible
//! and purely a throughput lever (the weight-side code planes and the
//! per-call A-side packing are amortized across the whole batch).
//! `mx-serve` builds its batcher on exactly this guarantee, and the
//! workspace's `serve_end_to_end` suite asserts it bit for bit.
//!
//! Models are intentionally *inference-only* through this interface
//! (`train = false` internally): no activation caches are retained, so a
//! served model's memory footprint is its weights plus the cached weight
//! planes.

use crate::bert::BertQa;
use crate::data::{IMAGE_SIDE, QA_VOCAB, SHAPE_CLASSES};
use crate::gpt::Gpt;
use crate::vision::{ImageClassifier, TinyMobileNet, TinyResNet, TinyViT};
use mx_nn::layers::{Layer, Linear};
use mx_nn::param::HasParams;
use mx_nn::plan::{CompiledPlan, Loc, PlanError, Planner, Stage};
use mx_nn::qflow::QuantConfig;
use mx_nn::tensor::Tensor;
use rand::rngs::StdRng;

/// Wrapping sum of every parameter tensor's generation counter — the
/// weight-staleness token behind [`BatchModel::plan_token`]. Generations
/// come from a process-global monotone counter, so any optimizer step or
/// in-place weight edit strictly changes the sum.
fn weights_token<M: HasParams + ?Sized>(model: &mut M) -> u64 {
    let mut acc = 0u64;
    model.visit_params(&mut |p| acc = acc.wrapping_add(p.value.generation()));
    acc
}

/// What a model's flattened request payload contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputKind {
    /// Token ids (language models: GPT, BERT).
    Tokens,
    /// Raw `f32` features (vision models, dense layers).
    Pixels,
}

/// A borrowed batch payload: `batch × input_len` elements, concatenated
/// request-major.
#[derive(Debug, Clone, Copy)]
pub enum ZooInput<'a> {
    /// Token ids for [`InputKind::Tokens`] models.
    Tokens(&'a [usize]),
    /// Feature values for [`InputKind::Pixels`] models.
    Pixels(&'a [f32]),
}

impl ZooInput<'_> {
    /// Total element count across the batch.
    pub fn len(&self) -> usize {
        match self {
            ZooInput::Tokens(t) => t.len(),
            ZooInput::Pixels(p) => p.len(),
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payload's kind (must match [`BatchModel::input_kind`]).
    pub fn kind(&self) -> InputKind {
        match self {
            ZooInput::Tokens(_) => InputKind::Tokens,
            ZooInput::Pixels(_) => InputKind::Pixels,
        }
    }
}

/// A zoo model servable through batched inference.
///
/// `Send` is a supertrait because serving moves models into worker threads;
/// every implementor below is a plain bundle of tensors, so the bound is
/// free.
pub trait BatchModel: Send {
    /// Payload kind a request must carry.
    fn input_kind(&self) -> InputKind;

    /// Native (maximum) flattened elements per request. Fixed-length
    /// models accept exactly this many; [`BatchModel::variable_len`]
    /// models accept any uniform length `1..=input_len()` per batch.
    fn input_len(&self) -> usize;

    /// Flattened `f32` outputs for one request of `len` input elements —
    /// the per-bucket output contract. Fixed-length models are only ever
    /// asked at `len == input_len()` (the degenerate single-bucket case);
    /// variable-length models must answer for every accepted length
    /// (e.g. `len · vocab` per-token logits).
    fn output_len(&self, len: usize) -> usize;

    /// Variable-length contract: when `true`, [`BatchModel::forward_batch`]
    /// accepts any uniform per-request length `1..=input_len()` (the
    /// server buckets mixed-length traffic and pads each request up to its
    /// bucket's length). When `false` (the default), only the native
    /// `input_len()` is served.
    fn variable_len(&self) -> bool {
        false
    }

    /// Switches every tensor op to `cfg` (the paper's direct cast) — this
    /// is how per-request format selection reaches a shared model. Weights
    /// are untouched, so cached weight planes stay valid per format.
    fn set_quant(&mut self, cfg: QuantConfig);

    /// Runs `batch` concatenated requests of one uniform per-request
    /// length `len = input.len() / batch` (`len == input_len()` unless
    /// [`BatchModel::variable_len`]), returning `batch · output_len(len)`
    /// floats, request-major. Output row `i` is bit-identical to running
    /// request `i` alone with `batch = 1` at the same length.
    ///
    /// # Panics
    ///
    /// Panics if the payload kind or length disagrees with the model.
    fn forward_batch(&mut self, input: ZooInput<'_>, batch: usize) -> Vec<f32>;

    /// Token ids this model embeds (`0..vocab`), for token models; `None`
    /// (the default) for models that take no token ids or check none. A
    /// server captures it once to reject an out-of-range id at submit,
    /// before it can reach a forward.
    fn vocab(&self) -> Option<usize> {
        None
    }

    /// Lowers this model's inference forward for one request of `len`
    /// input elements (always `input_len()` for fixed-length models) under
    /// `cfg` into a [`CompiledPlan`] that executes any batch of
    /// `1..=batch` such requests, with all weight prepacking, format
    /// gating, and scratch layout done at compile time. Executed at batch
    /// `b`, the plan's output is bit-identical to
    /// [`BatchModel::forward_batch`] at batch `b` after `set_quant(cfg)`,
    /// for as long as the weights do not change (a mutation moves
    /// [`BatchModel::plan_token`]; recompile then). The default is a typed
    /// refusal: callers serve unplannable models through the dynamic
    /// walk.
    fn compile_plan(
        &self,
        _cfg: QuantConfig,
        _batch: usize,
        _len: usize,
    ) -> Result<CompiledPlan, PlanError> {
        Err(PlanError::Unsupported("no plan lowering for this model"))
    }

    /// Weight-staleness token: changes whenever any parameter tensor is
    /// mutated (optimizer step, in-place edit), so a caller that trains or
    /// edits a model between compiles can tell that its plans are stale.
    /// It walks every parameter; a server, whose models never change
    /// weights, does not call it.
    fn plan_token(&mut self) -> u64 {
        0
    }
}

/// Validates a payload against the model's contract, returning the pixels.
fn expect_pixels<'a>(input: ZooInput<'a>, batch: usize, per: usize) -> &'a [f32] {
    let ZooInput::Pixels(px) = input else {
        panic!("model expects pixel input, got {:?}", input.kind());
    };
    assert_eq!(
        px.len(),
        batch * per,
        "batch of {batch} needs {per} features each"
    );
    px
}

impl BatchModel for Gpt {
    fn input_kind(&self) -> InputKind {
        InputKind::Tokens
    }

    /// One full context window of tokens per request (maximum; shorter
    /// sequences are served through the variable-length contract).
    fn input_len(&self) -> usize {
        self.config().seq_len
    }

    /// Per-token logits over the vocabulary.
    fn output_len(&self, len: usize) -> usize {
        len * self.config().vocab
    }

    /// Positions are indexed `0..len`, so any prefix length of the context
    /// window is a valid request.
    fn variable_len(&self) -> bool {
        true
    }

    fn set_quant(&mut self, cfg: QuantConfig) {
        Gpt::set_quant(self, cfg);
    }

    fn forward_batch(&mut self, input: ZooInput<'_>, batch: usize) -> Vec<f32> {
        let ZooInput::Tokens(tokens) = input else {
            panic!("model expects token input, got {:?}", input.kind());
        };
        assert!(
            batch > 0 && tokens.len() % batch == 0,
            "batch of {batch} over {} tokens has no uniform length",
            tokens.len()
        );
        assert!(
            tokens.len() / batch <= self.input_len(),
            "sequence too long"
        );
        self.forward(tokens, batch, false).into_data()
    }

    fn vocab(&self) -> Option<usize> {
        Some(self.config().vocab)
    }

    fn compile_plan(
        &self,
        cfg: QuantConfig,
        batch: usize,
        len: usize,
    ) -> Result<CompiledPlan, PlanError> {
        Gpt::compile_plan(self, cfg, batch, len)
    }

    fn plan_token(&mut self) -> u64 {
        weights_token(self)
    }
}

impl BatchModel for BertQa {
    fn input_kind(&self) -> InputKind {
        InputKind::Tokens
    }

    fn input_len(&self) -> usize {
        self.seq_len()
    }

    /// Per-token start/end span logits.
    fn output_len(&self, len: usize) -> usize {
        len * 2
    }

    /// Any prefix length of the encoder window is a valid request.
    fn variable_len(&self) -> bool {
        true
    }

    fn set_quant(&mut self, cfg: QuantConfig) {
        BertQa::set_quant(self, cfg);
    }

    fn forward_batch(&mut self, input: ZooInput<'_>, batch: usize) -> Vec<f32> {
        let ZooInput::Tokens(tokens) = input else {
            panic!("model expects token input, got {:?}", input.kind());
        };
        assert!(
            batch > 0 && tokens.len() % batch == 0,
            "batch of {batch} over {} tokens has no uniform length",
            tokens.len()
        );
        assert!(
            tokens.len() / batch <= self.input_len(),
            "sequence too long"
        );
        self.span_logits(tokens, batch, false).into_data()
    }

    /// Every `BertQa` embeds the QA task's vocabulary.
    fn vocab(&self) -> Option<usize> {
        Some(QA_VOCAB)
    }

    fn compile_plan(
        &self,
        cfg: QuantConfig,
        batch: usize,
        len: usize,
    ) -> Result<CompiledPlan, PlanError> {
        BertQa::compile_plan(self, cfg, batch, len)
    }

    fn plan_token(&mut self) -> u64 {
        weights_token(self)
    }
}

/// The three image classifiers share one implementation: a request is one
/// `IMAGE_SIDE × IMAGE_SIDE` image, the response its class logits.
macro_rules! impl_batch_model_for_classifier {
    ($($model:ty),+ $(,)?) => {$(
        impl BatchModel for $model {
            fn input_kind(&self) -> InputKind {
                InputKind::Pixels
            }

            fn input_len(&self) -> usize {
                IMAGE_SIDE * IMAGE_SIDE
            }

            fn output_len(&self, _len: usize) -> usize {
                SHAPE_CLASSES
            }

            fn set_quant(&mut self, cfg: QuantConfig) {
                ImageClassifier::set_quant(self, cfg);
            }

            fn forward_batch(&mut self, input: ZooInput<'_>, batch: usize) -> Vec<f32> {
                let px = expect_pixels(input, batch, self.input_len());
                let x = Tensor::from_vec(px.to_vec(), &[batch, 1, IMAGE_SIDE, IMAGE_SIDE]);
                self.logits(&x, false).into_data()
            }

            fn compile_plan(
                &self,
                cfg: QuantConfig,
                batch: usize,
                len: usize,
            ) -> Result<CompiledPlan, PlanError> {
                if len != IMAGE_SIDE * IMAGE_SIDE {
                    return Err(PlanError::Unsupported("classifier input length is fixed"));
                }
                <$model>::compile_plan(self, cfg, batch)
            }

            fn plan_token(&mut self) -> u64 {
                weights_token(self)
            }
        }
    )+};
}

impl_batch_model_for_classifier!(TinyViT, TinyResNet, TinyMobileNet);

/// A single quantized dense layer `[d_in → d_out]` — the GEMM-shaped
/// serving model. Each request is one feature row, so a coalesced batch is
/// exactly one `[batch, d_in] × [d_in, d_out]` quantized product over the
/// shared prepacked weight plane; the `benchmark/` package's dense
/// workloads serve it to isolate the batching win at GPT-ish layer shapes.
#[derive(Debug)]
pub struct DenseGemm {
    layer: Linear,
}

impl DenseGemm {
    /// Builds the layer with Xavier-initialized weights (no bias, so the
    /// output is the bare GEMM).
    pub fn new(rng: &mut StdRng, d_in: usize, d_out: usize, cfg: QuantConfig) -> Self {
        DenseGemm {
            layer: Linear::new(rng, d_in, d_out, false, cfg),
        }
    }

    /// Replaces the weight matrix (e.g. with a fixed test pattern).
    pub fn set_weights(&mut self, w: Tensor) {
        assert_eq!(
            w.shape(),
            self.layer.w.value.shape(),
            "weight shape mismatch"
        );
        self.layer.w.value = w;
    }
}

impl BatchModel for DenseGemm {
    fn input_kind(&self) -> InputKind {
        InputKind::Pixels
    }

    fn input_len(&self) -> usize {
        self.layer.d_in()
    }

    fn output_len(&self, _len: usize) -> usize {
        self.layer.d_out()
    }

    fn set_quant(&mut self, cfg: QuantConfig) {
        Layer::set_quant(&mut self.layer, cfg);
    }

    fn forward_batch(&mut self, input: ZooInput<'_>, batch: usize) -> Vec<f32> {
        let px = expect_pixels(input, batch, self.input_len());
        let x = Tensor::from_vec(px.to_vec(), &[batch, self.input_len()]);
        self.layer.forward(&x, false).into_data()
    }

    fn compile_plan(
        &self,
        cfg: QuantConfig,
        batch: usize,
        len: usize,
    ) -> Result<CompiledPlan, PlanError> {
        if len != self.layer.d_in() {
            return Err(PlanError::Unsupported("dense layer input length is fixed"));
        }
        let mut p = Planner::new();
        p.pixels_input(len);
        let mut s = Stage::new(len, self.layer.d_out());
        s.gemm(&self.layer, Loc::In, Loc::Out, 1, cfg, None)?;
        p.push_stage(s);
        p.finish(batch)
    }

    fn plan_token(&mut self) -> u64 {
        weights_token(&mut self.layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;
    use crate::gpt::GptConfig;
    use mx_nn::format::TensorFormat;
    use mx_nn::plan::{PlanArena, PlanInput};
    use rand::SeedableRng;

    /// Runs `batch` requests of `per_in` elements each through one coalesced
    /// forward and one-at-a-time, asserting the outputs are bit-identical —
    /// the serving contract.
    fn assert_batch_equals_serial<M: BatchModel>(
        model: &mut M,
        inputs: ZooInput<'_>,
        batch: usize,
        per_in: usize,
    ) {
        let per_out = model.output_len(per_in);
        let batched = model.forward_batch(inputs, batch);
        assert_eq!(batched.len(), batch * per_out);
        for r in 0..batch {
            let alone = match inputs {
                ZooInput::Tokens(t) => {
                    model.forward_batch(ZooInput::Tokens(&t[r * per_in..(r + 1) * per_in]), 1)
                }
                ZooInput::Pixels(p) => {
                    model.forward_batch(ZooInput::Pixels(&p[r * per_in..(r + 1) * per_in]), 1)
                }
            };
            let slice = &batched[r * per_out..(r + 1) * per_out];
            assert!(
                slice
                    .iter()
                    .zip(alone.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "request {r} differs between batched and serial"
            );
        }
    }

    fn mx6() -> QuantConfig {
        QuantConfig::weights_activations(TensorFormat::MX6, TensorFormat::MX6)
    }

    #[test]
    fn gpt_batched_forward_is_bit_identical_to_serial() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut m = Gpt::new(&mut rng, crate::gpt::GptConfig::tiny(), mx6());
        let per = BatchModel::input_len(&m);
        let tokens: Vec<usize> = (0..3 * per).map(|i| i % data::LM_VOCAB).collect();
        assert_batch_equals_serial(&mut m, ZooInput::Tokens(&tokens), 3, per);
        assert_eq!(m.input_kind(), InputKind::Tokens);
    }

    #[test]
    fn gpt_variable_length_batches_are_bit_identical_to_serial() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut m = Gpt::new(&mut rng, crate::gpt::GptConfig::tiny(), mx6());
        assert!(BatchModel::variable_len(&m));
        // A bucket shorter than the native context window: same contract.
        let per = BatchModel::input_len(&m) / 2;
        assert_eq!(BatchModel::output_len(&m, per), per * m.config().vocab);
        let tokens: Vec<usize> = (0..3 * per).map(|i| (i * 5) % data::LM_VOCAB).collect();
        assert_batch_equals_serial(&mut m, ZooInput::Tokens(&tokens), 3, per);
    }

    #[test]
    fn bert_variable_length_batches_are_bit_identical_to_serial() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut m = BertQa::new(&mut rng, 16, 1, 12, mx6());
        assert!(BatchModel::variable_len(&m));
        let per = 7;
        assert_eq!(BatchModel::output_len(&m, per), per * 2);
        let tokens: Vec<usize> = (0..2 * per).map(|i| (i * 3) % data::QA_VOCAB).collect();
        assert_batch_equals_serial(&mut m, ZooInput::Tokens(&tokens), 2, per);
    }

    #[test]
    fn bert_batched_forward_is_bit_identical_to_serial() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut m = BertQa::new(&mut rng, 16, 1, 12, mx6());
        let per = BatchModel::input_len(&m);
        assert_eq!(per, 12);
        let tokens: Vec<usize> = (0..2 * per).map(|i| (i * 7) % data::QA_VOCAB).collect();
        assert_batch_equals_serial(&mut m, ZooInput::Tokens(&tokens), 2, per);
    }

    #[test]
    fn vision_batched_forward_is_bit_identical_to_serial() {
        let images = data::shape_images(5, 3);
        let px: Vec<f32> = images.iter().flat_map(|im| im.pixels.clone()).collect();
        let mut rng = StdRng::seed_from_u64(13);
        let mut vit = TinyViT::new(&mut rng, 16, 1, mx6());
        let per = BatchModel::input_len(&vit);
        assert_batch_equals_serial(&mut vit, ZooInput::Pixels(&px), 3, per);
        let mut resnet = TinyResNet::new(&mut rng, 4, 1, mx6());
        assert_batch_equals_serial(&mut resnet, ZooInput::Pixels(&px), 3, per);
        let mut mobile = TinyMobileNet::new(&mut rng, 4, 1, mx6());
        assert_batch_equals_serial(&mut mobile, ZooInput::Pixels(&px), 3, per);
    }

    #[test]
    fn dense_gemm_batched_forward_is_bit_identical_to_serial() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut m = DenseGemm::new(&mut rng, 64, 32, mx6());
        let px: Vec<f32> = (0..4 * 64).map(|i| (i as f32 * 0.17).sin()).collect();
        assert_batch_equals_serial(&mut m, ZooInput::Pixels(&px), 4, 64);
        assert_eq!((m.input_len(), m.output_len(64)), (64, 32));
        assert!(!BatchModel::variable_len(&m));
    }

    #[test]
    fn set_quant_switches_formats_in_place() {
        let mut rng = StdRng::seed_from_u64(15);
        let mut m = DenseGemm::new(&mut rng, 32, 8, QuantConfig::fp32());
        let px: Vec<f32> = (0..32).map(|i| (i as f32 * 0.23).cos()).collect();
        let fp32 = m.forward_batch(ZooInput::Pixels(&px), 1);
        BatchModel::set_quant(&mut m, mx6());
        let q = m.forward_batch(ZooInput::Pixels(&px), 1);
        assert_ne!(fp32, q, "direct cast must change the output");
        BatchModel::set_quant(&mut m, QuantConfig::fp32());
        assert_eq!(m.forward_batch(ZooInput::Pixels(&px), 1), fp32);
    }

    /// A direct cast carries `elementwise` to every element-wise cast, and a
    /// plan takes it from the config it is compiled for: an FP32-built GPT
    /// cast to an element-wise BF16 config changes its output bits, and
    /// matches both a GPT built with that config from the same seed and a
    /// plan compiled for it before the cast.
    #[test]
    fn direct_cast_moves_every_elementwise_cast() {
        let bf16 = QuantConfig {
            elementwise: TensorFormat::Bf16,
            ..mx6()
        };
        let build = |cfg| Gpt::new(&mut StdRng::seed_from_u64(17), GptConfig::tiny(), cfg);
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        let mut m = build(QuantConfig::fp32());
        let per = BatchModel::input_len(&m);
        let tokens: Vec<usize> = (0..2 * per).map(|i| (i * 3) % data::LM_VOCAB).collect();
        let input = ZooInput::Tokens(&tokens);
        let plan = m.compile_plan(bf16, 2, per).expect("plan");
        BatchModel::set_quant(&mut m, mx6());
        let fp32_elementwise = bits(m.forward_batch(input, 2));
        BatchModel::set_quant(&mut m, bf16);
        let cast = bits(m.forward_batch(input, 2));
        assert_ne!(cast, fp32_elementwise, "the cast must change the output");
        let built = bits(build(bf16).forward_batch(input, 2));
        assert_eq!(cast, built, "cast and built-with models differ");
        let planned = plan.execute(PlanInput::Tokens(&tokens), &mut PlanArena::new());
        let planned = bits(planned.expect("execute"));
        assert_eq!(cast, planned, "plan and cast differ");
    }

    #[test]
    #[should_panic(expected = "expects pixel input")]
    fn wrong_kind_panics() {
        let mut rng = StdRng::seed_from_u64(16);
        let mut m = DenseGemm::new(&mut rng, 8, 4, QuantConfig::fp32());
        let _ = m.forward_batch(ZooInput::Tokens(&[0; 8]), 1);
    }
}

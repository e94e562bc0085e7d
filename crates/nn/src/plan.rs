//! Compiled execution plans: lower a model forward pass **once** into a
//! flat operator IR, then execute it with zero per-call planning.
//!
//! The dynamic path (walking `Layer::forward` implementations) re-decides
//! format support, re-consults the per-tensor weight-plane cache, and
//! re-allocates every intermediate tensor on each call. A [`CompiledPlan`]
//! hoists all of that to plan-compile time for one `(QuantConfig,
//! sequence-length bucket)` key, and serves every batch size up to the
//! capacity it was compiled for:
//!
//! - **Batch at run time** — a lowering describes *one* request. Every
//!   batch-proportional extent (GEMM rows, norm rows, element counts, the
//!   images / sequences of the attention, conv and pool nodes) and every
//!   arena offset is per-request data, so [`CompiledPlan::execute`] scales
//!   them all by the number of requests the payload carries. The first-fit
//!   layout is scale-invariant, so executing at batch `b` is the plan a
//!   lowering at batch `b` would have built.
//! - **Prepack hoist** — every weight-side `pack_cols` runs at plan time;
//!   the shift-aligned code planes are pinned on the plan as
//!   `Arc<PackedOperand>`s (shared with the tensor's own cache, so dynamic
//!   and planned execution read the *same* plane bits). A plan is a
//!   snapshot of the weights it was compiled from: a caller that mutates
//!   them recompiles.
//! - **Format gate hoist** — the format-pair support decision runs once
//!   per GEMM at plan time, as the same `(weight format, kernel class)`
//!   plane lookup the dynamic path performs per call (`qflow::weight_plane`
//!   asks each cached plane whether it `accepts` the activation format —
//!   no probe GEMM): a plan either compiles with the code-domain
//!   path (or the `f32` identity path) or fails with a typed
//!   [`PlanError`], instead of silently re-checking per call.
//! - **Fusion** — quantize → GEMM → bias → activation → element-wise cast
//!   chains collapse into single fused GEMM nodes (the A-side quantize is
//!   already fused into the gemm kernel's execute loop).
//! - **Self-contained nodes** — a plan is a list of stages, each a list of
//!   nodes, and every node owns what it reads: a GEMM its pinned plane (or
//!   `f32` weights) and bias, a norm its gain, shift and epsilon, an embed
//!   its hoisted tables, a conv its weights and geometry. A plan holds
//!   nothing of the model it was lowered from.
//! - **Arena scratch** — one liveness-ordered first-fit layout maps every
//!   intermediate into a single reusable buffer ([`PlanArena`]), grown to
//!   the executed batch's size. The attention mix reads its q, k and v
//!   from the arena and writes its heads back in place. Steady state
//!   still allocates per call beyond the arena: every GEMM's output
//!   vector, the attention mix's per-head tensors (each head's q, k and v
//!   cut out once, its scores and probabilities, and the one-product
//!   planes of kᵀ and v), a conv's `im2col` matrix per image, and the
//!   returned output.
//!
//! Bit-identity with the dynamic path is by construction: every node but
//! two executes through the *same* crate-internal function the
//! corresponding layer's `forward` calls, with the same thread count and
//! the same operand values:
//!
//! - `PackedGemm`: `gemm::quantized_gemm_prepacked_scratch` (or
//!   `fgemm::matmul`), `tensor::add_row_slice`, `Activation::apply_slice`
//!   and `format::cast_rows`;
//! - `Norm`: `layers::normalize_rows`, `layers::scale_shift_rows` and
//!   `format::cast_rows`;
//! - `AttnMix`: `attention::attention_mix`;
//! - `Conv`: `conv::im2col`, the GEMM of `PackedGemm` and
//!   `conv::scatter_channels`; a fused ReLU (the `max(0)` the CNN models
//!   apply after the layer) runs `Activation::apply_slice`;
//! - `Patchify`, `MeanPool` and `AvgPool`: `conv::patchify`,
//!   `conv::mean_pool` and `conv::avg_pool`.
//!
//! The two exceptions are the `Add` node, a four-line element-wise sum,
//! and the `Embed` node, which gathers from tables cast through their
//! storage format **once at plan time** (the layer casts the gathered rows
//! on every lookup) — the one intended difference from the layer walk,
//! valid because that cast commutes with gathering rows (see
//! `hoist_table`). The `plan_consistency` suite asserts equality to the
//! bit for every zoo model × format preset × bucket, at every executed
//! batch up to the compiled capacity.

use crate::attention::{attention_mix, TransformerBlock};
use crate::conv::{avg_pool, im2col, mean_pool, patchify, scatter_channels, Conv2d};
use crate::format::{cast_rows, TensorFormat};
use crate::layers::{normalize_rows, scale_shift_rows, Activation, Embedding, LayerNorm, Linear};
use crate::qflow::{weight_plane, QuantConfig};
use crate::tensor::{add_row_slice, Tensor};
use mx_core::bdr::BdrFormat;
use mx_core::fgemm;
use mx_core::gemm::{self, PackScratch, PackedOperand};
use std::fmt;
use std::sync::Arc;

/// Typed plan-compile / plan-execute failure. Compilation errors are
/// decided **once** at plan time (the hoisted format-support gate), so a
/// caller may serve a refused key another way; an execute-time error
/// means the payload (or the plan) is wrong, and the batch fails.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The model (or one of its layers) has no plan lowering — e.g.
    /// data-dependent routing (MoE) or a storage format that cannot be
    /// hoisted.
    Unsupported(&'static str),
    /// The `(activation, weight)` format pair supports neither the `f32`
    /// identity path nor the integer code-domain path. The dynamic path
    /// would silently take the fake-quantize fallback; a plan refuses at
    /// compile time instead.
    UnsupportedFormats {
        /// Activation-side format.
        fa: TensorFormat,
        /// Weight-side format.
        fb: TensorFormat,
    },
    /// The execute-time input does not match what the plan was compiled
    /// for (wrong kind, not a whole number of requests, more requests than
    /// the plan's capacity, or an out-of-range token index).
    Input(&'static str),
    /// An invariant the planner established did not hold at execute time.
    Internal(&'static str),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Unsupported(what) => write!(f, "unplannable model: {what}"),
            PlanError::UnsupportedFormats { fa, fb } => {
                write!(
                    f,
                    "format pair {fa}/{fb} has no code-domain or f32 plan path"
                )
            }
            PlanError::Input(what) => write!(f, "plan input mismatch: {what}"),
            PlanError::Internal(what) => write!(f, "plan invariant violated: {what}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Where a node reads or writes, resolved against the arena at execute
/// time. Stages flow through two ping-pong buffers; everything else lives
/// at liveness-ordered offsets in the stage's locals region. Offsets are
/// per request: execution scales them by the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// The executing stage's flow input (the previous stage's output).
    In,
    /// The executing stage's flow output (the next stage's input).
    Out,
    /// Offset into the locals region of the arena, for one request.
    Local(usize),
}

/// One operator of the compiled IR: the extents of **one request**
/// (execution scales every batch-proportional extent by the batch) and the
/// state the operator reads, owned by the node.
enum PlanNode {
    /// Fused quantize → GEMM → bias → activation → element-wise cast over
    /// `m × k` rows per request into `m × n`. The A-side quantize is fused
    /// inside the gemm kernel's execute loop.
    PackedGemm {
        src: Loc,
        dst: Loc,
        m: usize,
        k: usize,
        n: usize,
        weights: GemmWeights,
        bias: Option<Vec<f32>>,
        act: Option<Activation>,
        cast: Option<TensorFormat>,
    },
    /// Layer norm over `rows × cols` per request, including the
    /// element-wise cast of the plan's config.
    Norm {
        src: Loc,
        dst: Loc,
        rows: usize,
        cols: usize,
        gamma: Vec<f32>,
        beta: Vec<f32>,
        eps: f32,
        elem: TensorFormat,
    },
    /// Element-wise sum `dst = a + b` over `len` elements per request,
    /// optionally fused with a ReLU (the residual-then-ReLU idiom of the
    /// CNN blocks).
    Add {
        a: Loc,
        b: Loc,
        dst: Loc,
        len: usize,
        relu: bool,
    },
    /// Token-embedding gather plus positional add, from tables hoisted
    /// (and pre-cast) at plan time: one `dim`-wide row per payload token
    /// out of the `rows`-row `table`, plus row `r % t` of the `t`
    /// positional rows `pos`.
    Embed {
        dst: Loc,
        table: Vec<f32>,
        rows: usize,
        pos: Vec<f32>,
        t: usize,
        dim: usize,
    },
    /// The attention head mix: per (request, head) `softmax(Q·Kᵀ/√dh)·V`
    /// over a `t × d` sequence, executed by the exact helper the dynamic
    /// path uses. `fwd` is the tensor-op format of `Q·Kᵀ` and `P·V`,
    /// `elem` the element-wise format of the probabilities.
    AttnMix {
        q: Loc,
        k: Loc,
        v: Loc,
        dst: Loc,
        t: usize,
        d: usize,
        heads: usize,
        causal: bool,
        fwd: TensorFormat,
        elem: TensorFormat,
    },
    /// 2-D convolution (im2col → packed GEMM → bias → channel-major
    /// reorder) of each `in_ch × h × w` image into `out_ch × h × w`,
    /// optionally fused with a ReLU.
    Conv {
        src: Loc,
        dst: Loc,
        weights: GemmWeights,
        bias: Vec<f32>,
        in_ch: usize,
        out_ch: usize,
        k: usize,
        pad: usize,
        h: usize,
        w: usize,
        relu: bool,
    },
    /// ViT patch extraction: each image's `side × side` pixels into
    /// `patches × patch²` rows.
    Patchify {
        src: Loc,
        dst: Loc,
        side: usize,
        patch: usize,
    },
    /// Mean over `groups` rows of `cols` per request (the ViT pooling
    /// loop, divide-then-accumulate to match the dynamic path bit-for-bit).
    MeanPool {
        src: Loc,
        dst: Loc,
        groups: usize,
        cols: usize,
    },
    /// Global average pool: mean over each of a request's `chunks`
    /// `spatial`-sized chunks (sum-then-divide, matching `GlobalAvgPool`).
    AvgPool {
        src: Loc,
        dst: Loc,
        chunks: usize,
        spatial: usize,
    },
}

/// How `f32` weights reach a GEMM node: raw values for the identity
/// (`FP32`) path, or a shift-aligned code plane pinned at plan time for
/// the integer code-domain path.
enum GemmWeights {
    /// Identity formats: plain `f32` GEMM against the copied weights.
    F32 { w: Vec<f32> },
    /// Code-domain path: the activation-side format plus the pinned plane.
    Code {
        fa: BdrFormat,
        plane: Arc<PackedOperand>,
    },
}

/// How the plan's first stage consumes one request's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InputSpec {
    /// Flat pixel payload of `len` values per request, copied into the flow.
    Pixels { len: usize },
    /// `rows` token indices per request, consumed by an embed node.
    Tokens { rows: usize },
}

/// The input payload for [`CompiledPlan::execute`]: the concatenated
/// requests of one batch. Mirrors the zoo's input kinds without depending
/// on the models crate.
#[derive(Debug, Clone, Copy)]
pub enum PlanInput<'a> {
    /// Token indices (uniform batch, `batch · len` entries).
    Tokens(&'a [usize]),
    /// Flat `f32` feature/pixel payload.
    Pixels(&'a [f32]),
}

/// Reusable per-worker scratch for plan execution: the arena buffer (two
/// ping-pong flow regions plus the locals region) and the A-side pack
/// scratch the gemm kernels reuse across calls. Cheap to create, intended
/// to live one-per-thread.
#[derive(Default)]
pub struct PlanArena {
    buf: Vec<f32>,
    scratch: PackScratch,
}

impl PlanArena {
    /// Creates an empty arena; the first execute sizes it.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A lowered, optimized, immutable forward pass for one
/// `(QuantConfig, sequence-length bucket)` key, executable at any batch of
/// `1..=capacity` requests. Shareable across threads (`Arc`); each
/// executing thread brings its own [`PlanArena`]. Sizes are per request.
pub struct CompiledPlan {
    stages: Vec<Vec<PlanNode>>,
    input: InputSpec,
    capacity: usize,
    flow_len: usize,
    locals_len: usize,
    out_len: usize,
}

/// Builder for one stage of one request: a node sequence that reads the
/// stage's flow input and leaves its result in the flow output, with locals
/// placed by a liveness-ordered first-fit allocator. Push completed stages
/// into a [`Planner`].
pub struct Stage {
    nodes: Vec<PlanNode>,
    in_len: usize,
    out_len: usize,
    free: Vec<(usize, usize)>,
    high: usize,
}

impl Stage {
    /// Starts a stage transforming `in_len` flow elements per request into
    /// `out_len`.
    pub fn new(in_len: usize, out_len: usize) -> Self {
        Stage {
            nodes: Vec::new(),
            in_len,
            out_len,
            free: Vec::new(),
            high: 0,
        }
    }

    /// Reserves `len` elements of stage-local scratch (first-fit over the
    /// free list, growing the high-water mark only when nothing fits).
    pub fn alloc(&mut self, len: usize) -> Loc {
        for i in 0..self.free.len() {
            let (off, flen) = self.free[i];
            if flen >= len {
                if flen == len {
                    self.free.remove(i);
                } else {
                    self.free[i] = (off + len, flen - len);
                }
                return Loc::Local(off);
            }
        }
        let off = self.high;
        self.high += len;
        Loc::Local(off)
    }

    /// Returns a local reservation to the free list (coalescing with
    /// adjacent free ranges) once its last reader has been pushed. `In`
    /// and `Out` are not allocator-managed and are ignored.
    pub fn free(&mut self, loc: Loc, len: usize) {
        let Loc::Local(off) = loc else { return };
        let at = self
            .free
            .iter()
            .position(|&(o, _)| o > off)
            .unwrap_or(self.free.len());
        self.free.insert(at, (off, len));
        // Coalesce right, then left.
        if at + 1 < self.free.len() && self.free[at].0 + self.free[at].1 == self.free[at + 1].0 {
            self.free[at].1 += self.free[at + 1].1;
            self.free.remove(at + 1);
        }
        if at > 0 && self.free[at - 1].0 + self.free[at - 1].1 == self.free[at].0 {
            self.free[at - 1].1 += self.free[at].1;
            self.free.remove(at);
        }
    }

    /// Lowers a [`Linear`] into a fused GEMM node over `m` rows per
    /// request, running the hoisted format-support gate and pinning the
    /// weight plane. `act` optionally folds a following activation layer
    /// into the node, with that layer's cast to `cfg.elementwise`.
    pub fn gemm(
        &mut self,
        lin: &Linear,
        src: Loc,
        dst: Loc,
        m: usize,
        cfg: QuantConfig,
        act: Option<Activation>,
    ) -> Result<(), PlanError> {
        let (k, n) = (lin.d_in(), lin.d_out());
        self.nodes.push(PlanNode::PackedGemm {
            src,
            dst,
            m,
            k,
            n,
            weights: lower_weights(&lin.w.value, cfg.fwd, cfg.fwd_w, k, n)?,
            bias: lin.b.as_ref().map(|b| b.value.data().to_vec()),
            act,
            cast: act.map(|_| cfg.elementwise),
        });
        Ok(())
    }

    /// Lowers a [`LayerNorm`] over `rows` rows per request into a norm
    /// node casting to `cfg.elementwise`.
    pub fn norm(&mut self, ln: &LayerNorm, src: Loc, dst: Loc, rows: usize, cfg: QuantConfig) {
        self.nodes.push(PlanNode::Norm {
            src,
            dst,
            rows,
            cols: ln.gamma.value.numel(),
            gamma: ln.gamma.value.data().to_vec(),
            beta: ln.beta.value.data().to_vec(),
            eps: ln.plan_parts(),
            elem: cfg.elementwise,
        });
    }

    /// Pushes `dst = a + b`, optionally fused with a ReLU.
    pub fn add(&mut self, a: Loc, b: Loc, dst: Loc, len: usize, relu: bool) {
        self.nodes.push(PlanNode::Add {
            a,
            b,
            dst,
            len,
            relu,
        });
    }

    /// Pushes the attention head mix for one `t × d` sequence with `heads`
    /// heads. The four locations, the dimensions and the formats genuinely
    /// vary per call site, so this mirrors the dynamic helper's signature.
    #[allow(clippy::too_many_arguments)]
    pub fn attn_mix(
        &mut self,
        q: Loc,
        k: Loc,
        v: Loc,
        dst: Loc,
        t: usize,
        d: usize,
        heads: usize,
        causal: bool,
        cfg: QuantConfig,
    ) {
        self.nodes.push(PlanNode::AttnMix {
            q,
            k,
            v,
            dst,
            t,
            d,
            heads,
            causal,
            fwd: cfg.fwd,
            elem: cfg.elementwise,
        });
    }

    /// Lowers a [`Conv2d`] over one `in_ch × h × w` image, running the
    /// hoisted format gate on the im2col GEMM and pinning its plane.
    /// The geometry plus fusion flag genuinely vary per call site.
    #[allow(clippy::too_many_arguments)]
    pub fn conv(
        &mut self,
        conv: &Conv2d,
        src: Loc,
        dst: Loc,
        h: usize,
        w: usize,
        cfg: QuantConfig,
        relu: bool,
    ) -> Result<(), PlanError> {
        let (in_ch, out_ch, k, pad) = conv.plan_parts();
        let patch = in_ch * k * k;
        self.nodes.push(PlanNode::Conv {
            src,
            dst,
            weights: lower_weights(&conv.w.value, cfg.fwd, cfg.fwd_w, patch, out_ch)?,
            bias: conv.b.value.data().to_vec(),
            in_ch,
            out_ch,
            k,
            pad,
            h,
            w,
            relu,
        });
        Ok(())
    }

    /// Pushes ViT patch extraction for one image of `side × side` pixels.
    pub fn patchify(&mut self, src: Loc, dst: Loc, side: usize, patch: usize) {
        self.nodes.push(PlanNode::Patchify {
            src,
            dst,
            side,
            patch,
        });
    }

    /// Pushes the ViT-style mean pool over a request's `groups` rows.
    pub fn mean_pool(&mut self, src: Loc, dst: Loc, groups: usize, cols: usize) {
        self.nodes.push(PlanNode::MeanPool {
            src,
            dst,
            groups,
            cols,
        });
    }

    /// Pushes a global average pool over a request's `chunks` chunks of
    /// `spatial` elements.
    pub fn avg_pool(&mut self, src: Loc, dst: Loc, chunks: usize, spatial: usize) {
        self.nodes.push(PlanNode::AvgPool {
            src,
            dst,
            chunks,
            spatial,
        });
    }
}

/// The hoisted format-support gate (the per-call check of the dynamic
/// path, run once at plan time): identity pairs take the `f32` path,
/// supported BDR pairs pin the code plane that accepts `fa` — fetched from
/// (or packed into) the same generation-keyed per-tensor cache the dynamic
/// path uses — anything else is a typed compile error.
fn lower_weights(
    w: &Tensor,
    fa: TensorFormat,
    fb: TensorFormat,
    k: usize,
    n: usize,
) -> Result<GemmWeights, PlanError> {
    if fa.is_identity() && fb.is_identity() {
        return Ok(GemmWeights::F32 {
            w: w.data().to_vec(),
        });
    }
    if let (TensorFormat::Bdr(ba), TensorFormat::Bdr(bb)) = (fa, fb) {
        if let Some(plane) = weight_plane(w, ba, bb, k, n) {
            return Ok(GemmWeights::Code { fa: ba, plane });
        }
    }
    Err(PlanError::UnsupportedFormats { fa, fb })
}

/// Lowers one request's forward into a [`CompiledPlan`]: collects stages
/// in execution order and computes the per-request arena layout.
#[derive(Default)]
pub struct Planner {
    stages: Vec<Vec<PlanNode>>,
    input: Option<InputSpec>,
    flow_len: usize,
    locals_len: usize,
    out_len: usize,
}

impl Planner {
    /// Starts an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares the plan's input as a flat pixel payload of `len` values
    /// per request.
    pub fn pixels_input(&mut self, len: usize) {
        self.input = Some(InputSpec::Pixels { len });
    }

    /// Appends a completed stage, folding its sizes into the arena layout.
    pub fn push_stage(&mut self, stage: Stage) {
        self.flow_len = self.flow_len.max(stage.in_len).max(stage.out_len);
        self.locals_len = self.locals_len.max(stage.high);
        self.out_len = stage.out_len;
        self.stages.push(stage.nodes);
    }

    /// Builds the token-embedding stage shared by the GPT/BERT lowerings:
    /// hoists (and pre-casts) the token table and the first `t` positional
    /// rows, for `t` tokens per request. Fails for storage formats whose
    /// cast is not element-wise (per-tensor scaled), where hoisting would
    /// change bits.
    pub fn embed_stage(
        &mut self,
        tok: &Embedding,
        pos: &Embedding,
        t: usize,
    ) -> Result<(), PlanError> {
        let (vocab, dim) = (tok.table.value.shape()[0], tok.table.value.shape()[1]);
        if pos.table.value.shape()[0] < t {
            return Err(PlanError::Unsupported("positional table shorter than seq"));
        }
        let table = hoist_table(tok)?;
        let mut pos_rows = hoist_table(pos)?;
        pos_rows.truncate(t * dim);
        let mut s = Stage::new(0, t * dim);
        s.nodes.push(PlanNode::Embed {
            dst: Loc::Out,
            table,
            rows: vocab,
            pos: pos_rows,
            t,
            dim,
        });
        self.input = Some(InputSpec::Tokens { rows: t });
        self.push_stage(s);
        Ok(())
    }

    /// Lowers one pre-norm [`TransformerBlock`] over a request's `t` rows
    /// into a stage of its own, with the block's weights on its nodes.
    pub fn transformer_block_stage(
        &mut self,
        blk: &TransformerBlock,
        cfg: QuantConfig,
        t: usize,
    ) -> Result<(), PlanError> {
        let (ln1, attn, ln2, fc1, act, fc2) = blk.plan_parts();
        let (wq, wk, wv, wo, heads, causal) = attn.plan_parts();
        let d = wq.d_in();
        let len = t * d;
        let mut s = Stage::new(len, len);
        let normed = s.alloc(len);
        s.norm(ln1, Loc::In, normed, t, cfg);
        let (q, k, v) = (s.alloc(len), s.alloc(len), s.alloc(len));
        s.gemm(wq, normed, q, t, cfg, None)?;
        s.gemm(wk, normed, k, t, cfg, None)?;
        s.gemm(wv, normed, v, t, cfg, None)?;
        s.free(normed, len);
        let concat = s.alloc(len);
        s.attn_mix(q, k, v, concat, t, d, heads, causal, cfg);
        s.free(q, len);
        s.free(k, len);
        s.free(v, len);
        let attn_out = s.alloc(len);
        s.gemm(wo, concat, attn_out, t, cfg, None)?;
        s.free(concat, len);
        let x1 = s.alloc(len);
        s.add(Loc::In, attn_out, x1, len, false);
        s.free(attn_out, len);
        let normed2 = s.alloc(len);
        s.norm(ln2, x1, normed2, t, cfg);
        let h = s.alloc(t * fc1.d_out());
        s.gemm(fc1, normed2, h, t, cfg, Some(act.plan_parts()))?;
        s.free(normed2, len);
        let h2 = s.alloc(len);
        s.gemm(fc2, h, h2, t, cfg, None)?;
        s.free(h, t * fc1.d_out());
        s.add(x1, h2, Loc::Out, len, false);
        self.push_stage(s);
        Ok(())
    }

    /// Seals the plan for batches of up to `capacity` requests. Fails if
    /// no stage declared the input contract or `capacity` is zero.
    pub fn finish(self, capacity: usize) -> Result<CompiledPlan, PlanError> {
        let input = self.input.ok_or(PlanError::Internal("plan has no input"))?;
        if self.stages.is_empty() {
            return Err(PlanError::Internal("plan has no stages"));
        }
        if capacity == 0 {
            return Err(PlanError::Unsupported("a plan serves at least one request"));
        }
        Ok(CompiledPlan {
            stages: self.stages,
            input,
            capacity,
            flow_len: self.flow_len,
            locals_len: self.locals_len,
            out_len: self.out_len,
        })
    }
}

/// Pre-casts an embedding table through its storage format at plan time.
/// Valid exactly when the cast commutes with row gathering: identity,
/// element-wise scalar, and row-blocked BDR formats qualify; per-tensor
/// amax scaling does not (its scale depends on the gathered values).
fn hoist_table(e: &Embedding) -> Result<Vec<f32>, PlanError> {
    let fmt = e.plan_format();
    if fmt.is_per_tensor_scaled() {
        return Err(PlanError::Unsupported(
            "per-tensor-scaled embedding tables cannot be hoisted",
        ));
    }
    let dim = e.table.value.shape()[1];
    let mut data = e.table.value.data().to_vec();
    cast_rows(&mut data, dim, fmt);
    Ok(data)
}

impl fmt::Debug for CompiledPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledPlan")
            .field("stages", &self.stages.len())
            .field("pinned_planes", &self.pinned_planes())
            .field("capacity", &self.capacity)
            .field("arena_elems", &self.arena_elems())
            .field("out_len", &self.out_len)
            .finish()
    }
}

/// Where one execution's stage resolves its [`Loc`]s: the two flow
/// buffers and the locals region of the arena, plus the batch `nb` that
/// scales every per-request offset and extent.
#[derive(Clone, Copy)]
struct Frame {
    input: usize,
    output: usize,
    locals: usize,
    nb: usize,
}

impl Frame {
    fn off(&self, loc: Loc) -> usize {
        match loc {
            Loc::In => self.input,
            Loc::Out => self.output,
            Loc::Local(o) => self.locals + o * self.nb,
        }
    }
}

impl CompiledPlan {
    /// Equal to [`CompiledPlan::instance_count`]: every stage owns its own
    /// node list. Kept for callers that report both.
    pub fn template_count(&self) -> usize {
        self.stages.len()
    }

    /// Number of stages executed per call.
    pub fn instance_count(&self) -> usize {
        self.stages.len()
    }

    /// Number of weight code planes the plan pins: one per code-domain
    /// GEMM or conv node (the `f32` identity path pins none).
    pub fn pinned_planes(&self) -> usize {
        let pinned = |n: &PlanNode| match n {
            PlanNode::PackedGemm { weights, .. } | PlanNode::Conv { weights, .. } => {
                matches!(weights, GemmWeights::Code { .. })
            }
            _ => false,
        };
        self.stages.iter().flatten().filter(|n| pinned(n)).count()
    }

    /// Arena footprint in `f32` elements (two flow buffers plus locals) of
    /// a batch at full capacity.
    pub fn arena_elems(&self) -> usize {
        (2 * self.flow_len + self.locals_len) * self.capacity
    }

    /// Output length per request, in elements.
    pub fn out_len(&self) -> usize {
        self.out_len
    }

    /// Executes the plan against `input` — `1..=capacity` concatenated
    /// requests — using `arena` for all scratch, returning the flat output
    /// (`out_len()` per request, request-major). Thread-safe on a shared
    /// `&self`; each calling thread must bring its own arena.
    pub fn execute(
        &self,
        input: PlanInput<'_>,
        arena: &mut PlanArena,
    ) -> Result<Vec<f32>, PlanError> {
        let (per, got) = match (input, self.input) {
            (PlanInput::Pixels(px), InputSpec::Pixels { len }) => (len, px.len()),
            (PlanInput::Tokens(tk), InputSpec::Tokens { rows }) => (rows, tk.len()),
            _ => return Err(PlanError::Input("input kind")),
        };
        if per == 0 || got == 0 || got % per != 0 {
            return Err(PlanError::Input(
                "payload is not a whole number of requests",
            ));
        }
        let nb = got / per;
        if nb > self.capacity {
            return Err(PlanError::Input("more requests than the plan's capacity"));
        }
        let flow = self.flow_len * nb;
        let need = 2 * flow + self.locals_len * nb;
        if arena.buf.len() < need {
            arena.buf.resize(need, 0.0);
        }
        let PlanArena { buf, scratch } = arena;
        let tokens = match input {
            PlanInput::Pixels(px) => {
                buf[..got].copy_from_slice(px);
                None
            }
            PlanInput::Tokens(tk) => Some(tk),
        };
        let mut parity = 0usize;
        for stage in &self.stages {
            let (input, output) = if parity == 0 { (0, flow) } else { (flow, 0) };
            let frame = Frame {
                input,
                output,
                locals: 2 * flow,
                nb,
            };
            for node in stage {
                run_node(node, frame, buf, scratch, tokens)?;
            }
            parity ^= 1;
        }
        let final_base = if parity == 0 { 0 } else { flow };
        Ok(buf[final_base..final_base + self.out_len * nb].to_vec())
    }
}

/// Executes one node for the frame's `nb` requests: every
/// batch-proportional extent is the node's per-request extent times `nb`.
fn run_node(
    node: &PlanNode,
    frame: Frame,
    buf: &mut [f32],
    scratch: &mut PackScratch,
    tokens: Option<&[usize]>,
) -> Result<(), PlanError> {
    let nb = frame.nb;
    let off = |loc: Loc| frame.off(loc);
    match *node {
        PlanNode::PackedGemm {
            src,
            dst,
            m,
            k,
            n,
            ref weights,
            ref bias,
            act,
            cast,
        } => {
            let m = m * nb;
            let s = off(src);
            let y = run_gemm(weights, &buf[s..s + m * k], m, k, n, scratch)?;
            let d = off(dst);
            let out = &mut buf[d..d + m * n];
            out.copy_from_slice(&y);
            if let Some(bias) = bias {
                add_row_slice(out, bias);
            }
            if let Some(a) = act {
                a.apply_slice(out);
            }
            if let Some(f) = cast {
                cast_rows(out, n, f);
            }
        }
        PlanNode::Norm {
            src,
            dst,
            rows,
            cols,
            ref gamma,
            ref beta,
            eps,
            elem,
        } => {
            let len = rows * nb * cols;
            let (s, d) = (off(src), off(dst));
            buf.copy_within(s..s + len, d);
            let out = &mut buf[d..d + len];
            normalize_rows(out, cols, eps, None);
            scale_shift_rows(out, cols, gamma, beta);
            cast_rows(out, cols, elem);
        }
        PlanNode::Add {
            a,
            b,
            dst,
            len,
            relu,
        } => {
            let (ao, bo, d) = (off(a), off(b), off(dst));
            for i in 0..len * nb {
                let v = buf[ao + i] + buf[bo + i];
                buf[d + i] = if relu { v.max(0.0) } else { v };
            }
        }
        PlanNode::Embed {
            dst,
            ref table,
            rows,
            ref pos,
            t,
            dim,
        } => {
            let tk = tokens.ok_or(PlanError::Input("token plan fed pixels"))?;
            let d = off(dst);
            for (r, &idx) in tk.iter().enumerate() {
                if idx >= rows {
                    return Err(PlanError::Input("token index out of range"));
                }
                let row = &table[idx * dim..(idx + 1) * dim];
                let p = &pos[(r % t) * dim..(r % t + 1) * dim];
                let out = &mut buf[d + r * dim..d + (r + 1) * dim];
                for (o, (x, y)) in out.iter_mut().zip(row.iter().zip(p.iter())) {
                    *o = x + y;
                }
            }
        }
        PlanNode::AttnMix {
            q,
            k,
            v,
            dst,
            t,
            d,
            heads,
            causal,
            fwd,
            elem,
        } => {
            let len = nb * t * d;
            let [q, k, v, out] = ranges(buf, [q, k, v, dst].map(|at| (off(at), len)))?;
            attention_mix(q, k, v, out, t, d, heads, causal, fwd, elem, None);
        }
        PlanNode::Conv {
            src,
            dst,
            ref weights,
            ref bias,
            in_ch,
            out_ch,
            k,
            pad,
            h,
            w,
            relu,
        } => {
            let (chw, ohw, patch) = (in_ch * h * w, h * w, in_ch * k * k);
            let [x, out] = ranges(buf, [(off(src), nb * chw), (off(dst), nb * out_ch * ohw)])?;
            for (img, img_out) in x.chunks_exact(chw).zip(out.chunks_exact_mut(out_ch * ohw)) {
                let cols = im2col(img, in_ch, k, pad, h, w);
                let y = run_gemm(weights, cols.data(), ohw, patch, out_ch, scratch)?;
                scatter_channels(&y, bias, img_out);
            }
            if relu {
                Activation::Relu.apply_slice(out);
            }
        }
        PlanNode::Patchify {
            src,
            dst,
            side,
            patch,
        } => {
            let len = nb * side * side;
            let [x, out] = ranges(buf, [(off(src), len), (off(dst), len)])?;
            patchify(x, out, side, patch);
        }
        PlanNode::MeanPool {
            src,
            dst,
            groups,
            cols,
        } => {
            let [x, out] = ranges(buf, [(off(src), nb * groups * cols), (off(dst), nb * cols)])?;
            mean_pool(x, out, groups, cols);
        }
        PlanNode::AvgPool {
            src,
            dst,
            chunks,
            spatial,
        } => {
            let [x, out] = ranges(
                buf,
                [(off(src), nb * chunks * spatial), (off(dst), nb * chunks)],
            )?;
            avg_pool(x, out, spatial);
        }
    }
    Ok(())
}

/// Borrows a node's `(offset, len)` ranges of the arena at once. The
/// planner never overlaps two ranges one node touches, so only a broken
/// plan fails here.
fn ranges<const N: usize>(
    buf: &mut [f32],
    at: [(usize, usize); N],
) -> Result<[&mut [f32]; N], PlanError> {
    buf.get_disjoint_mut(at.map(|(o, len)| o..o + len))
        .map_err(|_| PlanError::Internal("a node's arena ranges overlap"))
}

/// Runs the GEMM core of a node on its plan-time-chosen path, under the
/// same thread budget the dynamic path passes (`0`: the process-wide
/// budget; the GEMM's MAC grain decides per call whether to fan out).
fn run_gemm(
    weights: &GemmWeights,
    a: &[f32],
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut PackScratch,
) -> Result<Vec<f32>, PlanError> {
    match weights {
        GemmWeights::F32 { w } => Ok(fgemm::matmul(a, w, m, k, n, 0)),
        GemmWeights::Code { fa, plane } => {
            gemm::quantized_gemm_prepacked_scratch(a, m, *fa, plane, 0, scratch)
                .ok_or(PlanError::Internal("pinned plane lost its kernel class"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Layer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    fn bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b.iter())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn first_fit_allocator_reuses_freed_ranges() {
        let mut s = Stage::new(0, 0);
        let a = s.alloc(16);
        let b = s.alloc(8);
        assert_eq!((a, b), (Loc::Local(0), Loc::Local(16)));
        s.free(a, 16);
        // A smaller request carves the freed range; the remainder survives.
        assert_eq!(s.alloc(8), Loc::Local(0));
        assert_eq!(s.alloc(8), Loc::Local(8));
        assert_eq!(s.high, 24, "no growth past the high-water mark");
        // Freeing adjacent ranges coalesces them back into one.
        s.free(Loc::Local(0), 8);
        s.free(Loc::Local(8), 8);
        assert_eq!(s.alloc(16), Loc::Local(0));
    }

    #[test]
    fn planned_linear_matches_dynamic_bits() {
        for cfg in [
            QuantConfig::fp32(),
            QuantConfig::uniform(TensorFormat::MX6),
            QuantConfig::weights_activations(TensorFormat::MX4, TensorFormat::MX9),
        ] {
            let mut lin = Linear::new(&mut rng(), 32, 8, true, cfg);
            let mut p = Planner::new();
            p.pixels_input(32);
            let mut s = Stage::new(32, 8);
            s.gemm(&lin, Loc::In, Loc::Out, 1, cfg, None).unwrap();
            p.push_stage(s);
            let plan = p.finish(3).unwrap();
            let mut arena = PlanArena::new();
            // Largest batch first, so the smaller ones run over a warm,
            // oversized arena.
            for batch in [3, 1, 2] {
                let x: Vec<f32> = (0..batch * 32).map(|i| (i as f32 * 0.23).sin()).collect();
                let want = lin
                    .forward(&Tensor::from_vec(x.clone(), &[batch, 32]), false)
                    .into_data();
                let got = plan.execute(PlanInput::Pixels(&x), &mut arena).unwrap();
                assert!(bits(&want, &got), "{cfg} batch {batch}");
            }
        }
    }

    #[test]
    fn unsupported_pair_fails_at_plan_time() {
        let cfg = QuantConfig::uniform(TensorFormat::Bf16);
        let lin = Linear::new(&mut rng(), 16, 4, false, cfg);
        let mut s = Stage::new(16, 4);
        let err = s.gemm(&lin, Loc::In, Loc::Out, 1, cfg, None).unwrap_err();
        assert!(matches!(err, PlanError::UnsupportedFormats { .. }), "{err}");
    }

    #[test]
    fn execute_validates_input_shape_and_kind() {
        let cfg = QuantConfig::fp32();
        let lin = Linear::new(&mut rng(), 8, 2, false, cfg);
        let mut p = Planner::new();
        p.pixels_input(8);
        let mut s = Stage::new(8, 2);
        s.gemm(&lin, Loc::In, Loc::Out, 1, cfg, None).unwrap();
        p.push_stage(s);
        let plan = p.finish(1).unwrap();
        let mut arena = PlanArena::new();
        assert!(plan
            .execute(PlanInput::Pixels(&[0.0; 7]), &mut arena)
            .is_err());
        assert!(plan
            .execute(PlanInput::Pixels(&[0.0; 16]), &mut arena)
            .is_err());
        assert!(plan
            .execute(PlanInput::Tokens(&[1, 2]), &mut arena)
            .is_err());
        assert!(plan
            .execute(PlanInput::Pixels(&[0.0; 8]), &mut arena)
            .is_ok());
    }

    #[test]
    fn plan_reports_its_pinned_planes_and_arena() {
        for (cfg, planes) in [
            (QuantConfig::fp32(), 0),
            (QuantConfig::uniform(TensorFormat::MX9), 1),
        ] {
            let lin = Linear::new(&mut rng(), 32, 4, false, cfg);
            let mut p = Planner::new();
            p.pixels_input(32);
            let mut s = Stage::new(32, 4);
            s.gemm(&lin, Loc::In, Loc::Out, 1, cfg, None).unwrap();
            p.push_stage(s);
            let plan = p.finish(3).unwrap();
            assert_eq!(plan.pinned_planes(), planes, "{cfg}");
            // Two 32-wide flow buffers and no locals, per request.
            assert_eq!(plan.arena_elems(), 2 * 32 * 3, "{cfg}");
        }
    }
}

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
//!   chains collapse into single [`PlanNode::PackedGemm`] nodes (the A-side
//!   quantize is already fused into the gemm kernel's execute loop).
//! - **Template dedup** — repeated subgraph structure (e.g. the N identical
//!   transformer blocks) shares one node [`Template`]; per-layer weights
//!   live in per-instance binding tables.
//! - **Arena scratch** — one liveness-ordered first-fit layout maps every
//!   intermediate into a single reusable buffer ([`PlanArena`]), grown to
//!   the executed batch's size. Steady state still allocates per call
//!   beyond the arena: every GEMM's output vector, the `Tensor`s `AttnMix`
//!   builds (its q/k/v copies and what
//!   [`crate::attention::attention_mix`] returns), `Conv`'s `im2col`
//!   matrix per image, and the returned output.
//!
//! Bit-identity with the dynamic path is by construction: every node
//! executes through the *same* crate-internal helper the corresponding
//! layer's `forward` uses (`gemm::quantized_gemm_prepacked_scratch`,
//! [`crate::layers::normalize_rows`], [`crate::attention::attention_mix`],
//! [`crate::conv::im2col`], [`crate::format::cast_rows`], the activation
//! slice loop `Activation::apply_slice`, …), with the same
//! thread count and the same operand values. The `plan_consistency` suite
//! asserts equality to the bit for every zoo model × format preset ×
//! bucket, at every executed batch up to the compiled capacity.

use crate::attention::{attention_mix, TransformerBlock};
use crate::conv::{im2col, Conv2d};
use crate::format::{cast_rows, TensorFormat};
use crate::layers::{normalize_rows, scale_shift_rows, Activation, Embedding, LayerNorm, Linear};
use crate::qflow::{weight_plane, QuantConfig};
use crate::tensor::Tensor;
use mx_core::bdr::BdrFormat;
use mx_core::fgemm;
use mx_core::gemm::{self, PackScratch, PackedOperand};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide count of plans compiled ([`Planner::finish`] calls).
static PLANS_COMPILED: AtomicU64 = AtomicU64::new(0);
/// Process-wide count of weight planes pinned at plan time (prepack hoists).
static PREPACK_HOISTS: AtomicU64 = AtomicU64::new(0);
/// Process-wide cumulative arena bytes laid out by compiled plans.
static ARENA_BYTES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide plan counters as
/// `(plans_compiled, prepack_hoists, arena_bytes)`. Cumulative over the
/// process; consumers such as `mx-serve`'s `ServeStats` report deltas
/// against a baseline.
pub fn plan_counters() -> (u64, u64, u64) {
    (
        PLANS_COMPILED.load(Ordering::Relaxed),
        PREPACK_HOISTS.load(Ordering::Relaxed),
        ARENA_BYTES.load(Ordering::Relaxed),
    )
}

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

/// One operator of the compiled IR, with the extents of **one request**;
/// execution scales every batch-proportional extent by the batch. Weight-like
/// state (planes, biases, tables) is *not* stored on the node — nodes
/// reference per-instance binding slots, which is what lets repeated
/// structure share a template.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Fused quantize → GEMM → bias → activation → element-wise cast. The
    /// A-side quantize is fused inside the gemm kernel's execute loop; the
    /// weight plane (or raw `f32` weights) lives in the binding at `slot`.
    PackedGemm {
        /// Input location, `m × k` row-major.
        src: Loc,
        /// Output location, `m × n` row-major.
        dst: Loc,
        /// Rows per request.
        m: usize,
        /// Reduction dimension.
        k: usize,
        /// Output width.
        n: usize,
        /// Relative binding slot of the [`Binding::Gemm`].
        slot: usize,
        /// Fused activation applied after the bias, if any.
        act: Option<Activation>,
        /// Fused element-wise cast applied last, if any.
        cast: Option<TensorFormat>,
    },
    /// Layer norm over `rows × cols`, including the layer's element-wise
    /// cast; gain/bias/epsilon live in the binding.
    Norm {
        /// Input location.
        src: Loc,
        /// Output location.
        dst: Loc,
        /// Rows per request.
        rows: usize,
        /// Normalized width.
        cols: usize,
        /// Relative binding slot of the [`Binding::Norm`].
        slot: usize,
    },
    /// Standalone element-wise node: optional activation then a
    /// quantize/cast (either may be trivial).
    Eltwise {
        /// Input location.
        src: Loc,
        /// Output location.
        dst: Loc,
        /// Elements per request.
        len: usize,
        /// Row width for block-format casts.
        cols: usize,
        /// Activation to apply, if any.
        act: Option<Activation>,
        /// Element-wise cast format.
        cast: TensorFormat,
    },
    /// Element-wise sum `dst = a + b`, optionally fused with a ReLU (the
    /// residual-then-ReLU idiom of the CNN blocks).
    Add {
        /// Left operand location.
        a: Loc,
        /// Right operand location.
        b: Loc,
        /// Output location.
        dst: Loc,
        /// Elements per request.
        len: usize,
        /// Fuse `max(·, 0)` after the sum.
        relu: bool,
    },
    /// Token-embedding gather plus positional add, from tables hoisted
    /// (and pre-cast) at plan time. Gathers one row per payload token.
    Embed {
        /// Output location, `t × dim` per request.
        dst: Loc,
        /// Relative binding slot of the token [`Binding::Table`].
        table: usize,
        /// Relative binding slot of the positional [`Binding::Rows`].
        pos: usize,
        /// Sequence length (positional rows repeat every `t` tokens).
        t: usize,
        /// Embedding width.
        dim: usize,
    },
    /// The attention head mix: per (request, head) `softmax(Q·Kᵀ/√dh)·V`,
    /// executed by the exact helper the dynamic path uses.
    AttnMix {
        /// Q location, `t × d` per request.
        q: Loc,
        /// K location, `t × d` per request.
        k: Loc,
        /// V location, `t × d` per request.
        v: Loc,
        /// Concat output location, `t × d` per request.
        dst: Loc,
        /// Sequence length.
        t: usize,
        /// Model width.
        d: usize,
        /// Head count.
        heads: usize,
        /// Causal masking.
        causal: bool,
        /// Tensor-op format for `Q·Kᵀ` and `P·V`.
        fwd: TensorFormat,
        /// Element-wise format the probabilities are cast to.
        elem: TensorFormat,
    },
    /// 2-D convolution (im2col → packed GEMM → bias → channel-major
    /// reorder) per image, optionally fused with a ReLU.
    Conv {
        /// Input location, `in_ch × h × w` per image.
        src: Loc,
        /// Output location, `out_ch × h × w` per image.
        dst: Loc,
        /// Relative binding slot of the [`Binding::Conv`].
        slot: usize,
        /// Image height.
        h: usize,
        /// Image width.
        w: usize,
        /// Fuse `max(·, 0)` into the reorder.
        relu: bool,
    },
    /// ViT patch extraction: each image's `side × side` pixels into
    /// `patches × patch²` rows.
    Patchify {
        /// Input location (flat images).
        src: Loc,
        /// Output location (patch rows).
        dst: Loc,
        /// Image side length.
        side: usize,
        /// Patch side length.
        patch: usize,
    },
    /// Mean over `groups` rows per request (the ViT pooling loop,
    /// divide-then-accumulate to match the dynamic path bit-for-bit).
    MeanPool {
        /// Input location, `groups × cols` per request.
        src: Loc,
        /// Output location, `cols` per request.
        dst: Loc,
        /// Rows averaged per request.
        groups: usize,
        /// Row width.
        cols: usize,
    },
    /// Global average pool: mean over each `spatial`-sized chunk
    /// (sum-then-divide, matching `GlobalAvgPool`).
    AvgPool {
        /// Input location, `chunks × spatial` per request.
        src: Loc,
        /// Output location, `chunks` per request.
        dst: Loc,
        /// Chunks (channels) per request.
        chunks: usize,
        /// Elements per chunk (`h·w`).
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

/// Per-instance state a [`PlanNode`] references by relative slot.
enum Binding {
    /// A [`PlanNode::PackedGemm`]'s weights and optional bias.
    Gemm {
        weights: GemmWeights,
        bias: Option<Vec<f32>>,
    },
    /// A [`PlanNode::Norm`]'s gain, bias, epsilon, and element-wise format.
    Norm {
        gamma: Vec<f32>,
        beta: Vec<f32>,
        eps: f32,
        elem: TensorFormat,
    },
    /// A [`PlanNode::Conv`]'s weights, bias, and geometry.
    Conv {
        weights: GemmWeights,
        bias: Vec<f32>,
        in_ch: usize,
        out_ch: usize,
        k: usize,
        pad: usize,
    },
    /// A hoisted (pre-cast) lookup table, `rows × dim`.
    Table {
        data: Vec<f32>,
        rows: usize,
        dim: usize,
    },
    /// A hoisted block of pre-computed rows (e.g. the positional slice).
    Rows(Vec<f32>),
}

/// A deduplicated node sequence. Two stages with structurally identical
/// node lists (same shapes, formats, and relative binding slots — e.g.
/// the N transformer blocks of one model) share a single template; their
/// weights stay per-instance in the binding table.
struct Template {
    nodes: Vec<PlanNode>,
}

/// One execution of a [`Template`] with its own binding window.
struct Instance {
    template: usize,
    base: usize,
}

/// How the plan's first stage consumes one request's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InputSpec {
    /// Flat pixel payload of `len` values per request, copied into the flow.
    Pixels { len: usize },
    /// `rows` token indices per request, consumed by an [`PlanNode::Embed`].
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
    templates: Vec<Template>,
    instances: Vec<Instance>,
    bindings: Vec<Binding>,
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
    bindings: Vec<Binding>,
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
            bindings: Vec::new(),
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

    fn bind(&mut self, b: Binding) -> usize {
        self.bindings.push(b);
        self.bindings.len() - 1
    }

    /// Lowers a [`Linear`] into a fused [`PlanNode::PackedGemm`] over `m`
    /// rows per request, running the hoisted format-support gate and pinning the
    /// weight plane. `fused` optionally folds a following activation
    /// layer's `(activation, element-wise format)` into the node.
    pub fn gemm(
        &mut self,
        lin: &Linear,
        src: Loc,
        dst: Loc,
        m: usize,
        cfg: QuantConfig,
        fused: Option<(Activation, TensorFormat)>,
    ) -> Result<(), PlanError> {
        let (k, n) = (lin.d_in(), lin.d_out());
        let weights = lower_weights(&lin.w.value, cfg.fwd, cfg.fwd_w, k, n)?;
        let bias = lin.b.as_ref().map(|b| b.value.data().to_vec());
        let slot = self.bind(Binding::Gemm { weights, bias });
        self.nodes.push(PlanNode::PackedGemm {
            src,
            dst,
            m,
            k,
            n,
            slot,
            act: fused.map(|(a, _)| a),
            cast: fused.map(|(_, f)| f),
        });
        Ok(())
    }

    /// Lowers a [`LayerNorm`] over `rows` rows per request into a
    /// [`PlanNode::Norm`].
    pub fn norm(&mut self, ln: &LayerNorm, src: Loc, dst: Loc, rows: usize) {
        let (eps, elem) = ln.plan_parts();
        let cols = ln.gamma.value.numel();
        let slot = self.bind(Binding::Norm {
            gamma: ln.gamma.value.data().to_vec(),
            beta: ln.beta.value.data().to_vec(),
            eps,
            elem,
        });
        self.nodes.push(PlanNode::Norm {
            src,
            dst,
            rows,
            cols,
            slot,
        });
    }

    /// Pushes a standalone element-wise node (activation and/or cast).
    pub fn eltwise(
        &mut self,
        src: Loc,
        dst: Loc,
        len: usize,
        cols: usize,
        act: Option<Activation>,
        cast: TensorFormat,
    ) {
        self.nodes.push(PlanNode::Eltwise {
            src,
            dst,
            len,
            cols,
            act,
            cast,
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
        let weights = lower_weights(&conv.w.value, cfg.fwd, cfg.fwd_w, patch, out_ch)?;
        let slot = self.bind(Binding::Conv {
            weights,
            bias: conv.b.value.data().to_vec(),
            in_ch,
            out_ch,
            k,
            pad,
        });
        self.nodes.push(PlanNode::Conv {
            src,
            dst,
            slot,
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
            PREPACK_HOISTS.fetch_add(1, Ordering::Relaxed);
            return Ok(GemmWeights::Code { fa: ba, plane });
        }
    }
    Err(PlanError::UnsupportedFormats { fa, fb })
}

/// Lowers one request's forward into a [`CompiledPlan`]: collects stages,
/// deduplicates structurally identical ones into shared templates, and
/// computes the per-request arena layout.
#[derive(Default)]
pub struct Planner {
    templates: Vec<Template>,
    instances: Vec<Instance>,
    bindings: Vec<Binding>,
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

    /// Appends a completed stage, deduplicating its node sequence against
    /// existing templates and folding its sizes into the arena layout.
    pub fn push_stage(&mut self, stage: Stage) {
        let Stage {
            nodes,
            bindings,
            in_len,
            out_len,
            high,
            ..
        } = stage;
        self.flow_len = self.flow_len.max(in_len).max(out_len);
        self.locals_len = self.locals_len.max(high);
        let template = match self.templates.iter().position(|t| t.nodes == nodes) {
            Some(i) => i,
            None => {
                self.templates.push(Template { nodes });
                self.templates.len() - 1
            }
        };
        self.instances.push(Instance {
            template,
            base: self.bindings.len(),
        });
        self.bindings.extend(bindings);
        self.out_len = out_len;
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
        let pos_block = hoist_table(pos)?[..t * dim].to_vec();
        let mut s = Stage::new(0, t * dim);
        let table = s.bind(Binding::Table {
            data: table,
            rows: vocab,
            dim,
        });
        let pos = s.bind(Binding::Rows(pos_block));
        s.nodes.push(PlanNode::Embed {
            dst: Loc::Out,
            table,
            pos,
            t,
            dim,
        });
        self.input = Some(InputSpec::Tokens { rows: t });
        self.push_stage(s);
        Ok(())
    }

    /// Lowers one pre-norm [`TransformerBlock`] over a request's `t` rows
    /// into a stage. All layers of all blocks of one model produce
    /// structurally identical stages, so `push_stage` dedupes them into one
    /// template with per-block weight bindings.
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
        s.norm(ln1, Loc::In, normed, t);
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
        s.norm(ln2, x1, normed2, t);
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
        if self.instances.is_empty() {
            return Err(PlanError::Internal("plan has no stages"));
        }
        if capacity == 0 {
            return Err(PlanError::Unsupported("a plan serves at least one request"));
        }
        let plan = CompiledPlan {
            templates: self.templates,
            instances: self.instances,
            bindings: self.bindings,
            input,
            capacity,
            flow_len: self.flow_len,
            locals_len: self.locals_len,
            out_len: self.out_len,
        };
        PLANS_COMPILED.fetch_add(1, Ordering::Relaxed);
        ARENA_BYTES.fetch_add(
            (plan.arena_elems() * std::mem::size_of::<f32>()) as u64,
            Ordering::Relaxed,
        );
        Ok(plan)
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
            .field("templates", &self.templates.len())
            .field("instances", &self.instances.len())
            .field("bindings", &self.bindings.len())
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
    /// Number of deduplicated node templates.
    pub fn template_count(&self) -> usize {
        self.templates.len()
    }

    /// Number of template instances (stages) executed per call.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
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
        for inst in &self.instances {
            let tpl = self
                .templates
                .get(inst.template)
                .ok_or(PlanError::Internal("template index"))?;
            let (input, output) = if parity == 0 { (0, flow) } else { (flow, 0) };
            let frame = Frame {
                input,
                output,
                locals: 2 * flow,
                nb,
            };
            for node in &tpl.nodes {
                self.run_node(node, inst.base, frame, buf, scratch, tokens)?;
            }
            parity ^= 1;
        }
        let final_base = if parity == 0 { 0 } else { flow };
        Ok(buf[final_base..final_base + self.out_len * nb].to_vec())
    }

    fn binding(&self, base: usize, slot: usize) -> Result<&Binding, PlanError> {
        self.bindings
            .get(base + slot)
            .ok_or(PlanError::Internal("binding slot"))
    }

    /// Executes one node for the frame's `nb` requests: every
    /// batch-proportional extent is the node's per-request extent times
    /// `nb`. `base` is the instance's binding window.
    fn run_node(
        &self,
        node: &PlanNode,
        base: usize,
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
                slot,
                act,
                cast,
            } => {
                let Binding::Gemm { weights, bias } = self.binding(base, slot)? else {
                    return Err(PlanError::Internal("gemm binding type"));
                };
                let m = m * nb;
                let s = off(src);
                let y = run_gemm(weights, &buf[s..s + m * k], m, k, n, scratch)?;
                let d = off(dst);
                let out = &mut buf[d..d + m * n];
                match bias {
                    Some(bias) => {
                        for (row, y_row) in out.chunks_exact_mut(n).zip(y.chunks_exact(n)) {
                            for ((v, &y), &b) in row.iter_mut().zip(y_row).zip(&bias[..n]) {
                                *v = y + b;
                            }
                        }
                    }
                    None => out.copy_from_slice(&y),
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
                slot,
            } => {
                let Binding::Norm {
                    gamma,
                    beta,
                    eps,
                    elem,
                } = self.binding(base, slot)?
                else {
                    return Err(PlanError::Internal("norm binding type"));
                };
                let len = rows * nb * cols;
                let (s, d) = (off(src), off(dst));
                buf.copy_within(s..s + len, d);
                let out = &mut buf[d..d + len];
                let _ = normalize_rows(out, cols, *eps);
                scale_shift_rows(out, cols, gamma, beta);
                cast_rows(out, cols, *elem);
            }
            PlanNode::Eltwise {
                src,
                dst,
                len,
                cols,
                act,
                cast,
            } => {
                let len = len * nb;
                let (s, d) = (off(src), off(dst));
                buf.copy_within(s..s + len, d);
                let out = &mut buf[d..d + len];
                if let Some(a) = act {
                    a.apply_slice(out);
                }
                cast_rows(out, cols, cast);
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
                table,
                pos,
                t,
                dim,
            } => {
                let Binding::Table {
                    data,
                    rows,
                    dim: tdim,
                } = self.binding(base, table)?
                else {
                    return Err(PlanError::Internal("table binding type"));
                };
                let Binding::Rows(pos_block) = self.binding(base, pos)? else {
                    return Err(PlanError::Internal("rows binding type"));
                };
                if *tdim != dim {
                    return Err(PlanError::Internal("table width"));
                }
                let tk = tokens.ok_or(PlanError::Input("token plan fed pixels"))?;
                let d = off(dst);
                for (r, &idx) in tk.iter().enumerate() {
                    if idx >= *rows {
                        return Err(PlanError::Input("token index out of range"));
                    }
                    let row = &data[idx * dim..(idx + 1) * dim];
                    let p = &pos_block[(r % t) * dim..(r % t + 1) * dim];
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
                let grab = |o: usize, buf: &[f32]| {
                    Tensor::from_vec(buf[o..o + len].to_vec(), &[nb * t, d])
                };
                let (qt, kt, vt) = (grab(off(q), buf), grab(off(k), buf), grab(off(v), buf));
                let concat = attention_mix(&qt, &kt, &vt, nb, t, heads, causal, fwd, elem, None);
                let o = off(dst);
                buf[o..o + len].copy_from_slice(concat.data());
            }
            PlanNode::Conv {
                src,
                dst,
                slot,
                h,
                w,
                relu,
            } => {
                let Binding::Conv {
                    weights,
                    bias,
                    in_ch,
                    out_ch,
                    k,
                    pad,
                } = self.binding(base, slot)?
                else {
                    return Err(PlanError::Internal("conv binding type"));
                };
                let (chw, ohw, patch) = (in_ch * h * w, h * w, in_ch * k * k);
                let (s, d) = (off(src), off(dst));
                for bi in 0..nb {
                    let cols = im2col(
                        &buf[s + bi * chw..s + (bi + 1) * chw],
                        *in_ch,
                        *k,
                        *pad,
                        h,
                        w,
                    );
                    let y = run_gemm(weights, cols.data(), ohw, patch, *out_ch, scratch)?;
                    let bbase = d + bi * out_ch * ohw;
                    for oc in 0..*out_ch {
                        for p in 0..ohw {
                            let mut v = y[p * out_ch + oc] + bias[oc];
                            if relu {
                                v = v.max(0.0);
                            }
                            buf[bbase + oc * ohw + p] = v;
                        }
                    }
                }
            }
            PlanNode::Patchify {
                src,
                dst,
                side,
                patch,
            } => {
                let per = side * side;
                let grid = side / patch;
                let (s, d) = (off(src), off(dst));
                let mut idx = d;
                for bi in 0..nb {
                    let img = s + bi * per;
                    for py in 0..grid {
                        for px in 0..grid {
                            for dy in 0..patch {
                                for dx in 0..patch {
                                    buf[idx] =
                                        buf[img + (py * patch + dy) * side + px * patch + dx];
                                    idx += 1;
                                }
                            }
                        }
                    }
                }
            }
            PlanNode::MeanPool {
                src,
                dst,
                groups,
                cols,
            } => {
                let (s, d) = (off(src), off(dst));
                buf[d..d + nb * cols].fill(0.0);
                for bi in 0..nb {
                    for p in 0..groups {
                        for c in 0..cols {
                            buf[d + bi * cols + c] +=
                                buf[s + (bi * groups + p) * cols + c] / groups as f32;
                        }
                    }
                }
            }
            PlanNode::AvgPool {
                src,
                dst,
                chunks,
                spatial,
            } => {
                let (s, d) = (off(src), off(dst));
                for i in 0..chunks * nb {
                    let sum: f32 = buf[s + i * spatial..s + (i + 1) * spatial].iter().sum();
                    buf[d + i] = sum / spatial as f32;
                }
            }
        }
        Ok(())
    }
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
    fn counters_move_on_compile() {
        let (p0, h0, a0) = plan_counters();
        let cfg = QuantConfig::uniform(TensorFormat::MX9);
        let lin = Linear::new(&mut rng(), 32, 4, false, cfg);
        let mut p = Planner::new();
        p.pixels_input(32);
        let mut s = Stage::new(32, 4);
        s.gemm(&lin, Loc::In, Loc::Out, 1, cfg, None).unwrap();
        p.push_stage(s);
        let plan = p.finish(1).unwrap();
        let (p1, h1, a1) = plan_counters();
        assert!(p1 > p0, "plans compiled must advance");
        assert!(h1 > h0, "the MX9 weight plane was a prepack hoist");
        assert!(a1 >= a0 + (plan.arena_elems() * 4) as u64);
    }
}

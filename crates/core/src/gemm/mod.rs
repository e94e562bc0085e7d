//! Integer-domain quantized GEMM fused with the quantization engine:
//! **pack the weights once, execute through one entry, and the plane says
//! what it accepts.**
//!
//! The point of the paper's Fig. 8 compute flow is that a BDR datapath never
//! multiplies wide floats: each operand element is a narrow sign/magnitude
//! *code*, each `k2`-sub-block carries a microexponent shift, and each
//! `k1`-block carries one shared exponent. A dot product over a block pair
//! is then
//!
//! 1. **shift alignment** — every code is left-shifted by `β − τ` (its
//!    sub-block's headroom under the maximum microexponent shift `β`),
//!    putting all magnitudes of the block on one fixed-point grid;
//! 2. **integer MACs** — the aligned codes multiply and accumulate in plain
//!    integer arithmetic (`i64` here, `i32` when the format pair is narrow
//!    enough to never overflow);
//! 3. **shared exponent add + scale-out** — the block-pair total `T` is
//!    an exact integer in units of `2^(E_a + E_b + c)`, where `E_a`/`E_b`
//!    are the two shared exponents and
//!    `c = −(m_a − 1) − β_a − (m_b − 1) − β_b` accounts for the mantissa
//!    binary points and the alignment shifts; an `f32` scale-out converts
//!    integer totals back to floats — once per block pair in the baseline
//!    kernels, and once per whole K reduction where **deferred scale-out**
//!    proves that exact (see below).
//!
//! # The surface
//!
//! - [`PackedOperand::pack_cols`] lowers the static weight operand **once**
//!   to a reusable code plane (through the engine's fast block core — the
//!   one plan and rounding rule behind the value path, the packed codec and
//!   [`crate::engine::QuantEngine::quantize_block_codes`]). Packing is the
//!   only stage that reads weight `f32` data; `mx-nn` caches the plane on
//!   the weight tensor (see `mx_nn::qflow` for the invalidation contract).
//! - [`quantized_gemm_prepacked_scratch`] is the **one** execute entry: it
//!   multiplies fresh activations against a plane, quantizing the
//!   activation rows as a stage of the same call — quantize is a pipeline
//!   stage of the dot product, not a separate kernel to choose.
//! - [`PackedOperand::accepts`] answers, without running anything, whether
//!   an activation format can execute against a plane; the entry returns
//!   `None` exactly when it is false.
//!
//! Everything the pipeline derives from the `(fa, fb)` pair — kernel class
//! (narrow or wide codes), block size, scale-out constant, deferral
//! headroom — is computed once by the module-private `FormatPair::new` and
//! carried as a value; [`code_domain_supported`] is its boolean view.
//!
//! # Code widths
//!
//! A narrow pair multiplies `i16` activation codes against a weight plane
//! whose width the **weight format alone** decides: `i8` when its largest
//! shift-aligned magnitude `max_code ≪ β` is at most 127 (MX6, MX4, MSFP12,
//! MSFP16), `i16` otherwise (MX9). The panel kernels sign-extend `i8`
//! weight codes to `i16` lanes as they load them, so the integers — and
//! every bit of the output — are the same as from an `i16` plane; only the
//! bytes a product streams halve. Wide pairs use `i32` codes on both sides.
//!
//! # Activation lowering
//!
//! A is lowered one row span at a time, at every shape: each span's rows
//! go through the same block loop that packs the weights (`pack_into`,
//! vector-major), and the span kernel consumes them at once on the same
//! thread. A serial GEMM lowers into the caller's [`PackScratch`]; under
//! fan-out every span lowers its own rows into a ring of its own. The
//! block plan, rounding rule, kernels, and accumulation order do not
//! depend on the split, so the result equals [`reference_gemm`] bit for
//! bit at every shape and thread count (`tests/gemm_fused.rs`).
//!
//! # Kernel backends
//!
//! The execute stage runs on one of three interchangeable **backends** —
//! portable scalar, AVX2, and AVX-512, each its own submodule behind
//! the span-kernel function-pointer seam in [`backend`] (where the full
//! dispatch contract is documented). Selection is automatic (best the CPU
//! supports), overridable with the `MX_KERNEL_BACKEND` env knob or
//! [`force_kernel_backend`], and reported by [`kernel_backend_name`].
//! Backends differ only in traversal and ISA — every one is bit-identical
//! to the others and to [`reference_gemm`], so the choice is a pure
//! performance knob.
//!
//! The AVX-512 backend keeps one column per register lane, so its
//! per-block scale-out is a lane epilogue over 16 columns at a time (see
//! the [`backend`] docs). The panel backends (generation-2 AVX2,
//! generation-3 AVX-512) additionally apply **deferred scale-out**: where
//! the block-plan exponent metadata proves the per-block `f32`
//! accumulation chain exact (`FormatPair::defer` documents the headroom
//! invariant and its per-backend derivation), the integer dots of all K
//! blocks accumulate in registers and the scale-out runs once per output
//! element — on AVX-512, once per (row, panel) — instead of once per
//! block pair. Elements that cannot be proven exact fall back to
//! the per-block chain — deferral never changes results, and
//! [`force_deferred_scale_out`] switches it off wholesale for tests.
//!
//! # Exactness
//!
//! For every supported format pair the integer path is **bit-identical**
//! to the quantize → dequantize → `f32` matmul reference
//! ([`reference_gemm`]): dequantized values are exact integer multiples of
//! their block's ulp, block-pair products and sums fit in the 52-bit
//! exact-integer range of `f64`, and both paths round once per block pair
//! before accumulating in `f32` in the same K-block order — with deferred
//! scale-out applied only where that chain provably never rounds at all.
//! This is an equality, not a tolerance — the consistency and
//! `gemm_backends` suites assert it bit for bit on every backend.
//!
//! # Examples
//!
//! ```
//! use mx_core::bdr::BdrFormat;
//! use mx_core::gemm::{
//!     quantized_gemm_prepacked_scratch, reference_gemm, PackScratch, PackedOperand,
//! };
//!
//! let fmt = BdrFormat::MX6;
//! let b: Vec<f32> = (0..32 * 3).map(|i| (i as f32 * 0.13).cos()).collect();
//! // Pack the static operand once ...
//! let pb = PackedOperand::pack_cols(&b, 32, 3, fmt, fmt).unwrap();
//! assert!(pb.accepts(&fmt));
//! // ... and reuse it (and the activation scratch) across calls.
//! let mut scratch = PackScratch::new();
//! for step in 0..3 {
//!     let a: Vec<f32> = (0..2 * 32).map(|i| ((i + step) as f32 * 0.17).sin()).collect();
//!     let y = quantized_gemm_prepacked_scratch(&a, 2, fmt, &pb, 1, &mut scratch).unwrap();
//!     assert_eq!(y, reference_gemm(&a, &b, 2, 32, 3, fmt, fmt));
//! }
//! ```

use crate::bdr::BdrFormat;
use crate::engine::{self, QuantEngine};
use crate::parallel;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;
pub mod backend;
mod pack;
mod pair;
mod scalar;

pub use backend::{
    deferred_scale_out_enabled, force_deferred_scale_out, force_kernel_backend, force_vnni,
    kernel_backend_name, selected_backend, BackendUnavailable, KernelBackend,
};
pub use pack::{PackScratch, PackedOperand};

use backend::SpanKernel;
use pack::{pack_into, CodeBuf, Plane, PlaneView};
use pair::{DeferCtx, FormatPair};

/// Rows of A processed per tile: each loaded B column-block is reused for
/// this many output rows, cutting B-code traffic by the tile height.
const TILE_M: usize = 8;

/// Columns per register-blocked panel in the panel-major B layout the AVX2
/// kernels consume (see [`PackedOperand::pack_cols`]): one panel's codes
/// for the whole reduction are contiguous, and 8 columns is what fits in
/// `i32` accumulator registers with room for the operands.
const PANEL_N: usize = 8;

/// Columns per panel in the column-in-lane B layout the AVX-512 kernel
/// consumes: one column per `i32` lane of a `zmm`, so one broadcast A pair
/// feeds every column of the panel and each lane ends a block holding one
/// column's block dot. A panel's codes still stream strictly sequentially
/// (one 32-code pair row after another). Doubles as the layout tag in
/// `PackedOperand::panel_n` (see [`pack::panel_slot`] for the slot order).
const PANEL_N_512: usize = 16;

/// Whether the `(fa, fb)` operand pair can run on the integer code-domain
/// path with an exactness guarantee — the boolean view of the
/// module-private `FormatPair::new`, whose requirement list is: matching
/// `k1`; per operand `m + β ≤ 30`; `(m_a + β_a) + (m_b + β_b) + ⌈log2 k1⌉
/// ≤ 52`; and per operand a smallest ulp at or above `2^-149`.
///
/// Every preset in the repository (MX4/MX6/MX9, MSFP12/MSFP16) qualifies;
/// exotic custom formats fall back to the dequantize path.
///
/// # Examples
///
/// ```
/// use mx_core::bdr::BdrFormat;
/// use mx_core::gemm::code_domain_supported;
///
/// // All MX/MSFP presets qualify, in any combination.
/// assert!(code_domain_supported(&BdrFormat::MX6, &BdrFormat::MX9));
/// assert!(code_domain_supported(&BdrFormat::MSFP12, &BdrFormat::MX4));
/// // Mismatched block sizes cannot tile K identically: rejected.
/// let k32 = BdrFormat::new(4, 8, 1, 32, 2).unwrap();
/// assert!(!code_domain_supported(&BdrFormat::MX6, &k32));
/// ```
pub fn code_domain_supported(fa: &BdrFormat, fb: &BdrFormat) -> bool {
    FormatPair::new(fa, fb).is_some()
}

/// Storage type for shift-aligned signed **activation** codes, and the
/// width a weight code widens to before it is multiplied. Narrow format
/// pairs (every MX/MSFP preset) use `i16`, whose widening
/// multiply-accumulate maps onto the CPU's packed 16-bit MAC instructions;
/// wide pairs fall back to `i32` codes with an `i64` accumulator. The
/// storage width itself (and the lossless narrowing from aligned `i32`
/// codes, guaranteed to fit by the `FormatPair` width gates and the plane
/// width rule) lives in [`engine::AlignedCode`], which the engine's
/// tile-granular lowering writes directly.
trait Code: engine::AlignedCode {
    /// Exact integer dot product of two equal-length blocks in portable
    /// Rust — the block dot of the scalar kernel. `b` holds weight codes
    /// of this width or a narrower one.
    fn dot<B: Copy + Into<Self>>(a: &[Self], b: &[B]) -> i64;
}

impl Code for i16 {
    #[inline(always)]
    fn dot<B: Copy + Into<Self>>(a: &[Self], b: &[B]) -> i64 {
        // The i32 accumulator cannot overflow: pairwise i16 products are
        // below 2^31 because `w_a + w_b ≤ 30`, and the block total is
        // bounded by the `w_a + w_b + ⌈log2 k1⌉ ≤ 31` dispatch gate.
        let mut acc = 0i32;
        for (&x, &y) in a.iter().zip(b.iter()) {
            acc += i32::from(x) * i32::from(y.into());
        }
        acc as i64
    }
}

impl Code for i32 {
    #[inline(always)]
    fn dot<B: Copy + Into<Self>>(a: &[Self], b: &[B]) -> i64 {
        let mut acc = 0i64;
        for (ca, cb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
            let mut lane = 0i64;
            for e in 0..8 {
                lane += i64::from(ca[e]) * i64::from(cb[e].into());
            }
            acc += lane;
        }
        let (ra, rb) = (a.chunks_exact(8).remainder(), b.chunks_exact(8).remainder());
        for (&x, &y) in ra.iter().zip(rb.iter()) {
            acc += i64::from(x) * i64::from(y.into());
        }
        acc
    }
}

/// A weight-plane code width of the narrow class: `i8` or `i16`. The panel
/// kernels load either as `i16` lanes (`i8` sign-extended on load), so one
/// kernel body per backend serves both.
trait NarrowCode: engine::AlignedCode + Into<i16> {}

impl NarrowCode for i8 {}

impl NarrowCode for i16 {}

/// Panel width a B-side pack of this block size should use under the
/// currently selected backend: [`PANEL_N_512`] for the AVX-512 kernel,
/// [`PANEL_N`] for AVX2, `0` (vector-major) otherwise — each panel layout
/// exists only for the backend whose kernels consume it.
#[cfg(target_arch = "x86_64")]
fn panel_layout(k1: usize) -> usize {
    match selected_backend() {
        KernelBackend::Avx512 if k1 == avx512::K1 => PANEL_N_512,
        KernelBackend::Avx2 if k1 == avx2::K1 => PANEL_N,
        _ => 0,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn panel_layout(_k1: usize) -> usize {
    0
}

/// Runs `kernel(start_row, rows, out_span)` over whole-row spans of the
/// `m × n` output `out`, in place: serially for `workers <= 1`, otherwise
/// through [`parallel::for_each_span_mut`] — the caller takes the first
/// span, every other span runs on a scoped thread writing its disjoint
/// rows of `out` directly (nothing is allocated or copied). The partition
/// is a pure function of `(m, workers)` and each output row is computed
/// the same way whichever span holds it, so the result is bit-identical
/// for every `workers`. Shared with the blocked FP32 kernel in
/// [`crate::fgemm`].
pub(crate) fn dispatch_rows(
    n: usize,
    workers: usize,
    out: &mut [f32],
    kernel: impl Fn(usize, usize, &mut [f32]) + Sync,
) {
    parallel::for_each_span_mut(out, n, workers, |offset, span| {
        kernel(offset / n, span.len() / n, span);
    });
}

/// Multiply-accumulates a GEMM worker must receive before fanning out pays:
/// one span's kernel time has to cover the scoped-thread spawn that runs
/// it. Measured on the 2-vCPU box the benchmark was sized on,
/// `thread::scope` + one spawn costs 15–25 µs (p10–p50; ~50 µs at p90),
/// and one thread of the quantized kernels retires 13–19 GMAC/s at M = 1
/// and 25–38 at M = 32 (512×2048; the FP32 kernel is slower), so 1 Mi MACs
/// is 28–80 µs of kernel — a median spawn at the fastest rate, a p90 spawn
/// at the typical one. A measured constant, not a knob: at the engine's
/// element grain (16 Ki) every `Gpt::tiny` product (≤ 64 Ki MACs, 2–9 µs
/// serial) was fanned out to threads that cost five times the product.
/// Deliberately *not* [`engine::PARALLEL_GRAIN`], which counts elements of
/// a memory-bound sweep, not MACs.
const GEMM_PARALLEL_GRAIN: usize = 1 << 20;

/// Number of row spans an `m × n × k` GEMM is split into under a `threads`
/// budget (`0` = [`parallel::default_threads`], resolved once per process,
/// so this function never makes a system call): every span must hold at
/// least [`GEMM_PARALLEL_GRAIN`] MACs, and at least two such spans must
/// exist, or the GEMM runs serially on the caller. The count is exact —
/// [`dispatch_rows`] produces this many spans and spawns one thread fewer.
/// Shared with [`crate::fgemm`].
pub(crate) fn gemm_workers(m: usize, n: usize, k: usize, threads: usize) -> usize {
    let threads = if threads == 0 {
        parallel::default_threads()
    } else {
        threads
    };
    let macs = m.saturating_mul(n).saturating_mul(k);
    let workers = threads.min(m).min(macs / GEMM_PARALLEL_GRAIN);
    if workers <= 1 {
        1
    } else {
        // Spans are `⌈m / workers⌉` rows; report how many that makes.
        m.div_ceil(m.div_ceil(workers))
    }
}

/// The row count the repo benchmark's layer probes
/// (`benchmark/src/layers.rs`) compare against to label a probe
/// `gemm.fused` or `gemm.twopass`. Nothing in the library reads it — every
/// GEMM lowers A the same way (see the module docs) — and it stays `pub`
/// only so that package keeps compiling.
pub const FUSED_MAX_M: usize = 32;

/// One admitted GEMM: the activation operand, the geometry, and the
/// constants its [`FormatPair`] fixed. The kernel-class-typed parts (B
/// view, span kernel, scratch) arrive as arguments of [`Gemm::run`].
struct Gemm<'a> {
    a: &'a [f32],
    fa: &'a BdrFormat,
    m: usize,
    k: usize,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    workers: usize,
}

impl Gemm<'_> {
    /// Executes `kernel` over whole-row spans, each span first lowering
    /// its own rows of A: serially into the caller's `buf`, or on
    /// `workers` threads into one ring per span. Per output element the
    /// K-block loop order, rounding points, and accumulation do not depend
    /// on the split, so every `workers` gives the same bits.
    fn run<A: Code, B: engine::AlignedCode>(
        &self,
        bp: PlaneView<'_, B>,
        kernel: SpanKernel<A, B>,
        buf: &mut CodeBuf<A>,
        out: &mut [f32],
    ) {
        let (k, n, c, ctx) = (self.k, self.n, self.c, self.ctx);
        let blocks = k.div_ceil(bp.k1);
        let lower = |r0: usize, rows: usize, buf: &mut CodeBuf<A>| {
            pack_into(self.a, rows, k, |i| (r0 + i) * k, self.fa, buf);
        };
        if self.workers <= 1 {
            lower(0, self.m, buf);
            kernel(buf.view(blocks, bp.k1), self.m, bp, n, c, ctx, out);
        } else {
            dispatch_rows(n, self.workers, out, |r0, rows, part| {
                let mut ring = CodeBuf::default();
                lower(r0, rows, &mut ring);
                kernel(ring.view(blocks, bp.k1), rows, bp, n, c, ctx, part);
            });
        }
    }
}

/// Quantized matrix product `A[m,k] × B[k,n]` against a **prepacked** B
/// operand, computed entirely in the integer code domain (see the module
/// docs for the datapath mapping) — the single execute entry of the
/// module. A's rows are quantized as a stage of this call, span by span;
/// a serial call lowers them into `scratch`, so the steady-state path
/// allocates nothing beyond the output. B-side packing was paid once in
/// [`PackedOperand::pack_cols`]. The GEMM is row-tiled per backend and,
/// when it is large enough that every span covers the thread spawn that
/// runs it (2 Mi MACs and up), split into whole-row spans across up to
/// `threads` threads, the caller's included (`0` = all cores; the result
/// is bit-identical regardless of thread count). Smaller products run on
/// the calling thread at no extra cost.
///
/// Bit-identical to [`reference_gemm`] for every accepted pairing, at
/// every shape and thread count.
///
/// Returns `None` exactly when `!packed_b.accepts(&fa)`: the
/// `(fa, packed_b.format())` pair is unsupported, or it needs a different
/// code width than the plane holds (it was packed for a partner in the
/// other kernel class). Callers ask [`PackedOperand::accepts`] up front
/// instead of probing.
///
/// # Panics
///
/// Panics if `a.len() != m · packed_b.k()`.
///
/// # Examples
///
/// ```
/// use mx_core::bdr::BdrFormat;
/// use mx_core::gemm::{
///     quantized_gemm_prepacked_scratch, reference_gemm, PackScratch, PackedOperand,
/// };
///
/// let fmt = BdrFormat::MX6;
/// let b: Vec<f32> = (0..48 * 5).map(|i| (i as f32 * 0.11).cos()).collect();
/// let pb = PackedOperand::pack_cols(&b, 48, 5, fmt, fmt).unwrap();
/// let mut scratch = PackScratch::new();
/// // A small call and one past a 32-row serving batch, through the same
/// // scratch: same bits as the reference.
/// for m in [2, 33] {
///     let a: Vec<f32> = (0..m * 48).map(|i| (i as f32 * 0.23).sin()).collect();
///     let y = quantized_gemm_prepacked_scratch(&a, m, fmt, &pb, 1, &mut scratch).unwrap();
///     let want = reference_gemm(&a, &b, m, 48, 5, fmt, fmt);
///     assert!(y.iter().zip(&want).all(|(x, w)| x.to_bits() == w.to_bits()));
/// }
/// ```
pub fn quantized_gemm_prepacked_scratch(
    a: &[f32],
    m: usize,
    fa: BdrFormat,
    packed_b: &PackedOperand,
    threads: usize,
    scratch: &mut PackScratch,
) -> Option<Vec<f32>> {
    let pair = packed_b.pair_with(&fa)?;
    let (k, n) = (packed_b.len, packed_b.vectors);
    assert_eq!(a.len(), m * k, "A is not {m}x{k}");
    let mut out = vec![0.0f32; m * n];
    if m == 0 || n == 0 || k == 0 {
        return Some(out);
    }
    let blocks = k.div_ceil(pair.k1);
    let gemm = Gemm {
        a,
        fa: &fa,
        m,
        k,
        n,
        c: pair.c,
        ctx: pair.defer(blocks),
        workers: gemm_workers(m, n, k, threads),
    };
    match &packed_b.plane {
        Plane::I8(b) => gemm.run(
            b.view(blocks, pair.k1),
            backend::narrow_span_kernel(packed_b.panel_n),
            &mut scratch.narrow,
            &mut out,
        ),
        Plane::I16(b) => gemm.run(
            b.view(blocks, pair.k1),
            backend::narrow_span_kernel(packed_b.panel_n),
            &mut scratch.narrow,
            &mut out,
        ),
        Plane::I32(b) => gemm.run(
            b.view(blocks, pair.k1),
            backend::wide_span_kernel(),
            &mut scratch.wide,
            &mut out,
        ),
    }
    Some(out)
}

/// The quantize → dequantize → `f32` matmul reference the code-domain path
/// is proven against: A's rows and B's columns are fake-quantized through
/// the engine's strided kernels, then multiplied block by block — each
/// `k1`-block pair's products summed exactly in `f64`, rounded to `f32`
/// once, and accumulated across K blocks in `f32`, the same order and
/// rounding points as [`quantized_gemm_prepacked_scratch`].
///
/// # Panics
///
/// Panics if the operand lengths disagree with `m·k` / `k·n`, or if the two
/// formats have different `k1` (the block tilings would not line up).
///
/// # Examples
///
/// ```
/// use mx_core::bdr::BdrFormat;
/// use mx_core::gemm::{
///     quantized_gemm_prepacked_scratch, reference_gemm, PackScratch, PackedOperand,
/// };
///
/// let fmt = BdrFormat::MX9;
/// let a: Vec<f32> = (0..3 * 40).map(|i| (i as f32 * 0.19).sin()).collect();
/// let b: Vec<f32> = (0..40 * 2).map(|i| (i as f32 * 0.23).cos()).collect();
/// let want = reference_gemm(&a, &b, 3, 40, 2, fmt, fmt);
/// // The integer code-domain path reproduces the reference bit for bit.
/// let pb = PackedOperand::pack_cols(&b, 40, 2, fmt, fmt).unwrap();
/// let got = quantized_gemm_prepacked_scratch(&a, 3, fmt, &pb, 1, &mut PackScratch::new());
/// assert_eq!(got.unwrap(), want);
/// ```
pub fn reference_gemm(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    fa: BdrFormat,
    fb: BdrFormat,
) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "A is not {m}x{k}");
    assert_eq!(b.len(), k * n, "B is not {k}x{n}");
    assert_eq!(fa.k1(), fb.k1(), "mismatched block sizes");
    let mut aq = a.to_vec();
    let mut bq = b.to_vec();
    if !aq.is_empty() {
        QuantEngine::new(fa).quantize_dequantize_rows(&mut aq, k);
    }
    if !bq.is_empty() {
        QuantEngine::new(fb).quantize_dequantize_cols(&mut bq, n);
    }
    let k1 = fa.k1();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k0 in (0..k).step_by(k1) {
                let blen = k1.min(k - k0);
                let mut s = 0.0f64;
                for p in k0..k0 + blen {
                    s += aq[i * k + p] as f64 * bq[p * n + j] as f64;
                }
                acc += s as f32;
            }
            out[i * n + j] = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::pair::{ceil_log2, exact_dequantize, PairClass};
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ramp(n: usize, salt: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i.wrapping_mul(37).wrapping_add(salt * 13) % 101) as f32 - 50.0) * 0.037)
            .collect()
    }

    fn bits_eq(got: &[f32], want: &[f32]) -> bool {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Pack B for the pair, execute through the one entry.
    #[allow(clippy::too_many_arguments)] // a GEMM is dims + operands + formats
    fn gemm(
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        fa: BdrFormat,
        fb: BdrFormat,
        threads: usize,
    ) -> Option<Vec<f32>> {
        let pb = PackedOperand::pack_cols(b, k, n, fa, fb)?;
        assert!(
            pb.accepts(&fa),
            "{fa}/{fb}: a plane accepts its own partner"
        );
        quantized_gemm_prepacked_scratch(a, m, fa, &pb, threads, &mut PackScratch::new())
    }

    /// A wide-but-supported custom format: `m + β = 16 > 15` forces the
    /// `i32` code plane while every support requirement still holds.
    fn wide_fmt() -> BdrFormat {
        let fmt = BdrFormat::new(16, 8, 0, 16, 16).unwrap();
        assert_eq!(FormatPair::new(&fmt, &fmt).unwrap().class, PairClass::Wide);
        fmt
    }

    #[test]
    fn presets_are_supported() {
        for fa in [
            BdrFormat::MX4,
            BdrFormat::MX6,
            BdrFormat::MX9,
            BdrFormat::MSFP12,
            BdrFormat::MSFP16,
        ] {
            for fb in [BdrFormat::MX4, BdrFormat::MX9, BdrFormat::MSFP16] {
                let pair = FormatPair::new(&fa, &fb).unwrap_or_else(|| panic!("{fa} x {fb}"));
                assert_eq!(
                    (pair.class, pair.k1),
                    (PairClass::Narrow, 16),
                    "{fa} x {fb}"
                );
            }
        }
    }

    #[test]
    fn unsupported_pairs_are_rejected() {
        // Mismatched k1.
        let k32 = BdrFormat::new(4, 8, 1, 32, 2).unwrap();
        assert!(!code_domain_supported(&BdrFormat::MX6, &k32));
        assert!(PackedOperand::pack_cols(&[0.0; 16], 16, 1, BdrFormat::MX6, k32).is_none());
        // m + β too wide for an i32 aligned code.
        let wide = BdrFormat::new(23, 8, 4, 16, 2).unwrap();
        assert!(!code_domain_supported(&wide, &wide));
        // Ulp below f32's subnormal floor: dequantize would round.
        let deep = BdrFormat::new(20, 8, 4, 16, 2).unwrap();
        assert!(!exact_dequantize(&deep));
    }

    /// Values spanning zeros, sign flips, and a wide magnitude spread.
    fn random_values(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| match rng.gen_range(0..8u32) {
                0 => 0.0,
                1 => -0.0,
                2 => rng.gen_range(-1.0f32..1.0) * 1e4,
                3 => rng.gen_range(-1.0f32..1.0) * 1e-4,
                _ => rng.gen_range(-1.0f32..1.0),
            })
            .collect()
    }

    #[test]
    fn generated_format_lattice_agrees_with_the_plane_and_the_reference() {
        let mut rng = StdRng::seed_from_u64(12);
        let (mut narrow_run, mut wide_run, mut rejected) = (0, 0, 0);
        let (mut byte_planes, mut half_planes) = (0, 0);
        for _ in 0..4000 {
            let fb = BdrFormat::random(&mut rng, None);
            // Most partners share fb's block size, or nothing is supported.
            let shared_k1 = (rng.gen_range(0..4u32) != 0).then_some(fb.k1());
            let fa = BdrFormat::random(&mut rng, shared_k1);
            let pair = FormatPair::new(&fa, &fb);
            assert_eq!(pair.is_some(), code_domain_supported(&fa, &fb), "{fa}/{fb}");
            let (k, n) = (rng.gen_range(1..70usize), rng.gen_range(1..12usize));
            let b = random_values(&mut rng, k * n);
            let Some(pb) = PackedOperand::pack_cols(&b, k, n, fa, fb) else {
                assert!(pair.is_none(), "{fa}/{fb}: supported pair failed to pack");
                rejected += 1;
                continue;
            };
            let pair = pair.unwrap_or_else(|| panic!("{fa}/{fb}: packed an unsupported pair"));
            assert!(pb.accepts(&fa), "{fa}/{fb}");
            // The storage width is the weight format's alone: inside the
            // narrow class, `i8` exactly when the largest aligned magnitude
            // fits a byte.
            let fits_byte = (fb.max_code() << fb.max_shift()) <= 127;
            match (&pb.plane, pair.class) {
                (Plane::I8(_), PairClass::Narrow) if fits_byte => byte_planes += 1,
                (Plane::I16(_), PairClass::Narrow) if !fits_byte => half_planes += 1,
                (Plane::I32(_), PairClass::Wide) => {}
                _ => panic!("{fa}/{fb}: {pb:?} for a {:?} pair", pair.class),
            }
            // Any third format: `accepts` is false exactly when the entry
            // returns `None` (asked at a degenerate and a real shape), and
            // it answers by kernel class alone — the plane's width never
            // narrows what it accepts.
            let other = BdrFormat::random(&mut rng, shared_k1);
            assert_eq!(
                pb.accepts(&other),
                FormatPair::new(&other, &fb).is_some_and(|p| p.class == pair.class),
                "{other} on {fa}/{fb}"
            );
            let mut scratch = PackScratch::new();
            for m in [0usize, 2] {
                let a = random_values(&mut rng, m * k);
                let ran = quantized_gemm_prepacked_scratch(&a, m, other, &pb, 1, &mut scratch);
                assert_eq!(
                    ran.is_some(),
                    pb.accepts(&other),
                    "{other} on {fa}/{fb} m={m}"
                );
            }
            // Sample bit-identity runs, capped per class to keep this quick.
            let runs = match pair.class {
                PairClass::Narrow => &mut narrow_run,
                PairClass::Wide => &mut wide_run,
            };
            if *runs >= 24 {
                continue;
            }
            *runs += 1;
            for m in [1, 32, 33, 100] {
                let a = random_values(&mut rng, m * k);
                let want = reference_gemm(&a, &b, m, k, n, fa, fb);
                for threads in [1usize, 3, 0] {
                    let got =
                        quantized_gemm_prepacked_scratch(&a, m, fa, &pb, threads, &mut scratch)
                            .unwrap();
                    assert!(
                        bits_eq(&got, &want),
                        "{fa}/{fb} {m}x{k}x{n} threads={threads}"
                    );
                }
            }
        }
        assert!(
            narrow_run == 24 && wide_run == 24,
            "{narrow_run} narrow, {wide_run} wide"
        );
        assert!(
            rejected > 100,
            "the lattice must reach unsupported pairs ({rejected})"
        );
        assert!(
            byte_planes > 100 && half_planes > 100,
            "{byte_planes} i8 planes, {half_planes} i16 planes"
        );
    }

    #[test]
    fn plane_width_follows_the_weight_format_alone() {
        // MX9 is the one preset whose aligned codes (127 ≪ 1) need i16;
        // the partner never changes the width, only the class.
        let b = ramp(32 * 3, 90);
        for fb in [
            BdrFormat::MX4,
            BdrFormat::MX6,
            BdrFormat::MX9,
            BdrFormat::MSFP12,
            BdrFormat::MSFP16,
        ] {
            for fa in [BdrFormat::MX4, BdrFormat::MX9, BdrFormat::MSFP16] {
                let pb = PackedOperand::pack_cols(&b, 32, 3, fa, fb).unwrap();
                let byte = matches!(pb.plane, Plane::I8(_));
                assert_eq!(byte, fb != BdrFormat::MX9, "{fa}/{fb}: {pb:?}");
                assert!(byte || matches!(pb.plane, Plane::I16(_)), "{pb:?}");
            }
        }
    }

    #[test]
    fn packed_bytes_of_the_served_plane() {
        // The served 512 × 2048 layer: 32 blocks per column, one `i32`
        // shared exponent per block (256 KiB) beside the codes — 1 MiB of
        // `i8` codes for MX6, 2 MiB of `i16` codes for MX9.
        let (k, n) = (512, 2048);
        let b = ramp(k * n, 91);
        let exps = (k / 16) * n * 4;
        assert_eq!(exps, 256 << 10);
        for (fmt, codes, width) in [
            (BdrFormat::MX6, 1 << 20, "i8"),
            (BdrFormat::MX9, 2 << 20, "i16"),
        ] {
            let pb = PackedOperand::pack_cols(&b, k, n, fmt, fmt).unwrap();
            assert_eq!(pb.packed_bytes(), codes + exps, "{fmt}");
            let shown = format!("{pb:?}");
            assert!(shown.contains(&format!(", {width}")), "{shown}");
        }
    }

    #[test]
    fn matches_reference_exactly() {
        for fmt in [BdrFormat::MX4, BdrFormat::MX6, BdrFormat::MX9] {
            let (m, k, n) = (5, 48, 7);
            let a = ramp(m * k, 1);
            let b = ramp(k * n, 2);
            let got = gemm(&a, &b, m, k, n, fmt, fmt, 1).unwrap();
            assert!(
                bits_eq(&got, &reference_gemm(&a, &b, m, k, n, fmt, fmt)),
                "{fmt}"
            );
        }
    }

    #[test]
    fn mixed_format_operands() {
        let (m, k, n) = (3, 40, 4);
        let a = ramp(m * k, 3);
        let b = ramp(k * n, 4);
        let got = gemm(&a, &b, m, k, n, BdrFormat::MX9, BdrFormat::MX4, 1).unwrap();
        let want = reference_gemm(&a, &b, m, k, n, BdrFormat::MX9, BdrFormat::MX4);
        assert_eq!(got, want);
    }

    #[test]
    fn packed_plane_is_reusable_and_reports_its_geometry() {
        let (fa, fb) = (BdrFormat::MSFP12, BdrFormat::MX6);
        let (m, k, n) = (5, 40, 7); // ragged K tail
        let b = ramp(k * n, 22);
        let pb = PackedOperand::pack_cols(&b, k, n, fa, fb).unwrap();
        assert_eq!((pb.k(), pb.vectors(), pb.format()), (k, n, fb));
        assert!(pb.packed_bytes() > 0);
        let mut scratch = PackScratch::new();
        for pass in 0..2 {
            // Fresh activations per pass, same plane.
            let a = ramp(m * k, 21 + pass);
            let got = quantized_gemm_prepacked_scratch(&a, m, fa, &pb, 1, &mut scratch).unwrap();
            assert!(
                bits_eq(&got, &reference_gemm(&a, &b, m, k, n, fa, fb)),
                "pass {pass}"
            );
        }
    }

    #[test]
    fn wide_format_pair_takes_i32_plane_and_matches_reference() {
        let fmt = wide_fmt();
        let (m, k, n) = (3, 40, 5);
        let a = ramp(m * k, 41);
        let b = ramp(k * n, 42);
        let pb = PackedOperand::pack_cols(&b, k, n, fmt, fmt).unwrap();
        assert!(matches!(pb.plane, Plane::I32(_)));
        assert_eq!(pb.panel_n, 0);
        let got =
            quantized_gemm_prepacked_scratch(&a, m, fmt, &pb, 1, &mut PackScratch::new()).unwrap();
        assert!(bits_eq(&got, &reference_gemm(&a, &b, m, k, n, fmt, fmt)));
    }

    #[test]
    fn same_class_partner_swap_is_allowed_and_exact() {
        // Codes depend only on the operand's own format: a B plane packed
        // for an MX6 partner serves MX9 activations too (both pairs are
        // narrow), bit-identical to packing for MX9 directly.
        let (m, k, n) = (3, 40, 4);
        let a = ramp(m * k, 61);
        let b = ramp(k * n, 62);
        let pb = PackedOperand::pack_cols(&b, k, n, BdrFormat::MX6, BdrFormat::MX4).unwrap();
        assert!(pb.accepts(&BdrFormat::MX9));
        let got = quantized_gemm_prepacked_scratch(
            &a,
            m,
            BdrFormat::MX9,
            &pb,
            1,
            &mut PackScratch::new(),
        )
        .unwrap();
        let want = reference_gemm(&a, &b, m, k, n, BdrFormat::MX9, BdrFormat::MX4);
        assert!(bits_eq(&got, &want));
    }

    #[test]
    fn mismatched_packing_is_rejected_not_repacked() {
        let narrow = BdrFormat::MX6;
        let wide = wide_fmt();
        let (m, k, n) = (2, 16, 3);
        let a = ramp(m * k, 51);
        let b = ramp(k * n, 52);
        let mut scratch = PackScratch::new();
        // B packed for a narrow partner cannot execute against a wide A,
        // and a wide-class plane refuses the narrow partner it would
        // otherwise pair with.
        let pb = PackedOperand::pack_cols(&b, k, n, narrow, narrow).unwrap();
        assert!(!pb.accepts(&wide));
        assert!(quantized_gemm_prepacked_scratch(&a, m, wide, &pb, 1, &mut scratch).is_none());
        let pb = PackedOperand::pack_cols(&b, k, n, wide, narrow).unwrap();
        assert!(pb.accepts(&wide) && !pb.accepts(&narrow));
        assert!(quantized_gemm_prepacked_scratch(&a, m, narrow, &pb, 1, &mut scratch).is_none());
        // The rejection precedes the degenerate-dims early return.
        let pb0 = PackedOperand::pack_cols(&[], 0, n, narrow, narrow).unwrap();
        assert!(quantized_gemm_prepacked_scratch(&[], m, wide, &pb0, 1, &mut scratch).is_none());
    }

    #[test]
    fn scratch_packing_is_bit_identical_and_reusable() {
        // One scratch serves alternating shapes, formats, and kernel
        // classes; every call is bit-identical to a fresh-scratch run.
        let mut scratch = PackScratch::new();
        let wide = wide_fmt();
        for (round, (fa, fb, m, k, n)) in [
            (BdrFormat::MX6, BdrFormat::MX6, 5, 40, 7),
            (BdrFormat::MX9, BdrFormat::MX4, 35, 48, 4),
            (wide, wide, 2, 40, 3),
            (BdrFormat::MX6, BdrFormat::MX6, 9, 16, 2),
        ]
        .into_iter()
        .enumerate()
        {
            let a = ramp(m * k, 70 + round);
            let b = ramp(k * n, 80 + round);
            let pb = PackedOperand::pack_cols(&b, k, n, fa, fb).unwrap();
            let reused = quantized_gemm_prepacked_scratch(&a, m, fa, &pb, 1, &mut scratch).unwrap();
            let fresh =
                quantized_gemm_prepacked_scratch(&a, m, fa, &pb, 1, &mut PackScratch::new())
                    .unwrap();
            assert!(bits_eq(&reused, &fresh), "{fa}/{fb} round {round}");
        }
    }

    #[test]
    fn single_block_matches_naive_f32_matmul() {
        // With K ≤ k1 every f32 partial sum is exact, so the code path, the
        // blocked reference, and a plain f32 triple loop all agree exactly.
        let fmt = BdrFormat::MX6;
        let (m, k, n) = (4, 16, 4);
        let a = ramp(m * k, 5);
        let b = ramp(k * n, 6);
        let got = gemm(&a, &b, m, k, n, fmt, fmt, 1).unwrap();
        let e = QuantEngine::new(fmt);
        let mut aq = a.clone();
        e.quantize_dequantize_rows(&mut aq, k);
        let mut bq = b.clone();
        e.quantize_dequantize_cols(&mut bq, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += aq[i * k + p] * bq[p * n + j];
                }
                assert_eq!(got[i * n + j], acc, "({i},{j})");
            }
        }
    }

    #[test]
    fn empty_and_degenerate_dims() {
        let fmt = BdrFormat::MX6;
        assert_eq!(gemm(&[], &[], 0, 16, 0, fmt, fmt, 1).unwrap(), vec![]);
        let a = ramp(16, 7);
        assert_eq!(gemm(&a, &[], 1, 16, 0, fmt, fmt, 1).unwrap(), vec![]);
        // k = 0: all-zero output.
        assert_eq!(gemm(&[], &[], 2, 0, 3, fmt, fmt, 1).unwrap(), vec![0.0; 6]);
        // m = 0 against a real plane.
        assert_eq!(
            gemm(&[], &ramp(16 * 4, 8), 0, 16, 4, fmt, fmt, 1).unwrap(),
            vec![]
        );
    }

    #[test]
    fn zero_operand_gives_zero_output() {
        let fmt = BdrFormat::MX9;
        let a = vec![0.0f32; 3 * 33];
        let b = ramp(33 * 5, 9);
        let got = gemm(&a, &b, 3, 33, 5, fmt, fmt, 1).unwrap();
        assert!(got.iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    fn parallel_dispatch_is_bit_identical() {
        // Above the fan-out threshold (2 × `GEMM_PARALLEL_GRAIN` MACs) in
        // both kernel classes, every span lowering its own rows: 4 Mi MACs
        // at m = 32 (up to 4 spans), 8 Mi at m = 64 (up to 7, ragged).
        let (k, n) = (512, 256);
        let b = ramp(k * n, 12);
        let mut scratch = PackScratch::new();
        for fmt in [BdrFormat::MX6, wide_fmt()] {
            let pb = PackedOperand::pack_cols(&b, k, n, fmt, fmt).unwrap();
            for m in [32, 64] {
                assert!(gemm_workers(m, n, k, 7) > 2, "m={m} must fan out");
                let a = ramp(m * k, 11);
                let want = reference_gemm(&a, &b, m, k, n, fmt, fmt);
                for threads in [1usize, 2, 3, 7, 0] {
                    let got =
                        quantized_gemm_prepacked_scratch(&a, m, fmt, &pb, threads, &mut scratch)
                            .unwrap();
                    assert!(bits_eq(&got, &want), "{fmt} m={m} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn dispatch_rows_spans_match_serial_on_ragged_m() {
        // Drives the span dispatch directly, below any grain: every row
        // reaches the kernel exactly once with the right start row and its
        // own slice of `out`, for spans that divide `m`, leave a ragged
        // tail, and outnumber the rows (the real kernels go through the
        // same spans in `parallel_dispatch_is_bit_identical`).
        let n = 5;
        let row_kernel = |r0: usize, rows: usize, part: &mut [f32]| {
            assert_eq!(part.len(), rows * n);
            for (i, x) in part.iter_mut().enumerate() {
                *x += ((r0 * n + i) as f32 * 0.37).sin();
            }
        };
        for m in [1usize, 2, 5, 6, 7, 23] {
            let mut want = vec![0.0f32; m * n];
            dispatch_rows(n, 1, &mut want, row_kernel);
            for workers in [2usize, 3, 7] {
                let mut got = vec![0.0f32; m * n];
                dispatch_rows(n, workers, &mut got, row_kernel);
                assert!(bits_eq(&got, &want), "m={m} workers={workers}");
            }
        }
    }

    #[test]
    fn gemm_workers_fans_out_only_where_a_span_covers_its_spawn() {
        // Every product a `Gpt::tiny` plan (d = 32, 2 heads, ffn 128, vocab
        // 24) issues for one request at buckets 4 / 8 / 16: q/k/v/o
        // projections, fc1, fc2, the head, and per head the score and mix
        // products. All serial under any budget — so `execute` spawns
        // nothing and (the budget being cached) makes no system call.
        for t in [4usize, 8, 16] {
            for (k, n) in [(32, 32), (32, 128), (128, 32), (32, 24), (16, t), (t, 16)] {
                for threads in [0usize, 1, 2, 8, 64] {
                    assert_eq!(gemm_workers(t, n, k, threads), 1, "{t}x{k}x{n}");
                }
            }
        }
        // The dense serving layer (512 → 2048): M = 1 never fans out, a
        // coalesced batch does, and an explicit budget of 1 never does.
        let (k, n) = (512, 2048);
        for threads in [0usize, 1, 2, 8] {
            assert_eq!(gemm_workers(1, n, k, threads), 1);
        }
        for m in [2usize, 20, 32] {
            assert_eq!(gemm_workers(m, n, k, 2), 2, "m={m}");
            assert_eq!(gemm_workers(m, n, k, 1), 1, "m={m}");
        }
        // The count is the number of spans `dispatch_rows` makes: 5 rows
        // on a budget of 4 are 3 spans of 2, 2, 1.
        assert_eq!(gemm_workers(5, n, k, 4), 3);
        assert_eq!(gemm_workers(32, n, k, 64), 32);
        // One span short of two grains' worth stays serial.
        assert_eq!(gemm_workers(2, 1 << 10, (1 << 10) - 1, 8), 1);
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(16), 4);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(17), 5);
    }

    #[test]
    fn uniform_exponent_metadata_is_recorded() {
        // One column per uexp case: uniform nonzero, mixed, all-zero.
        let fmt = BdrFormat::MX6;
        let k = 32; // two blocks
        let mut b = vec![0.0f32; k * 3];
        for i in 0..k {
            b[i * 3] = 1.5; // both blocks share exponent 0
            b[i * 3 + 1] = if i < 16 { 1.5 } else { 100.0 }; // differing exponents
                                                             // column 2 stays all-zero
        }
        let pb = PackedOperand::pack_cols(&b, k, 3, fmt, fmt).unwrap();
        let Plane::I8(ref plane) = pb.plane else {
            panic!("an MX6 plane must pack i8");
        };
        assert_eq!(plane.uexp.len(), 3);
        assert_ne!(plane.uexp[0], pack::MIXED_EXP);
        assert_eq!(plane.uexp[1], pack::MIXED_EXP);
        assert_eq!(plane.uexp[2], 0);
    }

    #[test]
    fn forced_backends_and_deferral_match_reference() {
        // The in-module smoke version of the `gemm_backends` suite: every
        // backend × deferral on/off reproduces the reference bit for bit.
        // (Serialized against other tests by the override being
        // process-wide: this is the only in-module test that touches it.)
        let fmt = BdrFormat::MX6;
        let (m, k, n) = (9, 80, 11);
        let a = ramp(m * k, 101);
        let b = ramp(k * n, 102);
        let want = reference_gemm(&a, &b, m, k, n, fmt, fmt);
        for backend in [
            KernelBackend::Scalar,
            KernelBackend::Avx2,
            KernelBackend::Avx512,
        ] {
            for defer in [true, false] {
                if force_kernel_backend(Some(backend)).is_err() {
                    // This CPU lacks the ISA; the integration suite skips
                    // it the same way.
                    continue;
                }
                force_deferred_scale_out(Some(defer));
                let got = gemm(&a, &b, m, k, n, fmt, fmt, 1).unwrap();
                force_kernel_backend(None).unwrap();
                force_deferred_scale_out(None);
                assert!(
                    bits_eq(&got, &want),
                    "backend={} defer={defer}",
                    backend.name()
                );
            }
        }
    }
}

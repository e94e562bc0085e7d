//! The format-pair descriptor: every constant the code-domain GEMM derives
//! from an `(fa, fb)` operand pair, computed **once** by
//! [`FormatPair::new`] and carried as a value — kernel class, block size,
//! scale-out constant, and the deferral headroom bound. Packing, the plane's
//! `accepts` check, dispatch, and the deferral decision all consume this
//! struct; nothing else in the workspace re-derives any of it.

use super::backend::deferred_scale_out_enabled;
use crate::bdr::BdrFormat;

/// How a supported format pair runs on the integer path: `Narrow` pairs use
/// `i16` activation codes against biased byte or `i16` weight codes (see
/// [`fits_i8`]; on AVX-512 with VNNI, signed byte activation digits
/// against the biased bytes) with an `i32` block accumulator (the packed
/// 8- and 16-bit MAC datapaths), `Wide` pairs fall back to `i32` codes
/// with an `i64` accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum PairClass {
    Narrow,
    Wide,
}

/// The one place exotic-format fallback is decided. Returns the kernel
/// class for a supported `(fa, fb)` pair, or `None` when the pair must take
/// the dequantize path. Requirements for support:
///
/// - matching first-level block size (`k1`), so A-row and B-column blocks
///   tile the reduction dimension identically;
/// - per operand, `m + β ≤ 30`: shift-aligned codes fit an `i32`;
/// - `(m_a + β_a) + (m_b + β_b) + ⌈log2 k1⌉ ≤ 52`: block-pair dot products
///   accumulate without `i64` overflow *and* convert to `f64` exactly;
/// - per operand, the smallest representable ulp stays at or above `2^-149`,
///   so dequantized values are exact `f32`s and the dequantize reference
///   sees the same numbers the codes encode.
fn pair_class(fa: &BdrFormat, fb: &BdrFormat) -> Option<PairClass> {
    if fa.k1() != fb.k1() {
        return None;
    }
    let wa = fa.m() + fa.max_shift();
    let wb = fb.m() + fb.max_shift();
    if wa > 30 || wb > 30 {
        return None;
    }
    if wa + wb + ceil_log2(fa.k1()) > 52 {
        return None;
    }
    if !exact_dequantize(fa) || !exact_dequantize(fb) {
        return None;
    }
    if wa <= 15 && wb <= 15 && wa + wb + ceil_log2(fa.k1()) <= 31 {
        Some(PairClass::Narrow)
    } else {
        Some(PairClass::Wide)
    }
}

/// The plane width rule: a weight format's shift-aligned codes fit a
/// (biased) byte when its largest aligned magnitude `max_code ≪ β` is at
/// most 127 — MX6, MX4, MSFP12 and MSFP16 among the presets; MX9
/// (`127 ≪ 1`) needs `i16`. A property of the weight format alone: the
/// narrow-class activation partner does not enter (the AVX-512 byte body
/// splits a wider partner's codes into byte digits), so the integers every
/// kernel multiplies are the same whichever width the plane stores.
pub(super) fn fits_i8(fmt: &BdrFormat) -> bool {
    fmt.max_code() << fmt.max_shift() <= 127
}

/// The format's smallest ulp (`2^(E_min − β − (m − 1))`) is representable in
/// `f32` subnormal space, so every code dequantizes to an exact `f32`.
pub(super) fn exact_dequantize(fmt: &BdrFormat) -> bool {
    fmt.min_shared_exp() - fmt.max_shift() as i32 - (fmt.m() as i32 - 1) >= -149
}

pub(super) fn ceil_log2(n: usize) -> u32 {
    debug_assert!(n > 0);
    usize::BITS - (n - 1).leading_zeros()
}

/// One operand's half of the scale-out constant `c`: `−(m − 1) − β`.
fn c_half(fmt: &BdrFormat) -> i32 {
    -((fmt.m() as i32 - 1) + fmt.max_shift() as i32)
}

/// A supported `(fa, fb)` operand pair with every dependent constant
/// derived at construction — the **single** gate deciding between the
/// code-domain kernels and the dequantize fallback, and the only caller of
/// [`pair_class`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct FormatPair {
    /// Kernel class: the code widths the operands are lowered to (see
    /// [`PairClass`]).
    pub(super) class: PairClass,
    /// The shared first-level block size.
    pub(super) k1: usize,
    /// Scale-out constant: a block-pair integer total is in units of
    /// `2^(E_a + E_b + c)`, `c = −(m_a − 1) − β_a − (m_b − 1) − β_b`.
    pub(super) c: i32,
    /// Deferral headroom: `k1 · (max_code_a ≪ β_a) · (max_code_b ≪ β_b)`,
    /// the bound on any single block dot (see [`FormatPair::defer`]).
    dmax: u64,
}

impl FormatPair {
    /// Describes the pair, or `None` when it cannot run in the code domain
    /// (see [`pair_class`]'s requirement list).
    pub(super) fn new(fa: &BdrFormat, fb: &BdrFormat) -> Option<Self> {
        let class = pair_class(fa, fb)?;
        Some(FormatPair {
            class,
            k1: fa.k1(),
            c: c_half(fa) + c_half(fb),
            dmax: fa.k1() as u64
                * (fa.max_code() << fa.max_shift())
                * (fb.max_code() << fb.max_shift()),
        })
    }

    /// Builds the per-GEMM deferral context for a reduction spanning
    /// `blocks` `k1`-blocks.
    ///
    /// # The deferred scale-out headroom invariant
    ///
    /// The per-block path computes `acc ← f32(acc + f32(dotⱼ · 2^(eⱼ+c)))`
    /// block by block. Deferral instead sums the integer dots of **all** K
    /// blocks of one output element and applies a single scale — exact (bit
    /// for bit equal to the per-block chain) precisely when every `f32`
    /// addition in that chain was itself exact, which this context
    /// guarantees structurally before any kernel looks at data:
    ///
    /// - **Static headroom** (`enabled`): `blocks · Dmax ≤ 2²⁴`, where
    ///   `Dmax` (the `dmax` field) bounds any single block dot. Then every
    ///   partial sum of dots is an integer of magnitude ≤ 2²⁴ — exactly
    ///   representable in `f32`'s 24-bit mantissa.
    /// - **Uniform exponents** (checked per output element by the kernels):
    ///   all nonzero blocks of the A row share one shared exponent `e_a`,
    ///   and likewise `e_b` for the B column — so every nonzero
    ///   contribution sits on the single fixed-point grid `2^(e_a+e_b+c)`
    ///   (all-zero blocks contribute exactly `+0.0` on both paths and are
    ///   exempt).
    /// - **Grid window** (`e_lo ..= e_hi`): `e_a + e_b + c ∈ [−149, 103]`,
    ///   so the grid unit is at or above `f32`'s subnormal floor and
    ///   `2²⁴ · 2^(e+c)` stays below `f32::MAX` — integer multiples of the
    ///   unit up to 2²⁴ are all exact `f32`s.
    ///
    /// Under all three, the per-block chain never rounds, its result is the
    /// exact sum, and the deferred single scale-out reproduces it bit for
    /// bit. Any element (or format pair, or block count) failing a
    /// condition takes the per-block scale-out instead — deferral is an
    /// optimization, never a semantics change.
    ///
    /// ## The same bound under column-in-lane accumulation and VNNI
    ///
    /// The `2²⁴` bound above is about the *`f32` mantissa*, not about any
    /// SIMD register, but each kernel must also show its `i32` lanes end
    /// exact and its conversions are exact. The vector body (every
    /// instance: one `zmm`, or two `ymm` halves, per 16-column panel)
    /// keeps one column per `i32` lane; a deferring (row, panel) keeps
    /// adding that column's block dots into its lane over the whole
    /// reduction, so a lane's result is a partial sum of one output's
    /// dots: at most `blocks · Dmax ≤ 2²⁴` under the static gate, far
    /// inside `i32` and exactly representable in `f32` — the deferred
    /// total's one conversion is exact and its one scale rounds once. The
    /// body defers a (row, panel) only when the row passes the
    /// uniform-exponent and grid-window checks against every real column of
    /// the panel (the padded lanes are never stored). Its per-block
    /// epilogue converts one block dot at a time, `|dot| ≤ Dmax`: on
    /// AVX-512 exact in `f32` when `Dmax ≤ 2²⁴` (`DeferCtx::exact_f32_dots`,
    /// true for every preset pair) and scaled by `vscalefps`, otherwise —
    /// and always on AVX2, which has no `vscalefps` — converted and scaled
    /// through `f64`, exact under the 52-bit support gate, with one
    /// rounding to `f32`.
    ///
    /// How a lane gets there differs by plane, and none of it moves a
    /// bit:
    ///
    /// - **`i16` planes (`vpdpwssd`).** Lane-for-lane `vpmaddwd` (two
    ///   `i16 × i16` products summed in `i32` — exact, since the narrow
    ///   class guarantees `w_a + w_b ≤ 30`) followed by `vpaddd` into the
    ///   same accumulator, so the fused and fallback paths produce
    ///   identical lanes.
    /// - **Biased byte planes (`vpdpbusd`).** A weight code `b` is stored
    ///   as `b + 128 ∈ [1, 255]`, so a lane accumulates
    ///   `Σ a·(b + 128) = Σ a·b + 128·Σ a`; the block's accumulator starts
    ///   from `−128·Σ a` (a deferring row's from the sum of its blocks'),
    ///   which leaves exactly `Σ a·b`. The intermediate values can exceed
    ///   the final dot, and a deferring lane's running sum can leave the
    ///   `i32` range on a long reduction, but every step — `vpdpbusd`'s
    ///   four `u8 × i8` products (each at most `255·128`) and its add,
    ///   the seeds, the shifts — is exact **modulo 2³²**, and the result
    ///   the lane ends on (a block dot `≤ Dmax < 2³¹`, or a deferred total
    ///   `≤ 2²⁴`) is inside `i32`, so the modular result is the integer
    ///   itself. The exact fallback zero-extends each biased quad into two
    ///   16-bit pairs and multiplies them by A's codes as `i16` pairs with
    ///   two `vpmaddwd` (products at most `255 · 2¹⁵`, pair sums exact in
    ///   `i32`) and two `vpaddd`, seeded the same way: the same lane
    ///   modulo 2³². The AVX2 instance runs that spelling on two 8-lane
    ///   halves.
    /// - **The digit split.** An activation code too wide for a signed
    ///   byte (MX9's ±254, or up to ±32767 in custom formats) enters as
    ///   signed byte digits `a = Σₜ 256ᵗ·dₜ` (two digits up to
    ///   `127·256 + 127`, three above); each digit row multiplies the same
    ///   biased bytes into accumulators of its own, and the epilogue adds
    ///   them shifted left by `8t`. Since `Σₜ 256ᵗ·Σ dₜ·(b + 128) =
    ///   Σ a·(b + 128)`, the one correction `−128·Σ a` still applies, and
    ///   the shifts are again exact modulo 2³².
    pub(super) fn defer(&self, blocks: usize) -> DeferCtx {
        DeferCtx {
            enabled: deferred_scale_out_enabled()
                && self.dmax > 0
                && (blocks as u64).saturating_mul(self.dmax) <= 1 << 24,
            e_lo: -149 - self.c,
            e_hi: 103 - self.c,
            exact_f32_dots: self.dmax <= 1 << 24,
        }
    }
}

/// Per-GEMM deferred-scale-out context, built by [`FormatPair::defer`]
/// (which documents the exactness invariant): whether the static headroom
/// bound holds for this format pair and block count, and the exponent grid
/// window an output element's `E_a + E_b` must land in to defer.
#[derive(Debug, Clone, Copy)]
pub(super) struct DeferCtx {
    pub(super) enabled: bool,
    pub(super) e_lo: i32,
    pub(super) e_hi: i32,
    /// Every block dot of the pair converts to `f32` exactly
    /// (`Dmax ≤ 2²⁴`).
    pub(super) exact_f32_dots: bool,
}

//! The AVX-512 backend: one 512-bit span kernel for the narrow code path
//! with the preset block size `k1 = 16`, consuming a **column-in-lane**
//! B plane — the VNNI GEMM layout. Columns are grouped into 16-wide
//! panels ([`super::PANEL_N_512`], the last one zero-padded to 16), and a
//! panel stores, for each K pair `(2p, 2p + 1)`, the 16 columns' two codes
//! side by side: `[block][pair][lane][2]` (see [`super::pack::panel_slot`]).
//! One pair row is 32 codes, one `zmm` load (`i16` codes) or one
//! sign-extending `ymm` load (`i8` codes, [`load32`]), and a panel's codes
//! stream strictly sequentially in K order.
//!
//! The body, [`span`]:
//!
//! - **A pair feeds 16 columns.** Row `i`'s codes `(a[2p], a[2p + 1])`
//!   are broadcast as one 32-bit value, and one `vpdpwssd` (or
//!   `vpmaddwd` + `vpaddd` without AVX-512-VNNI, [`dot_step`]) adds
//!   `a[2p]·b[2p][lane] + a[2p+1]·b[2p+1][lane]` into every column's
//!   `i32` lane. After `k1 / 2` steps each lane holds one column's block
//!   dot — no horizontal reduce.
//! - **The scale-out is a lane epilogue.** The reference chain
//!   `acc ← f32(acc + f32(dot · 2^(e_a + e_b + c)))` runs per block on all
//!   16 columns at once ([`scale_out`]): convert, exact power-of-two scale,
//!   add, in K order — the chain itself, one column per lane.
//! - **Up to four rows share every B load**, so at serving batch sizes
//!   the plane streams once per four rows.
//! - **Deferral is a skip of that epilogue** for a (row, panel) whose
//!   exponent metadata proves the chain exact (see
//!   [`super::pair::FormatPair::defer`]): its lanes keep accumulating the
//!   integer dots of the whole reduction and are scaled out once.
//! - **Ragged N is a masked store**: the padded lanes compute zeros no
//!   one reads. Ragged K needs nothing — the packer zero-pads every block
//!   to `k1` codes.
//!
//! VNNI and its fallback are the same [`span`] body, instantiated under
//! two `#[target_feature]` entry points; `vpdpwssd` is lane-for-lane
//! `vpmaddwd` + `vpaddd` (the narrow-pair gate `w_a + w_b ≤ 30` keeps each
//! pair-sum exact in `i32`), so both produce the same bits — as does every
//! other backend, and `super::reference_gemm`.

use super::pack::{PlaneView, MIXED_EXP};
use super::{DeferCtx, NarrowCode};
use std::arch::x86_64::*;

/// The preset first-level block size this kernel is specialized for.
pub(super) const K1: usize = 16;

/// Columns per panel: one per `i32` lane of a `zmm`.
const LANES: usize = super::PANEL_N_512;

/// Codes per block of one panel: `k1` codes of each of its 16 columns.
const BLOCK_CODES: usize = K1 * LANES;

/// Codes per K-pair row: two codes of each of the 16 columns.
const PAIR_ROW: usize = 2 * LANES;

/// Rows sharing each B load.
const GROUP_ROWS: usize = 4;

/// Row-tile height: every panel is reused from L1 for this many output
/// rows. A 16-row tile's A codes (16 KB at `K = 512`) plus one panel
/// (8 KB of `i8` codes and 2 KB of exponents) fit L1d.
const TILE_ROWS: usize = 16;

/// The AVX-512 span kernel ([`super::backend::SpanKernel`] shape). Picks
/// the VNNI or fallback instantiation of [`span`] once per span — the two
/// are bit-identical, so the choice (like the backend itself) is a pure
/// performance knob.
pub(super) fn gemm_span<B: NarrowCode>(
    ap: PlaneView<'_, i16>,
    rows: usize,
    bp: PlaneView<'_, B>,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    out: &mut [f32],
) {
    debug_assert!(ap.k1 == K1 && bp.k1 == K1);
    if super::backend::vnni_enabled() {
        // SAFETY: a column-in-lane plane is only built when the backend
        // layer verified AVX-512 F/BW support at pack time, and
        // `vnni_enabled` additionally verified AVX-512-VNNI.
        unsafe { span_vnni(ap, rows, bp, n, c, ctx, out) }
    } else {
        // SAFETY: F/BW support was verified at pack time (the plane's
        // layout exists only then).
        unsafe { span_bw(ap, rows, bp, n, c, ctx, out) }
    }
}

/// [`span`] compiled with `vpdpwssd`.
///
/// # Safety
///
/// Requires AVX-512 F, BW and VNNI; operand preconditions as [`span`].
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
unsafe fn span_vnni<B: NarrowCode>(
    ap: PlaneView<'_, i16>,
    rows: usize,
    bp: PlaneView<'_, B>,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    out: &mut [f32],
) {
    // SAFETY: this fn's preconditions are `span`'s, VNNI included.
    unsafe { span::<B, true>(ap, rows, bp, n, c, ctx, out) }
}

/// [`span`] compiled with `vpmaddwd` + `vpaddd`, for CPUs (or forced runs)
/// without AVX-512-VNNI.
///
/// # Safety
///
/// Requires AVX-512 F and BW; operand preconditions as [`span`].
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn span_bw<B: NarrowCode>(
    ap: PlaneView<'_, i16>,
    rows: usize,
    bp: PlaneView<'_, B>,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    out: &mut [f32],
) {
    // SAFETY: this fn's preconditions are `span`'s with `VNNI = false`.
    unsafe { span::<B, false>(ap, rows, bp, n, c, ctx, out) }
}

/// The one kernel body: `rows × n` outputs, tile by tile, panel by panel,
/// [`GROUP_ROWS`] rows at a time ([`rows_panel`]).
///
/// # Safety
///
/// Must be inlined into a fn enabling AVX-512 F and BW (and VNNI when
/// `VNNI = true`). `ap` must hold `rows` rows and `bp` a column-in-lane
/// plane of at least `n` columns, both with `k1 = 16` and the same block
/// count; `out` must hold `rows × n`.
#[inline(always)]
unsafe fn span<B: NarrowCode, const VNNI: bool>(
    ap: PlaneView<'_, i16>,
    rows: usize,
    bp: PlaneView<'_, B>,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    out: &mut [f32],
) {
    let blocks = ap.blocks;
    let mut i0 = 0;
    while i0 < rows {
        let tm = TILE_ROWS.min(rows - i0);
        for j in (0..n).step_by(LANES) {
            let p = j / LANES;
            let panel = Panel {
                codes: &bp.codes[p * blocks * BLOCK_CODES..][..blocks * BLOCK_CODES],
                exps: &bp.exps[p * blocks * LANES..][..blocks * LANES],
                uexp: &bp.uexp[j..n.min(j + LANES)],
                j,
            };
            let mut row = i0;
            while row < i0 + tm {
                let take = GROUP_ROWS.min(i0 + tm - row);
                let outs = &mut out[row * n..][..take * n];
                // SAFETY: this fn's ISA preconditions carry over; `row +
                // take ≤ rows`, `outs` is `take` whole `n`-wide rows, and
                // `panel` holds the whole reduction of columns `j ..
                // j + LANES` (the padded lanes included).
                unsafe {
                    match take {
                        4 => rows_panel::<B, 4, VNNI>(ap, row, &panel, n, c, ctx, outs),
                        3 => rows_panel::<B, 3, VNNI>(ap, row, &panel, n, c, ctx, outs),
                        2 => rows_panel::<B, 2, VNNI>(ap, row, &panel, n, c, ctx, outs),
                        _ => rows_panel::<B, 1, VNNI>(ap, row, &panel, n, c, ctx, outs),
                    }
                }
                row += take;
            }
        }
        i0 += tm;
    }
}

/// One 16-column panel of the B plane: its codes and per-block exponents
/// over the whole reduction, and its real columns' uniform exponents.
struct Panel<'a, B> {
    codes: &'a [B],
    exps: &'a [i32],
    /// One entry per real column (at most [`LANES`]).
    uexp: &'a [i32],
    /// The panel's first output column.
    j: usize,
}

/// `R` rows against one panel: the block loop, the per-block lane
/// epilogue (skipped for rows whose scale-out defers), and one masked
/// store per row.
///
/// # Safety
///
/// Must be inlined into a fn enabling AVX-512 F and BW (and VNNI when
/// `VNNI = true`). Rows `row .. row + R` must exist in `ap`, `panel` must
/// hold `ap.blocks` blocks of 16 lanes, and `outs` must be `R` whole
/// `n`-wide rows with `panel.j + panel.uexp.len() ≤ n`.
#[inline(always)]
unsafe fn rows_panel<B: NarrowCode, const R: usize, const VNNI: bool>(
    ap: PlaneView<'_, i16>,
    row: usize,
    panel: &Panel<'_, B>,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    outs: &mut [f32],
) {
    let blocks = ap.blocks;
    let acodes: [&[i16]; R] =
        std::array::from_fn(|r| &ap.codes[(row + r) * blocks * K1..][..blocks * K1]);
    let aus: [i32; R] = std::array::from_fn(|r| ap.uexp[row + r]);
    let mut defers = [false; R];
    for (defer, &au) in defers.iter_mut().zip(&aus) {
        *defer = ctx.enabled
            && au != MIXED_EXP
            && panel
                .uexp
                .iter()
                .all(|&u| u != MIXED_EXP && (ctx.e_lo..=ctx.e_hi).contains(&(au + u)));
    }
    let mask: __mmask16 = u16::MAX >> (LANES - panel.uexp.len());
    // SAFETY: this fn's ISA preconditions cover every intrinsic below. The
    // B loads read pair rows `4q .. 4q + 4` of block `kb`, 32 codes each
    // inside the panel's `blocks · BLOCK_CODES`; each A read is two codes at
    // `kb·K1 + 8q + 2x`, inside the row's `blocks · K1`; the exponent load
    // reads block `kb`'s 16 lanes inside the panel's `blocks · LANES`; the
    // masked load reads only the real columns' `panel.uexp.len()` uniform
    // exponents; and each masked store writes only row `r`'s real columns
    // `panel.j .. panel.j + panel.uexp.len() ≤ n` of `outs`.
    unsafe {
        let zero = _mm512_setzero_si512();
        let mut dots = [[zero; 4]; R];
        let mut accs = [_mm512_setzero_ps(); R];
        for kb in 0..blocks {
            // Four pair rows per step, one accumulator each: four
            // independent `vpdpwssd` chains per row.
            for q in 0..K1 / 8 {
                let bptr = panel
                    .codes
                    .as_ptr()
                    .add(kb * BLOCK_CODES + 4 * q * PAIR_ROW);
                let b = [
                    load32(bptr),
                    load32(bptr.add(PAIR_ROW)),
                    load32(bptr.add(2 * PAIR_ROW)),
                    load32(bptr.add(3 * PAIR_ROW)),
                ];
                for (d, a) in dots.iter_mut().zip(&acodes) {
                    let pa = a.as_ptr().add(kb * K1 + 8 * q);
                    for x in 0..4 {
                        let ax = _mm512_set1_epi32(pa.add(2 * x).cast::<i32>().read_unaligned());
                        d[x] = dot_step::<VNNI>(d[x], ax, b[x]);
                    }
                }
            }
            if defers.iter().all(|&d| d) {
                continue;
            }
            let eb = _mm512_loadu_si512(panel.exps.as_ptr().add(kb * LANES).cast());
            for r in 0..R {
                if !defers[r] {
                    let d = lane_sum(dots[r]);
                    let ea = ap.exps[(row + r) * blocks + kb];
                    accs[r] = scale_out(accs[r], d, ea + c, eb, ctx.exact_f32_dots);
                    dots[r] = [zero; 4];
                }
            }
        }
        if defers.iter().any(|&d| d) {
            let eu = _mm512_maskz_loadu_epi32(mask, panel.uexp.as_ptr());
            for r in 0..R {
                if defers[r] {
                    // A deferred total is at most 2²⁴: exact in `f32`.
                    let d = lane_sum(dots[r]);
                    accs[r] = scale_out(accs[r], d, aus[r] + c, eu, true);
                }
            }
        }
        for (r, &acc) in accs.iter().enumerate() {
            _mm512_mask_storeu_ps(outs[r * n + panel.j..].as_mut_ptr(), mask, acc);
        }
    }
}

/// The four accumulators of one row added lane by lane: each lane's
/// block dot (or, deferred, its running total) — an exact `i32` sum.
///
/// # Safety
///
/// Must be inlined into a fn enabling AVX-512 F.
#[inline(always)]
unsafe fn lane_sum(d: [__m512i; 4]) -> __m512i {
    // SAFETY: register-only AVX-512 F intrinsics, enabled by the caller.
    unsafe { _mm512_add_epi32(_mm512_add_epi32(d[0], d[1]), _mm512_add_epi32(d[2], d[3])) }
}

/// One multiply-accumulate step: `acc + a[2i]·b[2i] + a[2i+1]·b[2i+1]`
/// per `i32` lane — `vpdpwssd`, or its exact two-instruction spelling.
///
/// # Safety
///
/// Must be inlined into a fn enabling AVX-512 F and BW, and VNNI when
/// `VNNI = true`.
#[inline(always)]
unsafe fn dot_step<const VNNI: bool>(acc: __m512i, a: __m512i, b: __m512i) -> __m512i {
    // SAFETY: register-only intrinsics of the ISA this fn's caller enables.
    unsafe {
        if VNNI {
            _mm512_dpwssd_epi32(acc, a, b)
        } else {
            _mm512_add_epi32(acc, _mm512_madd_epi16(a, b))
        }
    }
}

/// The reference chain's step on 16 columns: `acc + f32(d · 2^(ea + eb))`
/// per lane, with one rounding for the scaled dot. `d` converts to `f32`
/// exactly when `exact_f32` (every dot is at most 2²⁴ in magnitude), and
/// `vscalefps` then rounds the exact product once; otherwise the dot and
/// its scale go through `f64` (exact for a narrow pair's dots and the
/// formats' exponent range) and `vcvtpd2ps` rounds once. A zero dot adds
/// `+0.0`, which leaves the accumulator unchanged: it starts at `+0.0` and
/// a round-to-nearest sum is `-0.0` only when both addends are.
///
/// # Safety
///
/// Must be inlined into a fn enabling AVX-512 F.
#[inline(always)]
unsafe fn scale_out(acc: __m512, d: __m512i, ea: i32, eb: __m512i, exact_f32: bool) -> __m512 {
    // SAFETY: register-only AVX-512 F intrinsics, enabled by the caller.
    unsafe {
        let e = _mm512_add_epi32(eb, _mm512_set1_epi32(ea));
        let x = if exact_f32 {
            _mm512_scalef_ps(_mm512_cvtepi32_ps(d), _mm512_cvtepi32_ps(e))
        } else {
            let lo = scale_out_f64(_mm512_castsi512_si256(d), _mm512_castsi512_si256(e));
            let hi = scale_out_f64(
                _mm512_extracti64x4_epi64::<1>(d),
                _mm512_extracti64x4_epi64::<1>(e),
            );
            _mm512_castpd_ps(_mm512_insertf64x4::<1>(
                _mm512_castps_pd(_mm512_castps256_ps512(lo)),
                _mm256_castps_pd(hi),
            ))
        };
        _mm512_add_ps(acc, x)
    }
}

/// `f32(d · 2^e)` on 8 lanes through `f64`: the conversion and the scale
/// are exact, `vcvtpd2ps` rounds once.
///
/// # Safety
///
/// Must be inlined into a fn enabling AVX-512 F.
#[inline(always)]
unsafe fn scale_out_f64(d: __m256i, e: __m256i) -> __m256 {
    // SAFETY: register-only AVX-512 F intrinsics, enabled by the caller.
    unsafe {
        _mm512_cvtpd_ps(_mm512_scalef_pd(
            _mm512_cvtepi32_pd(d),
            _mm512_cvtepi32_pd(e),
        ))
    }
}

/// One pair row — 32 B codes at `p` — as 32 `i16` lanes: one `zmm` load for
/// `i16` codes, one `ymm` load sign-extended by `vpmovsxbw` for `i8` codes.
/// The same integers either way, so the body is one for both widths.
///
/// # Safety
///
/// Must be inlined into a fn enabling AVX-512 F and BW; `p` must point at
/// 32 readable codes.
#[inline(always)]
unsafe fn load32<B: NarrowCode>(p: *const B) -> __m512i {
    // SAFETY: either load reads exactly 32 codes of `size_of::<B>()`
    // bytes, readable by this fn's precondition.
    unsafe {
        match size_of::<B>() {
            1 => _mm512_cvtepi8_epi16(_mm256_loadu_si256(p.cast())),
            _ => _mm512_loadu_epi16(p.cast()),
        }
    }
}

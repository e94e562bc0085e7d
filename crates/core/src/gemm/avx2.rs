//! The AVX2 backend: runtime-dispatched kernels for the narrow code path
//! with the preset block size `k1 = 16`, consuming a **panel-major** B
//! plane: columns grouped into [`PANEL_N`]-wide panels, `[block][lane][k1]`
//! inside each panel, so one panel's entire reduction (`blocks · 8 · k1`
//! codes ≈ 4–8 KB at the serving shapes) is one contiguous, L1-resident
//! streak and one `vpmaddwd` covers a whole block. Every kernel is generic
//! over the B code width: `i16` codes load as they are, `i8` codes
//! sign-extend on load ([`load16`]) into the same `i16` lanes.
//!
//! The kernel walks each panel [`TILE_ROWS`] rows at a time — the panel's
//! B codes are streamed into L1 once per tile and stay resident across all
//! its rows, so B traffic beyond L1 is one pass over the plane per
//! `TILE_ROWS` output rows. Per (row, panel) one of two column paths runs:
//!
//! - **Deferred scale-out** ([`panel8_deferred`]) — when the
//!   [`DeferCtx`] exactness conditions hold for the row and all 8 columns:
//!   8 register-blocked `i32` accumulators take one `vpmaddwd` + `vpaddd`
//!   per block across **all** K blocks, then a single transpose/reduce and
//!   a single vectorized scale-out finish the 8 outputs. The `hadd` trees
//!   and the per-block-pair scale-out run once per K *reduction* instead
//!   of once per K *block*, and the static headroom bound guarantees the
//!   `i32` lanes cannot overflow.
//! - **Per-block scale-out** ([`panel8_per_block`]) — the exact fallback
//!   for everything else: per block, 8 `vpmaddwd`s, one `hadd`
//!   transpose/reduce, and a 4-lane-wide scale-out accumulated into `f32`
//!   accumulators that stay **in registers** for the whole K loop — the
//!   same rounding chain as the portable kernel, without its per-block
//!   output round trips through memory.
//!
//! Ragged column tails (`n mod 8`, stored as one narrower final panel)
//! take a per-element helper ([`col_one`]). All paths keep the per-output
//! accumulation order and rounding points of the portable kernel, so the
//! backend is bit-identical to [`super::scalar`] — and to
//! `super::reference_gemm` — everywhere.

use super::pack::{PlaneView, MIXED_EXP};
use super::{DeferCtx, NarrowCode, PANEL_N};
use crate::util::pow2;
use std::arch::x86_64::*;

/// The preset first-level block size these kernels are specialized for.
pub(super) const K1: usize = 16;

/// Row-tile height: every B panel load is reused for this many output
/// rows, so the whole B plane is re-streamed from L2/L3 only once per
/// `TILE_ROWS` rows. 16 keeps the per-panel working set — the tile's A
/// codes (16 KB at `K = 512`) plus the 8 KB panel — inside L1; taller
/// tiles would halve B re-streams but evict the panel between rows, which
/// measures slower at the serving shapes.
const TILE_ROWS: usize = 16;

/// The AVX2 span kernel ([`super::backend::SpanKernel`] shape).
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
    // SAFETY: a panel-major B plane is only built when the backend layer
    // verified AVX2 support at pack time.
    unsafe { gemm_span_avx2(ap, rows, bp, n, c, ctx, out) }
}

/// # Safety
///
/// Requires AVX2 (verified at pack time before a panel-major plane exists).
/// `ap`/`bp` must be consistent planes (`k1 = 16`, codes/exponents sized to
/// `blocks`), `rows` within the A plane, `n` within the B plane, and
/// `out` at least `rows × n`.
#[target_feature(enable = "avx2")]
unsafe fn gemm_span_avx2<B: NarrowCode>(
    ap: PlaneView<'_, i16>,
    rows: usize,
    bp: PlaneView<'_, B>,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    out: &mut [f32],
) {
    let blocks = ap.blocks;
    let n8 = n - n % PANEL_N;
    let mut i0 = 0;
    while i0 < rows {
        let tm = TILE_ROWS.min(rows - i0);
        let mut j = 0;
        while j < n8 {
            // Block-slot base of this panel: the panel's codes start at
            // `pbase·k1` and its per-block exponents at `pbase`, both
            // contiguous for the whole reduction.
            let pbase = j * blocks;
            let panel_defers = |au: i32| {
                au != MIXED_EXP
                    && bp.uexp[j..][..PANEL_N]
                        .iter()
                        .all(|&u| u != MIXED_EXP && (ctx.e_lo..=ctx.e_hi).contains(&(au + u)))
            };
            let mut t = 0;
            while t < tm {
                let row = i0 + t;
                let au = ap.uexp[row];
                let acodes = &ap.codes[row * blocks * K1..][..blocks * K1];
                let defer = ctx.enabled && panel_defers(au);
                // Pair two deferring rows so each B load feeds both rows'
                // accumulators — the highest-throughput shape.
                if defer && t + 1 < tm {
                    let au1 = ap.uexp[row + 1];
                    if panel_defers(au1) {
                        let acodes1 = &ap.codes[(row + 1) * blocks * K1..][..blocks * K1];
                        let (out0, out1) = out[(i0 + t) * n..][..2 * n].split_at_mut(n);
                        // SAFETY: AVX2 is enabled on this fn; both code
                        // slices are exactly `blocks·K1` lanes, both out
                        // rows are `n` wide, and `j + PANEL_N ≤ n8 ≤ n`
                        // bounds the panel's columns and exponents.
                        unsafe {
                            panel8x2_deferred(acodes, acodes1, au, au1, bp, pbase, j, c, out0, out1)
                        };
                        t += 2;
                        continue;
                    }
                }
                let out_row = &mut out[(i0 + t) * n..][..n];
                if defer {
                    // SAFETY: AVX2 is enabled on this fn; `acodes` is
                    // `blocks·K1` lanes, `out_row` is `n` wide, and
                    // `j + PANEL_N ≤ n8 ≤ n` bounds the panel.
                    unsafe { panel8_deferred(acodes, au, bp, pbase, j, c, out_row) };
                } else {
                    // SAFETY: same bounds as the deferred call; `row` is a
                    // valid A-plane row, so its per-block exponents exist.
                    unsafe { panel8_per_block(acodes, ap, row, bp, pbase, j, c, out_row) };
                }
                t += 1;
            }
            j += PANEL_N;
        }
        if n8 < n {
            // The ragged final panel is `n − n8` columns wide; its codes
            // and exponents are still panel-local contiguous.
            let pbase = n8 * blocks;
            let width = n - n8;
            for t in 0..tm {
                let row = i0 + t;
                let au = ap.uexp[row];
                let acodes = &ap.codes[row * blocks * K1..][..blocks * K1];
                let out_row = &mut out[(i0 + t) * n..][..n];
                for (lane, slot) in out_row[n8..].iter_mut().enumerate() {
                    // SAFETY: AVX2 is enabled on this fn; `lane < width`
                    // (the iterator covers the `n − n8` tail columns), so
                    // every ragged-panel block slot `pbase + kb·width +
                    // lane` is in bounds of the B plane.
                    unsafe {
                        col_one(
                            acodes,
                            ap,
                            row,
                            au,
                            bp,
                            pbase,
                            width,
                            lane,
                            n8 + lane,
                            c,
                            ctx,
                            slot,
                        )
                    };
                }
            }
        }
        i0 += tm;
    }
}

/// Deferred scale-out for a **pair of rows** against one 8-column panel,
/// both already proven exact: the panel is walked as two 4-column halves,
/// each half accumulating `2 rows × 4 columns` in eight `i32` registers so
/// every B block load feeds two `vpmaddwd`s (6 loads per 8 MACs instead of
/// the single-row path's 9). Same dots, same single scale-out per element,
/// same headroom bound — pairing changes only which registers hold which
/// partial, never a rounding point.
///
/// # Safety
///
/// Requires AVX2. `acodes0`/`acodes1` must each hold `bp.blocks · K1`
/// codes, `out0`/`out1` must each be at least `j + PANEL_N` wide, and the
/// panel at `pbase` (columns `j .. j + PANEL_N`) must exist in `bp`.
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)] // two rows' operands + panel addressing
unsafe fn panel8x2_deferred<B: NarrowCode>(
    acodes0: &[i16],
    acodes1: &[i16],
    au0: i32,
    au1: i32,
    bp: PlaneView<'_, B>,
    pbase: usize,
    j: usize,
    c: i32,
    out0: &mut [f32],
    out1: &mut [f32],
) {
    let blocks = bp.blocks;
    let panel = &bp.codes[pbase * K1..][..blocks * PANEL_N * K1];
    for half in 0..2 {
        let off = half * 4;
        // SAFETY: `off + 4 ≤ PANEL_N`, so the 4-lane exponent load at
        // `uexp[j + off..]` and the 4-lane stores at `out·[j + off..]` are
        // in bounds by this fn's preconditions; `half4x2` and `scale4`
        // inherit AVX2 and receive exactly the slices they require.
        unsafe {
            let (d0, d1) = half4x2(acodes0, acodes1, panel, off, blocks);
            let eb = _mm_loadu_si128(bp.uexp[j + off..].as_ptr() as *const __m128i);
            let e0 = _mm_add_epi32(_mm_set1_epi32(au0 + c), eb);
            let e1 = _mm_add_epi32(_mm_set1_epi32(au1 + c), eb);
            _mm_storeu_ps(out0[j + off..].as_mut_ptr(), scale4(d0, e0));
            _mm_storeu_ps(out1[j + off..].as_mut_ptr(), scale4(d1, e1));
        }
    }
}

/// The 2-row × 4-column accumulation core: integer dots of two A rows
/// against panel columns `off .. off + 4` over the whole reduction,
/// returned as two 4-lane dot vectors (row 0, row 1).
///
/// # Safety
///
/// Requires AVX2. `acodes0`/`acodes1` must each hold `blocks · K1` codes,
/// `panel` must hold `blocks · PANEL_N · K1` codes, and `off + 4 ≤
/// PANEL_N`.
#[target_feature(enable = "avx2")]
unsafe fn half4x2<B: NarrowCode>(
    acodes0: &[i16],
    acodes1: &[i16],
    panel: &[B],
    off: usize,
    blocks: usize,
) -> (__m128i, __m128i) {
    let mut a00 = _mm256_setzero_si256();
    let mut a01 = _mm256_setzero_si256();
    let mut a02 = _mm256_setzero_si256();
    let mut a03 = _mm256_setzero_si256();
    let mut a10 = _mm256_setzero_si256();
    let mut a11 = _mm256_setzero_si256();
    let mut a12 = _mm256_setzero_si256();
    let mut a13 = _mm256_setzero_si256();
    for kb in 0..blocks {
        // SAFETY: each 16-lane load reads `K1 = 16` codes — the A loads at
        // `kb·K1` (both slices hold `blocks·K1` codes) and the four B
        // column loads at `(kb·PANEL_N + off + 0..4)·K1` (in bounds since
        // `off + 4 ≤ PANEL_N` and `panel` holds `blocks·PANEL_N·K1`).
        unsafe {
            let va0 = _mm256_loadu_si256(acodes0[kb * K1..].as_ptr() as *const __m256i);
            let va1 = _mm256_loadu_si256(acodes1[kb * K1..].as_ptr() as *const __m256i);
            let bptr = panel[(kb * PANEL_N + off) * K1..].as_ptr();
            let b0 = load16(bptr);
            let b1 = load16(bptr.add(K1));
            let b2 = load16(bptr.add(2 * K1));
            let b3 = load16(bptr.add(3 * K1));
            a00 = _mm256_add_epi32(a00, _mm256_madd_epi16(va0, b0));
            a01 = _mm256_add_epi32(a01, _mm256_madd_epi16(va0, b1));
            a02 = _mm256_add_epi32(a02, _mm256_madd_epi16(va0, b2));
            a03 = _mm256_add_epi32(a03, _mm256_madd_epi16(va0, b3));
            a10 = _mm256_add_epi32(a10, _mm256_madd_epi16(va1, b0));
            a11 = _mm256_add_epi32(a11, _mm256_madd_epi16(va1, b1));
            a12 = _mm256_add_epi32(a12, _mm256_madd_epi16(va1, b2));
            a13 = _mm256_add_epi32(a13, _mm256_madd_epi16(va1, b3));
        }
    }
    let q0 = _mm256_hadd_epi32(_mm256_hadd_epi32(a00, a01), _mm256_hadd_epi32(a02, a03));
    let d0 = _mm_add_epi32(_mm256_castsi256_si128(q0), _mm256_extracti128_si256(q0, 1));
    let q1 = _mm256_hadd_epi32(_mm256_hadd_epi32(a10, a11), _mm256_hadd_epi32(a12, a13));
    let d1 = _mm_add_epi32(_mm256_castsi256_si128(q1), _mm256_extracti128_si256(q1, 1));
    (d0, d1)
}

/// Deferred scale-out for one (row, 8-column panel) whose exactness is
/// already established: vertical accumulation — one `vpmaddwd` + `vpaddd`
/// per block per column, lanes reduced once at the end. The static
/// headroom bound (`blocks · Dmax ≤ 2²⁴`) caps every `i32` lane partial at
/// 2²¹, so no overflow.
///
/// # Safety
///
/// Requires AVX2. `acodes` must hold `bp.blocks · K1` codes, `out_row`
/// must be at least `j + PANEL_N` wide, and the panel at `pbase` (columns
/// `j .. j + PANEL_N`) must exist in `bp`.
#[target_feature(enable = "avx2")]
unsafe fn panel8_deferred<B: NarrowCode>(
    acodes: &[i16],
    au: i32,
    bp: PlaneView<'_, B>,
    pbase: usize,
    j: usize,
    c: i32,
    out_row: &mut [f32],
) {
    let blocks = bp.blocks;
    let panel = &bp.codes[pbase * K1..][..blocks * PANEL_N * K1];
    let mut acc0 = _mm256_setzero_si256();
    let mut acc1 = _mm256_setzero_si256();
    let mut acc2 = _mm256_setzero_si256();
    let mut acc3 = _mm256_setzero_si256();
    let mut acc4 = _mm256_setzero_si256();
    let mut acc5 = _mm256_setzero_si256();
    let mut acc6 = _mm256_setzero_si256();
    let mut acc7 = _mm256_setzero_si256();
    for kb in 0..blocks {
        // SAFETY: each 16-lane load reads `K1 = 16` codes — the A load at
        // `kb·K1` (`acodes` holds `blocks·K1`) and the 8 panel-column
        // loads at `(kb·PANEL_N + 0..8)·K1` (`panel` holds
        // `blocks·PANEL_N·K1`).
        unsafe {
            let va = _mm256_loadu_si256(acodes[kb * K1..].as_ptr() as *const __m256i);
            let bptr = panel[kb * PANEL_N * K1..].as_ptr();
            acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(va, load16(bptr)));
            acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(va, load16(bptr.add(K1))));
            acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(va, load16(bptr.add(2 * K1))));
            acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(va, load16(bptr.add(3 * K1))));
            acc4 = _mm256_add_epi32(acc4, _mm256_madd_epi16(va, load16(bptr.add(4 * K1))));
            acc5 = _mm256_add_epi32(acc5, _mm256_madd_epi16(va, load16(bptr.add(5 * K1))));
            acc6 = _mm256_add_epi32(acc6, _mm256_madd_epi16(va, load16(bptr.add(6 * K1))));
            acc7 = _mm256_add_epi32(acc7, _mm256_madd_epi16(va, load16(bptr.add(7 * K1))));
        }
    }
    // One transpose/reduce per 8-column group: two hadd rounds + a
    // cross-lane add give [d0..d3], [d4..d7] — exact integer dots,
    // order-insensitive.
    let q0 = _mm256_hadd_epi32(_mm256_hadd_epi32(acc0, acc1), _mm256_hadd_epi32(acc2, acc3));
    let d03 = _mm_add_epi32(_mm256_castsi256_si128(q0), _mm256_extracti128_si256(q0, 1));
    let q1 = _mm256_hadd_epi32(_mm256_hadd_epi32(acc4, acc5), _mm256_hadd_epi32(acc6, acc7));
    let d47 = _mm_add_epi32(_mm256_castsi256_si128(q1), _mm256_extracti128_si256(q1, 1));
    // SAFETY: `j + PANEL_N` bounds both 4-lane exponent loads (`uexp` has
    // one entry per column) and both 4-lane stores into `out_row`, per
    // this fn's preconditions; `scale4` inherits AVX2.
    unsafe {
        let e03 = _mm_add_epi32(
            _mm_set1_epi32(au + c),
            _mm_loadu_si128(bp.uexp[j..].as_ptr() as *const __m128i),
        );
        let e47 = _mm_add_epi32(
            _mm_set1_epi32(au + c),
            _mm_loadu_si128(bp.uexp[j + 4..].as_ptr() as *const __m128i),
        );
        _mm_storeu_ps(out_row[j..].as_mut_ptr(), scale4(d03, e03));
        _mm_storeu_ps(out_row[j + 4..].as_mut_ptr(), scale4(d47, e47));
    }
}

/// Per-block scale-out for one (row, 8-column panel): per block, 8
/// `vpmaddwd`s, one `hadd` transpose/reduce, and the 4-lane-wide scale-out
/// accumulated into two `f32` register accumulators — the portable
/// kernel's rounding chain (one `f32` rounding per block pair, `f32`
/// accumulation in K-block order), with the output round trips through
/// memory hoisted out of the K loop.
///
/// # Safety
///
/// Requires AVX2. `acodes` must hold `ap.blocks · K1` codes, `row` must be
/// a valid row of `ap` (its per-block exponents exist), `out_row` must be
/// at least `j + PANEL_N` wide, and the panel at `pbase` (columns `j .. j
/// + PANEL_N`) must exist in `bp`.
#[allow(clippy::too_many_arguments)] // one row's operands + panel addressing
#[target_feature(enable = "avx2")]
unsafe fn panel8_per_block<B: NarrowCode>(
    acodes: &[i16],
    ap: PlaneView<'_, i16>,
    row: usize,
    bp: PlaneView<'_, B>,
    pbase: usize,
    j: usize,
    c: i32,
    out_row: &mut [f32],
) {
    let blocks = ap.blocks;
    let aexps = &ap.exps[row * blocks..][..blocks];
    let panel = &bp.codes[pbase * K1..][..blocks * PANEL_N * K1];
    let pexps = &bp.exps[pbase..][..blocks * PANEL_N];
    let mut f03 = _mm_setzero_ps();
    let mut f47 = _mm_setzero_ps();
    for kb in 0..blocks {
        // SAFETY: the A load at `kb·K1` and the 8 panel-column loads at
        // `(kb·PANEL_N + 0..8)·K1` read 16 codes each, in bounds of slices
        // sized `blocks·K1` / `blocks·PANEL_N·K1`; the two 4-lane
        // exponent loads read `pexps[kb·PANEL_N .. kb·PANEL_N + 8]`
        // (`pexps` holds `blocks·PANEL_N`); `scale4` inherits AVX2.
        unsafe {
            let va = _mm256_loadu_si256(acodes[kb * K1..].as_ptr() as *const __m256i);
            let bptr = panel[kb * PANEL_N * K1..].as_ptr();
            let m0 = _mm256_madd_epi16(va, load16(bptr));
            let m1 = _mm256_madd_epi16(va, load16(bptr.add(K1)));
            let m2 = _mm256_madd_epi16(va, load16(bptr.add(2 * K1)));
            let m3 = _mm256_madd_epi16(va, load16(bptr.add(3 * K1)));
            let m4 = _mm256_madd_epi16(va, load16(bptr.add(4 * K1)));
            let m5 = _mm256_madd_epi16(va, load16(bptr.add(5 * K1)));
            let m6 = _mm256_madd_epi16(va, load16(bptr.add(6 * K1)));
            let m7 = _mm256_madd_epi16(va, load16(bptr.add(7 * K1)));
            let q0 = _mm256_hadd_epi32(_mm256_hadd_epi32(m0, m1), _mm256_hadd_epi32(m2, m3));
            let d03 = _mm_add_epi32(_mm256_castsi256_si128(q0), _mm256_extracti128_si256(q0, 1));
            let q1 = _mm256_hadd_epi32(_mm256_hadd_epi32(m4, m5), _mm256_hadd_epi32(m6, m7));
            let d47 = _mm_add_epi32(_mm256_castsi256_si128(q1), _mm256_extracti128_si256(q1, 1));
            // Scale-out: 2^(E_a + E_b + c) per lane (panel-major exponents
            // are contiguous per block), times the exact dot, rounded to
            // f32 once per block pair.
            let vea_c = _mm_set1_epi32(aexps[kb] + c);
            let e03 = _mm_add_epi32(
                vea_c,
                _mm_loadu_si128(pexps[kb * PANEL_N..].as_ptr() as *const __m128i),
            );
            let e47 = _mm_add_epi32(
                vea_c,
                _mm_loadu_si128(pexps[kb * PANEL_N + 4..].as_ptr() as *const __m128i),
            );
            f03 = _mm_add_ps(f03, scale4(d03, e03));
            f47 = _mm_add_ps(f47, scale4(d47, e47));
        }
    }
    // SAFETY: `j + PANEL_N` bounds both 4-lane stores into `out_row`.
    unsafe {
        _mm_storeu_ps(out_row[j..].as_mut_ptr(), f03);
        _mm_storeu_ps(out_row[j + 4..].as_mut_ptr(), f47);
    }
}

/// `dots[i] · 2^(es[i])` rounded to `f32` once, 4 lanes wide: the power of
/// two is built as an `f64` bit pattern (`(e + 1023) << 52` — exact; both
/// users keep `e` in normal-`f64` range, the deferred path by the grid
/// window and the per-block path by the format ulp floors), the product is
/// an exact `f64`, and `vcvtpd2ps` performs the one rounding.
///
/// # Safety
///
/// Requires AVX2 (register-only: no memory access, no other precondition).
#[target_feature(enable = "avx2")]
unsafe fn scale4(dots: __m128i, es: __m128i) -> __m128 {
    let bits = _mm256_slli_epi64(
        _mm256_add_epi64(_mm256_cvtepi32_epi64(es), _mm256_set1_epi64x(1023)),
        52,
    );
    _mm256_cvtpd_ps(_mm256_mul_pd(
        _mm256_cvtepi32_pd(dots),
        _mm256_castsi256_pd(bits),
    ))
}

/// 16 B codes at `p` as 16 `i16` lanes: one 256-bit load for `i16` codes,
/// one 128-bit load sign-extended by `vpmovsxbw` for `i8` codes — the same
/// integers either way, so every kernel above is one body for both widths.
///
/// # Safety
///
/// Requires AVX2; `p` must point at 16 readable codes.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn load16<B: NarrowCode>(p: *const B) -> __m256i {
    // SAFETY: either load reads exactly 16 codes of `size_of::<B>()`
    // bytes, readable by this fn's precondition.
    unsafe {
        match size_of::<B>() {
            1 => _mm256_cvtepi8_epi16(_mm_loadu_si128(p.cast())),
            _ => _mm256_loadu_si256(p.cast()),
        }
    }
}

/// One block dot with a whole-block `vpmaddwd` (no SSE2-width split, so
/// the tail path needs no second kernel module).
///
/// # Safety
///
/// Requires AVX2; `a` and `b` must each hold at least `K1 = 16` codes.
#[target_feature(enable = "avx2")]
unsafe fn dot16<B: NarrowCode>(a: &[i16], b: &[B]) -> i32 {
    // SAFETY: both 16-lane loads read exactly `K1 = 16` codes, in bounds by
    // this fn's precondition.
    let m = unsafe {
        _mm256_madd_epi16(
            _mm256_loadu_si256(a.as_ptr() as *const __m256i),
            load16(b.as_ptr()),
        )
    };
    let s = _mm_add_epi32(_mm256_castsi256_si128(m), _mm256_extracti128_si256(m, 1));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_01_10_11));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
    _mm_cvtsi128_si32(s)
}

/// One output element against the ragged final panel (`width` columns,
/// block-slot base `pbase`, panel lane `lane`, output column `j`):
/// deferred when its column qualifies, the per-block scale-out chain
/// otherwise.
///
/// # Safety
///
/// Requires AVX2. `acodes` must hold `ap.blocks · K1` codes, `lane <
/// width`, `j` must be a valid B-plane column, and the ragged panel's
/// block slots `pbase + kb·width + lane` must exist in `bp`.
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)] // one output element's full addressing context
unsafe fn col_one<B: NarrowCode>(
    acodes: &[i16],
    ap: PlaneView<'_, i16>,
    row: usize,
    au: i32,
    bp: PlaneView<'_, B>,
    pbase: usize,
    width: usize,
    lane: usize,
    j: usize,
    c: i32,
    ctx: DeferCtx,
    out: &mut f32,
) {
    let blocks = ap.blocks;
    let bu = bp.uexp[j];
    let slot = |kb: usize| pbase + kb * width + lane;
    if ctx.enabled
        && au != MIXED_EXP
        && bu != MIXED_EXP
        && (ctx.e_lo..=ctx.e_hi).contains(&(au + bu))
    {
        let mut total = 0i64;
        for kb in 0..blocks {
            // SAFETY: both operand slices are exactly `K1` codes (the
            // block slot is in bounds by this fn's preconditions) and
            // `dot16` inherits AVX2.
            let d = unsafe { dot16(&acodes[kb * K1..][..K1], &bp.codes[slot(kb) * K1..][..K1]) };
            total += d as i64;
        }
        *out = (total as f64 * pow2(au + bu + c)) as f32;
    } else {
        let aexps = &ap.exps[row * blocks..][..blocks];
        let mut acc = 0.0f32;
        for kb in 0..blocks {
            // SAFETY: same `K1`-sized slices and AVX2 inheritance as the
            // deferred arm above.
            let d = unsafe { dot16(&acodes[kb * K1..][..K1], &bp.codes[slot(kb) * K1..][..K1]) };
            if d != 0 {
                acc += (d as f64 * pow2(aexps[kb] + bp.exps[slot(kb)] + c)) as f32;
            }
        }
        *out = acc;
    }
}

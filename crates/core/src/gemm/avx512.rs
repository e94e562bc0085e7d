//! The AVX-512 backend (kernel generation 3): 512-bit kernels for the
//! `i16` code path with the preset block size `k1 = 16`, consuming a
//! **chunk-paired panel-major** B plane: columns grouped into 4-wide
//! panels ([`super::PANEL_N_512`]), and inside a panel two consecutive
//! `k1`-blocks of one column sit in adjacent slots (see
//! [`super::pack::panel_slot`]) — so one column's 32-code *chunk* is
//! exactly one `zmm` load and one `vpmaddwd`/`vpdpwssd` covers two blocks.
//!
//! Relative to the generation-2 AVX2 kernel, the panels are *narrower*
//! (4 columns vs 8) because each column's K step is *deeper* (32 codes vs
//! 16), and the remainder loops disappear:
//!
//! - **4-column panels, 32-lane math, strictly sequential streaming** —
//!   each 512-bit accumulator holds 16 `i32` lanes fed by 32 `i16`
//!   products per step. A panel's codes are read beginning-to-end in
//!   K order: one chunk row is four consecutive `zmm` loads, and
//!   consecutive chunk rows are adjacent in memory. (An earlier 16-wide
//!   panel walked in 4-column passes measured ~1.8× slower across the
//!   sweep — each pass touched 256 of every 1024 bytes and starved the
//!   prefetcher; panel width is a locality knob, not a lane-count one.)
//! - **Four-row pairing** ([`panel4_deferred`]) — where the [`DeferCtx`]
//!   exactness conditions hold for a run of rows, up to four rows'
//!   accumulators share every B chunk load (AVX2 pairs two). A 4-row
//!   group's working set is 21 `zmm` registers (16 accumulators + 4 B
//!   chunks + 1 A chunk).
//! - **`vpdpwssd` (AVX-512-VNNI)** — fuses the `vpmaddwd` + `vpaddd`
//!   chain into one instruction per chunk. VNNI is detected separately
//!   from the F/BW baseline ([`super::backend::avx512_vnni_available`]);
//!   the [`panel_dots_bw`] twin keeps the two-instruction form for
//!   CPUs without it, bit-identical by construction (`vpdpwssd` is
//!   lane-for-lane `vpmaddwd` + `vpaddd`, and the narrow-pair gate
//!   `w_a + w_b ≤ 30` keeps each fused pair-sum exact in `i32`).
//! - **Masked tails instead of remainder loops** — an odd block count
//!   leaves one lone 16-code block per column (stored compactly by the
//!   packer); it is read with `_mm512_maskz_loadu_epi16(0xFFFF, ..)`,
//!   whose masked-out lanes are architecturally not accessed, so the same
//!   chunk loop body covers ragged K with no scalar tail. Ragged N (at
//!   most 3 columns) takes the per-column [`col_one`] path, which reuses
//!   the identical masked loads; rows whose exponent metadata
//!   disqualifies whole-panel deferral stay vectorized at full panel
//!   width in [`panel4_per_block`] — one such row falling to the scalar
//!   chain would cost more than the rest of its tile combined.
//! - **Shared transpose/reduce and 4-lane scale-out** — integer dots
//!   leave the accumulators through one `vpaddd` half-fold and the gen-2
//!   two-round `vphaddd` tree ([`reduce4`]), four columns at a time, and
//!   scale-out is the gen-2 [`scale4`] (exact `f64` power-of-two build,
//!   one `vcvtpd2ps` rounding) — horizontal work is amortized across
//!   columns instead of paid per output element.
//!
//! All paths keep the per-output accumulation order and rounding points
//! of the portable kernel, so the backend is bit-identical to
//! [`super::scalar`] — and to `super::reference_gemm` — everywhere. The
//! deferred paths lean on the widened headroom derivation documented at
//! [`super::pair::FormatPair::defer`]: under the static `blocks · Dmax ≤ 2²⁴`
//! gate each 32-lane accumulator's `i32` lane partial stays ≤ 2²⁰.

use super::pack::{PlaneView, MIXED_EXP};
use super::DeferCtx;
use crate::util::pow2;
use std::arch::x86_64::*;

/// The preset first-level block size these kernels are specialized for.
pub(super) const K1: usize = 16;

/// Panel width (columns) of the chunk-paired B layout.
const PANEL: usize = super::PANEL_N_512;

/// Row-tile height: every B panel load is reused for this many output
/// rows. 16 matches the gen-2 tile: the tile's A codes (16 KB at
/// `K = 512`) plus a 4 KB panel fit L1d with room to spare, and a
/// shorter tile would re-stream the whole B plane from L2 proportionally
/// more often at the serving batch sizes (`M ∈ 8..32`) where the plane
/// no longer fits alongside the output.
const TILE_ROWS: usize = 16;

/// Codes per chunk: two `k1`-blocks of one column, one `zmm` load.
const CHUNK: usize = 2 * K1;

/// The AVX-512 span kernel ([`super::backend::SpanKernel`] shape). Picks
/// the VNNI or BW block-dot twin once per span — the two are
/// bit-identical, so the choice (like the backend itself) is a pure
/// performance knob.
pub(super) fn gemm_span(
    ap: PlaneView<'_, i16>,
    rows: usize,
    bp: PlaneView<'_, i16>,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    out: &mut [f32],
) {
    debug_assert!(ap.k1 == K1 && bp.k1 == K1);
    if super::backend::vnni_enabled() {
        // SAFETY: a chunk-paired plane is only built when the backend
        // layer verified AVX-512 F/BW support at pack time, and
        // `vnni_enabled` additionally verified AVX-512-VNNI.
        unsafe { gemm_span_avx512::<true>(ap, rows, bp, n, c, ctx, out) }
    } else {
        // SAFETY: F/BW support was verified at pack time (the plane's
        // layout exists only then); the `false` instantiation uses no
        // VNNI instruction.
        unsafe { gemm_span_avx512::<false>(ap, rows, bp, n, c, ctx, out) }
    }
}

/// Borrows `R` consecutive rows' code slices out of the A plane.
fn acodes_of<const R: usize>(ap: PlaneView<'_, i16>, row: usize) -> [&[i16]; R] {
    std::array::from_fn(|r| &ap.codes[(row + r) * ap.blocks * K1..][..ap.blocks * K1])
}

/// `R` consecutive rows' uniform exponents.
fn aus_of<const R: usize>(ap: PlaneView<'_, i16>, row: usize) -> [i32; R] {
    std::array::from_fn(|r| ap.uexp[row + r])
}

/// # Safety
///
/// Requires AVX-512 F and BW (verified at pack time before a
/// chunk-paired plane exists); `VNNI = true` additionally requires
/// AVX-512-VNNI (verified by `vnni_enabled`). `ap`/`bp` must be
/// consistent planes (`k1 = 16`, codes/exponents sized to `blocks`),
/// `rows` within the A plane, `n` within the B plane, and `out` at
/// least `rows × n`.
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn gemm_span_avx512<const VNNI: bool>(
    ap: PlaneView<'_, i16>,
    rows: usize,
    bp: PlaneView<'_, i16>,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    out: &mut [f32],
) {
    let blocks = ap.blocks;
    let np = n - n % PANEL;
    let mut i0 = 0;
    while i0 < rows {
        let tm = TILE_ROWS.min(rows - i0);
        let mut j = 0;
        while j < np {
            // Block-slot base of this panel: the panel's codes start at
            // `pbase·k1` and its slots span `blocks·PANEL`, contiguous
            // for the whole reduction.
            let pbase = j * blocks;
            let panel_defers = |au: i32| {
                au != MIXED_EXP
                    && bp.uexp[j..][..PANEL]
                        .iter()
                        .all(|&u| u != MIXED_EXP && (ctx.e_lo..=ctx.e_hi).contains(&(au + u)))
            };
            let mut t = 0;
            while t < tm {
                let row = i0 + t;
                if ctx.enabled && panel_defers(ap.uexp[row]) {
                    // Group up to four consecutive deferring rows so each
                    // B chunk load feeds the whole group's accumulators.
                    let mut run = 1;
                    while run < 4 && t + run < tm && panel_defers(ap.uexp[row + run]) {
                        run += 1;
                    }
                    let take = match run {
                        4 => 4,
                        2 | 3 => 2,
                        _ => 1,
                    };
                    let outs = &mut out[(i0 + t) * n..][..take * n];
                    match take {
                        // SAFETY: AVX-512 F/BW are enabled on this fn
                        // (and VNNI was verified when `VNNI = true`); the
                        // 4 row slices each hold `blocks·K1` codes,
                        // `outs` is 4 whole `n`-wide rows, and
                        // `j + PANEL ≤ np ≤ n` bounds the panel's columns
                        // and exponents.
                        4 => unsafe {
                            panel4_deferred::<4, VNNI>(
                                &acodes_of::<4>(ap, row),
                                &aus_of::<4>(ap, row),
                                bp,
                                pbase,
                                j,
                                c,
                                n,
                                outs,
                            )
                        },
                        // SAFETY: as the 4-row arm, with 2 rows.
                        2 => unsafe {
                            panel4_deferred::<2, VNNI>(
                                &acodes_of::<2>(ap, row),
                                &aus_of::<2>(ap, row),
                                bp,
                                pbase,
                                j,
                                c,
                                n,
                                outs,
                            )
                        },
                        // SAFETY: as the 4-row arm, with 1 row.
                        _ => unsafe {
                            panel4_deferred::<1, VNNI>(
                                &acodes_of::<1>(ap, row),
                                &aus_of::<1>(ap, row),
                                bp,
                                pbase,
                                j,
                                c,
                                n,
                                outs,
                            )
                        },
                    }
                    t += take;
                } else {
                    // Exponent metadata disqualifies whole-panel deferral
                    // for this row: vectorized per-block fallback — the
                    // reference rounding chain at full panel width
                    // (columns that could defer individually round to the
                    // same bits either way; see `panel4_per_block`).
                    let acodes = &ap.codes[row * blocks * K1..][..blocks * K1];
                    let out_row = &mut out[(i0 + t) * n..][..n];
                    // SAFETY: AVX-512 F/BW are enabled on this fn; the
                    // row slice holds `blocks·K1` codes, `out_row` is one
                    // whole `n`-wide row, and `j + PANEL ≤ np ≤ n` bounds
                    // the panel's columns and exponents.
                    unsafe { panel4_per_block(acodes, ap, row, bp, pbase, j, c, out_row) };
                    t += 1;
                }
            }
            j += PANEL;
        }
        if np < n {
            // The ragged final panel is `n − np ≤ 3` columns wide; it is
            // chunk-paired at its own width, which `col_one`'s slot
            // arithmetic mirrors.
            let pbase = np * blocks;
            let width = n - np;
            for t in 0..tm {
                let row = i0 + t;
                let au = ap.uexp[row];
                let acodes = &ap.codes[row * blocks * K1..][..blocks * K1];
                let out_row = &mut out[(i0 + t) * n..][..n];
                for (lane, slot) in out_row[np..].iter_mut().enumerate() {
                    // SAFETY: AVX-512 F/BW are enabled on this fn;
                    // `lane < width` (the iterator covers the `n − np`
                    // tail columns), so every ragged-panel block slot is
                    // in bounds of the B plane.
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
                            np + lane,
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

/// Deferred scale-out for a group of `R ∈ {1, 2, 4}` rows against one
/// 4-column panel, all already proven exact: the panel streams once,
/// sequentially, accumulating `R rows × 4 columns` of integer dots over
/// the whole reduction ([`panel_dots_vnni`] / [`panel_dots_bw`]), then
/// one 4-lane [`scale4`] per row — horizontal work amortized across
/// columns, never per element. Grouping changes only which registers
/// hold which partial, never a rounding point; the scale-out chain
/// (`dot as f64 · 2^e`, rounded to `f32` once) is exactly the per-column
/// deferred chain.
///
/// # Safety
///
/// Requires AVX-512 F/BW; `VNNI = true` additionally requires
/// AVX-512-VNNI. Each `acodes[r]` must hold `bp.blocks · K1` codes,
/// `outs` must be `R` whole `n`-wide rows, and the panel at `pbase`
/// (columns `j .. j + PANEL`) must exist in `bp` (codes, exponents, and
/// `uexp`).
#[target_feature(enable = "avx512f,avx512bw")]
#[allow(clippy::too_many_arguments)] // a row group's operands + panel addressing
unsafe fn panel4_deferred<const R: usize, const VNNI: bool>(
    acodes: &[&[i16]; R],
    aus: &[i32; R],
    bp: PlaneView<'_, i16>,
    pbase: usize,
    j: usize,
    c: i32,
    n: usize,
    outs: &mut [f32],
) {
    let blocks = bp.blocks;
    let panel = &bp.codes[pbase * K1..][..blocks * PANEL * K1];
    let dots = if VNNI {
        // SAFETY: the panel-dot twins inherit this fn's preconditions
        // (F/BW enabled here, VNNI verified for this instantiation);
        // `panel` spans the whole panel.
        unsafe { panel_dots_vnni::<R>(acodes, panel, blocks) }
    } else {
        // SAFETY: as above, without the VNNI requirement.
        unsafe { panel_dots_bw::<R>(acodes, panel, blocks) }
    };
    // SAFETY: `j + PANEL ≤ n` bounds the 4-lane exponent load (`uexp`
    // has one entry per column) and each row's 4-lane store into its
    // `n`-wide output row; `scale4` inherits F/BW.
    unsafe {
        let eb = _mm_loadu_si128(bp.uexp[j..].as_ptr() as *const __m128i);
        for (r, &d) in dots.iter().enumerate() {
            let es = _mm_add_epi32(_mm_set1_epi32(aus[r] + c), eb);
            _mm_storeu_ps(outs[r * n + j..].as_mut_ptr(), scale4(d, es));
        }
    }
}

/// The VNNI panel core: integer dots of `R` A rows against a panel's 4
/// columns over the whole reduction, one `vpdpwssd` per (row, column,
/// chunk) and a masked half-chunk step for the lone block of an odd
/// reduction, returned as one `[d0 .. d3]` vector per row ([`reduce4`]).
/// Lane partials stay ≤ 2²⁰ under the deferral gate (see
/// [`super::pair::FormatPair::defer`]), so the `i32` reduce is exact.
///
/// # Safety
///
/// Requires AVX-512 F, BW, and VNNI. Each `acodes[r]` must hold
/// `blocks · K1` codes and `panel` must hold `blocks · PANEL · K1` codes
/// laid out chunk-paired at width [`PANEL`].
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
unsafe fn panel_dots_vnni<const R: usize>(
    acodes: &[&[i16]; R],
    panel: &[i16],
    blocks: usize,
) -> [__m128i; R] {
    let mut acc = [[_mm512_setzero_si512(); PANEL]; R];
    for t in 0..blocks / 2 {
        // SAFETY: chunk row `t` is the four consecutive 32-lane B loads
        // at `t·2·PANEL·K1` (`panel` holds `blocks·PANEL·K1`), and each
        // 32-lane A load reads chunk `t` of a slice holding `blocks·K1`
        // codes.
        unsafe {
            let bptr = panel.as_ptr().add(t * 2 * PANEL * K1);
            let b0 = _mm512_loadu_epi16(bptr);
            let b1 = _mm512_loadu_epi16(bptr.add(CHUNK));
            let b2 = _mm512_loadu_epi16(bptr.add(2 * CHUNK));
            let b3 = _mm512_loadu_epi16(bptr.add(3 * CHUNK));
            for (r, a) in acodes.iter().enumerate() {
                let va = _mm512_loadu_epi16(a.as_ptr().add(t * CHUNK));
                acc[r][0] = _mm512_dpwssd_epi32(acc[r][0], va, b0);
                acc[r][1] = _mm512_dpwssd_epi32(acc[r][1], va, b1);
                acc[r][2] = _mm512_dpwssd_epi32(acc[r][2], va, b2);
                acc[r][3] = _mm512_dpwssd_epi32(acc[r][3], va, b3);
            }
        }
    }
    if blocks % 2 == 1 {
        let kb = blocks - 1;
        // SAFETY: the low-half masked loads access only their 16 masked-in
        // lanes — one lone `K1`-code block each, in bounds at A's block
        // `kb` and the panel's compact lone-block slots
        // `(blocks−1)·PANEL + 0..4` (see `pack::panel_slot`).
        unsafe {
            let bptr = panel.as_ptr().add(kb * PANEL * K1);
            let b0 = _mm512_maskz_loadu_epi16(0xFFFF, bptr);
            let b1 = _mm512_maskz_loadu_epi16(0xFFFF, bptr.add(K1));
            let b2 = _mm512_maskz_loadu_epi16(0xFFFF, bptr.add(2 * K1));
            let b3 = _mm512_maskz_loadu_epi16(0xFFFF, bptr.add(3 * K1));
            for (r, a) in acodes.iter().enumerate() {
                let va = _mm512_maskz_loadu_epi16(0xFFFF, a.as_ptr().add(kb * K1));
                acc[r][0] = _mm512_dpwssd_epi32(acc[r][0], va, b0);
                acc[r][1] = _mm512_dpwssd_epi32(acc[r][1], va, b1);
                acc[r][2] = _mm512_dpwssd_epi32(acc[r][2], va, b2);
                acc[r][3] = _mm512_dpwssd_epi32(acc[r][3], va, b3);
            }
        }
    }
    let mut dots = [_mm_setzero_si128(); R];
    for (dot, row_acc) in dots.iter_mut().zip(acc.iter()) {
        // SAFETY: `reduce4` is register-only and inherits F/BW, enabled
        // on this fn.
        *dot = unsafe { reduce4(row_acc) };
    }
    dots
}

/// The AVX-512BW panel core: identical traversal and values as
/// [`panel_dots_vnni`], with each `vpdpwssd` spelled as its exact
/// two-instruction equivalent `vpmaddwd` + `vpaddd` — the fallback for
/// CPUs (or forced runs) without AVX-512-VNNI. Kept as a separate
/// `#[target_feature]` twin rather than a branch so neither instantiation
/// ever carries the other's ISA requirement.
///
/// # Safety
///
/// Requires AVX-512 F and BW. Same operand preconditions as
/// [`panel_dots_vnni`].
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn panel_dots_bw<const R: usize>(
    acodes: &[&[i16]; R],
    panel: &[i16],
    blocks: usize,
) -> [__m128i; R] {
    let mut acc = [[_mm512_setzero_si512(); PANEL]; R];
    for t in 0..blocks / 2 {
        // SAFETY: identical bounds to the VNNI twin — chunk row `t` at
        // `t·2·PANEL·K1`, A chunk `t` within `blocks·K1` codes.
        unsafe {
            let bptr = panel.as_ptr().add(t * 2 * PANEL * K1);
            let b0 = _mm512_loadu_epi16(bptr);
            let b1 = _mm512_loadu_epi16(bptr.add(CHUNK));
            let b2 = _mm512_loadu_epi16(bptr.add(2 * CHUNK));
            let b3 = _mm512_loadu_epi16(bptr.add(3 * CHUNK));
            for (r, a) in acodes.iter().enumerate() {
                let va = _mm512_loadu_epi16(a.as_ptr().add(t * CHUNK));
                acc[r][0] = _mm512_add_epi32(acc[r][0], _mm512_madd_epi16(va, b0));
                acc[r][1] = _mm512_add_epi32(acc[r][1], _mm512_madd_epi16(va, b1));
                acc[r][2] = _mm512_add_epi32(acc[r][2], _mm512_madd_epi16(va, b2));
                acc[r][3] = _mm512_add_epi32(acc[r][3], _mm512_madd_epi16(va, b3));
            }
        }
    }
    if blocks % 2 == 1 {
        let kb = blocks - 1;
        // SAFETY: identical bounds to the VNNI twin's masked tail — the
        // low-half masked loads access only one lone block each.
        unsafe {
            let bptr = panel.as_ptr().add(kb * PANEL * K1);
            let b0 = _mm512_maskz_loadu_epi16(0xFFFF, bptr);
            let b1 = _mm512_maskz_loadu_epi16(0xFFFF, bptr.add(K1));
            let b2 = _mm512_maskz_loadu_epi16(0xFFFF, bptr.add(2 * K1));
            let b3 = _mm512_maskz_loadu_epi16(0xFFFF, bptr.add(3 * K1));
            for (r, a) in acodes.iter().enumerate() {
                let va = _mm512_maskz_loadu_epi16(0xFFFF, a.as_ptr().add(kb * K1));
                acc[r][0] = _mm512_add_epi32(acc[r][0], _mm512_madd_epi16(va, b0));
                acc[r][1] = _mm512_add_epi32(acc[r][1], _mm512_madd_epi16(va, b1));
                acc[r][2] = _mm512_add_epi32(acc[r][2], _mm512_madd_epi16(va, b2));
                acc[r][3] = _mm512_add_epi32(acc[r][3], _mm512_madd_epi16(va, b3));
            }
        }
    }
    let mut dots = [_mm_setzero_si128(); R];
    for (dot, row_acc) in dots.iter_mut().zip(acc.iter()) {
        // SAFETY: `reduce4` is register-only and inherits F/BW, enabled
        // on this fn.
        *dot = unsafe { reduce4(row_acc) };
    }
    dots
}

/// Transpose/reduce four 16-lane accumulators into one `[d0, d1, d2, d3]`
/// vector: each `zmm`'s halves fold with one `vpaddd`, then [`hadd4`]
/// finishes all four columns at once — exact integer sums,
/// order-insensitive.
///
/// # Safety
///
/// Requires AVX-512 F and BW (register-only: no memory access).
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn reduce4(acc: &[__m512i; 4]) -> __m128i {
    let s0 = _mm256_add_epi32(
        _mm512_castsi512_si256(acc[0]),
        _mm512_extracti64x4_epi64::<1>(acc[0]),
    );
    let s1 = _mm256_add_epi32(
        _mm512_castsi512_si256(acc[1]),
        _mm512_extracti64x4_epi64::<1>(acc[1]),
    );
    let s2 = _mm256_add_epi32(
        _mm512_castsi512_si256(acc[2]),
        _mm512_extracti64x4_epi64::<1>(acc[2]),
    );
    let s3 = _mm256_add_epi32(
        _mm512_castsi512_si256(acc[3]),
        _mm512_extracti64x4_epi64::<1>(acc[3]),
    );
    // SAFETY: `hadd4` is register-only and inherits F/BW, enabled here.
    unsafe { hadd4(s0, s1, s2, s3) }
}

/// The gen-2 transpose/reduce for four 8-lane partials: two `vphaddd`
/// rounds and a cross-lane add give `[Σm0, Σm1, Σm2, Σm3]` — exact
/// integer sums, order-insensitive. (The 256-bit intrinsics are legal
/// here: AVX-512 F implies AVX2.)
///
/// # Safety
///
/// Requires AVX-512 F and BW (register-only: no memory access).
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn hadd4(m0: __m256i, m1: __m256i, m2: __m256i, m3: __m256i) -> __m128i {
    let q = _mm256_hadd_epi32(_mm256_hadd_epi32(m0, m1), _mm256_hadd_epi32(m2, m3));
    _mm_add_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256(q, 1))
}

/// `dots[i] · 2^(es[i])` rounded to `f32` once, 4 lanes wide — the gen-2
/// scale-out verbatim: the power of two is built as an `f64` bit pattern
/// (`(e + 1023) << 52` — exact; both users keep `e` in normal-`f64`
/// range, the deferred path by the grid window and the per-block path by
/// the format ulp floors), the product is an exact `f64`, and
/// `vcvtpd2ps` performs the one rounding.
///
/// # Safety
///
/// Requires AVX-512 F and BW (register-only: no memory access).
#[target_feature(enable = "avx512f,avx512bw")]
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

/// Per-block scale-out for one (row, 4-column panel): the portable
/// kernel's rounding chain — one `f32` rounding per block per column,
/// `f32` accumulation in K-block order — kept, with each chunk's
/// `vpmaddwd` halves split per block (low `i32` lanes are block `2t`'s
/// pair-sums, high lanes block `2t + 1`'s), transposed/reduced four
/// columns at a time, and scaled out 4 lanes wide into an `f32` register
/// accumulator — the gen-2 `panel8_per_block` idiom at double depth.
/// Serves rows whose exponent metadata disqualifies whole-panel
/// deferral; columns that would defer individually produce the same bits
/// on this chain (under the deferral conditions every per-block partial
/// and running sum is an integer multiple of `2^E` below `2²⁴`, exactly
/// representable in `f32`, so the chain never rounds).
///
/// # Safety
///
/// Requires AVX-512 F and BW. `acodes` must hold `ap.blocks · K1` codes,
/// `row` must be a valid row of `ap` (its per-block exponents exist),
/// `out_row` must be at least `j + PANEL` wide, and the panel at `pbase`
/// (columns `j .. j + PANEL`) must exist in `bp` (codes and exponents).
#[target_feature(enable = "avx512f,avx512bw")]
#[allow(clippy::too_many_arguments)] // one row's operands + panel addressing
unsafe fn panel4_per_block(
    acodes: &[i16],
    ap: PlaneView<'_, i16>,
    row: usize,
    bp: PlaneView<'_, i16>,
    pbase: usize,
    j: usize,
    c: i32,
    out_row: &mut [f32],
) {
    let blocks = ap.blocks;
    let aexps = &ap.exps[row * blocks..][..blocks];
    let panel = &bp.codes[pbase * K1..][..blocks * PANEL * K1];
    let pexps = &bp.exps[pbase..][..blocks * PANEL];
    // Paired slots interleave the two blocks' exponents per column; these
    // pick the even (block `2t`) and odd (block `2t + 1`) entries out of
    // one 8-exponent load.
    let even = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    let odd = _mm256_setr_epi32(1, 3, 5, 7, 0, 0, 0, 0);
    let mut f = _mm_setzero_ps();
    for t in 0..blocks / 2 {
        // SAFETY: chunk row `t` is the four consecutive 32-lane B loads
        // at `t·2·PANEL·K1` (`panel` holds `blocks·PANEL·K1`); the A
        // load reads chunk `t` of a slice holding `blocks·K1` codes; the
        // 8-lane exponent load reads `pexps[t·2·PANEL ..][..8]`, within
        // `blocks·PANEL`; `hadd4`/`scale4` are register-only and inherit
        // F/BW.
        unsafe {
            let bptr = panel.as_ptr().add(t * 2 * PANEL * K1);
            let va = _mm512_loadu_epi16(acodes.as_ptr().add(t * CHUNK));
            let m0 = _mm512_madd_epi16(va, _mm512_loadu_epi16(bptr));
            let m1 = _mm512_madd_epi16(va, _mm512_loadu_epi16(bptr.add(CHUNK)));
            let m2 = _mm512_madd_epi16(va, _mm512_loadu_epi16(bptr.add(2 * CHUNK)));
            let m3 = _mm512_madd_epi16(va, _mm512_loadu_epi16(bptr.add(3 * CHUNK)));
            let dlo = hadd4(
                _mm512_castsi512_si256(m0),
                _mm512_castsi512_si256(m1),
                _mm512_castsi512_si256(m2),
                _mm512_castsi512_si256(m3),
            );
            let dhi = hadd4(
                _mm512_extracti64x4_epi64::<1>(m0),
                _mm512_extracti64x4_epi64::<1>(m1),
                _mm512_extracti64x4_epi64::<1>(m2),
                _mm512_extracti64x4_epi64::<1>(m3),
            );
            let ev = _mm256_loadu_si256(pexps[t * 2 * PANEL..].as_ptr() as *const __m256i);
            let elo = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(ev, even));
            let ehi = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(ev, odd));
            let flo = scale4(dlo, _mm_add_epi32(_mm_set1_epi32(aexps[2 * t] + c), elo));
            let fhi = scale4(
                dhi,
                _mm_add_epi32(_mm_set1_epi32(aexps[2 * t + 1] + c), ehi),
            );
            f = _mm_add_ps(_mm_add_ps(f, flo), fhi);
        }
    }
    if blocks % 2 == 1 {
        let kb = blocks - 1;
        // SAFETY: the low-half masked loads access only their 16
        // masked-in lanes — the compact lone-block slots
        // `(blocks−1)·PANEL + 0..4` and A's block `kb`; the 4-lane
        // exponent load reads the same contiguous lone slots
        // (`kb·PANEL + 4 ≤ blocks·PANEL`); `hadd4`/`scale4` are
        // register-only and inherit F/BW.
        unsafe {
            let bptr = panel.as_ptr().add(kb * PANEL * K1);
            let va = _mm512_maskz_loadu_epi16(0xFFFF, acodes.as_ptr().add(kb * K1));
            let m0 = _mm512_madd_epi16(va, _mm512_maskz_loadu_epi16(0xFFFF, bptr));
            let m1 = _mm512_madd_epi16(va, _mm512_maskz_loadu_epi16(0xFFFF, bptr.add(K1)));
            let m2 = _mm512_madd_epi16(va, _mm512_maskz_loadu_epi16(0xFFFF, bptr.add(2 * K1)));
            let m3 = _mm512_madd_epi16(va, _mm512_maskz_loadu_epi16(0xFFFF, bptr.add(3 * K1)));
            // The masked-out high lanes are zero, so the low halves
            // alone carry the lone block's pair-sums.
            let d = hadd4(
                _mm512_castsi512_si256(m0),
                _mm512_castsi512_si256(m1),
                _mm512_castsi512_si256(m2),
                _mm512_castsi512_si256(m3),
            );
            let es = _mm_add_epi32(
                _mm_set1_epi32(aexps[kb] + c),
                _mm_loadu_si128(pexps[kb * PANEL..].as_ptr() as *const __m128i),
            );
            f = _mm_add_ps(f, scale4(d, es));
        }
    }
    // SAFETY: `j + PANEL ≤ n` bounds the 4-lane store, and `out_row` is
    // at least `j + PANEL` wide.
    unsafe { _mm_storeu_ps(out_row[j..].as_mut_ptr(), f) };
}

/// One `i16` block dot via a low-half masked load pair — 16 codes in the
/// masked-in lanes, `vpmaddwd`, horizontal reduce. The per-block
/// workhorse of [`col_one`]'s fallback arm (and the shape both panel
/// cores use for the lone-block tail).
///
/// # Safety
///
/// Requires AVX-512 F and BW; `a` and `b` must each hold at least
/// `K1 = 16` codes.
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn dot16(a: &[i16], b: &[i16]) -> i32 {
    // SAFETY: both low-half masked loads access only their 16 masked-in
    // lanes — exactly the `K1` codes each slice is required to hold.
    let m = unsafe {
        _mm512_madd_epi16(
            _mm512_maskz_loadu_epi16(0xFFFF, a.as_ptr()),
            _mm512_maskz_loadu_epi16(0xFFFF, b.as_ptr()),
        )
    };
    _mm512_reduce_add_epi32(m)
}

/// One output element of a chunk-paired panel (`width` columns, block-slot
/// base `pbase`, panel lane `lane`, output column `j`): deferred when its
/// column qualifies — a chunked 512-bit dot with one masked half-chunk
/// tail and a single scale-out — or the per-block scale-out chain
/// otherwise. Serves the ragged final panel (at most `PANEL − 1`
/// columns).
///
/// # Safety
///
/// Requires AVX-512 F and BW. `acodes` must hold `ap.blocks · K1` codes,
/// `row` must be a valid row of `ap` (its per-block exponents exist),
/// `lane < width`, `j` must be a valid B-plane column, and the panel's
/// block slots at `pbase` (chunk-paired at `width` — see
/// `pack::panel_slot`) must exist in `bp`.
#[target_feature(enable = "avx512f,avx512bw")]
#[allow(clippy::too_many_arguments)] // one output element's full addressing context
unsafe fn col_one(
    acodes: &[i16],
    ap: PlaneView<'_, i16>,
    row: usize,
    au: i32,
    bp: PlaneView<'_, i16>,
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
    // Chunk-paired slot of block `kb` for this lane (mirrors
    // `pack::panel_slot` at this panel's width).
    let slot = |kb: usize| {
        pbase
            + if kb == blocks - 1 && blocks % 2 == 1 {
                (blocks - 1) * width + lane
            } else {
                (kb / 2) * (width * 2) + lane * 2 + (kb & 1)
            }
    };
    if ctx.enabled
        && au != MIXED_EXP
        && bu != MIXED_EXP
        && (ctx.e_lo..=ctx.e_hi).contains(&(au + bu))
    {
        let mut acc = _mm512_setzero_si512();
        for t in 0..blocks / 2 {
            // SAFETY: each 32-lane load reads one chunk — A's chunk `t`
            // (within `blocks·K1` codes) and this lane's paired slots
            // `slot(2t)`/`slot(2t)+1` (contiguous by the pairing, in
            // bounds by this fn's preconditions).
            unsafe {
                let va = _mm512_loadu_epi16(acodes.as_ptr().add(t * CHUNK));
                let vb = _mm512_loadu_epi16(bp.codes.as_ptr().add(slot(2 * t) * K1));
                acc = _mm512_add_epi32(acc, _mm512_madd_epi16(va, vb));
            }
        }
        let mut total = i64::from(_mm512_reduce_add_epi32(acc));
        if blocks % 2 == 1 {
            let kb = blocks - 1;
            // SAFETY: both operand slices are exactly `K1` codes (the
            // lone-block slot is in bounds by this fn's preconditions)
            // and `dot16` inherits F/BW.
            let d = unsafe { dot16(&acodes[kb * K1..][..K1], &bp.codes[slot(kb) * K1..][..K1]) };
            total += i64::from(d);
        }
        *out = (total as f64 * pow2(au + bu + c)) as f32;
    } else {
        let aexps = &ap.exps[row * blocks..][..blocks];
        let mut acc = 0.0f32;
        for kb in 0..blocks {
            // SAFETY: both operand slices are exactly `K1` codes (every
            // block slot is in bounds by this fn's preconditions) and
            // `dot16` inherits F/BW.
            let d = unsafe { dot16(&acodes[kb * K1..][..K1], &bp.codes[slot(kb) * K1..][..K1]) };
            if d != 0 {
                acc += (d as f64 * pow2(aexps[kb] + bp.exps[slot(kb)] + c)) as f32;
            }
        }
        *out = acc;
    }
}

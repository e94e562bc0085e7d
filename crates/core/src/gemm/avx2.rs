//! The AVX2 backend: the AVX-512 body's shape at half the register width,
//! for the narrow code path with the preset block size `k1 = 16`. It reads
//! the one **column-in-lane** B plane every backend reads (see
//! [`super::pack::panel_slot`]): 16-column panels, a byte plane's codes as
//! biased K quads, an `i16` plane's as K pairs. A panel is two 8-lane
//! halves, one `ymm` of `i32` lanes each, one column per lane.
//!
//! The body, [`span`]:
//!
//! - **A pair feeds 8 columns.** Row `i`'s codes `a[2p], a[2p + 1]` are
//!   broadcast as one 32-bit value, and one `vpmaddwd` + `vpaddd` adds
//!   their dot with each column's two codes into every column's lane. On
//!   an `i16` plane a half's pair row is one 32-byte load.
//! - **Bytes are widened exactly, and the bias costs no instruction.** A
//!   half's quad row (32 biased bytes `b + 128`) is split per lane into its
//!   two pairs by two in-lane `vpshufb`s that zero-extend the bytes to
//!   16-bit words, once per load and shared by every row of the group;
//!   A's `i16` rows multiply them as on an `i16` plane, two `vpmaddwd` +
//!   `vpaddd` per quad (never `vpmaddubsw`, which saturates its 16-bit
//!   pair sums). The lanes so compute `Σ a·(b + 128)`, and each block's
//!   accumulator starts from the lowering's `−128·Σ a`
//!   ([`super::pack::ByteRows`] — the same `i16` rows and seeds the
//!   AVX-512 body's exact `vpdpbusd` spelling takes), which leaves
//!   `Σ a·b`.
//! - **The scale-out is a lane epilogue.** The reference chain
//!   `acc ← f32(acc + f32(dot · 2^(e_a + e_b + c)))` runs per block on 8
//!   columns at a time through `f64` ([`scale8`]): the conversion and the
//!   scale are exact, `vcvtpd2ps` rounds once.
//! - **Up to four rows share every B load**, so at serving batch sizes
//!   the plane streams, and its bytes are widened, once per four rows.
//! - **Deferral is a skip of that epilogue** for a (row, panel) whose
//!   exponent metadata proves the chain exact (see
//!   [`super::pair::FormatPair::defer`]): its lanes keep accumulating the
//!   integer dots of the whole reduction, seeded once with the row's total
//!   correction, and are scaled out once.
//! - **Ragged N is a partial store**: the padded lanes compute values no
//!   one reads, and only the real columns are stored. Ragged K needs
//!   nothing — the packer pads every block to `k1` codes.
//!
//! Every `i32` lane computes modulo 2³², and the block dot (or deferred
//! total) it ends on is below 2³¹ in magnitude, so every lane ends on the
//! scalar kernel's integer, and every rounding point is the reference
//! chain's: the backend is bit-identical to [`super::scalar`] — and to
//! `super::reference_gemm` — everywhere.

use super::pack::{ByteView, Lhs, Panel, PlaneView, MIXED_EXP};
use super::{DeferCtx, PANEL_COLS};
use crate::engine::AlignedCode;
use std::arch::x86_64::*;

/// The preset first-level block size this kernel is specialized for.
pub(super) const K1: usize = 16;

/// Columns per half panel: one per `i32` lane of a `ymm`.
const HALF: usize = 8;

/// Bytes of one group row — a quad row of bytes or a pair row of `i16`
/// codes over the panel's 16 lanes: two `ymm`s, one per half.
const ROW_BYTES: usize = 64;

/// Rows sharing each B load: their two accumulators each, one half's B
/// operands and the constants fill the 16 `ymm` registers.
const GROUP_ROWS: usize = 4;

/// Row-tile height: every panel is reused from L1 for this many output
/// rows. A 16-row tile's A codes (16 KB at `K = 512`) plus one panel
/// (8 KB of byte codes and 2 KB of exponents) fit L1d.
const TILE_ROWS: usize = 16;

/// The AVX2 span kernel for an `i16` plane
/// ([`super::backend::SpanKernel`] shape): the pair body.
pub(super) fn gemm_span(
    ap: PlaneView<'_, i16>,
    rows: usize,
    bp: PlaneView<'_, i16>,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    out: &mut [f32],
) {
    let lhs = Lhs::plain(ap);
    debug_assert!(ap.k1 == K1 && bp.k1 == K1);
    // SAFETY: the backend layer picks this kernel only in a call whose
    // selected backend was AVX2, selectable only once AVX2 was detected;
    // `ap` holds `rows` rows of `i16` codes and `bp` the plane of `n`
    // columns, both with `k1 = 16` and the same block count.
    unsafe { span(lhs, rows, bp, n, c, ctx, out) }
}

/// The AVX2 span kernel for a byte plane
/// ([`super::backend::ByteSpanKernel`] shape): the quad body, over the
/// `i16` rows and bias corrections the call lowered (`ap.digits == 0`).
pub(super) fn gemm_span_bytes(
    ap: ByteView<'_>,
    rows: usize,
    bp: PlaneView<'_, u8>,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    out: &mut [f32],
) {
    let lhs = Lhs::bytes(ap.halves, &ap);
    debug_assert!(ap.digits == 0 && bp.k1 == K1);
    // SAFETY: as `gemm_span`; the lowering wrote `rows` rows of `i16`
    // codes and their corrections.
    unsafe { span(lhs, rows, bp, n, c, ctx, out) }
}

/// The one kernel body: `rows × n` outputs, tile by tile, panel by panel,
/// [`GROUP_ROWS`] rows at a time ([`rows_panel`]).
///
/// # Safety
///
/// Requires AVX2. `lhs` must hold `rows` rows of `i16` codes (and their
/// corrections on a byte plane) and `bp` a plane of at least `n` columns,
/// both with `k1 = 16` and the same block count; `out` must hold
/// `rows × n`.
#[target_feature(enable = "avx2")]
unsafe fn span<B: AlignedCode>(
    lhs: Lhs<'_, i16>,
    rows: usize,
    bp: PlaneView<'_, B>,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    out: &mut [f32],
) {
    let mut i0 = 0;
    while i0 < rows {
        let tm = TILE_ROWS.min(rows - i0);
        for j in (0..n).step_by(PANEL_COLS) {
            let panel = bp.panel(j, n);
            let mut row = i0;
            while row < i0 + tm {
                let take = GROUP_ROWS.min(i0 + tm - row);
                let outs = &mut out[row * n..][..take * n];
                // SAFETY: AVX2 is enabled on this fn; `row + take ≤ rows`,
                // `outs` is `take` whole `n`-wide rows, and `panel` holds
                // the whole reduction of columns `j .. j + 16` (the padded
                // lanes included).
                unsafe {
                    match take {
                        4 => rows_panel::<B, 4>(lhs, row, &panel, n, c, ctx, outs),
                        3 => rows_panel::<B, 3>(lhs, row, &panel, n, c, ctx, outs),
                        2 => rows_panel::<B, 2>(lhs, row, &panel, n, c, ctx, outs),
                        _ => rows_panel::<B, 1>(lhs, row, &panel, n, c, ctx, outs),
                    }
                }
                row += take;
            }
        }
        i0 += tm;
    }
}

/// `R` rows against one panel: the block loop, the per-block lane
/// epilogue (skipped for rows whose scale-out defers), and one store of
/// the real columns per row.
///
/// # Safety
///
/// Must be inlined into a fn enabling AVX2. Rows `row .. row + R` must
/// exist in `lhs`, `panel` must hold `lhs.blocks` blocks of 16 lanes with
/// `k1 = 16`, and `outs` must be `R` whole `n`-wide rows with
/// `panel.j + panel.uexp.len() ≤ n`.
#[inline(always)]
unsafe fn rows_panel<B: AlignedCode, const R: usize>(
    lhs: Lhs<'_, i16>,
    row: usize,
    panel: &Panel<'_, B>,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    outs: &mut [f32],
) {
    let quad = size_of::<B>() == 1;
    let blocks = lhs.blocks;
    // Group rows per block: 4 quad rows or 8 pair rows.
    let group_rows = K1 * PANEL_COLS * size_of::<B>() / ROW_BYTES;
    let width = panel.uexp.len();
    let arows: [&[i16]; R] =
        std::array::from_fn(|r| &lhs.codes[(row + r) * blocks * K1..][..blocks * K1]);
    let aus: [i32; R] = std::array::from_fn(|r| lhs.uexp[row + r]);
    let defers: [bool; R] = std::array::from_fn(|r| {
        ctx.enabled
            && aus[r] != MIXED_EXP
            && panel
                .uexp
                .iter()
                .all(|&u| u != MIXED_EXP && (ctx.e_lo..=ctx.e_hi).contains(&(aus[r] + u)))
    });
    // A block's accumulators start from its correction (the bias's
    // `−128·Σ a`) on a byte plane, from zero on an `i16` one; a deferring
    // row starts once, from its whole row's correction.
    let seed = |r: usize, kb: usize| -> i32 {
        match (quad, defers[r]) {
            (false, _) => 0,
            (true, true) => lhs.corr_rows[row + r],
            (true, false) if kb < blocks => lhs.corr[(row + r) * blocks + kb],
            (true, false) => 0,
        }
    };
    // SAFETY: this fn's ISA precondition covers every intrinsic below. The
    // B loads read group row `x` of block `kb`, 64 bytes, inside the
    // panel's `blocks · K1 · 16` codes; each A read is two `i16` codes at
    // `kb · K1 + 4x` or `+ 4x + 2` (a quad's two pairs, `x < 4`) or at
    // `kb · K1 + 2x` (a pair, `x < 8`), inside the row's `blocks · K1`
    // codes; the exponent loads read block `kb`'s 16 lanes
    // inside the panel's `blocks · 16`; and each store writes only row
    // `r`'s real columns `panel.j .. panel.j + width ≤ n` of `outs`.
    unsafe {
        let mut dots: [[__m256i; 2]; R] =
            std::array::from_fn(|r| [_mm256_set1_epi32(seed(r, 0)); 2]);
        let mut accs = [[_mm256_setzero_ps(); 2]; R];
        let bbase = panel.codes.as_ptr().cast::<u8>();
        for kb in 0..blocks {
            for x in 0..group_rows {
                let bptr = bbase.add((kb * group_rows + x) * ROW_BYTES);
                // One half at a time, shared by every row of the group.
                for h in 0..2 {
                    let b = load_b(quad, bptr.add(h * ROW_BYTES / 2));
                    for (d, arow) in dots.iter_mut().zip(&arows) {
                        let pa = arow.as_ptr().add(kb * K1);
                        let read = |at: usize| {
                            _mm256_set1_epi32(pa.add(at).cast::<i32>().read_unaligned())
                        };
                        // Quad `x`: the pairs `(a[4x], a[4x + 1])` and
                        // `(a[4x + 2], a[4x + 3])`; pair `x`: `(a[2x], a[2x + 1])`.
                        d[h] = if quad {
                            let lo = _mm256_madd_epi16(b[0], read(4 * x));
                            let hi = _mm256_madd_epi16(b[1], read(4 * x + 2));
                            _mm256_add_epi32(_mm256_add_epi32(d[h], lo), hi)
                        } else {
                            _mm256_add_epi32(d[h], _mm256_madd_epi16(b[0], read(2 * x)))
                        };
                    }
                }
            }
            if defers.iter().all(|&d| d) {
                continue;
            }
            let eb = panel.exps.as_ptr().add(kb * PANEL_COLS);
            for r in 0..R {
                if !defers[r] {
                    let ea = _mm256_set1_epi32(lhs.exps[(row + r) * blocks + kb] + c);
                    for h in 0..2 {
                        let e = _mm256_add_epi32(ea, _mm256_loadu_si256(eb.add(h * HALF).cast()));
                        accs[r][h] = _mm256_add_ps(accs[r][h], scale8(dots[r][h], e));
                    }
                    dots[r] = [_mm256_set1_epi32(seed(r, kb + 1)); 2];
                }
            }
        }
        if defers.iter().any(|&d| d) {
            // The padded lanes' exponents read 0; they are never stored.
            let mut eu = [0i32; PANEL_COLS];
            eu[..width].copy_from_slice(panel.uexp);
            for r in 0..R {
                if defers[r] {
                    // A deferred total is at most 2²⁴: the `f64` route is
                    // exact up to its one rounding.
                    let ea = _mm256_set1_epi32(aus[r] + c);
                    for h in 0..2 {
                        let e = _mm256_add_epi32(
                            ea,
                            _mm256_loadu_si256(eu[h * HALF..].as_ptr().cast()),
                        );
                        accs[r][h] = _mm256_add_ps(accs[r][h], scale8(dots[r][h], e));
                    }
                }
            }
        }
        for (r, acc) in accs.iter().enumerate() {
            let dst = &mut outs[r * n + panel.j..][..width];
            if width == PANEL_COLS {
                _mm256_storeu_ps(dst.as_mut_ptr(), acc[0]);
                _mm256_storeu_ps(dst[HALF..].as_mut_ptr(), acc[1]);
            } else {
                let mut all = [0.0f32; PANEL_COLS];
                _mm256_storeu_ps(all.as_mut_ptr(), acc[0]);
                _mm256_storeu_ps(all[HALF..].as_mut_ptr(), acc[1]);
                dst.copy_from_slice(&all[..width]);
            }
        }
    }
}

/// One half group row of B — 32 bytes at `p` — as `vpmaddwd` operands:
/// the raw pairs of an `i16` plane (`[raw, raw]`), or a byte plane's
/// biased quads zero-extended to 16-bit words, each lane's quad split into
/// its two pairs: `[bytes 0 and 1 of each lane, bytes 2 and 3]` (one
/// in-lane `vpshufb` each). Each product is at most `255 · 2¹⁵` and each
/// pair sum exact in `i32`.
///
/// # Safety
///
/// Must be inlined into a fn enabling AVX2; `p` must point at 32 readable
/// bytes.
#[inline(always)]
unsafe fn load_b(quad: bool, p: *const u8) -> [__m256i; 2] {
    // SAFETY: one 32-byte load, readable by this fn's precondition; the
    // rest is register-only AVX2.
    unsafe {
        let raw = _mm256_loadu_si256(p.cast());
        if quad {
            // Byte `i` of each dword to a word, a set top bit (`-1`)
            // zeroing the high byte.
            let z = -1;
            let lo = _mm256_broadcastsi128_si256(_mm_setr_epi8(
                0, z, 1, z, 4, z, 5, z, 8, z, 9, z, 12, z, 13, z,
            ));
            let hi = _mm256_add_epi8(lo, _mm256_set1_epi16(2));
            [_mm256_shuffle_epi8(raw, lo), _mm256_shuffle_epi8(raw, hi)]
        } else {
            [raw, raw]
        }
    }
}

/// The reference chain's scaled dot on 8 columns: `f32(d · 2^e)` per lane,
/// rounded once (see [`scale4`]).
///
/// # Safety
///
/// Must be inlined into a fn enabling AVX2.
#[inline(always)]
unsafe fn scale8(d: __m256i, e: __m256i) -> __m256 {
    // SAFETY: register-only AVX2 intrinsics and `scale4`, under the
    // caller's AVX2.
    unsafe {
        let lo = scale4(_mm256_castsi256_si128(d), _mm256_castsi256_si128(e));
        let hi = scale4(
            _mm256_extracti128_si256::<1>(d),
            _mm256_extracti128_si256::<1>(e),
        );
        _mm256_set_m128(hi, lo)
    }
}

/// `dots[i] · 2^(es[i])` rounded to `f32` once, 4 lanes wide: the power of
/// two is built as an `f64` bit pattern (`(e + 1023) << 52` — exact; every
/// `e` the body passes is in normal-`f64` range, the deferred path's by the
/// grid window and the per-block path's by the format ulp floors), the
/// product is an exact `f64`, and `vcvtpd2ps` performs the one rounding.
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

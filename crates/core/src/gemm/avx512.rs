//! The AVX-512 backend: one 512-bit span kernel for the narrow code path
//! with the preset block size `k1 = 16`, consuming the **column-in-lane**
//! B plane every backend reads — the VNNI GEMM layout. Columns are grouped
//! into 16-wide panels ([`super::PANEL_COLS`], the last one zero-padded), and a
//! panel stores the 16 columns' codes of a few consecutive K side by side
//! (see [`super::pack::panel_slot`]):
//!
//! - a **byte plane** (every weight format whose aligned codes fit a
//!   byte: MX6, MX4, MSFP12, MSFP16) holds K **quads**,
//!   `[block][quad][lane][4]`, each code stored biased as the unsigned
//!   byte `b + 128`: one quad row is 64 bytes, one `zmm`, and one
//!   `vpdpbusd` multiplies it by a broadcast A quad — four MACs per lane;
//! - an **`i16` plane** (MX9 weights) holds K **pairs**,
//!   `[block][pair][lane][2]`: one pair row is 32 codes, one `zmm`, and
//!   one `vpdpwssd` multiplies it by a broadcast A pair.
//!
//! A panel's codes stream strictly sequentially in K order either way.
//!
//! The body, [`span`]:
//!
//! - **A quad (or pair) feeds 16 columns.** Row `i`'s four codes
//!   `a[4q ..= 4q + 3]` (two codes `a[2p], a[2p + 1]` on an `i16` plane)
//!   are broadcast as one 32-bit value, and one `vpdpbusd` (`vpdpwssd`)
//!   adds their dot with the column's four (two) codes into every
//!   column's `i32` lane. After `k1 / 4` (`k1 / 2`) steps each lane holds
//!   one column's block dot — no horizontal reduce.
//! - **The bias costs no instruction.** A byte plane's lanes compute
//!   `Σ a·(b + 128) = Σ a·b + 128·Σ a`, so the activation lowering records
//!   each (row, block)'s correction `−128·Σ a`
//!   ([`super::pack::ByteRows`]) and the body **seeds** that block's
//!   accumulator with it where it would otherwise start from zero.
//!   Activations whose codes do not fit a signed byte (MX9 against an MX6
//!   plane) arrive as signed byte **digits**, `a = Σₜ 256ᵗ·dₜ`, each digit
//!   row multiplied by the same B quad into accumulators of its own, which
//!   the epilogue shifts into place; the correction is still `−128·Σ a`.
//!   So one byte plane serves every narrow partner.
//! - **The scale-out is a lane epilogue.** The reference chain
//!   `acc ← f32(acc + f32(dot · 2^(e_a + e_b + c)))` runs per block on all
//!   16 columns at once ([`scale_out`]): convert, exact power-of-two scale,
//!   add, in K order — the chain itself, one column per lane.
//! - **Up to four rows share every B load**, so at serving batch sizes
//!   the plane streams once per four rows.
//! - **Deferral is a skip of that epilogue** for a (row, panel) whose
//!   exponent metadata proves the chain exact (see
//!   [`super::pair::FormatPair::defer`]): its lanes keep accumulating the
//!   integer dots of the whole reduction, seeded once with the row's total
//!   correction, and are scaled out once.
//! - **Ragged N is a masked store**: the padded lanes compute values no
//!   one reads. Ragged K needs nothing — the packer pads every block to
//!   `k1` codes (the biased zero, 128, on a byte plane).
//!
//! VNNI and its fallback are the same [`span`] body, instantiated under
//! two `#[target_feature]` entry points ([`mac`] is the one place they
//! differ). `vpdpwssd` is lane-for-lane `vpmaddwd` + `vpaddd` (the
//! narrow-pair gate `w_a + w_b ≤ 30` keeps each pair-sum exact in `i32`);
//! `vpdpbusd` is spelled exactly by zero-extending each lane's biased byte
//! quad into two 16-bit pairs (one in-lane `vpshufb` each, once per load)
//! against A's codes as sign-extended `i16` pairs — the lowering writes
//! `i16` rows for this body, so no activation needs a digit split — and
//! two `vpmaddwd` + two `vpaddd` (never the saturating `vpmaddubsw`). The
//! seeds are the same `−128·Σ a`. Every `i32` lane computes modulo 2³², and
//! the final block dot (or deferred total) is below 2³¹ in magnitude, so
//! intermediate wrap-around never reaches a result: both produce the same
//! bits — as does every other backend, and `super::reference_gemm`.

use super::pack::{ByteView, Lhs, Panel, PlaneView, MIXED_EXP};
use super::DeferCtx;
use std::arch::x86_64::*;

/// The preset first-level block size this kernel is specialized for.
pub(super) const K1: usize = 16;

/// Columns per panel: one per `i32` lane of a `zmm`.
const LANES: usize = super::PANEL_COLS;

/// Bytes of one group row — a quad row of bytes or a pair row of `i16`
/// codes: one `zmm`.
const ROW_BYTES: usize = 64;

/// Rows sharing each B load.
const GROUP_ROWS: usize = 4;

/// Row-tile height: every panel is reused from L1 for this many output
/// rows. A 16-row tile's A codes (16 KB at `K = 512`) plus one panel
/// (8 KB of byte codes and 2 KB of exponents) fit L1d.
const TILE_ROWS: usize = 16;

/// The AVX-512 span kernel for an `i16` plane
/// ([`super::backend::SpanKernel`] shape): the pair body, with
/// `vpdpwssd` or, `VNNI` false, its exact spelling.
pub(super) fn gemm_span<const VNNI: bool>(
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
    // The two instantiations are bit-identical, so the choice (like the
    // backend itself) is a pure performance knob.
    if VNNI {
        // SAFETY: the backend layer picks this kernel only in a call whose
        // selected backend was AVX-512 — selectable only once AVX-512 F/BW
        // were detected — and its `VNNI` instance only where
        // `vnni_enabled` additionally detected AVX-512-VNNI; `ap` holds
        // `rows` rows of `i16` codes.
        unsafe { span_vnni::<i16, i16, 1>(lhs, rows, bp, n, c, ctx, out) }
    } else {
        // SAFETY: F/BW support was detected before AVX-512 could be
        // selected; operands as above.
        unsafe { span_bw::<i16, i16, 1>(lhs, rows, bp, n, c, ctx, out) }
    }
}

/// The AVX-512 span kernel for a byte plane
/// ([`super::backend::ByteSpanKernel`] shape): the quad body, over one,
/// two or three signed digit rows per activation row with VNNI, or over
/// `i16` rows (`ap.digits == 0`: the lowering chose them because VNNI was
/// off) with the exact fallback.
pub(super) fn gemm_span_bytes(
    ap: ByteView<'_>,
    rows: usize,
    bp: PlaneView<'_, u8>,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    out: &mut [f32],
) {
    debug_assert!(bp.k1 == K1);
    let bytes = Lhs::bytes(ap.codes, &ap);
    // SAFETY: the backend layer picks this kernel only in a call whose
    // selected backend was AVX-512, selectable only once AVX-512 F/BW were
    // detected; that call's lowering wrote byte digits only where its one
    // read of `vnni_enabled` — hence AVX-512-VNNI — held, and `i16` rows
    // otherwise; `ap` holds `rows` rows of that form.
    unsafe {
        match ap.digits {
            0 => span_bw::<i16, u8, 1>(Lhs::bytes(ap.halves, &ap), rows, bp, n, c, ctx, out),
            1 => span_vnni::<i8, u8, 1>(bytes, rows, bp, n, c, ctx, out),
            2 => span_vnni::<i8, u8, 2>(bytes, rows, bp, n, c, ctx, out),
            _ => span_vnni::<i8, u8, 3>(bytes, rows, bp, n, c, ctx, out),
        }
    }
}

/// Appends `−128·Σ a` of every 16-code block of the byte rows `codes` to
/// `corr` — the seeds [`gemm_span_bytes`] starts each block from. Four
/// blocks per `vpsadbw` (on `a ^ 0x80 = a + 128`, so each block's sum
/// reads `Σ a + 2048`); the last few blocks, and every block on a CPU
/// without AVX-512 BW, take `scalar`.
pub(super) fn byte_corrections(codes: &[i8], corr: &mut Vec<i32>, scalar: fn(&[i8]) -> i32) {
    let quads = codes.chunks_exact(4 * K1);
    let rest = quads.remainder();
    if super::backend::avx512_available() {
        for quad in quads {
            // SAFETY: AVX-512 F/BW were just detected, and `quad` is the
            // 64 bytes `corrections4` reads.
            corr.extend(unsafe { corrections4(quad) });
        }
    } else {
        corr.extend(quads.flat_map(|q| q.chunks_exact(K1)).map(scalar));
    }
    corr.extend(rest.chunks_exact(K1).map(scalar));
}

/// `−128·Σ a` of the four 16-byte blocks at `quad`.
///
/// # Safety
///
/// Requires AVX-512 F and BW; `quad` must hold 64 bytes.
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn corrections4(quad: &[i8]) -> [i32; 4] {
    let mut sums = [0i64; 8];
    // SAFETY: one 64-byte load inside `quad` and one 64-byte store into
    // `sums`; the rest is register-only AVX-512 F/BW.
    unsafe {
        let x = _mm512_loadu_si512(quad.as_ptr().cast());
        let biased = _mm512_xor_si512(x, _mm512_set1_epi8(i8::MIN));
        let halves = _mm512_sad_epu8(biased, _mm512_setzero_si512());
        let blocks = _mm512_add_epi64(halves, _mm512_bsrli_epi128::<8>(halves));
        _mm512_storeu_si512(sums.as_mut_ptr().cast(), blocks);
    }
    // Block `b`'s sum sits in `sums[2b]`, at most 16 · 255.
    std::array::from_fn(|b| (2048 - sums[2 * b] as i32) * 128)
}

/// [`span`] compiled with `vpdpbusd` / `vpdpwssd`.
///
/// # Safety
///
/// Requires AVX-512 F, BW and VNNI; operand preconditions as [`span`].
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
unsafe fn span_vnni<A, B, const DIGITS: usize>(
    lhs: Lhs<'_, A>,
    rows: usize,
    bp: PlaneView<'_, B>,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    out: &mut [f32],
) {
    // SAFETY: this fn's preconditions are `span`'s, VNNI included.
    unsafe { span::<A, B, DIGITS, true>(lhs, rows, bp, n, c, ctx, out) }
}

/// [`span`] compiled with the exact `vpmaddwd` + `vpaddd` spellings, for
/// CPUs (or forced runs) without AVX-512-VNNI.
///
/// # Safety
///
/// Requires AVX-512 F and BW; operand preconditions as [`span`].
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn span_bw<A, B, const DIGITS: usize>(
    lhs: Lhs<'_, A>,
    rows: usize,
    bp: PlaneView<'_, B>,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    out: &mut [f32],
) {
    // SAFETY: this fn's preconditions are `span`'s with `VNNI = false`.
    unsafe { span::<A, B, DIGITS, false>(lhs, rows, bp, n, c, ctx, out) }
}

/// The one kernel body: `rows × n` outputs, tile by tile, panel by panel,
/// [`GROUP_ROWS`] rows at a time ([`rows_panel`]). A one-byte `B` is a
/// biased byte plane (the quad body, `A` signed bytes in `DIGITS` digit
/// rows); a two-byte `B` is an `i16` plane (the pair body, `A` = `i16`,
/// `DIGITS = 1`).
///
/// # Safety
///
/// Must be inlined into a fn enabling AVX-512 F and BW (and VNNI when
/// `VNNI = true`). `lhs` must hold `rows` rows of that layout (and their
/// corrections on a byte plane) and `bp` a column-in-lane plane of at
/// least `n` columns, both with `k1 = 16` and the same block count; `out`
/// must hold `rows × n`.
#[inline(always)]
unsafe fn span<A, B, const DIGITS: usize, const VNNI: bool>(
    lhs: Lhs<'_, A>,
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
        for j in (0..n).step_by(LANES) {
            let panel = bp.panel(j, n);
            let mut row = i0;
            while row < i0 + tm {
                let take = GROUP_ROWS.min(i0 + tm - row);
                let outs = &mut out[row * n..][..take * n];
                // SAFETY: this fn's ISA and operand preconditions carry
                // over; `row + take ≤ rows`, `outs` is `take` whole
                // `n`-wide rows, and `panel` holds the whole reduction of
                // columns `j .. j + LANES` (the padded lanes included).
                unsafe {
                    match take {
                        4 => rows_panel::<A, B, 4, DIGITS, VNNI>(lhs, row, &panel, n, c, ctx, outs),
                        3 => rows_panel::<A, B, 3, DIGITS, VNNI>(lhs, row, &panel, n, c, ctx, outs),
                        2 => rows_panel::<A, B, 2, DIGITS, VNNI>(lhs, row, &panel, n, c, ctx, outs),
                        _ => rows_panel::<A, B, 1, DIGITS, VNNI>(lhs, row, &panel, n, c, ctx, outs),
                    }
                }
                row += take;
            }
        }
        i0 += tm;
    }
}

/// `R` rows against one panel: the block loop, the per-block lane
/// epilogue (skipped for rows whose scale-out defers), and one masked
/// store per row.
///
/// Each row keeps four accumulators, split evenly among its `DIGITS`
/// digit rows (`4 / DIGITS` each; the fourth is idle at three digits):
/// the MACs of group row `x` of digit `t` go to accumulator
/// `t · (4 / DIGITS) + x mod (4 / DIGITS)`, and [`lane_sum`] weighs digit
/// `t`'s by `256ᵗ`.
///
/// # Safety
///
/// Must be inlined into a fn enabling AVX-512 F and BW (and VNNI when
/// `VNNI = true`). Rows `row .. row + R` must exist in `lhs`, `panel` must
/// hold `lhs.blocks` blocks of 16 lanes, and `outs` must be `R` whole
/// `n`-wide rows with `panel.j + panel.uexp.len() ≤ n`.
#[inline(always)]
unsafe fn rows_panel<A, B, const R: usize, const DIGITS: usize, const VNNI: bool>(
    lhs: Lhs<'_, A>,
    row: usize,
    panel: &Panel<'_, B>,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    outs: &mut [f32],
) {
    let quad = size_of::<B>() == 1;
    let blocks = lhs.blocks;
    // Group rows per block and the A bytes one block of one row spans.
    let group_rows = K1 * LANES * size_of::<B>() / ROW_BYTES;
    let a_block = DIGITS * K1 * size_of::<A>();
    let per = GROUP_ROWS / DIGITS;
    let arows: [*const u8; R] = std::array::from_fn(|r| {
        lhs.codes[(row + r) * blocks * DIGITS * K1..][..blocks * DIGITS * K1]
            .as_ptr()
            .cast()
    });
    let aus: [i32; R] = std::array::from_fn(|r| lhs.uexp[row + r]);
    let mut defers = [false; R];
    for (defer, &au) in defers.iter_mut().zip(&aus) {
        *defer = ctx.enabled
            && au != MIXED_EXP
            && panel
                .uexp
                .iter()
                .all(|&u| u != MIXED_EXP && (ctx.e_lo..=ctx.e_hi).contains(&(au + u)));
    }
    // A block's first accumulator starts from its correction (the bias's
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
    let mask: __mmask16 = u16::MAX >> (LANES - panel.uexp.len());
    // SAFETY: this fn's ISA preconditions cover every intrinsic below. The
    // B loads read group rows `4q .. 4q + 4` of block `kb`, 64 bytes each,
    // inside the panel's `blocks · K1 · LANES` codes; each A read is four
    // bytes at `kb · a_block + t · K1 · size_of::<A>() + o`, inside the
    // row's `blocks · a_block` bytes, since `o + 4 ≤ K1 · size_of::<A>()`:
    // `o = 4·(4q + x)` with `4q + x` below `group_rows` (4 on a byte plane
    // with byte digits, 8 on an `i16` plane), or `o ∈ {8x, 8x + 4}`,
    // `x < 4`, on a byte plane with `i16` rows (32 bytes per block); the
    // exponent load reads block `kb`'s 16 lanes inside the panel's
    // `blocks · LANES`; the masked load reads only the real columns'
    // `panel.uexp.len()` uniform exponents; and each masked store writes
    // only row `r`'s real columns `panel.j .. panel.j + panel.uexp.len()
    // ≤ n` of `outs`.
    unsafe {
        let zero = _mm512_setzero_si512();
        let mut dots: [[__m512i; GROUP_ROWS]; R] =
            std::array::from_fn(|r| [_mm512_set1_epi32(seed(r, 0)), zero, zero, zero]);
        let mut accs = [_mm512_setzero_ps(); R];
        let bbase = panel.codes.as_ptr().cast::<u8>();
        for kb in 0..blocks {
            // Four group rows per step, shared by every row and digit.
            for q in 0..group_rows / GROUP_ROWS {
                let bptr = bbase.add((kb * group_rows + GROUP_ROWS * q) * ROW_BYTES);
                let b: [[__m512i; 2]; GROUP_ROWS] =
                    std::array::from_fn(|x| load_b::<VNNI>(quad, bptr.add(x * ROW_BYTES)));
                for (d, &arow) in dots.iter_mut().zip(&arows) {
                    for t in 0..DIGITS {
                        let pa = arow.add(kb * a_block + t * K1 * size_of::<A>());
                        for (x, &bx) in b.iter().enumerate() {
                            let read = |at: usize| {
                                _mm512_set1_epi32(pa.add(at).cast::<i32>().read_unaligned())
                            };
                            let ax = if quad && !VNNI {
                                // Quad `x` of `i16` codes: the pairs
                                // `(a[4x], a[4x + 1])`, `(a[4x + 2], a[4x + 3])`.
                                [read(8 * x), read(8 * x + 4)]
                            } else {
                                [read(4 * (GROUP_ROWS * q + x)); 2]
                            };
                            let slot = t * per + x % per;
                            d[slot] = mac::<VNNI>(quad, d[slot], ax, bx);
                        }
                    }
                }
            }
            if defers.iter().all(|&d| d) {
                continue;
            }
            let eb = _mm512_loadu_si512(panel.exps.as_ptr().add(kb * LANES).cast());
            for r in 0..R {
                if !defers[r] {
                    let d = lane_sum::<DIGITS>(dots[r]);
                    let ea = lhs.exps[(row + r) * blocks + kb];
                    accs[r] = scale_out(accs[r], d, ea + c, eb, ctx.exact_f32_dots);
                    dots[r] = [_mm512_set1_epi32(seed(r, kb + 1)), zero, zero, zero];
                }
            }
        }
        if defers.iter().any(|&d| d) {
            let eu = _mm512_maskz_loadu_epi32(mask, panel.uexp.as_ptr());
            for r in 0..R {
                if defers[r] {
                    // A deferred total is at most 2²⁴: exact in `f32`.
                    let d = lane_sum::<DIGITS>(dots[r]);
                    accs[r] = scale_out(accs[r], d, aus[r] + c, eu, true);
                }
            }
        }
        for (r, &acc) in accs.iter().enumerate() {
            _mm512_mask_storeu_ps(outs[r * n + panel.j..].as_mut_ptr(), mask, acc);
        }
    }
}

/// The four accumulators of one row folded lane by lane: digit `t`'s
/// `4 / DIGITS` accumulators summed and shifted left by `8t`, the digits
/// added — each lane's block dot (or, deferred, its running total), exact
/// modulo 2³² and so exact outright, the result being below 2³¹.
///
/// # Safety
///
/// Must be inlined into a fn enabling AVX-512 F.
#[inline(always)]
unsafe fn lane_sum<const DIGITS: usize>(d: [__m512i; GROUP_ROWS]) -> __m512i {
    // SAFETY: register-only AVX-512 F intrinsics, enabled by the caller.
    unsafe {
        match DIGITS {
            1 => _mm512_add_epi32(_mm512_add_epi32(d[0], d[1]), _mm512_add_epi32(d[2], d[3])),
            2 => _mm512_add_epi32(
                _mm512_add_epi32(d[0], d[1]),
                _mm512_slli_epi32::<8>(_mm512_add_epi32(d[2], d[3])),
            ),
            _ => _mm512_add_epi32(
                _mm512_add_epi32(d[0], _mm512_slli_epi32::<8>(d[1])),
                _mm512_slli_epi32::<16>(d[2]),
            ),
        }
    }
}

/// One group row of B — 64 bytes at `p` — as [`mac`] takes it: the raw
/// `zmm` (`[raw, raw]`), except for a byte plane without VNNI, whose
/// biased bytes are zero-extended to 16-bit words here, once per load,
/// each lane's quad split into its two pairs: `[bytes 0 and 1 of each
/// lane, bytes 2 and 3]` (one in-lane `vpshufb` each).
///
/// # Safety
///
/// Must be inlined into a fn enabling AVX-512 F and BW; `p` must point at
/// 64 readable bytes.
#[inline(always)]
unsafe fn load_b<const VNNI: bool>(quad: bool, p: *const u8) -> [__m512i; 2] {
    // SAFETY: one 64-byte load, readable by this fn's precondition; the
    // rest is register-only AVX-512 F/BW.
    unsafe {
        let raw = _mm512_loadu_si512(p.cast());
        if quad && !VNNI {
            // Byte `i` of each dword to a word, a set top bit (`-1`)
            // zeroing the high byte.
            let z = -1;
            let lo = _mm512_broadcast_i32x4(_mm_setr_epi8(
                0, z, 1, z, 4, z, 5, z, 8, z, 9, z, 12, z, 13, z,
            ));
            let hi = _mm512_add_epi8(lo, _mm512_set1_epi16(2));
            [_mm512_shuffle_epi8(raw, lo), _mm512_shuffle_epi8(raw, hi)]
        } else {
            [raw, raw]
        }
    }
}

/// One multiply-accumulate step into every `i32` lane, `a` being the
/// broadcast A group as [`mac`]'s caller read it:
///
/// - byte plane: `acc + Σ_{j<4} u8(b[4l + j]) · a[j]` — `vpdpbusd` on the
///   broadcast signed byte quad (`a[0]`), or exactly: the quad's two
///   pairs as sign-extended `i16` codes (`a[0]`, `a[1]`) against
///   [`load_b`]'s zero-extended pairs, two `vpmaddwd` (each product at
///   most `255 · 2¹⁵`, each pair sum exact in `i32`) and two `vpaddd`;
/// - `i16` plane: `acc + a[0]·b[2l] + a[1]·b[2l + 1]` on the broadcast
///   pair — `vpdpwssd`, or `vpmaddwd` + `vpaddd`.
///
/// # Safety
///
/// Must be inlined into a fn enabling AVX-512 F and BW, and VNNI when
/// `VNNI = true`.
#[inline(always)]
unsafe fn mac<const VNNI: bool>(
    quad: bool,
    acc: __m512i,
    a: [__m512i; 2],
    b: [__m512i; 2],
) -> __m512i {
    // SAFETY: register-only intrinsics of the ISA this fn's caller enables.
    unsafe {
        match (quad, VNNI) {
            (true, true) => _mm512_dpbusd_epi32(acc, b[0], a[0]),
            (true, false) => {
                let acc = _mm512_add_epi32(acc, _mm512_madd_epi16(b[0], a[0]));
                _mm512_add_epi32(acc, _mm512_madd_epi16(b[1], a[1]))
            }
            (false, true) => _mm512_dpwssd_epi32(acc, a[0], b[0]),
            (false, false) => _mm512_add_epi32(acc, _mm512_madd_epi16(a[0], b[0])),
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

//! The one vector span kernel, for the narrow code path with the preset
//! block size `k1 = 16`, written once over [`Lanes`]: sixteen `i32` lanes
//! on some ISA — one `zmm` ([`super::avx512`]), or two `ymm` halves
//! ([`super::avx2`]). It reads the one **column-in-lane** B plane every
//! backend reads: columns are grouped into 16-wide panels
//! ([`super::PANEL_COLS`], the last one zero-padded), and a panel stores
//! the 16 columns' codes of a few consecutive K side by side (see
//! [`super::pack::panel_slot`]):
//!
//! - a **byte plane** (every weight format whose aligned codes fit a
//!   byte: MX6, MX4, MSFP12, MSFP16) holds K **quads**,
//!   `[block][quad][lane][4]`, each code stored biased as the unsigned
//!   byte `b + 128`: one quad row is 64 bytes, and one `vpdpbusd` (or its
//!   exact spelling) multiplies it by a broadcast A quad — four MACs per
//!   lane;
//! - an **`i16` plane** (MX9 weights) holds K **pairs**,
//!   `[block][pair][lane][2]`: one pair row is 32 codes, 64 bytes, and one
//!   `vpdpwssd` (or `vpmaddwd` + `vpaddd`) multiplies it by a broadcast A
//!   pair.
//!
//! A panel's codes stream strictly sequentially in K order either way.
//!
//! The body, [`span`]:
//!
//! - **A quad (or pair) feeds 16 columns.** Row `i`'s four codes
//!   `a[4q ..= 4q + 3]` (two codes `a[2p], a[2p + 1]` on an `i16` plane)
//!   are broadcast, and one [`Lanes::mac`] adds their dot with the
//!   column's four (two) codes into every column's `i32` lane. After
//!   `k1 / 4` (`k1 / 2`) steps each lane holds one column's block dot — no
//!   horizontal reduce.
//! - **The bias costs no instruction.** A byte plane's lanes compute
//!   `Σ a·(b + 128) = Σ a·b + 128·Σ a`, so the activation lowering records
//!   each (row, block)'s correction `−128·Σ a`
//!   ([`super::pack::ByteRows`]) and the body **seeds** that block's
//!   accumulator with it where it would otherwise start from zero. Where
//!   byte planes multiply at byte width ([`Lanes::BYTE_DOTS`]), activations
//!   whose codes do not fit a signed byte (MX9 against an MX6 plane) arrive
//!   as signed byte **digits**, `a = Σₜ 256ᵗ·dₜ`, each digit row multiplied
//!   by the same B quad into accumulators of its own, which
//!   [`Lanes::lane_sum`] shifts into place; the correction is still
//!   `−128·Σ a`. Elsewhere the activations arrive as `i16` rows against the
//!   bytes zero-extended to 16-bit pairs. So one byte plane serves every
//!   narrow partner.
//! - **The scale-out is a lane epilogue.** The reference chain
//!   `acc ← f32(acc + f32(dot · 2^(e_a + e_b + c)))` runs per block on all
//!   16 columns at once ([`Lanes::scale_out`]): convert, exact power-of-two
//!   scale, add, in K order — the chain itself, one column per lane.
//! - **Up to four rows share every B load** ([`GROUP_ROWS`]), so at
//!   serving batch sizes the plane streams, and its bytes are widened,
//!   once per four rows. How many group rows a step loads and how many
//!   accumulators a row keeps is the ISA's register blocking
//!   ([`Lanes::GROUP`], [`Lanes::ACCS`]).
//! - **Deferral is a skip of that epilogue** for a (row, panel) whose
//!   exponent metadata proves the chain exact (see
//!   [`super::pair::FormatPair::defer`]): its lanes keep accumulating the
//!   integer dots of the whole reduction, seeded once with the row's total
//!   correction, and are scaled out once.
//! - **Ragged N is a masked store**: the padded lanes compute values no
//!   one reads. Ragged K needs nothing — the packer pads every block to
//!   `k1` codes (the biased zero, 128, on a byte plane).
//!
//! Every `i32` lane computes modulo 2³², and the final block dot (or
//! deferred total) is below 2³¹ in magnitude, so intermediate wrap-around
//! never reaches a result, and every rounding point is the reference
//! chain's: each instance of the body is bit-identical to every other, to
//! [`super::scalar`] and to `super::reference_gemm`.

use super::backend::KernelBackend;
use super::pack::{ByteView, Lhs, Panel, PlaneView, MIXED_EXP};
use super::{avx2, avx512, DeferCtx, PANEL_COLS};
use crate::engine::lane_k;

/// The preset first-level block size the body is specialized for.
pub(super) const K1: usize = 16;

/// Bytes of one group row — a quad row of bytes or a pair row of `i16`
/// codes over a panel's 16 lanes.
pub(super) const ROW_BYTES: usize = 64;

/// Rows sharing each B load.
const GROUP_ROWS: usize = 4;

/// Row-tile height: every panel is reused from L1 for this many output
/// rows. A 16-row tile's A codes (16 KB at `K = 512`) plus one panel
/// (8 KB of byte codes and 2 KB of exponents) fit L1d.
const TILE_ROWS: usize = 16;

/// The most group rows per step and accumulators per row any [`Lanes`]
/// asks for.
pub(super) const MAX_BLOCKING: usize = 4;

/// Sixteen `i32` and `f32` lanes on one ISA, one panel column each, and
/// the primitives [`span`] is written in. An impl owns only the ISA: its
/// register blocking and how it loads, multiplies, folds, scales and
/// stores.
///
/// Every method is `unsafe` for the same reason: it must be inlined into a
/// fn enabling the impl's ISA. For the same reason neither the body nor an
/// impl calls an intrinsic from a closure: a closure handed to
/// `std::array::from_fn` or `map` is not inlined into the entry point, so
/// it compiles without the ISA and each lane op becomes a call.
pub(super) trait Lanes {
    /// Sixteen `i32` lanes.
    type Ints: Copy;
    /// Sixteen `f32` lanes.
    type Floats: Copy;
    /// One group row of B as [`Lanes::mac`] takes it.
    type Row: Copy;
    /// Group rows loaded per step, shared by every row of the group (at
    /// most [`MAX_BLOCKING`]).
    const GROUP: usize;
    /// Accumulators per row, split evenly among its digit rows (at most
    /// [`MAX_BLOCKING`]): the MACs of the step's group row `x` of digit `t`
    /// go to accumulator `t · (ACCS / DIGITS) + x mod (ACCS / DIGITS)`.
    const ACCS: usize;
    /// Byte planes multiply signed byte digit rows at byte width
    /// (`vpdpbusd`); otherwise `i16` rows, against the bytes zero-extended
    /// to 16-bit pairs.
    const BYTE_DOTS: bool;

    /// `x` in every lane.
    ///
    /// # Safety
    ///
    /// Must be inlined into a fn enabling the impl's ISA.
    unsafe fn splat(x: i32) -> Self::Ints;

    /// `+0.0` in every lane.
    ///
    /// # Safety
    ///
    /// As [`Lanes::splat`].
    unsafe fn zero() -> Self::Floats;

    /// The group row of `B` codes at `p`: raw, or, for a byte plane
    /// without [`Lanes::BYTE_DOTS`], each lane's biased quad zero-extended
    /// into its two 16-bit pairs.
    ///
    /// # Safety
    ///
    /// As [`Lanes::splat`]; `p` must point at [`ROW_BYTES`] readable bytes.
    unsafe fn load<B>(p: *const u8) -> Self::Row;

    /// `acc` plus, per lane, the dot of the A group at `a` with the lane's
    /// codes of group row `b`. The A group is the row's codes at the group
    /// row's K: four signed byte digits (a byte plane with
    /// [`Lanes::BYTE_DOTS`]), four `i16` codes (a byte plane without) or
    /// two `i16` codes (an `i16` plane).
    ///
    /// # Safety
    ///
    /// As [`Lanes::splat`]; `a` must point at that many readable bytes.
    unsafe fn mac<B>(acc: Self::Ints, a: *const u8, b: Self::Row) -> Self::Ints;

    /// One row's first [`Lanes::ACCS`] accumulators folded lane by lane:
    /// digit `t`'s summed and shifted left by `8t`, the digits added —
    /// each lane's block dot (or, deferred, its running total), exact
    /// modulo 2³² and so exact outright, the result being below 2³¹.
    ///
    /// # Safety
    ///
    /// As [`Lanes::splat`].
    unsafe fn lane_sum<const DIGITS: usize>(d: [Self::Ints; MAX_BLOCKING]) -> Self::Ints;

    /// The reference chain's step: `acc + f32(d · 2^(ea + eb))` per lane,
    /// `eb` being the 16 lanes' exponents at `eb`, with one rounding for
    /// the scaled dot. `exact` says every `d` is at most 2²⁴ in magnitude,
    /// so it converts to `f32` exactly; the `f64` route is exact either
    /// way. A zero dot adds `+0.0`, which leaves the accumulator unchanged:
    /// it starts at `+0.0` and a round-to-nearest sum is `-0.0` only when
    /// both addends are.
    ///
    /// # Safety
    ///
    /// As [`Lanes::splat`]; `eb` must point at 16 readable `i32`s.
    unsafe fn scale_out(
        acc: Self::Floats,
        d: Self::Ints,
        ea: i32,
        eb: *const i32,
        exact: bool,
    ) -> Self::Floats;

    /// Stores the lanes set in `mask` — a run of low bits, the panel's
    /// real columns — to `dst[lane]`; masked-out lanes are not accessed.
    ///
    /// # Safety
    ///
    /// As [`Lanes::splat`]; `dst[lane]` must be writable for every lane
    /// set in `mask`.
    unsafe fn store(dst: *mut f32, acc: Self::Floats, mask: u16);
}

/// The vector body of `body` (AVX2 or AVX-512, as [`super::backend::span_backend`]
/// picked it) over an `i16` plane: `vpdpwssd` when the call read `vnni`,
/// else `vpmaddwd` + `vpaddd`.
#[allow(clippy::too_many_arguments)] // the span kernel's operands + the call's two ISA reads
pub(super) fn pairs(
    body: KernelBackend,
    vnni: bool,
    ap: PlaneView<'_, i16>,
    rows: usize,
    bp: PlaneView<'_, i16>,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    out: &mut [f32],
) {
    debug_assert!(body != KernelBackend::Scalar && ap.k1 == K1 && bp.k1 == K1);
    let lhs = Lhs::plain(ap);
    // SAFETY: `body` is a backend the call's selection returned, and
    // `clamp_available` returns AVX-512 only once AVX-512 F/BW were
    // detected and AVX2 only once AVX2 was; `vnni` holds only where
    // `vnni_enabled` additionally detected AVX-512-VNNI. `ap` holds `rows`
    // rows of `i16` codes and `bp` the plane of `n` columns, both with
    // `k1 = 16` and the same block count.
    unsafe {
        match (body, vnni) {
            (KernelBackend::Avx512, true) => {
                avx512::span_vnni::<i16, i16, 1>(lhs, rows, bp, n, c, ctx, out)
            }
            (KernelBackend::Avx512, false) => avx512::span_bw(lhs, rows, bp, n, c, ctx, out),
            _ => avx2::span(lhs, rows, bp, n, c, ctx, out),
        }
    }
}

/// The vector body of `body` over a byte plane: over the one, two or three
/// signed digit rows per activation row the call lowered for `vpdpbusd`
/// (AVX-512 with VNNI), or over `i16` rows (`ap.digits == 0`) for its
/// exact spelling (AVX-512 without VNNI, and AVX2).
#[allow(clippy::too_many_arguments)] // the span kernel's operands + the call's backend
pub(super) fn quads(
    body: KernelBackend,
    ap: ByteView<'_>,
    rows: usize,
    bp: PlaneView<'_, u8>,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    out: &mut [f32],
) {
    debug_assert!(body != KernelBackend::Scalar && bp.k1 == K1);
    let (digits, halves) = (Lhs::bytes(ap.codes, &ap), Lhs::bytes(ap.halves, &ap));
    // SAFETY: as in `pairs` for `body`; the call's lowering wrote byte
    // digits only where its one read of `vnni_enabled` — hence
    // AVX-512-VNNI — held on AVX-512, and `i16` rows otherwise; `ap` holds
    // `rows` rows of that form and their corrections.
    unsafe {
        match (body, ap.digits) {
            (KernelBackend::Avx2, _) => avx2::span(halves, rows, bp, n, c, ctx, out),
            (_, 0) => avx512::span_bw(halves, rows, bp, n, c, ctx, out),
            (_, 1) => avx512::span_vnni::<i8, u8, 1>(digits, rows, bp, n, c, ctx, out),
            (_, 2) => avx512::span_vnni::<i8, u8, 2>(digits, rows, bp, n, c, ctx, out),
            _ => avx512::span_vnni::<i8, u8, 3>(digits, rows, bp, n, c, ctx, out),
        }
    }
}

/// The one kernel body: `rows × n` outputs, tile by tile, panel by panel,
/// [`GROUP_ROWS`] rows at a time ([`rows_panel`]). A one-byte `B` is a
/// biased byte plane (the quad body: `A` signed bytes in `DIGITS` digit
/// rows under [`Lanes::BYTE_DOTS`], else `i16`); a two-byte `B` is an
/// `i16` plane (the pair body, `A` = `i16`); `DIGITS` is 1 but for byte
/// digits.
///
/// # Safety
///
/// Must be inlined into a fn enabling `L`'s ISA. `lhs` must hold `rows`
/// rows of that layout (and their corrections on a byte plane) and `bp` a
/// column-in-lane plane of at least `n` columns, both with `k1 = 16` and
/// the same block count; `out` must hold `rows × n`.
#[inline(always)]
pub(super) unsafe fn span<L: Lanes, A, B, const DIGITS: usize>(
    lhs: Lhs<'_, A>,
    rows: usize,
    bp: PlaneView<'_, B>,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    out: &mut [f32],
) {
    const {
        let quad = size_of::<B>() == 1;
        assert!(size_of::<A>() == if quad && L::BYTE_DOTS { 1 } else { 2 });
        assert!(DIGITS >= 1 && (DIGITS == 1 || quad && L::BYTE_DOTS));
        assert!(L::GROUP <= MAX_BLOCKING && DIGITS <= L::ACCS && L::ACCS <= MAX_BLOCKING);
    }
    let mut i0 = 0;
    while i0 < rows {
        let tm = TILE_ROWS.min(rows - i0);
        for j in (0..n).step_by(PANEL_COLS) {
            let panel = bp.panel(j, n);
            let mut row = i0;
            while row < i0 + tm {
                let take = GROUP_ROWS.min(i0 + tm - row);
                let outs = &mut out[row * n..][..take * n];
                // SAFETY: this fn's ISA and operand preconditions carry
                // over; `row + take ≤ rows`, `outs` is `take` whole
                // `n`-wide rows, and `panel` holds the whole reduction of
                // columns `j .. j + 16` (the padded lanes included).
                unsafe {
                    match take {
                        4 => rows_panel::<L, A, B, 4, DIGITS>(lhs, row, &panel, n, c, ctx, outs),
                        3 => rows_panel::<L, A, B, 3, DIGITS>(lhs, row, &panel, n, c, ctx, outs),
                        2 => rows_panel::<L, A, B, 2, DIGITS>(lhs, row, &panel, n, c, ctx, outs),
                        _ => rows_panel::<L, A, B, 1, DIGITS>(lhs, row, &panel, n, c, ctx, outs),
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
/// # Safety
///
/// Must be inlined into a fn enabling `L`'s ISA. Rows `row .. row + R`
/// must exist in `lhs`, `panel` must hold `lhs.blocks` blocks of 16 lanes,
/// and `outs` must be `R` whole `n`-wide rows with
/// `panel.j + panel.uexp.len() ≤ n`.
#[inline(always)]
unsafe fn rows_panel<L: Lanes, A, B, const R: usize, const DIGITS: usize>(
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
    // Group rows per block, and the A bytes one group row, one digit row
    // of a block and one block of a row span.
    let group_rows = K1 * PANEL_COLS * size_of::<B>() / ROW_BYTES;
    let a_group = lane_k::<B>() * size_of::<A>();
    let a_digit = K1 * size_of::<A>();
    let a_block = DIGITS * a_digit;
    let per = L::ACCS / DIGITS;
    let arows: [*const u8; R] = std::array::from_fn(|r| {
        lhs.codes[(row + r) * blocks * DIGITS * K1..][..blocks * DIGITS * K1]
            .as_ptr()
            .cast()
    });
    let aus: [i32; R] = std::array::from_fn(|r| lhs.uexp[row + r]);
    let defers: [bool; R] = std::array::from_fn(|r| {
        ctx.enabled
            && aus[r] != MIXED_EXP
            && panel
                .uexp
                .iter()
                .all(|&u| u != MIXED_EXP && (ctx.e_lo..=ctx.e_hi).contains(&(aus[r] + u)))
    });
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
    let width = panel.uexp.len();
    let mask = u16::MAX >> (PANEL_COLS - width);
    // SAFETY: this fn's ISA precondition covers every `L` primitive below.
    // The B loads read group rows `g .. g + GROUP` of block `kb`,
    // `ROW_BYTES` each, inside the panel's `blocks · K1 · 16` codes (the
    // slots past `GROUP` repeat the first and go unused); each A group
    // read is `a_group` bytes at `kb · a_block + t · a_digit +
    // (g + x) · a_group`, inside the row's `blocks · a_block` bytes, since
    // `g + x < group_rows` and `group_rows · a_group = a_digit`; the
    // per-block exponent reads are block `kb`'s 16 lanes inside the
    // panel's `blocks · 16`, and the deferred ones the 16 at `eu` (a full
    // panel's `uexp`, or `padded`); each
    // store writes only row `r`'s real columns `panel.j .. panel.j + width
    // ≤ n` of `outs`.
    unsafe {
        let zero = L::splat(0);
        let mut dots = [[zero; MAX_BLOCKING]; R];
        for (r, d) in dots.iter_mut().enumerate() {
            d[0] = L::splat(seed(r, 0));
        }
        let mut accs = [L::zero(); R];
        let bbase = panel.codes.as_ptr().cast::<u8>();
        for kb in 0..blocks {
            for g in (0..group_rows).step_by(L::GROUP) {
                let bptr = bbase.add((kb * group_rows + g) * ROW_BYTES);
                let mut b = [L::load::<B>(bptr); MAX_BLOCKING];
                for (x, bx) in b.iter_mut().enumerate().take(L::GROUP).skip(1) {
                    *bx = L::load::<B>(bptr.add(x * ROW_BYTES));
                }
                for (d, &arow) in dots.iter_mut().zip(&arows) {
                    for t in 0..DIGITS {
                        let pa = arow.add(kb * a_block + t * a_digit + g * a_group);
                        for (x, &bx) in b[..L::GROUP].iter().enumerate() {
                            let slot = t * per + x % per;
                            d[slot] = L::mac::<B>(d[slot], pa.add(x * a_group), bx);
                        }
                    }
                }
            }
            if defers.iter().all(|&d| d) {
                continue;
            }
            let eb = panel.exps.as_ptr().add(kb * PANEL_COLS);
            for r in 0..R {
                if !defers[r] {
                    let d = L::lane_sum::<DIGITS>(dots[r]);
                    let ea = lhs.exps[(row + r) * blocks + kb];
                    accs[r] = L::scale_out(accs[r], d, ea + c, eb, ctx.exact_f32_dots);
                    dots[r] = [zero; MAX_BLOCKING];
                    dots[r][0] = L::splat(seed(r, kb + 1));
                }
            }
        }
        if defers.iter().any(|&d| d) {
            // A ragged panel's padded lanes read exponent 0; they are
            // never stored.
            let mut padded = [0i32; PANEL_COLS];
            let eu = if width == PANEL_COLS {
                panel.uexp.as_ptr()
            } else {
                padded[..width].copy_from_slice(panel.uexp);
                padded.as_ptr()
            };
            for r in 0..R {
                if defers[r] {
                    // A deferred total is at most 2²⁴: exact in `f32`.
                    let d = L::lane_sum::<DIGITS>(dots[r]);
                    accs[r] = L::scale_out(accs[r], d, aus[r] + c, eu, true);
                }
            }
        }
        for (r, &acc) in accs.iter().enumerate() {
            L::store(outs[r * n + panel.j..].as_mut_ptr(), acc, mask);
        }
    }
}

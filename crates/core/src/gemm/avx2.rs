//! The AVX2 instance of the one vector body ([`super::vector::span`]): a
//! panel's 16 columns are two 8-lane halves, one `ymm` of `i32` lanes
//! each. One group row loads per step and each row keeps one accumulator
//! (two `ymm`): four rows' accumulators, a step's widened B row and the
//! broadcast A group fill the 16 `ymm` registers.
//!
//! A byte plane's biased bytes are zero-extended to 16-bit pairs, once per
//! load and shared by every row of the group, and multiplied by `i16` rows
//! with `vpmaddwd` — the AVX-512 F/BW instance's exact `vpdpbusd`
//! spelling, seeded the same way (never `vpmaddubsw`, which saturates its
//! 16-bit pair sums). AVX2 has no `vscalefps`: the per-block scale-out
//! goes through `f64` ([`scale4`]), and a ragged panel leaves through a
//! lane copy.

use super::pack::{Lhs, PlaneView};
use super::vector::{self, Lanes, MAX_BLOCKING, ROW_BYTES};
use super::{DeferCtx, PANEL_COLS};
use std::arch::x86_64::*;

/// Columns per half panel: one per `i32` lane of a `ymm`.
const HALF: usize = 8;

/// Sixteen lanes in two `ymm` halves.
pub(super) struct Ymm;

impl Lanes for Ymm {
    type Ints = [__m256i; 2];
    type Floats = [__m256; 2];
    /// Per half: the raw pairs twice, or a biased quad row's two
    /// zero-extended pair vectors.
    type Row = [[__m256i; 2]; 2];
    const GROUP: usize = 1;
    const ACCS: usize = 1;
    const BYTE_DOTS: bool = false;

    /// # Safety
    ///
    /// As [`Lanes::splat`]: AVX2.
    #[inline(always)]
    unsafe fn splat(x: i32) -> [__m256i; 2] {
        // SAFETY: a register-only AVX intrinsic, enabled by the caller.
        unsafe { [_mm256_set1_epi32(x); 2] }
    }

    /// # Safety
    ///
    /// As [`Lanes::zero`]: AVX2.
    #[inline(always)]
    unsafe fn zero() -> [__m256; 2] {
        // SAFETY: a register-only AVX intrinsic, enabled by the caller.
        unsafe { [_mm256_setzero_ps(); 2] }
    }

    /// Each half's biased quads are split here into `[bytes 0 and 1 of
    /// each lane, bytes 2 and 3]` as 16-bit words (one in-lane `vpshufb`
    /// each); each product `vpmaddwd` then forms is at most `255 · 2¹⁵`,
    /// and each pair sum is exact in `i32`.
    ///
    /// # Safety
    ///
    /// As [`Lanes::load`]: AVX2, 64 readable bytes at `p`.
    #[inline(always)]
    unsafe fn load<B>(p: *const u8) -> [[__m256i; 2]; 2] {
        // SAFETY: two 32-byte loads inside the 64 readable bytes at `p`;
        // the rest is register-only AVX2.
        unsafe {
            let lo = _mm256_loadu_si256(p.cast());
            let hi = _mm256_loadu_si256(p.add(ROW_BYTES / 2).cast());
            if size_of::<B>() == 1 {
                [widen(lo), widen(hi)]
            } else {
                [[lo, lo], [hi, hi]]
            }
        }
    }

    /// A quad's two `i16` pairs `(a[0], a[1])`, `(a[2], a[3])` against a
    /// byte row's two pair vectors, or one pair against an `i16` row: one
    /// broadcast feeds both halves.
    ///
    /// # Safety
    ///
    /// As [`Lanes::mac`]: AVX2.
    #[inline(always)]
    unsafe fn mac<B>(acc: [__m256i; 2], a: *const u8, b: Self::Row) -> [__m256i; 2] {
        // SAFETY: four-byte reads inside the A group this fn's caller
        // vouches for; the rest is register-only AVX2.
        unsafe {
            if size_of::<B>() == 1 {
                let (lo, hi) = (broadcast(a), broadcast(a.add(4)));
                [
                    madd(madd(acc[0], b[0][0], lo), b[0][1], hi),
                    madd(madd(acc[1], b[1][0], lo), b[1][1], hi),
                ]
            } else {
                let pair = broadcast(a);
                [madd(acc[0], b[0][0], pair), madd(acc[1], b[1][0], pair)]
            }
        }
    }

    /// One accumulator, one digit: the accumulator itself.
    ///
    /// # Safety
    ///
    /// As [`Lanes::lane_sum`] (no intrinsic).
    #[inline(always)]
    unsafe fn lane_sum<const DIGITS: usize>(d: [[__m256i; 2]; MAX_BLOCKING]) -> [__m256i; 2] {
        d[0]
    }

    /// Through `f64` whatever `exact` says ([`scale8`]).
    ///
    /// # Safety
    ///
    /// As [`Lanes::scale_out`]: AVX2, 16 readable `i32`s at `eb`.
    #[inline(always)]
    unsafe fn scale_out(
        acc: [__m256; 2],
        d: [__m256i; 2],
        ea: i32,
        eb: *const i32,
        _exact: bool,
    ) -> [__m256; 2] {
        // SAFETY: two 32-byte loads inside the 16 `i32`s at `eb`; the rest
        // is register-only AVX2 and `scale8`, under the caller's AVX2.
        unsafe {
            let ea = _mm256_set1_epi32(ea);
            let e0 = _mm256_add_epi32(ea, _mm256_loadu_si256(eb.cast()));
            let e1 = _mm256_add_epi32(ea, _mm256_loadu_si256(eb.add(HALF).cast()));
            [
                _mm256_add_ps(acc[0], scale8(d[0], e0)),
                _mm256_add_ps(acc[1], scale8(d[1], e1)),
            ]
        }
    }

    /// Two stores for a whole panel; a ragged one goes through a copy of
    /// its lanes.
    ///
    /// # Safety
    ///
    /// As [`Lanes::store`]: AVX2.
    #[inline(always)]
    unsafe fn store(dst: *mut f32, acc: [__m256; 2], mask: u16) {
        // SAFETY: the two full stores write the 16 lanes when `mask` sets
        // every one, and otherwise only the lanes it sets are written, as
        // this fn's caller vouches; the stores into `all` stay inside it.
        unsafe {
            if mask == u16::MAX {
                _mm256_storeu_ps(dst, acc[0]);
                _mm256_storeu_ps(dst.add(HALF), acc[1]);
            } else {
                let mut all = [0.0f32; PANEL_COLS];
                _mm256_storeu_ps(all.as_mut_ptr(), acc[0]);
                _mm256_storeu_ps(all[HALF..].as_mut_ptr(), acc[1]);
                for (l, &v) in all.iter().enumerate() {
                    if mask >> l & 1 == 1 {
                        dst.add(l).write(v);
                    }
                }
            }
        }
    }
}

/// [`vector::span`] on AVX2, over `i16` rows: the pair body, or the quad
/// body on the zero-extended bytes.
///
/// # Safety
///
/// Requires AVX2; operand preconditions as [`vector::span`].
#[target_feature(enable = "avx2")]
pub(super) unsafe fn span<B>(
    lhs: Lhs<'_, i16>,
    rows: usize,
    bp: PlaneView<'_, B>,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    out: &mut [f32],
) {
    // SAFETY: this fn's preconditions are the body's under `Ymm`.
    unsafe { vector::span::<Ymm, i16, B, 1>(lhs, rows, bp, n, c, ctx, out) }
}

/// A `ymm` of biased byte quads zero-extended to 16-bit words, each lane's
/// quad split into its two pairs: `[bytes 0 and 1 of each lane, bytes 2
/// and 3]` (one in-lane `vpshufb` each, a set top bit (`-1`) zeroing a
/// word's high byte).
///
/// # Safety
///
/// Must be inlined into a fn enabling AVX2.
#[inline(always)]
unsafe fn widen(raw: __m256i) -> [__m256i; 2] {
    // SAFETY: register-only AVX2 intrinsics, enabled by the caller.
    unsafe {
        let z = -1;
        let lo = _mm256_broadcastsi128_si256(_mm_setr_epi8(
            0, z, 1, z, 4, z, 5, z, 8, z, 9, z, 12, z, 13, z,
        ));
        let hi = _mm256_add_epi8(lo, _mm256_set1_epi16(2));
        [_mm256_shuffle_epi8(raw, lo), _mm256_shuffle_epi8(raw, hi)]
    }
}

/// `acc + vpmaddwd(b, a)`: each lane's two 16-bit products summed.
///
/// # Safety
///
/// Must be inlined into a fn enabling AVX2.
#[inline(always)]
unsafe fn madd(acc: __m256i, b: __m256i, a: __m256i) -> __m256i {
    // SAFETY: register-only AVX2 intrinsics, enabled by the caller.
    unsafe { _mm256_add_epi32(acc, _mm256_madd_epi16(b, a)) }
}

/// The four bytes at `p` broadcast to every `i32` lane.
///
/// # Safety
///
/// Must be inlined into a fn enabling AVX2; `p` must point at 4 readable
/// bytes.
#[inline(always)]
unsafe fn broadcast(p: *const u8) -> __m256i {
    // SAFETY: a four-byte read, readable by this fn's precondition, and a
    // register-only AVX intrinsic.
    unsafe { _mm256_set1_epi32(p.cast::<i32>().read_unaligned()) }
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
/// Must be inlined into a fn enabling AVX2 (register-only: no memory
/// access, no other precondition).
#[inline(always)]
unsafe fn scale4(dots: __m128i, es: __m128i) -> __m128 {
    // SAFETY: register-only AVX2 intrinsics, enabled by the caller.
    unsafe {
        let bits = _mm256_slli_epi64(
            _mm256_add_epi64(_mm256_cvtepi32_epi64(es), _mm256_set1_epi64x(1023)),
            52,
        );
        _mm256_cvtpd_ps(_mm256_mul_pd(
            _mm256_cvtepi32_pd(dots),
            _mm256_castsi256_pd(bits),
        ))
    }
}

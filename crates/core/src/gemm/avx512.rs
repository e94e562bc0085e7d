//! The AVX-512 instances of the one vector body ([`super::vector::span`]):
//! a panel's 16 columns are the 16 `i32` lanes of one `zmm`, four group
//! rows load per step and each row keeps four accumulators (`4 × 4`, the
//! register blocking 32 `zmm` hold), the per-block scale-out runs on
//! `vscalefps`, and ragged N is one masked store.
//!
//! VNNI and its fallback are the same body under two `#[target_feature]`
//! entry points, [`span_vnni`] and [`span_bw`] ([`Zmm::mac`] is the one
//! place they differ). `vpdpwssd` is lane-for-lane `vpmaddwd` + `vpaddd`
//! (the narrow-pair gate `w_a + w_b ≤ 30` keeps each pair-sum exact in
//! `i32`); `vpdpbusd` is spelled exactly by zero-extending each lane's
//! biased byte quad into two 16-bit pairs (one in-lane `vpshufb` each,
//! once per load) against A's codes as sign-extended `i16` pairs — the
//! lowering writes `i16` rows for this instance, so no activation needs a
//! digit split — and two `vpmaddwd` + two `vpaddd` (never the saturating
//! `vpmaddubsw`). The seeds are the same `−128·Σ a`. The F/BW instance is
//! the only AVX-512 path on CPUs without VNNI.

use super::pack::{Lhs, PlaneView};
use super::vector::{self, Lanes, K1, MAX_BLOCKING};
use super::DeferCtx;
use std::arch::x86_64::*;

/// Sixteen lanes in one `zmm`, multiplying with `vpdpbusd` / `vpdpwssd`
/// when `VNNI`, else with their exact `vpmaddwd` + `vpaddd` spellings.
pub(super) struct Zmm<const VNNI: bool>;

impl<const VNNI: bool> Lanes for Zmm<VNNI> {
    type Ints = __m512i;
    type Floats = __m512;
    /// The raw `zmm` twice, or a biased quad row's two zero-extended pair
    /// vectors.
    type Row = [__m512i; 2];
    const GROUP: usize = 4;
    const ACCS: usize = 4;
    const BYTE_DOTS: bool = VNNI;

    /// # Safety
    ///
    /// As [`Lanes::splat`]: AVX-512 F.
    #[inline(always)]
    unsafe fn splat(x: i32) -> __m512i {
        // SAFETY: a register-only AVX-512 F intrinsic, enabled by the caller.
        unsafe { _mm512_set1_epi32(x) }
    }

    /// # Safety
    ///
    /// As [`Lanes::zero`]: AVX-512 F.
    #[inline(always)]
    unsafe fn zero() -> __m512 {
        // SAFETY: a register-only AVX-512 F intrinsic, enabled by the caller.
        unsafe { _mm512_setzero_ps() }
    }

    /// A biased quad row without VNNI is split here, once per load, into
    /// `[bytes 0 and 1 of each lane, bytes 2 and 3]` as 16-bit words (one
    /// in-lane `vpshufb` each).
    ///
    /// # Safety
    ///
    /// As [`Lanes::load`]: AVX-512 F and BW, 64 readable bytes at `p`.
    #[inline(always)]
    unsafe fn load<B>(p: *const u8) -> [__m512i; 2] {
        // SAFETY: one 64-byte load, readable by this fn's precondition; the
        // rest is register-only AVX-512 F/BW.
        unsafe {
            let raw = _mm512_loadu_si512(p.cast());
            if size_of::<B>() == 1 && !VNNI {
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

    /// - byte plane: `acc + Σ_{j<4} u8(b[4l + j]) · a[j]` — `vpdpbusd` on
    ///   the broadcast signed byte quad, or exactly: the quad's two pairs
    ///   as sign-extended `i16` codes against [`Zmm::load`]'s zero-extended
    ///   pairs, two `vpmaddwd` (each product at most `255 · 2¹⁵`, each pair
    ///   sum exact in `i32`) and two `vpaddd`;
    /// - `i16` plane: `acc + a[0]·b[2l] + a[1]·b[2l + 1]` on the broadcast
    ///   pair — `vpdpwssd`, or `vpmaddwd` + `vpaddd`.
    ///
    /// # Safety
    ///
    /// As [`Lanes::mac`]: AVX-512 F and BW, and VNNI when `VNNI`.
    #[inline(always)]
    unsafe fn mac<B>(acc: __m512i, a: *const u8, b: [__m512i; 2]) -> __m512i {
        // SAFETY: four-byte reads inside the A group this fn's caller
        // vouches for; the rest is register-only intrinsics of the ISA the
        // caller enables.
        unsafe {
            match (size_of::<B>() == 1, VNNI) {
                (true, true) => _mm512_dpbusd_epi32(acc, b[0], broadcast(a)),
                (true, false) => {
                    let acc = _mm512_add_epi32(acc, _mm512_madd_epi16(b[0], broadcast(a)));
                    _mm512_add_epi32(acc, _mm512_madd_epi16(b[1], broadcast(a.add(4))))
                }
                (false, true) => _mm512_dpwssd_epi32(acc, broadcast(a), b[0]),
                (false, false) => _mm512_add_epi32(acc, _mm512_madd_epi16(broadcast(a), b[0])),
            }
        }
    }

    /// # Safety
    ///
    /// As [`Lanes::lane_sum`]: AVX-512 F.
    #[inline(always)]
    unsafe fn lane_sum<const DIGITS: usize>(d: [__m512i; MAX_BLOCKING]) -> __m512i {
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

    /// `exact`: `vcvtdq2ps` is exact and `vscalefps` rounds the exact
    /// product once; otherwise the dot and its scale go through `f64`
    /// (exact for a narrow pair's dots and the formats' exponent range)
    /// and `vcvtpd2ps` rounds once.
    ///
    /// # Safety
    ///
    /// As [`Lanes::scale_out`]: AVX-512 F, 16 readable `i32`s at `eb`.
    #[inline(always)]
    unsafe fn scale_out(acc: __m512, d: __m512i, ea: i32, eb: *const i32, exact: bool) -> __m512 {
        // SAFETY: one 64-byte load at `eb`, readable by this fn's
        // precondition; the rest is register-only AVX-512 F.
        unsafe {
            let e = _mm512_add_epi32(_mm512_loadu_si512(eb.cast()), _mm512_set1_epi32(ea));
            let x = if exact {
                _mm512_scalef_ps(_mm512_cvtepi32_ps(d), _mm512_cvtepi32_ps(e))
            } else {
                let lo = scale_f64(_mm512_castsi512_si256(d), _mm512_castsi512_si256(e));
                let hi = scale_f64(
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

    /// # Safety
    ///
    /// As [`Lanes::store`]: AVX-512 F; masked-out lanes are architecturally
    /// not accessed.
    #[inline(always)]
    unsafe fn store(dst: *mut f32, acc: __m512, mask: u16) {
        // SAFETY: a masked store of the lanes this fn's caller vouches for.
        unsafe { _mm512_mask_storeu_ps(dst, mask, acc) }
    }
}

/// The four bytes at `p` broadcast to every `i32` lane.
///
/// # Safety
///
/// Must be inlined into a fn enabling AVX-512 F; `p` must point at 4
/// readable bytes.
#[inline(always)]
unsafe fn broadcast(p: *const u8) -> __m512i {
    // SAFETY: a four-byte read, readable by this fn's precondition, and a
    // register-only AVX-512 F intrinsic.
    unsafe { _mm512_set1_epi32(p.cast::<i32>().read_unaligned()) }
}

/// `f32(d · 2^e)` on 8 lanes through `f64`: the conversion and the scale
/// are exact, `vcvtpd2ps` rounds once.
///
/// # Safety
///
/// Must be inlined into a fn enabling AVX-512 F.
#[inline(always)]
unsafe fn scale_f64(d: __m256i, e: __m256i) -> __m256 {
    // SAFETY: register-only AVX-512 F intrinsics, enabled by the caller.
    unsafe {
        _mm512_cvtpd_ps(_mm512_scalef_pd(
            _mm512_cvtepi32_pd(d),
            _mm512_cvtepi32_pd(e),
        ))
    }
}

/// [`vector::span`] on AVX-512 with `vpdpbusd` / `vpdpwssd`: the pair body
/// (`A = i16`, `B = i16`) or the quad body over one, two or three signed
/// byte digit rows (`A = i8`, `B = u8`).
///
/// # Safety
///
/// Requires AVX-512 F, BW and VNNI; operand preconditions as
/// [`vector::span`].
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
pub(super) unsafe fn span_vnni<A, B, const DIGITS: usize>(
    lhs: Lhs<'_, A>,
    rows: usize,
    bp: PlaneView<'_, B>,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    out: &mut [f32],
) {
    // SAFETY: this fn's preconditions are the body's under `Zmm<true>`.
    unsafe { vector::span::<Zmm<true>, A, B, DIGITS>(lhs, rows, bp, n, c, ctx, out) }
}

/// [`vector::span`] on AVX-512 with the exact `vpmaddwd` + `vpaddd`
/// spellings, over `i16` rows, for CPUs (or forced runs) without
/// AVX-512-VNNI: the pair body, or the quad body on the zero-extended
/// bytes.
///
/// # Safety
///
/// Requires AVX-512 F and BW; operand preconditions as [`vector::span`].
#[target_feature(enable = "avx512f,avx512bw")]
pub(super) unsafe fn span_bw<B>(
    lhs: Lhs<'_, i16>,
    rows: usize,
    bp: PlaneView<'_, B>,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    out: &mut [f32],
) {
    // SAFETY: this fn's preconditions are the body's under `Zmm<false>`.
    unsafe { vector::span::<Zmm<false>, i16, B, 1>(lhs, rows, bp, n, c, ctx, out) }
}

/// Appends `−128·Σ a` of every 16-code block of the byte rows `codes` to
/// `corr` — the seeds the quad body starts each block from. Four blocks
/// per `vpsadbw` (on `a ^ 0x80 = a + 128`, so each block's sum reads
/// `Σ a + 2048`); the last few blocks, and every block on a CPU without
/// AVX-512 BW, take `scalar`.
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

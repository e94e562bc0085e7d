//! The AVX-512 tier of the fast block core: the scalar core's block plan
//! and rounding ([`super::plan_fast`] + [`super::rounded_quotient`]), 16
//! lanes at a time, for contiguous whole blocks and for bands of 16
//! adjacent columns.
//!
//! Every constant comes from the run-time [`BdrFormat`] — nothing is baked
//! per preset — and every IEEE operation the scalar core performs on an
//! element is performed on its lane, in the same order, so the two tiers
//! are **bit-identical** (the `engine_consistency` suite asserts it over
//! the Fig. 7 grid, random formats and hostile data; debug builds
//! re-check every SIMD result against the scalar core in place):
//!
//! 1. **Exponent per lane** — abs bits with non-finite lanes zeroed, then
//!    [`crate::util::exponent_of`] on vectors: `field − 127` for normals,
//!    `−118 − lzcnt` (`vplzcntd`) for subnormals. A zero lane reads −150,
//!    below every real exponent, so it never wins a maximum.
//! 2. **Log-step lane-max butterfly** — to `k2` (sub-block maxima) and on
//!    to `k1` (block maximum): one shuffle + max per doubling. The
//!    exponent is monotone in the abs bits, so maxima of exponents are the
//!    exponents of the scalar core's abs-bit maxima.
//! 3. **Plan** — shared exponent clamped to the `d1` range, `τ = min(β,
//!    max(0, E − Eᵢ))`. An all-zero sub-block (`Eᵢ = −150`) lands on β by
//!    the same formula, because `E − Eᵢ ≥ 23 > β`.
//! 4. **Quotient** — exact `2^−e` built in the `f64` exponent field,
//!    `cvtps2pd · mul · (+2^52 −2^52) · min(max_code)` with separate (never
//!    fused) multiply and add. NaN lanes enter as magnitude 0: the code the
//!    scalar core's `as u64` makes of them.
//!
//! and ends in one of two epilogues: **value** (`· ulp`, `cvtpd2ps`, sign
//! OR-ed back; `±0` and dead blocks store `+0.0`) and **code**
//! (`cvttpd2dq`, `sllv` by `β − τ`, conditional negate, narrowed to the
//! consuming kernel's width).
//!
//! Block shapes: `k1 ∈ {16, 32, …, 128}` as `k1 / 16` vectors, `k1 = 8` as
//! two blocks per vector (value path only), `k2` a power of two up to 16
//! or `d2 = 0` (where τ is 0 whatever the sub-block maxima are).
//!
//! **Vertical tier** (`k1 = 16`, the code path): 16 adjacent columns of a
//! row-major matrix are 16 independent blocks, one per lane. Each of a
//! band's block rows is one contiguous masked load (absent columns read
//! as zeros, and so do a ragged band's absent rows — the scalar core's
//! tail rule); steps 1 and 3–4 run per row as above, while step 2 becomes
//! a lane-wise maximum down the rows, with no butterfly. The codes of each
//! row pair are interleaved in registers and leave in one store per pair
//! row, in the GEMM's column-in-lane `[pair][lane][2]` layout; the 16
//! shared exponents leave in one store, and each column's
//! exponent-uniformity fold is kept per lane.
//!
//! Everything else — single strided blocks, ragged contiguous tails,
//! other shapes, other CPUs — stays on the scalar core.

use super::{AlignedCode, EXP_MIXED, EXP_UNSEEN, ROUND_BIAS};
use crate::bdr::BdrFormat;
use std::arch::x86_64::*;
use std::sync::OnceLock;

/// `f32` lanes per vector.
const LANES: usize = 16;

/// Most vectors one block spans (`k1 = 128`).
const MAX_VECTORS: usize = 8;

/// What [`lane_exponents`] reads for a zero (or non-finite) lane.
const NO_EXP: i32 = -150;

/// Whether the CPU has every feature the kernels below enable.
fn available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512cd")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vl")
    })
}

/// One format's constants for the vector core. Exists only on a CPU that
/// passed [`available`], which is what makes the safe entry points sound.
#[derive(Debug, Clone, Copy)]
pub(super) struct Kernel {
    k1: usize,
    /// Lanes per sub-block: `k2`, or 1 when `d2 = 0`.
    sub: usize,
    /// Lanes of one vector a block covers: `min(k1, 16)`.
    blk: usize,
    min_exp: i32,
    max_exp: i32,
    beta: i32,
    /// `m − 1`: the ulp sits this far below `shared_exp − τ`.
    m1: i32,
    max_code: f64,
}

impl Kernel {
    /// The vector core for `fmt`, or `None` when the CPU lacks a feature
    /// or the block shape is one the scalar core keeps.
    pub(super) fn new(fmt: &BdrFormat) -> Option<Self> {
        let (k1, k2) = (fmt.k1(), fmt.k2());
        let blocks = k1 == 8 || (k1.is_multiple_of(LANES) && k1 <= LANES * MAX_VECTORS);
        let sub_blocks = fmt.d2() == 0 || (k2.is_power_of_two() && k2 <= LANES);
        (blocks && sub_blocks && available()).then(|| Kernel {
            k1,
            sub: if fmt.d2() == 0 { 1 } else { k2 },
            blk: k1.min(LANES),
            min_exp: fmt.min_shared_exp(),
            max_exp: fmt.max_shared_exp(),
            beta: fmt.max_shift() as i32,
            m1: fmt.m() as i32 - 1,
            max_code: fmt.max_code() as f64,
        })
    }

    /// Fake-quantizes the leading whole blocks of `xs` in place — whole
    /// vectors of blocks for `k1 = 8` — and returns how many elements that
    /// was (a multiple of `k1`); the caller finishes the tail.
    pub(super) fn qdq_prefix(&self, xs: &mut [f32]) -> usize {
        let group = self.k1.max(LANES);
        let done = xs.len() / group * group;
        // SAFETY: a `Kernel` exists only where `available` detected every
        // feature `qdq_groups` enables.
        unsafe { self.qdq_groups(&mut xs[..done]) };
        done
    }

    /// Whether [`Self::lower_block`] takes a contiguous block of `len`
    /// elements: whole blocks of whole vectors (`k1 = 8` is value-only).
    pub(super) fn lowers(&self, len: usize) -> bool {
        len == self.k1 && self.k1 >= LANES
    }

    /// Lowers one whole contiguous block to shift-aligned signed codes and
    /// returns its shared exponent, `None` (every code zero) when no
    /// element is finite and nonzero.
    ///
    /// # Panics
    ///
    /// Panics unless [`Self::lowers`]`(block.len())` and `codes` holds `k1`
    /// slots.
    pub(super) fn lower_block<C: AlignedCode>(
        &self,
        block: &[f32],
        codes: &mut [C],
    ) -> Option<i32> {
        assert!(self.lowers(block.len()) && codes.len() == self.k1);
        // SAFETY: a `Kernel` exists only where `available` detected every
        // feature `lower` enables; both lengths were just checked.
        unsafe { self.lower(block, codes) }
    }

    /// Whether [`Self::lower_lanes`] serves this format: the vertical tier
    /// holds one block row per vector, so it takes `k1 = 16`.
    pub(super) fn lowers_lanes(&self) -> bool {
        self.k1 == LANES
    }

    /// The vertical tier: lowers one band of up to 16 adjacent columns as
    /// independent blocks, column `l < lanes` being the block
    /// `data[base + r·stride + l], r < rows` (rows past `rows` read as
    /// zeros, lanes past `lanes` as all-zero columns). Each row is one
    /// contiguous masked load; the codes land column-in-lane,
    /// `[pair][lane][2]` over 16 lanes, and `exps` gets every lane's shared
    /// exponent (0 for an all-zero block). `uexp` holds the `lanes`
    /// columns' running exponent-uniformity folds, which each live block
    /// advances as [`super::note_exp`] does.
    ///
    /// # Panics
    ///
    /// Panics unless [`Self::lowers_lanes`], `1 ≤ rows ≤ k1`, `1 ≤ lanes ≤
    /// 16`, the band's last row ends inside `data`, `codes` holds `16·k1`
    /// slots, `exps` 16 and `uexp` `lanes`.
    #[allow(clippy::too_many_arguments)] // band geometry + three outputs
    pub(super) fn lower_lanes<C: AlignedCode>(
        &self,
        data: &[f32],
        base: usize,
        stride: usize,
        rows: usize,
        lanes: usize,
        codes: &mut [C],
        exps: &mut [i32],
        uexp: &mut [i32],
    ) {
        assert!(self.lowers_lanes() && (1..=self.k1).contains(&rows));
        assert!((1..=LANES).contains(&lanes) && base + (rows - 1) * stride + lanes <= data.len());
        assert!(codes.len() == LANES * self.k1 && exps.len() == LANES && uexp.len() == lanes);
        // SAFETY: a `Kernel` exists only where `available` detected every
        // feature `lanes` enables; the geometry was just checked.
        unsafe { self.lanes(data, base, stride, rows, lanes, codes, exps, uexp) }
    }

    /// Plans one group (one block, or two for `k1 = 8`): fills `e_sub`
    /// with each vector's per-lane sub-block exponent and returns the
    /// clamped shared exponent per lane and the mask of lanes whose block
    /// has a finite nonzero element.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F/CD/DQ/BW/VL. `group` must hold a whole number of
    /// vectors, at most [`MAX_VECTORS`].
    #[target_feature(enable = "avx512f,avx512cd,avx512dq,avx512bw,avx512vl")]
    unsafe fn plan(
        &self,
        group: &[f32],
        e_sub: &mut [__m512i; MAX_VECTORS],
    ) -> (__m512i, __mmask16) {
        let mut top = _mm512_set1_epi32(NO_EXP);
        for (x, e) in group.chunks_exact(LANES).zip(e_sub.iter_mut()) {
            // SAFETY: `chunks_exact` hands out exactly 16 `f32`s; the
            // helpers are register-only and inherit this fn's features.
            *e = unsafe {
                let x = _mm512_loadu_si512(x.as_ptr().cast());
                lane_max(lane_exponents(x), 1, self.sub)
            };
            top = _mm512_max_epi32(top, *e);
        }
        // SAFETY: register-only helper under this fn's features.
        let top = unsafe { lane_max(top, self.sub, self.blk) };
        let alive = _mm512_cmpgt_epi32_mask(top, _mm512_set1_epi32(NO_EXP));
        let shared = _mm512_min_epi32(
            _mm512_max_epi32(top, _mm512_set1_epi32(self.min_exp)),
            _mm512_set1_epi32(self.max_exp),
        );
        (shared, alive)
    }

    /// `τ` per lane from the sub-block and shared exponents.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F/CD/DQ/BW/VL (register-only).
    #[target_feature(enable = "avx512f,avx512cd,avx512dq,avx512bw,avx512vl")]
    unsafe fn shifts(&self, e_sub: __m512i, shared: __m512i) -> __m512i {
        _mm512_min_epi32(
            _mm512_max_epi32(_mm512_sub_epi32(shared, e_sub), _mm512_setzero_si512()),
            _mm512_set1_epi32(self.beta),
        )
    }

    /// The rounded, clamped quotients of eight magnitudes (`f32` abs bits,
    /// NaN already zeroed) as `f64` lanes, with the bits of the `2^−e`
    /// they were scaled by (`e` the lane's ulp exponent).
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F/CD/DQ/BW/VL (register-only).
    #[target_feature(enable = "avx512f,avx512cd,avx512dq,avx512bw,avx512vl")]
    unsafe fn quotients(&self, mag: __m256i, e_ulp: __m256i) -> (__m512d, __m512i) {
        let inv_bits = _mm512_slli_epi64::<52>(_mm512_cvtepi32_epi64(_mm256_sub_epi32(
            _mm256_set1_epi32(1023),
            e_ulp,
        )));
        let q = _mm512_mul_pd(
            _mm512_cvtps_pd(_mm256_castsi256_ps(mag)),
            _mm512_castsi512_pd(inv_bits),
        );
        let bias = _mm512_set1_pd(ROUND_BIAS);
        let r = _mm512_sub_pd(_mm512_add_pd(q, bias), bias);
        (_mm512_min_pd(r, _mm512_set1_pd(self.max_code)), inv_bits)
    }

    /// Both halves of a vector through [`Self::quotients`]: the abs bits of
    /// `x` (NaN lanes as 0) against the ulp exponent `shared − τ − (m − 1)`.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F/CD/DQ/BW/VL (register-only).
    #[target_feature(enable = "avx512f,avx512cd,avx512dq,avx512bw,avx512vl")]
    unsafe fn vector_quotients(
        &self,
        x: __m512i,
        tau: __m512i,
        shared: __m512i,
    ) -> [(__m512d, __m512i); 2] {
        let abs = _mm512_and_si512(x, _mm512_set1_epi32(0x7fff_ffff));
        let not_nan = _mm512_cmple_epu32_mask(abs, _mm512_set1_epi32(0x7f80_0000));
        let mag = _mm512_maskz_mov_epi32(not_nan, abs);
        let e_ulp = _mm512_sub_epi32(_mm512_sub_epi32(shared, tau), _mm512_set1_epi32(self.m1));
        // SAFETY: register-only helper under this fn's features.
        unsafe {
            [
                self.quotients(_mm512_castsi512_si256(mag), _mm512_castsi512_si256(e_ulp)),
                self.quotients(
                    _mm512_extracti64x4_epi64::<1>(mag),
                    _mm512_extracti64x4_epi64::<1>(e_ulp),
                ),
            ]
        }
    }

    /// The value path over whole groups, in place.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F/CD/DQ/BW/VL. `xs.len()` must be a multiple of
    /// `max(k1, 16)`.
    #[target_feature(enable = "avx512f,avx512cd,avx512dq,avx512bw,avx512vl")]
    unsafe fn qdq_groups(&self, xs: &mut [f32]) {
        let mut e_sub = [_mm512_setzero_si512(); MAX_VECTORS];
        for group in xs.chunks_exact_mut(self.k1.max(LANES)) {
            // SAFETY: a group is `max(k1, 16)` elements — whole vectors,
            // at most `MAX_VECTORS` (`Kernel::new` bounds `k1`).
            let (shared, alive) = unsafe { self.plan(group, &mut e_sub) };
            for (chunk, &e) in group.chunks_exact_mut(LANES).zip(e_sub.iter()) {
                // SAFETY: `chunks_exact_mut` hands out exactly 16 `f32`s
                // for the load and the store; the helpers are
                // register-only and inherit this fn's features.
                unsafe {
                    let x = _mm512_loadu_si512(chunk.as_ptr().cast());
                    let tau = self.shifts(e, shared);
                    let [lo, hi] = self.vector_quotients(x, tau, shared);
                    let mag = _mm512_insertf32x8::<1>(
                        _mm512_castps256_ps512(dequantize(lo)),
                        dequantize(hi),
                    );
                    let sign = _mm512_and_si512(x, _mm512_set1_epi32(i32::MIN));
                    let bits = _mm512_or_si512(_mm512_castps_si512(mag), sign);
                    // ±0 lanes and dead blocks store +0.0.
                    let nonzero = _mm512_test_epi32_mask(x, _mm512_set1_epi32(0x7fff_ffff));
                    _mm512_storeu_si512(
                        chunk.as_mut_ptr().cast(),
                        _mm512_maskz_mov_epi32(alive & nonzero, bits),
                    );
                }
            }
        }
    }

    /// The code epilogue on one vector: the shift-aligned signed code of
    /// every lane of `x` against its lane's `τ` and shared exponent, zero
    /// in the lanes outside `alive`.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F/CD/DQ/BW/VL (register-only).
    #[target_feature(enable = "avx512f,avx512cd,avx512dq,avx512bw,avx512vl")]
    unsafe fn aligned_codes(
        &self,
        x: __m512i,
        tau: __m512i,
        shared: __m512i,
        alive: __mmask16,
    ) -> __m512i {
        // SAFETY: register-only helper under this fn's features.
        let [lo, hi] = unsafe { self.vector_quotients(x, tau, shared) };
        let code = _mm512_inserti64x4::<1>(
            _mm512_castsi256_si512(_mm512_cvttpd_epi32(lo.0)),
            _mm512_cvttpd_epi32(hi.0),
        );
        let align = _mm512_sub_epi32(_mm512_set1_epi32(self.beta), tau);
        let aligned = _mm512_sllv_epi32(code, align);
        let signed = _mm512_mask_sub_epi32(
            aligned,
            _mm512_movepi32_mask(x),
            _mm512_setzero_si512(),
            aligned,
        );
        _mm512_maskz_mov_epi32(alive, signed)
    }

    /// The code path for one block; returns its shared exponent, `None`
    /// (all codes zero) when no element is finite and nonzero.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F/CD/DQ/BW/VL. `block` and `codes` must both hold
    /// `k1` elements, `k1` a multiple of 16 up to 128.
    #[target_feature(enable = "avx512f,avx512cd,avx512dq,avx512bw,avx512vl")]
    unsafe fn lower<C: AlignedCode>(&self, block: &[f32], codes: &mut [C]) -> Option<i32> {
        let mut e_sub = [_mm512_setzero_si512(); MAX_VECTORS];
        // SAFETY: `block` is `k1` elements, whole vectors up to the cap.
        let (shared, alive) = unsafe { self.plan(block, &mut e_sub) };
        let chunks = block.chunks_exact(LANES).zip(codes.chunks_exact_mut(LANES));
        for ((chunk, dst), &e) in chunks.zip(e_sub.iter()) {
            // SAFETY: `chunks_exact` hands out exactly 16 `f32`s for the
            // load; `dst` is exactly 16 codes of `size_of::<C>()` bytes
            // and the store picked by that size writes 16 of them; the
            // helpers are register-only and inherit this fn's features.
            unsafe {
                let x = _mm512_loadu_si512(chunk.as_ptr().cast());
                let out = self.aligned_codes(x, self.shifts(e, shared), shared, alive);
                // The narrowing is `AlignedCode::from_aligned`'s: lossless
                // for every pair the code-domain dispatch admits.
                match size_of::<C>() {
                    1 => _mm_storeu_si128(dst.as_mut_ptr().cast(), _mm512_cvtepi32_epi8(out)),
                    2 => _mm256_storeu_si256(dst.as_mut_ptr().cast(), _mm512_cvtepi32_epi16(out)),
                    4 => _mm512_storeu_si512(dst.as_mut_ptr().cast(), out),
                    _ => unreachable!("aligned codes are i8, i16 or i32"),
                }
            }
        }
        (alive != 0).then(|| _mm_cvtsi128_si32(_mm512_castsi512_si128(shared)))
    }

    /// The vertical tier's body; see [`Self::lower_lanes`].
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F/CD/DQ/BW/VL and the geometry
    /// [`Self::lower_lanes`] asserts.
    #[target_feature(enable = "avx512f,avx512cd,avx512dq,avx512bw,avx512vl")]
    #[allow(clippy::too_many_arguments)] // band geometry + three outputs
    unsafe fn lanes<C: AlignedCode>(
        &self,
        data: &[f32],
        base: usize,
        stride: usize,
        rows: usize,
        lanes: usize,
        codes: &mut [C],
        exps: &mut [i32],
        uexp: &mut [i32],
    ) {
        let mask: __mmask16 = u16::MAX >> (LANES - lanes);
        let no_exp = _mm512_set1_epi32(NO_EXP);
        let mut x = [_mm512_setzero_si512(); LANES];
        for (r, row) in x.iter_mut().enumerate().take(rows) {
            // SAFETY: row `r < rows` starts at `base + r·stride`, and its
            // `lanes` unmasked elements end inside `data` (asserted by
            // `lower_lanes`); masked-off lanes are not read.
            *row = unsafe {
                _mm512_maskz_loadu_epi32(mask, data[base + r * stride..].as_ptr().cast())
            };
        }
        // Sub-block and block maxima straight down the rows, one lane per
        // column: no butterfly.
        let mut e_sub = [no_exp; LANES];
        let mut top = no_exp;
        for (xs, es) in x
            .chunks_exact(self.sub)
            .zip(e_sub.chunks_exact_mut(self.sub))
        {
            let mut e = no_exp;
            for &row in xs {
                // SAFETY: register-only helper under this fn's features.
                e = _mm512_max_epi32(e, unsafe { lane_exponents(row) });
            }
            es.fill(e);
            top = _mm512_max_epi32(top, e);
        }
        let alive = _mm512_cmpgt_epi32_mask(top, no_exp);
        let shared = _mm512_min_epi32(
            _mm512_max_epi32(top, _mm512_set1_epi32(self.min_exp)),
            _mm512_set1_epi32(self.max_exp),
        );
        // Row pair `p` interleaved lane by lane: `[lane][2]` is lane `l` of
        // row `2p`, then of row `2p + 1`.
        let lo_pairs = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
        let hi_pairs = _mm512_add_epi32(lo_pairs, _mm512_set1_epi32(8));
        let pairs = x.chunks_exact(2).zip(e_sub.chunks_exact(2));
        for (dst, (x, e)) in codes.chunks_exact_mut(2 * LANES).zip(pairs) {
            // SAFETY: `dst` is one pair row, 32 codes of `size_of::<C>()`
            // bytes, and the stores picked by that size write exactly 32
            // of them; the helpers are register-only and inherit this fn's
            // features.
            unsafe {
                let c0 = self.aligned_codes(x[0], self.shifts(e[0], shared), shared, alive);
                let c1 = self.aligned_codes(x[1], self.shifts(e[1], shared), shared, alive);
                let lo = _mm512_permutex2var_epi32(c0, lo_pairs, c1);
                let hi = _mm512_permutex2var_epi32(c0, hi_pairs, c1);
                // The narrowing is `AlignedCode::from_aligned`'s, as in
                // `lower`.
                match size_of::<C>() {
                    1 => _mm256_storeu_si256(
                        dst.as_mut_ptr().cast(),
                        _mm256_inserti128_si256::<1>(
                            _mm256_castsi128_si256(_mm512_cvtepi32_epi8(lo)),
                            _mm512_cvtepi32_epi8(hi),
                        ),
                    ),
                    2 => _mm512_storeu_si512(
                        dst.as_mut_ptr().cast(),
                        _mm512_inserti64x4::<1>(
                            _mm512_castsi256_si512(_mm512_cvtepi32_epi16(lo)),
                            _mm512_cvtepi32_epi16(hi),
                        ),
                    ),
                    4 => {
                        _mm512_storeu_si512(dst.as_mut_ptr().cast(), lo);
                        _mm512_storeu_si512(dst[LANES..].as_mut_ptr().cast(), hi);
                    }
                    _ => unreachable!("aligned codes are i8, i16 or i32"),
                }
            }
        }
        // SAFETY: `exps` holds 16 slots (asserted by `lower_lanes`).
        unsafe {
            _mm512_storeu_si512(
                exps.as_mut_ptr().cast(),
                _mm512_maskz_mov_epi32(alive, shared),
            );
        }
        // SAFETY: the masked load and store touch only the `lanes` folds
        // `uexp` holds (asserted by `lower_lanes`).
        unsafe {
            let seen = _mm512_maskz_loadu_epi32(mask, uexp.as_ptr());
            let unseen = _mm512_cmpeq_epi32_mask(seen, _mm512_set1_epi32(EXP_UNSEEN));
            let differ = _mm512_cmpneq_epi32_mask(seen, shared);
            let first = _mm512_mask_mov_epi32(seen, alive & unseen, shared);
            let mixed = alive & !unseen & differ;
            let folded = _mm512_mask_mov_epi32(first, mixed, _mm512_set1_epi32(EXP_MIXED));
            _mm512_mask_storeu_epi32(uexp.as_mut_ptr(), mask, folded);
        }
    }
}

/// [`crate::util::exponent_of`] per lane of raw `f32` bits, with zero and
/// non-finite lanes — the ones the block plan skips — reading [`NO_EXP`].
///
/// # Safety
///
/// Requires AVX-512 F/CD/DQ/BW/VL (register-only).
#[target_feature(enable = "avx512f,avx512cd,avx512dq,avx512bw,avx512vl")]
unsafe fn lane_exponents(x: __m512i) -> __m512i {
    let abs = _mm512_and_si512(x, _mm512_set1_epi32(0x7fff_ffff));
    let finite = _mm512_cmplt_epu32_mask(abs, _mm512_set1_epi32(0x7f80_0000));
    let a = _mm512_maskz_mov_epi32(finite, abs);
    let field = _mm512_srli_epi32::<23>(a);
    let normal = _mm512_sub_epi32(field, _mm512_set1_epi32(127));
    // Exponent field 0: the exponent is the mantissa's top set bit,
    // `31 − lzcnt − 149`; an all-zero lane counts 32 and reads NO_EXP.
    let subnormal = _mm512_sub_epi32(_mm512_set1_epi32(-118), _mm512_lzcnt_epi32(a));
    _mm512_mask_mov_epi32(normal, _mm512_testn_epi32_mask(field, field), subnormal)
}

/// Log-step butterfly: every lane ends with the maximum over its aligned
/// group of `to` lanes, given that it already holds the maximum over its
/// aligned group of `from` (both powers of two, `from ≤ to ≤ 16`).
///
/// # Safety
///
/// Requires AVX-512 F/CD/DQ/BW/VL (register-only).
#[target_feature(enable = "avx512f,avx512cd,avx512dq,avx512bw,avx512vl")]
unsafe fn lane_max(mut v: __m512i, from: usize, to: usize) -> __m512i {
    let wants = |d: usize| from <= d && d < to;
    if wants(1) {
        v = _mm512_max_epi32(v, _mm512_shuffle_epi32::<0b10_11_00_01>(v));
    }
    if wants(2) {
        v = _mm512_max_epi32(v, _mm512_shuffle_epi32::<0b01_00_11_10>(v));
    }
    if wants(4) {
        v = _mm512_max_epi32(v, _mm512_shuffle_i32x4::<0b10_11_00_01>(v, v));
    }
    if wants(8) {
        v = _mm512_max_epi32(v, _mm512_shuffle_i32x4::<0b01_00_11_10>(v, v));
    }
    v
}

/// The value epilogue's `(code · ulp) as f32` on eight lanes: the ulp is
/// the reciprocal of the `2^−e` in `q.1`, i.e. exponent field `2046 −
/// field`.
///
/// # Safety
///
/// Requires AVX-512 F/CD/DQ/BW/VL (register-only).
#[target_feature(enable = "avx512f,avx512cd,avx512dq,avx512bw,avx512vl")]
unsafe fn dequantize(q: (__m512d, __m512i)) -> __m256 {
    let ulp = _mm512_sub_epi64(_mm512_set1_epi64(2046 << 52), q.1);
    _mm512_cvtpd_ps(_mm512_mul_pd(q.0, _mm512_castsi512_pd(ulp)))
}

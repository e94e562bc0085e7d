//! The unified block-quantization engine: one implementation of the BDR
//! block plan serving every consumer in the workspace.
//!
//! The paper's central object is the two-level block plan of Fig. 4/5 — a
//! shared `d1`-bit exponent per `k1`-block plus a `d2`-bit microexponent
//! shift per `k2`-sub-block. The seed computed that plan in three
//! independent places (the value path in [`crate::bdr`], a re-inlined copy
//! in the packed encoder of [`crate::mx`], and a transpose-heavy wrapper in
//! `mx-nn`). This module is now the *only* implementation; everything else
//! is a thin client:
//!
//! - **Value path** — [`QuantEngine::quantize_dequantize`] /
//!   [`QuantEngine::quantize_dequantize_in_place`] fake-quantize contiguous
//!   vectors.
//! - **Packed bit streams** — [`QuantEngine::encode`] /
//!   [`QuantEngine::decode`] produce and consume the Fig. 4 layout;
//!   [`crate::mx::MxTensor`] delegates here.
//! - **Strided 2-D kernels** — [`QuantEngine::quantize_dequantize_rows`]
//!   and [`QuantEngine::quantize_dequantize_cols`] quantize a row-major
//!   matrix along either axis *in place*. The column kernel walks blocks
//!   directly through a stride, replacing the seed's
//!   transpose → quantize → transpose round trip.
//! - **Integer codes** — [`QuantEngine::quantize_block_codes`] lowers a
//!   block to the sign/magnitude codes the `mx-hw` datapath consumes.
//!
//! Every one of them, and the GEMM's code lowering, plans and rounds on
//! one **fast block core** (integer exponent scan, exact power-of-two
//! reciprocal, branch-free ties-to-even): a scalar tier that serves every
//! block, and an AVX-512 tier, bit-identical to it, that takes contiguous
//! whole blocks — and the GEMM's weight columns 16 at a time — when the
//! selected kernel backend ([`crate::gemm::selected_backend`]) is
//! `avx512`. The division form
//! (per-element exponent scan and `f64` division) lives on only as
//! [`oracle`], the reference the suites and debug builds compare against.
//!
//! The value kernels have a chunked data-parallel front-end (see
//! [`crate::parallel`]): construct the engine with
//! [`QuantEngine::with_threads`] and large tensors are split into
//! block-aligned spans across worker threads. Because blocks are
//! independent, the parallel result is **bit-identical** to the serial one.
//! The packed codec and the block codes always run serially.
//!
//! # Examples
//!
//! ```
//! use mx_core::bdr::BdrFormat;
//! use mx_core::engine::QuantEngine;
//!
//! let engine = QuantEngine::new(BdrFormat::MX6);
//! let x: Vec<f32> = (0..64).map(|i| (i as f32 * 0.3).sin()).collect();
//!
//! // Value path, packed path, and the format's own method all agree.
//! let q = engine.quantize_dequantize(&x);
//! assert_eq!(q, BdrFormat::MX6.quantize_dequantize(&x));
//! let bytes = engine.encode(&x);
//! assert_eq!(engine.decode(&bytes, x.len()), q);
//! ```

#[cfg(target_arch = "x86_64")]
mod avx512;
pub mod oracle;

use crate::bdr::{BdrFormat, QuantizedBlock};
use crate::bits::{BitReader, BitWriter};
use crate::parallel;
use crate::util::{exponent_of, pow2};

/// Minimum number of *elements* each worker thread must receive before
/// the engine bothers spawning it; below `2×` this the kernels stay serial.
/// Scoped threads are spawned per call, so tiny tensors must not pay the
/// spawn cost. (The GEMMs count multiply-accumulates against a grain of
/// their own, in [`crate::gemm`].)
pub const PARALLEL_GRAIN: usize = 16 * 1024;

/// Block-quantization engine for one [`BdrFormat`].
///
/// Construction is free; the engine is `Copy` and carries only the format
/// and a thread-count knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantEngine {
    format: BdrFormat,
    threads: usize,
}

impl QuantEngine {
    /// Serial engine for `format`.
    pub fn new(format: BdrFormat) -> Self {
        QuantEngine { format, threads: 1 }
    }

    /// Engine that uses every available core for large tensors
    /// (equivalent to `new(format).with_threads(0)`).
    pub fn auto(format: BdrFormat) -> Self {
        Self::new(format).with_threads(0)
    }

    /// Sets the worker-thread budget. `0` means "all available cores"
    /// ([`parallel::default_threads`], resolved once per process — building
    /// an engine never makes a system call). The budget applies to the
    /// value kernels; regardless of it, inputs smaller than `2 ×`
    /// [`PARALLEL_GRAIN`] are processed serially, and the parallel result
    /// is always bit-identical to the serial one.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            parallel::default_threads()
        } else {
            threads
        };
        self
    }

    /// The engine's format.
    pub fn format(&self) -> BdrFormat {
        self.format
    }

    /// The configured worker-thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn effective_threads(&self, len: usize) -> usize {
        if self.threads <= 1 || len < 2 * PARALLEL_GRAIN {
            1
        } else {
            self.threads.min(len / PARALLEL_GRAIN).max(1)
        }
    }

    // ------------------------------------------------------------------
    // (a) Value path
    // ------------------------------------------------------------------

    /// Quantizes `xs` (any length; the tail may form a partial block) and
    /// returns the dequantized values.
    ///
    /// Allocates the output and nothing else: the output starts as a copy
    /// of `xs` (its initialization — a zero fill would cost the same) and
    /// is quantized in place.
    pub fn quantize_dequantize(&self, xs: &[f32]) -> Vec<f32> {
        let mut out = xs.to_vec();
        self.quantize_dequantize_in_place(&mut out);
        out
    }

    /// Quantizes `xs` in place, without allocating (formats with more than
    /// 128 sub-blocks per block take one scratch per span).
    pub fn quantize_dequantize_in_place(&self, xs: &mut [f32]) {
        let threads = self.effective_threads(xs.len());
        let fmt = self.format;
        let core = BlockCore::new(&fmt);
        parallel::for_each_span_mut(xs, fmt.k1(), threads, |_, span| {
            with_sub_block_scratch(&fmt, |scratch| qdq_slice(&core, span, scratch));
        });
    }

    // ------------------------------------------------------------------
    // (c) Strided 2-D kernels
    // ------------------------------------------------------------------

    /// Quantizes each length-`cols` row of a row-major matrix
    /// independently, in place (blocks restart at every row boundary).
    ///
    /// # Panics
    ///
    /// Panics if `cols` is zero or `data.len()` is not a multiple of it.
    pub fn quantize_dequantize_rows(&self, data: &mut [f32], cols: usize) {
        if data.is_empty() {
            return;
        }
        assert!(
            cols > 0 && data.len().is_multiple_of(cols),
            "data length {} is not a whole number of rows of {cols} columns",
            data.len()
        );
        let threads = self.effective_threads(data.len());
        let fmt = self.format;
        let core = BlockCore::new(&fmt);
        parallel::for_each_span_mut(data, cols, threads, |_, span| {
            with_sub_block_scratch(&fmt, |scratch| {
                for row in span.chunks_mut(cols) {
                    qdq_slice(&core, row, scratch);
                }
            });
        });
    }

    /// Quantizes each column of a row-major `[rows, cols]` matrix
    /// independently, in place: blocks of `k1` run *down* each column
    /// (the reduction-dimension layout for the `W[K,N]` operand of `A·W`),
    /// walked directly through the row stride — no transpose is
    /// materialized.
    ///
    /// Equivalent to (but faster than) transposing, quantizing each row,
    /// and transposing back.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is zero or `data.len()` is not a multiple of it.
    pub fn quantize_dequantize_cols(&self, data: &mut [f32], cols: usize) {
        if data.is_empty() {
            return;
        }
        assert!(
            cols > 0 && data.len().is_multiple_of(cols),
            "data length {} is not a whole number of rows of {cols} columns",
            data.len()
        );
        let threads = self.effective_threads(data.len());
        let fmt = self.format;
        let k1 = fmt.k1();
        // Split on bands of k1 rows: every column block lies entirely
        // inside one band, so bands are independent (and parallel-safe).
        parallel::for_each_span_mut(data, k1 * cols, threads, |_, band| {
            let band_rows = band.len() / cols;
            with_sub_block_scratch(&fmt, |scratch| {
                for block_start in (0..band_rows).step_by(k1) {
                    let block_len = k1.min(band_rows - block_start);
                    let row_base = block_start * cols;
                    for c in 0..cols {
                        qdq_block(&fmt, band, row_base + c, cols, block_len, scratch);
                    }
                }
            });
        });
    }

    // ------------------------------------------------------------------
    // (b) Packed bit streams + integer codes
    // ------------------------------------------------------------------

    /// Encodes `values` into the packed Fig. 4 bit stream: per block, one
    /// `d1`-bit biased shared exponent, `k1/k2` microexponent shifts of
    /// `d2` bits, then `k1` elements of (sign, `m`-bit magnitude). A block
    /// with no finite nonzero element is written as all-zero fields.
    pub fn encode(&self, values: &[f32]) -> Vec<u8> {
        let fmt = &self.format;
        let mut w = BitWriter::new();
        let (mut shifts, mut signs, mut codes) = (Vec::new(), Vec::new(), Vec::new());
        for block in values.chunks(fmt.k1()) {
            let exp_code = block_codes_into(fmt, block, &mut shifts, &mut signs, &mut codes)
                .map_or(0, |e| (e as i64 + fmt.exp_bias()) as u64);
            w.write(exp_code, fmt.d1());
            for &shift in &shifts {
                w.write(shift as u64, fmt.d2());
            }
            // Sign then magnitude, MSB first: one `m + 1`-bit field.
            for (&neg, &code) in signs.iter().zip(&codes) {
                w.write(u64::from(neg) << fmt.m() | u64::from(code), fmt.m() + 1);
            }
        }
        w.into_bytes()
    }

    /// Decodes `len` elements from a packed bit stream produced by
    /// [`QuantEngine::encode`].
    ///
    /// # Panics
    ///
    /// Panics if the stream is truncated.
    pub fn decode(&self, bytes: &[u8], len: usize) -> Vec<f32> {
        let fmt = &self.format;
        let mut r = BitReader::new(bytes);
        let mut read = |bits| r.read(bits).expect("truncated stream");
        let mut out = Vec::with_capacity(len);
        let mut shifts = Vec::new();
        while out.len() < len {
            let block_len = (len - out.len()).min(fmt.k1());
            let shared_exp = (read(fmt.d1()) as i64 - fmt.exp_bias()) as i32;
            shifts.clear();
            for _ in 0..block_len.div_ceil(fmt.k2()) {
                shifts.push(read(fmt.d2()) as u32);
            }
            let mut left = block_len;
            for &shift in &shifts {
                let ulp = ulp_of(fmt, shared_exp, shift);
                for _ in 0..left.min(fmt.k2()) {
                    // Sign then magnitude: one `m + 1`-bit field. The sign
                    // bit goes straight onto the non-negative magnitude.
                    let field = read(fmt.m() + 1);
                    let mag = ((field & fmt.max_code()) as f64 * ulp) as f32;
                    out.push(f32::from_bits(
                        mag.to_bits() | ((field >> fmt.m()) as u32) << 31,
                    ));
                }
                left = left.saturating_sub(fmt.k2());
            }
        }
        out
    }

    /// Lowers one block to raw integer codes — the form a hardware datapath
    /// consumes. A block with no finite nonzero element returns shared
    /// exponent 0, zero shifts and zero codes.
    ///
    /// # Panics
    ///
    /// Panics if the block is longer than `k1`: one shared exponent covers
    /// at most `k1` elements.
    pub fn quantize_block_codes(&self, block: &[f32]) -> QuantizedBlock {
        let fmt = self.format;
        assert!(
            block.len() <= fmt.k1(),
            "block of {} exceeds k1 = {}",
            block.len(),
            fmt.k1()
        );
        let (mut shifts, mut signs, mut codes) = (Vec::new(), Vec::new(), Vec::new());
        let shared_exp = block_codes_into(&fmt, block, &mut shifts, &mut signs, &mut codes);
        QuantizedBlock {
            format: fmt,
            shared_exp: shared_exp.unwrap_or(0),
            shifts,
            signs,
            codes,
        }
    }
}

// ----------------------------------------------------------------------
// The fast block core: the one implementation of the BDR block plan and
// its rounding rule in production.
// ----------------------------------------------------------------------

/// One unit in the last place for a sub-block at `shared_exp − shift` with
/// an `m`-bit mantissa of the form `b0.b1…b(m−1)`.
#[inline]
pub(crate) fn ulp_of(fmt: &BdrFormat, shared_exp: i32, shift: u32) -> f64 {
    pow2(shared_exp - shift as i32 - (fmt.m() as i32 - 1))
}

/// Storage width for shift-aligned signed integer codes (`i8` for a narrow
/// weight plane whose format's aligned codes fit a byte, `i16` for other
/// narrow planes and every narrow activation, `i32` for wide pairs) — lets
/// [`BlockCore::lower_block_strided_into`] write the consuming kernel's
/// width directly, with no intermediate staging pass. The conversion must
/// be lossless for every value the code-domain dispatch admits
/// (`crate::gemm`'s width rules guarantee it).
pub(crate) trait AlignedCode: Copy + Send + Sync + PartialEq + std::fmt::Debug {
    /// All-zero code (block padding).
    const ZERO: Self;
    /// Lossless narrowing from the aligned `i32` code.
    fn from_aligned(aligned: i32) -> Self;
}

impl AlignedCode for i8 {
    const ZERO: Self = 0;

    #[inline(always)]
    fn from_aligned(aligned: i32) -> Self {
        debug_assert!(i32::from(aligned as i8) == aligned);
        aligned as i8
    }
}

impl AlignedCode for i16 {
    const ZERO: Self = 0;

    #[inline(always)]
    fn from_aligned(aligned: i32) -> Self {
        debug_assert!(i32::from(aligned as i16) == aligned);
        aligned as i16
    }
}

impl AlignedCode for i32 {
    const ZERO: Self = 0;

    #[inline(always)]
    fn from_aligned(aligned: i32) -> Self {
        aligned
    }
}

/// `2^52` — adding and subtracting it forces the FPU's round-to-nearest
/// (ties-to-even) at integer granularity, the classic branch-free form of
/// [`crate::util::round_half_even`].
const ROUND_BIAS: f64 = 4_503_599_627_370_496.0;

/// Branch-free [`crate::util::round_half_even`] for the magnitudes the
/// fast block core produces, bit-identical to the `floor`-based helper
/// everywhere the two are composed with the `min(max_code)` clamp:
///
/// - for `0 ≤ v < 2^52`, `(v + 2^52) − 2^52` rounds `v` at integer
///   granularity under the default IEEE round-to-nearest-even mode and the
///   subtraction is exact — this *is* `roundTiesToEven(v)`;
/// - for `v ≥ 2^52` both forms yield a value `≥ 2^52 − 1 > max_code`, so
///   the clamp saturates identically;
/// - `inf` propagates (`as u64` saturates, clamp hits `max_code`) and NaN
///   converts to 0 on both paths.
#[inline(always)]
fn round_half_even_fast(v: f64) -> f64 {
    (v + ROUND_BIAS) - ROUND_BIAS
}

/// Folds one element into a running maximum of IEEE-754 abs bit patterns,
/// skipping exactly what [`oracle::plan_into`] skips
/// (`x != 0.0 && x.is_finite()` ⇔ `0 < abs bits < 0x7f80_0000`; zero never
/// raises the maximum).
#[inline(always)]
fn fold_abs_bits(acc: u32, x: f32) -> u32 {
    let abs = x.to_bits() & 0x7fff_ffff;
    if abs < 0x7f80_0000 && abs > acc {
        abs
    } else {
        acc
    }
}

/// The planning half of the fast block core — [`oracle::plan_into`]
/// restructured for the hot loops without moving a single decision —
/// shared by the GEMM's code lowering ([`lower_block_scalar`]), the packed
/// codec and block codes ([`block_codes_into`]) and the value kernel
/// ([`qdq_block`]).
///
/// Plans the block `data[base + i·stride], i in 0..len` into `shifts`,
/// which must hold exactly one slot per `k2`-sub-block
/// (`len.div_ceil(k2)`), and returns the shared exponent, or `None` for a
/// block with no finite nonzero element (`shifts` is then unspecified).
///
/// - Pass 1 is **one branch-light integer scan** over the abs bit
///   patterns: the exponent is monotone in them, so each sub-block's
///   largest exponent is the exponent of its largest-`|x|` finite element.
///   The per-sub-block maxima are staged in `shifts`; the block maximum is
///   the maximum over them.
/// - Pass 2 turns the staged maxima into microexponent shifts with
///   [`exponent_of`], the clamp and the shift formula reused verbatim
///   (all-zero sub-blocks take the maximum shift).
///
/// A debug-build assertion cross-checks the plan against
/// [`oracle::plan_into`].
#[inline(always)]
fn plan_fast(
    fmt: &BdrFormat,
    data: &[f32],
    base: usize,
    stride: usize,
    len: usize,
    shifts: &mut [u32],
) -> Option<i32> {
    debug_assert!(len <= fmt.k1(), "block of {len} exceeds k1 = {}", fmt.k1());
    let k2 = fmt.k2();
    debug_assert_eq!(shifts.len(), len.div_ceil(k2));
    let beta = fmt.max_shift();
    let mut block_max = 0u32;
    let mut idx = base;
    let mut left = len;
    for slot in shifts.iter_mut() {
        let sub_len = k2.min(left);
        let mut acc = 0;
        for _ in 0..sub_len {
            acc = fold_abs_bits(acc, data[idx]);
            idx += stride;
        }
        left -= sub_len;
        *slot = acc;
        block_max = block_max.max(acc);
    }
    if block_max == 0 {
        return None;
    }
    let shared_exp =
        exponent_of(f32::from_bits(block_max)).clamp(fmt.min_shared_exp(), fmt.max_shared_exp());
    for s in shifts.iter_mut() {
        *s = if *s == 0 {
            beta
        } else {
            let e_i = exponent_of(f32::from_bits(*s));
            (shared_exp.saturating_sub(e_i).max(0) as u32).min(beta)
        };
    }
    #[cfg(debug_assertions)]
    {
        let mut check = Vec::new();
        let check_exp = oracle::plan_into(fmt, data, base, stride, len, &mut check);
        debug_assert_eq!(check_exp, Some(shared_exp), "fast plan: shared exp");
        debug_assert_eq!(&check[..], &shifts[..], "fast plan: shifts");
    }
    Some(shared_exp)
}

/// The rounding half of the fast block core: `|x| / ulp` rounded to the
/// nearest integer, ties to even, with the per-element division replaced
/// by a multiplication by the ulp's reciprocal `inv_ulp` (hoisted out of
/// the element loop by the callers) and the `floor`-based tie break by
/// [`round_half_even_fast`].
///
/// Composed with the `max_code` clamp this is [`oracle::quantize_code`],
/// bit for bit, for every format [`BdrFormat::new`] admits and every `f32`
/// input —
/// including the formats the code domain rejects, which only the value
/// path serves:
///
/// - the ulp is `2^e` with `e = shared_exp − τ − (m − 1)` and
///   `shared_exp ∈ [−127, 128]`, `τ ≤ 15`, `m ≤ 23`, so `e ∈ [−164, 128]`
///   (`d1 = 8` with a deep mantissa reaches far below `f32`'s subnormal
///   floor): [`pow2`] is exact for `|e| ≤ 1022`, hence so is the
///   reciprocal `2^−e`, and scaling a finite `|x| ∈ [2^−149, 2^128)` by it
///   is an exact exponent adjustment inside `f64`'s normal range — the
///   quotient the division yields;
/// - a narrow `d1` clamps the shared exponent far below a large input's
///   own (`d1 = 4`: at most 8), so quotients reach `2^120`: any `v ≥ 2^52`
///   saturates at `max_code` on both rounding forms (see
///   [`round_half_even_fast`]);
/// - `±Inf` stays `+Inf` (clamps to `max_code`) and NaN stays NaN (code 0:
///   what `as u64` makes of it on the division path).
#[inline(always)]
fn rounded_quotient(x: f32, inv_ulp: f64) -> f64 {
    round_half_even_fast(x.abs() as f64 * inv_ulp)
}

/// [`rounded_quotient`] clamped and lowered to the shift-aligned signed
/// integer code the GEMM kernels consume. Zeros (incl. `-0.0`) carry
/// sign 0, matching the engine's value and packed paths.
#[inline(always)]
fn aligned_code_fast<C: AlignedCode>(x: f32, inv_ulp: f64, max_code: u64, align: u32) -> C {
    if x == 0.0 {
        C::ZERO
    } else {
        let code = (rounded_quotient(x, inv_ulp) as u64).min(max_code);
        let aligned = (code as i32) << align;
        C::from_aligned(if x.is_sign_negative() {
            -aligned
        } else {
            aligned
        })
    }
}

/// The fast block core for one format, with its tier resolved: the scalar
/// core ([`plan_fast`] + [`rounded_quotient`]) serves every block, and on a
/// CPU with AVX-512 F/CD/DQ/BW/VL — while the selected kernel backend is
/// `avx512`, so `MX_KERNEL_BACKEND` and
/// [`crate::gemm::force_kernel_backend`] narrow this tier together with
/// the GEMM kernels — the `avx512` submodule takes, bit-identically,
/// contiguous whole blocks of a shape it covers
/// ([`Self::lower_block_strided_into`] at stride 1) and bands of 16
/// adjacent columns ([`Self::lower_lanes_into`], its vertical tier, for
/// `k1 = 16`). Build one per slice or pack call, not per block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockCore<'a> {
    fmt: &'a BdrFormat,
    #[cfg(target_arch = "x86_64")]
    simd: Option<avx512::Kernel>,
}

impl<'a> BlockCore<'a> {
    /// Resolves the tier for `fmt` from the selected backend and the
    /// detected CPU features.
    pub(crate) fn new(fmt: &'a BdrFormat) -> Self {
        Self::with_tier(
            fmt,
            crate::gemm::selected_backend() == crate::gemm::KernelBackend::Avx512,
        )
    }

    /// The core for `fmt` on the scalar tier alone (`vector = false`), or
    /// with the vector tier wherever the CPU and the block shape allow it,
    /// whatever backend is selected.
    pub(crate) fn with_tier(fmt: &'a BdrFormat, vector: bool) -> Self {
        #[cfg(not(target_arch = "x86_64"))]
        let _ = vector;
        BlockCore {
            fmt,
            #[cfg(target_arch = "x86_64")]
            simd: vector.then(|| avx512::Kernel::new(fmt)).flatten(),
        }
    }

    /// The format the core plans for.
    pub(crate) fn format(&self) -> &'a BdrFormat {
        self.fmt
    }

    /// Plans the block `data[base + i·stride], i in 0..len` (`len ≤ k1`)
    /// and lowers it straight to shift-aligned signed integer codes in one
    /// pass — the entry [`crate::gemm`]'s packer walks rows (stride 1)
    /// through, and `B[K,N]`'s columns (stride `n`, no transpose
    /// materialized) for every plane but the AVX-512 one (see
    /// [`Self::lower_lanes_into`]).
    /// Returns the block's shared exponent, which is also the plan
    /// metadata the packer's deferred-scale-out bookkeeping (per-vector
    /// exponent uniformity) consumes, or `None` for an all-zero block like
    /// [`oracle::plan_into`].
    ///
    /// `codes` must hold exactly `k1` slots; every slot is written (the
    /// ragged tail past `len` is zeroed, as is the whole slot array for an
    /// all-zero block). `shifts` is the caller's sub-block scratch: it
    /// never outgrows `k1 / k2` slots, and since [`plan_fast`] overwrites
    /// every slot, a scratch already of the right size — every block but a
    /// ragged tail — is used as it is.
    ///
    /// Every code is bit-identical to the division form
    /// ([`oracle::plan_into`] + [`oracle::quantize_code`]) on either tier
    /// (the `gemm_fused` and `engine_consistency` suites assert it across
    /// preset pairs, random formats and stress data).
    #[inline(always)]
    pub(crate) fn lower_block_strided_into<C: AlignedCode>(
        &self,
        data: &[f32],
        base: usize,
        stride: usize,
        len: usize,
        shifts: &mut Vec<u32>,
        codes: &mut [C],
    ) -> Option<i32> {
        #[cfg(target_arch = "x86_64")]
        if let Some(simd) = self.simd.filter(|s| stride == 1 && s.lowers(len)) {
            let shared_exp = simd.lower_block(&data[base..base + len], codes);
            #[cfg(debug_assertions)]
            {
                let mut check = vec![C::ZERO; codes.len()];
                let check_exp =
                    lower_block_scalar(self.fmt, data, base, 1, len, shifts, &mut check);
                debug_assert_eq!(check_exp, shared_exp, "vector core: shared exp");
                debug_assert_eq!(&check[..], &codes[..], "vector core: codes");
            }
            return shared_exp;
        }
        lower_block_scalar(self.fmt, data, base, stride, len, shifts, codes)
    }

    /// Lowers one band of 16 adjacent columns into the column-in-lane
    /// layout the AVX-512 GEMM consumes (`k1 = 16`): column `l < lanes` is
    /// the block `data[base + r·stride + l], r < rows` (`rows ≤ 16`, the
    /// ragged tail of a column zero-filled as in
    /// [`Self::lower_block_strided_into`]), lanes from `lanes` on are
    /// all-zero columns. `codes` (256 slots) receives the 16 blocks
    /// `[pair][lane][2]`: pair `p` of lane `l` at `p·32 + 2l`. `exps` (16
    /// slots) receives each lane's shared exponent, 0 for an all-zero
    /// block, and every live block advances its column's fold in `uexp`
    /// (`lanes` slots) by [`note_exp`]. Every slot of `codes` and `exps`
    /// is written.
    ///
    /// On the vector tier this is the vertical kernel: a row is one
    /// contiguous load, the maxima are lane-wise down the rows, and the
    /// codes are interleaved in registers. The scalar tier lowers each
    /// column through [`lower_block_scalar`] and interleaves its pairs.
    /// Both write the same bits; debug builds re-run every vertical group
    /// on the scalar tier and assert it.
    ///
    /// # Panics
    ///
    /// Panics unless `k1 = 16`, `1 ≤ lanes ≤ 16`, `rows ≤ 16` and the
    /// slices have the sizes above.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // band geometry + scratch + three outputs
    pub(crate) fn lower_lanes_into<C: AlignedCode>(
        &self,
        data: &[f32],
        base: usize,
        stride: usize,
        rows: usize,
        lanes: usize,
        shifts: &mut Vec<u32>,
        codes: &mut [C],
        exps: &mut [i32],
        uexp: &mut [i32],
    ) {
        #[cfg(target_arch = "x86_64")]
        if let Some(simd) = self.simd.filter(|s| s.lowers_lanes()) {
            #[cfg(debug_assertions)]
            let folds = uexp.to_vec();
            simd.lower_lanes(data, base, stride, rows, lanes, codes, exps, uexp);
            #[cfg(debug_assertions)]
            {
                let (mut check, mut check_exps, mut check_uexp) =
                    (vec![C::ZERO; codes.len()], [0; LANE_GROUP], folds);
                let band = (base, stride, rows, lanes);
                let outs = (&mut check[..], &mut check_exps[..], &mut check_uexp[..]);
                lower_lanes_scalar(self.fmt, data, band, shifts, outs.0, outs.1, outs.2);
                debug_assert_eq!(&check[..], &codes[..], "vertical tier: codes");
                debug_assert_eq!(&check_exps[..], &exps[..], "vertical tier: shared exps");
                debug_assert_eq!(&check_uexp[..], &uexp[..], "vertical tier: uexp");
            }
            return;
        }
        let band = (base, stride, rows, lanes);
        lower_lanes_scalar(self.fmt, data, band, shifts, codes, exps, uexp);
    }
}

/// Columns per group of [`BlockCore::lower_lanes_into`]: one per `f32`
/// lane of a 512-bit vector.
const LANE_GROUP: usize = 16;

/// Sentinel of a running exponent-uniformity fold ([`note_exp`]) that has
/// seen no live block yet.
pub(crate) const EXP_UNSEEN: i32 = i32::MAX;

/// What a running exponent-uniformity fold ([`note_exp`]) reads once two
/// of its live blocks disagree; it stays there.
pub(crate) const EXP_MIXED: i32 = i32::MIN;

/// Folds a live block's shared exponent `e` into its vector's running
/// exponent-uniformity fold `acc` (which starts at [`EXP_UNSEEN`]): the
/// first live block's exponent, kept while every later one agrees, else
/// [`EXP_MIXED`]. The GEMM's deferred scale-out reads the finished fold.
#[inline(always)]
pub(crate) fn note_exp(acc: i32, e: i32) -> i32 {
    if acc == EXP_UNSEEN || acc == e {
        e
    } else {
        EXP_MIXED
    }
}

/// The scalar tier of [`BlockCore::lower_lanes_into`]; `band` is `(base,
/// stride, rows, lanes)`.
#[inline(always)]
fn lower_lanes_scalar<C: AlignedCode>(
    fmt: &BdrFormat,
    data: &[f32],
    (base, stride, rows, lanes): (usize, usize, usize, usize),
    shifts: &mut Vec<u32>,
    codes: &mut [C],
    exps: &mut [i32],
    uexp: &mut [i32],
) {
    assert!(fmt.k1() == LANE_GROUP && (1..=LANE_GROUP).contains(&lanes));
    assert!(codes.len() == LANE_GROUP * LANE_GROUP && exps.len() == LANE_GROUP);
    let mut block = [C::ZERO; LANE_GROUP];
    for (lane, exp) in exps.iter_mut().enumerate() {
        let e = if lane < lanes {
            lower_block_scalar(fmt, data, base + lane, stride, rows, shifts, &mut block)
        } else {
            block.fill(C::ZERO);
            None
        };
        // Pair `i` of this lane sits at `i·2·16 + 2·lane`.
        for (i, pair) in block.chunks_exact(2).enumerate() {
            codes[i * 2 * LANE_GROUP + 2 * lane..][..2].copy_from_slice(pair);
        }
        *exp = e.unwrap_or(0);
        if let Some(e) = e {
            uexp[lane] = note_exp(uexp[lane], e);
        }
    }
}

/// The scalar tier of [`BlockCore::lower_block_strided_into`].
#[inline(always)]
fn lower_block_scalar<C: AlignedCode>(
    fmt: &BdrFormat,
    data: &[f32],
    base: usize,
    stride: usize,
    len: usize,
    shifts: &mut Vec<u32>,
    codes: &mut [C],
) -> Option<i32> {
    debug_assert_eq!(codes.len(), fmt.k1());
    let k2 = fmt.k2();
    let slots = len.div_ceil(k2);
    if shifts.len() != slots {
        shifts.resize(slots, 0);
    }
    let Some(shared_exp) = plan_fast(fmt, data, base, stride, len, shifts) else {
        codes.fill(C::ZERO);
        return None;
    };
    let beta = fmt.max_shift();
    let max_code = fmt.max_code();
    let m1 = fmt.m() as i32 - 1;
    let mut done = 0;
    for &tau in shifts.iter() {
        let sub_len = k2.min(len - done);
        let inv_ulp = pow2(-(shared_exp - tau as i32 - m1));
        let align = beta - tau;
        let mut idx = base + done * stride;
        for dst in codes[done..done + sub_len].iter_mut() {
            *dst = aligned_code_fast(data[idx], inv_ulp, max_code, align);
            idx += stride;
        }
        done += sub_len;
    }
    codes[done..].fill(C::ZERO);
    Some(shared_exp)
}

/// Plans `block` (at most `k1` elements) on the fast core and lowers it to
/// the unaligned sign/magnitude codes of the packed codec and
/// [`QuantEngine::quantize_block_codes`]: `shifts` gets one shift per
/// `k2`-sub-block, `signs` and `codes` one entry per element. Returns the
/// shared exponent, or `None` — with every shift, sign and code zero — for
/// a block with no finite nonzero element.
fn block_codes_into(
    fmt: &BdrFormat,
    block: &[f32],
    shifts: &mut Vec<u32>,
    signs: &mut Vec<bool>,
    codes: &mut Vec<u32>,
) -> Option<i32> {
    let k2 = fmt.k2();
    shifts.clear();
    shifts.resize(block.len().div_ceil(k2), 0);
    signs.clear();
    codes.clear();
    let Some(shared_exp) = plan_fast(fmt, block, 0, 1, block.len(), shifts) else {
        shifts.fill(0);
        signs.resize(block.len(), false);
        codes.resize(block.len(), 0);
        return None;
    };
    let max_code = fmt.max_code();
    let m1 = fmt.m() as i32 - 1;
    for (sub, &tau) in block.chunks(k2).zip(shifts.iter()) {
        let inv_ulp = pow2(-(shared_exp - tau as i32 - m1));
        for &x in sub {
            // Zeros (including -0.0) carry sign 0 so code lowering, packed
            // streams and the value path dequantize to the same bit
            // pattern (+0.0).
            signs.push(x != 0.0 && x.is_sign_negative());
            codes.push((rounded_quotient(x, inv_ulp) as u64).min(max_code) as u32);
        }
    }
    Some(shared_exp)
}

/// Sub-block counts up to this plan on the stack in the value kernels
/// (covers every format of the Fig. 7 grid, `k1 = 128, k2 = 1` included);
/// a finer split takes one heap scratch per span.
const STACK_SUB_BLOCKS: usize = 128;

/// Runs `f` with a sub-block scratch of `k1 / k2` slots: an array on the
/// stack when that fits [`STACK_SUB_BLOCKS`], else one `Vec` that `f`
/// reuses across all of its span's blocks and rows.
#[inline(always)]
fn with_sub_block_scratch(fmt: &BdrFormat, f: impl FnOnce(&mut [u32])) {
    let slots = fmt.k1() / fmt.k2();
    if slots <= STACK_SUB_BLOCKS {
        f(&mut [0u32; STACK_SUB_BLOCKS][..slots]);
    } else {
        f(&mut vec![0u32; slots]);
    }
}

/// One element of the value path: `x` rounded onto the grid of ulp `ulp`
/// (`inv_ulp` its exact reciprocal) and back — the division oracle's
/// `(quantize_code(x, ulp, max_code) as f64 * ulp) as f32` with its sign.
///
/// The clamp stays in `f64` (`max_code` is passed converted), which spares
/// the integer round trip: the
/// [`rounded_quotient`] is integer-valued, `+Inf` or NaN; the comparison
/// clamps the first two exactly as `min(max_code)` does, and a NaN — which
/// passes through it and the product — is replaced by the oracle's code-0
/// magnitude. The dequantize product and cast are the oracle's own, and
/// `copysign` onto a non-negative magnitude is its sign branch. Zeros
/// (incl. `-0.0`) come back as `+0.0`.
#[inline(always)]
fn qdq_value(x: f32, inv_ulp: f64, ulp: f64, max_code: f64) -> f32 {
    let r = rounded_quotient(x, inv_ulp);
    let code = if r > max_code { max_code } else { r };
    let mag = if x.is_nan() { 0.0 } else { (code * ulp) as f32 };
    if x == 0.0 {
        0.0
    } else {
        mag.copysign(x)
    }
}

/// Fake-quantizes the block `data[base + i·stride], i in 0..len` in place,
/// on the fast block core. `scratch` holds at least `k1 / k2` slots.
#[inline(always)]
fn qdq_block(
    fmt: &BdrFormat,
    data: &mut [f32],
    base: usize,
    stride: usize,
    len: usize,
    scratch: &mut [u32],
) {
    let k2 = fmt.k2();
    let shifts = &mut scratch[..len.div_ceil(k2)];
    let Some(shared_exp) = plan_fast(fmt, data, base, stride, len, shifts) else {
        // No finite nonzero element: the block quantizes to zeros.
        let mut idx = base;
        for _ in 0..len {
            data[idx] = 0.0;
            idx += stride;
        }
        return;
    };
    let max_code = fmt.max_code() as f64;
    let m1 = fmt.m() as i32 - 1;
    let mut idx = base;
    let mut left = len;
    for &tau in shifts.iter() {
        let e = shared_exp - tau as i32 - m1;
        let (inv_ulp, ulp) = (pow2(-e), pow2(e));
        let sub_len = k2.min(left);
        for _ in 0..sub_len {
            data[idx] = qdq_value(data[idx], inv_ulp, ulp, max_code);
            idx += stride;
        }
        left -= sub_len;
    }
}

/// Fake-quantizes a contiguous slice in place, block by block: the leading
/// whole blocks on the core's vector tier where it has one, the rest (all
/// of it otherwise) on the scalar tier.
fn qdq_slice(core: &BlockCore<'_>, xs: &mut [f32], scratch: &mut [u32]) {
    let fmt = core.fmt;
    let k1 = fmt.k1();
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    #[cfg(target_arch = "x86_64")]
    let done = core.simd.map_or(0, |simd| {
        #[cfg(debug_assertions)]
        let mut check = xs.to_vec();
        let done = simd.qdq_prefix(xs);
        #[cfg(debug_assertions)]
        {
            check.truncate(done);
            for start in (0..done).step_by(k1) {
                qdq_block(fmt, &mut check, start, 1, k1, scratch);
            }
            let same = |(a, b): (&f32, &f32)| a.to_bits() == b.to_bits();
            debug_assert!(
                check.iter().zip(&xs[..done]).all(same),
                "vector core: values differ from the scalar core ({fmt})"
            );
        }
        done
    });
    for start in (done..xs.len()).step_by(k1) {
        qdq_block(fmt, xs, start, 1, k1.min(xs.len() - start), scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.037)
            .collect()
    }

    const FORMATS: [BdrFormat; 5] = [
        BdrFormat::MX4,
        BdrFormat::MX6,
        BdrFormat::MX9,
        BdrFormat::MSFP12,
        BdrFormat::MSFP16,
    ];

    #[test]
    fn value_path_matches_format_method() {
        for fmt in FORMATS {
            let x = ramp(100);
            let engine = QuantEngine::new(fmt);
            assert_eq!(
                engine.quantize_dequantize(&x),
                fmt.quantize_dequantize(&x),
                "{fmt}"
            );
        }
    }

    #[test]
    fn cols_kernel_matches_transpose_oracle() {
        for fmt in [BdrFormat::MX6, BdrFormat::MX9, BdrFormat::MSFP12] {
            for (rows, cols) in [(16, 3), (37, 5), (33, 7), (16, 16), (1, 4), (5, 1)] {
                let engine = QuantEngine::new(fmt);
                let data = ramp(rows * cols);
                // Oracle: transpose, quantize each row, transpose back.
                let mut expect = vec![0.0f32; rows * cols];
                for c in 0..cols {
                    let col: Vec<f32> = (0..rows).map(|r| data[r * cols + c]).collect();
                    let q = fmt.quantize_dequantize(&col);
                    for (r, v) in q.into_iter().enumerate() {
                        expect[r * cols + c] = v;
                    }
                }
                let mut got = data.clone();
                engine.quantize_dequantize_cols(&mut got, cols);
                assert_eq!(got, expect, "{fmt} {rows}x{cols}");
            }
        }
    }

    #[test]
    fn rows_kernel_matches_per_row_quantization() {
        let fmt = BdrFormat::MX6;
        let engine = QuantEngine::new(fmt);
        let (rows, cols) = (5, 21);
        let data = ramp(rows * cols);
        let mut got = data.clone();
        engine.quantize_dequantize_rows(&mut got, cols);
        for r in 0..rows {
            let expect = fmt.quantize_dequantize(&data[r * cols..(r + 1) * cols]);
            assert_eq!(&got[r * cols..(r + 1) * cols], &expect[..], "row {r}");
        }
    }

    #[test]
    fn parallel_value_path_is_bit_identical_to_serial() {
        let fmt = BdrFormat::MX9;
        let n = 4 * PARALLEL_GRAIN + 7; // force the parallel path, ragged tail
        let x = ramp(n);
        let serial = QuantEngine::new(fmt).quantize_dequantize(&x);
        for threads in [2, 3, 8] {
            let par = QuantEngine::new(fmt)
                .with_threads(threads)
                .quantize_dequantize(&x);
            let same_bits = serial
                .iter()
                .zip(par.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same_bits, "threads={threads}");
        }
    }

    #[test]
    fn parallel_cols_kernel_is_bit_identical_to_serial() {
        let fmt = BdrFormat::MX6;
        let (rows, cols) = (512, 300); // > 2 * PARALLEL_GRAIN elements
        let data = ramp(rows * cols);
        let mut serial = data.clone();
        QuantEngine::new(fmt).quantize_dequantize_cols(&mut serial, cols);
        let mut par = data.clone();
        QuantEngine::new(fmt)
            .with_threads(4)
            .quantize_dequantize_cols(&mut par, cols);
        assert!(serial
            .iter()
            .zip(par.iter())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn encode_decode_round_trip_partial_blocks() {
        for fmt in FORMATS {
            for n in [1usize, 5, 15, 16, 17, 31, 33, 100] {
                let x = ramp(n);
                let engine = QuantEngine::new(fmt);
                let bytes = engine.encode(&x);
                assert_eq!(
                    engine.decode(&bytes, n),
                    fmt.quantize_dequantize(&x),
                    "{fmt} n={n}"
                );
            }
        }
    }

    #[test]
    fn block_codes_match_value_path() {
        for fmt in FORMATS {
            let x = ramp(16);
            let engine = QuantEngine::new(fmt);
            let qb = engine.quantize_block_codes(&x);
            assert_eq!(qb.dequantize(), engine.quantize_dequantize(&x), "{fmt}");
        }
    }

    #[test]
    fn zero_and_negative_zero_blocks() {
        let engine = QuantEngine::new(BdrFormat::MX6);
        let mut x = vec![0.0f32, -0.0, 0.0, -0.0];
        let q = engine.quantize_dequantize(&x);
        assert!(
            q.iter().all(|v| v.to_bits() == 0),
            "value path normalizes -0.0"
        );
        engine.quantize_dequantize_in_place(&mut x);
        assert!(x.iter().all(|v| v.to_bits() == 0));
    }

    /// The vector core's code epilogue against the scalar core, code for
    /// code and at every storage width (`i32`, `i16`, `i8`) — what the
    /// `engine_consistency` suite can only see through the products the
    /// codes feed.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_core_lowers_the_scalar_cores_codes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(22);
        let mut blocks = 0;
        for _ in 0..400 {
            let k1 = [16, 32, 64, 128][rng.gen_range(0..4usize)];
            let fmt = BdrFormat::random(&mut rng, Some(k1));
            let width = fmt.m() + fmt.max_shift();
            // `None`: a `k2` the vector core leaves alone, or no CPU support.
            let Some(simd) = avx512::Kernel::new(&fmt).filter(|s| s.lowers(k1) && width <= 30)
            else {
                continue;
            };
            for mode in 0..6u32 {
                let lift = rng.gen_range(1..250u32) << 23;
                let block: Vec<f32> = (0..k1)
                    .map(|_| {
                        let bits = rng.gen::<u32>();
                        f32::from_bits(match mode {
                            0 => bits,                                    // anything, NaN and Inf included
                            1 => bits & 0x807f_ffff,                      // subnormals and zeros
                            2 => bits & 0x8000_0000,                      // ±0 only
                            3 => bits | 0x7fc0_0000,                      // ±NaN only
                            _ => (bits & 0x81ff_ffff).wrapping_add(lift), // four binades apart at most
                        })
                    })
                    .collect();
                let mut shifts = Vec::new();
                let mut want = vec![0i32; k1];
                let want_exp = lower_block_scalar(&fmt, &block, 0, 1, k1, &mut shifts, &mut want);
                let mut got = vec![-1i32; k1];
                assert_eq!(simd.lower_block(&block, &mut got), want_exp, "{fmt}");
                assert_eq!(got, want, "{fmt} mode {mode}: i32 codes");
                if width <= 15 {
                    let mut got = vec![-1i16; k1];
                    assert_eq!(simd.lower_block(&block, &mut got), want_exp, "{fmt}");
                    let want: Vec<i16> = want.iter().map(|&c| i16::from_aligned(c)).collect();
                    assert_eq!(got, want, "{fmt} mode {mode}: i16 codes");
                }
                if width <= 7 {
                    let mut got = vec![-1i8; k1];
                    assert_eq!(simd.lower_block(&block, &mut got), want_exp, "{fmt}");
                    let want: Vec<i8> = want.iter().map(|&c| i8::from_aligned(c)).collect();
                    assert_eq!(got, want, "{fmt} mode {mode}: i8 codes");
                }
                blocks += 1;
            }
        }
        if blocks == 0 {
            eprintln!(
                "SKIPPED vector_core_lowers_the_scalar_cores_codes: no AVX-512 F/CD/DQ/BW/VL"
            );
        }
    }

    #[test]
    fn threads_knob() {
        let e = QuantEngine::new(BdrFormat::MX9);
        assert_eq!(e.threads(), 1);
        assert!(QuantEngine::auto(BdrFormat::MX9).threads() >= 1);
        assert_eq!(e.with_threads(6).threads(), 6);
        assert_eq!(e.format(), BdrFormat::MX9);
    }

    #[test]
    fn small_inputs_stay_serial_even_with_thread_budget() {
        // No observable difference, but exercises the effective_threads
        // gate: a 100-element tensor with an 8-thread budget must not split.
        let engine = QuantEngine::new(BdrFormat::MX4).with_threads(8);
        assert_eq!(engine.effective_threads(100), 1);
        assert!(engine.effective_threads(10 * PARALLEL_GRAIN) > 1);
    }
}

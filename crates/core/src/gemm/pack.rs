//! Operand lowering: code planes, the weight-side prepack, and the
//! reusable activation-side scratch.
//!
//! Packing is the only stage of the integer GEMM that reads `f32` data,
//! and [`pack_into`] is its one block loop for both operands: the weight
//! columns once per plane, each row span's activations on every execute
//! call. It lowers blocks through the engine's single-pass strided entry
//! (`engine::BlockCore::lower_block_strided_into` — one branch-light
//! integer scan for the plan, a hoisted reciprocal multiply and
//! branch-free round-to-even per element; contiguous whole blocks, i.e.
//! rows, on the core's vector tier where it has one).
//!
//! While lowering, the packer also records the per-vector **exponent
//! uniformity** metadata ([`PlaneView::uexp`]) the deferred-scale-out
//! decision consumes: for each packed vector, the one shared exponent all
//! its nonzero blocks agree on, or [`MIXED_EXP`] when they differ (all-zero
//! vectors report 0 — their dots vanish, so any grid is correct).

use super::pair::{fits_i8, FormatPair, PairClass};
use super::{panel_layout, PANEL_N_512};
use crate::bdr::BdrFormat;
use crate::engine::{self, AlignedCode};

/// Sentinel for "this vector's nonzero blocks do not share one exponent":
/// deferral is off for every output element the vector touches.
pub(super) const MIXED_EXP: i32 = i32::MIN;

/// Borrowed view of a code plane — what the execute kernels actually
/// consume: `vectors` reduction-dimension vectors (A rows or B columns),
/// each split into `blocks` `k1`-blocks, zero-padded so every block is
/// exactly `k1` codes. A [`PackedOperand`]'s plane and a
/// [`PackScratch`]-backed activation plane both lower to this, so the
/// kernels are oblivious to who owns the buffers.
#[derive(Clone, Copy)]
pub(super) struct PlaneView<'a, C> {
    pub(super) codes: &'a [C],
    pub(super) exps: &'a [i32],
    /// Per-vector uniform exponent or [`MIXED_EXP`].
    pub(super) uexp: &'a [i32],
    pub(super) blocks: usize,
    pub(super) k1: usize,
}

/// The storage of one code plane, in one code width — owned by a
/// [`PackedOperand`] for good, or by a [`PackScratch`] that clears and
/// refills it per call (reusing the capacity).
#[derive(Clone)]
pub(super) struct CodeBuf<C> {
    /// Signed, shift-aligned codes `± code · 2^(β − τ)`, laid out
    /// `[vector][block][k1]` — contiguous along the reduction dimension —
    /// or panel-major for the AVX2/AVX-512 panel kernels (see
    /// [`PackedOperand::pack_cols`] and [`panel_slot`]; the AVX-512 plane
    /// is padded to whole 16-column panels).
    pub(super) codes: Vec<C>,
    /// Shared exponent per `[vector][block]` slot (0 for all-zero blocks,
    /// whose codes are all zero anyway).
    pub(super) exps: Vec<i32>,
    /// Per-vector uniform shared exponent, or [`MIXED_EXP`] — the
    /// deferred-scale-out metadata.
    pub(super) uexp: Vec<i32>,
    /// Per-block microexponent shift workspace for the engine's planner.
    pub(super) shifts: Vec<u32>,
}

impl<C> Default for CodeBuf<C> {
    fn default() -> Self {
        CodeBuf {
            codes: Vec::new(),
            exps: Vec::new(),
            uexp: Vec::new(),
            shifts: Vec::new(),
        }
    }
}

impl<C: AlignedCode> CodeBuf<C> {
    /// Zero-fills the buffers for `vectors` vectors of `blocks` blocks,
    /// with code and exponent storage for `stored ≥ vectors` of them.
    pub(super) fn reset(&mut self, vectors: usize, stored: usize, blocks: usize, k1: usize) {
        self.codes.clear();
        self.codes.resize(stored * blocks * k1, C::ZERO);
        self.exps.clear();
        self.exps.resize(stored * blocks, 0);
        self.uexp.clear();
        self.uexp.resize(vectors, 0);
    }

    pub(super) fn view(&self, blocks: usize, k1: usize) -> PlaneView<'_, C> {
        PlaneView {
            codes: &self.codes,
            exps: &self.exps,
            uexp: &self.uexp,
            blocks,
            k1,
        }
    }

    /// Bytes of code and exponent storage held.
    fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.codes[..]) + std::mem::size_of_val(&self.exps[..])
    }
}

/// Folds one vector's block exponents into its [`PlaneView::uexp`] entry.
#[derive(Default)]
pub(super) struct UniformExp {
    seen: Option<i32>,
    mixed: bool,
}

impl UniformExp {
    /// Records a nonzero block's shared exponent.
    pub(super) fn note(&mut self, e: i32) {
        match self.seen {
            None => self.seen = Some(e),
            Some(prev) if prev != e => self.mixed = true,
            _ => {}
        }
    }

    /// The uniform exponent, [`MIXED_EXP`], or 0 for an all-zero vector.
    pub(super) fn finish(self) -> i32 {
        if self.mixed {
            MIXED_EXP
        } else {
            self.seen.unwrap_or(0)
        }
    }
}

/// Lowers `vectors` strided vectors of `len` elements to aligned codes in
/// `buf`. Vector `v` reads `data[base_of(v) + i·stride]` — rows use
/// `(|i| i·len, 1)`, columns of a `[len, vectors]` matrix use
/// `(|j| j, vectors)`. `slot_of(v, kb)` picks the storage layout: A and
/// the scalar kernel's B use vector-major `v·blocks + kb`, the panel
/// kernels consume B packed panel-major (see [`PackedOperand::pack_cols`]).
/// With `lanes > 1` the slots come in groups of `lanes` (one block of
/// every column of a panel, the plane padded to a multiple of `lanes`
/// columns), and a block's codes are interleaved with its group's in K
/// pairs (see [`panel_slot`]); `lanes = 1` stores each block's `k1` codes
/// contiguously.
/// Inlined so the execute entry's per-span call folds its stride and
/// layout into the loop.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // operand geometry + layout + buffers
pub(super) fn pack_into<C: AlignedCode>(
    data: &[f32],
    vectors: usize,
    len: usize,
    base_of: impl Fn(usize) -> usize,
    stride: usize,
    slot_of: impl Fn(usize, usize) -> usize,
    lanes: usize,
    fmt: &BdrFormat,
    buf: &mut CodeBuf<C>,
) {
    let k1 = fmt.k1();
    let blocks = len.div_ceil(k1);
    buf.reset(vectors, vectors.next_multiple_of(lanes), blocks, k1);
    let core = engine::BlockCore::new(fmt);
    let mut block = vec![C::ZERO; if lanes > 1 { k1 } else { 0 }];
    for v in 0..vectors {
        let base = base_of(v);
        let mut uniform = UniformExp::default();
        for kb in 0..blocks {
            let start = kb * k1;
            let blen = k1.min(len - start);
            let slot = slot_of(v, kb);
            // The single-pass lowering writes all k1 slots (zeroing the
            // ragged tail, and the whole block when it is all-zero).
            let (src, shifts) = (base + start * stride, &mut buf.shifts);
            let e = if lanes == 1 {
                let codes = &mut buf.codes[slot * k1..][..k1];
                core.lower_block_strided_into(data, src, stride, blen, shifts, codes)
            } else {
                let e = core.lower_block_strided_into(data, src, stride, blen, shifts, &mut block);
                // Interleave the block's code pairs with its panel's other
                // lanes: pair `i` of lane `l` sits at `i·2·lanes + 2·l`.
                let (lane, group) = (slot % lanes, (slot - slot % lanes) * k1);
                for (i, pair) in block.chunks_exact(2).enumerate() {
                    buf.codes[group + i * 2 * lanes + 2 * lane..][..2].copy_from_slice(pair);
                }
                e
            };
            if let Some(e) = e {
                buf.exps[slot] = e;
                uniform.note(e);
            }
        }
        buf.uexp[v] = uniform.finish();
    }
}

/// Block-slot index of `(column v, block kb)` in a panel-major plane of
/// `vectors` columns × `blocks` blocks with panels `panel_n` columns wide:
/// `[panel][block][lane]`, so a panel's exponents for one block are
/// contiguous. The per-block exponents use this slot order directly.
///
/// The AVX2 layout (`panel_n == `[`super::PANEL_N`]) stores the last
/// panel at its own width (`vectors mod panel_n` when nonzero), and a
/// slot's codes are the `k1` contiguous codes at `slot · k1`.
///
/// The AVX-512 layout (`panel_n == `[`PANEL_N_512`]) is **column-in-lane**:
/// every panel is 16 lanes wide, the last one zero-padded, and
/// [`pack_into`] interleaves a block's codes with its panel's other lanes
/// in K pairs — `[panel][block][pair][lane][2]`. With `k1 = 16` one pair
/// row is the 16 columns' codes `2p` and `2p + 1`, 32 contiguous codes:
/// one 512-bit load (`i16`) or one sign-extending 256-bit load (`i8`),
/// and one `vpdpwssd` against a broadcast A pair.
pub(super) fn panel_slot(
    v: usize,
    kb: usize,
    vectors: usize,
    blocks: usize,
    panel_n: usize,
) -> usize {
    let p = v / panel_n;
    let width = match panel_n {
        PANEL_N_512 => panel_n,
        _ => panel_n.min(vectors - p * panel_n),
    };
    let lane = v - p * panel_n;
    let base = p * panel_n * blocks;
    base + kb * width + lane
}

/// Lowers `B[k,n]`'s columns into a freshly allocated buffer.
fn pack_cols_buf<C: AlignedCode>(
    b: &[f32],
    k: usize,
    n: usize,
    slot_of: impl Fn(usize, usize) -> usize,
    lanes: usize,
    fmt: &BdrFormat,
) -> CodeBuf<C> {
    let mut buf = CodeBuf::default();
    pack_into(b, n, k, |j| j, n, slot_of, lanes, fmt, &mut buf);
    buf
}

/// The concrete code storage behind a [`PackedOperand`]; the variant is the
/// record of which kernel class the plane was packed for (`I8` and `I16`
/// are both narrow — the weight format alone picks between them, see
/// [`fits_i8`]).
#[derive(Clone)]
pub(super) enum Plane {
    /// `i8` codes: a narrow pair whose weight format's aligned codes fit a
    /// byte (MX6, MX4, MSFP12, MSFP16).
    I8(CodeBuf<i8>),
    /// `i16` codes: every other narrow pair (MX9 weights).
    I16(CodeBuf<i16>),
    /// `i32` codes (wide custom formats).
    I32(CodeBuf<i32>),
}

impl Plane {
    /// The kernel class this plane serves.
    fn class(&self) -> PairClass {
        match self {
            Plane::I8(_) | Plane::I16(_) => PairClass::Narrow,
            Plane::I32(_) => PairClass::Wide,
        }
    }
}

/// The weight operand `B[k,n]` lowered **once** to shift-aligned
/// sign/magnitude codes plus per-block shared exponents — the reusable
/// "prepack" half of the prepack/execute split.
///
/// Built by [`PackedOperand::pack_cols`] against a *partner* (activation)
/// format. The codes themselves depend only on the weight format; the
/// partner decides the kernel class — narrow or wide (`i32` codes) — and
/// the storage layout (panel-major when a panel backend will consume it).
/// Inside the narrow class the weight format alone picks the storage
/// width: `i8` when its largest aligned magnitude `max_code ≪ β` is at
/// most 127 (MX6, MX4, MSFP12, MSFP16), `i16` otherwise (MX9). The
/// plane records that class and answers [`PackedOperand::accepts`] for any
/// activation format: every partner landing in the same class executes
/// against it — e.g. a plane packed for an MX6 partner also serves MX9
/// activations, since every preset pair is narrow — and
/// [`super::quantized_gemm_prepacked_scratch`] returns `None` exactly when
/// `accepts` is false (it never silently re-lowers).
///
/// Packing is the only stage that reads weight `f32` data. Weights are
/// static across inference steps, so `mx-nn` caches the plane on the
/// tensor and amortizes this cost to zero.
#[derive(Clone)]
pub struct PackedOperand {
    pub(super) fmt: BdrFormat,
    /// Reduction-dimension length `K`.
    pub(super) len: usize,
    /// Number of packed columns `N`.
    pub(super) vectors: usize,
    /// Panel width of the codes' layout: 0 for vector-major, else the
    /// columns-per-panel the plane was packed with ([`super::PANEL_N`] for
    /// the AVX2 kernels, [`PANEL_N_512`] column-in-lane for AVX-512 — see
    /// [`panel_slot`]). Execution always follows this recorded width, not
    /// the currently selected backend.
    pub(super) panel_n: usize,
    pub(super) plane: Plane,
}

impl std::fmt::Debug for PackedOperand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PackedOperand({} x{} columns, k={}, {}{})",
            self.fmt,
            self.vectors,
            self.len,
            match self.plane {
                Plane::I8(_) => "i8",
                Plane::I16(_) => "i16",
                Plane::I32(_) => "i32",
            },
            match self.panel_n {
                0 => String::new(),
                w => format!(", panel-major x{w}"),
            },
        )
    }
}

impl PackedOperand {
    /// Lowers `B[k,n]`'s columns to aligned integer codes for multiplication
    /// against `fa`-format activations. Returns `None` when the `(fa, fb)`
    /// pair is unsupported (see [`super::code_domain_supported`]).
    ///
    /// When a narrow panel kernel will consume the plane (the selected
    /// backend — see [`super::kernel_backend_name`] — is a panel backend
    /// and the block size matches), columns are laid out **panel-major**:
    /// columns are grouped into panels of the backend's width
    /// ([`super::PANEL_N`] for AVX2, [`PANEL_N_512`] for AVX-512), and
    /// within a panel the codes are ordered `[block][lane][k1]` (AVX2) or
    /// column-in-lane `[block][pair][lane][2]` (AVX-512 — see
    /// [`panel_slot`]) — so one panel's entire reduction
    /// (`blocks · panel_n · k1` codes, ≈ 4–8 KB at the serving shapes) is
    /// a single contiguous, L1-resident streak. When `n mod panel_n ≠ 0`
    /// the last AVX2 panel is simply narrower, and the last AVX-512 panel
    /// is zero-padded to 16 columns. (A plain `[block][column][k1]`
    /// block-major order would put consecutive blocks of one panel `n·k1`
    /// codes apart — a large power-of-two stride at typical layer widths
    /// that aliases the same L1 sets and thrashes the cache.)
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k·n`.
    pub fn pack_cols(b: &[f32], k: usize, n: usize, fa: BdrFormat, fb: BdrFormat) -> Option<Self> {
        let pair = FormatPair::new(&fa, &fb)?;
        assert_eq!(b.len(), k * n, "B is not {k}x{n}");
        let blocks = k.div_ceil(pair.k1);
        let panel_n = match pair.class {
            PairClass::Narrow => panel_layout(pair.k1),
            PairClass::Wide => 0,
        };
        let lanes = if panel_n == PANEL_N_512 { panel_n } else { 1 };
        let slot_of = |v: usize, kb: usize| match panel_n {
            0 => v * blocks + kb,
            w => panel_slot(v, kb, n, blocks, w),
        };
        let plane = match pair.class {
            PairClass::Narrow if fits_i8(&fb) => {
                Plane::I8(pack_cols_buf(b, k, n, slot_of, lanes, &fb))
            }
            PairClass::Narrow => Plane::I16(pack_cols_buf(b, k, n, slot_of, lanes, &fb)),
            PairClass::Wide => Plane::I32(pack_cols_buf(b, k, n, slot_of, lanes, &fb)),
        };
        Some(PackedOperand {
            fmt: fb,
            len: k,
            vectors: n,
            panel_n,
            plane,
        })
    }

    /// The pair descriptor for executing `fa`-format activations against
    /// this plane, or `None` when the plane does not accept them.
    pub(super) fn pair_with(&self, fa: &BdrFormat) -> Option<FormatPair> {
        FormatPair::new(fa, &self.fmt).filter(|pair| pair.class == self.plane.class())
    }

    /// Whether `fa`-format activations can execute against this plane: the
    /// `(fa, self.format())` pair is supported **and** lands in the kernel
    /// class the plane was packed for.
    /// [`super::quantized_gemm_prepacked_scratch`] returns `None` exactly
    /// when this is false, so callers decide by asking the plane — never by
    /// running a GEMM.
    ///
    /// # Examples
    ///
    /// ```
    /// use mx_core::bdr::BdrFormat;
    /// use mx_core::gemm::PackedOperand;
    ///
    /// let w = vec![0.5f32; 16 * 2];
    /// let plane = PackedOperand::pack_cols(&w, 16, 2, BdrFormat::MX6, BdrFormat::MX6).unwrap();
    /// // Every preset pair is narrow: one plane serves them all ...
    /// assert!(plane.accepts(&BdrFormat::MX9));
    /// // ... but a 16-bit-mantissa partner needs i32 codes this plane lacks.
    /// assert!(!plane.accepts(&BdrFormat::new(16, 8, 0, 16, 16).unwrap()));
    /// ```
    pub fn accepts(&self, fa: &BdrFormat) -> bool {
        self.pair_with(fa).is_some()
    }

    /// The BDR format the codes were quantized in.
    pub fn format(&self) -> BdrFormat {
        self.fmt
    }

    /// Reduction-dimension length `K`.
    pub fn k(&self) -> usize {
        self.len
    }

    /// Number of packed columns `N`.
    pub fn vectors(&self) -> usize {
        self.vectors
    }

    /// Bytes of code and exponent storage the plane holds — the memory the
    /// weight cache retains to skip per-call packing.
    pub fn packed_bytes(&self) -> usize {
        match &self.plane {
            Plane::I8(p) => p.bytes(),
            Plane::I16(p) => p.bytes(),
            Plane::I32(p) => p.bytes(),
        }
    }
}

/// Reusable buffers for activation-side lowering: a serial
/// [`super::quantized_gemm_prepacked_scratch`] call lowers its A rows into
/// them, so a steady-state forward pass allocates nothing for the
/// activation side (a call that fans out gives each row span a ring of its
/// own). Activation codes are `i16` for every narrow pair, whatever width
/// the weight plane stores, and `i32` for wide pairs; the two widths keep
/// separate buffers, so one scratch serves interleaved format classes
/// without reallocation churn.
///
/// A scratch is plain storage — it carries no format or shape state, so one
/// instance can serve any sequence of GEMMs (`mx-nn` keeps one per thread).
#[derive(Default)]
pub struct PackScratch {
    pub(super) narrow: CodeBuf<i16>,
    pub(super) wide: CodeBuf<i32>,
}

impl PackScratch {
    /// Creates an empty scratch; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

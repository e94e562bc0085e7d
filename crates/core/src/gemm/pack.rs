//! Operand lowering: code planes, the weight-side prepack, and the
//! reusable activation-side scratch.
//!
//! Packing is the only stage of the integer GEMM that reads `f32` data.
//! It has two block loops, both on the engine's fast block core (one
//! branch-light integer scan for the plan, a hoisted reciprocal multiply
//! and branch-free round-to-even per element):
//!
//! - [`pack_into`] lowers each row span's activations on every execute
//!   call, row by row through `engine::BlockCore::lower_block_strided_into`
//!   (contiguous whole blocks on the core's vector tier where it has one);
//! - [`pack_cols_into`] lowers the weight columns once per plane, band by
//!   band, 16 columns at a time into the one column-in-lane layout every
//!   backend reads (see [`panel_slot`]), through
//!   `engine::BlockCore::lower_lanes_into` — the core's vertical tier for
//!   `k1 = 16` where it has one, which writes the panel's quad or pair rows
//!   directly, and the scalar tier, column by column into the same slots,
//!   for every other block size or core.
//!
//! While lowering, the packer also records the per-vector **exponent
//! uniformity** metadata ([`PlaneView::uexp`]) the deferred-scale-out
//! decision consumes: for each packed vector, the one shared exponent all
//! its nonzero blocks agree on, or [`MIXED_EXP`] when they differ (all-zero
//! vectors report 0 — their dots vanish, so any grid is correct).

use super::pair::{fits_i8, FormatPair, PairClass};
use super::PANEL_COLS;
use crate::bdr::BdrFormat;
use crate::engine::{self, AlignedCode, EXP_UNSEEN};

/// Sentinel for "this vector's nonzero blocks do not share one exponent":
/// deferral is off for every output element the vector touches.
pub(super) const MIXED_EXP: i32 = engine::EXP_MIXED;

/// Borrowed view of a code plane — what the execute kernels actually
/// consume: `vectors` reduction-dimension vectors (A rows or B columns),
/// each split into `blocks` `k1`-blocks, zero-padded so every block is
/// exactly `k1` codes (a weight plane's blocks further to a whole lane
/// group, see [`panel_slot`]). A [`PackedOperand`]'s plane and a
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

/// One 16-column panel of a weight plane: its codes and per-block
/// exponents over the whole reduction, and its real columns' uniform
/// exponents.
pub(super) struct Panel<'a, C> {
    pub(super) codes: &'a [C],
    pub(super) exps: &'a [i32],
    /// One entry per real column (at most [`PANEL_COLS`]).
    pub(super) uexp: &'a [i32],
    /// The panel's first output column.
    pub(super) j: usize,
}

impl<'a, C> PlaneView<'a, C> {
    /// The panel of a weight plane of `n` columns that starts at column
    /// `j` (a multiple of [`PANEL_COLS`]).
    pub(super) fn panel(&self, j: usize, n: usize) -> Panel<'a, C> {
        let block_codes = PANEL_COLS * self.k1.next_multiple_of(engine::lane_k::<C>());
        let (p, blocks) = (j / PANEL_COLS, self.blocks);
        Panel {
            codes: &self.codes[p * blocks * block_codes..][..blocks * block_codes],
            exps: &self.exps[p * blocks * PANEL_COLS..][..blocks * PANEL_COLS],
            uexp: &self.uexp[j..n.min(j + PANEL_COLS)],
            j,
        }
    }
}

/// The storage of one code plane, in one code width — owned by a
/// [`PackedOperand`] for good, or by a [`PackScratch`] that clears and
/// refills it per call (reusing the capacity).
#[derive(Clone)]
pub(super) struct CodeBuf<C> {
    /// Shift-aligned codes `± code · 2^(β − τ)`, stored with the width's
    /// bias: an activation plane lays them out `[vector][block][k1]` —
    /// contiguous along the reduction dimension — and a weight plane
    /// column-in-lane in whole 16-column panels (see [`panel_slot`]).
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
    /// Zero-fills the buffers for `vectors` vectors of `blocks` blocks of
    /// `slots` codes each, with code and exponent storage for
    /// `stored ≥ vectors` of them.
    pub(super) fn reset(&mut self, vectors: usize, stored: usize, blocks: usize, slots: usize) {
        self.codes.clear();
        self.codes.resize(stored * blocks * slots, C::ZERO);
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

/// A finished exponent-uniformity fold: [`engine::note_exp`]'s running
/// value, with a vector that saw no live block reading 0.
fn finished(fold: i32) -> i32 {
    if fold == EXP_UNSEEN {
        0
    } else {
        fold
    }
}

/// Lowers `vectors` rows of `len` elements to aligned codes in `buf`,
/// `[row][block][k1]`: row `v` is `data[base_of(v)..][..len]`. Contiguous
/// whole blocks run on the core's vector tier where it has one and
/// `vector` (the execute call's backend is AVX-512) asks for it. Inlined
/// so the execute entry's per-span call folds its row geometry into the
/// loop.
#[inline(always)]
pub(super) fn pack_into<C: AlignedCode>(
    data: &[f32],
    vectors: usize,
    len: usize,
    base_of: impl Fn(usize) -> usize,
    fmt: &BdrFormat,
    vector: bool,
    buf: &mut CodeBuf<C>,
) {
    let k1 = fmt.k1();
    let blocks = len.div_ceil(k1);
    buf.reset(vectors, vectors, blocks, k1);
    let core = engine::BlockCore::with_tier(fmt, vector);
    for v in 0..vectors {
        let base = base_of(v);
        let mut fold = EXP_UNSEEN;
        for kb in 0..blocks {
            let start = kb * k1;
            let slot = v * blocks + kb;
            // The single-pass lowering writes all k1 slots (zeroing the
            // ragged tail, and the whole block when it is all-zero).
            let codes = &mut buf.codes[slot * k1..][..k1];
            let (blen, shifts) = (k1.min(len - start), &mut buf.shifts);
            if let Some(e) =
                core.lower_block_strided_into(data, base + start, 1, blen, shifts, codes)
            {
                buf.exps[slot] = e;
                fold = engine::note_exp(fold, e);
            }
        }
        buf.uexp[v] = finished(fold);
    }
}

/// Lowers the columns of `B[k,n]` (row-major) into `buf` in the one
/// weight-plane layout (see [`panel_slot`]), **band by band**: band `kb`
/// is rows `kb·k1 ..` — block `kb` of every column — and is finished
/// before the next starts, so its rows are read while they are
/// cache-resident (a column-at-a-time walk strides `n` floats per element
/// and uses 4 bytes of every cache line it touches). Each column's
/// [`PlaneView::uexp`] fold runs across the bands.
///
/// Each band goes through `engine::BlockCore::lower_lanes_into` 16
/// columns at a time — the vertical tier where the core has one and
/// `k1 = 16`, which loads each block row of the group in one go and writes
/// the panel's interleaved quad rows (biased bytes) or pair rows (wider
/// codes) directly, else the scalar tier into the same slots; a ragged
/// last group reads its absent columns as zeros, and a ragged last band
/// its absent rows.
pub(super) fn pack_cols_into<C: AlignedCode>(
    b: &[f32],
    k: usize,
    n: usize,
    core: &engine::BlockCore<'_>,
    buf: &mut CodeBuf<C>,
) {
    let k1 = core.format().k1();
    let blocks = k.div_ceil(k1);
    let k1g = k1.next_multiple_of(engine::lane_k::<C>());
    buf.reset(n, n.next_multiple_of(PANEL_COLS), blocks, k1g);
    buf.uexp.fill(EXP_UNSEEN);
    let CodeBuf {
        codes,
        exps,
        uexp,
        shifts,
    } = buf;
    for kb in 0..blocks {
        let (band, rows) = (kb * k1 * n, k1.min(k - kb * k1));
        for j in (0..n).step_by(PANEL_COLS) {
            let lanes = PANEL_COLS.min(n - j);
            let slot = panel_slot(j, kb, blocks);
            let group = &mut codes[slot * k1g..][..PANEL_COLS * k1g];
            let (group_exps, folds) = (&mut exps[slot..][..PANEL_COLS], &mut uexp[j..][..lanes]);
            core.lower_lanes_into(
                b,
                band + j,
                n,
                rows,
                lanes,
                shifts,
                group,
                group_exps,
                folds,
            );
        }
    }
    for fold in uexp.iter_mut() {
        *fold = finished(*fold);
    }
}

/// Block-slot index of `(column v, block kb)` in a weight plane of
/// `blocks` blocks per column: `[panel][block][lane]`, every panel
/// [`PANEL_COLS`] lanes wide (the last one padded), so a panel's exponents
/// for one block are contiguous. The per-block exponents use this slot
/// order directly.
///
/// The layout is **column-in-lane**, the same bytes on every host and
/// backend: a block's codes are interleaved with its panel's other lanes a
/// few K at a time, the order [`pack_cols_into`]'s lane groups are written
/// in (`engine::lane_k`), `16 · k1g` codes per slot group, `k1g` being
/// `k1` rounded up to a whole lane group:
///
/// - a byte plane is `[panel][block][quad][lane][4]`: one quad row is the
///   16 columns' codes `4q ..= 4q + 3`, 64 contiguous biased bytes
///   (`b + 128`), one 512-bit load and one `vpdpbusd` against a broadcast
///   A quad;
/// - an `i16` or `i32` plane is `[panel][block][pair][lane][2]`: one pair
///   row is the 16 columns' codes `2p` and `2p + 1` (for `i16` codes, 32
///   contiguous codes, one 512-bit load and one `vpdpwssd` against a
///   broadcast A pair).
///
/// Padded lanes, a ragged band's padded rows and the slots past `k1` in a
/// block's last lane group hold the stored zero (128 on a byte plane).
pub(super) fn panel_slot(v: usize, kb: usize, blocks: usize) -> usize {
    (v / PANEL_COLS * blocks + kb) * PANEL_COLS + v % PANEL_COLS
}

/// Lowers `B[k,n]`'s columns into a freshly allocated buffer.
fn pack_cols_buf<C: AlignedCode>(
    b: &[f32],
    k: usize,
    n: usize,
    core: &engine::BlockCore<'_>,
) -> CodeBuf<C> {
    let mut buf = CodeBuf::default();
    pack_cols_into(b, k, n, core, &mut buf);
    buf
}

/// The concrete code storage behind a [`PackedOperand`]; the variant is the
/// record of which kernel class the plane was packed for (`U8` and `I16`
/// are both narrow — the weight format alone picks between them, see
/// [`fits_i8`]).
#[derive(Clone)]
pub(super) enum Plane {
    /// Byte codes: a narrow pair whose weight format's aligned codes fit a
    /// byte (MX6, MX4, MSFP12, MSFP16), stored biased, `b + 128`, in K
    /// quads — the unsigned operand of `vpdpbusd` (see [`panel_slot`]).
    U8(CodeBuf<u8>),
    /// `i16` codes: every other narrow pair (MX9 weights).
    I16(CodeBuf<i16>),
    /// `i32` codes (wide custom formats).
    I32(CodeBuf<i32>),
}

impl Plane {
    /// The kernel class this plane serves.
    fn class(&self) -> PairClass {
        match self {
            Plane::U8(_) | Plane::I16(_) => PairClass::Narrow,
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
/// partner decides the kernel class — narrow or wide (`i32` codes). Inside
/// the narrow class the weight format alone picks the storage width: one
/// byte when its largest aligned magnitude `max_code ≪ β` is at most 127
/// (MX6, MX4, MSFP12, MSFP16), stored biased, and `i16` otherwise (MX9).
/// The layout depends on nothing else — not on the host, nor on the
/// backend selected when it was packed — so every backend executes every
/// plane. The
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
    pub(super) plane: Plane,
}

impl std::fmt::Debug for PackedOperand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PackedOperand({} x{} columns, k={}, {})",
            self.fmt,
            self.vectors,
            self.len,
            match self.plane {
                Plane::U8(_) => "i8 as biased u8",
                Plane::I16(_) => "i16",
                Plane::I32(_) => "i32",
            },
        )
    }
}

impl PackedOperand {
    /// Lowers `B[k,n]`'s columns to aligned integer codes for multiplication
    /// against `fa`-format activations. Returns `None` when the `(fa, fb)`
    /// pair is unsupported (see [`super::code_domain_supported`]).
    ///
    /// Columns are grouped into 16-column panels, the last one
    /// zero-padded, and within a panel the codes are column-in-lane:
    /// `[block][quad][lane][4]` in biased bytes for a byte plane,
    /// `[block][pair][lane][2]` for an `i16` or `i32` one, a block padded
    /// with zero codes to a whole quad or pair. One panel's entire
    /// reduction (≈ 4–8 KB of codes at the serving shapes) is a single
    /// contiguous, L1-resident streak.
    /// The layout is the same whatever backend is selected, so a plane
    /// packed once runs on every backend. (A plain `[block][column][k1]`
    /// block-major order would put consecutive blocks of one panel `n·k1`
    /// codes apart — a large power-of-two stride at typical layer widths
    /// that aliases the same L1 sets and thrashes the cache.)
    ///
    /// The columns are lowered band by band — block `kb` of every column
    /// before block `kb + 1` of any — so each band of `k1` rows is read
    /// while it is cache-resident. On the block core's vertical tier
    /// (`k1 = 16`) 16 adjacent columns are 16 independent blocks, each
    /// block row one contiguous vector load, and the codes go straight into
    /// the panel's quad or pair rows; the scalar block core writes the same
    /// slots column by column. Both write the bits the division form
    /// ([`crate::engine::oracle`]) defines.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k·n`.
    pub fn pack_cols(b: &[f32], k: usize, n: usize, fa: BdrFormat, fb: BdrFormat) -> Option<Self> {
        let pair = FormatPair::new(&fa, &fb)?;
        assert_eq!(b.len(), k * n, "B is not {k}x{n}");
        let core = engine::BlockCore::new(&fb);
        let plane = match pair.class {
            PairClass::Narrow if fits_i8(&fb) => Plane::U8(pack_cols_buf(b, k, n, &core)),
            PairClass::Narrow => Plane::I16(pack_cols_buf(b, k, n, &core)),
            PairClass::Wide => Plane::I32(pack_cols_buf(b, k, n, &core)),
        };
        Some(PackedOperand {
            fmt: fb,
            len: k,
            vectors: n,
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
            Plane::U8(p) => p.bytes(),
            Plane::I16(p) => p.bytes(),
            Plane::I32(p) => p.bytes(),
        }
    }
}

/// Reusable buffers for activation-side lowering: a serial
/// [`super::quantized_gemm_prepacked_scratch`] call lowers its A rows into
/// them, so a steady-state forward pass allocates nothing for the
/// activation side (a call that fans out gives each row span a ring of its
/// own). Activation codes are `i16` for every narrow pair — with bias
/// corrections, or as signed byte digit rows on AVX-512 with VNNI, when a
/// vector body runs a byte plane (`ByteRows`) — and `i32` for wide pairs;
/// each kind keeps its own buffers, so one scratch serves interleaved
/// format classes and backends without reallocation churn.
///
/// A scratch is plain storage — it carries no format or shape state, so one
/// instance can serve any sequence of GEMMs (`mx-nn` keeps one per thread).
#[derive(Default)]
pub struct PackScratch {
    pub(super) narrow: CodeBuf<i16>,
    pub(super) bytes: ByteRows,
    pub(super) wide: CodeBuf<i32>,
}

impl PackScratch {
    /// Creates an empty scratch; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Activation rows lowered for a byte plane's quad body: signed byte
/// codes, `[row][block][digit][k1]`, and each (row, block)'s bias
/// correction — or, for the exact `vpdpbusd` spelling on a CPU (or a
/// forced run) without AVX-512-VNNI and for the AVX2 instance, `i16` codes
/// as for every other narrow kernel, whose pairs those instances multiply
/// by zero-extended byte pairs.
///
/// A format whose aligned codes fit a byte ([`fits_i8`]) is lowered
/// straight to `i8` codes: one digit. A wider one is lowered to `i16` and
/// split into signed byte digits, `a = Σₜ 256ᵗ·dₜ` — two for every
/// magnitude up to `127·256 + 127 = 32639` (MX9's 254 included), three
/// above (custom formats up to the narrow class's 15 bits) — so a byte
/// plane accepts every partner an `i16` plane would.
///
/// The kernel multiplies digits by the biased weight bytes `b + 128`, so
/// each lane's sum runs `128·Σ a` over the true block dot; `corr` holds
/// `−128·Σ a` per (row, block) for the kernel to start that block's
/// accumulator from (`corr_rows`, the row's sum of them, for a deferred
/// row that accumulates the whole reduction). `|Σ a| < 16 · 2¹⁵` over a
/// block, so a correction fits `i32` with room; a row's sum may wrap, and
/// the kernel's lanes compute modulo 2³² anyway.
#[derive(Default)]
pub(super) struct ByteRows {
    /// The codes (one digit) or digit rows, with the rows' exponents and
    /// uniformity when the format fits a byte.
    bytes: CodeBuf<i8>,
    /// The `i16` rows and their exponents before the digit split.
    halves: CodeBuf<i16>,
    corr: Vec<i32>,
    corr_rows: Vec<i32>,
    digits: usize,
}

/// Borrowed view of [`ByteRows`] — what the byte-plane kernel consumes.
#[derive(Clone, Copy)]
pub(super) struct ByteView<'a> {
    /// Digit rows (`digits ≥ 1`).
    pub(super) codes: &'a [i8],
    /// `i16` rows (`digits == 0`).
    pub(super) halves: &'a [i16],
    pub(super) exps: &'a [i32],
    pub(super) uexp: &'a [i32],
    pub(super) corr: &'a [i32],
    pub(super) corr_rows: &'a [i32],
    pub(super) blocks: usize,
    /// Digit rows per activation row: 1, 2 or 3; 0 for `i16` rows.
    pub(super) digits: usize,
}

/// The A side of one span as the vector body reads it: row `i`'s codes
/// for block `kb` are the `digits · k1` codes at `(i · blocks + kb) ·
/// digits · k1` — digit rows one after another when a byte plane's
/// activations were split — with the rows' exponents and, against a byte
/// plane, their bias corrections.
pub(super) struct Lhs<'a, A> {
    pub(super) codes: &'a [A],
    pub(super) exps: &'a [i32],
    pub(super) uexp: &'a [i32],
    /// `−128·Σ a` per `[row][block]` (byte planes; empty for `i16`).
    pub(super) corr: &'a [i32],
    /// The sum of each row's `corr`, modulo 2³² (byte planes).
    pub(super) corr_rows: &'a [i32],
    pub(super) blocks: usize,
}

impl<A> Clone for Lhs<'_, A> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<A> Copy for Lhs<'_, A> {}

impl<'a, A> Lhs<'a, A> {
    /// Rows against an `i16` plane: no corrections.
    pub(super) fn plain(ap: PlaneView<'a, A>) -> Self {
        Lhs {
            codes: ap.codes,
            exps: ap.exps,
            uexp: ap.uexp,
            corr: &[],
            corr_rows: &[],
            blocks: ap.blocks,
        }
    }

    /// `codes` — `ap`'s digit rows or `i16` rows — with `ap`'s exponents
    /// and corrections.
    pub(super) fn bytes(codes: &'a [A], ap: &ByteView<'a>) -> Self {
        Lhs {
            codes,
            exps: ap.exps,
            uexp: ap.uexp,
            corr: ap.corr,
            corr_rows: ap.corr_rows,
            blocks: ap.blocks,
        }
    }
}

/// Signed byte digits an aligned activation code of this format needs:
/// `a = Σₜ 256ᵗ·dₜ`, each `dₜ ∈ [−128, 127]`.
fn byte_digits(fmt: &BdrFormat) -> usize {
    match fmt.max_code() << fmt.max_shift() {
        0..=127 => 1,
        128..=32639 => 2,
        _ => 3,
    }
}

/// A block's bias correction, `−128·Σ a`.
fn correction<C: Copy + Into<i32>>(block: &[C]) -> i32 {
    -128 * block.iter().map(|&a| a.into()).sum::<i32>()
}

/// Digit `t` of `a = Σₜ 256ᵗ·dₜ`: each `dₜ` is the signed byte congruent
/// to what is left modulo 256, and what is left minus it is a multiple of
/// 256.
fn digit(a: i16, t: usize) -> i8 {
    let mut rest = i32::from(a);
    for _ in 0..t {
        rest = (rest - i32::from(rest as i8)) >> 8;
    }
    rest as i8
}

impl ByteRows {
    /// Lowers `vectors` rows of `len` elements — row `v` is
    /// `data[base_of(v)..][..len]` — to digit rows for `vpdpbusd`, or to
    /// `i16` rows for its exact spellings (`vnni` false: AVX-512 without
    /// VNNI, and AVX2), and corrections (see [`pack_into`], which `vector`
    /// is passed on to).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // rows + format + the call's two ISA reads
    pub(super) fn lower(
        &mut self,
        data: &[f32],
        vectors: usize,
        len: usize,
        base_of: impl Fn(usize) -> usize,
        fmt: &BdrFormat,
        vector: bool,
        vnni: bool,
    ) {
        let k1 = fmt.k1();
        let blocks = len.div_ceil(k1);
        self.digits = if vnni { byte_digits(fmt) } else { 0 };
        self.corr.clear();
        if self.digits == 1 {
            pack_into(data, vectors, len, base_of, fmt, vector, &mut self.bytes);
            #[cfg(target_arch = "x86_64")]
            super::avx512::byte_corrections(&self.bytes.codes, &mut self.corr, correction);
            #[cfg(not(target_arch = "x86_64"))]
            self.corr
                .extend(self.bytes.codes.chunks_exact(k1).map(correction));
        } else {
            pack_into(data, vectors, len, base_of, fmt, vector, &mut self.halves);
            let blocks = self.halves.codes.chunks_exact(k1);
            self.corr.extend(blocks.map(correction));
            let codes = &mut self.bytes.codes;
            codes.clear();
            for block in self.halves.codes.chunks_exact(k1) {
                for t in 0..self.digits {
                    codes.extend(block.iter().map(|&a| digit(a, t)));
                }
            }
        }
        self.corr_rows.clear();
        let rows = self.corr.chunks_exact(blocks.max(1));
        self.corr_rows
            .extend(rows.map(|r| r.iter().fold(0i32, |s, &c| s.wrapping_add(c))));
    }

    pub(super) fn view(&self, blocks: usize) -> ByteView<'_> {
        let (exps, uexp) = match self.digits {
            1 => (&self.bytes.exps, &self.bytes.uexp),
            _ => (&self.halves.exps, &self.halves.uexp),
        };
        ByteView {
            codes: &self.bytes.codes,
            halves: &self.halves.codes,
            exps,
            uexp,
            corr: &self.corr,
            corr_rows: &self.corr_rows,
            blocks,
            digits: self.digits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::oracle;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Index of code `i` of column `v`'s block `kb` in a plane whose
    /// blocks hold `k1g` codes per lane in column-in-lane groups of `g`,
    /// and the block's exponent slot.
    fn position(
        v: usize,
        kb: usize,
        i: usize,
        blocks: usize,
        k1g: usize,
        g: usize,
    ) -> (usize, usize) {
        let slot = panel_slot(v, kb, blocks);
        let lane = slot % PANEL_COLS;
        let group_row = (slot - lane) * k1g + i / g * g * PANEL_COLS;
        (group_row + g * lane + i % g, slot)
    }

    /// Every column block of `B[k,n]` through the division form: the
    /// aligned signed codes `±code ≪ (β − τ)` and the shared exponent,
    /// `None` for a block with no finite nonzero element.
    fn oracle_blocks(
        b: &[f32],
        k: usize,
        n: usize,
        fmt: &BdrFormat,
    ) -> Vec<(Vec<i32>, Option<i32>)> {
        let (k1, beta) = (fmt.k1(), fmt.max_shift());
        let mut out = Vec::new();
        for v in 0..n {
            for start in (0..k).step_by(k1) {
                let col: Vec<f32> = (start..k.min(start + k1)).map(|r| b[r * n + v]).collect();
                let q = oracle::quantize_block_codes(fmt, &col);
                let codes = (0..col.len())
                    .map(|i| {
                        let aligned = (q.codes[i] as i32) << (beta - q.shifts[i / fmt.k2()]);
                        if q.signs[i] {
                            -aligned
                        } else {
                            aligned
                        }
                    })
                    .collect();
                let live = col.iter().any(|x| x.is_finite() && *x != 0.0);
                out.push((codes, live.then_some(q.shared_exp)));
            }
        }
        out
    }

    /// Packs with the column walker on both tiers and compares the whole
    /// plane — padding included (lanes past `n`, rows past `k`, and the
    /// slots past `k1` in a block's last lane group), which holds the
    /// stored zero (128 for the biased byte) — with the oracle's blocks
    /// laid out independently, and `uexp` with a direct fold.
    fn check<C: AlignedCode>(
        b: &[f32],
        k: usize,
        n: usize,
        fmt: &BdrFormat,
        want: &[(Vec<i32>, Option<i32>)],
    ) {
        let (k1, blocks) = (fmt.k1(), k.div_ceil(fmt.k1()));
        let g = engine::lane_k::<C>();
        let k1g = k1.next_multiple_of(g);
        let stored = n.next_multiple_of(PANEL_COLS);
        let mut codes = vec![C::ZERO; stored * blocks * k1g];
        let mut exps = vec![0; stored * blocks];
        let mut uexp = vec![0; n];
        for v in 0..n {
            let mut live = Vec::new();
            for kb in 0..blocks {
                let (block, e) = &want[v * blocks + kb];
                for (i, &c) in block.iter().enumerate() {
                    codes[position(v, kb, i, blocks, k1g, g).0] = C::from_aligned(c);
                }
                if let Some(e) = *e {
                    exps[position(v, kb, 0, blocks, k1g, g).1] = e;
                    live.push(e);
                }
            }
            uexp[v] = match live.first() {
                None => 0,
                Some(&e) if live.iter().all(|&x| x == e) => e,
                Some(_) => MIXED_EXP,
            };
        }
        for vector in [false, true] {
            let core = engine::BlockCore::with_tier(fmt, vector);
            let mut buf = CodeBuf::<C>::default();
            pack_cols_into(b, k, n, &core, &mut buf);
            let tag = format!(
                "{fmt} k={k} n={n} vector {vector} {}",
                std::any::type_name::<C>()
            );
            if let Some(at) = (0..codes.len()).find(|&at| buf.codes.get(at) != Some(&codes[at])) {
                panic!(
                    "{tag}: code {at} is {:?}, want {:?}",
                    buf.codes.get(at),
                    codes[at]
                );
            }
            assert_eq!(buf.codes.len(), codes.len(), "{tag}: plane size");
            assert_eq!(buf.exps, exps, "{tag}: shared exponents");
            assert_eq!(buf.uexp, uexp, "{tag}: uexp");
        }
    }

    /// `B[k,n]` with hostile columns: every third-from-seventh column all
    /// ±0 beside live ones, and per `mode` columns of one exponent each,
    /// columns whose bands sit binades apart, or every IEEE class (±0,
    /// ±NaN, ±Inf, subnormals, normals spread across 30 binades) mixed
    /// inside one block.
    fn data(rng: &mut StdRng, k: usize, n: usize, mode: usize) -> Vec<f32> {
        let sign = |rng: &mut StdRng| if rng.gen::<bool>() { -1.0f32 } else { 1.0 };
        let mut b = vec![0.0; k * n];
        for r in 0..k {
            for v in 0..n {
                b[r * n + v] = if v % 7 == 3 {
                    sign(rng) * 0.0
                } else {
                    let unit = sign(rng) * rng.gen_range(1.0f32..2.0);
                    match mode {
                        0 => unit * 2f32.powi(v as i32 % 5 - 2),
                        1 => unit * 2f32.powi((r / 16 * 3 + v % 3) as i32 - 10),
                        _ => {
                            let bits = rng.gen::<u32>();
                            f32::from_bits(match rng.gen_range(0..10u32) {
                                0 => bits & 0x8000_0000,
                                1 => bits | 0x7fc0_0000,
                                2 => (bits & 0x8000_0000) | 0x7f80_0000,
                                3 => bits & 0x807f_ffff,
                                _ => (bits & 0x807f_ffff) | ((100 + rng.gen_range(0..30u32)) << 23),
                            })
                        }
                    }
                };
            }
        }
        b
    }

    /// The column walker on both tiers and every code width a format fits
    /// — biased byte quads, `i16` pairs and `i32` pairs — against the
    /// division-form oracle: presets, `k1 = 16` lattice formats over every
    /// sub-block size, and block sizes 1, 3, 8, 32 and 64 (a `k1` that is
    /// not a multiple of the lane group padded inside its last group, on
    /// the scalar tier, which takes every `k1`); ragged and whole shapes,
    /// hostile data.
    #[test]
    fn pack_cols_matches_oracle_on_both_tiers() {
        let mut rng = StdRng::seed_from_u64(39);
        let mut formats = vec![
            BdrFormat::MX4,
            BdrFormat::MX6,
            BdrFormat::MX9,
            BdrFormat::MSFP12,
            BdrFormat::MSFP16,
        ];
        for k2 in [1, 2, 4, 8, 16] {
            formats.push(BdrFormat::new(3, 6, 2, 16, k2).unwrap());
            formats.push(BdrFormat::new(10, 8, 3, 16, k2).unwrap());
            formats.push(BdrFormat::new(5, 4, 0, 16, k2).unwrap());
        }
        for (k1, k2) in [(1, 1), (3, 3), (8, 2), (32, 4), (64, 8)] {
            formats.push(BdrFormat::new(4, 8, 1, k1, k2).unwrap());
            formats.push(BdrFormat::new(9, 8, 2, k1, k2).unwrap());
        }
        let (ns, ks) = ([1, 15, 16, 17, 33, 2048], [1, 4, 8, 15, 16, 17, 48, 512]);
        for (n, k) in ns.iter().flat_map(|&n| ks.iter().map(move |&k| (n, k))) {
            // The presets see every mode and the lattice formats the
            // hostile one; the larger shapes run on hostile data only.
            let big = n * k > 20_000;
            for mode in if big { 2..3 } else { 0..3 } {
                let b = data(&mut rng, k, n, mode);
                let formats = match (mode, n * k) {
                    (_, 200_001..) => &formats[1..2], // MX6 (byte planes)
                    (_, 20_001..) => &formats[1..3],  // MX6 and MX9 (`i16`)
                    (2, _) => &formats[..],
                    _ => &formats[..5],
                };
                for fmt in formats {
                    let want = oracle_blocks(&b, k, n, fmt);
                    let width = fmt.m() + fmt.max_shift();
                    if fits_i8(fmt) {
                        check::<u8>(&b, k, n, fmt, &want);
                    }
                    if width <= 15 {
                        check::<i16>(&b, k, n, fmt, &want);
                    }
                    check::<i32>(&b, k, n, fmt, &want);
                }
            }
        }
    }
}

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
//!   band: 16-column groups of the AVX-512 column-in-lane layout through
//!   the core's vertical tier (`engine::BlockCore::lower_lanes_into`), which
//!   writes the panel's pair rows directly, and every other layout column
//!   by column on the scalar core.
//!
//! While lowering, the packer also records the per-vector **exponent
//! uniformity** metadata ([`PlaneView::uexp`]) the deferred-scale-out
//! decision consumes: for each packed vector, the one shared exponent all
//! its nonzero blocks agree on, or [`MIXED_EXP`] when they differ (all-zero
//! vectors report 0 — their dots vanish, so any grid is correct).

use super::pair::{fits_i8, FormatPair, PairClass};
use super::{panel_layout, PANEL_N_512};
use crate::bdr::BdrFormat;
use crate::engine::{self, AlignedCode, EXP_UNSEEN};

/// Sentinel for "this vector's nonzero blocks do not share one exponent":
/// deferral is off for every output element the vector touches.
pub(super) const MIXED_EXP: i32 = engine::EXP_MIXED;

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
/// vector-major (`[row][block][k1]`): row `v` is `data[base_of(v)..][..len]`.
/// Contiguous whole blocks run on the core's vector tier where it has one.
/// Inlined so the execute entry's per-span call folds its row geometry
/// into the loop.
#[inline(always)]
pub(super) fn pack_into<C: AlignedCode>(
    data: &[f32],
    vectors: usize,
    len: usize,
    base_of: impl Fn(usize) -> usize,
    fmt: &BdrFormat,
    buf: &mut CodeBuf<C>,
) {
    let k1 = fmt.k1();
    let blocks = len.div_ceil(k1);
    buf.reset(vectors, vectors, blocks, k1);
    let core = engine::BlockCore::new(fmt);
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

/// Lowers the columns of `B[k,n]` (row-major) into `buf` in the layout
/// `panel_n` names (see [`PackedOperand::pack_cols`]), **band by band**:
/// band `kb` is rows `kb·k1 ..` — block `kb` of every column — and is
/// finished before the next starts, so its rows are read while they are
/// cache-resident (a column-at-a-time walk strides `n` floats per element
/// and uses 4 bytes of every cache line it touches). Each column's
/// [`PlaneView::uexp`] fold runs across the bands.
///
/// The column-in-lane layout ([`PANEL_N_512`]) lowers 16-column groups
/// through `engine::BlockCore::lower_lanes_into` — the vertical tier on a
/// core that has one, which loads each block row of the group in one go and
/// writes the panel's interleaved pair rows directly; a ragged last group
/// reads its absent columns as zeros, and a ragged last band its absent
/// rows. Every other layout lowers column by column on the scalar core's
/// strided entry.
pub(super) fn pack_cols_into<C: AlignedCode>(
    b: &[f32],
    k: usize,
    n: usize,
    panel_n: usize,
    core: &engine::BlockCore<'_>,
    buf: &mut CodeBuf<C>,
) {
    let k1 = core.format().k1();
    let blocks = k.div_ceil(k1);
    let stored = match panel_n {
        PANEL_N_512 => n.next_multiple_of(PANEL_N_512),
        _ => n,
    };
    buf.reset(n, stored, blocks, k1);
    buf.uexp.fill(EXP_UNSEEN);
    let CodeBuf {
        codes,
        exps,
        uexp,
        shifts,
    } = buf;
    for kb in 0..blocks {
        let (band, rows) = (kb * k1 * n, k1.min(k - kb * k1));
        if panel_n == PANEL_N_512 {
            for j in (0..n).step_by(PANEL_N_512) {
                let lanes = PANEL_N_512.min(n - j);
                let slot = panel_slot(j, kb, n, blocks, PANEL_N_512);
                let group = &mut codes[slot * k1..][..PANEL_N_512 * k1];
                let (group_exps, folds) =
                    (&mut exps[slot..][..PANEL_N_512], &mut uexp[j..][..lanes]);
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
        } else {
            for (v, fold) in uexp.iter_mut().enumerate() {
                let slot = match panel_n {
                    0 => v * blocks + kb,
                    w => panel_slot(v, kb, n, blocks, w),
                };
                let block = &mut codes[slot * k1..][..k1];
                if let Some(e) = core.lower_block_strided_into(b, band + v, n, rows, shifts, block)
                {
                    exps[slot] = e;
                    *fold = engine::note_exp(*fold, e);
                }
            }
        }
    }
    for fold in uexp.iter_mut() {
        *fold = finished(*fold);
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
/// every panel is 16 lanes wide, the last one zero-padded, and a block's
/// codes are interleaved with its panel's other lanes in K pairs —
/// `[panel][block][pair][lane][2]`, the order [`pack_cols_into`]'s lane
/// groups are written in. With `k1 = 16` one pair
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
    panel_n: usize,
    core: &engine::BlockCore<'_>,
) -> CodeBuf<C> {
    let mut buf = CodeBuf::default();
    pack_cols_into(b, k, n, panel_n, core, &mut buf);
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
    /// columns are grouped into panels of the backend's width (8 for AVX2,
    /// 16 for AVX-512), and within a panel the codes are ordered
    /// `[block][lane][k1]` (AVX2) or column-in-lane `[block][pair][lane][2]`
    /// (AVX-512: one pair row holds the 16 columns' codes `2p` and
    /// `2p + 1`) — so one panel's entire reduction (`blocks · panel_n · k1`
    /// codes, ≈ 4–8 KB at the serving shapes) is a single contiguous,
    /// L1-resident streak. When `n mod panel_n ≠ 0` the last AVX2 panel is
    /// simply narrower, and the last AVX-512 panel is zero-padded to 16
    /// columns. (A plain `[block][column][k1]` block-major order would put
    /// consecutive blocks of one panel `n·k1` codes apart — a large
    /// power-of-two stride at typical layer widths that aliases the same
    /// L1 sets and thrashes the cache.)
    ///
    /// The columns are lowered band by band — block `kb` of every column
    /// before block `kb + 1` of any — so each band of `k1` rows is read
    /// while it is cache-resident. An AVX-512 plane is written by the
    /// block core's vertical tier: 16 adjacent columns are 16 independent
    /// blocks, each block row one contiguous vector load, and the codes go
    /// straight into the panel's pair rows. Every other plane is lowered
    /// column by column on the scalar block core. Both write the bits the
    /// division form ([`crate::engine::oracle`]) defines.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k·n`.
    pub fn pack_cols(b: &[f32], k: usize, n: usize, fa: BdrFormat, fb: BdrFormat) -> Option<Self> {
        let pair = FormatPair::new(&fa, &fb)?;
        assert_eq!(b.len(), k * n, "B is not {k}x{n}");
        let panel_n = match pair.class {
            PairClass::Narrow => panel_layout(pair.k1),
            PairClass::Wide => 0,
        };
        let core = engine::BlockCore::new(&fb);
        let plane = match pair.class {
            PairClass::Narrow if fits_i8(&fb) => Plane::I8(pack_cols_buf(b, k, n, panel_n, &core)),
            PairClass::Narrow => Plane::I16(pack_cols_buf(b, k, n, panel_n, &core)),
            PairClass::Wide => Plane::I32(pack_cols_buf(b, k, n, panel_n, &core)),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::oracle;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Index of code `i` of column `v`'s block `kb` in a `panel_n` plane,
    /// and the block's exponent slot.
    fn position(
        v: usize,
        kb: usize,
        i: usize,
        n: usize,
        blocks: usize,
        k1: usize,
        panel_n: usize,
    ) -> (usize, usize) {
        match panel_n {
            0 => ((v * blocks + kb) * k1 + i, v * blocks + kb),
            PANEL_N_512 => {
                let slot = panel_slot(v, kb, n, blocks, panel_n);
                let lane = slot % PANEL_N_512;
                let pair_row = (slot - lane) * k1 + i / 2 * 2 * PANEL_N_512;
                (pair_row + 2 * lane + i % 2, slot)
            }
            w => {
                let slot = panel_slot(v, kb, n, blocks, w);
                (slot * k1 + i, slot)
            }
        }
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

    /// Packs with the column walker on one tier and layout and compares
    /// the whole plane — padding included — with the oracle's blocks laid
    /// out independently, and `uexp` with a direct fold.
    fn check<C: AlignedCode>(
        b: &[f32],
        k: usize,
        n: usize,
        fmt: &BdrFormat,
        want: &[(Vec<i32>, Option<i32>)],
    ) {
        let (k1, blocks) = (fmt.k1(), k.div_ceil(fmt.k1()));
        let layouts: &[usize] = if k1 == PANEL_N_512 {
            &[0, super::super::PANEL_N, PANEL_N_512]
        } else {
            &[0, super::super::PANEL_N]
        };
        for &panel_n in layouts {
            let stored = if panel_n == PANEL_N_512 {
                n.next_multiple_of(PANEL_N_512)
            } else {
                n
            };
            let mut codes = vec![C::ZERO; stored * blocks * k1];
            let mut exps = vec![0; stored * blocks];
            let mut uexp = vec![0; n];
            for v in 0..n {
                let mut live = Vec::new();
                for kb in 0..blocks {
                    let (block, e) = &want[v * blocks + kb];
                    for (i, &c) in block.iter().enumerate() {
                        codes[position(v, kb, i, n, blocks, k1, panel_n).0] = C::from_aligned(c);
                    }
                    if let Some(e) = *e {
                        exps[position(v, kb, 0, n, blocks, k1, panel_n).1] = e;
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
                pack_cols_into(b, k, n, panel_n, &core, &mut buf);
                let tag = format!(
                    "{fmt} k={k} n={n} layout {panel_n} vector {vector} {}",
                    std::any::type_name::<C>()
                );
                if let Some(at) = (0..codes.len()).find(|&at| buf.codes.get(at) != Some(&codes[at]))
                {
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

    /// The column walker on every tier, layout and code width a format
    /// fits, against the division-form oracle: presets and `k1 = 16`
    /// lattice formats over every sub-block size, ragged and whole
    /// shapes, hostile data.
    #[test]
    fn pack_cols_matches_oracle_on_every_tier_and_layout() {
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
        formats.push(BdrFormat::new(4, 8, 1, 8, 2).unwrap());
        let (ns, ks) = ([1, 15, 16, 17, 33, 2048], [1, 4, 8, 15, 16, 17, 48, 512]);
        for (n, k) in ns.iter().flat_map(|&n| ks.iter().map(move |&k| (n, k))) {
            // The presets see every mode and the lattice formats the
            // hostile one; the larger shapes run on hostile data only.
            let big = n * k > 20_000;
            for mode in if big { 2..3 } else { 0..3 } {
                let b = data(&mut rng, k, n, mode);
                let formats = match (mode, n * k) {
                    (_, 200_001..) => &formats[1..2], // MX6 (`i8` planes)
                    (_, 20_001..) => &formats[1..3],  // MX6 and MX9 (`i16`)
                    (2, _) => &formats[..],
                    _ => &formats[..5],
                };
                for fmt in formats {
                    let want = oracle_blocks(&b, k, n, fmt);
                    let width = fmt.m() + fmt.max_shift();
                    if fits_i8(fmt) {
                        check::<i8>(&b, k, n, fmt, &want);
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

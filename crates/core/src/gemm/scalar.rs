//! The portable span kernel — the reference backend every other backend is
//! bit-identical to, and the readable form of their loop. It runs the wide
//! (`i32`) class, narrow planes whose block size is not the vector body's
//! `k1 = 16`, x86-64 CPUs without AVX2, and every other architecture.
//!
//! It reads the one weight-plane layout (see [`super::pack::panel_slot`])
//! the way the vector body does: a 16-column panel at a time, one column
//! per lane. Each A code of a block multiplies the 16 lanes' codes at its
//! K — stored codes read back as aligned integers, `b − 128` on a byte
//! plane, against plain `i16` (or `i32`) activation rows — into 16 block
//! dots; the per-block scale-out runs per lane, and deferred scale-out
//! (see [`super::pair::FormatPair::defer`]) per output element whenever
//! the element's exponent metadata qualifies.

use super::pack::{PlaneView, MIXED_EXP};
use super::{Code, DeferCtx, PANEL_COLS, TILE_M};
use crate::engine::{lane_k, AlignedCode};
use crate::util::pow2;

/// Computes the output rows of the `rows` A-plane rows into `out` (a
/// `rows × n` slice), panel by panel: per output element, either one
/// deferred integer accumulation with a single scale-out (when the
/// element's row/column exponent metadata passes the [`DeferCtx`] checks)
/// or the per-block `f32` scale-out chain. Rows are processed [`TILE_M`]
/// at a time so each panel (and its exponents) is reused for the whole
/// tile.
pub(super) fn gemm_span<A: Code, B: AlignedCode>(
    ap: PlaneView<'_, A>,
    rows: usize,
    bp: PlaneView<'_, B>,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    out: &mut [f32],
) {
    let (k1, blocks) = (ap.k1, ap.blocks);
    let g = lane_k::<B>();
    let block_codes = PANEL_COLS * k1.next_multiple_of(g);
    for i0 in (0..rows).step_by(TILE_M) {
        for j in (0..n).step_by(PANEL_COLS) {
            let panel = bp.panel(j, n);
            let width = panel.uexp.len();
            for row in i0..rows.min(i0 + TILE_M) {
                let arow = &ap.codes[row * blocks * k1..][..blocks * k1];
                let aexps = &ap.exps[row * blocks..][..blocks];
                let au = ap.uexp[row];
                let defers: [bool; PANEL_COLS] = std::array::from_fn(|l| {
                    l < width
                        && ctx.enabled
                        && au != MIXED_EXP
                        && panel.uexp[l] != MIXED_EXP
                        && (ctx.e_lo..=ctx.e_hi).contains(&(au + panel.uexp[l]))
                });
                let mut acc = [0.0f32; PANEL_COLS];
                let mut total = [0i64; PANEL_COLS];
                let blocks_ab = arow
                    .chunks_exact(k1)
                    .zip(panel.codes.chunks_exact(block_codes));
                for (kb, (ablock, bblock)) in blocks_ab.enumerate() {
                    let mut dots = [A::Acc::default(); PANEL_COLS];
                    // Group row `q` holds K codes `g·q ..` of every lane,
                    // `g` per lane; A's codes past `k1` read as zeros.
                    for (q, grow) in bblock.chunks_exact(g * PANEL_COLS).enumerate() {
                        let mut aq = [A::ZERO; 4];
                        for (x, a) in aq.iter_mut().take(g).enumerate() {
                            if let Some(&code) = ablock.get(q * g + x) {
                                *a = code;
                            }
                        }
                        for (dot, lane) in dots.iter_mut().zip(grow.chunks_exact(g)) {
                            for (&a, &b) in aq.iter().zip(lane) {
                                *dot += a.mul(b.aligned());
                            }
                        }
                    }
                    let bexps = &panel.exps[kb * PANEL_COLS..][..PANEL_COLS];
                    for l in 0..width {
                        let d: i64 = dots[l].into();
                        if defers[l] {
                            total[l] += d;
                        } else if d != 0 {
                            acc[l] += (d as f64 * pow2(aexps[kb] + bexps[l] + c)) as f32;
                        }
                    }
                }
                for (l, slot) in out[row * n + j..][..width].iter_mut().enumerate() {
                    *slot = if defers[l] {
                        // Deferred scale-out: one exact integer total for
                        // the whole K reduction, one f32 rounding.
                        (total[l] as f64 * pow2(au + panel.uexp[l] + c)) as f32
                    } else {
                        acc[l]
                    };
                }
            }
        }
    }
}

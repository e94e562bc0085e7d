//! The portable span kernel — the reference backend every other backend is
//! bit-identical to. It runs every vector-major plane: the wide (`i32`)
//! class, narrow planes whose block size is not the panel kernels'
//! `k1 = 16`, x86-64 CPUs without AVX2, and every other architecture.
//!
//! One generic implementation serves every code width through
//! [`super::Code::dot`]: `i16` activations against `i8` or `i16` weight
//! codes, and `i32` against `i32`. Deferred scale-out (see
//! [`super::pair::FormatPair::defer`]) is applied per output element whenever
//! the element's exponent metadata qualifies, with the per-block scale-out
//! chain as the exact fallback.

use super::pack::{PlaneView, MIXED_EXP};
use super::{Code, DeferCtx, TILE_M};
use crate::util::pow2;

/// Computes the output rows of the `rows` A-plane rows into `out` (a
/// `rows × n` slice): per output element, either one deferred integer
/// accumulation with a single scale-out (when the element's row/column
/// exponent metadata passes the [`DeferCtx`] checks) or the per-block
/// `f32` scale-out chain. Rows are processed [`TILE_M`] at a time so each
/// loaded B column (and its exponents) is reused for the whole tile; per
/// output element the K loop walks two contiguous code arrays.
pub(super) fn gemm_span<A: Code, B: Copy + Into<A>>(
    ap: PlaneView<'_, A>,
    rows: usize,
    bp: PlaneView<'_, B>,
    n: usize,
    c: i32,
    ctx: DeferCtx,
    out: &mut [f32],
) {
    let k1 = ap.k1;
    let blocks = ap.blocks;
    let kcodes = blocks * k1;
    let mut i0 = 0;
    while i0 < rows {
        let tm = TILE_M.min(rows - i0);
        for j in 0..n {
            let bcol = &bp.codes[j * kcodes..][..kcodes];
            let bexps = &bp.exps[j * blocks..][..blocks];
            let bu = bp.uexp[j];
            for t in 0..tm {
                let row = i0 + t;
                let arow = &ap.codes[row * kcodes..][..kcodes];
                let aexps = &ap.exps[row * blocks..][..blocks];
                let au = ap.uexp[row];
                let slot = &mut out[row * n + j];
                if ctx.enabled && au != MIXED_EXP && bu != MIXED_EXP {
                    let e = au + bu;
                    if (ctx.e_lo..=ctx.e_hi).contains(&e) {
                        // Deferred scale-out: one exact integer total for
                        // the whole K reduction, one f32 rounding.
                        let mut total = 0i64;
                        for (ab, bb) in arow.chunks_exact(k1).zip(bcol.chunks_exact(k1)) {
                            total += A::dot(ab, bb);
                        }
                        *slot = (total as f64 * pow2(e + c)) as f32;
                        continue;
                    }
                }
                let mut acc = 0.0f32;
                for ((ab, bb), (&ea, &eb)) in arow
                    .chunks_exact(k1)
                    .zip(bcol.chunks_exact(k1))
                    .zip(aexps.iter().zip(bexps.iter()))
                {
                    let d = A::dot(ab, bb);
                    if d != 0 {
                        acc += (d as f64 * pow2(ea + eb + c)) as f32;
                    }
                }
                *slot = acc;
            }
        }
        i0 += tm;
    }
}

//! Cache-blocked FP32 GEMM — the unquantized counterpart of
//! [`crate::gemm`], sharing its row dispatch and worker-grain policy.
//!
//! The seed's `Tensor::matmul` was a naive triple loop: for every output
//! row it streamed the whole of B, the accumulators lived in memory, and
//! the inner axpy was the only source of instruction-level parallelism.
//! This kernel keeps the *exact* accumulation semantics of that loop — per
//! output element the products `a[i,p]·b[p,j]` are rounded to `f32` one at
//! a time and added in ascending `p` order, and zero `a` elements are
//! skipped only when B is entirely finite (the IEEE `0×∞ → NaN` guard) —
//! while reorganizing the work for the cache and the vector units:
//!
//! - the reduction dimension is processed in `KC`-row panels of B, so a
//!   `KC × n` slab is touched repeatedly while it is hot;
//! - one register tile, written once in portable Rust with no intrinsics,
//!   holds `R ≤ MR` rows of accumulators (`[[f32; W]; R]`) across the
//!   whole K panel, so each B row segment loaded is reused `R` times; the
//!   same loop then takes the columns left one vector, and finally one
//!   column, at a time;
//! - that tile is compiled per kernel tier and runs on the one
//!   [`crate::gemm::selected_backend`] names, as the activation loop and
//!   the GEMM kernels do: an AVX-512F build, an AVX2 build, and the plain
//!   build (SSE2 on x86-64, NEON on AArch64); only the step width `W`
//!   differs, two or four of the tier's vectors. Every build multiplies
//!   and adds separately — **never FMA**, which would skip the per-product
//!   rounding and break bit-identity with the scalar loop — so every tier
//!   computes the same bits;
//! - the zero-skip policy is resolved once per tile (scan the tile's A
//!   panel for zeros; only if one exists, resolve the memoized "is B all
//!   finite" scan) and the tile is monomorphized over it, so the hot
//!   loops carry no calls and at most one predictable compare.
//!
//! Because only the iteration *shape* changes and not the order of rounded
//! operations per output element, [`matmul`] is bit-identical to the seed
//! triple loop for every input, NaN/∞ cases included — asserted against a
//! reference copy of that loop in the test suite. Row spans are whole rows,
//! so the multi-threaded result is bit-identical to serial as well.

use crate::gemm::{dispatch_rows, gemm_workers, selected_backend, KernelBackend};
use std::sync::OnceLock;

/// Reduction-dimension panel: a `KC × n` slab of B (256 KiB of `f32` at
/// `n = 512`) stays cache-resident while [`MR`] rows accumulate over it.
const KC: usize = 128;

/// Rows of A accumulated per register tile: each B vector loaded from the
/// panel is reused this many times from registers.
const MR: usize = 4;

/// Matrix product `A[m,k] × B[k,n]` in plain `f32`, blocked and vectorized,
/// dispatched over `threads` row-span workers (`0` = all cores; spans are
/// whole rows, so the result is bit-identical regardless of thread count).
///
/// Accumulation semantics are exactly the seed triple loop's: per output
/// element, products round to `f32` individually and accumulate in
/// ascending `p` order; zero `a` elements are skipped only when every
/// element of `b` is finite, so `0 × ∞` and `0 × NaN` still propagate NaN.
/// The finiteness scan of B is memoized and deferred until a tile actually
/// contains a zero, so zero-free inputs never pay for it.
///
/// # Panics
///
/// Panics if `a.len() != m·k` or `b.len() != k·n`.
///
/// # Examples
///
/// ```
/// use mx_core::fgemm::matmul;
///
/// let a = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2×3
/// let b = vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]; // 3×2
/// assert_eq!(matmul(&a, &b, 2, 3, 2, 1), vec![58.0, 64.0, 139.0, 154.0]);
/// ```
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, threads: usize) -> Vec<f32> {
    matmul_on(selected_backend(), a, b, m, k, n, threads)
}

/// [`matmul`] on the `backend` tier's build of the tile, or the plain
/// build when this CPU lacks that tier's ISA; every tier computes the same
/// bits.
fn matmul_on(
    backend: KernelBackend,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "A is not {m}x{k}");
    assert_eq!(b.len(), k * n, "B is not {k}x{n}");
    let mut out = vec![0.0f32; m * n];
    if m == 0 || n == 0 || k == 0 {
        return out;
    }
    // Shared across row-span workers: whichever tile first contains a zero
    // computes the scan, everyone else reuses the answer.
    let rhs_finite_memo: OnceLock<bool> = OnceLock::new();
    let rhs_finite = &|| *rhs_finite_memo.get_or_init(|| b.iter().all(|v| v.is_finite()));
    let workers = gemm_workers(m, n, k, threads);
    dispatch_rows(n, workers, &mut out, |r0, rows, part| {
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let b = &b[pc * n..][..kc * n];
            for i0 in (0..rows).step_by(MR) {
                let mr = MR.min(rows - i0);
                // The tile's A panel: row `r` of it starts at `r·k`.
                let a = &a[(r0 + i0) * k + pc..][..(mr - 1) * k + kc];
                let tile = &mut part[i0 * n..][..mr * n];
                // Resolve the zero-skip policy for this tile up front so
                // the tile stays call-free: skipping only happens when a
                // zero exists in the tile's A panel AND B is all finite
                // (the memoized scan runs at most once per matmul). With
                // `skip == false` the tile does the adds unconditionally —
                // either there is no zero to skip, or B is non-finite and
                // the seed loop would include the products too.
                // (f32 PartialEq: `contains(&0.0)` also matches -0.0,
                // exactly like the seed's `v == 0.0` test.)
                let has_zero = (0..mr).any(|r| a[r * k..][..kc].contains(&0.0));
                let skip = has_zero && rhs_finite();
                match (mr, skip) {
                    (4, true) => tile_on::<4, true>(backend, a, b, k, n, kc, tile),
                    (4, false) => tile_on::<4, false>(backend, a, b, k, n, kc, tile),
                    (3, true) => tile_on::<3, true>(backend, a, b, k, n, kc, tile),
                    (3, false) => tile_on::<3, false>(backend, a, b, k, n, kc, tile),
                    (2, true) => tile_on::<2, true>(backend, a, b, k, n, kc, tile),
                    (2, false) => tile_on::<2, false>(backend, a, b, k, n, kc, tile),
                    (_, true) => tile_on::<1, true>(backend, a, b, k, n, kc, tile),
                    (_, false) => tile_on::<1, false>(backend, a, b, k, n, kc, tile),
                }
            }
        }
    });
    out
}

/// The seed's `Tensor::matmul` triple loop, kept verbatim as the canonical
/// bit-identity oracle for [`matmul`]: per output element, one `f32`
/// product and one `f32` add per `p` in ascending order, skipping zero `a`
/// elements only when the memoized scan finds `b` entirely finite. The
/// consistency suites all reference this single copy — it is **not** a
/// fast path.
pub fn naive_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    let mut rhs_finite: Option<bool> = None;
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 && *rhs_finite.get_or_insert_with(|| b.iter().all(|v| v.is_finite())) {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
    out
}

/// [`tile`] on the `backend` tier's build, or the plain build when this
/// CPU lacks that tier's ISA.
fn tile_on<const R: usize, const SKIP: bool>(
    backend: KernelBackend,
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    kc: usize,
    out: &mut [f32],
) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 if std::arch::is_x86_feature_detected!("avx512f") => {
            // SAFETY: AVX-512F was detected on this CPU by the guard.
            unsafe { avx512_tile::<R, SKIP>(a, b, k, n, kc, out) }
        }
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
            // SAFETY: AVX2 was detected on this CPU by the guard.
            unsafe { avx2_tile::<R, SKIP>(a, b, k, n, kc, out) }
        }
        _ => plain_tile::<R, SKIP>(a, b, k, n, kc, out),
    }
}

/// [`tile`] compiled for AVX-512F: four vectors (64 columns) per step, at
/// most 16 accumulators, half the `zmm` registers.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn avx512_tile<const R: usize, const SKIP: bool>(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    kc: usize,
    out: &mut [f32],
) {
    tile::<R, SKIP, 64, 16>(a, b, k, n, kc, out);
}

/// [`tile`] compiled for AVX2: four vectors (32 columns) per step for one
/// row, two (16 columns) for more, so the accumulators never outgrow half
/// the 16 `ymm` registers.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_tile<const R: usize, const SKIP: bool>(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    kc: usize,
    out: &mut [f32],
) {
    if R == 1 {
        tile::<R, SKIP, 32, 8>(a, b, k, n, kc, out);
    } else {
        tile::<R, SKIP, 16, 8>(a, b, k, n, kc, out);
    }
}

/// [`tile`] in the plain build (SSE2 on x86-64, NEON on AArch64): four
/// 4-lane vectors (16 columns) per step for one row, two (8 columns) for
/// more, as in the AVX2 build.
fn plain_tile<const R: usize, const SKIP: bool>(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    kc: usize,
    out: &mut [f32],
) {
    if R == 1 {
        tile::<R, SKIP, 16, 4>(a, b, k, n, kc, out);
    } else {
        tile::<R, SKIP, 8, 4>(a, b, k, n, kc, out);
    }
}

/// The register tile: `R` rows of `out` (`R × n`) accumulate the `kc`-row
/// B panel `b` (`kc × n`) against A panel `a` (row `r` at `r·k`). Columns
/// go `W` at a time (two or four of the tier's vectors per row, so each
/// row has that many independent add chains), then `V` at a time (one
/// vector), then one at a time for the scalar tail — the same loop,
/// [`cols`], at three widths. Inlined into each tier's entry, so every
/// instantiation is vectorized with that tier's features.
#[inline(always)]
fn tile<const R: usize, const SKIP: bool, const W: usize, const V: usize>(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    kc: usize,
    out: &mut [f32],
) {
    let mut rows = [&a[..0]; R];
    for (r, row) in rows.iter_mut().enumerate() {
        *row = &a[r * k..][..kc];
    }
    let j = cols::<R, SKIP, W>(&rows, b, n, 0, out);
    let j = cols::<R, SKIP, V>(&rows, b, n, j, out);
    cols::<R, SKIP, 1>(&rows, b, n, j, out);
}

/// Columns `j..` of the tile, `NR` per step while a whole step fits, each
/// step's `[[f32; NR]; R]` accumulators held across the whole K panel so
/// every B row segment loaded is reused `R` times. Returns the first column
/// left. Plain loops only: a closure is a function of its own, which a
/// tier's target features do not reach.
#[inline(always)]
fn cols<const R: usize, const SKIP: bool, const NR: usize>(
    rows: &[&[f32]; R],
    b: &[f32],
    n: usize,
    mut j: usize,
    out: &mut [f32],
) -> usize {
    while j + NR <= n {
        let mut acc = [[0.0f32; NR]; R];
        for (r, row) in acc.iter_mut().enumerate() {
            row.copy_from_slice(&out[r * n + j..][..NR]);
        }
        // Row `p` of the panel from column `j` on, ascending `p`.
        for (p, brow) in b[j..].chunks(n).enumerate() {
            let bv: [f32; NR] = brow[..NR].try_into().unwrap();
            for (row, ar) in acc.iter_mut().zip(rows) {
                let av = ar[p];
                if SKIP && av == 0.0 {
                    continue;
                }
                // Separate mul + add: each product rounds to f32 before
                // the accumulate, exactly like the scalar `acc += a * b`.
                for (o, &bv) in row.iter_mut().zip(&bv) {
                    *o += av * bv;
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            out[r * n + j..][..NR].copy_from_slice(row);
        }
        j += NR;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical oracle, under its historical test name.
    use naive_matmul as seed_matmul;

    fn ramp(len: usize, salt: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let v =
                    ((i.wrapping_mul(131).wrapping_add(salt * 17) % 257) as f32 - 128.0) * 0.031;
                // Sprinkle exact zeros so the skip path is exercised.
                if i % 11 == salt % 11 {
                    0.0
                } else {
                    v
                }
            })
            .collect()
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], label: &str) {
        assert_eq!(got.len(), want.len(), "{label}");
        for (i, (x, y)) in got.iter().zip(want.iter()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{label}: bit mismatch at {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn bit_identical_to_seed_loop_across_shapes() {
        // Tails on every axis: MR row tails, vector-width column tails, and
        // K panels at, below, and beyond the KC boundary.
        for (m, k, n) in [
            (1, 1, 1),
            (1, 3, 5),
            (2, 7, 1),
            (3, 16, 9),
            (4, 128, 8),
            (5, 129, 17),
            (9, 260, 33),
            (4, 31, 4),
            (7, 257, 3),
        ] {
            let a = ramp(m * k, 1 + m);
            let b = ramp(k * n, 2 + n);
            let got = matmul(&a, &b, m, k, n, 1);
            let want = seed_matmul(&a, &b, m, k, n);
            assert_bits_eq(&got, &want, &format!("{m}x{k}x{n}"));
        }
    }

    #[test]
    fn negative_zero_interactions_match_seed() {
        // -0.0 in both operands: the skip rule and sign-of-zero arithmetic
        // must match the seed exactly (skipping a +0.0 product is visible
        // when the accumulator holds -0.0).
        let a = vec![-0.0, 0.0, -1.0, 0.0, -0.0, 2.0, -0.0, -0.0];
        let b = vec![-3.0, -0.0, 0.0, 5.0, -0.0, -0.0, 1.0, -7.0];
        for (m, k, n) in [(2, 4, 2), (4, 2, 4), (1, 8, 1)] {
            let got = matmul(&a, &b, m, k, n, 1);
            let want = seed_matmul(&a, &b, m, k, n);
            assert_bits_eq(&got, &want, &format!("-0.0 {m}x{k}x{n}"));
        }
    }

    #[test]
    fn zero_times_non_finite_propagates_nan() {
        // 0·∞ and 0·NaN must reach the output, exactly as in the seed.
        let a = vec![0.0, 1.0];
        let b = vec![f32::INFINITY, 2.0];
        assert!(matmul(&a, &b, 1, 2, 1, 1)[0].is_nan(), "0 x inf");
        let bn = vec![f32::NAN, 2.0];
        assert!(matmul(&a, &bn, 1, 2, 1, 1)[0].is_nan(), "0 x NaN");
        // Finite rhs takes the skip path and stays exact.
        let bf = vec![3.0, 2.0];
        assert_eq!(matmul(&a, &bf, 1, 2, 1, 1), vec![2.0]);
        // Wide-enough shapes push the non-finite case through the vector
        // kernels too.
        let (m, k, n) = (5, 9, 19);
        let mut bw = ramp(k * n, 3);
        bw[k * n / 2] = f32::NEG_INFINITY;
        let aw = ramp(m * k, 4);
        let got = matmul(&aw, &bw, m, k, n, 1);
        let want = seed_matmul(&aw, &bw, m, k, n);
        for (x, y) in got.iter().zip(want.iter()) {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{x} vs {y}"
            );
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        // The second shape is above the fan-out threshold (3 ragged row
        // spans of 34, 34, 32); the first stays serial at any budget.
        for (m, k, n) in [(64, 96, 48), (100, 256, 128)] {
            let a = ramp(m * k, 5);
            let b = ramp(k * n, 6);
            let serial = matmul(&a, &b, m, k, n, 1);
            for threads in [2usize, 3, 7, 0] {
                let par = matmul(&a, &b, m, k, n, threads);
                assert_bits_eq(&par, &serial, &format!("m={m} threads={threads}"));
            }
        }
    }

    /// The tiers this CPU can run (the others fall back to the plain build
    /// and test nothing new).
    fn tiers() -> Vec<KernelBackend> {
        let mut tiers = vec![KernelBackend::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                tiers.push(KernelBackend::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                tiers.push(KernelBackend::Avx512);
            }
        }
        tiers
    }

    #[test]
    fn every_tier_matches_the_seed_loop() {
        // Every build of the tile, through its tier entry (the process-wide
        // backend is left alone), on every width step and tail: rows below,
        // at and beyond `MR`, columns around each tier's vector and step
        // widths, K panels around `KC`.
        for m in [1, 2, 3, 4, 5, 33] {
            for n in [1, 7, 8, 15, 16, 17, 33, 100] {
                for k in [1, 127, 128, 129, 300] {
                    // A: ramp zeros, -0.0, and a zero (or -0.0) in column
                    // `k / 2` for two rows in three.
                    let mut a = ramp(m * k, m + n);
                    for (i, row) in a.chunks_mut(k).enumerate() {
                        row[(i * 5) % k] = -0.0;
                        if i % 3 != 2 {
                            row[k / 2] = if i % 2 == 0 { 0.0 } else { -0.0 };
                        }
                    }
                    // B finite: the skip runs wherever a tile has a zero.
                    // B with ±∞ and NaN, one of them in row `k / 2`: the
                    // skip is off, and `0 × ∞` must reach the output.
                    let finite = ramp(k * n, k + n);
                    let mut non_finite = finite.clone();
                    non_finite[(k / 2) * n + n / 2] = f32::INFINITY;
                    non_finite[n - 1] = f32::NEG_INFINITY;
                    non_finite[(k - 1) * n] = f32::NAN;
                    for b in [&finite, &non_finite] {
                        let want = naive_matmul(&a, b, m, k, n);
                        for tier in tiers() {
                            for threads in [1, 0] {
                                let got = matmul_on(tier, &a, b, m, k, n, threads);
                                for (i, (x, y)) in got.iter().zip(&want).enumerate() {
                                    assert!(
                                        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                                        "{tier:?} threads={threads} {m}x{k}x{n} at {i}: {x} vs {y}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_dims() {
        assert_eq!(matmul(&[], &[], 0, 4, 0, 1), Vec::<f32>::new());
        assert_eq!(matmul(&[], &[], 2, 0, 3, 1), vec![0.0; 6]);
        assert_eq!(matmul(&[1.0; 4], &[], 1, 4, 0, 1), Vec::<f32>::new());
    }

    #[test]
    #[should_panic(expected = "A is not")]
    fn dimension_mismatch_panics() {
        let _ = matmul(&[1.0; 5], &[1.0; 6], 2, 3, 2, 1);
    }
}

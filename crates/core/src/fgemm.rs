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
//! - `MR` rows of A are register-tiled per pass: the accumulators stay
//!   in vector registers across the whole K panel and each loaded B
//!   vector is reused `MR` times, instead of one load-add-store round
//!   trip per element;
//! - the column loop runs 16 lanes at a time under AVX2 (8 under the SSE2
//!   x86-64 baseline, plain autovectorizable loops elsewhere; the AVX2
//!   tile runs unless the selected kernel backend,
//!   [`crate::gemm::selected_backend`], is `scalar`), using
//!   separate multiply and add instructions — **never FMA**, which would
//!   skip the per-product rounding and break bit-identity with the scalar
//!   loop;
//! - the zero-skip policy is resolved once per tile (scan the tile's A
//!   panel for zeros; only if one exists, resolve the memoized "is B all
//!   finite" scan) and the kernels are monomorphized over it, so the hot
//!   loops carry no calls and at most one predictable compare.
//!
//! Because only the iteration *shape* changes and not the order of rounded
//! operations per output element, [`matmul`] is bit-identical to the seed
//! triple loop for every input, NaN/∞ cases included — asserted against a
//! reference copy of that loop in the test suite. Row spans are whole rows,
//! so the multi-threaded result is bit-identical to serial as well.

use crate::gemm::{dispatch_rows, gemm_workers};
#[cfg(target_arch = "x86_64")]
use crate::gemm::{selected_backend, KernelBackend};
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
    // The AVX2 tile follows the kernel-backend selection
    // (`MX_KERNEL_BACKEND=scalar` runs the SSE2 tile); the feature check
    // is what makes the AVX2 tile safe to call.
    #[cfg(target_arch = "x86_64")]
    let use_avx2 =
        selected_backend() != KernelBackend::Scalar && std::arch::is_x86_feature_detected!("avx2");
    let workers = gemm_workers(m, n, k, threads);
    dispatch_rows(n, workers, &mut out, |r0, rows, part| {
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            for i0 in (0..rows).step_by(MR) {
                let mr = MR.min(rows - i0);
                let abase = (r0 + i0) * k;
                let tile = &mut part[i0 * n..][..mr * n];
                // Resolve the zero-skip policy for this tile up front so
                // the kernels stay call-free: skipping only happens when a
                // zero exists in the tile's A panel AND B is all finite
                // (the memoized scan runs at most once per matmul). With
                // `skip == false` the kernels do the adds unconditionally —
                // either there is no zero to skip, or B is non-finite and
                // the seed loop would include the products too.
                // (f32 PartialEq: `contains(&0.0)` also matches -0.0,
                // exactly like the seed's `v == 0.0` test.)
                let has_zero = (0..mr).any(|r| a[abase + r * k + pc..][..kc].contains(&0.0));
                let skip = has_zero && rhs_finite();
                #[cfg(target_arch = "x86_64")]
                {
                    // SAFETY: slice bounds were just established (`tile` is
                    // `mr × n`, A rows `abase .. abase + mr·k` exist, B rows
                    // `pc .. pc + kc` exist), and the AVX2 variant only runs
                    // after `is_x86_feature_detected!` confirmed support.
                    unsafe {
                        match (use_avx2, mr, skip) {
                            (true, 4, true) => {
                                tile_avx2::<4, true>(a, b, abase, k, n, pc, kc, tile)
                            }
                            (true, 4, false) => {
                                tile_avx2::<4, false>(a, b, abase, k, n, pc, kc, tile)
                            }
                            (true, 3, true) => {
                                tile_avx2::<3, true>(a, b, abase, k, n, pc, kc, tile)
                            }
                            (true, 3, false) => {
                                tile_avx2::<3, false>(a, b, abase, k, n, pc, kc, tile)
                            }
                            (true, 2, true) => {
                                tile_avx2::<2, true>(a, b, abase, k, n, pc, kc, tile)
                            }
                            (true, 2, false) => {
                                tile_avx2::<2, false>(a, b, abase, k, n, pc, kc, tile)
                            }
                            (true, _, true) => {
                                tile_avx2::<1, true>(a, b, abase, k, n, pc, kc, tile)
                            }
                            (true, _, false) => {
                                tile_avx2::<1, false>(a, b, abase, k, n, pc, kc, tile)
                            }
                            (false, 4, true) => {
                                tile_sse2::<4, true>(a, b, abase, k, n, pc, kc, tile)
                            }
                            (false, 4, false) => {
                                tile_sse2::<4, false>(a, b, abase, k, n, pc, kc, tile)
                            }
                            (false, 3, true) => {
                                tile_sse2::<3, true>(a, b, abase, k, n, pc, kc, tile)
                            }
                            (false, 3, false) => {
                                tile_sse2::<3, false>(a, b, abase, k, n, pc, kc, tile)
                            }
                            (false, 2, true) => {
                                tile_sse2::<2, true>(a, b, abase, k, n, pc, kc, tile)
                            }
                            (false, 2, false) => {
                                tile_sse2::<2, false>(a, b, abase, k, n, pc, kc, tile)
                            }
                            (false, _, true) => {
                                tile_sse2::<1, true>(a, b, abase, k, n, pc, kc, tile)
                            }
                            (false, _, false) => {
                                tile_sse2::<1, false>(a, b, abase, k, n, pc, kc, tile)
                            }
                        }
                    }
                }
                #[cfg(not(target_arch = "x86_64"))]
                tile_portable(a, b, abase, mr, k, n, pc, kc, tile, skip);
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

/// Scalar K-panel accumulation for the columns `jt..n` of one register tile
/// — the ragged tail the vector kernels hand off to. Same per-element
/// order and skip rule as the vector body.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // a GEMM tile is dims + panel + operands
fn tail_cols<const R: usize, const SKIP: bool>(
    a: &[f32],
    b: &[f32],
    abase: usize,
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jt: usize,
    out: &mut [f32],
) {
    for j in jt..n {
        for r in 0..R {
            let mut acc = out[r * n + j];
            for p in pc..pc + kc {
                let av = a[abase + r * k + p];
                if SKIP && av == 0.0 {
                    continue;
                }
                acc += av * b[p * n + j];
            }
            out[r * n + j] = acc;
        }
    }
}

/// AVX2 register tile: `R` rows × 16 columns per step (two 8-lane
/// accumulators per row, held in registers across the whole K panel), with
/// an 8-lane step and a scalar loop mopping up the column tail.
///
/// # Safety
///
/// Requires AVX2; `out` must be `R × n`, A must hold rows
/// `abase .. abase + R·k`, and B rows `pc .. pc + kc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)] // a GEMM tile is dims + panel + operands
unsafe fn tile_avx2<const R: usize, const SKIP: bool>(
    a: &[f32],
    b: &[f32],
    abase: usize,
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    debug_assert!(out.len() == R * n);
    debug_assert!(R >= 1 && abase + (R - 1) * k + pc + kc <= a.len());
    let mut j = 0;
    // Main step: 16 columns, 2·R accumulator registers.
    while j + 16 <= n {
        // SAFETY: `j + 16 ≤ n` keeps every 8-lane load/store at
        // `r·n + j (+8)` inside `out` (`R × n`) and every B load at
        // `p·n + j (+8)` inside rows `pc .. pc + kc` of B (`k × n`);
        // `a.get_unchecked(abase + r·k + p)` is in bounds because A holds
        // rows `abase .. abase + R·k` (debug-asserted above).
        unsafe {
            let mut acc0 = [_mm256_setzero_ps(); R];
            let mut acc1 = [_mm256_setzero_ps(); R];
            for r in 0..R {
                acc0[r] = _mm256_loadu_ps(out.as_ptr().add(r * n + j));
                acc1[r] = _mm256_loadu_ps(out.as_ptr().add(r * n + j + 8));
            }
            for p in pc..pc + kc {
                let vb0 = _mm256_loadu_ps(b.as_ptr().add(p * n + j));
                let vb1 = _mm256_loadu_ps(b.as_ptr().add(p * n + j + 8));
                for r in 0..R {
                    let av = *a.get_unchecked(abase + r * k + p);
                    if SKIP && av == 0.0 {
                        continue;
                    }
                    // Separate mul + add: each product rounds to f32
                    // before the accumulate, exactly like the scalar
                    // `acc += a * b`.
                    let va = _mm256_set1_ps(av);
                    acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(va, vb0));
                    acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(va, vb1));
                }
            }
            for r in 0..R {
                _mm256_storeu_ps(out.as_mut_ptr().add(r * n + j), acc0[r]);
                _mm256_storeu_ps(out.as_mut_ptr().add(r * n + j + 8), acc1[r]);
            }
        }
        j += 16;
    }
    // Single-vector step for an 8..16-column remainder.
    while j + 8 <= n {
        // SAFETY: `j + 8 ≤ n` bounds the single 8-lane column group the
        // same way as the 16-column step above.
        unsafe {
            let mut acc = [_mm256_setzero_ps(); R];
            for (r, slot) in acc.iter_mut().enumerate() {
                *slot = _mm256_loadu_ps(out.as_ptr().add(r * n + j));
            }
            for p in pc..pc + kc {
                let vb = _mm256_loadu_ps(b.as_ptr().add(p * n + j));
                for (r, slot) in acc.iter_mut().enumerate() {
                    let av = *a.get_unchecked(abase + r * k + p);
                    if SKIP && av == 0.0 {
                        continue;
                    }
                    *slot = _mm256_add_ps(*slot, _mm256_mul_ps(_mm256_set1_ps(av), vb));
                }
            }
            for (r, slot) in acc.iter().enumerate() {
                _mm256_storeu_ps(out.as_mut_ptr().add(r * n + j), *slot);
            }
        }
        j += 8;
    }
    tail_cols::<R, SKIP>(a, b, abase, k, n, pc, kc, j, out);
}

/// SSE2 register tile (`R` rows × 8 columns per step, 4-lane remainder) —
/// the x86-64 baseline, used when AVX2 is not available.
///
/// # Safety
///
/// `out` must be `R × n`, A must hold rows `abase .. abase + R·k`, and B
/// rows `pc .. pc + kc`. (SSE2 itself is part of the x86-64 baseline ABI.)
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)] // a GEMM tile is dims + panel + operands
unsafe fn tile_sse2<const R: usize, const SKIP: bool>(
    a: &[f32],
    b: &[f32],
    abase: usize,
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let mut j = 0;
    while j + 8 <= n {
        // SAFETY: `j + 8 ≤ n` keeps every 4-lane load/store at
        // `r·n + j (+4)` inside `out` (`R × n`) and every B load at
        // `p·n + j (+4)` inside rows `pc .. pc + kc` of B (`k × n`);
        // `a.get_unchecked(abase + r·k + p)` is in bounds because A holds
        // rows `abase .. abase + R·k`. SSE2 is x86-64 baseline, so the
        // intrinsics themselves are always available.
        unsafe {
            let mut acc0 = [_mm_setzero_ps(); R];
            let mut acc1 = [_mm_setzero_ps(); R];
            for r in 0..R {
                acc0[r] = _mm_loadu_ps(out.as_ptr().add(r * n + j));
                acc1[r] = _mm_loadu_ps(out.as_ptr().add(r * n + j + 4));
            }
            for p in pc..pc + kc {
                let vb0 = _mm_loadu_ps(b.as_ptr().add(p * n + j));
                let vb1 = _mm_loadu_ps(b.as_ptr().add(p * n + j + 4));
                for r in 0..R {
                    let av = *a.get_unchecked(abase + r * k + p);
                    if SKIP && av == 0.0 {
                        continue;
                    }
                    let va = _mm_set1_ps(av);
                    acc0[r] = _mm_add_ps(acc0[r], _mm_mul_ps(va, vb0));
                    acc1[r] = _mm_add_ps(acc1[r], _mm_mul_ps(va, vb1));
                }
            }
            for r in 0..R {
                _mm_storeu_ps(out.as_mut_ptr().add(r * n + j), acc0[r]);
                _mm_storeu_ps(out.as_mut_ptr().add(r * n + j + 4), acc1[r]);
            }
        }
        j += 8;
    }
    while j + 4 <= n {
        // SAFETY: `j + 4 ≤ n` bounds the single 4-lane column group the
        // same way as the 8-column step above.
        unsafe {
            let mut acc = [_mm_setzero_ps(); R];
            for (r, slot) in acc.iter_mut().enumerate() {
                *slot = _mm_loadu_ps(out.as_ptr().add(r * n + j));
            }
            for p in pc..pc + kc {
                let vb = _mm_loadu_ps(b.as_ptr().add(p * n + j));
                for (r, slot) in acc.iter_mut().enumerate() {
                    let av = *a.get_unchecked(abase + r * k + p);
                    if SKIP && av == 0.0 {
                        continue;
                    }
                    *slot = _mm_add_ps(*slot, _mm_mul_ps(_mm_set1_ps(av), vb));
                }
            }
            for (r, slot) in acc.iter().enumerate() {
                _mm_storeu_ps(out.as_mut_ptr().add(r * n + j), *slot);
            }
        }
        j += 4;
    }
    tail_cols::<R, SKIP>(a, b, abase, k, n, pc, kc, j, out);
}

/// Portable register tile for non-x86 targets: unrolled over `mr` rows with
/// an autovectorizable axpy inner loop, same order and skip rule.
#[cfg(not(target_arch = "x86_64"))]
#[allow(clippy::too_many_arguments)] // a GEMM tile is dims + panel + operands
fn tile_portable(
    a: &[f32],
    b: &[f32],
    abase: usize,
    mr: usize,
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    out: &mut [f32],
    skip: bool,
) {
    for p in pc..pc + kc {
        let brow = &b[p * n..][..n];
        for r in 0..mr {
            let av = a[abase + r * k + p];
            if skip && av == 0.0 {
                continue;
            }
            let orow = &mut out[r * n..][..n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
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

//! Consistency suite for the integer code-domain GEMM: on every supported
//! format pair and shape — including ragged K tails, all-zero blocks, and
//! degenerate 1×N / M×1 edges — `PackedOperand::pack_cols` + the one
//! execute entry must be **bit-identical** to the quantize → dequantize →
//! `f32` matmul reference, a plane packed once must stay so across calls,
//! and the nn-layer `quantized_matmul` must route through it without
//! call-site changes. The blocked FP32 `matmul` is held to the same
//! standard against the seed's naive triple loop.

mod common;

use common::{assert_bits_eq, gemm, stress_vector};
use mx::core::bdr::BdrFormat;
use mx::core::gemm::{
    code_domain_supported, quantized_gemm_prepacked_scratch, reference_gemm, PackScratch,
    PackedOperand,
};
use mx::nn::format::TensorFormat;
use mx::nn::qflow::quantized_matmul_ab;
use mx::nn::tensor::Tensor;

const FORMATS: [BdrFormat; 4] = [
    BdrFormat::MX4,
    BdrFormat::MX6,
    BdrFormat::MX9,
    BdrFormat::MSFP12,
];

/// Random shapes across every preset format pair (including mixed weight /
/// activation formats): code domain == dequantize reference, bit for bit.
#[test]
fn code_domain_matches_dequantize_reference() {
    for fa in FORMATS {
        for fb in FORMATS {
            assert!(code_domain_supported(&fa, &fb), "{fa} x {fb}");
            for (m, k, n) in [(4, 64, 8), (3, 48, 5), (8, 512, 2)] {
                let a = stress_vector(m * k, m + k);
                let b = stress_vector(k * n, k + n + 1);
                let got = gemm(&a, &b, m, k, n, fa, fb, 1);
                let want = reference_gemm(&a, &b, m, k, n, fa, fb);
                assert_bits_eq(&got, &want, &format!("{fa}x{fb} {m}x{k}x{n}"));
            }
        }
    }
}

/// K values that are not multiples of `k1` (and smaller than one block)
/// leave ragged tail blocks on both operands; the integer path must pad
/// and scale them identically to the reference.
#[test]
fn ragged_k_tail_blocks() {
    for fmt in [BdrFormat::MX4, BdrFormat::MX6, BdrFormat::MX9] {
        for k in [1usize, 2, 7, 15, 17, 21, 33, 47, 100] {
            let (m, n) = (3, 4);
            let a = stress_vector(m * k, k);
            let b = stress_vector(k * n, k + 3);
            let got = gemm(&a, &b, m, k, n, fmt, fmt, 1);
            let want = reference_gemm(&a, &b, m, k, n, fmt, fmt);
            assert_bits_eq(&got, &want, &format!("{fmt} K={k}"));
        }
    }
}

/// All-zero operand blocks exercise the shared-exponent-0 path: zero A,
/// zero B, and inputs whose zeros tile exactly one block.
#[test]
fn all_zero_blocks() {
    let fmt = BdrFormat::MX6;
    let (m, k, n) = (2, 48, 3);
    // Whole operands zero.
    let zeros = vec![0.0f32; m * k];
    let b = stress_vector(k * n, 5);
    let got = gemm(&zeros, &b, m, k, n, fmt, fmt, 1);
    assert!(got.iter().all(|v| v.to_bits() == 0), "0 * B must be +0.0");
    // Zeros covering exactly the middle k1-block of each row/column.
    let mut a = stress_vector(m * k, 7);
    for r in 0..m {
        for p in 16..32 {
            a[r * k + p] = if p % 2 == 0 { 0.0 } else { -0.0 };
        }
    }
    let mut bz = stress_vector(k * n, 9);
    for p in 16..32 {
        for j in 0..n {
            bz[p * n + j] = 0.0;
        }
    }
    let got = gemm(&a, &bz, m, k, n, fmt, fmt, 1);
    let want = reference_gemm(&a, &bz, m, k, n, fmt, fmt);
    assert_bits_eq(&got, &want, "zero middle block");
}

/// Degenerate output shapes: single-row, single-column, and 1×1 products.
#[test]
fn row_and_column_vector_shapes() {
    for fmt in [BdrFormat::MX6, BdrFormat::MX9] {
        for (m, k, n) in [(1, 40, 9), (7, 33, 1), (1, 16, 1), (1, 5, 1)] {
            let a = stress_vector(m * k, m + 11);
            let b = stress_vector(k * n, n + 13);
            let got = gemm(&a, &b, m, k, n, fmt, fmt, 1);
            let want = reference_gemm(&a, &b, m, k, n, fmt, fmt);
            assert_bits_eq(&got, &want, &format!("{fmt} {m}x{k}x{n}"));
        }
    }
}

/// Shapes for the thread-count loops: the first is small enough that the
/// GEMM's MAC grain keeps it serial under any budget, the second (3.1 Mi
/// MACs) is fanned out to up to three ragged row spans (34, 34, 32).
const PARALLEL_SHAPES: [(usize, usize, usize); 2] = [(48, 80, 32), (100, 256, 128)];

/// Row-parallel dispatch is bit-identical to the reference for every
/// thread count, including the "all cores" knob.
#[test]
fn parallel_gemm_is_bit_identical() {
    let fmt = BdrFormat::MX9;
    for (m, k, n) in PARALLEL_SHAPES {
        let a = stress_vector(m * k, 17);
        let b = stress_vector(k * n, 19);
        let want = reference_gemm(&a, &b, m, k, n, fmt, fmt);
        for threads in [1usize, 2, 3, 5, 8, 0] {
            let got = gemm(&a, &b, m, k, n, fmt, fmt, threads);
            assert_bits_eq(&got, &want, &format!("m={m} threads={threads}"));
        }
    }
}

/// The nn-layer entry point routes BDR format pairs through the integer
/// path (bit-identical to the reference) and leaves identity formats on
/// the exact `f32` matmul.
#[test]
fn nn_matmul_routes_through_code_domain() {
    let (m, k, n) = (5, 37, 6);
    let a = Tensor::from_vec(stress_vector(m * k, 23), &[m, k]);
    let b = Tensor::from_vec(stress_vector(k * n, 29), &[k, n]);
    for (fa, fb) in [
        (TensorFormat::MX4, TensorFormat::MX4),
        (TensorFormat::MX6, TensorFormat::MX9),
        (TensorFormat::Bdr(BdrFormat::MSFP12), TensorFormat::MX6),
    ] {
        let y = quantized_matmul_ab(&a, &b, fa, fb);
        let (TensorFormat::Bdr(ba), TensorFormat::Bdr(bb)) = (fa, fb) else {
            unreachable!()
        };
        let want = reference_gemm(a.data(), b.data(), m, k, n, ba, bb);
        assert_bits_eq(y.data(), &want, &format!("{fa}/{fb}"));
        assert_eq!(y.shape(), &[m, n]);
    }
    // Identity formats short-circuit to the exact product.
    let exact = quantized_matmul_ab(&a, &b, TensorFormat::Fp32, TensorFormat::Fp32);
    assert_eq!(exact, a.matmul(&b));
}

/// Formats that cannot take a vector body (block size ≠ 16, or operand
/// codes wider than `i16`) pack into the same plane layout and run the
/// portable scalar kernel on every backend; it must honor the same
/// bit-identity guarantee. Covers the `i16` kernel via a `k1 = 32` narrow
/// format and the `i32` one via a 16-bit-mantissa format.
#[test]
fn generic_fallback_kernels_match_reference() {
    // k1 = 32, d2 = 2: narrow i16 codes, but not the vector bodies' block size.
    let k32 = BdrFormat::new(4, 8, 2, 32, 4).unwrap();
    // m = 16: aligned codes exceed 15 bits, forcing the i32/i64 path.
    let wide = BdrFormat::new(16, 4, 0, 16, 2).unwrap();
    for fmt in [k32, wide] {
        assert!(code_domain_supported(&fmt, &fmt), "{fmt}");
        for (m, k, n) in [(3, 80, 5), (2, 37, 4), (1, 100, 1)] {
            let a = stress_vector(m * k, m + k + 41);
            let b = stress_vector(k * n, k + n + 43);
            let got = gemm(&a, &b, m, k, n, fmt, fmt, 1);
            let want = reference_gemm(&a, &b, m, k, n, fmt, fmt);
            assert_bits_eq(&got, &want, &format!("{fmt} {m}x{k}x{n}"));
        }
    }
}

/// Packing once must change nothing observable: for every preset format
/// pair, ragged K tails included, one B plane and one scratch reused
/// across calls with fresh activations stay bit-identical to the
/// dequantize reference.
#[test]
fn prepacked_plane_reused_across_calls_matches_reference() {
    let mut scratch = PackScratch::new();
    for fa in FORMATS {
        for fb in FORMATS {
            for (m, k, n) in [(4, 64, 8), (3, 37, 5), (1, 7, 1)] {
                let b = stress_vector(k * n, k + n + 51);
                let pb = PackedOperand::pack_cols(&b, k, n, fa, fb).unwrap();
                for pass in 0..2 {
                    let a = stress_vector(m * k, m + k + pass);
                    let got = quantized_gemm_prepacked_scratch(&a, m, fa, &pb, 1, &mut scratch);
                    let want = reference_gemm(&a, &b, m, k, n, fa, fb);
                    let ctx = format!("{fa}x{fb} {m}x{k}x{n} pass={pass}");
                    assert_bits_eq(&got.unwrap(), &want, &ctx);
                }
            }
        }
    }
}

/// One plane under row-parallel dispatch with a mixed format pair:
/// bit-identical to the reference for every thread count.
#[test]
fn prepacked_parallel_is_bit_identical() {
    let (fa, fb) = (BdrFormat::MX6, BdrFormat::MX9);
    let mut scratch = PackScratch::new();
    for (m, k, n) in PARALLEL_SHAPES {
        let a = stress_vector(m * k, 61);
        let b = stress_vector(k * n, 63);
        let pb = PackedOperand::pack_cols(&b, k, n, fa, fb).unwrap();
        let want = reference_gemm(&a, &b, m, k, n, fa, fb);
        for threads in [1usize, 2, 3, 5, 8, 0] {
            let got = quantized_gemm_prepacked_scratch(&a, m, fa, &pb, threads, &mut scratch);
            assert_bits_eq(&got.unwrap(), &want, &format!("m={m} threads={threads}"));
        }
    }
}

/// A plane that runs the scalar kernel (`k1 ≠ 16`, or `i32` codes) in the
/// one layout serves every partner of its kernel class: a `k1 = 32`
/// narrow plane packed for one partner executes another, and a wide plane
/// refuses a narrow-class partner outright.
#[test]
fn prepacked_generic_kernels_match_reference() {
    let k32 = BdrFormat::new(4, 8, 2, 32, 4).unwrap();
    let k32_partner = BdrFormat::new(7, 8, 1, 32, 8).unwrap();
    let wide = BdrFormat::new(16, 4, 0, 16, 2).unwrap();
    let (m, k, n) = (3, 80, 5);
    let a = stress_vector(m * k, 71);
    let b = stress_vector(k * n, 73);
    let mut scratch = PackScratch::new();
    let pb = PackedOperand::pack_cols(&b, k, n, k32, k32).unwrap();
    assert!(pb.accepts(&k32_partner));
    let got = quantized_gemm_prepacked_scratch(&a, m, k32_partner, &pb, 1, &mut scratch);
    let want = reference_gemm(&a, &b, m, k, n, k32_partner, k32);
    assert_bits_eq(&got.unwrap(), &want, "k1=32 plane, swapped partner");
    let pb = PackedOperand::pack_cols(&b, k, n, wide, BdrFormat::MX6).unwrap();
    assert!(pb.accepts(&wide) && !pb.accepts(&BdrFormat::MX6));
    let got = quantized_gemm_prepacked_scratch(&a, m, wide, &pb, 1, &mut scratch);
    let want = reference_gemm(&a, &b, m, k, n, wide, BdrFormat::MX6);
    assert_bits_eq(&got.unwrap(), &want, "wide-class MX6 plane");
    assert!(
        quantized_gemm_prepacked_scratch(&a, m, BdrFormat::MX6, &pb, 1, &mut scratch).is_none()
    );
}

/// The blocked, vectorized FP32 `Tensor::matmul` is bit-identical to the
/// seed's naive triple loop — zero-skip semantics (and its 0×∞/0×NaN
/// guard) included.
#[test]
fn blocked_f32_matmul_matches_seed_triple_loop() {
    // The canonical copy of the seed loop.
    use mx::core::fgemm::naive_matmul as seed_matmul;
    for (m, k, n) in [
        (1, 1, 1),
        (5, 129, 17),
        (4, 512, 8),
        (9, 260, 33),
        (2, 16, 3),
    ] {
        let a = stress_vector(m * k, m + 81);
        let b = stress_vector(k * n, n + 83);
        let at = Tensor::from_vec(a.clone(), &[m, k]);
        let bt = Tensor::from_vec(b.clone(), &[k, n]);
        let got = at.matmul(&bt);
        let want = seed_matmul(&a, &b, m, k, n);
        assert_bits_eq(got.data(), &want, &format!("f32 {m}x{k}x{n}"));
    }
    // Non-finite rhs disables the zero-skip: NaN must reach the output.
    let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]);
    let b = Tensor::from_vec(vec![f32::INFINITY, 2.0], &[2, 1]);
    assert!(a.matmul(&b).data()[0].is_nan(), "0 x inf must be NaN");
}

/// For K within a single k1-block, the blocked accumulation degenerates to
/// the naive product: the code-domain result equals the seed's
/// quantize-both-then-`f32`-matmul composition exactly.
#[test]
fn single_block_k_matches_naive_composition() {
    use mx::nn::format::{quantize_along, Axis};
    for fmt in [TensorFormat::MX4, TensorFormat::MX6, TensorFormat::MX9] {
        let (m, k, n) = (4, 16, 4);
        let a = Tensor::from_vec(stress_vector(m * k, 31), &[m, k]);
        let b = Tensor::from_vec(stress_vector(k * n, 37), &[k, n]);
        let y = quantized_matmul_ab(&a, &b, fmt, fmt);
        let aq = quantize_along(&a, fmt, Axis::Row);
        let bq = quantize_along(&b, fmt, Axis::Col);
        assert_bits_eq(y.data(), aq.matmul(&bq).data(), &format!("{fmt}"));
    }
}

//! Consistency suite for the activation lowering behind the one GEMM
//! entry: for every supported format pair and shape — M = 1 decode rows,
//! row counts on both sides of the 8-row tile and the 32-row serving
//! batch, ragged K tails, all-zero blocks, wide custom formats, every
//! thread count — `quantized_gemm_prepacked_scratch` must be
//! **bit-identical** to the quantize → dequantize → `f32` matmul
//! reference, reject exactly what the plane does not accept, and the
//! `mx-nn` matmul that serving rides must stay on it with no call-site
//! changes.

mod common;

use common::{assert_bits_eq, stress_vector};
use mx::core::bdr::BdrFormat;
use mx::core::gemm::{
    quantized_gemm_prepacked_scratch, reference_gemm, PackScratch, PackedOperand,
};
use mx::nn::format::TensorFormat;
use mx::nn::qflow::quantized_matmul_ab;
use mx::nn::tensor::Tensor;

const PRESETS: [BdrFormat; 5] = [
    BdrFormat::MX4,
    BdrFormat::MX6,
    BdrFormat::MX9,
    BdrFormat::MSFP12,
    BdrFormat::MSFP16,
];

/// Runs one `k × n` weight plane against `m`-row activations for each `m`,
/// through one reused scratch, asserting bit equality with the reference.
fn check(ms: &[usize], k: usize, n: usize, fa: BdrFormat, fb: BdrFormat, salt: usize) {
    let b = stress_vector(k * n, salt + 1);
    let pb = PackedOperand::pack_cols(&b, k, n, fa, fb).expect("supported pair");
    let mut scratch = PackScratch::new();
    for &m in ms {
        let a = stress_vector(m * k, salt + m);
        let got = quantized_gemm_prepacked_scratch(&a, m, fa, &pb, 1, &mut scratch).unwrap();
        let want = reference_gemm(&a, &b, m, k, n, fa, fb);
        assert_bits_eq(&got, &want, &format!("{fa}/{fb} {m}x{k}x{n}"));
    }
}

/// Every preset × preset pair (mixed activation/weight formats included),
/// at an M = 1 decode shape, multi-tile row counts up to 100, with a
/// ragged K tail and with a single-block K.
#[test]
fn fused_matches_reference_across_preset_pairs() {
    for fa in PRESETS {
        for fb in PRESETS {
            check(&[1, 9, 32, 33, 100], 40, 7, fa, fb, 11);
            check(&[4], 16, 3, fa, fb, 37);
        }
    }
}

/// Zero activations (every block all-zero) and a zero weight operand both
/// produce exact +0.0 outputs, at a single-tile and a multi-tile row count.
#[test]
fn fused_zero_operands_give_zero_bits() {
    let fmt = BdrFormat::MX6;
    let (k, n) = (40, 5);
    let b = stress_vector(k * n, 41);
    let pb = PackedOperand::pack_cols(&b, k, n, fmt, fmt).unwrap();
    let pb0 = PackedOperand::pack_cols(&vec![0.0; k * n], k, n, fmt, fmt).unwrap();
    let mut scratch = PackScratch::new();
    for m in [3, 33] {
        let zeros = vec![0.0; m * k];
        let y = quantized_gemm_prepacked_scratch(&zeros, m, fmt, &pb, 1, &mut scratch).unwrap();
        assert!(y.iter().all(|v| v.to_bits() == 0), "zero A, m={m}");
        let a = stress_vector(m * k, 42);
        let y = quantized_gemm_prepacked_scratch(&a, m, fmt, &pb0, 1, &mut scratch).unwrap();
        assert!(y.iter().all(|v| v.to_bits() == 0), "zero B, m={m}");
    }
}

/// Degenerate dimensions flow through the entry unchanged.
#[test]
fn fused_degenerate_dims() {
    let fmt = BdrFormat::MX9;
    let mut scratch = PackScratch::new();
    let mut run = |a: &[f32], m, pb: &PackedOperand| {
        quantized_gemm_prepacked_scratch(a, m, fmt, pb, 1, &mut scratch).unwrap()
    };
    let pb = PackedOperand::pack_cols(&[], 0, 3, fmt, fmt).unwrap();
    assert_eq!(run(&[], 2, &pb), vec![0.0; 6]);
    assert_eq!(run(&[], 33, &pb), vec![0.0; 3 * 33]);
    let pb = PackedOperand::pack_cols(&[], 16, 0, fmt, fmt).unwrap();
    assert_eq!(run(&stress_vector(16, 43), 1, &pb), vec![]);
    let pb = PackedOperand::pack_cols(&stress_vector(16 * 4, 44), 16, 4, fmt, fmt).unwrap();
    assert_eq!(run(&[], 0, &pb), vec![]);
}

/// Row-parallel execution, every span lowering its own rows, is
/// bit-identical to the reference at every thread count.
#[test]
fn fused_thread_counts_are_bit_identical() {
    let fmt = BdrFormat::MX6;
    let mut scratch = PackScratch::new();
    // (96, 48) stays serial under the GEMM's MAC grain at these M; (512,
    // 256) is 4 Mi MACs at M = 32 and fans out to up to four row spans
    // (ragged at M = 33: 9, 9, 9, 6), and to up to seven at M = 100.
    for (k, n) in [(96, 48), (512, 256)] {
        let b = stress_vector(k * n, 52);
        let pb = PackedOperand::pack_cols(&b, k, n, fmt, fmt).unwrap();
        for m in [32, 33, 100] {
            let a = stress_vector(m * k, 51);
            let want = reference_gemm(&a, &b, m, k, n, fmt, fmt);
            for threads in [1usize, 2, 3, 7, 0] {
                let got = quantized_gemm_prepacked_scratch(&a, m, fmt, &pb, threads, &mut scratch)
                    .unwrap();
                assert_bits_eq(&got, &want, &format!("{m}x{k}x{n} threads={threads}"));
            }
        }
    }
}

/// A wide custom format pair (i32 codes, i64 accumulation) takes the
/// generic kernel and still matches the reference.
#[test]
fn fused_wide_format_pair() {
    let wide = BdrFormat::new(16, 8, 0, 16, 16).unwrap();
    check(&[2, 33], 40, 5, wide, wide, 61);
    check(&[1], 16, 1, wide, wide, 62);
}

/// A narrow pair with a block size other than 16 (`k1 = 32`) packs into
/// the one plane layout like every other pair and runs the scalar kernel,
/// whatever backend is selected.
#[test]
fn fused_narrow_pair_with_k1_other_than_16() {
    let k32 = BdrFormat::new(4, 8, 1, 32, 2).unwrap();
    check(&[3, 33], 80, 4, k32, k32, 71);
    check(&[1], 32, 6, k32, k32, 72);
}

/// The entry rejects exactly what the plane does not accept — a B plane
/// packed for the other kernel class, an unsupported pair — at every row
/// count, and the rejection precedes the degenerate-dims early return.
#[test]
fn fused_rejections_match_the_plane() {
    let narrow = BdrFormat::MX6;
    let wide = BdrFormat::new(16, 8, 0, 16, 16).unwrap();
    let k32 = BdrFormat::new(4, 8, 1, 32, 2).unwrap();
    let (k, n) = (16, 3);
    let b = stress_vector(k * n, 82);
    let pb = PackedOperand::pack_cols(&b, k, n, narrow, narrow).unwrap();
    let pb0 = PackedOperand::pack_cols(&[], 0, n, narrow, narrow).unwrap();
    let mut scratch = PackScratch::new();
    for fa in [narrow, BdrFormat::MX9, wide, k32] {
        let accepted = pb.accepts(&fa);
        assert_eq!(accepted, fa != wide && fa != k32, "{fa}");
        for m in [2, 33] {
            let a = stress_vector(m * k, 81);
            let ran = quantized_gemm_prepacked_scratch(&a, m, fa, &pb, 1, &mut scratch);
            assert_eq!(ran.is_some(), accepted, "{fa} m={m}");
            let ran = quantized_gemm_prepacked_scratch(&[], m, fa, &pb0, 1, &mut scratch);
            assert_eq!(ran.is_some(), accepted, "{fa} m={m} k=0");
        }
    }
}

/// One scratch serves interleaved shapes, formats, and kernel classes
/// without cross-talk: every call is bit-identical to a fresh-scratch run.
#[test]
fn fused_scratch_reuse_is_bit_identical() {
    let wide = BdrFormat::new(16, 8, 0, 16, 16).unwrap();
    let mut scratch = PackScratch::new();
    for (round, (fa, fb, m, k, n)) in [
        (BdrFormat::MX6, BdrFormat::MX6, 5, 40, 7),
        (BdrFormat::MX9, BdrFormat::MX4, 34, 48, 4),
        (wide, wide, 2, 40, 3),
        (BdrFormat::MSFP12, BdrFormat::MX6, 9, 16, 2),
        (wide, wide, 33, 24, 3),
    ]
    .into_iter()
    .enumerate()
    {
        let a = stress_vector(m * k, 90 + round);
        let b = stress_vector(k * n, 95 + round);
        let pb = PackedOperand::pack_cols(&b, k, n, fa, fb).unwrap();
        let reused = quantized_gemm_prepacked_scratch(&a, m, fa, &pb, 1, &mut scratch).unwrap();
        let fresh = quantized_gemm_prepacked_scratch(&a, m, fa, &pb, 1, &mut PackScratch::new());
        assert_bits_eq(
            &reused,
            &fresh.unwrap(),
            &format!("round {round} {fa}/{fb}"),
        );
    }
}

/// The nn-layer matmul — the call site serving rides — stays on the entry
/// with no call-site changes and is bit-identical to the reference at
/// serving shapes.
#[test]
fn nn_matmul_routes_through_fused_dispatch() {
    let (m, k, n) = (1, 40, 6);
    let a = Tensor::from_vec(stress_vector(m * k, 101), &[m, k]);
    let b = Tensor::from_vec(stress_vector(k * n, 102), &[k, n]);
    for (fa, fb) in [
        (TensorFormat::MX6, TensorFormat::MX6),
        (TensorFormat::MX9, TensorFormat::MX4),
    ] {
        let y = quantized_matmul_ab(&a, &b, fa, fb);
        let (TensorFormat::Bdr(ba), TensorFormat::Bdr(bb)) = (fa, fb) else {
            unreachable!()
        };
        let want = reference_gemm(a.data(), b.data(), m, k, n, ba, bb);
        assert_bits_eq(y.data(), &want, &format!("{fa}/{fb} through mx-nn"));
    }
}

//! Helpers shared by the GEMM bit-identity suites (`gemm_consistency`,
//! `gemm_fused`, `gemm_backends`).
#![allow(dead_code)] // each suite uses its own subset

use mx::core::bdr::BdrFormat;
use mx::core::gemm::{quantized_gemm_prepacked_scratch, PackScratch, PackedOperand};

/// Deterministic stress data: outliers, sign flips, scattered zeros, wide
/// magnitude spread, and every fourth `k1 = 16` block entirely zero (the
/// all-zero-block case the planner answers with `None`).
pub fn stress_vector(n: usize, salt: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            if (i / 16) % 4 == 3 {
                return 0.0;
            }
            let h = (i.wrapping_mul(2654435761).wrapping_add(salt * 97)) % 10_007;
            let base = h as f32 / 10_007.0 - 0.5;
            match i % 7 {
                0 => 0.0,
                1 => base * 1e4,
                2 => -base * 1e-4,
                3 => -0.0,
                _ => base,
            }
        })
        .collect()
}

pub fn assert_bits_eq(got: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{ctx}: element {i} differs: {g} ({:#x}) vs {w} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// `A[m,k] × B[k,n]` the way every caller runs it: pack B for the pair
/// (under whatever backend is selected right now), ask the plane, execute
/// through the one entry.
#[allow(clippy::too_many_arguments)] // a GEMM is dims + operands + formats
pub fn gemm(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    fa: BdrFormat,
    fb: BdrFormat,
    threads: usize,
) -> Vec<f32> {
    let pb = PackedOperand::pack_cols(b, k, n, fa, fb).expect("supported pair");
    assert!(
        pb.accepts(&fa),
        "{fa}/{fb}: a plane accepts its own partner"
    );
    quantized_gemm_prepacked_scratch(a, m, fa, &pb, threads, &mut PackScratch::new())
        .expect("accepted pair executes")
}

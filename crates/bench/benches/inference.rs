//! `inference_steady_state` — the acceptance benchmark for packing the
//! weight plane once: repeated forward passes at a GPT-ish layer shape
//! (32 tokens × 512 features into a 4× FFN expansion, MX6 weights and
//! activations), comparing
//!
//! - `per_call_packing` — every call re-lowers the static weight matrix to
//!   shift-aligned codes before executing (the PR 2 behavior);
//! - `prepacked_scratch` — the weight plane is packed once and each call
//!   goes through the one execute entry
//!   (`quantized_gemm_prepacked_scratch`) with a reused `PackScratch` —
//!   the steady state `mx-nn` reaches through its generation-keyed weight
//!   cache and thread-local scratch;
//! - `weight_pack_only` — the packing cost itself, i.e. what each
//!   `per_call_packing` iteration wastes;
//! - `linear_layer_cached` — the same product through `mx_nn::Linear`
//!   with a warm cache, confirming the plumbing adds nothing material.
//!
//! The `inference_small_m_*` groups sweep the serving-shaped row counts
//! M ∈ {1, 4, 8, 32} against the same warm weight plane: the entry (which
//! lowers activations with its fused strategy at these shapes — row
//! `fused`) against the unquantized FP32 `fgemm` kernel as the floor it
//! must beat. (`results/inference_steady_state.md` also records rows from
//! entry points that no longer exist; its provenance note says which.)
//!
//! All cases run serial (`threads = 1`; override with `MX_BENCH_THREADS`):
//! the interesting quantity is the per-call activation-lowering work, not
//! core scaling.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mx_bench::bench_threads;
use mx_core::bdr::BdrFormat;
use mx_core::fgemm;
use mx_core::gemm::{quantized_gemm_prepacked_scratch, PackScratch, PackedOperand};
use mx_nn::format::TensorFormat;
use mx_nn::layers::{Layer, Linear};
use mx_nn::qflow::QuantConfig;
use mx_nn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Tokens per step (batch × sequence), model width, FFN width.
const M: usize = 32;
const K: usize = 512;
const N: usize = 2048;

fn test_matrix(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            ((i.wrapping_mul(2654435761).wrapping_add(salt * 911)) % 10_007) as f32 / 10_007.0 - 0.5
        })
        .collect()
}

fn inference_steady_state(c: &mut Criterion) {
    let fmt = BdrFormat::MX6;
    let threads = bench_threads(1);
    eprintln!(
        "inference benches: kernel backend = {}",
        mx_core::gemm::kernel_backend_name()
    );
    let a = test_matrix(M * K, 1);
    let w = test_matrix(K * N, 2);
    let mut group = c.benchmark_group("inference_steady_state");
    group.sample_size(10);
    // One multiply-accumulate per element of the M×N×K iteration space.
    group.throughput(Throughput::Elements((M * N * K) as u64));
    let mut scratch = PackScratch::new();
    let mut run = |pw: &PackedOperand| {
        quantized_gemm_prepacked_scratch(&a, M, fmt, pw, threads, &mut scratch).unwrap()
    };
    group.bench_function("per_call_packing", |bench| {
        bench.iter(|| black_box(run(&PackedOperand::pack_cols(&w, K, N, fmt, fmt).unwrap())))
    });
    group.bench_function("prepacked_scratch", |bench| {
        let pw = PackedOperand::pack_cols(&w, K, N, fmt, fmt).unwrap();
        bench.iter(|| black_box(run(&pw)))
    });
    group.bench_function("weight_pack_only", |bench| {
        bench.iter(|| black_box(PackedOperand::pack_cols(&w, K, N, fmt, fmt).unwrap()))
    });
    group.bench_function("linear_layer_cached", |bench| {
        let mut l = Linear::new(
            &mut StdRng::seed_from_u64(7),
            K,
            N,
            false,
            QuantConfig::uniform(TensorFormat::Bdr(fmt)),
        );
        l.w.value = Tensor::from_vec(w.clone(), &[K, N]);
        let x = Tensor::from_vec(a.clone(), &[M, K]);
        let _ = l.forward(&x, false); // warm the generation-keyed cache
        bench.iter(|| black_box(l.forward(&x, false)))
    });
    group.finish();
}

/// Serving-shaped row counts: the one entry (fused activation lowering at
/// these shapes) vs the FP32 `fgemm` floor, one group per M so each
/// reports its own throughput.
fn inference_small_m(c: &mut Criterion) {
    let fmt = BdrFormat::MX6;
    let threads = bench_threads(1);
    let w = test_matrix(K * N, 2);
    let pw = PackedOperand::pack_cols(&w, K, N, fmt, fmt).unwrap();
    for m in [1usize, 4, 8, 32] {
        let a = test_matrix(m * K, 3 + m);
        let mut group = c.benchmark_group(format!("inference_small_m_{m}"));
        group.sample_size(10);
        group.throughput(Throughput::Elements((m * N * K) as u64));
        group.bench_function("fused", |bench| {
            let mut scratch = PackScratch::new();
            bench.iter(|| {
                black_box(
                    quantized_gemm_prepacked_scratch(&a, m, fmt, &pw, threads, &mut scratch)
                        .unwrap(),
                )
            })
        });
        group.bench_function("fgemm_f32", |bench| {
            bench.iter(|| black_box(fgemm::matmul(&a, &w, m, K, N, threads)))
        });
        group.finish();
    }
}

criterion_group!(benches, inference_steady_state, inference_small_m);
criterion_main!(benches);

//! Acceptance benchmarks for the GEMM paths at 512×512×512:
//!
//! - `quantized_gemm_512` — the MX6 quantized product: the dequantize path
//!   (fake-quantize both operands, then `f32` matmul) vs the integer
//!   code-domain path — packing the weight plane per call (serial and
//!   row-parallel) and against a plane packed once;
//! - `matmul_512` — the unquantized FP32 baseline: the seed's naive triple
//!   loop vs the blocked, vectorized `mx_core::fgemm` kernel. Quantized-vs-
//!   FP32 speedup claims are measured against this *improved* baseline.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mx_bench::bench_threads;
use mx_core::bdr::BdrFormat;
use mx_core::fgemm;
use mx_core::gemm::{quantized_gemm_prepacked_scratch, PackScratch, PackedOperand};
use mx_nn::format::{quantize_along, Axis, TensorFormat};
use mx_nn::tensor::Tensor;
use std::hint::black_box;

const N: usize = 512;

fn test_matrix(salt: usize) -> Vec<f32> {
    (0..N * N)
        .map(|i| {
            ((i.wrapping_mul(2654435761).wrapping_add(salt * 911)) % 10_007) as f32 / 10_007.0 - 0.5
        })
        .collect()
}

fn quantized_gemm_512(c: &mut Criterion) {
    let fmt = BdrFormat::MX6;
    let a = test_matrix(1);
    let b = test_matrix(2);
    let mut group = c.benchmark_group("quantized_gemm_512");
    group.sample_size(10);
    // One multiply-accumulate per element of the M×N×K iteration space.
    group.throughput(Throughput::Elements((N * N * N) as u64));
    group.bench_function("dequantize_f32", |bench| {
        let at = Tensor::from_vec(a.clone(), &[N, N]);
        let bt = Tensor::from_vec(b.clone(), &[N, N]);
        bench.iter(|| {
            let aq = quantize_along(&at, TensorFormat::Bdr(fmt), Axis::Row);
            let bq = quantize_along(&bt, TensorFormat::Bdr(fmt), Axis::Col);
            black_box(aq.matmul(&bq))
        })
    });
    let mut scratch = PackScratch::new();
    let mut run = |pb: &PackedOperand, threads| {
        quantized_gemm_prepacked_scratch(&a, N, fmt, pb, threads, &mut scratch).unwrap()
    };
    let pack = || PackedOperand::pack_cols(&b, N, N, fmt, fmt).unwrap();
    group.bench_function("code_domain", |bench| {
        bench.iter(|| black_box(run(&pack(), 1)))
    });
    group.bench_function("code_domain_parallel", |bench| {
        // Worker budget from MX_BENCH_THREADS (default: all cores).
        let threads = bench_threads(0);
        bench.iter(|| black_box(run(&pack(), threads)))
    });
    group.bench_function("code_domain_prepacked", |bench| {
        let pb = pack();
        bench.iter(|| black_box(run(&pb, 1)))
    });
    group.finish();
}

fn matmul_512(c: &mut Criterion) {
    // The canonical copy of the seed triple loop (`fgemm::naive_matmul`)
    // is the baseline the blocked kernel is measured against, and the one
    // `tests/gemm_consistency.rs` proves it bit-identical to.
    use mx_core::fgemm::naive_matmul;
    let a = test_matrix(3);
    let b = test_matrix(4);
    let mut group = c.benchmark_group("matmul_512");
    group.sample_size(10);
    group.throughput(Throughput::Elements((N * N * N) as u64));
    group.bench_function("naive_triple_loop", |bench| {
        bench.iter(|| black_box(naive_matmul(&a, &b, N, N, N)))
    });
    group.bench_function("blocked", |bench| {
        bench.iter(|| black_box(fgemm::matmul(&a, &b, N, N, N, 1)))
    });
    group.bench_function("blocked_parallel", |bench| {
        // Worker budget from MX_BENCH_THREADS (default: all cores).
        let threads = bench_threads(0);
        bench.iter(|| black_box(fgemm::matmul(&a, &b, N, N, N, threads)))
    });
    group.finish();
}

criterion_group!(benches, quantized_gemm_512, matmul_512);
criterion_main!(benches);

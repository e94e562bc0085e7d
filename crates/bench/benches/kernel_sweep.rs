//! `kernel_sweep` — the acceptance benchmark for the multi-backend kernel
//! dispatch layer and the generation-2/3 SIMD kernels: one group per
//! serving-relevant M ∈ {1, 4, 8, 16, 32}, sweeping
//!
//! - `scalar` / `sse2` / `avx2` / `avx512` — each backend forced via
//!   `force_kernel_backend` (the B plane is packed *after* forcing, so
//!   each variant also measures its own plane layout — vector-major for
//!   scalar/SSE2, 8-column panel-major for AVX2, 4-column chunk-paired
//!   panel-major for AVX-512);
//! - `avx512_bw` — the AVX-512 kernel with VNNI forced off
//!   (`force_vnni`), isolating the `vpdpwssd` win over the
//!   `vpmaddwd`+`vpaddd` fallback;
//! - `avx2_nodefer` / `avx512_nodefer` — deferred scale-out forced off,
//!   isolating the deferral win from the wide-tile win per generation;
//! - `fgemm_f32` — the unquantized FP32 kernel, the floor the fused path
//!   must beat at **every** M.
//!
//! All cases run the one execute entry (fused activation lowering at these
//! shapes) against a warm weight plane at
//! the same GPT-ish layer shape as `inference_steady_state` (K = 512 into
//! an N = 2048 FFN expansion, MX6 × MX6), serial by default
//! (`MX_BENCH_THREADS` overrides). A backend the CPU cannot run is
//! skipped (reported once at startup), keeping the sweep runnable
//! everywhere.
//!
//! Results are recorded in `results/kernel_sweep.md`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mx_bench::bench_threads;
use mx_core::bdr::BdrFormat;
use mx_core::fgemm;
use mx_core::gemm::{
    force_deferred_scale_out, force_kernel_backend, force_vnni, kernel_backend_name,
    quantized_gemm_prepacked_scratch, KernelBackend, PackScratch, PackedOperand,
};
use std::hint::black_box;

/// Model width and FFN expansion width (the `inference_steady_state` shape).
const K: usize = 512;
const N: usize = 2048;

fn test_matrix(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            ((i.wrapping_mul(2654435761).wrapping_add(salt * 911)) % 10_007) as f32 / 10_007.0 - 0.5
        })
        .collect()
}

/// One swept row: `(name, backend, vnni, deferral)`. The `_bw` /
/// `_nodefer` rows switch one speedup layer off to isolate it.
const VARIANTS: [(&str, KernelBackend, bool, bool); 7] = [
    ("scalar", KernelBackend::Scalar, true, true),
    ("sse2", KernelBackend::Sse2, true, true),
    ("avx2", KernelBackend::Avx2, true, true),
    ("avx512", KernelBackend::Avx512, true, true),
    ("avx512_bw", KernelBackend::Avx512, false, true),
    ("avx512_nodefer", KernelBackend::Avx512, true, false),
    ("avx2_nodefer", KernelBackend::Avx2, true, false),
];

fn kernel_sweep(c: &mut Criterion) {
    let fmt = BdrFormat::MX6;
    let threads = bench_threads(1);
    eprintln!(
        "kernel_sweep: auto-selected backend = {}",
        kernel_backend_name()
    );
    let w = test_matrix(K * N, 2);
    for m in [1usize, 4, 8, 16, 32] {
        let a = test_matrix(m * K, 3 + m);
        let mut group = c.benchmark_group(format!("kernel_sweep_m{m}"));
        group.sample_size(10);
        group.throughput(Throughput::Elements((m * N * K) as u64));
        for (name, backend, vnni, defer) in VARIANTS {
            if force_kernel_backend(Some(backend)).is_err() {
                eprintln!("kernel_sweep: skipping {name} (unavailable on this CPU)");
                continue;
            }
            group.bench_function(name, |bench| {
                force_vnni(Some(vnni));
                force_deferred_scale_out(Some(defer));
                // Packed after forcing, so the plane has this row's layout.
                let pw = PackedOperand::pack_cols(&w, K, N, fmt, fmt).unwrap();
                let mut scratch = PackScratch::new();
                bench.iter(|| {
                    black_box(
                        quantized_gemm_prepacked_scratch(&a, m, fmt, &pw, threads, &mut scratch)
                            .unwrap(),
                    )
                });
            });
            force_vnni(None);
            force_deferred_scale_out(None);
            force_kernel_backend(None).unwrap();
        }
        group.bench_function("fgemm_f32", |bench| {
            bench.iter(|| black_box(fgemm::matmul(&a, &w, m, K, N, threads)))
        });
        group.finish();
    }
}

criterion_group!(benches, kernel_sweep);
criterion_main!(benches);

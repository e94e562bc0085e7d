//! `serving_throughput` — the acceptance benchmark for the batching
//! server: the same 32 requests (one 512-feature row each, MX6 weights and
//! activations, one 512 → 2048 dense layer = one GPT-ish FFN shard) served
//! four ways:
//!
//! - `direct_one_at_a_time` — 32 separate `forward_batch(1)` calls on the
//!   bare model (warm weight plane): what an unbatched server's worker
//!   does;
//! - `direct_batched_32` — one `forward_batch(32)` call: the coalesced
//!   batch GEMM a server worker builds, with B-code traffic and per-call
//!   overhead amortized over all 32 rows;
//! - `server_max_batch_1` — the full server loop (shard queue, worker,
//!   response channels) forced to one-at-a-time execution;
//! - `server_max_batch_32` — the full server loop with coalescing enabled
//!   (requests are submitted as a burst, so the worker that drains the
//!   queue can batch them).
//!
//! Every variant computes bit-identical responses (`serve_end_to_end`
//! proves that); the quantity measured here is throughput. All GEMMs run
//! serial (`threads` is whatever `mx-nn` picks on one core): the
//! interesting ratio is batched vs unbatched, not core scaling. On a
//! multi-core box, set `MX_BENCH_THREADS` to give the server that many
//! worker threads (default 1) and rerun to measure worker scaling.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mx_models::zoo::{BatchModel, DenseGemm, ZooInput};
use mx_nn::qflow::QuantConfig;
use mx_nn::TensorFormat;
use mx_serve::{Pending, Request, RequestInput, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Requests per burst (the batch a worker can coalesce).
const BATCH: usize = 32;
/// Features per request / model width.
const K: usize = 512;
/// FFN width.
const N: usize = 2048;

fn mx6() -> QuantConfig {
    QuantConfig::weights_activations(TensorFormat::MX6, TensorFormat::MX6)
}

fn model() -> DenseGemm {
    let mut rng = StdRng::seed_from_u64(5);
    DenseGemm::new(&mut rng, K, N, mx6())
}

fn request_row(salt: usize) -> Vec<f32> {
    (0..K)
        .map(|i| {
            ((i.wrapping_mul(2654435761).wrapping_add(salt * 911)) % 10_007) as f32 / 10_007.0 - 0.5
        })
        .collect()
}

fn serving_throughput(c: &mut Criterion) {
    let rows: Vec<Vec<f32>> = (0..BATCH).map(request_row).collect();
    let flat: Vec<f32> = rows.iter().flatten().copied().collect();

    let mut group = c.benchmark_group("serving_throughput");
    group.sample_size(10);
    // One multiply-accumulate per element of the full burst's iteration
    // space, so every variant reports comparable request throughput.
    group.throughput(Throughput::Elements((BATCH * K * N) as u64));

    group.bench_function("direct_one_at_a_time", |bench| {
        let mut m = model();
        let _ = m.forward_batch(ZooInput::Pixels(&rows[0]), 1); // warm plane
        bench.iter(|| {
            for row in &rows {
                black_box(m.forward_batch(ZooInput::Pixels(row), 1));
            }
        })
    });

    group.bench_function("direct_batched_32", |bench| {
        let mut m = model();
        let _ = m.forward_batch(ZooInput::Pixels(&rows[0]), 1); // warm plane
        bench.iter(|| black_box(m.forward_batch(ZooInput::Pixels(&flat), BATCH)))
    });

    // MX_BENCH_THREADS picks the worker count (default 1; 0 = all cores,
    // matching the knob's contract everywhere else).
    let workers = match mx_bench::bench_threads(1) {
        0 => mx_core::parallel::default_threads(),
        w => w,
    };
    for max_batch in [1, BATCH] {
        let mut server = Server::new(
            ServerConfig::default()
                .max_batch(max_batch)
                .workers(workers),
        );
        server.register("ffn", Box::new(model()));
        let handle = server.start().expect("valid config");
        // Warm the weight plane before timing.
        let _ = handle
            .infer(Request::new("ffn", RequestInput::Pixels(rows[0].clone())).quant(mx6()))
            .unwrap();
        group.bench_function(format!("server_max_batch_{max_batch}"), |bench| {
            bench.iter(|| {
                let pending: Vec<Pending> = rows
                    .iter()
                    .map(|row| {
                        handle
                            .submit(
                                Request::new("ffn", RequestInput::Pixels(row.clone())).quant(mx6()),
                            )
                            .unwrap()
                    })
                    .collect();
                for p in pending {
                    black_box(p.wait().unwrap());
                }
            })
        });
        let stats = handle.stats();
        println!(
            "  server_max_batch_{max_batch}: {} requests / {} batches (mean batch {:.1}), \
             p50 {} µs, p99 {} µs, packs avoided {}",
            stats.completed,
            stats.batches,
            stats.mean_batch_size(),
            stats.p50_latency_us,
            stats.p99_latency_us,
            stats.packs_avoided,
        );
        handle.shutdown();
    }
    group.finish();
}

criterion_group!(benches, serving_throughput);
criterion_main!(benches);

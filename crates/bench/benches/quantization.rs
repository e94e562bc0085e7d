//! Criterion performance benches: quantization throughput per format, the
//! engine's value path, the bit-accurate dot-product engine, the QSNR
//! harness, a 64-configuration sweep pass, and a quantized training step —
//! the hot paths of every experiment binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mx_core::bdr::{BdrFormat, BdrQuantizer};
use mx_core::engine::QuantEngine;
use mx_core::gemm::{force_kernel_backend, KernelBackend};
use mx_core::mx::MxTensor;
use mx_core::qsnr::{measure_qsnr, Distribution, QsnrConfig};
use mx_core::scalar::ScalarFormat;
use mx_core::scaling::{ElementCode, ScaleStrategy, ScaledQuantizer, DEFAULT_TENSOR_BLOCK};
use mx_core::VectorQuantizer;
use mx_hw::cost::{CostModel, FormatConfig};
use mx_hw::pipeline::{DotProductPipeline, PipelineConfig};
use mx_sweep::eval::{evaluate_all, SweepSettings};
use std::hint::black_box;

fn test_vector(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i * 2654435761usize) % 10_007) as f32 / 10_007.0 - 0.5)
        .collect()
}

fn quant_throughput(c: &mut Criterion) {
    let x = test_vector(4096);
    let mut group = c.benchmark_group("quantize_dequantize_4k");
    group.throughput(Throughput::Elements(4096));
    let mut cases: Vec<(&str, Box<dyn VectorQuantizer>)> = vec![
        ("MX9", Box::new(BdrQuantizer::new(BdrFormat::MX9))),
        ("MX6", Box::new(BdrQuantizer::new(BdrFormat::MX6))),
        ("MX4", Box::new(BdrQuantizer::new(BdrFormat::MX4))),
        ("MSFP12", Box::new(BdrQuantizer::new(BdrFormat::MSFP12))),
        (
            "FP8-E4M3",
            Box::new(ScaledQuantizer::new(
                ElementCode::Float(ScalarFormat::E4M3),
                None,
                DEFAULT_TENSOR_BLOCK,
                ScaleStrategy::Amax,
            )),
        ),
        (
            "INT8",
            Box::new(ScaledQuantizer::new(
                ElementCode::Int { bits: 8 },
                None,
                1024,
                ScaleStrategy::Amax,
            )),
        ),
        (
            "VSQ4",
            Box::new(ScaledQuantizer::new(
                ElementCode::Int { bits: 4 },
                Some(4),
                1024,
                ScaleStrategy::Amax,
            )),
        ),
    ];
    for (name, q) in cases.iter_mut() {
        group.bench_function(*name, |b| b.iter(|| black_box(q.quantize_dequantize(&x))));
    }
    group.finish();
}

/// The engine's value path on the shape the QSNR harness feeds it — 64 rows
/// of 1024, in place — for the three MX presets, the grid's finest
/// sub-block split (`k1 = 128, k2 = 1`: one scale per element, the most
/// planning per value) and plain BFP (`k2 = k1`, no sub-block scan), each
/// on both tiers of the block core: `scalar` forced, then `avx512` where
/// the CPU has it.
fn qdq_value_path(c: &mut Criterion) {
    let (rows, cols) = (64usize, 1024usize);
    let x = test_vector(rows * cols);
    let fine = BdrFormat::new(4, 8, 1, 128, 1).expect("in the Fig. 7 grid");
    let mut group = c.benchmark_group("qdq_value_path");
    group.throughput(Throughput::Elements((rows * cols) as u64));
    for tier in [KernelBackend::Scalar, KernelBackend::Avx512] {
        if force_kernel_backend(Some(tier)).is_err() {
            eprintln!(
                "qdq_value_path: skipping {} (unavailable on this CPU)",
                tier.name()
            );
            continue;
        }
        for (name, fmt) in [
            ("mx9", BdrFormat::MX9),
            ("mx6", BdrFormat::MX6),
            ("mx4", BdrFormat::MX4),
            ("k1=128_k2=1", fine),
            ("bfp_k2=k1", BdrFormat::MSFP16),
        ] {
            let engine = QuantEngine::new(fmt);
            let mut buf = x.clone();
            group.bench_function(format!("{name}/{}", tier.name()), |b| {
                b.iter(|| {
                    buf.copy_from_slice(&x);
                    engine.quantize_dequantize_rows(&mut buf, cols);
                    black_box(buf[0])
                })
            });
        }
    }
    force_kernel_backend(None).expect("clearing the override cannot fail");
    group.finish();
}

/// One serial sweep pass over 64 configurations spread evenly over the
/// Fig. 7 space, at the repo benchmark's Monte-Carlo size: one draw of the
/// sample set plus 64 measurements on it.
fn sweep_pass(c: &mut Criterion) {
    let space = mx_sweep::space::full_space();
    let configs: Vec<FormatConfig> = (0..64)
        .map(|j| space[j * space.len() / 64].clone())
        .collect();
    let settings = SweepSettings {
        qsnr: QsnrConfig {
            vectors: 64,
            vector_len: 1024,
            seed: 7,
        },
        distribution: Distribution::NormalVariableVariance,
        threads: 1,
    };
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.bench_function("sweep_pass_64cfg", |b| {
        b.iter(|| black_box(evaluate_all(&configs, &settings)))
    });
    group.finish();
}

fn packed_encode(c: &mut Criterion) {
    let x = test_vector(4096);
    let mut group = c.benchmark_group("mx_packed_encode_4k");
    group.throughput(Throughput::Elements(4096));
    for fmt in [BdrFormat::MX4, BdrFormat::MX9] {
        group.bench_with_input(BenchmarkId::from_parameter(fmt), &fmt, |b, fmt| {
            b.iter(|| black_box(MxTensor::encode(*fmt, &x)))
        });
    }
    group.finish();
}

/// The seed's column-quantization path — transpose, quantize each row,
/// transpose back — kept verbatim as the naive baseline the strided engine
/// kernel must beat.
fn naive_transpose_col_quantize(
    data: &[f32],
    rows: usize,
    cols: usize,
    fmt: BdrFormat,
) -> Vec<f32> {
    let mut tt = vec![0.0f32; rows * cols];
    for i in 0..rows {
        for j in 0..cols {
            tt[j * rows + i] = data[i * cols + j];
        }
    }
    for col in tt.chunks_mut(rows) {
        fmt.quantize_dequantize_in_place(col);
    }
    let mut out = vec![0.0f32; rows * cols];
    for j in 0..cols {
        for i in 0..rows {
            out[i * cols + j] = tt[j * rows + i];
        }
    }
    out
}

/// Acceptance benchmark for the engine refactor: column-axis quantization
/// of a 1024×1024 tensor, seed's transpose round trip vs the strided
/// kernel, serial and parallel.
fn engine_vs_naive(c: &mut Criterion) {
    let (rows, cols) = (1024usize, 1024usize);
    let x = test_vector(rows * cols);
    let fmt = BdrFormat::MX9;
    let mut group = c.benchmark_group("col_quantize_1024x1024");
    group.throughput(Throughput::Elements((rows * cols) as u64));
    group.bench_function("seed_transpose", |b| {
        b.iter(|| black_box(naive_transpose_col_quantize(&x, rows, cols, fmt)))
    });
    group.bench_function("engine_strided", |b| {
        let engine = QuantEngine::new(fmt);
        b.iter(|| {
            let mut d = x.clone();
            engine.quantize_dequantize_cols(&mut d, cols);
            black_box(d)
        })
    });
    group.bench_function("engine_strided_parallel", |b| {
        let engine = QuantEngine::auto(fmt);
        b.iter(|| {
            let mut d = x.clone();
            engine.quantize_dequantize_cols(&mut d, cols);
            black_box(d)
        })
    });
    group.finish();
}

/// Multi-core scaling of the engine's contiguous value path on a 1M-element
/// tensor. `MX_BENCH_THREADS` appends an extra point to the sweep without
/// editing the list; `0` (also the unset default) means the box's actual
/// core count, matching the knob's contract everywhere else.
fn parallel_scaling(c: &mut Criterion) {
    let x = test_vector(1 << 20);
    let fmt = BdrFormat::MX6;
    let mut group = c.benchmark_group("engine_parallel_scaling_1m");
    group.throughput(Throughput::Elements(1 << 20));
    let mut sweep = vec![1usize, 2, 4, 8];
    let extra = match mx_bench::bench_threads(0) {
        0 => mx_core::parallel::default_threads(),
        t => t,
    };
    if !sweep.contains(&extra) {
        sweep.push(extra);
    }
    for threads in sweep {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            let engine = QuantEngine::new(fmt).with_threads(t);
            b.iter(|| black_box(engine.quantize_dequantize(&x)))
        });
    }
    group.finish();
}

fn dot_product_engine(c: &mut Criterion) {
    let a = test_vector(1024);
    let bb = test_vector(1024);
    let mut group = c.benchmark_group("pipeline_dot_1k");
    group.throughput(Throughput::Elements(1024));
    for (name, cfg) in [
        ("MX9", PipelineConfig::Bdr(BdrFormat::MX9)),
        ("MX4", PipelineConfig::Bdr(BdrFormat::MX4)),
        ("FP8-E4M3", PipelineConfig::Scalar(ScalarFormat::E4M3)),
    ] {
        let engine = DotProductPipeline::new(cfg, 64);
        group.bench_function(name, |b| b.iter(|| black_box(engine.dot(&a, &bb))));
    }
    group.finish();
}

fn qsnr_harness(c: &mut Criterion) {
    let cfg = QsnrConfig {
        vectors: 16,
        vector_len: 1024,
        seed: 3,
    };
    c.bench_function("qsnr_mx6_16x1k", |b| {
        b.iter(|| {
            let mut q = BdrQuantizer::new(BdrFormat::MX6);
            black_box(measure_qsnr(
                &mut q,
                Distribution::NormalVariableVariance,
                cfg,
            ))
        })
    });
}

fn cost_model(c: &mut Criterion) {
    let model = CostModel::new();
    c.bench_function("cost_model_mx9", |b| {
        b.iter(|| black_box(model.evaluate(&FormatConfig::Bdr(BdrFormat::MX9))))
    });
}

fn train_step(c: &mut Criterion) {
    use mx_models::data::{lm_batch, markov_corpus};
    use mx_models::gpt::{Gpt, GptConfig};
    use mx_nn::optim::Adam;
    use mx_nn::qflow::QuantConfig;
    use mx_nn::TensorFormat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let corpus = markov_corpus(1, 5000, 0.4);
    let mut group = c.benchmark_group("gpt_tiny_train_step");
    group.sample_size(10);
    for (name, cfg) in [
        ("fp32", QuantConfig::fp32()),
        ("mx9", QuantConfig::uniform(TensorFormat::MX9)),
        ("mx6", QuantConfig::uniform(TensorFormat::MX6)),
    ] {
        group.bench_function(name, |b| {
            let mut rng = StdRng::seed_from_u64(7);
            let mut model = Gpt::new(&mut rng, GptConfig::tiny(), cfg);
            let mut opt = Adam::new(1e-3);
            let mut data_rng = StdRng::seed_from_u64(8);
            b.iter(|| {
                let (x, y) = lm_batch(&mut data_rng, &corpus, 2, 16);
                black_box(model.train_step(&x, &y, 2, &mut opt))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    quant_throughput,
    qdq_value_path,
    sweep_pass,
    packed_encode,
    engine_vs_naive,
    parallel_scaling,
    dot_product_engine,
    qsnr_harness,
    cost_model,
    train_step
);
criterion_main!(benches);

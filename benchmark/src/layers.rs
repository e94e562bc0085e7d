//! Layer probes: each public function under `mx-serve` timed on its own, on
//! this thread, with warm caches. A probe's value is the median over its
//! calls; every call is a span in `trace_layers.json`.
//!
//! The probes do not depend on the workload. They say what a layer costs
//! when nothing contends with it, which is the term the interaction
//! predictions in the README multiply by a count.

use crate::gen::{self, ModelKind, MX6};
use crate::kit::{gemm_shapes, GemmKit, BDR};
use crate::metrics::Metrics;
use crate::stats::{median, percentile};
use crate::sweep;
use crate::trace::Tracer;
use mx_core::engine::QuantEngine;
use mx_core::fgemm;
use mx_core::gemm::PackedOperand;
use mx_core::qsnr::measure_qsnr;
use mx_core::scaling::ScaleStrategy;
use mx_hw::cost::{CostModel, FormatConfig};
use mx_models::zoo::{BatchModel, ZooInput};
use mx_nn::plan::{PlanArena, PlanInput};
use mx_nn::qflow::quantized_matmul_ab;
use mx_nn::tensor::Tensor;
use mx_sweep::eval::{evaluate_all, evaluate_point};
use mx_sweep::space::full_space;
use std::hint::black_box;
use std::time::Instant;

/// Calls per probe unless the call is long.
const CALLS: usize = 200;
/// Elements of the engine probes.
const ENGINE_ELEMS: usize = 1 << 20;

struct Prober<'a> {
    tracer: &'a mut Tracer,
    probes: u64,
}

impl Prober<'_> {
    /// Median time of `f` in microseconds over `calls` calls after three
    /// unrecorded ones.
    fn time<R>(
        &mut self,
        name: &'static str,
        detail: &str,
        calls: usize,
        mut f: impl FnMut() -> R,
    ) -> f64 {
        for _ in 0..3 {
            black_box(f());
        }
        let id = self.probes;
        self.probes += 1;
        let root = self
            .tracer
            .open(id, "probe", format!("{name} {detail} calls={calls}"));
        let samples: Vec<f64> = (0..calls)
            .map(|_| {
                let (out, us) = self.tracer.scope(root, id, name, String::new(), &mut f);
                black_box(out);
                us
            })
            .collect();
        self.tracer.close(root);
        percentile(&samples, 0.5)
    }
}

/// `(label, m, k, n)` of the four GEMM probes: the dense layer at decode,
/// full-batch and training-shaped row counts, and the GPT attention
/// projection at a 16-token request. (The issue named the last one
/// `m16_k32_n96`, a fused qkv; the plan issues three separate `n = 32`
/// products, so that is the shape probed.)
const GEMM_PROBES: [(&str, usize, usize, usize); 4] = [
    ("m1", 1, gen::DENSE_IN, gen::DENSE_OUT),
    ("m32", 32, gen::DENSE_IN, gen::DENSE_OUT),
    ("m128", 128, gen::DENSE_IN, gen::DENSE_OUT),
    ("m16_k32_n32", 16, 32, 32),
];

/// The metric name of a keyed family member. The tables hold `'static`
/// names, so the key is looked up rather than formatted.
fn keyed(family: &str, key: &str) -> &'static str {
    let full = format!("{family}.{key}");
    crate::metrics::def(&full)
        .unwrap_or_else(|| panic!("metric {full:?} is not in the tables"))
        .name
}

fn gemm_probes(p: &mut Prober<'_>, kit: &mut GemmKit, m: &mut Metrics) {
    let mut auto_us = [0.0; 4];
    for (i, &(label, rows, k, n)) in GEMM_PROBES.iter().enumerate() {
        let a = gen::activations(31, rows, k);
        let detail = format!("m={rows} k={k} n={n} MX6");
        let name = if rows > mx_core::gemm::FUSED_MAX_M {
            "gemm.twopass"
        } else {
            "gemm.fused"
        };
        let us = p.time(name, &detail, CALLS, || kit.run(&a, rows, k, n, MX6, 0));
        auto_us[i] = us;
        let family = match label {
            "m128" => "gemm.twopass_us",
            "m16_k32_n32" => "gemm.small_us",
            _ => "gemm.fused_us",
        };
        m.set(keyed(family, label), us);
        m.set(
            keyed("gemm.gmacs_per_s", label),
            (rows * k * n) as f64 / us / 1e3,
        );
        // Computed from tensor sizes, not measured: A in, packed B, C out.
        let bytes = 4 * rows * k + kit.plane(k, n, MX6).packed_bytes() + 4 * rows * n;
        m.set(keyed("gemm.bytes_per_call", label), bytes as f64);
    }
    // The same call on one thread against all cores: what the per-call
    // scoped-thread fan-out buys or costs at this shape.
    for (i, label) in [(1, "m32"), (3, "m16_k32_n32")] {
        let (_, rows, k, n) = GEMM_PROBES[i];
        let a = gen::activations(31, rows, k);
        let one = p.time(
            "gemm.fused",
            &format!("m={rows} k={k} n={n} threads=1"),
            CALLS,
            || kit.run(&a, rows, k, n, MX6, 1),
        );
        m.set(
            keyed("gemm.threads1_vs_auto_ratio", label),
            one / auto_us[i],
        );
    }
    let b = gen::weights(5, gen::DENSE_IN, gen::DENSE_OUT);
    for (i, label, calls) in [(0, "m1", CALLS), (1, "m32", 60)] {
        let (_, rows, k, n) = GEMM_PROBES[i];
        let a = gen::activations(31, rows, k);
        let us = p.time(
            "fgemm.matmul",
            &format!("m={rows} k={k} n={n}"),
            calls,
            || fgemm::matmul(&a, &b, rows, k, n, 0),
        );
        m.set(keyed("fgemm.us", label), us);
        m.set(keyed("gemm.vs_fgemm_ratio", label), auto_us[i] / us);
    }
    let f = BDR[usize::from(MX6)];
    let pack_us = p.time("pack.cols", "k=512 n=2048 MX6", 30, || {
        PackedOperand::pack_cols(&b, gen::DENSE_IN, gen::DENSE_OUT, f, f)
    });
    m.set("pack.cols_ms", pack_us / 1e3);
    m.set(
        "pack.packed_bytes",
        kit.plane(gen::DENSE_IN, gen::DENSE_OUT, MX6).packed_bytes() as f64,
    );
}

fn engine_probes(p: &mut Prober<'_>, m: &mut Metrics) {
    let data = gen::activations(77, ENGINE_ELEMS / 1024, 1024);
    let melem = |us: f64| ENGINE_ELEMS as f64 / us;
    for (fmt, name) in BDR.iter().zip([
        "engine.qdq_melem_per_s.mx9",
        "engine.qdq_melem_per_s.mx6",
        "engine.qdq_melem_per_s.mx4",
    ]) {
        let engine = QuantEngine::new(*fmt);
        let mut buf = data.clone();
        let us = p.time(
            "engine.quantize_dequantize_rows",
            &format!("{fmt} 1Mi"),
            12,
            || {
                buf.copy_from_slice(&data);
                engine.quantize_dequantize_rows(&mut buf, 1024);
            },
        );
        m.set(name, melem(us));
    }
    let engine = QuantEngine::new(BDR[usize::from(MX6)]);
    let us = p.time("engine.encode", "MX6 1Mi", 8, || engine.encode(&data));
    m.set("engine.encode_melem_per_s", melem(us));
    let bytes = engine.encode(&data);
    let us = p.time("engine.decode", "MX6 1Mi", 8, || {
        engine.decode(&bytes, ENGINE_ELEMS)
    });
    m.set("engine.decode_melem_per_s", melem(us));
}

/// Plan, zoo and qflow probes at the five plan keys, MX6.
fn plan_probes(p: &mut Prober<'_>, kit: &mut GemmKit, seed: u64, m: &mut Metrics) {
    let cfg = gen::quant(MX6);
    let pool = gen::payload_pool(seed);
    let mut arena = PlanArena::new();
    let keys: [(&str, ModelKind, usize, usize); 5] = [
        ("dense_m1", ModelKind::Dense, 1, gen::DENSE_IN),
        ("dense_m32", ModelKind::Dense, 32, gen::DENSE_IN),
        ("gpt_b1_l4", ModelKind::Gpt, 1, 4),
        ("gpt_b1_l8", ModelKind::Gpt, 1, 8),
        ("gpt_b1_l16", ModelKind::Gpt, 1, 16),
    ];
    let mut dense = crate::serve::build_models(seed, ModelKind::Dense);
    let mut gpt = crate::serve::build_models(seed, ModelKind::Gpt);
    for (key, kind, batch, len) in keys {
        let model: &mut dyn BatchModel = match kind {
            ModelKind::Dense => dense[0].as_mut(),
            ModelKind::Gpt => gpt[0].as_mut(),
        };
        let pixels: Vec<f32> = (0..batch).flat_map(|i| pool[i].iter().copied()).collect();
        let toks = gen::tokens(3, len);
        let plan = model
            .compile_plan(cfg, batch, len)
            .expect("zoo model plans MX6");
        let detail = format!("{key} MX6");
        let planned = p.time("plan.execute", &detail, CALLS, || match kind {
            ModelKind::Dense => plan.execute(PlanInput::Pixels(&pixels), &mut arena),
            ModelKind::Gpt => plan.execute(PlanInput::Tokens(&toks), &mut arena),
        });
        model.set_quant(cfg);
        let dynamic = p.time("zoo.forward_dynamic", &detail, CALLS, || match kind {
            ModelKind::Dense => model.forward_batch(ZooInput::Pixels(&pixels), batch),
            ModelKind::Gpt => model.forward_batch(ZooInput::Tokens(&toks), batch),
        });
        // The plan's weight GEMMs replayed on their own; what is left of
        // the execute time is the executor, the non-GEMM nodes and, for
        // GPT, attention's own products.
        let rows = if kind == ModelKind::Gpt {
            batch * len
        } else {
            batch
        };
        let mut gemms = 0.0;
        for (k, n, times) in gemm_shapes(kind) {
            let a = gen::activations(31, rows, k);
            let us = p.time(
                "gemm.execute",
                &format!("{key} m={rows} k={k} n={n} x{times}"),
                CALLS,
                || kit.run(&a, rows, k, n, MX6, 0),
            );
            gemms += us * times as f64;
        }
        m.set(keyed("plan.execute_us", key), planned);
        m.set(keyed("plan.self_us", key), planned - gemms);
        m.set(keyed("plan.vs_dynamic_ratio", key), planned / dynamic);
        if key == "dense_m1" {
            m.set("zoo.forward_dynamic_us", dynamic);
            let warm = p.time("zoo.compile_plan", "dense_m1 warm planes", CALLS, || {
                model.compile_plan(cfg, 1, gen::DENSE_IN)
            });
            m.set("zoo.compile_plan_us", warm);
            let token = p.time("zoo.plan_token", "dense", CALLS, || model.plan_token());
            m.set("zoo.plan_token_us", token);
        }
        if key == "gpt_b1_l16" {
            m.set("plan.arena_bytes", (plan.arena_elems() * 4) as f64);
            m.set("plan.templates", plan.template_count() as f64);
            m.set("plan.instances", plan.instance_count() as f64);
        }
    }
    // First compile of a model nobody has run: includes the weight pack.
    // A fresh model per call, built outside the timed region.
    let cold: Vec<f64> = (0..12)
        .map(|i| {
            let fresh = crate::serve::build_models(seed.wrapping_add(i), ModelKind::Dense);
            let id = p.probes;
            p.probes += 1;
            let root = p.tracer.open(id, "probe", "zoo.compile_plan cold".into());
            let (plan, us) = p
                .tracer
                .scope(root, id, "zoo.compile_plan", "cold".into(), || {
                    fresh[0].compile_plan(cfg, 1, gen::DENSE_IN)
                });
            p.tracer.close(root);
            black_box(plan.expect("dense plans MX6"));
            us
        })
        .collect();
    m.set("zoo.compile_plan_cold_us", median(&cold));

    // qflow: the dynamic path's matmul with the weight plane cached on the
    // tensor, against the bare GEMM call it wraps.
    let a = Tensor::from_vec(pool[0].clone(), &[1, gen::DENSE_IN]);
    let b = Tensor::from_vec(
        gen::weights(seed, gen::DENSE_IN, gen::DENSE_OUT),
        &[gen::DENSE_IN, gen::DENSE_OUT],
    );
    let f = gen::FORMATS[usize::from(MX6)];
    let cached = p.time(
        "qflow.quantized_matmul_ab",
        "m=1 cached plane",
        CALLS,
        || quantized_matmul_ab(&a, &b, f, f),
    );
    m.set("qflow.matmul_cached_us", cached);
    m.set(
        "qflow.cache_overhead_us",
        cached - m.get("gemm.fused_us.m1"),
    );
}

fn sweep_probes(p: &mut Prober<'_>, seed: u64, m: &mut Metrics) {
    let space = full_space();
    let serial = sweep::settings(seed, 1);
    let model = CostModel::new();
    let mx6 = FormatConfig::Bdr(BDR[usize::from(MX6)]);
    let point = p.time("sweep.evaluate_point", "MX6", 20, || {
        evaluate_point(&mx6, mx6.label(), &model, &serial)
    });
    m.set("sweep.point_ms", point / 1e3);
    let measure = p.time("qsnr.measure", "MX6", 20, || {
        let mut q = mx6.quantizer(ScaleStrategy::default());
        measure_qsnr(q.as_mut(), serial.distribution, serial.qsnr)
    });
    m.set("qsnr.measure_ms", measure / 1e3);

    let picks: Vec<FormatConfig> = sweep::sample(&space, 64, seed)
        .into_iter()
        .map(|i| space[i].clone())
        .collect();
    let mut times = [Vec::new(), Vec::new()];
    let mut points = Vec::new();
    for _ in 0..3 {
        for (slot, threads) in [(0, 1), (1, sweep::THREADS)] {
            let start = Instant::now();
            points = evaluate_all(&picks, &sweep::settings(seed, threads));
            times[slot].push(start.elapsed().as_secs_f64());
        }
    }
    m.set(
        "parallel.map_speedup",
        median(&times[0]) / median(&times[1]),
    );
    m.set(
        "sweep.qsnr_checksum",
        f64::from(sweep::qsnr_checksum(&points)),
    );
}

/// Runs every probe and returns the layer metrics they define. The GEMM
/// probes run first: the plan and qflow probes subtract their results.
pub fn probe_all(tracer: &mut Tracer, kit: &mut GemmKit, seed: u64) -> Metrics {
    let mut m = Metrics::default();
    let mut p = Prober { tracer, probes: 0 };
    gemm_probes(&mut p, kit, &mut m);
    plan_probes(&mut p, kit, seed, &mut m);
    engine_probes(&mut p, &mut m);
    sweep_probes(&mut p, seed, &mut m);
    m
}

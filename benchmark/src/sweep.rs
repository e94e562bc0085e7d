//! The offline workload: full passes over the Fig. 7 design space through
//! `mx_sweep::eval::evaluate_full_space` — the value path of
//! `mx_core::engine` (`quantize_dequantize` + QSNR) and
//! `mx_core::parallel::map`, which serving never touches.

use crate::procfs;
use crate::stats::percentile;
use crate::trace::Tracer;
use crate::workload::RoundOut;
use mx_core::qsnr::{measure_qsnr, Distribution, QsnrConfig};
use mx_core::scaling::ScaleStrategy;
use mx_hw::cost::{CostModel, FormatConfig};
use mx_sweep::eval::{
    evaluate_all, evaluate_full_space, evaluate_point, SweepPoint, SweepSettings,
};
use mx_sweep::space::full_space;
use std::time::Instant;

/// Worker threads of a pass: both cores of the box the benchmark was sized
/// on.
pub const THREADS: usize = 2;
/// Configurations re-evaluated serially after each round.
const CHECKED: usize = 16;
/// Configurations of the warm-up pass.
const WARM_UP: usize = 64;

/// Monte-Carlo settings of a pass. 64 vectors of 1024 make a pass take about
/// 2.5 s on the sizing box, so a 15 s run holds five of them; the issue's
/// 128 would leave three, too few for a median.
pub fn settings(seed: u64, threads: usize) -> SweepSettings {
    SweepSettings {
        qsnr: QsnrConfig {
            vectors: 64,
            vector_len: 1024,
            seed,
        },
        distribution: Distribution::NormalVariableVariance,
        threads,
    }
}

/// `n` configurations spread evenly over the space, starting at an offset
/// the seed picks.
pub fn sample(space: &[FormatConfig], n: usize, seed: u64) -> Vec<usize> {
    let n = n.min(space.len());
    let offset = seed as usize % space.len().max(1);
    (0..n)
        .map(|j| (offset + j * space.len() / n.max(1)) % space.len())
        .collect()
}

/// The bits of every QSNR value folded into 32 bits (exact in an `f64`):
/// repeats exactly for one seed, moves when a value-path result does.
pub fn qsnr_checksum(points: &[SweepPoint]) -> u32 {
    let h = crate::stats::fnv1a(points.iter().map(|p| p.qsnr_db.to_bits()));
    (h ^ (h >> 32)) as u32
}

/// Lines for sampled configurations whose serial re-evaluation differs from
/// what the parallel pass produced (`passed`, indexed like `space`).
pub fn check(
    space: &[FormatConfig],
    seed: u64,
    round: usize,
    passed: &[SweepPoint],
) -> Vec<String> {
    let picks = sample(space, CHECKED, seed.wrapping_add(round as u64));
    let configs: Vec<FormatConfig> = picks.iter().map(|&i| space[i].clone()).collect();
    let serial = evaluate_all(&configs, &settings(seed, 1));
    picks
        .iter()
        .zip(&serial)
        .filter(|(&i, want)| {
            passed.get(i).is_none_or(|got| {
                got.label != want.label || got.qsnr_db.to_bits() != want.qsnr_db.to_bits()
            })
        })
        .map(|(&i, want)| {
            format!(
                "round {round} config {i} ({}): serial qsnr {} differs from the pass",
                want.label, want.qsnr_db
            )
        })
        .collect()
}

/// One round: build the space, warm up, run full passes for about `secs`
/// (at least one; another is started only while more than half of it fits),
/// then re-evaluate a 16-config sample serially and require identical bits.
pub fn run_round(seed: u64, round: usize, secs: f64, tracer: Option<&mut Tracer>) -> RoundOut {
    let mut out = RoundOut::default();
    let parallel = settings(seed, THREADS);

    let setup_start = Instant::now();
    let space = full_space();
    let warm: Vec<FormatConfig> = sample(&space, WARM_UP, seed)
        .into_iter()
        .map(|i| space[i].clone())
        .collect();
    std::hint::black_box(evaluate_all(&warm, &parallel));
    let (cpu0, forks0) = (procfs::cpu_ms(), procfs::forks());
    let w0 = Instant::now();
    out.e2e
        .set("setup_s", w0.duration_since(setup_start).as_secs_f64());

    let mut pass_us: Vec<f64> = Vec::new();
    let mut spans: Vec<(Instant, Instant)> = Vec::new();
    let points = loop {
        let start = Instant::now();
        let points = evaluate_full_space(&parallel);
        let end = Instant::now();
        let took = end.duration_since(start).as_secs_f64();
        pass_us.push(took * 1e6);
        spans.push((start, end));
        if end.duration_since(w0).as_secs_f64() + took / 2.0 >= secs {
            break points;
        }
    };
    let window_s = w0.elapsed().as_secs_f64();
    let (cpu1, forks1) = (procfs::cpu_ms(), procfs::forks());
    out.e2e.set("rss_mb", procfs::rss_mb());

    out.mismatches = check(&space, seed, round, &points);
    let configs = (space.len() * pass_us.len()) as f64;
    let good = configs - out.mismatches.len() as f64;
    // One pass is the operation, due when the caller starts it. A round
    // holds one or two, so its 10th percentile is its fastest pass.
    let pass = percentile(&pass_us, 0.1);
    out.e2e.set("latency_p10_us", pass);
    let rate = space.len() as f64 / (pass / 1e6);
    out.e2e.set("goodput_rps", rate * good / configs);
    out.attempted = configs as u64;
    out.failed = out.mismatches.len() as u64;

    let l = &mut out.layer;
    l.set("sweep.configs_per_s", rate);
    l.set("client.throughput_rps", configs / window_s);
    l.set("client.offered", configs);
    l.set("client.answered", configs);
    l.set("client.mismatches", out.mismatches.len() as f64);
    l.set("client.failed_share", 1.0 - good / configs);
    for name in [
        "client.rtt_p50_us",
        "client.burst_p50_us",
        "client.latency_p50_us",
    ] {
        l.set(name, percentile(&pass_us, 0.5));
    }
    l.set("client.rtt_max_us", percentile(&pass_us, 1.0));
    l.set("client.goodput_mean_rps", good / window_s);
    l.set("proc.cpu_ms_per_req", (cpu1 - cpu0) / configs);
    l.set("parallel.spawns_per_req", (forks1 - forks0) / configs);

    if let Some(tracer) = tracer {
        for (i, (start, end)) in spans.iter().enumerate() {
            let (s, e) = (tracer.us(*start), tracer.us(*end));
            let root = tracer.push(
                None,
                i as u64,
                "pass",
                s,
                e,
                format!("configs={}", space.len()),
            );
            tracer.push(
                Some(root),
                i as u64,
                "sweep.evaluate_full_space",
                s,
                e,
                String::new(),
            );
        }
        // Replay: the sampled configurations one by one on this thread, and
        // beside each the QSNR measurement `evaluate_point` is known to call.
        let model = CostModel::new();
        let serial = settings(seed, 1);
        for i in sample(&space, CHECKED, seed.wrapping_add(round as u64)) {
            let cfg = &space[i];
            let root = tracer.open(i as u64, "replay", cfg.label());
            let (p, _) = tracer.scope(
                root,
                i as u64,
                "sweep.evaluate_point",
                String::new(),
                || evaluate_point(cfg, cfg.label(), &model, &serial),
            );
            let (q, _) = tracer.scope(root, i as u64, "qsnr.measure", String::new(), || {
                let mut quantizer = cfg.quantizer(ScaleStrategy::default());
                measure_qsnr(quantizer.as_mut(), serial.distribution, serial.qsnr)
            });
            tracer.close(root);
            std::hint::black_box((p, q));
        }
        l.set("trace.spans", tracer.spans().len() as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_is_spread_in_range_and_seeded() {
        let space = full_space();
        let a = sample(&space, 16, 3);
        assert_eq!(a.len(), 16);
        assert!(a.iter().all(|&i| i < space.len()));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16);
        assert_eq!(a, sample(&space, 16, 3));
        assert_ne!(a, sample(&space, 16, 4));
    }

    #[test]
    fn a_corrupted_pass_is_caught() {
        let space = full_space();
        // A tiny "pass": the serial evaluation itself is the parallel result.
        let picks = sample(&space, CHECKED, 9);
        let mut passed = vec![
            SweepPoint {
                label: String::new(),
                config: space[0].clone(),
                bits_per_element: 0.0,
                qsnr_db: 0.0,
                area_norm: 0.0,
                memory_norm: 0.0,
                product: 0.0,
            };
            space.len()
        ];
        let configs: Vec<FormatConfig> = picks.iter().map(|&i| space[i].clone()).collect();
        for (&i, p) in picks.iter().zip(evaluate_all(&configs, &settings(9, 2))) {
            passed[i] = p;
        }
        assert!(check(&space, 9, 0, &passed).is_empty());
        let before = qsnr_checksum(&passed);
        passed[picks[3]].qsnr_db += 1e-9;
        let bad = check(&space, 9, 0, &passed);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_ne!(qsnr_checksum(&passed), before);
    }
}

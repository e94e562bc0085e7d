//! Multi-tenant open-loop load generator for `mx-serve`: requests arrive
//! on a fixed schedule (`--rate` per second aggregate, optionally in
//! bursts) regardless of how fast responses come back, so what gets
//! measured is **service latency under offered load** — queueing included
//! — rather than the closed-loop burst latency the `serving_throughput`
//! bench reports. Tenant models are picked per request from a Zipf
//! popularity distribution (`--zipf`), arrivals can be bursty (`--burst`),
//! and `--mixed-lens` switches the tenants to variable-length GPT models
//! with bucketed sequence lengths. Latency percentiles come from
//! [`mx_serve::ServeStats`] (enqueue → batch executed, nearest-rank
//! p50/p99/p999 over the server's latency ring; shed and expired requests
//! are rejected with typed errors and never enter the ring).
//!
//! ```text
//! # saturation knee, single tenant (the classic sweep):
//! cargo run --release -p mx-bench --bin serve_loadgen -- \
//!     --rate 2000 --requests 20000 --max-batch 32 --workers 1
//!
//! # overload with admission control: bounded queues + shedding + SLO
//! cargo run --release -p mx-bench --bin serve_loadgen -- \
//!     --rate 16000 --requests 32000 --tenants 4 --shards 2 \
//!     --queue-cap 256 --shed --slo-us 20000
//! ```
//!
//! The default tenant model is the GPT-ish FFN shard the serving benches
//! use (one 512 → 2048 dense layer, MX6 weights and activations, weight
//! plane packed once per tenant and shared by every batch). Sweep `--rate`
//! upward until p99 diverges to find the box's saturation knee, then
//! offer a multiple of the knee with and without `--shed`/`--slo-us` to
//! see admission control hold the accepted-request tail.

use mx_models::gpt::{Gpt, GptConfig};
use mx_models::zoo::DenseGemm;
use mx_nn::qflow::QuantConfig;
use mx_nn::TensorFormat;
use mx_serve::{
    AdmissionConfig, Pending, Priority, Request, RequestInput, ServeError, Server, ServerConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Command-line knobs (every flag but `--shed` and `--mixed-lens` takes a
/// value; see module docs).
struct Args {
    /// Aggregate offered arrival rate, requests per second.
    rate: f64,
    /// Total requests to inject.
    requests: usize,
    /// Server worker threads per shard.
    workers: usize,
    /// Registry shards (default 1).
    shards: usize,
    /// Dispatcher coalescing bound.
    max_batch: usize,
    /// Tenant models sharing the server.
    tenants: usize,
    /// Zipf popularity skew across tenants (0 = uniform).
    zipf: f64,
    /// Arrivals come `burst` at a time on the schedule (1 = smooth).
    burst: usize,
    /// Model input width (`K`) for the dense tenants.
    d_in: usize,
    /// Model output width (`N`) for the dense tenants.
    d_out: usize,
    /// Variable-length GPT tenants with bucketed sequence lengths instead
    /// of fixed-width dense tenants.
    mixed_lens: bool,
    /// Bound on each shard's job queue (`0` = unbounded).
    queue_cap: usize,
    /// Shed with `Overloaded` when the shard queue is full instead of
    /// blocking the arrival loop.
    shed: bool,
    /// Latency-SLO admission budget in µs (`0` = no SLO gate).
    slo_us: u64,
    /// Per-request deadline in µs (`0` = none).
    deadline_us: u64,
}

impl Default for Args {
    fn default() -> Self {
        // MX_BENCH_THREADS picks the default worker count (0 = all cores,
        // matching the knob's contract everywhere else).
        let workers = match mx_bench::bench_threads(1) {
            0 => mx_core::parallel::default_threads(),
            w => w,
        };
        Args {
            rate: 200.0,
            requests: 2000,
            workers,
            shards: 1,
            max_batch: 32,
            tenants: 1,
            zipf: 1.1,
            burst: 1,
            d_in: 512,
            d_out: 2048,
            mixed_lens: false,
            queue_cap: 0,
            shed: false,
            slo_us: 0,
            deadline_us: 0,
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--rate" => args.rate = take("--rate").parse().expect("--rate: float"),
            "--requests" => args.requests = take("--requests").parse().expect("--requests: int"),
            "--workers" => args.workers = take("--workers").parse().expect("--workers: int"),
            "--shards" => args.shards = take("--shards").parse().expect("--shards: int"),
            "--max-batch" => {
                args.max_batch = take("--max-batch").parse().expect("--max-batch: int")
            }
            "--tenants" => args.tenants = take("--tenants").parse().expect("--tenants: int"),
            "--zipf" => args.zipf = take("--zipf").parse().expect("--zipf: float"),
            "--burst" => args.burst = take("--burst").parse().expect("--burst: int"),
            "--d-in" => args.d_in = take("--d-in").parse().expect("--d-in: int"),
            "--d-out" => args.d_out = take("--d-out").parse().expect("--d-out: int"),
            "--mixed-lens" => args.mixed_lens = true,
            "--queue-cap" => {
                args.queue_cap = take("--queue-cap").parse().expect("--queue-cap: int")
            }
            "--shed" => args.shed = true,
            "--slo-us" => args.slo_us = take("--slo-us").parse().expect("--slo-us: int"),
            "--deadline-us" => {
                args.deadline_us = take("--deadline-us").parse().expect("--deadline-us: int")
            }
            other => panic!(
                "unknown flag {other:?} (flags: --rate --requests --workers --shards \
                 --max-batch --tenants --zipf --burst --d-in --d-out --mixed-lens \
                 --queue-cap --shed --slo-us --deadline-us)"
            ),
        }
    }
    assert!(args.rate > 0.0, "--rate must be positive");
    assert!(args.tenants > 0, "--tenants must be positive");
    assert!(args.burst > 0, "--burst must be positive");
    assert!(
        args.requests >= 100,
        "--requests must be at least 100: the percentile population has to \
         dwarf the per-tenant warm-up samples (whose latency includes the \
         one-time weight-plane pack)"
    );
    args
}

fn request_row(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            ((i.wrapping_mul(2654435761).wrapping_add(salt * 911)) % 10_007) as f32 / 10_007.0 - 0.5
        })
        .collect()
}

/// Cumulative Zipf popularity table over `n` tenants: tenant `r` (0-based)
/// has weight `1 / (r + 1)^s`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn sample_zipf(cdf: &[f64], rng: &mut StdRng) -> usize {
    let u: f64 = rng.gen_range(0.0..1.0);
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args();
    let cfg = QuantConfig::weights_activations(TensorFormat::MX6, TensorFormat::MX6);
    let gpt_seq = GptConfig::tiny().seq_len;
    let buckets = [gpt_seq / 4, gpt_seq / 2, gpt_seq];
    let mut admission = AdmissionConfig::new().shed_on_full(args.shed);
    if args.queue_cap > 0 {
        admission = admission.queue_capacity(args.queue_cap);
    }
    if args.slo_us > 0 {
        admission = admission.slo(Duration::from_micros(args.slo_us));
    }
    let mut server = Server::new(
        ServerConfig::default()
            .workers(args.workers)
            .shards(args.shards)
            .max_batch(args.max_batch)
            .buckets(buckets)
            .admission(admission),
    );
    let mut rng = StdRng::seed_from_u64(5);
    let tenant_names: Vec<String> = (0..args.tenants).map(|t| format!("t{t}")).collect();
    for name in &tenant_names {
        if args.mixed_lens {
            server.register(name, Box::new(Gpt::new(&mut rng, GptConfig::tiny(), cfg)));
        } else {
            server.register(
                name,
                Box::new(DenseGemm::new(
                    &mut rng,
                    args.d_in,
                    args.d_out,
                    QuantConfig::fp32(),
                )),
            );
        }
    }
    let handle = server.start()?;

    let payload = |rng: &mut StdRng, salt: usize| -> RequestInput {
        if args.mixed_lens {
            let len = rng.gen_range(1..=gpt_seq);
            RequestInput::Tokens((0..len).map(|i| (i * 7 + salt) % 24).collect())
        } else {
            RequestInput::Pixels(request_row(args.d_in, salt % 64 + 1))
        }
    };

    // Warm every tenant to steady state before the measured window: the
    // first request pays the one-time weight-plane pack (milliseconds),
    // and the admission controller's service-time EWMA must settle to the
    // steady-state per-request cost — otherwise an SLO gate seeded by the
    // pack-inflated first observation would shed everything and, with no
    // admitted traffic to update the estimate, never recover. Eight
    // smoothing steps bring the EWMA within ~13% of the pack-free cost.
    for name in &tenant_names {
        for w in 0..8 {
            // High priority bypasses the SLO gate: warmup must land even
            // while the pack-inflated first observation busts the budget.
            handle.infer(
                Request::new(name, payload(&mut rng, w))
                    .quant(cfg)
                    .priority(Priority::High),
            )?;
        }
    }

    let cdf = zipf_cdf(args.tenants, args.zipf);
    println!(
        "open-loop: {} requests at {:.0} req/s aggregate (burst {}), {} tenant(s) zipf {:.2}, {}, \
         shards={}, workers/shard={}, max_batch={}, queue_cap={}, shed={}, slo={}us, \
         deadline={}us, kernel backend={}",
        args.requests,
        args.rate,
        args.burst,
        args.tenants,
        args.zipf,
        if args.mixed_lens {
            format!("GPT-tiny mixed lens buckets {buckets:?}")
        } else {
            format!("{}x{} MX6 FFN", args.d_in, args.d_out)
        },
        args.shards,
        args.workers,
        args.max_batch,
        args.queue_cap,
        args.shed,
        args.slo_us,
        args.deadline_us,
        mx_core::gemm::kernel_backend_name(),
    );

    let start = Instant::now();
    let mut late = 0usize;
    let mut shed_at_submit = 0usize;
    let mut expired_at_submit = 0usize;
    let mut tenant_offered = vec![0usize; args.tenants];
    let mut pending: Vec<Pending> = Vec::with_capacity(args.requests);
    for i in 0..args.requests {
        // Bursty fixed schedule: request i is due when its burst is, at
        // (i / burst) · (burst / rate) seconds. If the submitter falls
        // behind (only queue backpressure or this loop's own overhead can
        // cause that), the request goes out immediately and is counted as
        // late.
        let due = start
            + Duration::from_secs_f64((i / args.burst) as f64 * args.burst as f64 / args.rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        } else if now > due + Duration::from_millis(1) {
            late += 1;
        }
        let tenant = sample_zipf(&cdf, &mut rng);
        tenant_offered[tenant] += 1;
        let mut req = Request::new(&tenant_names[tenant], payload(&mut rng, i)).quant(cfg);
        if args.deadline_us > 0 {
            req = req.deadline(Duration::from_micros(args.deadline_us));
        }
        match handle.submit(req) {
            Ok(p) => pending.push(p),
            Err(ServeError::Overloaded { .. }) => shed_at_submit += 1,
            Err(ServeError::DeadlineExceeded { .. }) => expired_at_submit += 1,
            Err(other) => return Err(other.into()),
        }
    }
    let offered_window = start.elapsed();
    let mut answered = 0usize;
    let mut expired_in_queue = 0usize;
    for p in pending {
        match p.wait() {
            Ok(_) => answered += 1,
            Err(ServeError::DeadlineExceeded { .. }) => expired_in_queue += 1,
            Err(other) => return Err(other.into()),
        }
    }
    let drained = start.elapsed();

    let stats = handle.stats();
    let accepted = answered + expired_in_queue;
    let achieved = answered as f64 / drained.as_secs_f64();
    println!(
        "submitted in {:.2}s ({} late submissions), drained in {:.2}s",
        offered_window.as_secs_f64(),
        late,
        drained.as_secs_f64(),
    );
    println!(
        "admission: {} offered -> {} accepted, {} shed at submit, {} expired \
         ({} at submit, {} in queue) — every rejection typed, none dropped",
        args.requests,
        accepted,
        shed_at_submit,
        expired_at_submit + expired_in_queue,
        expired_at_submit,
        expired_in_queue,
    );
    println!(
        "throughput: {achieved:.1} req/s answered vs {:.1} req/s offered",
        args.rate
    );
    println!(
        "batches: {} over {} requests (mean coalesced {:.1}, histogram tail bucket {} full)",
        stats.batches,
        stats.completed,
        stats.mean_batch_size(),
        stats.batch_histogram.last().copied().unwrap_or(0),
    );
    println!(
        "accepted-request latency: p50 {} us, p99 {} us, p999 {} us",
        stats.p50_latency_us, stats.p99_latency_us, stats.p999_latency_us
    );
    println!(
        "server counters: shed {}, expired {}, shard depths {:?}",
        stats.shed, stats.expired, stats.shard_depths
    );
    if args.tenants > 1 {
        let mix: Vec<String> = tenant_offered
            .iter()
            .enumerate()
            .map(|(t, &n)| format!("t{t}:{n}"))
            .collect();
        println!("tenant mix (zipf {:.2}): {}", args.zipf, mix.join(" "));
    }
    println!(
        "weight planes: {} packs performed, {} avoided via the shared cache",
        stats.packs_performed, stats.packs_avoided
    );
    println!(
        "execution plans: {} compiled, {} cache hits, {} prepacks hoisted, {} arena bytes",
        stats.plans_compiled, stats.plan_cache_hits, stats.prepack_hoists, stats.plan_arena_bytes
    );
    handle.shutdown();
    Ok(())
}

//! The four serve workloads: build the server, warm it, drive one measured
//! window in a closed or an open loop, check sampled replies against a
//! never-served reference, and (in the traced round) replay sampled requests
//! directly against the layers under `mx-serve`.
//!
//! Everything is timed from outside: `submit` and `wait` are the only calls
//! into the server, and `ServerHandle::stats()` deltas are the only view of
//! what happened inside it.

use crate::gen::{self, ModelKind, ReqDesc, Stream};
use crate::kit::{gemm_shapes, GemmKit};
use crate::procfs;
use crate::stats::{fnv1a, percentile, percentile_sorted};
use crate::trace::Tracer;
use crate::workload::{OpenLoop, RoundOut, ServeSpec, LATENCY_LIMIT_US, MAX_BATCH};
use mx_models::gpt::{Gpt, GptConfig};
use mx_models::zoo::{BatchModel, DenseGemm, ZooInput};
use mx_nn::plan::{CompiledPlan, PlanArena, PlanInput};
use mx_nn::qflow::QuantConfig;
use mx_serve::{
    AdmissionConfig, Pending, Request, RequestInput, ServeError, ServeStats, Server, ServerConfig,
    ServerHandle,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Every 64th reply is kept with its request and checked after the round.
pub const VERIFY_EVERY: u32 = 64;
/// Every 16th request of a traced round gets its spans written and is
/// replayed against the layers.
pub const REPLAY_EVERY: u32 = 16;
/// An open-loop arrival sent more than this after it was due is late.
const LATE_US: f64 = 1000.0;
/// Above this share of late arrivals the generator, not the server, set the
/// offered load.
const GENERATOR_LIMITED_SHARE: f64 = 0.10;

/// The served models of one workload, built from the seed alone: the server
/// and the reference get bit-identical weights from two calls.
pub fn build_models(seed: u64, kind: ModelKind) -> Vec<Box<dyn BatchModel>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x005e_ed0f_d15c);
    match kind {
        ModelKind::Dense => vec![Box::new(DenseGemm::new(
            &mut rng,
            gen::DENSE_IN,
            gen::DENSE_OUT,
            QuantConfig::fp32(),
        ))],
        ModelKind::Gpt => (0..gen::GPT_TENANTS)
            .map(|_| {
                Box::new(Gpt::new(&mut rng, GptConfig::tiny(), QuantConfig::fp32()))
                    as Box<dyn BatchModel>
            })
            .collect(),
    }
}

/// The payload `desc` stands for, as the caller sends it (unpadded).
fn payload(desc: ReqDesc, kind: ModelKind, pool: &[Vec<f32>]) -> RequestInput {
    match kind {
        ModelKind::Dense => RequestInput::Pixels(pool[usize::from(desc.payload)].clone()),
        ModelKind::Gpt => RequestInput::Tokens(gen::tokens(desc.payload, usize::from(desc.len))),
    }
}

/// Never-served models that say what a reply must be, and that the replay
/// compiles its plans from.
pub struct Reference {
    kind: ModelKind,
    models: Vec<Box<dyn BatchModel>>,
    pool: Vec<Vec<f32>>,
}

impl Reference {
    /// `model_seed` is the run's seed; the corruption test passes another
    /// one and must see every checked reply fail.
    pub fn new(model_seed: u64, payload_seed: u64, kind: ModelKind) -> Self {
        Reference {
            kind,
            models: build_models(model_seed, kind),
            pool: gen::payload_pool(payload_seed),
        }
    }

    /// The padded-serial reference of `tests/serve_end_to_end.rs`: the
    /// request padded to its bucket, run alone with `batch = 1` after
    /// `set_quant`, sliced to `output_len(len)`.
    pub fn expected(&mut self, desc: ReqDesc) -> Vec<f32> {
        let model = &mut self.models[usize::from(desc.tenant)];
        model.set_quant(gen::quant(desc.fmt));
        match payload(desc, self.kind, &self.pool) {
            RequestInput::Pixels(p) => model.forward_batch(ZooInput::Pixels(&p), 1),
            RequestInput::Tokens(mut t) => {
                t.resize(desc.bucket(self.kind), 0);
                let mut out = model.forward_batch(ZooInput::Tokens(&t), 1);
                out.truncate(model.output_len(usize::from(desc.len)));
                out
            }
        }
    }

    /// One line per kept reply that is not bit-identical to the reference.
    pub fn check(&mut self, round: usize, kept: &[(ReqDesc, Digest)]) -> Vec<String> {
        let mut bad = Vec::new();
        for (desc, got) in kept {
            let want = Digest::of(&self.expected(*desc));
            if *got != want {
                bad.push(format!(
                    "round {round} request {} (tenant {} {} len {}): reply {got:x?} differs from reference {want:x?}",
                    desc.idx,
                    desc.tenant,
                    gen::FORMATS[usize::from(desc.fmt)],
                    desc.len
                ));
            }
        }
        bad
    }
}

/// Length and FNV-1a hash of a reply's bits. Kept in place of the reply
/// (8 KiB for a dense row) so the generator's memory does not grow with the
/// number of requests a round happens to answer and leak into `rss_mb`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    len: usize,
    hash: u64,
}

impl Digest {
    pub fn of(row: &[f32]) -> Self {
        Digest {
            len: row.len(),
            hash: fnv1a(row.iter().map(|v| u64::from(v.to_bits()))),
        }
    }
}

fn tenant_names(kind: ModelKind) -> Vec<String> {
    let n = match kind {
        ModelKind::Dense => 1,
        ModelKind::Gpt => gen::GPT_TENANTS,
    };
    (0..n).map(|t| format!("t{t}")).collect()
}

fn start_server(spec: &ServeSpec, seed: u64, names: &[String]) -> ServerHandle {
    let mut admission = AdmissionConfig::new();
    if let Some(open) = spec.open {
        admission = admission
            .queue_capacity(open.queue_capacity)
            .shed_on_full(true);
    }
    let mut server = Server::new(
        ServerConfig::default()
            .shards(spec.shards)
            .workers(spec.workers)
            .max_batch(MAX_BATCH)
            .buckets(gen::BUCKETS)
            .admission(admission),
    );
    for (name, model) in names.iter().zip(build_models(seed, spec.kind)) {
        server.register(name, model);
    }
    server
        .start()
        .expect("the workload's server config is valid")
}

/// How one request ended, as the caller saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Answered,
    Shed,
    Expired,
    Error,
}

fn outcome_of(err: &ServeError) -> Outcome {
    match err {
        ServeError::Overloaded { .. } => Outcome::Shed,
        ServeError::DeadlineExceeded { .. } => Outcome::Expired,
        _ => Outcome::Error,
    }
}

/// One request's timestamps, microseconds since the window began. For a
/// request refused inside `submit`, `tw` and `t2` equal `t1`.
#[derive(Debug, Clone, Copy)]
struct Rec {
    desc: ReqDesc,
    /// When the request was due: the arrival schedule's time (open loop) or
    /// the moment the caller began its group (closed loop).
    due: f64,
    /// `submit` called / returned.
    t0: f64,
    t1: f64,
    /// `wait` called / returned. The caller waits in submission order, so
    /// under reordering `t2` is an upper bound of when the reply was ready.
    tw: f64,
    t2: f64,
    outcome: Outcome,
}

/// Everything one measured window recorded.
#[derive(Default)]
struct Window {
    recs: Vec<Rec>,
    /// Closed loop: `(first submit, last reply)` of each group.
    groups: Vec<(f64, f64)>,
    kept: Vec<(ReqDesc, Digest)>,
    window_us: f64,
    threads_peak: f64,
}

fn us_since(w0: Instant, t: Instant) -> f64 {
    t.saturating_duration_since(w0).as_secs_f64() * 1e6
}

struct Driver<'a> {
    handle: &'a ServerHandle,
    names: &'a [String],
    pool: &'a [Vec<f32>],
    kind: ModelKind,
}

impl Driver<'_> {
    fn request(&self, desc: ReqDesc) -> Request {
        Request::new(
            self.names[usize::from(desc.tenant)].as_str(),
            payload(desc, self.kind, self.pool),
        )
        .quant(gen::quant(desc.fmt))
    }

    /// Unmeasured traffic that fills the plane and plan caches: every
    /// `(tenant, format, bucket)` key once for GPT, and for dense a few
    /// groups of the size the measured loop will submit. Kept short: every
    /// round trip here is set-up time exposed to the host's wake-up noise.
    fn warm_up(&self, spec: &ServeSpec, seed: u64) {
        match self.kind {
            ModelKind::Dense => {
                let mut stream = Stream::new(seed, usize::MAX, self.kind);
                let (size, count) = match (spec.open, spec.outstanding) {
                    // Below the queue bound, so nothing is shed while warming.
                    (Some(_), _) => (MAX_BATCH, 8),
                    (None, 1) => (1, 32),
                    (None, n) => (n, 8),
                };
                for _ in 0..count {
                    let pending: Vec<Pending> = (0..size)
                        .filter_map(|_| self.handle.submit(self.request(stream.next_desc())).ok())
                        .collect();
                    for p in pending {
                        let _ = p.wait();
                    }
                }
            }
            ModelKind::Gpt => {
                for tenant in 0..gen::GPT_TENANTS as u8 {
                    for fmt in 0..gen::FORMATS.len() as u8 {
                        for &len in &gen::BUCKETS {
                            let desc = ReqDesc {
                                idx: 0,
                                tenant,
                                fmt,
                                len: len as u16,
                                payload: u16::from(tenant) + u16::from(fmt),
                            };
                            let _ = self.handle.infer(self.request(desc));
                        }
                    }
                }
            }
        }
    }

    /// Closed loop, one caller: submit `outstanding` requests, wait for all
    /// of them in order, repeat until `secs` have passed.
    fn closed_loop(
        &self,
        stream: &mut Stream,
        outstanding: usize,
        secs: f64,
        w0: Instant,
    ) -> Window {
        let mut win = Window::default();
        let sample_every = (256 / outstanding).max(1);
        let mut reqs = Vec::with_capacity(outstanding);
        let mut pending = Vec::with_capacity(outstanding);
        loop {
            // Requests are built before the group's clock starts: generator
            // time is not the server's.
            reqs.extend((0..outstanding).map(|_| {
                let desc = stream.next_desc();
                (desc, self.request(desc))
            }));
            let start = Instant::now();
            if start.duration_since(w0).as_secs_f64() >= secs {
                break;
            }
            let due = us_since(w0, start);
            for (desc, req) in reqs.drain(..) {
                let t0 = Instant::now();
                let res = self.handle.submit(req);
                let t1 = Instant::now();
                pending.push((desc, us_since(w0, t0), us_since(w0, t1), res));
            }
            let mut end = due;
            for (desc, t0, t1, res) in pending.drain(..) {
                let tw = Instant::now();
                let reply = res.and_then(Pending::wait);
                let t2 = us_since(w0, Instant::now());
                let outcome = match &reply {
                    Ok(_) => Outcome::Answered,
                    Err(e) => outcome_of(e),
                };
                win.recs.push(Rec {
                    desc,
                    due,
                    t0,
                    t1,
                    tw: us_since(w0, tw),
                    t2,
                    outcome,
                });
                if let (Ok(out), 0) = (reply, desc.idx % VERIFY_EVERY) {
                    win.kept.push((desc, Digest::of(&out)));
                }
                end = t2;
            }
            win.groups.push((due, end));
            if win.groups.len() % sample_every == 0 {
                win.threads_peak = win.threads_peak.max(procfs::threads());
            }
        }
        win.window_us = us_since(w0, Instant::now());
        win
    }

    /// Open loop: this thread submits on the schedule whatever the server
    /// does; a collector thread waits for the accepted requests in
    /// submission order.
    fn open_loop(&self, stream: &mut Stream, open: OpenLoop, secs: f64, w0: Instant) -> Window {
        let total = ((open.rate * secs) as usize / open.burst).max(1) * open.burst;
        let (tx, rx) = mpsc::channel::<(Rec, Pending)>();
        let mut win = Window::default();
        win.recs.reserve(total);
        let (mut accepted, kept) = std::thread::scope(|s| {
            let collector = s.spawn(move || {
                let mut recs = Vec::with_capacity(total);
                let mut kept = Vec::new();
                for (mut rec, pending) in rx {
                    rec.tw = us_since(w0, Instant::now());
                    let reply = pending.wait();
                    rec.t2 = us_since(w0, Instant::now());
                    match reply {
                        Ok(out) => {
                            if rec.desc.idx % VERIFY_EVERY == 0 {
                                kept.push((rec.desc, Digest::of(&out)));
                            }
                        }
                        Err(e) => rec.outcome = outcome_of(&e),
                    }
                    recs.push(rec);
                }
                (recs, kept)
            });
            for i in 0..total {
                let due_s = gen::due_s(i, open.burst, open.rate);
                if i % open.burst == 0 {
                    let due_at = w0 + Duration::from_secs_f64(due_s);
                    let now = Instant::now();
                    if due_at > now {
                        std::thread::sleep(due_at - now);
                    }
                    if i % (256 * open.burst) == 0 {
                        win.threads_peak = win.threads_peak.max(procfs::threads());
                    }
                }
                let desc = stream.next_desc();
                let req = self.request(desc);
                let t0 = Instant::now();
                let res = self.handle.submit(req);
                let t1 = us_since(w0, Instant::now());
                let mut rec = Rec {
                    desc,
                    due: due_s * 1e6,
                    t0: us_since(w0, t0),
                    t1,
                    tw: t1,
                    t2: t1,
                    outcome: Outcome::Answered,
                };
                match res {
                    Ok(pending) => {
                        // The collector outlives the loop; a send can only
                        // fail if it panicked, which the join reports.
                        let _ = tx.send((rec, pending));
                    }
                    Err(e) => {
                        rec.outcome = outcome_of(&e);
                        win.recs.push(rec);
                    }
                }
            }
            drop(tx);
            collector.join().expect("collector thread panicked")
        });
        win.recs.append(&mut accepted);
        win.recs.sort_by_key(|r| r.desc.idx);
        win.kept = kept;
        win.window_us = us_since(w0, Instant::now()).max(secs * 1e6);
        win
    }
}

/// The `ServeStats` fields a round reports, as deltas over the window where
/// the field is a running total.
struct StatsDelta {
    batches: u64,
    completed: u64,
    histogram: Vec<u64>,
    shed: u64,
    expired: u64,
}

fn stats_delta(before: &ServeStats, after: &ServeStats) -> StatsDelta {
    StatsDelta {
        batches: after.batches - before.batches,
        completed: after.completed - before.completed,
        histogram: after
            .batch_histogram
            .iter()
            .zip(&before.batch_histogram)
            .map(|(a, b)| a - b)
            .collect(),
        shed: after.shed - before.shed,
        expired: after.expired - before.expired,
    }
}

/// Width of the slices `goodput_rps` is taken over.
const SLICE_US: f64 = 50_000.0;

/// `q`-quantile of `samples`, taken inside each length bucket and averaged
/// with the buckets' shares of the samples as weights. A plain quantile of
/// mixed-length traffic would pick out the shortest bucket; one bucket
/// (dense) makes this the plain quantile.
fn bucketed_quantile(samples: &[(usize, f64)], q: f64) -> f64 {
    let mut by_bucket: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(bucket, v) in samples {
        by_bucket.entry(bucket).or_default().push(v);
    }
    by_bucket
        .values()
        .map(|v| percentile(v, q) * v.len() as f64 / samples.len() as f64)
        .sum()
}

/// Replies per second in each full [`SLICE_US`] slice of the window, by
/// reply time.
fn slice_rates(reply_us: impl Iterator<Item = f64>, window_us: f64) -> Vec<f64> {
    let mut counts = vec![0u32; (window_us / SLICE_US) as usize];
    for t in reply_us {
        if let Some(c) = counts.get_mut((t / SLICE_US) as usize) {
            *c += 1;
        }
    }
    counts
        .iter()
        .map(|&c| f64::from(c) * 1e6 / SLICE_US)
        .collect()
}

/// Turns a window's records into the round's metrics. Ratios over an empty
/// round divide by zero; `Metrics::set` stores those as 0.
fn summarize(spec: &ServeSpec, win: &Window, mismatches: usize, out: &mut RoundOut) {
    let answered: Vec<&Rec> = win
        .recs
        .iter()
        .filter(|r| r.outcome == Outcome::Answered)
        .collect();
    let count = |o: Outcome| win.recs.iter().filter(|r| r.outcome == o).count() as f64;
    let offered = win.recs.len() as f64;
    let mut rtt: Vec<f64> = answered.iter().map(|r| r.t2 - r.t0).collect();
    rtt.sort_by(f64::total_cmp);
    let latency: Vec<(usize, f64)> = answered
        .iter()
        .map(|r| (r.desc.bucket(spec.kind), r.t2 - r.due))
        .collect();
    let on_time: Vec<&&Rec> = answered
        .iter()
        .filter(|r| r.t2 - r.due <= LATENCY_LIMIT_US)
        .collect();
    // Checked replies that were wrong do not count as good; the check
    // samples one reply in 64, so this is a floor.
    let good = (on_time.len() as f64 - mismatches as f64).max(0.0);
    let group_us: Vec<f64> = match spec.open {
        None => win.groups.iter().map(|(s, e)| e - s).collect(),
        Some(open) => {
            // An arrival burst: due time → last reply among its accepted
            // requests.
            let mut last: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
            for r in &answered {
                let e = last
                    .entry(r.desc.idx / open.burst as u32)
                    .or_insert((r.due, r.t2));
                e.1 = e.1.max(r.t2);
            }
            last.values().map(|(due, end)| end - due).collect()
        }
    };
    let window_s = win.window_us / 1e6;

    // What the caller waits for: the whole group when it keeps several
    // requests outstanding, else the one request, from when it was due.
    let op_p10 = if spec.open.is_none() && spec.outstanding > 1 {
        percentile(&group_us, 0.1)
    } else {
        bucketed_quantile(&latency, 0.1)
    };
    out.e2e.set("latency_p10_us", op_p10);
    let goodput = match spec.open {
        // Saturated by the schedule: the rate in the best tenth of the
        // window's slices.
        Some(_) => percentile(
            &slice_rates(on_time.iter().map(|r| r.t2), win.window_us),
            0.9,
        ),
        // One caller: the rate its loop sustains when a cycle (group start
        // to next group start, generator time included) takes its
        // fast-path time. Averaging whole slices would average the host's
        // stalls in, which interleave with requests at millisecond scale.
        None => {
            let cycles: Vec<(usize, f64)> = win
                .groups
                .windows(2)
                .zip(win.recs.chunks(spec.outstanding))
                .map(|(g, recs)| (recs[0].desc.bucket(spec.kind), g[1].0 - g[0].0))
                .collect();
            spec.outstanding as f64 * 1e6 / bucketed_quantile(&cycles, 0.1)
        }
    };
    out.e2e.set("goodput_rps", goodput);

    let l = &mut out.layer;
    let submit_call: Vec<f64> = win.recs.iter().map(|r| r.t1 - r.t0).collect();
    l.set("serve.submit_call_us", percentile(&submit_call, 0.5));
    l.set("client.rtt_p50_us", percentile_sorted(&rtt, 0.5));
    l.set("client.burst_p50_us", percentile(&group_us, 0.5));
    l.set("client.latency_p50_us", bucketed_quantile(&latency, 0.5));
    l.set("client.rtt_p90_us", percentile_sorted(&rtt, 0.9));
    l.set("client.rtt_p99_us", percentile_sorted(&rtt, 0.99));
    l.set("client.rtt_max_us", percentile_sorted(&rtt, 1.0));
    l.set("client.throughput_rps", answered.len() as f64 / window_s);
    l.set("client.goodput_mean_rps", good / window_s);
    l.set("client.offered", offered);
    l.set("client.answered", answered.len() as f64);
    l.set("client.shed", count(Outcome::Shed));
    l.set("client.expired", count(Outcome::Expired));
    l.set("client.errors", count(Outcome::Error));
    l.set("client.mismatches", mismatches as f64);
    l.set("client.failed_share", 1.0 - good / offered);
    let lateness: Vec<f64> = win.recs.iter().map(|r| r.t0 - r.due).collect();
    let late = lateness.iter().filter(|&&d| d > LATE_US).count() as f64;
    if spec.open.is_some() {
        l.set("client.late_share", late / offered);
        l.set(
            "client.max_late_us",
            lateness.iter().copied().fold(0.0, f64::max),
        );
        if late / offered > GENERATOR_LIMITED_SHARE {
            out.flags.push("generator_limited");
        }
    }
    l.set("proc.threads_peak", win.threads_peak);
    if spec.kind == ModelKind::Gpt {
        let lens = win.recs.iter().map(|r| usize::from(r.desc.len));
        l.set(
            "serve.pad_waste_share",
            gen::pad_waste_share(lens, &gen::BUCKETS),
        );
    }
    out.attempted = offered as u64;
    out.failed = count(Outcome::Error) as u64 + mismatches as u64;
}

/// The sizes of `n` replay groups, drawn so their mix follows the batches
/// the server formed (`histogram[s - 1]` batches of `s` requests).
fn replay_sizes(histogram: &[u64], n: usize) -> Vec<usize> {
    let expanded: Vec<usize> = histogram
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| std::iter::repeat_n(i + 1, c.min(4096) as usize))
        .collect();
    if expanded.is_empty() {
        return vec![1; n];
    }
    // A fixed odd stride walks the sorted sizes evenly, so the draw is the
    // same on every run and proportional over a few dozen groups.
    (0..n)
        .map(|j| expanded[(j * 7919) % expanded.len()])
        .collect()
}

/// What the replay of a traced round measured.
struct ReplayOut {
    /// `plan.execute` time per replayed group, one entry per request in it.
    plan_us: Vec<f64>,
    plan_total_us: f64,
    gemm_total_us: f64,
    requests: usize,
}

/// Replays the sampled requests of a traced round directly against
/// `mx_models::zoo` (compile), `mx_nn::plan` (execute) and `mx_core::gemm`,
/// grouped in the batch sizes the server used. Every call is a span under a
/// `replay` root that shares the first request's id.
fn replay(
    tracer: &mut Tracer,
    reference: &Reference,
    kit: &mut GemmKit,
    sampled: &[ReqDesc],
    histogram: &[u64],
) -> ReplayOut {
    let kind = reference.kind;
    let mut by_key: BTreeMap<(u8, u8, usize), Vec<ReqDesc>> = BTreeMap::new();
    for d in sampled {
        by_key
            .entry((d.tenant, d.fmt, d.bucket(kind)))
            .or_default()
            .push(*d);
    }
    let sizes = replay_sizes(histogram, sampled.len());
    let mut next_size = sizes.iter().copied().cycle();
    let mut plans: BTreeMap<(u8, u8, usize, usize), CompiledPlan> = BTreeMap::new();
    let mut arena = PlanArena::new();
    let mut acts: BTreeMap<usize, Vec<f32>> = BTreeMap::new();
    let mut out = ReplayOut {
        plan_us: Vec::new(),
        plan_total_us: 0.0,
        gemm_total_us: 0.0,
        requests: 0,
    };
    for (&(tenant, fmt, bucket), descs) in &by_key {
        let mut rest = descs.as_slice();
        while !rest.is_empty() {
            let size = next_size.next().unwrap_or(1).min(rest.len());
            let (group, tail) = rest.split_at(size);
            rest = tail;
            let req = u64::from(group[0].idx);
            let root = tracer.open(req, "replay", format!("batch={size} len={bucket}"));
            let model = &reference.models[usize::from(tenant)];
            let plan = plans.entry((tenant, fmt, bucket, size)).or_insert_with(|| {
                tracer
                    .scope(root, req, "zoo.compile_plan", String::new(), || {
                        model
                            .compile_plan(gen::quant(fmt), size, bucket)
                            .expect("zoo model plans its MX formats")
                    })
                    .0
            });
            let (pixels, toks): (Vec<f32>, Vec<usize>) = match kind {
                ModelKind::Dense => (
                    group
                        .iter()
                        .flat_map(|d| reference.pool[usize::from(d.payload)].iter().copied())
                        .collect(),
                    Vec::new(),
                ),
                ModelKind::Gpt => (
                    Vec::new(),
                    group
                        .iter()
                        .flat_map(|d| {
                            let mut t = gen::tokens(d.payload, usize::from(d.len));
                            t.resize(bucket, 0);
                            t
                        })
                        .collect(),
                ),
            };
            let input = match kind {
                ModelKind::Dense => PlanInput::Pixels(&pixels),
                ModelKind::Gpt => PlanInput::Tokens(&toks),
            };
            let (res, plan_us) = tracer.scope(root, req, "plan.execute", String::new(), || {
                plan.execute(input, &mut arena)
            });
            std::hint::black_box(res.expect("replayed plan executes"));
            let rows = match kind {
                ModelKind::Dense => size,
                ModelKind::Gpt => size * bucket,
            };
            for (k, n, times) in gemm_shapes(kind) {
                let a = acts
                    .entry(k)
                    .or_insert_with(|| gen::activations(17, MAX_BATCH * gen::BUCKETS[2], k));
                let a = &a[..rows * k];
                kit.prepare(k, n, fmt);
                let (res, us) = tracer.scope(
                    root,
                    req,
                    "gemm.execute",
                    format!("m={rows} k={k} n={n} x{times}"),
                    || kit.run(a, rows, k, n, fmt, 0),
                );
                std::hint::black_box(res);
                out.gemm_total_us += us * times as f64;
            }
            tracer.close(root);
            out.plan_total_us += plan_us;
            out.plan_us.extend(std::iter::repeat_n(plan_us, size));
            out.requests += size;
        }
    }
    out
}

/// Writes the served-side spans of the sampled requests: a `request` root
/// from due to reply with `serve.submit` and `serve.wait` under it.
fn served_spans(tracer: &mut Tracer, w0: Instant, win: &Window) {
    let base = tracer.us(w0);
    for r in win.recs.iter().filter(|r| r.desc.idx % REPLAY_EVERY == 0) {
        let req = u64::from(r.desc.idx);
        let root = tracer.push(
            None,
            req,
            "request",
            base + r.due,
            base + r.t2,
            format!("{:?}", r.outcome).to_lowercase(),
        );
        tracer.push(
            Some(root),
            req,
            "serve.submit",
            base + r.t0,
            base + r.t1,
            String::new(),
        );
        if r.t2 > r.t1 {
            tracer.push(
                Some(root),
                req,
                "serve.wait",
                base + r.tw,
                base + r.t2,
                String::new(),
            );
        }
    }
}

/// What a traced round needs beyond an untraced one.
pub struct Traced<'a> {
    pub tracer: &'a mut Tracer,
    pub kit: &'a mut GemmKit,
}

/// One round of a serve workload: a fresh server, warm-up, the measured
/// window, then (outside any timed region) the correctness check and, when
/// traced, the replay.
pub fn run_round(
    spec: &ServeSpec,
    seed: u64,
    round: usize,
    secs: f64,
    reference: &mut Reference,
    traced: Option<Traced<'_>>,
) -> RoundOut {
    let mut out = RoundOut::default();
    let names = tenant_names(spec.kind);
    let mut stream = Stream::new(seed, round, spec.kind);

    let setup_start = Instant::now();
    let handle = start_server(spec, seed, &names);
    let driver = Driver {
        handle: &handle,
        names: &names,
        pool: &reference.pool,
        kind: spec.kind,
    };
    driver.warm_up(spec, seed);
    let before = handle.stats();
    let (cpu0, forks0) = (procfs::cpu_ms(), procfs::forks());
    let w0 = Instant::now();
    out.e2e
        .set("setup_s", w0.duration_since(setup_start).as_secs_f64());

    let win = match spec.open {
        None => driver.closed_loop(&mut stream, spec.outstanding, secs, w0),
        Some(open) => driver.open_loop(&mut stream, open, secs, w0),
    };

    let (cpu1, forks1) = (procfs::cpu_ms(), procfs::forks());
    let after = handle.stats();
    out.e2e.set("rss_mb", procfs::rss_mb());
    handle.shutdown();

    let bad = reference.check(round, &win.kept);
    summarize(spec, &win, bad.len(), &mut out);
    out.mismatches = bad;

    let delta = stats_delta(&before, &after);
    let answered = out.layer.get("client.answered");
    let l = &mut out.layer;
    l.set("serve.internal_p50_us", after.p50_latency_us as f64);
    l.set(
        "serve.mean_batch",
        delta.completed as f64 / delta.batches as f64,
    );
    l.set(
        "serve.batch_full_share",
        delta.histogram.last().copied().unwrap_or(0) as f64 / delta.batches as f64,
    );
    // Since the server started, warm-up included: a compile is a compile.
    l.set("serve.plans_compiled", after.plans_compiled as f64);
    l.set(
        "serve.plan_hit_share",
        after.plan_cache_hits as f64 / (after.plan_cache_hits + after.plans_compiled) as f64,
    );
    l.set("serve.packs_performed", after.packs_performed as f64);
    l.set("serve.packs_avoided", after.packs_avoided as f64);
    l.set("serve.shed_share", delta.shed as f64 / out.attempted as f64);
    l.set("serve.expired", delta.expired as f64);
    l.set("proc.cpu_ms_per_req", (cpu1 - cpu0) / answered);
    l.set("parallel.spawns_per_req", (forks1 - forks0) / answered);

    if let Some(Traced { tracer, kit }) = traced {
        served_spans(tracer, w0, &win);
        let sampled: Vec<ReqDesc> = win
            .recs
            .iter()
            .filter(|r| r.outcome == Outcome::Answered && r.desc.idx % REPLAY_EVERY == 0)
            .map(|r| r.desc)
            .collect();
        let rep = replay(tracer, reference, kit, &sampled, &delta.histogram);
        let per_req = |total: f64| total / rep.requests as f64;
        let busy = |total: f64| per_req(total) * answered / win.window_us;
        l.set("trace.gemm_share", busy(rep.gemm_total_us));
        l.set("trace.plan_share", busy(rep.plan_total_us));
        l.set("trace.spans", tracer.spans().len() as f64);
        l.set(
            "serve.hop_overhead_us",
            l.get("client.rtt_p50_us") - percentile(&rep.plan_us, 0.5),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn bucketed_quantile_weights_buckets_by_share() {
        // 25 % short requests at ~1, 75 % long ones at ~10: a plain p10 would
        // report the short bucket alone.
        let mut samples: Vec<(usize, f64)> =
            (0..25).map(|i| (4, 1.0 + f64::from(i) / 100.0)).collect();
        samples.extend((0..75).map(|i| (16, 10.0 + f64::from(i) / 100.0)));
        let got = bucketed_quantile(&samples, 0.1);
        let want = 0.25 * 1.02 + 0.75 * 10.07;
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        // One bucket: the plain nearest-rank quantile.
        let dense: Vec<(usize, f64)> = (1..=100).map(|i| (512, f64::from(i))).collect();
        assert_eq!(bucketed_quantile(&dense, 0.1), 10.0);
        assert_eq!(bucketed_quantile(&[], 0.1), 0.0);
    }

    #[test]
    fn slice_rates_count_replies_per_full_slice() {
        // 3 replies in the first 50 ms, 1 in the second, the third slice is
        // partial and dropped.
        let rates = slice_rates(
            [10.0, 20_000.0, 49_999.0, 50_000.0, 120_000.0].into_iter(),
            130_000.0,
        );
        assert_eq!(rates, vec![60.0, 20.0]);
    }

    #[test]
    fn replay_sizes_follow_the_histogram() {
        let mut hist = vec![0u64; 32];
        hist[0] = 10;
        hist[31] = 30;
        let sizes = replay_sizes(&hist, 400);
        let full = sizes.iter().filter(|&&s| s == 32).count();
        assert!(sizes.iter().all(|&s| s == 1 || s == 32));
        assert!((280..=320).contains(&full), "{full} of 400 groups are full");
        assert_eq!(replay_sizes(&[0; 32], 3), vec![1, 1, 1]);
    }

    /// The acceptance demonstration: a corrupted reference (models built
    /// from another seed) makes every checked reply a mismatch, and the
    /// round reports failures; the right reference reports none.
    #[test]
    fn a_corrupted_reference_fails_the_round() {
        let spec = Workload::DenseSync.serve_spec().unwrap();
        let mut good = Reference::new(11, 11, spec.kind);
        let out = run_round(&spec, 11, 0, 0.3, &mut good, None);
        assert!(
            out.attempted > 64,
            "too few requests to check: {}",
            out.attempted
        );
        assert_eq!((out.failed, out.mismatches.len()), (0, 0));
        assert!(out.e2e.get("latency_p10_us") > 0.0 && out.e2e.get("setup_s") > 0.0);

        let mut corrupted = Reference::new(12, 11, spec.kind);
        let out = run_round(&spec, 11, 0, 0.3, &mut corrupted, None);
        assert!(!out.mismatches.is_empty());
        assert_eq!(out.failed as usize, out.mismatches.len());
        assert_eq!(
            out.layer.get("client.mismatches"),
            out.mismatches.len() as f64
        );
        assert!(
            out.mismatches[0].contains("differs from reference"),
            "{}",
            out.mismatches[0]
        );
    }

    #[test]
    fn gpt_reference_pads_to_the_bucket_and_slices_back() {
        let mut reference = Reference::new(5, 5, ModelKind::Gpt);
        let desc = ReqDesc {
            idx: 0,
            tenant: 2,
            fmt: gen::MX6,
            len: 5,
            payload: 77,
        };
        let out = reference.expected(desc);
        assert_eq!(out.len(), 5 * mx_models::data::LM_VOCAB);
        // Served for real, the same request gives the same bits.
        let spec = Workload::GptMixed.serve_spec().unwrap();
        let names = tenant_names(spec.kind);
        let handle = start_server(&spec, 5, &names);
        let driver = Driver {
            handle: &handle,
            names: &names,
            pool: &[],
            kind: spec.kind,
        };
        let served = handle.infer(driver.request(desc)).unwrap();
        assert_eq!(Digest::of(&served), Digest::of(&out));
        handle.shutdown();
    }
}

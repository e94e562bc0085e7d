//! # mx-serve — sharded, admission-controlled batched inference over shared
//! weight planes
//!
//! The paper's systems argument is that shared-microexponent formats make
//! direct-cast inference cheap enough to *serve*: weights lower once to
//! shift-aligned integer code planes and every subsequent request rides the
//! integer datapath. This crate turns that into a server built for
//! multi-model, mixed-length, overloaded traffic:
//!
//! - a **sharded registry** of zoo models
//!   ([`mx_models::zoo::BatchModel`]): each model lives on exactly one
//!   shard (round-robin by registration order), and each shard owns its
//!   job queue and worker pool — so a model's prepacked weight planes
//!   stay hot on the workers that serve it, and one model's overload
//!   cannot starve another shard;
//! - a typed **[`Request`] builder** carrying the payload plus per-request
//!   knobs (quant format, deadline, priority), validated and routed to its
//!   model's shard at [`ServerHandle::submit`];
//! - **admission control** ([`AdmissionConfig`]) in front of each shard
//!   queue: a bounded queue that blocks submitters (backpressure) or sheds
//!   with a typed [`ServeError::Overloaded`], plus a latency-SLO check
//!   driven by observed per-bucket service time — shed and expired
//!   requests are always *answered*, never silently dropped;
//! - **length bucketing** for variable-length models: a request of `L`
//!   elements is padded up to the smallest configured bucket edge ≥ `L`,
//!   so same-bucket requests coalesce into one fixed-shape batch GEMM; the
//!   response is the padded run's output sliced back to the request's own
//!   length. Fixed-length models are the degenerate single-bucket case;
//! - **coalescing workers**: each of a shard's workers takes one job off
//!   the shard queue, drains up to `max_batch` jobs in total, and runs
//!   them as same-model / same-config / same-bucket batches (a request in
//!   a per-tensor-scaled format is a batch of its own, see below). A
//!   request crosses two threads (client → worker); the bounded job queue
//!   is the only buffer, so it alone carries backpressure. On a shard with
//!   several workers and mixed keys, every group of one drain runs on the
//!   worker that drained it, one after another, while idle siblings take
//!   later jobs from the queue;
//! - **one compiled plan per (model, format, bucket)**: the first batch of
//!   a key compiles the model's [`mx_nn::plan::CompiledPlan`] at
//!   `max_batch` capacity, with every weight plane lowered **once** and
//!   pinned on the plan; every later batch of that key, whatever its size,
//!   executes the shared plan on the worker's own arena **outside** the
//!   model's lock, so several workers serve one model at once. A key the
//!   model cannot plan (BF16, scalar-scaled FP8, MoE routing, a model
//!   without a lowering) runs `set_quant` + `forward_batch` under the
//!   model's lock instead.
//!
//! Batching is **semantically invisible**: every tensor op on the zoo's
//! inference path is row- (or sequence-) independent, so a request's
//! response is bit-identical to running the same (bucket-padded) request
//! alone — across formats, batch sizes, shard counts and ragged final
//! batches (the workspace's `serve_end_to_end` suite asserts this bit for
//! bit). The one exception is a per-tensor-scaled format
//! ([`mx_nn::TensorFormat::is_per_tensor_scaled`], the scalar-scaled FP8
//! family) on the activations or element-wise outputs: its single scale
//! spans the whole batch tensor, so one large request would re-scale a
//! small neighbour. Such a request is never coalesced: it always runs as
//! a batch of one, so its answer is its solo answer too. What batching
//! buys is throughput: B-side code traffic, kernel dispatch, and the
//! A-side pack's per-call overhead amortize over the coalesced rows
//! (measured in the `serving_throughput` bench and the multi-tenant
//! `serve_loadgen` simulator).
//!
//! ## Example
//!
//! ```
//! use mx_serve::{Request, RequestInput, Server, ServerConfig};
//! use mx_models::zoo::DenseGemm;
//! use mx_nn::{QuantConfig, TensorFormat};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let mut server = Server::new(ServerConfig::default().shards(1).max_batch(8));
//! server.register(
//!     "ffn",
//!     Box::new(DenseGemm::new(&mut rng, 64, 128, QuantConfig::fp32())),
//! );
//! let handle = server.start().unwrap();
//! let cfg = QuantConfig::weights_activations(TensorFormat::MX6, TensorFormat::MX6);
//! let y = handle
//!     .infer(Request::new("ffn", RequestInput::Pixels(vec![0.5; 64])).quant(cfg))
//!     .unwrap();
//! assert_eq!(y.len(), 128);
//! assert_eq!(handle.stats().completed, 1);
//! handle.shutdown();
//! ```

#![warn(missing_docs)]

mod config;
mod request;
mod stats;

pub use config::{AdmissionConfig, ConfigError, ServerConfig};
pub use request::{Priority, Request, RequestInput};
pub use stats::ServeStats;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use mx_models::zoo::{BatchModel, InputKind, ZooInput};
use mx_nn::plan::{CompiledPlan, PlanArena, PlanInput};
use mx_nn::qflow::QuantConfig;
use stats::StatsInner;
use std::cell::RefCell;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Why a request was rejected or lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No registered model has this name.
    UnknownModel(String),
    /// The payload kind does not match the model's input kind.
    WrongInputKind {
        /// Model name the request addressed.
        model: String,
        /// The kind the model expects.
        expected: InputKind,
        /// The kind the request carried.
        got: InputKind,
    },
    /// The payload length is outside the model's contract: fixed-length
    /// models take exactly `expected` elements, variable-length models
    /// `1..=expected`.
    WrongInputLen {
        /// Model name the request addressed.
        model: String,
        /// Elements per request the model serves (the maximum, for
        /// variable-length models).
        expected: usize,
        /// Elements the request carried.
        got: usize,
    },
    /// A token id is outside the model's vocabulary. Checked at submit,
    /// so the id never reaches the model.
    TokenOutOfRange {
        /// Model name the request addressed.
        model: String,
        /// The first offending id.
        token: usize,
        /// The model's vocabulary size (valid ids are `0..vocab`).
        vocab: usize,
    },
    /// Admission control refused the request: the shard's queue was full
    /// under a shedding policy, or the latency-SLO estimate predicted the
    /// request could not be answered in time. Shedding is always typed —
    /// the caller gets this error, never silence.
    Overloaded {
        /// Model name whose shard refused the request.
        model: String,
    },
    /// The request's deadline passed before its batch executed (checked at
    /// submit and just before execution).
    DeadlineExceeded {
        /// Model name the request addressed.
        model: String,
    },
    /// The model panicked while executing a batch (this request's or an
    /// earlier one that poisoned the model). The worker survives; other
    /// models keep serving.
    ModelPanicked {
        /// Model name whose `forward_batch` (or quant switch) panicked.
        model: String,
    },
    /// The model's compiled plan failed while executing the batch. Every
    /// member request gets this answer; the batch is not re-run another
    /// way.
    PlanFailed {
        /// Model name whose plan failed.
        model: String,
        /// The plan's error, rendered.
        reason: String,
    },
    /// The model returned a buffer whose length is not
    /// `batch · output_len(len)`, so per-request rows cannot be sliced
    /// out.
    BadModelOutput {
        /// Model name that violated its output contract.
        model: String,
        /// Elements the contract promised (`batch · output_len(len)`).
        expected: usize,
        /// Elements the model actually returned.
        got: usize,
    },
    /// The server shut down before answering.
    Disconnected,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownModel(name) => write!(f, "unknown model {name:?}"),
            ServeError::WrongInputKind {
                model,
                expected,
                got,
            } => write!(f, "model {model:?} expects {expected:?} input, got {got:?}"),
            ServeError::WrongInputLen {
                model,
                expected,
                got,
            } => write!(
                f,
                "model {model:?} serves up to {expected} elements per request, got {got}"
            ),
            ServeError::TokenOutOfRange {
                model,
                token,
                vocab,
            } => write!(
                f,
                "model {model:?} embeds token ids below {vocab}, got {token}"
            ),
            ServeError::Overloaded { model } => {
                write!(f, "model {model:?}'s shard shed the request (overloaded)")
            }
            ServeError::DeadlineExceeded { model } => {
                write!(f, "request to model {model:?} expired before execution")
            }
            ServeError::ModelPanicked { model } => {
                write!(f, "model {model:?} panicked while executing a batch")
            }
            ServeError::PlanFailed { model, reason } => {
                write!(f, "model {model:?}'s plan failed: {reason}")
            }
            ServeError::BadModelOutput {
                model,
                expected,
                got,
            } => write!(
                f,
                "model {model:?} returned {got} elements, contract promised {expected}"
            ),
            ServeError::Disconnected => write!(f, "server shut down before responding"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Per-request outcome: the flattened response row, or a rejection.
pub type ServeResult = Result<Vec<f32>, ServeError>;

/// One admitted request in flight through a shard queue. The payload is
/// already padded to `len` (its bucket edge); `keep` is how much of the
/// per-request output row belongs to the caller.
struct Job {
    model: usize,
    cfg: QuantConfig,
    input: RequestInput,
    len: usize,
    out_len: usize,
    keep: usize,
    deadline: Option<Instant>,
    enqueued: Instant,
    resp: Sender<ServeResult>,
}

/// A coalesced group of same-model / same-config / same-bucket jobs.
struct Batch {
    model: usize,
    cfg: QuantConfig,
    len: usize,
    out_len: usize,
    jobs: Vec<Job>,
}

/// Soft cap on cached plans per model: `formats × buckets` in practice is
/// far below this; the cap only bounds a pathological client that cycles
/// through many distinct configs.
const PLAN_CACHE_CAP: usize = 32;

thread_local! {
    /// Per-worker plan scratch arena, reused across batches so steady-state
    /// plan execution performs no allocation beyond the arena's first
    /// growth to a model's high-water mark.
    static PLAN_ARENA: RefCell<PlanArena> = RefCell::new(PlanArena::new());
}

/// One plan-cache slot, keyed by `(QuantConfig, bucket len)`. `plan` is
/// `None` for a key the model cannot lower (unsupported format pair,
/// data-dependent routing): it is probed once and then served by the
/// dynamic walk without re-planning per batch.
struct PlanSlot {
    cfg: QuantConfig,
    len: usize,
    plan: Option<Arc<CompiledPlan>>,
}

/// A registered model plus the request contract captured at
/// [`Server::start`].
///
/// After `start` the server owns the model and calls only inference
/// methods on it (`compile_plan`, `set_quant`, `forward_batch`). Nothing
/// changes its weights, so a compiled plan stays valid for the server's
/// life: the plan cache needs no staleness check, and a cached plan runs
/// without the model's lock.
struct ModelEntry {
    name: String,
    kind: InputKind,
    input_len: usize,
    variable: bool,
    /// Token ids the model embeds, checked at submit (token models only).
    vocab: Option<usize>,
    shard: usize,
    /// Bucket edges this model serves, ascending; the last is always the
    /// native `input_len`. A request of length `L` pads to the smallest
    /// edge ≥ `L`. Fixed-length models have the single native edge.
    admitted: Vec<usize>,
    /// `out_for[l]` = the model's `output_len(l)` for every acceptable
    /// request length, captured once so the submit path never locks the
    /// model.
    out_for: Vec<usize>,
    model: Mutex<Box<dyn BatchModel>>,
    /// Compiled-plan cache: one slot per `(cfg, bucket)` key this model
    /// has served, oldest first. Slots are only added under `model`'s lock.
    plans: Mutex<Vec<PlanSlot>>,
}

impl ModelEntry {
    fn panicked(&self) -> ServeError {
        ServeError::ModelPanicked {
            model: self.name.clone(),
        }
    }
}

/// A server under construction: register models, then [`Server::start`].
pub struct Server {
    config: ServerConfig,
    registry: Vec<(String, Box<dyn BatchModel>)>,
}

impl Server {
    /// Creates an empty server with the given tuning. The configuration is
    /// validated at [`Server::start`], not here.
    pub fn new(config: ServerConfig) -> Self {
        Server {
            config,
            registry: Vec::new(),
        }
    }

    /// Registers `model` under `name`. The request contract (input kind,
    /// per-request lengths, bucket edges) is captured at [`Server::start`]
    /// and validated at submit time. Models are assigned to shards
    /// round-robin in registration order.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken.
    pub fn register(&mut self, name: &str, model: Box<dyn BatchModel>) -> &mut Self {
        // audit:allow(serve-panic): construction-time contract, not the
        // request path — duplicate names are a deployment bug.
        assert!(
            self.registry.iter().all(|(n, _)| n != name),
            "model {name:?} already registered"
        );
        self.registry.push((name.to_string(), model));
        self
    }

    /// Validates the configuration, captures every model's serving
    /// contract, and starts `workers` threads per shard (`shards ×
    /// workers` in all), returning the client handle. Dropping (or
    /// [`ServerHandle::shutdown`]ting) the handle drains in-flight
    /// requests and joins every thread.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] when the configuration is
    /// invalid; no thread is spawned in that case.
    pub fn start(self) -> Result<ServerHandle, ConfigError> {
        self.config.validate()?;
        let shards = self.config.shards;
        let entries: Vec<ModelEntry> = self
            .registry
            .into_iter()
            .enumerate()
            .map(|(i, (name, model))| {
                let input_len = model.input_len();
                let variable = model.variable_len();
                let admitted = if variable {
                    let mut edges: Vec<usize> = self
                        .config
                        .buckets
                        .iter()
                        .copied()
                        .filter(|&b| b < input_len)
                        .collect();
                    edges.push(input_len);
                    edges
                } else {
                    vec![input_len]
                };
                let out_for = (0..=input_len).map(|l| model.output_len(l)).collect();
                ModelEntry {
                    name,
                    kind: model.input_kind(),
                    input_len,
                    variable,
                    vocab: model.vocab(),
                    shard: i % shards,
                    admitted,
                    out_for,
                    model: Mutex::new(model),
                    plans: Mutex::new(Vec::new()),
                }
            })
            .collect();
        let registry = Arc::new(entries);
        let stats = Arc::new(StatsInner::new(self.config.max_batch, shards));
        let mut job_txs = Vec::with_capacity(shards);
        let mut threads = Vec::with_capacity(shards * self.config.workers);
        for shard in 0..shards {
            let (job_tx, job_rx) = match self.config.admission.queue_capacity {
                Some(cap) => bounded(cap),
                None => unbounded(),
            };
            job_txs.push(job_tx);
            for _ in 0..self.config.workers {
                let job_rx = job_rx.clone();
                let registry = registry.clone();
                let stats = stats.clone();
                let config = self.config.clone();
                threads.push(std::thread::spawn(move || {
                    worker_loop(shard, &job_rx, &registry, &stats, &config);
                }));
            }
        }
        Ok(ServerHandle {
            job_txs: Some(job_txs),
            config: self.config,
            registry,
            stats,
            threads,
        })
    }
}

/// One worker of a shard: blocks for a job, drains up to `max_batch` jobs
/// in total from the shard queue, groups them by `(model, QuantConfig,
/// bucket len)` in arrival order, and executes each group as one batch.
/// Taking no more than one batch's worth leaves the rest queued for idle
/// siblings, and every drained job runs this round — partial groups become
/// ragged batches rather than waiting for stragglers, so a burst of
/// synchronous clients can never deadlock behind a half-full batch. Returns
/// once shutdown has dropped the senders and the queue is empty.
fn worker_loop(
    shard: usize,
    job_rx: &Receiver<Job>,
    registry: &[ModelEntry],
    stats: &StatsInner,
    config: &ServerConfig,
) {
    let max_batch = config.max_batch;
    let top_up = |drained: &mut Vec<Job>| {
        let room = max_batch.saturating_sub(drained.len());
        drained.extend(std::iter::from_fn(|| job_rx.try_recv().ok()).take(room));
    };
    while let Ok(first) = job_rx.recv() {
        let mut drained = vec![first];
        top_up(&mut drained);
        if drained.len() < max_batch {
            // Micro-batch linger: one scheduler slot for the producers to
            // finish their burst. Without it, a single-core box ping-pongs —
            // every submit wakes a worker, which runs a batch of one before
            // the client can enqueue the next request. One yield bounds the
            // added latency at a context switch while letting a burst
            // coalesce.
            std::thread::yield_now();
            top_up(&mut drained);
        }
        let mut groups: Vec<Batch> = Vec::new();
        for job in drained {
            // One scale over the whole batch tensor would couple the
            // requests batched together: such a job runs alone.
            let alone = [job.cfg.fwd, job.cfg.elementwise]
                .iter()
                .any(|f| f.is_per_tensor_scaled());
            match groups
                .iter_mut()
                .find(|b| !alone && b.model == job.model && b.cfg == job.cfg && b.len == job.len)
            {
                Some(b) => b.jobs.push(job),
                None => groups.push(Batch {
                    model: job.model,
                    cfg: job.cfg,
                    len: job.len,
                    out_len: job.out_len,
                    jobs: vec![job],
                }),
            }
        }
        for batch in groups {
            execute_batch(shard, batch, registry, stats, config);
        }
    }
}

/// Answers one expired job with [`ServeError::DeadlineExceeded`] and
/// retires it from the shard's depth — expiry is a typed answer, never a
/// silent drop.
fn expire_job(shard: usize, job: Job, registry: &[ModelEntry], stats: &StatsInner) {
    stats.retired(shard, 1);
    stats.record_expired(1);
    let model = registry
        .get(job.model)
        .map_or_else(String::new, |e| e.name.clone());
    let _ = job.resp.send(Err(ServeError::DeadlineExceeded { model }));
}

/// Runs one coalesced batch on its model and answers every member request.
///
/// Requests whose deadline passed while they waited in the queue (or
/// behind an earlier group of the same drain) are answered with
/// [`ServeError::DeadlineExceeded`] and dropped from the batch first.
/// Model failures — a poisoned mutex from an earlier panic, a panic during
/// this batch, a plan that fails to execute, an output buffer that
/// violates the length contract — are answered as [`ServeError`]s on every
/// member request. The worker thread itself never unwinds, so one
/// misbehaving model cannot take down the server: other models (and this
/// one's error reporting) keep serving.
fn execute_batch(
    shard: usize,
    mut batch: Batch,
    registry: &[ModelEntry],
    stats: &StatsInner,
    config: &ServerConfig,
) {
    let now = Instant::now();
    let (live, expired): (Vec<Job>, Vec<Job>) = std::mem::take(&mut batch.jobs)
        .into_iter()
        .partition(|job| job.deadline.is_none_or(|d| now < d));
    batch.jobs = live;
    for job in expired {
        expire_job(shard, job, registry, stats);
    }
    let n = batch.jobs.len();
    if n == 0 {
        return;
    }
    let started = Instant::now();
    let result = run_batch(&batch, registry, stats, config);
    let service = started.elapsed();
    // Publish telemetry *before* answering: a synchronous client that just
    // got its response must see itself counted in the next snapshot.
    // Failed batches still count — the requests were accepted and answered.
    let latencies: Vec<_> = batch.jobs.iter().map(|j| j.enqueued.elapsed()).collect();
    stats.retired(shard, n);
    stats.record_batch(shard, batch.model, batch.len, n, &latencies, service);
    match result {
        Ok(rows) => {
            for (job, mut row) in batch.jobs.into_iter().zip(rows) {
                // Slice the padded run's output back to the request's own
                // length before answering.
                row.truncate(job.keep);
                // A client that dropped its Pending receiver discards the
                // row.
                let _ = job.resp.send(Ok(row));
            }
        }
        Err(err) => {
            for job in batch.jobs {
                let _ = job.resp.send(Err(err.clone()));
            }
        }
    }
}

/// Executes the model call for one batch, returning per-request output rows
/// (at the bucket's full `out_len`) or the error every member request
/// should be answered with.
fn run_batch(
    batch: &Batch,
    registry: &[ModelEntry],
    stats: &StatsInner,
    config: &ServerConfig,
) -> Result<Vec<Vec<f32>>, ServeError> {
    let entry = registry.get(batch.model).ok_or(ServeError::Disconnected)?; // index minted at submit; defensive
    let n = batch.jobs.len();
    // Concatenate the (submit-validated, bucket-padded) payloads. A kind
    // mismatch here would be an internal bug; report it as the kind error
    // rather than killing the worker.
    let mut payload = match entry.kind {
        InputKind::Tokens => RequestInput::Tokens(Vec::with_capacity(n * batch.len)),
        InputKind::Pixels => RequestInput::Pixels(Vec::with_capacity(n * batch.len)),
    };
    for job in &batch.jobs {
        match (&mut payload, &job.input) {
            (RequestInput::Tokens(buf), RequestInput::Tokens(t)) => buf.extend_from_slice(t),
            (RequestInput::Pixels(buf), RequestInput::Pixels(p)) => buf.extend_from_slice(p),
            _ => {
                return Err(ServeError::WrongInputKind {
                    model: entry.name.clone(),
                    expected: entry.kind,
                    got: job.input.kind(),
                })
            }
        }
    }
    let out = forward_guarded(entry, batch.cfg, &payload, batch.len, n, config, stats)?;
    let per_out = batch.out_len;
    if out.len() != n * per_out {
        return Err(ServeError::BadModelOutput {
            model: entry.name.clone(),
            expected: n * per_out,
            got: out.len(),
        });
    }
    if per_out == 0 {
        // Zero-width outputs: every row is empty; `chunks(0)` would panic.
        return Ok(vec![Vec::new(); n]);
    }
    Ok(out.chunks(per_out).map(<[f32]>::to_vec).collect())
}

/// Runs `n` concatenated requests of one `(cfg, len)` key with a panic
/// guard: through the key's cached plan, outside the model's lock, or —
/// for a key the model cannot plan — as `set_quant` + `forward_batch`
/// under the lock. A panic under the lock poisons the model's mutex (the
/// guard drops mid-unwind), so later batches that need the lock fail fast
/// with [`ServeError::ModelPanicked`] while the worker — and every other
/// model — keeps running. Cached plans never read the model, so they keep
/// serving.
fn forward_guarded(
    entry: &ModelEntry,
    cfg: QuantConfig,
    payload: &RequestInput,
    len: usize,
    n: usize,
    config: &ServerConfig,
    stats: &StatsInner,
) -> Result<Vec<f32>, ServeError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        match plan_for(entry, cfg, len, config.max_batch, stats)? {
            Some(plan) => {
                let input = match payload {
                    RequestInput::Tokens(t) => PlanInput::Tokens(t),
                    RequestInput::Pixels(p) => PlanInput::Pixels(p),
                };
                PLAN_ARENA
                    .with(|arena| plan.execute(input, &mut arena.borrow_mut()))
                    .map_err(|e| ServeError::PlanFailed {
                        model: entry.name.clone(),
                        reason: e.to_string(),
                    })
            }
            None => {
                let mut model = entry.model.lock().map_err(|_| entry.panicked())?;
                // Per-request format selection = direct cast on the shared
                // model. Weights are untouched, so each format's cached
                // weight plane stays warm across config switches.
                model.set_quant(cfg);
                let input = match payload {
                    RequestInput::Tokens(t) => ZooInput::Tokens(t),
                    RequestInput::Pixels(p) => ZooInput::Pixels(p),
                };
                Ok(model.forward_batch(input, n))
            }
        }
    }))
    .unwrap_or_else(|_| Err(entry.panicked()))
}

/// The model's plan for `(cfg, len)`, or `None` for a key the model
/// cannot plan. A hit takes only the cache's lock. A miss compiles at
/// `capacity` requests under the model's lock, after looking again, so a
/// key that several workers miss at once compiles once.
fn plan_for(
    entry: &ModelEntry,
    cfg: QuantConfig,
    len: usize,
    capacity: usize,
    stats: &StatsInner,
) -> Result<Option<Arc<CompiledPlan>>, ServeError> {
    // The cached slot's plan: `None` on a miss, `Some(None)` for a key
    // the model cannot plan.
    let cached = || {
        let plans = entry.plans.lock().unwrap_or_else(|p| p.into_inner());
        let slot = plans.iter().find(|s| s.cfg == cfg && s.len == len);
        slot.map(|s| s.plan.clone())
    };
    let hit = |plan: Option<Arc<CompiledPlan>>| {
        if plan.is_some() {
            stats.record_plan_hit();
        }
        Ok(plan)
    };
    if let Some(plan) = cached() {
        return hit(plan);
    }
    let model = entry.model.lock().map_err(|_| entry.panicked())?;
    if let Some(plan) = cached() {
        return hit(plan);
    }
    let plan = model.compile_plan(cfg, capacity, len).ok().map(Arc::new);
    if plan.is_some() {
        stats.record_plan_compiled();
    }
    let mut plans = entry.plans.lock().unwrap_or_else(|p| p.into_inner());
    if plans.len() >= PLAN_CACHE_CAP {
        plans.remove(0); // oldest-first soft eviction
    }
    plans.push(PlanSlot {
        cfg,
        len,
        plan: plan.clone(),
    });
    Ok(plan)
}

/// Client handle to a running server: submit requests (from any thread —
/// submission takes `&self`), read stats, shut down.
pub struct ServerHandle {
    job_txs: Option<Vec<Sender<Job>>>,
    config: ServerConfig,
    registry: Arc<Vec<ModelEntry>>,
    stats: Arc<StatsInner>,
    threads: Vec<JoinHandle<()>>,
}

/// A response that has not arrived yet (returned by
/// [`ServerHandle::submit`]).
pub struct Pending {
    rx: Receiver<ServeResult>,
}

impl Pending {
    /// Blocks until the response arrives.
    pub fn wait(self) -> ServeResult {
        match self.rx.recv() {
            Ok(res) => res,
            Err(_) => Err(ServeError::Disconnected),
        }
    }
}

impl ServerHandle {
    /// Validates `req`, runs it through admission control, and enqueues it
    /// on its model's shard, returning a [`Pending`] response without
    /// blocking on execution. Submitting several requests before waiting
    /// is how a single client thread gets them coalesced into one batch.
    ///
    /// Under a bounded shard queue this call *blocks* when the queue is
    /// full (backpressure) unless the admission policy sheds, in which
    /// case it returns [`ServeError::Overloaded`] immediately.
    pub fn submit(&self, req: Request) -> Result<Pending, ServeError> {
        let Request {
            model,
            mut input,
            cfg,
            deadline,
            priority,
        } = req;
        let (id, entry) = self
            .registry
            .iter()
            .enumerate()
            .find(|(_, e)| e.name == model)
            .ok_or_else(|| ServeError::UnknownModel(model.clone()))?;
        if input.kind() != entry.kind {
            return Err(ServeError::WrongInputKind {
                model,
                expected: entry.kind,
                got: input.kind(),
            });
        }
        let got = input.len();
        let acceptable = if entry.variable {
            (1..=entry.input_len).contains(&got)
        } else {
            got == entry.input_len
        };
        if !acceptable {
            return Err(ServeError::WrongInputLen {
                model,
                expected: entry.input_len,
                got,
            });
        }
        if let (Some(vocab), RequestInput::Tokens(t)) = (entry.vocab, &input) {
            if let Some(&token) = t.iter().find(|&&id| id >= vocab) {
                return Err(ServeError::TokenOutOfRange {
                    model,
                    token,
                    vocab,
                });
            }
        }
        // Bucket: the smallest admitted edge that fits the request. The
        // native length is always the final edge, so the search cannot
        // miss; the fallback is defensive.
        let len = entry
            .admitted
            .iter()
            .copied()
            .find(|&edge| edge >= got)
            .unwrap_or(entry.input_len);
        let out_len = entry.out_for.get(len).copied().unwrap_or(0);
        let keep = entry.out_for.get(got).copied().unwrap_or(out_len);
        let now = Instant::now();
        let deadline = deadline.map(|budget| now + budget);
        if deadline.is_some_and(|d| now >= d) {
            self.stats.record_expired(1);
            return Err(ServeError::DeadlineExceeded { model });
        }
        // Latency-SLO admission: shed when the shard's observed service
        // times predict this request cannot be answered within its
        // priority's share of the SLO. High priority bypasses the
        // estimate; a cold shard (no observations) predicts zero and
        // admits.
        if let Some(slo) = self.config.admission.slo {
            if let Some(budget) = priority.slo_budget(slo) {
                let budget_us = budget.as_micros().min(u128::from(u64::MAX)) as u64;
                if self.stats.estimate_wait_us(entry.shard, id, len) > budget_us {
                    self.stats.record_shed();
                    return Err(ServeError::Overloaded { model });
                }
            }
        }
        input.pad_to(len);
        // `job_txs` is cleared only by shutdown, which takes the handle by
        // value — but answer `Disconnected` rather than panicking if that
        // invariant ever breaks.
        let tx = self
            .job_txs
            .as_ref()
            .and_then(|txs| txs.get(entry.shard))
            .ok_or(ServeError::Disconnected)?;
        let (resp, rx) = unbounded();
        let job = Job {
            model: id,
            cfg,
            input,
            len,
            out_len,
            keep,
            deadline,
            enqueued: now,
            resp,
        };
        self.stats.admitted(entry.shard, 1);
        if self.config.admission.shed_on_full {
            match tx.try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    self.stats.retired(entry.shard, 1);
                    self.stats.record_shed();
                    return Err(ServeError::Overloaded { model });
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.stats.retired(entry.shard, 1);
                    return Err(ServeError::Disconnected);
                }
            }
        } else if tx.send(job).is_err() {
            self.stats.retired(entry.shard, 1);
            return Err(ServeError::Disconnected);
        }
        Ok(Pending { rx })
    }

    /// Synchronous inference: submit and block until the response arrives.
    pub fn infer(&self, req: Request) -> ServeResult {
        self.submit(req)?.wait()
    }

    /// A point-in-time stats snapshot.
    pub fn stats(&self) -> ServeStats {
        self.stats.snapshot()
    }

    /// Registered model names, in registration order.
    pub fn model_names(&self) -> Vec<String> {
        self.registry.iter().map(|e| e.name.clone()).collect()
    }

    /// The shard a model's requests are routed to, `None` when unknown.
    pub fn shard_of(&self, model: &str) -> Option<usize> {
        self.registry
            .iter()
            .find(|e| e.name == model)
            .map(|e| e.shard)
    }

    /// Graceful shutdown: stops accepting requests, lets every shard's
    /// workers drain their queue, and joins them. (Dropping the handle does
    /// the same.)
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.job_txs.take(); // workers see the disconnect after draining
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_core::bdr::BdrFormat;
    use mx_models::zoo::DenseGemm;
    use mx_nn::layers::Linear;
    use mx_nn::plan::{Loc, PlanError, Planner, Stage};
    use mx_nn::TensorFormat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mx6() -> QuantConfig {
        QuantConfig::weights_activations(TensorFormat::MX6, TensorFormat::MX6)
    }

    fn dense_server(workers: usize, max_batch: usize) -> ServerHandle {
        let mut rng = StdRng::seed_from_u64(3);
        let mut server = Server::new(
            ServerConfig::default()
                .workers(workers)
                .max_batch(max_batch),
        );
        server.register(
            "dense",
            Box::new(DenseGemm::new(&mut rng, 32, 16, QuantConfig::fp32())),
        );
        server.start().unwrap()
    }

    fn row(salt: usize) -> Vec<f32> {
        (0..32).map(|i| ((i + salt) as f32 * 0.19).sin()).collect()
    }

    fn dense_req(salt: usize) -> Request {
        Request::new("dense", RequestInput::Pixels(row(salt))).quant(mx6())
    }

    #[test]
    fn sync_inference_round_trip() {
        let handle = dense_server(1, 4);
        let y = handle.infer(dense_req(0)).unwrap();
        assert_eq!(y.len(), 16);
        let again = handle.infer(dense_req(0)).unwrap();
        assert_eq!(y, again, "same request, same bits");
        let stats = handle.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(handle.model_names(), vec!["dense".to_string()]);
        assert_eq!(handle.shard_of("dense"), Some(0));
        assert_eq!(handle.shard_of("nope"), None);
        handle.shutdown();
    }

    #[test]
    fn submit_validates_before_enqueue() {
        let handle = dense_server(1, 4);
        assert_eq!(
            handle
                .infer(Request::new("nope", RequestInput::Pixels(row(0))))
                .unwrap_err(),
            ServeError::UnknownModel("nope".into())
        );
        assert!(matches!(
            handle
                .infer(Request::new("dense", RequestInput::Tokens(vec![0; 32])).quant(mx6()))
                .unwrap_err(),
            ServeError::WrongInputKind { .. }
        ));
        assert!(matches!(
            handle
                .infer(Request::new("dense", RequestInput::Pixels(vec![0.0; 7])).quant(mx6()))
                .unwrap_err(),
            ServeError::WrongInputLen {
                expected: 32,
                got: 7,
                ..
            }
        ));
        // Rejections never count as in-flight work.
        assert_eq!(handle.stats().queue_depth, 0);
        assert_eq!(handle.stats().completed, 0);
    }

    #[test]
    fn invalid_config_is_a_typed_error_at_start() {
        let server = Server::new(ServerConfig::default().workers(0));
        match server.start() {
            Err(e) => assert_eq!(e, ConfigError::ZeroWorkers),
            Ok(_) => panic!("zero workers must not start"),
        }
        let server = Server::new(ServerConfig::default().buckets([8, 4]));
        match server.start() {
            Err(e) => assert_eq!(e, ConfigError::UnsortedBuckets { index: 1 }),
            Ok(_) => panic!("unsorted buckets must not start"),
        }
    }

    #[test]
    fn burst_submission_coalesces_and_matches_serial() {
        let handle = dense_server(1, 8);
        // Serial references first (batches of 1).
        let want: Vec<Vec<f32>> = (0..12)
            .map(|i| handle.infer(dense_req(i)).unwrap())
            .collect();
        // Burst: submit all, then wait — the worker coalesces.
        let pending: Vec<Pending> = (0..12)
            .map(|i| handle.submit(dense_req(i)).unwrap())
            .collect();
        for (i, p) in pending.into_iter().enumerate() {
            assert_eq!(p.wait().unwrap(), want[i], "request {i}");
        }
        let stats = handle.stats();
        assert_eq!(stats.completed, 24);
        assert_eq!(
            stats.batch_histogram.iter().sum::<u64>(),
            stats.batches,
            "histogram covers every batch"
        );
        assert!(stats.p50_latency_us <= stats.p99_latency_us);
        assert!(stats.p99_latency_us <= stats.p999_latency_us);
        handle.shutdown();
    }

    #[test]
    fn shutdown_joins_and_drop_is_idempotent() {
        let handle = dense_server(2, 4);
        let p = handle.submit(dense_req(9)).unwrap();
        handle.shutdown(); // drains the in-flight request first
        assert_eq!(p.wait().unwrap().len(), 16);
    }

    /// Pixel model that panics when a request's first feature is the magic
    /// value, and otherwise echoes `input_len` zeros per request — the
    /// misbehaving-tenant stand-in for the fault-isolation tests.
    struct Grenade;

    impl BatchModel for Grenade {
        fn input_kind(&self) -> InputKind {
            InputKind::Pixels
        }

        fn input_len(&self) -> usize {
            4
        }

        fn output_len(&self, _len: usize) -> usize {
            2
        }

        fn set_quant(&mut self, _cfg: QuantConfig) {}

        fn forward_batch(&mut self, input: ZooInput<'_>, batch: usize) -> Vec<f32> {
            let ZooInput::Pixels(px) = input else {
                panic!("pixels expected")
            };
            assert!(!px.first().is_some_and(|&v| v == 13.0), "boom");
            vec![0.0; batch * 2]
        }
    }

    /// Model whose output violates the `batch · output_len(len)` contract.
    struct ShortChanger;

    impl BatchModel for ShortChanger {
        fn input_kind(&self) -> InputKind {
            InputKind::Pixels
        }

        fn input_len(&self) -> usize {
            4
        }

        fn output_len(&self, _len: usize) -> usize {
            8
        }

        fn set_quant(&mut self, _cfg: QuantConfig) {}

        fn forward_batch(&mut self, _input: ZooInput<'_>, _batch: usize) -> Vec<f32> {
            vec![1.0; 3] // never batch · 8
        }
    }

    #[test]
    fn model_panic_answers_requests_and_spares_other_models() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut server = Server::new(ServerConfig::default());
        server.register("grenade", Box::new(Grenade));
        server.register(
            "dense",
            Box::new(DenseGemm::new(&mut rng, 32, 16, QuantConfig::fp32())),
        );
        let handle = server.start().unwrap();

        let grenade = |px: Vec<f32>| Request::new("grenade", RequestInput::Pixels(px)).quant(mx6());

        // Healthy request first: the model works.
        let ok = handle.infer(grenade(vec![0.0; 4])).unwrap();
        assert_eq!(ok, vec![0.0, 0.0]);

        // Trigger the panic: the client gets an error, not a hang, and the
        // worker thread survives.
        let err = handle
            .infer(grenade(vec![13.0, 0.0, 0.0, 0.0]))
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::ModelPanicked {
                model: "grenade".into()
            }
        );

        // The panic poisoned the model: later requests fail fast with the
        // same error instead of touching half-updated state.
        let err = handle.infer(grenade(vec![0.0; 4])).unwrap_err();
        assert!(matches!(err, ServeError::ModelPanicked { .. }));

        // Fault isolation: the other model still serves on the same worker.
        let y = handle.infer(dense_req(1)).unwrap();
        assert_eq!(y.len(), 16);

        // Every request above was answered and counted.
        assert_eq!(handle.stats().completed, 4);
        assert_eq!(handle.stats().queue_depth, 0);
        handle.shutdown();
    }

    #[test]
    fn bad_output_length_is_an_error_not_a_worker_crash() {
        let mut server = Server::new(ServerConfig::default());
        server.register("short", Box::new(ShortChanger));
        let handle = server.start().unwrap();
        let req = || Request::new("short", RequestInput::Pixels(vec![0.0; 4])).quant(mx6());
        let err = handle.infer(req()).unwrap_err();
        assert_eq!(
            err,
            ServeError::BadModelOutput {
                model: "short".into(),
                expected: 8,
                got: 3,
            }
        );
        // The worker survives to answer another (still broken) request.
        let err = handle.infer(req()).unwrap_err();
        assert!(matches!(err, ServeError::BadModelOutput { .. }));
        handle.shutdown();
    }

    /// Token model whose plan was lowered for pixels, so every execute
    /// fails with `PlanError::Input`; its dynamic walk panics, so a batch
    /// that silently fell back to it would answer `ModelPanicked`.
    struct Mislowered {
        lin: Linear,
    }

    impl BatchModel for Mislowered {
        fn input_kind(&self) -> InputKind {
            InputKind::Tokens
        }

        fn input_len(&self) -> usize {
            4
        }

        fn output_len(&self, _len: usize) -> usize {
            2
        }

        fn set_quant(&mut self, _cfg: QuantConfig) {}

        fn forward_batch(&mut self, _input: ZooInput<'_>, _batch: usize) -> Vec<f32> {
            panic!("a planned key must not take the dynamic walk")
        }

        fn compile_plan(
            &self,
            cfg: QuantConfig,
            batch: usize,
            _len: usize,
        ) -> Result<CompiledPlan, PlanError> {
            let mut p = Planner::new();
            p.pixels_input(4);
            let mut s = Stage::new(4, 2);
            s.gemm(&self.lin, Loc::In, Loc::Out, 1, cfg, None)?;
            p.push_stage(s);
            p.finish(batch)
        }
    }

    #[test]
    fn plan_execute_error_is_a_typed_answer_not_a_dynamic_rerun() {
        let mut rng = StdRng::seed_from_u64(8);
        let lin = Linear::new(&mut rng, 4, 2, false, QuantConfig::fp32());
        let mut server = Server::new(ServerConfig::default());
        server.register("mislowered", Box::new(Mislowered { lin }));
        let handle = server.start().unwrap();
        for _ in 0..2 {
            let err = handle
                .infer(Request::new("mislowered", RequestInput::Tokens(vec![0; 4])))
                .unwrap_err();
            match err {
                ServeError::PlanFailed { model, reason } => {
                    assert_eq!(model, "mislowered");
                    assert!(reason.contains("input kind"), "{reason}");
                }
                other => panic!("expected PlanFailed, got {other:?}"),
            }
        }
        assert_eq!(handle.stats().plans_compiled, 1);
        handle.shutdown();
    }

    /// Config churn past the cache bound: `PLAN_CACHE_CAP + 1` distinct
    /// plannable configs cycled twice through one model. Oldest-first
    /// eviction makes every request a miss, the cache never exceeds the
    /// cap, and every answer matches the serial reference bit for bit.
    #[test]
    fn config_churn_past_the_cache_cap_stays_bounded_and_exact() {
        let build = || DenseGemm::new(&mut StdRng::seed_from_u64(9), 32, 16, QuantConfig::fp32());
        let mx = |m: u32| TensorFormat::Bdr(BdrFormat::new(m, 8, 1, 16, 2).unwrap());
        let configs: Vec<QuantConfig> = (2..=7)
            .flat_map(|w| (2..=7).map(move |a| QuantConfig::weights_activations(mx(w), mx(a))))
            .take(PLAN_CACHE_CAP + 1)
            .collect();
        assert_eq!(configs.len(), PLAN_CACHE_CAP + 1);
        let mut reference = build();
        let want: Vec<Vec<f32>> = configs
            .iter()
            .enumerate()
            .map(|(i, &cfg)| {
                reference.set_quant(cfg);
                reference.forward_batch(ZooInput::Pixels(&row(i)), 1)
            })
            .collect();
        let mut server = Server::new(ServerConfig::default().max_batch(4));
        server.register("dense", Box::new(build()));
        let handle = server.start().unwrap();
        for round in 0..2 {
            for (i, &cfg) in configs.iter().enumerate() {
                let req = Request::new("dense", RequestInput::Pixels(row(i))).quant(cfg);
                let got = handle.infer(req).unwrap();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want[i]), "round {round} config {i}");
                let cached = handle.registry[0].plans.lock().unwrap().len();
                assert!(cached <= PLAN_CACHE_CAP, "cache holds {cached} slots");
            }
        }
        let stats = handle.stats();
        assert_eq!(stats.plans_compiled, 2 * configs.len() as u64);
        assert_eq!(stats.plan_cache_hits, 0);
        handle.shutdown();
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_registration_panics() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut server = Server::new(ServerConfig::default());
        server.register(
            "m",
            Box::new(DenseGemm::new(&mut rng, 8, 4, QuantConfig::fp32())),
        );
        server.register(
            "m",
            Box::new(DenseGemm::new(&mut rng, 8, 4, QuantConfig::fp32())),
        );
    }
}

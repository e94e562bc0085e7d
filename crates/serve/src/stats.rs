//! Serving telemetry: lock-light recorders the workers update per batch,
//! and the [`ServeStats`] snapshot clients read.
//!
//! Counters are atomics; the latency reservoir, batch-size histogram, and
//! per-bucket service-time table sit behind mutexes that are touched once
//! per *batch*, not per request, so telemetry stays off the per-request hot
//! path. The same service-time observations feed the admission controller:
//! [`StatsInner::estimate_wait_us`] predicts how long a new request would
//! wait on a shard from the shard's queue depth, its per-request service
//! EWMA, and the per-`(model, bucket)` batch service EWMA. Pack counters
//! come from `mx_nn::qflow::plane_cache_counters` — process-wide tallies of
//! weight code-plane lowerings skipped (cache hit) vs performed —
//! snapshotted at server start so the reported numbers are deltas
//! attributable to this server's lifetime.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Most recent per-request latencies retained for percentile estimates.
/// Bounded so a long-lived server cannot grow without limit; at 64Ki
/// samples the p999 estimate is comfortably stable for bench-scale runs.
const LATENCY_CAP: usize = 65_536;

/// Shared mutable state behind a [`crate::ServerHandle`]'s stats.
pub(crate) struct StatsInner {
    /// Requests admitted but not yet answered (queued + in execution),
    /// across all shards.
    pub(crate) in_flight: AtomicUsize,
    /// Per-shard admitted-but-unanswered depth — the admission
    /// controller's queue-length signal.
    shard_depth: Vec<AtomicUsize>,
    /// Per-shard per-*request* service-time EWMA, microseconds (0 = cold).
    shard_service_us: Vec<AtomicU64>,
    /// Per-`(model, bucket len)` per-*batch* service-time EWMA,
    /// microseconds.
    bucket_service_us: Mutex<HashMap<(usize, usize), u64>>,
    completed: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    batches: AtomicU64,
    /// `hist[s - 1]` counts executed batches that coalesced `s` requests.
    hist: Mutex<Vec<u64>>,
    latencies: Mutex<LatencyRing>,
    /// `(hits, packs)` baseline at server start.
    packs_baseline: (u64, u64),
    /// Plans this server compiled.
    plans_compiled: AtomicU64,
    /// Batches served straight from a model's compiled-plan cache.
    plan_hits: AtomicU64,
    /// Weight planes pinned by the plans this server compiled.
    prepack_hoists: AtomicU64,
    /// Full-capacity arena bytes of the plans this server compiled.
    plan_arena_bytes: AtomicU64,
}

struct LatencyRing {
    samples: Vec<u64>,
    next: usize,
}

impl StatsInner {
    pub(crate) fn new(max_batch: usize, shards: usize) -> Self {
        StatsInner {
            in_flight: AtomicUsize::new(0),
            shard_depth: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            shard_service_us: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            bucket_service_us: Mutex::new(HashMap::new()),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            hist: Mutex::new(vec![0; max_batch]),
            latencies: Mutex::new(LatencyRing {
                samples: Vec::new(),
                next: 0,
            }),
            packs_baseline: mx_nn::qflow::plane_cache_counters(),
            plans_compiled: AtomicU64::new(0),
            plan_hits: AtomicU64::new(0),
            prepack_hoists: AtomicU64::new(0),
            plan_arena_bytes: AtomicU64::new(0),
        }
    }

    /// Counts one plan this server compiled, with the weight planes it
    /// pins and its arena bytes at full capacity.
    pub(crate) fn record_plan_compiled(&self, planes: usize, arena_bytes: usize) {
        self.plans_compiled.fetch_add(1, Ordering::Relaxed);
        self.prepack_hoists
            .fetch_add(planes as u64, Ordering::Relaxed);
        self.plan_arena_bytes
            .fetch_add(arena_bytes as u64, Ordering::Relaxed);
    }

    /// Counts one batch served from the compiled-plan cache (no planning,
    /// gating, or allocation beyond the worker's arena).
    pub(crate) fn record_plan_hit(&self) {
        self.plan_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks `n` requests admitted onto `shard` (submit side).
    pub(crate) fn admitted(&self, shard: usize, n: usize) {
        self.in_flight.fetch_add(n, Ordering::Relaxed);
        if let Some(d) = self.shard_depth.get(shard) {
            d.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Removes `n` requests from `shard`'s depth (answered, shed after
    /// enqueue, or expired).
    pub(crate) fn retired(&self, shard: usize, n: usize) {
        self.in_flight.fetch_sub(n, Ordering::Relaxed);
        if let Some(d) = self.shard_depth.get(shard) {
            d.fetch_sub(n, Ordering::Relaxed);
        }
    }

    /// Counts one request shed by admission control (always answered with a
    /// typed rejection, never silently dropped).
    pub(crate) fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` requests whose deadline expired before execution.
    pub(crate) fn record_expired(&self, n: usize) {
        self.expired.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Records one executed batch: its coalesced size, every member
    /// request's end-to-end latency, and the observed service time feeding
    /// the shard / bucket admission EWMAs.
    pub(crate) fn record_batch(
        &self,
        shard: usize,
        model: usize,
        len: usize,
        size: usize,
        latencies: &[Duration],
        service: Duration,
    ) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.completed.fetch_add(size as u64, Ordering::Relaxed);
        let service_us = (service.as_micros().min(u128::from(u64::MAX)) as u64).max(1);
        if let Some(ewma) = self.shard_service_us.get(shard) {
            // Racy read-modify-write is fine: this is a smoothing estimate,
            // and a lost update costs one observation of smoothing.
            let per_request = (service_us / size.max(1) as u64).max(1);
            ewma.store(
                ewma_step(ewma.load(Ordering::Relaxed), per_request),
                Ordering::Relaxed,
            );
        }
        // Telemetry is plain counters — a recorder that panicked mid-update
        // leaves nothing inconsistent worth propagating, so a poisoned lock
        // is simply reclaimed rather than cascading into the workers.
        let mut buckets = self
            .bucket_service_us
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let slot = buckets.entry((model, len)).or_insert(0);
        *slot = ewma_step(*slot, service_us);
        drop(buckets);
        let mut hist = self.hist.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(slot) = size.checked_sub(1).and_then(|i| hist.get_mut(i)) {
            *slot += 1;
        }
        drop(hist);
        let mut ring = self.latencies.lock().unwrap_or_else(|p| p.into_inner());
        for lat in latencies {
            let us = lat.as_micros().min(u128::from(u64::MAX)) as u64;
            if ring.samples.len() < LATENCY_CAP {
                ring.samples.push(us);
            } else {
                let slot = ring.next;
                if let Some(s) = ring.samples.get_mut(slot) {
                    *s = us;
                }
            }
            ring.next = (ring.next + 1) % LATENCY_CAP;
        }
    }

    /// Predicted wait (µs) for a new `(model, len)` request on `shard`:
    /// the queued work ahead of it (depth × per-request shard EWMA) plus
    /// its own bucket's batch service EWMA. Cold EWMAs contribute zero, so
    /// an unobserved server admits everything.
    pub(crate) fn estimate_wait_us(&self, shard: usize, model: usize, len: usize) -> u64 {
        let depth = self
            .shard_depth
            .get(shard)
            .map_or(0, |d| d.load(Ordering::Relaxed)) as u64;
        let per_request = self
            .shard_service_us
            .get(shard)
            .map_or(0, |e| e.load(Ordering::Relaxed));
        let bucket = self
            .bucket_service_us
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&(model, len))
            .copied()
            .unwrap_or(0);
        depth.saturating_mul(per_request).saturating_add(bucket)
    }

    pub(crate) fn snapshot(&self) -> ServeStats {
        let hist = self.hist.lock().unwrap_or_else(|p| p.into_inner()).clone();
        let mut sorted = self
            .latencies
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .samples
            .clone();
        sorted.sort_unstable();
        let (hits, packs) = mx_nn::qflow::plane_cache_counters();
        ServeStats {
            queue_depth: self.in_flight.load(Ordering::Relaxed),
            shard_depths: self
                .shard_depth
                .iter()
                .map(|d| d.load(Ordering::Relaxed))
                .collect(),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batch_histogram: hist,
            p50_latency_us: percentile_permille(&sorted, 500),
            p99_latency_us: percentile_permille(&sorted, 990),
            p999_latency_us: percentile_permille(&sorted, 999),
            packs_avoided: hits.saturating_sub(self.packs_baseline.0),
            packs_performed: packs.saturating_sub(self.packs_baseline.1),
            plans_compiled: self.plans_compiled.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_hits.load(Ordering::Relaxed),
            prepack_hoists: self.prepack_hoists.load(Ordering::Relaxed),
            plan_arena_bytes: self.plan_arena_bytes.load(Ordering::Relaxed),
        }
    }
}

/// One smoothing step of the service-time EWMA: `(3·old + obs) / 4`,
/// seeded directly with the first observation.
fn ewma_step(old: u64, obs: u64) -> u64 {
    if old == 0 {
        obs
    } else {
        (3 * old + obs) / 4
    }
}

/// `pm`-permille point of an ascending-sorted sample set (classic
/// nearest-rank: the `⌈pm/1000 · len⌉`-th smallest sample; 0 when empty).
fn percentile_permille(sorted: &[u64], pm: usize) -> u64 {
    let idx = (pm * sorted.len()).div_ceil(1000).max(1) - 1;
    sorted.get(idx).copied().unwrap_or(0)
}

/// A point-in-time view of a server's behavior.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted but not yet answered, across all shards.
    pub queue_depth: usize,
    /// Per-shard admitted-but-unanswered depth, indexed by shard.
    pub shard_depths: Vec<usize>,
    /// Requests answered successfully-or-erroneously after execution
    /// (excludes shed and expired requests) since the server started.
    pub completed: u64,
    /// Requests rejected by admission control ([`crate::ServeError::Overloaded`]).
    pub shed: u64,
    /// Requests whose deadline expired before execution
    /// ([`crate::ServeError::DeadlineExceeded`]).
    pub expired: u64,
    /// Batches executed (each is one plan execute, or one `forward_batch`
    /// call for a key the model cannot plan).
    pub batches: u64,
    /// `batch_histogram[s - 1]` = number of executed batches that coalesced
    /// `s` requests; length is the server's `max_batch`.
    pub batch_histogram: Vec<u64>,
    /// Median end-to-end request latency (submit → response), microseconds.
    pub p50_latency_us: u64,
    /// 99th-percentile end-to-end request latency, microseconds.
    pub p99_latency_us: u64,
    /// 99.9th-percentile end-to-end request latency, microseconds.
    pub p999_latency_us: u64,
    /// Weight code-plane packs *skipped* because a cached plane was shared
    /// (across requests, batches, and formats) since the server started.
    pub packs_avoided: u64,
    /// Weight code-plane packs actually performed since the server started
    /// (ideally: one per model × weight-format pair).
    pub packs_performed: u64,
    /// Execution plans this server compiled: one per model × config ×
    /// bucket key it served, plus one per recompile of a key the bounded
    /// plan cache evicted.
    pub plans_compiled: u64,
    /// Batches served straight from a model's compiled-plan cache — the
    /// steady-state path that does zero planning, gating, or allocation
    /// beyond the per-worker arena.
    pub plan_cache_hits: u64,
    /// Weight code planes pinned by the plans this server compiled: one
    /// per code-domain GEMM or conv node of each plan, each a weight-side
    /// lowering no batch repeats.
    pub prepack_hoists: u64,
    /// Sum over the plans this server compiled of each plan's arena at
    /// full capacity, in bytes (a layout total, not live memory).
    pub plan_arena_bytes: u64,
}

impl ServeStats {
    /// Mean coalesced batch size over all executed batches (0 when none).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.batches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile_permille(&[], 500), 0);
        assert_eq!(percentile_permille(&[7], 990), 7);
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_permille(&v, 500), 500);
        assert_eq!(percentile_permille(&v, 990), 990);
        assert_eq!(percentile_permille(&v, 999), 999);
    }

    #[test]
    fn record_and_snapshot_roundtrip() {
        let s = StatsInner::new(4, 2);
        s.admitted(1, 3);
        s.record_batch(
            1,
            0,
            16,
            2,
            &[Duration::from_micros(10), Duration::from_micros(30)],
            Duration::from_micros(40),
        );
        s.record_batch(
            1,
            0,
            16,
            1,
            &[Duration::from_micros(20)],
            Duration::from_micros(20),
        );
        s.retired(1, 3);
        s.admitted(0, 1);
        s.record_shed();
        s.record_expired(2);
        s.record_plan_hit();
        s.record_plan_compiled(3, 4096);
        let snap = s.snapshot();
        assert_eq!(snap.queue_depth, 1);
        assert_eq!(snap.shard_depths, vec![1, 0]);
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.expired, 2);
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.batch_histogram, vec![1, 1, 0, 0]);
        assert_eq!(snap.p50_latency_us, 20);
        assert_eq!(snap.p99_latency_us, 30);
        assert_eq!(snap.p999_latency_us, 30);
        assert!((snap.mean_batch_size() - 1.5).abs() < 1e-12);
        assert_eq!(snap.plan_cache_hits, 1);
        assert_eq!(snap.plans_compiled, 1);
        assert_eq!((snap.prepack_hoists, snap.plan_arena_bytes), (3, 4096));
    }

    #[test]
    fn service_ewma_feeds_the_wait_estimate() {
        let s = StatsInner::new(4, 1);
        // Cold server: everything estimates to zero wait.
        assert_eq!(s.estimate_wait_us(0, 0, 8), 0);
        // One observed batch of 2 requests at 200µs: per-request EWMA 100µs,
        // bucket EWMA 200µs.
        s.record_batch(0, 0, 8, 2, &[], Duration::from_micros(200));
        assert_eq!(s.estimate_wait_us(0, 0, 8), 200); // depth 0 → bucket only
        s.admitted(0, 3);
        assert_eq!(s.estimate_wait_us(0, 0, 8), 3 * 100 + 200);
        // A different bucket is still cold: only the depth term applies.
        assert_eq!(s.estimate_wait_us(0, 0, 4), 3 * 100);
        // Smoothing: a second observation moves the EWMA a quarter of the way.
        s.record_batch(0, 0, 8, 2, &[], Duration::from_micros(600));
        assert_eq!(s.estimate_wait_us(0, 0, 8), 3 * 150 + 300);
    }
}

//! Server tuning: a validating [`ServerConfig`] builder with admission
//! knobs grouped in [`AdmissionConfig`], checked at [`crate::Server::start`]
//! into a typed [`ConfigError`] instead of misbehaving at runtime.

use std::fmt;
use std::time::Duration;

/// Why a [`ServerConfig`] was rejected at [`crate::Server::start`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `workers` is zero — every shard needs at least one executor.
    ZeroWorkers,
    /// `shards` is zero — the registry needs at least one shard.
    ZeroShards,
    /// `max_batch` is zero — a batch must hold at least one request.
    ZeroMaxBatch,
    /// A sequence-length bucket edge is zero (a request always carries at
    /// least one element).
    ZeroBucket {
        /// Position of the offending edge in the configured list.
        index: usize,
    },
    /// Bucket edges are not strictly increasing (sorted and deduplicated).
    UnsortedBuckets {
        /// Position of the first edge that is ≤ its predecessor.
        index: usize,
    },
    /// The admission queue capacity is zero — a queue that can hold
    /// nothing rejects everything.
    ZeroQueueCapacity,
    /// The latency SLO is the zero duration — no request could ever meet
    /// it, so every submission would shed.
    ZeroSlo,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroWorkers => write!(f, "workers must be at least 1"),
            ConfigError::ZeroShards => write!(f, "shards must be at least 1"),
            ConfigError::ZeroMaxBatch => write!(f, "max_batch must be at least 1"),
            ConfigError::ZeroBucket { index } => {
                write!(f, "bucket edge at index {index} is zero")
            }
            ConfigError::UnsortedBuckets { index } => write!(
                f,
                "bucket edges must be strictly increasing: edge at index {index} \
                 is not greater than its predecessor"
            ),
            ConfigError::ZeroQueueCapacity => {
                write!(f, "admission queue capacity must be at least 1")
            }
            ConfigError::ZeroSlo => write!(f, "latency SLO must be a positive duration"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Admission-control knobs: what stands between a submitted request and the
/// shard queue. The default admits everything (unbounded queue, no
/// shedding, no SLO) — the seed server's behavior.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AdmissionConfig {
    pub(crate) queue_capacity: Option<usize>,
    pub(crate) shed_on_full: bool,
    pub(crate) slo: Option<Duration>,
}

impl AdmissionConfig {
    /// An admit-everything policy (the default).
    pub fn new() -> Self {
        AdmissionConfig::default()
    }

    /// Bounds each shard's job queue at `cap` requests. Submitting past the
    /// bound blocks the client (backpressure) unless
    /// [`AdmissionConfig::shed_on_full`] turns the block into a typed
    /// [`crate::ServeError::Overloaded`] rejection.
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = Some(cap);
        self
    }

    /// When the shard queue is full, reject with
    /// [`crate::ServeError::Overloaded`] instead of blocking the submitter.
    /// Shedding is always *typed* — a shed request is never silently
    /// dropped.
    pub fn shed_on_full(mut self, shed: bool) -> Self {
        self.shed_on_full = shed;
        self
    }

    /// Latency SLO for admission: a request is rejected with
    /// [`crate::ServeError::Overloaded`] when the shard's observed service
    /// times predict it cannot be answered within `slo`
    /// (priority-adjusted; see [`crate::Priority`]). Until the shard has
    /// observed any service time the estimate is zero, so a cold server
    /// admits everything.
    pub fn slo(mut self, slo: Duration) -> Self {
        self.slo = Some(slo);
        self
    }
}

/// Server tuning knobs, built fluently and validated as a whole at
/// [`crate::Server::start`] — an invalid combination is a typed
/// [`ConfigError`] before any thread spawns, never a runtime surprise.
///
/// ```
/// use mx_serve::{AdmissionConfig, ServerConfig};
/// use std::time::Duration;
///
/// let cfg = ServerConfig::default()
///     .shards(2)
///     .workers(2)
///     .max_batch(8)
///     .buckets([4, 8, 16])
///     .admission(
///         AdmissionConfig::new()
///             .queue_capacity(64)
///             .shed_on_full(true)
///             .slo(Duration::from_millis(50)),
///     );
/// # let _ = cfg;
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    pub(crate) workers: usize,
    pub(crate) shards: usize,
    pub(crate) max_batch: usize,
    pub(crate) buckets: Vec<usize>,
    pub(crate) admission: AdmissionConfig,
}

impl Default for ServerConfig {
    /// One shard, one worker, batches of up to 8, no length buckets (every model serves at its native length), admit-everything
    /// admission.
    fn default() -> Self {
        ServerConfig {
            workers: 1,
            shards: 1,
            max_batch: 8,
            buckets: Vec::new(),
            admission: AdmissionConfig::default(),
        }
    }
}

impl ServerConfig {
    /// Worker threads **per shard**. Each worker takes jobs straight off
    /// the shard queue, coalesces up to `max_batch` of them, and executes
    /// the batches itself. Batches with a cached plan execute concurrently,
    /// also on one model; a model's plan compiles and its unplannable keys
    /// serialize on the model's mutex. When one drain holds
    /// several models' jobs, its groups run in turn on the worker that
    /// drained them, while idle siblings take later jobs from the queue.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Registry shards. Each model lives on exactly one shard (registration
    /// order, round-robin), with its own queue and worker pool — so a
    /// model's prepacked weight planes stay hot on the workers that serve
    /// it, and one model's overload cannot starve another shard's queue.
    /// A server runs `shards × workers` threads.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Most requests coalesced into one batch, and the capacity every
    /// compiled plan is built for.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sequence-length bucket edges (strictly increasing) for
    /// variable-length models. A request of length `L` is padded up to the
    /// smallest edge ≥ `L` (capped at the model's native length, which is
    /// always an implicit final edge), so same-bucket requests coalesce
    /// into one fixed-shape batch GEMM. Fixed-length models ignore the
    /// edges — their single native length is the degenerate bucket.
    pub fn buckets(mut self, edges: impl IntoIterator<Item = usize>) -> Self {
        self.buckets = edges.into_iter().collect();
        self
    }

    /// Admission-control policy (queue bound, shedding, latency SLO).
    pub fn admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }

    /// Whole-config validation, run by [`crate::Server::start`].
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if self.max_batch == 0 {
            return Err(ConfigError::ZeroMaxBatch);
        }
        for (index, window) in self.buckets.windows(2).enumerate() {
            if window
                .first()
                .zip(window.get(1))
                .is_some_and(|(a, b)| b <= a)
            {
                return Err(ConfigError::UnsortedBuckets { index: index + 1 });
            }
        }
        if let Some(index) = self.buckets.iter().position(|&b| b == 0) {
            return Err(ConfigError::ZeroBucket { index });
        }
        if self.admission.queue_capacity == Some(0) {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.admission.slo == Some(Duration::ZERO) {
            return Err(ConfigError::ZeroSlo);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert_eq!(ServerConfig::default().validate(), Ok(()));
    }

    #[test]
    fn each_invalid_knob_maps_to_its_error() {
        let base = ServerConfig::default;
        assert_eq!(base().workers(0).validate(), Err(ConfigError::ZeroWorkers));
        assert_eq!(base().shards(0).validate(), Err(ConfigError::ZeroShards));
        assert_eq!(
            base().max_batch(0).validate(),
            Err(ConfigError::ZeroMaxBatch)
        );
        assert_eq!(
            base().buckets([0, 4]).validate(),
            Err(ConfigError::ZeroBucket { index: 0 })
        );
        assert_eq!(
            base().buckets([4, 4]).validate(),
            Err(ConfigError::UnsortedBuckets { index: 1 })
        );
        assert_eq!(
            base().buckets([4, 8, 2]).validate(),
            Err(ConfigError::UnsortedBuckets { index: 2 })
        );
        assert_eq!(
            base()
                .admission(AdmissionConfig::new().queue_capacity(0))
                .validate(),
            Err(ConfigError::ZeroQueueCapacity)
        );
        assert_eq!(
            base()
                .admission(AdmissionConfig::new().slo(Duration::ZERO))
                .validate(),
            Err(ConfigError::ZeroSlo)
        );
    }

    #[test]
    fn errors_render_without_debug() {
        let msgs: Vec<String> = [
            ConfigError::ZeroWorkers,
            ConfigError::UnsortedBuckets { index: 3 },
            ConfigError::ZeroSlo,
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        assert!(msgs.iter().all(|m| !m.is_empty()));
        assert!(msgs[1].contains("index 3"));
    }
}

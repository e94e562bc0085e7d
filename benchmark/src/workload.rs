//! The five named workloads and what each one runs.

use crate::gen::ModelKind;
use crate::metrics::Metrics;

/// Server `max_batch` on every serve workload.
pub const MAX_BATCH: usize = 32;
/// A reply later than this after its request was due does not count into
/// `goodput_rps` or `ok_share`.
pub const LATENCY_LIMIT_US: f64 = 20_000.0;

/// What one round of one workload measured.
#[derive(Debug, Default)]
pub struct RoundOut {
    /// Every end-to-end metric, computed inside this round.
    pub e2e: Metrics,
    /// The per-layer metrics a round can see (`serve.*`, `client.*`,
    /// `proc.*`, and `trace.*` when the round was traced).
    pub layer: Metrics,
    /// Operations offered to the system.
    pub attempted: u64,
    /// Operations that went wrong: errors and bit mismatches. A request the
    /// server shed on purpose is not one of these; it lowers `ok_share`.
    pub failed: u64,
    /// One line per checked reply that differed from the reference.
    pub mismatches: Vec<String>,
    /// Conditions that make the round's numbers suspect
    /// (`generator_limited`).
    pub flags: Vec<&'static str>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    DenseSync,
    DenseBurst,
    DenseShed,
    GptMixed,
    SweepQsnr,
}

/// The arrival schedule of an open-loop workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoop {
    /// Long-run arrivals per second.
    pub rate: f64,
    /// Arrivals due at the same instant.
    pub burst: usize,
    /// Bound of the shard queue; a full queue sheds.
    pub queue_capacity: usize,
}

/// How a serve workload configures the server and drives it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSpec {
    pub kind: ModelKind,
    pub shards: usize,
    pub workers: usize,
    /// Closed loop: requests the one caller keeps outstanding (it submits
    /// this many, then waits for all of them).
    pub outstanding: usize,
    /// Open loop instead of closed when set.
    pub open: Option<OpenLoop>,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::DenseSync,
        Workload::DenseBurst,
        Workload::DenseShed,
        Workload::GptMixed,
        Workload::SweepQsnr,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseSync => "dense_sync",
            Workload::DenseBurst => "dense_burst",
            Workload::DenseShed => "dense_shed",
            Workload::GptMixed => "gpt_mixed",
            Workload::SweepQsnr => "sweep_qsnr",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The serve configuration, `None` for the offline sweep.
    pub fn serve_spec(self) -> Option<ServeSpec> {
        let dense = |workers, outstanding, open| ServeSpec {
            kind: ModelKind::Dense,
            shards: 1,
            workers,
            outstanding,
            open,
        };
        match self {
            Workload::DenseSync => Some(dense(1, 1, None)),
            Workload::DenseBurst => Some(dense(2, 64, None)),
            // 48 000 req/s is about twice what the bounded server answers on
            // the box the benchmark was sized on (≈24 000 req/s): half of
            // the offered load is shed. At 24 000 (the first guess) only 4–7 %
            // was, and 32 000–40 000 flipped between 16 % and 51 % from round
            // to round. Frozen: a later PR compares against this rate.
            Workload::DenseShed => Some(dense(
                1,
                1,
                Some(OpenLoop {
                    rate: 48_000.0,
                    burst: 16,
                    queue_capacity: 64,
                }),
            )),
            Workload::GptMixed => Some(ServeSpec {
                kind: ModelKind::Gpt,
                shards: 2,
                workers: 1,
                outstanding: 1,
                open: None,
            }),
            Workload::SweepQsnr => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("dense"), None);
        assert!(Workload::SweepQsnr.serve_spec().is_none());
        assert!(Workload::DenseShed.serve_spec().unwrap().open.is_some());
    }
}

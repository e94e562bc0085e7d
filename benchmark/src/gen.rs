//! Seeded input generation. `--seed` decides model weights, payloads,
//! lengths, tenant choice and where the format cycle starts; the program
//! under test sees only what is generated here.

use mx_models::data::LM_VOCAB;
use mx_nn::qflow::QuantConfig;
use mx_nn::TensorFormat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Formats a request can ask for, weights *and* activations. GPT requests
/// cycle through all three; dense requests always use [`MX6`].
pub const FORMATS: [TensorFormat; 3] = [TensorFormat::MX9, TensorFormat::MX6, TensorFormat::MX4];
/// Index of MX6 in [`FORMATS`].
pub const MX6: u8 = 1;

/// The `QuantConfig` for format index `fmt`.
pub fn quant(fmt: u8) -> QuantConfig {
    let f = FORMATS[usize::from(fmt)];
    QuantConfig::weights_activations(f, f)
}

/// Dense model dimensions: one GPT-ish FFN shard.
pub const DENSE_IN: usize = 512;
pub const DENSE_OUT: usize = 2048;
/// Distinct dense payload rows a run draws from.
pub const POOL_ROWS: usize = 64;
/// GPT tenants sharing the `gpt_mixed` server.
pub const GPT_TENANTS: usize = 4;
/// Zipf skew of tenant popularity.
pub const ZIPF_S: f64 = 1.1;
/// Sequence-length bucket edges of the `gpt_mixed` server; the last is
/// `GptConfig::tiny().seq_len`.
pub const BUCKETS: [usize; 3] = [4, 8, 16];

/// What the served models are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// One `DenseGemm` 512→2048, fixed-length pixel rows.
    Dense,
    /// [`GPT_TENANTS`] `Gpt::tiny` tenants, variable-length token requests.
    Gpt,
}

/// One generated request, small enough to keep for every request: the
/// payload is rebuilt from it for the reference and the replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqDesc {
    /// Position in the round's stream.
    pub idx: u32,
    /// Tenant (always 0 for dense).
    pub tenant: u8,
    /// Index into [`FORMATS`].
    pub fmt: u8,
    /// Elements the caller sends: tokens, or [`DENSE_IN`].
    pub len: u16,
    /// Pool row (dense) or token salt (GPT).
    pub payload: u16,
}

impl ReqDesc {
    /// The length the server pads this request to.
    pub fn bucket(&self, kind: ModelKind) -> usize {
        match kind {
            ModelKind::Dense => DENSE_IN,
            ModelKind::Gpt => bucket_for(usize::from(self.len), &BUCKETS),
        }
    }
}

/// Cumulative Zipf popularity over `n` ranks: rank `r` (0-based) has weight
/// `1 / (r + 1)^s`. The last entry is exactly 1.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    if let Some(last) = cdf.last_mut() {
        *last = 1.0;
    }
    cdf
}

/// The rank a uniform draw `u` in `[0, 1)` selects.
pub fn zipf_pick(cdf: &[f64], u: f64) -> usize {
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

/// Smallest bucket edge that holds `len`; the last edge is the model's
/// native length, so it always fits.
pub fn bucket_for(len: usize, edges: &[usize]) -> usize {
    edges
        .iter()
        .copied()
        .find(|&e| e >= len)
        .unwrap_or_else(|| edges.last().copied().unwrap_or(len))
}

/// Share of the padded elements that are padding: `1 − Σ len ÷ Σ bucket`.
pub fn pad_waste_share(lens: impl IntoIterator<Item = usize>, edges: &[usize]) -> f64 {
    let (mut sent, mut padded) = (0usize, 0usize);
    for len in lens {
        sent += len;
        padded += bucket_for(len, edges);
    }
    if padded == 0 {
        0.0
    } else {
        1.0 - sent as f64 / padded as f64
    }
}

/// When request `i` of an open-loop schedule is due, in seconds from the
/// start of the window: arrivals come `burst` at a time, bursts spaced so
/// the long-run rate is `rate` per second.
pub fn due_s(i: usize, burst: usize, rate: f64) -> f64 {
    (i / burst) as f64 * burst as f64 / rate
}

/// The token payload of a GPT request: a fixed function of `(salt, len)`.
pub fn tokens(salt: u16, len: usize) -> Vec<usize> {
    (0..len)
        .map(|j| (j * 7 + usize::from(salt) * 13) % LM_VOCAB)
        .collect()
}

/// The dense payload rows of a run.
pub fn payload_pool(seed: u64) -> Vec<Vec<f32>> {
    activations(seed ^ 0x9e37_79b9_7f4a_7c15, POOL_ROWS, DENSE_IN)
        .chunks(DENSE_IN)
        .map(<[f32]>::to_vec)
        .collect()
}

fn uniform(seed: u64, rows: usize, cols: usize, bound: f32) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed ^ ((rows as u64) << 32) ^ cols as u64);
    (0..rows * cols)
        .map(|_| rng.gen_range(-bound..bound))
        .collect()
}

/// Pseudo-random `rows × cols` activations in `(-1, 1)`, the distribution of
/// the dense payloads: kernel time depends on the data (how many blocks take
/// the deferred scale-out), so probes and replays feed what requests feed.
pub fn activations(seed: u64, rows: usize, cols: usize) -> Vec<f32> {
    uniform(seed, rows, cols, 1.0)
}

/// Pseudo-random `rows × cols` weights, Xavier-uniform like the zoo's own
/// initializer.
pub fn weights(seed: u64, rows: usize, cols: usize) -> Vec<f32> {
    uniform(seed, rows, cols, (6.0 / (rows + cols) as f32).sqrt())
}

/// The endless request stream of one round.
pub struct Stream {
    rng: StdRng,
    kind: ModelKind,
    cdf: Vec<f64>,
    fmt_offset: u32,
    next: u32,
}

impl Stream {
    /// Round `round` of the run seeded `seed`: rounds of one run draw
    /// different requests, two runs with one seed draw the same.
    pub fn new(seed: u64, round: usize, kind: ModelKind) -> Self {
        let mut rng = StdRng::seed_from_u64(
            seed.wrapping_mul(0x2545_f491_4f6c_dd1d)
                ^ (round as u64)
                    .wrapping_add(1)
                    .wrapping_mul(0xd6e8_feb8_6659_fd93),
        );
        let fmt_offset = rng.gen_range(0..FORMATS.len() as u32);
        Stream {
            rng,
            kind,
            cdf: zipf_cdf(GPT_TENANTS, ZIPF_S),
            fmt_offset,
            next: 0,
        }
    }

    /// The next request.
    pub fn next_desc(&mut self) -> ReqDesc {
        let idx = self.next;
        self.next = self.next.wrapping_add(1);
        match self.kind {
            ModelKind::Dense => ReqDesc {
                idx,
                tenant: 0,
                fmt: MX6,
                len: DENSE_IN as u16,
                payload: self.rng.gen_range(0..POOL_ROWS as u16),
            },
            ModelKind::Gpt => {
                let u: f64 = self.rng.gen_range(0.0..1.0);
                ReqDesc {
                    idx,
                    tenant: zipf_pick(&self.cdf, u) as u8,
                    fmt: ((idx.wrapping_add(self.fmt_offset)) % FORMATS.len() as u32) as u8,
                    len: self.rng.gen_range(1..=BUCKETS[BUCKETS.len() - 1] as u16),
                    payload: self.rng.gen_range(0..1000u16),
                }
            }
        }
    }
}

/// Hash of the first `n` requests of a stream: equal hashes mean equal
/// inputs.
pub fn stream_hash(seed: u64, round: usize, kind: ModelKind, n: usize) -> u64 {
    let mut stream = Stream::new(seed, round, kind);
    crate::stats::fnv1a((0..n).flat_map(|_| {
        let d = stream.next_desc();
        [
            u64::from(d.idx),
            u64::from(d.tenant),
            u64::from(d.fmt),
            u64::from(d.len),
            u64::from(d.payload),
        ]
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_cdf_is_a_skewed_distribution() {
        let cdf = zipf_cdf(4, 1.1);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf[3], 1.0);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
        // Rank 0 has weight 1 / (1 + 2^-1.1 + 3^-1.1 + 4^-1.1).
        let total = 1.0 + 2f64.powf(-1.1) + 3f64.powf(-1.1) + 4f64.powf(-1.1);
        assert!((cdf[0] - 1.0 / total).abs() < 1e-12);
        // s = 0 is uniform.
        let flat = zipf_cdf(4, 0.0);
        assert!((flat[0] - 0.25).abs() < 1e-12 && (flat[1] - 0.5).abs() < 1e-12);
        assert_eq!(zipf_pick(&cdf, 0.0), 0);
        assert_eq!(zipf_pick(&cdf, cdf[0]), 1);
        assert_eq!(zipf_pick(&cdf, 0.999_999), 3);
        assert_eq!(zipf_pick(&cdf, 1.0), 3);
    }

    #[test]
    fn burst_schedule_due_times() {
        // 48 000 req/s in bursts of 16: one burst every 1/3000 s.
        assert_eq!(due_s(0, 16, 48_000.0), 0.0);
        assert_eq!(due_s(15, 16, 48_000.0), 0.0);
        assert!((due_s(16, 16, 48_000.0) - 1.0 / 3000.0).abs() < 1e-15);
        assert!((due_s(47_999, 16, 48_000.0) - 2999.0 / 3000.0).abs() < 1e-12);
        // Smooth arrivals are the burst-of-one case.
        assert!((due_s(5, 1, 1000.0) - 0.005).abs() < 1e-15);
    }

    #[test]
    fn bucket_and_pad_waste_arithmetic() {
        assert_eq!(bucket_for(1, &BUCKETS), 4);
        assert_eq!(bucket_for(4, &BUCKETS), 4);
        assert_eq!(bucket_for(5, &BUCKETS), 8);
        assert_eq!(bucket_for(9, &BUCKETS), 16);
        assert_eq!(bucket_for(16, &BUCKETS), 16);
        // 1 + 5 + 16 sent, 4 + 8 + 16 padded.
        assert!((pad_waste_share([1, 5, 16], &BUCKETS) - (1.0 - 22.0 / 28.0)).abs() < 1e-12);
        assert_eq!(pad_waste_share([4, 8, 16], &BUCKETS), 0.0);
        assert_eq!(pad_waste_share([], &BUCKETS), 0.0);
        // Uniform 1..=16: 136 sent, 4·4 + 4·8 + 8·16 = 176 padded.
        assert!((pad_waste_share(1..=16, &BUCKETS) - (1.0 - 136.0 / 176.0)).abs() < 1e-12);
    }

    #[test]
    fn same_seed_same_stream() {
        for kind in [ModelKind::Dense, ModelKind::Gpt] {
            assert_eq!(stream_hash(7, 2, kind, 4096), stream_hash(7, 2, kind, 4096));
            assert_ne!(stream_hash(7, 2, kind, 4096), stream_hash(8, 2, kind, 4096));
            assert_ne!(stream_hash(7, 2, kind, 4096), stream_hash(7, 3, kind, 4096));
        }
        assert_eq!(payload_pool(3), payload_pool(3));
        assert_ne!(payload_pool(3), payload_pool(4));
    }

    #[test]
    fn gpt_stream_covers_tenants_lengths_and_formats() {
        let mut s = Stream::new(1, 0, ModelKind::Gpt);
        let descs: Vec<ReqDesc> = (0..3000).map(|_| s.next_desc()).collect();
        for t in 0..GPT_TENANTS as u8 {
            assert!(descs.iter().any(|d| d.tenant == t));
        }
        // Zipf: tenant 0 is the most popular.
        let count = |t: u8| descs.iter().filter(|d| d.tenant == t).count();
        assert!(count(0) > count(1) && count(1) > count(3));
        assert!(descs.iter().all(|d| (1..=16).contains(&d.len)));
        // Formats cycle request by request.
        assert!(descs.windows(2).all(|w| (w[0].fmt + 1) % 3 == w[1].fmt));
        assert!(tokens(999, 16).iter().all(|&t| t < LM_VOCAB));
    }
}

//! Order statistics the benchmark reports: nearest-rank percentiles inside
//! a round, the median over rounds, and the quartile spread the acceptance
//! check uses.

/// Nearest-rank percentile (`⌈q·n⌉`-th smallest, `q` in `0..=1`) of an
/// unsorted sample set; 0 when empty. The same rule `ServeStats` uses, so
/// `serve.internal_p50_us` and the client-side quantiles are comparable.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// [`percentile`] over an ascending-sorted slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median over rounds: the middle value, or the mean of the two middle
/// values for an even count; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method (Python's
/// `statistics.quantiles(values, n=4)`), `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        // Position i·(n+1)/4 in 1-based ranks, interpolated and clamped.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Distance between the quartiles as a share of the median — the spread the
/// acceptance check compares with a metric's bound. 0 below two values or
/// for a zero median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1).abs() / m.abs(),
        _ => 0.0,
    }
}

/// Largest distance of a value from the median, as a share of the median:
/// `client.round_spread` for the rounds of one run.
pub fn max_deviation(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    values
        .iter()
        .map(|v| (v - m).abs() / m.abs())
        .fold(0.0, f64::max)
}

/// FNV-1a over 64-bit words: the input-stream hash, the reply digest and the
/// QSNR checksum all fold their values through this.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_depends_on_every_word_and_their_order() {
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a([1, 2]), fnv1a([2, 1]));
        assert_ne!(fnv1a([1, 2]), fnv1a([1, 3]));
        assert_eq!(fnv1a([7, 8, 9]), fnv1a(vec![7, 8, 9]));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.9), 900.0);
        assert_eq!(percentile(&v, 0.999), 999.0);
        assert_eq!(percentile(&v, 1.0), 1000.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Nearest rank never interpolates: the answer is always a sample.
        assert_eq!(percentile(&[1.0, 10.0], 0.5), 1.0);
        assert_eq!(percentile(&[1.0, 10.0], 0.51), 10.0);
    }

    #[test]
    fn median_over_rounds() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One stalled round out of five does not move it.
        assert_eq!(median(&[300.0, 310.0, 9000.0, 305.0, 295.0]), 305.0);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn max_deviation_is_relative_to_the_median() {
        assert!((max_deviation(&[100.0, 110.0, 90.0]) - 0.1).abs() < 1e-12);
        assert_eq!(max_deviation(&[]), 0.0);
    }
}

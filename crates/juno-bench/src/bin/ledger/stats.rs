//! Order statistics for the ledger: nearest-rank percentiles, the
//! "highest percentile the sample supports" picker, medians and spreads.

/// Percentiles the ledger is willing to name, lowest first, each with the
/// share of samples beyond it in thousandths (integers: `1 − 0.9` is not
/// exactly a tenth in floating point).
const LADDER: [(f64, u64); 5] = [(50.0, 500), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: u64 = 10;

/// Nearest-rank percentile (`p` in 0..=100) of an ascending-sorted slice.
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of the ladder with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median lacks them.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .find(|(_, beyond)| samples as u64 * beyond >= MIN_BEYOND * 1000)
        .map(|&(p, _)| p)
}

/// Whether percentile `p` may be reported from `samples` samples.
pub fn supports(samples: usize, p: f64) -> bool {
    highest_supported_percentile(samples).is_some_and(|best| best >= p)
}

/// Sorts nanosecond samples into ascending milliseconds.
pub fn sorted_ms(samples_ns: impl IntoIterator<Item = u64>) -> Vec<f64> {
    let mut out: Vec<f64> = samples_ns.into_iter().map(|ns| ns as f64 / 1e6).collect();
    out.sort_by(f64::total_cmp);
    out
}

/// Median of a slice (mean of the two middle values for even lengths).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `(max − min) / median` — the spread `--repeat` prints beside each bound.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    if values.is_empty() || med == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / med
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_wants_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert!(supports(1000, 99.0) && !supports(999, 99.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_mean_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(spread(&[9.0, 10.0, 11.0]), 0.2);
        assert_eq!(spread(&[]), 0.0);
        assert_eq!(sorted_ms([3_000_000, 1_000_000]), vec![1.0, 3.0]);
    }
}

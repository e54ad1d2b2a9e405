//! Order statistics: exact quantiles, the median of R repeats, and the
//! quartile spread the acceptance rule is stated in.

/// The `q`-quantile (`0.0..=1.0`) of `sorted` by the nearest-rank rule: the
/// smallest sample such that at least `q` of the samples are `<=` it. Exact —
/// the returned value is one of the samples — which is why the live
/// workloads keep every nanosecond sample instead of a bucketed histogram.
///
/// # Panics
///
/// Panics on an empty slice: a quantile of nothing is a harness bug.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of the repeats: the middle value, or the mean of the two middle
/// values for an even count.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no repeats");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)` (the
/// "exclusive" method: position `i * (len + 1) / 4`, linear interpolation).
/// `None` for fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let quartile = |i: usize| {
        let m = sorted.len() + 1;
        let j = (i * m / 4).clamp(1, sorted.len() - 1);
        // Negative for two values, where Python extrapolates below the first.
        let delta = (i * m) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    let mid = median(&sorted);
    (mid != 0.0).then(|| (quartile(3) - quartile(1)) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank_samples() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&sorted, 0.5), 50);
        assert_eq!(quantile_sorted(&sorted, 0.99), 99);
        assert_eq!(quantile_sorted(&sorted, 0.999), 100);
        assert_eq!(quantile_sorted(&sorted, 0.0), 1);
        assert_eq!(quantile_sorted(&sorted, 1.0), 100);
        assert_eq!(quantile_sorted(&[7], 0.99), 7);
        // Ten samples: p99 is the maximum, p50 the fifth.
        let ten = [1, 2, 3, 4, 5, 6, 7, 8, 9, 1000];
        assert_eq!(quantile_sorted(&ten, 0.5), 5);
        assert_eq!(quantile_sorted(&ten, 0.99), 1000);
    }

    #[test]
    fn median_of_repeats_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        // One outlier repeat does not move the median.
        assert_eq!(median(&[1.0, 1.1, 0.9, 1.0, 50.0]), 1.0);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&values).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let spread = quartile_spread(&[4.0, 1.0, 2.0]).unwrap();
        assert!((spread - 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
        assert_eq!(quartile_spread(&[0.0, 0.0]), None);
    }
}

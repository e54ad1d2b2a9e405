//! Hand-rolled HDR-style latency histogram.
//!
//! Fixed memory, O(1) record, bounded relative error: values below 16 are
//! exact; above that each power-of-two range is split into 16 sub-buckets,
//! so any reported quantile is at most ~6.25 % above the true value. This is
//! the classic high-dynamic-range layout, reimplemented here because the
//! container vendors no external crates.

/// Number of buckets: 16 exact small-value buckets plus 16 sub-buckets for
/// each of the 60 power-of-two ranges `[2^4, 2^64)`.
const NUM_BUCKETS: usize = 16 + 60 * 16;

/// A fixed-size latency histogram over `u64` samples (microseconds, by
/// convention of the serve binaries).
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    fn index_of(value: u64) -> usize {
        if value < 16 {
            return value as usize;
        }
        // Highest set bit is >= 4 here.
        let msb = 63 - value.leading_zeros() as usize;
        let sub = ((value >> (msb - 4)) & 0xf) as usize;
        (msb - 3) * 16 + sub
    }

    /// Upper bound (inclusive) of the values mapped to bucket `index`.
    fn upper_bound(index: usize) -> u64 {
        if index < 16 {
            return index as u64;
        }
        let group = index / 16; // >= 1
        let sub = (index % 16) as u128;
        let upper = ((16 + sub + 1) << (group - 1)) - 1;
        u64::try_from(upper).unwrap_or(u64::MAX)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index_of(value)] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples (exact).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Value at quantile `q` (clamped to `[0, 1]`): the upper bound of the
    /// first bucket whose cumulative count reaches `q * count`. Returns 0 on
    /// an empty histogram.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                // The true maximum never lies below a sample in this bucket.
                return Self::upper_bound(index).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..16 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.p50(), 7);
        assert_eq!(h.quantile(1.0), 15);
        assert_eq!(h.max(), 15);
        assert!((h.mean() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        // Every value maps to a bucket whose bounds contain it, and bucket
        // indices never decrease as values grow.
        let mut values: Vec<u64> = (0..63)
            .flat_map(|exp| [0u64, 1, 3].map(|delta| (1u64 << exp) + delta))
            .collect();
        values.sort_unstable();
        let mut last = 0;
        for v in values {
            let idx = LatencyHistogram::index_of(v);
            assert!(idx >= last, "index went backwards at {v}");
            assert!(v <= LatencyHistogram::upper_bound(idx));
            last = idx;
        }
        assert!(LatencyHistogram::index_of(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        for v in (0..10_000u64).map(|i| i * 37 + 11) {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = {
                let rank = ((q * 10_000f64).ceil() as usize).max(1) - 1;
                (rank as u64) * 37 + 11
            };
            let est = h.quantile(q);
            assert!(est >= exact, "q={q}: {est} < exact {exact}");
            // 1/16 sub-bucket resolution => at most ~6.25 % over.
            assert!(
                (est as f64) <= (exact as f64) * 1.0625 + 16.0,
                "q={q}: {est} too far above {exact}"
            );
        }
    }

    #[test]
    fn merge_matches_recording_everything_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for v in 0..1000u64 {
            if v % 2 == 0 {
                a.record(v * 13);
            } else {
                b.record(v * 13);
            }
            all.record(v * 13);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.max(), all.max());
        for q in [0.1, 0.5, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }
}

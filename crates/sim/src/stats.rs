//! Power-of-two histograms for latency and size distributions.

use crate::time::SimDuration;

/// A power-of-two bucketed histogram of `u64` samples (latencies in
/// picoseconds, message sizes in bytes, queue depths, ...).
///
/// Bucket `i` holds samples in `[2^(i-1), 2^i)`; bucket 0 holds zeros and
/// ones.
///
/// # Examples
///
/// ```
/// use shrimp_sim::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1u64, 2, 3, 100] { h.record(v); }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max(), Some(100));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u128,
    min: Option<u64>,
    max: Option<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: None,
            max: None,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = if value <= 1 {
            0
        } else {
            64 - (value - 1).leading_zeros() as usize
        };
        self.buckets[bucket.min(63)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
    }

    /// Records a duration sample in picoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_picos());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Arithmetic mean of samples, if any.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// An upper bound on the `q`-quantile (0.0..=1.0), computed from the
    /// bucket boundaries. Exact to within a factor of two.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(if i >= 63 { u64::MAX } else { 1u64 << i });
            }
        }
        self.max
    }

    /// Upper bound on the median sample. See [`Histogram::quantile_upper_bound`].
    pub fn p50(&self) -> Option<u64> {
        self.quantile_upper_bound(0.50)
    }

    /// Upper bound on the 95th-percentile sample.
    pub fn p95(&self) -> Option<u64> {
        self.quantile_upper_bound(0.95)
    }

    /// Upper bound on the 99th-percentile sample.
    pub fn p99(&self) -> Option<u64> {
        self.quantile_upper_bound(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentile_accessors_match_known_distribution() {
        // 100 samples 1..=100: p50 ≤ 64, p95/p99 ≤ 128 under the
        // power-of-two bucket bounds, and every bound covers the true
        // percentile value.
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.p50(), Some(64));
        assert_eq!(h.p95(), Some(128));
        assert_eq!(h.p99(), Some(128));
        assert!(h.p50().unwrap() >= 50);
        assert!(h.p95().unwrap() >= 95);
        assert!(h.p99().unwrap() >= 99);
        assert_eq!(Histogram::new().p99(), None);
    }

    #[test]
    fn histogram_basic_stats() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 4, 8, 16] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(16));
        assert_eq!(h.mean(), Some(31.0 / 5.0));
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        // zeros/ones in bucket 0; 2 in bucket 1; 3 in bucket 2.
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 1);
    }

    #[test]
    fn histogram_quantiles_bound_samples() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile_upper_bound(0.5).unwrap();
        assert!((500..=1024).contains(&p50), "p50 bound {p50}");
        let p100 = h.quantile_upper_bound(1.0).unwrap();
        assert!(p100 >= 1000);
        assert_eq!(Histogram::new().quantile_upper_bound(0.5), None);
    }

    #[test]
    fn histogram_records_durations() {
        let mut h = Histogram::new();
        h.record_duration(SimDuration::from_ns(3));
        assert_eq!(h.max(), Some(3000));
    }

    #[test]
    fn histogram_huge_values_land_in_top_bucket() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_upper_bound(1.0), Some(u64::MAX));
    }

    #[test]
    fn empty_histogram_percentiles_are_all_none() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p95(), None);
        assert_eq!(h.p99(), None);
    }

    #[test]
    fn single_sample_percentiles_agree() {
        // With one sample every percentile falls in the same bucket, so
        // p50 == p95 == p99 == the sample's power-of-two upper bound.
        let mut h = Histogram::new();
        h.record(5);
        assert_eq!(h.p50(), Some(8));
        assert_eq!(h.p95(), Some(8));
        assert_eq!(h.p99(), Some(8));
        assert_eq!(h.min(), Some(5));
        assert_eq!(h.max(), Some(5));
        assert_eq!(h.mean(), Some(5.0));
    }
}

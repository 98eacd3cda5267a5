//! Statistics primitives the figures' outputs are built from.

use std::fmt;

/// A simple monotonically increasing event counter.
///
/// ```
/// use vpc_sim::Counter;
/// let mut hits = Counter::default();
/// hits.add(3);
/// hits.inc();
/// assert_eq!(hits.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Increments the counter by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// This counter as a fraction of `total`, or 0 if `total` is zero.
    pub fn fraction_of(self, total: u64) -> f64 {
        if total == 0 {
            0.0
        } else {
            self.0 as f64 / total as f64
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A power-of-two-bucketed latency histogram.
///
/// Bucket `k` counts samples in `[2^k, 2^(k+1))` (bucket 0 covers 0 and 1).
/// Cheap to record, mergeable, and accurate enough for the percentile
/// questions the preemption-latency analysis asks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 32],
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram { buckets: [0; 32], count: 0, sum: 0, max: 0 }
    }

    fn bucket_of(value: u64) -> usize {
        (64 - value.max(1).leading_zeros() as usize - 1).min(31)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate percentile (`p` in `0..=1`): the upper bound of the
    /// bucket containing the p-quantile sample. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (1u64 << (k + 1)).min(self.max.max(1));
            }
        }
        self.max
    }

    /// Median sample bound — shorthand for `percentile(0.5)`.
    pub fn p50(&self) -> u64 {
        self.percentile(0.5)
    }

    /// 90th-percentile sample bound — shorthand for `percentile(0.9)`.
    pub fn p90(&self) -> u64 {
        self.percentile(0.9)
    }

    /// 99th-percentile sample bound — shorthand for `percentile(0.99)`.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Harmonic mean of a slice of positive values — the paper's headline
/// throughput metric over normalized IPCs.
///
/// Returns 0 if the slice is empty or any value is non-positive (a starved
/// thread's normalized IPC of zero drives the harmonic mean to zero, which
/// is exactly the property that makes it a fairness-sensitive metric).
pub fn harmonic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sum = 0.0;
    for &v in values {
        if v <= 0.0 {
            return 0.0;
        }
        sum += 1.0 / v;
    }
    values.len() as f64 / sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::default();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert!((c.fraction_of(40) - 0.25).abs() < 1e-12);
        assert_eq!(c.fraction_of(0), 0.0);
    }

    #[test]
    fn harmonic_mean_basics() {
        assert_eq!(harmonic_mean(&[]), 0.0);
        assert!((harmonic_mean(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((harmonic_mean(&[1.0, 0.5]) - (2.0 / 3.0)).abs() < 1e-12);
        // A starved thread zeroes the metric.
        assert_eq!(harmonic_mean(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn histogram_mean_count_max() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 26.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_percentiles_bracket_samples() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(0.5);
        assert!((256..=1024).contains(&p50), "p50 bucket bound {p50}");
        assert!(h.percentile(1.0) >= 512);
        assert!(h.percentile(0.0) >= 1);
        assert_eq!(Histogram::new().percentile(0.5), 0);
    }

    #[test]
    fn histogram_merge_accumulates() {
        let mut a = Histogram::new();
        a.record(10);
        let mut b = Histogram::new();
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1000);
    }

    #[test]
    fn harmonic_mean_below_arithmetic() {
        let vals = [0.3, 0.9, 0.7, 1.0];
        let am: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!(harmonic_mean(&vals) <= am);
    }
}

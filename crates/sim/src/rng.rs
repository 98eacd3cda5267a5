//! A small deterministic RNG for reproducible workload generation.

/// SplitMix64: a fast, high-quality 64-bit PRNG with a single `u64` of state.
///
/// Every workload generator in the reproduction is seeded explicitly, so
/// an entire experiment is a pure function of its configuration.
///
/// ```
/// use vpc_sim::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Distinct seeds yield independent
    /// streams for practical purposes.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next pseudorandom 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a value uniform in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire-style rejection-free mapping is fine for simulation use.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Samples a geometric-ish burst length with the given mean (at least 1).
    ///
    /// Used by the synthetic SPEC profiles to produce bursty L2 accesses —
    /// §4.1.2 of the paper notes that general-purpose applications tend to
    /// contain bursty L2 accesses, amortizing preemption latency.
    pub fn burst_len(&mut self, mean: f64) -> u64 {
        if mean <= 1.0 {
            return 1;
        }
        let p = 1.0 / mean;
        let u = self.unit_f64().max(f64::MIN_POSITIVE);
        let len = (u.ln() / (1.0 - p).ln()).ceil();
        len.max(1.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(1);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = SplitMix64::new(2);
        for _ in 0..10_000 {
            let x = r.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn burst_len_mean_tracks_request() {
        let mut r = SplitMix64::new(4);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| r.burst_len(8.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((6.0..10.0).contains(&mean), "mean burst length {mean} out of range");
    }

    #[test]
    fn burst_len_at_least_one() {
        let mut r = SplitMix64::new(5);
        for _ in 0..1000 {
            assert!(r.burst_len(0.5) >= 1);
            assert!(r.burst_len(3.0) >= 1);
        }
    }

    #[test]
    fn roughly_uniform_buckets() {
        let mut r = SplitMix64::new(6);
        let mut buckets = [0u32; 8];
        for _ in 0..80_000 {
            buckets[r.below(8) as usize] += 1;
        }
        for &b in &buckets {
            assert!((8_000..12_000).contains(&b), "bucket count {b} not uniform");
        }
    }
}

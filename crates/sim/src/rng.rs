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
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    /// Returns the draw that [`next_u64`](Self::next_u64) would return
    /// after `k` earlier calls, without advancing the state.
    ///
    /// The state only counts calls, so the draw `k` calls ahead is
    /// `mix(state + (k + 1)·γ)`: reading several ahead costs independent
    /// mixes rather than a chain. [`skip`](Self::skip) then consumes the
    /// draws that were used.
    ///
    /// ```
    /// use vpc_sim::SplitMix64;
    ///
    /// let mut r = SplitMix64::new(7);
    /// let ahead = r.peek(1);
    /// r.next_u64();
    /// assert_eq!(r.next_u64(), ahead);
    /// ```
    #[inline]
    pub fn peek(&self, k: u64) -> u64 {
        mix(self.state.wrapping_add(GAMMA.wrapping_mul(k + 1)))
    }

    /// Advances the state as `n` calls of [`next_u64`](Self::next_u64) do.
    #[inline]
    pub fn skip(&mut self, n: u64) {
        self.state = self.state.wrapping_add(GAMMA.wrapping_mul(n));
    }

    /// The integer form of [`chance`](Self::chance)`(p)`: a draw passes
    /// [`passes`](Self::passes) with this threshold exactly when
    /// [`unit_f64`](Self::unit_f64) on it is below `p`.
    ///
    /// `unit_f64` on a draw `x` is `k·2^-53` for the integer
    /// `k = x >> 11 < 2^53`, and both `k·2^-53` and `p·2^53` are exact in
    /// `f64`, so `k·2^-53 < p` exactly when `k < ceil(p·2^53)`. A `p` of
    /// at most 0, or NaN, never passes (0); a `p` of at least 1 always
    /// does (`u64::MAX`).
    pub fn threshold(p: f64) -> u64 {
        if p >= 1.0 {
            u64::MAX
        } else if p > 0.0 {
            (p * (1u64 << 53) as f64).ceil() as u64
        } else {
            0
        }
    }

    /// Whether `draw` passes the [`threshold`](Self::threshold) `t`.
    #[inline]
    pub fn passes(draw: u64, t: u64) -> bool {
        (draw >> 11) < t
    }

    /// Maps a draw to `0..bound` as [`below`](Self::below) does.
    #[inline]
    pub fn scale(draw: u64, bound: u64) -> u64 {
        // Lemire-style rejection-free mapping is fine for simulation use.
        ((u128::from(draw) * u128::from(bound)) >> 64) as u64
    }

    /// Returns a value uniform in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        Self::scale(self.next_u64(), bound)
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

/// SplitMix64's increment: the golden-ratio constant.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function of a state.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{self, Config};
    use crate::ensure_eq;

    #[test]
    fn peek_and_skip_match_sequential_calls() {
        check::forall("peek_and_skip_match_sequential_calls", Config::cases(256), |rng| {
            let start = SplitMix64::new(rng.next_u64());
            let k = rng.below(64);
            let mut called = start.clone();
            for _ in 0..k {
                called.next_u64();
            }
            ensure_eq!(start.peek(k), called.clone().next_u64(), "peek({k})");
            let mut skipped = start.clone();
            skipped.skip(k);
            ensure_eq!(skipped, called, "skip({k})");
            Ok(())
        });
    }

    /// [`SplitMix64::unit_f64`] of the draw `x`.
    fn unit_of(x: u64) -> f64 {
        (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    #[test]
    fn threshold_compare_equals_the_float_compare() {
        const ULP: f64 = 1.0 / (1u64 << 53) as f64;
        let edges = [-0.25, 0.0, ULP, 0.5, 1.0 - ULP, 1.0, 1.5, f64::NAN];
        check::forall("threshold_compare_equals_the_float_compare", Config::cases(256), |rng| {
            // `unit_of` is the method's own mapping, and `chance` passes
            // exactly when the threshold compare on its draw does.
            let random_p = rng.unit_f64();
            let x = rng.peek(0);
            ensure_eq!(unit_of(x), rng.clone().unit_f64());
            let t = SplitMix64::threshold(random_p);
            ensure_eq!(rng.clone().chance(random_p), SplitMix64::passes(x, t));
            for p in edges.into_iter().chain([random_p]) {
                let t = SplitMix64::threshold(p);
                let low = rng.below(1 << 11);
                let mut draws = vec![rng.next_u64(), x];
                // Draws on both sides of the threshold, where it is one.
                for k in [t.wrapping_sub(1), t] {
                    if k < 1 << 53 {
                        draws.push(k << 11 | low);
                    }
                }
                for x in draws {
                    let float = unit_of(x) < p;
                    ensure_eq!(SplitMix64::passes(x, t), float, "p = {p}, t = {t}, x = {x:#x}");
                }
            }
            Ok(())
        });
    }

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

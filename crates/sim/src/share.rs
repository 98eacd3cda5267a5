//! Exact rational resource shares.
//!
//! The paper allocates each thread a share `beta_i` of every shared bandwidth
//! resource and `alpha_i` of the cache ways, with `sum(beta_i) <= 1`. The VPC
//! arbiter's virtual service time is `L / beta_i` (Eq. 2); computing
//! this with floating point would accumulate drift over billions of cycles,
//! so [`Share`] keeps the share as an exact rational `num/den` in lowest
//! terms and scales latencies with integer ceiling division.

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// An exact rational share in `[0, 1]`, kept in lowest terms.
///
/// ```
/// use vpc_sim::Share;
///
/// let half = Share::new(2, 4).unwrap();
/// assert_eq!(half.numer(), 1);
/// assert_eq!(half.denom(), 2);
/// assert_eq!(half.scaled_latency(8), Some(16));
/// assert_eq!(Share::ZERO.scaled_latency(8), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Share {
    num: u32,
    den: u32,
}

/// Error returned by [`Share::new`] for invalid fractions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShareError {
    /// The denominator was zero.
    ZeroDenominator,
    /// The fraction exceeded one.
    GreaterThanOne,
}

impl fmt::Display for ShareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShareError::ZeroDenominator => write!(f, "share denominator must be nonzero"),
            ShareError::GreaterThanOne => write!(f, "share must not exceed one"),
        }
    }
}

impl std::error::Error for ShareError {}

impl Share {
    /// The zero share: the thread has no guaranteed allocation and is only
    /// served from excess bandwidth.
    pub const ZERO: Share = Share { num: 0, den: 1 };

    /// The full share: the thread is allocated the entire resource.
    pub const FULL: Share = Share { num: 1, den: 1 };

    /// Creates a share `num/den`, reduced to lowest terms.
    ///
    /// # Errors
    ///
    /// Returns [`ShareError::ZeroDenominator`] if `den == 0` and
    /// [`ShareError::GreaterThanOne`] if `num > den`.
    pub fn new(num: u32, den: u32) -> Result<Share, ShareError> {
        if den == 0 {
            return Err(ShareError::ZeroDenominator);
        }
        if num > den {
            return Err(ShareError::GreaterThanOne);
        }
        if num == 0 {
            return Ok(Share::ZERO);
        }
        let g = gcd(num.into(), den.into()) as u32;
        Ok(Share { num: num / g, den: den / g })
    }

    /// Creates a share from a percentage in `0..=100`.
    ///
    /// # Errors
    ///
    /// Returns [`ShareError::GreaterThanOne`] if `percent > 100`.
    pub fn from_percent(percent: u32) -> Result<Share, ShareError> {
        Share::new(percent, 100)
    }

    /// The numerator, in lowest terms.
    #[inline]
    pub fn numer(self) -> u32 {
        self.num
    }

    /// The denominator, in lowest terms.
    #[inline]
    pub fn denom(self) -> u32 {
        self.den
    }

    /// Whether this is the zero share.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// The share as a floating point value, for reporting only.
    #[inline]
    pub fn as_f64(self) -> f64 {
        f64::from(self.num) / f64::from(self.den)
    }

    /// The paper's virtual service time: `ceil(latency / share)` (Eq. 2,
    /// expressed in integer processor cycles).
    ///
    /// Returns `None` for the zero share, whose virtual service time is
    /// unbounded — a zero-share thread holds no bandwidth guarantee.
    #[inline]
    pub fn scaled_latency(self, latency: u64) -> Option<u64> {
        if self.num == 0 {
            return None;
        }
        let num = u64::from(self.num);
        let den = u64::from(self.den);
        Some((latency * den).div_ceil(num))
    }

    /// The number of cache ways guaranteed by this share out of `total_ways`
    /// (the capacity manager's `alpha_i * ways`, rounded down — a VPC is
    /// guaranteed *at least* `alpha_i` of the ways, so the guarantee itself
    /// uses the floor).
    pub fn of_ways(self, total_ways: u32) -> u32 {
        ((u64::from(self.num) * u64::from(total_ways)) / u64::from(self.den)) as u32
    }

    /// Whether `shares` sum to at most one: no resource over-committed
    /// (`sum(beta_i) <= 1`, the EDF schedulability condition of §3.2).
    ///
    /// Exact while the least common multiple of the denominators fits in
    /// 127 bits, which holds for any three shares and for any shares with
    /// denominators up to 64; past that the remaining terms are summed in
    /// `f64`.
    pub fn sum_at_most_one<I: IntoIterator<Item = Share>>(shares: I) -> bool {
        // num/den: the exact partial sum in lowest terms, num <= den.
        let (mut num, mut den): (u128, u128) = (0, 1);
        let mut shares = shares.into_iter();
        while let Some(s) = shares.next() {
            let d = u128::from(s.den);
            let lcm = (den / gcd(den, d)).checked_mul(d).filter(|&l| l <= u128::MAX / 2);
            let Some(lcm) = lcm else {
                let rest: f64 = shares.map(Share::as_f64).sum();
                return num as f64 / den as f64 + s.as_f64() + rest <= 1.0;
            };
            num = num * (lcm / den) + u128::from(s.num) * (lcm / d);
            let g = gcd(num, lcm);
            (num, den) = (num / g, lcm / g);
            if num > den {
                return false;
            }
        }
        true
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Default for Share {
    /// Defaults to [`Share::ZERO`] — no guaranteed allocation.
    fn default() -> Self {
        Share::ZERO
    }
}

impl PartialOrd for Share {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Share {
    fn cmp(&self, other: &Self) -> Ordering {
        let lhs = u64::from(self.num) * u64::from(other.den);
        let rhs = u64::from(other.num) * u64::from(self.den);
        lhs.cmp(&rhs)
    }
}

impl fmt::Display for Share {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

/// Error returned when parsing a [`Share`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseShareError(String);

impl fmt::Display for ParseShareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid share syntax: {}", self.0)
    }
}

impl std::error::Error for ParseShareError {}

impl FromStr for Share {
    type Err = ParseShareError;

    /// Parses `"p/q"` fractions or `"n%"` percentages.
    ///
    /// ```
    /// use vpc_sim::Share;
    /// assert_eq!("1/4".parse::<Share>().unwrap(), Share::new(1, 4).unwrap());
    /// assert_eq!("25%".parse::<Share>().unwrap(), Share::new(1, 4).unwrap());
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if let Some(pct) = s.strip_suffix('%') {
            let p: u32 = pct.trim().parse().map_err(|_| ParseShareError(s.into()))?;
            return Share::from_percent(p).map_err(|_| ParseShareError(s.into()));
        }
        let (num, den) = s.split_once('/').ok_or_else(|| ParseShareError(s.into()))?;
        let num: u32 = num.trim().parse().map_err(|_| ParseShareError(s.into()))?;
        let den: u32 = den.trim().parse().map_err(|_| ParseShareError(s.into()))?;
        Share::new(num, den).map_err(|_| ParseShareError(s.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{self, gen, Config};
    use crate::{ensure, ensure_eq};

    #[test]
    fn reduces_to_lowest_terms() {
        let s = Share::new(4, 16).unwrap();
        assert_eq!((s.numer(), s.denom()), (1, 4));
    }

    #[test]
    fn rejects_invalid() {
        assert_eq!(Share::new(1, 0), Err(ShareError::ZeroDenominator));
        assert_eq!(Share::new(3, 2), Err(ShareError::GreaterThanOne));
    }

    #[test]
    fn scaled_latency_matches_paper_examples() {
        // §5.3: a VPC allocated beta = .5 sees an 8-cycle tag latency as 16
        // and the 8-cycle data latency as 16 in the equivalent private cache.
        let half = Share::new(1, 2).unwrap();
        assert_eq!(half.scaled_latency(4), Some(8));
        assert_eq!(half.scaled_latency(8), Some(16));
        let quarter = Share::new(1, 4).unwrap();
        assert_eq!(quarter.scaled_latency(4), Some(16));
    }

    #[test]
    fn zero_share_has_no_guarantee() {
        assert!(Share::ZERO.is_zero());
        assert_eq!(Share::ZERO.scaled_latency(8), None);
        assert_eq!(Share::ZERO.of_ways(32), 0);
    }

    #[test]
    fn way_allocation() {
        assert_eq!(Share::new(1, 4).unwrap().of_ways(32), 8);
        assert_eq!(Share::new(1, 2).unwrap().of_ways(32), 16);
        assert_eq!(Share::FULL.of_ways(32), 32);
        assert_eq!(Share::new(1, 3).unwrap().of_ways(32), 10);
    }

    #[test]
    fn ordering_is_by_value() {
        let s = |n, d| Share::new(n, d).unwrap();
        assert!(s(1, 4) < s(1, 2));
        assert!(s(2, 4) == s(1, 2));
        assert!(s(3, 4) > s(2, 3));
    }

    #[test]
    fn sum_at_most_one_detects_overcommit() {
        let s = |n, d| Share::new(n, d).unwrap();
        assert!(Share::sum_at_most_one([s(1, 4); 4]));
        assert!(!Share::sum_at_most_one([s(1, 2), s(1, 2), s(1, 4)]));
        assert!(Share::sum_at_most_one([s(1, 3); 3]), "thirds sum to exactly one");
        assert!(!Share::sum_at_most_one([s(1, 3), s(1, 3), s(1, 3), s(1, u32::MAX)]));
        // Coprime denominators whose exact sum needs more than 32 bits
        // (a 32-bit sum of the first six once panicked as "above one").
        let primes = [31, 37, 41, 43, 47, 53, 59, 61];
        assert!(Share::sum_at_most_one(primes[..6].iter().map(|&p| s(2, p))));
        assert!(Share::sum_at_most_one(primes.map(|p| s(1, p))));
        assert!(!Share::sum_at_most_one(primes.map(|p| s(p - 27, p))));
        // Six primes near 2^32: their product leaves the exact range.
        let big = [4294967291, 4294967279, 4294967231, 4294967197, 4294967189, 4294967161];
        assert!(Share::sum_at_most_one(big.map(|p| s(p / 7, p))));
        assert!(!Share::sum_at_most_one(big.map(|p| s(p / 5, p))));
    }

    #[test]
    fn parsing() {
        assert_eq!("3/4".parse::<Share>().unwrap(), Share::new(3, 4).unwrap());
        assert_eq!("50%".parse::<Share>().unwrap(), Share::new(1, 2).unwrap());
        assert!(" 7 / 8 ".parse::<Share>().is_ok());
        assert!("4/3".parse::<Share>().is_err());
        assert!("abc".parse::<Share>().is_err());
    }

    #[test]
    fn scaled_latency_is_ceiling_division() {
        check::forall("scaled_latency_is_ceiling_division", Config::cases(256), |rng| {
            let s = gen::nonzero_share(rng, 64);
            let lat = rng.below(10_000);
            let exact = (lat as f64) * f64::from(s.denom()) / f64::from(s.numer());
            let got = s.scaled_latency(lat).unwrap();
            ensure!(got as f64 >= exact - 1e-9, "{s}: {got} below exact {exact}");
            ensure!((got as f64) < exact + 1.0, "{s}: {got} above ceiling of {exact}");
            Ok(())
        });
    }

    #[test]
    fn ways_never_exceed_total() {
        check::forall("ways_never_exceed_total", Config::cases(256), |rng| {
            let s = gen::share(rng, 64);
            let ways = gen::range(rng, 1, 64) as u32;
            ensure!(s.of_ways(ways) <= ways, "{s}.of_ways({ways}) exceeded the total");
            Ok(())
        });
    }

    #[test]
    fn display_parse_roundtrip() {
        check::forall("display_parse_roundtrip", Config::cases(256), |rng| {
            let s = gen::share(rng, 64);
            let back: Share = s.to_string().parse().unwrap();
            ensure_eq!(s, back);
            Ok(())
        });
    }
}

//! Exact rational resource shares.
//!
//! The paper allocates each thread a share `beta_i` of every shared bandwidth
//! resource and `alpha_i` of the cache ways, with `sum(beta_i) <= 1`. The VPC
//! arbiter's virtual service time is `R.L_i = L / beta_i` (Eq. 2); computing
//! this with floating point would accumulate drift over billions of cycles,
//! so [`Share`] keeps the share as an exact rational `num/den` in lowest
//! terms and scales latencies with integer ceiling division.

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

use crate::types::ThreadId;

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

fn gcd(mut a: u32, mut b: u32) -> u32 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

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
        let g = gcd(num, den);
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

    /// Sums an iterator of shares, returning `None` on overflow above one.
    ///
    /// Used to validate that a set of allocations does not over-commit a
    /// resource (`sum(beta_i) <= 1`, the EDF schedulability condition of
    /// §3.2).
    pub fn checked_sum<I: IntoIterator<Item = Share>>(shares: I) -> Option<Share> {
        let mut num: u64 = 0;
        let mut den: u64 = 1;
        for s in shares {
            // num/den + s.num/s.den
            num = num * u64::from(s.den) + u64::from(s.num) * den;
            den *= u64::from(s.den);
            // den >= 1, so the gcd is always nonzero.
            let g = gcd64(num, den);
            num /= g;
            den /= g;
            if num > den {
                return None;
            }
        }
        debug_assert!(num <= u64::from(u32::MAX) && den <= u64::from(u32::MAX));
        Some(Share::new(num as u32, den as u32).expect("reduced sum is a valid share"))
    }
}

fn gcd64(mut a: u64, mut b: u64) -> u64 {
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

/// One resource's fair-queuing register file (Figure 3): for each thread,
/// its share `beta_i`, its virtual service time `R.L_i = L / beta_i` for
/// each service time `L` the resource uses, and its virtual-time register
/// `R.S_i`, updated by Eq. 3'–6. Each VPC arbiter holds one.
///
/// `R.L_i` is stored, as in the paper's hardware, whenever a share or a
/// service time is set, so [`VirtualClock::finish`] adds and never divides.
///
/// ```
/// use vpc_sim::{Share, ThreadId, VirtualClock};
///
/// let mut clock = VirtualClock::new(2, &[Share::new(1, 2).unwrap()]);
/// clock.add_service(8); // stores R.L_i = 8 / beta_i for every thread
/// let t0 = ThreadId(0);
/// clock.on_arrival(t0, true, 100); // Eq. 6: an idle thread starts at `now`
/// assert_eq!(clock.start(t0), 100); // Eq. 3'
/// let finish = clock.finish(t0, 8).unwrap(); // Eq. 4: 100 + 8 / (1/2)
/// clock.grant(t0, finish); // Eq. 5
/// assert_eq!(clock.start(t0), 116);
/// assert_eq!(clock.finish(ThreadId(1), 8), None); // zero share: no guarantee
/// ```
#[derive(Debug, Clone)]
pub struct VirtualClock {
    /// `R.S_i`: when each thread's virtual private resource next frees.
    r_s: Vec<u64>,
    /// `beta_i`: each thread's share of the resource's bandwidth.
    shares: Vec<Share>,
    /// The service times `L` with a stored `R.L_i`, in registration order.
    services: Vec<u64>,
    /// `R.L_i`: entry `k * threads + i` is `services[k] / beta_i`, `None`
    /// for a zero share.
    r_l: Vec<Option<u64>>,
}

impl VirtualClock {
    /// Creates the registers for `threads` threads with the given shares
    /// (missing entries get [`Share::ZERO`]) and every `R.S_i` at zero.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize, shares: &[Share]) -> VirtualClock {
        assert!(threads > 0, "at least one thread required");
        let mut s = vec![Share::ZERO; threads];
        let given = shares.len().min(threads);
        s[..given].copy_from_slice(&shares[..given]);
        VirtualClock { r_s: vec![0; threads], shares: s, services: Vec::new(), r_l: Vec::new() }
    }

    /// Stores every thread's `R.L_i` for service time `service`, unless it
    /// is already stored. A resource registers each of its service times
    /// before asking [`VirtualClock::finish`] for it.
    pub fn add_service(&mut self, service: u64) {
        if self.services.contains(&service) {
            return;
        }
        self.services.push(service);
        self.r_l.extend(self.shares.iter().map(|s| s.scaled_latency(service)));
    }

    /// `thread`'s share `beta_i`.
    #[inline]
    pub fn share(&self, thread: ThreadId) -> Share {
        self.shares[thread.index()]
    }

    /// Sets `thread`'s share `beta_i` (a system-software-visible control
    /// register), and stores its `R.L_i` for every registered service time.
    pub fn set_share(&mut self, thread: ThreadId, share: Share) {
        let (t, threads) = (thread.index(), self.shares.len());
        self.shares[t] = share;
        for (k, &service) in self.services.iter().enumerate() {
            self.r_l[k * threads + t] = share.scaled_latency(service);
        }
    }

    /// Eq. 3': the virtual start time of `thread`'s next request,
    /// `S_i = R.S_i`.
    #[inline]
    pub fn start(&self, thread: ThreadId) -> u64 {
        self.r_s[thread.index()]
    }

    /// Eq. 6: a request arriving at real time `now` while `thread` is
    /// `idle` (nothing pending) raises a stale `R.S_i` to `now`, so an idle
    /// thread banks no credit; `R.S_i` never decreases.
    #[inline]
    pub fn on_arrival(&mut self, thread: ThreadId, idle: bool, now: u64) {
        let r_s = &mut self.r_s[thread.index()];
        if idle && *r_s < now {
            *r_s = now;
        }
    }

    /// Eq. 4: the virtual finish time `R.S_i + R.L_i` of a `service`-cycle
    /// request from `thread`, or `None` for a zero share, which holds no
    /// virtual resource.
    ///
    /// # Panics
    ///
    /// Panics if `service` was never registered with
    /// [`VirtualClock::add_service`].
    #[inline]
    pub fn finish(&self, thread: ThreadId, service: u64) -> Option<u64> {
        let t = thread.index();
        let k = self
            .services
            .iter()
            .position(|&l| l == service)
            .expect("service time registered with add_service");
        self.r_l[k * self.shares.len() + t].map(|virt| self.r_s[t] + virt)
    }

    /// Eq. 5: granting `thread` a request with virtual finish time
    /// `finish` (from [`VirtualClock::finish`]) sets `R.S_i` to it.
    #[inline]
    pub fn grant(&mut self, thread: ThreadId, finish: u64) {
        self.r_s[thread.index()] = finish;
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
    fn checked_sum_detects_overcommit() {
        let q = Share::new(1, 4).unwrap();
        assert_eq!(Share::checked_sum([q, q, q, q]), Some(Share::FULL));
        let h = Share::new(1, 2).unwrap();
        assert_eq!(Share::checked_sum([h, h, q]), None);
    }

    #[test]
    fn parsing() {
        assert_eq!("3/4".parse::<Share>().unwrap(), Share::new(3, 4).unwrap());
        assert_eq!("50%".parse::<Share>().unwrap(), Share::new(1, 2).unwrap());
        assert!(" 7 / 8 ".parse::<Share>().is_ok());
        assert!("4/3".parse::<Share>().is_err());
        assert!("abc".parse::<Share>().is_err());
    }

    /// Serves `rounds` grants of `service`-cycle requests to always
    /// backlogged threads, earliest virtual finish first, and counts them.
    fn backlogged_grants(clock: &mut VirtualClock, rounds: usize, service: u64) -> Vec<u32> {
        let threads = clock.r_s.len();
        clock.add_service(service);
        let mut grants = vec![0u32; threads];
        for _ in 0..rounds {
            let (finish, t) = (0..threads)
                .filter_map(|t| clock.finish(ThreadId(t as u8), service).map(|f| (f, t)))
                .min()
                .expect("a guaranteed thread");
            clock.grant(ThreadId(t as u8), finish);
            grants[t] += 1;
        }
        grants
    }

    #[test]
    fn clock_equal_shares_alternate() {
        let half = Share::new(1, 2).unwrap();
        let mut clock = VirtualClock::new(2, &[half, half]);
        assert_eq!(backlogged_grants(&mut clock, 8, 70), [4, 4]);
    }

    #[test]
    fn clock_three_to_one_shares_give_three_to_one_grants() {
        let mut clock =
            VirtualClock::new(2, &[Share::new(3, 4).unwrap(), Share::new(1, 4).unwrap()]);
        let grants = backlogged_grants(&mut clock, 100, 70);
        let ratio = f64::from(grants[0]) / f64::from(grants[1]);
        assert!((2.5..3.5).contains(&ratio), "3:1 shares give ~3:1 grants, got {ratio}");
    }

    #[test]
    fn clock_idle_thread_is_raised_to_floor_never_lowered() {
        let half = Share::new(1, 2).unwrap();
        let mut clock = VirtualClock::new(2, &[half, half]);
        let (t0, t1) = (ThreadId(0), ThreadId(1));
        // Thread 1 wakes at t=1000: its clock starts at the floor, not zero.
        clock.on_arrival(t1, true, 1000);
        assert_eq!(clock.start(t1), 1000);
        // A backlogged thread keeps its clock even below the floor...
        clock.on_arrival(t1, false, 2000);
        assert_eq!(clock.start(t1), 1000);
        // ...and an idle thread ahead of the floor is not pulled back.
        clock.grant(t0, 500);
        clock.on_arrival(t0, true, 100);
        assert_eq!(clock.start(t0), 500);
    }

    #[test]
    fn clock_zero_share_has_no_finish_time() {
        let mut clock = VirtualClock::new(2, &[Share::FULL]);
        clock.add_service(70);
        assert_eq!(clock.share(ThreadId(1)), Share::ZERO, "missing entries are zero");
        assert_eq!(clock.finish(ThreadId(1), 70), None);
        assert_eq!(clock.finish(ThreadId(0), 70), Some(70));
        clock.set_share(ThreadId(0), Share::ZERO);
        assert_eq!(clock.finish(ThreadId(0), 70), None);
    }

    #[test]
    fn clock_grant_sets_start_to_finish() {
        let mut clock = VirtualClock::new(1, &[Share::new(1, 4).unwrap()]);
        clock.add_service(8);
        let t0 = ThreadId(0);
        clock.on_arrival(t0, true, 10);
        let finish = clock.finish(t0, 8).unwrap();
        assert_eq!(finish, 10 + 32, "Eq. 4: S + L / beta");
        assert_eq!(clock.start(t0), 10, "finish() alone charges nothing");
        clock.grant(t0, finish);
        assert_eq!(clock.start(t0), 42);
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

    /// The stored `R.L_i` equals `Share::scaled_latency` for every thread
    /// and registered service time, whichever order shares and service
    /// times are set in, and for service times no L2 bank uses.
    #[test]
    fn stored_virtual_service_matches_scaled_latency() {
        check::forall("stored_virtual_service_matches_scaled_latency", Config::cases(256), |rng| {
            let threads = gen::range(rng, 1, 8) as usize;
            let mut clock = VirtualClock::new(threads, &[]);
            let mut services = Vec::new();
            for _ in 0..24 {
                if rng.chance(0.4) {
                    let service = if rng.chance(0.5) { rng.below(1 << 20) } else { rng.below(32) };
                    clock.add_service(service);
                    services.push(service);
                } else {
                    let t = ThreadId(rng.below(threads as u64) as u8);
                    let share = if rng.chance(0.2) { Share::ZERO } else { gen::share(rng, 64) };
                    clock.set_share(t, share);
                }
                clock.on_arrival(ThreadId(0), true, rng.below(1000));
                for &service in &services {
                    for t in (0..threads).map(|t| ThreadId(t as u8)) {
                        let expected = clock.share(t).scaled_latency(service);
                        let got = clock.finish(t, service).map(|f| f - clock.start(t));
                        ensure_eq!(got, expected, "R.L of {t:?} for service {service}");
                    }
                }
            }
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "registered")]
    fn finish_requires_a_registered_service_time() {
        let clock = VirtualClock::new(1, &[Share::FULL]);
        let _ = clock.finish(ThreadId(0), 8);
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

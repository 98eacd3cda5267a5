//! Replacement policies, including the VPC Capacity Manager.

use vpc_sim::{Share, ThreadId, MAX_THREADS};

use crate::set::TagSet;

/// Chooses a victim way in a full set.
///
/// [`TagSet::find_way_for`] consults the policy only when the set is full,
/// so implementations may assume every way is valid.
pub trait ReplacementPolicy: std::fmt::Debug {
    /// Returns the way index to victimize for a fill by `requester`.
    fn choose_victim(&self, set: &TagSet, requester: ThreadId) -> usize;
}

/// Global true-LRU replacement: the baseline *shared* cache, with no
/// inter-thread isolation — an aggressive thread can strip a neighbor's
/// working set.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrueLru;

impl ReplacementPolicy for TrueLru {
    fn choose_victim(&self, set: &TagSet, _requester: ThreadId) -> usize {
        set.lru_way().expect("set is full when policy consulted")
    }
}

/// The paper's VPC Capacity Manager (§4.2): way-quota thread-aware
/// replacement.
///
/// Each thread `i` is guaranteed `alpha_i * ways` ways in every set. On a
/// fill into a full set:
///
/// 1. if some *other* thread `j` occupies more than its quota, evict `j`'s
///    LRU line (taking it cannot push `j` below its guarantee, and that line
///    would not be resident in `j`'s equivalent private cache);
/// 2. otherwise evict the requester's own LRU line — exactly what a private
///    cache with `alpha_i` of the ways would do.
///
/// Among several over-quota threads, condition 1 takes the globally
/// least-recently-used of their LRU lines (the §4.2.2 fairness refinement).
#[derive(Debug, Clone)]
pub struct VpcCapacityManager {
    quotas: [u32; MAX_THREADS],
}

impl VpcCapacityManager {
    /// Creates a manager with explicit per-thread way quotas.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_THREADS`] quotas are given.
    pub fn new(quotas: &[u32]) -> VpcCapacityManager {
        assert!(quotas.len() <= MAX_THREADS, "at most {MAX_THREADS} threads supported");
        let mut q = [0u32; MAX_THREADS];
        q[..quotas.len()].copy_from_slice(quotas);
        VpcCapacityManager { quotas: q }
    }

    /// Creates a manager from capacity shares `alpha_i` over `total_ways`
    /// ways (quota `floor(alpha_i * ways)`, the guaranteed minimum).
    pub fn from_shares(shares: &[Share], total_ways: u32) -> VpcCapacityManager {
        let quotas: Vec<u32> = shares.iter().map(|s| s.of_ways(total_ways)).collect();
        VpcCapacityManager::new(&quotas)
    }

    /// Equal quotas for `threads` threads over `total_ways` ways (the
    /// evaluation's configuration: `alpha_i = 1/4`, no unallocated ways).
    pub fn equal(threads: usize, total_ways: u32) -> VpcCapacityManager {
        let share = Share::new(1, threads as u32).expect("1/threads is a valid share");
        VpcCapacityManager::from_shares(&vec![share; threads], total_ways)
    }
}

impl ReplacementPolicy for VpcCapacityManager {
    fn choose_victim(&self, set: &TagSet, requester: ThreadId) -> usize {
        // Condition 1: the globally least-recently-used of the LRU lines of
        // over-quota threads other than the requester.
        let mut candidate: Option<(usize, u64)> = None; // (way, last_touch)
        for t in 0..MAX_THREADS {
            let thread = ThreadId(t as u8);
            if thread == requester || set.occupancy(thread) <= self.quotas[t] as usize {
                continue;
            }
            if let Some(way) = set.lru_of_thread(thread) {
                let touch =
                    set.iter().find(|(i, _)| *i == way).map(|(_, w)| w.last_touch).unwrap_or(0);
                if candidate.is_none_or(|(_, lt)| touch < lt) {
                    candidate = Some((way, touch));
                }
            }
        }
        if let Some((way, _)) = candidate {
            return way;
        }
        // Condition 2: the requester's own LRU line. If the requester owns
        // no line in the set (possible only when its quota is zero and no
        // other thread exceeds its quota — e.g. unallocated ways absorbed
        // exactly), fall back to the global LRU line.
        set.lru_of_thread(requester)
            .or_else(|| set.lru_way())
            .expect("set is full when policy consulted")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpc_sim::check::{self, Config};
    use vpc_sim::{ensure, ensure_eq, LineAddr};

    fn filled_set(entries: &[(u64, u8, u64)]) -> TagSet {
        // (line, owner, last_touch)
        let mut set = TagSet::new(entries.len());
        for (way, &(line, owner, touch)) in entries.iter().enumerate() {
            set.fill(way, LineAddr(line), ThreadId(owner), touch);
        }
        set
    }

    #[test]
    fn true_lru_picks_oldest() {
        let set = filled_set(&[(1, 0, 30), (2, 1, 10), (3, 0, 20)]);
        assert_eq!(TrueLru.choose_victim(&set, ThreadId(0)), 1);
    }

    #[test]
    fn condition1_evicts_over_quota_thread() {
        // 4 ways, quotas [2, 2]. Thread 1 holds 3 ways (over quota).
        let policy = VpcCapacityManager::new(&[2, 2]);
        let set = filled_set(&[(1, 0, 5), (2, 1, 1), (3, 1, 2), (4, 1, 3)]);
        let victim = policy.choose_victim(&set, ThreadId(0));
        assert_eq!(set.owner(victim), Some(ThreadId(1)));
        assert_eq!(victim, 1, "thread 1's LRU line");
    }

    #[test]
    fn condition2_evicts_own_lru_when_no_one_over_quota() {
        // 4 ways, quotas [2, 2], both threads exactly at quota.
        let policy = VpcCapacityManager::new(&[2, 2]);
        let set = filled_set(&[(1, 0, 5), (2, 0, 3), (3, 1, 1), (4, 1, 2)]);
        let victim = policy.choose_victim(&set, ThreadId(0));
        assert_eq!(victim, 1, "own LRU line, not thread 1's older lines");
        assert_eq!(set.owner(victim), Some(ThreadId(0)));
    }

    #[test]
    fn requester_over_quota_still_evicts_own_line() {
        // Thread 0 over quota, thread 1 at quota: condition 1 does not apply
        // (it only considers *other* threads), so thread 0 evicts its own LRU.
        let policy = VpcCapacityManager::new(&[1, 3]);
        let set = filled_set(&[(1, 0, 5), (2, 0, 3), (3, 1, 1), (4, 1, 2)]);
        let victim = policy.choose_victim(&set, ThreadId(0));
        assert_eq!(set.owner(victim), Some(ThreadId(0)));
        assert_eq!(victim, 1);
    }

    #[test]
    fn tie_break_global_lru() {
        // Threads 1 and 2 both over quota; the globally older line goes.
        let policy = VpcCapacityManager::new(&[2, 1, 1]);
        let set = filled_set(&[(1, 1, 4), (2, 1, 8), (3, 2, 2), (4, 2, 6)]);
        let victim = policy.choose_victim(&set, ThreadId(0));
        assert_eq!(
            victim, 2,
            "thread 2's LRU (touch 2) is globally older than thread 1's (touch 4)"
        );
    }

    #[test]
    fn from_shares_computes_quotas() {
        let policy = VpcCapacityManager::from_shares(
            &[Share::new(1, 2).unwrap(), Share::new(1, 4).unwrap()],
            32,
        );
        assert_eq!(policy.quotas[0], 16);
        assert_eq!(policy.quotas[1], 8);
        assert_eq!(policy.quotas[2], 0);
    }

    #[test]
    fn equal_shares_cover_all_ways() {
        let policy = VpcCapacityManager::equal(4, 32);
        assert_eq!(policy.quotas[..4], [8; 4]);
    }

    /// A reference private LRU cache set with `q` ways for one thread.
    struct PrivateSet {
        lines: Vec<(LineAddr, u64)>, // (line, last_touch)
        ways: usize,
    }

    impl PrivateSet {
        fn new(ways: usize) -> PrivateSet {
            PrivateSet { lines: Vec::new(), ways }
        }

        fn access(&mut self, line: LineAddr, now: u64) -> bool {
            if let Some(e) = self.lines.iter_mut().find(|(l, _)| *l == line) {
                e.1 = now;
                return true;
            }
            if self.lines.len() == self.ways {
                let lru = self
                    .lines
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (_, t))| *t)
                    .map(|(i, _)| i)
                    .unwrap();
                self.lines.swap_remove(lru);
            }
            self.lines.push((line, now));
            false
        }
    }

    /// Isolation guarantee: under the VPC capacity manager, an insert by
    /// thread j never evicts thread i's line while i is at or below its
    /// quota (i != j).
    #[test]
    fn never_evicts_thread_at_or_below_quota() {
        check::forall("never_evicts_thread_at_or_below_quota", Config::cases(48), |rng| {
            let ways = 8;
            let policy = VpcCapacityManager::new(&[3, 3, 2]);
            let mut set = TagSet::new(ways);
            for now in 0..600u64 {
                let t = ThreadId(rng.below(3) as u8);
                let line = LineAddr(rng.below(32) + 1000 * u64::from(t.0));
                if let Some(way) = set.lookup(line) {
                    set.touch(way, now);
                    continue;
                }
                let victim = set.find_way_for(line, t, &policy);
                if let Some(owner) = set.owner(victim) {
                    if owner != t {
                        let occ = set.occupancy(owner);
                        let quota = policy.quotas[owner.index()] as usize;
                        ensure!(occ > quota, "evicted {owner} at occupancy {occ} <= quota {quota}");
                    }
                }
                set.fill(victim, line, t, now);
            }
            Ok(())
        });
    }

    /// QoS inclusion: a thread's hits in the shared VPC-managed set are a
    /// superset of its hits in a private set with quota ways — the "a VPC
    /// performs at least as well as the equivalent real private cache"
    /// property, at the capacity level.
    #[test]
    fn shared_vpc_hits_superset_of_private() {
        check::forall("shared_vpc_hits_superset_of_private", Config::cases(48), |rng| {
            let ways = 8;
            let quotas = [4u32, 2, 2];
            let policy = VpcCapacityManager::new(&quotas);
            let mut shared = TagSet::new(ways);
            let mut privates: Vec<PrivateSet> =
                quotas.iter().map(|&q| PrivateSet::new(q as usize)).collect();
            for now in 0..800u64 {
                let t = rng.below(3) as usize;
                let thread = ThreadId(t as u8);
                // Disjoint address spaces per thread, as in the evaluation.
                let line = LineAddr(rng.below(12) + 1000 * t as u64);
                let private_hit = privates[t].access(line, now);
                let shared_hit = shared.lookup(line).is_some();
                ensure!(
                    !private_hit || shared_hit,
                    "line {line} hit in private cache but missed in shared VPC set"
                );
                match shared.lookup(line) {
                    Some(way) => shared.touch(way, now),
                    None => {
                        let victim = shared.find_way_for(line, thread, &policy);
                        shared.fill(victim, line, thread, now);
                    }
                }
            }
            Ok(())
        });
    }

    /// With a single thread owning all ways, the VPC manager degenerates
    /// to true LRU.
    #[test]
    fn single_thread_full_quota_is_lru() {
        check::forall("single_thread_full_quota_is_lru", Config::cases(48), |rng| {
            let ways = 4;
            let policy = VpcCapacityManager::new(&[4]);
            let mut vpc_set = TagSet::new(ways);
            let mut lru_set = TagSet::new(ways);
            for now in 0..300u64 {
                let line = LineAddr(rng.below(10));
                for (set, as_policy) in [
                    (&mut vpc_set, &policy as &dyn ReplacementPolicy),
                    (&mut lru_set, &TrueLru as &dyn ReplacementPolicy),
                ] {
                    match set.lookup(line) {
                        Some(way) => set.touch(way, now),
                        None => {
                            let victim = set.find_way_for(line, ThreadId(0), as_policy);
                            set.fill(victim, line, ThreadId(0), now);
                        }
                    }
                }
                let vpc_lines: Vec<_> = vpc_set.iter().map(|(_, w)| w.line).collect();
                let lru_lines: Vec<_> = lru_set.iter().map(|(_, w)| w.line).collect();
                ensure_eq!(vpc_lines, lru_lines);
            }
            Ok(())
        });
    }
}

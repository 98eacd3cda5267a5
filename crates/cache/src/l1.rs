//! Private write-through L1 data cache with MSHRs (Table 1).
//!
//! Write-through, no-write-allocate: stores update the L1 on a hit and are
//! always forwarded toward the L2 (where the store gathering buffers absorb
//! them). Loads that miss allocate an MSHR; loads to an already-outstanding
//! line merge into the existing MSHR (secondary miss). The number of
//! outstanding line fetches toward the L2 is additionally capped by the
//! load-miss-queue depth, which models the 970's LMQ (the structure whose
//! limited depth keeps a single thread from saturating many banks —
//! Figure 5's discussion).

use vpc_capacity::{TagSet, TrueLru};
use vpc_sim::{Counter, Cycle, LineAddr, ThreadId};

use crate::config::L1Config;

/// Outcome of a load lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1LoadResult {
    /// Hit: data available at the given cycle.
    Hit {
        /// Cycle the data is available to the core.
        ready_at: Cycle,
    },
    /// Primary miss: an MSHR was allocated; the caller must send an L2 read
    /// for the line.
    MissPrimary,
    /// Secondary miss: merged into an existing MSHR; no new L2 request.
    MissSecondary,
    /// No MSHR/LMQ capacity; the load cannot issue this cycle.
    Blocked,
}

#[derive(Debug)]
struct Mshr {
    line: LineAddr,
    tokens: Vec<u64>,
}

/// L1 hit/miss counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct L1Stats {
    /// Load hits.
    pub load_hits: Counter,
    /// Load misses (primary + secondary).
    pub load_misses: Counter,
    /// Store hits (line updated in place).
    pub store_hits: Counter,
    /// Store misses (write-through, no allocate).
    pub store_misses: Counter,
}

/// A private, write-through L1 data cache.
#[derive(Debug)]
pub struct L1Cache {
    cfg: L1Config,
    thread: ThreadId,
    sets: Vec<TagSet>,
    mshrs: Vec<Mshr>,
    stats: L1Stats,
}

impl L1Cache {
    /// Creates an empty L1 for `thread`.
    ///
    /// # Panics
    ///
    /// Panics unless `cfg.sets` is a nonzero power of two (sets are
    /// indexed by mask).
    pub fn new(cfg: L1Config, thread: ThreadId) -> L1Cache {
        assert!(
            cfg.sets.is_power_of_two(),
            "L1Config::sets must be a nonzero power of two, got {}",
            cfg.sets
        );
        L1Cache {
            sets: (0..cfg.sets).map(|_| TagSet::new(cfg.ways)).collect(),
            mshrs: Vec::new(),
            stats: L1Stats::default(),
            cfg,
            thread,
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.0 & (self.cfg.sets as u64 - 1)) as usize
    }

    /// Looks up a load for `line`, with one tag lookup. A primary miss
    /// also needs a free MSHR/LMQ entry and `can_send()` (a crossbar port
    /// credit toward the L2), asked only when the entry is free; without
    /// either the load is [`L1LoadResult::Blocked`]. On
    /// [`L1LoadResult::MissPrimary`] the caller must issue an L2 read; the
    /// load's `token` completes when [`L1Cache::on_fill`] later returns it.
    pub fn access_load(
        &mut self,
        line: LineAddr,
        token: u64,
        now: Cycle,
        can_send: impl FnOnce() -> bool,
    ) -> L1LoadResult {
        let set = self.set_of(line);
        if let Some(way) = self.sets[set].lookup(line) {
            self.sets[set].touch(way, now);
            self.stats.load_hits.inc();
            return L1LoadResult::Hit { ready_at: now + self.cfg.latency };
        }
        if let Some(mshr) = self.mshrs.iter_mut().find(|m| m.line == line) {
            self.stats.load_misses.inc();
            mshr.tokens.push(token);
            return L1LoadResult::MissSecondary;
        }
        if !self.can_allocate_miss() || !can_send() {
            return L1LoadResult::Blocked;
        }
        self.stats.load_misses.inc();
        self.mshrs.push(Mshr { line, tokens: vec![token] });
        L1LoadResult::MissPrimary
    }

    /// Applies a store: write-through, no-write-allocate. Returns `true`
    /// on an L1 hit (the line is updated in place either way the store is
    /// forwarded to the L2 by the caller).
    pub fn access_store(&mut self, line: LineAddr, now: Cycle) -> bool {
        let set = self.set_of(line);
        if let Some(way) = self.sets[set].lookup(line) {
            self.sets[set].touch(way, now);
            self.stats.store_hits.inc();
            true
        } else {
            self.stats.store_misses.inc();
            false
        }
    }

    /// Completes a fill for `line`: installs it and returns the tokens of
    /// every load waiting on it.
    ///
    /// # Panics
    ///
    /// Panics if `line` has no outstanding MSHR.
    pub fn on_fill(&mut self, line: LineAddr, now: Cycle) -> Vec<u64> {
        let idx = self
            .mshrs
            .iter()
            .position(|m| m.line == line)
            .expect("fill matches an outstanding MSHR");
        let mshr = self.mshrs.swap_remove(idx);
        let set = self.set_of(line);
        let way = self.sets[set].find_way_for(line, self.thread, &TrueLru);
        self.sets[set].fill(way, line, self.thread, now);
        mshr.tokens
    }

    /// Outstanding line fetches.
    pub fn outstanding_misses(&self) -> usize {
        self.mshrs.len()
    }

    /// Whether an MSHR already covers `line` (a load to it merges as a
    /// secondary miss).
    pub fn has_mshr(&self, line: LineAddr) -> bool {
        self.mshrs.iter().any(|m| m.line == line)
    }

    /// Whether a new primary miss can allocate (MSHR and LMQ capacity).
    pub fn can_allocate_miss(&self) -> bool {
        self.mshrs.len() < self.cfg.mshrs.min(self.cfg.lmq_entries)
    }

    /// Whether `line` is resident.
    pub fn probe(&self, line: LineAddr) -> bool {
        self.sets[self.set_of(line)].lookup(line).is_some()
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> L1Stats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpc_sim::check::{self, Config};
    use vpc_sim::ensure_eq;

    fn l1() -> L1Cache {
        L1Cache::new(L1Config::table1(), ThreadId(0))
    }

    #[test]
    fn load_miss_fill_hit() {
        let mut c = l1();
        assert_eq!(c.access_load(LineAddr(5), 1, 0, || true), L1LoadResult::MissPrimary);
        assert_eq!(c.outstanding_misses(), 1);
        let tokens = c.on_fill(LineAddr(5), 10);
        assert_eq!(tokens, vec![1]);
        assert_eq!(c.access_load(LineAddr(5), 2, 20, || true), L1LoadResult::Hit { ready_at: 22 });
        assert_eq!(c.stats().load_hits.get(), 1);
        assert_eq!(c.stats().load_misses.get(), 1);
    }

    #[test]
    fn secondary_misses_merge() {
        let mut c = l1();
        assert_eq!(c.access_load(LineAddr(5), 1, 0, || true), L1LoadResult::MissPrimary);
        assert_eq!(c.access_load(LineAddr(5), 2, 1, || true), L1LoadResult::MissSecondary);
        assert_eq!(c.outstanding_misses(), 1, "one MSHR covers both");
        let mut tokens = c.on_fill(LineAddr(5), 10);
        tokens.sort_unstable();
        assert_eq!(tokens, vec![1, 2]);
    }

    #[test]
    fn lmq_depth_blocks_new_primaries() {
        let mut c = l1();
        let lmq = L1Config::table1().lmq_entries;
        for i in 0..lmq as u64 {
            assert_eq!(c.access_load(LineAddr(i), i, 0, || true), L1LoadResult::MissPrimary);
        }
        assert_eq!(c.access_load(LineAddr(999), 99, 0, || true), L1LoadResult::Blocked);
        // Secondary merges still allowed.
        assert_eq!(c.access_load(LineAddr(0), 100, 0, || true), L1LoadResult::MissSecondary);
    }

    #[test]
    fn port_credit_gates_only_primary_misses() {
        let mut c = l1();
        assert_eq!(c.access_load(LineAddr(5), 1, 0, || false), L1LoadResult::Blocked);
        assert_eq!(c.stats().load_misses.get(), 0, "a blocked load is not counted");
        assert_eq!(c.access_load(LineAddr(5), 1, 0, || true), L1LoadResult::MissPrimary);
        let secondary = c.access_load(LineAddr(5), 2, 1, || unreachable!("no credit needed"));
        assert_eq!(secondary, L1LoadResult::MissSecondary);
        c.on_fill(LineAddr(5), 10);
        let hit = c.access_load(LineAddr(5), 3, 20, || unreachable!("no credit needed"));
        assert_eq!(hit, L1LoadResult::Hit { ready_at: 22 });
    }

    /// Mask indexing equals `%` on random power-of-two set counts.
    #[test]
    fn mask_indexing_matches_modulo() {
        check::forall("l1_mask_indexing_matches_modulo", Config::cases(64), |rng| {
            let sets = 1usize << rng.below(12);
            let c = L1Cache::new(L1Config { sets, ..L1Config::table1() }, ThreadId(0));
            for _ in 0..64 {
                let line = LineAddr(rng.next_u64() >> rng.below(64));
                ensure_eq!(c.set_of(line) as u64, line.0 % sets as u64, "set of {line:?}");
            }
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "L1Config::sets must be a nonzero power of two, got 48")]
    fn non_power_of_two_sets_are_rejected() {
        let _ = L1Cache::new(L1Config { sets: 48, ..L1Config::table1() }, ThreadId(0));
    }

    #[test]
    fn stores_write_through_without_allocate() {
        let mut c = l1();
        assert!(!c.access_store(LineAddr(5), 0), "store miss does not allocate");
        assert!(!c.probe(LineAddr(5)));
        c.access_load(LineAddr(5), 1, 0, || true);
        c.on_fill(LineAddr(5), 5);
        assert!(c.access_store(LineAddr(5), 10), "store hit updates in place");
        assert_eq!(c.stats().store_hits.get(), 1);
        assert_eq!(c.stats().store_misses.get(), 1);
    }

    #[test]
    fn capacity_thrashing_evicts_lru() {
        let mut c = l1();
        let sets = L1Config::table1().sets as u64;
        // Fill one set's 4 ways plus one more; the LRU line is evicted.
        for i in 0..5u64 {
            c.access_load(LineAddr(i * sets), i, i, || true);
            c.on_fill(LineAddr(i * sets), i);
        }
        assert!(!c.probe(LineAddr(0)), "LRU line evicted");
        assert!(c.probe(LineAddr(4 * sets)));
    }
}

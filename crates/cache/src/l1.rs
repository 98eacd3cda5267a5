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

use vpc_sim::{Counter, Cycle, LineAddr};

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
}

/// One L1 way: the resident line and its last access, for LRU.
#[derive(Debug, Clone, Copy)]
struct Way {
    line: LineAddr,
    last_touch: Cycle,
}

/// A private, write-through L1 data cache.
///
/// The tags live in one flat `sets × ways` array, set-major. A set fills
/// its ways in order and nothing invalidates a line, so set `s` holds its
/// valid lines in its first `held[s]` ways. A fill into a full set evicts
/// the true-LRU line: the first way with the smallest last touch.
#[derive(Debug)]
pub struct L1Cache {
    cfg: L1Config,
    ways: Vec<Way>,
    /// Valid ways per set.
    held: Vec<usize>,
    mshrs: Vec<Mshr>,
    /// The emptied token lists of filled MSHRs, taken by the next primary
    /// misses, so a miss allocates nothing.
    spare_tokens: Vec<Vec<u64>>,
    stats: L1Stats,
}

impl L1Cache {
    /// Creates an empty L1.
    ///
    /// # Panics
    ///
    /// Panics unless `cfg.sets` is a nonzero power of two (sets are
    /// indexed by mask).
    pub fn new(cfg: L1Config) -> L1Cache {
        assert!(
            cfg.sets.is_power_of_two(),
            "L1Config::sets must be a nonzero power of two, got {}",
            cfg.sets
        );
        L1Cache {
            ways: vec![Way { line: LineAddr(0), last_touch: 0 }; cfg.sets * cfg.ways],
            held: vec![0; cfg.sets],
            mshrs: Vec::new(),
            spare_tokens: Vec::new(),
            stats: L1Stats::default(),
            cfg,
        }
    }

    #[inline]
    fn set_of(&self, line: LineAddr) -> usize {
        (line.0 & (self.cfg.sets as u64 - 1)) as usize
    }

    /// The flat index of the way holding `line`, if resident.
    #[inline]
    fn lookup(&self, line: LineAddr) -> Option<usize> {
        let set = self.set_of(line);
        let base = set * self.cfg.ways;
        let valid = &self.ways[base..base + self.held[set]];
        valid.iter().position(|w| w.line == line).map(|way| base + way)
    }

    /// The way of `set` a fill takes: the first invalid way while the set
    /// is not full, otherwise the first way with the smallest last touch.
    fn fill_way(&self, set: usize) -> usize {
        if self.held[set] < self.cfg.ways {
            return self.held[set];
        }
        let base = set * self.cfg.ways;
        let ways = &self.ways[base..base + self.cfg.ways];
        let lru = ways.iter().enumerate().min_by_key(|(_, w)| w.last_touch);
        lru.expect("a set has at least one way").0
    }

    /// Looks up a load for `line`, with one tag lookup. A primary miss
    /// also needs a free MSHR/LMQ entry and `can_send()` (a crossbar port
    /// credit toward the L2), asked only when the entry is free; without
    /// either the load is [`L1LoadResult::Blocked`]. On
    /// [`L1LoadResult::MissPrimary`] the caller must issue an L2 read; the
    /// load's `token` completes when [`L1Cache::on_fill`] later hands it
    /// back.
    pub fn access_load(
        &mut self,
        line: LineAddr,
        token: u64,
        now: Cycle,
        can_send: impl FnOnce() -> bool,
    ) -> L1LoadResult {
        if let Some(way) = self.lookup(line) {
            self.ways[way].last_touch = now;
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
        let mut tokens = self.spare_tokens.pop().unwrap_or_default();
        tokens.push(token);
        self.mshrs.push(Mshr { line, tokens });
        L1LoadResult::MissPrimary
    }

    /// Applies a store: write-through, no-write-allocate. A hit updates
    /// the line in place; either way the caller forwards the store to the
    /// L2.
    pub fn access_store(&mut self, line: LineAddr, now: Cycle) {
        if let Some(way) = self.lookup(line) {
            self.ways[way].last_touch = now;
        }
    }

    /// Completes a fill for `line`: installs it and hands `wake` the token
    /// of every load waiting on it, in the order the loads looked it up.
    /// The emptied token list is kept for the next primary miss.
    ///
    /// # Panics
    ///
    /// Panics if `line` has no outstanding MSHR.
    pub fn on_fill(&mut self, line: LineAddr, now: Cycle, wake: impl FnMut(u64)) {
        let idx = self
            .mshrs
            .iter()
            .position(|m| m.line == line)
            .expect("fill matches an outstanding MSHR");
        let mut tokens = self.mshrs.swap_remove(idx).tokens;
        let set = self.set_of(line);
        let way = self.fill_way(set);
        self.held[set] = self.held[set].max(way + 1);
        self.ways[set * self.cfg.ways + way] = Way { line, last_touch: now };
        tokens.drain(..).for_each(wake);
        self.spare_tokens.push(tokens);
    }

    /// Whether a new primary miss can allocate (MSHR and LMQ capacity).
    pub fn can_allocate_miss(&self) -> bool {
        self.mshrs.len() < self.cfg.mshrs.min(self.cfg.lmq_entries)
    }

    /// Whether `line` is resident.
    pub fn probe(&self, line: LineAddr) -> bool {
        self.lookup(line).is_some()
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> L1Stats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpc_capacity::{TagSet, TrueLru};
    use vpc_sim::check::{self, gen, Config};
    use vpc_sim::{ensure_eq, ThreadId};

    fn l1() -> L1Cache {
        L1Cache::new(L1Config::table1())
    }

    /// Fills `line` and returns the tokens it hands back, in order.
    fn fill(c: &mut L1Cache, line: LineAddr, now: Cycle) -> Vec<u64> {
        let mut tokens = Vec::new();
        c.on_fill(line, now, |token| tokens.push(token));
        tokens
    }

    #[test]
    fn load_miss_fill_hit() {
        let mut c = l1();
        assert_eq!(c.access_load(LineAddr(5), 1, 0, || true), L1LoadResult::MissPrimary);
        assert_eq!(c.mshrs.len(), 1);
        assert_eq!(fill(&mut c, LineAddr(5), 10), vec![1]);
        assert_eq!(c.access_load(LineAddr(5), 2, 20, || true), L1LoadResult::Hit { ready_at: 22 });
        assert_eq!(c.stats().load_hits.get(), 1);
        assert_eq!(c.stats().load_misses.get(), 1);
    }

    #[test]
    fn secondary_misses_merge() {
        let mut c = l1();
        assert_eq!(c.access_load(LineAddr(5), 1, 0, || true), L1LoadResult::MissPrimary);
        assert_eq!(c.access_load(LineAddr(5), 2, 1, || true), L1LoadResult::MissSecondary);
        assert_eq!(c.mshrs.len(), 1, "one MSHR covers both");
        assert_eq!(fill(&mut c, LineAddr(5), 10), vec![1, 2]);
    }

    /// A fill hands its tokens back in the order the loads looked the line
    /// up, and keeps the emptied list: the next primary miss takes it, and
    /// it holds only that miss's tokens.
    #[test]
    fn fills_return_tokens_in_arrival_order_and_reuse_their_lists() {
        let mut c = l1();
        let (a, b) = (LineAddr(5), LineAddr(6));
        assert_eq!(c.access_load(a, 30, 0, || true), L1LoadResult::MissPrimary);
        assert_eq!(c.access_load(b, 40, 0, || true), L1LoadResult::MissPrimary);
        for token in [10, 20] {
            assert_eq!(c.access_load(a, token, 1, || true), L1LoadResult::MissSecondary);
        }
        assert_eq!(fill(&mut c, a, 10), vec![30, 10, 20]);
        assert_eq!(c.spare_tokens.len(), 1, "the emptied list is kept");
        let capacity = c.spare_tokens[0].capacity();
        let d = LineAddr(7);
        assert_eq!(c.access_load(d, 2, 11, || true), L1LoadResult::MissPrimary);
        assert!(c.spare_tokens.is_empty(), "the primary miss took the kept list");
        let reused = c.mshrs.iter().find(|m| m.line == d).expect("an MSHR for the line");
        assert_eq!(reused.tokens, vec![2], "the reused list starts empty");
        assert_eq!(reused.tokens.capacity(), capacity, "the list is the kept one");
        assert_eq!(c.access_load(d, 1, 12, || true), L1LoadResult::MissSecondary);
        assert_eq!(fill(&mut c, d, 20), vec![2, 1]);
        assert_eq!(fill(&mut c, b, 21), vec![40]);
        assert_eq!(c.spare_tokens.len(), 2);
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
        fill(&mut c, LineAddr(5), 10);
        let hit = c.access_load(LineAddr(5), 3, 20, || unreachable!("no credit needed"));
        assert_eq!(hit, L1LoadResult::Hit { ready_at: 22 });
    }

    /// Mask indexing equals `%` on random power-of-two set counts.
    #[test]
    fn mask_indexing_matches_modulo() {
        check::forall("l1_mask_indexing_matches_modulo", Config::cases(64), |rng| {
            let sets = 1usize << rng.below(12);
            let c = L1Cache::new(L1Config { sets, ..L1Config::table1() });
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
        let _ = L1Cache::new(L1Config { sets: 48, ..L1Config::table1() });
    }

    #[test]
    fn stores_write_through_without_allocate() {
        let mut c = l1();
        c.access_store(LineAddr(5), 0);
        assert!(!c.probe(LineAddr(5)), "store miss does not allocate");
        c.access_load(LineAddr(5), 1, 0, || true);
        fill(&mut c, LineAddr(5), 5);
        c.access_store(LineAddr(5), 10);
        let way = c.lookup(LineAddr(5)).expect("the filled line stays resident");
        assert_eq!(c.ways[way].last_touch, 10, "store hit updates in place");
    }

    #[test]
    fn capacity_thrashing_evicts_lru() {
        let mut c = l1();
        let sets = L1Config::table1().sets as u64;
        // Fill one set's 4 ways plus one more; the LRU line is evicted.
        for i in 0..5u64 {
            c.access_load(LineAddr(i * sets), i, i, || true);
            fill(&mut c, LineAddr(i * sets), i);
        }
        assert!(!c.probe(LineAddr(0)), "LRU line evicted");
        assert!(c.probe(LineAddr(4 * sets)));
    }

    /// The flat tag array behaves exactly like one `TagSet` per set under
    /// `TrueLru`: the same hit or miss, the same victim and the same
    /// `probe` of every line after each step of a random trace of loads,
    /// stores and fills. Several steps share a cycle, so last touches tie
    /// and the victim must be the first of the least recent ways.
    #[test]
    fn flat_tags_match_tag_set_reference() {
        check::forall("flat_tags_match_tag_set_reference", Config::cases(128), |rng| {
            let sets = 1usize << rng.below(4);
            let ways = gen::range(rng, 1, 8) as usize;
            let mut flat = L1Cache::new(L1Config { sets, ways, ..L1Config::table1() });
            let mut reference: Vec<TagSet> = (0..sets).map(|_| TagSet::new(ways)).collect();
            let lines = 3 * (sets * ways) as u64;
            let mut now = 0;
            for step in 0..300 {
                now += rng.below(2);
                let line = gen::line_addr(rng, lines);
                let set = flat.set_of(line);
                match rng.below(3) {
                    0 => {
                        let hit = reference[set].lookup(line);
                        if let Some(way) = hit {
                            reference[set].touch(way, now);
                        }
                        let result = flat.access_load(line, now, now, || true);
                        let flat_hit = matches!(result, L1LoadResult::Hit { .. });
                        ensure_eq!(flat_hit, hit.is_some(), "load of {line:?} at step {step}");
                    }
                    1 => {
                        let hit = reference[set].lookup(line);
                        if let Some(way) = hit {
                            reference[set].touch(way, now);
                        }
                        let flat_hit = flat.probe(line);
                        flat.access_store(line, now);
                        ensure_eq!(flat_hit, hit.is_some(), "store to {line:?} at step {step}");
                    }
                    _ if !flat.mshrs.is_empty() => {
                        let line = flat.mshrs[rng.below(flat.mshrs.len() as u64) as usize].line;
                        let set = flat.set_of(line);
                        let way = reference[set].find_way_for(line, ThreadId(0), &TrueLru);
                        ensure_eq!(flat.fill_way(set), way, "victim for {line:?} at step {step}");
                        reference[set].fill(way, line, ThreadId(0), now);
                        fill(&mut flat, line, now);
                    }
                    _ => {}
                }
                for line in (0..lines).map(LineAddr) {
                    let resident = reference[flat.set_of(line)].lookup(line).is_some();
                    ensure_eq!(flat.probe(line), resident, "probe of {line:?} after step {step}");
                }
            }
            Ok(())
        });
    }
}

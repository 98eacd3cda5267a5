//! A set-associative cache set with per-line ownership and recency.

use vpc_sim::{Cycle, LineAddr, ThreadId};

use crate::policy::ReplacementPolicy;

/// One way of a cache set: the resident line, the thread that owns it, its
/// last-touch time (for LRU), and its dirty bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Way {
    /// Resident line address.
    pub line: LineAddr,
    /// Thread that most recently brought in / wrote the line. The capacity
    /// manager's quotas are enforced against this ownership.
    pub owner: ThreadId,
    /// Last access time, for LRU ordering.
    pub last_touch: Cycle,
    /// Whether the line holds data newer than memory.
    pub dirty: bool,
}

/// The line displaced by a fill, if the victim way was valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Displaced line.
    pub line: LineAddr,
    /// Owner at eviction time.
    pub owner: ThreadId,
    /// Whether the line must be written back to memory.
    pub dirty: bool,
}

/// One set of a set-associative cache.
///
/// The set stores only its valid ways, densely: way `i` is valid exactly
/// when `i` is below the number of lines held. A new set allocates
/// nothing, and the storage grows as fills arrive, so a machine pays only
/// for the lines it holds. Nothing ever invalidates a way, so "the first
/// invalid way" is always the next index. *Which* way to victimize on a
/// fill into a full set is delegated to a [`ReplacementPolicy`].
#[derive(Debug, Clone)]
pub struct TagSet {
    ways: Vec<Way>,
    associativity: usize,
}

impl TagSet {
    /// Creates an empty set with `associativity` ways.
    ///
    /// # Panics
    ///
    /// Panics if `associativity` is zero.
    pub fn new(associativity: usize) -> TagSet {
        assert!(associativity > 0, "associativity must be positive");
        TagSet { ways: Vec::new(), associativity }
    }

    /// Number of ways in the set.
    pub fn associativity(&self) -> usize {
        self.associativity
    }

    /// Finds the way holding `line`, if resident.
    pub fn lookup(&self, line: LineAddr) -> Option<usize> {
        self.ways.iter().position(|w| w.line == line)
    }

    /// Marks way `way` as touched at `now` (moves it to MRU position).
    ///
    /// # Panics
    ///
    /// Panics if the way is invalid.
    pub fn touch(&mut self, way: usize, now: Cycle) {
        self.ways[way].last_touch = now;
    }

    /// Marks way `way` dirty (a store hit).
    ///
    /// # Panics
    ///
    /// Panics if the way is invalid.
    pub fn mark_dirty(&mut self, way: usize) {
        self.ways[way].dirty = true;
    }

    /// Chooses the way a fill by `requester` for `line` should use: the
    /// first invalid way while the set is not full, otherwise the policy's
    /// victim.
    pub fn find_way_for<P: ReplacementPolicy + ?Sized>(
        &self,
        _line: LineAddr,
        requester: ThreadId,
        policy: &P,
    ) -> usize {
        if self.ways.len() < self.associativity {
            return self.ways.len();
        }
        let victim = policy.choose_victim(self, requester);
        assert!(victim < self.associativity, "policy returned way out of range");
        victim
    }

    /// Installs `line` (owned by `owner`, clean) into `way`, returning the
    /// displaced line if the way was valid.
    ///
    /// # Panics
    ///
    /// Panics unless `way` is valid or the first invalid way (what
    /// [`TagSet::find_way_for`] returns).
    pub fn fill(
        &mut self,
        way: usize,
        line: LineAddr,
        owner: ThreadId,
        now: Cycle,
    ) -> Option<Eviction> {
        let new = Way { line, owner, last_touch: now, dirty: false };
        if way == self.ways.len() {
            assert!(way < self.associativity, "fill into a full set must displace a way");
            self.ways.push(new);
            return None;
        }
        let old = std::mem::replace(&mut self.ways[way], new);
        Some(Eviction { line: old.line, owner: old.owner, dirty: old.dirty })
    }

    /// The owner of way `way`, if valid.
    pub fn owner(&self, way: usize) -> Option<ThreadId> {
        self.ways.get(way).map(|w| w.owner)
    }

    /// Iterates over `(way_index, &Way)` for all valid ways.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Way)> {
        self.ways.iter().enumerate()
    }

    /// How many valid ways `thread` owns in this set.
    pub fn occupancy(&self, thread: ThreadId) -> usize {
        self.ways.iter().filter(|w| w.owner == thread).count()
    }

    /// The LRU way among valid ways owned by `thread`, if any.
    pub fn lru_of_thread(&self, thread: ThreadId) -> Option<usize> {
        self.iter()
            .filter(|(_, w)| w.owner == thread)
            .min_by_key(|(_, w)| w.last_touch)
            .map(|(i, _)| i)
    }

    /// The globally LRU valid way, if any way is valid.
    pub fn lru_way(&self) -> Option<usize> {
        self.iter().min_by_key(|(_, w)| w.last_touch).map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::TrueLru;

    #[test]
    fn lookup_and_touch() {
        let mut set = TagSet::new(2);
        assert_eq!(set.lookup(LineAddr(1)), None);
        set.fill(0, LineAddr(1), ThreadId(0), 10);
        assert_eq!(set.lookup(LineAddr(1)), Some(0));
        set.touch(0, 20);
        assert_eq!(set.iter().next().unwrap().1.last_touch, 20);
    }

    #[test]
    fn fill_prefers_invalid_ways() {
        let set = {
            let mut s = TagSet::new(4);
            s.fill(0, LineAddr(1), ThreadId(0), 0);
            s
        };
        let way = set.find_way_for(LineAddr(2), ThreadId(0), &TrueLru);
        assert_eq!(way, 1, "first invalid way used before any eviction");
    }

    #[test]
    fn fill_reports_eviction() {
        let mut set = TagSet::new(1);
        assert!(set.fill(0, LineAddr(1), ThreadId(0), 0).is_none());
        set.mark_dirty(0);
        let ev = set.fill(0, LineAddr(2), ThreadId(1), 1).unwrap();
        assert_eq!(ev.line, LineAddr(1));
        assert_eq!(ev.owner, ThreadId(0));
        assert!(ev.dirty);
    }

    #[test]
    fn occupancy_counts_per_thread() {
        let mut set = TagSet::new(4);
        set.fill(0, LineAddr(1), ThreadId(0), 0);
        set.fill(1, LineAddr(2), ThreadId(0), 1);
        set.fill(2, LineAddr(3), ThreadId(1), 2);
        assert_eq!(set.occupancy(ThreadId(0)), 2);
        assert_eq!(set.occupancy(ThreadId(1)), 1);
        assert_eq!(set.occupancy(ThreadId(2)), 0);
        assert_eq!(set.iter().count(), 3);
    }

    #[test]
    fn lru_helpers() {
        let mut set = TagSet::new(3);
        set.fill(0, LineAddr(1), ThreadId(0), 5);
        set.fill(1, LineAddr(2), ThreadId(0), 3);
        set.fill(2, LineAddr(3), ThreadId(1), 1);
        assert_eq!(set.lru_way(), Some(2));
        assert_eq!(set.lru_of_thread(ThreadId(0)), Some(1));
        assert_eq!(set.lru_of_thread(ThreadId(2)), None);
    }

    #[test]
    fn storage_grows_with_fills() {
        let mut set = TagSet::new(32);
        assert_eq!(set.ways.capacity(), 0, "a new set allocates nothing");
        for way in 0..3 {
            set.fill(way, LineAddr(way as u64), ThreadId(0), 0);
        }
        let capacity = set.ways.capacity();
        assert!(capacity < 32, "3 lines must not reserve all 32 ways, got {capacity}");
    }
}

#[cfg(test)]
mod reference_tests {
    use super::*;
    use crate::policy::{TrueLru, VpcCapacityManager};
    use vpc_sim::check::{self, gen, Config};
    use vpc_sim::{ensure_eq, MAX_THREADS};

    /// The reference set: one `Option<Way>` slot per way. A fill takes the
    /// first empty slot; the policy is consulted only when every slot is
    /// valid.
    struct SlotSet {
        slots: Vec<Option<Way>>,
    }

    impl SlotSet {
        fn lookup(&self, line: LineAddr) -> Option<usize> {
            self.slots.iter().position(|w| w.is_some_and(|w| w.line == line))
        }

        fn way_mut(&mut self, way: usize) -> &mut Way {
            self.slots[way].as_mut().expect("reference way must be valid")
        }

        fn find_way_for(&self, requester: ThreadId, policy: &dyn ReplacementPolicy) -> usize {
            if let Some(way) = self.slots.iter().position(Option::is_none) {
                return way;
            }
            // Every slot is valid: the policy sees the same lines in the
            // same ways.
            let full = TagSet {
                ways: self.slots.iter().map(|w| w.expect("slot is valid")).collect(),
                associativity: self.slots.len(),
            };
            policy.choose_victim(&full, requester)
        }

        fn fill(
            &mut self,
            way: usize,
            line: LineAddr,
            owner: ThreadId,
            now: Cycle,
        ) -> Option<Eviction> {
            self.slots[way]
                .replace(Way { line, owner, last_touch: now, dirty: false })
                .map(|w| Eviction { line: w.line, owner: w.owner, dirty: w.dirty })
        }

        fn valid(&self) -> Vec<(usize, Way)> {
            self.slots.iter().enumerate().filter_map(|(i, w)| w.map(|w| (i, w))).collect()
        }
    }

    /// The dense set behaves exactly like the slot array it replaced: the
    /// same `lookup`, `find_way_for`, `fill` eviction and `iter()` after
    /// every step of a random trace, under either policy.
    #[test]
    fn dense_set_matches_slot_reference() {
        check::forall("dense_set_matches_slot_reference", Config::cases(128), |rng| {
            let ways = gen::range(rng, 1, 32) as usize;
            let threads = gen::range(rng, 1, MAX_THREADS as u64) as usize;
            let policy: Box<dyn ReplacementPolicy> = if rng.chance(0.5) {
                Box::new(TrueLru)
            } else {
                let quotas: Vec<u32> =
                    (0..threads).map(|_| gen::range(rng, 0, ways as u64) as u32).collect();
                Box::new(VpcCapacityManager::new(&quotas))
            };
            let mut dense = TagSet::new(ways);
            let mut reference = SlotSet { slots: vec![None; ways] };
            let lines = 2 * ways as u64 + 2;
            for now in 0..300u64 {
                let line = gen::line_addr(rng, lines);
                let owner = gen::thread_id(rng, threads);
                let hit = dense.lookup(line);
                ensure_eq!(hit, reference.lookup(line), "lookup of {line} at step {now}");
                match hit {
                    Some(way) => {
                        if rng.chance(0.7) {
                            dense.touch(way, now);
                            reference.way_mut(way).last_touch = now;
                        }
                        if rng.chance(0.3) {
                            dense.mark_dirty(way);
                            reference.way_mut(way).dirty = true;
                        }
                    }
                    None => {
                        let way = dense.find_way_for(line, owner, policy.as_ref());
                        ensure_eq!(
                            way,
                            reference.find_way_for(owner, policy.as_ref()),
                            "fill way for {line} by {owner} at step {now}"
                        );
                        ensure_eq!(
                            dense.fill(way, line, owner, now),
                            reference.fill(way, line, owner, now),
                            "eviction at step {now}"
                        );
                    }
                }
                let valid: Vec<(usize, Way)> = dense.iter().map(|(i, w)| (i, *w)).collect();
                ensure_eq!(valid, reference.valid(), "valid ways after step {now}");
            }
            Ok(())
        });
    }
}

#[cfg(test)]
mod inclusion_tests {
    use super::*;
    use crate::policy::TrueLru;
    use vpc_sim::check::{self, gen, Config};
    use vpc_sim::ensure;

    /// Runs an access trace through an LRU set of the given associativity
    /// and returns, per access, whether it hit.
    fn run_lru(trace: &[u64], ways: usize) -> Vec<bool> {
        let mut set = TagSet::new(ways);
        let mut hits = Vec::with_capacity(trace.len());
        for (now, &line) in trace.iter().enumerate() {
            let line = LineAddr(line);
            match set.lookup(line) {
                Some(way) => {
                    set.touch(way, now as u64);
                    hits.push(true);
                }
                None => {
                    let way = set.find_way_for(line, ThreadId(0), &TrueLru);
                    set.fill(way, line, ThreadId(0), now as u64);
                    hits.push(false);
                }
            }
        }
        hits
    }

    /// The classic LRU stack (inclusion) property: every hit in a
    /// k-way set is also a hit in a 2k-way set on the same trace —
    /// the property that makes way partitioning performance-monotone
    /// (paper §4.3).
    #[test]
    fn lru_inclusion_property() {
        check::forall("lru_inclusion_property", Config::cases(256), |rng| {
            let ways = gen::range(rng, 1, 8) as usize;
            let trace: Vec<u64> = (0..400).map(|_| rng.below(24)).collect();
            let small = run_lru(&trace, ways);
            let large = run_lru(&trace, ways * 2);
            for (i, (&s, &l)) in small.iter().zip(large.iter()).enumerate() {
                ensure!(!s || l, "access {i}: hit in {ways}-way but miss in {}-way", ways * 2);
            }
            Ok(())
        });
    }
}

//! Cache hierarchy configuration (the cache rows of the paper's Table 1).

use vpc_sim::Share;

use vpc_arbiters::ArbiterPolicy;

/// Line size in bytes of every cache in the hierarchy (Table 1: 64-byte
/// lines). Addresses are line-granular throughout, so only reports read it.
pub const LINE_BYTES: u64 = 64;

/// Which replacement policy manages the shared L2's capacity.
#[derive(Debug, Clone, PartialEq)]
pub enum CapacityPolicy {
    /// Global true LRU — the unmanaged shared baseline.
    Lru,
    /// The VPC Capacity Manager with per-thread capacity shares `alpha_i`.
    Vpc {
        /// Capacity share per thread; missing entries get zero quota.
        shares: Vec<Share>,
    },
}

impl CapacityPolicy {
    /// Equal VPC way shares for `threads` threads (the evaluation's
    /// configuration: `alpha_i = 1/threads`, no unallocated ways).
    pub fn vpc_equal(threads: usize) -> CapacityPolicy {
        let share = Share::new(1, threads as u32).expect("1/threads is a valid share");
        CapacityPolicy::Vpc { shares: vec![share; threads] }
    }
}

/// Configuration of the shared L2 cache (Table 1: 16MB, 32 ways, 64-byte
/// lines, 2 banks at half core frequency, 4-cycle tag array, 8-cycle data
/// array, 16-byte data bus, 8 controller state machines per thread per
/// bank, 8-entry store gathering buffers with a retire-at-6 policy).
#[derive(Debug, Clone, PartialEq)]
pub struct L2Config {
    /// Number of hardware threads sharing the cache.
    pub threads: usize,
    /// Number of address-interleaved cache banks.
    pub banks: usize,
    /// Total sets across all banks.
    pub total_sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Tag array access latency (processor cycles).
    pub tag_latency: u64,
    /// Data array read / single-access latency (processor cycles).
    pub data_latency: u64,
    /// Store writes perform this many back-to-back data-array accesses
    /// (ECC covers 32-byte segments: read-merge-write, §3.1).
    pub write_data_accesses: u64,
    /// Data-bus occupancy of one full line transfer (64 bytes over a
    /// 16-byte bus at half core frequency = 8 processor cycles).
    pub bus_latency: u64,
    /// Critical-word latency: cycles from bus grant until the requesting
    /// core sees its data.
    pub critical_word_latency: u64,
    /// One-way interconnect latency from core to bank (processor cycles).
    pub interconnect_latency: u64,
    /// Cache controller state machines per thread per bank.
    pub sm_per_thread: usize,
    /// Store gathering buffer entries per thread per bank.
    pub sgb_entries: usize,
    /// Retire-at-n high-water mark: the SGB starts retiring stores (and
    /// inverts read-over-write) at this occupancy.
    pub sgb_retire_at: usize,
    /// Cycles after which a quiescent SGB drains its stores anyway.
    pub sgb_idle_drain: u64,
    /// Per-thread per-bank input queue depth (crossbar port credits).
    pub input_queue_cap: usize,
    /// Arbiter policy for the tag array, data array and data bus.
    pub arbiter: ArbiterPolicy,
    /// Replacement / capacity management policy.
    pub capacity: CapacityPolicy,
}

impl L2Config {
    /// Table 1's shared L2 for `threads` processors with the given arbiter,
    /// equal VPC way quotas, and 2 banks.
    pub fn table1(threads: usize, arbiter: ArbiterPolicy) -> L2Config {
        L2Config {
            threads,
            banks: 2,
            // 16 MB / 64 B lines / 32 ways = 8192 sets.
            total_sets: 8192,
            ways: 32,
            tag_latency: 4,
            data_latency: 8,
            write_data_accesses: 2,
            bus_latency: 8,
            critical_word_latency: 2,
            interconnect_latency: 2,
            sm_per_thread: 8,
            sgb_entries: 8,
            sgb_retire_at: 6,
            sgb_idle_drain: 2000,
            input_queue_cap: 4,
            arbiter,
            capacity: CapacityPolicy::vpc_equal(threads),
        }
    }

    /// The arbiter of each resource, (tag, data, bus): `arbiter` three
    /// times. Kept for the frozen benchmark; goes with benchmark revision 2
    /// (ROADMAP item 2).
    pub fn resource_arbiters(&self) -> (&ArbiterPolicy, &ArbiterPolicy, &ArbiterPolicy) {
        (&self.arbiter, &self.arbiter, &self.arbiter)
    }

    /// Checks the geometry that [`L2Config::bank_of`] and
    /// [`L2Config::set_of`] index by shift and mask, once, where the cache
    /// is built.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, unless `banks` and the sets per bank
    /// (`total_sets / banks`) are nonzero powers of two.
    pub fn check_geometry(&self) {
        assert!(
            self.banks.is_power_of_two(),
            "L2Config::banks must be a nonzero power of two, got {}",
            self.banks
        );
        assert!(
            self.total_sets.is_multiple_of(self.banks)
                && (self.total_sets / self.banks).is_power_of_two(),
            "L2 sets per bank (L2Config::total_sets / banks) must be a nonzero power of two, \
             got {} / {}",
            self.total_sets,
            self.banks
        );
    }

    /// Sets per bank (the geometry is checked by
    /// [`L2Config::check_geometry`]).
    pub fn sets_per_bank(&self) -> usize {
        self.total_sets >> self.banks.trailing_zeros()
    }

    /// The bank a line maps to (low line-address bits, so a 64-byte-stride
    /// stream interleaves across banks).
    pub fn bank_of(&self, line: vpc_sim::LineAddr) -> usize {
        (line.0 & (self.banks as u64 - 1)) as usize
    }

    /// The set (within its bank) a line maps to: the line-address bits
    /// above the bank bits.
    pub fn set_of(&self, line: vpc_sim::LineAddr) -> usize {
        ((line.0 >> self.banks.trailing_zeros()) & (self.sets_per_bank() as u64 - 1)) as usize
    }

    /// Data-array occupancy of a store write (ECC read-merge-write).
    pub fn write_latency(&self) -> u64 {
        self.data_latency * self.write_data_accesses
    }

    /// Scales the shared-resource latencies by `1/beta` to model the
    /// private machine equivalent to a VPC with bandwidth share `beta`
    /// (§5.3: "all resource latencies are scaled by 1/beta_i").
    ///
    /// # Panics
    ///
    /// Panics if `beta` is zero.
    pub fn scaled_private(&self, beta: Share, alpha: Share) -> L2Config {
        assert!(!beta.is_zero(), "cannot build a private machine with zero bandwidth");
        let scale = |lat: u64| beta.scaled_latency(lat).expect("nonzero share");
        let ways = (alpha.of_ways(self.ways as u32) as usize).max(1);
        L2Config {
            threads: 1,
            tag_latency: scale(self.tag_latency),
            data_latency: scale(self.data_latency),
            bus_latency: scale(self.bus_latency),
            ways,
            arbiter: ArbiterPolicy::RowFcfs,
            capacity: CapacityPolicy::Lru,
            ..self.clone()
        }
    }
}

/// Configuration of a private L1 data cache (Table 1: 16KB, 4 ways, 64-byte
/// lines, 2-cycle latency, 16 MSHRs, write-through).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Config {
    /// Number of sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Hit latency in processor cycles.
    pub latency: u64,
    /// Miss status holding registers (outstanding line fetches).
    pub mshrs: usize,
    /// Load-miss-queue entries: the maximum L2 load requests in flight.
    /// Models the 970's LMQ, whose limited depth (and reject-induced
    /// out-of-order allocation) keeps a single thread from saturating more
    /// than a few banks (Figure 5 discussion).
    pub lmq_entries: usize,
}

impl L1Config {
    /// Table 1's 16KB 4-way D-cache with 16 MSHRs and an 8-entry LMQ.
    pub fn table1() -> L1Config {
        L1Config {
            // 16 KB / 64 B / 4 ways = 64 sets.
            sets: 64,
            ways: 4,
            latency: 2,
            mshrs: 16,
            lmq_entries: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpc_sim::check::{self, Config};
    use vpc_sim::{ensure_eq, LineAddr};

    #[test]
    fn table1_geometry() {
        let cfg = L2Config::table1(4, ArbiterPolicy::Fcfs);
        assert_eq!(cfg.sets_per_bank(), 4096);
        assert_eq!(cfg.write_latency(), 16);
        // 16 MB total.
        assert_eq!(cfg.total_sets * cfg.ways * LINE_BYTES as usize, 16 << 20);
    }

    #[test]
    fn consecutive_lines_interleave_banks() {
        let cfg = L2Config::table1(4, ArbiterPolicy::Fcfs);
        assert_eq!(cfg.bank_of(LineAddr(0)), 0);
        assert_eq!(cfg.bank_of(LineAddr(1)), 1);
        assert_eq!(cfg.bank_of(LineAddr(2)), 0);
        assert_eq!(cfg.set_of(LineAddr(0)), 0);
        assert_eq!(cfg.set_of(LineAddr(2)), 1);
    }

    /// Shift-and-mask indexing equals `/` and `%` on random power-of-two
    /// geometries.
    #[test]
    fn mask_indexing_matches_division() {
        check::forall("mask_indexing_matches_division", Config::cases(256), |rng| {
            let mut cfg = L2Config::table1(1, ArbiterPolicy::Fcfs);
            cfg.banks = 1 << rng.below(6);
            cfg.total_sets = cfg.banks << rng.below(14);
            cfg.check_geometry();
            let (banks, sets) = (cfg.banks as u64, cfg.total_sets as u64 / cfg.banks as u64);
            ensure_eq!(cfg.sets_per_bank() as u64, sets);
            for _ in 0..64 {
                let line = LineAddr(rng.next_u64() >> rng.below(64));
                ensure_eq!(cfg.bank_of(line) as u64, line.0 % banks, "bank of {line:?}");
                ensure_eq!(cfg.set_of(line) as u64, (line.0 / banks) % sets, "set of {line:?}");
            }
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "sets per bank")]
    fn uneven_sets_per_bank_are_rejected() {
        let mut cfg = L2Config::table1(1, ArbiterPolicy::Fcfs);
        cfg.total_sets = 3 * 1024;
        cfg.check_geometry();
    }

    #[test]
    fn scaled_private_scales_latencies_and_ways() {
        let cfg = L2Config::table1(4, ArbiterPolicy::Fcfs);
        let half = Share::new(1, 2).unwrap();
        let quarter = Share::new(1, 4).unwrap();
        let p = cfg.scaled_private(half, quarter);
        assert_eq!(p.tag_latency, 8);
        assert_eq!(p.data_latency, 16);
        assert_eq!(p.bus_latency, 16);
        assert_eq!(p.ways, 8);
        assert_eq!(p.threads, 1);
    }

    #[test]
    #[should_panic(expected = "zero bandwidth")]
    fn scaled_private_rejects_zero_share() {
        let cfg = L2Config::table1(4, ArbiterPolicy::Fcfs);
        let _ = cfg.scaled_private(Share::ZERO, Share::FULL);
    }

    #[test]
    fn l1_table1_geometry() {
        let cfg = L1Config::table1();
        assert_eq!(cfg.sets * cfg.ways * LINE_BYTES as usize, 16 << 10);
    }
}

//! DRAM timing parameters, in processor cycles.

/// DRAM device timing, expressed in 2 GHz processor cycles.
///
/// DDR2-800 runs a 400 MHz command clock, i.e. 5 processor cycles per DRAM
/// clock at the paper's 2 GHz core frequency. The defaults correspond to a
/// 5-5-5 DDR2-800 part transferring a 64-byte line as one BL8 burst over an
/// 8-byte data bus (8 beats = 4 DRAM clocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// ACT-to-READ/WRITE delay (tRCD).
    pub t_rcd: u64,
    /// READ-to-data CAS latency (tCL).
    pub t_cl: u64,
    /// Precharge time (tRP).
    pub t_rp: u64,
    /// Minimum ACT-to-PRE time (tRAS).
    pub t_ras: u64,
    /// Write recovery time before precharge (tWR).
    pub t_wr: u64,
    /// Data-bus occupancy of one 64-byte line burst.
    pub burst: u64,
}

impl DramTiming {
    /// DDR2-800 5-5-5 timing at a 2 GHz core clock (5 core cycles per DRAM
    /// clock).
    pub fn ddr2_800() -> DramTiming {
        DramTiming {
            t_rcd: 25, // 5 DRAM clocks
            t_cl: 25,  // 5 DRAM clocks
            t_rp: 25,  // 5 DRAM clocks
            t_ras: 90, // 18 DRAM clocks (45 ns)
            t_wr: 30,  // 6 DRAM clocks (15 ns)
            burst: 20, // BL8 = 4 DRAM clocks
        }
    }
}

impl Default for DramTiming {
    fn default() -> Self {
        DramTiming::ddr2_800()
    }
}

/// Memory-system configuration (Table 1's memory rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// Device timing.
    pub timing: DramTiming,
    /// Ranks per channel.
    pub ranks: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Read transaction buffer entries per thread.
    pub transaction_buffer: usize,
    /// Write buffer entries per thread.
    pub write_buffer: usize,
    /// Fixed controller pipeline overhead added to every transaction.
    pub controller_overhead: u64,
}

impl MemConfig {
    /// Table 1's configuration: DDR2-800, 2 ranks × 8 banks per channel,
    /// 16 transaction buffer entries and 8 write buffer entries per thread,
    /// closed page policy.
    pub fn ddr2_800() -> MemConfig {
        MemConfig {
            timing: DramTiming::ddr2_800(),
            ranks: 2,
            banks_per_rank: 8,
            transaction_buffer: 16,
            write_buffer: 8,
            controller_overhead: 10,
        }
    }

    /// Total banks per channel.
    pub fn total_banks(&self) -> usize {
        self.ranks * self.banks_per_rank
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::ddr2_800()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr2_defaults() {
        let t = DramTiming::ddr2_800();
        assert_eq!(t.t_rcd + t.t_cl + t.burst, 70, "idle read: ACT + CAS + burst");
        let c = MemConfig::ddr2_800();
        assert_eq!(c.total_banks(), 16);
    }
}

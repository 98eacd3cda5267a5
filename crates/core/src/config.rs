//! Whole-system configuration (the paper's Table 1) and workload naming.

use vpc_arbiters::{ArbiterPolicy, IntraThreadOrder};
use vpc_cache::{CapacityPolicy, L2Config};
use vpc_cpu::{CoreConfig, FixedTrace, Op, Workload};
use vpc_mem::{ChannelMode, MemConfig};
use vpc_sim::{Share, ThreadId};
use vpc_workloads::{loads_micro, spec, stores_micro};

/// Configuration of the simulated CMP: cores, shared L2, memory system.
#[derive(Debug, Clone, PartialEq)]
pub struct CmpConfig {
    /// Number of processors (= hardware threads; Table 1 uses 4).
    pub processors: usize,
    /// Per-core pipeline configuration.
    pub core: CoreConfig,
    /// Shared L2 configuration, including the arbiter and capacity policy.
    pub l2: L2Config,
    /// Memory system configuration.
    pub mem: MemConfig,
    /// SDRAM channel topology: per-thread private channels (the paper's
    /// isolation setup) or a shared channel (FCFS or fair-queued).
    pub channels: ChannelMode,
}

impl CmpConfig {
    /// The paper's Table 1 system: 4 processors at 2 GHz, a 16 MB 32-way
    /// 2-bank shared L2 at half core frequency, DDR2-800 with one private
    /// channel per thread. Defaults to FCFS arbiters (the multiprocessor
    /// baseline) and equal VPC way quotas.
    pub fn table1() -> CmpConfig {
        CmpConfig::table1_with_threads(4)
    }

    /// Table 1 with `processors` threads (for 1- and 2-thread experiments).
    pub fn table1_with_threads(processors: usize) -> CmpConfig {
        CmpConfig {
            processors,
            core: CoreConfig::table1(),
            l2: L2Config::table1(processors, ArbiterPolicy::Fcfs),
            mem: MemConfig::ddr2_800(),
            channels: ChannelMode::PerThread,
        }
    }

    /// Replaces the SDRAM channel topology.
    pub fn with_channels(mut self, channels: ChannelMode) -> CmpConfig {
        self.channels = channels;
        self
    }

    /// Replaces the L2 arbiter policy on all three shared resources.
    pub fn with_arbiter(mut self, arbiter: ArbiterPolicy) -> CmpConfig {
        self.l2.arbiter = arbiter;
        self
    }

    /// Uses VPC arbiters with the given per-thread bandwidth shares
    /// `beta_i` (and read-over-write intra-thread reordering).
    pub fn with_vpc_shares(mut self, shares: Vec<Share>) -> CmpConfig {
        self.l2.arbiter = ArbiterPolicy::Vpc { shares, order: IntraThreadOrder::ReadOverWrite };
        self
    }

    /// Replaces the capacity policy.
    pub fn with_capacity(mut self, capacity: CapacityPolicy) -> CmpConfig {
        self.l2.capacity = capacity;
        self
    }

    /// Sets the number of L2 banks (Figure 5's sweep).
    pub fn with_banks(mut self, banks: usize) -> CmpConfig {
        self.l2.banks = banks;
        self
    }

    /// The single-processor *private machine* equivalent to a VPC with
    /// bandwidth share `beta` and capacity share `alpha` (§5.3): same
    /// number of sets, `alpha * ways` ways, and all shared-resource
    /// latencies scaled by `1/beta`.
    pub fn private_machine(&self, beta: Share, alpha: Share) -> CmpConfig {
        CmpConfig {
            processors: 1,
            core: self.core,
            l2: self.l2.scaled_private(beta, alpha),
            mem: self.mem,
            channels: ChannelMode::PerThread,
        }
    }
}

impl Default for CmpConfig {
    fn default() -> Self {
        CmpConfig::table1()
    }
}

/// A named workload a thread can run — the vocabulary of the experiment
/// harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// The Table 2 Loads microbenchmark.
    Loads,
    /// The Table 2 Stores microbenchmark.
    Stores,
    /// A synthetic SPEC profile by name (see
    /// [`SPEC_NAMES`](vpc_workloads::SPEC_NAMES)).
    Spec(&'static str),
    /// A compute-only spinner (no memory traffic) — used by the
    /// work-conservation ablation.
    Idle,
}

impl WorkloadSpec {
    /// Instantiates the workload for `thread`.
    ///
    /// # Panics
    ///
    /// Panics if a [`WorkloadSpec::Spec`] name is unknown.
    pub fn build(&self, thread: ThreadId) -> Box<dyn Workload> {
        match self {
            WorkloadSpec::Loads => Box::new(loads_micro(thread)),
            WorkloadSpec::Stores => Box::new(stores_micro(thread)),
            WorkloadSpec::Spec(name) => Box::new(
                spec::workload(name, thread)
                    .unwrap_or_else(|| panic!("unknown SPEC profile {name:?}")),
            ),
            WorkloadSpec::Idle => Box::new(FixedTrace::new("idle", vec![Op::NonMem])),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadSpec::Loads => "Loads",
            WorkloadSpec::Stores => "Stores",
            WorkloadSpec::Spec(name) => name,
            WorkloadSpec::Idle => "idle",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape() {
        let cfg = CmpConfig::table1();
        assert_eq!(cfg.processors, 4);
        assert_eq!(cfg.l2.banks, 2);
        assert_eq!(cfg.l2.ways, 32);
        assert_eq!(cfg.core.rob_entries, 100);
    }

    #[test]
    fn builders_compose() {
        let cfg =
            CmpConfig::table1().with_banks(8).with_vpc_shares(vec![Share::new(1, 4).unwrap(); 4]);
        assert_eq!(cfg.l2.banks, 8);
        assert_eq!(cfg.l2.arbiter.label(), "VPC");
    }

    #[test]
    fn private_machine_is_uniprocessor() {
        let cfg = CmpConfig::table1();
        let p = cfg.private_machine(Share::new(1, 2).unwrap(), Share::new(1, 4).unwrap());
        assert_eq!(p.processors, 1);
        assert_eq!(p.l2.ways, 8);
        assert_eq!(p.l2.tag_latency, 8);
    }

    #[test]
    fn workload_specs_build() {
        for spec in [
            WorkloadSpec::Loads,
            WorkloadSpec::Stores,
            WorkloadSpec::Spec("art"),
            WorkloadSpec::Idle,
        ] {
            let w = spec.build(ThreadId(0));
            assert_eq!(w.name(), spec.name());
        }
    }

    #[test]
    #[should_panic(expected = "unknown SPEC profile")]
    fn unknown_spec_panics() {
        let _ = WorkloadSpec::Spec("notabench").build(ThreadId(0));
    }
}

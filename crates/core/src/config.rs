//! Whole-system configuration (the paper's Table 1), its validation, and
//! workload naming.

use std::fmt;

use vpc_arbiters::{ArbiterPolicy, IntraThreadOrder};
use vpc_cache::{CapacityPolicy, L2Config};
use vpc_cpu::{CoreConfig, FixedTrace, Op, Workload};
use vpc_mem::{ChannelMode, MemConfig};
use vpc_sim::{Share, ThreadId, MAX_THREADS};
use vpc_workloads::{loads_micro, spec, stores_micro, Generator};

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
    /// SDRAM channel topology: always per-thread private channels (the
    /// paper's isolation setup). A vestige kept for the frozen benchmark,
    /// which passes it on; benchmark revision 2 removes it.
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

    /// Sets the number of processors, and the L2 threads to match.
    pub fn with_processors(mut self, processors: usize) -> CmpConfig {
        self.processors = processors;
        self.l2.threads = processors;
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

    /// Checks that this configuration describes a runnable machine. It is
    /// the one place that knows the rules; [`CmpSystem::with_workloads`]
    /// calls it, and the shares it checks are fixed for the machine's life.
    ///
    /// # Errors
    ///
    /// Returns the first rule broken, in this order:
    /// * `processors` is 1 to [`MAX_THREADS`] and equals `l2.threads`;
    /// * the L2 banks and sets per bank ([`L2Config::mask_geometry`]), the
    ///   L1 sets and the DRAM banks per channel are nonzero powers of two;
    /// * the L2 and L1 have at least one way;
    /// * VPC bandwidth shares `beta_i` number at most `processors` and VPC
    ///   capacity shares `alpha_i` at most [`MAX_THREADS`] (single-thread
    ///   cells may keep Table 1's four), and neither sums above one.
    ///
    /// [`CmpSystem::with_workloads`]: crate::CmpSystem::with_workloads
    pub fn validate(&self) -> Result<(), ConfigError> {
        let processors = self.processors;
        if !(1..=MAX_THREADS).contains(&processors) {
            return Err(ConfigError::Processors(processors));
        }
        if self.l2.threads != processors {
            return Err(ConfigError::L2Threads(self.l2.threads, processors));
        }
        let counts = [
            ("L1Config::sets", self.core.l1.sets),
            ("DRAM banks per channel (MemConfig::ranks * banks_per_rank)", self.mem.total_banks()),
        ];
        if let Some((field, n)) =
            self.l2.mask_geometry().into_iter().chain(counts).find(|(_, n)| !n.is_power_of_two())
        {
            return Err(ConfigError::NotPowerOfTwo(field, n));
        }
        for (field, ways) in
            [("L2Config::ways", self.l2.ways), ("L1Config::ways", self.core.l1.ways)]
        {
            if ways == 0 {
                return Err(ConfigError::NoWays(field));
            }
        }
        if let ArbiterPolicy::Vpc { shares, .. } = &self.l2.arbiter {
            check_shares("bandwidth (beta)", shares, processors)?;
        }
        if let CapacityPolicy::Vpc { shares } = &self.l2.capacity {
            check_shares("capacity (alpha)", shares, MAX_THREADS)?;
        }
        Ok(())
    }
}

fn check_shares(resource: &'static str, shares: &[Share], limit: usize) -> Result<(), ConfigError> {
    if shares.len() > limit {
        return Err(ConfigError::TooManyShares(resource, shares.len(), limit));
    }
    if !Share::sum_at_most_one(shares.iter().copied()) {
        return Err(ConfigError::OverCommitted(resource));
    }
    Ok(())
}

/// Why a [`CmpConfig`] is not a runnable machine ([`CmpConfig::validate`]).
/// Its message names the field or resource at fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `processors` is zero or above [`MAX_THREADS`].
    Processors(usize),
    /// `l2.threads` (first) differs from `processors` (second).
    L2Threads(usize, usize),
    /// The named count is not a nonzero power of two.
    NotPowerOfTwo(&'static str, usize),
    /// The named cache has no ways.
    NoWays(&'static str),
    /// The named resource lists shares (first) for more threads than the
    /// limit (second).
    TooManyShares(&'static str, usize, usize),
    /// The named resource's shares sum above one, voiding its guarantee.
    OverCommitted(&'static str),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::Processors(n) => {
                write!(f, "processors must be 1 to {MAX_THREADS}, got {n}")
            }
            ConfigError::L2Threads(threads, processors) => {
                write!(f, "L2Config::threads ({threads}) must equal processors ({processors})")
            }
            ConfigError::NotPowerOfTwo(field, n) => {
                write!(f, "{field} must be a nonzero power of two, got {n}")
            }
            ConfigError::NoWays(field) => write!(f, "{field} must be at least 1"),
            ConfigError::TooManyShares(resource, given, limit) => {
                write!(f, "{given} {resource} shares given, at most {limit} allowed")
            }
            ConfigError::OverCommitted(resource) => {
                write!(f, "{resource} shares sum to more than 1, which voids the guarantee")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

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
    /// Instantiates the workload for `thread`, statically dispatched.
    ///
    /// # Panics
    ///
    /// Panics if a [`WorkloadSpec::Spec`] name is unknown.
    pub fn generator(&self, thread: ThreadId) -> Generator {
        match self {
            WorkloadSpec::Loads => Generator::Trace(loads_micro(thread)),
            WorkloadSpec::Stores => Generator::Trace(stores_micro(thread)),
            WorkloadSpec::Spec(name) => Generator::Spec(
                spec::workload(name, thread)
                    .unwrap_or_else(|| panic!("unknown SPEC profile {name:?}")),
            ),
            WorkloadSpec::Idle => Generator::Trace(FixedTrace::new("idle", vec![Op::NonMem])),
        }
    }

    /// Instantiates the workload for `thread` as a boxed [`Workload`].
    ///
    /// # Panics
    ///
    /// Panics if a [`WorkloadSpec::Spec`] name is unknown.
    pub fn build(&self, thread: ThreadId) -> Box<dyn Workload> {
        Box::new(self.generator(thread))
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
    use std::panic::{self, AssertUnwindSafe};

    use super::*;
    use crate::experiments::{Cell, Observe, RunBudget};
    use vpc_sim::check::{self, gen, Config};
    use vpc_sim::{ensure, ensure_eq, SplitMix64};

    fn share(n: u32, d: u32) -> Share {
        Share::new(n, d).unwrap()
    }

    #[test]
    fn validation_rejects_overcommit() {
        let cfg = CmpConfig::table1_with_threads(3);
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(cfg.clone().with_vpc_shares(vec![share(1, 2); 2]).validate(), Ok(()));
        assert_eq!(
            cfg.clone().with_vpc_shares(vec![share(1, 2); 3]).validate(),
            Err(ConfigError::OverCommitted("bandwidth (beta)"))
        );
        let skew = cfg
            .with_vpc_shares(vec![share(1, 4); 3])
            .with_capacity(CapacityPolicy::Vpc { shares: vec![share(1, 2); 3] });
        assert_eq!(skew.validate(), Err(ConfigError::OverCommitted("capacity (alpha)")));
    }

    #[test]
    fn validation_names_the_field() {
        let mut cfg = CmpConfig::table1_with_threads(2);
        cfg.l2.threads = 4;
        assert_eq!(
            cfg.validate().unwrap_err().to_string(),
            "L2Config::threads (4) must equal processors (2)"
        );
        let too_many = CmpConfig::table1_with_threads(2).with_vpc_shares(vec![share(1, 4); 3]);
        assert_eq!(too_many.validate(), Err(ConfigError::TooManyShares("bandwidth (beta)", 3, 2)));
        // A single-thread cell keeps Table 1's four capacity shares.
        assert_eq!(CmpConfig::table1().with_processors(1).validate(), Ok(()));
    }

    /// A random configuration near Table 1's; each rule of
    /// [`CmpConfig::validate`] breaks in a few percent of draws.
    fn arb_config(rng: &mut SplitMix64) -> CmpConfig {
        let bad = |rng: &mut SplitMix64| rng.chance(0.05);
        let pow2 = |rng: &mut SplitMix64, log2_max: u64| {
            let n = 1 << rng.below(log2_max + 1);
            if bad(rng) {
                n * 3
            } else {
                n
            }
        };
        let processors = if bad(rng) {
            [0, MAX_THREADS + 1][rng.below(2) as usize]
        } else {
            gen::range(rng, 1, MAX_THREADS as u64) as usize
        };
        let mut cfg = CmpConfig::table1_with_threads(processors.max(1));
        cfg.processors = processors;
        if bad(rng) {
            cfg.l2.threads = gen::range(rng, 0, 9) as usize;
        }
        cfg.l2.banks = pow2(rng, 3);
        cfg.l2.total_sets = cfg.l2.banks * pow2(rng, 6) + usize::from(bad(rng));
        cfg.l2.ways = if bad(rng) { 0 } else { gen::range(rng, 1, 16) as usize };
        cfg.core.l1.sets = pow2(rng, 6);
        cfg.core.l1.ways = if bad(rng) { 0 } else { gen::range(rng, 1, 4) as usize };
        cfg.mem.banks_per_rank = pow2(rng, 3);
        // Equal shares or random ones (which often over-commit), at times
        // one more than the limit.
        let shares = |rng: &mut SplitMix64, limit: usize| -> Vec<Share> {
            let len = if bad(rng) { limit + 1 } else { rng.below(limit as u64 + 1) as usize };
            if rng.chance(0.5) {
                vec![share(1, len.max(1) as u32); len]
            } else {
                (0..len).map(|_| gen::share(rng, 64)).collect()
            }
        };
        cfg.l2.arbiter = match rng.below(3) {
            0 => ArbiterPolicy::Fcfs,
            1 => ArbiterPolicy::RowFcfs,
            _ => ArbiterPolicy::Vpc {
                shares: shares(rng, processors),
                order: IntraThreadOrder::ReadOverWrite,
            },
        };
        cfg.l2.capacity = if rng.chance(0.2) {
            CapacityPolicy::Lru
        } else {
            CapacityPolicy::Vpc { shares: shares(rng, MAX_THREADS) }
        };
        cfg
    }

    /// `validate` is the build boundary: a configuration it accepts runs
    /// 5k cycles with every IPC finite, and one it rejects makes
    /// `CmpSystem::new`, so the cell's run, panic with the error's message.
    #[test]
    fn validate_is_the_build_boundary() {
        check::forall("validate_is_the_build_boundary", Config::cases(96), |rng| {
            let cfg = arb_config(rng);
            let workloads: Vec<WorkloadSpec> = (0..cfg.processors)
                .map(|t| if t % 2 == 0 { WorkloadSpec::Loads } else { WorkloadSpec::Stores })
                .collect();
            let verdict = cfg.validate();
            let cell = Cell {
                cfg: cfg.clone(),
                workloads,
                budget: RunBudget { warmup: 0, window: 5_000 },
            };
            let run = panic::catch_unwind(AssertUnwindSafe(|| cell.run(Observe::default())));
            match (verdict, run) {
                (Ok(()), Ok(run)) => {
                    for (t, ipc) in run.m.ipc.iter().enumerate() {
                        ensure!(ipc.is_finite(), "thread {t} IPC {ipc} on {cfg:?}");
                    }
                }
                (Ok(()), Err(_)) => return Err(format!("accepted config panicked: {cfg:?}")),
                (Err(err), Ok(_)) => return Err(format!("rejected config built ({err}): {cfg:?}")),
                (Err(err), Err(payload)) => {
                    let msg = payload.downcast_ref::<String>();
                    ensure_eq!(msg, Some(&err.to_string()), "panic message of {cfg:?}");
                }
            }
            Ok(())
        });
    }

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

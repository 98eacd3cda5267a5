//! Synthetic SPEC CPU 2000 workload profiles.
//!
//! The paper evaluates on twenty 100M-instruction sampled SPEC traces; the
//! traces themselves are proprietary, so each benchmark is substituted with
//! a parameterized synthetic generator (documented in DESIGN.md). The
//! parameters control exactly the properties the shared cache sees:
//!
//! * instruction mix (loads / stores / other);
//! * the fraction of loads that miss the L1 and reach the L2, generated
//!   with a two-state Markov process so misses arrive in *bursts*
//!   (§4.1.2: bursty L2 accesses amortize preemption latency — `mcf`-like
//!   profiles with isolated misses are the latency-sensitive ones);
//! * the fraction of L2 load accesses that miss to memory (streaming
//!   benchmarks like `equake`/`swim` miss most of the time, which is what
//!   makes their tag-array utilization exceed their data-array
//!   utilization, Figure 6);
//! * store line locality, which the store gathering buffers convert into
//!   the gathering rates of Figure 7.

use vpc_cpu::{Op, Workload};
use vpc_sim::{LineAddr, SplitMix64, ThreadId};

/// The SPEC benchmarks of Figures 6/7, ordered by data-array utilization
/// (the paper's plotting order, most aggressive first).
pub const SPEC_NAMES: [&str; 18] = [
    "art", "vpr", "mesa", "crafty", "gap", "mcf", "apsi", "twolf", "gcc", "gzip", "lucas",
    "equake", "swim", "wupwise", "ammp", "bzip2", "mgrid", "sixtrack",
];

/// Parameters of one synthetic benchmark profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecParams {
    /// Benchmark name.
    pub name: &'static str,
    /// Fraction of instructions that are loads.
    pub load_frac: f64,
    /// Fraction of instructions that are stores.
    pub store_frac: f64,
    /// Fraction of loads that miss the L1 (reach the L2).
    pub l1_miss_rate: f64,
    /// Fraction of L2 load accesses that miss to memory (streaming).
    pub l2_miss_rate: f64,
    /// Probability that consecutive stores target the same line (drives
    /// the store gathering rate).
    pub store_locality: f64,
    /// Mean length of an L2-access burst (memory-level parallelism).
    pub burst_mean: f64,
    /// L2-resident working set, in lines.
    pub warm_lines: u64,
    /// Frontend-limited IPC (dependence/branch stalls are modeled as
    /// dispatch bubbles so light benchmarks do not run at the machine's
    /// full dispatch width).
    pub base_ipc: f64,
}

/// The calibrated profile table. Values are tuned so each benchmark's solo
/// utilization and write mix land near Figures 6 and 7.
pub fn spec_params() -> &'static [SpecParams; 18] {
    const P: [SpecParams; 18] = [
        SpecParams {
            name: "art",
            load_frac: 0.34,
            store_frac: 0.12,
            l1_miss_rate: 0.2508,
            l2_miss_rate: 0.06,
            store_locality: 0.4695,
            burst_mean: 8.0,
            warm_lines: 4096,
            base_ipc: 1.3,
        },
        SpecParams {
            name: "vpr",
            load_frac: 0.32,
            store_frac: 0.14,
            l1_miss_rate: 0.1727,
            l2_miss_rate: 0.05,
            store_locality: 0.6614,
            burst_mean: 6.0,
            warm_lines: 4096,
            base_ipc: 1.2,
        },
        SpecParams {
            name: "mesa",
            load_frac: 0.3,
            store_frac: 0.16,
            l1_miss_rate: 0.0897,
            l2_miss_rate: 0.04,
            store_locality: 0.8079,
            burst_mean: 5.0,
            warm_lines: 2048,
            base_ipc: 1.5,
        },
        SpecParams {
            name: "crafty",
            load_frac: 0.3,
            store_frac: 0.15,
            l1_miss_rate: 0.0837,
            l2_miss_rate: 0.03,
            store_locality: 0.8000,
            burst_mean: 5.0,
            warm_lines: 2048,
            base_ipc: 1.4,
        },
        SpecParams {
            name: "gap",
            load_frac: 0.28,
            store_frac: 0.14,
            l1_miss_rate: 0.1008,
            l2_miss_rate: 0.05,
            store_locality: 0.8038,
            burst_mean: 5.0,
            warm_lines: 2048,
            base_ipc: 1.3,
        },
        SpecParams {
            name: "mcf",
            load_frac: 0.35,
            store_frac: 0.08,
            l1_miss_rate: 0.2944,
            l2_miss_rate: 0.3,
            store_locality: 0.4662,
            burst_mean: 1.3,
            warm_lines: 4096,
            base_ipc: 0.6,
        },
        SpecParams {
            name: "apsi",
            load_frac: 0.28,
            store_frac: 0.14,
            l1_miss_rate: 0.0776,
            l2_miss_rate: 0.1,
            store_locality: 0.8146,
            burst_mean: 4.0,
            warm_lines: 2048,
            base_ipc: 1.3,
        },
        SpecParams {
            name: "twolf",
            load_frac: 0.3,
            store_frac: 0.12,
            l1_miss_rate: 0.0839,
            l2_miss_rate: 0.05,
            store_locality: 0.7890,
            burst_mean: 4.0,
            warm_lines: 2048,
            base_ipc: 1.1,
        },
        SpecParams {
            name: "gcc",
            load_frac: 0.26,
            store_frac: 0.14,
            l1_miss_rate: 0.0698,
            l2_miss_rate: 0.08,
            store_locality: 0.8421,
            burst_mean: 3.0,
            warm_lines: 2048,
            base_ipc: 1.2,
        },
        SpecParams {
            name: "gzip",
            load_frac: 0.25,
            store_frac: 0.12,
            l1_miss_rate: 0.0616,
            l2_miss_rate: 0.05,
            store_locality: 0.8641,
            burst_mean: 3.0,
            warm_lines: 1024,
            base_ipc: 1.3,
        },
        SpecParams {
            name: "lucas",
            load_frac: 0.28,
            store_frac: 0.1,
            l1_miss_rate: 0.0751,
            l2_miss_rate: 0.3,
            store_locality: 0.8096,
            burst_mean: 4.0,
            warm_lines: 2048,
            base_ipc: 1.1,
        },
        SpecParams {
            name: "equake",
            load_frac: 0.33,
            store_frac: 0.05,
            l1_miss_rate: 0.1661,
            l2_miss_rate: 0.75,
            store_locality: 0.8109,
            burst_mean: 4.0,
            warm_lines: 1024,
            base_ipc: 0.9,
        },
        SpecParams {
            name: "swim",
            load_frac: 0.3,
            store_frac: 0.05,
            l1_miss_rate: 0.1424,
            l2_miss_rate: 0.8,
            store_locality: 0.7974,
            burst_mean: 5.0,
            warm_lines: 1024,
            base_ipc: 1.0,
        },
        SpecParams {
            name: "wupwise",
            load_frac: 0.28,
            store_frac: 0.1,
            l1_miss_rate: 0.0354,
            l2_miss_rate: 0.2,
            store_locality: 0.8940,
            burst_mean: 3.0,
            warm_lines: 1024,
            base_ipc: 1.4,
        },
        SpecParams {
            name: "ammp",
            load_frac: 0.28,
            store_frac: 0.1,
            l1_miss_rate: 0.0378,
            l2_miss_rate: 0.1,
            store_locality: 0.8786,
            burst_mean: 2.0,
            warm_lines: 1024,
            base_ipc: 1.0,
        },
        SpecParams {
            name: "bzip2",
            load_frac: 0.26,
            store_frac: 0.12,
            l1_miss_rate: 0.0224,
            l2_miss_rate: 0.05,
            store_locality: 0.9290,
            burst_mean: 2.0,
            warm_lines: 1024,
            base_ipc: 1.2,
        },
        SpecParams {
            name: "mgrid",
            load_frac: 0.3,
            store_frac: 0.08,
            l1_miss_rate: 0.0203,
            l2_miss_rate: 0.1,
            store_locality: 0.9162,
            burst_mean: 3.0,
            warm_lines: 1024,
            base_ipc: 1.1,
        },
        SpecParams {
            name: "sixtrack",
            load_frac: 0.25,
            store_frac: 0.08,
            l1_miss_rate: 0.0101,
            l2_miss_rate: 0.05,
            store_locality: 0.9623,
            burst_mean: 2.0,
            warm_lines: 1024,
            base_ipc: 1.6,
        },
    ];
    &P
}

/// Looks up a profile by name.
pub fn params_for(name: &str) -> Option<&'static SpecParams> {
    spec_params().iter().find(|p| p.name == name)
}

/// Creates the synthetic workload for benchmark `name` on `thread`.
///
/// Returns `None` for unknown names.
pub fn workload(name: &str, thread: ThreadId) -> Option<SyntheticSpec> {
    params_for(name).map(|p| SyntheticSpec::new(*p, thread))
}

/// Address-space regions within a thread's private space (line units).
const THREAD_STRIDE: u64 = 1 << 32;
const HOT_BASE: u64 = 0;
const HOT_LINES: u64 = 48; // stays L1-resident
const WARM_BASE: u64 = 1 << 16;
const STORE_BASE: u64 = 1 << 24;
const COLD_BASE: u64 = 1 << 28;

/// The synthetic benchmark generator. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    params: SpecParams,
    /// Per-instruction probability of a dispatch bubble (from `base_ipc`).
    bubble_chance: f64,
    /// Per-hot-load probability of entering an L2 burst (from
    /// `l1_miss_rate` and `burst_mean`).
    burst_entry_chance: f64,
    base: u64,
    rng: SplitMix64,
    /// Remaining loads in the current L2 burst (Markov burst state).
    burst_left: u64,
    /// Current store target line offset within the store region.
    store_line: u64,
    /// Distinct store lines used so far (wraps over a modest pool).
    store_pool: u64,
    /// Next never-before-seen line for streaming (always-miss) accesses.
    cold_next: u64,
}

impl SyntheticSpec {
    /// Creates a generator for `params`, seeded by benchmark name and
    /// thread so every run is reproducible.
    pub fn new(params: SpecParams, thread: ThreadId) -> SyntheticSpec {
        let name_seed: u64 = params
            .name
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
        // Dispatch bubbles make the instruction stream's frontend-only IPC
        // match `base_ipc` (cycles/instr = 1/width + bubbles x len).
        let per_instr_stall = (1.0 / params.base_ipc - 0.2).max(0.0) / f64::from(BUBBLE_LEN);
        // The Markov burst entry keeps the stationary L2 fraction at
        // `l1_miss_rate` with mean dwell `burst_mean`.
        let burst_entry_chance = if params.l1_miss_rate >= 1.0 {
            1.0
        } else {
            params.l1_miss_rate / ((1.0 - params.l1_miss_rate) * params.burst_mean)
        };
        SyntheticSpec {
            bubble_chance: per_instr_stall / (1.0 + per_instr_stall),
            burst_entry_chance,
            base: u64::from(thread.0) * THREAD_STRIDE,
            rng: SplitMix64::new(name_seed ^ (u64::from(thread.0) << 56) ^ 0x5EED),
            burst_left: 0,
            store_line: 0,
            store_pool: (params.warm_lines / 4).max(64),
            cold_next: 0,
            params,
        }
    }

    /// The profile this generator was built from.
    pub fn params(&self) -> &SpecParams {
        &self.params
    }

    #[inline]
    fn gen_load(&mut self) -> Op {
        let p = self.params;
        if self.burst_left > 0 {
            // An L2-targeted load within a burst.
            self.burst_left -= 1;
            if self.rng.chance(p.l2_miss_rate) {
                // Streaming: a never-seen line; always misses to memory.
                let line = self.base + COLD_BASE + self.cold_next;
                self.cold_next += 1;
                return Op::Load(LineAddr(line));
            }
            let line = self.base + WARM_BASE + self.rng.below(p.warm_lines);
            return Op::Load(LineAddr(line));
        }
        // Hot (L1-resident) load; possibly start a new burst for later
        // loads.
        if self.rng.chance(self.burst_entry_chance) {
            self.burst_left = self.rng.burst_len(p.burst_mean);
        }
        let line = self.base + HOT_BASE + self.rng.below(HOT_LINES);
        Op::Load(LineAddr(line))
    }

    #[inline]
    fn gen_store(&mut self) -> Op {
        let p = self.params;
        if !self.rng.chance(p.store_locality) {
            self.store_line = (self.store_line + 1) % self.store_pool;
        }
        Op::Store(LineAddr(self.base + STORE_BASE + self.store_line))
    }
}

/// Frontend bubble length used to realize `base_ipc`.
const BUBBLE_LEN: u8 = 4;

impl Workload for SyntheticSpec {
    #[inline]
    fn next_op(&mut self) -> Op {
        if self.rng.chance(self.bubble_chance) {
            return Op::Bubble(BUBBLE_LEN);
        }
        let r = self.rng.unit_f64();
        if r < self.params.load_frac {
            self.gen_load()
        } else if r < self.params.load_frac + self.params.store_frac {
            self.gen_store()
        } else {
            Op::NonMem
        }
    }

    fn name(&self) -> &str {
        self.params.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix_of(name: &str, n: usize) -> (f64, f64, f64) {
        let mut w = workload(name, ThreadId(0)).unwrap();
        let (mut loads, mut stores, mut other) = (0u64, 0u64, 0u64);
        for _ in 0..n {
            match w.next_op() {
                Op::Load(_) => loads += 1,
                Op::Store(_) => stores += 1,
                Op::NonMem => other += 1,
                Op::Bubble(_) => {}
            }
        }
        let n = (loads + stores + other) as f64;
        (loads as f64 / n, stores as f64 / n, other as f64 / n)
    }

    #[test]
    fn all_benchmarks_have_profiles() {
        for name in SPEC_NAMES {
            assert!(params_for(name).is_some(), "missing profile for {name}");
        }
        assert!(params_for("nonexistent").is_none());
    }

    #[test]
    fn instruction_mix_matches_parameters() {
        for name in ["art", "mcf", "sixtrack"] {
            let p = *params_for(name).unwrap();
            let (l, s, _) = mix_of(name, 100_000);
            assert!((l - p.load_frac).abs() < 0.02, "{name} load mix {l} vs {}", p.load_frac);
            assert!((s - p.store_frac).abs() < 0.02, "{name} store mix {s} vs {}", p.store_frac);
        }
    }

    #[test]
    fn l2_load_fraction_matches_l1_miss_rate() {
        for name in ["art", "gcc", "sixtrack"] {
            let p = *params_for(name).unwrap();
            let mut w = workload(name, ThreadId(0)).unwrap();
            let (mut hot, mut l2) = (0u64, 0u64);
            for _ in 0..300_000 {
                if let Op::Load(line) = w.next_op() {
                    if line.0 < HOT_LINES {
                        hot += 1;
                    } else {
                        l2 += 1;
                    }
                }
            }
            let frac = l2 as f64 / (l2 + hot) as f64;
            assert!(
                (frac - p.l1_miss_rate).abs() < 0.05,
                "{name}: L2-targeted load fraction {frac} vs {}",
                p.l1_miss_rate
            );
        }
    }

    #[test]
    fn streaming_lines_never_repeat() {
        let mut w = workload("swim", ThreadId(0)).unwrap();
        let mut cold = std::collections::BTreeSet::new();
        for _ in 0..200_000 {
            if let Op::Load(line) = w.next_op() {
                if line.0 >= COLD_BASE {
                    assert!(cold.insert(line), "cold line repeated");
                }
            }
        }
        assert!(cold.len() > 100, "swim should stream");
    }

    #[test]
    fn store_locality_produces_runs() {
        let mut w = workload("gzip", ThreadId(0)).unwrap();
        let mut prev: Option<LineAddr> = None;
        let (mut same, mut total) = (0u64, 0u64);
        for _ in 0..300_000 {
            if let Op::Store(line) = w.next_op() {
                if let Some(p) = prev {
                    total += 1;
                    if p == line {
                        same += 1;
                    }
                }
                prev = Some(line);
            }
        }
        let rate = same as f64 / total as f64;
        assert!(rate > 0.7, "consecutive-store locality {rate} too low for gathering");
    }

    #[test]
    fn deterministic_per_seed_and_thread() {
        let mut a = workload("art", ThreadId(0)).unwrap();
        let mut b = workload("art", ThreadId(0)).unwrap();
        for _ in 0..1000 {
            assert_eq!(a.next_op(), b.next_op());
        }
        // Different threads are disjoint and different streams.
        let mut c = workload("art", ThreadId(1)).unwrap();
        let ops_c: Vec<Op> = (0..100).map(|_| c.next_op()).collect();
        assert!(ops_c.iter().all(|op| match op {
            Op::Load(l) | Op::Store(l) => l.0 >= THREAD_STRIDE,
            Op::NonMem | Op::Bubble(_) => true,
        }));
    }

    #[test]
    fn mcf_bursts_are_short_art_bursts_long() {
        // Burst length distribution drives latency sensitivity (§4.1.2).
        fn mean_burst(name: &str) -> f64 {
            let mut w = workload(name, ThreadId(0)).unwrap();
            let mut bursts = Vec::new();
            let mut current = 0u64;
            for _ in 0..400_000 {
                if let Op::Load(line) = w.next_op() {
                    if line.0 % THREAD_STRIDE >= WARM_BASE {
                        current += 1;
                    } else if current > 0 {
                        bursts.push(current);
                        current = 0;
                    }
                }
            }
            bursts.iter().sum::<u64>() as f64 / bursts.len() as f64
        }
        let mcf = mean_burst("mcf");
        let art = mean_burst("art");
        assert!(art > 2.0 * mcf, "art bursts ({art}) should dwarf mcf's ({mcf})");
    }
}

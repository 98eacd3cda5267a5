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
    /// The [`SplitMix64::threshold`]s of each decision an op makes: a
    /// dispatch bubble, a load, a load or store, an L2 load missing to
    /// memory, a hot load entering a burst, a store keeping its line.
    bubble: u64,
    load: u64,
    load_or_store: u64,
    l2_miss: u64,
    burst_entry: u64,
    store_locality: u64,
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

/// Per-instruction probability of a dispatch bubble: it makes the
/// instruction stream's frontend-only IPC match `base_ipc` (cycles/instr
/// = 1/width + bubbles x len).
fn bubble_chance(p: &SpecParams) -> f64 {
    let per_instr_stall = (1.0 / p.base_ipc - 0.2).max(0.0) / f64::from(BUBBLE_LEN);
    per_instr_stall / (1.0 + per_instr_stall)
}

/// Per-hot-load probability of entering an L2 burst: the Markov burst
/// entry keeps the stationary L2 fraction at `l1_miss_rate` with mean
/// dwell `burst_mean`.
fn burst_entry_chance(p: &SpecParams) -> f64 {
    if p.l1_miss_rate >= 1.0 {
        1.0
    } else {
        p.l1_miss_rate / ((1.0 - p.l1_miss_rate) * p.burst_mean)
    }
}

impl SyntheticSpec {
    /// Creates a generator for `params`, seeded by benchmark name and
    /// thread so every run is reproducible.
    pub fn new(params: SpecParams, thread: ThreadId) -> SyntheticSpec {
        let name_seed: u64 = params
            .name
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
        let t = SplitMix64::threshold;
        SyntheticSpec {
            bubble: t(bubble_chance(&params)),
            load: t(params.load_frac),
            load_or_store: t(params.load_frac + params.store_frac),
            l2_miss: t(params.l2_miss_rate),
            burst_entry: t(burst_entry_chance(&params)),
            store_locality: t(params.store_locality),
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
}

/// Frontend bubble length used to realize `base_ipc`.
const BUBBLE_LEN: u8 = 4;

impl Workload for SyntheticSpec {
    /// Reads the four draws an op can consume ahead, decides the op from
    /// them, then skips the draws it used: 1 for a bubble, 2 for a
    /// non-memory op, 3 for a store or a streaming load, 4 for any other
    /// load. A hot load that enters a burst draws its length and line
    /// after the three it decided on. The stream equals drawing one value
    /// per decision, in the order the decisions are made.
    #[inline]
    fn next_op(&mut self) -> Op {
        let d = [self.rng.peek(0), self.rng.peek(1), self.rng.peek(2), self.rng.peek(3)];
        let passes = SplitMix64::passes;
        if passes(d[0], self.bubble) {
            self.rng.skip(1);
            return Op::Bubble(BUBBLE_LEN);
        }
        if !passes(d[1], self.load) {
            if passes(d[1], self.load_or_store) {
                self.rng.skip(3);
                if !passes(d[2], self.store_locality) {
                    self.store_line = (self.store_line + 1) % self.store_pool;
                }
                return Op::Store(LineAddr(self.base + STORE_BASE + self.store_line));
            }
            self.rng.skip(2);
            return Op::NonMem;
        }
        let line = if self.burst_left > 0 {
            // An L2-targeted load within a burst.
            self.burst_left -= 1;
            if passes(d[2], self.l2_miss) {
                // Streaming: a never-seen line; always misses to memory.
                self.rng.skip(3);
                let line = COLD_BASE + self.cold_next;
                self.cold_next += 1;
                line
            } else {
                self.rng.skip(4);
                WARM_BASE + SplitMix64::scale(d[3], self.params.warm_lines)
            }
        } else if passes(d[2], self.burst_entry) {
            // A hot (L1-resident) load that starts a burst for later loads.
            self.rng.skip(3);
            self.burst_left = self.rng.burst_len(self.params.burst_mean);
            HOT_BASE + self.rng.below(HOT_LINES)
        } else {
            self.rng.skip(4);
            HOT_BASE + SplitMix64::scale(d[3], HOT_LINES)
        };
        Op::Load(LineAddr(self.base + line))
    }

    fn name(&self) -> &str {
        self.params.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generator as it drew one value per decision, in the order the
    /// decisions are made: the reference [`SyntheticSpec::next_op`]'s
    /// draw-ahead stream must equal.
    struct DrawByDraw {
        params: SpecParams,
        bubble_chance: f64,
        burst_entry_chance: f64,
        base: u64,
        rng: SplitMix64,
        burst_left: u64,
        store_line: u64,
        store_pool: u64,
        cold_next: u64,
    }

    impl DrawByDraw {
        fn new(name: &str, thread: ThreadId) -> DrawByDraw {
            let spec = workload(name, thread).unwrap();
            let params = spec.params;
            DrawByDraw {
                params,
                bubble_chance: bubble_chance(&params),
                burst_entry_chance: burst_entry_chance(&params),
                base: spec.base,
                rng: spec.rng,
                burst_left: 0,
                store_line: 0,
                store_pool: spec.store_pool,
                cold_next: 0,
            }
        }

        fn gen_load(&mut self) -> Op {
            let p = self.params;
            if self.burst_left > 0 {
                self.burst_left -= 1;
                if self.rng.chance(p.l2_miss_rate) {
                    let line = self.base + COLD_BASE + self.cold_next;
                    self.cold_next += 1;
                    return Op::Load(LineAddr(line));
                }
                let line = self.base + WARM_BASE + self.rng.below(p.warm_lines);
                return Op::Load(LineAddr(line));
            }
            if self.rng.chance(self.burst_entry_chance) {
                self.burst_left = self.rng.burst_len(p.burst_mean);
            }
            let line = self.base + HOT_BASE + self.rng.below(HOT_LINES);
            Op::Load(LineAddr(line))
        }

        fn gen_store(&mut self) -> Op {
            if !self.rng.chance(self.params.store_locality) {
                self.store_line = (self.store_line + 1) % self.store_pool;
            }
            Op::Store(LineAddr(self.base + STORE_BASE + self.store_line))
        }

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
    }

    #[test]
    fn draw_ahead_stream_equals_draw_by_draw() {
        for name in SPEC_NAMES {
            for thread in 0..4 {
                let mut fast = workload(name, ThreadId(thread)).unwrap();
                let mut reference = DrawByDraw::new(name, ThreadId(thread));
                for i in 0..100_000 {
                    let op = fast.next_op();
                    assert_eq!(op, reference.next_op(), "{name} thread {thread}, op {i}");
                }
                assert_eq!(fast.rng, reference.rng, "{name} thread {thread}: the rng states");
            }
        }
    }

    #[test]
    fn all_benchmarks_have_profiles() {
        for name in SPEC_NAMES {
            assert!(params_for(name).is_some(), "missing profile for {name}");
        }
        assert!(params_for("nonexistent").is_none());
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

    /// What the oracle counts in one profile's op stream.
    #[derive(Default)]
    struct Counts {
        ops: u64,
        bubbles: u64,
        bubble_cycles: u64,
        loads: u64,
        stores: u64,
        /// Loads outside the hot region: the L2-targeted burst loads.
        l2_loads: u64,
        /// Burst loads to never-seen (streaming) lines.
        cold_loads: u64,
        /// Completed runs of consecutive L2-targeted loads, and their loads.
        runs: u64,
        run_loads: u64,
        /// Stores after the first, and those that repeat the previous
        /// store's line.
        later_stores: u64,
        repeated_stores: u64,
    }

    fn count(name: &str, ops: u64) -> Counts {
        let mut w = workload(name, ThreadId(0)).unwrap();
        let mut c = Counts { ops, ..Counts::default() };
        let (mut run, mut prev_store) = (0u64, None);
        for _ in 0..ops {
            match w.next_op() {
                Op::Bubble(len) => {
                    c.bubbles += 1;
                    c.bubble_cycles += u64::from(len);
                }
                Op::NonMem => {}
                Op::Store(line) => {
                    c.stores += 1;
                    if let Some(prev) = prev_store {
                        c.later_stores += 1;
                        c.repeated_stores += u64::from(prev == line);
                    }
                    prev_store = Some(line);
                }
                Op::Load(line) if line.0 >= HOT_BASE + HOT_LINES => {
                    c.loads += 1;
                    c.l2_loads += 1;
                    c.cold_loads += u64::from(line.0 >= COLD_BASE);
                    run += 1;
                }
                Op::Load(_) => {
                    c.loads += 1;
                    if run > 0 {
                        c.runs += 1;
                        c.run_loads += run;
                        run = 0;
                    }
                }
            }
        }
        c
    }

    /// Fails unless `got` is within `Z` standard errors `se` of `want`.
    fn near(name: &str, what: &str, got: f64, want: f64, se: f64) -> Result<(), String> {
        if (got - want).abs() <= Z * se {
            Ok(())
        } else {
            Err(format!("{name} {what}: {got:.5}, closed form {want:.5} (±{:.5})", Z * se))
        }
    }

    /// Standard errors a statistic may stray from its closed form. Every
    /// check compares one mean over many independent draws, so at 5 SE a
    /// correct generator fails a check with chance below 1e-6, and the
    /// 126 checks together below 1e-4, while an error that moves a mean by
    /// 5 SE (about 0.01 for a share at these counts) is caught.
    const Z: f64 = 5.0;

    /// Each of the 18 profiles, over 10^6 ops on thread 0, against closed
    /// forms of its `SpecParams`. Tolerances are `Z` standard errors of
    /// each statistic at its sample count:
    ///
    /// * bubble share of ops: the frontend runs `dispatch_width`
    ///   instructions a cycle plus `b` bubbles of `len` cycles per
    ///   instruction, so `base_ipc` = 1 / (1/width + b·len) and the share
    ///   is `b / (1 + b)`; binomial SE over all ops;
    /// * load and store shares of non-bubble ops: `load_frac` and
    ///   `store_frac`; binomial SE over non-bubble ops;
    /// * share of loads outside the hot region: a hot load enters a burst
    ///   with chance q = m/((1−m)·B), bursts are geometric with mean B, so
    ///   each hot load brings X L2 loads with E[X] = qB and
    ///   E[X²] = q(2B² − B), and the share is qB/(1+qB) = m =
    ///   `l1_miss_rate`; by the delta method its variance is
    ///   (1−m)²·Var(X) / (loads·(1+qB));
    /// * cold share of burst loads: `l2_miss_rate`; binomial SE over burst
    ///   loads;
    /// * mean run of consecutive L2-targeted loads: `burst_mean` B, with
    ///   variance B² − B per run; SE over completed runs;
    /// * share of stores repeating the previous store's line:
    ///   `store_locality`; binomial SE over stores after the first.
    #[test]
    fn generator_matches_its_parameters() {
        let width = vpc_cpu::CoreConfig::table1().dispatch_width as f64;
        let binomial = |p: f64, n: u64| (p * (1.0 - p) / n as f64).sqrt();
        let mut failures = Vec::new();
        for p in spec_params() {
            let name = p.name;
            let c = count(name, 1_000_000);
            let ratio = |a: u64, b: u64| a as f64 / b as f64;
            let len = c.bubble_cycles as f64 / c.bubbles as f64;
            let per_instr = (1.0 / p.base_ipc - 1.0 / width) / len;
            let bubble_share = per_instr / (1.0 + per_instr);
            let instrs = c.ops - c.bubbles;
            let (m, b) = (p.l1_miss_rate, p.burst_mean);
            let q = m / ((1.0 - m) * b);
            let var_x = q * (2.0 * b * b - b) - (q * b).powi(2);
            let l2_se = (1.0 - m) * (var_x / (c.loads as f64 * (1.0 + q * b))).sqrt();
            let checks = [
                (
                    "bubble share",
                    ratio(c.bubbles, c.ops),
                    bubble_share,
                    binomial(bubble_share, c.ops),
                ),
                ("load share", ratio(c.loads, instrs), p.load_frac, binomial(p.load_frac, instrs)),
                (
                    "store share",
                    ratio(c.stores, instrs),
                    p.store_frac,
                    binomial(p.store_frac, instrs),
                ),
                ("L2 share of loads", ratio(c.l2_loads, c.loads), m, l2_se),
                (
                    "cold share of burst loads",
                    ratio(c.cold_loads, c.l2_loads),
                    p.l2_miss_rate,
                    binomial(p.l2_miss_rate, c.l2_loads),
                ),
                ("mean burst", ratio(c.run_loads, c.runs), b, ((b * b - b) / c.runs as f64).sqrt()),
                (
                    "store locality",
                    ratio(c.repeated_stores, c.later_stores),
                    p.store_locality,
                    binomial(p.store_locality, c.later_stores),
                ),
            ];
            for (what, got, want, se) in checks {
                failures.extend(near(name, what, got, want, se).err());
            }
        }
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }
}

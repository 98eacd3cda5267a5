//! Experiment runners regenerating the paper's evaluation.
//!
//! One module per figure/table of the evaluation section, plus the
//! ablations DESIGN.md calls out. Every number a figure plots comes from
//! a [`Cell`]: either a shared-machine run ([`Cell::shared`]) or a §5.3
//! target, the private machine with `1/beta` latencies and `alpha * ways`
//! ways ([`Cell::target`]). A runner lists its labelled cells, calls
//! [`run_cells`] once, and folds the results into its typed result, whose
//! `Display` prints the same rows or series the paper reports.
//! [`run_cells`] simulates each distinct cell once, so a figure that lists
//! the same target under several mixes pays for it once.
//!
//! Each runner takes a [`RunOptions`]: its [`RunBudget`] sizes the cells'
//! windows (tests use short ones, the figure binaries full-length ones),
//! and its worker count sizes the batch's thread pool.
//!
//! | Runner | Paper content |
//! |---|---|
//! | [`fig4::run`] | Figure 4: back-to-back reads to two banks |
//! | [`fig5::run`] | Figure 5: microbenchmark utilization vs. bank count |
//! | [`fig6::run`] | Figure 6: SPEC solo L2 utilization |
//! | [`fig7::run`] | Figure 7: L2 write fraction and store gathering rate |
//! | [`fig8::run`] | Figure 8: Loads+Stores under each arbiter, with targets |
//! | [`fig9::run`] | Figure 9: SPEC subject vs. 3 Stores, differentiated service |
//! | [`fig10::run`] | §1/§5 headline: heterogeneous mixes, FCFS vs. VPC |
//! | [`ablations`] | reordering, capacity, preemption latency, work conservation |

use vpc_sim::exec::{self, Job};
use vpc_sim::{trace, Share, ThreadId};

use crate::config::{CmpConfig, WorkloadSpec};
use crate::metrics::QosLedger;
use crate::system::{CmpSystem, Measurement};

pub mod ablations;
pub mod fig10;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;

/// Simulation window sizes shared by all experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunBudget {
    /// Warm-up cycles excluded from measurement.
    pub warmup: u64,
    /// Measured cycles.
    pub window: u64,
}

impl RunBudget {
    /// Full-length runs for the figure binaries.
    pub const fn standard() -> RunBudget {
        RunBudget { warmup: 60_000, window: 240_000 }
    }

    /// Short runs for tests.
    pub const fn quick() -> RunBudget {
        RunBudget { warmup: 10_000, window: 40_000 }
    }
}

impl Default for RunBudget {
    fn default() -> Self {
        RunBudget::standard()
    }
}

/// How a runner executes its cells: the simulation windows and the number
/// of worker threads. The worker count changes only wall-clock time,
/// never a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Simulation windows of every cell.
    pub budget: RunBudget,
    /// Worker threads for the job batch (see [`vpc_sim::exec::map_indexed`]).
    pub jobs: usize,
}

/// One simulation of a figure: a machine, one workload per processor, and
/// the windows it runs for. A cell is a pure function of these three, so
/// two equal cells measure the same numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The machine.
    pub cfg: CmpConfig,
    /// One workload per processor.
    pub workloads: Vec<WorkloadSpec>,
    /// Warm-up and measured windows.
    pub budget: RunBudget,
}

impl Cell {
    /// A shared-machine cell: `cfg` with one processor, and one L2 thread,
    /// per workload.
    pub fn shared(cfg: CmpConfig, workloads: Vec<WorkloadSpec>, budget: RunBudget) -> Cell {
        Cell { cfg: cfg.with_processors(workloads.len()), workloads, budget }
    }

    /// The §5.3 target cell: `workload` alone on the private machine
    /// equivalent to a VPC with bandwidth share `beta` and capacity share
    /// `alpha` ([`CmpConfig::private_machine`]). `None` when `beta` is
    /// zero: a thread with no bandwidth allocation has no guarantee, and
    /// its target is 0.0 (the paper's Figure 8 "VPC 0%" configuration).
    pub fn target(
        base: &CmpConfig,
        workload: WorkloadSpec,
        beta: Share,
        alpha: Share,
        budget: RunBudget,
    ) -> Option<Cell> {
        (!beta.is_zero()).then(|| Cell {
            cfg: base.private_machine(beta, alpha),
            workloads: vec![workload],
            budget,
        })
    }

    /// Builds the cell's machine, runs its warm-up and measures its window.
    pub fn run(&self) -> (CmpSystem, Measurement) {
        self.run_with_ledger(None)
    }

    /// [`Cell::run`], also filling `ledger`, when given, from the measured
    /// window: the data-array service each thread received in every full
    /// ledger window, out of window cycles × banks (the denominator of
    /// [`CmpSystem::measure`]). A trailing partial window is not recorded.
    ///
    /// This is where every simulation's warm-up ends. A trace recorder
    /// armed on the calling thread (the exec pool's per-job capture, or
    /// [`trace::install`]) is set aside for the warm-up and re-armed, empty
    /// and at its capacity, when the measured window starts, so a trace is
    /// a prefix of the measured window.
    ///
    /// # Panics
    ///
    /// Panics unless `ledger` tracks one thread per processor.
    pub fn run_with_ledger(&self, ledger: Option<&mut QosLedger>) -> (CmpSystem, Measurement) {
        let mut sys = CmpSystem::new(self.cfg.clone(), &self.workloads);
        let recorder = trace::take();
        sys.run(self.budget.warmup);
        if let Some(log) = recorder {
            trace::install(log.capacity());
        }
        let snap = sys.snapshot();
        let mut left = self.budget.window;
        if let Some(ledger) = ledger {
            assert_eq!(ledger.threads(), self.workloads.len(), "one ledger entry per thread");
            let step = ledger.window().max(1);
            let threads = 0..self.workloads.len() as u8;
            let busy = |sys: &CmpSystem, t| sys.l2().thread_data_busy(ThreadId(t));
            while left >= step {
                let before: Vec<u64> = threads.clone().map(|t| busy(&sys, t)).collect();
                sys.run(step);
                let service: Vec<u64> =
                    threads.clone().map(|t| busy(&sys, t) - before[t as usize]).collect();
                ledger.record_window(&service, step * self.cfg.l2.banks as u64);
                left -= step;
            }
        }
        sys.run(left);
        let m = sys.measure(&snap);
        (sys, m)
    }
}

/// Runs labelled cells as one [`exec::map_indexed`] batch and returns
/// `run`'s result for each, one per input cell, in input order.
///
/// Each distinct cell (by `==` on the whole cell) is simulated once, as a
/// job carrying the label of its first occurrence; a repeated cell gets a
/// copy of that result. `run` simulates the cell it is given, with
/// [`Cell::run`] or [`Cell::run_with_ledger`], and keeps what the caller
/// needs of the finished system and its window's [`Measurement`].
pub fn run_cells<T: Clone + Send>(
    cells: &[(String, Cell)],
    opts: RunOptions,
    run: impl Fn(&Cell) -> T + Sync,
) -> Vec<T> {
    let mut distinct: Vec<&(String, Cell)> = Vec::new();
    let slots: Vec<usize> = cells
        .iter()
        .map(|labelled| {
            distinct.iter().position(|d| d.1 == labelled.1).unwrap_or_else(|| {
                distinct.push(labelled);
                distinct.len() - 1
            })
        })
        .collect();
    let run = &run;
    let jobs = distinct
        .into_iter()
        .map(|(label, cell)| Job::new(label.clone(), move || run(cell)))
        .collect();
    let results = exec::map_indexed(jobs, opts.jobs);
    slots.into_iter().map(|i| results[i].clone()).collect()
}

/// Runs each benchmark alone on `base`, one cell labelled
/// `{figure}/{benchmark}` each, and returns their measurements in order.
pub(crate) fn run_solo(
    base: &CmpConfig,
    figure: &str,
    benchmarks: &[&'static str],
    opts: RunOptions,
) -> Vec<Measurement> {
    let cells: Vec<(String, Cell)> = benchmarks
        .iter()
        .map(|&b| {
            let cell = Cell::shared(base.clone(), vec![WorkloadSpec::Spec(b)], opts.budget);
            (format!("{figure}/{b}"), cell)
        })
        .collect();
    run_cells(&cells, opts, |cell| cell.run().1)
}

/// Formats a fraction as a percent with one decimal (figure axes).
pub(crate) fn pct(x: f64) -> String {
    format!("{:5.1}%", x * 100.0)
}

/// Renders a `[0, 1]` fraction as a fixed-width ASCII bar (figure bars).
pub(crate) fn bar(x: f64, width: usize) -> String {
    let filled = ((x.clamp(0.0, 1.0) * width as f64).round() as usize).min(width);
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpc_arbiters::ArbiterPolicy;
    use vpc_sim::check::{self, Config};
    use vpc_sim::{ensure, ensure_eq, SplitMix64};

    /// Six distinct cells, each a few thousand cycles long. The first three
    /// differ only in their workload, and the first and last only in their
    /// budget.
    fn pool() -> Vec<Cell> {
        let mut base = CmpConfig::table1();
        base.l2.total_sets = 512;
        let budget = RunBudget { warmup: 1_000, window: 3_000 };
        let half = Share::new(1, 2).unwrap();
        let (loads, stores) = (WorkloadSpec::Loads, WorkloadSpec::Stores);
        vec![
            Cell::shared(base.clone(), vec![loads], budget),
            Cell::shared(base.clone(), vec![stores], budget),
            Cell::shared(base.clone(), vec![WorkloadSpec::Spec("gcc")], budget),
            Cell::target(&base, loads, half, half, budget).unwrap(),
            Cell::shared(
                base.clone().with_arbiter(ArbiterPolicy::Fcfs),
                vec![loads, stores],
                budget,
            ),
            Cell::shared(base, vec![loads], RunBudget { warmup: 1_000, window: 2_000 }),
        ]
    }

    /// A random list of 1 to 12 pool indices, with repeats, each labelled
    /// by its position.
    fn draw(rng: &mut SplitMix64, pool: &[Cell]) -> (Vec<usize>, Vec<(String, Cell)>) {
        let picks: Vec<usize> =
            (0..1 + rng.below(12)).map(|_| rng.below(pool.len() as u64) as usize).collect();
        let cells = picks.iter().enumerate().map(|(i, &k)| (format!("c{k}/{i}"), pool[k].clone()));
        (picks.clone(), cells.collect())
    }

    fn debug_run(cells: &[(String, Cell)], jobs: usize) -> Vec<String> {
        let opts = RunOptions { budget: RunBudget::quick(), jobs };
        run_cells(cells, opts, |cell| format!("{:?}", cell.run().1))
    }

    #[test]
    fn each_distinct_cell_runs_once_under_its_first_label() {
        let pool = pool();
        exec::take_timings();
        check::forall("each_distinct_cell_runs_once", Config::cases(16), |rng| {
            let (picks, cells) = draw(rng, &pool);
            debug_run(&cells, 2);
            let mut first = Vec::new();
            for (i, &k) in picks.iter().enumerate() {
                if !picks[..i].contains(&k) {
                    first.push(format!("c{k}/{i}"));
                }
            }
            let ran: Vec<String> = exec::take_timings().into_iter().map(|t| t.label).collect();
            ensure_eq!(ran, first, "jobs for picks {picks:?}");
            Ok(())
        });
    }

    #[test]
    fn every_cell_gets_its_solo_result() {
        let pool = pool();
        let solo: Vec<String> = pool.iter().map(|c| format!("{:?}", c.run().1)).collect();
        check::forall("every_cell_gets_its_solo_result", Config::cases(16), |rng| {
            let (picks, cells) = draw(rng, &pool);
            for (i, got) in debug_run(&cells, 2).iter().enumerate() {
                ensure!(
                    *got == solo[picks[i]],
                    "cell {i} (pool {}) differs from its solo run",
                    picks[i]
                );
            }
            Ok(())
        });
    }

    #[test]
    fn results_are_independent_of_jobs() {
        let pool = pool();
        check::forall("run_cells_results_are_independent_of_jobs", Config::cases(16), |rng| {
            let (_, cells) = draw(rng, &pool);
            ensure!(debug_run(&cells, 1) == debug_run(&cells, 4), "jobs 1 and 4 differ");
            Ok(())
        });
    }

    /// The §5.3 target IPC of `workload` at shares `(beta, alpha)` on the
    /// pool's base machine: 0.0 without a bandwidth share.
    fn target(workload: WorkloadSpec, beta: Share, alpha: Share, budget: RunBudget) -> f64 {
        let mut base = CmpConfig::table1();
        base.l2.total_sets = 512;
        Cell::target(&base, workload, beta, alpha, budget).map_or(0.0, |cell| cell.run().1.ipc[0])
    }

    #[test]
    fn zero_share_has_zero_target() {
        let budget = RunBudget { warmup: 100, window: 100 };
        let t = target(WorkloadSpec::Loads, Share::ZERO, Share::FULL, budget);
        assert_eq!(t, 0.0);
    }

    #[test]
    fn target_scales_with_bandwidth_share() {
        let alpha = Share::new(1, 4).unwrap();
        let budget = RunBudget { warmup: 20_000, window: 40_000 };
        let full = target(WorkloadSpec::Loads, Share::FULL, alpha, budget);
        let half = target(WorkloadSpec::Loads, Share::new(1, 2).unwrap(), alpha, budget);
        assert!(full > 0.0 && half > 0.0);
        // The Loads microbenchmark is pure L2 bandwidth: halving the share
        // roughly halves the target.
        let ratio = full / half;
        assert!((1.6..=2.4).contains(&ratio), "bandwidth scaling ratio {ratio} != ~2");
    }

    #[test]
    fn target_is_monotone_in_share_for_stores() {
        let alpha = Share::new(1, 4).unwrap();
        let budget = RunBudget { warmup: 20_000, window: 40_000 };
        let shares = [Share::new(1, 4).unwrap(), Share::new(1, 2).unwrap(), Share::FULL];
        let targets: Vec<f64> =
            shares.iter().map(|&b| target(WorkloadSpec::Stores, b, alpha, budget)).collect();
        assert!(
            targets.windows(2).all(|w| w[0] <= w[1] * 1.05),
            "targets should increase with share: {targets:?}"
        );
    }

    #[test]
    fn pct_formats_percentages() {
        assert_eq!(pct(0.265), " 26.5%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn bar_renders_clamped() {
        assert_eq!(bar(0.5, 10), "#####.....");
        assert_eq!(bar(0.0, 4), "....");
        assert_eq!(bar(1.5, 4), "####");
    }
}

//! Figure 7: percentage of L2 requests that are writes, and the store
//! gathering rate.
//!
//! The paper reports that, after gathering, writes account for ~55% of all
//! L2 requests on average, and ~80% of stores gather with other stores in
//! the store gathering buffer (so a write-through L1 plus gathering is
//! nearly as bandwidth-efficient as a write-back cache).

use std::fmt;

use vpc_sim::exec::{self, Job};
use vpc_workloads::SPEC_NAMES;

use crate::config::{CmpConfig, WorkloadSpec};
use crate::experiments::{pct, RunOptions};
use crate::system::CmpSystem;

/// One benchmark's pair of bars.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Row {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Fraction of L2 requests (after gathering) that are writes.
    pub l2_write_frac: f64,
    /// Fraction of stores gathered with other stores.
    pub gathering_rate: f64,
}

/// The full Figure 7 series.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Result {
    /// One row per benchmark.
    pub rows: Vec<Fig7Row>,
}

impl Fig7Result {
    /// Finds a benchmark's row.
    pub fn row(&self, benchmark: &str) -> Option<&Fig7Row> {
        self.rows.iter().find(|r| r.benchmark == benchmark)
    }

    /// Mean write fraction (paper: ~55%).
    pub fn mean_write_frac(&self) -> f64 {
        self.rows.iter().map(|r| r.l2_write_frac).sum::<f64>() / self.rows.len() as f64
    }

    /// Mean gathering rate (paper: ~80%).
    pub fn mean_gathering(&self) -> f64 {
        self.rows.iter().map(|r| r.gathering_rate).sum::<f64>() / self.rows.len() as f64
    }
}

impl fmt::Display for Fig7Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 7: L2 Writes and Store Gathering Rate")?;
        writeln!(f, "{:<10} {:>12} {:>16}", "benchmark", "L2 writes", "gathering rate")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<10} {:>12} {:>16}",
                r.benchmark,
                pct(r.l2_write_frac),
                pct(r.gathering_rate)
            )?;
        }
        writeln!(
            f,
            "mean: writes {} (paper ~55%), gathering {} (paper ~80%)",
            pct(self.mean_write_frac()),
            pct(self.mean_gathering())
        )
    }
}

/// Runs the full series (each benchmark alone on the baseline cache), one
/// parallel job per benchmark.
pub fn run(base: &CmpConfig, opts: RunOptions) -> Fig7Result {
    let budget = opts.budget;
    let jobs = SPEC_NAMES
        .iter()
        .map(|&benchmark| {
            Job::new(format!("fig7/{benchmark}"), move || {
                let mut cfg = base.clone();
                cfg.processors = 1;
                cfg.l2.threads = 1;
                let mut sys = CmpSystem::new(cfg, &[WorkloadSpec::Spec(benchmark)]);
                let m = sys.run_measured(budget.warmup, budget.window);
                Fig7Row {
                    benchmark,
                    l2_write_frac: m.l2_write_frac[0],
                    gathering_rate: m.gathering_rate[0],
                }
            })
        })
        .collect();
    Fig7Result { rows: exec::map_indexed(jobs, opts.jobs) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::RunBudget;

    fn quick_rows(benchmarks: &[&'static str]) -> Vec<Fig7Row> {
        let base = CmpConfig::table1();
        let budget = RunBudget::quick();
        benchmarks
            .iter()
            .map(|b| {
                let mut cfg = base.clone();
                cfg.processors = 1;
                cfg.l2.threads = 1;
                let mut sys = CmpSystem::new(cfg, &[WorkloadSpec::Spec(b)]);
                let m = sys.run_measured(budget.warmup, budget.window);
                Fig7Row {
                    benchmark: b,
                    l2_write_frac: m.l2_write_frac[0],
                    gathering_rate: m.gathering_rate[0],
                }
            })
            .collect()
    }

    #[test]
    fn gathering_rates_are_high_for_local_stores() {
        let rows = quick_rows(&["gzip", "mesa"]);
        for r in &rows {
            assert!(
                r.gathering_rate > 0.6,
                "{}: store locality should gather >60%, got {:.2}",
                r.benchmark,
                r.gathering_rate
            );
        }
    }

    #[test]
    fn streaming_benchmarks_have_few_writes() {
        let rows = quick_rows(&["swim", "mesa"]);
        let swim = rows[0];
        let mesa = rows[1];
        assert!(
            swim.l2_write_frac < mesa.l2_write_frac,
            "swim ({:.2}) writes less of its L2 traffic than mesa ({:.2})",
            swim.l2_write_frac,
            mesa.l2_write_frac
        );
    }
}

//! Figure 6: L2 cache utilization of the SPEC benchmarks (solo).
//!
//! Each synthetic SPEC profile runs alone on the baseline 2-bank cache.
//! The paper's shape: data-array utilization dominates for most
//! benchmarks, averages around 26% of a cache bank's bandwidth, and for
//! the streaming benchmarks (equake, swim) the *tag* array is busier than
//! the data array because misses perform multiple tag accesses.

use std::fmt;

use vpc_cache::L2Utilization;
use vpc_sim::exec::{self, Job};
use vpc_workloads::SPEC_NAMES;

use crate::config::{CmpConfig, WorkloadSpec};
use crate::experiments::{bar, pct, RunBudget, RunOptions};
use crate::json::{JsonValue, ToJson};
use crate::system::CmpSystem;

/// One benchmark's bar group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Row {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Solo utilization of the three shared resources.
    pub util: L2Utilization,
    /// Solo IPC (used by later figures for normalization).
    pub ipc: f64,
}

/// The full Figure 6 series, in the paper's plotting order.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Result {
    /// One row per SPEC benchmark.
    pub rows: Vec<Fig6Row>,
}

impl Fig6Result {
    /// Finds a benchmark's row.
    pub fn row(&self, benchmark: &str) -> Option<&Fig6Row> {
        self.rows.iter().find(|r| r.benchmark == benchmark)
    }

    /// Mean data-array utilization (the paper reports ~26%).
    pub fn mean_data_util(&self) -> f64 {
        self.rows.iter().map(|r| r.util.data_array).sum::<f64>() / self.rows.len() as f64
    }
}

impl fmt::Display for Fig6Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 6: SPEC L2 Cache Utilization (solo, 2 banks)")?;
        writeln!(f, "{:<10} {:>10} {:>10} {:>10} {:>8}", "benchmark", "data", "bus", "tag", "IPC")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<10} {:>10} {:>10} {:>10} {:>8.3}  {}",
                r.benchmark,
                pct(r.util.data_array),
                pct(r.util.data_bus),
                pct(r.util.tag_array),
                r.ipc,
                bar(r.util.data_array, 24),
            )?;
        }
        writeln!(f, "mean data-array utilization: {} (paper: ~26%)", pct(self.mean_data_util()))
    }
}

impl ToJson for Fig6Result {
    fn to_json_value(&self) -> JsonValue {
        let rows = self.rows.iter().map(|r| {
            JsonValue::object([
                ("benchmark", JsonValue::from(r.benchmark)),
                ("data_array", JsonValue::from(r.util.data_array)),
                ("data_bus", JsonValue::from(r.util.data_bus)),
                ("tag_array", JsonValue::from(r.util.tag_array)),
                ("ipc", JsonValue::from(r.ipc)),
            ])
        });
        JsonValue::object([
            ("rows", JsonValue::array(rows)),
            ("mean_data_util", JsonValue::from(self.mean_data_util())),
        ])
    }
}

/// Runs one benchmark alone on the baseline cache and returns its row.
pub fn run_one(base: &CmpConfig, benchmark: &'static str, budget: RunBudget) -> Fig6Row {
    let mut cfg = base.clone();
    cfg.processors = 1;
    cfg.l2.threads = 1;
    let mut sys = CmpSystem::new(cfg, &[WorkloadSpec::Spec(benchmark)]);
    let m = sys.run_measured(budget.warmup, budget.window);
    Fig6Row { benchmark, util: m.util, ipc: m.ipc[0] }
}

/// Runs the full 18-benchmark series, one parallel job per benchmark.
pub fn run(base: &CmpConfig, opts: RunOptions) -> Fig6Result {
    let budget = opts.budget;
    let jobs = SPEC_NAMES
        .iter()
        .map(|&b| Job::new(format!("fig6/{b}"), move || run_one(base, b, budget)))
        .collect();
    Fig6Result { rows: exec::map_indexed(jobs, opts.jobs) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggressive_benchmarks_use_more_data_bandwidth() {
        let base = CmpConfig::table1();
        let budget = RunBudget::quick();
        let art = run_one(&base, "art", budget);
        let sixtrack = run_one(&base, "sixtrack", budget);
        assert!(
            art.util.data_array > 2.0 * sixtrack.util.data_array,
            "art ({:.3}) should dwarf sixtrack ({:.3})",
            art.util.data_array,
            sixtrack.util.data_array
        );
    }

    #[test]
    fn streaming_benchmarks_invert_tag_vs_data() {
        let base = CmpConfig::table1();
        let budget = RunBudget::quick();
        let swim = run_one(&base, "swim", budget);
        assert!(
            swim.util.tag_array > swim.util.data_array * 0.9,
            "swim's misses make the tag array at least as busy as data: {:?}",
            swim.util
        );
        let crafty = run_one(&base, "crafty", budget);
        assert!(
            crafty.util.data_array > crafty.util.tag_array,
            "hit-dominated crafty keeps the data array busier: {:?}",
            crafty.util
        );
    }
}

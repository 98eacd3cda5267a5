//! Figure 6: L2 cache utilization of the SPEC benchmarks (solo).
//!
//! Each synthetic SPEC profile runs alone on the baseline 2-bank cache.
//! The paper's shape: data-array utilization dominates for most
//! benchmarks, averages around 26% of a cache bank's bandwidth, and for
//! the streaming benchmarks (equake, swim) the *tag* array is busier than
//! the data array because misses perform multiple tag accesses.

use std::fmt;

use vpc_cache::L2Utilization;
use vpc_workloads::SPEC_NAMES;

use crate::config::CmpConfig;
use crate::experiments::{bar, pct, solo_cells, Plan, RunBudget};
use crate::json::{JsonValue, ToJson};
use crate::metrics::mean;

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
        mean(&self.rows.iter().map(|r| r.util.data_array).collect::<Vec<_>>())
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

/// The full 18-benchmark series, one cell per benchmark alone on the
/// baseline cache.
pub fn plan(base: &CmpConfig, budget: RunBudget) -> Plan<Fig6Result> {
    Plan::new(solo_cells(base, "fig6", &SPEC_NAMES, budget), |records| Fig6Result {
        rows: SPEC_NAMES
            .iter()
            .zip(records)
            .map(|(&benchmark, r)| Fig6Row { benchmark, util: r.m.util, ipc: r.m.ipc[0] })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadSpec;
    use crate::experiments::{Cell, Observe};

    /// `benchmark` alone on the baseline cache at the quick budget.
    fn solo(benchmark: &'static str) -> L2Utilization {
        let workloads = vec![WorkloadSpec::Spec(benchmark)];
        Cell::shared(CmpConfig::table1(), workloads, RunBudget::quick())
            .run(Observe::default())
            .m
            .util
    }

    #[test]
    fn aggressive_benchmarks_use_more_data_bandwidth() {
        let (art, sixtrack) = (solo("art"), solo("sixtrack"));
        assert!(
            art.data_array > 2.0 * sixtrack.data_array,
            "art ({:.3}) should dwarf sixtrack ({:.3})",
            art.data_array,
            sixtrack.data_array
        );
    }

    #[test]
    fn streaming_benchmarks_invert_tag_vs_data() {
        let swim = solo("swim");
        assert!(
            swim.tag_array > swim.data_array * 0.9,
            "swim's misses make the tag array at least as busy as data: {swim:?}"
        );
        let crafty = solo("crafty");
        assert!(
            crafty.data_array > crafty.tag_array,
            "hit-dominated crafty keeps the data array busier: {crafty:?}"
        );
    }
}

//! Figure 7: percentage of L2 requests that are writes, and the store
//! gathering rate.
//!
//! The paper reports that, after gathering, writes account for ~55% of all
//! L2 requests on average, and ~80% of stores gather with other stores in
//! the store gathering buffer (so a write-through L1 plus gathering is
//! nearly as bandwidth-efficient as a write-back cache).

use std::fmt;

use crate::config::CmpConfig;
use crate::experiments::{pct, solo_cells, Plan, RunBudget};
use crate::json::{JsonValue, ToJson};
use crate::metrics::mean;

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
        mean(&self.rows.iter().map(|r| r.l2_write_frac).collect::<Vec<_>>())
    }

    /// Mean gathering rate (paper: ~80%).
    pub fn mean_gathering(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.gathering_rate).collect::<Vec<_>>())
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

impl ToJson for Fig7Result {
    fn to_json_value(&self) -> JsonValue {
        // Rows render as 3-element arrays, matching the historical shape of
        // `results/fig7_store_gathering.json`.
        let rows = self.rows.iter().map(|r| {
            JsonValue::Array(vec![
                JsonValue::from(r.benchmark),
                JsonValue::from(r.l2_write_frac),
                JsonValue::from(r.gathering_rate),
            ])
        });
        JsonValue::object([
            ("rows", JsonValue::array(rows)),
            ("mean_write_frac", JsonValue::from(self.mean_write_frac())),
            ("mean_gathering", JsonValue::from(self.mean_gathering())),
        ])
    }
}

/// The series for `benchmarks` (pass [`vpc_workloads::SPEC_NAMES`] for
/// the paper's full set), one cell per benchmark alone on the baseline
/// cache.
pub fn plan(base: &CmpConfig, benchmarks: &[&'static str], budget: RunBudget) -> Plan<Fig7Result> {
    let cells = solo_cells(base, "fig7", benchmarks, budget);
    let benchmarks = benchmarks.to_vec();
    Plan::new(cells, move |records| Fig7Result {
        rows: benchmarks
            .into_iter()
            .zip(records)
            .map(|(benchmark, r)| Fig7Row {
                benchmark,
                l2_write_frac: r.m.l2_write_frac[0],
                gathering_rate: r.m.gathering_rate[0],
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::to_json;

    fn quick_rows(benchmarks: &[&'static str]) -> Vec<Fig7Row> {
        plan(&CmpConfig::table1(), benchmarks, RunBudget::quick()).run(2).rows
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

    /// Rows serialize as plain JSON arrays.
    #[test]
    fn fig7_rows_serialize_as_arrays() {
        let result = Fig7Result {
            rows: vec![Fig7Row { benchmark: "gcc", l2_write_frac: 0.55, gathering_rate: 0.8 }],
        };
        let got = to_json(&result);
        assert!(
            got.contains("\"rows\": [\n    [\n      \"gcc\",\n      0.55,\n      0.8\n    ]\n  ]")
        );
        assert!(got.contains("\"mean_write_frac\": 0.55"));
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

//! Machine-readable experiment reports.
//!
//! Each figure runner's typed result converts into a flat report that
//! implements [`ToJson`], so downstream tooling (plotting scripts,
//! regression tracking) can consume `--json` output from the `vpc-bench`
//! binaries. Serialization is handled by the in-tree [`crate::json`]
//! emitter — the workspace is hermetic and uses no external crates.

use std::fmt;
use std::time::Duration;

use vpc_sim::exec;

use crate::experiments::{fig10, fig5, fig6, fig7, fig8, fig9};
pub use crate::json::{JsonValue, ToJson};

/// One utilization sample.
#[derive(Debug, Clone)]
pub struct UtilizationReport {
    /// Row label (benchmark, or "benchmark NB").
    pub label: String,
    /// Tag array utilization in `[0, 1]`.
    pub tag_array: f64,
    /// Data array utilization in `[0, 1]`.
    pub data_array: f64,
    /// Data bus utilization in `[0, 1]`.
    pub data_bus: f64,
}

/// Figure 5 as a flat series.
#[derive(Debug, Clone)]
pub struct Fig5Report {
    /// One entry per (benchmark, banks) point.
    pub rows: Vec<UtilizationReport>,
}

impl From<&fig5::Fig5Result> for Fig5Report {
    fn from(r: &fig5::Fig5Result) -> Self {
        Fig5Report {
            rows: r
                .rows
                .iter()
                .map(|row| UtilizationReport {
                    label: format!("{} {}B", row.benchmark, row.banks),
                    tag_array: row.util.tag_array,
                    data_array: row.util.data_array,
                    data_bus: row.util.data_bus,
                })
                .collect(),
        }
    }
}

/// Figure 6 as a flat series (adds the solo IPC).
#[derive(Debug, Clone)]
pub struct Fig6Report {
    /// One entry per benchmark.
    pub rows: Vec<Fig6RowReport>,
    /// Mean data-array utilization (paper: ~26%).
    pub mean_data_util: f64,
}

/// One Figure 6 row.
#[derive(Debug, Clone)]
pub struct Fig6RowReport {
    /// Benchmark name.
    pub benchmark: String,
    /// Data array utilization.
    pub data_array: f64,
    /// Data bus utilization.
    pub data_bus: f64,
    /// Tag array utilization.
    pub tag_array: f64,
    /// Solo IPC.
    pub ipc: f64,
}

impl From<&fig6::Fig6Result> for Fig6Report {
    fn from(r: &fig6::Fig6Result) -> Self {
        Fig6Report {
            rows: r
                .rows
                .iter()
                .map(|row| Fig6RowReport {
                    benchmark: row.benchmark.to_string(),
                    data_array: row.util.data_array,
                    data_bus: row.util.data_bus,
                    tag_array: row.util.tag_array,
                    ipc: row.ipc,
                })
                .collect(),
            mean_data_util: r.mean_data_util(),
        }
    }
}

/// Figure 7 as a flat series.
#[derive(Debug, Clone)]
pub struct Fig7Report {
    /// One entry per benchmark: (name, write fraction, gathering rate).
    pub rows: Vec<(String, f64, f64)>,
    /// Mean write fraction (paper: ~55%).
    pub mean_write_frac: f64,
    /// Mean gathering rate (paper: ~80%).
    pub mean_gathering: f64,
}

impl From<&fig7::Fig7Result> for Fig7Report {
    fn from(r: &fig7::Fig7Result) -> Self {
        Fig7Report {
            rows: r
                .rows
                .iter()
                .map(|row| (row.benchmark.to_string(), row.l2_write_frac, row.gathering_rate))
                .collect(),
            mean_write_frac: r.mean_write_frac(),
            mean_gathering: r.mean_gathering(),
        }
    }
}

/// Figure 8 as a flat series.
#[derive(Debug, Clone)]
pub struct Fig8Report {
    /// One entry per arbiter configuration.
    pub rows: Vec<Fig8RowReport>,
}

/// One Figure 8 row.
#[derive(Debug, Clone)]
pub struct Fig8RowReport {
    /// Arbiter label.
    pub arbiter: String,
    /// Loads IPC.
    pub loads_ipc: f64,
    /// Loads target IPC (0 for non-VPC arbiters).
    pub loads_target: f64,
    /// Stores IPC.
    pub stores_ipc: f64,
    /// Stores target IPC.
    pub stores_target: f64,
    /// Data-array utilization.
    pub data_util: f64,
}

impl From<&fig8::Fig8Result> for Fig8Report {
    fn from(r: &fig8::Fig8Result) -> Self {
        Fig8Report {
            rows: r
                .rows
                .iter()
                .map(|row| Fig8RowReport {
                    arbiter: row.label.clone(),
                    loads_ipc: row.loads_ipc,
                    loads_target: row.loads_target,
                    stores_ipc: row.stores_ipc,
                    stores_target: row.stores_target,
                    data_util: row.data_util,
                })
                .collect(),
        }
    }
}

/// Figure 9 as a flat series.
#[derive(Debug, Clone)]
pub struct Fig9Report {
    /// One entry per subject benchmark.
    pub rows: Vec<Fig9RowReport>,
    /// Fraction of subjects meeting every QoS target (5% slack).
    pub qos_met_fraction: f64,
}

/// One Figure 9 row (all IPCs normalized to the beta=1 target).
#[derive(Debug, Clone)]
pub struct Fig9RowReport {
    /// Subject benchmark.
    pub benchmark: String,
    /// Normalized IPC under FCFS.
    pub fcfs: f64,
    /// Normalized IPC at beta = 1/4.
    pub vpc25: f64,
    /// Normalized IPC at beta = 1/2.
    pub vpc50: f64,
    /// Normalized IPC at beta = 1.
    pub vpc100: f64,
    /// Normalized target at beta = 1/4.
    pub target25: f64,
    /// Normalized target at beta = 1/2.
    pub target50: f64,
    /// Subject's data-array utilization share under FCFS / VPC 25/50/100.
    pub utils: [f64; 4],
}

impl From<&fig9::Fig9Result> for Fig9Report {
    fn from(r: &fig9::Fig9Result) -> Self {
        Fig9Report {
            rows: r
                .rows
                .iter()
                .map(|row| Fig9RowReport {
                    benchmark: row.benchmark.to_string(),
                    fcfs: row.fcfs_norm,
                    vpc25: row.vpc25_norm,
                    vpc50: row.vpc50_norm,
                    vpc100: row.vpc100_norm,
                    target25: row.target25_norm,
                    target50: row.target50_norm,
                    utils: [row.fcfs_util, row.vpc25_util, row.vpc50_util, row.vpc100_util],
                })
                .collect(),
            qos_met_fraction: r.qos_met_fraction(0.05),
        }
    }
}

/// The headline experiment as a flat series.
#[derive(Debug, Clone)]
pub struct Fig10Report {
    /// One entry per mix.
    pub mixes: Vec<MixReport>,
    /// Mean harmonic-mean improvement, percent (paper: ~14%).
    pub hmean_improvement_pct: f64,
    /// Mean minimum-normalized-IPC improvement, percent (paper: ~25%).
    pub min_improvement_pct: f64,
}

/// One mix's numbers.
#[derive(Debug, Clone)]
pub struct MixReport {
    /// The four benchmarks.
    pub mix: Vec<String>,
    /// Target-normalized IPCs under FCFS.
    pub fcfs_norm: Vec<f64>,
    /// Target-normalized IPCs under VPC.
    pub vpc_norm: Vec<f64>,
}

impl From<&fig10::Fig10Result> for Fig10Report {
    fn from(r: &fig10::Fig10Result) -> Self {
        Fig10Report {
            mixes: r
                .mixes
                .iter()
                .map(|m| MixReport {
                    mix: m.mix.iter().map(|s| s.to_string()).collect(),
                    fcfs_norm: m.fcfs_norm.clone(),
                    vpc_norm: m.vpc_norm.clone(),
                })
                .collect(),
            hmean_improvement_pct: r.hmean_improvement_pct(),
            min_improvement_pct: r.min_improvement_pct(),
        }
    }
}

/// Serializes any report to pretty JSON.
pub fn to_json<T: ToJson>(report: &T) -> String {
    report.to_json_value().pretty()
}

/// Aggregated wall-clock cost of all jobs sharing one label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingRow {
    /// The job label (e.g. `fig6/art`).
    pub label: String,
    /// How many jobs ran under this label.
    pub runs: u64,
    /// Total wall-clock time across those runs.
    pub total: Duration,
}

/// Where simulation time went: per-job wall-clock timings drained from
/// the [`exec`] layer, aggregated by label.
///
/// Timing is measurement noise, not figure data — the figure binaries
/// print this to stderr so `--json` stdout stays byte-identical across
/// `--jobs` settings and machines.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TimingReport {
    /// One row per distinct job label, slowest total first.
    pub rows: Vec<TimingRow>,
    /// Total simulation time across all jobs (sums worker time, so it can
    /// exceed wall-clock when jobs ran in parallel).
    pub total: Duration,
}

impl TimingReport {
    /// Drains every job timing the [`exec`] layer recorded for batches the
    /// current thread ran since the last drain, and aggregates it.
    pub fn drain() -> TimingReport {
        TimingReport::from_timings(exec::take_timings())
    }

    /// Aggregates an explicit timing list (exposed for tests).
    pub fn from_timings(timings: Vec<exec::JobTiming>) -> TimingReport {
        let mut rows: Vec<TimingRow> = Vec::new();
        let mut total = Duration::ZERO;
        for t in timings {
            total += t.elapsed;
            match rows.iter_mut().find(|r| r.label == t.label) {
                Some(row) => {
                    row.runs += 1;
                    row.total += t.elapsed;
                }
                None => rows.push(TimingRow { label: t.label, runs: 1, total: t.elapsed }),
            }
        }
        rows.sort_by(|a, b| b.total.cmp(&a.total).then_with(|| a.label.cmp(&b.label)));
        TimingReport { rows, total }
    }

    /// Number of jobs behind the report.
    pub fn jobs(&self) -> u64 {
        self.rows.iter().map(|r| r.runs).sum()
    }

    /// True when no job timings were recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for TimingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "simulation time by job: {} job(s), {:.3} s total",
            self.jobs(),
            self.total.as_secs_f64()
        )?;
        for row in self.rows.iter().take(12) {
            writeln!(
                f,
                "  {:<44} {:>9.1} ms  x{}",
                row.label,
                row.total.as_secs_f64() * 1e3,
                row.runs
            )?;
        }
        if self.rows.len() > 12 {
            writeln!(f, "  ... {} more label(s)", self.rows.len() - 12)?;
        }
        Ok(())
    }
}

impl ToJson for TimingRow {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object([
            ("label", JsonValue::from(self.label.as_str())),
            ("runs", JsonValue::from(self.runs)),
            ("total_ms", JsonValue::from(self.total.as_secs_f64() * 1e3)),
        ])
    }
}

impl ToJson for TimingReport {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object([
            ("jobs", JsonValue::from(self.jobs())),
            ("total_ms", JsonValue::from(self.total.as_secs_f64() * 1e3)),
            ("rows", rows_json(&self.rows)),
        ])
    }
}

impl ToJson for UtilizationReport {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object([
            ("label", JsonValue::from(self.label.as_str())),
            ("tag_array", JsonValue::from(self.tag_array)),
            ("data_array", JsonValue::from(self.data_array)),
            ("data_bus", JsonValue::from(self.data_bus)),
        ])
    }
}

impl ToJson for Fig5Report {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object([("rows", rows_json(&self.rows))])
    }
}

impl ToJson for Fig6RowReport {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object([
            ("benchmark", JsonValue::from(self.benchmark.as_str())),
            ("data_array", JsonValue::from(self.data_array)),
            ("data_bus", JsonValue::from(self.data_bus)),
            ("tag_array", JsonValue::from(self.tag_array)),
            ("ipc", JsonValue::from(self.ipc)),
        ])
    }
}

impl ToJson for Fig6Report {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object([
            ("rows", rows_json(&self.rows)),
            ("mean_data_util", JsonValue::from(self.mean_data_util)),
        ])
    }
}

impl ToJson for Fig7Report {
    fn to_json_value(&self) -> JsonValue {
        // Tuple rows render as 3-element arrays, matching the historical
        // shape of `results/fig7_store_gathering.json`.
        let rows = self
            .rows
            .iter()
            .map(|(name, write_frac, gathering)| {
                JsonValue::Array(vec![
                    JsonValue::from(name.as_str()),
                    JsonValue::from(*write_frac),
                    JsonValue::from(*gathering),
                ])
            })
            .collect();
        JsonValue::object([
            ("rows", JsonValue::Array(rows)),
            ("mean_write_frac", JsonValue::from(self.mean_write_frac)),
            ("mean_gathering", JsonValue::from(self.mean_gathering)),
        ])
    }
}

impl ToJson for Fig8RowReport {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object([
            ("arbiter", JsonValue::from(self.arbiter.as_str())),
            ("loads_ipc", JsonValue::from(self.loads_ipc)),
            ("loads_target", JsonValue::from(self.loads_target)),
            ("stores_ipc", JsonValue::from(self.stores_ipc)),
            ("stores_target", JsonValue::from(self.stores_target)),
            ("data_util", JsonValue::from(self.data_util)),
        ])
    }
}

impl ToJson for Fig8Report {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object([("rows", rows_json(&self.rows))])
    }
}

impl ToJson for Fig9RowReport {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object([
            ("benchmark", JsonValue::from(self.benchmark.as_str())),
            ("fcfs", JsonValue::from(self.fcfs)),
            ("vpc25", JsonValue::from(self.vpc25)),
            ("vpc50", JsonValue::from(self.vpc50)),
            ("vpc100", JsonValue::from(self.vpc100)),
            ("target25", JsonValue::from(self.target25)),
            ("target50", JsonValue::from(self.target50)),
            ("utils", JsonValue::array(self.utils.to_vec())),
        ])
    }
}

impl ToJson for Fig9Report {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object([
            ("rows", rows_json(&self.rows)),
            ("qos_met_fraction", JsonValue::from(self.qos_met_fraction)),
        ])
    }
}

impl ToJson for MixReport {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object([
            ("mix", JsonValue::array(self.mix.iter().map(String::as_str))),
            ("fcfs_norm", JsonValue::array(self.fcfs_norm.clone())),
            ("vpc_norm", JsonValue::array(self.vpc_norm.clone())),
        ])
    }
}

impl ToJson for Fig10Report {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object([
            ("mixes", rows_json(&self.mixes)),
            ("hmean_improvement_pct", JsonValue::from(self.hmean_improvement_pct)),
            ("min_improvement_pct", JsonValue::from(self.min_improvement_pct)),
        ])
    }
}

fn rows_json<T: ToJson>(rows: &[T]) -> JsonValue {
    JsonValue::Array(rows.iter().map(ToJson::to_json_value).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpc_cache::L2Utilization;

    #[test]
    fn fig5_report_flattens_rows() {
        let result = fig5::Fig5Result {
            rows: vec![fig5::Fig5Row {
                benchmark: "Loads",
                banks: 2,
                util: L2Utilization { tag_array: 0.5, data_array: 1.0, data_bus: 1.0 },
            }],
        };
        let report = Fig5Report::from(&result);
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].label, "Loads 2B");
        assert_eq!(report.rows[0].data_array, 1.0);
    }

    #[test]
    fn fig8_report_preserves_targets() {
        let result = fig8::Fig8Result {
            rows: vec![fig8::Fig8Row {
                label: "VPC 50%".into(),
                loads_ipc: 0.156,
                stores_ipc: 0.078,
                loads_target: 0.156,
                stores_target: 0.078,
                data_util: 1.0,
            }],
        };
        let report = Fig8Report::from(&result);
        assert_eq!(report.rows[0].arbiter, "VPC 50%");
        assert_eq!(report.rows[0].loads_target, 0.156);
    }

    #[test]
    fn fig10_report_carries_improvements() {
        let result = fig10::Fig10Result {
            mixes: vec![fig10::MixResult {
                mix: ["a", "b", "c", "d"],
                fcfs_norm: vec![1.0, 0.9, 1.1, 0.8],
                vpc_norm: vec![1.0, 1.0, 1.1, 1.0],
                fcfs_standalone: vec![0.5; 4],
                vpc_standalone: vec![0.5; 4],
            }],
        };
        let report = Fig10Report::from(&result);
        assert!(report.min_improvement_pct > 0.0);
        assert_eq!(report.mixes[0].mix, vec!["a", "b", "c", "d"]);
    }

    /// Golden output: a full figure-5 report serializes byte-for-byte in
    /// the shape the checked-in `results/fig5_micro_util.json` uses.
    #[test]
    fn fig5_json_matches_golden_shape() {
        let result = fig5::Fig5Result {
            rows: vec![
                fig5::Fig5Row {
                    benchmark: "Loads",
                    banks: 2,
                    util: L2Utilization { tag_array: 0.5, data_array: 1.0, data_bus: 1.0 },
                },
                fig5::Fig5Row {
                    benchmark: "Stores",
                    banks: 4,
                    util: L2Utilization {
                        tag_array: 0.25,
                        data_array: 0.22222916666666667,
                        data_bus: 0.125,
                    },
                },
            ],
        };
        let got = to_json(&Fig5Report::from(&result));
        let want = concat!(
            "{\n",
            "  \"rows\": [\n",
            "    {\n",
            "      \"label\": \"Loads 2B\",\n",
            "      \"tag_array\": 0.5,\n",
            "      \"data_array\": 1.0,\n",
            "      \"data_bus\": 1.0\n",
            "    },\n",
            "    {\n",
            "      \"label\": \"Stores 4B\",\n",
            "      \"tag_array\": 0.25,\n",
            "      \"data_array\": 0.22222916666666667,\n",
            "      \"data_bus\": 0.125\n",
            "    }\n",
            "  ]\n",
            "}"
        );
        assert_eq!(got, want);
    }

    #[test]
    fn timing_report_aggregates_by_label_and_sorts_by_total() {
        let ms = Duration::from_millis;
        let report = TimingReport::from_timings(vec![
            exec::JobTiming { label: "fig6/art".into(), elapsed: ms(10) },
            exec::JobTiming { label: "fig6/mcf".into(), elapsed: ms(30) },
            exec::JobTiming { label: "fig6/art".into(), elapsed: ms(25) },
        ]);
        assert_eq!(report.jobs(), 3);
        assert_eq!(report.total, ms(65));
        assert_eq!(report.rows[0].label, "fig6/art");
        assert_eq!(report.rows[0].runs, 2);
        assert_eq!(report.rows[0].total, ms(35));
        assert_eq!(report.rows[1].label, "fig6/mcf");
        let text = report.to_string();
        assert!(text.contains("3 job(s)"), "{text}");
        assert!(to_json(&report).contains("\"total_ms\": 65.0"));
    }

    /// Tuple rows (figure 7) serialize as plain JSON arrays.
    #[test]
    fn fig7_rows_serialize_as_arrays() {
        let report = Fig7Report {
            rows: vec![("gcc".to_string(), 0.55, 0.8)],
            mean_write_frac: 0.55,
            mean_gathering: 0.8,
        };
        let got = to_json(&report);
        assert!(
            got.contains("\"rows\": [\n    [\n      \"gcc\",\n      0.55,\n      0.8\n    ]\n  ]")
        );
        assert!(got.contains("\"mean_write_frac\": 0.55"));
    }
}

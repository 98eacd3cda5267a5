//! Figure 9: a SPEC subject thread against three aggressive Stores
//! background threads.
//!
//! The subject runs on processor 1 with VPC bandwidth share
//! `beta_1 ∈ {0.25, 0.5, 1.0}` (leftover split equally among the Stores
//! threads); the FCFS baseline shows how badly an unmanaged cache lets the
//! background traffic degrade the subject. IPCs are normalized to the
//! subject's target at `beta = 1` (its private-machine performance with
//! full bandwidth and a quarter of the ways), so a value of 1.0 means "as
//! fast as the equivalent standalone machine".

use std::fmt;

use vpc_arbiters::{ArbiterPolicy, IntraThreadOrder};
use vpc_sim::Share;

use crate::config::{CmpConfig, WorkloadSpec};
use crate::experiments::{pct, Cell, Plan, RunBudget};
use crate::json::{JsonValue, ToJson};

/// The subject's results for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Row {
    /// Subject benchmark.
    pub benchmark: &'static str,
    /// Subject IPC under FCFS with the three Stores threads.
    pub fcfs_norm: f64,
    /// Subject normalized IPC under VPC with `beta_1 = 1/4`.
    pub vpc25_norm: f64,
    /// ... `beta_1 = 1/2`.
    pub vpc50_norm: f64,
    /// ... `beta_1 = 1`.
    pub vpc100_norm: f64,
    /// Target (normalized) for `beta_1 = 1/4` — the QoS floor the VPC
    /// configuration must meet.
    pub target25_norm: f64,
    /// Target (normalized) for `beta_1 = 1/2`.
    pub target50_norm: f64,
    /// Subject's data-array utilization under FCFS.
    pub fcfs_util: f64,
    /// Subject's data-array utilization at `beta_1 = 1/4` (VPC).
    pub vpc25_util: f64,
    /// Subject's data-array utilization at `beta_1 = 1/2` (VPC).
    pub vpc50_util: f64,
    /// Subject's data-array utilization at `beta_1 = 1` (VPC).
    pub vpc100_util: f64,
}

/// The Figure 9 series.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Result {
    /// One row per subject benchmark.
    pub rows: Vec<Fig9Row>,
}

impl Fig9Result {
    /// Finds a benchmark's row.
    pub fn row(&self, benchmark: &str) -> Option<&Fig9Row> {
        self.rows.iter().find(|r| r.benchmark == benchmark)
    }

    /// Fraction of rows whose VPC configurations meet their targets
    /// (within `slack`, e.g. 0.05 for 5%).
    pub fn qos_met_fraction(&self, slack: f64) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        let met = self
            .rows
            .iter()
            .filter(|r| {
                r.vpc25_norm >= r.target25_norm * (1.0 - slack)
                    && r.vpc50_norm >= r.target50_norm * (1.0 - slack)
                    && r.vpc100_norm >= 1.0 - slack
            })
            .count();
        met as f64 / self.rows.len() as f64
    }
}

impl fmt::Display for Fig9Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 9: SPEC subject vs 3x Stores — normalized IPC (1.0 = standalone beta=1 target)"
        )?;
        writeln!(
            f,
            "{:<10} {:>8} {:>9} {:>9} {:>9} {:>10} {:>10}",
            "subject", "FCFS", "VPC 25%", "VPC 50%", "VPC 100%", "target25", "target50"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<10} {:>8.3} {:>9.3} {:>9.3} {:>9.3} {:>10.3} {:>10.3}   util {:>4.0}/{:>3.0}/{:>3.0}/{:>3.0}%",
                r.benchmark,
                r.fcfs_norm,
                r.vpc25_norm,
                r.vpc50_norm,
                r.vpc100_norm,
                r.target25_norm,
                r.target50_norm,
                r.fcfs_util * 100.0,
                r.vpc25_util * 100.0,
                r.vpc50_util * 100.0,
                r.vpc100_util * 100.0,
            )?;
        }
        writeln!(f, "QoS targets met (5% slack): {}", pct(self.qos_met_fraction(0.05)))
    }
}

impl ToJson for Fig9Result {
    fn to_json_value(&self) -> JsonValue {
        let rows = self.rows.iter().map(|r| {
            JsonValue::object([
                ("benchmark", JsonValue::from(r.benchmark)),
                ("fcfs", JsonValue::from(r.fcfs_norm)),
                ("vpc25", JsonValue::from(r.vpc25_norm)),
                ("vpc50", JsonValue::from(r.vpc50_norm)),
                ("vpc100", JsonValue::from(r.vpc100_norm)),
                ("target25", JsonValue::from(r.target25_norm)),
                ("target50", JsonValue::from(r.target50_norm)),
                (
                    "utils",
                    JsonValue::array([r.fcfs_util, r.vpc25_util, r.vpc50_util, r.vpc100_util]),
                ),
            ])
        });
        JsonValue::object([
            ("rows", JsonValue::array(rows)),
            ("qos_met_fraction", JsonValue::from(self.qos_met_fraction(0.05))),
        ])
    }
}

/// A VPC policy giving the subject `beta_1 = num/den` and splitting the
/// remainder equally among the three background threads.
pub fn subject_share_policy(num: u32, den: u32) -> ArbiterPolicy {
    let subject = Share::new(num, den).expect("valid subject share");
    let rest = den - num;
    // Each background thread gets (rest/den)/3 = rest/(3*den).
    let bg = Share::new(rest, 3 * den).expect("valid background share");
    ArbiterPolicy::Vpc { shares: vec![subject, bg, bg, bg], order: IntraThreadOrder::ReadOverWrite }
}

/// The subject benchmark against three Stores threads under `arbiter`.
pub fn subject_cell(
    base: &CmpConfig,
    benchmark: &'static str,
    arbiter: ArbiterPolicy,
    budget: RunBudget,
) -> Cell {
    let stores = WorkloadSpec::Stores;
    let workloads = vec![WorkloadSpec::Spec(benchmark), stores, stores, stores];
    Cell::shared(base.clone().with_arbiter(arbiter), workloads, budget)
}

/// The number of cells behind one Figure 9 row: three private-machine
/// targets plus four co-scheduled runs.
const CELLS_PER_ROW: usize = 7;

/// The Figure 9 series for the given benchmarks (pass
/// [`vpc_workloads::SPEC_NAMES`] for the paper's full set): per subject,
/// its targets at `beta_1` = 1, 1/2 and 1/4, and its runs under FCFS and
/// VPC 25/50/100%.
pub fn plan(base: &CmpConfig, benchmarks: &[&'static str], budget: RunBudget) -> Plan<Fig9Result> {
    let quarter = Share::new(1, 4).expect("alpha = 1/4");
    let mut cells = Vec::new();
    for &benchmark in benchmarks {
        let spec = WorkloadSpec::Spec(benchmark);
        for (label, beta) in [
            ("target100", Share::FULL),
            ("target50", Share::new(1, 2).expect("half")),
            ("target25", quarter),
        ] {
            let cell = Cell::target(base, spec, beta, quarter, budget).expect("nonzero share");
            cells.push((format!("fig9/{benchmark}/{label}"), cell));
        }
        let arbiters = [
            ("fcfs", ArbiterPolicy::Fcfs),
            ("vpc25", subject_share_policy(1, 4)),
            ("vpc50", subject_share_policy(1, 2)),
            ("vpc100", subject_share_policy(1, 1)),
        ];
        for (label, arbiter) in arbiters {
            cells.push((
                format!("fig9/{benchmark}/{label}"),
                subject_cell(base, benchmark, arbiter, budget),
            ));
        }
    }

    // Each row reads the subject's (IPC, data-array utilization) of its
    // cells, and only the IPC of a target.
    let benchmarks = benchmarks.to_vec();
    Plan::new(cells, move |records| Fig9Result {
        rows: benchmarks
            .into_iter()
            .zip(records.chunks_exact(CELLS_PER_ROW))
            .map(|(benchmark, cell)| {
                let [t100, t50, t25, fcfs, vpc25, vpc50, vpc100]: [(f64, f64); CELLS_PER_ROW] =
                    std::array::from_fn(|i| (cell[i].m.ipc[0], cell[i].m.data_util_per_thread[0]));
                let norm = |ipc: f64| if t100.0 > 0.0 { ipc / t100.0 } else { 0.0 };
                Fig9Row {
                    benchmark,
                    fcfs_norm: norm(fcfs.0),
                    vpc25_norm: norm(vpc25.0),
                    vpc50_norm: norm(vpc50.0),
                    vpc100_norm: norm(vpc100.0),
                    target25_norm: norm(t25.0),
                    target50_norm: norm(t50.0),
                    fcfs_util: fcfs.1,
                    vpc25_util: vpc25.1,
                    vpc50_util: vpc50.1,
                    vpc100_util: vpc100.1,
                }
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_base() -> CmpConfig {
        let mut base = CmpConfig::table1();
        base.l2.total_sets = 2048;
        base
    }

    #[test]
    fn vpc_protects_subject_from_stores_background() {
        let base = quick_base();
        let r = plan(&base, &["art"], RunBudget::quick()).run(2);
        let row = r.row("art").unwrap();
        // Under VPC the subject's normalized IPC grows with its share and
        // meets the QoS floor; FCFS leaves it below its VPC-100% level.
        assert!(
            row.vpc100_norm >= row.vpc50_norm * 0.95 && row.vpc50_norm >= row.vpc25_norm * 0.95,
            "performance should be monotone in share: {row:?}"
        );
        assert!(row.vpc25_norm >= row.target25_norm * 0.9, "VPC 25% must meet its target: {row:?}");
        assert!(
            row.fcfs_norm < row.vpc100_norm,
            "FCFS lets the background degrade the subject: {row:?}"
        );
    }
}

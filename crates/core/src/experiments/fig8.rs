//! Figure 8: the Loads and Stores microbenchmarks under each arbiter.
//!
//! Two threads — Loads on processor 1, Stores on processor 2 — run under
//! RoW-FCFS, FCFS, and five VPC configurations (the label "VPC x%" gives
//! the Stores thread `beta = x`, with the remainder to Loads). The paper's
//! results: RoW-FCFS lets the load stream *starve* the stores entirely (a
//! critical design flaw); FCFS gives Stores twice Loads' IPC, and since
//! a write costs two data-array accesses, 80% of the data array; and
//! every VPC configuration gives
//! each benchmark precisely its allocated bandwidth, meeting its target
//! IPC.

use std::fmt;

use vpc_arbiters::ArbiterPolicy;
use vpc_cache::CapacityPolicy;
use vpc_sim::Share;

use crate::config::{CmpConfig, WorkloadSpec};
use crate::experiments::{pct, Cell, Plan, RunBudget};
use crate::json::{JsonValue, ToJson};

/// One x-axis point of Figure 8.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Row {
    /// Configuration label ("RoW", "FCFS", "VPC 25%", ...).
    pub label: String,
    /// Loads thread IPC.
    pub loads_ipc: f64,
    /// Stores thread IPC.
    pub stores_ipc: f64,
    /// Loads target IPC (private machine with its allocation; 0 under
    /// non-VPC arbiters, which guarantee nothing).
    pub loads_target: f64,
    /// Stores target IPC.
    pub stores_target: f64,
    /// Data-array utilization attributable to the whole workload.
    pub data_util: f64,
}

/// The Figure 8 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Result {
    /// One row per arbiter configuration.
    pub rows: Vec<Fig8Row>,
}

impl Fig8Result {
    /// Finds a row by label.
    pub fn row(&self, label: &str) -> Option<&Fig8Row> {
        self.rows.iter().find(|r| r.label == label)
    }
}

impl fmt::Display for Fig8Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 8: Loads and Stores Microbenchmarks — IPC and Data Array Utilization")?;
        writeln!(
            f,
            "{:<10} {:>10} {:>12} {:>10} {:>13} {:>10}",
            "arbiter", "Loads IPC", "Loads target", "Stores IPC", "Stores target", "data util"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<10} {:>10.3} {:>12.3} {:>10.3} {:>13.3} {:>10}",
                r.label,
                r.loads_ipc,
                r.loads_target,
                r.stores_ipc,
                r.stores_target,
                pct(r.data_util),
            )?;
        }
        Ok(())
    }
}

impl ToJson for Fig8Result {
    fn to_json_value(&self) -> JsonValue {
        let rows = self.rows.iter().map(|r| {
            JsonValue::object([
                ("arbiter", JsonValue::from(r.label.as_str())),
                ("loads_ipc", JsonValue::from(r.loads_ipc)),
                ("loads_target", JsonValue::from(r.loads_target)),
                ("stores_ipc", JsonValue::from(r.stores_ipc)),
                ("stores_target", JsonValue::from(r.stores_target)),
                ("data_util", JsonValue::from(r.data_util)),
            ])
        });
        JsonValue::object([("rows", JsonValue::array(rows))])
    }
}

/// The Loads+Stores cell under `arbiter`, with equal way quotas.
fn pair_cell(base: &CmpConfig, arbiter: ArbiterPolicy, budget: RunBudget) -> Cell {
    let cfg = base.clone().with_arbiter(arbiter).with_capacity(CapacityPolicy::vpc_equal(2));
    Cell::shared(cfg, vec![WorkloadSpec::Loads, WorkloadSpec::Stores], budget)
}

/// The Figure 8 sweep: RoW-FCFS, FCFS, and VPC with the Stores share at
/// 0%, 25%, 50%, 75% and 100%. Each point lists its shared run and the
/// targets of its nonzero bandwidth shares; the other arbiters guarantee
/// nothing, so their shares count as zero.
pub fn plan(base: &CmpConfig, budget: RunBudget) -> Plan<Fig8Result> {
    let alpha = Share::new(1, 2).expect("two threads, equal ways");
    let mut points = vec![
        ("RoW".to_string(), ArbiterPolicy::RowFcfs, [Share::ZERO; 2]),
        ("FCFS".to_string(), ArbiterPolicy::Fcfs, [Share::ZERO; 2]),
    ];
    for stores_pct in [0u32, 25, 50, 75, 100] {
        let betas =
            [100 - stores_pct, stores_pct].map(|p| Share::from_percent(p).expect("percent"));
        let order = vpc_arbiters::IntraThreadOrder::ReadOverWrite;
        let arbiter = ArbiterPolicy::Vpc { shares: betas.to_vec(), order };
        points.push((format!("VPC {stores_pct}%"), arbiter, betas));
    }

    let mut cells = Vec::new();
    let mut push = |label: String, cell: Cell| {
        cells.push((format!("fig8/{label}"), cell));
        cells.len() - 1
    };
    let indices: Vec<(usize, [Option<usize>; 2])> = points
        .iter()
        .map(|(label, arbiter, betas)| {
            let shared = push(label.clone(), pair_cell(base, arbiter.clone(), budget));
            let targets = [0, 1].map(|t| {
                let workload = [WorkloadSpec::Loads, WorkloadSpec::Stores][t];
                Cell::target(base, workload, betas[t], alpha, budget)
                    .map(|cell| push(format!("{label}/target/{}", workload.name()), cell))
            });
            (shared, targets)
        })
        .collect();

    Plan::new(cells, move |results| {
        let target = |i: Option<usize>| i.map_or(0.0, |i| results[i].m.ipc[0]);
        Fig8Result {
            rows: points
                .into_iter()
                .zip(indices)
                .map(|((label, ..), (shared, [loads, stores]))| Fig8Row {
                    label,
                    loads_ipc: results[shared].m.ipc[0],
                    stores_ipc: results[shared].m.ipc[1],
                    loads_target: target(loads),
                    stores_target: target(stores),
                    data_util: results[shared].m.util.data_array,
                })
                .collect(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Loads and Stores IPCs and data-array utilization under `arbiter`.
    fn run_pair(base: &CmpConfig, arbiter: ArbiterPolicy, budget: RunBudget) -> (f64, f64, f64) {
        let m = pair_cell(base, arbiter, budget).run().1;
        (m.ipc[0], m.ipc[1], m.util.data_array)
    }

    fn quick_base() -> CmpConfig {
        let mut base = CmpConfig::table1_with_threads(2);
        base.l2.total_sets = 2048;
        base
    }

    #[test]
    fn row_fcfs_starves_stores() {
        let base = quick_base();
        let (loads, stores, _) = run_pair(&base, ArbiterPolicy::RowFcfs, RunBudget::quick());
        assert!(loads > 0.15, "Loads should run at full speed, got {loads}");
        assert!(
            stores < loads * 0.15,
            "RoW-FCFS must starve stores: loads {loads}, stores {stores}"
        );
    }

    #[test]
    fn fcfs_lets_stores_dominate_data_array() {
        // Uniform request interleaving + double-cost writes => stores get
        // about 2/3 of the data-array bandwidth.
        let base = quick_base();
        let (loads, stores, util) = run_pair(&base, ArbiterPolicy::Fcfs, RunBudget::quick());
        assert!(util > 0.85, "both streams keep the data array busy: {util}");
        assert!(stores > 0.0 && loads > 0.0);
        // Loads IPC under FCFS is well below its solo rate (~0.3).
        assert!(loads < 0.25, "loads throttled by interleaved stores, got {loads}");
    }

    #[test]
    fn vpc_meets_targets_at_50_50() {
        let base = quick_base();
        let budget = RunBudget::quick();
        let half = Share::new(1, 2).unwrap();
        let arbiter = ArbiterPolicy::Vpc {
            shares: vec![half, half],
            order: vpc_arbiters::IntraThreadOrder::ReadOverWrite,
        };
        let (loads, stores, _) = run_pair(&base, arbiter, budget);
        let [loads_target, stores_target] = [WorkloadSpec::Loads, WorkloadSpec::Stores].map(|w| {
            Cell::target(&base, w, half, half, budget).expect("nonzero share").run().1.ipc[0]
        });
        assert!(
            loads >= loads_target * 0.9,
            "Loads must meet its target: got {loads}, target {loads_target}"
        );
        assert!(
            stores >= stores_target * 0.9,
            "Stores must meet its target: got {stores}, target {stores_target}"
        );
    }
}

//! The benchmark's workloads: which figure-grid rows a seed selects, the
//! simulations (cells) behind each row, and the check of every simulated
//! row against the checked-in `results/*.json`.

use std::time::Instant;

use vpc::experiments::fig10::{self, Fig10Result, MixResult};
use vpc::experiments::fig6::{Fig6Result, Fig6Row};
use vpc::experiments::fig9::{self, Fig9Result, Fig9Row};
use vpc::experiments::RunBudget;
use vpc::json::{JsonValue, ToJson};
use vpc::metrics::normalized_ipcs;
use vpc::prelude::*;
use vpc::report::{Fig10Report, Fig6Report, Fig9Report};
use vpc_cache::L2Utilization;
use vpc_sim::SplitMix64;

/// The three workloads, each drawn from one of the paper's figure grids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 9: a SPEC subject against three `Stores` threads.
    Fig9Stores,
    /// Figure 10: heterogeneous four-thread SPEC mixes, FCFS vs VPC.
    Fig10Mixes,
    /// Figure 6: one SPEC profile alone on the one-thread machine.
    SoloSpec,
}

/// One row of a figure grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Row {
    /// A Figure 9 subject benchmark.
    Subject(&'static str),
    /// A Figure 10 mix.
    Mix([&'static str; 4]),
    /// A Figure 6 profile.
    Profile(&'static str),
}

/// Figure 9 subjects, cheapest row first (host cost of all seven cells at
/// the standard budget).
const FIG9_BY_COST: [&str; 18] = [
    "art", "crafty", "twolf", "swim", "vpr", "sixtrack", "apsi", "bzip2", "mcf", "gzip", "wupwise",
    "ammp", "gap", "lucas", "mgrid", "equake", "gcc", "mesa",
];

/// Figure 6 profiles, cheapest first.
const FIG6_BY_COST: [&str; 18] = [
    "ammp", "bzip2", "sixtrack", "swim", "wupwise", "lucas", "mgrid", "equake", "gcc", "mcf",
    "apsi", "twolf", "vpr", "gzip", "gap", "mesa", "crafty", "art",
];

/// Figure 10 mixes (indices into [`fig10::MIXES`]), cheapest first.
const FIG10_BY_COST: [usize; 8] = [2, 6, 0, 4, 1, 5, 3, 7];

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Fig9Stores, Workload::Fig10Mixes, Workload::SoloSpec];

    /// Parses a workload name as given to `--workload`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig9Stores => "fig9_stores",
            Workload::Fig10Mixes => "fig10_mixes",
            Workload::SoloSpec => "solo_spec",
        }
    }

    /// The grid's rows, cheapest first.
    fn rows_by_cost(self) -> Vec<Row> {
        match self {
            Workload::Fig9Stores => FIG9_BY_COST.iter().map(|&b| Row::Subject(b)).collect(),
            Workload::Fig10Mixes => {
                FIG10_BY_COST.iter().map(|&i| Row::Mix(fig10::MIXES[i])).collect()
            }
            Workload::SoloSpec => FIG6_BY_COST.iter().map(|&b| Row::Profile(b)).collect(),
        }
    }

    /// Rows per cost stratum; a seed picks one row from each stratum, so
    /// every seed's selection costs about the same to simulate.
    fn stratum(self) -> usize {
        match self {
            Workload::Fig9Stores => 3,
            Workload::Fig10Mixes => 2,
            Workload::SoloSpec => 2,
        }
    }

    /// Host seconds one pass over a seed's rows takes on a 2-CPU x86-64
    /// container; sets how many passes fit in `--seconds`.
    fn nominal_pass_s(self) -> f64 {
        match self {
            Workload::Fig9Stores => 4.5,
            Workload::Fig10Mixes => 3.5,
            Workload::SoloSpec => 0.52,
        }
    }

    /// Passes an untraced run makes for a `seconds` budget. Fixed by the
    /// budget alone, so every run of a workload does the same work.
    pub fn passes(self, seconds: u64) -> usize {
        ((seconds as f64 / self.nominal_pass_s()).round() as usize).max(3)
    }

    /// The checked-in full-grid results this workload is checked against.
    fn golden_path(self) -> &'static str {
        match self {
            Workload::Fig9Stores => "results/fig9_spec_vs_stores.json",
            Workload::Fig10Mixes => "results/fig10_heterogeneous.json",
            Workload::SoloSpec => "results/fig6_spec_util.json",
        }
    }
}

/// One independent simulation of a figure grid.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Job label, in the figure binaries' naming (`fig9/art/vpc25`).
    pub label: String,
    /// The machine.
    pub cfg: CmpConfig,
    /// One workload per processor.
    pub workloads: Vec<WorkloadSpec>,
}

/// What a finished cell reports: the figure's quantities, the end state
/// the loop replica must reproduce, and the simulated per-layer counters.
#[derive(Debug, Clone)]
pub struct CellOut {
    /// Window IPC per thread.
    pub ipc: Vec<f64>,
    /// Window data-array utilization per thread.
    pub data_util: Vec<f64>,
    /// Window utilization of the three shared resources.
    pub util: L2Utilization,
    /// Retired instructions per core at the end of the run.
    pub retired: Vec<u64>,
    /// Busy cycles of (tag array, data array, data bus) at the end.
    pub busy: (u64, u64, u64),
    /// Simulated per-layer counters over the whole run.
    pub counters: crate::layers::SimCounters,
    /// Host seconds spent in `CmpSystem::new`.
    pub setup_s: f64,
    /// Host seconds spent in `CmpSystem::run_measured`.
    pub run_s: f64,
}

/// A seed's selection: rows in run order and their cells, row by row.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Selected rows, in run order.
    pub rows: Vec<Row>,
    /// Every row's cells, concatenated in row order.
    pub cells: Vec<Cell>,
    /// The standard budget every cell runs for.
    pub budget: RunBudget,
}

/// Outcome of checking one pass of a plan's cells.
#[derive(Debug, Clone, Copy, Default)]
pub struct Check {
    /// Cells that panicked or belong to a row that differs from its golden.
    pub failed_cells: usize,
    /// VPC thread-cells more than 5% below their target IPC.
    pub qos_violations: usize,
    /// VPC thread-cells checked against a target.
    pub qos_cells: usize,
    /// Gap to the paper's headline number for this figure, in percentage
    /// points (see `perfbench/README.md`).
    pub paper_gap_pp: f64,
}

impl Plan {
    /// Selects one row per cost stratum with `seed` and shuffles them.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let mut rng = SplitMix64::new(seed);
        let mut rows: Vec<Row> = workload
            .rows_by_cost()
            .chunks(workload.stratum())
            .map(|stratum| stratum[rng.below(stratum.len() as u64) as usize])
            .collect();
        for i in (1..rows.len()).rev() {
            rows.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let base = CmpConfig::table1();
        let cells = rows.iter().flat_map(|row| row_cells(&base, row)).collect();
        Plan { workload, rows, cells, budget: RunBudget::standard() }
    }

    /// Simulated cycles in one pass (warm-up plus window, summed over
    /// cells).
    pub fn cycles_per_pass(&self) -> u64 {
        self.cells.len() as u64 * (self.budget.warmup + self.budget.window)
    }

    /// Cells per row of this workload's grid.
    fn cells_per_row(&self) -> usize {
        match self.workload {
            Workload::Fig9Stores => 7,
            Workload::Fig10Mixes => 10,
            Workload::SoloSpec => 1,
        }
    }

    /// Checks one pass's outputs (`None` = the cell panicked) against the
    /// golden rows and computes the QoS and paper-gap figures.
    pub fn check(&self, outs: &[Option<CellOut>], goldens: &[JsonValue]) -> Check {
        let per_row = self.cells_per_row();
        let mut check = Check::default();
        let mut fig9 = Vec::new();
        let mut fig10 = Vec::new();
        let mut fig6 = Vec::new();
        for (row, outs) in self.rows.iter().zip(outs.chunks_exact(per_row)) {
            let Some(outs) = outs.iter().cloned().collect::<Option<Vec<CellOut>>>() else {
                check.failed_cells += per_row;
                continue;
            };
            let json = match *row {
                Row::Subject(benchmark) => {
                    let r = fig9_row(benchmark, &outs);
                    for (ipc, target) in [
                        (r.vpc25_norm, r.target25_norm),
                        (r.vpc50_norm, r.target50_norm),
                        (r.vpc100_norm, 1.0),
                    ] {
                        check.qos_cells += 1;
                        check.qos_violations += usize::from(ipc < target * 0.95);
                    }
                    fig9.push(r.clone());
                    first_entry(&Fig9Report::from(&Fig9Result { rows: vec![r] }), "rows")
                }
                Row::Mix(mix) => {
                    let m = mix_result(mix, &outs);
                    for &n in &m.vpc_norm {
                        check.qos_cells += 1;
                        check.qos_violations += usize::from(n < 0.95);
                    }
                    fig10.push(m.clone());
                    first_entry(&Fig10Report::from(&Fig10Result { mixes: vec![m] }), "mixes")
                }
                Row::Profile(benchmark) => {
                    let r = Fig6Row { benchmark, util: outs[0].util, ipc: outs[0].ipc[0] };
                    fig6.push(r);
                    first_entry(&Fig6Report::from(&Fig6Result { rows: vec![r] }), "rows")
                }
            };
            if !goldens.contains(&json) {
                check.failed_cells += per_row;
            }
        }
        check.paper_gap_pp = match self.workload {
            // Paper: FCFS lets the background degrade a subject by up to 87%.
            Workload::Fig9Stores => {
                let worst = fig9.iter().map(|r| 1.0 - r.fcfs_norm).fold(0.0, f64::max);
                (worst * 100.0 - 87.0).abs()
            }
            // Paper: VPC improves the hmean by 14% and the minimum by 25%.
            Workload::Fig10Mixes if !fig10.is_empty() => {
                let r = Fig10Result { mixes: fig10 };
                ((r.hmean_improvement_pct() - 14.0).abs() + (r.min_improvement_pct() - 25.0).abs())
                    / 2.0
            }
            // Paper: a thread alone uses 26% of a bank's data array on average.
            Workload::SoloSpec if !fig6.is_empty() => {
                (Fig6Result { rows: fig6 }.mean_data_util() * 100.0 - 26.0).abs()
            }
            _ => 0.0,
        };
        check
    }
}

/// Loads the golden rows (`rows` or `mixes`) of `workload`'s figure.
pub fn load_goldens(workload: Workload) -> Result<Vec<JsonValue>, String> {
    let path = workload.golden_path();
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match field(&doc, "rows").or_else(|| field(&doc, "mixes")) {
        Some(JsonValue::Array(rows)) => Ok(rows.clone()),
        _ => Err(format!("{path}: no rows")),
    }
}

/// Runs one cell: builds the system (timed as set-up), then the standard
/// warm-up and measurement window.
pub fn run_cell(cell: &Cell, budget: RunBudget) -> CellOut {
    let cfg = cell.cfg.clone();
    let start = Instant::now();
    let mut sys = CmpSystem::new(cfg, &cell.workloads);
    let built = Instant::now();
    let m = sys.run_measured(budget.warmup, budget.window);
    let done = Instant::now();
    let threads = cell.workloads.len();
    CellOut {
        ipc: m.ipc,
        data_util: m.data_util_per_thread,
        util: m.util,
        retired: (0..threads).map(|t| sys.core(ThreadId(t as u8)).retired()).collect(),
        busy: sys.l2().busy_cycles(),
        counters: crate::layers::SimCounters::of(&sys, threads, budget.warmup + budget.window),
        setup_s: (built - start).as_secs_f64(),
        run_s: (done - built).as_secs_f64(),
    }
}

/// The cells behind one row, in the order the figure runner builds them.
fn row_cells(base: &CmpConfig, row: &Row) -> Vec<Cell> {
    let quarter = Share::new(1, 4).expect("quarter share");
    let target = |label: String, spec: WorkloadSpec, beta: Share| Cell {
        label,
        cfg: base.private_machine(beta, quarter),
        workloads: vec![spec],
    };
    match *row {
        Row::Subject(b) => {
            let spec = WorkloadSpec::Spec(b);
            let mut cells = vec![
                target(format!("fig9/{b}/target100"), spec, Share::FULL),
                target(format!("fig9/{b}/target50"), spec, Share::new(1, 2).expect("half")),
                target(format!("fig9/{b}/target25"), spec, quarter),
            ];
            let policies = [
                ("fcfs", ArbiterPolicy::Fcfs),
                ("vpc25", fig9::subject_share_policy(1, 4)),
                ("vpc50", fig9::subject_share_policy(1, 2)),
                ("vpc100", fig9::subject_share_policy(1, 1)),
            ];
            for (label, arbiter) in policies {
                let mut cfg = base.clone().with_arbiter(arbiter);
                cfg.processors = 4;
                cfg.l2.threads = 4;
                let workloads =
                    vec![spec, WorkloadSpec::Stores, WorkloadSpec::Stores, WorkloadSpec::Stores];
                cells.push(Cell { label: format!("fig9/{b}/{label}"), cfg, workloads });
            }
            cells
        }
        Row::Mix(mix) => {
            let name = mix.join("+");
            let mut cells: Vec<Cell> = mix
                .iter()
                .map(|&b| {
                    target(format!("fig10/{name}/target/{b}"), WorkloadSpec::Spec(b), quarter)
                })
                .collect();
            for &b in &mix {
                let mut cfg = base.clone();
                cfg.processors = 1;
                cfg.l2.threads = 1;
                cfg.l2.arbiter = ArbiterPolicy::RowFcfs;
                cfg.l2.capacity = CapacityPolicy::Lru;
                let label = format!("fig10/{name}/standalone/{b}");
                cells.push(Cell { label, cfg, workloads: vec![WorkloadSpec::Spec(b)] });
            }
            let shared = [
                ("fcfs", ArbiterPolicy::Fcfs, CapacityPolicy::Lru),
                ("vpc", ArbiterPolicy::vpc_equal(4), CapacityPolicy::vpc_equal(4)),
            ];
            for (label, arbiter, capacity) in shared {
                let mut cfg = base.clone().with_arbiter(arbiter).with_capacity(capacity);
                cfg.processors = 4;
                cfg.l2.threads = 4;
                let workloads = mix.iter().map(|&b| WorkloadSpec::Spec(b)).collect();
                cells.push(Cell { label: format!("fig10/{name}/{label}"), cfg, workloads });
            }
            cells
        }
        Row::Profile(b) => {
            let mut cfg = base.clone();
            cfg.processors = 1;
            cfg.l2.threads = 1;
            vec![Cell { label: format!("fig6/{b}"), cfg, workloads: vec![WorkloadSpec::Spec(b)] }]
        }
    }
}

/// Assembles a Figure 9 row from its seven cells, as `fig9::run` does.
fn fig9_row(benchmark: &'static str, outs: &[CellOut]) -> Fig9Row {
    let [t100, t50, t25, fcfs, vpc25, vpc50, vpc100] =
        [0, 1, 2, 3, 4, 5, 6].map(|i| (outs[i].ipc[0], outs[i].data_util[0]));
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
}

/// Assembles a Figure 10 mix from its ten cells, as `fig10::run` does.
fn mix_result(mix: [&'static str; 4], outs: &[CellOut]) -> MixResult {
    let targets: Vec<f64> = outs[0..4].iter().map(|c| c.ipc[0]).collect();
    let alone: Vec<f64> = outs[4..8].iter().map(|c| c.ipc[0]).collect();
    let (fcfs, vpc) = (&outs[8].ipc, &outs[9].ipc);
    MixResult {
        mix,
        fcfs_norm: normalized_ipcs(fcfs, &targets),
        vpc_norm: normalized_ipcs(vpc, &targets),
        fcfs_standalone: normalized_ipcs(fcfs, &alone),
        vpc_standalone: normalized_ipcs(vpc, &alone),
    }
}

/// The first element of the array under `key` in a report's JSON form.
fn first_entry(report: &impl ToJson, key: &str) -> JsonValue {
    match field(&report.to_json_value(), key) {
        Some(JsonValue::Array(items)) if !items.is_empty() => items[0].clone(),
        _ => panic!("report has a non-empty {key} array"),
    }
}

/// The value under `key` of a JSON object.
fn field<'a>(doc: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    match doc {
        JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_pick_one_row_per_stratum() {
        for w in Workload::ALL {
            let a = Plan::new(w, 7);
            assert_eq!(a.rows, Plan::new(w, 7).rows, "same seed, same rows");
            assert_eq!(a.rows.len(), w.rows_by_cost().len() / w.stratum());
            assert_eq!(a.cells.len(), a.rows.len() * a.cells_per_row());
            let all = w.rows_by_cost();
            for stratum in all.chunks(w.stratum()) {
                assert_eq!(a.rows.iter().filter(|r| stratum.contains(r)).count(), 1);
            }
        }
        assert_ne!(
            Plan::new(Workload::Fig9Stores, 1).rows,
            Plan::new(Workload::Fig9Stores, 2).rows
        );
    }
}

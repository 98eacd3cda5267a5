//! Figure 5: L2 cache utilization of the microbenchmarks vs. bank count.
//!
//! Loads and Stores each run alone on configurations with 2, 4, 8 and 16
//! banks. The paper's shape: Loads fully utilizes two banks and reaches
//! about 80% of four (its LMQ-limited load stream cannot feed more), while
//! Stores — whose writes enter the L2 in order with ideal interleaving —
//! fully utilizes the data arrays of as many as eight banks.

use std::fmt;

use crate::config::{CmpConfig, WorkloadSpec};
use crate::experiments::{bar, pct, run_cells, Cell, RunBudget, RunOptions};
use crate::json::{JsonValue, ToJson};
use crate::metrics::QosLedger;
use vpc_arbiters::ArbiterPolicy;
use vpc_cache::L2Utilization;
use vpc_sim::Share;

/// One bar group of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Row {
    /// "Loads" or "Stores".
    pub benchmark: &'static str,
    /// Number of L2 banks.
    pub banks: usize,
    /// Utilization of the three shared resources.
    pub util: L2Utilization,
}

impl Fig5Row {
    /// The row's label, `"<benchmark> <banks>B"`.
    pub fn label(&self) -> String {
        format!("{} {}B", self.benchmark, self.banks)
    }
}

/// The full Figure 5 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Result {
    /// One row per (benchmark, bank count).
    pub rows: Vec<Fig5Row>,
}

impl Fig5Result {
    /// Finds a row.
    pub fn row(&self, benchmark: &str, banks: usize) -> Option<&Fig5Row> {
        self.rows.iter().find(|r| r.benchmark == benchmark && r.banks == banks)
    }
}

impl fmt::Display for Fig5Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 5: Microbenchmark L2 Cache Utilization")?;
        writeln!(
            f,
            "{:<12} {:>6} {:>10} {:>10} {:>10}",
            "benchmark", "banks", "data", "bus", "tag"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<12} {:>6} {:>10} {:>10} {:>10}  {}",
                r.label(),
                r.banks,
                pct(r.util.data_array),
                pct(r.util.data_bus),
                pct(r.util.tag_array),
                bar(r.util.data_array, 24),
            )?;
        }
        Ok(())
    }
}

impl ToJson for Fig5Result {
    fn to_json_value(&self) -> JsonValue {
        let rows = self.rows.iter().map(|r| {
            JsonValue::object([
                ("label", JsonValue::from(r.label())),
                ("tag_array", JsonValue::from(r.util.tag_array)),
                ("data_array", JsonValue::from(r.util.data_array)),
                ("data_bus", JsonValue::from(r.util.data_bus)),
            ])
        });
        JsonValue::object([("rows", JsonValue::array(rows))])
    }
}

/// Runs the Figure 5 sweep, one cell per (benchmark, bank count).
pub fn run(base: &CmpConfig, opts: RunOptions) -> Fig5Result {
    let grid: Vec<(WorkloadSpec, usize)> = [WorkloadSpec::Loads, WorkloadSpec::Stores]
        .into_iter()
        .flat_map(|benchmark| [2usize, 4, 8, 16].map(|banks| (benchmark, banks)))
        .collect();
    let cells: Vec<(String, Cell)> = grid
        .iter()
        .map(|&(benchmark, banks)| {
            let cell = Cell::shared(base.clone().with_banks(banks), vec![benchmark], opts.budget);
            (format!("fig5/{} {}B", benchmark.name(), banks), cell)
        })
        .collect();
    let utils = run_cells(&cells, opts, |cell| cell.run().1.util);
    let rows = grid
        .iter()
        .zip(utils)
        .map(|(&(benchmark, banks), util)| Fig5Row { benchmark: benchmark.name(), banks, util })
        .collect();
    Fig5Result { rows }
}

/// Accounting window (cycles) of [`contention_ledger`].
pub const QOS_WINDOW: u64 = 4096;

/// Per-window tolerance (data-array cycles) of [`contention_ledger`]: a
/// handful of maximum-service (write) quanta, absorbing the indivisible-
/// grant quantization an EDF schedule can overshoot an entitlement by.
pub const QOS_SLACK: u64 = 128;

/// The 4-thread contention variant of the fig5 microbenchmarks on `base`
/// under `arbiter`: one Loads stream against three Stores streams on the
/// shared L2. Writes occupy the data array twice as long as reads, so a
/// share-oblivious arbiter lets the store threads over-serve, which the
/// trace and the QoS ledger make visible. Under
/// [`ArbiterPolicy::vpc_equal`] its trace shows grants and defers with
/// their virtual times for every thread.
pub fn contention_cell(base: &CmpConfig, arbiter: ArbiterPolicy, budget: RunBudget) -> Cell {
    let (loads, stores) = (WorkloadSpec::Loads, WorkloadSpec::Stores);
    Cell::shared(base.clone().with_arbiter(arbiter), vec![loads, stores, stores, stores], budget)
}

/// An empty ledger for [`contention_cell`]: equal `1/4` entitlements,
/// [`QOS_WINDOW`]-cycle windows, [`QOS_SLACK`] tolerance. Filled by
/// [`Cell::run_with_ledger`] under [`ArbiterPolicy::vpc_equal`], every
/// thread's sustained excess is zero; under [`ArbiterPolicy::Fcfs`] the
/// store threads run up nonzero excess at the Loads thread's expense.
pub fn contention_ledger() -> QosLedger {
    let beta = Share::new(1, 4).expect("1/4 is a valid share");
    QosLedger::new(vec![(beta, beta); 4], QOS_WINDOW, QOS_SLACK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::to_json;
    use vpc_sim::trace;

    #[test]
    fn microbenchmark_scaling_matches_paper_shape() {
        let mut base = CmpConfig::table1();
        base.l2.total_sets = 2048;
        let r = run(&base, RunOptions { budget: RunBudget::quick(), jobs: 2 });
        let loads2 = r.row("Loads", 2).unwrap().util.data_array;
        let loads4 = r.row("Loads", 4).unwrap().util.data_array;
        let loads16 = r.row("Loads", 16).unwrap().util.data_array;
        let stores8 = r.row("Stores", 8).unwrap().util.data_array;
        let stores16 = r.row("Stores", 16).unwrap().util.data_array;

        assert!(loads2 > 0.9, "Loads saturates 2 banks, got {loads2}");
        assert!(loads4 > 0.5 && loads4 < 0.98, "Loads partially uses 4 banks, got {loads4}");
        assert!(loads16 < 0.45, "Loads cannot feed 16 banks, got {loads16}");
        assert!(stores8 > 0.75, "Stores scales to 8 banks, got {stores8}");
        assert!(stores16 < stores8, "Stores cannot scale past 8 banks");
        // Loads: data bus tracks data array (both 8 cycles per line).
        let l2row = r.row("Loads", 2).unwrap();
        assert!((l2row.util.data_array - l2row.util.data_bus).abs() < 0.12);
        // Stores: no bus traffic (writes return nothing).
        let s2 = r.row("Stores", 2).unwrap();
        assert!(s2.util.data_bus < 0.1, "stores use no return bus: {:?}", s2.util);
    }

    /// Golden output: a full figure-5 result serializes byte-for-byte in
    /// the shape the checked-in `results/fig5_micro_util.json` uses.
    #[test]
    fn fig5_json_matches_golden_shape() {
        let result = Fig5Result {
            rows: vec![
                Fig5Row {
                    benchmark: "Loads",
                    banks: 2,
                    util: L2Utilization { tag_array: 0.5, data_array: 1.0, data_bus: 1.0 },
                },
                Fig5Row {
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
        assert_eq!(to_json(&result), want);
    }

    fn test_base() -> CmpConfig {
        let mut base = CmpConfig::table1();
        base.l2.total_sets = 2048;
        base
    }

    fn ledger(arbiter: ArbiterPolicy) -> QosLedger {
        let mut ledger = contention_ledger();
        contention_cell(&test_base(), arbiter, RunBudget::quick())
            .run_with_ledger(Some(&mut ledger));
        ledger
    }

    #[test]
    fn qos_ledger_separates_vpc_from_fcfs() {
        let vpc = ledger(ArbiterPolicy::vpc_equal(4));
        let fcfs = ledger(ArbiterPolicy::Fcfs);
        for t in 0..4 {
            assert!(
                !vpc.has_sustained_excess(t),
                "VPC lets T{t} over-serve: excess {} over {} windows\n{vpc}",
                vpc.excess_service(t),
                vpc.excess_windows(t),
            );
        }
        assert!(
            (0..4).any(|t| fcfs.has_sustained_excess(t)),
            "FCFS should let some thread over-serve\n{fcfs}"
        );
        // The over-serving comes at the Loads thread's expense: it falls
        // behind its virtual private resource under FCFS.
        assert!(
            fcfs.virtual_lag(0) > vpc.virtual_lag(0),
            "FCFS lag {} vs VPC lag {}",
            fcfs.virtual_lag(0),
            vpc.virtual_lag(0),
        );
    }

    /// The measured window of `cell`, traced with a `capacity`-event
    /// recorder installed on this thread.
    fn traced(cell: &Cell, capacity: usize) -> (trace::TraceLog, String) {
        trace::install(capacity);
        let m = cell.run().1;
        (trace::take().expect("installed above"), format!("{m:?}"))
    }

    #[test]
    fn contention_trace_emits_grants_with_virtual_times_for_all_threads() {
        let cell = contention_cell(&test_base(), ArbiterPolicy::vpc_equal(4), RunBudget::quick());
        let (log, _) = traced(&cell, 4096);
        let mut granted = [false; 4];
        let mut deferred = [false; 4];
        for event in log.events() {
            match event.data {
                vpc_sim::trace::EventData::Grant {
                    thread,
                    virtual_start: Some(s),
                    virtual_finish: Some(f),
                    ..
                } => {
                    assert!(s < f, "virtual start {s} precedes finish {f}");
                    granted[thread.index()] = true;
                }
                vpc_sim::trace::EventData::Defer { thread, .. } => {
                    deferred[thread.index()] = true;
                }
                _ => {}
            }
        }
        for t in 0..4 {
            assert!(granted[t], "no guaranteed grant recorded for T{t}");
            assert!(deferred[t], "no defer recorded for T{t}");
        }
        assert!(log.dropped() > 0, "quick window should overflow a 4096-event ring");
    }

    #[test]
    fn tracing_does_not_perturb_measurement() {
        let budget = RunBudget { warmup: 5_000, window: 10_000 };
        let cell = contention_cell(&test_base(), ArbiterPolicy::vpc_equal(4), budget);
        assert_eq!(
            format!("{:?}", cell.run().1),
            traced(&cell, 1024).1,
            "tracing changed simulated behavior"
        );
    }
}

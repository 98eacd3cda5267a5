//! Closed-form oracles: quantities the paper's microbenchmark figures
//! follow from Table 1 by arithmetic, checked against the simulator at
//! the quick budget. A golden pins what the code did; these check that
//! what it did is what the machine's parameters imply.

use vpc::experiments::{fig8, RunBudget, RunOptions};
use vpc::prelude::*;

/// Largest relative gap allowed between a simulated Figure 8 value and its
/// derivation. At the quick budget every value is within 0.6%: a 40k-cycle
/// window of whole grants does not divide the data arrays exactly. A model
/// change of one more data-array access per write moves the Stores values
/// by a third.
const TOLERANCE: f64 = 0.01;

fn assert_near(what: &str, got: f64, want: f64) {
    let gap = (got - want).abs() / want;
    assert!(
        gap <= TOLERANCE,
        "{what}: simulated {got:.6}, derived {want:.6} ({:.2}% off)",
        gap * 100.0
    );
}

#[test]
fn fig8_matches_its_closed_form() {
    let base = CmpConfig::table1_with_threads(2);
    let l2 = &base.l2;
    // Both microbenchmarks retire five instructions per four memory
    // operations (one loop increment per four-way unrolled body), and
    // every memory operation is one L2 access: a Loads hit or a Stores
    // write that no other store gathers with. Alone, a thread keeps every
    // bank's data array busy: a read holds it `data_latency` cycles, a
    // write `write_data_accesses` times as long.
    let per_access = 5.0 / 4.0;
    let banks = l2.banks as f64;
    let loads_solo = banks / l2.data_latency as f64 * per_access;
    let stores_solo = banks / (l2.data_latency * l2.write_data_accesses) as f64 * per_access;
    assert_eq!((loads_solo, stores_solo), (0.3125, 0.15625), "Table 1 values");
    // FCFS gives Stores twice Loads' IPC and keeps the data arrays busy:
    // loads / loads_solo + stores / stores_solo = 1, so Stores holds 80% of
    // the data arrays. The 2:1 does not follow the write's cost: it holds
    // with three data-array accesses per write too.
    let fcfs_loads = 1.0 / (1.0 / loads_solo + 2.0 / stores_solo);

    let r = fig8::run(&base, RunOptions { budget: RunBudget::quick(), jobs: 2 });
    let row = |label: &str| r.row(label).unwrap_or_else(|| panic!("no {label} row"));
    // A bandwidth share of 100% is the solo machine.
    assert_near("Loads target at beta = 1", row("VPC 0%").loads_target, loads_solo);
    assert_near("Stores target at beta = 1", row("VPC 100%").stores_target, stores_solo);
    // VPC at beta = 1/2 gives each thread half of its solo IPC, shared or
    // on its private machine.
    let half = row("VPC 50%");
    assert_near("Loads at VPC 50%", half.loads_ipc, loads_solo / 2.0);
    assert_near("Loads target at VPC 50%", half.loads_target, loads_solo / 2.0);
    assert_near("Stores at VPC 50%", half.stores_ipc, stores_solo / 2.0);
    assert_near("Stores target at VPC 50%", half.stores_target, stores_solo / 2.0);
    let fcfs = row("FCFS");
    assert_near("Loads under FCFS", fcfs.loads_ipc, fcfs_loads);
    assert_near("Stores under FCFS", fcfs.stores_ipc, 2.0 * fcfs_loads);
    assert_near("data-array utilization under FCFS", fcfs.data_util, 1.0);
}

//! Quickstart: build the paper's Table 1 CMP, run two microbenchmarks that
//! fight over the shared L2, and watch the VPC arbiters divide the cache's
//! bandwidth exactly as allocated.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use vpc::prelude::*;

fn main() {
    // The paper's 2 GHz, 4-processor system (Table 1), restricted to the
    // two threads this example uses: a 16 MB, 32-way, 2-bank shared L2 at
    // half core frequency behind per-thread DDR2-800 channels.
    println!("== Virtual Private Caches: quickstart ==\n");

    // 1. The problem: under the conventional read-over-write arbiter, a
    //    thread streaming loads starves a neighbor's stores completely.
    let cfg = CmpConfig::table1_with_threads(2).with_arbiter(ArbiterPolicy::RowFcfs);
    let mut sys = CmpSystem::new(cfg, &[WorkloadSpec::Loads, WorkloadSpec::Stores]);
    let m = sys.run_measured(30_000, 120_000);
    println!("RoW-FCFS arbiter (conventional uniprocessor policy):");
    println!("  Loads  IPC = {:.3}", m.ipc[0]);
    println!("  Stores IPC = {:.3}   <- starved by the load stream\n", m.ipc[1]);

    // 2. The fix: VPC arbiters. Give Stores 25% of every shared resource's
    //    bandwidth (tag array, data array, data bus) and Loads the rest.
    let shares = vec![Share::new(3, 4).unwrap(), Share::new(1, 4).unwrap()];
    let cfg = CmpConfig::table1_with_threads(2).with_vpc_shares(shares);
    let mut sys = CmpSystem::new(cfg, &[WorkloadSpec::Loads, WorkloadSpec::Stores]);
    let m = sys.run_measured(30_000, 120_000);

    // The QoS reference: each thread's IPC on a *real private machine*
    // provisioned like its VPC (Section 5.3 of the paper).
    let base = CmpConfig::table1_with_threads(2);
    let half_ways = Share::new(1, 2).unwrap();
    let budget = RunBudget { warmup: 30_000, window: 120_000 };
    let [loads_target, stores_target] =
        [(WorkloadSpec::Loads, 3), (WorkloadSpec::Stores, 1)].map(|(workload, quarters)| {
            let beta = Share::new(quarters, 4).unwrap();
            let cell = Cell::target(&base, workload, beta, half_ways, budget).unwrap();
            cell.run().1.ipc[0]
        });

    println!("VPC arbiters (Loads 75% / Stores 25%):");
    println!("  Loads  IPC = {:.3}  (target {:.3})", m.ipc[0], loads_target);
    println!("  Stores IPC = {:.3}  (target {:.3})", m.ipc[1], stores_target);
    println!("  data array utilization = {:.0}%\n", m.util.data_array * 100.0);

    let ok = m.ipc[0] >= loads_target * 0.95 && m.ipc[1] >= stores_target * 0.95;
    println!(
        "QoS objective {}: each virtual private cache performs at least as well\n\
         as the equivalent real private cache, regardless of the other thread.",
        if ok { "MET" } else { "MISSED" }
    );
}

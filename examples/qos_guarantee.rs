//! QoS under hostile load: a soft-real-time application (modeled by the
//! `mcf` profile — low memory-level parallelism, latency-sensitive) shares
//! the L2 with three threads intentionally inundating the cache with
//! stores, the paper's worst-case background (Section 5.3's second
//! experiment).
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example qos_guarantee
//! ```

use vpc::experiments::{fig9, RunBudget};
use vpc::prelude::*;

fn main() {
    let base = CmpConfig::table1();
    let budget = RunBudget { warmup: 40_000, window: 160_000 };
    let subject = "mcf";

    println!("== QoS guarantee: {subject} vs 3x Stores (malicious background) ==\n");

    // Figure 9's plan for one subject: its targets at beta = 1, 1/2 and
    // 1/4 (the private machine with a quarter of the cache ways), and its
    // runs under FCFS and under VPC with those shares. Every IPC is
    // normalized to the beta = 1 target, the standalone machine.
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let r = fig9::plan(&base, &[subject], budget).run(jobs);
    let row = &r.rows[0];

    println!(
        "FCFS shared cache: {:.3} of standalone (data-array share {:.0}%)",
        row.fcfs_norm,
        row.fcfs_util * 100.0
    );
    for (beta, ipc, target, util) in [
        ("1/4", row.vpc25_norm, row.target25_norm, row.vpc25_util),
        ("1/2", row.vpc50_norm, row.target50_norm, row.vpc50_util),
        ("1/1", row.vpc100_norm, 1.0, row.vpc100_util),
    ] {
        let met = if ipc >= target * 0.95 { "met" } else { "MISSED" };
        println!(
            "VPC beta={beta}:      {ipc:.3} of standalone (target {target:.3}, {met}; \
             data-array share {:.0}%)",
            util * 100.0
        );
    }

    println!(
        "\nThe VPC arbiter bounds the background threads' impact: the subject\n\
         never falls below its private-machine target, and excess bandwidth\n\
         the Stores threads cannot claim flows back to it."
    );
}

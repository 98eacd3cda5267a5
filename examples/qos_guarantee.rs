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

use vpc::experiments::{fig9, run_cells, Cell, RunBudget, RunOptions};
use vpc::prelude::*;

fn main() {
    let base = CmpConfig::table1();
    let budget = RunBudget { warmup: 40_000, window: 160_000 };
    let subject = "mcf";
    let spec = WorkloadSpec::Spec(subject);
    let quarter = Share::new(1, 4).unwrap();
    let shares = [(1u32, 4u32), (1, 2), (1, 1)];

    println!("== QoS guarantee: {subject} vs 3x Stores (malicious background) ==\n");

    // Every simulation is one cell: the standalone reference (the subject
    // on a full private machine with a quarter of the cache ways), the
    // unmanaged baseline, and per VPC share the shared run and its target.
    let target = |beta: Share| Cell::target(&base, spec, beta, quarter, budget).unwrap();
    let mut cells = vec![
        ("standalone".to_string(), target(Share::FULL)),
        ("fcfs".to_string(), fig9::subject_cell(&base, subject, ArbiterPolicy::Fcfs, budget)),
    ];
    for (num, den) in shares {
        let policy = fig9::subject_share_policy(num, den);
        cells
            .push((format!("vpc {num}/{den}"), fig9::subject_cell(&base, subject, policy, budget)));
        cells.push((format!("target {num}/{den}"), target(Share::new(num, den).unwrap())));
    }
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let ipc = run_cells(&cells, RunOptions { budget, jobs }, |_, m| m.ipc[0]);

    let full = ipc[0];
    println!("standalone (full bandwidth): IPC {full:.3}\n");
    let fcfs = ipc[1];
    println!(
        "FCFS shared cache:           IPC {:.3}  ({:.0}% of standalone)",
        fcfs,
        100.0 * fcfs / full
    );

    // VPC with increasing guarantees.
    for (&(num, den), pair) in shares.iter().zip(ipc[2..].chunks_exact(2)) {
        let (ipc, target) = (pair[0], pair[1]);
        let beta = Share::new(num, den).unwrap();
        let met = if ipc >= target * 0.95 { "met" } else { "MISSED" };
        println!(
            "VPC beta={beta}:   IPC {:.3}  (target {:.3}, {met}; {:.0}% of standalone)",
            ipc,
            target,
            100.0 * ipc / full
        );
    }

    println!(
        "\nThe VPC arbiter bounds the background threads' impact: the subject\n\
         never falls below its private-machine target, and excess bandwidth\n\
         the Stores threads cannot claim flows back to it."
    );
}

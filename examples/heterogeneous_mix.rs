//! The paper's throughput headline on one heterogeneous mix: eliminating
//! negative interference raises both the harmonic mean of normalized IPCs
//! and the worst thread's normalized IPC.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example heterogeneous_mix
//! ```

use vpc::experiments::{fig10, run_cells, Cell, RunBudget, RunOptions};
use vpc::prelude::*;

fn main() {
    let base = CmpConfig::table1();
    let budget = RunBudget { warmup: 40_000, window: 160_000 };
    let mix = ["art", "mcf", "equake", "gzip"];

    println!("== Heterogeneous mix: {} ==\n", mix.join(" + "));

    // One cell per simulation: each thread's equal-share target (the
    // private machine with beta = alpha = 1/4), then the mix under FCFS
    // and under VPC.
    let quarter = Share::new(1, 4).unwrap();
    let mut cells: Vec<(String, Cell)> = mix
        .iter()
        .map(|b| {
            let target = Cell::target(&base, WorkloadSpec::Spec(b), quarter, quarter, budget);
            (format!("target/{b}"), target.unwrap())
        })
        .collect();
    for (label, arbiter) in [("fcfs", ArbiterPolicy::Fcfs), ("vpc", ArbiterPolicy::vpc_equal(4))] {
        cells.push((label.to_string(), fig10::mix_cell(&base, &mix, arbiter, budget)));
    }
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let ipcs = run_cells(&cells, RunOptions { budget, jobs }, |cell| cell.run().1.ipc);
    let targets: Vec<f64> = ipcs[..4].iter().map(|ipc| ipc[0]).collect();
    let (fcfs, vpc) = (&ipcs[4], &ipcs[5]);

    println!(
        "{:<10} {:>9} {:>10} {:>10} {:>11} {:>10}",
        "thread", "target", "FCFS IPC", "FCFS norm", "VPC IPC", "VPC norm"
    );
    for i in 0..4 {
        println!(
            "{:<10} {:>9.3} {:>10.3} {:>10.3} {:>11.3} {:>10.3}",
            mix[i],
            targets[i],
            fcfs[i],
            fcfs[i] / targets[i],
            vpc[i],
            vpc[i] / targets[i],
        );
    }

    let fcfs_norm = normalized_ipcs(fcfs, &targets);
    let vpc_norm = normalized_ipcs(vpc, &targets);
    println!(
        "\nharmonic mean: FCFS {:.3} -> VPC {:.3} ({:+.1}%)",
        harmonic_mean(&fcfs_norm),
        harmonic_mean(&vpc_norm),
        improvement_pct(harmonic_mean(&fcfs_norm), harmonic_mean(&vpc_norm)),
    );
    println!(
        "minimum:       FCFS {:.3} -> VPC {:.3} ({:+.1}%)",
        minimum(&fcfs_norm),
        minimum(&vpc_norm),
        improvement_pct(minimum(&fcfs_norm), minimum(&vpc_norm)),
    );
    println!(
        "\nUnder FCFS the lightest thread falls below its fair-share target\n\
         (normalized < 1.0); the VPC arbiters guarantee every thread its\n\
         share, then redistribute the excess."
    );
}

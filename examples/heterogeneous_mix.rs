//! The paper's throughput headline on one heterogeneous mix: eliminating
//! negative interference raises both the harmonic mean of normalized IPCs
//! and the worst thread's normalized IPC.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example heterogeneous_mix
//! ```

use vpc::experiments::{fig10, RunBudget};
use vpc::prelude::*;

fn main() {
    let base = CmpConfig::table1();
    let budget = RunBudget { warmup: 40_000, window: 160_000 };
    let mix = ["art", "mcf", "equake", "gzip"];

    println!("== Heterogeneous mix: {} ==\n", mix.join(" + "));

    // Figure 10's plan for one mix: each thread's equal-share target (the
    // private machine with beta = alpha = 1/4) and standalone baseline
    // (alone on the unmanaged CMP), then the mix under FCFS and under VPC.
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let r = fig10::plan(&base, &[mix], budget).run(jobs);
    let m = &r.mixes[0];

    println!("IPC normalized to the thread's target, and to the thread alone:");
    println!(
        "{:<10} {:>11} {:>10} {:>12} {:>11}",
        "thread", "FCFS/target", "VPC/target", "FCFS/alone", "VPC/alone"
    );
    for (i, thread) in mix.iter().enumerate() {
        println!(
            "{:<10} {:>11.3} {:>10.3} {:>12.3} {:>11.3}",
            thread, m.fcfs_norm[i], m.vpc_norm[i], m.fcfs_standalone[i], m.vpc_standalone[i],
        );
    }

    println!(
        "\nharmonic mean: FCFS {:.3} -> VPC {:.3} ({:+.1}%)",
        m.fcfs_hmean(),
        m.vpc_hmean(),
        improvement_pct(m.fcfs_hmean(), m.vpc_hmean()),
    );
    println!(
        "minimum:       FCFS {:.3} -> VPC {:.3} ({:+.1}%)",
        m.fcfs_min(),
        m.vpc_min(),
        improvement_pct(m.fcfs_min(), m.vpc_min()),
    );
    println!("weighted speedup: FCFS {:.2} -> VPC {:.2}", m.fcfs_ws(), m.vpc_ws());
    println!(
        "\nUnder FCFS the lightest thread falls below its fair-share target\n\
         (normalized < 1.0); the VPC arbiters guarantee every thread its\n\
         share, then redistribute the excess."
    );
}

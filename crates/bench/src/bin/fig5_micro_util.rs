//! Figure 5: microbenchmark L2 utilization vs. bank count.
//!
//! `--trace out.json` and `--metrics` also run the 4-thread contention
//! variant (one Loads stream vs. three Stores streams) under equal-share
//! VPC arbiters and under FCFS. `--trace` writes one trace per job (merged
//! in `out.json`, one file per job next to it; the VPC contention run is
//! `out.fig5-contention-Loads-3xStores.json`). `--metrics` prints both
//! contention runs' QoS ledgers to stderr. Neither flag changes stdout.

use vpc::experiments::{fig5, run_cells};
use vpc::json::to_json;
use vpc::prelude::*;

fn main() {
    let cli = vpc_bench::Cli::from_env(true);
    let base = CmpConfig::table1();
    let scenarios = [
        ("VPC (equal shares)", "", ArbiterPolicy::vpc_equal(4)),
        ("FCFS", " FCFS", ArbiterPolicy::Fcfs),
    ];
    let mut ledgers = Vec::new();
    let run = |opts| {
        let result = fig5::run(&base, opts);
        if cli.trace.is_some() || cli.metrics {
            // Grant/defer interleaving, virtual times and ledgers only mean
            // something under contention, which the grid points lack.
            let cells: Vec<(String, Cell)> = scenarios
                .iter()
                .map(|(_, suffix, arbiter)| {
                    let cell = fig5::contention_cell(&base, arbiter.clone(), opts.budget);
                    (format!("fig5/contention Loads+3xStores{suffix}"), cell)
                })
                .collect();
            ledgers = run_cells(&cells, opts, |cell| {
                let mut ledger = fig5::contention_ledger();
                cell.run_with_ledger(Some(&mut ledger));
                ledger
            });
        }
        result
    };
    vpc_bench::figure(&cli, "fig5", "Figure 5", run, Some(to_json));

    if cli.metrics {
        for ((name, ..), ledger) in scenarios.iter().zip(&ledgers) {
            eprintln!("-- contention scenario under {name} --");
            eprint!("{ledger}");
        }
    }
}

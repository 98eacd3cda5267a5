//! Writes Table 1, Figures 4–10 and the ablations into `results/`, or
//! under `--quick` the goldens of `results/quick/`, from one batch of
//! cells. Both directories are relative to the working directory and
//! must exist. Per-job timings and the files written go to stderr; stdout
//! stays empty. `--trace` and `--metrics` also run fig5's contention
//! scenario under VPC and FCFS (docs/TRACING.md); neither changes a file.

use std::path::Path;
use std::process::exit;
use std::time::Instant;

use vpc::experiments::{fig5, reproduce, run_cells, RunBudget, RunOptions, FIGURES};
use vpc::metrics::QosLedger;
use vpc::prelude::*;
use vpc_sim::trace;

fn main() {
    let cli = vpc_bench::Cli::from_env();
    let dir =
        Path::new(if cli.opts.budget == RunBudget::quick() { "results/quick" } else { "results" });
    if !dir.is_dir() {
        eprintln!("error: output directory {} does not exist", dir.display());
        exit(1);
    }
    trace::set_capture(cli.trace.as_ref().map(|_| trace::DEFAULT_CAPACITY));
    let start = Instant::now();
    let files = reproduce(&FIGURES, cli.opts);
    let ledgers =
        if cli.trace.is_some() || cli.metrics { contention_ledgers(cli.opts) } else { Vec::new() };
    vpc_bench::report_timings("reproduce", cli.opts.jobs, start.elapsed());
    for (name, contents) in &files {
        let path = dir.join(name);
        if let Err(err) = std::fs::write(&path, contents) {
            eprintln!("error: cannot write {}: {err}", path.display());
            exit(1);
        }
        eprintln!("-- wrote {} --", path.display());
    }
    if cli.metrics {
        for (name, ledger) in &ledgers {
            eprintln!("-- contention scenario under {name} --");
            eprint!("{ledger}");
        }
    }
    if let Some(path) = &cli.trace {
        vpc_bench::write_job_traces(path, &trace::take_job_logs());
    }
}

/// Runs fig5's contention cell under equal-share VPC arbiters and under
/// FCFS, each filling its QoS ledger. Grant/defer interleaving, virtual
/// times and ledgers only mean something under contention, which the
/// figures' grid points lack.
fn contention_ledgers(opts: RunOptions) -> Vec<(&'static str, QosLedger)> {
    let scenarios = [
        ("VPC (equal shares)", "", ArbiterPolicy::vpc_equal(4)),
        ("FCFS", " FCFS", ArbiterPolicy::Fcfs),
    ];
    let cells: Vec<(String, Cell)> = scenarios
        .iter()
        .map(|(_, suffix, arbiter)| {
            let cell = fig5::contention_cell(&CmpConfig::table1(), arbiter.clone(), opts.budget);
            (format!("fig5/contention Loads+3xStores{suffix}"), cell)
        })
        .collect();
    let ledgers = run_cells(&cells, opts, |cell| {
        let mut ledger = fig5::contention_ledger();
        cell.run_with_ledger(Some(&mut ledger));
        ledger
    });
    scenarios.iter().map(|(name, ..)| *name).zip(ledgers).collect()
}

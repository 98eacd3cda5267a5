//! Figure 5: microbenchmark L2 utilization vs. number of banks.
//!
//! `--trace out.json` writes one trace per grid point (merged in
//! `out.json`, one file per job next to it) plus the 4-thread contention
//! variant (one Loads stream vs. three Stores streams under equal-share
//! VPC arbiters) as `out.fig5-contention-Loads-3xStores.json`.
//! `--metrics` prints the QoS ledger of the same scenario under VPC and
//! FCFS to stderr. Neither flag changes stdout.

use vpc::experiments::fig5;
use vpc::json::to_json;
use vpc::prelude::*;
use vpc_sim::trace;

/// Label of the contention scenario's trace.
const CONTENTION: &str = "fig5/contention Loads+3xStores";

fn main() {
    let cli = vpc_bench::Cli::from_env();
    let base = CmpConfig::table1();
    vpc_bench::figure(&cli, "fig5", "Figure 5", |opts| fig5::run(&base, opts), Some(to_json));

    if let Some(path) = &cli.trace {
        // Grant/defer interleaving and virtual times only mean something
        // under contention, which the single-thread grid points lack.
        let log = fig5::trace_scenario(&base, cli.opts.budget, trace::DEFAULT_CAPACITY);
        vpc_bench::write_trace_beside(path, CONTENTION, &log);
    }

    if cli.metrics {
        for (name, arbiter) in
            [("VPC (equal shares)", ArbiterPolicy::vpc_equal(4)), ("FCFS", ArbiterPolicy::Fcfs)]
        {
            let ledger = fig5::qos_ledger(&base, arbiter, cli.opts.budget);
            eprintln!("-- contention scenario under {name} --");
            eprint!("{ledger}");
        }
    }
}

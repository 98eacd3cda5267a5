//! Writes Table 1, Figures 4–10 and the ablations into `results/`, or
//! under `--quick` the goldens of `results/quick/`, from one batch of
//! cells. Both directories are relative to the working directory and
//! must exist. Per-job timings and the files written go to stderr; stdout
//! stays empty. Traces and QoS ledgers come from `simulate`
//! (docs/TRACING.md).

use std::path::Path;
use std::process::exit;
use std::time::Instant;

use vpc::experiments::{reproduce, RunBudget, FIGURES};

fn main() {
    let cli = vpc_bench::Cli::from_env();
    let dir = Path::new(if cli.budget == RunBudget::quick() { "results/quick" } else { "results" });
    if !dir.is_dir() {
        eprintln!("error: output directory {} does not exist", dir.display());
        exit(1);
    }
    let start = Instant::now();
    let files = reproduce(&FIGURES, cli.budget, cli.jobs);
    vpc_bench::report_timings("reproduce", cli.jobs, start.elapsed());
    for (name, contents) in &files {
        let path = dir.join(name);
        if let Err(err) = std::fs::write(&path, contents) {
            eprintln!("error: cannot write {}: {err}", path.display());
            exit(1);
        }
        eprintln!("-- wrote {} --", path.display());
    }
}

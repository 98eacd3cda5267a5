//! One benchmark per table/figure of the paper: each scenario runs a
//! reduced-budget version of the corresponding experiment end to end, so
//! the bench both regenerates every result's machinery and tracks the
//! harness's performance over time. The full-length runs (paper-scale
//! windows, all benchmarks/mixes) live in the other `vpc-bench` binaries.
//!
//! Run with `--json` for a machine-readable `BENCH_*.json` baseline, and
//! `--quick` for a fast smoke pass. The scenario list itself lives in
//! [`vpc_bench::scenarios`], shared with `perf_smoke`.

use std::time::Instant;

use vpc_bench::harness::Suite;

fn main() {
    let cli = vpc_bench::Cli::from_env();
    let mut suite = Suite::new("figures", cli.quick(), cli.json);
    let start = Instant::now();

    vpc_bench::scenarios::figures(&mut suite, cli.opts.jobs);

    suite.finish();
    vpc_bench::report_timings("bench_figures", cli.opts.jobs, start.elapsed());
}

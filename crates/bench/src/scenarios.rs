//! The canonical figure-benchmark scenario list, shared by
//! `bench_figures` (which records the `BENCH_*.json` baselines) and
//! `perf_smoke` (which re-runs the same scenarios in quick mode and
//! compares against a recorded baseline). Keeping one definition ensures
//! the two binaries always measure the same thing under the same names.

use std::hint::black_box;

use vpc::experiments::{
    ablations, fig10, fig4, fig5, fig6, fig7, fig8, fig9, RunBudget, RunOptions,
};
use vpc::prelude::*;

use crate::harness::Suite;

fn small_base() -> CmpConfig {
    let mut cfg = CmpConfig::table1();
    cfg.l2.total_sets = 1024;
    cfg
}

fn tiny() -> RunBudget {
    RunBudget { warmup: 4_000, window: 12_000 }
}

/// Runs every figure scenario into `suite`, in the order the checked-in
/// baselines list them; the figure grids run on `jobs` worker threads.
pub fn figures(suite: &mut Suite, jobs: usize) {
    let base = small_base();
    let opts = RunOptions { budget: tiny(), jobs };

    suite.bench("fig4_bank_timing", 100, || black_box(fig4::run(&base)));
    suite.bench("fig5_micro_utilization", 30, || black_box(fig5::run(&base, opts)));
    // One representative benchmark per weight class keeps the bench quick.
    suite.bench("fig6_spec_utilization", 30, || {
        for name in ["art", "gcc", "sixtrack"] {
            black_box(fig6::run_one(&base, name, tiny()));
        }
    });
    suite.bench("fig7_store_gathering", 30, || {
        let mut cfg = base.clone();
        cfg.processors = 1;
        cfg.l2.threads = 1;
        let mut sys = CmpSystem::new(cfg, &[WorkloadSpec::Spec("mesa")]);
        black_box(sys.run_measured(tiny().warmup, tiny().window).gathering_rate[0])
    });
    // The full 18-benchmark table:
    suite.bench("fig7_full/all_benchmarks", 10, || black_box(fig7::run(&base, opts)));
    suite.bench("fig8/loads_stores_sweep", 10, || black_box(fig8::run(&base, opts)));
    suite.bench("fig9/subject_vs_stores", 10, || black_box(fig9::run(&base, &["gcc"], opts)));
    suite.bench("fig10/heterogeneous_mix", 10, || {
        black_box(fig10::run(&base, &[["gcc", "gzip", "twolf", "ammp"]], opts))
    });
    suite.bench("ablations/work_conservation", 10, || {
        black_box(ablations::work_conservation(&base, opts))
    });
}

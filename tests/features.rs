//! Integration tests for the library's extension features: replayed op
//! streams through the full system and per-thread utilization.

use vpc::experiments::{fig10, fig9, Cell, RunBudget};
use vpc::prelude::*;
use vpc_cpu::{FixedTrace, Workload};
use vpc_sim::ThreadId;
use vpc_workloads::spec;

fn quick_config(threads: usize) -> CmpConfig {
    let mut cfg = CmpConfig::table1_with_threads(threads);
    cfg.l2.total_sets = 1024;
    cfg
}

#[test]
fn recorded_trace_reproduces_the_generator_through_the_full_system() {
    // Record a long prefix of the art generator, then run the generator
    // and the recorded ops through identical systems: as long as the
    // replay has not wrapped, the machines are cycle-identical.
    let mut generator = spec::workload("art", ThreadId(0)).unwrap();
    let ops = (0..200_000).map(|_| generator.next_op()).collect();
    let trace = FixedTrace::new("art", ops);

    let fresh_generator = spec::workload("art", ThreadId(0)).unwrap();
    let mut sys_gen = CmpSystem::with_workloads(quick_config(1), vec![Box::new(fresh_generator)]);
    let mut sys_trace = CmpSystem::with_workloads(quick_config(1), vec![Box::new(trace)]);

    // 30k cycles dispatch far fewer than 200k ops, so no wrap occurs.
    sys_gen.run(30_000);
    sys_trace.run(30_000);
    assert_eq!(
        sys_gen.core(ThreadId(0)).retired(),
        sys_trace.core(ThreadId(0)).retired(),
        "trace replay must be cycle-identical to the generator"
    );
    assert!(sys_gen.core(ThreadId(0)).retired() > 1_000);
}

/// `CmpSystem::new` runs the simulator's workloads statically dispatched;
/// `CmpSystem::with_workloads` runs the same workloads boxed. Both must
/// measure the same machine, on a Figure 9 and a Figure 10 cell.
#[test]
fn boxed_workloads_measure_what_static_ones_do() {
    let base = CmpConfig::table1();
    let budget = RunBudget::quick();
    let cells: [Cell; 2] = [
        fig9::subject_cell(&base, "art", fig9::subject_share_policy(1, 2), budget),
        fig10::mix_cell(&base, &fig10::MIXES[0], ArbiterPolicy::vpc_equal(4), budget),
    ];
    for cell in cells {
        let boxed: Vec<Box<dyn Workload>> =
            cell.workloads.iter().enumerate().map(|(i, w)| w.build(ThreadId(i as u8))).collect();
        let mut statics = CmpSystem::new(cell.cfg.clone(), &cell.workloads);
        let mut dynamic = CmpSystem::with_workloads(cell.cfg.clone(), boxed);
        let m_static = statics.run_measured(budget.warmup, budget.window);
        let m_dynamic = dynamic.run_measured(budget.warmup, budget.window);
        assert_eq!(format!("{m_static:?}"), format!("{m_dynamic:?}"), "{:?}", cell.workloads);
        for t in (0..cell.workloads.len()).map(|t| ThreadId(t as u8)) {
            assert_eq!(statics.core(t).retired(), dynamic.core(t).retired());
        }
        assert_eq!(statics.l2().busy_cycles(), dynamic.l2().busy_cycles());
        assert!(statics.core(ThreadId(0)).retired() > 0);
    }
}

#[test]
fn per_thread_utilization_attribution_sums_to_total() {
    let cfg = quick_config(2).with_arbiter(ArbiterPolicy::vpc_equal(2));
    let mut sys = CmpSystem::new(cfg, &[WorkloadSpec::Loads, WorkloadSpec::Stores]);
    let m = sys.run_measured(10_000, 40_000);
    let sum: f64 = m.data_util_per_thread.iter().sum();
    assert!(
        (sum - m.util.data_array).abs() < 0.02,
        "per-thread attribution ({sum:.3}) must sum to the total ({:.3})",
        m.util.data_array
    );
    assert!(m.data_util_per_thread.iter().all(|&u| u > 0.0));
}

/// Full-length calibration regression: the 18 SPEC profiles preserve the
/// paper's Figure 6 ordering and aggregate. All 18 standard-budget runs
/// go through the `exec` job pool, which keeps this fast enough to run
/// by default.
#[test]
fn spec_calibration_matches_figure6_shape() {
    use vpc::experiments::{fig6, RunBudget, RunOptions};
    let base = CmpConfig::table1();
    let r = fig6::run(&base, RunOptions { budget: RunBudget::standard(), jobs: 4 });
    // Mean data-array utilization near the paper's 26%.
    let mean = r.mean_data_util();
    assert!(
        (0.22..0.32).contains(&mean),
        "mean data utilization {mean:.3} should be near the paper's 0.26"
    );
    // The plotting order (most to least aggressive) is non-increasing
    // within a tolerance band.
    let utils: Vec<f64> = r.rows.iter().map(|row| row.util.data_array).collect();
    for w in utils.windows(2) {
        assert!(w[1] <= w[0] * 1.15, "ordering violated: {utils:?}");
    }
    // Streaming benchmarks invert tag vs data.
    let swim = r.row("swim").unwrap();
    assert!(swim.util.tag_array >= swim.util.data_array * 0.9);
}

//! Integration tests for the library's extension features: trace-driven
//! workloads through the full system, and live VPM repartitioning.

use vpc::prelude::*;
use vpc::vpm::{VpmAllocation, VpmConfig};
use vpc_sim::ThreadId;
use vpc_workloads::{record, spec, TraceWorkload};

fn quick_config(threads: usize) -> CmpConfig {
    let mut cfg = CmpConfig::table1_with_threads(threads);
    cfg.l2.total_sets = 1024;
    cfg
}

#[test]
fn recorded_trace_reproduces_the_generator_through_the_full_system() {
    // Record a long prefix of the art generator, then run the generator
    // and the recorded trace through identical systems: as long as the
    // trace has not wrapped, the machines are cycle-identical.
    let ops = 200_000;
    let mut generator = spec::workload("art", ThreadId(0)).unwrap();
    let text = record(&mut generator, ops);
    let trace: TraceWorkload = text.parse().unwrap();
    assert_eq!(trace.len(), ops);

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

#[test]
fn vpm_repartitioning_shifts_qos_between_live_threads() {
    // Phase 1: thread 0 owns 3/4 of the machine. Phase 2: the OS flips the
    // partitioning. Both phases' IPC ratios must follow the registers.
    let shares = vec![Share::new(3, 4).unwrap(), Share::new(1, 4).unwrap()];
    let cfg = quick_config(2).with_vpc_shares(shares);
    let mut sys = CmpSystem::new(cfg, &[WorkloadSpec::Loads, WorkloadSpec::Loads]);

    sys.run(10_000);
    let snap = sys.snapshot();
    sys.run(40_000);
    let phase1 = sys.measure(&snap);
    assert!(phase1.ipc[0] > phase1.ipc[1] * 2.0, "phase 1: thread 0 dominates: {:?}", phase1.ipc);

    let flipped = VpmConfig::new(vec![
        VpmAllocation::symmetric(Share::new(1, 4).unwrap()),
        VpmAllocation::symmetric(Share::new(3, 4).unwrap()),
    ])
    .unwrap();
    assert!(flipped.apply(&mut sys));

    sys.run(10_000); // settle
    let snap = sys.snapshot();
    sys.run(40_000);
    let phase2 = sys.measure(&snap);
    assert!(
        phase2.ipc[1] > phase2.ipc[0] * 2.0,
        "phase 2: thread 1 dominates after repartitioning: {:?}",
        phase2.ipc
    );
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

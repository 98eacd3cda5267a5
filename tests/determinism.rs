//! Reproducibility: every simulation is a pure function of its
//! configuration — no wall-clock, no global RNG, no iteration-order
//! dependence.

use vpc::experiments::RunBudget;
use vpc::prelude::*;

fn run_once(seed_mix: &[&'static str; 4]) -> Vec<u64> {
    let mut cfg = CmpConfig::table1().with_arbiter(ArbiterPolicy::vpc_equal(4));
    cfg.l2.total_sets = 1024;
    let workloads: Vec<WorkloadSpec> = seed_mix.iter().map(|b| WorkloadSpec::Spec(b)).collect();
    let mut sys = CmpSystem::new(cfg, &workloads);
    sys.run(60_000);
    (0..4).map(|t| sys.core(ThreadId(t)).retired()).collect()
}

#[test]
fn identical_configs_produce_identical_histories() {
    let mix = ["art", "mcf", "equake", "gzip"];
    let a = run_once(&mix);
    let b = run_once(&mix);
    assert_eq!(a, b, "simulation must be deterministic");
    assert!(a.iter().all(|&r| r > 0), "all threads made progress: {a:?}");
}

#[test]
fn different_threads_get_independent_streams() {
    // The same benchmark on different processors uses disjoint addresses
    // and a different RNG stream, so retired counts differ slightly under
    // contention but nobody aliases anybody's cache lines.
    let mut cfg = CmpConfig::table1().with_arbiter(ArbiterPolicy::vpc_equal(4));
    cfg.l2.total_sets = 1024;
    let workloads = vec![WorkloadSpec::Spec("gcc"); 4];
    let mut sys = CmpSystem::new(cfg, &workloads);
    sys.run(60_000);
    let retired: Vec<u64> = (0..4).map(|t| sys.core(ThreadId(t)).retired()).collect();
    assert!(retired.iter().all(|&r| r > 1000), "all four make progress: {retired:?}");
    // Equal shares + same profile => roughly equal progress.
    let max = *retired.iter().max().unwrap() as f64;
    let min = *retired.iter().min().unwrap() as f64;
    assert!(max / min < 1.25, "equal-share same-profile threads stay balanced: {retired:?}");
}

#[test]
fn measurement_windows_compose() {
    // Two back-to-back measured windows cover exactly what one long window
    // covers (counters are exact, no double counting).
    let mut cfg = CmpConfig::table1_with_threads(1);
    cfg.l2.total_sets = 1024;
    let mut sys = CmpSystem::new(cfg, &[WorkloadSpec::Spec("gcc")]);
    sys.run(10_000);
    let s0 = sys.snapshot();
    sys.run(20_000);
    let first = sys.measure(&s0);
    let s1 = sys.snapshot();
    sys.run(20_000);
    let second = sys.measure(&s1);
    let whole = sys.measure(&s0);
    let retired_sum = first.ipc[0] * 20_000.0 + second.ipc[0] * 20_000.0;
    let retired_whole = whole.ipc[0] * 40_000.0;
    assert!(
        (retired_sum - retired_whole).abs() < 1.0,
        "windows must compose exactly: {retired_sum} vs {retired_whole}"
    );
}

#[test]
fn experiment_budgets_are_honored() {
    let b = RunBudget::quick();
    let mut cfg = CmpConfig::table1_with_threads(1);
    cfg.l2.total_sets = 1024;
    let mut sys = CmpSystem::new(cfg, &[WorkloadSpec::Idle]);
    let m = sys.run_measured(b.warmup, b.window);
    assert_eq!(m.cycles, b.window);
    assert_eq!(sys.now(), b.warmup + b.window);
}

/// A cell's read-latency histogram covers its measured window, as its
/// `Measurement` does: its count is the number of reads that a hand-run
/// system of the same cell completes between the end of the warm-up and
/// the end of the window.
#[test]
fn read_latency_covers_the_measured_window() {
    let mut cfg = CmpConfig::table1().with_arbiter(ArbiterPolicy::vpc_equal(2));
    cfg.l2.total_sets = 1024;
    let budget = RunBudget { warmup: 10_000, window: 20_000 };
    let cell = Cell::shared(cfg, vec![WorkloadSpec::Spec("mcf"), WorkloadSpec::Stores], budget);
    let (sys, _) = cell.run();

    let mut hand = CmpSystem::new(cell.cfg.clone(), &cell.workloads);
    hand.run(budget.warmup);
    let warmup_reads = hand.l2().read_latency(ThreadId(0)).count();
    hand.run(budget.window);
    let window_reads = hand.l2().read_latency(ThreadId(0)).count() - warmup_reads;
    assert!(warmup_reads > 0 && window_reads > 0, "reads complete in both intervals");
    assert_eq!(sys.l2().read_latency(ThreadId(0)).count(), window_reads);
}

//! End-to-end QoS tests spanning every crate: cores + caches + arbiters +
//! capacity manager + memory, checking the paper's central claims on a
//! scaled-down (but structurally identical) configuration.

use vpc::experiments::RunBudget;
use vpc::prelude::*;

fn quick_base(threads: usize) -> CmpConfig {
    let mut cfg = CmpConfig::table1_with_threads(threads);
    cfg.l2.total_sets = 2048; // 4 MB: keeps test time low, same structure
    cfg
}

/// The §5.3 target IPC of `workload` at shares `(beta, alpha)`: 0.0
/// without a bandwidth share.
fn qos_target(base: &CmpConfig, workload: WorkloadSpec, beta: Share, alpha: Share) -> f64 {
    Cell::target(base, workload, beta, alpha, RunBudget::quick())
        .map_or(0.0, |cell| cell.run().1.ipc[0])
}

fn run_pair(cfg: CmpConfig, budget: RunBudget) -> Vec<f64> {
    let mut sys = CmpSystem::new(cfg, &[WorkloadSpec::Loads, WorkloadSpec::Stores]);
    sys.run_measured(budget.warmup, budget.window).ipc
}

#[test]
fn row_fcfs_starves_stores_end_to_end() {
    // §5.3: "the Loads benchmark prevents the Stores benchmark from
    // receiving any cache bandwidth ... a critical design flaw."
    let budget = RunBudget::quick();
    let ipc = run_pair(quick_base(2).with_arbiter(ArbiterPolicy::RowFcfs), budget);
    assert!(ipc[0] > 0.2, "Loads runs at speed: {:?}", ipc);
    assert!(ipc[1] < 0.01, "Stores is starved: {:?}", ipc);
}

#[test]
fn fcfs_splits_data_array_two_to_one_for_stores() {
    // §5.3: uniform interleaving gives Stores 67% of the data array
    // because writes cost two accesses; IPC ratio ~2:1 in Stores' favor.
    let budget = RunBudget::quick();
    let ipc = run_pair(quick_base(2).with_arbiter(ArbiterPolicy::Fcfs), budget);
    let ratio = ipc[1] / ipc[0];
    assert!(
        (1.5..=2.5).contains(&ratio),
        "stores/loads IPC ratio {ratio:.2} should be ~2 under FCFS: {ipc:?}"
    );
}

#[test]
fn vpc_divides_bandwidth_precisely_across_allocations() {
    // Figure 8: "All five VPC arbiters precisely provide each benchmark its
    // share of the cache bandwidth over a broad range of allocations."
    let budget = RunBudget::quick();
    let mut loads_prev = f64::INFINITY;
    let mut stores_prev = 0.0;
    for stores_pct in [25u32, 50, 75] {
        let shares = vec![
            Share::from_percent(100 - stores_pct).unwrap(),
            Share::from_percent(stores_pct).unwrap(),
        ];
        let ipc = run_pair(quick_base(2).with_vpc_shares(shares), budget);
        assert!(ipc[0] < loads_prev, "Loads IPC decreases as its share shrinks");
        assert!(ipc[1] > stores_prev, "Stores IPC increases with its share");
        loads_prev = ipc[0];
        stores_prev = ipc[1];
    }
}

#[test]
fn vpc_meets_private_machine_targets() {
    // The QoS objective: a VPC performs at least as well as a real private
    // machine with the same resources.
    let budget = RunBudget::quick();
    let base = quick_base(2);
    let half = Share::new(1, 2).unwrap();
    let ipc = run_pair(base.clone().with_vpc_shares(vec![half, half]), budget);
    for (i, spec) in [WorkloadSpec::Loads, WorkloadSpec::Stores].iter().enumerate() {
        let target = qos_target(&base, *spec, half, half);
        assert!(
            ipc[i] >= target * 0.9,
            "{} IPC {:.3} below target {:.3}",
            spec.name(),
            ipc[i],
            target
        );
    }
}

#[test]
fn excess_bandwidth_is_work_conserved() {
    // A thread whose partner is idle receives the partner's unused
    // bandwidth on top of its own guarantee.
    let budget = RunBudget::quick();
    let half = Share::new(1, 2).unwrap();
    let cfg = quick_base(2).with_vpc_shares(vec![half, half]);
    let mut sys = CmpSystem::new(cfg, &[WorkloadSpec::Loads, WorkloadSpec::Idle]);
    let m = sys.run_measured(budget.warmup, budget.window);
    let base = quick_base(2);
    let guarantee = qos_target(&base, WorkloadSpec::Loads, half, half);
    assert!(
        m.ipc[0] > guarantee * 1.5,
        "idle partner's bandwidth should flow to Loads: IPC {:.3} vs guarantee {:.3}",
        m.ipc[0],
        guarantee
    );
}

#[test]
fn zero_share_thread_survives_only_on_excess() {
    // Figure 8's "VPC 0%": the zero-share Stores thread is starved while
    // Loads consumes everything, but nothing deadlocks.
    let budget = RunBudget::quick();
    let shares = vec![Share::FULL, Share::ZERO];
    let ipc = run_pair(quick_base(2).with_vpc_shares(shares), budget);
    assert!(ipc[0] > 0.2, "full-share Loads runs at speed");
    assert!(ipc[1] < ipc[0] * 0.1, "zero-share Stores gets only scraps: {ipc:?}");
}

#[test]
fn four_thread_system_meets_equal_share_targets() {
    // The full Table 1 configuration with four SPEC threads under equal
    // VPC shares: every thread meets its beta = alpha = 1/4 target.
    let budget = RunBudget::quick();
    let base = quick_base(4);
    let cfg = base.clone().with_arbiter(ArbiterPolicy::vpc_equal(4));
    let mix = ["art", "mcf", "gcc", "gzip"];
    let workloads: Vec<WorkloadSpec> = mix.iter().map(|b| WorkloadSpec::Spec(b)).collect();
    let mut sys = CmpSystem::new(cfg, &workloads);
    let m = sys.run_measured(budget.warmup, budget.window);
    let quarter = Share::new(1, 4).unwrap();
    for (i, b) in mix.iter().enumerate() {
        let target = qos_target(&base, WorkloadSpec::Spec(b), quarter, quarter);
        assert!(
            m.ipc[i] >= target * 0.9,
            "{b}: shared IPC {:.3} below equal-share target {:.3}",
            m.ipc[i],
            target
        );
    }
}

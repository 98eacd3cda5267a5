//! Performance-isolation properties: a VPC-protected thread's performance
//! must be (nearly) independent of what its neighbors run.

use vpc::experiments::{fig9, run_cells, Cell, RunBudget, RunOptions};
use vpc::prelude::*;

const QUICK: RunOptions = RunOptions { budget: RunBudget::quick(), jobs: 2 };

fn quick_base() -> CmpConfig {
    let mut cfg = CmpConfig::table1();
    cfg.l2.total_sets = 2048;
    cfg
}

/// `subject` against three copies of `bg` under `arbiter`.
fn with_background(arbiter: ArbiterPolicy, subject: &'static str, bg: WorkloadSpec) -> Cell {
    let workloads = vec![WorkloadSpec::Spec(subject), bg, bg, bg];
    Cell::shared(quick_base().with_arbiter(arbiter), workloads, RunBudget::quick())
}

/// Thread 0's IPC in each cell.
fn subject_ipcs(cells: &[(String, Cell)], opts: RunOptions) -> Vec<f64> {
    run_cells(cells, opts, |cell| cell.run().1.ipc[0])
}

#[test]
fn subject_performance_is_insensitive_to_background_choice() {
    // Swap the background from idle spinners to the most aggressive store
    // stream: the subject's VPC holds its guarantee, so the change is
    // bounded (it may *lose excess* bandwidth, but never its guarantee).
    let quarter = Share::new(1, 4).unwrap();
    let gcc = WorkloadSpec::Spec("gcc");
    let target = Cell::target(&quick_base(), gcc, quarter, quarter, RunBudget::quick());
    let backgrounds = [WorkloadSpec::Idle, WorkloadSpec::Spec("gzip"), WorkloadSpec::Stores];
    let mut cells = vec![("guarantee".to_string(), target.expect("nonzero share"))];
    for bg in backgrounds {
        cells
            .push((bg.name().to_string(), with_background(ArbiterPolicy::vpc_equal(4), "gcc", bg)));
    }
    let ipcs = subject_ipcs(&cells, QUICK);
    let guarantee = ipcs[0];
    for (bg, ipc) in backgrounds.iter().zip(&ipcs[1..]) {
        assert!(
            *ipc >= guarantee * 0.9,
            "gcc with {} background: IPC {:.3} below guarantee {:.3}",
            bg.name(),
            ipc,
            guarantee
        );
    }
}

#[test]
fn fcfs_subject_is_sensitive_to_background_choice() {
    // The contrast: without VPC arbiters the same swap swings the subject
    // hard — this is the negative interference the paper eliminates.
    let cells = [WorkloadSpec::Idle, WorkloadSpec::Stores]
        .map(|bg| (bg.name().to_string(), with_background(ArbiterPolicy::Fcfs, "gcc", bg)));
    let [calm, hostile] = <[f64; 2]>::try_from(subject_ipcs(&cells, QUICK)).unwrap();
    assert!(
        hostile < calm * 0.8,
        "FCFS should expose the subject to interference: calm {calm:.3} vs hostile {hostile:.3}"
    );
}

#[test]
fn capacity_quotas_bound_streaming_pollution() {
    // With a small cache, streaming neighbors under LRU strip the
    // subject's working set; VPC way quotas preserve the subject's hit
    // rate. (Identical FCFS arbiters isolate the capacity effect.)
    let budget = RunBudget { warmup: 20_000, window: 120_000 };
    let policies = [("lru", CapacityPolicy::Lru), ("vpc", CapacityPolicy::vpc_equal(4))];
    let cells = policies.map(|(label, capacity)| {
        let mut cfg = quick_base().with_arbiter(ArbiterPolicy::Fcfs).with_capacity(capacity);
        cfg.l2.total_sets = 256; // 512 KB: small enough to thrash in-window
        let workloads = ["gzip", "swim", "equake", "swim"].map(WorkloadSpec::Spec).to_vec();
        (label.to_string(), Cell::shared(cfg, workloads, budget))
    });
    let [lru, vpc] = <[f64; 2]>::try_from(subject_ipcs(&cells, QUICK)).unwrap();
    assert!(
        vpc >= lru * 0.98,
        "way quotas must protect the subject's working set: LRU {lru:.3} vs VPC {vpc:.3}"
    );
}

#[test]
fn performance_is_monotone_in_bandwidth_share() {
    // §4.3's performance-monotonicity assumption, checked empirically:
    // more bandwidth never hurts.
    let shares = [(1u32, 8u32), (1, 4), (1, 2), (1, 1)];
    let cells: Vec<(String, Cell)> = shares
        .iter()
        .map(|&(num, den)| {
            let policy = fig9::subject_share_policy(num, den);
            let cell = fig9::subject_cell(&quick_base(), "vpr", policy, RunBudget::quick());
            (format!("{num}/{den}"), cell)
        })
        .collect();
    let ipcs = subject_ipcs(&cells, QUICK);
    for (w, (num, den)) in ipcs.windows(2).zip(&shares[1..]) {
        assert!(
            w[1] >= w[0] * 0.97,
            "IPC should not decrease with share {num}/{den}: {:.3} after {:.3}",
            w[1],
            w[0]
        );
    }
}

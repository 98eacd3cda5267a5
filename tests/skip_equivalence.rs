//! The headline guarantee of quiescence-aware cycle skipping: a system
//! advanced with [`CmpSystem::run`] (which fast-forwards through
//! provably-idle regions) is *state-identical* — down to every counter,
//! histogram bucket, and queue — to one advanced by the retained naive
//! reference loop, at every observation point.
//!
//! The comparison is the full `Debug` rendering of both systems, which
//! transitively covers every core (ROB, queues, stall counters, L1,
//! workload cursor), every L2 bank (ports, SMs, arbiters, meters,
//! histograms), and the memory controller (channels, queues, in-flight
//! requests). Any divergence — a stat off by one, a request issued a
//! cycle early — shows up as a string mismatch.

use vpc::{CmpConfig, CmpSystem, WorkloadSpec};
use vpc_arbiters::{ArbiterPolicy, IntraThreadOrder};
use vpc_cache::CapacityPolicy;
use vpc_mem::ChannelMode;
use vpc_sim::check::{self, Config};
use vpc_sim::{ensure, Share, SplitMix64};

fn random_workload(rng: &mut SplitMix64) -> WorkloadSpec {
    match rng.below(8) {
        0 => WorkloadSpec::Loads,
        1 => WorkloadSpec::Stores,
        2 => WorkloadSpec::Idle,
        3 => WorkloadSpec::Spec("gcc"),
        4 => WorkloadSpec::Spec("art"),
        5 => WorkloadSpec::Spec("mcf"),
        6 => WorkloadSpec::Spec("equake"),
        _ => WorkloadSpec::Spec("gzip"),
    }
}

fn random_arbiter(rng: &mut SplitMix64, threads: usize) -> ArbiterPolicy {
    let equal: Vec<Share> = vec![Share::new(1, threads as u32).unwrap(); threads];
    match rng.below(4) {
        0 => ArbiterPolicy::Fcfs,
        1 => ArbiterPolicy::RowFcfs,
        2 => ArbiterPolicy::vpc_equal(threads),
        _ => ArbiterPolicy::Vpc { shares: equal, order: IntraThreadOrder::Fifo },
    }
}

fn random_config(rng: &mut SplitMix64) -> (CmpConfig, Vec<WorkloadSpec>) {
    let threads = rng.below(4) as usize + 1;
    let mut cfg =
        CmpConfig::table1_with_threads(threads).with_arbiter(random_arbiter(rng, threads));
    cfg.l2.total_sets = if rng.chance(0.5) { 512 } else { 1024 };
    if rng.chance(0.5) {
        cfg.l2.capacity = CapacityPolicy::vpc_equal(threads);
    }
    cfg.channels = match rng.below(3) {
        0 => ChannelMode::PerThread,
        1 => ChannelMode::SharedFcfs,
        _ => {
            ChannelMode::SharedFq { shares: vec![Share::new(1, threads as u32).unwrap(); threads] }
        }
    };
    let workloads = (0..threads).map(|_| random_workload(rng)).collect();
    (cfg, workloads)
}

/// Randomized workloads, thread counts, arbiters, capacity policies, and
/// channel modes: after every chunk of cycles, the skipping system's full
/// `Debug` state equals the naive reference's.
#[test]
fn skipping_is_state_identical_to_naive() {
    check::forall("skipping_is_state_identical_to_naive", Config::cases(10), |rng| {
        let (cfg, workloads) = random_config(rng);
        let mut naive = CmpSystem::new(cfg.clone(), &workloads);
        let mut skipping = CmpSystem::new(cfg, &workloads);
        // Uneven chunk boundaries so skip regions straddle observation
        // points (run() must clamp fast-forward at each chunk end).
        for chunk in 0..4 {
            let cycles = rng.below(8_000) + 500;
            naive.run_reference(cycles);
            skipping.run(cycles);
            let a = format!("{naive:?}");
            let b = format!("{skipping:?}");
            ensure!(
                a == b,
                "state diverged after chunk {chunk} at cycle {}: \
                 first difference at byte {}",
                naive.now(),
                a.bytes().zip(b.bytes()).position(|(x, y)| x != y).unwrap_or(a.len().min(b.len())),
            );
        }
        Ok(())
    });
}

/// The measurement API (warm-up + window) agrees between the two loops —
/// the path every experiment binary actually takes.
#[test]
fn measured_windows_agree_with_naive() {
    let mut cfg = CmpConfig::table1_with_threads(2).with_arbiter(ArbiterPolicy::vpc_equal(2));
    cfg.l2.total_sets = 512;
    let workloads = [WorkloadSpec::Spec("art"), WorkloadSpec::Stores];

    let mut skipping = CmpSystem::new(cfg.clone(), &workloads);
    let fast = skipping.run_measured(5_000, 20_000);

    let mut naive = CmpSystem::new(cfg, &workloads);
    naive.run_reference(5_000);
    let snap = naive.snapshot();
    naive.run_reference(20_000);
    let slow = naive.measure(&snap);

    assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "measurements must be identical");
}

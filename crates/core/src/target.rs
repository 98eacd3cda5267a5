//! QoS target IPCs (§5.3).
//!
//! A thread's *target IPC* is its performance on a standalone private
//! machine provisioned like its VPC: a uniprocessor whose private cache has
//! the same number of sets, `alpha_i * ways` ways, and all shared-resource
//! latencies scaled by `1/beta_i`. A VPC meets its QoS objective when the
//! thread's IPC on the shared machine is at least this target (modulo
//! preemption-latency effects, which the paper quantifies).

use vpc_sim::Share;

use crate::config::{CmpConfig, WorkloadSpec};
use crate::experiments::{Cell, RunBudget};

/// Computes the target IPC of `workload` for a VPC with bandwidth share
/// `beta` and capacity share `alpha`, by simulating the equivalent private
/// machine ([`Cell::target`]) for `warmup + window` cycles.
///
/// Returns `0.0` when `beta` is zero (a thread with no bandwidth allocation
/// has no performance guarantee, as in the paper's Figure 8 "VPC 0%"
/// configuration).
pub fn target_ipc(
    base: &CmpConfig,
    workload: WorkloadSpec,
    beta: Share,
    alpha: Share,
    warmup: u64,
    window: u64,
) -> f64 {
    Cell::target(base, workload, beta, alpha, RunBudget { warmup, window })
        .map_or(0.0, |cell| cell.run().1.ipc[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_base() -> CmpConfig {
        let mut cfg = CmpConfig::table1();
        cfg.l2.total_sets = 512;
        cfg
    }

    #[test]
    fn zero_share_has_zero_target() {
        let base = quick_base();
        let t = target_ipc(&base, WorkloadSpec::Loads, Share::ZERO, Share::FULL, 100, 100);
        assert_eq!(t, 0.0);
    }

    #[test]
    fn target_scales_with_bandwidth_share() {
        let base = quick_base();
        let alpha = Share::new(1, 4).unwrap();
        let full = target_ipc(&base, WorkloadSpec::Loads, Share::FULL, alpha, 20_000, 40_000);
        let half = target_ipc(
            &base,
            WorkloadSpec::Loads,
            Share::new(1, 2).unwrap(),
            alpha,
            20_000,
            40_000,
        );
        assert!(full > 0.0 && half > 0.0);
        // The Loads microbenchmark is pure L2 bandwidth: halving the share
        // roughly halves the target.
        let ratio = full / half;
        assert!((1.6..=2.4).contains(&ratio), "bandwidth scaling ratio {ratio} != ~2");
    }

    #[test]
    fn monotone_in_share_for_stores() {
        let base = quick_base();
        let alpha = Share::new(1, 4).unwrap();
        let shares = [Share::new(1, 4).unwrap(), Share::new(1, 2).unwrap(), Share::FULL];
        let targets: Vec<f64> = shares
            .iter()
            .map(|&b| target_ipc(&base, WorkloadSpec::Stores, b, alpha, 20_000, 40_000))
            .collect();
        assert!(
            targets.windows(2).all(|w| w[0] <= w[1] * 1.05),
            "targets should increase with share: {targets:?}"
        );
    }
}

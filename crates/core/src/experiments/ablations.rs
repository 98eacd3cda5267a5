//! Ablations of the VPC design choices DESIGN.md calls out.
//!
//! These go beyond the paper's figures and probe the mechanisms directly.
//! Each function returns its [`Plan`]:
//!
//! * [`reorder`] — intra-thread read-over-write reordering inside the VPC
//!   arbiter buffers (§4.1.1's optimization) on vs. off;
//! * [`capacity`] — the VPC Capacity Manager vs. unmanaged LRU when a
//!   cache-sensitive subject shares with streaming threads;
//! * [`preemption`] — sensitivity of a low-MLP subject to the data array's
//!   service quantum (the non-preemptible resource's preemption latency,
//!   §4.1.2);
//! * [`scaling`] — every thread of an equal-share VPC meets its `1/n`
//!   target as the CMP grows from 2 to 8 threads;
//! * [`work_conservation`] — a backlogged thread picks up an idle
//!   partner's unused bandwidth and exceeds its own allocation's target.

use std::fmt;

use vpc_arbiters::{ArbiterPolicy, IntraThreadOrder};
use vpc_cache::CapacityPolicy;
use vpc_sim::Share;

use crate::config::{CmpConfig, WorkloadSpec};
use crate::experiments::{fig9, Cell, Plan, RunBudget};

/// Result of the intra-thread reordering ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorderResult {
    /// Subject IPC with FIFO thread buffers.
    pub fifo_ipc: f64,
    /// Subject IPC with read-over-write reordering.
    pub row_ipc: f64,
    /// Partner (Stores) IPC with FIFO buffers.
    pub fifo_partner_ipc: f64,
    /// Partner (Stores) IPC with RoW reordering.
    pub row_partner_ipc: f64,
}

impl fmt::Display for ReorderResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation: VPC intra-thread reordering (mixed subject + Stores partner)")?;
        writeln!(f, "  subject IPC: FIFO {:.3} -> RoW {:.3}", self.fifo_ipc, self.row_ipc)?;
        writeln!(
            f,
            "  partner IPC: FIFO {:.3} -> RoW {:.3} (bandwidth guarantee unaffected)",
            self.fifo_partner_ipc, self.row_partner_ipc
        )
    }
}

/// A load+store mixed subject (vpr) against a Stores partner under
/// VPC 50/50, with and without intra-thread RoW reordering.
pub fn reorder(base: &CmpConfig, budget: RunBudget) -> Plan<ReorderResult> {
    let half = Share::new(1, 2).expect("half share");
    let cells = [("fifo", IntraThreadOrder::Fifo), ("row", IntraThreadOrder::ReadOverWrite)].map(
        |(label, order)| {
            let cfg = base
                .clone()
                .with_arbiter(ArbiterPolicy::Vpc { shares: vec![half, half], order })
                .with_capacity(CapacityPolicy::vpc_equal(2));
            let workloads = vec![WorkloadSpec::Spec("vpr"), WorkloadSpec::Stores];
            (format!("ablations/reorder/{label}"), Cell::shared(cfg, workloads, budget))
        },
    );
    Plan::new(cells.into(), |records| {
        let [fifo, row] = [&records[0].m.ipc, &records[1].m.ipc];
        ReorderResult {
            fifo_ipc: fifo[0],
            row_ipc: row[0],
            fifo_partner_ipc: fifo[1],
            row_partner_ipc: row[1],
        }
    })
}

/// Result of the capacity-manager ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityResult {
    /// Subject IPC with unmanaged LRU capacity.
    pub lru_ipc: f64,
    /// Subject IPC with the VPC Capacity Manager (equal quotas).
    pub vpc_ipc: f64,
}

impl fmt::Display for CapacityResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation: capacity manager (cache-sensitive subject vs 3 streaming threads)")?;
        writeln!(
            f,
            "  subject IPC: shared LRU {:.3} -> VPC way quotas {:.3}",
            self.lru_ipc, self.vpc_ipc
        )
    }
}

/// A cache-sensitive subject (gzip) shares a *small* L2 (scaled so the
/// streaming threads can actually flush it within the run) with three
/// streaming threads, under identical FCFS arbiters — isolating the
/// capacity effect.
pub fn capacity(base: &CmpConfig, budget: RunBudget) -> Plan<CapacityResult> {
    let budget = RunBudget { window: budget.window * 2, ..budget };
    let cells = [("lru", CapacityPolicy::Lru), ("vpc", CapacityPolicy::vpc_equal(4))].map(
        |(label, policy)| {
            let mut cfg = base.clone().with_capacity(policy);
            // 512 sets x 32 ways x 64 B = 1 MB: small enough to thrash.
            cfg.l2.total_sets = 512;
            let workloads = ["gzip", "swim", "equake", "swim"].map(WorkloadSpec::Spec).to_vec();
            (format!("ablations/capacity/{label}"), Cell::shared(cfg, workloads, budget))
        },
    );
    Plan::new(cells.into(), |records| CapacityResult {
        lru_ipc: records[0].m.ipc[0],
        vpc_ipc: records[1].m.ipc[0],
    })
}

/// One point of the preemption-latency sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreemptionPoint {
    /// Configured data-array service time.
    pub data_latency: u64,
    /// Subject IPC normalized to its (equally-reconfigured) target.
    pub normalized_ipc: f64,
    /// Subject's mean L2 read latency (intake to critical word).
    pub read_latency_mean: f64,
    /// Subject's worst L2 read latency in the measured window.
    pub read_latency_max: u64,
}

/// Result of the preemption-latency sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PreemptionResult {
    /// One point per configured data-array latency.
    pub points: Vec<PreemptionPoint>,
}

impl fmt::Display for PreemptionResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation: preemption latency (mcf at beta=1/2 vs 3x Stores)")?;
        for p in &self.points {
            writeln!(
                f,
                "  data latency {:2} cycles -> normalized IPC {:.3}, L2 read latency mean {:5.1} / max {:3}",
                p.data_latency, p.normalized_ipc, p.read_latency_mean, p.read_latency_max
            )?;
        }
        writeln!(f, "  (normalized IPC >= ~1.0 everywhere: preemption latency does not break the QoS target, \u{00a7}4.1.2)")
    }
}

/// Sweeps the data-array service time for a low-MLP subject (mcf, whose
/// isolated misses cannot amortize preemption latency) running against
/// three Stores threads at `beta = 1/2`. The paper's §4.1.2 claim — that
/// the preemption latency of the non-preemptible resources does not often
/// have a significant effect on meeting targets — holds if the normalized
/// IPC stays at or above ~1.0 across the sweep.
pub fn preemption(base: &CmpConfig, budget: RunBudget) -> Plan<PreemptionResult> {
    let half = Share::new(1, 2).expect("half");
    let quarter = Share::new(1, 4).expect("quarter");
    let latencies = [4u64, 8, 16];
    let mut cells = Vec::new();
    for lat in latencies {
        let mut cfg = base.clone();
        cfg.l2.data_latency = lat;
        let label = format!("ablations/preemption/data_latency_{lat}");
        let subject = fig9::subject_cell(&cfg, "mcf", fig9::subject_share_policy(1, 2), budget);
        let target = Cell::target(&cfg, WorkloadSpec::Spec("mcf"), half, quarter, budget);
        cells.push((label.clone(), subject));
        cells.push((format!("{label}/target"), target.expect("nonzero share")));
    }
    Plan::new(cells, move |records| {
        let points = latencies
            .into_iter()
            .zip(records.chunks_exact(2))
            .map(|(data_latency, pair)| {
                let (ipc, target, hist) =
                    (pair[0].m.ipc[0], pair[1].m.ipc[0], &pair[0].read_latency[0]);
                PreemptionPoint {
                    data_latency,
                    normalized_ipc: if target > 0.0 { ipc / target } else { 0.0 },
                    read_latency_mean: hist.mean(),
                    read_latency_max: hist.max(),
                }
            })
            .collect();
        PreemptionResult { points }
    })
}

/// Result of the thread-count scaling check.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingResult {
    /// (thread count, fraction of threads meeting their equal-share target
    /// within 10%).
    pub points: Vec<(usize, f64)>,
}

impl fmt::Display for ScalingResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation: scaling (equal-share VPC, gcc on every thread)")?;
        for (threads, met) in &self.points {
            writeln!(
                f,
                "  {threads} threads -> {:.0}% of threads meet their 1/{threads} target",
                met * 100.0
            )?;
        }
        Ok(())
    }
}

/// Scales the CMP from 2 to 8 threads (the per-thread structure limit),
/// every thread running the same mid-weight profile (gcc) under equal VPC
/// shares; checks that each thread still meets its `1/n` target. Bank
/// count scales with threads as a designer would provision it.
pub fn scaling(base: &CmpConfig, budget: RunBudget) -> Plan<ScalingResult> {
    let counts = [2usize, 4, 8];
    let mut cells = Vec::new();
    for threads in counts {
        let share = Share::new(1, threads as u32).expect("1/threads");
        let banked = base.clone().with_banks((threads / 2).max(2));
        let cfg = banked
            .clone()
            .with_vpc_shares(vec![share; threads])
            .with_capacity(CapacityPolicy::Vpc { shares: vec![share; threads] });
        let gcc = WorkloadSpec::Spec("gcc");
        let label = format!("ablations/scaling/{threads}_threads");
        let target = Cell::target(&banked, gcc, share, share, budget);
        cells.push((label.clone(), Cell::shared(cfg, vec![gcc; threads], budget)));
        cells.push((format!("{label}/target"), target.expect("nonzero share")));
    }
    Plan::new(cells, move |records| {
        let points = counts
            .into_iter()
            .zip(records.chunks_exact(2))
            .map(|(threads, pair)| {
                let target = pair[1].m.ipc[0];
                let met = pair[0].m.ipc.iter().filter(|&&ipc| ipc >= target * 0.9).count();
                (threads, met as f64 / threads as f64)
            })
            .collect();
        ScalingResult { points }
    })
}

/// Result of the work-conservation check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkConservationResult {
    /// Loads IPC at `beta = 1/2` with a busy Stores partner.
    pub busy_partner_ipc: f64,
    /// Loads IPC at `beta = 1/2` with an idle partner (excess bandwidth
    /// redistributed).
    pub idle_partner_ipc: f64,
    /// Loads target at `beta = 1/2` (the guarantee).
    pub half_target: f64,
    /// Loads target at `beta = 1` (the ceiling work conservation can
    /// approach).
    pub full_target: f64,
}

impl fmt::Display for WorkConservationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation: work conservation (Loads at beta=1/2)")?;
        writeln!(
            f,
            "  busy partner: IPC {:.3} (guarantee {:.3})",
            self.busy_partner_ipc, self.half_target
        )?;
        writeln!(
            f,
            "  idle partner: IPC {:.3} (ceiling {:.3}) — excess bandwidth redistributed",
            self.idle_partner_ipc, self.full_target
        )
    }
}

/// Loads at `beta = 1/2` against a busy Stores partner and against an
/// idle partner.
pub fn work_conservation(base: &CmpConfig, budget: RunBudget) -> Plan<WorkConservationResult> {
    let half = Share::new(1, 2).expect("half");
    let cfg =
        base.clone().with_vpc_shares(vec![half, half]).with_capacity(CapacityPolicy::vpc_equal(2));
    let mut cells: Vec<(String, Cell)> =
        [("busy", WorkloadSpec::Stores), ("idle", WorkloadSpec::Idle)]
            .map(|(label, partner)| {
                let cell = Cell::shared(cfg.clone(), vec![WorkloadSpec::Loads, partner], budget);
                (format!("ablations/work_conservation/{label}"), cell)
            })
            .into();
    for (label, beta) in [("half_target", half), ("full_target", Share::FULL)] {
        let target = Cell::target(base, WorkloadSpec::Loads, beta, half, budget);
        cells
            .push((format!("ablations/work_conservation/{label}"), target.expect("nonzero share")));
    }
    Plan::new(cells, |records| {
        let ipc = |i: usize| records[i].m.ipc[0];
        WorkConservationResult {
            busy_partner_ipc: ipc(0),
            idle_partner_ipc: ipc(1),
            half_target: ipc(2),
            full_target: ipc(3),
        }
    })
}

/// All five ablations in report order, rendered one blank line apart
/// (`results/ablations.txt` after its header).
pub(crate) fn plan(base: &CmpConfig, budget: RunBudget) -> Plan<String> {
    Plan::join(vec![
        reorder(base, budget).map(|r| r.to_string()),
        capacity(base, budget).map(|r| r.to_string()),
        preemption(base, budget).map(|r| r.to_string()),
        scaling(base, budget).map(|r| r.to_string()),
        work_conservation(base, budget).map(|r| r.to_string()),
    ])
    .map(|texts| texts.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_base() -> CmpConfig {
        let mut base = CmpConfig::table1();
        base.l2.total_sets = 2048;
        base
    }

    #[test]
    fn qos_scales_to_eight_threads() {
        let r = scaling(&quick_base(), RunBudget::quick()).run(2);
        for (threads, met) in &r.points {
            assert!(*met >= 0.99, "every thread must meet its 1/{threads} target: {r}");
        }
    }

    #[test]
    fn work_conservation_redistributes_excess() {
        let r = work_conservation(&quick_base(), RunBudget::quick()).run(2);
        assert!(
            r.idle_partner_ipc > r.busy_partner_ipc * 1.2,
            "idle partner should free bandwidth: busy {:.3} vs idle {:.3}",
            r.busy_partner_ipc,
            r.idle_partner_ipc
        );
        assert!(
            r.idle_partner_ipc > r.half_target,
            "with an idle partner, Loads should exceed its guarantee"
        );
    }

    #[test]
    fn reordering_does_not_break_partner_guarantee() {
        let r = reorder(&quick_base(), RunBudget::quick()).run(2);
        // RoW reordering is intra-thread: the partner's bandwidth share is
        // unchanged (within noise).
        let rel = (r.row_partner_ipc - r.fifo_partner_ipc).abs() / r.fifo_partner_ipc.max(1e-9);
        assert!(rel < 0.15, "partner IPC moved {rel:.2} under subject-side reordering: {r}");
    }

    #[test]
    fn preemption_latency_does_not_break_subject_target() {
        // §4.1.2: the non-preemptible data array's service quantum rarely
        // costs a thread its target. At this budget the subject sits at
        // 1.004-1.009 of its target; the 3% floor absorbs the short window's
        // sampling error, yet fails FCFS, which leaves the same mix at 0.78
        // of the target (results/quick/fig9_spec_vs_stores.json).
        let r = preemption(&quick_base(), RunBudget::quick()).run(2);
        assert_eq!(r.points.len(), 3);
        for p in &r.points {
            assert!(
                p.normalized_ipc >= 0.97,
                "data latency {}: subject below its target: {r}",
                p.data_latency
            );
        }
    }

    #[test]
    fn capacity_manager_protects_working_set() {
        let r = capacity(&quick_base(), RunBudget::quick()).run(2);
        assert!(r.vpc_ipc >= r.lru_ipc * 0.95, "VPC quotas must not hurt the subject: {r}");
    }
}

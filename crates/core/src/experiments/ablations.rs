//! Ablations of the VPC design choices DESIGN.md calls out.
//!
//! These go beyond the paper's figures and probe the mechanisms directly:
//!
//! * [`reorder`] — intra-thread read-over-write reordering inside the VPC
//!   arbiter buffers (§4.1.1's optimization) on vs. off;
//! * [`capacity`] — the VPC Capacity Manager vs. unmanaged LRU when a
//!   cache-sensitive subject shares with streaming threads;
//! * [`preemption`] — sensitivity of a low-MLP subject to the data array's
//!   service quantum (the non-preemptible resource's preemption latency,
//!   §4.1.2);
//! * [`work_conservation`] — a backlogged thread picks up an idle
//!   partner's unused bandwidth and exceeds its own allocation's target.

use std::fmt;

use vpc_arbiters::{ArbiterPolicy, IntraThreadOrder};
use vpc_cache::CapacityPolicy;
use vpc_mem::ChannelMode;
use vpc_sim::exec::{self, Job};
use vpc_sim::Share;

use crate::config::{CmpConfig, WorkloadSpec};
use crate::experiments::RunOptions;
use crate::system::CmpSystem;
use crate::target::target_ipc;

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

/// Runs a load+store mixed subject (vpr) against a Stores partner under
/// VPC 50/50, with and without intra-thread RoW reordering.
pub fn reorder(base: &CmpConfig, opts: RunOptions) -> ReorderResult {
    let budget = opts.budget;
    let half = Share::new(1, 2).expect("half share");
    let run_with = |order: IntraThreadOrder| {
        let mut cfg =
            base.clone().with_arbiter(ArbiterPolicy::Vpc { shares: vec![half, half], order });
        cfg.processors = 2;
        cfg.l2.threads = 2;
        cfg.l2.capacity = CapacityPolicy::vpc_equal(2);
        let mut sys = CmpSystem::new(cfg, &[WorkloadSpec::Spec("vpr"), WorkloadSpec::Stores]);
        let m = sys.run_measured(budget.warmup, budget.window);
        (m.ipc[0], m.ipc[1])
    };
    let run_with = &run_with;
    let jobs = [("fifo", IntraThreadOrder::Fifo), ("row", IntraThreadOrder::ReadOverWrite)]
        .map(|(label, order)| {
            Job::new(format!("ablations/reorder/{label}"), move || run_with(order))
        })
        .into_iter()
        .collect();
    let results = exec::map_indexed(jobs, opts.jobs);
    let (fifo_ipc, fifo_partner_ipc) = results[0];
    let (row_ipc, row_partner_ipc) = results[1];
    ReorderResult { fifo_ipc, row_ipc, fifo_partner_ipc, row_partner_ipc }
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
pub fn capacity(base: &CmpConfig, opts: RunOptions) -> CapacityResult {
    let budget = opts.budget;
    let run_with = |capacity: CapacityPolicy| {
        let mut cfg = base.clone().with_capacity(capacity);
        cfg.processors = 4;
        cfg.l2.threads = 4;
        // 512 sets x 32 ways x 64 B = 1 MB: small enough to thrash.
        cfg.l2.total_sets = 512;
        let workloads = [
            WorkloadSpec::Spec("gzip"),
            WorkloadSpec::Spec("swim"),
            WorkloadSpec::Spec("equake"),
            WorkloadSpec::Spec("swim"),
        ];
        let mut sys = CmpSystem::new(cfg, &workloads);
        let m = sys.run_measured(budget.warmup, budget.window * 2);
        m.ipc[0]
    };
    let run_with = &run_with;
    let jobs = [("lru", CapacityPolicy::Lru), ("vpc", CapacityPolicy::vpc_equal(4))]
        .map(|(label, policy)| {
            Job::new(format!("ablations/capacity/{label}"), move || run_with(policy))
        })
        .into_iter()
        .collect();
    let results = exec::map_indexed(jobs, opts.jobs);
    CapacityResult { lru_ipc: results[0], vpc_ipc: results[1] }
}

/// One point of the preemption-latency sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreemptionPoint {
    /// Configured data-array service time.
    pub data_latency: u64,
    /// Subject IPC normalized to its (equally-reconfigured) target.
    pub normalized_ipc: f64,
    /// Subject's mean L2 read latency (intake to critical word).
    pub mean_read_latency: f64,
    /// Subject's p95 L2 read latency.
    pub p95_read_latency: u64,
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
                "  data latency {:2} cycles -> normalized IPC {:.3}, L2 read latency mean {:5.1} / p95 {:3}",
                p.data_latency, p.normalized_ipc, p.mean_read_latency, p.p95_read_latency
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
pub fn preemption(base: &CmpConfig, opts: RunOptions) -> PreemptionResult {
    let budget = opts.budget;
    let quarter = Share::new(1, 4).expect("quarter");
    let subject = vpc_sim::ThreadId(0);
    let jobs = [4u64, 8, 16]
        .iter()
        .map(|&lat| {
            Job::new(format!("ablations/preemption/data_latency_{lat}"), move || {
                let mut cfg = base.clone();
                cfg.l2.data_latency = lat;
                let run_cfg =
                    cfg.clone().with_arbiter(crate::experiments::fig9::subject_share_policy(1, 2));
                let workloads = [
                    WorkloadSpec::Spec("mcf"),
                    WorkloadSpec::Stores,
                    WorkloadSpec::Stores,
                    WorkloadSpec::Stores,
                ];
                let mut sys = CmpSystem::new(run_cfg, &workloads);
                let m = sys.run_measured(budget.warmup, budget.window);
                let hist = sys.l2().read_latency(subject);
                let target = target_ipc(
                    &cfg,
                    WorkloadSpec::Spec("mcf"),
                    Share::new(1, 2).unwrap(),
                    quarter,
                    budget.warmup,
                    budget.window,
                );
                PreemptionPoint {
                    data_latency: lat,
                    normalized_ipc: if target > 0.0 { m.ipc[0] / target } else { 0.0 },
                    mean_read_latency: hist.mean(),
                    p95_read_latency: hist.percentile(0.95),
                }
            })
        })
        .collect();
    PreemptionResult { points: exec::map_indexed(jobs, opts.jobs) }
}

/// Result of the shared-memory-channel scheduling ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryFqResult {
    /// Latency-sensitive subject's IPC when the shared channel is FCFS.
    pub fcfs_ipc: f64,
    /// Subject's IPC under equal-share fair queuing (beta = 1/4 each).
    pub fq_equal_ipc: f64,
    /// Subject's IPC with differentiated service: beta = 1/2 for the
    /// subject, 1/6 for each stream.
    pub fq_half_ipc: f64,
    /// Reference: subject's IPC with a private channel (the paper's
    /// isolation configuration).
    pub private_ipc: f64,
}

impl fmt::Display for MemoryFqResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation: shared memory channel (mcf vs 3x swim, VPC cache arbiters)")?;
        writeln!(f, "  shared channel, FCFS        : subject IPC {:.3}", self.fcfs_ipc)?;
        writeln!(f, "  shared channel, FQ beta=1/4 : subject IPC {:.3}", self.fq_equal_ipc)?;
        writeln!(f, "  shared channel, FQ beta=1/2 : subject IPC {:.3}", self.fq_half_ipc)?;
        writeln!(
            f,
            "  private channel             : subject IPC {:.3} (isolation reference)",
            self.private_ipc
        )
    }
}

/// Extends the VPM framework to main-memory bandwidth (§2.1's FQ memory
/// scheduler): a latency-sensitive subject (mcf) and three streaming
/// threads (swim) share *one* DDR2 channel. FCFS lets the streams crowd
/// the channel; fair queuing enforces the subject's allocation, and
/// growing the allocation (differentiated service) buys back most of the
/// private-channel performance. Equal-share FQ also exposes a known
/// virtual-clock property: a bursty low-MLP client's back-to-back requests
/// carry deadlines spaced at `1/beta`, so its *burst* latency can exceed
/// FCFS even though its bandwidth share is guaranteed.
pub fn memory_fq(base: &CmpConfig, opts: RunOptions) -> MemoryFqResult {
    let budget = opts.budget;
    let run_with = |channels: ChannelMode| {
        let mut cfg =
            base.clone().with_arbiter(ArbiterPolicy::vpc_equal(4)).with_channels(channels);
        cfg.processors = 4;
        cfg.l2.threads = 4;
        let workloads = [
            WorkloadSpec::Spec("mcf"),
            WorkloadSpec::Spec("swim"),
            WorkloadSpec::Spec("swim"),
            WorkloadSpec::Spec("swim"),
        ];
        let mut sys = CmpSystem::new(cfg, &workloads);
        sys.run_measured(budget.warmup, budget.window).ipc[0]
    };
    let quarter = Share::new(1, 4).expect("quarter");
    let half = Share::new(1, 2).expect("half");
    let sixth = Share::new(1, 6).expect("sixth");
    let run_with = &run_with;
    let jobs = [
        ("fcfs", ChannelMode::SharedFcfs),
        ("fq_equal", ChannelMode::SharedFq { shares: vec![quarter; 4] }),
        ("fq_half", ChannelMode::SharedFq { shares: vec![half, sixth, sixth, sixth] }),
        ("private", ChannelMode::PerThread),
    ]
    .map(|(label, channels)| {
        Job::new(format!("ablations/memory_fq/{label}"), move || run_with(channels))
    })
    .into_iter()
    .collect();
    let results = exec::map_indexed(jobs, opts.jobs);
    MemoryFqResult {
        fcfs_ipc: results[0],
        fq_equal_ipc: results[1],
        fq_half_ipc: results[2],
        private_ipc: results[3],
    }
}

/// Result of the VPC-with-prefetching ablation (the paper's future work).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchResult {
    /// Subject IPC while the neighbor does not prefetch.
    pub subject_no_pf: f64,
    /// Subject IPC while the neighbor prefetches at degree 4.
    pub subject_with_pf: f64,
    /// Subject's QoS target (beta = alpha = 1/2).
    pub subject_target: f64,
    /// The prefetching neighbor's IPC without prefetching.
    pub neighbor_no_pf: f64,
    /// The prefetching neighbor's IPC with prefetching.
    pub neighbor_with_pf: f64,
}

impl fmt::Display for PrefetchResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation: VPC-supported prefetching (the paper's future work)")?;
        writeln!(
            f,
            "  neighbor (swim, low-MLP core): IPC {:.3} -> {:.3} with degree-4 prefetch",
            self.neighbor_no_pf, self.neighbor_with_pf
        )?;
        writeln!(
            f,
            "  subject  (gcc): IPC {:.3} -> {:.3} (target {:.3}) — prefetch traffic is charged to",
            self.subject_no_pf, self.subject_with_pf, self.subject_target
        )?;
        writeln!(f, "  the issuing thread's share, so the subject's QoS guarantee is undisturbed")
    }
}

/// A low-MLP streaming neighbor (swim on a 2-entry-LMQ core) turns on
/// degree-4 sequential prefetching while sharing the cache 50/50 with a
/// subject (gcc) under VPC arbiters. Prefetches consume the *issuing*
/// thread's bandwidth share, so the neighbor speeds itself up without
/// taking anything from the subject — VPC makes prefetching QoS-safe.
pub fn prefetch(base: &CmpConfig, opts: RunOptions) -> PrefetchResult {
    let budget = opts.budget;
    let half = Share::new(1, 2).expect("half");
    let run_with = |degree: usize| {
        let mut cfg = base.clone().with_vpc_shares(vec![half, half]);
        cfg.processors = 2;
        cfg.l2.threads = 2;
        cfg.l2.capacity = CapacityPolicy::vpc_equal(2);
        let mut subject_core = cfg.core;
        let mut neighbor_core = cfg.core;
        neighbor_core.l1.lmq_entries = 2;
        neighbor_core.prefetch_degree = degree;
        subject_core.prefetch_degree = 0;
        let workloads = [WorkloadSpec::Spec("gcc"), WorkloadSpec::Spec("swim")];
        let mut sys = CmpSystem::with_core_configs(cfg, &[subject_core, neighbor_core], &workloads);
        let m = sys.run_measured(budget.warmup, budget.window);
        (m.ipc[0], m.ipc[1])
    };
    let run_with = &run_with;
    let jobs = [("off", 0usize), ("degree4", 4)]
        .map(|(label, degree)| {
            Job::new(format!("ablations/prefetch/{label}"), move || run_with(degree))
        })
        .into_iter()
        .collect();
    let results = exec::map_indexed(jobs, opts.jobs);
    let (subject_no_pf, neighbor_no_pf) = results[0];
    let (subject_with_pf, neighbor_with_pf) = results[1];
    PrefetchResult {
        subject_no_pf,
        subject_with_pf,
        subject_target: target_ipc(
            base,
            WorkloadSpec::Spec("gcc"),
            half,
            half,
            budget.warmup,
            budget.window,
        ),
        neighbor_no_pf,
        neighbor_with_pf,
    }
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
pub fn scaling(base: &CmpConfig, opts: RunOptions) -> ScalingResult {
    let budget = opts.budget;
    let jobs = [2usize, 4, 8]
        .iter()
        .map(|&threads| {
            Job::new(format!("ablations/scaling/{threads}_threads"), move || {
                let share = Share::new(1, threads as u32).expect("1/threads");
                let banks = (threads / 2).max(2);
                let mut cfg = base
                    .clone()
                    .with_banks(banks)
                    .with_arbiter(ArbiterPolicy::Vpc {
                        shares: vec![share; threads],
                        order: IntraThreadOrder::ReadOverWrite,
                    })
                    .with_capacity(CapacityPolicy::Vpc { shares: vec![share; threads] });
                cfg.processors = threads;
                cfg.l2.threads = threads;
                let workloads = vec![WorkloadSpec::Spec("gcc"); threads];
                let mut sys = CmpSystem::new(cfg, &workloads);
                let m = sys.run_measured(budget.warmup, budget.window);
                let target_base = base.clone().with_banks(banks);
                let target = target_ipc(
                    &target_base,
                    WorkloadSpec::Spec("gcc"),
                    share,
                    share,
                    budget.warmup,
                    budget.window,
                );
                let met = m.ipc.iter().filter(|&&ipc| ipc >= target * 0.9).count();
                (threads, met as f64 / threads as f64)
            })
        })
        .collect();
    ScalingResult { points: exec::map_indexed(jobs, opts.jobs) }
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

/// Runs Loads at `beta = 1/2` against a busy Stores partner and against an
/// idle partner.
pub fn work_conservation(base: &CmpConfig, opts: RunOptions) -> WorkConservationResult {
    let budget = opts.budget;
    let half = Share::new(1, 2).expect("half");
    let run_with = |partner: WorkloadSpec| {
        let mut cfg = base.clone().with_arbiter(ArbiterPolicy::Vpc {
            shares: vec![half, half],
            order: IntraThreadOrder::ReadOverWrite,
        });
        cfg.processors = 2;
        cfg.l2.threads = 2;
        cfg.l2.capacity = CapacityPolicy::vpc_equal(2);
        let mut sys = CmpSystem::new(cfg, &[WorkloadSpec::Loads, partner]);
        let m = sys.run_measured(budget.warmup, budget.window);
        m.ipc[0]
    };
    let run_with = &run_with;
    let jobs = [("busy", WorkloadSpec::Stores), ("idle", WorkloadSpec::Idle)]
        .map(|(label, partner)| {
            Job::new(format!("ablations/work_conservation/{label}"), move || run_with(partner))
        })
        .into_iter()
        .collect();
    let results = exec::map_indexed(jobs, opts.jobs);
    WorkConservationResult {
        busy_partner_ipc: results[0],
        idle_partner_ipc: results[1],
        half_target: target_ipc(
            base,
            WorkloadSpec::Loads,
            half,
            half,
            budget.warmup,
            budget.window,
        ),
        full_target: target_ipc(
            base,
            WorkloadSpec::Loads,
            Share::FULL,
            half,
            budget.warmup,
            budget.window,
        ),
    }
}

/// Runs all seven ablations in report order and renders them as the
/// `ablations` binary prints them, one blank line apart.
pub fn run_all(base: &CmpConfig, opts: RunOptions) -> String {
    [
        reorder(base, opts).to_string(),
        capacity(base, opts).to_string(),
        preemption(base, opts).to_string(),
        memory_fq(base, opts).to_string(),
        prefetch(base, opts).to_string(),
        scaling(base, opts).to_string(),
        work_conservation(base, opts).to_string(),
    ]
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::RunBudget;

    const QUICK: RunOptions = RunOptions { budget: RunBudget::quick(), jobs: 2 };

    fn quick_base() -> CmpConfig {
        let mut base = CmpConfig::table1();
        base.l2.total_sets = 2048;
        base
    }

    #[test]
    fn qos_scales_to_eight_threads() {
        let r = scaling(&quick_base(), QUICK);
        for (threads, met) in &r.points {
            assert!(*met >= 0.99, "every thread must meet its 1/{threads} target: {r}");
        }
    }

    #[test]
    fn work_conservation_redistributes_excess() {
        let r = work_conservation(&quick_base(), QUICK);
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
        let r = reorder(&quick_base(), QUICK);
        // RoW reordering is intra-thread: the partner's bandwidth share is
        // unchanged (within noise).
        let rel = (r.row_partner_ipc - r.fifo_partner_ipc).abs() / r.fifo_partner_ipc.max(1e-9);
        assert!(rel < 0.15, "partner IPC moved {rel:.2} under subject-side reordering: {r}");
    }

    #[test]
    fn fq_memory_scheduling_protects_latency_sensitive_subject() {
        let r = memory_fq(&quick_base(), QUICK);
        assert!(
            r.fq_half_ipc > r.fq_equal_ipc,
            "a larger channel share must help the subject: {r}"
        );
        assert!(
            r.private_ipc >= r.fq_half_ipc * 0.9,
            "private channels are the isolation ceiling: {r}"
        );
    }

    #[test]
    fn prefetching_neighbor_cannot_break_subject_qos() {
        let r = prefetch(&quick_base(), QUICK);
        assert!(
            r.neighbor_with_pf > r.neighbor_no_pf,
            "prefetching must help the low-MLP neighbor: {r}"
        );
        assert!(
            r.subject_with_pf >= r.subject_target * 0.9,
            "subject must keep meeting its target despite neighbor prefetching: {r}"
        );
    }

    #[test]
    fn preemption_latency_does_not_break_subject_target() {
        // §4.1.2: the non-preemptible data array's service quantum rarely
        // costs a thread its target. At this budget the subject sits at
        // 1.004-1.009 of its target; the 3% floor absorbs the short window's
        // sampling error, yet fails FCFS, which leaves the same mix at 0.78
        // of the target (results/quick/fig9_spec_vs_stores.json).
        let r = preemption(&quick_base(), QUICK);
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
        let r = capacity(&quick_base(), QUICK);
        assert!(r.vpc_ipc >= r.lru_ipc * 0.95, "VPC quotas must not hurt the subject: {r}");
    }
}

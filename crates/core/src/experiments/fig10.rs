//! The headline throughput result: heterogeneous 4-thread workloads under
//! FCFS vs. VPC.
//!
//! The paper's abstract: on a CMP running heterogeneous workloads, VPCs
//! improve average performance by **14%** (harmonic mean of normalized
//! IPCs) and by **25%** (minimum normalized IPC) by eliminating negative
//! interference.
//!
//! Each thread's IPC is normalized to its *equal-share target*: its IPC on
//! the private machine equivalent to its VPC allocation
//! (`beta = alpha = 1/4`, §5.3) — the paper's QoS reference point. Under
//! FCFS, victim threads fall below 1.0 (they receive less than their fair
//! entitlement because aggressive neighbors monopolize the arbiters);
//! under VPC every thread is guaranteed at least its target and excess
//! bandwidth is redistributed. The harmonic mean rewards balanced
//! progress; the minimum exposes the worst-treated thread. A secondary
//! standalone-normalized view (IPC / alone-on-the-CMP IPC) is also
//! reported.

use std::fmt;

use vpc_arbiters::ArbiterPolicy;
use vpc_cache::CapacityPolicy;
use vpc_sim::exec::{self, Job};
use vpc_sim::Share;

use crate::config::{CmpConfig, WorkloadSpec};
use crate::experiments::{RunBudget, RunOptions};
use crate::json::{JsonValue, ToJson};
use crate::metrics::{harmonic_mean, improvement_pct, minimum, normalized_ipcs, weighted_speedup};
use crate::system::CmpSystem;
use crate::target::target_ipc;

/// Heterogeneous 4-benchmark mixes spanning light to aggressive profiles.
pub const MIXES: [[&str; 4]; 8] = [
    ["art", "mcf", "equake", "gzip"],
    ["vpr", "swim", "gcc", "bzip2"],
    ["art", "vpr", "mesa", "crafty"],
    ["art", "mesa", "lucas", "ammp"],
    ["gap", "mcf", "gzip", "sixtrack"],
    ["art", "swim", "twolf", "sixtrack"],
    ["mesa", "gap", "apsi", "wupwise"],
    ["vpr", "crafty", "equake", "mgrid"],
];

/// Results for one mix.
#[derive(Debug, Clone, PartialEq)]
pub struct MixResult {
    /// The four benchmarks.
    pub mix: [&'static str; 4],
    /// Target-normalized IPCs under FCFS (1.0 = the thread's equal-share
    /// private-machine target).
    pub fcfs_norm: Vec<f64>,
    /// Target-normalized IPCs under VPC (equal shares).
    pub vpc_norm: Vec<f64>,
    /// Standalone-normalized IPCs under FCFS (secondary view).
    pub fcfs_standalone: Vec<f64>,
    /// Standalone-normalized IPCs under VPC (secondary view).
    pub vpc_standalone: Vec<f64>,
}

impl MixResult {
    /// Harmonic mean of target-normalized IPCs, FCFS.
    pub fn fcfs_hmean(&self) -> f64 {
        harmonic_mean(&self.fcfs_norm)
    }

    /// Harmonic mean of target-normalized IPCs, VPC.
    pub fn vpc_hmean(&self) -> f64 {
        harmonic_mean(&self.vpc_norm)
    }

    /// Minimum target-normalized IPC, FCFS.
    pub fn fcfs_min(&self) -> f64 {
        minimum(&self.fcfs_norm)
    }

    /// Minimum target-normalized IPC, VPC.
    pub fn vpc_min(&self) -> f64 {
        minimum(&self.vpc_norm)
    }

    /// Weighted speedup (sum of standalone-normalized IPCs), FCFS.
    pub fn fcfs_ws(&self) -> f64 {
        weighted_speedup(&self.fcfs_standalone)
    }

    /// Weighted speedup (sum of standalone-normalized IPCs), VPC.
    pub fn vpc_ws(&self) -> f64 {
        weighted_speedup(&self.vpc_standalone)
    }
}

/// The headline experiment's results.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Result {
    /// One entry per mix.
    pub mixes: Vec<MixResult>,
}

impl Fig10Result {
    /// Mean-of-mixes harmonic-mean improvement, percent (paper: ~14%).
    pub fn hmean_improvement_pct(&self) -> f64 {
        let fcfs: f64 =
            self.mixes.iter().map(MixResult::fcfs_hmean).sum::<f64>() / self.mixes.len() as f64;
        let vpc: f64 =
            self.mixes.iter().map(MixResult::vpc_hmean).sum::<f64>() / self.mixes.len() as f64;
        improvement_pct(fcfs, vpc)
    }

    /// Mean-of-mixes minimum-normalized-IPC improvement, percent (paper:
    /// ~25%).
    pub fn min_improvement_pct(&self) -> f64 {
        let fcfs: f64 =
            self.mixes.iter().map(MixResult::fcfs_min).sum::<f64>() / self.mixes.len() as f64;
        let vpc: f64 =
            self.mixes.iter().map(MixResult::vpc_min).sum::<f64>() / self.mixes.len() as f64;
        improvement_pct(fcfs, vpc)
    }

    /// Fraction of (mix, thread) pairs meeting their QoS target under VPC
    /// (within `slack`).
    pub fn vpc_qos_met(&self, slack: f64) -> f64 {
        let mut met = 0usize;
        let mut total = 0usize;
        for m in &self.mixes {
            for &n in &m.vpc_norm {
                total += 1;
                if n >= 1.0 - slack {
                    met += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            met as f64 / total as f64
        }
    }
}

impl fmt::Display for Fig10Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Heterogeneous workloads: FCFS vs VPC (IPC normalized to equal-share target)")?;
        writeln!(
            f,
            "{:<40} {:>10} {:>10} {:>9} {:>9}",
            "mix", "FCFS hmean", "VPC hmean", "FCFS min", "VPC min"
        )?;
        for m in &self.mixes {
            writeln!(
                f,
                "{:<40} {:>10.3} {:>10.3} {:>9.3} {:>9.3}",
                m.mix.join("+"),
                m.fcfs_hmean(),
                m.vpc_hmean(),
                m.fcfs_min(),
                m.vpc_min(),
            )?;
        }
        let ws_fcfs: f64 =
            self.mixes.iter().map(MixResult::fcfs_ws).sum::<f64>() / self.mixes.len() as f64;
        let ws_vpc: f64 =
            self.mixes.iter().map(MixResult::vpc_ws).sum::<f64>() / self.mixes.len() as f64;
        writeln!(
            f,
            "VPC improvement: hmean {:+.1}% (paper: +14%), min {:+.1}% (paper: +25%), weighted speedup {:.2} -> {:.2}",
            self.hmean_improvement_pct(),
            self.min_improvement_pct(),
            ws_fcfs,
            ws_vpc,
        )?;
        writeln!(
            f,
            "threads meeting their QoS target under VPC: {:.0}%",
            self.vpc_qos_met(0.05) * 100.0
        )
    }
}

impl ToJson for Fig10Result {
    fn to_json_value(&self) -> JsonValue {
        let mixes = self.mixes.iter().map(|m| {
            JsonValue::object([
                ("mix", JsonValue::array(m.mix)),
                ("fcfs_norm", JsonValue::array(m.fcfs_norm.iter().copied())),
                ("vpc_norm", JsonValue::array(m.vpc_norm.iter().copied())),
            ])
        });
        JsonValue::object([
            ("mixes", JsonValue::array(mixes)),
            ("hmean_improvement_pct", JsonValue::from(self.hmean_improvement_pct())),
            ("min_improvement_pct", JsonValue::from(self.min_improvement_pct())),
        ])
    }
}

/// Runs one mix under `arbiter`, returning the four raw IPCs.
pub fn run_mix(
    base: &CmpConfig,
    mix: &[&'static str; 4],
    arbiter: ArbiterPolicy,
    budget: RunBudget,
) -> Vec<f64> {
    let mut cfg = base.clone().with_arbiter(arbiter);
    cfg.processors = 4;
    cfg.l2.threads = 4;
    // The unmanaged baseline shares capacity with plain LRU; VPC brings its
    // capacity manager (equal quotas) along with its arbiters.
    cfg.l2.capacity = match cfg.l2.arbiter {
        ArbiterPolicy::Vpc { .. } => CapacityPolicy::vpc_equal(4),
        _ => CapacityPolicy::Lru,
    };
    let workloads: Vec<WorkloadSpec> = mix.iter().map(|b| WorkloadSpec::Spec(b)).collect();
    let mut sys = CmpSystem::new(cfg, &workloads);
    let m = sys.run_measured(budget.warmup, budget.window);
    m.ipc
}

/// Standalone IPC of one benchmark (alone on the full CMP with an
/// unmanaged cache — the secondary normalization baseline).
pub fn standalone_ipc(base: &CmpConfig, benchmark: &'static str, budget: RunBudget) -> f64 {
    let mut cfg = base.clone();
    cfg.processors = 1;
    cfg.l2.threads = 1;
    cfg.l2.arbiter = ArbiterPolicy::RowFcfs;
    cfg.l2.capacity = CapacityPolicy::Lru;
    let mut sys = CmpSystem::new(cfg, &[WorkloadSpec::Spec(benchmark)]);
    let m = sys.run_measured(budget.warmup, budget.window);
    m.ipc[0]
}

/// Equal-share targets for each benchmark in the mix: the IPC of the
/// private machine with `beta = alpha = 1/4` (the paper's QoS reference).
pub fn equal_share_targets(
    base: &CmpConfig,
    mix: &[&'static str; 4],
    budget: RunBudget,
) -> Vec<f64> {
    let quarter = Share::new(1, 4).expect("quarter share");
    mix.iter()
        .map(|b| {
            target_ipc(base, WorkloadSpec::Spec(b), quarter, quarter, budget.warmup, budget.window)
        })
        .collect()
}

/// The number of independent simulations behind one mix: four
/// equal-share targets, four standalone baselines, and the FCFS and VPC
/// co-scheduled runs.
const CELLS_PER_MIX: usize = 10;

/// Runs the full headline experiment over `mixes`. Every target,
/// standalone baseline and co-scheduled run is an independent simulation,
/// so the whole `mixes x 10` grid runs as one parallel job batch.
pub fn run(base: &CmpConfig, mixes: &[[&'static str; 4]], opts: RunOptions) -> Fig10Result {
    let budget = opts.budget;
    let quarter = Share::new(1, 4).expect("quarter share");
    // Uniform cell type: single-thread cells report one IPC, co-scheduled
    // cells report all four.
    let mut jobs: Vec<Job<'_, Vec<f64>>> = Vec::new();
    for mix in mixes {
        let name = mix.join("+");
        for &b in mix {
            jobs.push(Job::new(format!("fig10/{name}/target/{b}"), move || {
                vec![target_ipc(
                    base,
                    WorkloadSpec::Spec(b),
                    quarter,
                    quarter,
                    budget.warmup,
                    budget.window,
                )]
            }));
        }
        for &b in mix {
            jobs.push(Job::new(format!("fig10/{name}/standalone/{b}"), move || {
                vec![standalone_ipc(base, b, budget)]
            }));
        }
        jobs.push(Job::new(format!("fig10/{name}/fcfs"), move || {
            run_mix(base, mix, ArbiterPolicy::Fcfs, budget)
        }));
        jobs.push(Job::new(format!("fig10/{name}/vpc"), move || {
            run_mix(base, mix, ArbiterPolicy::vpc_equal(4), budget)
        }));
    }

    let cells = exec::map_indexed(jobs, opts.jobs);
    let results = mixes
        .iter()
        .zip(cells.chunks_exact(CELLS_PER_MIX))
        .map(|(mix, cell)| {
            let targets: Vec<f64> = cell[0..4].iter().map(|c| c[0]).collect();
            let alone: Vec<f64> = cell[4..8].iter().map(|c| c[0]).collect();
            let fcfs = &cell[8];
            let vpc = &cell[9];
            MixResult {
                mix: *mix,
                fcfs_norm: normalized_ipcs(fcfs, &targets),
                vpc_norm: normalized_ipcs(vpc, &targets),
                fcfs_standalone: normalized_ipcs(fcfs, &alone),
                vpc_standalone: normalized_ipcs(vpc, &alone),
            }
        })
        .collect();
    Fig10Result { mixes: results }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpc_meets_targets_where_fcfs_fails() {
        let mut base = CmpConfig::table1();
        base.l2.total_sets = 2048;
        let r = run(
            &base,
            &[["art", "mcf", "equake", "gzip"]],
            RunOptions { budget: RunBudget::quick(), jobs: 2 },
        );
        let m = &r.mixes[0];
        assert!(
            m.vpc_min() >= m.fcfs_min() * 0.98,
            "VPC must not worsen the worst-treated thread: vpc {:.3} vs fcfs {:.3}",
            m.vpc_min(),
            m.fcfs_min()
        );
        assert!(
            m.vpc_norm.iter().all(|&x| x > 0.9),
            "every thread meets (or nearly meets) its target under VPC: {:?}",
            m.vpc_norm
        );
    }
}

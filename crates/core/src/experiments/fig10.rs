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
use vpc_sim::Share;

use crate::config::{CmpConfig, WorkloadSpec};
use crate::experiments::{Cell, Plan, RunBudget};
use crate::json::{JsonValue, ToJson};
use crate::metrics::{
    harmonic_mean, improvement_pct, mean, minimum, normalized_ipcs, weighted_speedup,
};

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
        improvement_pct(self.mean(MixResult::fcfs_hmean), self.mean(MixResult::vpc_hmean))
    }

    /// Mean-of-mixes minimum-normalized-IPC improvement, percent (paper:
    /// ~25%).
    pub fn min_improvement_pct(&self) -> f64 {
        improvement_pct(self.mean(MixResult::fcfs_min), self.mean(MixResult::vpc_min))
    }

    /// The mean over mixes of one per-mix metric.
    fn mean(&self, metric: fn(&MixResult) -> f64) -> f64 {
        mean(&self.mixes.iter().map(metric).collect::<Vec<_>>())
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
        writeln!(
            f,
            "VPC improvement: hmean {:+.1}% (paper: +14%), min {:+.1}% (paper: +25%), weighted speedup {:.2} -> {:.2}",
            self.hmean_improvement_pct(),
            self.min_improvement_pct(),
            self.mean(MixResult::fcfs_ws),
            self.mean(MixResult::vpc_ws),
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

/// One mix under `arbiter`. The unmanaged baseline shares capacity with
/// plain LRU; VPC brings its capacity manager (equal quotas) along with
/// its arbiters.
pub fn mix_cell(
    base: &CmpConfig,
    mix: &[&'static str; 4],
    arbiter: ArbiterPolicy,
    budget: RunBudget,
) -> Cell {
    let capacity = match arbiter {
        ArbiterPolicy::Vpc { .. } => CapacityPolicy::vpc_equal(4),
        _ => CapacityPolicy::Lru,
    };
    let cfg = base.clone().with_arbiter(arbiter).with_capacity(capacity);
    Cell::shared(cfg, mix.iter().map(|b| WorkloadSpec::Spec(b)).collect(), budget)
}

/// The number of cells behind one mix: four equal-share targets, four
/// standalone baselines, and the FCFS and VPC co-scheduled runs.
const CELLS_PER_MIX: usize = 10;

/// The headline experiment over `mixes` (pass [`MIXES`] for the full
/// set). Per mix it lists each thread's equal-share target (the private
/// machine with `beta = alpha = 1/4`, the paper's QoS reference), each
/// thread's standalone baseline (alone on the full CMP with an unmanaged
/// cache), and the FCFS and VPC runs. A benchmark in several mixes has
/// its target and baseline simulated once.
pub fn plan(base: &CmpConfig, mixes: &[[&'static str; 4]], budget: RunBudget) -> Plan<Fig10Result> {
    let quarter = Share::new(1, 4).expect("quarter share");
    let unmanaged =
        base.clone().with_arbiter(ArbiterPolicy::RowFcfs).with_capacity(CapacityPolicy::Lru);
    let mut cells = Vec::new();
    for mix in mixes {
        let name = mix.join("+");
        for &b in mix {
            let cell = Cell::target(base, WorkloadSpec::Spec(b), quarter, quarter, budget);
            cells.push((format!("fig10/{name}/target/{b}"), cell.expect("nonzero share")));
        }
        for &b in mix {
            let cell = Cell::shared(unmanaged.clone(), vec![WorkloadSpec::Spec(b)], budget);
            cells.push((format!("fig10/{name}/standalone/{b}"), cell));
        }
        for (label, arbiter) in
            [("fcfs", ArbiterPolicy::Fcfs), ("vpc", ArbiterPolicy::vpc_equal(4))]
        {
            cells.push((format!("fig10/{name}/{label}"), mix_cell(base, mix, arbiter, budget)));
        }
    }

    let mixes = mixes.to_vec();
    Plan::new(cells, move |records| Fig10Result {
        mixes: mixes
            .into_iter()
            .zip(records.chunks_exact(CELLS_PER_MIX))
            .map(|(mix, cell)| {
                let targets: Vec<f64> = cell[0..4].iter().map(|c| c.m.ipc[0]).collect();
                let alone: Vec<f64> = cell[4..8].iter().map(|c| c.m.ipc[0]).collect();
                let fcfs = &cell[8].m.ipc;
                let vpc = &cell[9].m.ipc;
                MixResult {
                    mix,
                    fcfs_norm: normalized_ipcs(fcfs, &targets),
                    vpc_norm: normalized_ipcs(vpc, &targets),
                    fcfs_standalone: normalized_ipcs(fcfs, &alone),
                    vpc_standalone: normalized_ipcs(vpc, &alone),
                }
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpc_sim::exec;

    #[test]
    fn shared_benchmarks_run_once() {
        // Two mixes sharing art list 20 cells: art's target and standalone
        // baseline repeat, so 18 distinct cells run.
        let mut base = CmpConfig::table1();
        base.l2.total_sets = 512;
        let budget = RunBudget { warmup: 1_000, window: 3_000 };
        exec::take_timings();
        let mixes = [["art", "mcf", "equake", "gzip"], ["art", "vpr", "mesa", "crafty"]];
        let r = plan(&base, &mixes, budget).run(2);
        assert_eq!(r.mixes.len(), 2);
        let labels: Vec<String> = exec::take_timings().into_iter().map(|t| t.label).collect();
        assert_eq!(labels.len(), 18, "{labels:#?}");
        let name = mixes[0].join("+");
        for kind in ["target", "standalone"] {
            let art = labels.iter().filter(|l| l.ends_with(&format!("/{kind}/art"))).count();
            assert_eq!(art, 1, "art's {kind} runs once");
            assert!(labels.contains(&format!("fig10/{name}/{kind}/art")), "first mix's label");
        }
    }

    #[test]
    fn vpc_meets_targets_where_fcfs_fails() {
        let mut base = CmpConfig::table1();
        base.l2.total_sets = 2048;
        let r = plan(&base, &[["art", "mcf", "equake", "gzip"]], RunBudget::quick()).run(2);
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

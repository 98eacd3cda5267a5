//! # Virtual Private Caches
//!
//! A reproduction of *Virtual Private Caches* (Nesbit, Laudon & Smith,
//! ISCA 2007): microarchitecture mechanisms that give each thread sharing a
//! CMP's L2 cache a guaranteed share of the cache's **bandwidth** (the VPC
//! Arbiters, fair-queuing schedulers on the tag array, data array and data
//! bus) and **capacity** (the VPC Capacity Manager, a way-quota replacement
//! policy) — so that a thread allocated shares `(beta, alpha)` performs at
//! least as well as it would on a real private machine with those
//! resources, regardless of what other threads do.
//!
//! This crate assembles the full simulated system from the substrate
//! crates and exposes the experiment harness that regenerates every table
//! and figure of the paper's evaluation:
//!
//! * [`CmpConfig`] — the paper's Table 1 machine (4 cores @ 2 GHz, 16 MB
//!   32-way 2-bank shared L2 at half core frequency, DDR2-800 with private
//!   per-thread channels).
//! * [`CmpSystem`] — cores + shared L2 + memory, with warm-up/measure
//!   windows.
//! * [`experiments::Cell::target`] — the QoS reference: the thread alone
//!   on the equivalently-provisioned private machine (§5.3), whose IPC is
//!   its target.
//! * [`experiments`] — one [`experiments::Plan`] per figure (5 through 10
//!   plus each ablation): its [`experiments::Cell`]s (shared-machine runs
//!   and §5.3 targets) and the fold of their records into a typed,
//!   printable result. [`experiments::Plan::run`] takes a worker count
//!   and runs the cells with [`experiments::run_cells`], which simulates
//!   each distinct cell once; [`experiments::reproduce`] runs every
//!   figure as one batch and renders the `results/` files.
//!
//! # Quickstart
//!
//! ```
//! use vpc::prelude::*;
//!
//! // A 2-thread system: Loads vs Stores under VPC arbiters with a 75/25
//! // bandwidth split (Figure 8's "VPC 25%" point).
//! let shares = vec![Share::new(3, 4).unwrap(), Share::new(1, 4).unwrap()];
//! let mut cfg = CmpConfig::table1_with_threads(2).with_vpc_shares(shares.clone());
//! cfg.l2.total_sets = 512; // doc-test sized
//! let budget = RunBudget { warmup: 10_000, window: 20_000 };
//! let workloads = vec![WorkloadSpec::Loads, WorkloadSpec::Stores];
//! let (_, m) = Cell::shared(cfg.clone(), workloads, budget).run();
//! assert!(m.ipc[0] > 0.0 && m.ipc[1] > 0.0);
//!
//! // Stores' QoS target: its IPC alone on the private machine with a
//! // quarter of the bandwidth and half of the ways.
//! let half = Share::new(1, 2).unwrap();
//! let target = Cell::target(&cfg, WorkloadSpec::Stores, shares[1], half, budget)
//!     .map_or(0.0, |cell| cell.run().1.ipc[0]);
//! assert!(target > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod experiments;
pub mod json;
pub mod metrics;
pub mod report;
pub mod system;
pub mod trace;

pub use config::{CmpConfig, ConfigError, WorkloadSpec};
pub use system::{CmpSystem, Measurement, Snapshot};

/// Convenient glob-import surface for examples and experiment binaries.
pub mod prelude {
    pub use crate::config::{CmpConfig, WorkloadSpec};
    pub use crate::experiments::{Cell, RunBudget};
    pub use crate::metrics::{
        harmonic_mean, improvement_pct, minimum, normalized_ipcs, weighted_speedup,
    };
    pub use crate::system::{CmpSystem, Measurement};
    pub use vpc_arbiters::{ArbiterPolicy, IntraThreadOrder};
    pub use vpc_cache::{CapacityPolicy, LINE_BYTES};
    pub use vpc_sim::{Share, ThreadId};
}

//! Simulation kernel for the Virtual Private Caches (VPC) reproduction.
//!
//! This crate holds the small, dependency-free foundation every other crate
//! in the workspace builds on:
//!
//! * [`types`] — processor cycles, thread identifiers, addresses and the
//!   request/response protocol spoken between cores, caches and memory.
//! * [`share`] — [`Share`], an exact rational bandwidth/capacity share
//!   `p/q` used by the VPC arbiters and capacity manager. The paper's
//!   virtual-time bookkeeping is done in integer processor cycles with no
//!   floating-point drift: [`Share::scaled_latency`] is Eq. 2's
//!   `L / beta_i`, the one implementation both the VPC arbiter's finish
//!   times and the private target machine's scaled latencies use.
//! * [`rng`] — [`SplitMix64`], a tiny deterministic RNG so every workload
//!   and experiment is exactly reproducible from a seed.
//! * [`stats`] — the event counter and latency histogram the figures'
//!   outputs are built from.
//! * [`check`] — the deterministic property-testing microharness every
//!   crate's randomized tests run on, built on [`SplitMix64`] so the whole
//!   suite is reproducible offline with zero external dependencies.
//! * [`exec`] — a scoped thread-pool/job-map layer the experiment runners
//!   use to spread independent simulations across worker threads while
//!   keeping output byte-identical to a serial run.
//! * [`trace`] — a bounded, thread-local cycle-level event recorder
//!   (arbiter grants/defers with virtual times, bank hits/misses/evicts,
//!   SGB gathers/drains, DRAM issues) that never perturbs simulated state;
//!   an [`exec`] job that arms it returns its log like any other result.
//!
//! # Examples
//!
//! ```
//! use vpc_sim::{Share, SplitMix64};
//!
//! // A thread allocated 25% of a resource whose service time is 8 cycles
//! // has a virtual service time of 32 cycles (Eq. 2 of the paper).
//! let beta = Share::new(1, 4).unwrap();
//! assert_eq!(beta.scaled_latency(8), Some(32));
//!
//! let mut rng = SplitMix64::new(0xC0FFEE);
//! let a = rng.next_u64();
//! let b = rng.next_u64();
//! assert_ne!(a, b);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod exec;
pub mod rng;
pub mod share;
pub mod stats;
pub mod trace;
pub mod types;

pub use rng::SplitMix64;
pub use share::{ParseShareError, Share, ShareError};
pub use stats::{Counter, Histogram};
pub use types::{AccessKind, CacheRequest, CacheResponse, Cycle, LineAddr, ThreadId, MAX_THREADS};

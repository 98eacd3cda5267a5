//! The cache hierarchy of the Virtual Private Caches reproduction.
//!
//! This crate implements the paper's baseline cache microarchitecture
//! (§3.1, Figure 2) and hosts the attachment points for the VPC mechanisms:
//!
//! * [`L1Cache`] — private, write-through, no-write-allocate L1 data caches
//!   with MSHRs and an LMQ depth limit.
//! * [`SharedL2`] — the banked cache plus crossbar credits and the DDR2
//!   memory system from [`vpc_mem`]. Inside, each bank has per-thread
//!   input ports with store gathering buffers (read-over-write bypassing,
//!   partial flush and the retire-at-n policy; [`SgbStats`]), controller
//!   state machines and the arbitrated tag array, data array and data bus
//!   pipeline ([`BankStats`]). The arbiters come from [`vpc_arbiters`]
//!   (FCFS / RoW-FCFS baselines or the VPC fair-queuing arbiter), and the
//!   replacement policy from [`vpc_capacity`] (true LRU or the VPC
//!   Capacity Manager). The reads of every bank return to the cores
//!   through one queue, in the order their critical words arrive.
//!
//! # Examples
//!
//! ```
//! use vpc_arbiters::ArbiterPolicy;
//! use vpc_cache::{L2Config, SharedL2};
//! use vpc_mem::MemConfig;
//! use vpc_sim::{AccessKind, CacheRequest, LineAddr, ThreadId};
//!
//! let cfg = L2Config::table1(4, ArbiterPolicy::vpc_equal(4));
//! let mut l2 = SharedL2::new(cfg, MemConfig::ddr2_800());
//! l2.submit(
//!     CacheRequest { thread: ThreadId(0), line: LineAddr(8), kind: AccessKind::Read, token: 1 },
//!     0,
//! );
//! let mut responded = false;
//! for now in 0..2_000 {
//!     l2.tick(now);
//!     if l2.pop_response(now).is_some() {
//!         responded = true;
//!         break;
//!     }
//! }
//! assert!(responded);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
pub mod config;
pub mod l1;
mod sgb;
pub mod shared_l2;

pub use bank::BankStats;
pub use config::{CapacityPolicy, L1Config, L2Config, LINE_BYTES};
pub use l1::{L1Cache, L1LoadResult, L1Stats};
pub use sgb::SgbStats;
pub use shared_l2::{L2Utilization, SharedL2};

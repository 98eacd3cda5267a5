//! Out-of-order core model for the Virtual Private Caches reproduction.
//!
//! Each simulated processor is a parameterized out-of-order core in the
//! spirit of the paper's IBM 970 configuration (Table 1): a reorder buffer
//! of 20 five-instruction dispatch groups, load/store reorder queues,
//! two load/store units, a private write-through L1 D-cache with MSHRs and
//! an LMQ depth limit, and in-order retirement. Instructions come from a
//! [`Workload`] — an infinite generator that produces non-memory
//! instructions, loads and stores at line granularity. [`Core`] is generic
//! over it, so a known workload type is called directly; the default,
//! `Box<dyn Workload>`, runs any other.
//!
//! The performance-relevant behaviors the sharing experiments depend on are
//! modeled explicitly:
//!
//! * memory-level parallelism is bounded by the LMQ/MSHRs, the LRQ and the
//!   ROB, making bursty miss streams (and their preemption-latency
//!   amortization, §4.1.2) emerge naturally;
//! * stores are posted write-through traffic throttled by the half-frequency
//!   crossbar port and back-pressured by the bank input credits and store
//!   gathering buffers;
//! * dispatch stalls when in-order structures fill, which is how L2
//!   bandwidth starvation turns into IPC loss.
//!
//! # Examples
//!
//! ```
//! use vpc_cpu::{Core, CoreConfig, Op, Workload};
//! use vpc_sim::ThreadId;
//!
//! /// A trivial workload: pure non-memory instructions.
//! #[derive(Debug)]
//! struct Spin;
//! impl Workload for Spin {
//!     fn next_op(&mut self) -> Op {
//!         Op::NonMem
//!     }
//!     fn name(&self) -> &'static str {
//!         "spin"
//!     }
//! }
//!
//! let core = Core::new(CoreConfig::table1(), ThreadId(0), Box::new(Spin));
//! assert_eq!(core.retired(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
pub mod workload;

pub use crate::core::{Core, CoreConfig};
pub use workload::{FixedTrace, Op, Workload};

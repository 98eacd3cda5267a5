//! Workloads for the Virtual Private Caches evaluation.
//!
//! * [`micro`] — the paper's Table 2 microbenchmarks: **Loads** (a constant
//!   stream of L2 read hits) and **Stores** (a constant stream of L2
//!   writes), operating on a 32 KB array with 64-byte rows — twice the L1
//!   size, so every access reaches the L2.
//! * [`spec`] — synthetic stand-ins for the 18 SPEC CPU 2000 benchmarks the
//!   paper plots. The real sampled traces are proprietary; each
//!   [`spec::SyntheticSpec`] generator is parameterized (instruction mix,
//!   L1/L2 miss behavior, store locality, burstiness) so its *solo* L2
//!   utilization and write mix land near the paper's Figures 6 and 7,
//!   which is what determines the benchmark's behavior in the sharing
//!   experiments — the VPC mechanisms see only the request stream.
//!
//! # Examples
//!
//! ```
//! use vpc_cpu::Workload;
//! use vpc_workloads::{loads_micro, spec};
//!
//! let mut loads = loads_micro(vpc_sim::ThreadId(0));
//! assert_eq!(loads.name(), "Loads");
//!
//! let art = spec::workload("art", vpc_sim::ThreadId(1)).unwrap();
//! assert_eq!(art.name(), "art");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod micro;
pub mod spec;

pub use micro::{loads_micro, stores_micro};
pub use spec::{SpecParams, SyntheticSpec, SPEC_NAMES};

use vpc_cpu::{FixedTrace, Op, Workload};

/// The instruction stream of one simulated core. The simulator's own
/// workloads are dispatched statically, so a core's `next_op` call
/// inlines into its dispatch stage; any other [`Workload`] runs boxed.
#[derive(Debug)]
pub enum Generator {
    /// A synthetic SPEC profile.
    Spec(SyntheticSpec),
    /// A looping fixed trace (the microbenchmarks, the idle spinner).
    Trace(FixedTrace),
    /// Any other workload, called through its vtable.
    Boxed(Box<dyn Workload>),
}

impl Workload for Generator {
    #[inline]
    fn next_op(&mut self) -> Op {
        match self {
            Generator::Spec(w) => w.next_op(),
            Generator::Trace(w) => w.next_op(),
            Generator::Boxed(w) => w.next_op(),
        }
    }

    fn name(&self) -> &str {
        match self {
            Generator::Spec(w) => w.name(),
            Generator::Trace(w) => w.name(),
            Generator::Boxed(w) => w.name(),
        }
    }
}

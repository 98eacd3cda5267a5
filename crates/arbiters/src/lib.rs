//! Bandwidth arbiters for shared cache resources.
//!
//! The baseline cache microarchitecture (paper §3.1, Figure 2b) has three
//! shared bandwidth resources per L2 bank — the tag array, the data array and
//! the bank's data bus — each guarded by an arbiter. This crate provides:
//!
//! * [`Arbiter`] — the common interface: requests enter arbitration and the
//!   arbiter picks which pending request accesses the resource next.
//! * [`FcfsArbiter`] — first-come first-serve, the paper's multiprocessor
//!   baseline for shared resources.
//! * [`RowFcfsArbiter`] — read-over-write FCFS, the uniprocessor policy that
//!   *starves* stores when another thread issues a continuous load stream
//!   (demonstrated in the paper's Figure 8 and in this crate's tests).
//! * [`VpcArbiter`] — the paper's contribution: a fair-queuing arbiter with
//!   per-thread virtual-time registers (`R.S_i`) that guarantees each thread
//!   its allocated share `beta_i` of the resource's bandwidth (§4.1), using
//!   earliest-virtual-finish-time-first (EDF) selection and supporting
//!   intra-thread read-over-write reordering without losing the guarantee.
//!   It holds Figure 3's registers itself: `beta_i`, fixed when the arbiter
//!   is built, and `R.S_i`, updated by Eq. 3'–6.
//! * [`ArbitratedResource`] — a busy-until resource wrapper that owns an
//!   arbiter and counts each thread's busy cycles, mirroring Figure 2b's
//!   resource-plus-arbiter blocks.
//!
//! # Examples
//!
//! ```
//! use vpc_arbiters::{Arbiter, ArbRequest, VpcArbiter, IntraThreadOrder};
//! use vpc_sim::{AccessKind, Share, ThreadId};
//!
//! let shares = [Share::new(3, 4).unwrap(), Share::new(1, 4).unwrap()];
//! let mut arb = VpcArbiter::new(4, &shares, IntraThreadOrder::ReadOverWrite);
//!
//! arb.enqueue(ArbRequest::new(1, ThreadId(0), AccessKind::Read, 8), 0);
//! arb.enqueue(ArbRequest::new(2, ThreadId(1), AccessKind::Read, 8), 0);
//!
//! // Thread 0 has the larger share => earlier virtual finish time.
//! let first = arb.select(0).unwrap();
//! assert_eq!(first.thread, ThreadId(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod request;
pub mod resource;
pub mod vpc;

pub use arbiter::{Arbiter, FcfsArbiter, RowFcfsArbiter};
pub use request::ArbRequest;
pub use resource::ArbitratedResource;
pub use vpc::{IntraThreadOrder, VpcArbiter};

use vpc_sim::Share;

/// Which arbiter policy guards a shared resource — the x-axis of the paper's
/// Figure 8.
#[derive(Debug, Clone, PartialEq)]
pub enum ArbiterPolicy {
    /// First-come first-serve (multiprocessor baseline).
    Fcfs,
    /// Read-over-write, then first-come first-serve (uniprocessor policy;
    /// starves writers under shared load streams).
    RowFcfs,
    /// The VPC fair-queuing arbiter with the given per-thread shares.
    Vpc {
        /// Bandwidth share `beta_i` for each thread; missing entries are zero.
        shares: Vec<Share>,
        /// Ordering applied within each thread's arbitration buffer.
        order: IntraThreadOrder,
    },
}

impl ArbiterPolicy {
    /// A VPC policy with equal shares for `threads` threads and
    /// read-over-write intra-thread reordering (the paper's default
    /// multiprocessor configuration).
    pub fn vpc_equal(threads: usize) -> ArbiterPolicy {
        let share = Share::new(1, threads as u32).expect("1/threads is a valid share");
        ArbiterPolicy::Vpc { shares: vec![share; threads], order: IntraThreadOrder::ReadOverWrite }
    }

    /// Instantiates a boxed arbiter for `threads` hardware threads.
    pub fn build(&self, threads: usize) -> Box<dyn Arbiter> {
        match self {
            ArbiterPolicy::Fcfs => Box::new(FcfsArbiter::new()),
            ArbiterPolicy::RowFcfs => Box::new(RowFcfsArbiter::new()),
            ArbiterPolicy::Vpc { shares, order } => {
                Box::new(VpcArbiter::new(threads, shares, *order))
            }
        }
    }

    /// Short name used in experiment reports ("FCFS", "RoW" or "VPC").
    pub fn label(&self) -> &'static str {
        match self {
            ArbiterPolicy::Fcfs => "FCFS",
            ArbiterPolicy::RowFcfs => "RoW",
            ArbiterPolicy::Vpc { .. } => "VPC",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpc_sim::{AccessKind, ThreadId};

    #[test]
    fn policy_builds_each_variant() {
        for policy in [ArbiterPolicy::Fcfs, ArbiterPolicy::RowFcfs, ArbiterPolicy::vpc_equal(4)] {
            let mut arb = policy.build(4);
            assert!(arb.is_empty());
            arb.enqueue(ArbRequest::new(1, ThreadId(0), AccessKind::Read, 8), 0);
            assert_eq!(arb.len(), 1);
            let granted = arb.select(0).expect("one pending request");
            assert_eq!(granted.id, 1);
            assert!(arb.is_empty());
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ArbiterPolicy::Fcfs.label(), "FCFS");
        assert_eq!(ArbiterPolicy::RowFcfs.label(), "RoW");
        assert_eq!(ArbiterPolicy::vpc_equal(2).label(), "VPC");
    }
}

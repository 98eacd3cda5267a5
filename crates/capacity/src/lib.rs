//! Cache capacity management: replacement policies and set-associative sets.
//!
//! The paper's **VPC Capacity Manager** (§4.2) provides each thread a
//! virtual private cache with the same number of sets as the shared cache
//! and at least `alpha_i * ways` of the ways, via a thread-aware replacement
//! policy:
//!
//! 1. Victimize the LRU line owned by *another* thread `j` that occupies
//!    more than its share `alpha_j` of the ways in the destination set.
//! 2. Otherwise, victimize the requesting thread's own LRU line.
//!
//! This crate provides the reusable set-associative machinery ([`TagSet`])
//! plus the [`ReplacementPolicy`] implementations: [`TrueLru`] (the shared
//! baseline) and [`VpcCapacityManager`], which takes the globally
//! least-recently-used line when several threads are over quota.
//!
//! A [`TagSet`] stores only its valid ways and grows as lines are filled:
//! a new set allocates nothing, and way `i` is valid exactly when `i` is
//! below the number of lines held. A machine therefore pays, in memory and
//! in lookup time, only for the lines it holds, not for its full
//! associativity.
//!
//! # Examples
//!
//! ```
//! use vpc_capacity::{TagSet, VpcCapacityManager, ReplacementPolicy};
//! use vpc_sim::{LineAddr, Share, ThreadId};
//!
//! // 4 ways, two threads with 2 ways each.
//! let policy = VpcCapacityManager::from_shares(
//!     &[Share::new(1, 2).unwrap(), Share::new(1, 2).unwrap()],
//!     4,
//! );
//! let mut set = TagSet::new(4);
//! for (i, t) in [(0u64, 0u8), (1, 0), (2, 1), (3, 1)] {
//!     let victim = set.find_way_for(LineAddr(i), ThreadId(t), &policy);
//!     set.fill(victim, LineAddr(i), ThreadId(t), i);
//! }
//! // Thread 0 inserting a 3rd line must evict its own LRU (condition 2),
//! // never thread 1's guaranteed ways.
//! let victim = set.find_way_for(LineAddr(9), ThreadId(0), &policy);
//! assert_eq!(set.owner(victim), Some(ThreadId(0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod policy;
pub mod set;

pub use policy::{ReplacementPolicy, TrueLru, VpcCapacityManager};
pub use set::{Eviction, TagSet, Way};

//! DDR2 SDRAM memory system and controller.
//!
//! The paper's evaluation attaches a cycle-accurate on-chip memory controller
//! to a DDR2-800 memory system (§5.1), with **per-thread private SDRAM
//! channels** so that memory interference cannot pollute the cache-sharing
//! results: requests are interleaved across channels using the most
//! significant physical address bits, which the evaluation's virtual-to-
//! physical mapping makes equivalent to per-thread channels.
//!
//! This crate implements that substrate:
//!
//! * [`DramTiming`] — DDR2-800 timing expressed in 2 GHz processor cycles.
//! * [`DramChannel`] — one channel with ranks × banks, a closed-page policy
//!   bank state machine, and a shared data bus that moves one line at a
//!   time, so transfers complete in issue order.
//! * [`MemoryController`] — per-thread transaction and write buffers,
//!   read-priority scheduling with write draining, routing to channels.
//!
//! A completed read comes back as the [`MemRequest`] that asked for it;
//! nothing on the way looks its `token` up.
//!
//! # Examples
//!
//! ```
//! use vpc_mem::{MemConfig, MemoryController, MemRequest};
//! use vpc_sim::{AccessKind, LineAddr, ThreadId};
//!
//! let mut mc = MemoryController::new(MemConfig::ddr2_800(), 4);
//! let req = MemRequest { thread: ThreadId(0), line: LineAddr(0x40), kind: AccessKind::Read, token: 1 };
//! assert!(mc.enqueue(req, 0)); // the thread's read buffer had room
//! let mut response = None;
//! for now in 0..2_000 {
//!     mc.tick(now);
//!     if let Some(r) = mc.pop_response() {
//!         response = Some(r);
//!         break;
//!     }
//! }
//! assert_eq!(response, Some(req));
//!
//! // A full buffer refuses a request, which stays with the caller to retry.
//! for i in 0..16 {
//!     assert!(mc.enqueue(MemRequest { line: LineAddr(i), ..req }, 2_000));
//! }
//! assert!(!mc.enqueue(req, 2_000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod controller;
pub mod timing;

pub use channel::DramChannel;
pub use controller::{ChannelMode, MemRequest, MemoryController};
pub use timing::{DramTiming, MemConfig};

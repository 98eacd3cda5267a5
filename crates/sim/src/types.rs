//! Core simulation types: cycles, threads, addresses, and the cache protocol.

use std::fmt;

/// A point in simulated time, measured in processor cycles (2 GHz in the
/// paper's Table 1 configuration).
pub type Cycle = u64;

/// A cache-line address: a byte address with the line offset stripped.
///
/// Line addresses are what the store-gathering buffers, cache tags, and
/// memory controller operate on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(pub u64);

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// Maximum number of hardware threads / processors the fixed-size per-thread
/// structures are dimensioned for.
pub const MAX_THREADS: usize = 8;

/// Identifies one hardware thread (equivalently, one processor — the paper's
/// configuration runs one thread per processor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u8);

impl ThreadId {
    /// The thread's index, for indexing per-thread tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Whether an access reads or writes the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load (L1 read miss reaching the L2).
    Read,
    /// A store (write-through traffic reaching the L2, after gathering).
    Write,
}

impl AccessKind {
    /// True for [`AccessKind::Read`].
    #[inline]
    pub fn is_read(self) -> bool {
        matches!(self, AccessKind::Read)
    }
}

/// A request sent from a core's L1 miss path (or store-retire path) into the
/// shared L2 cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheRequest {
    /// Issuing thread.
    pub thread: ThreadId,
    /// Line being accessed.
    pub line: LineAddr,
    /// Read or write.
    pub kind: AccessKind,
    /// Opaque token the core uses to match the eventual [`CacheResponse`].
    /// Writes are posted (write-through + store gathering) and never answered.
    pub token: u64,
}

/// A completed read returning from the L2 (or memory through the L2) to a
/// core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheResponse {
    /// Thread the data belongs to.
    pub thread: ThreadId,
    /// Line whose critical word has arrived.
    pub line: LineAddr,
    /// Token from the originating [`CacheRequest`].
    pub token: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(ThreadId(2).to_string(), "T2");
        assert_eq!(LineAddr(0x40).to_string(), "L0x40");
    }

    #[test]
    fn access_kind_predicates() {
        assert!(AccessKind::Read.is_read());
        assert!(!AccessKind::Write.is_read());
    }
}

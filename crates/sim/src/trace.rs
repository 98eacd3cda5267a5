//! Cycle-level event tracing: a bounded, thread-local event recorder.
//!
//! Every interesting micro-architectural moment — an arbiter granting (or
//! deferring) a request with its fair-queuing virtual start/finish times,
//! a bank hit/miss/eviction, a store gathering into the SGB, a DRAM
//! channel issue — can be recorded as a [`TraceEvent`] into a bounded
//! [`TraceLog`]. The `vpc` core crate converts a log into Chrome
//! `trace_event` JSON for chrome://tracing / Perfetto.
//!
//! # Contract
//!
//! * **Tracing never perturbs simulated state.** Instrumentation sites
//!   only *read* model state; whether a recorder is installed cannot
//!   change a single simulated cycle, and stdout stays byte-identical
//!   with tracing on or off.
//! * **Recording is thread-local.** [`install`] arms the current thread,
//!   [`take`] disarms it and returns the log. Each [`crate::exec`] job
//!   runs entirely on one worker thread, so a run that calls [`install`]
//!   and [`take`] around its window (the `vpc` crate's `Cell::run`)
//!   records exactly its own events: the batch hands the logs back in
//!   input order regardless of worker count.
//! * **The log is bounded.** A [`TraceLog`] created with capacity `c`
//!   retains the *first* `c` events and counts every later event in
//!   [`TraceLog::dropped`]; retained events are never reordered or
//!   replaced. Keeping the earliest events (rather than a sliding
//!   window) makes overflowing traces a stable prefix of the full
//!   stream, which is what golden-file diffs want.
//! * **Disabled tracing is near-free.** When no recorder is installed,
//!   an instrumentation site costs one thread-local load and a branch;
//!   event construction is behind a closure and never runs.
//!
//! # Example
//!
//! ```
//! use vpc_sim::trace::{self, EventData, ResourceId, TraceEvent};
//! use vpc_sim::{AccessKind, ThreadId};
//!
//! trace::install(16);
//! trace::emit(|| TraceEvent {
//!     at: 42,
//!     data: EventData::Grant {
//!         resource: ResourceId::data_array(0),
//!         thread: ThreadId(1),
//!         kind: AccessKind::Read,
//!         service: 8,
//!         virtual_start: Some(100),
//!         virtual_finish: Some(132),
//!     },
//! });
//! let log = trace::take().expect("a recorder was installed");
//! assert_eq!(log.events().len(), 1);
//! assert_eq!(log.dropped(), 0);
//! ```

use std::cell::RefCell;
use std::fmt;

use crate::types::{AccessKind, Cycle, LineAddr, ThreadId};

/// Default ring capacity of `simulate --trace`.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Which arbitrated (or otherwise shared) resource an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// An L2 bank's tag array.
    TagArray,
    /// An L2 bank's data array.
    DataArray,
    /// An L2 bank's response bus port.
    DataBus,
    /// A DRAM channel. Nothing in the library emits it; the frozen
    /// benchmark still matches on it, and benchmark revision 2 removes it.
    DramChannel,
}

impl ResourceKind {
    /// Short lowercase label used in trace exports (`tag`, `data`, …).
    pub fn label(self) -> &'static str {
        match self {
            ResourceKind::TagArray => "tag",
            ResourceKind::DataArray => "data",
            ResourceKind::DataBus => "bus",
            ResourceKind::DramChannel => "dram",
        }
    }
}

/// A concrete resource instance: a kind plus a unit index (bank index for
/// the L2 arrays, channel index for DRAM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceId {
    /// What class of resource this is.
    pub kind: ResourceKind,
    /// Which instance (bank index, channel index).
    pub unit: u16,
}

impl ResourceId {
    /// Bank `unit`'s tag array.
    pub fn tag_array(unit: u16) -> ResourceId {
        ResourceId { kind: ResourceKind::TagArray, unit }
    }

    /// Bank `unit`'s data array.
    pub fn data_array(unit: u16) -> ResourceId {
        ResourceId { kind: ResourceKind::DataArray, unit }
    }

    /// Bank `unit`'s response bus port.
    pub fn data_bus(unit: u16) -> ResourceId {
        ResourceId { kind: ResourceKind::DataBus, unit }
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ResourceKind::DramChannel => write!(f, "chan{}.{}", self.unit, self.kind.label()),
            _ => write!(f, "bank{}.{}", self.unit, self.kind.label()),
        }
    }
}

/// What happened (the payload of a [`TraceEvent`]).
///
/// Virtual times are the fair-queuing bookkeeping of Eq. 3'–6 of the
/// paper, in *virtual* (share-scaled) cycles; they are `None` for
/// arbiters that keep no virtual clock (FCFS, RoW-FCFS) and for zero-share
/// excess-bandwidth grants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventData {
    /// An arbiter granted `thread`'s request on `resource`.
    Grant {
        /// The resource that was granted.
        resource: ResourceId,
        /// The granted thread.
        thread: ThreadId,
        /// Read or write.
        kind: AccessKind,
        /// Actual service time in cycles (occupies the resource this long).
        service: u64,
        /// Virtual start time `S_i^k` assigned to this request (Eq. 3').
        virtual_start: Option<u64>,
        /// Virtual finish time `F_i^k = S_i^k + L / beta_i` (Eq. 4).
        virtual_finish: Option<u64>,
    },
    /// `thread` still has pending work on `resource` but was not granted
    /// this slot (emitted alongside the grant that passed it over).
    Defer {
        /// The contended resource.
        resource: ResourceId,
        /// The thread left waiting.
        thread: ThreadId,
        /// The waiting thread's current virtual start time `R.S_i`.
        virtual_start: Option<u64>,
    },
    /// An L2 bank finished a tag lookup for `thread`.
    BankAccess {
        /// Bank index.
        bank: u16,
        /// The accessing thread.
        thread: ThreadId,
        /// The line looked up.
        line: LineAddr,
        /// Read or write.
        kind: AccessKind,
        /// Whether the tag lookup hit.
        hit: bool,
    },
    /// A fill evicted a valid line from an L2 bank.
    Evict {
        /// Bank index.
        bank: u16,
        /// The thread whose fill caused the eviction.
        thread: ThreadId,
        /// The victim line.
        line: LineAddr,
        /// The thread that owned the victim line.
        victim: ThreadId,
        /// Whether the victim was dirty (forces a castout).
        dirty: bool,
    },
    /// A store gathered (merged) into an existing SGB entry.
    SgbGather {
        /// The storing thread.
        thread: ThreadId,
        /// The gathered line.
        line: LineAddr,
    },
    /// An SGB entry drained (retired its write toward the L2).
    SgbDrain {
        /// The draining thread.
        thread: ThreadId,
        /// The drained line.
        line: LineAddr,
        /// SGB occupancy after the drain.
        occupancy: u16,
    },
    /// The memory controller issued a request to a DRAM channel.
    DramIssue {
        /// Channel index.
        channel: u16,
        /// The issuing thread.
        thread: ThreadId,
        /// The accessed line.
        line: LineAddr,
        /// Read or write.
        kind: AccessKind,
    },
    /// An L2/memory response returned to a core and woke its load queue.
    LoadReturn {
        /// The receiving thread.
        thread: ThreadId,
        /// The returned line.
        line: LineAddr,
    },
}

impl EventData {
    /// The thread the event belongs to (used as the Chrome trace `tid`).
    pub fn thread(&self) -> ThreadId {
        match *self {
            EventData::Grant { thread, .. }
            | EventData::Defer { thread, .. }
            | EventData::BankAccess { thread, .. }
            | EventData::Evict { thread, .. }
            | EventData::SgbGather { thread, .. }
            | EventData::SgbDrain { thread, .. }
            | EventData::DramIssue { thread, .. }
            | EventData::LoadReturn { thread, .. } => thread,
        }
    }

    /// Short event name used in trace exports (`grant`, `defer`, …).
    pub fn name(&self) -> &'static str {
        match self {
            EventData::Grant { .. } => "grant",
            EventData::Defer { .. } => "defer",
            EventData::BankAccess { hit: true, .. } => "hit",
            EventData::BankAccess { hit: false, .. } => "miss",
            EventData::Evict { .. } => "evict",
            EventData::SgbGather { .. } => "gather",
            EventData::SgbDrain { .. } => "drain",
            EventData::DramIssue { .. } => "dram_issue",
            EventData::LoadReturn { .. } => "load_return",
        }
    }
}

/// One recorded event: a cycle stamp plus the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Processor cycle the event occurred at.
    pub at: Cycle,
    /// What happened.
    pub data: EventData,
}

/// A bounded in-memory event log.
///
/// Retains the first `capacity` events pushed into it; every subsequent
/// push only increments the drop counter. Retained events are stored in
/// push order and never reordered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceLog {
    /// Creates an empty log that retains at most `capacity` events.
    pub fn new(capacity: usize) -> TraceLog {
        TraceLog { events: Vec::new(), capacity, dropped: 0 }
    }

    /// Records an event, or counts it as dropped once the log is full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// The retained events, in the order they were recorded.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events pushed after the log filled up (lost, not retained).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events offered to the log (retained + dropped).
    pub fn total(&self) -> u64 {
        self.events.len() as u64 + self.dropped
    }
}

thread_local! {
    /// The current thread's recorder, if armed.
    static RECORDER: RefCell<Option<TraceLog>> = const { RefCell::new(None) };
}

/// Arms the current thread with a fresh recorder of the given capacity,
/// discarding any previous one.
pub fn install(capacity: usize) {
    RECORDER.with(|r| *r.borrow_mut() = Some(TraceLog::new(capacity)));
}

/// Disarms the current thread's recorder and returns its log, if one was
/// installed.
pub fn take() -> Option<TraceLog> {
    RECORDER.with(|r| r.borrow_mut().take())
}

/// Whether the current thread has a recorder installed. Instrumentation
/// sites use this to skip event construction entirely when disabled.
pub fn is_enabled() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// Records the event produced by `f` into the current thread's recorder.
/// When no recorder is installed, `f` is never called — the disabled cost
/// is one thread-local access and a branch.
pub fn emit<F: FnOnce() -> TraceEvent>(f: F) {
    RECORDER.with(|r| {
        if let Some(log) = r.borrow_mut().as_mut() {
            log.push(f());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn marker(at: Cycle) -> TraceEvent {
        TraceEvent { at, data: EventData::LoadReturn { thread: ThreadId(0), line: LineAddr(at) } }
    }

    #[test]
    fn log_retains_first_capacity_events_and_counts_drops() {
        let mut log = TraceLog::new(3);
        for at in 0..10 {
            log.push(marker(at));
        }
        assert_eq!(log.events().len(), 3);
        assert_eq!(log.events()[2], marker(2));
        assert_eq!(log.dropped(), 7);
        assert_eq!(log.total(), 10);
    }

    #[test]
    fn emit_is_a_no_op_without_a_recorder() {
        assert!(take().is_none());
        let mut called = false;
        emit(|| {
            called = true;
            marker(0)
        });
        assert!(!called, "event closure ran with tracing disabled");
        assert!(!is_enabled());
    }

    #[test]
    fn install_emit_take_roundtrip() {
        install(8);
        assert!(is_enabled());
        emit(|| marker(1));
        emit(|| marker(2));
        let log = take().expect("recorder installed");
        assert!(!is_enabled());
        assert_eq!(log.events(), &[marker(1), marker(2)]);
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn resource_ids_render_compactly() {
        assert_eq!(ResourceId::tag_array(0).to_string(), "bank0.tag");
        assert_eq!(ResourceId::data_array(3).to_string(), "bank3.data");
        assert_eq!(ResourceId::data_bus(1).to_string(), "bank1.bus");
        let channel = ResourceId { kind: ResourceKind::DramChannel, unit: 2 };
        assert_eq!(channel.to_string(), "chan2.dram");
    }
}

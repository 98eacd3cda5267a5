//! The [`Arbiter`] trait and the conventional (non-QoS) policies.

use std::collections::VecDeque;
use std::fmt;

use vpc_sim::Cycle;

use crate::request::ArbRequest;

/// Selects which pending request accesses a shared resource next.
///
/// An arbiter sees requests *after* the cache controller has checked them for
/// memory-consistency conflicts (§4.1.1), so any serviceable request may be
/// granted in any order without affecting correctness — ordering only affects
/// performance and fairness.
pub trait Arbiter: fmt::Debug {
    /// Enters `req` into arbitration at cycle `now`. The arbiter stamps the
    /// request's arrival time.
    fn enqueue(&mut self, req: ArbRequest, now: Cycle);

    /// Grants the resource to one pending request, removing it from
    /// arbitration. Called by the resource when it becomes free at `now`.
    /// Returns `None` if nothing is pending.
    fn select(&mut self, now: Cycle) -> Option<ArbRequest>;

    /// Number of requests pending in arbitration.
    fn len(&self) -> usize;

    /// Whether no requests are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Virtual `(start, finish)` times the most recent [`Arbiter::select`]
    /// assigned to the request it granted (Eq. 3'/4 of the paper), for
    /// trace observability.
    ///
    /// `None` for arbiters without a virtual clock (FCFS, RoW-FCFS) and for
    /// excess-bandwidth grants to zero-share threads.
    /// Read-only: querying it never changes arbitration state.
    fn last_grant_virtual(&self) -> Option<(u64, u64)> {
        None
    }

    /// Appends the threads still holding pending requests to `out`, each
    /// with its current virtual start time `R.S_i` where the policy tracks
    /// one, for trace observability (the "deferred" side of a grant).
    /// Read-only; the caller clears and reuses `out` so the per-grant
    /// backlog report allocates nothing in steady state.
    fn backlogged_threads(&self, out: &mut Vec<(vpc_sim::ThreadId, Option<u64>)>) {
        let _ = out;
    }
}

/// Appends the distinct threads present in `queues`, in first-occurrence
/// order, with no virtual time (shared by the FIFO-family arbiters'
/// backlog reports).
fn fifo_backlog<'a>(
    queues: impl Iterator<Item = &'a ArbRequest>,
    out: &mut Vec<(vpc_sim::ThreadId, Option<u64>)>,
) {
    for req in queues {
        if !out.iter().any(|(t, _)| *t == req.thread) {
            out.push((req.thread, None));
        }
    }
}

/// First-come first-serve: grants the oldest pending request regardless of
/// thread or kind. The paper's baseline for *shared* cache resources.
#[derive(Debug, Default)]
pub struct FcfsArbiter {
    queue: VecDeque<ArbRequest>,
}

impl FcfsArbiter {
    /// Creates an empty FCFS arbiter.
    pub fn new() -> FcfsArbiter {
        FcfsArbiter::default()
    }
}

impl Arbiter for FcfsArbiter {
    fn enqueue(&mut self, mut req: ArbRequest, now: Cycle) {
        req.arrival = now;
        // FIFO insertion preserves arrival order; same-cycle arrivals keep
        // their enqueue order, which the caller makes deterministic.
        self.queue.push_back(req);
    }

    fn select(&mut self, _now: Cycle) -> Option<ArbRequest> {
        self.queue.pop_front()
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn backlogged_threads(&self, out: &mut Vec<(vpc_sim::ThreadId, Option<u64>)>) {
        fifo_backlog(self.queue.iter(), out);
    }
}

/// Read-over-write first-come first-serve: all pending reads (oldest first)
/// are granted before any write.
///
/// Effective for *private* caches (§3.1), but on a shared resource a thread
/// with a continuous load stream starves every other thread's stores — the
/// paper calls this "a critical design flaw" in a real system.
#[derive(Debug, Default)]
pub struct RowFcfsArbiter {
    reads: VecDeque<ArbRequest>,
    writes: VecDeque<ArbRequest>,
}

impl RowFcfsArbiter {
    /// Creates an empty RoW-FCFS arbiter.
    pub fn new() -> RowFcfsArbiter {
        RowFcfsArbiter::default()
    }
}

impl Arbiter for RowFcfsArbiter {
    fn enqueue(&mut self, mut req: ArbRequest, now: Cycle) {
        req.arrival = now;
        if req.kind.is_read() {
            self.reads.push_back(req);
        } else {
            self.writes.push_back(req);
        }
    }

    fn select(&mut self, _now: Cycle) -> Option<ArbRequest> {
        self.reads.pop_front().or_else(|| self.writes.pop_front())
    }

    fn len(&self) -> usize {
        self.reads.len() + self.writes.len()
    }

    fn backlogged_threads(&self, out: &mut Vec<(vpc_sim::ThreadId, Option<u64>)>) {
        fifo_backlog(self.reads.iter().chain(self.writes.iter()), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpc_sim::{AccessKind, ThreadId};

    fn read(id: u64, t: u8) -> ArbRequest {
        ArbRequest::new(id, ThreadId(t), AccessKind::Read, 8)
    }

    fn write(id: u64, t: u8) -> ArbRequest {
        ArbRequest::new(id, ThreadId(t), AccessKind::Write, 16)
    }

    #[test]
    fn fcfs_grants_in_arrival_order() {
        let mut arb = FcfsArbiter::new();
        arb.enqueue(write(1, 0), 0);
        arb.enqueue(read(2, 1), 1);
        arb.enqueue(read(3, 0), 2);
        assert_eq!(arb.select(10).unwrap().id, 1);
        assert_eq!(arb.select(10).unwrap().id, 2);
        assert_eq!(arb.select(10).unwrap().id, 3);
        assert!(arb.select(10).is_none());
    }

    #[test]
    fn row_fcfs_prioritizes_reads() {
        let mut arb = RowFcfsArbiter::new();
        arb.enqueue(write(1, 0), 0);
        arb.enqueue(read(2, 1), 5);
        arb.enqueue(read(3, 1), 6);
        assert_eq!(arb.select(10).unwrap().id, 2);
        assert_eq!(arb.select(10).unwrap().id, 3);
        assert_eq!(arb.select(10).unwrap().id, 1);
    }

    #[test]
    fn row_fcfs_starves_writes_under_read_stream() {
        // The paper's §5.3 observation: a continuous load stream starves a
        // store under RoW-FCFS for as long as the loads keep coming.
        let mut arb = RowFcfsArbiter::new();
        arb.enqueue(write(0, 1), 0);
        for now in 0..1000u64 {
            arb.enqueue(read(now + 1, 0), now);
            let granted = arb.select(now).unwrap();
            assert!(granted.kind.is_read(), "write was granted while reads pending");
        }
        // Only once the read stream stops does the write get service.
        assert_eq!(arb.select(1000).unwrap().id, 0);
    }

    #[test]
    fn len_tracks_pending() {
        let mut arb = RowFcfsArbiter::new();
        assert!(arb.is_empty());
        arb.enqueue(read(1, 0), 0);
        arb.enqueue(write(2, 1), 0);
        assert_eq!(arb.len(), 2);
        arb.select(0);
        assert_eq!(arb.len(), 1);
    }

    #[test]
    fn arrival_is_stamped_on_enqueue() {
        let mut arb = FcfsArbiter::new();
        arb.enqueue(read(1, 0), 42);
        assert_eq!(arb.select(43).unwrap().arrival, 42);
    }
}

//! Start-time fair queuing: a third fairness policy for the comparison
//! the paper defers to future work.
//!
//! SFQ differs from the VPC arbiter (a Virtual-Clock/EDF scheme keyed on
//! real time) in two ways: requests are ordered by virtual **start** time
//! rather than finish time, and the system virtual time is defined as the
//! start tag of the request *in service* — so a thread returning from idle
//! re-enters at the current system virtual time rather than the wall
//! clock. The practical consequence: a thread that consumed excess
//! bandwidth while others idled is **not** penalized later (no banked
//! punishment), at the cost of a slightly weaker short-term latency bound.
//!
//! The per-thread registers are the same [`VirtualClock`] the VPC arbiter
//! holds; SFQ passes the system virtual time as the Eq. 6 floor.

use std::collections::VecDeque;

use vpc_sim::{Cycle, Share, ThreadId, VirtualClock};

use crate::arbiter::Arbiter;
use crate::request::ArbRequest;

/// A start-time fair-queuing arbiter.
#[derive(Debug)]
pub struct SfqArbiter {
    queues: Vec<VecDeque<ArbRequest>>,
    /// `beta_i` and, per thread, the virtual finish tag of its most recent
    /// grant, which is also its next start tag.
    clock: VirtualClock,
    /// System virtual time: the start tag of the last granted request.
    v: u64,
    pending: usize,
    /// Virtual `(start, finish)` of the most recent guaranteed grant, for
    /// trace observability.
    last_virtual: Option<(u64, u64)>,
}

impl SfqArbiter {
    /// Creates an arbiter for `num_threads` threads, all with zero share.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads` is zero.
    pub fn new(num_threads: usize) -> SfqArbiter {
        SfqArbiter {
            clock: VirtualClock::new(num_threads, &[]),
            queues: (0..num_threads).map(|_| VecDeque::new()).collect(),
            v: 0,
            pending: 0,
            last_virtual: None,
        }
    }

    /// Creates an arbiter with equal shares.
    pub fn equal(num_threads: usize) -> SfqArbiter {
        let mut arb = SfqArbiter::new(num_threads);
        let share = Share::new(1, num_threads as u32).expect("1/threads is a valid share");
        for t in 0..num_threads {
            arb.set_share(ThreadId(t as u8), share);
        }
        arb
    }

    /// The system virtual time (for tests).
    pub fn virtual_time(&self) -> u64 {
        self.v
    }
}

impl Arbiter for SfqArbiter {
    fn enqueue(&mut self, mut req: ArbRequest, now: Cycle) {
        req.arrival = now;
        let queue = &mut self.queues[req.thread.index()];
        // A thread re-entering from idle starts at the *system virtual
        // time* (not the wall clock — the SFQ/VC difference).
        self.clock.on_arrival(req.thread, queue.is_empty(), self.v);
        queue.push_back(req);
        self.pending += 1;
    }

    fn select(&mut self, _now: Cycle) -> Option<ArbRequest> {
        // Minimum start tag among guaranteed backlogged threads.
        let mut best: Option<(u64, usize)> = None;
        for t in 0..self.queues.len() {
            let thread = ThreadId(t as u8);
            if self.clock.share(thread).is_zero() || self.queues[t].is_empty() {
                continue;
            }
            let start = self.clock.start(thread);
            if best.is_none_or(|(s, _)| start < s) {
                best = Some((start, t));
            }
        }
        if let Some((start, t)) = best {
            let thread = ThreadId(t as u8);
            let req = self.queues[t].pop_front().expect("backlogged");
            let finish = self.clock.finish(thread, req.service_time).expect("nonzero share");
            self.v = start; // system virtual time = start tag in service
            self.clock.grant(thread, finish);
            self.pending -= 1;
            self.last_virtual = Some((start, finish));
            return Some(req);
        }
        // Zero-share threads: oldest first.
        let t = (0..self.queues.len())
            .filter(|&t| !self.queues[t].is_empty())
            .min_by_key(|&t| self.queues[t].front().expect("non-empty").arrival)?;
        self.pending -= 1;
        self.last_virtual = None;
        self.queues[t].pop_front()
    }

    fn len(&self) -> usize {
        self.pending
    }

    fn set_share(&mut self, thread: ThreadId, share: Share) -> bool {
        self.clock.set_share(thread, share);
        true
    }

    fn last_grant_virtual(&self) -> Option<(u64, u64)> {
        self.last_virtual
    }

    fn backlogged_threads(&self, out: &mut Vec<(ThreadId, Option<u64>)>) {
        out.extend(self.queues.iter().enumerate().filter(|(_, q)| !q.is_empty()).map(|(t, _)| {
            let thread = ThreadId(t as u8);
            let start = (!self.clock.share(thread).is_zero()).then(|| self.clock.start(thread));
            (thread, start)
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpc_sim::AccessKind;

    fn read(id: u64, t: u8, service: u64) -> ArbRequest {
        ArbRequest::new(id, ThreadId(t), AccessKind::Read, service)
    }

    #[test]
    fn proportional_split_when_backlogged() {
        let mut arb = SfqArbiter::new(2);
        arb.set_share(ThreadId(0), Share::new(3, 4).unwrap());
        arb.set_share(ThreadId(1), Share::new(1, 4).unwrap());
        let mut id = 0;
        let mut grants = [0u64; 2];
        let mut now = 0;
        for _ in 0..4000 {
            for t in 0..2u8 {
                while arb.queues[t as usize].len() < 2 {
                    id += 1;
                    arb.enqueue(read(id, t, 8), now);
                }
            }
            let g = arb.select(now).unwrap();
            grants[g.thread.index()] += 1;
            now += g.service_time;
        }
        let ratio = grants[0] as f64 / grants[1] as f64;
        assert!((2.7..3.3).contains(&ratio), "3:1 split expected, got {ratio}");
    }

    #[test]
    fn no_banked_punishment_after_solo_running() {
        // The SFQ property the VPC arbiter lacks: thread 0 over-serves
        // while thread 1 idles; when thread 1 wakes, thread 0 resumes
        // competing at the *system* virtual time, so it is served in the
        // very next few grants rather than starved until the wall clock
        // catches up.
        let mut arb = SfqArbiter::equal(2);
        let mut now = 0;
        for i in 0..200u64 {
            arb.enqueue(read(i, 0, 8), now);
            let g = arb.select(now).unwrap();
            assert_eq!(g.thread, ThreadId(0));
            now += g.service_time;
        }
        // Thread 1 wakes with a burst; interleave new arrivals.
        let mut grants0_in_first_10 = 0;
        let mut id = 1000;
        for t in 0..10u64 {
            id += 1;
            arb.enqueue(read(id, 1, 8), now + t);
            id += 1;
            arb.enqueue(read(id, 0, 8), now + t);
        }
        for _ in 0..10 {
            if arb.select(now).unwrap().thread == ThreadId(0) {
                grants0_in_first_10 += 1;
            }
        }
        assert!(
            grants0_in_first_10 >= 4,
            "SFQ must not starve the former solo runner: got {grants0_in_first_10}/10"
        );
    }

    #[test]
    fn system_virtual_time_tracks_service() {
        let mut arb = SfqArbiter::equal(2);
        arb.enqueue(read(1, 0, 8), 0);
        arb.select(0);
        let v1 = arb.virtual_time();
        arb.enqueue(read(2, 0, 8), 100);
        arb.select(100);
        assert!(arb.virtual_time() > v1, "virtual time advances with service");
    }

    #[test]
    fn zero_share_fallback_is_fcfs() {
        let mut arb = SfqArbiter::new(2);
        arb.enqueue(read(1, 1, 8), 0);
        arb.enqueue(read(2, 0, 8), 1);
        assert_eq!(arb.select(2).unwrap().id, 1);
        assert_eq!(arb.select(2).unwrap().id, 2);
    }
}

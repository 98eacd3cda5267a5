//! Deficit round robin: an alternative QoS arbiter.
//!
//! The paper (§4.1.3) notes that the fairness policy "can be any policy
//! that distributes excess bandwidth" and defers a detailed comparison of
//! fairness policies to future work. [`DrrArbiter`] is the classic
//! quantum-based alternative: each thread holds a deficit counter topped up
//! with a share-proportional quantum each round; a thread may service
//! requests while its deficit covers their service time. DRR is O(1) per
//! grant (no virtual-time comparison), but its service granularity is the
//! *round*, so short-term latency guarantees are coarser than the VPC
//! arbiter's earliest-virtual-finish-first policy — which is exactly the
//! trade-off the fairness-policy ablation measures.

use std::collections::VecDeque;

use vpc_sim::{Cycle, Share, ThreadId};

use crate::arbiter::Arbiter;
use crate::request::ArbRequest;

/// Base quantum (cycles of service) corresponding to a full share per
/// round; a thread with share `p/q` receives `QUANTUM * p / q` per round.
const QUANTUM: u64 = 64;

#[derive(Debug)]
struct DrrThread {
    queue: VecDeque<ArbRequest>,
    deficit: u64,
    share: Share,
}

/// A deficit-round-robin arbiter with share-proportional quanta.
#[derive(Debug)]
pub struct DrrArbiter {
    threads: Vec<DrrThread>,
    active: usize,
    pending: usize,
}

impl DrrArbiter {
    /// Creates an arbiter for `num_threads` threads, all with zero share
    /// (configure with [`Arbiter::set_share`]).
    ///
    /// # Panics
    ///
    /// Panics if `num_threads` is zero.
    pub fn new(num_threads: usize) -> DrrArbiter {
        assert!(num_threads > 0, "at least one thread required");
        DrrArbiter {
            threads: (0..num_threads)
                .map(|_| DrrThread { queue: VecDeque::new(), deficit: 0, share: Share::ZERO })
                .collect(),
            active: 0,
            pending: 0,
        }
    }

    /// Creates an arbiter with equal shares.
    pub fn equal(num_threads: usize) -> DrrArbiter {
        let mut arb = DrrArbiter::new(num_threads);
        let share = Share::new(1, num_threads as u32).expect("1/threads is a valid share");
        for t in 0..num_threads {
            arb.set_share(ThreadId(t as u8), share);
        }
        arb
    }

    fn quantum_of(&self, t: usize) -> u64 {
        let s = self.threads[t].share;
        (QUANTUM * u64::from(s.numer())) / u64::from(s.denom().max(1))
    }
}

impl Arbiter for DrrArbiter {
    fn enqueue(&mut self, mut req: ArbRequest, now: Cycle) {
        req.arrival = now;
        self.threads[req.thread.index()].queue.push_back(req);
        self.pending += 1;
    }

    fn select(&mut self, _now: Cycle) -> Option<ArbRequest> {
        if self.pending == 0 {
            return None;
        }
        let n = self.threads.len();
        // Round-robin over threads: top up the deficit when visiting a
        // backlogged thread; serve if the deficit covers the head request.
        // Two sweeps bound the search (a full empty sweep tops everyone up).
        for _ in 0..2 * n {
            let t = self.active;
            if self.threads[t].queue.is_empty() {
                self.threads[t].deficit = 0; // idle threads keep no credit
                self.active = (t + 1) % n;
                continue;
            }
            let head_cost = self.threads[t].queue.front().expect("non-empty").service_time;
            if self.threads[t].deficit >= head_cost {
                self.threads[t].deficit -= head_cost;
                self.pending -= 1;
                return self.threads[t].queue.pop_front();
            }
            // Not enough deficit: top up and move on.
            self.threads[t].deficit += self.quantum_of(t).max(1);
            self.active = (t + 1) % n;
        }
        // All shares zero (or pathological quanta): fall back to oldest.
        let t = (0..n)
            .filter(|&t| !self.threads[t].queue.is_empty())
            .min_by_key(|&t| self.threads[t].queue.front().expect("non-empty").arrival)?;
        self.pending -= 1;
        self.threads[t].queue.pop_front()
    }

    fn len(&self) -> usize {
        self.pending
    }

    fn set_share(&mut self, thread: ThreadId, share: Share) -> bool {
        self.threads[thread.index()].share = share;
        true
    }

    fn backlogged_threads(&self, out: &mut Vec<(ThreadId, Option<u64>)>) {
        // DRR keeps no virtual clock — deficit credit is not a virtual
        // time — so backlogged threads report without one.
        out.extend(
            self.threads
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.queue.is_empty())
                .map(|(t, _)| (ThreadId(t as u8), None)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpc_sim::AccessKind;

    fn read(id: u64, t: u8, service: u64) -> ArbRequest {
        ArbRequest::new(id, ThreadId(t), AccessKind::Read, service)
    }

    fn grant_split(arb: &mut DrrArbiter, rounds: usize, services: [u64; 2]) -> [u64; 2] {
        let mut id = 0;
        let mut served = [0u64; 2];
        let mut now = 0;
        for _ in 0..rounds {
            for t in 0..2u8 {
                while arb.threads[t as usize].queue.len() < 2 {
                    id += 1;
                    arb.enqueue(read(id, t, services[t as usize]), now);
                }
            }
            let g = arb.select(now).expect("backlogged");
            served[g.thread.index()] += g.service_time;
            now += g.service_time;
        }
        served
    }

    #[test]
    fn equal_shares_split_service_evenly() {
        let mut arb = DrrArbiter::equal(2);
        let served = grant_split(&mut arb, 2000, [8, 8]);
        let ratio = served[0] as f64 / served[1] as f64;
        assert!((0.9..1.1).contains(&ratio), "equal split expected, got {ratio}");
    }

    #[test]
    fn proportional_shares_split_service_proportionally() {
        let mut arb = DrrArbiter::new(2);
        arb.set_share(ThreadId(0), Share::new(3, 4).unwrap());
        arb.set_share(ThreadId(1), Share::new(1, 4).unwrap());
        let served = grant_split(&mut arb, 2000, [8, 8]);
        let ratio = served[0] as f64 / served[1] as f64;
        assert!((2.5..3.5).contains(&ratio), "3:1 service split expected, got {ratio}");
    }

    #[test]
    fn double_cost_requests_charge_double() {
        // Service (not request count) is what DRR divides: with equal
        // shares, a 16-cycle-write thread gets half the *grants* of an
        // 8-cycle-read thread.
        let mut arb = DrrArbiter::equal(2);
        let served = grant_split(&mut arb, 3000, [8, 16]);
        let ratio = served[0] as f64 / served[1] as f64;
        assert!((0.85..1.15).contains(&ratio), "equal service despite cost, got {ratio}");
    }

    #[test]
    fn idle_threads_accumulate_no_credit() {
        let mut arb = DrrArbiter::equal(2);
        // Thread 1 idles while thread 0 is served many times.
        for i in 0..50 {
            arb.enqueue(read(i, 0, 8), i);
            assert_eq!(arb.select(i).unwrap().thread, ThreadId(0));
        }
        // Thread 1 wakes: it must not burst past thread 0 on banked credit.
        for i in 0..8u64 {
            arb.enqueue(read(100 + i, 1, 8), 100);
            arb.enqueue(read(200 + i, 0, 8), 100);
        }
        let mut grants = [0u32; 2];
        for _ in 0..8 {
            grants[arb.select(100).unwrap().thread.index()] += 1;
        }
        assert!(grants[1] <= 5, "no banked-credit burst: {grants:?}");
    }

    #[test]
    fn zero_share_threads_fall_back_to_fcfs() {
        let mut arb = DrrArbiter::new(2); // both zero share
        arb.enqueue(read(1, 1, 8), 0);
        arb.enqueue(read(2, 0, 8), 1);
        assert_eq!(arb.select(1).unwrap().id, 1, "oldest request wins");
        assert_eq!(arb.select(1).unwrap().id, 2);
        assert!(arb.select(1).is_none());
    }
}

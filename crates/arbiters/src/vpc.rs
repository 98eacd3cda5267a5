//! The VPC fair-queuing arbiter (paper §4.1).
//!
//! Each shared cache resource (tag array, data array, data bus) gets one
//! [`VpcArbiter`], Figure 3's block: per thread, a small buffer of pending
//! request IDs, the share `beta_i` and a virtual-time register `R.S_i`
//! tracking when the thread's *virtual private resource* next becomes
//! available. Selection is earliest virtual finish time first (EDF):
//!
//! * Eq. 3': `S_i^k = R.S_i` — the optimized implementation needs no stored
//!   per-request arrival times.
//! * Eq. 4:  `F_i^k = S_i^k + L_i^k / beta_i` (writes on the data array have
//!   twice the service requirement, which callers encode in
//!   [`ArbRequest::service_time`]).
//! * Eq. 5:  on grant, `R.S_i <- F_i^k`.
//! * Eq. 6:  when a request arrives to an *empty* thread queue and
//!   `R.S_i <= R.clk`, then `R.S_i <- R.clk`.
//!
//! Figure 3 also keeps the virtual service time `R.L_i = L / beta_i` in a
//! register because a hardware arbiter cannot divide on every grant; here
//! each finish time derives it with [`Share::scaled_latency`], the one
//! implementation of Eq. 2.
//!
//! Because `R.S_i` depends only on the amount of service the thread has
//! received — not on which specific request is served — requests within a
//! thread's buffer may be reordered (read-over-write) without changing the
//! bandwidth each thread receives relative to others (§4.1.1).

use std::collections::VecDeque;

use vpc_sim::{Cycle, Share, ThreadId};

use crate::arbiter::Arbiter;
use crate::request::ArbRequest;

/// Ordering applied within a single thread's arbitration buffer.
///
/// Intra-thread reordering is the performance optimization §4.1.1 enables:
/// it cannot cause cross-thread starvation because the virtual-time
/// bookkeeping is per-thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntraThreadOrder {
    /// Service the thread's requests strictly in arrival order.
    Fifo,
    /// Prefer the thread's oldest pending *read* over older writes
    /// (read-over-write), falling back to FIFO when no read is pending.
    #[default]
    ReadOverWrite,
}

/// One thread's pending requests (Figure 3's per-thread buffer), kept as
/// two FIFO queues: reads at index 0, writes at index 1. Each request
/// carries its enqueue sequence number, which orders the two fronts for
/// [`IntraThreadOrder::Fifo`].
type ThreadQueues = [VecDeque<(u64, ArbRequest)>; 2];

/// The paper's fair-queuing arbiter with per-thread virtual-time registers.
///
/// See the [module documentation](self) for the algorithm. Threads with a
/// [`Share::ZERO`] allocation hold no bandwidth guarantee and are serviced
/// (oldest first) only when no guaranteed thread is backlogged.
#[derive(Debug)]
pub struct VpcArbiter {
    /// Pending requests per thread.
    buffers: Vec<ThreadQueues>,
    /// `beta_i`: each thread's share of the resource's bandwidth.
    shares: Vec<Share>,
    /// `R.S_i`: when each thread's virtual private resource next frees.
    start: Vec<u64>,
    order: IntraThreadOrder,
    /// Sequence number of the next enqueued request.
    next_seq: u64,
    /// Virtual `(start, finish)` of the most recent guaranteed grant, for
    /// trace observability.
    last_virtual: Option<(u64, u64)>,
}

impl VpcArbiter {
    /// Creates an arbiter for `num_threads` threads with bandwidth shares
    /// `shares` (`beta_i`; missing entries get [`Share::ZERO`], extra
    /// entries are ignored) and every `R.S_i` at zero. The shares are fixed
    /// for the arbiter's life.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads` is zero.
    pub fn new(num_threads: usize, shares: &[Share], order: IntraThreadOrder) -> VpcArbiter {
        assert!(num_threads > 0, "at least one thread required");
        VpcArbiter {
            buffers: (0..num_threads).map(|_| Default::default()).collect(),
            shares: (0..num_threads).map(|t| shares.get(t).copied().unwrap_or_default()).collect(),
            start: vec![0; num_threads],
            order,
            next_seq: 0,
            last_virtual: None,
        }
    }

    /// Returns thread `thread`'s configured share.
    pub fn share(&self, thread: ThreadId) -> Share {
        self.shares[thread.index()]
    }

    /// `R.S_i` for thread `thread` — exposed for tests and analysis.
    pub fn virtual_start(&self, thread: ThreadId) -> u64 {
        self.start[thread.index()]
    }

    /// The queue (0 reads, 1 writes) whose front is the request the
    /// thread's reorder policy would send next, and that request.
    fn candidate(&self, thread: usize) -> Option<(usize, ArbRequest)> {
        let [reads, writes] = &self.buffers[thread];
        match (reads.front(), writes.front()) {
            (Some(&(r, _)), Some(&(w, write))) if self.order == IntraThreadOrder::Fifo && w < r => {
                Some((1, write))
            }
            (Some(&(_, read)), _) => Some((0, read)),
            (None, Some(&(_, write))) => Some((1, write)),
            (None, None) => None,
        }
    }

    /// Removes and returns the front of `thread`'s queue `queue`.
    fn take(&mut self, thread: usize, queue: usize) -> ArbRequest {
        self.buffers[thread][queue].pop_front().expect("candidate queue is nonempty").1
    }
}

impl Arbiter for VpcArbiter {
    fn enqueue(&mut self, mut req: ArbRequest, now: Cycle) {
        req.arrival = now;
        let t = req.thread.index();
        let queues = &mut self.buffers[t];
        // Eq. 6: arriving to an empty queue raises a stale virtual clock to
        // real time, so an idle thread banks no credit; R.S_i never
        // decreases.
        if queues.iter().all(VecDeque::is_empty) {
            self.start[t] = self.start[t].max(now);
        }
        queues[usize::from(!req.kind.is_read())].push_back((self.next_seq, req));
        self.next_seq += 1;
    }

    fn select(&mut self, _now: Cycle) -> Option<ArbRequest> {
        // One walk keeps two candidates: the earliest virtual finish time
        // among guaranteed threads (EDF), and the oldest request among
        // zero-share threads, which get only the excess bandwidth.
        let mut edf: Option<((u64, u64, usize), usize)> = None; // ((F, arrival, thread), queue)
        let mut excess: Option<((u64, usize), usize)> = None; // ((arrival, thread), queue)
        for t in 0..self.buffers.len() {
            let Some((queue, req)) = self.candidate(t) else { continue };
            match self.shares[t].scaled_latency(req.service_time) {
                Some(virt) => {
                    let key = (self.start[t] + virt, req.arrival, t); // Eq. 3' + Eq. 4
                    if edf.is_none_or(|(best, _)| key < best) {
                        edf = Some((key, queue));
                    }
                }
                None => {
                    let key = (req.arrival, t);
                    if excess.is_none_or(|(best, _)| key < best) {
                        excess = Some((key, queue));
                    }
                }
            }
        }
        if let Some(((finish, _, t), queue)) = edf {
            let start = std::mem::replace(&mut self.start[t], finish); // Eq. 5
            self.last_virtual = Some((start, finish));
            return Some(self.take(t, queue));
        }
        // A zero-share thread holds no virtual resource: R.S_i is untouched.
        let ((_, t), queue) = excess?;
        self.last_virtual = None;
        Some(self.take(t, queue))
    }

    fn len(&self) -> usize {
        self.buffers.iter().flatten().map(VecDeque::len).sum()
    }

    fn last_grant_virtual(&self) -> Option<(u64, u64)> {
        self.last_virtual
    }

    fn backlogged_threads(&self, out: &mut Vec<(ThreadId, Option<u64>)>) {
        for (t, queues) in self.buffers.iter().enumerate() {
            if queues.iter().any(|q| !q.is_empty()) {
                out.push((ThreadId(t as u8), Some(self.start[t])));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpc_sim::check::{self, gen, Config};
    use vpc_sim::{ensure, ensure_eq, AccessKind};

    fn share(n: u32, d: u32) -> Share {
        Share::new(n, d).unwrap()
    }

    fn read(id: u64, t: u8, service: u64) -> ArbRequest {
        ArbRequest::new(id, ThreadId(t), AccessKind::Read, service)
    }

    fn write(id: u64, t: u8, service: u64) -> ArbRequest {
        ArbRequest::new(id, ThreadId(t), AccessKind::Write, service)
    }

    fn queued(arb: &VpcArbiter, thread: usize) -> usize {
        arb.buffers[thread].iter().map(VecDeque::len).sum()
    }

    fn equal_share_arbiter(n: usize) -> VpcArbiter {
        VpcArbiter::new(n, &vec![share(1, n as u32); n], IntraThreadOrder::Fifo)
    }

    #[test]
    fn eq6_resets_stale_virtual_clock() {
        let mut arb = equal_share_arbiter(2);
        arb.enqueue(read(1, 0, 8), 0);
        arb.select(0);
        assert_eq!(arb.virtual_start(ThreadId(0)), 16); // 8 / (1/2)
                                                        // Thread 0 goes idle; a request arriving at cycle 100 must not be
                                                        // credited for the idle period.
        arb.enqueue(read(2, 0, 8), 100);
        assert_eq!(arb.virtual_start(ThreadId(0)), 100);
        let granted = arb.select(100).unwrap();
        assert_eq!(granted.id, 2);
        assert_eq!(arb.virtual_start(ThreadId(0)), 116);
    }

    #[test]
    fn eq6_does_not_rewind_backlogged_clock() {
        let mut arb = equal_share_arbiter(2);
        arb.enqueue(read(1, 0, 8), 0);
        arb.select(0);
        // R.S = 16. A request arriving at cycle 4 (before the virtual
        // resource frees) keeps the backlogged virtual clock.
        arb.enqueue(read(2, 0, 8), 4);
        assert_eq!(arb.virtual_start(ThreadId(0)), 16);
    }

    #[test]
    fn eq6_never_lowers_a_clock() {
        let mut arb = equal_share_arbiter(2);
        let (t0, t1) = (ThreadId(0), ThreadId(1));
        arb.enqueue(read(1, 0, 8), 0);
        arb.select(0);
        arb.enqueue(read(2, 0, 8), 10);
        assert_eq!(arb.virtual_start(t0), 16, "an idle clock ahead of real time stays");
        // Thread 1 wakes at cycle 1000: its clock starts there, not at zero...
        arb.enqueue(read(3, 1, 8), 1000);
        assert_eq!(arb.virtual_start(t1), 1000);
        // ...and while backlogged it keeps its clock even below real time.
        arb.enqueue(read(4, 1, 8), 2000);
        assert_eq!(arb.virtual_start(t1), 1000);
    }

    #[test]
    fn equal_shares_alternate() {
        let mut arb = equal_share_arbiter(2);
        for id in 0..8 {
            arb.enqueue(read(id, (id % 2) as u8, 70), 0);
        }
        let order: Vec<u8> = (0..8).map(|_| arb.select(0).unwrap().thread.0).collect();
        assert_eq!(order, [0, 1, 0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn edf_prefers_larger_share() {
        let mut arb = VpcArbiter::new(2, &[share(3, 4), share(1, 4)], IntraThreadOrder::Fifo);
        arb.enqueue(read(1, 0, 8), 0);
        arb.enqueue(read(2, 1, 8), 0);
        // F0 = ceil(8/(3/4)) = 11, F1 = 32.
        assert_eq!(arb.select(0).unwrap().id, 1);
        assert_eq!(arb.virtual_start(ThreadId(0)), 11);
        assert_eq!(arb.select(0).unwrap().id, 2);
        assert_eq!(arb.virtual_start(ThreadId(1)), 32);
    }

    #[test]
    fn bandwidth_split_matches_shares_when_both_backlogged() {
        // Two threads, shares 3/4 and 1/4, both continuously backlogged with
        // 8-cycle reads: over any long window thread 0 gets ~3x the grants.
        let mut arb = VpcArbiter::new(2, &[share(3, 4), share(1, 4)], IntraThreadOrder::Fifo);
        let mut id = 0;
        let mut grants = [0u64; 2];
        let mut now = 0u64;
        for _ in 0..4000 {
            // Keep both queues non-empty.
            while queued(&arb, 0) < 2 {
                id += 1;
                arb.enqueue(read(id, 0, 8), now);
            }
            while queued(&arb, 1) < 2 {
                id += 1;
                arb.enqueue(read(id, 1, 8), now);
            }
            let g = arb.select(now).unwrap();
            grants[g.thread.index()] += 1;
            now += g.service_time;
        }
        let ratio = grants[0] as f64 / grants[1] as f64;
        assert!((2.9..3.1).contains(&ratio), "grant ratio {ratio} != ~3.0");
    }

    #[test]
    fn write_double_cost_halves_write_grant_rate() {
        // Equal shares; thread 0 sends 8-cycle reads, thread 1 sends
        // 16-cycle writes. Equal *bandwidth* means thread 1 gets half the
        // grants (stores need twice the data-array bandwidth, §5.3).
        let mut arb = equal_share_arbiter(2);
        let mut id = 0;
        let mut grants = [0u64; 2];
        let mut now = 0u64;
        for _ in 0..3000 {
            while queued(&arb, 0) < 2 {
                id += 1;
                arb.enqueue(read(id, 0, 8), now);
            }
            while queued(&arb, 1) < 2 {
                id += 1;
                arb.enqueue(write(id, 1, 16), now);
            }
            let g = arb.select(now).unwrap();
            grants[g.thread.index()] += 1;
            now += g.service_time;
        }
        let ratio = grants[0] as f64 / grants[1] as f64;
        assert!((1.9..2.1).contains(&ratio), "grant ratio {ratio} != ~2.0");
    }

    #[test]
    fn zero_share_thread_only_gets_excess() {
        let mut arb = VpcArbiter::new(2, &[Share::FULL], IntraThreadOrder::Fifo);
        assert_eq!(arb.share(ThreadId(1)), Share::ZERO, "missing entries are zero");
        // Thread 1 has zero share.
        arb.enqueue(read(1, 1, 8), 0);
        arb.enqueue(read(2, 0, 8), 0);
        assert_eq!(arb.select(0).unwrap().id, 2, "guaranteed thread first");
        assert_eq!(arb.select(8).unwrap().id, 1, "excess goes to zero-share thread");
    }

    #[test]
    fn row_reordering_is_intra_thread_only() {
        let mut arb =
            VpcArbiter::new(2, &[share(1, 2), share(1, 2)], IntraThreadOrder::ReadOverWrite);
        // Thread 0: write then read. RoW lets its read jump its own write...
        arb.enqueue(write(1, 0, 16), 0);
        arb.enqueue(read(2, 0, 8), 0);
        // ...but thread 1's virtual finish time is unaffected.
        arb.enqueue(read(3, 1, 8), 0);
        let first = arb.select(0).unwrap();
        assert_eq!(first.id, 2, "thread 0's read bypasses its own write (RoW)");
        let second = arbiter_drain_one(&mut arb, 8);
        assert_eq!(second.thread, ThreadId(1), "thread 1 unaffected by thread 0 reordering");
    }

    fn arbiter_drain_one(arb: &mut VpcArbiter, now: Cycle) -> ArbRequest {
        arb.select(now).expect("request pending")
    }

    /// Reference model of the per-thread virtual clock used to check the
    /// §3.2 guarantee: each of a thread's services completes no later than
    /// its virtual finish time plus the maximum service time (the
    /// preemption latency of a non-preemptible resource).
    struct GuaranteeChecker {
        v: Vec<u64>,
        queue_len: Vec<usize>,
        shares: Vec<Share>,
        max_service: u64,
    }

    impl GuaranteeChecker {
        fn new(shares: Vec<Share>) -> GuaranteeChecker {
            let n = shares.len();
            GuaranteeChecker { v: vec![0; n], queue_len: vec![0; n], shares, max_service: 0 }
        }

        fn on_enqueue(&mut self, thread: usize, now: u64, service: u64) {
            if self.queue_len[thread] == 0 && self.v[thread] < now {
                self.v[thread] = now;
            }
            self.queue_len[thread] += 1;
            self.max_service = self.max_service.max(service);
        }

        fn on_complete(&mut self, thread: usize, finish: u64, service: u64) -> Result<(), String> {
            self.queue_len[thread] -= 1;
            if let Some(virt) = self.shares[thread].scaled_latency(service) {
                self.v[thread] += virt;
                ensure!(
                    finish <= self.v[thread] + self.max_service,
                    "thread {thread} finished at {finish}, deadline {} + max {}",
                    self.v[thread],
                    self.max_service
                );
            }
            Ok(())
        }
    }

    /// The paper's minimum-bandwidth guarantee, tested against random
    /// arrival patterns with non-over-committed shares: every service of
    /// a guaranteed thread completes by its virtual deadline plus one
    /// maximum service time.
    #[test]
    fn deadline_guarantee_holds() {
        check::forall("deadline_guarantee_holds", Config::cases(64), |rng| {
            let order = if rng.chance(0.5) {
                IntraThreadOrder::Fifo
            } else {
                IntraThreadOrder::ReadOverWrite
            };
            let shares = vec![share(1, 2), share(1, 4), share(1, 8), Share::ZERO];
            let mut arb = VpcArbiter::new(4, &shares, order);
            let mut checker = GuaranteeChecker::new(shares);
            let mut id = 0u64;
            let mut busy_until = 0u64;
            for now in 0..2000u64 {
                // Random arrivals.
                for t in 0..4u8 {
                    if rng.chance(0.3) {
                        id += 1;
                        let is_write = rng.chance(0.4);
                        let service = if is_write { 16 } else { 8 };
                        let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
                        arb.enqueue(ArbRequest::new(id, ThreadId(t), kind, service), now);
                        checker.on_enqueue(t as usize, now, service);
                    }
                }
                // Service when free.
                if now >= busy_until {
                    if let Some(req) = arb.select(now) {
                        let finish = now + req.service_time;
                        busy_until = finish;
                        checker.on_complete(req.thread.index(), finish, req.service_time)?;
                    }
                }
            }
            Ok(())
        });
    }

    /// Work conservation: the arbiter always grants when any request is
    /// pending, regardless of shares.
    #[test]
    fn work_conserving() {
        check::forall("work_conserving", Config::cases(64), |rng| {
            let mut arb = VpcArbiter::new(3, &[share(1, 4)], IntraThreadOrder::ReadOverWrite);
            // Threads 1, 2 left at zero share.
            let mut id = 0;
            for step in 0..500u64 {
                let t = rng.below(3) as u8;
                id += 1;
                arb.enqueue(read(id, t, 8), step);
                ensure!(arb.select(step).is_some(), "pending request must be granted");
            }
            Ok(())
        });
    }

    /// R.S_i never decreases: virtual time is monotone per thread.
    #[test]
    fn virtual_start_is_monotone() {
        check::forall("virtual_start_is_monotone", Config::cases(64), |rng| {
            let mut arb = equal_share_arbiter(2);
            let mut last = [0u64; 2];
            let mut id = 0;
            let mut now = 0u64;
            for _ in 0..500 {
                if rng.chance(0.7) {
                    id += 1;
                    arb.enqueue(read(id, (id % 2) as u8, 8), now);
                }
                if rng.chance(0.6) {
                    let _ = arb.select(now);
                }
                for (t, slot) in last.iter_mut().enumerate() {
                    let v = arb.virtual_start(ThreadId(t as u8));
                    ensure!(v >= *slot, "R.S went backwards");
                    *slot = v;
                }
                now += rng.below(4);
            }
            Ok(())
        });
    }

    /// The scan-based arbiter the two queues replaced: one buffer per
    /// thread in arrival order, the read-over-write candidate found by a
    /// scan and granted by `VecDeque::remove`, guaranteed threads served
    /// in a pass before zero-share ones. It keeps its own `beta_i` and
    /// `R.S_i` arithmetic (Eq. 3'–6), sharing none with [`VpcArbiter`].
    struct ScanArbiter {
        buffers: Vec<VecDeque<ArbRequest>>,
        shares: Vec<Share>,
        r_s: Vec<u64>,
        order: IntraThreadOrder,
    }

    impl ScanArbiter {
        fn enqueue(&mut self, mut req: ArbRequest, now: Cycle) {
            req.arrival = now;
            let t = req.thread.index();
            if self.buffers[t].is_empty() && self.r_s[t] < now {
                self.r_s[t] = now;
            }
            self.buffers[t].push_back(req);
        }

        fn candidate_index(&self, t: usize) -> Option<usize> {
            let buffer = &self.buffers[t];
            if buffer.is_empty() {
                return None;
            }
            match self.order {
                IntraThreadOrder::Fifo => Some(0),
                IntraThreadOrder::ReadOverWrite => {
                    Some(buffer.iter().position(|r| r.kind.is_read()).unwrap_or(0))
                }
            }
        }

        fn select(&mut self) -> Option<ArbRequest> {
            let mut best: Option<(u64, u64, usize, usize)> = None;
            for t in 0..self.buffers.len() {
                let (num, den) = (self.shares[t].numer(), self.shares[t].denom());
                if num == 0 {
                    continue;
                }
                let Some(pos) = self.candidate_index(t) else { continue };
                let req = self.buffers[t][pos];
                let virt = (req.service_time * u64::from(den)).div_ceil(u64::from(num));
                let finish = self.r_s[t] + virt;
                if best.is_none_or(|b| (finish, req.arrival, t) < (b.0, b.1, b.2)) {
                    best = Some((finish, req.arrival, t, pos));
                }
            }
            if let Some((finish, _, t, pos)) = best {
                self.r_s[t] = finish;
                return self.buffers[t].remove(pos);
            }
            let mut best_free: Option<(u64, usize, usize)> = None;
            for t in 0..self.buffers.len() {
                if !self.shares[t].is_zero() {
                    continue;
                }
                let Some(pos) = self.candidate_index(t) else { continue };
                let req = self.buffers[t][pos];
                if best_free.is_none_or(|b| (req.arrival, t) < (b.0, b.1)) {
                    best_free = Some((req.arrival, t, pos));
                }
            }
            let (_, t, pos) = best_free?;
            self.buffers[t].remove(pos)
        }
    }

    /// The two-queue buffers and the single selection walk grant exactly
    /// what the scan-based reference grants, and keep its `R.S_i`, under
    /// either intra-thread order and with some zero-share threads, after
    /// every step of a random enqueue/select trace.
    #[test]
    fn queues_match_scan_reference() {
        check::forall("queues_match_scan_reference", Config::cases(128), |rng| {
            let threads = gen::range(rng, 1, 4) as usize;
            let shares: Vec<Share> = (0..threads)
                .map(|_| if rng.chance(0.25) { Share::ZERO } else { gen::nonzero_share(rng, 8) })
                .collect();
            let order = if rng.chance(0.5) {
                IntraThreadOrder::Fifo
            } else {
                IntraThreadOrder::ReadOverWrite
            };
            let mut arb = VpcArbiter::new(threads, &shares, order);
            let mut reference = ScanArbiter {
                buffers: vec![VecDeque::new(); threads],
                shares,
                r_s: vec![0; threads],
                order,
            };
            let mut now = 0;
            for id in 0..400u64 {
                if rng.chance(0.55) {
                    let kind = gen::access_kind(rng);
                    let service = if kind.is_read() { 8 } else { 16 };
                    let req = ArbRequest::new(id, gen::thread_id(rng, threads), kind, service);
                    arb.enqueue(req, now);
                    reference.enqueue(req, now);
                } else {
                    ensure_eq!(arb.select(now), reference.select(), "grant at step {id}");
                }
                ensure_eq!(arb.len(), reference.buffers.iter().map(VecDeque::len).sum::<usize>());
                for (t, &r_s) in reference.r_s.iter().enumerate() {
                    ensure_eq!(arb.virtual_start(ThreadId(t as u8)), r_s, "R.S_{t} at step {id}");
                }
                now += rng.below(3);
            }
            Ok(())
        });
    }
}

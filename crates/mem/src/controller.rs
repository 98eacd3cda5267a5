//! The on-chip memory controller: per-thread buffers and channels.

use std::collections::VecDeque;

use vpc_sim::trace::{self, EventData, ResourceId, TraceEvent};
use vpc_sim::{AccessKind, Cycle, LineAddr, Share, ThreadId, VirtualClock};

use crate::channel::DramChannel;
use crate::timing::MemConfig;

/// How threads map onto SDRAM channels.
///
/// The paper's evaluation isolates cache sharing with one private channel
/// per thread (§5.1); the VPM framework also covers the shared-channel
/// case, scheduled either FCFS (no QoS) or by the fair-queuing memory
/// scheduler the paper builds on (§2.1).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ChannelMode {
    /// One private channel per thread (Table 1's configuration).
    #[default]
    PerThread,
    /// A single channel shared by all threads, scheduled oldest-first.
    SharedFcfs,
    /// A single shared channel under fair queuing with per-thread
    /// bandwidth shares.
    SharedFq {
        /// Share of channel bandwidth per thread; missing entries are zero.
        shares: Vec<Share>,
    },
}

/// A line-granularity request from the L2 cache to memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Owning hardware thread; selects the (private) channel.
    pub thread: ThreadId,
    /// Line to fetch or write back.
    pub line: LineAddr,
    /// Fetch (read) or writeback (write).
    pub kind: AccessKind,
    /// Opaque token returned with the response (reads only).
    pub token: u64,
}

/// A completed memory read returning a line to the L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    /// Thread the line belongs to.
    pub thread: ThreadId,
    /// The fetched line.
    pub line: LineAddr,
    /// Token from the originating [`MemRequest`].
    pub token: u64,
}

#[derive(Debug)]
struct ThreadQueues {
    reads: VecDeque<(u64, MemRequest)>,
    writes: VecDeque<(u64, MemRequest)>,
}

/// The on-chip memory controller (§5.1): per-thread transaction buffers (16
/// read entries), write buffers (8 entries), closed page policy, one private
/// channel per thread.
///
/// Reads have priority; a thread's buffered writes issue once it has no
/// read pending. Responses surface through
/// [`MemoryController::pop_response`] after [`MemoryController::tick`].
#[derive(Debug)]
pub struct MemoryController {
    config: MemConfig,
    mode: ChannelMode,
    channels: Vec<DramChannel>,
    queues: Vec<ThreadQueues>,
    responses: VecDeque<MemResponse>,
    /// Tokens completed by channels, pending conversion to responses.
    scratch: Vec<u64>,
    /// Reused candidate list for shared-channel scheduling, so the
    /// per-tick scan allocates nothing in steady state.
    cand_scratch: Vec<(u64, MemRequest)>,
    /// (token -> (thread, line)) for in-flight reads.
    pending_reads: Vec<(u64, ThreadId, LineAddr)>,
    /// Per-thread shares and virtual clocks for [`ChannelMode::SharedFq`].
    fq: Option<VirtualClock>,
    /// Arrival sequence numbers for shared-channel FCFS ordering.
    next_seq: u64,
    /// No tick before this cycle can issue or complete a transaction
    /// (`u64::MAX` when nothing is buffered or in flight). Set by every
    /// tick that acts, lowered by [`MemoryController::enqueue`].
    wake: Cycle,
}

impl MemoryController {
    /// Creates a controller with one private channel per thread.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(config: MemConfig, threads: usize) -> MemoryController {
        MemoryController::with_mode(config, threads, ChannelMode::PerThread)
    }

    /// Creates a controller with the given channel topology.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_mode(config: MemConfig, threads: usize, mode: ChannelMode) -> MemoryController {
        assert!(threads > 0, "at least one thread required");
        let (channels, fq) = match &mode {
            ChannelMode::PerThread => {
                ((0..threads).map(|_| DramChannel::new(config)).collect::<Vec<_>>(), None)
            }
            ChannelMode::SharedFcfs => (vec![DramChannel::new(config)], None),
            ChannelMode::SharedFq { shares } => {
                let mut fq = VirtualClock::new(threads, shares);
                fq.add_service(config.timing.idle_read_latency());
                (vec![DramChannel::new(config)], Some(fq))
            }
        };
        MemoryController {
            channels,
            queues: (0..threads)
                .map(|_| ThreadQueues { reads: VecDeque::new(), writes: VecDeque::new() })
                .collect(),
            responses: VecDeque::new(),
            scratch: Vec::new(),
            cand_scratch: Vec::new(),
            pending_reads: Vec::new(),
            fq,
            next_seq: 0,
            wake: u64::MAX,
            config,
            mode,
        }
    }

    /// Whether `thread`'s buffer for `kind` has room.
    #[inline]
    pub fn can_accept(&self, thread: ThreadId, kind: AccessKind) -> bool {
        let q = &self.queues[thread.index()];
        match kind {
            AccessKind::Read => q.reads.len() < self.config.transaction_buffer,
            AccessKind::Write => q.writes.len() < self.config.write_buffer,
        }
    }

    /// Buffers a request. Returns `false` (dropping nothing — the caller
    /// must retry) if the thread's buffer is full.
    pub fn enqueue(&mut self, req: MemRequest, now: Cycle) -> bool {
        if !self.can_accept(req.thread, req.kind) {
            return false;
        }
        let q = &mut self.queues[req.thread.index()];
        if let Some(fq) = &mut self.fq {
            // Eq. 6: an idle thread's clock starts at `now`.
            fq.on_arrival(req.thread, q.reads.is_empty() && q.writes.is_empty(), now);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        match req.kind {
            AccessKind::Read => q.reads.push_back((seq, req)),
            AccessKind::Write => q.writes.push_back((seq, req)),
        }
        self.wake = self.wake.min(now);
        true
    }

    /// Advances the controller one processor cycle: schedules eligible
    /// transactions onto each channel and collects completed reads.
    ///
    /// Before the stored wake cycle no tick can act, so that check is
    /// inlined into the caller and only an acting tick pays for a call.
    #[inline]
    pub fn tick(&mut self, now: Cycle) {
        if now >= self.wake {
            self.tick_awake(now);
        }
    }

    /// The body of [`MemoryController::tick`] from the wake cycle on.
    #[inline(never)]
    fn tick_awake(&mut self, now: Cycle) {
        match self.mode {
            ChannelMode::PerThread => self.tick_private(now),
            ChannelMode::SharedFcfs | ChannelMode::SharedFq { .. } => self.tick_shared(now),
        }
        for c in 0..self.channels.len() {
            self.scratch.clear();
            self.channels[c].drain_completed(now, &mut self.scratch);
            for &token in &self.scratch {
                let idx = self
                    .pending_reads
                    .iter()
                    .position(|&(t0, _, _)| t0 == token)
                    .expect("completed read was pending");
                let (_, thread, line) = self.pending_reads.swap_remove(idx);
                self.responses.push_back(MemResponse { thread, line, token });
            }
        }
        // Leave all scratch buffers empty so controller state (and its
        // `Debug` rendering) never depends on how often we were ticked.
        self.scratch.clear();
        self.wake = self.next_wake();
    }

    /// The earliest cycle a tick can act, absent new requests: an
    /// in-flight transaction completing, or a buffered request becoming
    /// schedulable. `u64::MAX` when there is neither. Queued responses
    /// are not a term: the caller pops them, not a tick.
    fn next_wake(&self) -> Cycle {
        let mut wake = self.channels.iter().filter_map(DramChannel::next_completion).min();
        let mut consider = |c: Cycle| wake = Some(wake.map_or(c, |w| w.min(c)));
        match self.mode {
            ChannelMode::PerThread => {
                for t in 0..self.channels.len() {
                    if let Some((_, req)) = self.thread_candidate(t) {
                        consider(self.channels[t].bank_ready_at(req.line));
                    }
                }
            }
            ChannelMode::SharedFcfs | ChannelMode::SharedFq { .. } => {
                // Admission control re-opens once `now` catches up to the
                // bus reservation horizon; a candidate then issues when its
                // bank is also ready.
                let t = self.config.timing;
                let gate = self.channels[0].bus_free_at().saturating_sub(t.t_rcd + t.t_cl);
                for thr in 0..self.queues.len() {
                    if let Some((_, req)) = self.thread_candidate(thr) {
                        consider(self.channels[0].bank_ready_at(req.line).max(gate));
                    }
                }
            }
        }
        wake.unwrap_or(u64::MAX)
    }

    /// The request thread `t` would send next: its oldest read, else its
    /// oldest write.
    fn thread_candidate(&self, t: usize) -> Option<(u64, MemRequest)> {
        let q = &self.queues[t];
        q.reads.front().or(q.writes.front()).copied()
    }

    fn pop_candidate(&mut self, t: usize, kind: AccessKind) {
        let q = &mut self.queues[t];
        match kind {
            AccessKind::Read => q.reads.pop_front(),
            AccessKind::Write => q.writes.pop_front(),
        };
    }

    fn issue_on(&mut self, channel_idx: usize, req: MemRequest, now: Cycle) {
        self.pop_candidate(req.thread.index(), req.kind);
        self.channels[channel_idx].issue(req.line, req.kind, req.token, now);
        trace::emit(|| TraceEvent {
            at: now,
            data: EventData::DramIssue {
                channel: channel_idx as u16,
                thread: req.thread,
                line: req.line,
                kind: req.kind,
            },
        });
        if req.kind.is_read() {
            self.pending_reads.push((req.token, req.thread, req.line));
        }
    }

    fn tick_private(&mut self, now: Cycle) {
        for t in 0..self.channels.len() {
            if let Some((_, req)) = self.thread_candidate(t) {
                if self.channels[t].bank_available(req.line, now) {
                    self.issue_on(t, req, now);
                }
            }
        }
    }

    fn tick_shared(&mut self, now: Cycle) {
        // Admission control: keep at most one bus reservation ahead, so the
        // scheduler (not bus FIFO order) decides who goes next while the
        // data bus stays saturated.
        let t = self.config.timing;
        if self.channels[0].bus_free_at() > now + t.t_rcd + t.t_cl {
            return;
        }
        // One transaction per cycle onto the single shared channel. The
        // candidate list is a reused scratch buffer so steady-state ticks
        // allocate nothing.
        let mut candidates = std::mem::take(&mut self.cand_scratch);
        candidates.clear();
        for t in 0..self.queues.len() {
            if let Some((seq, req)) = self.thread_candidate(t) {
                if self.channels[0].bank_available(req.line, now) {
                    candidates.push((seq, req));
                }
            }
        }
        if candidates.is_empty() {
            self.cand_scratch = candidates;
            return;
        }
        let winner = match &mut self.fq {
            // Fair queuing: earliest virtual finish time among guaranteed
            // threads (Eq. 4, charged by Eq. 5), else the first candidate —
            // only zero-share threads are left, served from excess.
            Some(fq) => {
                let estimate = self.config.timing.idle_read_latency();
                let mut best: Option<(u64, usize)> = None;
                for (i, (_, req)) in candidates.iter().enumerate() {
                    if let Some(finish) = fq.finish(req.thread, estimate) {
                        if best.is_none_or(|(f, _)| finish < f) {
                            best = Some((finish, i));
                        }
                    }
                }
                best.map_or(0, |(finish, i)| {
                    fq.grant(candidates[i].1.thread, finish);
                    i
                })
            }
            // FCFS: oldest arrival across all threads.
            None => candidates
                .iter()
                .enumerate()
                .min_by_key(|(_, (seq, _))| *seq)
                .map(|(i, _)| i)
                .expect("candidates nonempty"),
        };
        let (_, req) = candidates[winner];
        self.issue_on(0, req, now);
        // Observability: the losing candidates were deferred this slot; a
        // fair-queued channel also reports their virtual start times.
        if trace::is_enabled() {
            for (i, (_, loser)) in candidates.iter().enumerate() {
                if i == winner {
                    continue;
                }
                let virtual_start = self.fq.as_ref().map(|fq| fq.start(loser.thread));
                trace::emit(|| TraceEvent {
                    at: now,
                    data: EventData::Defer {
                        resource: ResourceId::dram_channel(0),
                        thread: loser.thread,
                        virtual_start,
                    },
                });
            }
        }
        candidates.clear();
        self.cand_scratch = candidates;
    }

    /// The earliest cycle at which this controller can change observable
    /// state absent new [`MemoryController::enqueue`] calls: a queued
    /// response waiting to pop, an in-flight transaction completing, or a
    /// buffered request becoming schedulable. `None` when fully idle. The
    /// last two terms are the wake cycle the last acting tick stored.
    ///
    /// Conservative by design: the returned cycle is never *later* than a
    /// real state change (see `DESIGN.md` §10) — an early wake-up is a
    /// harmless no-op tick.
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        let horizon = now + 1;
        if !self.responses.is_empty() {
            return Some(horizon);
        }
        (self.wake != u64::MAX).then(|| self.wake.max(horizon))
    }

    /// Pops the next completed read, if any.
    #[inline]
    pub fn pop_response(&mut self) -> Option<MemResponse> {
        self.responses.pop_front()
    }

    /// Whether any work (buffered, in flight, or unreturned) remains.
    pub fn is_idle(&self) -> bool {
        self.responses.is_empty()
            && self.pending_reads.is_empty()
            && self.queues.iter().all(|q| q.reads.is_empty() && q.writes.is_empty())
            && self.channels.iter().all(|c| c.in_flight_len() == 0)
    }

    /// Per-thread channel statistics (reads, writes, mean read latency).
    /// In shared-channel modes the single channel's aggregate statistics
    /// are returned for every thread.
    pub fn channel_stats(&self, thread: ThreadId) -> (u64, u64, f64) {
        let ch = &self.channels[thread.index().min(self.channels.len() - 1)];
        (ch.reads(), ch.writes(), ch.mean_read_latency())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(thread: u8, line: u64, token: u64) -> MemRequest {
        MemRequest { thread: ThreadId(thread), line: LineAddr(line), kind: AccessKind::Read, token }
    }

    fn write(thread: u8, line: u64, token: u64) -> MemRequest {
        MemRequest {
            thread: ThreadId(thread),
            line: LineAddr(line),
            kind: AccessKind::Write,
            token,
        }
    }

    fn run(mc: &mut MemoryController, from: Cycle, to: Cycle, out: &mut Vec<MemResponse>) {
        for now in from..to {
            mc.tick(now);
            while let Some(r) = mc.pop_response() {
                out.push(r);
            }
        }
    }

    #[test]
    fn read_completes_with_realistic_latency() {
        let mut mc = MemoryController::new(MemConfig::ddr2_800(), 1);
        assert!(mc.enqueue(read(0, 0, 7), 0));
        let mut out = Vec::new();
        run(&mut mc, 0, 200, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].token, 7);
        let (reads, _, lat) = mc.channel_stats(ThreadId(0));
        assert_eq!(reads, 1);
        assert!((60.0..120.0).contains(&lat), "idle read latency {lat} out of range");
    }

    #[test]
    fn buffers_enforce_capacity() {
        let mut mc = MemoryController::new(MemConfig::ddr2_800(), 1);
        // tick is never called, so nothing drains.
        for i in 0..16 {
            assert!(mc.enqueue(read(0, i, i), 0));
        }
        assert!(!mc.can_accept(ThreadId(0), AccessKind::Read));
        assert!(!mc.enqueue(read(0, 99, 99), 0));
        for i in 0..8 {
            assert!(mc.enqueue(write(0, 100 + i, 0), 0));
        }
        assert!(!mc.enqueue(write(0, 200, 0), 0));
    }

    #[test]
    fn private_channels_isolate_threads() {
        // Thread 1 hammering its channel must not slow thread 0's read.
        let mut solo = MemoryController::new(MemConfig::ddr2_800(), 2);
        solo.enqueue(read(0, 0, 1), 0);
        let mut out = Vec::new();
        run(&mut solo, 0, 400, &mut out);
        let solo_done = out.len();
        assert_eq!(solo_done, 1);
        let (_, _, solo_lat) = solo.channel_stats(ThreadId(0));

        let mut shared = MemoryController::new(MemConfig::ddr2_800(), 2);
        for i in 0..16 {
            shared.enqueue(read(1, i * 7, 100 + i), 0);
        }
        shared.enqueue(read(0, 0, 1), 0);
        let mut out = Vec::new();
        run(&mut shared, 0, 400, &mut out);
        assert!(out.iter().any(|r| r.token == 1));
        let (_, _, busy_lat) = shared.channel_stats(ThreadId(0));
        assert_eq!(solo_lat, busy_lat, "private channel latency unaffected by other thread");
    }

    #[test]
    fn writes_drain_when_no_reads_pending() {
        let mut mc = MemoryController::new(MemConfig::ddr2_800(), 1);
        mc.enqueue(write(0, 0, 0), 0);
        let mut out = Vec::new();
        run(&mut mc, 0, 400, &mut out);
        assert!(out.is_empty(), "writes produce no responses");
        assert!(mc.is_idle());
        let (_, writes, _) = mc.channel_stats(ThreadId(0));
        assert_eq!(writes, 1);
    }

    #[test]
    fn reads_have_priority_over_writes() {
        let mut mc = MemoryController::new(MemConfig::ddr2_800(), 1);
        // Below-threshold writes wait while reads flow.
        mc.enqueue(write(0, 50, 0), 0);
        mc.enqueue(read(0, 1, 1), 0);
        mc.tick(0);
        let (reads, writes, _) = mc.channel_stats(ThreadId(0));
        assert_eq!((reads, writes), (1, 0), "read issued first");
    }

    #[test]
    fn bank_parallelism_beats_serialization() {
        // 16 reads to 16 different banks vs 16 reads to one bank.
        let mut parallel = MemoryController::new(MemConfig::ddr2_800(), 1);
        let banks = MemConfig::ddr2_800().total_banks() as u64;
        for i in 0..16 {
            parallel.enqueue(read(0, i, i), 0);
        }
        let mut serial = MemoryController::new(MemConfig::ddr2_800(), 1);
        for i in 0..16 {
            serial.enqueue(read(0, i * banks, i), 0);
        }
        let mut done_parallel = 0;
        let mut done_serial = 0;
        let mut out = Vec::new();
        for now in 0..1200 {
            parallel.tick(now);
            serial.tick(now);
            while parallel.pop_response().is_some() {
                done_parallel += 1;
            }
            while serial.pop_response().is_some() {
                done_serial += 1;
            }
            let _ = now;
        }
        run(&mut parallel, 1200, 1201, &mut out);
        assert!(
            done_parallel > done_serial,
            "bank-level parallelism must help ({done_parallel} vs {done_serial})"
        );
    }

    #[test]
    fn shared_fcfs_orders_across_threads() {
        let mut mc = MemoryController::with_mode(MemConfig::ddr2_800(), 2, ChannelMode::SharedFcfs);
        // Thread 1's request arrives first; different banks so both are
        // eligible immediately.
        mc.enqueue(read(1, 1, 10), 0);
        mc.enqueue(read(0, 2, 20), 0);
        let mut out = Vec::new();
        run(&mut mc, 0, 400, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].token, 10, "oldest arrival first on the shared channel");
    }

    #[test]
    fn shared_fq_divides_channel_bandwidth() {
        use vpc_sim::Share;
        // Thread 0 gets 3/4 of the channel, thread 1 gets 1/4; both keep
        // 16 reads queued. Grant counts should track the shares.
        let shares = vec![Share::new(3, 4).unwrap(), Share::new(1, 4).unwrap()];
        let mut mc =
            MemoryController::with_mode(MemConfig::ddr2_800(), 2, ChannelMode::SharedFq { shares });
        let mut served = [0u64; 2];
        let mut tokens = 100u64;
        for t in 0..2u8 {
            for i in 0..8 {
                tokens += 1;
                mc.enqueue(read(t, i * 2 + u64::from(t), tokens), 0);
            }
        }
        for now in 0..20_000u64 {
            mc.tick(now);
            while let Some(r) = mc.pop_response() {
                served[r.thread.index()] += 1;
                // Keep the queues backlogged.
                tokens += 1;
                mc.enqueue(read(r.thread.0, tokens % 64, tokens), now);
            }
        }
        let ratio = served[0] as f64 / served[1] as f64;
        assert!(
            (2.2..4.0).contains(&ratio),
            "3:1 shares should give ~3:1 service, got {ratio} ({served:?})"
        );
    }

    #[test]
    fn shared_fq_serves_zero_share_thread_from_excess() {
        use vpc_sim::Share;
        // Thread 0 holds no share and arrives first; the guaranteed thread
        // 1 issues ahead of it, and thread 0 is still served.
        let shares = vec![Share::ZERO, Share::FULL];
        let mut mc =
            MemoryController::with_mode(MemConfig::ddr2_800(), 2, ChannelMode::SharedFq { shares });
        mc.enqueue(read(0, 1, 10), 0);
        mc.enqueue(read(1, 2, 20), 0);
        let mut out = Vec::new();
        run(&mut mc, 0, 400, &mut out);
        let tokens: Vec<u64> = out.iter().map(|r| r.token).collect();
        assert_eq!(tokens, [20, 10], "guaranteed thread first, zero share from excess");
    }

    /// The inlined no-op check of `tick` changes nothing: every tick
    /// before the stored wake cycle leaves the controller as it was.
    #[test]
    fn ticks_before_wake_change_nothing() {
        let mut mc = MemoryController::new(MemConfig::ddr2_800(), 1);
        mc.enqueue(read(0, 0, 1), 0);
        mc.tick(0);
        let wake = mc.next_activity(0).expect("the read is in flight");
        assert!(wake > 1, "an issued read takes more than a cycle");
        let before = format!("{mc:?}");
        for now in 1..wake {
            mc.tick(now);
            assert_eq!(format!("{mc:?}"), before, "tick at {now} before wake {wake}");
        }
        mc.tick(wake);
        assert_ne!(format!("{mc:?}"), before, "the read completes at the wake cycle");
    }

    #[test]
    fn is_idle_tracks_outstanding_work() {
        let mut mc = MemoryController::new(MemConfig::ddr2_800(), 1);
        assert!(mc.is_idle());
        mc.enqueue(read(0, 0, 1), 0);
        assert!(!mc.is_idle());
        let mut out = Vec::new();
        run(&mut mc, 0, 300, &mut out);
        assert!(mc.is_idle());
    }
}

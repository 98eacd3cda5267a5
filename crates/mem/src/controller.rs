//! The on-chip memory controller: per-thread buffers and channels.

use std::collections::VecDeque;

use vpc_sim::trace::{self, EventData, TraceEvent};
use vpc_sim::{AccessKind, Cycle, LineAddr, ThreadId};

use crate::channel::DramChannel;
use crate::timing::MemConfig;

/// How threads map onto SDRAM channels: one private channel per thread,
/// the only topology the paper evaluates (§5.1).
///
/// A one-variant vestige kept for the frozen benchmark's call sites;
/// benchmark revision 2 removes it.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ChannelMode {
    /// One private channel per thread (Table 1's configuration).
    #[default]
    PerThread,
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
    /// Opaque name of the requester, carried back with a completed read.
    pub token: u64,
}

#[derive(Debug)]
struct ThreadQueues {
    reads: VecDeque<MemRequest>,
    writes: VecDeque<MemRequest>,
}

/// The on-chip memory controller (§5.1): per-thread transaction buffers (16
/// read entries), write buffers (8 entries), closed page policy, one private
/// channel per thread.
///
/// Reads have priority; a thread's buffered writes issue once it has no
/// read pending. A completed read surfaces as its own [`MemRequest`]
/// through [`MemoryController::pop_response`] after
/// [`MemoryController::tick`].
#[derive(Debug)]
pub struct MemoryController {
    config: MemConfig,
    channels: Vec<DramChannel>,
    queues: Vec<ThreadQueues>,
    /// Completed reads, in the order the channels drained them.
    responses: VecDeque<MemRequest>,
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
        assert!(threads > 0, "at least one thread required");
        MemoryController {
            channels: (0..threads).map(|_| DramChannel::new(config)).collect(),
            queues: (0..threads)
                .map(|_| ThreadQueues { reads: VecDeque::new(), writes: VecDeque::new() })
                .collect(),
            responses: VecDeque::new(),
            wake: u64::MAX,
            config,
        }
    }

    /// [`MemoryController::new`] under its former name; the frozen
    /// benchmark still calls it. Benchmark revision 2 removes it.
    pub fn with_mode(config: MemConfig, threads: usize, _mode: ChannelMode) -> MemoryController {
        MemoryController::new(config, threads)
    }

    /// Whether `thread`'s buffer for `kind` has room.
    #[inline]
    fn can_accept(&self, thread: ThreadId, kind: AccessKind) -> bool {
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
        match req.kind {
            AccessKind::Read => q.reads.push_back(req),
            AccessKind::Write => q.writes.push_back(req),
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

    /// The body of [`MemoryController::tick`] from the wake cycle on: each
    /// thread's next request issues on its private channel once its bank
    /// is free, then completed reads become responses.
    #[inline(never)]
    fn tick_awake(&mut self, now: Cycle) {
        for t in 0..self.channels.len() {
            let Some(req) = self.thread_candidate(t) else { continue };
            if !self.channels[t].bank_available(req.line, now) {
                continue;
            }
            let q = &mut self.queues[t];
            match req.kind {
                AccessKind::Read => q.reads.pop_front(),
                AccessKind::Write => q.writes.pop_front(),
            };
            self.channels[t].issue(req, now);
            trace::emit(|| TraceEvent {
                at: now,
                data: EventData::DramIssue {
                    channel: t as u16,
                    thread: req.thread,
                    line: req.line,
                    kind: req.kind,
                },
            });
        }
        for channel in &mut self.channels {
            channel.drain_completed(now, &mut self.responses);
        }
        self.wake = self.next_wake();
    }

    /// The earliest cycle a tick can act, absent new requests: an
    /// in-flight transaction completing, or a buffered request's bank
    /// becoming ready. `u64::MAX` when there is neither. Queued responses
    /// are not a term: the caller pops them, not a tick.
    fn next_wake(&self) -> Cycle {
        let completions = self.channels.iter().filter_map(DramChannel::next_completion);
        let heads = (0..self.channels.len()).filter_map(|t| {
            self.thread_candidate(t).map(|req| self.channels[t].bank_ready_at(req.line))
        });
        completions.chain(heads).min().unwrap_or(u64::MAX)
    }

    /// The request thread `t` would send next: its oldest read, else its
    /// oldest write.
    fn thread_candidate(&self, t: usize) -> Option<MemRequest> {
        let q = &self.queues[t];
        q.reads.front().or(q.writes.front()).copied()
    }

    /// Pops the next completed read, if any: the request that asked for it.
    #[inline]
    pub fn pop_response(&mut self) -> Option<MemRequest> {
        self.responses.pop_front()
    }

    /// Whether any work (buffered, in flight, or unreturned) remains.
    pub fn is_idle(&self) -> bool {
        self.responses.is_empty()
            && self.queues.iter().all(|q| q.reads.is_empty() && q.writes.is_empty())
            && self.channels.iter().all(|c| c.in_flight_len() == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpc_sim::check::{self, gen, Config};
    use vpc_sim::{ensure, ensure_eq};

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

    /// Ticks `mc` over `from..to`, appending each response with the cycle
    /// it was popped.
    fn run(mc: &mut MemoryController, from: Cycle, to: Cycle, out: &mut Vec<(Cycle, MemRequest)>) {
        for now in from..to {
            mc.tick(now);
            while let Some(r) = mc.pop_response() {
                out.push((now, r));
            }
        }
    }

    /// The kinds of the DRAM issues traced while `f` runs, in issue order.
    fn issued_kinds(f: impl FnOnce()) -> Vec<AccessKind> {
        trace::install(1 << 10);
        f();
        let log = trace::take().expect("recorder installed");
        let issues = log.events().iter().filter_map(|e| match e.data {
            EventData::DramIssue { kind, .. } => Some(kind),
            _ => None,
        });
        issues.collect()
    }

    #[test]
    fn read_completes_with_realistic_latency() {
        let cfg = MemConfig::ddr2_800();
        let mut mc = MemoryController::new(cfg, 1);
        assert!(mc.enqueue(read(0, 0, 7), 0));
        let mut out = Vec::new();
        run(&mut mc, 0, 200, &mut out);
        // An idle read: controller overhead, activate, CAS, one burst.
        let t = cfg.timing;
        let latency = cfg.controller_overhead + t.t_rcd + t.t_cl + t.burst;
        assert_eq!(latency, 80, "DDR2-800 idle read latency");
        assert_eq!(out, [(latency, read(0, 0, 7))]);
    }

    #[test]
    fn buffers_enforce_capacity() {
        let mut mc = MemoryController::new(MemConfig::ddr2_800(), 1);
        // tick is never called, so nothing drains.
        for i in 0..16 {
            assert!(mc.enqueue(read(0, i, i), 0));
        }
        assert!(!mc.enqueue(read(0, 99, 99), 0));
        for i in 0..8 {
            assert!(mc.enqueue(write(0, 100 + i, 0), 0));
        }
        assert!(!mc.enqueue(write(0, 200, 0), 0));
    }

    #[test]
    fn private_channels_isolate_threads() {
        // Thread 1 hammering its channel must not slow thread 0's read.
        let thread0 = |out: &[(Cycle, MemRequest)]| {
            out.iter().filter(|(_, r)| r.thread == ThreadId(0)).copied().collect::<Vec<_>>()
        };
        let mut solo = MemoryController::new(MemConfig::ddr2_800(), 2);
        solo.enqueue(read(0, 0, 1), 0);
        let mut out = Vec::new();
        run(&mut solo, 0, 400, &mut out);
        let solo_out = thread0(&out);
        assert_eq!(solo_out.len(), 1);

        let mut shared = MemoryController::new(MemConfig::ddr2_800(), 2);
        for i in 0..16 {
            shared.enqueue(read(1, i * 7, 100 + i), 0);
        }
        shared.enqueue(read(0, 0, 1), 0);
        let mut out = Vec::new();
        run(&mut shared, 0, 400, &mut out);
        assert!(out.iter().any(|(_, r)| r.thread == ThreadId(1)), "thread 1 was served too");
        assert_eq!(thread0(&out), solo_out, "private channel timing unaffected by other thread");
    }

    #[test]
    fn writes_drain_when_no_reads_pending() {
        let mut mc = MemoryController::new(MemConfig::ddr2_800(), 1);
        mc.enqueue(write(0, 0, 0), 0);
        let mut out = Vec::new();
        let issued = issued_kinds(|| run(&mut mc, 0, 400, &mut out));
        assert_eq!(issued, [AccessKind::Write], "the write issued once");
        assert!(out.is_empty(), "writes produce no responses");
        assert!(mc.is_idle());
    }

    #[test]
    fn reads_have_priority_over_writes() {
        let mut mc = MemoryController::new(MemConfig::ddr2_800(), 1);
        // Below-threshold writes wait while reads flow.
        mc.enqueue(write(0, 50, 0), 0);
        mc.enqueue(read(0, 1, 1), 0);
        assert_eq!(issued_kinds(|| mc.tick(0)), [AccessKind::Read], "read issued first");
        let issued = issued_kinds(|| run(&mut mc, 1, 400, &mut Vec::new()));
        assert_eq!(issued, [AccessKind::Write], "the write issues once no read is pending");
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

    /// The inlined no-op check of `tick` changes nothing: every tick
    /// before the stored wake cycle leaves the controller as it was.
    #[test]
    fn ticks_before_wake_change_nothing() {
        let mut mc = MemoryController::new(MemConfig::ddr2_800(), 1);
        mc.enqueue(read(0, 0, 1), 0);
        mc.tick(0);
        let wake = mc.wake;
        assert!((2..u64::MAX).contains(&wake), "the read is in flight for more than a cycle");
        let before = format!("{mc:?}");
        for now in 1..wake {
            mc.tick(now);
            assert_eq!(format!("{mc:?}"), before, "tick at {now} before wake {wake}");
        }
        mc.tick(wake);
        assert_ne!(format!("{mc:?}"), before, "the read completes at the wake cycle");
    }

    /// The wake guard skips only ticks that would act on nothing: over a
    /// random arrival schedule, a controller ticked through `tick` gives
    /// the same responses at the same cycles, and ends in the same state,
    /// as one whose `tick_awake` runs every cycle.
    #[test]
    fn guarded_ticks_match_ticking_awake_every_cycle() {
        check::forall("guarded_ticks_match_ticking_awake_every_cycle", Config::cases(24), |rng| {
            let threads = rng.below(3) as usize + 2;
            let mut arrivals = Vec::new();
            let (mut at, mut token) = (0, 0);
            while at < 4_000 {
                at += rng.below(40) + 1;
                token += 1;
                let req = MemRequest {
                    thread: gen::thread_id(rng, threads),
                    line: gen::line_addr(rng, 64),
                    kind: gen::access_kind(rng),
                    token,
                };
                arrivals.push((at, req));
            }
            let drive = |tick: fn(&mut MemoryController, Cycle)| {
                let mut mc = MemoryController::new(MemConfig::ddr2_800(), threads);
                let mut log = Vec::new();
                let mut next = arrivals.iter().peekable();
                // A long tail after the last arrival, so both drain.
                for now in 0..12_000 {
                    while let Some((_, req)) = next.next_if(|&&(at, _)| at == now) {
                        mc.enqueue(*req, now);
                    }
                    tick(&mut mc, now);
                    while let Some(resp) = mc.pop_response() {
                        log.push((now, resp));
                    }
                }
                (log, mc)
            };
            let (guarded_log, guarded) = drive(MemoryController::tick);
            let (awake_log, awake) = drive(MemoryController::tick_awake);
            ensure_eq!(guarded_log, awake_log, "response streams diverged");
            ensure!(guarded.is_idle(), "the controllers drained");
            ensure_eq!(format!("{guarded:?}"), format!("{awake:?}"), "final states diverged");
            Ok(())
        });
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

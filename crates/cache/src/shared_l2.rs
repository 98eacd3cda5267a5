//! The banked shared L2 cache with its memory-side plumbing.

use vpc_mem::{ChannelMode, MemConfig, MemoryController};
use vpc_sim::{CacheRequest, CacheResponse, Cycle, LineAddr, ThreadId};

use crate::bank::{BankStats, L2Bank};
use crate::config::L2Config;
use crate::sgb::SgbStats;

/// Aggregate utilization of the three shared resources over an elapsed
/// window — the series plotted in Figures 5, 6 and 8.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct L2Utilization {
    /// Tag array utilization (averaged across banks).
    pub tag_array: f64,
    /// Data array utilization (averaged across banks).
    pub data_array: f64,
    /// Data bus utilization (averaged across banks).
    pub data_bus: f64,
}

/// The shared L2: address-interleaved banks, the crossbar (modeled as
/// per-port fixed latency plus per-port input credits — each processor has
/// private read/write ports into each bank, §3.1), and the memory
/// controller behind it.
#[derive(Debug)]
pub struct SharedL2 {
    cfg: L2Config,
    banks: Vec<L2Bank>,
    mem: MemoryController,
    /// No bank's oldest queued response matures before this cycle
    /// (`u64::MAX` when none is queued): lowered by every bank tick,
    /// recomputed by a [`SharedL2::pop_response`] that finds nothing.
    next_response: Cycle,
}

impl SharedL2 {
    /// Builds the cache and its memory system with per-thread private
    /// channels (Table 1's configuration).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`L2Config::check_geometry`] or `mem_cfg` has
    /// a DRAM bank count that is not a nonzero power of two.
    pub fn new(cfg: L2Config, mem_cfg: MemConfig) -> SharedL2 {
        cfg.check_geometry();
        let banks = (0..cfg.banks).map(|b| L2Bank::new(&cfg, b)).collect();
        let mem = MemoryController::new(mem_cfg, cfg.threads);
        SharedL2 { banks, mem, cfg, next_response: u64::MAX }
    }

    /// [`SharedL2::new`] under its former name; the frozen benchmark still
    /// calls it. Benchmark revision 2 removes it.
    pub fn with_channel_mode(cfg: L2Config, mem_cfg: MemConfig, _mode: ChannelMode) -> SharedL2 {
        SharedL2::new(cfg, mem_cfg)
    }

    /// The cache configuration.
    pub fn config(&self) -> &L2Config {
        &self.cfg
    }

    /// Whether `thread` can send a request for `line` right now (crossbar
    /// port credit for the destination bank).
    #[inline]
    pub fn can_accept(&self, thread: ThreadId, line: LineAddr) -> bool {
        self.banks[self.cfg.bank_of(line)].can_accept(thread)
    }

    /// Routes a request to its bank.
    ///
    /// The caller must respect [`SharedL2::can_accept`]; the input queue is
    /// a hardware structure and over-filling it panics.
    #[inline]
    pub fn submit(&mut self, req: CacheRequest, now: Cycle) {
        debug_assert!(self.can_accept(req.thread, req.line), "input port over-filled");
        let bank = self.cfg.bank_of(req.line);
        self.banks[bank].submit(req, now);
    }

    /// Advances the cache and memory system one processor cycle.
    ///
    /// The banks run at half core frequency ([`L2Bank::tick`] acts only on
    /// even cycles), so they are ticked, and can queue a response, only
    /// on even cycles; a bank's tick returns at once before its wake
    /// cycle. Memory requests forward every cycle: the controller can
    /// make room on any cycle. This tick itself has no gate: one on the
    /// minimum of the bank and controller wakes measured no gain
    /// (DESIGN.md §10, "A quiet bank is not ticked").
    pub fn tick(&mut self, now: Cycle) {
        let bank_cycle = now.is_multiple_of(2);
        for bank in &mut self.banks {
            if bank_cycle {
                bank.tick(now);
                self.next_response = self.next_response.min(bank.next_response_at());
            }
            // Forward memory requests while the controller has room.
            while let Some(&req) = bank.peek_mem_request() {
                if !self.mem.enqueue(req, now) {
                    break;
                }
                bank.pop_mem_request();
            }
        }
        self.mem.tick(now);
        // A response is a fetch, and the fetched line names its bank.
        while let Some(resp) = self.mem.pop_response() {
            self.banks[self.cfg.bank_of(resp.line)].on_mem_response(resp.token, now);
        }
    }

    /// Always the next cycle: the run loop ticks every cycle. A vestige
    /// kept for the frozen benchmark's call sites; benchmark revision 2
    /// removes it.
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        Some(now + 1)
    }

    /// Pops the next read response whose critical word has arrived.
    ///
    /// Polled every cycle and usually empty-handed, so the response gate
    /// is inlined into the caller.
    #[inline]
    pub fn pop_response(&mut self, now: Cycle) -> Option<CacheResponse> {
        if now < self.next_response {
            return None;
        }
        self.pop_matured(now)
    }

    /// The body of [`SharedL2::pop_response`] once the gate has opened.
    #[inline(never)]
    fn pop_matured(&mut self, now: Cycle) -> Option<CacheResponse> {
        for bank in &mut self.banks {
            if let Some(resp) = bank.pop_response(now) {
                return Some(resp);
            }
        }
        self.next_response =
            self.banks.iter().map(L2Bank::next_response_at).min().unwrap_or(u64::MAX);
        None
    }

    /// Whether no request is anywhere in the cache or memory system.
    pub fn is_idle(&self) -> bool {
        self.banks.iter().all(L2Bank::is_idle) && self.mem.is_idle()
    }

    /// Raw busy-cycle totals for (tag array, data array, data bus), summed
    /// across banks — the primitive measurement windows are built from.
    pub fn busy_cycles(&self) -> (u64, u64, u64) {
        let sum = |r: usize| self.banks.iter().map(|bank| bank.busy_cycles()[r]).sum();
        (sum(0), sum(1), sum(2))
    }

    /// Sums the per-bank transaction counters.
    pub fn stats(&self) -> BankStats {
        let mut total = BankStats::default();
        for bank in &self.banks {
            let s = bank.stats();
            total.read_hits.add(s.read_hits.get());
            total.read_misses.add(s.read_misses.get());
            total.write_hits.add(s.write_hits.get());
            total.write_misses.add(s.write_misses.get());
            total.castouts.add(s.castouts.get());
        }
        total
    }

    /// Sums `thread`'s store-gathering statistics across banks.
    pub fn port_stats(&self, thread: ThreadId) -> SgbStats {
        let mut total = SgbStats::default();
        for bank in &self.banks {
            let s = bank.port_stats(thread);
            total.stores_in.add(s.stores_in.get());
            total.stores_gathered.add(s.stores_gathered.get());
            total.writes_out.add(s.writes_out.get());
            total.loads_out.add(s.loads_out.get());
        }
        total
    }

    /// Data-array busy cycles attributable to `thread`, summed over banks.
    pub fn thread_data_busy(&self, thread: ThreadId) -> u64 {
        self.banks.iter().map(|b| b.thread_data_busy(thread)).sum()
    }

    /// `thread`'s read-latency histogram merged across banks (controller
    /// intake to critical word; hits and misses).
    pub fn read_latency(&self, thread: ThreadId) -> vpc_sim::Histogram {
        let mut total = vpc_sim::Histogram::new();
        for bank in &self.banks {
            total.merge(bank.read_latency(thread));
        }
        total
    }

    /// Empties every bank's read-latency histograms
    /// ([`L2Bank::reset_read_latency`]).
    pub fn reset_read_latency(&mut self) {
        self.banks.iter_mut().for_each(L2Bank::reset_read_latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CapacityPolicy;
    use vpc_arbiters::ArbiterPolicy;
    use vpc_sim::check::{self, gen, Config};
    use vpc_sim::{ensure_eq, AccessKind};

    fn small_cfg(threads: usize, arbiter: ArbiterPolicy) -> L2Config {
        let mut cfg = L2Config::table1(threads, arbiter);
        cfg.total_sets = 64; // keep tests light
        cfg
    }

    fn l2(threads: usize) -> SharedL2 {
        SharedL2::new(small_cfg(threads, ArbiterPolicy::Fcfs), MemConfig::ddr2_800())
    }

    fn read(thread: u8, line: u64, token: u64) -> CacheRequest {
        CacheRequest {
            thread: ThreadId(thread),
            line: LineAddr(line),
            kind: AccessKind::Read,
            token,
        }
    }

    fn write(thread: u8, line: u64, token: u64) -> CacheRequest {
        CacheRequest {
            thread: ThreadId(thread),
            line: LineAddr(line),
            kind: AccessKind::Write,
            token,
        }
    }

    fn run_until_response(
        l2: &mut SharedL2,
        start: Cycle,
        deadline: Cycle,
    ) -> Option<(Cycle, CacheResponse)> {
        for now in start..deadline {
            l2.tick(now);
            if let Some(resp) = l2.pop_response(now) {
                return Some((now, resp));
            }
        }
        None
    }

    fn drain(l2: &mut SharedL2, start: Cycle, cycles: Cycle) -> Cycle {
        let mut now = start;
        while now < start + cycles {
            l2.tick(now);
            let _ = l2.pop_response(now);
            now += 1;
        }
        now
    }

    /// The response gate hides no matured response: on random traffic,
    /// popped every k cycles, `pop_response` returns a response exactly
    /// when polling every bank finds one, and from the first such bank.
    #[test]
    fn response_gate_matches_polling_every_bank() {
        check::forall("response_gate_matches_polling_every_bank", Config::cases(24), |rng| {
            let threads = 2;
            let mut cfg = small_cfg(threads, ArbiterPolicy::vpc_equal(threads));
            cfg.banks = 1 << rng.below(3);
            let mut l2 = SharedL2::new(cfg, MemConfig::ddr2_800());
            let pop_every = 1 + rng.below(8);
            let mut token = 0;
            for now in 0..3_000u64 {
                if rng.chance(0.3) {
                    let thread = gen::thread_id(rng, threads);
                    let line = gen::line_addr(rng, 256);
                    if l2.can_accept(thread, line) {
                        token += 1;
                        let kind = gen::access_kind(rng);
                        l2.submit(CacheRequest { thread, line, kind, token }, now);
                    }
                }
                l2.tick(now);
                if now % pop_every != 0 {
                    continue;
                }
                loop {
                    let polled = l2.banks.iter().position(|b| b.next_response_at() <= now);
                    let popped = l2.pop_response(now);
                    ensure_eq!(popped.map(|r| l2.cfg.bank_of(r.line)), polled, "bank at {now}");
                    if popped.is_none() {
                        break;
                    }
                }
            }
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "L2Config::banks must be a nonzero power of two, got 3")]
    fn three_banks_are_rejected_at_build() {
        let mut cfg = small_cfg(1, ArbiterPolicy::Fcfs);
        cfg.banks = 3;
        cfg.total_sets = 3 * 64;
        let _ = SharedL2::new(cfg, MemConfig::ddr2_800());
    }

    #[test]
    fn read_miss_then_hit_latency() {
        let mut l2 = l2(1);
        l2.submit(read(0, 8, 1), 0);
        let (miss_done, resp) = run_until_response(&mut l2, 0, 2000).expect("miss completes");
        assert_eq!(resp.token, 1);
        assert!(miss_done > 50, "miss must include memory latency, got {miss_done}");
        let now = drain(&mut l2, miss_done + 1, 200);
        assert!(l2.is_idle());

        // Same line again: a hit, ~16 cycles to the critical word.
        l2.submit(read(0, 8, 2), now);
        let (hit_done, resp) = run_until_response(&mut l2, now, now + 200).expect("hit completes");
        assert_eq!(resp.token, 2);
        let latency = hit_done - now;
        assert!((14..=22).contains(&latency), "L2 hit latency {latency} should be ~16 cycles");
        let stats = l2.stats();
        assert_eq!(stats.read_misses.get(), 1);
        assert_eq!(stats.read_hits.get(), 1);
    }

    #[test]
    fn writes_complete_silently_and_dirty_lines_cast_out() {
        let mut cfg = small_cfg(1, ArbiterPolicy::Fcfs);
        cfg.sgb_idle_drain = 50;
        // A tiny cache so evictions happen quickly: 2 sets per bank, 2 ways.
        cfg.total_sets = 4;
        cfg.ways = 2;
        cfg.capacity = CapacityPolicy::Lru;
        let mut l2 = SharedL2::new(cfg, MemConfig::ddr2_800());
        // Dirty a line in set 0 of bank 0 (lines are bank-interleaved; lines
        // 0, 8, 16, 24 all map to bank 0 set 0..).
        l2.submit(write(0, 0, 1), 0);
        let mut now = drain(&mut l2, 0, 3000);
        assert!(l2.is_idle(), "write-allocate completed");
        assert_eq!(l2.stats().write_misses.get(), 1);
        // Evict it by filling the set with reads (same set: stride = banks *
        // sets_per_bank = 2 * 2 = 4 lines).
        for (i, line) in [4u64, 8, 12].iter().enumerate() {
            l2.submit(read(0, *line, 10 + i as u64), now);
            now = drain(&mut l2, now, 3000);
        }
        assert!(l2.is_idle());
        assert!(l2.stats().castouts.get() >= 1, "dirty victim written back");
    }

    /// Pins the miss pipeline cycle for cycle: a write miss that evicts a
    /// dirty line (lookup, castout read, victim tag update, DRAM write and
    /// fetch, fill tag and data), then a read miss into an empty set (the
    /// same without the castout, plus the fill's bus return).
    #[test]
    fn miss_pipeline_is_pinned_cycle_for_cycle() {
        use vpc_sim::trace::{self, EventData};

        // The tiny cache above, with Table 1's idle drain (stores retire
        // 2000 cycles after the SGB goes quiet).
        let mut cfg = small_cfg(1, ArbiterPolicy::Fcfs);
        cfg.total_sets = 4;
        cfg.ways = 2;
        cfg.capacity = CapacityPolicy::Lru;
        let mut l2 = SharedL2::new(cfg, MemConfig::ddr2_800());
        // Fill bank 0 set 0 (lines 0, 4, 8, ...) with two dirty lines.
        l2.submit(write(0, 0, 1), 0);
        let mut now = drain(&mut l2, 0, 3000);
        l2.submit(write(0, 4, 2), now);
        now = drain(&mut l2, now, 3000);
        assert!(l2.is_idle());

        trace::install(1 << 10);
        // Write miss evicting dirty line 0, then a read miss to bank 0 set 1.
        l2.submit(write(0, 8, 3), now);
        now = drain(&mut l2, now, 3000);
        l2.submit(read(0, 2, 4), now);
        drain(&mut l2, now, 3000);
        let log = trace::take().expect("recorder installed");
        assert!(l2.is_idle());

        let seen: Vec<(Cycle, &str, String, u64)> = log
            .events()
            .iter()
            .filter_map(|e| match e.data {
                EventData::Grant { resource, service, .. } => {
                    Some((e.at, "grant", resource.to_string(), service))
                }
                EventData::BankAccess { bank, line, .. } | EventData::Evict { bank, line, .. } => {
                    Some((e.at, e.data.name(), format!("bank{bank} line{}", line.0), 0))
                }
                EventData::DramIssue { channel, line, kind, .. } => {
                    Some((e.at, e.data.name(), format!("chan{channel} line{} {kind:?}", line.0), 0))
                }
                _ => None,
            })
            .collect();
        // The write, submitted at cycle 6000, idles in the SGB until 8002;
        // the read was submitted at 9000.
        let expected = [
            (8002, "grant", "bank0.tag", 4),
            (8006, "miss", "bank0 line8", 0),
            (8006, "evict", "bank0 line0", 0),
            (8006, "grant", "bank0.data", 8),
            (8014, "grant", "bank0.tag", 4),
            (8014, "dram_issue", "chan0 line0 Write", 0),
            (8018, "dram_issue", "chan0 line8 Read", 0),
            (8116, "grant", "bank0.tag", 4),
            (8116, "grant", "bank0.data", 8),
            (9002, "grant", "bank0.tag", 4),
            (9006, "miss", "bank0 line2", 0),
            (9006, "grant", "bank0.tag", 4),
            (9010, "dram_issue", "chan0 line2 Read", 0),
            (9092, "grant", "bank0.tag", 4),
            (9092, "grant", "bank0.data", 8),
            (9092, "grant", "bank0.bus", 8),
        ]
        .map(|(at, event, what, service)| (at, event, what.to_string(), service));
        assert_eq!(seen, expected);
    }

    #[test]
    fn secondary_miss_waits_for_primary_fill() {
        let mut l2 = l2(2);
        l2.submit(read(0, 8, 1), 0);
        // A second read to the same line from another thread conflicts and
        // waits; both complete, and only one memory fetch happens.
        l2.submit(read(1, 8, 2), 0);
        let mut done = Vec::new();
        for now in 0..4000 {
            l2.tick(now);
            while let Some(r) = l2.pop_response(now) {
                done.push(r.token);
            }
        }
        assert_eq!(done.len(), 2);
        let stats = l2.stats();
        assert_eq!(stats.read_misses.get(), 1, "one miss");
        assert_eq!(stats.read_hits.get(), 1, "the waiter hits after the fill");
    }

    #[test]
    fn store_gathering_reduces_l2_writes() {
        let mut cfg = small_cfg(1, ArbiterPolicy::Fcfs);
        cfg.sgb_idle_drain = 100;
        let mut l2 = SharedL2::new(cfg, MemConfig::ddr2_800());
        // 8 stores, 4 distinct lines, all to bank 0.
        let mut now = 0;
        for i in 0..8u64 {
            l2.submit(write(0, (i % 4) * 2, i), now);
            now = drain(&mut l2, now, 4);
        }
        drain(&mut l2, now, 5000);
        let port = l2.port_stats(ThreadId(0));
        assert_eq!(port.stores_in.get(), 8);
        assert_eq!(port.stores_gathered.get(), 4);
        assert!((port.gathering_rate() - 0.5).abs() < 1e-12);
        assert_eq!(port.writes_out.get(), 4, "only distinct lines reach the L2");
    }

    #[test]
    fn utilization_reflects_traffic() {
        let mut l2 = l2(1);
        let mut now = 0;
        // Warm a line, then stream hits to it.
        l2.submit(read(0, 8, 0), now);
        now = drain(&mut l2, now, 2000);
        for i in 0..50u64 {
            while !l2.can_accept(ThreadId(0), LineAddr(8)) {
                now = drain(&mut l2, now, 1);
            }
            l2.submit(read(0, 8, i + 1), now);
            now = drain(&mut l2, now, 20);
        }
        let (tag, data, bus) = l2.busy_cycles();
        let window = now * l2.config().banks as u64;
        assert!(data as f64 > 0.05 * window as f64, "data array saw traffic: {data}/{window}");
        assert!(tag > 0 && bus > 0);
        assert!(tag <= window && data <= window && bus <= window);
    }

    #[test]
    fn port_credits_backpressure() {
        let l2cfg = small_cfg(1, ArbiterPolicy::Fcfs);
        let cap = l2cfg.input_queue_cap;
        let mut l2 = SharedL2::new(l2cfg, MemConfig::ddr2_800());
        // Without ticking, the input queue fills to its credit limit.
        let mut sent = 0;
        for i in 0..cap as u64 + 4 {
            if l2.can_accept(ThreadId(0), LineAddr(0)) {
                l2.submit(read(0, 0, i), 0);
                sent += 1;
            }
        }
        assert_eq!(sent, cap, "credits cap in-flight requests per port");
    }
}

#[cfg(test)]
mod consistency_tests {
    use super::*;
    use vpc_arbiters::ArbiterPolicy;
    use vpc_sim::{AccessKind, CacheRequest};

    /// A read to a line with an in-flight same-line write (from any thread)
    /// is held by the controller's conflict check until the write's state
    /// machine completes — the mechanism that makes downstream arbiter
    /// reordering consistency-safe (§4.1.1).
    #[test]
    fn same_line_read_waits_for_in_flight_write() {
        let mut cfg = L2Config::table1(2, ArbiterPolicy::RowFcfs);
        cfg.total_sets = 64;
        cfg.sgb_idle_drain = 10;
        let mut l2 = SharedL2::new(cfg, MemConfig::ddr2_800());
        // Thread 0 writes line 8 (a miss: write-allocate fetch, slow).
        l2.submit(
            CacheRequest {
                thread: ThreadId(0),
                line: LineAddr(8),
                kind: AccessKind::Write,
                token: 1,
            },
            0,
        );
        // Give the write time to reach the controller and start its miss.
        let mut now = 0;
        for _ in 0..60 {
            l2.tick(now);
            now += 1;
        }
        // Thread 1 reads the same line; under RoW-FCFS the read would love
        // to jump ahead, but the conflict check must hold it.
        l2.submit(
            CacheRequest {
                thread: ThreadId(1),
                line: LineAddr(8),
                kind: AccessKind::Read,
                token: 2,
            },
            now,
        );
        let mut read_done_at = None;
        while read_done_at.is_none() && now < 5000 {
            l2.tick(now);
            if let Some(resp) = l2.pop_response(now) {
                assert_eq!(resp.token, 2);
                read_done_at = Some(now);
            }
            now += 1;
        }
        let read_done = read_done_at.expect("read completes");
        // The read completed only after the write's memory fetch (~100+
        // cycles), not at L2-hit latency (~16 cycles after submission).
        assert!(
            read_done > 90,
            "read must wait behind the conflicting write's miss, finished at {read_done}"
        );
        let stats = l2.stats();
        assert_eq!(stats.write_misses.get(), 1);
        assert_eq!(stats.read_hits.get(), 1, "after the fill, the read hits the written line");
    }
}

#[cfg(test)]
mod microarch_tests {
    use super::*;
    use vpc_arbiters::ArbiterPolicy;
    use vpc_sim::{AccessKind, CacheRequest};

    fn tiny_l2(threads: usize) -> SharedL2 {
        let mut cfg = L2Config::table1(threads, ArbiterPolicy::Fcfs);
        cfg.total_sets = 64;
        cfg.sgb_idle_drain = 50;
        SharedL2::new(cfg, MemConfig::ddr2_800())
    }

    /// The controller state machines bound a thread's in-flight L2
    /// transactions: with `sm_per_thread = 8` per bank and all requests
    /// missing, at most 8 memory fetches per bank can be outstanding; the
    /// rest of the requests wait at the port. Everything still completes.
    #[test]
    fn state_machines_bound_outstanding_misses() {
        let mut l2 = tiny_l2(1);
        let sm_limit = l2.config().sm_per_thread;
        // 24 distinct lines, all mapping to bank 0 (even line numbers).
        let mut submitted = 0u64;
        let mut completed = 0u64;
        let mut now = 0u64;
        let mut next_line = 0u64;
        while submitted < 24 {
            if l2.can_accept(ThreadId(0), LineAddr(next_line)) {
                l2.submit(
                    CacheRequest {
                        thread: ThreadId(0),
                        line: LineAddr(next_line),
                        kind: AccessKind::Read,
                        token: submitted,
                    },
                    now,
                );
                submitted += 1;
                next_line += 2;
            }
            l2.tick(now);
            if l2.pop_response(now).is_some() {
                completed += 1;
            }
            now += 1;
        }
        while completed < 24 && now < 50_000 {
            l2.tick(now);
            while l2.pop_response(now).is_some() {
                completed += 1;
            }
            now += 1;
        }
        assert_eq!(completed, 24, "all misses complete despite the SM bound");
        // The response (critical word) races ahead of the fill's remaining
        // tag/data parts; let those finish before checking idleness.
        for _ in 0..200 {
            l2.tick(now);
            now += 1;
        }
        assert!(l2.is_idle());
        // The structural limit really exists: the config says 8.
        assert_eq!(sm_limit, 8);
    }

    /// Retire-at-n in action at the system level: six stores to distinct
    /// lines (reaching the high-water mark) start retiring immediately,
    /// while five stay parked until the idle drain.
    #[test]
    fn high_water_mark_triggers_prompt_retirement() {
        let mut l2 = tiny_l2(1);
        let mut now = 0u64;
        // Five stores to bank 0: below retire-at-6, they sit gathered.
        for i in 0..5u64 {
            while !l2.can_accept(ThreadId(0), LineAddr(i * 2)) {
                l2.tick(now);
                now += 1;
            }
            l2.submit(
                CacheRequest {
                    thread: ThreadId(0),
                    line: LineAddr(i * 2),
                    kind: AccessKind::Write,
                    token: i,
                },
                now,
            );
        }
        for _ in 0..40 {
            l2.tick(now);
            now += 1;
        }
        let before = l2.port_stats(ThreadId(0)).writes_out.get();
        assert_eq!(before, 0, "below the high-water mark nothing retires promptly");
        // A sixth store hits the mark; retirement begins well before the
        // 50-cycle idle drain would fire for it.
        l2.submit(
            CacheRequest {
                thread: ThreadId(0),
                line: LineAddr(10),
                kind: AccessKind::Write,
                token: 9,
            },
            now,
        );
        for _ in 0..20 {
            l2.tick(now);
            now += 1;
        }
        assert!(
            l2.port_stats(ThreadId(0)).writes_out.get() > 0,
            "reaching retire-at-6 starts draining stores"
        );
    }

    /// Bank input ports are independent: filling bank 0's port does not
    /// consume credits on bank 1.
    #[test]
    fn port_credits_are_per_bank() {
        let mut l2 = tiny_l2(1);
        let cap = l2.config().input_queue_cap;
        for i in 0..cap as u64 {
            l2.submit(
                CacheRequest {
                    thread: ThreadId(0),
                    line: LineAddr(i * 2),
                    kind: AccessKind::Read,
                    token: i,
                },
                0,
            );
        }
        assert!(!l2.can_accept(ThreadId(0), LineAddr(0)), "bank 0 port full");
        assert!(l2.can_accept(ThreadId(0), LineAddr(1)), "bank 1 port independent");
    }
}

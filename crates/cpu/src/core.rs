//! The out-of-order core model.

use std::collections::VecDeque;

use vpc_cache::{L1Cache, L1Config, L1LoadResult, SharedL2};
use vpc_sim::trace::{self, EventData, TraceEvent};
use vpc_sim::{AccessKind, CacheRequest, Counter, Cycle, LineAddr, ThreadId};

use crate::workload::{Op, Workload};

/// Core pipeline parameters (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Reorder buffer capacity in instructions (20 dispatch groups of 5).
    pub rob_entries: usize,
    /// Instructions dispatched per cycle (one dispatch group).
    pub dispatch_width: usize,
    /// Instructions retired per cycle.
    pub retire_width: usize,
    /// Loads issued to the L1 per cycle (2 LSUs).
    pub load_issue_width: usize,
    /// Load reorder queue entries.
    pub lrq_entries: usize,
    /// Store reorder queue entries.
    pub srq_entries: usize,
    /// Minimum cycles between stores sent to the L2 (the crossbar write
    /// port runs at half core frequency).
    pub store_send_interval: u64,
    /// Private L1 D-cache configuration.
    pub l1: L1Config,
}

impl CoreConfig {
    /// Table 1's core: 100-entry ROB (20 groups x 5), dispatch/retire one
    /// group per cycle, 2 LSUs, 32-entry LRQ and SRQ.
    pub fn table1() -> CoreConfig {
        CoreConfig {
            rob_entries: 100,
            dispatch_width: 5,
            retire_width: 5,
            load_issue_width: 2,
            lrq_entries: 32,
            srq_entries: 32,
            store_send_interval: 2,
            l1: L1Config::table1(),
        }
    }
}

/// The kind of instruction a ROB entry holds; it indexes the core's
/// retired counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    NonMem,
    Load,
    Store,
}

/// One reorder-buffer entry: `count` instructions of one `kind` that can
/// retire from cycle `done_at` on. Non-memory instructions dispatched
/// back to back share one entry, so the ROB holds one entry per memory
/// instruction and per run between them.
///
/// A run's `done_at` is 0: [`Core::tick`] retires before it dispatches, so
/// every instruction of a run seen at retirement was dispatched in an
/// earlier cycle and has completed (unit execute latency). A load's
/// `done_at` is `u64::MAX` while it is unissued or in flight; a store is
/// architecturally complete one cycle after dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RobEntry {
    done_at: Cycle,
    /// The memory op's line (unused in a run).
    line: LineAddr,
    count: u32,
    kind: Kind,
}

impl RobEntry {
    /// A run of `count` non-memory instructions.
    fn run(count: u32) -> RobEntry {
        RobEntry { done_at: 0, line: LineAddr(0), count, kind: Kind::NonMem }
    }

    /// One load or store.
    fn mem(kind: Kind, line: LineAddr, done_at: Cycle) -> RobEntry {
        RobEntry { done_at, line, count: 1, kind }
    }
}

/// Instruction-mix and stall counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreStats {
    /// Retired non-memory instructions.
    pub non_mem: Counter,
    /// Retired loads.
    pub loads: Counter,
    /// Retired stores.
    pub stores: Counter,
    /// Cycles retirement was blocked by a store waiting for the L2 port.
    pub store_stall_cycles: Counter,
    /// Cycles no instruction could dispatch (ROB/LRQ/SRQ full).
    pub dispatch_stall_cycles: Counter,
}

/// One simulated processor: workload, pipeline structures, and a private
/// write-through L1 D-cache.
///
/// The core is generic over its instruction stream so that a system of
/// known workloads calls the generator directly; the default boxed
/// [`Workload`] runs any other stream.
#[derive(Debug)]
pub struct Core<W: Workload = Box<dyn Workload>> {
    cfg: CoreConfig,
    thread: ThreadId,
    workload: W,
    l1: L1Cache,
    /// The ROB: a ring of entries indexed by slot number. Slots are dense
    /// and monotonic; the live ones are `head..next_slot`, and slot `s`
    /// sits at `s % rob.len()`. The ring's power-of-two length is at least
    /// `rob_entries`, and an entry holds at least one instruction, so no
    /// live entry is overwritten. A load's slot is its token toward the
    /// L1.
    rob: Vec<RobEntry>,
    /// Slot of the oldest live entry.
    head: u64,
    /// Slot the next new entry gets.
    next_slot: u64,
    /// Instructions in the ROB (a run counts all of its instructions).
    rob_len: usize,
    /// One-op skid buffer for an op consumed from the workload but stalled
    /// by a structural hazard.
    pending_op: Option<Op>,
    /// Dispatch is stalled until this cycle (frontend bubbles).
    frontend_stall_until: Cycle,
    /// Unissued loads' slots and lines, oldest first (loads issue in LRQ
    /// order). An unissued load cannot complete, so it is still live.
    unissued_loads: VecDeque<(u64, LineAddr)>,
    /// The head unissued load found the LMQ full: it cannot issue before
    /// a fill frees an entry, so issue waits for
    /// [`Core::on_l2_response`], which clears this.
    lmq_blocked: bool,
    lrq_count: usize,
    srq_count: usize,
    next_store_at: Cycle,
    /// Retired instructions, indexed by [`Kind`].
    retired: [Counter; 3],
    store_stall_cycles: Counter,
    dispatch_stall_cycles: Counter,
}

impl<W: Workload> Core<W> {
    /// Creates a core running `workload` as hardware thread `thread`.
    pub fn new(cfg: CoreConfig, thread: ThreadId, workload: W) -> Core<W> {
        Core {
            l1: L1Cache::new(cfg.l1),
            rob: vec![RobEntry::run(0); cfg.rob_entries.next_power_of_two()],
            head: 0,
            next_slot: 0,
            rob_len: 0,
            pending_op: None,
            frontend_stall_until: 0,
            unissued_loads: VecDeque::new(),
            lmq_blocked: false,
            lrq_count: 0,
            srq_count: 0,
            next_store_at: 0,
            retired: [Counter::default(); 3],
            store_stall_cycles: Counter::default(),
            dispatch_stall_cycles: Counter::default(),
            cfg,
            thread,
            workload,
        }
    }

    /// This core's hardware thread id.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// Total retired instructions: the retired non-memory instructions,
    /// loads and stores.
    pub fn retired(&self) -> u64 {
        self.retired.iter().map(|c| c.get()).sum()
    }

    /// Pipeline statistics.
    pub fn stats(&self) -> CoreStats {
        let [non_mem, loads, stores] = self.retired;
        CoreStats {
            non_mem,
            loads,
            stores,
            store_stall_cycles: self.store_stall_cycles,
            dispatch_stall_cycles: self.dispatch_stall_cycles,
        }
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> vpc_cache::L1Stats {
        self.l1.stats()
    }

    /// Delivers an L2 read response (critical word) for `line`: fills the
    /// L1, wakes every load waiting on the line and lets a load blocked on
    /// the full LMQ try again.
    pub fn on_l2_response(&mut self, line: LineAddr, now: Cycle) {
        trace::emit(|| TraceEvent {
            at: now,
            data: EventData::LoadReturn { thread: self.thread, line },
        });
        let (rob, live) = (&mut self.rob, self.head..self.next_slot);
        let mask = rob.len() - 1;
        self.l1.on_fill(line, now, |slot| {
            if live.contains(&slot) {
                rob[slot as usize & mask].done_at = now;
            }
        });
        self.lmq_blocked = false;
    }

    /// The ring position of `slot`.
    #[inline]
    fn at(&self, slot: u64) -> usize {
        slot as usize & (self.rob.len() - 1)
    }

    /// The live ROB entry in `slot`, if any.
    #[inline]
    fn entry(&self, slot: u64) -> Option<RobEntry> {
        (self.head..self.next_slot).contains(&slot).then(|| self.rob[self.at(slot)])
    }

    /// Mutable counterpart of [`Core::entry`].
    #[inline]
    fn entry_mut(&mut self, slot: u64) -> Option<&mut RobEntry> {
        let at = self.at(slot);
        (self.head..self.next_slot).contains(&slot).then(|| &mut self.rob[at])
    }

    /// Advances the core one cycle: retire, issue loads, dispatch.
    pub fn tick(&mut self, now: Cycle, l2: &mut SharedL2) {
        self.retire(now, l2);
        self.issue_loads(now, l2);
        self.dispatch(now);
    }

    /// Whether the next dispatch attempt is structurally blocked (ROB full,
    /// or the skid-buffered op cannot take an LRQ/SRQ slot) — exactly the
    /// conditions under which [`Core::dispatch`] counts a stall cycle.
    fn dispatch_blocked(&self) -> bool {
        self.rob_len >= self.cfg.rob_entries
            || match &self.pending_op {
                Some(Op::Load(_)) => self.lrq_count >= self.cfg.lrq_entries,
                Some(Op::Store(_)) => self.srq_count >= self.cfg.srq_entries,
                _ => false,
            }
    }

    /// Always the next cycle: the run loop ticks every cycle. A vestige
    /// kept for the frozen benchmark's call sites; benchmark revision 2
    /// removes it.
    pub fn next_activity(&self, now: Cycle, _l2: &SharedL2) -> Option<Cycle> {
        Some(now + 1)
    }

    /// Skips nothing, since [`Core::next_activity`] never reports a cycle
    /// past the next one. A vestige kept for the frozen benchmark's call
    /// sites; benchmark revision 2 removes it.
    ///
    /// # Panics
    ///
    /// Panics if `target` lies past the next cycle.
    pub fn fast_forward(&mut self, now: Cycle, target: Cycle) {
        assert!(target <= now + 1, "no cycle can be skipped: {now} to {target}");
    }

    fn dispatch(&mut self, now: Cycle) {
        if now < self.frontend_stall_until {
            return;
        }
        let mut dispatched = 0;
        while dispatched < self.cfg.dispatch_width {
            // A full ROB, or a skid-buffered op without its queue slot,
            // counts a stall and leaves the skid buffer where it is.
            if self.dispatch_blocked() {
                self.dispatch_stall_cycles.inc();
                return;
            }
            // Structural hazards stall dispatch in order; an op consumed
            // from the workload but blocked waits in the skid buffer.
            let op = match self.pending_op.take() {
                Some(op) => op,
                None => self.workload.next_op(),
            };
            let entry = match op {
                Op::Bubble(n) => {
                    self.frontend_stall_until = now + u64::from(n);
                    return;
                }
                Op::NonMem => {
                    let tail = self.next_slot.wrapping_sub(1);
                    if let Some(run) = self.entry_mut(tail).filter(|e| e.kind == Kind::NonMem) {
                        run.count += 1;
                        self.rob_len += 1;
                        dispatched += 1;
                        continue;
                    }
                    RobEntry::run(1)
                }
                Op::Load(line) => {
                    if self.lrq_count >= self.cfg.lrq_entries {
                        self.pending_op = Some(op);
                        self.dispatch_stall_cycles.inc();
                        return;
                    }
                    self.lrq_count += 1;
                    self.unissued_loads.push_back((self.next_slot, line));
                    RobEntry::mem(Kind::Load, line, u64::MAX)
                }
                Op::Store(line) => {
                    if self.srq_count >= self.cfg.srq_entries {
                        self.pending_op = Some(op);
                        self.dispatch_stall_cycles.inc();
                        return;
                    }
                    self.srq_count += 1;
                    // Stores are architecturally complete at dispatch (weak
                    // consistency; data waits in the SRQ); they gate at
                    // retire.
                    RobEntry::mem(Kind::Store, line, now + 1)
                }
            };
            let at = self.at(self.next_slot);
            self.rob[at] = entry;
            self.next_slot += 1;
            self.rob_len += 1;
            dispatched += 1;
        }
    }

    /// Issues up to `load_issue_width` loads in LRQ order. A head load
    /// blocked on the full LMQ would find the same L1 tags, MSHRs and LMQ
    /// occupancy on every cycle until a fill, so issue waits for one; a
    /// head load blocked on a port credit is retried every cycle.
    fn issue_loads(&mut self, now: Cycle, l2: &mut SharedL2) {
        if self.lmq_blocked {
            return;
        }
        let mut issued = 0;
        while issued < self.cfg.load_issue_width {
            let Some(&(slot, line)) = self.unissued_loads.front() else { return };
            match self.try_issue_load(line, slot, now, l2) {
                Some(ready_at) => {
                    if let Some(load) = self.entry_mut(slot) {
                        load.done_at = ready_at;
                    }
                    self.unissued_loads.pop_front();
                    issued += 1;
                }
                // Structural block (LMQ full or no port credit): loads
                // issue in order from the LRQ, so stop here.
                None => {
                    self.lmq_blocked = !self.l1.can_allocate_miss();
                    return;
                }
            }
        }
    }

    /// Attempts to issue one load. Returns its completion time if known
    /// (L1 hit), `u64::MAX` if it will complete via an L2 response, or
    /// `None` if it cannot issue this cycle.
    fn try_issue_load(
        &mut self,
        line: LineAddr,
        token: u64,
        now: Cycle,
        l2: &mut SharedL2,
    ) -> Option<Cycle> {
        let thread = self.thread;
        match self.l1.access_load(line, token, now, || l2.can_accept(thread, line)) {
            L1LoadResult::Hit { ready_at } => Some(ready_at),
            L1LoadResult::MissSecondary => Some(u64::MAX),
            L1LoadResult::MissPrimary => {
                l2.submit(CacheRequest { thread, line, kind: AccessKind::Read, token }, now);
                Some(u64::MAX)
            }
            // No MSHR/LMQ entry or no port credit for a primary miss.
            L1LoadResult::Blocked => None,
        }
    }

    /// Retires up to `retire_width` instructions in order. A run of
    /// non-memory instructions at the head retires in bulk; only a store
    /// has a gate of its own.
    fn retire(&mut self, now: Cycle, l2: &mut SharedL2) {
        let mut budget = self.cfg.retire_width;
        while budget > 0 {
            let Some(entry) = self.entry(self.head) else { return };
            if entry.done_at > now {
                return;
            }
            if entry.kind == Kind::Store {
                // Write-through: the store must leave for the L2 at
                // retirement, throttled by the half-frequency port and the
                // bank's input credits.
                if now < self.next_store_at || !l2.can_accept(self.thread, entry.line) {
                    self.store_stall_cycles.inc();
                    return;
                }
                self.l1.access_store(entry.line, now);
                l2.submit(
                    CacheRequest {
                        thread: self.thread,
                        line: entry.line,
                        kind: AccessKind::Write,
                        token: self.head,
                    },
                    now,
                );
                self.next_store_at = now + self.cfg.store_send_interval;
            }
            let n = (entry.count as usize).min(budget);
            if n < entry.count as usize {
                let at = self.at(self.head);
                self.rob[at].count -= n as u32;
            } else {
                self.head += 1;
            }
            self.retired[entry.kind as usize].add(n as u64);
            self.lrq_count -= usize::from(entry.kind == Kind::Load);
            self.srq_count -= usize::from(entry.kind == Kind::Store);
            self.rob_len -= n;
            budget -= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::FixedTrace;
    use vpc_arbiters::ArbiterPolicy;
    use vpc_cache::L2Config;
    use vpc_mem::MemConfig;

    fn small_l2(threads: usize) -> SharedL2 {
        let mut cfg = L2Config::table1(threads, ArbiterPolicy::Fcfs);
        cfg.total_sets = 128;
        SharedL2::new(cfg, MemConfig::ddr2_800())
    }

    fn run<W: Workload>(core: &mut Core<W>, l2: &mut SharedL2, cycles: Cycle) {
        for now in 0..cycles {
            core.tick(now, l2);
            l2.tick(now);
            while let Some(resp) = l2.pop_response(now) {
                assert_eq!(resp.thread, core.thread());
                core.on_l2_response(resp.line, now);
            }
        }
    }

    #[test]
    fn non_mem_ipc_hits_pipeline_width() {
        let w = FixedTrace::new("spin", vec![Op::NonMem]);
        let mut core = Core::new(CoreConfig::table1(), ThreadId(0), Box::new(w));
        let mut l2 = small_l2(1);
        run(&mut core, &mut l2, 10_000);
        let ipc = core.retired() as f64 / 10_000.0;
        assert!((4.5..=5.0).contains(&ipc), "non-mem IPC {ipc} should approach retire width");
    }

    #[test]
    fn repeated_load_hits_l1_after_first_miss() {
        let w = FixedTrace::new("hit", vec![Op::Load(LineAddr(8))]);
        let mut core = Core::new(CoreConfig::table1(), ThreadId(0), Box::new(w));
        let mut l2 = small_l2(1);
        run(&mut core, &mut l2, 20_000);
        let l1 = core.l1_stats();
        // The first access is a primary miss; loads dispatched behind it
        // (up to the LRQ depth) merge into the same MSHR as secondary
        // misses. After the fill everything hits.
        assert!(
            (1..=33).contains(&l1.load_misses.get()),
            "one primary miss plus merged secondaries, got {}",
            l1.load_misses.get()
        );
        assert!(l1.load_hits.get() > 1_000);
        let ipc = core.retired() as f64 / 20_000.0;
        assert!(ipc > 1.0, "L1-resident loads are fast, got IPC {ipc}");
    }

    #[test]
    fn l2_bound_load_stream_is_bandwidth_limited() {
        // 512 distinct lines thrash the 64-set x 4-way L1 but fit in L2.
        let ops: Vec<Op> = (0..512).map(|i| Op::Load(LineAddr(i))).collect();
        let w = FixedTrace::new("loads", ops);
        let mut core = Core::new(CoreConfig::table1(), ThreadId(0), Box::new(w));
        let mut l2 = small_l2(1);
        run(&mut core, &mut l2, 60_000);
        let ipc = core.retired() as f64 / 60_000.0;
        // 2 banks x 1 read / 8 cycles = 0.25 loads/cycle upper bound.
        assert!(ipc <= 0.30, "load stream cannot exceed data-array bandwidth, got {ipc}");
        assert!(ipc >= 0.10, "load stream should come near the bandwidth bound, got {ipc}");
        let data_util = l2.busy_cycles().1 as f64 / (60_000 * l2.config().banks) as f64;
        assert!(data_util > 0.5, "data array should be heavily used: {data_util}");
    }

    #[test]
    fn store_stream_is_throttled_by_write_bandwidth() {
        let ops: Vec<Op> = (0..512).map(|i| Op::Store(LineAddr(i))).collect();
        let w = FixedTrace::new("stores", ops);
        let mut core = Core::new(CoreConfig::table1(), ThreadId(0), Box::new(w));
        let mut l2 = small_l2(1);
        run(&mut core, &mut l2, 60_000);
        let ipc = core.retired() as f64 / 60_000.0;
        // 2 banks x 1 write / 16 cycles = 0.125 stores/cycle once warm.
        assert!(ipc <= 0.25, "store stream bounded by write bandwidth, got {ipc}");
        assert!(core.stats().store_stall_cycles.get() > 0, "stores must backpressure");
    }

    #[test]
    fn loads_and_stores_retire_in_order() {
        let w = FixedTrace::new(
            "mix",
            vec![Op::Load(LineAddr(8)), Op::NonMem, Op::Store(LineAddr(16))],
        );
        let mut core = Core::new(CoreConfig::table1(), ThreadId(0), Box::new(w));
        let mut l2 = small_l2(1);
        run(&mut core, &mut l2, 30_000);
        let s = core.stats();
        // Retired counts reflect the 1:1:1 mix.
        let total = s.non_mem.get() + s.loads.get() + s.stores.get();
        assert_eq!(total, core.retired());
        assert!(s.loads.get() > 0 && s.stores.get() > 0 && s.non_mem.get() > 0);
        let diff = s.loads.get().abs_diff(s.stores.get());
        assert!(diff <= 1, "in-order retirement keeps the mix balanced");
    }

    #[test]
    fn blocked_skid_buffered_store_counts_one_stall_in_place() {
        let ops = vec![Op::Store(LineAddr(1)), Op::NonMem];
        let mut core =
            Core::new(CoreConfig::table1(), ThreadId(0), Box::new(FixedTrace::new("st", ops)));
        let mut l2 = small_l2(1);
        core.pending_op = Some(Op::Store(LineAddr(7)));
        core.srq_count = core.cfg.srq_entries;
        let rob_len = core.rob_len;
        core.tick(0, &mut l2);
        assert_eq!(core.stats().dispatch_stall_cycles.get(), 1, "one stalled tick, one stall");
        assert_eq!(core.pending_op, Some(Op::Store(LineAddr(7))), "the skid buffer is kept");
        assert_eq!(core.rob_len, rob_len, "nothing dispatched");
        assert_eq!(core.workload.next_op(), Op::Store(LineAddr(1)), "no op was consumed");
    }

    #[test]
    fn mlp_is_bounded_by_lmq() {
        let ops: Vec<Op> = (0..512).map(|i| Op::Load(LineAddr(i))).collect();
        let w = FixedTrace::new("loads", ops);
        let mut cfg = CoreConfig::table1();
        cfg.l1.lmq_entries = 2; // tiny LMQ throttles MLP hard
        let mut throttled = Core::new(
            cfg,
            ThreadId(0),
            Box::new(FixedTrace::new("loads", (0..512).map(|i| Op::Load(LineAddr(i))).collect())),
        );
        let mut wide = Core::new(CoreConfig::table1(), ThreadId(0), Box::new(w));
        let mut l2a = small_l2(1);
        let mut l2b = small_l2(1);
        run(&mut throttled, &mut l2a, 40_000);
        run(&mut wide, &mut l2b, 40_000);
        assert!(
            wide.retired() > throttled.retired() * 2,
            "LMQ depth limits load throughput: wide {} vs throttled {}",
            wide.retired(),
            throttled.retired()
        );
    }

    /// The LMQ gate skips only issue attempts that would be refused: on a
    /// stream of load misses with a 2-entry LMQ, interleaved with stores
    /// that take the L2 port credits (one per port), a core whose
    /// `lmq_blocked` flag is cleared before every tick, so that it retries
    /// its head load on every cycle, reaches the same state after every
    /// cycle and the same L1 statistics. Both kinds of block occur.
    #[test]
    fn lmq_gate_matches_retrying_every_cycle() {
        let mut ops: Vec<Op> = (0..96).map(|i| Op::Load(LineAddr(i))).collect();
        for i in 0..32 {
            ops.insert(3 * i, Op::Store(LineAddr(2 * i as u64)));
        }
        let mut cfg = CoreConfig::table1();
        cfg.l1.lmq_entries = 2;
        let core = || Core::new(cfg, ThreadId(0), FixedTrace::new("misses", ops.clone()));
        let l2 = || {
            let mut l2cfg = L2Config::table1(1, ArbiterPolicy::Fcfs);
            l2cfg.total_sets = 128;
            l2cfg.input_queue_cap = 1;
            SharedL2::new(l2cfg, MemConfig::ddr2_800())
        };
        let (mut gated, mut retrying) = (core(), core());
        let (mut l2_gated, mut l2_retrying) = (l2(), l2());
        let (mut lmq_waits, mut credit_blocks) = (0, 0);
        for now in 0..20_000 {
            retrying.lmq_blocked = false;
            lmq_waits += u64::from(gated.lmq_blocked);
            let head = gated.unissued_loads.front().copied();
            let tried = head.is_some() && !gated.lmq_blocked;
            gated.tick(now, &mut l2_gated);
            credit_blocks += u64::from(
                tried && gated.unissued_loads.front().copied() == head && !gated.lmq_blocked,
            );
            retrying.tick(now, &mut l2_retrying);
            for (core, l2) in [(&mut gated, &mut l2_gated), (&mut retrying, &mut l2_retrying)] {
                l2.tick(now);
                while let Some(resp) = l2.pop_response(now) {
                    core.on_l2_response(resp.line, now);
                }
            }
            assert_eq!(format!("{gated:?}"), format!("{retrying:?}"), "state at {now}");
        }
        assert_eq!(format!("{:?}", gated.l1_stats()), format!("{:?}", retrying.l1_stats()));
        assert!(lmq_waits > 1_000, "the LMQ gate skipped {lmq_waits} issue calls");
        assert!(credit_blocks > 50, "{credit_blocks} head loads blocked on a port credit");
        assert!(gated.stats().loads.get() > 1_000, "the loads retired");
    }

    /// A core holding `entries` at the head of its ROB, with the queue
    /// counts they imply.
    fn core_with_rob(entries: &[RobEntry]) -> Core<FixedTrace> {
        let mut core =
            Core::new(CoreConfig::table1(), ThreadId(0), FixedTrace::new("spin", vec![Op::NonMem]));
        for &entry in entries {
            core.rob_len += entry.count as usize;
            core.lrq_count += usize::from(entry.kind == Kind::Load);
            core.srq_count += usize::from(entry.kind == Kind::Store);
            let at = core.at(core.next_slot);
            core.rob[at] = entry;
            core.next_slot += 1;
        }
        core
    }

    #[test]
    fn run_longer_than_retire_width_retires_over_two_cycles() {
        let mut core = core_with_rob(&[RobEntry::run(8)]);
        let mut l2 = small_l2(1);
        core.retire(1, &mut l2);
        assert_eq!(core.retired(), 5, "one cycle retires retire_width instructions");
        assert_eq!(core.entry(core.head), Some(RobEntry::run(3)), "the run keeps its rest");
        core.retire(2, &mut l2);
        assert_eq!(core.retired(), 8);
        assert_eq!((core.head, core.next_slot, core.rob_len), (1, 1, 0), "the ROB is empty");
        assert_eq!(core.stats().non_mem.get(), 8);
    }

    #[test]
    fn memory_ops_behind_a_run_wait_for_it() {
        let line = LineAddr(3);
        let mut core = core_with_rob(&[
            RobEntry::run(7),
            RobEntry::mem(Kind::Load, line, 0),
            RobEntry::mem(Kind::Store, line, 0),
        ]);
        let mut l2 = small_l2(1);
        core.retire(1, &mut l2);
        assert_eq!(core.retired(), 5);
        assert_eq!(core.stats().loads.get() + core.stats().stores.get(), 0, "both wait");
        core.retire(2, &mut l2);
        let s = core.stats();
        assert_eq!((s.non_mem.get(), s.loads.get(), s.stores.get()), (7, 1, 1));
        assert_eq!((core.lrq_count, core.srq_count, core.rob_len), (0, 0, 0));
    }

    #[test]
    fn stores_at_the_head_leave_one_per_port_interval() {
        let (a, b) = (LineAddr(3), LineAddr(4));
        let mut core = core_with_rob(&[
            RobEntry::mem(Kind::Store, a, 0),
            RobEntry::mem(Kind::Store, b, 0),
            RobEntry::run(2),
            RobEntry::mem(Kind::Load, a, u64::MAX),
        ]);
        let mut l2 = small_l2(1);
        core.retire(1, &mut l2);
        let s = core.stats();
        assert_eq!((s.stores.get(), s.store_stall_cycles.get()), (1, 1), "the port gates");
        core.retire(2, &mut l2);
        assert_eq!(core.stats().store_stall_cycles.get(), 2, "the interval is two cycles");
        core.retire(3, &mut l2);
        let s = core.stats();
        assert_eq!((s.stores.get(), s.non_mem.get(), s.loads.get()), (2, 2, 0), "the load waits");
        assert_eq!((core.lrq_count, core.srq_count, core.rob_len), (1, 0, 1));
    }

    #[test]
    fn retired_counts_equal_the_op_counts() {
        let mut ops = vec![Op::NonMem; 9];
        ops.extend([Op::Load(LineAddr(8)), Op::NonMem, Op::Bubble(1), Op::Store(LineAddr(16))]);
        ops.extend(vec![Op::NonMem; 12]);
        ops.push(Op::Load(LineAddr(700)));
        let mut core = Core::new(CoreConfig::table1(), ThreadId(0), FixedTrace::new("mix", ops));
        let mut reference = core.workload.clone();
        let mut l2 = small_l2(1);
        run(&mut core, &mut l2, 20_000);
        let (mut non_mem, mut loads, mut stores) = (0, 0, 0);
        while non_mem + loads + stores < core.retired() {
            match reference.next_op() {
                Op::NonMem => non_mem += 1,
                Op::Load(_) => loads += 1,
                Op::Store(_) => stores += 1,
                Op::Bubble(_) => {}
            }
        }
        let s = core.stats();
        assert_eq!((s.non_mem.get(), s.loads.get(), s.stores.get()), (non_mem, loads, stores));
        assert!(loads > 100, "the trace ran many loops, retired {}", core.retired());
    }
}

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RobKind {
    NonMem,
    Load { line: LineAddr },
    Store { line: LineAddr },
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    id: u64,
    kind: RobKind,
    /// Completion time; `u64::MAX` while unknown (loads in flight).
    done_at: Cycle,
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
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    thread: ThreadId,
    workload: Box<dyn Workload>,
    l1: L1Cache,
    rob: VecDeque<RobEntry>,
    /// One-op skid buffer for an op consumed from the workload but stalled
    /// by a structural hazard.
    pending_op: Option<Op>,
    /// Dispatch is stalled until this cycle (frontend bubbles).
    frontend_stall_until: Cycle,
    /// Unissued loads' ids, oldest first (loads issue in LRQ order).
    unissued_loads: VecDeque<u64>,
    lrq_count: usize,
    srq_count: usize,
    next_id: u64,
    next_store_at: Cycle,
    retired: u64,
    stats: CoreStats,
}

impl Core {
    /// Creates a core running `workload` as hardware thread `thread`.
    pub fn new(cfg: CoreConfig, thread: ThreadId, workload: Box<dyn Workload>) -> Core {
        Core {
            l1: L1Cache::new(cfg.l1, thread),
            rob: VecDeque::with_capacity(cfg.rob_entries),
            pending_op: None,
            frontend_stall_until: 0,
            unissued_loads: VecDeque::new(),
            lrq_count: 0,
            srq_count: 0,
            next_id: 0,
            next_store_at: 0,
            retired: 0,
            stats: CoreStats::default(),
            cfg,
            thread,
            workload,
        }
    }

    /// This core's hardware thread id.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// Total retired instructions.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Instructions per cycle over `elapsed` cycles.
    pub fn ipc(&self, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.retired as f64 / elapsed as f64
        }
    }

    /// Pipeline statistics.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> vpc_cache::L1Stats {
        self.l1.stats()
    }

    /// Delivers an L2 read response (critical word) for `line`: fills the
    /// L1 and wakes every load waiting on the line.
    pub fn on_l2_response(&mut self, line: LineAddr, now: Cycle) {
        trace::emit(|| TraceEvent {
            at: now,
            data: EventData::LoadReturn { thread: self.thread, line },
        });
        for token in self.l1.on_fill(line, now) {
            if let Some(entry) = self.entry_mut(token) {
                entry.done_at = now;
            }
        }
    }

    /// O(1) ROB access by instruction id (ids are dense and monotonic).
    fn entry_mut(&mut self, id: u64) -> Option<&mut RobEntry> {
        let head = self.rob.front()?.id;
        if id < head {
            return None;
        }
        self.rob.get_mut((id - head) as usize)
    }

    /// Read-only counterpart of [`Core::entry_mut`].
    fn entry(&self, id: u64) -> Option<&RobEntry> {
        let head = self.rob.front()?.id;
        if id < head {
            return None;
        }
        self.rob.get((id - head) as usize)
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
        self.rob.len() >= self.cfg.rob_entries
            || match &self.pending_op {
                Some(Op::Load(_)) => self.lrq_count >= self.cfg.lrq_entries,
                Some(Op::Store(_)) => self.srq_count >= self.cfg.srq_entries,
                _ => false,
            }
    }

    /// The earliest cycle at which a [`Core::tick`] can change observable
    /// state (including stall counters' *regime boundaries*), given that no
    /// L2 response arrives before then. `None` when every pipeline stage is
    /// blocked on input only the memory system can deliver — the cache's
    /// own [`SharedL2::next_activity`] covers those wake-ups.
    ///
    /// Conservative by design: never *later* than a real change (see
    /// `DESIGN.md` §10); an early wake-up is a harmless no-op tick.
    pub fn next_activity(&self, now: Cycle, l2: &SharedL2) -> Option<Cycle> {
        let horizon = now + 1;
        // Fast path for the overwhelmingly common case — an unblocked
        // frontend dispatches next tick, so no cheaper wake-up exists and
        // the checks below cannot improve on it. This keeps the skip
        // protocol's per-cycle cost near zero while a core is running.
        if self.frontend_stall_until <= horizon && !self.dispatch_blocked() {
            return Some(horizon);
        }
        let mut best: Option<Cycle> = None;
        let mut consider = |c: Cycle| best = Some(best.map_or(c, |b: Cycle| b.min(c)));
        // Retirement: a finite completion time bounds the skip; a store at
        // the head with an open port retires once the send interval allows.
        if let Some(head) = self.rob.front() {
            match head.kind {
                RobKind::NonMem | RobKind::Load { .. } => {
                    if head.done_at != u64::MAX {
                        consider(head.done_at.max(horizon));
                    }
                }
                RobKind::Store { line } => {
                    if head.done_at > now {
                        consider(head.done_at.max(horizon));
                    } else if l2.can_accept(self.thread, line) {
                        consider(self.next_store_at.max(horizon));
                    }
                    // else: port-blocked; unblocking is bank activity.
                }
            }
        }
        // Load issue: an issuable head load acts next tick. A blocked one
        // waits on an L1 fill or port credit, which the cache reports.
        if let Some(&id) = self.unissued_loads.front() {
            match self.entry(id) {
                None => consider(horizon), // stale id: next tick pops it
                Some(entry) => {
                    let RobKind::Load { line } = entry.kind else {
                        unreachable!("unissued-load queue holds loads only")
                    };
                    if self.l1.probe(line)
                        || self.l1.has_mshr(line)
                        || (self.l1.can_allocate_miss() && l2.can_accept(self.thread, line))
                    {
                        consider(horizon);
                    }
                }
            }
        }
        // Dispatch: an unblocked frontend consumes workload ops as soon as
        // any bubble expires. (A structurally blocked frontend only counts
        // stall cycles, which fast_forward advances arithmetically.)
        if !self.dispatch_blocked() {
            consider(self.frontend_stall_until.max(horizon));
        }
        best
    }

    /// Advances the stall counters over the skipped ticks
    /// `now + 1 ..= target - 1`, exactly as if [`Core::tick`] had run on
    /// each of them. Sound because `target` never exceeds
    /// [`Core::next_activity`]: within the region every blocking predicate
    /// is constant, so each skipped tick increments the same counters a
    /// naive tick would (see `DESIGN.md` §10).
    pub fn fast_forward(&mut self, now: Cycle, target: Cycle) {
        let skipped = target - now - 1;
        if skipped == 0 {
            return;
        }
        if let Some(head) = self.rob.front() {
            // A completed store still at the head is being held back by the
            // port or the send interval on every skipped tick.
            if matches!(head.kind, RobKind::Store { .. }) && head.done_at <= now {
                self.stats.store_stall_cycles.add(skipped);
            }
        }
        if self.frontend_stall_until <= now + 1 && self.dispatch_blocked() {
            self.stats.dispatch_stall_cycles.add(skipped);
        }
    }

    fn dispatch(&mut self, now: Cycle) {
        if now < self.frontend_stall_until {
            return;
        }
        let mut dispatched = 0;
        while dispatched < self.cfg.dispatch_width {
            if self.rob.len() >= self.cfg.rob_entries {
                self.stats.dispatch_stall_cycles.inc();
                return;
            }
            // Structural hazards stall dispatch in order; an op consumed
            // from the workload but blocked waits in the skid buffer.
            let op = match self.pending_op.take() {
                Some(op) => op,
                None => self.workload.next_op(),
            };
            let kind = match op {
                Op::Bubble(n) => {
                    self.frontend_stall_until = now + u64::from(n);
                    return;
                }
                Op::NonMem => RobKind::NonMem,
                Op::Load(line) => {
                    if self.lrq_count >= self.cfg.lrq_entries {
                        self.pending_op = Some(op);
                        self.stats.dispatch_stall_cycles.inc();
                        return;
                    }
                    self.lrq_count += 1;
                    self.unissued_loads.push_back(self.next_id);
                    RobKind::Load { line }
                }
                Op::Store(line) => {
                    if self.srq_count >= self.cfg.srq_entries {
                        self.pending_op = Some(op);
                        self.stats.dispatch_stall_cycles.inc();
                        return;
                    }
                    self.srq_count += 1;
                    RobKind::Store { line }
                }
            };
            let done_at = match kind {
                RobKind::NonMem => now + 1,
                // Stores are architecturally complete at dispatch (weak
                // consistency; data waits in the SRQ); they gate at retire.
                RobKind::Store { .. } => now + 1,
                RobKind::Load { .. } => u64::MAX,
            };
            self.rob.push_back(RobEntry { id: self.next_id, kind, done_at });
            self.next_id += 1;
            dispatched += 1;
        }
    }

    fn issue_loads(&mut self, now: Cycle, l2: &mut SharedL2) {
        let mut issued = 0;
        while issued < self.cfg.load_issue_width {
            let Some(&id) = self.unissued_loads.front() else { return };
            let Some(entry) = self.entry_mut(id) else {
                self.unissued_loads.pop_front();
                continue;
            };
            let RobKind::Load { line } = entry.kind else {
                unreachable!("unissued-load queue holds loads only")
            };
            match self.try_issue_load(line, id, now, l2) {
                Some(done_at) => {
                    self.entry_mut(id).expect("entry just seen").done_at = done_at;
                    self.unissued_loads.pop_front();
                    issued += 1;
                }
                // Structural block (LMQ full or no port credit): loads
                // issue in order from the LRQ, so stop here.
                None => return,
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

    fn retire(&mut self, now: Cycle, l2: &mut SharedL2) {
        let mut retired = 0;
        while retired < self.cfg.retire_width {
            let Some(&head) = self.rob.front() else { return };
            match head.kind {
                RobKind::NonMem | RobKind::Load { .. } => {
                    if head.done_at > now {
                        return;
                    }
                }
                RobKind::Store { line } => {
                    if head.done_at > now {
                        return;
                    }
                    // Write-through: the store must leave for the L2 at
                    // retirement, throttled by the half-frequency port and
                    // the bank's input credits.
                    if now < self.next_store_at || !l2.can_accept(self.thread, line) {
                        self.stats.store_stall_cycles.inc();
                        return;
                    }
                    self.l1.access_store(line, now);
                    l2.submit(
                        CacheRequest {
                            thread: self.thread,
                            line,
                            kind: AccessKind::Write,
                            token: head.id,
                        },
                        now,
                    );
                    self.next_store_at = now + self.cfg.store_send_interval;
                }
            }
            match head.kind {
                RobKind::NonMem => self.stats.non_mem.inc(),
                RobKind::Load { .. } => {
                    self.stats.loads.inc();
                    self.lrq_count -= 1;
                }
                RobKind::Store { .. } => {
                    self.stats.stores.inc();
                    self.srq_count -= 1;
                }
            }
            self.rob.pop_front();
            self.retired += 1;
            retired += 1;
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

    fn run(core: &mut Core, l2: &mut SharedL2, cycles: Cycle) {
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
        let ipc = core.ipc(10_000);
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
        let ipc = core.ipc(20_000);
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
        let ipc = core.ipc(60_000);
        // 2 banks x 1 read / 8 cycles = 0.25 loads/cycle upper bound.
        assert!(ipc <= 0.30, "load stream cannot exceed data-array bandwidth, got {ipc}");
        assert!(ipc >= 0.10, "load stream should come near the bandwidth bound, got {ipc}");
        let u = l2.utilization(60_000);
        assert!(u.data_array > 0.5, "data array should be heavily used: {u:?}");
    }

    #[test]
    fn store_stream_is_throttled_by_write_bandwidth() {
        let ops: Vec<Op> = (0..512).map(|i| Op::Store(LineAddr(i))).collect();
        let w = FixedTrace::new("stores", ops);
        let mut core = Core::new(CoreConfig::table1(), ThreadId(0), Box::new(w));
        let mut l2 = small_l2(1);
        run(&mut core, &mut l2, 60_000);
        let ipc = core.ipc(60_000);
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
}

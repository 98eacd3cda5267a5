//! One shared L2 cache bank (paper Figure 2b).
//!
//! A bank contains, per thread, an input port with a store gathering buffer;
//! a pool of cache controller state machines (8 per thread in Table 1); and
//! three arbitrated shared resources — the tag array, the data array, and
//! the bank's data bus. The controller round-robins over threads' ports,
//! conflict-checks the selected request against active state machines (so
//! reordering downstream cannot violate consistency, §4.1.1), allocates a
//! state machine, and the request then arbitrates for the tag array, then
//! (hits) the data array, then (reads) the data bus. A miss reads a dirty
//! victim out for castout, updates the victim's tag state, fetches from
//! memory, and fills: a tag update and a full-line data write, while (reads)
//! the data returns to the processor directly over the data bus. Each of
//! these accesses is one controller step, granted by the resource it names.
//!
//! The bank logic runs at half core frequency: [`L2Bank::tick`] acts only on
//! even processor cycles, and only from the bank's wake cycle on (DESIGN.md
//! §10, "A quiet bank is not ticked").

use std::collections::VecDeque;

use vpc_arbiters::{ArbRequest, ArbitratedResource};
use vpc_capacity::{ReplacementPolicy, TagSet, TrueLru, VpcCapacityManager};
use vpc_mem::MemRequest;
use vpc_sim::trace::{self, EventData, TraceEvent};
use vpc_sim::{AccessKind, CacheRequest, CacheResponse, Counter, Cycle, LineAddr, ThreadId};

use crate::config::{CapacityPolicy, L2Config};
use crate::sgb::{SgbStats, ThreadPort};

/// One controller step: a state machine's access to one of the bank's
/// three arbitrated resources. Packed with the state machine's index into
/// the arbitration request id ([`Step::id`], [`Step::decode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Tag lookup of a newly allocated request.
    TagLookup,
    /// Miss: victim/state tag update.
    TagVictim,
    /// Fill: tag state update.
    TagFill,
    /// Hit: data-array read, or a store's ECC read-merge-write.
    DataHit,
    /// Miss with a dirty victim: the victim line read out for castout.
    DataCastout,
    /// Fill: the full-line data-array write (fresh ECC).
    DataFill,
    /// Read hit: line transfer to the core.
    BusHit,
    /// Read miss: direct-from-memory transfer to the core.
    BusFill,
}

impl Step {
    /// Indexed by the step's id code (its discriminant).
    const ALL: [Step; 8] = [
        Step::TagLookup,
        Step::TagVictim,
        Step::TagFill,
        Step::DataHit,
        Step::DataCastout,
        Step::DataFill,
        Step::BusHit,
        Step::BusFill,
    ];

    /// The arbitration request id of this step of state machine `sm_idx`.
    fn id(self, sm_idx: usize) -> u64 {
        ((sm_idx as u64) << 3) | self as u64
    }

    /// The state machine index and step packed into `id`.
    fn decode(id: u64) -> (usize, Step) {
        ((id >> 3) as usize, Step::ALL[(id & 0x7) as usize])
    }

    /// The resource the step arbitrates for.
    fn resource(self) -> usize {
        match self {
            Step::TagLookup | Step::TagVictim | Step::TagFill => TAG,
            Step::DataHit | Step::DataCastout | Step::DataFill => DATA,
            Step::BusHit | Step::BusFill => BUS,
        }
    }
}

// `Step::decode` inverts `Step::id`: `ALL` lists the steps in
// discriminant order.
const _: () = {
    let mut i = 0;
    while i < Step::ALL.len() {
        assert!(Step::ALL[i] as usize == i);
        i += 1;
    }
};

// Indices into the bank's resource array, in grant order.
const TAG: usize = 0;
const DATA: usize = 1;
const BUS: usize = 2;

#[derive(Debug, Clone, Copy)]
struct Sm {
    thread: ThreadId,
    line: LineAddr,
    kind: AccessKind,
    token: u64,
    /// Controller intake time, for read-latency accounting.
    started: Cycle,
    /// The dirty victim a miss casts out, written back to memory once its
    /// data-array read completes.
    castout: Option<LineAddr>,
    /// Whether the line fetch is at memory: set when the fetch is sent,
    /// cleared by its response.
    fetching: bool,
    /// Fill accesses still outstanding (tag update, data write and, for
    /// reads, the bus return); zero until the memory response arrives.
    fill_parts: u8,
}

/// Per-bank transaction counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct BankStats {
    /// Read requests that hit.
    pub read_hits: Counter,
    /// Read requests that missed.
    pub read_misses: Counter,
    /// Write requests that hit.
    pub write_hits: Counter,
    /// Write requests that missed (write-allocate fetches).
    pub write_misses: Counter,
    /// Dirty victim castouts written back to memory.
    pub castouts: Counter,
}

/// One L2 cache bank.
#[derive(Debug)]
pub struct L2Bank {
    cfg: L2Config,
    bank_idx: usize,
    sets: Vec<TagSet>,
    policy: Box<dyn ReplacementPolicy>,
    ports: Vec<ThreadPort>,
    sms: Vec<Option<Sm>>,
    sm_used: Vec<usize>,
    /// The lines of the live state machines, in no particular order: the
    /// line-conflict predicate of intake, kept by `alloc_sm`/`free_sm` so
    /// it never scans the SM pool.
    sm_lines: Vec<LineAddr>,
    /// Tag array, data array and data bus, in grant order.
    resources: [ArbitratedResource; 3],
    rr_next: usize,
    events: Vec<(Cycle, usize, Step)>,
    /// Cached minimum due-cycle over `events` (`u64::MAX` when empty), so
    /// the per-tick completion scan is O(1) when nothing is due.
    events_min: Cycle,
    /// No tick can act before this cycle: set by every tick that runs,
    /// lowered by [`L2Bank::submit`] and [`L2Bank::on_mem_response`].
    wake: Cycle,
    /// The free slots of `sms`, popped by `alloc_sm` and pushed by
    /// `free_sm`. Which free slot a request gets is unobservable: slots
    /// only name state machines in arbitration ids and memory tokens.
    sm_free: Vec<usize>,
    mem_out: VecDeque<MemRequest>,
    responses: VecDeque<(Cycle, CacheResponse)>,
    stats: BankStats,
    /// Per-thread read latency (controller intake to critical word).
    read_latency: Vec<vpc_sim::Histogram>,
}

impl L2Bank {
    /// Creates bank `bank_idx` of a cache described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`L2Config::check_geometry`].
    pub fn new(cfg: &L2Config, bank_idx: usize) -> L2Bank {
        cfg.check_geometry();
        let policy: Box<dyn ReplacementPolicy> = match &cfg.capacity {
            CapacityPolicy::Lru => Box::new(TrueLru),
            CapacityPolicy::Vpc { shares } => {
                Box::new(VpcCapacityManager::from_shares(shares, cfg.ways as u32))
            }
        };
        let ports = (0..cfg.threads)
            .map(|t| {
                ThreadPort::new(
                    ThreadId(t as u8),
                    cfg.sgb_entries,
                    cfg.sgb_retire_at,
                    cfg.sgb_idle_drain,
                )
            })
            .collect();
        let unit = bank_idx as u16;
        let resources = [
            trace::ResourceId::tag_array(unit),
            trace::ResourceId::data_array(unit),
            trace::ResourceId::data_bus(unit),
        ]
        .map(|id| {
            let mut r = ArbitratedResource::new(cfg.arbiter.build(cfg.threads));
            r.set_trace_id(id);
            r
        });
        L2Bank {
            sets: (0..cfg.sets_per_bank()).map(|_| TagSet::new(cfg.ways)).collect(),
            policy,
            ports,
            sms: vec![None; cfg.threads * cfg.sm_per_thread],
            sm_used: vec![0; cfg.threads],
            sm_lines: Vec::with_capacity(cfg.threads * cfg.sm_per_thread),
            resources,
            rr_next: 0,
            events: Vec::new(),
            events_min: u64::MAX,
            wake: u64::MAX,
            sm_free: (0..cfg.threads * cfg.sm_per_thread).rev().collect(),
            mem_out: VecDeque::new(),
            responses: VecDeque::new(),
            stats: BankStats::default(),
            read_latency: (0..cfg.threads).map(|_| vpc_sim::Histogram::new()).collect(),
            cfg: cfg.clone(),
            bank_idx,
        }
    }

    /// Whether `thread`'s input port can take another request (crossbar
    /// port credit).
    #[inline]
    pub fn can_accept(&self, thread: ThreadId) -> bool {
        self.ports[thread.index()].input_occupancy() < self.cfg.input_queue_cap
    }

    /// Submits a request from the interconnect at `now`; it reaches the
    /// bank's port after the interconnect latency, and the bank wakes then.
    #[inline]
    pub fn submit(&mut self, req: CacheRequest, now: Cycle) {
        let ready_at = now + self.cfg.interconnect_latency;
        self.wake = self.wake.min(ready_at);
        self.ports[req.thread.index()].push(ready_at, req);
    }

    /// Advances the bank. Only even cycles act (the L2 runs at half core
    /// frequency), and only from the stored wake cycle on: before it, no
    /// completion is due, no resource can grant and no port can offer a
    /// new candidate.
    ///
    /// Called every cycle and usually a no-op, so that check is inlined
    /// into the caller.
    #[inline]
    pub fn tick(&mut self, now: Cycle) {
        if now >= self.wake && now.is_multiple_of(2) {
            self.tick_awake(now);
        }
    }

    /// The body of [`L2Bank::tick`] on an even cycle from the wake cycle
    /// on. A tick that admitted a request did not visit the ports after
    /// the round-robin winner, so it wakes on the next cycle; one that
    /// admitted nothing visited every port and sleeps until
    /// [`L2Bank::next_wake`].
    #[inline(never)]
    fn tick_awake(&mut self, now: Cycle) {
        self.process_events(now);
        let admitted = self.controller_intake(now);
        self.grant(now);
        self.wake = if admitted { now + 1 } else { self.next_wake() };
    }

    /// The first cycle a tick can act after a tick that admitted nothing:
    /// the earliest due completion or port wake. A candidate blocked by a
    /// full state-machine quota or a line conflict is freed only by a
    /// completion. A resource with a request pending is busy after the
    /// tick, and its last grant's completion is due exactly when it frees,
    /// so `events_min` covers the next grant too.
    fn next_wake(&self) -> Cycle {
        self.ports.iter().map(ThreadPort::next_wake).fold(self.events_min, Cycle::min)
    }

    /// Delivers a memory fetch completion for `token`, the fetching state
    /// machine's slot.
    ///
    /// # Panics
    ///
    /// Panics if the token does not match an outstanding fetch.
    pub fn on_mem_response(&mut self, token: u64, now: Cycle) {
        let sm_idx = token as usize;
        let sm = self
            .sms
            .get_mut(sm_idx)
            .and_then(Option::as_mut)
            .filter(|sm| sm.fetching)
            .expect("memory response matches an outstanding fetch");
        sm.fetching = false;
        self.wake = self.wake.min(now);
        // Fill parts: the tag update, the data-array line write, and (reads)
        // the direct-from-memory bus return.
        sm.fill_parts = if sm.kind.is_read() { 3 } else { 2 };
        let sm = *sm;
        self.request(sm_idx, &sm, Step::TagFill, now);
        self.request(sm_idx, &sm, Step::DataFill, now);
        if sm.kind.is_read() {
            self.request(sm_idx, &sm, Step::BusFill, now);
        }
        // The line was installed (reserved) at miss time; now make it
        // MRU and, for write-allocates, dirty.
        let set = self.cfg.set_of(sm.line);
        if let Some(way) = self.sets[set].lookup(sm.line) {
            self.sets[set].touch(way, now);
            if !sm.kind.is_read() {
                self.sets[set].mark_dirty(way);
            }
        }
    }

    /// Next memory request to forward to the memory controller.
    pub fn peek_mem_request(&self) -> Option<&MemRequest> {
        self.mem_out.front()
    }

    /// Removes the request returned by [`L2Bank::peek_mem_request`].
    pub fn pop_mem_request(&mut self) -> Option<MemRequest> {
        self.mem_out.pop_front()
    }

    /// Pops the next response whose critical word has reached the core.
    pub fn pop_response(&mut self, now: Cycle) -> Option<CacheResponse> {
        if self.responses.front().is_some_and(|&(at, _)| at <= now) {
            self.responses.pop_front().map(|(_, r)| r)
        } else {
            None
        }
    }

    /// The cycle the oldest queued response reaches its core (`u64::MAX`
    /// when none is queued). Responses queue in the order they mature.
    pub(crate) fn next_response_at(&self) -> Cycle {
        self.responses.front().map_or(u64::MAX, |&(at, _)| at)
    }

    /// Whether the bank holds no work at all.
    pub fn is_idle(&self) -> bool {
        self.sm_lines.is_empty()
            && self.ports.iter().all(ThreadPort::is_empty)
            && self.mem_out.is_empty()
            && self.responses.is_empty()
            && self.events.is_empty()
    }

    /// Transaction counters.
    pub fn stats(&self) -> BankStats {
        self.stats
    }

    /// Store-gathering statistics for `thread`'s port.
    pub fn port_stats(&self, thread: ThreadId) -> SgbStats {
        self.ports[thread.index()].stats()
    }

    /// `thread`'s read-latency histogram (controller intake to critical
    /// word), covering hits and misses.
    pub fn read_latency(&self, thread: ThreadId) -> &vpc_sim::Histogram {
        &self.read_latency[thread.index()]
    }

    /// Empties every thread's read-latency histogram, so that it covers
    /// only the reads that complete from now on.
    pub fn reset_read_latency(&mut self) {
        self.read_latency.iter_mut().for_each(|h| *h = vpc_sim::Histogram::new());
    }

    /// Data-array busy cycles attributable to `thread`.
    pub fn thread_data_busy(&self, thread: ThreadId) -> u64 {
        self.resources[DATA].thread_busy_cycles(thread)
    }

    /// Busy cycles of the tag array, data array and data bus.
    pub fn busy_cycles(&self) -> [u64; 3] {
        self.resources.each_ref().map(ArbitratedResource::busy_cycles)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn live_sm(&mut self, sm_idx: usize) -> &mut Sm {
        self.sms[sm_idx].as_mut().expect("state machine is live")
    }

    fn free_sm(&mut self, sm_idx: usize) {
        if let Some(sm) = self.sms[sm_idx].take() {
            self.sm_used[sm.thread.index()] -= 1;
            self.sm_free.push(sm_idx);
            let pos = self.sm_lines.iter().position(|&l| l == sm.line).expect("live SM line");
            self.sm_lines.swap_remove(pos);
        }
    }

    /// Installs `sm` in a free SM slot and returns the slot.
    ///
    /// # Panics
    ///
    /// Panics if the pool is exhausted (the caller's per-thread quota
    /// check guarantees a free slot).
    fn alloc_sm(&mut self, sm: Sm) -> usize {
        let sm_idx = self.sm_free.pop().expect("SM pool has a free slot");
        self.sms[sm_idx] = Some(sm);
        self.sm_used[sm.thread.index()] += 1;
        self.sm_lines.push(sm.line);
        sm_idx
    }

    /// Enqueues `sm`'s `step` on the resource it arbitrates for.
    fn request(&mut self, sm_idx: usize, sm: &Sm, step: Step, now: Cycle) {
        let (kind, service) = match step {
            Step::TagLookup | Step::TagVictim | Step::TagFill => (sm.kind, self.cfg.tag_latency),
            Step::DataHit if sm.kind.is_read() => (sm.kind, self.cfg.data_latency),
            Step::DataHit => (sm.kind, self.cfg.write_latency()),
            Step::DataCastout => (AccessKind::Read, self.cfg.data_latency),
            Step::DataFill => (AccessKind::Write, self.cfg.data_latency),
            Step::BusHit | Step::BusFill => (AccessKind::Read, self.cfg.bus_latency),
        };
        let req = ArbRequest::new(step.id(sm_idx), sm.thread, kind, service);
        self.resources[step.resource()].enqueue(req, now);
    }

    fn process_events(&mut self, now: Cycle) {
        if self.events_min > now {
            return;
        }
        // The swap_remove scan order is load-bearing: same-cycle
        // completions are handled in the order the swaps produce, and that
        // order is observable downstream (FCFS arbitration, `mem_out`
        // order). Keep the legacy scan; the cached minimum above makes the
        // common nothing-due tick O(1), and the new minimum falls out of
        // the same pass: every surviving event is examined exactly once
        // (swap_remove only pulls not-yet-visited elements forward).
        let mut min = u64::MAX;
        let mut i = 0;
        while i < self.events.len() {
            if self.events[i].0 <= now {
                let (_, sm_idx, step) = self.events.swap_remove(i);
                self.complete(sm_idx, step, now);
            } else {
                min = min.min(self.events[i].0);
                i += 1;
            }
        }
        self.events_min = min;
    }

    fn complete(&mut self, sm_idx: usize, step: Step, now: Cycle) {
        let sm = self.sms[sm_idx].expect("completion for live SM");
        match step {
            Step::TagLookup => self.finish_tag_lookup(sm_idx, sm, now),
            Step::DataCastout => {
                self.stats.castouts.inc();
                let victim = sm.castout.expect("castout victim recorded at miss");
                self.send_to_memory(sm_idx, &sm, victim, AccessKind::Write);
                self.request(sm_idx, &sm, Step::TagVictim, now);
            }
            Step::TagVictim => {
                self.live_sm(sm_idx).fetching = true;
                self.send_to_memory(sm_idx, &sm, sm.line, AccessKind::Read);
            }
            // Read data goes through the read-claim queue onto the bus.
            Step::DataHit if sm.kind.is_read() => self.request(sm_idx, &sm, Step::BusHit, now),
            // A write hit is complete once the ECC read-merge-write ends.
            Step::DataHit | Step::BusHit => self.free_sm(sm_idx),
            Step::TagFill | Step::DataFill | Step::BusFill => {
                if sm.fill_parts <= 1 {
                    self.free_sm(sm_idx);
                } else {
                    self.live_sm(sm_idx).fill_parts -= 1;
                }
            }
        }
    }

    fn finish_tag_lookup(&mut self, sm_idx: usize, sm: Sm, now: Cycle) {
        let set = self.cfg.set_of(sm.line);
        let way = self.sets[set].lookup(sm.line);
        let hit = way.is_some();
        trace::emit(|| TraceEvent {
            at: now,
            data: EventData::BankAccess {
                bank: self.bank_idx as u16,
                thread: sm.thread,
                line: sm.line,
                kind: sm.kind,
                hit,
            },
        });
        if let Some(way) = way {
            self.sets[set].touch(way, now);
            if sm.kind.is_read() {
                self.stats.read_hits.inc();
            } else {
                self.stats.write_hits.inc();
                self.sets[set].mark_dirty(way);
            }
            self.request(sm_idx, &sm, Step::DataHit, now);
            return;
        }
        // Miss: reserve the victim way immediately (the line is installed
        // now so conflict checks and later requests see it; it becomes
        // usable when the fill completes, which same-line conflicts block
        // on anyway).
        if sm.kind.is_read() {
            self.stats.read_misses.inc();
        } else {
            self.stats.write_misses.inc();
        }
        let way = self.sets[set].find_way_for(sm.line, sm.thread, self.policy.as_ref());
        let evicted = self.sets[set].fill(way, sm.line, sm.thread, now);
        if let Some(ev) = &evicted {
            trace::emit(|| TraceEvent {
                at: now,
                data: EventData::Evict {
                    bank: self.bank_idx as u16,
                    thread: sm.thread,
                    line: ev.line,
                    victim: ev.owner,
                    dirty: ev.dirty,
                },
            });
        }
        match evicted {
            Some(ev) if ev.dirty => {
                // Castout: read the dirty victim out of the data array.
                self.live_sm(sm_idx).castout = Some(ev.line);
                self.request(sm_idx, &sm, Step::DataCastout, now);
            }
            _ => self.request(sm_idx, &sm, Step::TagVictim, now),
        }
    }

    /// Queues state machine `sm_idx`'s memory request. Its token is the
    /// slot; the fetched line routes the response back to this bank.
    fn send_to_memory(&mut self, sm_idx: usize, sm: &Sm, line: LineAddr, kind: AccessKind) {
        let token = sm_idx as u64;
        self.mem_out.push_back(MemRequest { thread: sm.thread, line, kind, token });
    }

    /// Admits at most one request into the controller pipeline (one per
    /// L2 cycle) and returns whether it did.
    fn controller_intake(&mut self, now: Cycle) -> bool {
        let threads = self.cfg.threads;
        let mut next = self.rr_next;
        for _ in 0..threads {
            let t = next;
            next = if t + 1 == threads { 0 } else { t + 1 };
            // An empty port neither pumps nor offers a candidate.
            if self.ports[t].is_empty() {
                continue;
            }
            self.ports[t].pump(now);
            let sm_full = self.sm_used[t] >= self.cfg.sm_per_thread;
            // A row-inverted port's peek only offers its oldest store, so
            // with no free state machine it has nothing to do.
            if sm_full && self.ports[t].row_inverted() {
                continue;
            }
            let Some(candidate) = self.ports[t].peek_candidate(now) else { continue };
            if sm_full {
                continue;
            }
            // Consistency conflict check: no active SM may work on the same
            // line (also merges secondary misses by making them wait).
            if self.sm_lines.contains(&candidate.request.line) {
                continue;
            }
            let req = candidate.request;
            let sm = Sm {
                thread: req.thread,
                line: req.line,
                kind: req.kind,
                token: req.token,
                started: now,
                castout: None,
                fetching: false,
                fill_parts: 0,
            };
            let sm_idx = self.alloc_sm(sm);
            self.ports[t].take_candidate(&candidate, now);
            self.request(sm_idx, &sm, Step::TagLookup, now);
            self.rr_next = next;
            return true;
        }
        false
    }

    /// Grants the tag array, then the data array, then the data bus; each
    /// grants at most once per free period (busy-until blocks the rest).
    fn grant(&mut self, now: Cycle) {
        for r in [TAG, DATA, BUS] {
            let Some(granted) = self.resources[r].try_grant(now) else { continue };
            let (sm_idx, step) = Step::decode(granted.id);
            if r == BUS {
                let sm = self.sms[sm_idx].expect("bus grant for live SM");
                // The requesting core receives the critical word shortly
                // after the transfer starts.
                let ready = now + self.cfg.critical_word_latency;
                self.read_latency[sm.thread.index()].record(ready - sm.started);
                self.responses.push_back((
                    ready,
                    CacheResponse { thread: sm.thread, line: sm.line, token: sm.token },
                ));
            }
            let done = now + granted.service_time;
            self.events_min = self.events_min.min(done);
            self.events.push((done, sm_idx, step));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpc_arbiters::ArbiterPolicy;
    use vpc_sim::check::{self, gen, Config};
    use vpc_sim::{ensure, ensure_eq};

    /// The bank's `Debug` rendering without its `wake` field.
    fn without_wake(bank: &L2Bank) -> String {
        let s = format!("{bank:?}");
        let start = s.find("wake: ").expect("the bank renders its wake");
        let len = s[start..].find(", ").expect("wake is not the last field") + 2;
        format!("{}{}", &s[..start], &s[start + len..])
    }

    /// `L2Bank::tick` on an odd cycle changes nothing, even with arrivals
    /// ready, state machines live and completions due. `SharedL2::tick`
    /// relies on this when it ticks the banks on even cycles only.
    #[test]
    fn odd_cycle_ticks_change_nothing() {
        let mut cfg = L2Config::table1(2, ArbiterPolicy::Fcfs);
        cfg.total_sets = 64;
        let mut bank = L2Bank::new(&cfg, 0);
        let mut token = 0;
        for now in 0..400u64 {
            let thread = ThreadId((now % 2) as u8);
            if now % 3 == 0 && bank.can_accept(thread) {
                token += 1;
                let kind = if now % 4 == 0 { AccessKind::Write } else { AccessKind::Read };
                let line = LineAddr((now % 40) * cfg.banks as u64);
                bank.submit(CacheRequest { thread, line, kind, token }, now);
            }
            if now % 2 == 1 {
                let before = format!("{bank:?}");
                bank.tick(now);
                assert_eq!(format!("{bank:?}"), before, "odd cycle {now}");
            } else {
                bank.tick(now);
            }
        }
        assert!(bank.stats().read_misses.get() > 0, "the bank did work on even cycles");
    }

    /// The inlined no-op check of `tick` changes nothing: every tick
    /// before the stored wake cycle leaves the bank as it was, both while
    /// a request crosses the interconnect and while a miss waits on
    /// memory.
    #[test]
    fn ticks_before_wake_change_nothing() {
        let mut cfg = L2Config::table1(1, ArbiterPolicy::Fcfs);
        cfg.total_sets = 64;
        cfg.interconnect_latency = 9;
        let mut bank = L2Bank::new(&cfg, 0);
        let line = LineAddr(4 * cfg.banks as u64);
        let req = CacheRequest { thread: ThreadId(0), line, kind: AccessKind::Read, token: 1 };
        bank.submit(req, 0);
        bank.tick(0);
        assert_eq!(bank.wake, 9, "the request reaches the port at cycle 9");
        let before = format!("{bank:?}");
        for now in 1..10 {
            bank.tick(now);
            assert_eq!(format!("{bank:?}"), before, "tick at {now} before the arrival");
        }
        bank.tick(10);
        assert_ne!(
            format!("{bank:?}"),
            before,
            "the first even cycle from cycle 9 admits the read"
        );
        // The read misses: once the fetch is sent nothing is due.
        let mut sent = 11;
        while bank.peek_mem_request().is_none() {
            bank.tick(sent);
            sent += 1;
        }
        let fetch = bank.pop_mem_request().expect("the miss fetches its line");
        assert_eq!(bank.wake, u64::MAX, "a bank waiting on memory alone sleeps");
        let before = format!("{bank:?}");
        for now in sent..sent + 500 {
            bank.tick(now);
            assert_eq!(format!("{bank:?}"), before, "tick at {now} while waiting on memory");
        }
        bank.on_mem_response(fetch.token, sent + 500);
        assert_eq!(bank.wake, sent + 500, "the response wakes the bank");
    }

    /// A second response to a fetch panics, though its state machine is
    /// still live and filling.
    #[test]
    #[should_panic(expected = "memory response matches an outstanding fetch")]
    fn response_without_outstanding_fetch_panics() {
        let mut cfg = L2Config::table1(1, ArbiterPolicy::Fcfs);
        cfg.total_sets = 64;
        let mut bank = L2Bank::new(&cfg, 0);
        let line = LineAddr(4 * cfg.banks as u64);
        bank.submit(
            CacheRequest { thread: ThreadId(0), line, kind: AccessKind::Read, token: 1 },
            0,
        );
        let mut now = 0;
        while bank.peek_mem_request().is_none() {
            bank.tick(now);
            now += 1;
        }
        let fetch = bank.pop_mem_request().expect("the miss fetches its line");
        bank.on_mem_response(fetch.token, now);
        assert!(!bank.is_idle(), "the state machine is filling");
        bank.on_mem_response(fetch.token, now);
    }

    /// The wake guard skips only ticks that would act on nothing: on
    /// random loads and stores from 1–4 threads over a few conflicting
    /// lines, with quiet spells for idle drains and memory answering after
    /// a fixed latency, a bank ticked through `tick` gives the same
    /// responses at the same cycles, the same memory requests in the same
    /// order, the same stats and the same state (apart from `wake`) as one
    /// whose `tick_awake` runs on every even cycle.
    #[test]
    fn guarded_ticks_match_ticking_awake_every_bank_cycle() {
        check::forall(
            "guarded_ticks_match_ticking_awake_every_bank_cycle",
            Config::cases(32),
            |rng| {
                let threads = gen::range(rng, 1, 4) as usize;
                let arbiter = match rng.below(3) {
                    0 => ArbiterPolicy::Fcfs,
                    1 => ArbiterPolicy::RowFcfs,
                    _ => ArbiterPolicy::vpc_equal(threads),
                };
                let mut cfg = L2Config::table1(threads, arbiter);
                cfg.banks = 1;
                cfg.total_sets = 4;
                cfg.ways = 8;
                cfg.capacity = CapacityPolicy::Lru;
                cfg.sm_per_thread = gen::range(rng, 1, 4) as usize;
                cfg.sgb_idle_drain = gen::range(rng, 10, 300);
                let lines = gen::range(rng, 4, 64);
                let mem_latency = gen::range(rng, 1, 200);
                let mut guarded = L2Bank::new(&cfg, 0);
                let mut awake = L2Bank::new(&cfg, 0);
                // Memory responses in flight: (due cycle, token).
                let mut fetches: VecDeque<(Cycle, u64)> = VecDeque::new();
                let (mut token, mut busy, mut spell_end) = (0, true, 0);
                for now in 0..40_000u64 {
                    if now >= 5_000 && guarded.is_idle() && awake.is_idle() {
                        break;
                    }
                    if now >= spell_end {
                        busy = !busy && now < 5_000;
                        spell_end = now + gen::range(rng, 1, 600);
                    }
                    if busy && rng.chance(0.2) {
                        token += 1;
                        let req = gen::cache_request(rng, threads, lines, token);
                        ensure_eq!(guarded.can_accept(req.thread), awake.can_accept(req.thread));
                        if guarded.can_accept(req.thread) {
                            guarded.submit(req, now);
                            awake.submit(req, now);
                        }
                    }
                    guarded.tick(now);
                    if now.is_multiple_of(2) {
                        awake.tick_awake(now);
                    }
                    while let Some(req) = guarded.pop_mem_request() {
                        ensure_eq!(awake.pop_mem_request(), Some(req), "memory request at {now}");
                        if req.kind.is_read() {
                            fetches.push_back((now + mem_latency, req.token));
                        }
                    }
                    ensure_eq!(awake.pop_mem_request(), None, "memory request at {now}");
                    while fetches.front().is_some_and(|&(due, _)| due == now) {
                        let (_, token) = fetches.pop_front().expect("a fetch is due");
                        guarded.on_mem_response(token, now);
                        awake.on_mem_response(token, now);
                    }
                    while let Some(resp) = guarded.pop_response(now) {
                        ensure_eq!(awake.pop_response(now), Some(resp), "response at {now}");
                    }
                    ensure_eq!(awake.pop_response(now), None, "response at {now}");
                    if now % 512 == 0 {
                        ensure_eq!(without_wake(&guarded), without_wake(&awake), "state at {now}");
                    }
                }
                ensure_eq!(format!("{:?}", guarded.stats()), format!("{:?}", awake.stats()));
                ensure_eq!(without_wake(&guarded), without_wake(&awake), "final states diverged");
                ensure!(guarded.is_idle(), "the banks drained");
                Ok(())
            },
        );
    }
}

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
//! even processor cycles.

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
    /// Free-slot bitmask over `sms` (bit set = slot free), replacing the
    /// linear `position(Option::is_none)` scan with an O(1) lowest-bit
    /// lookup that allocates the same lowest free index.
    sm_free: Vec<u64>,
    mem_out: VecDeque<MemRequest>,
    responses: VecDeque<(Cycle, CacheResponse)>,
    pending_fetches: Vec<(u64, usize)>,
    next_mem_token: u64,
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
            sm_free: {
                let n = cfg.threads * cfg.sm_per_thread;
                let mut words = vec![!0u64; n.div_ceil(64)];
                if !n.is_multiple_of(64) {
                    *words.last_mut().expect("at least one word") = (1u64 << (n % 64)) - 1;
                }
                words
            },
            mem_out: VecDeque::new(),
            responses: VecDeque::new(),
            pending_fetches: Vec::new(),
            next_mem_token: 0,
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
    /// bank's port after the interconnect latency.
    #[inline]
    pub fn submit(&mut self, req: CacheRequest, now: Cycle) {
        self.ports[req.thread.index()].push(now + self.cfg.interconnect_latency, req);
    }

    /// Advances the bank. Only even cycles act (the L2 runs at half core
    /// frequency).
    pub fn tick(&mut self, now: Cycle) {
        if !now.is_multiple_of(2) {
            return;
        }
        self.process_events(now);
        self.controller_intake(now);
        self.grant(now);
    }

    /// Delivers a memory fetch completion for `token`.
    ///
    /// # Panics
    ///
    /// Panics if the token does not match an outstanding fetch.
    pub fn on_mem_response(&mut self, token: u64, now: Cycle) {
        // Tokens are issued monotonically per bank, so `pending_fetches`
        // stays sorted by construction and a binary search suffices.
        let idx = self
            .pending_fetches
            .binary_search_by_key(&token, |&(t, _)| t)
            .expect("memory response matches an outstanding fetch");
        let (_, sm_idx) = self.pending_fetches.remove(idx);
        let sm = self.live_sm(sm_idx);
        assert_eq!(sm.fill_parts, 0, "fetching SM is not already filling");
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

    /// Next memory request to forward, if the controller can accept it.
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

    /// Data-array busy cycles attributable to `thread`.
    pub fn thread_data_busy(&self, thread: ThreadId) -> u64 {
        self.resources[DATA].thread_busy_cycles(thread)
    }

    /// Busy-cycle meters for the tag array, data array and data bus.
    pub fn meters(&self) -> [vpc_sim::UtilizationMeter; 3] {
        self.resources.each_ref().map(ArbitratedResource::meter)
    }

    /// Looks a line up without side effects (for tests and debugging).
    pub fn probe(&self, line: LineAddr) -> bool {
        self.sets[self.cfg.set_of(line)].lookup(line).is_some()
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
            self.sm_free[sm_idx / 64] |= 1 << (sm_idx % 64);
            let pos = self.sm_lines.iter().position(|&l| l == sm.line).expect("live SM line");
            self.sm_lines.swap_remove(pos);
        }
    }

    /// Installs `sm` in the lowest free SM slot (a lowest-set-bit lookup in
    /// the free mask) and returns the slot.
    ///
    /// # Panics
    ///
    /// Panics if the pool is exhausted (the caller's per-thread quota
    /// check guarantees a free slot).
    fn alloc_sm(&mut self, sm: Sm) -> usize {
        let w = self.sm_free.iter().position(|&word| word != 0).expect("SM pool has a free slot");
        let word = &mut self.sm_free[w];
        let sm_idx = w * 64 + word.trailing_zeros() as usize;
        *word &= *word - 1;
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
                self.send_to_memory(sm.thread, victim, AccessKind::Write);
                self.request(sm_idx, &sm, Step::TagVictim, now);
            }
            Step::TagVictim => {
                let token = self.send_to_memory(sm.thread, sm.line, AccessKind::Read);
                self.pending_fetches.push((token, sm_idx));
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

    /// Queues a memory request and returns its token (the bank index in
    /// the top bits routes the response back).
    fn send_to_memory(&mut self, thread: ThreadId, line: LineAddr, kind: AccessKind) -> u64 {
        let token = ((self.bank_idx as u64) << 48) | self.next_mem_token;
        self.next_mem_token += 1;
        self.mem_out.push_back(MemRequest { thread, line, kind, token });
        token
    }

    fn controller_intake(&mut self, now: Cycle) {
        // One request enters the controller pipeline per L2 cycle.
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
                fill_parts: 0,
            };
            let sm_idx = self.alloc_sm(sm);
            self.ports[t].take_candidate(&candidate, now);
            self.request(sm_idx, &sm, Step::TagLookup, now);
            self.rr_next = next;
            break;
        }
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
}

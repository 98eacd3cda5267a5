//! One shared L2 cache bank (paper Figure 2b).
//!
//! A bank contains, per thread, an input port with a store gathering buffer;
//! a pool of cache controller state machines (8 per thread in Table 1); and
//! three arbitrated shared resources — the tag array, the data array, and
//! the bank's data bus. The controller round-robins over threads' ports,
//! conflict-checks the selected request against active state machines (so
//! reordering downstream cannot violate consistency, §4.1.1), allocates a
//! state machine, and the request then arbitrates for the tag array, then
//! (hits) the data array, then (reads) the data bus. Misses evict/castout,
//! fetch from memory, and fill; fill data returns to the processor directly
//! over the data bus while the array is updated.
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

/// Phase codes packed into arbitration request ids (`id = sm << 3 | code`).
mod phase {
    pub const TAG_LOOKUP: u64 = 0;
    pub const TAG_VICTIM: u64 = 1;
    pub const TAG_FILL: u64 = 2;
    pub const DATA_HIT: u64 = 0;
    pub const DATA_CASTOUT: u64 = 1;
    pub const DATA_FILL: u64 = 2;
    pub const BUS_HIT: u64 = 0;
    pub const BUS_FILL: u64 = 1;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SmState {
    /// Waiting for (or accessing) the tag array for the initial lookup.
    TagLookup,
    /// Hit: waiting for / accessing the data array.
    DataAccess,
    /// Read hit: waiting for / on the data bus.
    BusTransfer,
    /// Miss with a dirty victim: reading the victim line out of the data
    /// array for castout.
    Castout,
    /// Miss: victim/state tag update access.
    VictimTag,
    /// Miss: fetch outstanding in the memory system.
    MemWait,
    /// Fill in progress; counts outstanding fill parts (tag update, data
    /// write, bus return).
    Fill { parts: u8 },
}

#[derive(Debug, Clone, Copy)]
struct Sm {
    thread: ThreadId,
    line: LineAddr,
    kind: AccessKind,
    token: u64,
    /// Controller intake time, for read-latency accounting.
    started: Cycle,
    state: SmState,
}

/// What finished when a scheduled resource access completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Completion {
    TagLookup,
    DataHit,
    Bus,
    Castout,
    VictimTag,
    FillPart,
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
    tag: ArbitratedResource,
    data: ArbitratedResource,
    bus: ArbitratedResource,
    rr_next: usize,
    events: Vec<(Cycle, usize, Completion)>,
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
    castout_lines: Vec<Option<LineAddr>>,
    next_mem_token: u64,
    stats: BankStats,
    /// Per-thread read latency (controller intake to critical word).
    read_latency: Vec<vpc_sim::Histogram>,
}

impl L2Bank {
    /// Creates bank `bank_idx` of a cache described by `cfg`.
    pub fn new(cfg: &L2Config, bank_idx: usize) -> L2Bank {
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
        L2Bank {
            sets: (0..cfg.sets_per_bank()).map(|_| TagSet::new(cfg.ways)).collect(),
            policy,
            ports,
            sms: vec![None; cfg.threads * cfg.sm_per_thread],
            castout_lines: vec![None; cfg.threads * cfg.sm_per_thread],
            sm_used: vec![0; cfg.threads],
            tag: {
                let mut r = ArbitratedResource::new(cfg.resource_arbiters().0.build(cfg.threads));
                r.set_trace_id(trace::ResourceId::tag_array(bank_idx as u16));
                r
            },
            data: {
                let mut r = ArbitratedResource::new(cfg.resource_arbiters().1.build(cfg.threads));
                r.set_trace_id(trace::ResourceId::data_array(bank_idx as u16));
                r
            },
            bus: {
                let mut r = ArbitratedResource::new(cfg.resource_arbiters().2.build(cfg.threads));
                r.set_trace_id(trace::ResourceId::data_bus(bank_idx as u16));
                r
            },
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
    pub fn can_accept(&self, thread: ThreadId) -> bool {
        self.ports[thread.index()].input_occupancy() < self.cfg.input_queue_cap
    }

    /// Submits a request from the interconnect at `now`; it reaches the
    /// bank's port after the interconnect latency.
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
        self.grant_tag(now);
        self.grant_data(now);
        self.grant_bus(now);
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
        let sm = self.sms[sm_idx].expect("fetching SM is live");
        debug_assert_eq!(sm.state, SmState::MemWait);

        // Fill parts: optional tag update, the data-array line write, and
        // (reads) the direct-from-memory bus return.
        let mut parts = 0u8;
        if self.cfg.extra_tag_accesses_per_miss >= 1 {
            self.tag.enqueue(
                ArbRequest::new(
                    arb_id(sm_idx, phase::TAG_FILL),
                    sm.thread,
                    sm.kind,
                    self.cfg.tag_latency,
                ),
                now,
            );
            parts += 1;
        }
        // Full-line fill write: a single data-array access (fresh ECC).
        self.data.enqueue(
            ArbRequest::new(
                arb_id(sm_idx, phase::DATA_FILL),
                sm.thread,
                AccessKind::Write,
                self.cfg.data_latency,
            ),
            now,
        );
        parts += 1;
        if sm.kind.is_read() {
            self.bus.enqueue(
                ArbRequest::new(
                    arb_id(sm_idx, phase::BUS_FILL),
                    sm.thread,
                    AccessKind::Read,
                    self.cfg.bus_latency,
                ),
                now,
            );
            parts += 1;
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
        self.set_state(sm_idx, SmState::Fill { parts });
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

    /// Whether the bank holds no work at all.
    pub fn is_idle(&self) -> bool {
        self.sms.iter().all(Option::is_none)
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
        self.data.thread_busy_cycles(thread)
    }

    /// Busy-cycle meters for (tag array, data array, data bus).
    pub fn meters(
        &self,
    ) -> (vpc_sim::UtilizationMeter, vpc_sim::UtilizationMeter, vpc_sim::UtilizationMeter) {
        (self.tag.meter(), self.data.meter(), self.bus.meter())
    }

    /// Looks a line up without side effects (for tests and debugging).
    pub fn probe(&self, line: LineAddr) -> bool {
        self.sets[self.cfg.set_of(line)].lookup(line).is_some()
    }

    /// Reconfigures `thread`'s bandwidth share on all three shared
    /// resources (the VPC control registers). Returns `false` if the
    /// configured arbiters do not support shares.
    pub fn reconfigure_bandwidth(&mut self, thread: ThreadId, share: vpc_sim::Share) -> bool {
        let a = self.tag.arbiter_mut().set_share(thread, share);
        let b = self.data.arbiter_mut().set_share(thread, share);
        let c = self.bus.arbiter_mut().set_share(thread, share);
        a && b && c
    }

    /// Reconfigures `thread`'s way quota. Returns `false` under plain LRU.
    pub fn reconfigure_capacity(&mut self, thread: ThreadId, ways: u32) -> bool {
        self.policy.reconfigure_quota(thread, ways)
    }

    /// The earliest cycle at which this bank can change observable state
    /// absent new [`L2Bank::submit`] / [`L2Bank::on_mem_response`] input:
    /// a scheduled completion, a queued response maturing, a resource
    /// grant, a port arrival, or a controller intake the bank would
    /// accept. `None` when nothing is pending at any future cycle.
    ///
    /// Bank-cycle terms round up to even (the bank acts at half core
    /// frequency); response maturation does not (responses are polled
    /// every core cycle). Conservative by design: the returned cycle is
    /// never *later* than a real state change (see `DESIGN.md` §10) — an
    /// early wake-up is a harmless no-op tick.
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        let horizon = now + 1;
        let even = |c: Cycle| c + (c & 1);
        // A matured response is deliverable on the very next cycle — the
        // only term not rounded to a bank (even) cycle, so check it first
        // and then early-return whenever a term hits the bank-cycle floor:
        // no later check can improve on it.
        if let Some(&(at, _)) = self.responses.front() {
            if at <= horizon {
                return Some(horizon);
            }
        }
        let floor = even(horizon);
        let mut best: Cycle = u64::MAX;
        if let Some(&(at, _)) = self.responses.front() {
            best = best.min(at);
        }
        if self.events_min != u64::MAX {
            best = best.min(even(self.events_min.max(horizon)));
        }
        for r in [&self.tag, &self.data, &self.bus] {
            if let Some(c) = r.next_activity(now) {
                best = best.min(even(c));
            }
        }
        if best == floor {
            return Some(floor);
        }
        for (t, port) in self.ports.iter().enumerate() {
            if let Some(ready) = port.next_arrival() {
                best = best.min(even(ready.max(horizon)));
            }
            if port.peek_would_mutate() {
                // The naive loop's next bank cycle performs the mutating
                // peek (partial-flush marking), so it is real activity.
                best = best.min(even(horizon));
            }
            if let Some((c, line)) = port.next_candidate_line(horizon) {
                // The candidate only constitutes activity if intake would
                // accept it; a blocked candidate unblocks via events or
                // new input, which the other terms cover.
                if self.sm_used[t] < self.cfg.sm_per_thread
                    && !self.sms.iter().flatten().any(|sm| sm.line == line)
                {
                    best = best.min(even(c));
                }
            }
            if best == floor {
                return Some(floor);
            }
        }
        (best != u64::MAX).then_some(best)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn set_state(&mut self, sm_idx: usize, state: SmState) {
        if let Some(sm) = self.sms[sm_idx].as_mut() {
            sm.state = state;
        }
    }

    fn free_sm(&mut self, sm_idx: usize) {
        if let Some(sm) = self.sms[sm_idx].take() {
            self.sm_used[sm.thread.index()] -= 1;
            self.sm_free[sm_idx / 64] |= 1 << (sm_idx % 64);
        }
    }

    /// Allocates the lowest free SM slot — the same index the former
    /// `position(Option::is_none)` scan produced, found in O(1).
    ///
    /// # Panics
    ///
    /// Panics if the pool is exhausted (the caller's per-thread quota
    /// check guarantees a free slot).
    fn alloc_sm(&mut self) -> usize {
        for (w, word) in self.sm_free.iter_mut().enumerate() {
            if *word != 0 {
                let bit = word.trailing_zeros() as usize;
                *word &= *word - 1;
                return w * 64 + bit;
            }
        }
        panic!("SM pool has a free slot");
    }

    fn schedule(&mut self, at: Cycle, sm_idx: usize, what: Completion) {
        self.events_min = self.events_min.min(at);
        self.events.push((at, sm_idx, what));
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
                let (_, sm_idx, what) = self.events.swap_remove(i);
                self.handle_completion(sm_idx, what, now);
            } else {
                min = min.min(self.events[i].0);
                i += 1;
            }
        }
        self.events_min = min;
    }

    fn handle_completion(&mut self, sm_idx: usize, what: Completion, now: Cycle) {
        let sm = self.sms[sm_idx].expect("completion for live SM");
        match what {
            Completion::TagLookup => self.finish_tag_lookup(sm_idx, sm, now),
            Completion::DataHit => {
                if sm.kind.is_read() {
                    // Read data goes through the read-claim queue onto the bus.
                    self.bus.enqueue(
                        ArbRequest::new(
                            arb_id(sm_idx, phase::BUS_HIT),
                            sm.thread,
                            AccessKind::Read,
                            self.cfg.bus_latency,
                        ),
                        now,
                    );
                    self.set_state(sm_idx, SmState::BusTransfer);
                } else {
                    // Write hit is complete once the ECC read-merge-write ends.
                    self.free_sm(sm_idx);
                }
            }
            Completion::Bus => self.free_sm(sm_idx),
            Completion::Castout => {
                self.stats.castouts.inc();
                let victim =
                    self.castout_lines[sm_idx].take().expect("castout line recorded at miss");
                let token = self.make_token();
                self.mem_out.push_back(MemRequest {
                    thread: sm.thread,
                    line: victim,
                    kind: AccessKind::Write,
                    token,
                });
                self.after_victim(sm_idx, sm, now);
            }
            Completion::VictimTag => self.issue_fetch(sm_idx, sm),
            Completion::FillPart => {
                if let SmState::Fill { parts } = sm.state {
                    if parts <= 1 {
                        self.free_sm(sm_idx);
                    } else {
                        self.set_state(sm_idx, SmState::Fill { parts: parts - 1 });
                    }
                }
            }
        }
    }

    fn finish_tag_lookup(&mut self, sm_idx: usize, sm: Sm, now: Cycle) {
        let set = self.cfg.set_of(sm.line);
        let hit = self.sets[set].lookup(sm.line).is_some();
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
        if let Some(way) = self.sets[set].lookup(sm.line) {
            // Hit.
            self.sets[set].touch(way, now);
            let service = if sm.kind.is_read() {
                self.stats.read_hits.inc();
                self.cfg.data_latency
            } else {
                self.stats.write_hits.inc();
                self.sets[set].mark_dirty(way);
                self.cfg.write_latency()
            };
            self.data.enqueue(
                ArbRequest::new(arb_id(sm_idx, phase::DATA_HIT), sm.thread, sm.kind, service),
                now,
            );
            self.set_state(sm_idx, SmState::DataAccess);
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
                self.data.enqueue(
                    ArbRequest::new(
                        arb_id(sm_idx, phase::DATA_CASTOUT),
                        sm.thread,
                        AccessKind::Read,
                        self.cfg.data_latency,
                    ),
                    now,
                );
                self.castout_lines[sm_idx] = Some(ev.line);
                self.set_state(sm_idx, SmState::Castout);
            }
            _ => self.after_victim(sm_idx, sm, now),
        }
    }

    fn after_victim(&mut self, sm_idx: usize, sm: Sm, now: Cycle) {
        if self.cfg.extra_tag_accesses_per_miss >= 2 {
            self.tag.enqueue(
                ArbRequest::new(
                    arb_id(sm_idx, phase::TAG_VICTIM),
                    sm.thread,
                    sm.kind,
                    self.cfg.tag_latency,
                ),
                now,
            );
            self.set_state(sm_idx, SmState::VictimTag);
        } else {
            self.issue_fetch(sm_idx, sm);
        }
    }

    fn issue_fetch(&mut self, sm_idx: usize, sm: Sm) {
        let token = self.make_token();
        self.mem_out.push_back(MemRequest {
            thread: sm.thread,
            line: sm.line,
            kind: AccessKind::Read,
            token,
        });
        self.pending_fetches.push((token, sm_idx));
        self.set_state(sm_idx, SmState::MemWait);
    }

    fn make_token(&mut self) -> u64 {
        let token = ((self.bank_idx as u64) << 48) | self.next_mem_token;
        self.next_mem_token += 1;
        token
    }

    fn controller_intake(&mut self, now: Cycle) {
        // One request enters the controller pipeline per L2 cycle.
        let threads = self.cfg.threads;
        for offset in 0..threads {
            let t = (self.rr_next + offset) % threads;
            self.ports[t].pump(now);
            let Some(candidate) = self.ports[t].peek_candidate(now) else { continue };
            if self.sm_used[t] >= self.cfg.sm_per_thread {
                continue;
            }
            let line = candidate.request.line;
            // Consistency conflict check: no active SM may work on the same
            // line (also merges secondary misses by making them wait).
            let conflict = self.sms.iter().flatten().any(|sm| sm.line == line);
            if conflict {
                continue;
            }
            let sm_idx = self.alloc_sm();
            let req = candidate.request;
            self.sms[sm_idx] = Some(Sm {
                thread: req.thread,
                line: req.line,
                kind: req.kind,
                token: req.token,
                started: now,
                state: SmState::TagLookup,
            });
            self.sm_used[t] += 1;
            self.ports[t].take_candidate(&candidate, now);
            self.tag.enqueue(
                ArbRequest::new(
                    arb_id(sm_idx, phase::TAG_LOOKUP),
                    req.thread,
                    req.kind,
                    self.cfg.tag_latency,
                ),
                now,
            );
            self.rr_next = (t + 1) % threads;
            break;
        }
    }

    fn grant_tag(&mut self, now: Cycle) {
        // At most one grant per free period; busy-until blocks the rest.
        if let Some(granted) = self.tag.try_grant(now) {
            let (sm_idx, code) = split_id(granted.id);
            let done = now + granted.service_time;
            let completion = match code {
                phase::TAG_LOOKUP => Completion::TagLookup,
                phase::TAG_VICTIM => Completion::VictimTag,
                phase::TAG_FILL => Completion::FillPart,
                _ => unreachable!("unknown tag phase"),
            };
            self.schedule(done, sm_idx, completion);
        }
    }

    fn grant_data(&mut self, now: Cycle) {
        if let Some(granted) = self.data.try_grant(now) {
            let (sm_idx, code) = split_id(granted.id);
            let done = now + granted.service_time;
            let completion = match code {
                phase::DATA_HIT => Completion::DataHit,
                phase::DATA_CASTOUT => Completion::Castout,
                phase::DATA_FILL => Completion::FillPart,
                _ => unreachable!("unknown data phase"),
            };
            self.schedule(done, sm_idx, completion);
        }
    }

    fn grant_bus(&mut self, now: Cycle) {
        if let Some(granted) = self.bus.try_grant(now) {
            let (sm_idx, code) = split_id(granted.id);
            let sm = self.sms[sm_idx].expect("bus grant for live SM");
            // The requesting core receives the critical word shortly after
            // the transfer starts.
            let ready = now + self.cfg.critical_word_latency;
            self.read_latency[sm.thread.index()].record(ready - sm.started);
            self.responses.push_back((
                ready,
                CacheResponse { thread: sm.thread, line: sm.line, token: sm.token },
            ));
            let done = now + granted.service_time;
            let completion = match code {
                phase::BUS_HIT => Completion::Bus,
                phase::BUS_FILL => Completion::FillPart,
                _ => unreachable!("unknown bus phase"),
            };
            self.schedule(done, sm_idx, completion);
        }
    }
}

fn arb_id(sm_idx: usize, code: u64) -> u64 {
    ((sm_idx as u64) << 3) | code
}

fn split_id(id: u64) -> (usize, u64) {
    ((id >> 3) as usize, id & 0x7)
}

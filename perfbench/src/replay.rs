//! Per-layer timing of the layers inside `SharedL2::tick`, which a run
//! cannot reach from outside: capture each layer's input stream with the
//! `vpc_sim::trace` recorder, then replay it through a fresh instance of
//! that layer's public API and time the calls.

use std::cell::Cell as Shared;
use std::collections::VecDeque;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use vpc::experiments::RunBudget;
use vpc::prelude::*;
use vpc_arbiters::{ArbRequest, ArbitratedResource};
use vpc_cache::L2Config;
use vpc_capacity::{ReplacementPolicy, TagSet, TrueLru, VpcCapacityManager};
use vpc_cpu::{Op, Workload};
use vpc_mem::{MemRequest, MemoryController};
use vpc_sim::trace::{self, EventData, ResourceKind};
use vpc_sim::{AccessKind, Cycle, LineAddr, MAX_THREADS};

use crate::grid::Cell;

/// Cycles recorded per recorder install; each chunk's log is folded into
/// the compact streams below before the next chunk runs.
const CHUNK: Cycle = 10_000;

/// Recorder capacity per chunk, far above what a chunk emits; anything
/// beyond it is counted in [`Capture::dropped`].
const CHUNK_CAPACITY: usize = 1 << 20;

/// One traced grant on an L2 resource.
#[derive(Debug, Clone, Copy)]
struct Grant {
    at: Cycle,
    thread: ThreadId,
    kind: AccessKind,
    service: u64,
    /// Threads left backlogged by this grant (`Defer` events), as a mask.
    deferred: u8,
}

/// One traced tag lookup.
#[derive(Debug, Clone, Copy)]
struct Access {
    at: Cycle,
    line: LineAddr,
    thread: ThreadId,
    kind: AccessKind,
    hit: bool,
}

/// A cell's captured layer inputs.
#[derive(Debug, Default)]
pub struct Capture {
    /// Grants per resource, indexed `bank * 3 + {tag, data, bus}`.
    grants: Vec<Vec<Grant>>,
    /// Tag lookups per bank.
    accesses: Vec<Vec<Access>>,
    /// DRAM issues in order.
    dram: Vec<(Cycle, MemRequest)>,
    /// `Defer` events seen.
    pub defers: u64,
    /// `Evict` events seen.
    pub evictions_traced: u64,
    /// Events the recorder dropped (a truncated capture).
    pub dropped: u64,
    /// Workload ops each core consumed.
    pub ops: Vec<u64>,
}

impl Capture {
    /// Grants seen on the L2 resources.
    pub fn grants(&self) -> u64 {
        self.grants.iter().map(|s| s.len() as u64).sum()
    }

    /// DRAM requests issued.
    pub fn dram_requests(&self) -> u64 {
        self.dram.len() as u64
    }

    fn absorb(&mut self, log: &trace::TraceLog) {
        self.dropped += log.dropped();
        for ev in log.events() {
            match ev.data {
                EventData::Grant { resource, thread, kind, service, .. } => {
                    if let Some(i) = resource_index(resource) {
                        grow(&mut self.grants, i + 1).push(Grant {
                            at: ev.at,
                            thread,
                            kind,
                            service,
                            deferred: 0,
                        });
                    }
                }
                EventData::Defer { resource, thread, .. } => {
                    self.defers += 1;
                    let last = resource_index(resource)
                        .and_then(|i| self.grants.get_mut(i))
                        .and_then(|s| s.last_mut());
                    if let Some(g) = last.filter(|g| g.at == ev.at) {
                        g.deferred |= 1 << thread.0;
                    }
                }
                EventData::BankAccess { bank, thread, line, kind, hit } => {
                    grow(&mut self.accesses, bank as usize + 1).push(Access {
                        at: ev.at,
                        line,
                        thread,
                        kind,
                        hit,
                    });
                }
                EventData::Evict { .. } => self.evictions_traced += 1,
                EventData::DramIssue { thread, line, kind, .. } => {
                    let token = self.dram.len() as u64;
                    self.dram.push((ev.at, MemRequest { thread, line, kind, token }));
                }
                _ => {}
            }
        }
    }
}

/// Grows `v` to at least `len` entries and returns its last one.
fn grow<T: Default>(v: &mut Vec<T>, len: usize) -> &mut T {
    if v.len() < len {
        v.resize_with(len, T::default);
    }
    &mut v[len - 1]
}

/// Index of an L2 resource in [`Capture::grants`] (`None` for DRAM).
fn resource_index(r: trace::ResourceId) -> Option<usize> {
    let k = match r.kind {
        ResourceKind::TagArray => 0,
        ResourceKind::DataArray => 1,
        ResourceKind::DataBus => 2,
        ResourceKind::DramChannel => return None,
    };
    Some(r.unit as usize * 3 + k)
}

/// A workload that counts the ops its core consumes.
#[derive(Debug)]
struct Counted {
    inner: Box<dyn Workload>,
    ops: Rc<Shared<u64>>,
}

impl Workload for Counted {
    fn next_op(&mut self) -> Op {
        self.ops.set(self.ops.get() + 1);
        self.inner.next_op()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Runs `cell` for the whole budget with the recorder armed, in chunks,
/// and keeps the layer inputs.
pub fn capture(cell: &Cell, budget: RunBudget) -> Capture {
    let counters: Vec<Rc<Shared<u64>>> =
        cell.workloads.iter().map(|_| Rc::new(Shared::new(0))).collect();
    let workloads = cell
        .workloads
        .iter()
        .zip(&counters)
        .enumerate()
        .map(|(i, (spec, ops))| {
            let inner = spec.build(ThreadId(i as u8));
            Box::new(Counted { inner, ops: Rc::clone(ops) }) as Box<dyn Workload>
        })
        .collect();
    let mut sys = CmpSystem::with_workloads(cell.cfg.clone(), workloads);
    let mut capture = Capture::default();
    let mut left = budget.warmup + budget.window;
    while left > 0 {
        let n = left.min(CHUNK);
        trace::install(CHUNK_CAPACITY);
        sys.run(n);
        capture.absorb(&trace::take().expect("recorder installed for this chunk"));
        left -= n;
    }
    capture.ops = counters.iter().map(|c| c.get()).collect();
    capture
}

/// Host time of a replay and the count it is normalised by.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Host time spent in the layer's calls.
    pub elapsed: Duration,
    /// Operations replayed (grants, misses, requests, ops).
    pub count: u64,
}

impl Timed {
    /// Adds another replay.
    pub fn add(&mut self, other: Timed) {
        self.elapsed += other.elapsed;
        self.count += other.count;
    }
}

/// Replays each resource's grants through a fresh `ArbitratedResource`
/// built from the cell's `ArbiterPolicy`. Before each traced grant, the
/// granted thread and every thread it left backlogged get a pending
/// request if they have none, so the arbiter sees the traced contention
/// depth; requests carry the resource's shortest traced service time, so
/// the resource is always free again at the next traced grant cycle.
/// Returns the timing (count = grants made) and how many grants went to
/// the traced thread.
pub fn replay_arbiters(l2: &L2Config, capture: &Capture) -> (Timed, u64) {
    let (tag, data, bus) = l2.resource_arbiters();
    let mut timed = Timed::default();
    let mut same_thread = 0;
    for (i, grants) in capture.grants.iter().enumerate() {
        let Some(service) = grants.iter().map(|g| g.service).min() else { continue };
        let policy = [tag, data, bus][i % 3];
        let mut resource = ArbitratedResource::new(policy.build(l2.threads));
        let mut pending = [0u32; MAX_THREADS];
        let mut next_id = 0u64;
        let start = Instant::now();
        for g in grants {
            let mut ensure = |thread: ThreadId, kind: AccessKind| {
                if pending[thread.index()] == 0 {
                    resource.enqueue(ArbRequest::new(next_id, thread, kind, service), g.at);
                    pending[thread.index()] += 1;
                    next_id += 1;
                }
            };
            ensure(g.thread, g.kind);
            for t in (0..MAX_THREADS).filter(|t| g.deferred & (1 << t) != 0) {
                ensure(ThreadId(t as u8), AccessKind::Read);
            }
            if let Some(req) = resource.try_grant(g.at) {
                pending[req.thread.index()] -= 1;
                timed.count += 1;
                same_thread += u64::from(req.thread == g.thread);
            }
        }
        timed.elapsed += start.elapsed();
    }
    (timed, same_thread)
}

/// Replays each bank's tag lookups through fresh `TagSet`s with the cell's
/// replacement policy, timing each miss (lookup, victim choice and fill).
/// Returns the timing (count = misses), the evictions the replay made,
/// and the lookups whose hit/miss differed from the trace.
pub fn replay_capacity(l2: &L2Config, capture: &Capture) -> (Timed, u64, u64) {
    let policy: Box<dyn ReplacementPolicy> = match &l2.capacity {
        CapacityPolicy::Lru => Box::new(TrueLru),
        CapacityPolicy::Vpc { shares } => {
            Box::new(VpcCapacityManager::from_shares(shares, l2.ways as u32))
        }
    };
    let mut timed = Timed::default();
    let (mut evictions, mut mismatched) = (0, 0);
    for accesses in &capture.accesses {
        let mut sets: Vec<TagSet> = (0..l2.sets_per_bank()).map(|_| TagSet::new(l2.ways)).collect();
        for a in accesses {
            let start = Instant::now();
            let set = &mut sets[l2.set_of(a.line)];
            match set.lookup(a.line) {
                Some(way) => {
                    set.touch(way, a.at);
                    if !a.kind.is_read() {
                        set.mark_dirty(way);
                    }
                    mismatched += u64::from(!a.hit);
                }
                None => {
                    let way = set.find_way_for(a.line, a.thread, policy.as_ref());
                    evictions += u64::from(set.fill(way, a.line, a.thread, a.at).is_some());
                    timed.elapsed += start.elapsed();
                    timed.count += 1;
                    mismatched += u64::from(a.hit);
                }
            }
        }
    }
    (timed, evictions, mismatched)
}

/// Replays the DRAM issues through a fresh `MemoryController`: each
/// request is enqueued at its traced issue cycle (or as soon as its buffer
/// has room), the controller ticks every cycle, and responses are popped
/// until every read has returned. Returns the timing (count = requests)
/// and whether every read returned.
pub fn replay_memory(cfg: &CmpConfig, capture: &Capture) -> (Timed, bool) {
    let requests = &capture.dram;
    let Some(&(first, _)) = requests.first() else { return (Timed::default(), true) };
    let reads = requests.iter().filter(|(_, r)| r.kind.is_read()).count();
    let deadline = requests.last().map_or(first, |&(at, _)| at) + 1_000_000;
    let mut mc = MemoryController::with_mode(cfg.mem, cfg.l2.threads, cfg.channels.clone());
    let mut waiting: VecDeque<MemRequest> = VecDeque::new();
    let (mut next, mut returned) = (0, 0);
    let mut now = first;
    let start = Instant::now();
    while (next < requests.len() || !waiting.is_empty() || returned < reads) && now < deadline {
        while next < requests.len() && requests[next].0 <= now {
            waiting.push_back(requests[next].1);
            next += 1;
        }
        waiting.retain(|&req| !mc.enqueue(req, now));
        mc.tick(now);
        while mc.pop_response().is_some() {
            returned += 1;
        }
        now += 1;
    }
    let timed = Timed { elapsed: start.elapsed(), count: requests.len() as u64 };
    (timed, returned == reads)
}

/// Replays each core's workload generator for the ops the core consumed.
pub fn replay_workloads(cell: &Cell, capture: &Capture) -> Timed {
    let mut timed = Timed::default();
    for (i, (spec, &ops)) in cell.workloads.iter().zip(&capture.ops).enumerate() {
        let mut workload = spec.build(ThreadId(i as u8));
        let start = Instant::now();
        for _ in 0..ops {
            black_box(workload.next_op());
        }
        timed.elapsed += start.elapsed();
        timed.count += ops;
    }
    timed
}

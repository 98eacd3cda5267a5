//! An instrumented replica of `CmpSystem::run`.
//!
//! The replica drives the same components through the same public calls
//! in the same order — `Core::tick`, `SharedL2::tick`,
//! `SharedL2::pop_response`/`Core::on_l2_response`, and the
//! `next_activity`/`fast_forward` skip protocol with its backoff — and
//! times each call group. It is only trusted on a cell where it
//! reproduces `CmpSystem::run_measured` exactly (see [`Observed::matches`]).

use std::time::{Duration, Instant};

use vpc::prelude::*;
use vpc_cache::SharedL2;
use vpc_cpu::Core;
use vpc_sim::Cycle;

use crate::grid::{Cell, CellOut};

/// Host time per call group of the run loop, plus the skip counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// Every core's `tick` (and the loop's own bookkeeping).
    pub core: Duration,
    /// `SharedL2::tick` (banks, arbiters, capacity, memory controller).
    pub l2: Duration,
    /// Response delivery: `pop_response` and `on_l2_response`.
    pub respond: Duration,
    /// The skip scan (`next_activity`) and `fast_forward`.
    pub skip: Duration,
    /// Simulated cycles covered.
    pub cycles: u64,
    /// Cycles jumped over by fast-forwarding instead of ticked.
    pub skipped: u64,
}

impl Spans {
    /// Adds another cell's spans.
    pub fn add(&mut self, other: &Spans) {
        self.core += other.core;
        self.l2 += other.l2;
        self.respond += other.respond;
        self.skip += other.skip;
        self.cycles += other.cycles;
        self.skipped += other.skipped;
    }

    /// Wall time of the whole loop.
    pub fn total(&self) -> Duration {
        self.core + self.l2 + self.respond + self.skip
    }
}

/// The replica's system: the components `CmpSystem` owns.
#[derive(Debug)]
pub struct Replica {
    cores: Vec<Core>,
    l2: SharedL2,
    now: Cycle,
}

/// What the replica observed, for comparison with the real run.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    /// Window IPC per thread, computed as `CmpSystem::measure` does.
    pub ipc: Vec<f64>,
    /// Retired instructions per core at the end.
    pub retired: Vec<u64>,
    /// Busy cycles of (tag array, data array, data bus) at the end.
    pub busy: (u64, u64, u64),
}

impl Observed {
    /// Whether the replica reproduced the real run exactly.
    pub fn matches(&self, real: &CellOut) -> bool {
        self.retired == real.retired && self.busy == real.busy && self.ipc == real.ipc
    }
}

impl Replica {
    /// Builds the components exactly as `CmpSystem::new` does.
    pub fn new(cell: &Cell) -> Replica {
        let cfg = &cell.cfg;
        let cores = cell
            .workloads
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let thread = ThreadId(i as u8);
                Core::new(cfg.core, thread, w.build(thread))
            })
            .collect();
        let l2 = SharedL2::with_channel_mode(cfg.l2.clone(), cfg.mem, cfg.channels.clone());
        Replica { cores, l2, now: 0 }
    }

    /// Runs the warm-up and the window as `CmpSystem::run_measured` does,
    /// accumulating the loop's spans.
    pub fn run_measured(&mut self, warmup: Cycle, window: Cycle, spans: &mut Spans) -> Observed {
        self.run(warmup, spans);
        let before: Vec<u64> = self.cores.iter().map(Core::retired).collect();
        self.run(window, spans);
        let retired: Vec<u64> = self.cores.iter().map(Core::retired).collect();
        Observed {
            ipc: retired
                .iter()
                .zip(&before)
                .map(|(end, start)| (end - start) as f64 / window.max(1) as f64)
                .collect(),
            retired,
            busy: self.l2.busy_cycles(),
        }
    }

    /// `CmpSystem::run` with quiescence-aware cycle skipping, timed per
    /// call group. Every span ends with one `Instant::now()`.
    fn run(&mut self, cycles: Cycle, spans: &mut Spans) {
        let end = self.now + cycles;
        spans.cycles += cycles;
        let mut backoff: Cycle = 0;
        let mut failures: u32 = 0;
        let mut mark = Instant::now();
        while self.now < end {
            for core in &mut self.cores {
                core.tick(self.now, &mut self.l2);
            }
            let ticked = Instant::now();
            self.l2.tick(self.now);
            let l2_done = Instant::now();
            while let Some(resp) = self.l2.pop_response(self.now) {
                self.cores[resp.thread.index()].on_l2_response(resp.line, self.now);
            }
            let responded = Instant::now();
            spans.core += ticked - mark;
            spans.l2 += l2_done - ticked;
            spans.respond += responded - l2_done;
            mark = responded;
            if backoff > 0 {
                backoff -= 1;
                self.now += 1;
                continue;
            }
            let horizon = self.now + 1;
            let mut na: Option<Cycle> = None;
            for core in &self.cores {
                if let Some(c) = core.next_activity(self.now, &self.l2) {
                    na = Some(na.map_or(c, |b| b.min(c)));
                    if c == horizon {
                        break;
                    }
                }
            }
            if na != Some(horizon) {
                if let Some(c) = self.l2.next_activity(self.now) {
                    na = Some(na.map_or(c, |b| b.min(c)));
                }
            }
            let target = na.unwrap_or(end).clamp(horizon, end);
            if target > self.now + 8 || (target > horizon && target == end) {
                for core in &mut self.cores {
                    core.fast_forward(self.now, target);
                }
                failures = 0;
                spans.skipped += target - self.now - 1;
                self.now = target;
            } else {
                failures = (failures + 1).min(6);
                backoff = 1 << failures;
                self.now += 1;
            }
            let scanned = Instant::now();
            spans.skip += scanned - mark;
            mark = scanned;
        }
    }
}

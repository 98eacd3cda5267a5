//! The traced run: per-layer metrics measured from outside the program.
//!
//! Each cell is simulated three times: once as the figure runner does
//! (through `vpc_sim::exec`, the untraced reference), once by the timed
//! loop replica, and once with the trace recorder armed to capture the
//! inputs of the layers inside `SharedL2::tick`, which are then replayed.
//! A cell whose replica diverges from the reference is reported and left
//! out of every per-layer number; a replay that was truncated or diverged
//! is reported and left out of its layer's host time.

use std::time::Duration;

use vpc::prelude::*;
use vpc_sim::Histogram;

use crate::grid::{Cell, CellOut, Check, Plan};
use crate::host;
use crate::replay::{self, Timed};
use crate::replica::{Replica, Spans};
use crate::Metric;

/// Simulated per-layer counters of one cell over its whole run (warm-up
/// plus window, all threads).
#[derive(Debug, Clone)]
pub struct SimCounters {
    /// Cycles times cores.
    core_cycles: u64,
    dispatch_stall: u64,
    store_stall: u64,
    l1_loads: u64,
    l1_load_misses: u64,
    /// L2 tag lookups (hits plus misses).
    accesses: u64,
    misses: u64,
    data_busy: u64,
    /// Cycles times banks.
    bank_cycles: u64,
    stores_in: u64,
    stores_gathered: u64,
    read_latency: Histogram,
}

impl SimCounters {
    /// Reads the counters of a system that ran for `cycles`.
    pub fn of(sys: &CmpSystem, threads: usize, cycles: u64) -> SimCounters {
        let mut c = SimCounters { core_cycles: cycles * threads as u64, ..SimCounters::default() };
        for t in (0..threads).map(|t| ThreadId(t as u8)) {
            let (core, l1) = (sys.core(t).stats(), sys.core(t).l1_stats());
            c.dispatch_stall += core.dispatch_stall_cycles.get();
            c.store_stall += core.store_stall_cycles.get();
            c.l1_loads += l1.load_hits.get() + l1.load_misses.get();
            c.l1_load_misses += l1.load_misses.get();
            let port = sys.l2().port_stats(t);
            c.stores_in += port.stores_in.get();
            c.stores_gathered += port.stores_gathered.get();
            c.read_latency.merge(&sys.l2().read_latency(t));
        }
        let bank = sys.l2().stats();
        c.misses = bank.read_misses.get() + bank.write_misses.get();
        c.accesses = c.misses + bank.read_hits.get() + bank.write_hits.get();
        c.data_busy = sys.l2().busy_cycles().1;
        c.bank_cycles = cycles * sys.l2().config().banks as u64;
        c
    }

    fn add(&mut self, o: &SimCounters) {
        self.core_cycles += o.core_cycles;
        self.dispatch_stall += o.dispatch_stall;
        self.store_stall += o.store_stall;
        self.l1_loads += o.l1_loads;
        self.l1_load_misses += o.l1_load_misses;
        self.accesses += o.accesses;
        self.misses += o.misses;
        self.data_busy += o.data_busy;
        self.bank_cycles += o.bank_cycles;
        self.stores_in += o.stores_in;
        self.stores_gathered += o.stores_gathered;
        self.read_latency.merge(&o.read_latency);
    }
}

impl Default for SimCounters {
    fn default() -> Self {
        SimCounters {
            core_cycles: 0,
            dispatch_stall: 0,
            store_stall: 0,
            l1_loads: 0,
            l1_load_misses: 0,
            accesses: 0,
            misses: 0,
            data_busy: 0,
            bank_cycles: 0,
            stores_in: 0,
            stores_gathered: 0,
            read_latency: Histogram::new(),
        }
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Host nanoseconds per unit.
fn ns_per(elapsed: Duration, per: u64) -> f64 {
    ratio(elapsed.as_nanos() as f64, per as f64)
}

/// Everything the traced run accumulates over the cells it trusts.
#[derive(Debug, Default)]
struct Totals {
    spans: Spans,
    /// Host time of `run_measured` on the same cells (untraced reference).
    reference_run: Duration,
    sim: SimCounters,
    workloads: Timed,
    arbiters: Timed,
    grants: u64,
    defers: u64,
    same_thread: u64,
    capacity: Timed,
    evictions: u64,
    evictions_traced: u64,
    memory: Timed,
    dram_requests: u64,
    dropped: u64,
    diverged_cells: u64,
    flagged: Vec<String>,
}

/// Runs the traced measurement of `plan` and returns its per-layer metrics
/// and the pass's check.
pub fn traced(plan: &Plan, goldens: &[vpc::json::JsonValue]) -> (Vec<Metric>, Check) {
    let overhead_ns = host::timer_overhead_ns();
    let pass = crate::run_pass(plan, None);
    let check = plan.check(&pass.outs, goldens);
    let probe = host::Probe::new();
    let mut probes = Vec::new();
    let mut t = Totals::default();
    for (cell, out) in plan.cells.iter().zip(&pass.outs) {
        if let Some(out) = out {
            trace_cell(plan, cell, out, &mut t);
            probes.push(probe.run());
        }
    }
    // Host times at the reference host speed, as in the untraced run.
    let speed = if probes.is_empty() { 1.0 } else { host::PROBE_REF_S / host::median(&probes) };
    let at_ref = |elapsed: Duration, per: u64| ns_per(elapsed, per) * speed;
    let s = &t.spans;
    for f in &t.flagged {
        eprintln!("flagged: {f}");
    }
    eprintln!(
        "traced: host at {speed:.3} of reference speed; every timed span includes one timer read (≈{overhead_ns:.0} ns); \
         arbiter replays granted the traced thread on {:.1}% of grants",
        ratio(t.same_thread as f64, t.arbiters.count as f64) * 100.0
    );
    let sim = &t.sim;
    let metrics = vec![
        Metric::new("system.core_tick_ns", at_ref(s.core, s.cycles), "ns"),
        Metric::new("system.l2_tick_ns", at_ref(s.l2, s.cycles), "ns"),
        Metric::new("system.respond_ns", at_ref(s.respond, s.cycles), "ns"),
        Metric::new("system.skip_ns", at_ref(s.skip, s.cycles), "ns"),
        Metric::new("system.skipped_frac", ratio(s.skipped as f64, s.cycles as f64), "ratio"),
        Metric::new(
            "system.trace_overhead_frac",
            ratio(s.total().as_secs_f64(), t.reference_run.as_secs_f64()) - 1.0,
            "ratio",
        ),
        Metric::new("fidelity.replica_diverged_cells", t.diverged_cells as f64, "count"),
        Metric::new("workloads.next_op_ns", at_ref(t.workloads.elapsed, t.workloads.count), "ns"),
        Metric::new(
            "cpu.dispatch_stall_frac",
            ratio(sim.dispatch_stall as f64, sim.core_cycles as f64),
            "ratio",
        ),
        Metric::new(
            "cpu.store_stall_frac",
            ratio(sim.store_stall as f64, sim.core_cycles as f64),
            "ratio",
        ),
        Metric::new(
            "cpu.l1_miss_rate",
            ratio(sim.l1_load_misses as f64, sim.l1_loads as f64),
            "ratio",
        ),
        Metric::new("cache.accesses", sim.accesses as f64, "count"),
        Metric::new("cache.miss_rate", ratio(sim.misses as f64, sim.accesses as f64), "ratio"),
        Metric::new(
            "cache.data_util",
            ratio(sim.data_busy as f64, sim.bank_cycles as f64),
            "ratio",
        ),
        Metric::new(
            "cache.sgb_gather_rate",
            ratio(sim.stores_gathered as f64, sim.stores_in as f64),
            "ratio",
        ),
        Metric::new("cache.read_latency_p50_cycles", sim.read_latency.p50() as f64, "cycles"),
        Metric::new("cache.read_latency_p99_cycles", sim.read_latency.p99() as f64, "cycles"),
        Metric::new("arbiters.grants", t.grants as f64, "count"),
        Metric::new("arbiters.defers_per_grant", ratio(t.defers as f64, t.grants as f64), "count"),
        Metric::new("arbiters.grant_ns", at_ref(t.arbiters.elapsed, t.arbiters.count), "ns"),
        Metric::new("capacity.evictions", t.evictions as f64, "count"),
        Metric::new("capacity.evictions_traced", t.evictions_traced as f64, "count"),
        Metric::new("capacity.victim_ns", at_ref(t.capacity.elapsed, t.capacity.count), "ns"),
        Metric::new("mem.dram_requests", t.dram_requests as f64, "count"),
        Metric::new("mem.request_ns", at_ref(t.memory.elapsed, t.memory.count), "ns"),
        Metric::new("fidelity.trace_dropped_events", t.dropped as f64, "count"),
        Metric::new("fidelity.flagged_timings", t.flagged.len() as f64, "count"),
        Metric::new("exec.jobs", pass.timings.len() as f64, "count"),
        Metric::new("exec.overhead_frac", pass.overhead_frac(), "ratio"),
        Metric::new(
            "failed_frac",
            ratio(check.failed_cells as f64, plan.cells.len() as f64),
            "ratio",
        ),
        Metric::new(
            "qos_violation_frac",
            ratio(check.qos_violations as f64, check.qos_cells as f64),
            "ratio",
        ),
        Metric::new("paper_gap_pp", check.paper_gap_pp, "pp"),
    ];
    (metrics, check)
}

/// Replica, capture and replays of one cell whose reference run is `out`.
fn trace_cell(plan: &Plan, cell: &Cell, out: &CellOut, t: &mut Totals) {
    let budget = plan.budget;
    let mut spans = Spans::default();
    let observed = Replica::new(cell).run_measured(budget.warmup, budget.window, &mut spans);
    if !observed.matches(out) {
        eprintln!("diverged: the loop replica does not reproduce {}; left out", cell.label);
        t.diverged_cells += 1;
        return;
    }
    t.spans.add(&spans);
    t.reference_run += Duration::from_secs_f64(out.run_s);
    t.sim.add(&out.counters);

    let capture = replay::capture(cell, budget);
    t.dropped += capture.dropped;
    t.grants += capture.grants();
    t.defers += capture.defers;
    t.evictions_traced += capture.evictions_traced;
    t.dram_requests += capture.dram_requests();
    let mut flagged = Vec::new();
    let truncated = format!("trace truncated ({} events dropped)", capture.dropped);
    let trunc = (capture.dropped > 0).then_some(truncated.as_str());
    let mut keep = |into: &mut Timed, timed: Timed, layer: &str, why: Option<&str>| match why {
        Some(why) => flagged.push(format!("{layer} on {}: {why}", cell.label)),
        None => into.add(timed),
    };

    keep(&mut t.workloads, replay::replay_workloads(cell, &capture), "workloads.next_op_ns", None);

    let (arbiters, same) = replay::replay_arbiters(&cell.cfg.l2, &capture);
    let arb_why = trunc.or((arbiters.count != capture.grants()).then_some("replay granted less"));
    if arb_why.is_none() {
        t.same_thread += same;
    }
    keep(&mut t.arbiters, arbiters, "arbiters.grant_ns", arb_why);

    let (capacity, evictions, mismatched) = replay::replay_capacity(&cell.cfg.l2, &capture);
    t.evictions += evictions;
    let cap_why = trunc.or((evictions != capture.evictions_traced || mismatched > 0)
        .then_some("replay hits/evictions differ from the trace"));
    keep(&mut t.capacity, capacity, "capacity.victim_ns", cap_why);

    let (memory, drained) = replay::replay_memory(&cell.cfg, &capture);
    let mem_why = trunc.or((!drained).then_some("replay did not return every read"));
    keep(&mut t.memory, memory, "mem.request_ns", mem_why);
    eprintln!(
        "{}: {} trace events dropped; evictions {evictions} replayed, {} traced",
        cell.label, capture.dropped, capture.evictions_traced
    );
    t.flagged.append(&mut flagged);
}

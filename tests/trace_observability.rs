//! End-to-end guarantees of the observability layer: the trace stream is
//! a pure function of the simulated system (identical at any worker
//! count), a job's trace starts at its cell's measured window, ring
//! overflow never disturbs retained events, and the fig5 contention trace
//! matches its checked-in golden byte-for-byte.

use std::path::PathBuf;

use vpc::experiments::{fig5, run_cells, RunOptions};
use vpc::json::JsonValue;
use vpc::prelude::*;
use vpc_sim::check::{self, Config};
use vpc_sim::trace::{self, EventData, TraceEvent};
use vpc_sim::{ensure_eq, Cycle};

#[test]
fn ring_overflow_keeps_prefix_and_counts_drops() {
    check::forall("ring_overflow", Config::cases(128), |rng| {
        let capacity = rng.below(64) as usize;
        let total = rng.below(200);
        let mut log = trace::TraceLog::new(capacity);
        let event = |i: u64| TraceEvent {
            at: i as Cycle,
            data: EventData::SgbGather { thread: ThreadId(0), line: vpc_sim::LineAddr(i) },
        };
        for i in 0..total {
            log.push(event(i));
        }
        let retained = total.min(capacity as u64);
        ensure_eq!(log.events().len() as u64, retained, "retained count");
        ensure_eq!(log.dropped(), total - retained, "drop count");
        ensure_eq!(log.total(), total, "total offered");
        for (i, e) in log.events().iter().enumerate() {
            ensure_eq!(*e, event(i as u64), "event {i} reordered or rewritten");
        }
        Ok(())
    });
}

/// Runs a small contention grid as one `run_cells` batch with per-job
/// capture of `capacity` events armed on this thread and returns the
/// labeled logs. The warm-up emits far more than 512 events.
fn captured_grid(workers: usize, capacity: usize) -> Vec<(String, trace::TraceLog)> {
    let cells: Vec<(String, Cell)> = [2usize, 4]
        .into_iter()
        .map(|banks| {
            let mut base = CmpConfig::table1().with_banks(banks);
            base.l2.total_sets = 512;
            let cell = fig5::contention_cell(&base, ArbiterPolicy::vpc_equal(4), GRID_BUDGET);
            (format!("grid/{banks}B"), cell)
        })
        .collect();
    trace::set_capture(Some(capacity));
    run_cells(&cells, RunOptions { budget: GRID_BUDGET, jobs: workers }, |cell| {
        cell.run();
    });
    trace::set_capture(None);
    trace::take_job_logs()
}

/// Windows of [`captured_grid`]'s cells.
const GRID_BUDGET: RunBudget = RunBudget { warmup: 4_000, window: 2_000 };

#[test]
fn job_trace_streams_identical_at_jobs_1_and_4() {
    let serial = captured_grid(1, 4096);
    let parallel = captured_grid(4, 4096);
    assert_eq!(serial.len(), 2, "one log per job");
    for ((label_s, log_s), (label_p, log_p)) in serial.iter().zip(&parallel) {
        assert_eq!(label_s, label_p, "job logs arrive in input order");
        assert_eq!(log_s, log_p, "trace stream for {label_s} depends on the worker count");
        assert!(!log_s.events().is_empty(), "{label_s} recorded no events");
    }
}

/// A job's trace is a prefix of its cell's measured window, even when the
/// warm-up alone would overflow the ring.
#[test]
fn job_traces_record_the_measured_window() {
    let logs = captured_grid(2, 512);
    assert_eq!(logs.len(), 2, "one log per job");
    for (label, log) in &logs {
        let first = log.events().first().unwrap_or_else(|| panic!("{label} recorded no events"));
        assert!(
            first.at >= GRID_BUDGET.warmup,
            "{label}'s first event is at cycle {}, inside the {}-cycle warm-up",
            first.at,
            GRID_BUDGET.warmup
        );
        assert!(log.dropped() > 0, "{label}: the window should overflow a 512-event ring");
    }
}

/// Environment variable that switches the golden test into updater mode
/// (same flow as `tests/golden_quick.rs`).
const UPDATE_ENV: &str = "VPC_UPDATE_GOLDENS";

#[test]
fn trace_fig5_matches_golden() {
    trace::install(512);
    fig5::contention_cell(&CmpConfig::table1(), ArbiterPolicy::vpc_equal(4), RunBudget::quick())
        .run();
    let log = trace::take().expect("installed above");
    let doc = vpc::trace::chrome_trace("fig5/contention Loads+3xStores", &log);
    let rendered = doc.pretty() + "\n";
    // The export must round-trip through the in-tree parser.
    let parsed = JsonValue::parse(&rendered).expect("chrome trace parses back");
    assert_eq!(parsed, doc, "parse(pretty(doc)) is not the identity");

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/quick/trace_fig5.json");
    if std::env::var(UPDATE_ENV).is_ok_and(|v| v == "1") {
        std::fs::write(&path, rendered).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("read {path:?}: {e}\n(generate with {UPDATE_ENV}=1 cargo test --test trace_observability)")
    });
    assert_eq!(
        rendered, golden,
        "regenerated fig5 contention trace differs from the golden; if the \
         behavior change is intended, refresh with {UPDATE_ENV}=1"
    );
}

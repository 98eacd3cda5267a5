//! A general-purpose driver for the simulated CMP: pick workloads, an
//! arbiter policy, shares and banks from the command line and get
//! per-thread IPCs, QoS targets, utilization and latency. Every thread has
//! a private memory channel (Table 1).
//!
//! ```sh
//! cargo run --release -p vpc-bench --bin simulate -- \
//!     --workloads art,mcf,Loads,Stores \
//!     --arbiter vpc --shares 1/2,1/6,1/6,1/6 \
//!     --banks 2 --warmup 50000 --cycles 200000
//! ```
//!
//! Workloads: any SPEC profile name, `Loads`, `Stores`, or `idle`.
//! Arbiters: `fcfs`, `row`, `vpc` (the three of the paper's Figure 8).

use std::path::PathBuf;

use vpc::experiments::{fig5, run_cells};
use vpc::metrics::QosLedger;
use vpc::prelude::*;
use vpc::trace::JobTrace;
use vpc_sim::trace;
use vpc_workloads::SPEC_NAMES;

/// The usage text, after the program name.
const USAGE: &str = "\
[--workloads a,b,c,d] [--arbiter fcfs|row|vpc]
                [--shares p/q,...] [--banks N] [--warmup N] [--cycles N]
                [--lru-capacity] [--trace out.json] [--metrics]

--trace writes one Chrome trace_event JSON of every cell's measured window
to out.json, a process lane per distinct cell (the shared machine, then
each distinct target; open in chrome://tracing or Perfetto). --metrics
prints the per-thread QoS ledger to stderr, and each thread's L2 read
latency as p50/p90/p99/max: the percentiles are power-of-two bucket
bounds, the maximum is exact. Neither flag changes stdout. Argument
errors exit with code 2.";

#[derive(Debug)]
struct Args {
    workloads: Vec<WorkloadSpec>,
    arbiter: String,
    shares: Vec<Share>,
    banks: usize,
    warmup: u64,
    cycles: u64,
    lru_capacity: bool,
    trace: Option<PathBuf>,
    metrics: bool,
}

fn parse_workload(name: &str) -> Result<WorkloadSpec, String> {
    match name {
        "Loads" | "loads" => Ok(WorkloadSpec::Loads),
        "Stores" | "stores" => Ok(WorkloadSpec::Stores),
        "idle" => Ok(WorkloadSpec::Idle),
        other => {
            SPEC_NAMES.iter().find(|&&b| b == other).map(|&b| WorkloadSpec::Spec(b)).ok_or_else(
                || format!("unknown workload {other:?} (SPEC names, Loads, Stores, idle)"),
            )
        }
    }
}

/// Parses `argv` (without the program name) into the arguments and the
/// machine they describe, which [`CmpConfig::validate`] has accepted.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<(Args, CmpConfig), String> {
    let mut args = Args {
        workloads: vec![
            WorkloadSpec::Spec("art"),
            WorkloadSpec::Spec("mcf"),
            WorkloadSpec::Spec("gcc"),
            WorkloadSpec::Spec("gzip"),
        ],
        arbiter: "vpc".into(),
        shares: Vec::new(),
        banks: 2,
        warmup: 50_000,
        cycles: 200_000,
        lru_capacity: false,
        trace: None,
        metrics: false,
    };
    vpc_bench::parse_flags(argv, |flag, value| {
        match flag {
            "--workloads" => {
                args.workloads =
                    value()?.split(',').map(parse_workload).collect::<Result<_, _>>()?;
            }
            "--arbiter" => args.arbiter = value()?,
            "--shares" => {
                args.shares = value()?
                    .split(',')
                    .map(|s| s.parse::<Share>().map_err(|e| e.to_string()))
                    .collect::<Result<_, _>>()?;
            }
            "--banks" => args.banks = value()?.parse().map_err(|e| format!("--banks: {e}"))?,
            "--warmup" => args.warmup = value()?.parse().map_err(|e| format!("--warmup: {e}"))?,
            "--cycles" => {
                let cycles = value()?;
                args.cycles =
                    cycles.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                        format!("--cycles needs a positive integer, got {cycles:?}")
                    })?;
            }
            "--lru-capacity" => args.lru_capacity = true,
            "--trace" => args.trace = Some(PathBuf::from(value()?)),
            "--metrics" => args.metrics = true,
            "--help" | "-h" => {
                vpc_bench::outln!("usage: simulate {USAGE}");
                std::process::exit(0);
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if args.warmup.checked_add(args.cycles).is_none() {
        return Err("--warmup plus --cycles overflows the 64-bit cycle counter".into());
    }
    if let Some(path) = &args.trace {
        vpc_bench::check_trace_dir(path)?;
    }
    if args.shares.is_empty() {
        let n = args.workloads.len() as u32;
        args.shares = vec![Share::new(1, n).map_err(|e| e.to_string())?; n as usize];
    }
    if args.shares.len() != args.workloads.len() {
        return Err("need exactly one share per workload".into());
    }
    let mut cfg = CmpConfig::table1_with_threads(args.workloads.len()).with_banks(args.banks);
    cfg.l2.arbiter = build_arbiter(&args)?;
    cfg.l2.capacity = if args.lru_capacity {
        CapacityPolicy::Lru
    } else {
        CapacityPolicy::Vpc { shares: args.shares.clone() }
    };
    cfg.validate().map_err(|e| e.to_string())?;
    Ok((args, cfg))
}

fn build_arbiter(args: &Args) -> Result<ArbiterPolicy, String> {
    Ok(match args.arbiter.as_str() {
        "fcfs" => ArbiterPolicy::Fcfs,
        "row" => ArbiterPolicy::RowFcfs,
        "vpc" => ArbiterPolicy::Vpc {
            shares: args.shares.clone(),
            order: IntraThreadOrder::ReadOverWrite,
        },
        other => return Err(format!("unknown arbiter {other:?} (fcfs, row, vpc)")),
    })
}

/// Runs the configured machine and each distinct per-thread target as one
/// batch of cells, prints the report, and writes the trace and the
/// ledger when asked.
fn run(args: Args, cfg: CmpConfig) {
    let budget = RunBudget { warmup: args.warmup, window: args.cycles };
    let shared = Cell::shared(cfg.clone(), args.workloads.clone(), budget);
    let mut cells = vec![("simulate".to_string(), shared.clone())];
    let targets: Vec<Option<usize>> = args
        .workloads
        .iter()
        .zip(&args.shares)
        .map(|(&w, &share)| {
            Cell::target(&cfg, w, share, share, budget).map(|cell| {
                cells.push((format!("simulate/target/{} {share}", w.name()), cell));
                cells.len() - 1
            })
        })
        .collect();
    let entitlements: Vec<(Share, Share)> = args.shares.iter().map(|&s| (s, s)).collect();
    let mut results = run_cells(&cells, vpc_bench::default_jobs(), |cell| {
        if args.trace.is_some() {
            trace::install(trace::DEFAULT_CAPACITY);
        }
        let mut ledger = (args.metrics && *cell == shared)
            .then(|| QosLedger::new(entitlements.clone(), fig5::QOS_WINDOW, fig5::QOS_SLACK));
        let (sys, m) = cell.run_with_ledger(ledger.as_mut());
        let latency: Vec<_> =
            (0..cell.workloads.len()).map(|t| sys.l2().read_latency(ThreadId(t as u8))).collect();
        (m, latency, ledger, trace::take())
    });
    // One trace per distinct cell, under its first label: a repeated
    // cell's result is a copy of the first one's.
    let traces: Vec<JobTrace> = (0..cells.len())
        .filter(|&i| cells[..i].iter().all(|(_, earlier)| *earlier != cells[i].1))
        .filter_map(|i| Some((cells[i].0.clone(), results[i].3.take()?)))
        .collect();
    let (m, latency, ledger, _) = &results[0];

    vpc_bench::outln!(
        "== simulate: {} threads, {} banks, arbiter {} ==",
        args.workloads.len(),
        args.banks,
        args.arbiter
    );
    vpc_bench::outln!(
        "{:<10} {:>7} {:>8} {:>8} {:>9} {:>12} {:>10}",
        "thread",
        "share",
        "IPC",
        "target",
        "IPC/tgt",
        "L2 lat mean",
        "gathering"
    );
    for (i, w) in args.workloads.iter().enumerate() {
        let target = targets[i].map_or(0.0, |t| results[t].0.ipc[0]);
        // A zero-share thread runs on excess bandwidth only and has no
        // target to normalize by.
        let norm =
            if target > 0.0 { format!("{:.3}", m.ipc[i] / target) } else { "n/a".to_string() };
        vpc_bench::outln!(
            "{:<10} {:>7} {:>8.3} {:>8.3} {:>9} {:>12.1} {:>9.1}%",
            w.name(),
            args.shares[i].to_string(),
            m.ipc[i],
            target,
            norm,
            latency[i].mean(),
            m.gathering_rate[i] * 100.0,
        );
    }
    vpc_bench::outln!(
        "utilization: data {:.1}%  bus {:.1}%  tag {:.1}%",
        m.util.data_array * 100.0,
        m.util.data_bus * 100.0,
        m.util.tag_array * 100.0
    );

    if let Some(path) = &args.trace {
        vpc_bench::write_job_traces(path, &traces);
    }
    if let Some(ledger) = ledger {
        eprint!("{ledger}");
        for (w, hist) in args.workloads.iter().zip(latency) {
            eprintln!(
                "  {} L2 read latency p50/p90/p99/max: {}/{}/{}/{} cycles",
                w.name(),
                hist.p50(),
                hist.p90(),
                hist.p99(),
                hist.max(),
            );
        }
    }
}

fn main() {
    let (args, cfg) = parse_args(std::env::args().skip(1))
        .unwrap_or_else(|err| vpc_bench::usage_error(&err, USAGE));
    run(args, cfg);
}

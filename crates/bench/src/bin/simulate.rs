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
use std::process::ExitCode;

use vpc::experiments::fig5;
use vpc::metrics::QosLedger;
use vpc::prelude::*;
use vpc_sim::trace;
use vpc_workloads::SPEC_NAMES;

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

/// Parses the command line into the arguments and the machine they
/// describe, which [`CmpConfig::validate`] has accepted.
fn parse_args() -> Result<(Args, CmpConfig), String> {
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
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workloads" => {
                args.workloads = value("--workloads")?
                    .split(',')
                    .map(parse_workload)
                    .collect::<Result<_, _>>()?;
            }
            "--arbiter" => args.arbiter = value("--arbiter")?,
            "--shares" => {
                args.shares = value("--shares")?
                    .split(',')
                    .map(|s| s.parse::<Share>().map_err(|e| e.to_string()))
                    .collect::<Result<_, _>>()?;
            }
            "--banks" => {
                args.banks = value("--banks")?.parse().map_err(|e| format!("--banks: {e}"))?;
            }
            "--warmup" => {
                args.warmup = value("--warmup")?.parse().map_err(|e| format!("--warmup: {e}"))?;
            }
            "--cycles" => {
                let cycles = value("--cycles")?;
                args.cycles =
                    cycles.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                        format!("--cycles needs a positive integer, got {cycles:?}")
                    })?;
            }
            "--lru-capacity" => args.lru_capacity = true,
            "--trace" => args.trace = Some(PathBuf::from(value("--trace")?)),
            "--metrics" => args.metrics = true,
            "--help" | "-h" => {
                vpc_bench::outln!(
                    "usage: simulate [--workloads a,b,c,d] [--arbiter fcfs|row|vpc]\n\
                     \x20               [--shares p/q,...] [--banks N] [--warmup N] [--cycles N]\n\
                     \x20               [--lru-capacity] [--trace out.json] [--metrics]\n\
                     \n\
                     --trace writes a Chrome trace_event JSON of the measured window\n\
                     (open in chrome://tracing or Perfetto); --metrics prints the\n\
                     per-thread QoS ledger and L2 latency percentiles to stderr.\n\
                     Neither flag changes stdout. Argument errors exit with code 2."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
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

/// Runs the configured system; the only error is a trace that cannot be
/// written.
fn run(args: Args, cfg: CmpConfig) -> Result<(), String> {
    let mut sys = CmpSystem::new(cfg.clone(), &args.workloads);
    sys.run(args.warmup);
    if args.trace.is_some() {
        // The simulation runs on this thread, so the thread-local
        // recorder sees the whole measured window.
        trace::install(trace::DEFAULT_CAPACITY);
    }
    let snap = sys.snapshot();
    let mut ledger = args.metrics.then(|| {
        let entitlements = args.shares.iter().map(|&s| (s, s)).collect();
        QosLedger::new(entitlements, fig5::QOS_WINDOW, fig5::QOS_SLACK)
    });
    match &mut ledger {
        Some(ledger) => sys.run_with_ledger(args.cycles, ledger),
        None => sys.run(args.cycles),
    }
    let m = sys.measure(&snap);
    let trace_log = if args.trace.is_some() { trace::take() } else { None };

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
        let thread = ThreadId(i as u8);
        let target = target_ipc(&cfg, *w, args.shares[i], args.shares[i], args.warmup, args.cycles);
        let hist = sys.l2().read_latency(thread);
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
            hist.mean(),
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
        let log = trace_log.expect("recorder installed before the measured window");
        let doc = vpc::trace::chrome_trace("simulate", &log);
        vpc::trace::write_chrome_trace(path, &doc)
            .map_err(|e| format!("cannot write trace {}: {e}", path.display()))?;
        eprintln!(
            "-- wrote {} ({} events, {} dropped) --",
            path.display(),
            log.events().len(),
            log.dropped(),
        );
    }
    if let Some(ledger) = &ledger {
        eprint!("{ledger}");
        for (i, w) in args.workloads.iter().enumerate() {
            let hist = sys.l2().read_latency(ThreadId(i as u8));
            eprintln!(
                "  {} L2 read latency p50/p90/p99: {}/{}/{} cycles",
                w.name(),
                hist.p50(),
                hist.p90(),
                hist.p99(),
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let (args, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(args, cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

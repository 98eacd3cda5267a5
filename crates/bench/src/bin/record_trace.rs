//! Records any built-in workload into the trace text format on stdout, so
//! traces can be inspected, edited, and replayed through
//! `vpc_workloads::TraceWorkload`.
//!
//! ```sh
//! cargo run --release -p vpc-bench --bin record_trace -- art 10000 > art.trace
//! ```
//!
//! An unknown workload, an op count that is not a positive integer (a
//! trace of zero ops would not parse back) or an extra argument prints
//! usage on stderr and exits with code 2.

use std::process::ExitCode;

use vpc_cpu::Workload;
use vpc_sim::ThreadId;
use vpc_workloads::{loads_micro, record, spec, stores_micro, SPEC_NAMES};

/// Parses `[WORKLOAD] [OPS]` (defaults: `art`, 10000) into the workload
/// name, the workload and the op count.
fn parse(args: &[String]) -> Result<(String, Box<dyn Workload>, usize), String> {
    let (name, count) = match args {
        [] => ("art", "10000"),
        [name] => (name.as_str(), "10000"),
        [name, count] => (name.as_str(), count.as_str()),
        [_, _, extra, ..] => return Err(format!("unexpected argument {extra:?}")),
    };
    let count = count
        .parse()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("the op count needs a positive integer, got {count:?}"))?;
    let workload: Box<dyn Workload> = match name {
        "Loads" | "loads" => Box::new(loads_micro(ThreadId(0))),
        "Stores" | "stores" => Box::new(stores_micro(ThreadId(0))),
        other => match spec::workload(other, ThreadId(0)) {
            Some(w) => Box::new(w),
            None => return Err(format!("unknown workload {other:?}")),
        },
    };
    Ok((name.to_string(), workload, count))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, mut workload, count) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!(
                "error: {err}\n\nusage: record_trace [WORKLOAD] [OPS]\n\n\
                 WORKLOAD is Loads, Stores or one of {SPEC_NAMES:?} (default art);\n\
                 OPS is the positive number of ops to record (default 10000)."
            );
            return ExitCode::from(2);
        }
    };
    vpc_bench::write_stdout(format_args!(
        "# {count} ops of {name}, recorded by record_trace\n{}",
        record(workload.as_mut(), count)
    ));
    ExitCode::SUCCESS
}

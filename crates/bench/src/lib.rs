//! Shared helpers for the figure-regeneration binaries.
//!
//! Every experiment binary parses its command line with
//! [`Cli::from_env`] — the only place that reads `--quick`, `--json`,
//! `--jobs`, `--trace`, `--metrics`, `VPC_QUICK` and `VPC_JOBS` — and
//! prints the same rows/series as the corresponding figure or table of
//! the paper. `simulate` reads its own flags through the same grammar
//! ([`parse_flags`]), and every binary's `--trace` goes through
//! [`write_job_traces`]. Reproduction notes for each experiment live in
//! `EXPERIMENTS.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use vpc::experiments::{RunBudget, RunOptions};
use vpc::json::JsonValue;
use vpc::report::TimingReport;
use vpc_sim::trace::{self, TraceLog};

/// The usage text of [`Cli::parse`], after the program name.
const USAGE: &str = "\
[--quick] [--json] [--jobs N] [--trace PATH] [--metrics]

  --quick         short simulation windows (or VPC_QUICK=1)
  --json          machine-readable report on stdout
  --jobs N        worker threads for the job grid (or VPC_JOBS=N;
                  default: the host's available parallelism)
  --trace PATH    write Chrome trace_event JSON of every job's measured
                  window next to PATH
  --metrics       QoS ledgers of the contention scenario on stderr
                  (fig5_micro_util only)

An unknown flag, a flag the binary does not read or a malformed value
prints this text and exits with code 2.";

/// The parsed command line shared by the experiment binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// Simulation windows (`--quick`) and worker count (`--jobs`).
    pub opts: RunOptions,
    /// `--json`: print the machine-readable report.
    pub json: bool,
    /// `--trace PATH`: capture per-job traces and write them next to PATH.
    pub trace: Option<PathBuf>,
    /// `--metrics`: print QoS ledger summaries on **stderr** (stdout
    /// stays byte-identical with or without the flag). Only a binary that
    /// reads it accepts it.
    pub metrics: bool,
}

impl Cli {
    /// Parses `args` (without the program name). `env` looks up an
    /// environment variable: `VPC_QUICK=1` selects short windows and
    /// `VPC_JOBS=N` sets the worker count, and the flags override both.
    /// Without either, the worker count is [`default_jobs`]. `--metrics`
    /// is a flag only for a binary that `reads_metrics`.
    pub fn parse<I>(
        args: I,
        env: impl Fn(&str) -> Option<String>,
        reads_metrics: bool,
    ) -> Result<Cli, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut quick = env("VPC_QUICK").is_some_and(|v| v == "1");
        let mut jobs = env("VPC_JOBS").map(|v| positive("VPC_JOBS", &v)).transpose()?;
        let (mut json, mut trace, mut metrics) = (false, None, false);
        parse_flags(args, |flag, value| {
            match flag {
                "--jobs" => jobs = Some(positive("--jobs", &value()?)?),
                "--trace" => trace = Some(PathBuf::from(value()?)),
                "--quick" => quick = true,
                "--json" => json = true,
                "--metrics" if reads_metrics => metrics = true,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        let budget = if quick { RunBudget::quick() } else { RunBudget::standard() };
        let jobs = jobs.unwrap_or_else(default_jobs);
        Ok(Cli { opts: RunOptions { budget, jobs }, json, trace, metrics })
    }

    /// Parses the process's arguments and environment as [`Cli::parse`]
    /// does; on an error prints it with the usage text on stderr and exits
    /// with code 2. A `--trace` path into a missing directory is such an
    /// error, so a run never ends in a trace it cannot write.
    pub fn from_env(reads_metrics: bool) -> Cli {
        Cli::parse(std::env::args().skip(1), |key| std::env::var(key).ok(), reads_metrics)
            .and_then(|cli| match &cli.trace {
                Some(path) => check_trace_dir(path).map(|()| cli),
                None => Ok(cli),
            })
            .unwrap_or_else(|err| usage_error(&err, USAGE))
    }
}

/// The worker count when none is given: the host's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The flag grammar of every binary that takes flags: `--flag`,
/// `--flag value` and `--flag=value`. Calls `set(flag, value)` per flag,
/// which returns whether the binary reads it; a valued flag calls
/// `value()` for the text after `=`, or else the next argument unless it
/// starts with `--`.
///
/// # Errors
///
/// `value()` finding no value or an empty one, a flag `set` does not read
/// or a switch given a `=value`, and any error `set` returns.
pub fn parse_flags<I>(
    args: I,
    mut set: impl FnMut(&str, &mut dyn FnMut() -> Result<String, String>) -> Result<bool, String>,
) -> Result<(), String>
where
    I: IntoIterator<Item = String>,
{
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let (flag, mut inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = || {
            inline
                .take()
                .or_else(|| args.next().filter(|v| !v.starts_with("--")))
                .filter(|v| !v.is_empty())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        if !set(flag, &mut value)? || inline.is_some() {
            return Err(format!("unknown flag {arg:?}"));
        }
    }
    Ok(())
}

/// Checks, before anything runs, that the directory a `--trace` file goes
/// into exists.
///
/// # Errors
///
/// Names the path when its parent directory does not exist.
pub fn check_trace_dir(path: &Path) -> Result<(), String> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() && !dir.is_dir() => {
            Err(format!("--trace {}: directory {} does not exist", path.display(), dir.display()))
        }
        _ => Ok(()),
    }
}

fn positive(what: &str, value: &str) -> Result<usize, String> {
    match value.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{what} needs a positive integer, got {value:?}")),
    }
}

/// Writes `args` to stdout, the one path every binary's stdout takes. A
/// reader that has gone away (`| head`) ends the program quietly with
/// code 0, as it would end a Unix filter; any other write error is
/// reported on stderr and exits with code 1. Neither ends in a panic.
pub fn write_stdout(args: fmt::Arguments<'_>) {
    let mut out = std::io::stdout().lock();
    match out.write_fmt(args).and_then(|()| out.flush()) {
        Ok(()) => {}
        Err(err) if err.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(err) => {
            eprintln!("error: cannot write to stdout: {err}");
            std::process::exit(1);
        }
    }
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Prints `err` and the usage text (`usage` after the program name) on
/// stderr, then exits with code 2: the one way a binary rejects its
/// command line.
pub fn usage_error(err: &str, usage: &str) -> ! {
    let program = std::env::args().next().unwrap_or_default();
    let program = Path::new(&program).file_name().map_or("".into(), |n| n.to_string_lossy());
    eprintln!("error: {err}\n\nusage: {program} {usage}");
    std::process::exit(2);
}

/// For the binaries that take no flags (`table1`, `fig4_timing`): any
/// argument prints usage and exits with code 2.
pub fn no_flags() {
    if let Some(arg) = std::env::args().nth(1) {
        usage_error(&format!("unexpected argument {arg:?}"), "(takes no flags)");
    }
}

/// The whole `main` of a figure binary after parsing. Runs `run` under
/// the parsed options (capturing per-job traces when `--trace` is given),
/// prints the JSON report (`--json` with a `json` renderer) or the header
/// and the result's `Display` on stdout, reports per-job timings on
/// stderr and writes the traces. Returns the result for any extras.
pub fn figure<R: fmt::Display>(
    cli: &Cli,
    name: &str,
    title: &str,
    run: impl FnOnce(RunOptions) -> R,
    json: Option<fn(&R) -> String>,
) -> R {
    trace::set_capture(cli.trace.as_ref().map(|_| trace::DEFAULT_CAPACITY));
    let start = Instant::now();
    let result = run(cli.opts);
    let wall = start.elapsed();
    match json.filter(|_| cli.json) {
        Some(json) => outln!("{}", json(&result)),
        None => {
            header(title, cli.opts.budget);
            outln!("{result}");
        }
    }
    report_timings(name, cli.opts.jobs, wall);
    if let Some(path) = &cli.trace {
        write_job_traces(path, &trace::take_job_logs());
    }
    result
}

/// Drains the per-job timings behind the run just finished and prints
/// them to **stderr** (stdout must stay byte-identical across `--jobs`
/// settings, so wall-clock noise never lands there).
fn report_timings(what: &str, jobs: usize, wall: Duration) {
    let timings = TimingReport::drain();
    if timings.is_empty() {
        return;
    }
    eprintln!(
        "-- {what}: {:.3} s wall at --jobs {jobs}, effective parallelism {:.1}x --",
        wall.as_secs_f64(),
        timings.total.as_secs_f64() / wall.as_secs_f64().max(1e-9)
    );
    eprint!("{timings}");
}

/// Sanitizes a job label into a filename fragment (`fig5/Loads 2B` →
/// `fig5-Loads-2B`).
fn label_slug(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '.' || c == '-' { c } else { '-' })
        .collect()
}

/// Derives the per-job trace path `out.<slug>.json` from the main
/// `--trace` path `out.json`.
fn job_trace_path(base: &Path, label: &str) -> PathBuf {
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    base.with_file_name(format!("{stem}.{}.json", label_slug(label)))
}

/// Writes a Chrome trace document to `path`; exits with code 1 if it
/// cannot.
fn write_or_exit(path: &Path, doc: &JsonValue) {
    if let Err(err) = vpc::trace::write_chrome_trace(path, doc) {
        eprintln!("error: cannot write trace {}: {err}", path.display());
        std::process::exit(1);
    }
}

/// Writes the merged Chrome trace of `jobs` to `base` (one process lane
/// per job) and one file per job next to it, and reports what was written
/// to **stderr**. The trace writer of every binary's `--trace`.
pub fn write_job_traces(base: &Path, jobs: &[(String, TraceLog)]) {
    if jobs.is_empty() {
        eprintln!("-- no trace events captured; nothing written to {} --", base.display());
        return;
    }
    write_or_exit(base, &vpc::trace::chrome_trace_jobs(jobs));
    for (label, log) in jobs {
        write_or_exit(&job_trace_path(base, label), &vpc::trace::chrome_trace(label, log));
    }
    eprintln!(
        "-- wrote {} ({} jobs, {} events, {} dropped) + per-job traces --",
        base.display(),
        jobs.len(),
        jobs.iter().map(|(_, l)| l.events().len()).sum::<usize>(),
        jobs.iter().map(|(_, l)| l.dropped()).sum::<u64>(),
    );
}

/// Prints a standard experiment header.
fn header(title: &str, budget: RunBudget) {
    outln!("== {title} ==");
    outln!("(warmup {} cycles, measured {} cycles)", budget.warmup, budget.window);
}

#[cfg(test)]
mod tests {
    use super::*;

    type Args = &'static [&'static str];
    type Env = &'static [(&'static str, &'static str)];

    /// Parses as fig5 does, reading `--metrics`.
    fn parse(args: &[&str], env: &[(&str, &str)]) -> Result<Cli, String> {
        let lookup = |key: &str| env.iter().find(|(k, _)| *k == key).map(|(_, v)| v.to_string());
        Cli::parse(args.iter().map(|a| a.to_string()), lookup, true)
    }

    fn cli(budget: RunBudget, jobs: usize) -> Cli {
        Cli { opts: RunOptions { budget, jobs }, json: false, trace: None, metrics: false }
    }

    #[test]
    fn parses_flags_and_env() {
        let quick = RunBudget::quick();
        let standard = RunBudget::standard();
        let traced =
            |budget, jobs, path: &str| Cli { trace: Some(path.into()), ..cli(budget, jobs) };
        let cases: &[(Args, Env, Cli)] = &[
            (&["--jobs=3"], &[], cli(standard, 3)),
            (&["--quick", "--jobs", "5"], &[], cli(quick, 5)),
            (&[], &[("VPC_QUICK", "1")], cli(quick, 4)),
            (&[], &[("VPC_QUICK", "0")], cli(standard, 4)),
            (&[], &[("VPC_JOBS", "3")], cli(standard, 3)),
            (&["--jobs", "2"], &[("VPC_JOBS", "3")], cli(standard, 2)),
            (&["--quick"], &[("VPC_QUICK", "0"), ("VPC_JOBS", "7")], cli(quick, 7)),
            (&["--trace", "out.json"], &[], traced(standard, 4, "out.json")),
            (&["--trace=t.json", "--quick"], &[], traced(quick, 4, "t.json")),
            (&["--json", "--metrics"], &[], Cli { json: true, metrics: true, ..cli(standard, 4) }),
        ];
        for (args, env, want) in cases {
            // Cases without a worker count pin it through the env lookup,
            // so the host's parallelism never enters the table.
            let mut env = env.to_vec();
            if !env.iter().any(|(k, _)| *k == "VPC_JOBS") {
                env.push(("VPC_JOBS", "4"));
            }
            assert_eq!(parse(args, &env).as_ref(), Ok(want), "args {args:?}, env {env:?}");
        }
        assert!(parse(&[], &[]).unwrap().opts.jobs >= 1, "default worker count");
    }

    #[test]
    fn rejects_unknown_flags_and_malformed_values() {
        let cases: &[(Args, Env, &str)] = &[
            (&["--bogus"], &[], "unknown flag \"--bogus\""),
            (&["--jbos", "4"], &[], "unknown flag \"--jbos\""),
            (&["4"], &[], "unknown flag \"4\""),
            (&["--jobs", "0"], &[], "--jobs needs a positive integer"),
            (&["--jobs=x"], &[], "--jobs needs a positive integer"),
            (&["--jobs"], &[], "--jobs needs a value"),
            (&["--jobs", "--quick"], &[], "--jobs needs a value"),
            (&["--trace"], &[], "--trace needs a value"),
            (&["--trace="], &[], "--trace needs a value"),
            (&["--quick=1"], &[], "unknown flag \"--quick=1\""),
            (&[], &[("VPC_JOBS", "0")], "VPC_JOBS needs a positive integer"),
        ];
        for (args, env, want) in cases {
            let err = parse(args, env).expect_err(&format!("{args:?} {env:?} parsed"));
            assert!(err.contains(want), "args {args:?}: error {err:?} lacks {want:?}");
        }
        let args = ["--quick", "--metrics"].map(String::from);
        let err = Cli::parse(args, |_| None, false).expect_err("--metrics parsed");
        assert!(err.contains("unknown flag \"--metrics\""), "{err}");
    }
}

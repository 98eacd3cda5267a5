//! Shared helpers for the `reproduce` and `simulate` binaries.
//!
//! `reproduce` parses its command line with [`Cli::from_env`], the only
//! place that reads `--quick` and `--jobs`, and writes every table and
//! figure of the paper into `results/`. `simulate` reads its own flags
//! through the same grammar ([`parse_flags`]); it alone traces and keeps
//! QoS ledgers, and its `--trace` goes through [`check_trace_dir`] and
//! [`write_job_traces`]. Reproduction notes for each experiment live in
//! `EXPERIMENTS.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::io::{ErrorKind, Write};
use std::path::Path;
use std::time::Duration;

use vpc::experiments::RunBudget;
use vpc_sim::exec;
use vpc_sim::trace::TraceLog;

/// The usage text of [`Cli::parse`], after the program name.
const USAGE: &str = "\
[--quick] [--jobs N]

Writes every table and figure into results/ (results/quick/ under
--quick), both relative to the working directory.

  --quick         short simulation windows: the goldens of results/quick/
  --jobs N        worker threads for the job batch (default: the host's
                  available parallelism)

An unknown flag or a malformed value prints this text and exits with
code 2.";

/// The parsed command line of `reproduce`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// Simulation windows of every cell (`--quick`).
    pub budget: RunBudget,
    /// Worker threads for the batch (`--jobs`).
    pub jobs: usize,
}

impl Cli {
    /// Parses `args` (without the program name). Without `--jobs`, the
    /// worker count is [`default_jobs`].
    pub fn parse<I>(args: I) -> Result<Cli, String>
    where
        I: IntoIterator<Item = String>,
    {
        let (mut quick, mut jobs) = (false, None);
        parse_flags(args, |flag, value| {
            match flag {
                "--jobs" => jobs = Some(positive("--jobs", &value()?)?),
                "--quick" => quick = true,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        let budget = if quick { RunBudget::quick() } else { RunBudget::standard() };
        Ok(Cli { budget, jobs: jobs.unwrap_or_else(default_jobs) })
    }

    /// Parses the process's arguments as [`Cli::parse`] does; on an error
    /// prints it with the usage text on stderr and exits with code 2.
    pub fn from_env() -> Cli {
        Cli::parse(std::env::args().skip(1)).unwrap_or_else(|err| usage_error(&err, USAGE))
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

/// Writes `args` to stdout, the one path `simulate`'s stdout takes. A
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

/// Drains the per-job timings of the batches just run and prints them
/// ([`timing_summary`]) to **stderr**: wall-clock noise never lands in an
/// output file.
pub fn report_timings(what: &str, jobs: usize, wall: Duration) {
    let timings = exec::take_timings();
    let total: Duration = timings.iter().map(|t| t.elapsed).sum();
    let wall = wall.as_secs_f64();
    eprintln!(
        "-- {what}: {wall:.3} s wall at --jobs {jobs}, effective parallelism {:.1}x --",
        total.as_secs_f64() / wall.max(1e-9)
    );
    eprint!("{}", timing_summary(timings));
}

/// The job count and total simulation time of `timings`, then the twelve
/// slowest jobs (ties by label) and how many more there are.
pub fn timing_summary(mut timings: Vec<exec::JobTiming>) -> String {
    let total: Duration = timings.iter().map(|t| t.elapsed).sum();
    let mut text = format!(
        "simulation time by job: {} job(s), {:.3} s total\n",
        timings.len(),
        total.as_secs_f64()
    );
    timings.sort_by(|a, b| b.elapsed.cmp(&a.elapsed).then_with(|| a.label.cmp(&b.label)));
    for t in timings.iter().take(12) {
        text += &format!("  {:<44} {:>9.1} ms\n", t.label, t.elapsed.as_secs_f64() * 1e3);
    }
    if timings.len() > 12 {
        text += &format!("  ... {} more job(s)\n", timings.len() - 12);
    }
    text
}

/// Writes the Chrome trace of `jobs` to `path`, one process lane per job,
/// and reports what was written to **stderr**; exits with code 1 if it
/// cannot write. The trace writer of `simulate --trace`.
pub fn write_job_traces(path: &Path, jobs: &[(String, TraceLog)]) {
    if jobs.is_empty() {
        eprintln!("-- no trace events captured; nothing written to {} --", path.display());
        return;
    }
    if let Err(err) = vpc::trace::write_chrome_trace(path, &vpc::trace::chrome_trace_jobs(jobs)) {
        eprintln!("error: cannot write trace {}: {err}", path.display());
        std::process::exit(1);
    }
    eprintln!(
        "-- wrote {} ({} jobs, {} events, {} dropped) --",
        path.display(),
        jobs.len(),
        jobs.iter().map(|(_, l)| l.events().len()).sum::<usize>(),
        jobs.iter().map(|(_, l)| l.dropped()).sum::<u64>(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    type Args = &'static [&'static str];

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parses_flags() {
        let quick = RunBudget::quick();
        let standard = RunBudget::standard();
        let host = default_jobs();
        let cases: &[(Args, Cli)] = &[
            (&["--jobs=3"], Cli { budget: standard, jobs: 3 }),
            (&["--quick", "--jobs", "5"], Cli { budget: quick, jobs: 5 }),
            (&["--quick"], Cli { budget: quick, jobs: host }),
            (&[], Cli { budget: standard, jobs: host }),
        ];
        for (args, want) in cases {
            assert_eq!(parse(args).as_ref(), Ok(want), "args {args:?}");
        }
        assert!(host >= 1, "default worker count");
    }

    #[test]
    fn timing_summary_sorts_slowest_first_and_caps_rows() {
        let timing = |label: &str, ms| exec::JobTiming {
            label: label.into(),
            elapsed: Duration::from_millis(ms),
        };
        let timings =
            vec![timing("fig6/mcf", 10), timing("fig6/art", 30), timing("fig5/Loads 2B", 30)];
        let text = timing_summary(timings);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "simulation time by job: 3 job(s), 0.070 s total", "{text}");
        let labels: Vec<&str> = lines[1..].iter().map(|l| l[2..46].trim_end()).collect();
        assert_eq!(labels, ["fig5/Loads 2B", "fig6/art", "fig6/mcf"], "{text}");
        assert!(lines[3].ends_with("     10.0 ms"), "{text}");

        let text = timing_summary((0..13).map(|i| timing(&format!("job{i:02}"), i)).collect());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 14, "{text}");
        assert!(lines[1].starts_with("  job12 "), "{text}");
        assert!(lines[12].starts_with("  job01 "), "{text}");
        assert_eq!(lines[13], "  ... 1 more job(s)", "{text}");
    }

    #[test]
    fn rejects_unknown_flags_and_malformed_values() {
        let cases: &[(Args, &str)] = &[
            (&["--bogus"], "unknown flag \"--bogus\""),
            (&["--jbos", "4"], "unknown flag \"--jbos\""),
            (&["4"], "unknown flag \"4\""),
            (&["--jobs", "0"], "--jobs needs a positive integer"),
            (&["--jobs=x"], "--jobs needs a positive integer"),
            (&["--jobs"], "--jobs needs a value"),
            (&["--jobs", "--quick"], "--jobs needs a value"),
            (&["--quick=1"], "unknown flag \"--quick=1\""),
            (&["--json"], "unknown flag \"--json\""),
            (&["--trace", "out.json"], "unknown flag \"--trace\""),
            (&["--trace=t.json"], "unknown flag \"--trace=t.json\""),
            (&["--metrics"], "unknown flag \"--metrics\""),
        ];
        for (args, want) in cases {
            let err = parse(args).expect_err(&format!("{args:?} parsed"));
            assert!(err.contains(want), "args {args:?}: error {err:?} lacks {want:?}");
        }
    }
}

//! Non-gating performance smoke: re-runs the figure benchmark scenarios
//! in quick mode and prints each scenario's speedup against the
//! checked-in `BENCH_5.json` baseline (the `after` suite recorded when
//! quiescence-aware cycle skipping landed).
//!
//! Always exits 0 — wall-clock on shared CI hardware is too noisy to
//! gate on. The printout exists so a regression (speedup well below 1x
//! across the board) is visible in the CI log, not to fail the build.
//!
//! Usage: `perf_smoke [--baseline PATH] [--jobs N]` (default baseline
//! `BENCH_5.json`); the other shared flags are accepted too, and the run
//! is always quick.

use vpc::json::JsonValue;
use vpc_bench::harness::Suite;

fn field<'a>(value: &'a JsonValue, name: &str) -> Option<&'a JsonValue> {
    match value {
        JsonValue::Object(fields) => fields.iter().find_map(|(k, v)| (k == name).then_some(v)),
        _ => None,
    }
}

fn as_f64(value: &JsonValue) -> Option<f64> {
    match *value {
        JsonValue::Int(i) => Some(i as f64),
        JsonValue::Float(f) => Some(f),
        _ => None,
    }
}

/// Extracts `(name, median_ns)` pairs from `doc.after.figures.results`.
fn baseline_medians(doc: &JsonValue) -> Vec<(String, f64)> {
    let Some(JsonValue::Array(results)) =
        field(doc, "after").and_then(|v| field(v, "figures")).and_then(|v| field(v, "results"))
    else {
        return Vec::new();
    };
    results
        .iter()
        .filter_map(|r| {
            let JsonValue::Str(name) = field(r, "name")? else { return None };
            Some((name.clone(), as_f64(field(r, "median_ns")?)?))
        })
        .collect()
}

/// Splits `--baseline PATH` / `--baseline=PATH` off the arguments and
/// parses the rest with the shared parser.
fn parse_args() -> (String, vpc_bench::Cli) {
    let mut baseline = "BENCH_5.json".to_string();
    let mut rest = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.strip_prefix("--baseline=") {
            Some(path) => baseline = path.to_string(),
            None if arg == "--baseline" => match args.next() {
                Some(path) => baseline = path,
                None => {
                    eprintln!("error: --baseline needs a path");
                    std::process::exit(2);
                }
            },
            None => rest.push(arg),
        }
    }
    (baseline, vpc_bench::Cli::from_args(rest))
}

fn main() {
    let (path, cli) = parse_args();
    let baseline = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| JsonValue::parse(&text).ok())
        .map(|doc| baseline_medians(&doc))
        .unwrap_or_default();
    if baseline.is_empty() {
        eprintln!("perf_smoke: no baseline at {path}; printing absolute timings only");
    }

    let mut suite = Suite::new("perf_smoke", true, false);
    vpc_bench::scenarios::figures(&mut suite, cli.opts.jobs);
    let results = suite.finish();

    println!();
    println!("perf_smoke vs {path} (quick profile; >1x means faster than baseline):");
    for r in &results {
        match baseline.iter().find(|(name, _)| *name == r.name) {
            Some(&(_, base_median)) if r.median_ns > 0.0 => {
                println!("{:<44} {:>6.2}x", r.name, base_median / r.median_ns);
            }
            _ => println!("{:<44} {:>7}", r.name, "n/a"),
        }
    }
}

//! The repository benchmark: the paper's figure grids at the standard
//! budget and `--jobs 1`, measured end to end (untraced) or layer by layer
//! (traced).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig9_stores --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root: every simulated row is checked against
//! the checked-in `results/*.json`. Progress and explanations go to
//! stderr; the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `perfbench/README.md` documents
//! the workloads and every metric.

#![forbid(unsafe_code)]

mod grid;
mod host;
mod layers;
mod replay;
mod replica;

use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use vpc_sim::exec::{self, Job, JobTiming};

use grid::{CellOut, Plan, Workload};

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The command line, checked.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <fig9_stores|fig10_mixes|solo_spec> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => {
            Ok(Args { workload, seed, seconds, trace })
        }
        _ => Err("missing flag".to_string()),
    }
}

/// One pass over a plan's cells through the experiment engine.
pub struct Pass {
    /// Per cell, its outputs (`None` if it panicked).
    pub outs: Vec<Option<CellOut>>,
    /// Per cell, host seconds of the speed probe run right after it inside
    /// the same job (0 when the pass ran without a probe).
    pub probes: Vec<f64>,
    /// Per cell, the engine's job timing.
    pub timings: Vec<JobTiming>,
    /// Wall time of the whole pass.
    pub wall: Duration,
    /// CPU seconds of the whole pass.
    pub cpu_s: f64,
}

impl Pass {
    /// The engine's share of the pass: 1 − Σ job time / wall.
    pub fn overhead_frac(&self) -> f64 {
        let jobs: Duration = self.timings.iter().map(|t| t.elapsed).sum();
        1.0 - jobs.as_secs_f64() / self.wall.as_secs_f64()
    }
}

/// Runs every cell of `plan` once at `--jobs 1`, as the figure binaries
/// do, optionally following each cell with a run of the speed probe.
pub fn run_pass(plan: &Plan, probe: Option<&host::Probe>) -> Pass {
    let jobs = plan
        .cells
        .iter()
        .map(|cell| {
            Job::new(cell.label.clone(), move || {
                let out =
                    panic::catch_unwind(AssertUnwindSafe(|| grid::run_cell(cell, plan.budget)))
                        .ok();
                (out, probe.map_or(0.0, host::Probe::run))
            })
        })
        .collect();
    let cpu = host::cpu_seconds();
    let start = Instant::now();
    let (outs, probes) = exec::map_indexed(jobs, 1).into_iter().unzip();
    let wall = start.elapsed();
    let cpu_s = host::cpu_seconds() - cpu;
    Pass { outs, probes, timings: exec::take_timings(), wall, cpu_s }
}

/// Per cell, the factor that converts its host seconds to the reference
/// host speed: the probe's reference time over the median of the probes
/// run within three cells of it.
fn speed_factors(probes: &[f64]) -> Vec<f64> {
    (0..probes.len())
        .map(|i| {
            let window = &probes[i.saturating_sub(3)..(i + 4).min(probes.len())];
            host::PROBE_REF_S / host::median(window)
        })
        .collect()
}

/// The untraced run: repeated passes, every output checked, medians of
/// host times at the reference host speed reported.
fn untraced(plan: &Plan, seconds: u64, goldens: &[vpc::json::JsonValue]) -> (Vec<Metric>, usize) {
    let probe = host::Probe::new();
    let passes = plan.workload.passes(seconds);
    let (mut walls, mut raw_walls, mut cpus, mut setups, mut cells, mut speeds) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let (mut failed, mut last) = (0, grid::Check::default());
    for _ in 0..passes {
        let pass = run_pass(plan, Some(&probe));
        last = plan.check(&pass.outs, goldens);
        failed += last.failed_cells;
        let factors = speed_factors(&pass.probes);
        let raw: Vec<f64> = pass
            .timings
            .iter()
            .zip(&pass.probes)
            .map(|(t, p)| t.elapsed.as_secs_f64() - p)
            .collect();
        let scaled: Vec<f64> = raw.iter().zip(&factors).map(|(r, f)| r * f).collect();
        let scale = scaled.iter().sum::<f64>() / raw.iter().sum::<f64>();
        let probes: f64 = pass.probes.iter().sum();
        raw_walls.push(pass.wall.as_secs_f64() - probes);
        walls.push((pass.wall.as_secs_f64() - probes) * scale);
        cpus.push((pass.cpu_s - probes) * scale);
        setups.push(
            pass.outs
                .iter()
                .zip(&factors)
                .map(|(o, f)| o.as_ref().map_or(0.0, |o| o.setup_s) * f)
                .sum(),
        );
        cells.extend(scaled);
        speeds.push(scale);
    }
    let wall_s = host::median(&walls);
    let tail = host::tail_percentile(cells.len());
    eprintln!(
        "untraced: {} rows, {} cells x {passes} passes; raw wall {:.3} s with the host at \
         {:.3} of reference speed; cell_s_tail is p{tail} of {} cells",
        plan.rows.len(),
        plan.cells.len(),
        host::median(&raw_walls),
        host::median(&speeds),
        cells.len(),
    );
    eprintln!(
        "fidelity: failed_frac {} ; qos_violation_frac {}/{} ; paper_gap_pp {:.2}",
        failed as f64 / cells.len() as f64,
        last.qos_violations,
        last.qos_cells,
        last.paper_gap_pp,
    );
    let metrics = vec![
        Metric::new("wall_s", wall_s, "s"),
        Metric::new("cpu_s", host::median(&cpus), "s"),
        Metric::new("sim_mcycles_per_s", plan.cycles_per_pass() as f64 / wall_s / 1e6, "Mcycles/s"),
        Metric::new("cell_s_p50", host::median(&cells), "s"),
        Metric::new("cell_s_tail", host::percentile(&cells, tail), "s"),
        Metric::new("peak_rss_mb", host::peak_rss_mb(), "MiB"),
        Metric::new("setup_s", host::median(&setups), "s"),
    ];
    (metrics, failed)
}

/// Renders the result line.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let goldens = match grid::load_goldens(args.workload) {
        Ok(goldens) => goldens,
        Err(err) => {
            eprintln!("error: {err} (run from the repository root)");
            return ExitCode::from(2);
        }
    };
    let plan = Plan::new(args.workload, args.seed);
    eprintln!(
        "{} seed {}: {}",
        args.workload.name(),
        args.seed,
        plan.rows.iter().map(|r| format!("{r:?}")).collect::<Vec<_>>().join(", ")
    );
    let (metrics, attempted, failed) = if args.trace {
        let (metrics, check) = layers::traced(&plan, &goldens);
        (metrics, plan.cells.len(), check.failed_cells)
    } else {
        let (metrics, failed) = untraced(&plan, args.seconds, &goldens);
        (metrics, plan.cells.len() * plan.workload.passes(args.seconds), failed)
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("error: metric {} is not finite", bad.name);
        return ExitCode::from(1);
    }
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

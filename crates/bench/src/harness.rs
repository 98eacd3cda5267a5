//! A minimal wall-clock benchmark harness.
//!
//! Replaces the external Criterion dependency for this workspace's needs:
//! fixed iteration counts, an explicit warmup, and a median + p10/p90
//! summary per operation, printed as a table or as machine-readable JSON
//! (`--json`) suitable for a checked-in `BENCH_*.json` baseline.
//!
//! Two measurement shapes cover every scenario the old Criterion benches
//! had:
//!
//! * [`Suite::bench`] — a routine that can run back to back. Cheap
//!   routines are auto-batched so the `Instant` overhead does not drown
//!   nanosecond-scale operations.
//! * [`Suite::bench_batched`] — a routine that consumes a fresh input per
//!   iteration (the setup runs outside the timed region).

use std::hint::black_box;
use std::time::Instant;

use vpc::report::{to_json, JsonValue, ToJson};

/// Spread one timed sample across enough inner repetitions that it spans
/// at least this many nanoseconds.
const TARGET_SAMPLE_NS: u128 = 5_000;

/// One benchmark's wall-clock summary, in nanoseconds per operation.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Scenario name, e.g. `arbiter_grant/FCFS`.
    pub name: String,
    /// Number of timed samples taken.
    pub iters: u32,
    /// Median time per operation.
    pub median_ns: f64,
    /// 10th-percentile time per operation.
    pub p10_ns: f64,
    /// 90th-percentile time per operation.
    pub p90_ns: f64,
    /// Mean time per operation.
    pub mean_ns: f64,
}

impl ToJson for BenchResult {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object([
            ("name", JsonValue::from(self.name.as_str())),
            ("iters", JsonValue::from(u64::from(self.iters))),
            ("median_ns", JsonValue::from(self.median_ns)),
            ("p10_ns", JsonValue::from(self.p10_ns)),
            ("p90_ns", JsonValue::from(self.p90_ns)),
            ("mean_ns", JsonValue::from(self.mean_ns)),
        ])
    }
}

/// A named collection of benchmarks sharing CLI flags and output format.
pub struct Suite {
    name: String,
    quick: bool,
    json: bool,
    results: Vec<BenchResult>,
}

impl Suite {
    /// Creates a suite; `quick` and `json` come from the binary's
    /// [`crate::Cli`].
    pub fn new(name: &str, quick: bool, json: bool) -> Suite {
        Suite { name: name.to_string(), quick, json, results: Vec::new() }
    }

    /// The effective sample count: `--quick` divides by 10 (minimum 3) so
    /// smoke runs stay fast.
    pub fn effective_iters(&self, iters: u32) -> u32 {
        if self.quick {
            (iters / 10).max(3)
        } else {
            iters
        }
    }

    /// Times `routine` for `iters` samples after a short warmup,
    /// auto-batching cheap routines so each sample spans at least ~5µs.
    pub fn bench<T>(&mut self, name: &str, iters: u32, mut routine: impl FnMut() -> T) {
        let iters = self.effective_iters(iters);
        for _ in 0..(iters / 10).max(1) {
            black_box(routine());
        }
        let start = Instant::now();
        black_box(routine());
        let once = start.elapsed().as_nanos().max(1);
        let inner = (TARGET_SAMPLE_NS / once).clamp(1, 10_000) as u32;
        let mut samples = Vec::with_capacity(iters as usize);
        for _ in 0..iters {
            let start = Instant::now();
            for _ in 0..inner {
                black_box(routine());
            }
            samples.push(start.elapsed().as_nanos() as f64 / f64::from(inner));
        }
        self.push(name, iters, samples);
    }

    /// Times `routine` on a fresh `setup()` input per sample; only the
    /// routine is inside the timed region.
    pub fn bench_batched<S, T>(
        &mut self,
        name: &str,
        iters: u32,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> T,
    ) {
        let iters = self.effective_iters(iters);
        for _ in 0..(iters / 10).max(1) {
            black_box(routine(setup()));
        }
        let mut samples = Vec::with_capacity(iters as usize);
        for _ in 0..iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            samples.push(start.elapsed().as_nanos() as f64);
        }
        self.push(name, iters, samples);
    }

    fn push(&mut self, name: &str, iters: u32, samples: Vec<f64>) {
        let result = summarize(name, iters, samples);
        if !self.json {
            println!(
                "{:<44} median {:>12}  p10 {:>12}  p90 {:>12}",
                result.name,
                format_ns(result.median_ns),
                format_ns(result.p10_ns),
                format_ns(result.p90_ns),
            );
        }
        self.results.push(result);
    }

    /// Prints the suite footer (or the whole JSON document) and returns
    /// the collected results.
    pub fn finish(self) -> Vec<BenchResult> {
        if self.json {
            println!("{}", to_json(&self));
        } else {
            println!("{} scenario(s) in suite '{}'", self.results.len(), self.name);
        }
        self.results
    }
}

impl ToJson for Suite {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object([
            ("suite", JsonValue::from(self.name.as_str())),
            ("quick", JsonValue::from(self.quick)),
            ("results", JsonValue::Array(self.results.iter().map(ToJson::to_json_value).collect())),
        ])
    }
}

fn summarize(name: &str, iters: u32, mut samples: Vec<f64>) -> BenchResult {
    assert!(!samples.is_empty(), "benchmark '{name}' produced no samples");
    samples.sort_by(|a, b| a.total_cmp(b));
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    BenchResult {
        name: name.to_string(),
        iters,
        median_ns: percentile(&samples, 0.50),
        p10_ns: percentile(&samples, 0.10),
        p90_ns: percentile(&samples, 0.90),
        mean_ns: mean,
    }
}

/// Linear-interpolated percentile over a sorted sample vector.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let sorted = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&sorted, 0.0), 10.0);
        assert_eq!(percentile(&sorted, 0.5), 30.0);
        assert_eq!(percentile(&sorted, 1.0), 50.0);
        assert_eq!(percentile(&sorted, 0.10), 14.0);
        assert_eq!(percentile(&sorted, 0.90), 46.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn summarize_orders_the_quantiles() {
        let r = summarize("x", 4, vec![4.0, 1.0, 3.0, 2.0]);
        assert!(r.p10_ns <= r.median_ns && r.median_ns <= r.p90_ns);
        assert_eq!(r.mean_ns, 2.5);
        assert_eq!(r.median_ns, 2.5);
    }

    #[test]
    fn quick_mode_divides_iterations() {
        let quick = Suite::new("s", true, false);
        assert_eq!(quick.effective_iters(100), 10);
        assert_eq!(quick.effective_iters(10), 3);
        let full = Suite::new("s", false, false);
        assert_eq!(full.effective_iters(100), 100);
    }

    #[test]
    fn batched_bench_counts_iterations_and_reports() {
        let mut suite = Suite::new("unit", false, true);
        let mut setups = 0u32;
        let mut runs = 0u32;
        suite.bench_batched("counting", 20, || setups += 1, |()| runs += 1);
        // 2 warmup batches + 20 timed samples.
        assert_eq!(setups, 22);
        assert_eq!(runs, 22);
        let results = suite.finish();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].name, "counting");
        assert_eq!(results[0].iters, 20);
        assert!(results[0].median_ns >= 0.0);
    }

    #[test]
    fn suite_json_has_the_baseline_shape() {
        let suite = Suite {
            name: "components".into(),
            quick: false,
            json: true,
            results: vec![BenchResult {
                name: "arbiter_grant/FCFS".into(),
                iters: 100,
                median_ns: 1234.5,
                p10_ns: 1000.0,
                p90_ns: 2000.0,
                mean_ns: 1300.25,
            }],
        };
        let got = to_json(&suite);
        let want = concat!(
            "{\n",
            "  \"suite\": \"components\",\n",
            "  \"quick\": false,\n",
            "  \"results\": [\n",
            "    {\n",
            "      \"name\": \"arbiter_grant/FCFS\",\n",
            "      \"iters\": 100,\n",
            "      \"median_ns\": 1234.5,\n",
            "      \"p10_ns\": 1000.0,\n",
            "      \"p90_ns\": 2000.0,\n",
            "      \"mean_ns\": 1300.25\n",
            "    }\n",
            "  ]\n",
            "}"
        );
        assert_eq!(got, want);
    }
}

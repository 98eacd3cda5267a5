//! Host-side measurement helpers: the host-speed probe, process CPU time
//! and peak memory from `/proc`, timer overhead, and order statistics.

use std::hint::black_box;
use std::time::Instant;

use vpc_sim::SplitMix64;

/// Host seconds [`Probe::run`] takes at the reference host speed (the
/// fast state of a 2-CPU x86-64 container). End-to-end host times are
/// reported at this speed.
pub const PROBE_REF_S: f64 = 2.4e-3;

/// A fixed-work host-speed probe: sorting copies of one pseudo-random
/// array. On a shared host (a 2-CPU x86-64 container was measured) speed
/// varies between 0.6 and 1.2 of its fast value from minute to minute
/// as neighbours load the cores. Branchy integer code like this sort slows down with the
/// simulator, while the ratio of the two stays within a few percent. Its
/// code is part of the benchmark, so a change to the simulator cannot
/// move it.
pub struct Probe {
    data: Vec<u32>,
}

impl Probe {
    /// Builds the probe's input (fixed seed).
    pub fn new() -> Probe {
        let mut rng = SplitMix64::new(0x5EED);
        Probe { data: (0..1 << 16).map(|_| rng.next_u64() as u32).collect() }
    }

    /// Runs the probe once and returns its host seconds.
    pub fn run(&self) -> f64 {
        let start = Instant::now();
        for _ in 0..2 {
            let mut v = self.data.clone();
            v.sort_unstable();
            black_box(&v);
        }
        start.elapsed().as_secs_f64()
    }
}

/// On-CPU seconds of the calling thread so far. The benchmark runs its
/// cells on the main thread (`--jobs 1`), so this is the process's CPU
/// time. Reads the nanosecond on-CPU counter in `/proc/self/schedstat`
/// (the tick-based `utime` in `/proc/self/stat` is too coarse for a pass).
pub fn cpu_seconds() -> f64 {
    let stat =
        std::fs::read_to_string("/proc/self/schedstat").expect("/proc/self/schedstat is readable");
    let ns: u64 = stat
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("schedstat starts with on-CPU nanoseconds");
    ns as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Host nanoseconds one `Instant::now()` adds to a timed span: the median
/// of many back-to-back timer pairs. Reported next to the per-layer host
/// times, each of whose spans includes one timer read.
pub fn timer_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..20_001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// The nearest-rank `p`-th percentile (`p` in 0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (50th nearest-rank percentile) of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest of the usual tail percentiles that leaves at least ten of
/// `n` samples beyond it (falls back to the median for tiny samples).
pub fn tail_percentile(n: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
        .unwrap_or(50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(210), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(5), 50.0);
    }
}

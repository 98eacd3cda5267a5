//! Where a run's wall-clock time went: [`TimingReport`] aggregates the
//! per-job timings of the [`exec`] layer, and the figure binaries print it
//! to stderr.
//!
//! Figure results serialize themselves (`ToJson` on each `FigNResult`,
//! rendered by [`crate::json::to_json`]). The three `FigNReport` names
//! below are aliases of those results, kept only because the frozen
//! benchmark imports them.

use std::fmt;
use std::time::Duration;

use vpc_sim::exec;

use crate::experiments::{fig10, fig6, fig9};

/// Figure 6's result under its former report name. Goes with benchmark
/// revision 2 (ROADMAP item 2).
pub type Fig6Report = fig6::Fig6Result;

impl From<&fig6::Fig6Result> for fig6::Fig6Result {
    fn from(r: &fig6::Fig6Result) -> Self {
        r.clone()
    }
}

/// Figure 9's result under its former report name. Goes with benchmark
/// revision 2 (ROADMAP item 2).
pub type Fig9Report = fig9::Fig9Result;

impl From<&fig9::Fig9Result> for fig9::Fig9Result {
    fn from(r: &fig9::Fig9Result) -> Self {
        r.clone()
    }
}

/// Figure 10's result under its former report name. Goes with benchmark
/// revision 2 (ROADMAP item 2).
pub type Fig10Report = fig10::Fig10Result;

impl From<&fig10::Fig10Result> for fig10::Fig10Result {
    fn from(r: &fig10::Fig10Result) -> Self {
        r.clone()
    }
}

/// Aggregated wall-clock cost of all jobs sharing one label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingRow {
    /// The job label (e.g. `fig6/art`).
    pub label: String,
    /// How many jobs ran under this label.
    pub runs: u64,
    /// Total wall-clock time across those runs.
    pub total: Duration,
}

/// Where simulation time went: per-job wall-clock timings drained from
/// the [`exec`] layer, aggregated by label.
///
/// Timing is measurement noise, not figure data — the figure binaries
/// print this to stderr so `--json` stdout stays byte-identical across
/// `--jobs` settings and machines.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TimingReport {
    /// One row per distinct job label, slowest total first.
    pub rows: Vec<TimingRow>,
    /// Total simulation time across all jobs (sums worker time, so it can
    /// exceed wall-clock when jobs ran in parallel).
    pub total: Duration,
}

impl TimingReport {
    /// Drains every job timing the [`exec`] layer recorded for batches the
    /// current thread ran since the last drain, and aggregates it.
    pub fn drain() -> TimingReport {
        TimingReport::from_timings(exec::take_timings())
    }

    /// Aggregates an explicit timing list (exposed for tests).
    pub fn from_timings(timings: Vec<exec::JobTiming>) -> TimingReport {
        let mut rows: Vec<TimingRow> = Vec::new();
        let mut total = Duration::ZERO;
        for t in timings {
            total += t.elapsed;
            match rows.iter_mut().find(|r| r.label == t.label) {
                Some(row) => {
                    row.runs += 1;
                    row.total += t.elapsed;
                }
                None => rows.push(TimingRow { label: t.label, runs: 1, total: t.elapsed }),
            }
        }
        rows.sort_by(|a, b| b.total.cmp(&a.total).then_with(|| a.label.cmp(&b.label)));
        TimingReport { rows, total }
    }

    /// Number of jobs behind the report.
    pub fn jobs(&self) -> u64 {
        self.rows.iter().map(|r| r.runs).sum()
    }

    /// True when no job timings were recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for TimingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "simulation time by job: {} job(s), {:.3} s total",
            self.jobs(),
            self.total.as_secs_f64()
        )?;
        for row in self.rows.iter().take(12) {
            writeln!(
                f,
                "  {:<44} {:>9.1} ms  x{}",
                row.label,
                row.total.as_secs_f64() * 1e3,
                row.runs
            )?;
        }
        if self.rows.len() > 12 {
            writeln!(f, "  ... {} more label(s)", self.rows.len() - 12)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_report_aggregates_by_label_and_sorts_by_total() {
        let ms = Duration::from_millis;
        let report = TimingReport::from_timings(vec![
            exec::JobTiming { label: "fig6/art".into(), elapsed: ms(10) },
            exec::JobTiming { label: "fig6/mcf".into(), elapsed: ms(30) },
            exec::JobTiming { label: "fig6/art".into(), elapsed: ms(25) },
        ]);
        assert_eq!(report.jobs(), 3);
        assert_eq!(report.total, ms(65));
        assert_eq!(report.rows[0].label, "fig6/art");
        assert_eq!(report.rows[0].runs, 2);
        assert_eq!(report.rows[0].total, ms(35));
        assert_eq!(report.rows[1].label, "fig6/mcf");
        let text = report.to_string();
        assert!(text.contains("3 job(s)"), "{text}");
    }
}

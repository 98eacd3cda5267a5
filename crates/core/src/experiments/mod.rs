//! Experiment runners regenerating the paper's evaluation.
//!
//! One module per figure/table of the evaluation section, plus the
//! ablations DESIGN.md calls out. Every runner that builds a job batch
//! takes a [`RunOptions`]: its [`RunBudget`] lets tests use short windows
//! while the figure binaries use full-length runs, and its worker count
//! sizes the batch's thread pool. Each runner returns a typed result whose
//! `Display` prints the same rows or series the paper reports.
//!
//! | Runner | Paper content |
//! |---|---|
//! | [`fig4::run`] | Figure 4: back-to-back reads to two banks |
//! | [`fig5::run`] | Figure 5: microbenchmark utilization vs. bank count |
//! | [`fig6::run`] | Figure 6: SPEC solo L2 utilization |
//! | [`fig7::run`] | Figure 7: L2 write fraction and store gathering rate |
//! | [`fig8::run`] | Figure 8: Loads+Stores under each arbiter, with targets |
//! | [`fig9::run`] | Figure 9: SPEC subject vs. 3 Stores, differentiated service |
//! | [`fig10::run`] | §1/§5 headline: heterogeneous mixes, FCFS vs. VPC |
//! | [`ablations`] | reordering, capacity, preemption latency, work conservation |

pub mod ablations;
pub mod fig10;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;

/// Simulation window sizes shared by all experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunBudget {
    /// Warm-up cycles excluded from measurement.
    pub warmup: u64,
    /// Measured cycles.
    pub window: u64,
}

impl RunBudget {
    /// Full-length runs for the figure binaries.
    pub const fn standard() -> RunBudget {
        RunBudget { warmup: 60_000, window: 240_000 }
    }

    /// Short runs for tests.
    pub const fn quick() -> RunBudget {
        RunBudget { warmup: 10_000, window: 40_000 }
    }
}

impl Default for RunBudget {
    fn default() -> Self {
        RunBudget::standard()
    }
}

/// How a runner executes its job batch: the simulation windows and the
/// number of worker threads. The worker count changes only wall-clock
/// time, never a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Simulation windows of every job.
    pub budget: RunBudget,
    /// Worker threads for the job batch (see [`vpc_sim::exec::map_indexed`]).
    pub jobs: usize,
}

/// Formats a fraction as a percent with one decimal (figure axes).
pub(crate) fn pct(x: f64) -> String {
    format!("{:5.1}%", x * 100.0)
}

/// Renders a `[0, 1]` fraction as a fixed-width ASCII bar (figure bars).
pub(crate) fn bar(x: f64, width: usize) -> String {
    let filled = ((x.clamp(0.0, 1.0) * width as f64).round() as usize).min(width);
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_percentages() {
        assert_eq!(pct(0.265), " 26.5%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn bar_renders_clamped() {
        assert_eq!(bar(0.5, 10), "#####.....");
        assert_eq!(bar(0.0, 4), "....");
        assert_eq!(bar(1.5, 4), "####");
    }
}

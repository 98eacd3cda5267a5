//! A scoped thread-pool / job-map layer for embarrassingly-parallel
//! experiment grids.
//!
//! The paper's evaluation is a grid of *independent* simulations (one per
//! benchmark, per share point, per mix). Each simulation is a pure
//! function of its configuration — every workload owns its RNG seed — so
//! the grid can run on as many worker threads as the host offers while
//! producing output *byte-identical* to a serial run: [`map_indexed`]
//! joins results in input order, and nothing about a job's execution
//! depends on which worker ran it or when.
//!
//! # Model
//!
//! A [`Job`] is a labeled closure. [`map_indexed`] runs a batch of jobs
//! across up to `parallelism` scoped worker threads (borrowing from the
//! caller's stack is fine), returns the results in input order, and
//! propagates the first panic (in input order) with the failing job's
//! label attached. Per-job wall-clock timings are recorded into a sink
//! owned by the thread that called [`map_indexed`], which [`take_timings`]
//! on that same thread drains, so the binaries can report where
//! simulation time goes. Two threads running batches at the same time
//! never see each other's timings.
//!
//! # Choosing parallelism
//!
//! The caller passes the worker count explicitly. The experiment runners
//! take it as an argument (`vpc::experiments::Plan::run(jobs)`), which
//! `reproduce` fills from `--jobs N` or
//! [`std::thread::available_parallelism`].
//!
//! ```
//! use vpc_sim::exec::{self, Job};
//!
//! let jobs = (0..8).map(|i| Job::new(format!("square/{i}"), move || i * i)).collect();
//! let out = exec::map_indexed(jobs, 4);
//! assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A labeled unit of independent work.
pub struct Job<'a, T> {
    label: String,
    run: Box<dyn FnOnce() -> T + Send + 'a>,
}

impl<'a, T> Job<'a, T> {
    /// Wraps a closure with a label used in timing reports and panic
    /// messages.
    pub fn new(label: impl Into<String>, run: impl FnOnce() -> T + Send + 'a) -> Job<'a, T> {
        Job { label: label.into(), run: Box::new(run) }
    }

    /// The job's label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// Wall-clock cost of one completed job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobTiming {
    /// The job's label.
    pub label: String,
    /// Wall-clock time the job's closure ran for.
    pub elapsed: Duration,
}

thread_local! {
    /// Per-job timings of the batches this thread ran through
    /// [`map_indexed`], drained by [`take_timings`].
    static TIMINGS: RefCell<Vec<JobTiming>> = const { RefCell::new(Vec::new()) };
}

/// Drains and returns every job timing recorded by batches that the
/// current thread ran since its last call, in input order.
pub fn take_timings() -> Vec<JobTiming> {
    TIMINGS.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

/// What one finished job leaves behind: its label, its result (or the
/// caught panic payload) and its wall-clock cost.
type Outcome<T> = (String, std::thread::Result<T>, Duration);

/// Runs one job, catching panics so a worker thread never unwinds.
fn run_one<T>(job: Job<'_, T>) -> Outcome<T> {
    let Job { label, run } = job;
    let start = Instant::now();
    let result = panic::catch_unwind(AssertUnwindSafe(run));
    (label, result, start.elapsed())
}

/// Renders a caught panic payload for the re-thrown message.
fn payload_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Runs `jobs` across up to `parallelism` worker threads and returns
/// their results **in input order**.
///
/// Each job runs exactly once. With `parallelism <= 1` (or a single job)
/// everything runs on the calling thread — the parallel and serial paths
/// are otherwise identical, which is what makes `--jobs N` output
/// byte-identical to `--jobs 1`. Per-job timings are recorded for
/// [`take_timings`] in input order regardless of completion order; they
/// land in the calling thread's sink after the join.
///
/// # Panics
///
/// If a job panics, every remaining job still runs (no hang, no detached
/// threads), and `map_indexed` then panics with the input-order-first
/// failing job's label and panic message.
pub fn map_indexed<T: Send>(jobs: Vec<Job<'_, T>>, parallelism: usize) -> Vec<T> {
    let n = jobs.len();
    let workers = parallelism.clamp(1, n.max(1));

    let mut outcomes: Vec<Option<Outcome<T>>> = if workers <= 1 || n <= 1 {
        jobs.into_iter().map(|job| Some(run_one(job))).collect()
    } else {
        let slots: Vec<Mutex<Option<Job<'_, T>>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let results: Vec<Mutex<Option<Outcome<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = slots[i]
                        .lock()
                        .expect("job slot poisoned")
                        .take()
                        .expect("job claimed twice");
                    *results[i].lock().expect("result slot poisoned") = Some(run_one(job));
                });
            }
        });
        results.into_iter().map(|slot| slot.into_inner().expect("result slot poisoned")).collect()
    };

    let mut timings = Vec::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    let mut failure: Option<(String, String)> = None;
    for outcome in outcomes.iter_mut() {
        let (label, result, elapsed) = outcome.take().expect("job never ran");
        timings.push(JobTiming { label: label.clone(), elapsed });
        match result {
            Ok(value) => out.push(value),
            Err(payload) => {
                if failure.is_none() {
                    failure = Some((label, payload_message(payload.as_ref()).to_string()));
                }
            }
        }
    }
    TIMINGS.with(|t| t.borrow_mut().extend(timings));
    if let Some((label, message)) = failure {
        panic!("job '{label}' panicked: {message}");
    }
    out
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use super::*;

    #[test]
    fn preserves_input_order_at_any_parallelism() {
        for parallelism in [1usize, 2, 3, 8, 64] {
            let jobs = (0..17).map(|i| Job::new(format!("id/{i}"), move || i)).collect();
            assert_eq!(map_indexed(jobs, parallelism), (0..17).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let jobs: Vec<Job<'_, u32>> = Vec::new();
        assert_eq!(map_indexed(jobs, 4), Vec::<u32>::new());
    }

    #[test]
    fn borrows_from_the_caller_scope() {
        let inputs = [10u64, 20, 30];
        let jobs = inputs.iter().map(|v| Job::new("borrow", move || v * 2)).collect();
        assert_eq!(map_indexed(jobs, 2), vec![20, 40, 60]);
    }

    #[test]
    fn records_one_timing_per_job_in_input_order() {
        let jobs = (0..5).map(|i| Job::new(format!("t/{i}"), move || i)).collect();
        map_indexed(jobs, 3);
        let timings = take_timings();
        let labels: Vec<&str> = timings.iter().map(|t| t.label.as_str()).collect();
        assert_eq!(labels, vec!["t/0", "t/1", "t/2", "t/3", "t/4"]);
    }

    #[test]
    fn panic_carries_the_input_order_first_label() {
        let jobs: Vec<Job<'_, ()>> = (0..6)
            .map(|i| {
                Job::new(format!("p/{i}"), move || {
                    if i >= 4 {
                        panic!("boom {i}");
                    }
                })
            })
            .collect();
        let err = panic::catch_unwind(AssertUnwindSafe(|| map_indexed(jobs, 3)))
            .expect_err("a job panicked");
        let message = payload_message(err.as_ref()).to_string();
        assert!(
            message.contains("'p/4'") && message.contains("boom 4"),
            "unexpected panic message: {message}"
        );
    }

    /// Runs a six-job batch at parallelism 3 on the calling thread and
    /// returns the labels of the caller's timings. `both` lines the batch
    /// up with another thread's: both batches have finished before either
    /// thread drains its sink.
    fn sink_batch(prefix: &str, both: &Barrier) -> Vec<String> {
        let jobs = (0..6).map(|i| Job::new(format!("{prefix}/{i}"), move || i)).collect();
        map_indexed(jobs, 3);
        both.wait();
        take_timings().into_iter().map(|t| t.label).collect()
    }

    #[test]
    fn concurrent_callers_keep_their_own_sinks() {
        let both = Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| sink_batch("a", &both));
            let b = s.spawn(|| sink_batch("b", &both));
            (a.join().expect("thread a panicked"), b.join().expect("thread b panicked"))
        });
        let labels = |p: &str| (0..6).map(|i| format!("{p}/{i}")).collect::<Vec<_>>();
        assert_eq!(a, labels("a"), "thread a's timings");
        assert_eq!(b, labels("b"), "thread b's timings");
    }
}

//! Property tests for the `vpc_sim::exec` job-map layer — the machinery
//! every experiment grid now runs on. The properties here are the
//! contract the serial-equivalence guarantee rests on: each job runs
//! exactly once, results come back in input order regardless of worker
//! interleaving, and a panicking job surfaces its label instead of
//! hanging the batch.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use vpc_sim::check::{self, Config};
use vpc_sim::ensure;
use vpc_sim::exec::{self, Job};

#[test]
fn every_job_runs_exactly_once_in_input_order() {
    check::forall("exec_runs_once_in_order", Config::cases(64), |rng| {
        let n = rng.below(40) as usize;
        let parallelism = 1 + rng.below(12) as usize;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let jobs = counters
            .iter()
            .enumerate()
            .map(|(i, counter)| {
                Job::new(format!("case/{i}"), move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                    i
                })
            })
            .collect();
        let out = exec::map_indexed(jobs, parallelism);
        ensure!(
            out == (0..n).collect::<Vec<_>>(),
            "results out of order at n={n}, parallelism={parallelism}: {out:?}"
        );
        for (i, counter) in counters.iter().enumerate() {
            let runs = counter.load(Ordering::Relaxed);
            ensure!(runs == 1, "job {i} ran {runs} times (n={n}, parallelism={parallelism})");
        }
        Ok(())
    });
}

#[test]
fn one_timing_per_job_in_input_order() {
    check::forall("exec_timings_match_jobs", Config::cases(32), |rng| {
        let n = rng.below(20) as usize;
        let parallelism = 1 + rng.below(6) as usize;
        exec::take_timings();
        let jobs = (0..n).map(|i| Job::new(format!("timed/{i}"), move || i)).collect::<Vec<_>>();
        exec::map_indexed(jobs, parallelism);
        let timings = exec::take_timings();
        ensure!(timings.len() == n, "{} timings for {n} jobs", timings.len());
        for (i, timing) in timings.iter().enumerate() {
            ensure!(
                timing.label == format!("timed/{i}"),
                "timing {i} out of order: {:?}",
                timing.label
            );
        }
        Ok(())
    });
}

#[test]
fn panicking_job_surfaces_its_label() {
    check::forall("exec_panic_labels", Config::cases(32), |rng| {
        let n = 1 + rng.below(20) as usize;
        let parallelism = 1 + rng.below(8) as usize;
        let victim = rng.below(n as u64) as usize;
        let jobs: Vec<Job<'_, usize>> = (0..n)
            .map(|i| {
                Job::new(format!("grid/{i}"), move || {
                    if i == victim {
                        panic!("injected failure {i}");
                    }
                    i
                })
            })
            .collect();
        let payload =
            panic::catch_unwind(AssertUnwindSafe(|| exec::map_indexed(jobs, parallelism)))
                .err()
                .ok_or_else(|| {
                    format!("batch with a panicking job returned Ok (victim {victim})")
                })?;
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".into());
        ensure!(
            message.contains(&format!("'grid/{victim}'")),
            "panic message lost the label: {message:?}"
        );
        ensure!(
            message.contains(&format!("injected failure {victim}")),
            "panic message lost the payload: {message:?}"
        );
        Ok(())
    });
}

#[test]
fn results_are_independent_of_parallelism() {
    check::forall("exec_parallelism_invariance", Config::cases(32), |rng| {
        let n = rng.below(30) as usize;
        let inputs: Vec<u64> = (0..n).map(|_| rng.below(1 << 20)).collect();
        let run = |parallelism: usize| {
            let jobs = inputs
                .iter()
                .map(|&v| Job::new("mix", move || v.wrapping_mul(0x9E37_79B9).rotate_left(13)))
                .collect();
            exec::map_indexed(jobs, parallelism)
        };
        let serial = run(1);
        for parallelism in [2usize, 4, 16] {
            let parallel = run(parallelism);
            ensure!(
                parallel == serial,
                "parallelism {parallelism} changed the results: {parallel:?} vs {serial:?}"
            );
        }
        Ok(())
    });
}

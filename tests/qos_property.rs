//! The paper's central claim as a property over drawn machines: under VPC
//! arbiters and way quotas, every thread with a bandwidth share does at
//! least as well as its private target machine (§5.3), on any mix, share
//! split and bank count that `CmpConfig::validate` accepts. FCFS arbiters on
//! the same machines must miss, or the property would not discriminate.
//!
//! Each case simulates a machine and its targets at the standard budget, so
//! the test is `#[ignore]`d out of tier-1; `scripts/ci.sh` runs it with
//! `--include-ignored`.

use vpc::experiments::{run_cells, RunBudget};
use vpc::prelude::*;
use vpc_sim::check::{self, Config};
use vpc_sim::SplitMix64;
use vpc_workloads::SPEC_NAMES;

/// How far below its target a guaranteed thread may fall: the shared
/// machine and its target start cold and are measured over one finite
/// window, so the two do not meet exactly.
const EPSILON: f64 = 0.05;

/// Machines drawn per arbiter.
const CASES: u64 = 16;

/// One drawn thread: its workload, its weight `k` in `0..=8`, and (read
/// from the first thread only) whether the machine has 4 banks rather than
/// 2, so the bank count is drawn per case and a shrunk machine keeps one.
#[derive(Debug, Clone, Copy)]
struct Thread {
    workload: WorkloadSpec,
    k: u32,
    four_banks: bool,
}

fn thread(rng: &mut SplitMix64) -> Thread {
    let pick = rng.below(SPEC_NAMES.len() as u64 + 2) as usize;
    let workload = match pick.checked_sub(SPEC_NAMES.len()) {
        None => WorkloadSpec::Spec(SPEC_NAMES[pick]),
        Some(0) => WorkloadSpec::Loads,
        Some(_) => WorkloadSpec::Stores,
    };
    Thread { workload, k: rng.below(9) as u32, four_banks: rng.chance(0.5) }
}

/// Runs the machine `threads` describe under `arbiter` and checks every
/// guaranteed thread's IPC against its target.
///
/// Thread `i` gets `floor(8 k_i / max(8, sum k))` eighths as both `beta`
/// and `alpha`, as `simulate` does, so the shares sum to at most one and
/// stay valid when the shrinker removes threads.
fn meets_targets(
    threads: &[Thread],
    arbiter: impl Fn(Vec<Share>) -> ArbiterPolicy,
) -> Result<(), String> {
    let total = threads.iter().map(|t| t.k).sum::<u32>().max(8);
    let shares: Vec<Share> =
        threads.iter().map(|t| Share::new(8 * t.k / total, 8).expect("at most 8/8")).collect();
    let banks = if threads[0].four_banks { 4 } else { 2 };
    let cfg = CmpConfig::table1_with_threads(threads.len())
        .with_banks(banks)
        .with_arbiter(arbiter(shares.clone()))
        .with_capacity(CapacityPolicy::Vpc { shares: shares.clone() });
    cfg.validate().map_err(|e| format!("validate refused the machine: {e}"))?;

    let budget = RunBudget::standard();
    let workloads: Vec<WorkloadSpec> = threads.iter().map(|t| t.workload).collect();
    let mut cells = vec![("shared".to_string(), Cell::shared(cfg.clone(), workloads, budget))];
    let mut guaranteed = Vec::new();
    for (i, (t, &share)) in threads.iter().zip(&shares).enumerate() {
        if let Some(target) = Cell::target(&cfg, t.workload, share, share, budget) {
            cells.push((format!("target {i}"), target));
            guaranteed.push(i);
        }
    }
    let ipc = run_cells(&cells, 2, |cell| cell.run().1.ipc);
    for (&i, target) in guaranteed.iter().zip(&ipc[1..]) {
        let normalized = ipc[0][i] / target[0];
        if normalized < 1.0 - EPSILON {
            return Err(format!(
                "{} at {} reached {normalized:.3} of its target ({banks} banks, shares {})",
                threads[i].workload.name(),
                shares[i],
                shares.iter().map(Share::to_string).collect::<Vec<_>>().join(" "),
            ));
        }
    }
    Ok(())
}

#[test]
#[ignore = "simulates 16 machines and their targets per arbiter at the standard budget"]
fn every_guaranteed_thread_meets_its_target_on_random_machines() {
    let vpc = |shares| ArbiterPolicy::Vpc { shares, order: IntraThreadOrder::ReadOverWrite };
    check::forall_seq(
        "every_guaranteed_thread_meets_its_target_on_random_machines",
        Config::cases(CASES),
        (2, 4),
        thread,
        |threads| meets_targets(threads, vpc),
    );

    let fcfs = check::find_seq_failure(Config::cases(CASES), (2, 4), thread, |threads| {
        meets_targets(threads, |_| ArbiterPolicy::Fcfs)
    })
    .expect("FCFS arbiters must miss a target on some drawn machine");
    eprintln!(
        "FCFS misses at case {} (seed {:#x}): {}\n  shrunk machine: {:?}",
        fcfs.case, fcfs.seed, fcfs.message, fcfs.shrunk
    );
}

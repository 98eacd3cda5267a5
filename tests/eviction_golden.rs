//! Eviction-path golden: small, heavily contended L2 configurations whose
//! full trace-event streams are pinned by an FNV-1a digest.
//!
//! The figure goldens run the Table 1 16 MB L2, which never evicts at
//! their budgets, so they never reach victim selection, dirty castouts or
//! the line-conflict waits that follow a miss. Each configuration here
//! shrinks the cache to 32–256 sets of 2–8 ways, mixes LRU and VPC
//! capacity with FCFS and VPC arbiters, and runs `Stores` threads so the
//! store gathering buffers fill and stall. A change to any grant, lookup,
//! eviction, SGB gather/drain, DRAM issue or load return shows up as a
//! digest diff. After an *intended* behavior change, refresh with:
//!
//! ```sh
//! VPC_UPDATE_GOLDENS=1 cargo test --test eviction_golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use vpc::prelude::*;
use vpc_arbiters::ArbiterPolicy;
use vpc_cache::CapacityPolicy;
use vpc_sim::trace;

/// Environment variable that switches the test into updater mode (same
/// flow as `tests/golden_quick.rs`).
const UPDATE_ENV: &str = "VPC_UPDATE_GOLDENS";

/// Simulated cycles per configuration.
const CYCLES: u64 = 30_000;

/// Trace ring capacity: large enough that no run drops an event.
const TRACE_CAPACITY: usize = 1 << 20;

/// One eviction-heavy configuration.
struct Case {
    sets: usize,
    ways: usize,
    vpc_capacity: bool,
    vpc_arbiter: bool,
    mix: [WorkloadSpec; 4],
}

const STORES: WorkloadSpec = WorkloadSpec::Stores;

const CASES: [Case; 8] = [
    Case {
        sets: 32,
        ways: 2,
        vpc_capacity: false,
        vpc_arbiter: false,
        mix: [WorkloadSpec::Spec("mcf"), STORES, STORES, STORES],
    },
    Case {
        sets: 32,
        ways: 8,
        vpc_capacity: true,
        vpc_arbiter: true,
        mix: [WorkloadSpec::Spec("art"), STORES, STORES, STORES],
    },
    Case {
        sets: 64,
        ways: 4,
        vpc_capacity: true,
        vpc_arbiter: false,
        mix: [WorkloadSpec::Loads, STORES, WorkloadSpec::Spec("gcc"), STORES],
    },
    Case {
        sets: 64,
        ways: 2,
        vpc_capacity: false,
        vpc_arbiter: true,
        mix: [WorkloadSpec::Spec("swim"), WorkloadSpec::Spec("equake"), STORES, STORES],
    },
    Case {
        sets: 128,
        ways: 8,
        vpc_capacity: false,
        vpc_arbiter: false,
        mix: [STORES, WorkloadSpec::Spec("mcf"), WorkloadSpec::Spec("art"), STORES],
    },
    Case {
        sets: 128,
        ways: 4,
        vpc_capacity: true,
        vpc_arbiter: true,
        mix: [WorkloadSpec::Spec("gzip"), STORES, WorkloadSpec::Loads, STORES],
    },
    Case {
        sets: 256,
        ways: 2,
        vpc_capacity: true,
        vpc_arbiter: true,
        mix: [WorkloadSpec::Spec("mcf"), WorkloadSpec::Spec("swim"), STORES, STORES],
    },
    Case {
        sets: 256,
        ways: 8,
        vpc_capacity: false,
        vpc_arbiter: true,
        mix: [STORES, STORES, WorkloadSpec::Spec("equake"), WorkloadSpec::Loads],
    },
];

impl Case {
    fn label(&self) -> String {
        let names: Vec<&str> = self.mix.iter().map(WorkloadSpec::name).collect();
        format!(
            "{}x{} {} {} {}",
            self.sets,
            self.ways,
            if self.vpc_capacity { "vpc-capacity" } else { "lru" },
            if self.vpc_arbiter { "vpc-arbiter" } else { "fcfs" },
            names.join(",")
        )
    }

    fn config(&self) -> CmpConfig {
        let mut cfg = CmpConfig::table1();
        cfg.l2.total_sets = self.sets;
        cfg.l2.ways = self.ways;
        if self.vpc_arbiter {
            cfg = cfg.with_arbiter(ArbiterPolicy::vpc_equal(4));
        }
        if self.vpc_capacity {
            cfg = cfg.with_capacity(CapacityPolicy::vpc_equal(4));
        }
        cfg
    }
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Runs `case` with tracing on and renders its golden line: event count,
/// castouts, and the digest of every event's `Debug` rendering in order.
fn run_case(case: &Case) -> String {
    let mut sys = CmpSystem::new(case.config(), &case.mix);
    trace::install(TRACE_CAPACITY);
    sys.run(CYCLES);
    let log = trace::take().expect("trace log installed");
    assert_eq!(log.dropped(), 0, "{}: trace ring too small", case.label());
    let castouts = sys.l2().stats().castouts.get();
    assert!(castouts > 0, "{}: no dirty castout, eviction path not covered", case.label());
    let mut line = String::new();
    let digest = log.events().iter().fold(0xcbf2_9ce4_8422_2325, |h, e| {
        line.clear();
        writeln!(line, "{e:?}").expect("write to String");
        fnv1a(h, line.as_bytes())
    });
    format!(
        "{}: events={} castouts={} digest={digest:016x}",
        case.label(),
        log.events().len(),
        castouts
    )
}

#[test]
fn eviction_trace_digests_match_golden() {
    let rendered: String = CASES.iter().map(|c| run_case(c) + "\n").collect();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/quick/eviction_digests.txt");
    if std::env::var(UPDATE_ENV).is_ok_and(|v| v == "1") {
        std::fs::write(&path, rendered).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {path:?}: {e}\n(generate with {UPDATE_ENV}=1 cargo test --test eviction_golden)"
        )
    });
    assert_eq!(
        rendered, golden,
        "eviction-path trace digests differ from the golden; if the behavior \
         change is intended, refresh with {UPDATE_ENV}=1"
    );
}

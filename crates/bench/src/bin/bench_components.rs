//! Microbenchmarks of the simulator's building blocks: arbiter grant
//! throughput (the paper's Figure 3 hardware is a handful of comparators,
//! so the software model must also be cheap), capacity-manager victim
//! selection, the DRAM channel, and the whole-system cycle rate.
//!
//! Run with `--json` for a machine-readable `BENCH_*.json` baseline, and
//! `--quick` for a fast smoke pass.

use std::hint::black_box;

use vpc::prelude::*;
use vpc_arbiters::ArbRequest;
use vpc_bench::harness::Suite;
use vpc_capacity::{ReplacementPolicy, TagSet, TrueLru, VpcCapacityManager};
use vpc_mem::{DramChannel, MemConfig};
use vpc_sim::{AccessKind, LineAddr, SplitMix64};

fn bench_arbiters(suite: &mut Suite) {
    let q = Share::new(1, 4).unwrap();
    for policy in [
        ArbiterPolicy::Fcfs,
        ArbiterPolicy::RowFcfs,
        ArbiterPolicy::RoundRobin,
        ArbiterPolicy::vpc_equal(4),
        ArbiterPolicy::Drr { shares: vec![q; 4] },
        ArbiterPolicy::Sfq { shares: vec![q; 4] },
    ] {
        suite.bench_batched(
            &format!("arbiter_grant/{}", policy.label()),
            100,
            || {
                let mut arb = policy.build(4);
                for i in 0..64u64 {
                    let kind = if i % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
                    let service = if kind.is_read() { 8 } else { 16 };
                    arb.enqueue(ArbRequest::new(i, ThreadId((i % 4) as u8), kind, service), i);
                }
                arb
            },
            |mut arb| {
                let mut now = 0;
                while let Some(req) = arb.select(now) {
                    now += req.service_time;
                    black_box(req.id);
                }
            },
        );
    }
}

fn bench_capacity(suite: &mut Suite) {
    let mut set = TagSet::new(32);
    let mut rng = SplitMix64::new(1);
    for way in 0..32 {
        set.fill(way, LineAddr(way as u64), ThreadId((way % 4) as u8), rng.below(1000));
    }
    let lru = TrueLru;
    let vpc = VpcCapacityManager::equal(4, 32);
    suite.bench("victim_selection/true_lru", 100, || {
        black_box(lru.choose_victim(black_box(&set), ThreadId(0)))
    });
    suite.bench("victim_selection/vpc_way_quota", 100, || {
        black_box(vpc.choose_victim(black_box(&set), ThreadId(0)))
    });
}

fn bench_dram_channel(suite: &mut Suite) {
    suite.bench_batched(
        "dram_channel_16_reads",
        100,
        || DramChannel::new(MemConfig::ddr2_800()),
        |mut ch| {
            let mut now = 0;
            for i in 0..16u64 {
                while !ch.bank_available(LineAddr(i), now) {
                    now += 5;
                }
                black_box(ch.issue(LineAddr(i), AccessKind::Read, i, now));
            }
        },
    );
}

fn bench_system_cycle_rate(suite: &mut Suite) {
    // Whole-system simulation rate: cycles per second of the 4-thread
    // Table 1 machine under VPC arbiters.
    suite.bench_batched(
        "cmp_system_10k_cycles",
        20,
        || {
            let mut cfg = CmpConfig::table1().with_arbiter(ArbiterPolicy::vpc_equal(4));
            cfg.l2.total_sets = 1024;
            let mix = [
                WorkloadSpec::Spec("art"),
                WorkloadSpec::Spec("mcf"),
                WorkloadSpec::Spec("gcc"),
                WorkloadSpec::Spec("gzip"),
            ];
            CmpSystem::new(cfg, &mix)
        },
        |mut sys| {
            sys.run(10_000);
            black_box(sys.now());
        },
    );
}

fn bench_quiescence_skipping(suite: &mut Suite) {
    // The cycle-skipping headline, measured both ways on the most
    // DRAM-bound configuration we model: a single cache-hostile thread
    // (mcf's profile) on a tiny 64-set L2, so nearly every access misses
    // and the system spends long stretches waiting on DRAM. `skip` runs
    // `CmpSystem::run`, `no_skip` the naive `run_reference` loop; both
    // reach byte-identical state (see the `skip_equivalence` property
    // tests), so the ratio of the two medians is the honest speedup.
    let mcf_on_tiny_l2 = || {
        let mut cfg = CmpConfig::table1();
        cfg.processors = 1;
        cfg.l2.total_sets = 64;
        CmpSystem::new(cfg, &[WorkloadSpec::Spec("mcf")])
    };
    suite.bench_batched("dram_bound_mcf/skip", 20, mcf_on_tiny_l2, |mut sys| {
        sys.run(50_000);
        black_box(sys.now());
    });
    suite.bench_batched("dram_bound_mcf/no_skip", 20, mcf_on_tiny_l2, |mut sys| {
        sys.run_reference(50_000);
        black_box(sys.now());
    });
}

fn main() {
    let cli = vpc_bench::Cli::from_env();
    let mut suite = Suite::new("components", cli.quick(), cli.json);
    bench_arbiters(&mut suite);
    bench_capacity(&mut suite);
    bench_dram_channel(&mut suite);
    bench_system_cycle_rate(&mut suite);
    bench_quiescence_skipping(&mut suite);
    suite.finish();
}

//! The quiescence contract for [`SharedL2`] (banks + arbiters + memory
//! stack): an L2 ticked only at its reported next-activity cycles (plus
//! request arrivals) is state-identical — responses at the same cycles,
//! same stats and histograms, same `Debug` rendering — to one ticked
//! every cycle, under every arbiter and capacity policy.

use vpc_arbiters::{ArbiterPolicy, IntraThreadOrder};
use vpc_cache::{CapacityPolicy, L2Config, SharedL2};
use vpc_mem::MemConfig;
use vpc_sim::check::{self, gen, Config};
use vpc_sim::{ensure, ensure_eq, AccessKind, CacheRequest, Cycle, Share, SplitMix64, ThreadId};

fn random_cfg(rng: &mut SplitMix64, threads: usize) -> L2Config {
    let mut cfg = L2Config::table1(
        threads,
        match rng.below(4) {
            0 => ArbiterPolicy::Fcfs,
            1 => ArbiterPolicy::RowFcfs,
            2 => ArbiterPolicy::Vpc {
                shares: vec![Share::new(1, threads as u32).unwrap(); threads],
                order: IntraThreadOrder::Fifo,
            },
            _ => ArbiterPolicy::vpc_equal(threads),
        },
    );
    cfg.total_sets = 64;
    cfg.ways = 4;
    cfg.sgb_idle_drain = 200;
    if rng.chance(0.5) {
        cfg.capacity = CapacityPolicy::vpc_equal(threads);
    }
    cfg
}

/// A pre-generated submission schedule: (cycle, thread, line, kind).
fn schedule(
    rng: &mut SplitMix64,
    threads: usize,
    horizon: Cycle,
) -> Vec<(Cycle, ThreadId, vpc_sim::LineAddr, AccessKind)> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < horizon {
        at += rng.below(24) + 1;
        out.push((
            at,
            gen::thread_id(rng, threads),
            gen::line_addr(rng, 48),
            gen::access_kind(rng),
        ));
    }
    out
}

/// Tick-every-cycle vs. tick-only-at-next-activity over the same
/// submission schedule. Tokens are assigned at acceptance time, so
/// identical acceptance decisions (themselves part of the property)
/// keep the two instances' token streams aligned.
#[test]
fn sparse_ticking_matches_dense_ticking() {
    check::forall("l2_sparse_ticking_matches_dense_ticking", Config::cases(16), |rng| {
        let threads = 4;
        let cfg = random_cfg(rng, threads);
        let arrivals = schedule(rng, threads, 3_000);
        let end: Cycle = 10_000;

        let mut dense = SharedL2::new(cfg.clone(), MemConfig::ddr2_800());
        let mut dense_log = Vec::new();
        let mut token = 0u64;
        let mut next = 0;
        for now in 0..end {
            while next < arrivals.len() && arrivals[next].0 == now {
                let (_, thread, line, kind) = arrivals[next];
                if dense.can_accept(thread, line) {
                    token += 1;
                    dense.submit(CacheRequest { thread, line, kind, token }, now);
                }
                next += 1;
            }
            dense.tick(now);
            while let Some(resp) = dense.pop_response(now) {
                dense_log.push((now, resp));
            }
        }

        let mut sparse = SharedL2::new(cfg, MemConfig::ddr2_800());
        let mut sparse_log = Vec::new();
        let mut token = 0u64;
        let mut next = 0;
        let mut now: Cycle = 0;
        while now < end {
            while next < arrivals.len() && arrivals[next].0 == now {
                let (_, thread, line, kind) = arrivals[next];
                if sparse.can_accept(thread, line) {
                    token += 1;
                    sparse.submit(CacheRequest { thread, line, kind, token }, now);
                }
                next += 1;
            }
            sparse.tick(now);
            while let Some(resp) = sparse.pop_response(now) {
                sparse_log.push((now, resp));
            }
            let arrival = arrivals.get(next).map(|&(at, ..)| at).unwrap_or(end);
            let wake = sparse.next_activity(now).unwrap_or(end).min(arrival);
            now = wake.clamp(now + 1, end);
        }

        ensure_eq!(dense_log, sparse_log, "response streams diverged");
        ensure!(dense.is_idle() && sparse.is_idle(), "both instances drained");
        ensure_eq!(format!("{dense:?}"), format!("{sparse:?}"), "final L2 state diverged");
        Ok(())
    });
}

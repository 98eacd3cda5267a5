//! The quiescence contract for [`Core`]: a core + L2 pair advanced with
//! the skip protocol — jump to the minimum of `Core::next_activity` and
//! `SharedL2::next_activity`, crediting skipped stall cycles via
//! [`Core::fast_forward`] — ends in exactly the state of a pair ticked
//! every cycle: same retirement, same stall counters, same `Debug`
//! rendering of both the core and the L2.

use vpc_arbiters::ArbiterPolicy;
use vpc_cache::{L2Config, SharedL2};
use vpc_cpu::{Core, CoreConfig, FixedTrace, Op};
use vpc_mem::MemConfig;
use vpc_sim::check::{self, Config};
use vpc_sim::{ensure_eq, Cycle, LineAddr, SplitMix64, ThreadId};

fn random_trace(rng: &mut SplitMix64, len: usize) -> FixedTrace {
    let mut ops: Vec<Op> = (0..len)
        .map(|_| match rng.below(10) {
            0..=3 => Op::NonMem,
            4..=6 => Op::Load(LineAddr(rng.below(96))),
            7..=8 => Op::Store(LineAddr(rng.below(96))),
            _ => Op::Bubble(1 + rng.below(4) as u8),
        })
        .collect();
    ops.push(Op::NonMem);
    FixedTrace::new("random", ops)
}

fn build(trace: FixedTrace) -> (Core<Box<FixedTrace>>, SharedL2) {
    let core = Core::new(CoreConfig::table1(), ThreadId(0), Box::new(trace));
    let mut cfg = L2Config::table1(1, ArbiterPolicy::RowFcfs);
    cfg.total_sets = 128;
    (core, SharedL2::new(cfg, MemConfig::ddr2_800()))
}

/// Dense (every-cycle) and sparse (skip-to-next-activity) advancement of
/// the same core + L2 pair must be indistinguishable.
#[test]
fn fast_forward_matches_dense_ticking() {
    check::forall("fast_forward_matches_dense_ticking", Config::cases(16), |rng| {
        let trace = random_trace(rng, 64);
        let end: Cycle = 30_000;

        let (mut dense_core, mut dense_l2) = build(trace.clone());
        for now in 0..end {
            dense_core.tick(now, &mut dense_l2);
            dense_l2.tick(now);
            while let Some(resp) = dense_l2.pop_response(now) {
                dense_core.on_l2_response(resp.line, now);
            }
        }

        let (mut sparse_core, mut sparse_l2) = build(trace);
        let mut now: Cycle = 0;
        while now < end {
            sparse_core.tick(now, &mut sparse_l2);
            sparse_l2.tick(now);
            while let Some(resp) = sparse_l2.pop_response(now) {
                sparse_core.on_l2_response(resp.line, now);
            }
            let mut na = sparse_l2.next_activity(now);
            if let Some(c) = sparse_core.next_activity(now, &sparse_l2) {
                na = Some(na.map_or(c, |b| b.min(c)));
            }
            let target = na.unwrap_or(end).clamp(now + 1, end);
            if target > now + 1 {
                sparse_core.fast_forward(now, target);
            }
            now = target;
        }

        ensure_eq!(dense_core.retired(), sparse_core.retired(), "retirement diverged");
        ensure_eq!(format!("{dense_core:?}"), format!("{sparse_core:?}"), "core state diverged");
        ensure_eq!(format!("{dense_l2:?}"), format!("{sparse_l2:?}"), "L2 state diverged");
        Ok(())
    });
}

//! The quiescence contract for [`ArbitratedResource`]: between `now` and
//! the cycle reported by `next_activity`, a resource receiving no new
//! enqueues must not change observable state — every `try_grant` in that
//! window returns `None` and leaves all counters untouched — and at the
//! reported cycle the pending work actually proceeds.

use vpc_arbiters::{ArbRequest, ArbiterPolicy, ArbitratedResource, IntraThreadOrder};
use vpc_sim::check::{self, gen, Config};
use vpc_sim::{ensure, ensure_eq, Share, SplitMix64, ThreadId};

fn random_policy(rng: &mut SplitMix64, threads: usize) -> ArbiterPolicy {
    // Nonzero shares everywhere: a zero-share thread's requests ride the
    // best-effort path, whose grant timing is still covered by the
    // contract, but equal nonzero shares keep every policy comparable.
    let equal: Vec<Share> = vec![Share::new(1, threads as u32).unwrap(); threads];
    match rng.below(4) {
        0 => ArbiterPolicy::Fcfs,
        1 => ArbiterPolicy::RowFcfs,
        2 => ArbiterPolicy::Vpc { shares: equal, order: IntraThreadOrder::ReadOverWrite },
        _ => ArbiterPolicy::Vpc { shares: equal, order: IntraThreadOrder::Fifo },
    }
}

/// Observable state of a resource, for change detection.
fn observe(res: &ArbitratedResource) -> (usize, u64, u64, Vec<u64>) {
    (
        res.pending(),
        res.grants(),
        res.busy_until(),
        (0..4).map(|t| res.thread_busy_cycles(ThreadId(t))).collect(),
    )
}

/// Drive a random arbitration pattern; whenever the resource is mid-
/// service with work pending, every cycle before `next_activity` must be
/// a provable no-op, and the reported cycle must grant.
#[test]
fn no_state_change_before_next_activity() {
    check::forall("no_state_change_before_next_activity", Config::cases(40), |rng| {
        let threads = 4;
        let mut res = ArbitratedResource::new(random_policy(rng, threads).build(threads));
        let mut now = 0u64;
        let mut id = 0u64;
        for _ in 0..200 {
            // Random arrivals.
            while rng.chance(0.5) {
                id += 1;
                let kind = gen::access_kind(rng);
                let service = rng.below(12) + 4;
                res.enqueue(ArbRequest::new(id, gen::thread_id(rng, threads), kind, service), now);
            }
            res.try_grant(now);
            match res.next_activity(now) {
                None => {
                    ensure_eq!(res.pending(), 0, "idle report requires an empty arbiter");
                    now += rng.below(8) + 1;
                }
                Some(na) => {
                    ensure!(na > now, "next_activity must be in the future");
                    let before = observe(&res);
                    for c in now + 1..na {
                        ensure!(
                            res.try_grant(c).is_none(),
                            "grant fired at {c}, before reported next activity {na}"
                        );
                        ensure_eq!(observe(&res), before, "state changed during quiescence");
                    }
                    ensure!(
                        res.try_grant(na).is_some(),
                        "pending work must proceed at the reported cycle {na}"
                    );
                    now = na;
                }
            }
        }
        Ok(())
    });
}

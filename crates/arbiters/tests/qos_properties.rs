//! Cross-policy QoS properties: the share-aware VPC arbiter, with either
//! intra-thread buffer order, must converge to share-proportional service
//! under backlog, and no policy may lose requests.

use vpc_arbiters::{ArbRequest, ArbiterPolicy, IntraThreadOrder};
use vpc_sim::check::{self, gen, Config};
use vpc_sim::{ensure, ensure_eq, AccessKind, Share, ThreadId};

fn share_aware_policies(shares: Vec<Share>) -> Vec<ArbiterPolicy> {
    vec![
        ArbiterPolicy::Vpc { shares: shares.clone(), order: IntraThreadOrder::ReadOverWrite },
        ArbiterPolicy::Vpc { shares, order: IntraThreadOrder::Fifo },
    ]
}

/// Under continuous backlog with mixed read/write service times, every
/// QoS arbiter delivers service (busy cycles, not grant counts)
/// proportional to the configured shares, within 10%.
#[test]
fn qos_arbiters_converge_to_proportional_service() {
    check::forall("qos_arbiters_converge_to_proportional_service", Config::cases(20), |rng| {
        let num0 = gen::range(rng, 1, 3) as u32;
        let shares = vec![Share::new(num0, 4).unwrap(), Share::new(4 - num0, 4).unwrap()];
        let inner_seed = rng.next_u64();
        for policy in share_aware_policies(shares.clone()) {
            let mut arb = policy.build(2);
            // Each policy replays the identical arrival pattern.
            let mut rng = vpc_sim::SplitMix64::new(inner_seed);
            let mut service = [0u64; 2];
            let mut id = 0;
            let mut now = 0u64;
            let mut queued = [0u32; 2];
            for _ in 0..6000 {
                for t in 0..2u8 {
                    while queued[t as usize] < 2 {
                        id += 1;
                        let write = rng.chance(0.4);
                        let kind = if write { AccessKind::Write } else { AccessKind::Read };
                        let cost = if write { 16 } else { 8 };
                        arb.enqueue(ArbRequest::new(id, ThreadId(t), kind, cost), now);
                        queued[t as usize] += 1;
                    }
                }
                let g = arb.select(now).expect("backlogged");
                queued[g.thread.index()] -= 1;
                service[g.thread.index()] += g.service_time;
                now += g.service_time;
            }
            let total = (service[0] + service[1]) as f64;
            let got = service[0] as f64 / total;
            let want = shares[0].as_f64();
            ensure!(
                (got - want).abs() < 0.10,
                "{policy:?}: thread 0 got {got:.3} of service, share is {want:.3}"
            );
        }
        Ok(())
    });
}

/// No arbiter ever loses or duplicates a request.
#[test]
fn arbiters_conserve_requests() {
    check::forall("arbiters_conserve_requests", Config::cases(20), |rng| {
        let shares = vec![Share::new(1, 2).unwrap(), Share::new(1, 2).unwrap()];
        let policy = match rng.below(4) {
            0 => ArbiterPolicy::Fcfs,
            1 => ArbiterPolicy::RowFcfs,
            2 => ArbiterPolicy::Vpc { shares, order: IntraThreadOrder::ReadOverWrite },
            _ => ArbiterPolicy::Vpc { shares, order: IntraThreadOrder::Fifo },
        };
        let mut arb = policy.build(2);
        let mut submitted = std::collections::BTreeSet::new();
        let mut granted = std::collections::BTreeSet::new();
        let mut id = 0u64;
        for now in 0..2000u64 {
            if rng.chance(0.4) {
                id += 1;
                let t = gen::thread_id(rng, 2);
                arb.enqueue(ArbRequest::new(id, t, AccessKind::Read, 8), now);
                submitted.insert(id);
            }
            if rng.chance(0.4) {
                if let Some(g) = arb.select(now) {
                    ensure!(granted.insert(g.id), "request {} granted twice", g.id);
                }
            }
        }
        while let Some(g) = arb.select(3000) {
            ensure!(granted.insert(g.id), "request {} granted twice", g.id);
        }
        ensure_eq!(submitted, granted, "every request granted exactly once");
        ensure!(arb.is_empty());
        Ok(())
    });
}

//! Liveness and conservation properties of the full shared-L2 + memory
//! stack under randomized traffic: every read is answered exactly once,
//! writes all retire, and the system drains to idle — under every arbiter
//! and capacity policy combination, at 2, 4 and 8 banks.

use vpc_arbiters::{ArbiterPolicy, IntraThreadOrder};
use vpc_cache::{CapacityPolicy, L2Config, SharedL2};
use vpc_mem::MemConfig;
use vpc_sim::check::{self, Config};
use vpc_sim::{ensure, ensure_eq, AccessKind, CacheRequest, LineAddr, Share, ThreadId};

fn small_cfg(threads: usize, arbiter: ArbiterPolicy, capacity: CapacityPolicy) -> L2Config {
    let mut cfg = L2Config::table1(threads, arbiter);
    cfg.total_sets = 64;
    cfg.ways = 4;
    cfg.sgb_idle_drain = 200;
    cfg.capacity = capacity;
    cfg
}

fn arbiter_policy(which: u8, threads: usize) -> ArbiterPolicy {
    match which % 4 {
        0 => ArbiterPolicy::Fcfs,
        1 => ArbiterPolicy::RowFcfs,
        2 => ArbiterPolicy::Vpc {
            shares: vec![Share::new(1, threads as u32).unwrap(); threads],
            order: IntraThreadOrder::Fifo,
        },
        _ => ArbiterPolicy::vpc_equal(threads),
    }
}

/// Fire random reads and writes from 4 threads into a tiny, heavily
/// conflicting cache of 2, 4 or 8 banks; every read must be answered
/// exactly once and the whole system must drain. Memory responses are
/// routed to their bank by line, so the bank count is an input.
#[test]
fn random_traffic_always_drains() {
    check::forall("random_traffic_always_drains", Config::cases(24), |rng| {
        let threads = 4;
        let which = rng.below(8) as u8;
        let capacity =
            if which < 4 { CapacityPolicy::Lru } else { CapacityPolicy::vpc_equal(threads) };
        let mut cfg = small_cfg(threads, arbiter_policy(which, threads), capacity);
        cfg.banks = 2 << rng.below(3);
        let mut l2 = SharedL2::new(cfg, MemConfig::ddr2_800());

        let mut next_token = 0u64;
        let mut outstanding_reads = std::collections::BTreeSet::new();
        let mut answered = 0u64;
        let mut submitted_reads = 0u64;
        let mut submitted_writes = 0u64;
        let mut now = 0u64;

        // Inject for 6000 cycles...
        while now < 6_000 {
            if rng.chance(0.25) {
                let thread = ThreadId(rng.below(threads as u64) as u8);
                // A small line space maximizes set conflicts, same-line
                // collisions, and evictions of lines under fill.
                let line = LineAddr(rng.below(48));
                let is_read = rng.chance(0.6);
                if l2.can_accept(thread, line) {
                    next_token += 1;
                    let kind = if is_read { AccessKind::Read } else { AccessKind::Write };
                    l2.submit(CacheRequest { thread, line, kind, token: next_token }, now);
                    if is_read {
                        outstanding_reads.insert(next_token);
                        submitted_reads += 1;
                    } else {
                        submitted_writes += 1;
                    }
                }
            }
            l2.tick(now);
            while let Some(resp) = l2.pop_response(now) {
                ensure!(
                    outstanding_reads.remove(&resp.token),
                    "duplicate or unknown response token {}",
                    resp.token
                );
                answered += 1;
            }
            now += 1;
        }
        // ...then drain.
        let deadline = now + 200_000;
        while !l2.is_idle() && now < deadline {
            l2.tick(now);
            while let Some(resp) = l2.pop_response(now) {
                ensure!(outstanding_reads.remove(&resp.token));
                answered += 1;
            }
            now += 1;
        }
        ensure!(l2.is_idle(), "system failed to drain by cycle {now}");
        ensure!(outstanding_reads.is_empty(), "unanswered reads: {outstanding_reads:?}");
        ensure_eq!(answered, submitted_reads, "every read answered exactly once");

        // Conservation: L2 transactions match what was submitted.
        let stats = l2.stats();
        ensure_eq!(
            stats.read_hits.get() + stats.read_misses.get(),
            submitted_reads,
            "read transactions conserved"
        );
        // Writes may still be parked as gathered stores only if idle-drain
        // fired; after a full drain, all distinct writes reached the L2.
        let mut port_writes = 0;
        for t in 0..threads {
            port_writes += l2.port_stats(ThreadId(t as u8)).writes_out.get()
                + l2.port_stats(ThreadId(t as u8)).stores_gathered.get();
        }
        ensure_eq!(port_writes, submitted_writes, "every store gathered or retired");
        Ok(())
    });
}

/// Same-line hammering from all threads at once: the conflict check
/// serializes state machines but must never deadlock.
#[test]
fn same_line_contention_never_deadlocks() {
    check::forall("same_line_contention_never_deadlocks", Config::cases(24), |rng| {
        let threads = 4;
        let cfg = small_cfg(
            threads,
            ArbiterPolicy::vpc_equal(threads),
            CapacityPolicy::vpc_equal(threads),
        );
        let mut l2 = SharedL2::new(cfg, MemConfig::ddr2_800());
        let mut now = 0u64;
        let mut token = 0u64;
        let mut outstanding = 0i64;
        while now < 4_000 {
            let thread = ThreadId(rng.below(threads as u64) as u8);
            let line = LineAddr(rng.below(2)); // two lines, maximal conflict
            let kind = if rng.chance(0.5) { AccessKind::Read } else { AccessKind::Write };
            if l2.can_accept(thread, line) {
                token += 1;
                l2.submit(CacheRequest { thread, line, kind, token }, now);
                if kind.is_read() {
                    outstanding += 1;
                }
            }
            l2.tick(now);
            while l2.pop_response(now).is_some() {
                outstanding -= 1;
            }
            now += 1;
        }
        let deadline = now + 200_000;
        while !l2.is_idle() && now < deadline {
            l2.tick(now);
            while l2.pop_response(now).is_some() {
                outstanding -= 1;
            }
            now += 1;
        }
        ensure!(l2.is_idle(), "contended system failed to drain");
        ensure_eq!(outstanding, 0, "all contended reads answered");
        Ok(())
    });
}

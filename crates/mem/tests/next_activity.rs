//! The quiescence contract for [`MemoryController`]: a controller ticked
//! only at its reported next-activity cycles (plus request arrivals) ends
//! up in exactly the state of one ticked every single cycle — same
//! responses at the same cycles, same channel stats, same `Debug`
//! rendering.

use vpc_mem::{MemConfig, MemRequest, MemoryController};
use vpc_sim::check::{self, gen, Config};
use vpc_sim::{ensure, ensure_eq, Cycle, SplitMix64};

/// A pre-generated arrival schedule, identical for both instances.
fn schedule(rng: &mut SplitMix64, threads: usize, horizon: Cycle) -> Vec<(Cycle, MemRequest)> {
    let mut out = Vec::new();
    let mut at = 0;
    let mut token = 0u64;
    while at < horizon {
        at += rng.below(40) + 1;
        token += 1;
        out.push((
            at,
            MemRequest {
                thread: gen::thread_id(rng, threads),
                line: gen::line_addr(rng, 64),
                kind: gen::access_kind(rng),
                token,
            },
        ));
    }
    out
}

/// Tick-every-cycle vs. tick-only-at-next-activity over the same arrival
/// schedule: response streams and final state must match exactly.
#[test]
fn sparse_ticking_matches_dense_ticking() {
    check::forall("sparse_ticking_matches_dense_ticking", Config::cases(24), |rng| {
        let threads = rng.below(3) as usize + 2;
        let arrivals = schedule(rng, threads, 4_000);
        let end: Cycle = 12_000; // long tail so both instances drain

        let mut dense = MemoryController::new(MemConfig::ddr2_800(), threads);
        let mut dense_log = Vec::new();
        let mut next = 0;
        for now in 0..end {
            while next < arrivals.len() && arrivals[next].0 == now {
                if dense.can_accept(arrivals[next].1.thread, arrivals[next].1.kind) {
                    dense.enqueue(arrivals[next].1, now);
                }
                next += 1;
            }
            dense.tick(now);
            while let Some(resp) = dense.pop_response() {
                dense_log.push((now, resp));
            }
        }

        let mut sparse = MemoryController::new(MemConfig::ddr2_800(), threads);
        let mut sparse_log = Vec::new();
        let mut next = 0;
        let mut now: Cycle = 0;
        while now < end {
            while next < arrivals.len() && arrivals[next].0 == now {
                if sparse.can_accept(arrivals[next].1.thread, arrivals[next].1.kind) {
                    sparse.enqueue(arrivals[next].1, now);
                }
                next += 1;
            }
            sparse.tick(now);
            while let Some(resp) = sparse.pop_response() {
                sparse_log.push((now, resp));
            }
            // Jump to the next arrival or the controller's own next
            // activity, whichever is sooner — the cycles in between are
            // the ones the controller claims are no-ops.
            let arrival = arrivals.get(next).map(|&(at, _)| at).unwrap_or(end);
            let wake = sparse.next_activity(now).unwrap_or(end).min(arrival);
            now = wake.clamp(now + 1, end);
        }

        ensure_eq!(dense_log, sparse_log, "response streams diverged");
        ensure!(dense.is_idle() && sparse.is_idle(), "both controllers drained");
        ensure_eq!(format!("{dense:?}"), format!("{sparse:?}"), "final controller state diverged");
        Ok(())
    });
}

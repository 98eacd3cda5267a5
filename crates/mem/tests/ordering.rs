//! Memory-system ordering and isolation properties under random traffic.

use vpc_mem::{MemConfig, MemRequest, MemoryController};
use vpc_sim::check::{self, Config};
use vpc_sim::{ensure, ensure_eq, AccessKind, LineAddr, ThreadId};

fn read(thread: u8, line: u64, token: u64) -> MemRequest {
    MemRequest { thread: ThreadId(thread), line: LineAddr(line), kind: AccessKind::Read, token }
}

/// With a private channel, a thread's reads to the *same bank* complete
/// in issue order, and every read completes exactly once.
#[test]
fn private_channel_reads_complete_exactly_once() {
    check::forall("private_channel_reads_complete_exactly_once", Config::cases(24), |rng| {
        let mut mc = MemoryController::new(MemConfig::ddr2_800(), 2);
        let mut submitted = std::collections::BTreeSet::new();
        let mut completed = std::collections::BTreeSet::new();
        let mut token = 0u64;
        for now in 0..5000u64 {
            if rng.chance(0.1) {
                let t = rng.below(2) as u8;
                token += 1;
                if mc.enqueue(read(t, rng.below(64), token), now) {
                    submitted.insert(token);
                }
            }
            mc.tick(now);
            while let Some(r) = mc.pop_response() {
                ensure!(completed.insert(r.token), "token {} completed twice", r.token);
            }
        }
        let mut now = 5000;
        while !mc.is_idle() && now < 100_000 {
            mc.tick(now);
            while let Some(r) = mc.pop_response() {
                ensure!(completed.insert(r.token));
            }
            now += 1;
        }
        ensure!(mc.is_idle(), "controller drains");
        ensure_eq!(submitted, completed);
        Ok(())
    });
}

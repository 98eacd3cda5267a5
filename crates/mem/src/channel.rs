//! One SDRAM channel: ranks × banks behind a shared data bus, closed page.

use std::collections::VecDeque;

use vpc_sim::{AccessKind, Cycle, LineAddr};

use crate::controller::MemRequest;
use crate::timing::MemConfig;

/// One DRAM channel with a closed-page policy.
///
/// Each transaction activates its bank, transfers one line over the shared
/// channel data bus, and precharges. Bank-level parallelism is modeled with
/// per-bank ready times; the data bus serializes transfers, so they
/// complete in the order they were issued.
#[derive(Debug)]
pub struct DramChannel {
    config: MemConfig,
    /// Per-bank earliest next-ACT time.
    bank_ready: Vec<Cycle>,
    /// Earliest time the shared data bus is free.
    bus_free: Cycle,
    /// Transactions in flight with the cycle their data phase completes,
    /// in issue order. Each transfer starts no earlier than the previous
    /// one's `bus_free`, so this is also completion order.
    in_flight: VecDeque<(Cycle, MemRequest)>,
}

impl DramChannel {
    /// Creates an idle channel.
    ///
    /// # Panics
    ///
    /// Panics unless the channel's bank count is a nonzero power of two
    /// (banks are indexed by mask).
    pub fn new(config: MemConfig) -> DramChannel {
        assert!(
            config.total_banks().is_power_of_two(),
            "DRAM banks per channel (MemConfig::ranks * banks_per_rank) must be a nonzero \
             power of two, got {}",
            config.total_banks()
        );
        DramChannel {
            bank_ready: vec![0; config.total_banks()],
            bus_free: 0,
            in_flight: VecDeque::new(),
            config,
        }
    }

    /// The bank (within this channel) a line maps to: low line-address bits,
    /// so consecutive lines hit different banks.
    pub fn bank_of(&self, line: LineAddr) -> usize {
        (line.0 & (self.bank_ready.len() as u64 - 1)) as usize
    }

    /// Whether `line`'s bank can accept a new activation at `now`.
    pub fn bank_available(&self, line: LineAddr, now: Cycle) -> bool {
        self.bank_ready[self.bank_of(line)] <= now
    }

    /// Issues `req` at `now` (the caller has checked
    /// [`DramChannel::bank_available`]). Returns the cycle the data phase
    /// completes; for reads this is when the line is ready to return.
    /// Successive issues return strictly increasing cycles.
    pub fn issue(&mut self, req: MemRequest, now: Cycle) -> Cycle {
        let t = self.config.timing;
        let bank = self.bank_of(req.line);
        debug_assert!(self.bank_ready[bank] <= now, "bank re-activated too early");
        let act = now + self.config.controller_overhead;
        // Data may start after tRCD + tCL and once the shared bus frees.
        let data_start = (act + t.t_rcd + t.t_cl).max(self.bus_free);
        let data_done = data_start + t.burst;
        self.bus_free = data_done;
        // Closed page: precharge as soon as timing allows.
        let pre_start = match req.kind {
            AccessKind::Read => data_done.max(act + t.t_ras),
            AccessKind::Write => (data_done + t.t_wr).max(act + t.t_ras),
        };
        self.bank_ready[bank] = pre_start + t.t_rp;
        self.in_flight.push_back((data_done, req));
        data_done
    }

    /// Removes every transaction whose data completed by `now` and appends
    /// the *reads* among them to `out`, in completion order. Completed
    /// writes are retired silently.
    pub fn drain_completed(&mut self, now: Cycle, out: &mut VecDeque<MemRequest>) {
        while let Some(&(_, req)) = self.in_flight.front().filter(|&&(done, _)| done <= now) {
            self.in_flight.pop_front();
            if req.kind.is_read() {
                out.push_back(req);
            }
        }
    }

    /// Number of transactions still in flight.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Earliest `data_done` among in-flight transactions (reads *and*
    /// writes — a completed write still changes channel state when it is
    /// drained). `None` when nothing is in flight.
    pub fn next_completion(&self) -> Option<Cycle> {
        self.in_flight.front().map(|&(done, _)| done)
    }

    /// The cycle `line`'s bank is next ready for an activation.
    pub fn bank_ready_at(&self, line: LineAddr) -> Cycle {
        self.bank_ready[self.bank_of(line)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpc_sim::check::{self, Config};
    use vpc_sim::{ensure, ensure_eq, ThreadId};

    fn channel() -> DramChannel {
        DramChannel::new(MemConfig::ddr2_800())
    }

    fn req(line: u64, kind: AccessKind, token: u64) -> MemRequest {
        MemRequest { thread: ThreadId(0), line: LineAddr(line), kind, token }
    }

    #[test]
    fn idle_read_latency_matches_timing() {
        let mut ch = channel();
        let done = ch.issue(req(0, AccessKind::Read, 1), 0);
        // overhead 10 + tRCD 25 + tCL 25 + burst 20
        assert_eq!(done, 80);
    }

    #[test]
    fn same_bank_serializes() {
        let mut ch = channel();
        let banks = ch.config.total_banks() as u64;
        let first = ch.issue(req(0, AccessKind::Read, 1), 0);
        assert!(!ch.bank_available(LineAddr(banks), first), "same bank busy through precharge");
        let ready = ch.bank_ready[0];
        assert!(ch.bank_available(LineAddr(banks), ready));
        let second = ch.issue(req(banks, AccessKind::Read, 2), ready);
        assert!(second > first + ch.config.timing.burst);
    }

    #[test]
    fn different_banks_overlap_but_share_bus() {
        let mut ch = channel();
        let a = ch.issue(req(0, AccessKind::Read, 1), 0);
        assert!(ch.bank_available(LineAddr(1), 0), "different bank is free");
        let b = ch.issue(req(1, AccessKind::Read, 2), 0);
        // Second read overlaps the first's activation but waits for the bus.
        assert_eq!(b, a + ch.config.timing.burst);
    }

    #[test]
    fn drain_returns_only_reads() {
        let mut ch = channel();
        let r = ch.issue(req(0, AccessKind::Read, 1), 0);
        let w = ch.issue(req(1, AccessKind::Write, 2), 0);
        let mut out = VecDeque::new();
        ch.drain_completed(r.max(w), &mut out);
        assert_eq!(out, [req(0, AccessKind::Read, 1)]);
        assert_eq!(ch.in_flight_len(), 0);
    }

    #[test]
    fn write_recovery_extends_bank_busy() {
        let mut cfg = MemConfig::ddr2_800();
        cfg.controller_overhead = 0;
        let mut ch = DramChannel::new(cfg);
        ch.issue(req(0, AccessKind::Read, 1), 0);
        let read_ready = ch.bank_ready[0];
        let mut ch2 = DramChannel::new(cfg);
        ch2.issue(req(0, AccessKind::Write, 2), 0);
        let write_ready = ch2.bank_ready[0];
        assert!(write_ready > read_ready, "tWR delays precharge after a write");
    }

    /// Random issue schedules, drained every `k` cycles: `issue` returns
    /// strictly increasing completion cycles, and the drain gives the same
    /// reads, in the same order, as a full scan of a mirrored in-flight
    /// list in issue order; `next_completion` is always that list's
    /// minimum.
    #[test]
    fn cached_minimum_drains_like_full_scan() {
        check::forall("cached_minimum_drains_like_full_scan", Config::cases(64), |rng| {
            let mut ch = channel();
            let mut mirror: Vec<(Cycle, MemRequest)> = Vec::new();
            let drain_every = 1 + rng.below(40);
            let issue_chance = rng.unit_f64() * 0.5;
            let (mut out, mut scanned) = (VecDeque::new(), VecDeque::new());
            let mut last_done = 0;
            for now in 0..4_000u64 {
                if rng.chance(issue_chance) {
                    let line = rng.below(64);
                    if ch.bank_available(LineAddr(line), now) {
                        let kind =
                            if rng.chance(0.6) { AccessKind::Read } else { AccessKind::Write };
                        let r = req(line, kind, now);
                        let data_done = ch.issue(r, now);
                        ensure!(data_done > last_done, "issue at {now} completes in order");
                        last_done = data_done;
                        mirror.push((data_done, r));
                    }
                }
                ensure_eq!(
                    ch.next_completion(),
                    mirror.iter().map(|&(done, _)| done).min(),
                    "next completion at {now}"
                );
                if now % drain_every == 0 {
                    out.clear();
                    ch.drain_completed(now, &mut out);
                    scanned.clear();
                    scanned.extend(
                        mirror
                            .iter()
                            .filter(|&&(done, r)| done <= now && r.kind.is_read())
                            .map(|&(_, r)| r),
                    );
                    mirror.retain(|&(done, _)| done > now);
                    ensure_eq!(out, scanned, "drained reads at {now}");
                    ensure_eq!(ch.in_flight_len(), mirror.len());
                }
            }
            Ok(())
        });
    }

    /// Mask indexing equals `%` on random power-of-two bank counts.
    #[test]
    fn mask_indexing_matches_modulo() {
        check::forall("dram_mask_indexing_matches_modulo", Config::cases(64), |rng| {
            let mut cfg = MemConfig::ddr2_800();
            cfg.ranks = 1 << rng.below(3);
            cfg.banks_per_rank = 1 << rng.below(5);
            let ch = DramChannel::new(cfg);
            let banks = cfg.total_banks() as u64;
            for _ in 0..64 {
                let line = LineAddr(rng.next_u64() >> rng.below(64));
                ensure_eq!(ch.bank_of(line) as u64, line.0 % banks, "bank of {line:?}");
            }
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "must be a nonzero power of two, got 12")]
    fn non_power_of_two_banks_are_rejected() {
        let mut cfg = MemConfig::ddr2_800();
        cfg.banks_per_rank = 6;
        let _ = DramChannel::new(cfg);
    }
}

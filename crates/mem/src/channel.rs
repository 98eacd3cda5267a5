//! One SDRAM channel: ranks × banks behind a shared data bus, closed page.

use vpc_sim::{AccessKind, Cycle, LineAddr, UtilizationMeter};

use crate::timing::MemConfig;

/// A transaction in flight inside a channel.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    /// When the full line has crossed the data bus (read) or been written.
    data_done: Cycle,
    token: u64,
    kind: AccessKind,
}

/// One DRAM channel with a closed-page policy.
///
/// Each transaction activates its bank, transfers one line over the shared
/// channel data bus, and precharges. Bank-level parallelism is modeled with
/// per-bank ready times; the data bus serializes transfers.
#[derive(Debug)]
pub struct DramChannel {
    config: MemConfig,
    /// Per-bank earliest next-ACT time.
    bank_ready: Vec<Cycle>,
    /// Earliest time the shared data bus is free.
    bus_free: Cycle,
    in_flight: Vec<InFlight>,
    /// Earliest `data_done` in `in_flight` (`u64::MAX` when empty), so a
    /// drain with nothing due is O(1).
    next_done: Cycle,
    bus_meter: UtilizationMeter,
    reads: u64,
    writes: u64,
    read_latency_sum: u64,
}

impl DramChannel {
    /// Creates an idle channel.
    pub fn new(config: MemConfig) -> DramChannel {
        DramChannel {
            bank_ready: vec![0; config.total_banks()],
            bus_free: 0,
            in_flight: Vec::new(),
            next_done: u64::MAX,
            bus_meter: UtilizationMeter::default(),
            reads: 0,
            writes: 0,
            read_latency_sum: 0,
            config,
        }
    }

    /// The bank (within this channel) a line maps to: low line-address bits,
    /// so consecutive lines hit different banks.
    pub fn bank_of(&self, line: LineAddr) -> usize {
        (line.0 % self.config.total_banks() as u64) as usize
    }

    /// Whether `line`'s bank can accept a new activation at `now`.
    pub fn bank_available(&self, line: LineAddr, now: Cycle) -> bool {
        self.bank_ready[self.bank_of(line)] <= now
    }

    /// Issues a transaction at `now` (the caller has checked
    /// [`DramChannel::bank_available`]). Returns the cycle the data phase
    /// completes; for reads this is when the line is ready to return.
    pub fn issue(&mut self, line: LineAddr, kind: AccessKind, token: u64, now: Cycle) -> Cycle {
        let t = self.config.timing;
        let bank = self.bank_of(line);
        debug_assert!(self.bank_ready[bank] <= now, "bank re-activated too early");
        let act = now + self.config.controller_overhead;
        // Data may start after tRCD + tCL and once the shared bus frees.
        let data_start = (act + t.t_rcd + t.t_cl).max(self.bus_free);
        let data_done = data_start + t.burst;
        self.bus_free = data_done;
        self.bus_meter.add_busy(t.burst);
        // Closed page: precharge as soon as timing allows.
        let pre_start = match kind {
            AccessKind::Read => data_done.max(act + t.t_ras),
            AccessKind::Write => (data_done + t.t_wr).max(act + t.t_ras),
        };
        self.bank_ready[bank] = pre_start + t.t_rp;
        match kind {
            AccessKind::Read => {
                self.reads += 1;
                self.read_latency_sum += data_done - now;
            }
            AccessKind::Write => self.writes += 1,
        }
        self.in_flight.push(InFlight { data_done, token, kind });
        self.next_done = self.next_done.min(data_done);
        data_done
    }

    /// Removes and returns the tokens of all *read* transactions whose data
    /// completed by `now`. Completed writes are retired silently.
    pub fn drain_completed(&mut self, now: Cycle, out: &mut Vec<u64>) {
        if self.next_done > now {
            return;
        }
        // Every survivor is visited exactly once (swap_remove only pulls
        // not-yet-visited entries forward), so the new minimum falls out
        // of the same pass.
        let mut min = u64::MAX;
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].data_done <= now {
                let f = self.in_flight.swap_remove(i);
                if f.kind.is_read() {
                    out.push(f.token);
                }
            } else {
                min = min.min(self.in_flight[i].data_done);
                i += 1;
            }
        }
        self.next_done = min;
    }

    /// Number of transactions still in flight.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Earliest cycle the channel's shared data bus is free. Schedulers use
    /// this for admission control: issuing far ahead of the bus just queues
    /// transfers in bus order and defeats QoS ordering.
    pub fn bus_free_at(&self) -> Cycle {
        self.bus_free
    }

    /// Earliest `data_done` among in-flight transactions (reads *and*
    /// writes — a completed write still changes channel state when it is
    /// drained). `None` when nothing is in flight.
    pub fn next_completion(&self) -> Option<Cycle> {
        (self.next_done != u64::MAX).then_some(self.next_done)
    }

    /// The cycle `line`'s bank is next ready for an activation.
    pub fn bank_ready_at(&self, line: LineAddr) -> Cycle {
        self.bank_ready[self.bank_of(line)]
    }

    /// Reads serviced.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Writes serviced.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Mean read latency (issue to last data beat) in processor cycles.
    pub fn mean_read_latency(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.read_latency_sum as f64 / self.reads as f64
        }
    }

    /// Data-bus utilization meter.
    pub fn bus_meter(&self) -> UtilizationMeter {
        self.bus_meter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpc_sim::check::{self, Config};
    use vpc_sim::ensure_eq;

    fn channel() -> DramChannel {
        DramChannel::new(MemConfig::ddr2_800())
    }

    #[test]
    fn idle_read_latency_matches_timing() {
        let mut ch = channel();
        let done = ch.issue(LineAddr(0), AccessKind::Read, 1, 0);
        // overhead 10 + tRCD 25 + tCL 25 + burst 20
        assert_eq!(done, 80);
    }

    #[test]
    fn same_bank_serializes() {
        let mut ch = channel();
        let banks = ch.config.total_banks() as u64;
        let first = ch.issue(LineAddr(0), AccessKind::Read, 1, 0);
        assert!(!ch.bank_available(LineAddr(banks), first), "same bank busy through precharge");
        let ready = ch.bank_ready[0];
        assert!(ch.bank_available(LineAddr(banks), ready));
        let second = ch.issue(LineAddr(banks), AccessKind::Read, 2, ready);
        assert!(second > first + ch.config.timing.burst);
    }

    #[test]
    fn different_banks_overlap_but_share_bus() {
        let mut ch = channel();
        let a = ch.issue(LineAddr(0), AccessKind::Read, 1, 0);
        assert!(ch.bank_available(LineAddr(1), 0), "different bank is free");
        let b = ch.issue(LineAddr(1), AccessKind::Read, 2, 0);
        // Second read overlaps the first's activation but waits for the bus.
        assert_eq!(b, a + ch.config.timing.burst);
    }

    #[test]
    fn drain_returns_only_reads() {
        let mut ch = channel();
        let r = ch.issue(LineAddr(0), AccessKind::Read, 1, 0);
        let w = ch.issue(LineAddr(1), AccessKind::Write, 2, 0);
        let mut out = Vec::new();
        ch.drain_completed(r.max(w), &mut out);
        assert_eq!(out, vec![1]);
        assert_eq!(ch.in_flight_len(), 0);
        assert_eq!(ch.reads(), 1);
        assert_eq!(ch.writes(), 1);
    }

    #[test]
    fn write_recovery_extends_bank_busy() {
        let mut cfg = MemConfig::ddr2_800();
        cfg.controller_overhead = 0;
        let mut ch = DramChannel::new(cfg);
        ch.issue(LineAddr(0), AccessKind::Read, 1, 0);
        let read_ready = ch.bank_ready[0];
        let mut ch2 = DramChannel::new(cfg);
        ch2.issue(LineAddr(0), AccessKind::Write, 2, 0);
        let write_ready = ch2.bank_ready[0];
        assert!(write_ready > read_ready, "tWR delays precharge after a write");
    }

    /// Random issue schedules, drained every `k` cycles: the cached
    /// earliest completion gives the same drained tokens, in the same
    /// order, as a full scan of a mirrored in-flight list, and
    /// `next_completion` is always that list's minimum.
    #[test]
    fn cached_minimum_drains_like_full_scan() {
        check::forall("cached_minimum_drains_like_full_scan", Config::cases(64), |rng| {
            let mut ch = channel();
            let mut mirror: Vec<InFlight> = Vec::new();
            let drain_every = 1 + rng.below(40);
            let issue_chance = rng.unit_f64() * 0.5;
            let (mut out, mut scanned) = (Vec::new(), Vec::new());
            for now in 0..4_000u64 {
                if rng.chance(issue_chance) {
                    let line = LineAddr(rng.below(64));
                    if ch.bank_available(line, now) {
                        let kind =
                            if rng.chance(0.6) { AccessKind::Read } else { AccessKind::Write };
                        let data_done = ch.issue(line, kind, now, now);
                        mirror.push(InFlight { data_done, token: now, kind });
                    }
                }
                ensure_eq!(
                    ch.next_completion(),
                    mirror.iter().map(|f| f.data_done).min(),
                    "next completion at {now}"
                );
                if now % drain_every == 0 {
                    out.clear();
                    ch.drain_completed(now, &mut out);
                    scanned.clear();
                    let mut i = 0;
                    while i < mirror.len() {
                        if mirror[i].data_done <= now {
                            let f = mirror.swap_remove(i);
                            if f.kind.is_read() {
                                scanned.push(f.token);
                            }
                        } else {
                            i += 1;
                        }
                    }
                    ensure_eq!(out, scanned, "drained tokens at {now}");
                    ensure_eq!(ch.in_flight_len(), mirror.len());
                }
            }
            Ok(())
        });
    }

    #[test]
    fn bus_utilization_accumulates() {
        let mut ch = channel();
        for i in 0..4 {
            let now = ch.bus_free;
            if ch.bank_available(LineAddr(i), now) {
                ch.issue(LineAddr(i), AccessKind::Read, i, now);
            }
        }
        assert_eq!(ch.bus_meter().busy_cycles(), 4 * ch.config.timing.burst);
    }
}

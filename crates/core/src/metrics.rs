//! Throughput and fairness metrics over normalized IPCs, and the
//! [`QosLedger`] that turns QoS violations into a testable number.

use std::fmt;

use vpc_sim::{Cycle, Share};

pub use vpc_sim::stats::harmonic_mean;

/// Per-thread normalized IPC: shared-machine IPC divided by the thread's
/// standalone (full-machine) IPC. The paper's throughput metric is the
/// harmonic mean of these; its fairness-sensitive metric is their minimum.
pub fn normalized_ipcs(shared: &[f64], standalone: &[f64]) -> Vec<f64> {
    assert_eq!(shared.len(), standalone.len(), "one standalone IPC per thread");
    shared
        .iter()
        .zip(standalone)
        .map(|(&s, &alone)| if alone <= 0.0 { 0.0 } else { s / alone })
        .collect()
}

/// Weighted speedup: the sum of per-thread normalized IPCs — the CMP
/// throughput metric complementary to the harmonic mean (it rewards total
/// progress; the harmonic mean rewards *balanced* progress).
pub fn weighted_speedup(normalized: &[f64]) -> f64 {
    normalized.iter().sum()
}

/// The arithmetic mean of a slice (0 for empty slices).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The minimum of a slice (0 for empty slices).
pub fn minimum(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Relative improvement `(new - old) / old`, in percent.
pub fn improvement_pct(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        0.0
    } else {
        (new - old) / old * 100.0
    }
}

/// A windowed per-thread QoS ledger: how much data-array service each
/// thread received versus its `(beta_i, alpha_i)` entitlement.
///
/// Each measurement window contributes `capacity` resource-cycles (for
/// the L2 data array: elapsed cycles × banks). Thread `i` is *entitled*
/// to `beta_i × capacity` of them. The ledger accumulates, per thread:
///
/// * **excess service** — service received beyond `entitlement + slack`.
///   A bandwidth-partitioning arbiter (VPC) should keep this at zero for
///   every thread when all threads are backlogged; a share-oblivious
///   arbiter (FCFS) lets aggressive threads run it up.
/// * **shortfall** — service below `entitlement - slack` (the mirror
///   number: some other thread's excess is this thread's shortfall).
/// * **virtual-time lag** — the shortfall expressed in virtual time
///   (`shortfall / beta_i`, the Eq. 2 scaling): how far the thread's
///   virtual private resource fell behind where its entitlement says it
///   should be. Meaningful for continuously backlogged threads; an idle
///   thread accumulates "lag" it never asked to use.
///
/// The per-window `slack` absorbs quantization (a grant is indivisible,
/// so EDF can overshoot an entitlement boundary by at most a few
/// service quanta per window) — it is what makes "zero sustained excess"
/// a crisp, testable claim rather than an epsilon-comparison.
#[derive(Debug, Clone)]
pub struct QosLedger {
    window: Cycle,
    slack: u64,
    entitlements: Vec<(Share, Share)>,
    excess: Vec<u64>,
    shortfall: Vec<u64>,
    excess_windows: Vec<u64>,
    windows: u64,
}

impl QosLedger {
    /// Creates a ledger for threads with the given `(beta_i, alpha_i)`
    /// entitlements, accounting in windows of `window` cycles with
    /// `slack` resource-cycles of per-window tolerance.
    pub fn new(entitlements: Vec<(Share, Share)>, window: Cycle, slack: u64) -> QosLedger {
        let n = entitlements.len();
        QosLedger {
            window,
            slack,
            entitlements,
            excess: vec![0; n],
            shortfall: vec![0; n],
            excess_windows: vec![0; n],
            windows: 0,
        }
    }

    /// The accounting window length in cycles.
    pub fn window(&self) -> Cycle {
        self.window
    }

    /// Number of threads tracked.
    pub fn threads(&self) -> usize {
        self.entitlements.len()
    }

    /// Number of windows recorded so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Records one window: `service[t]` resource-cycles went to thread
    /// `t` out of `capacity` total resource-cycles offered.
    ///
    /// # Panics
    ///
    /// Panics if `service` has a different thread count than the ledger.
    pub fn record_window(&mut self, service: &[u64], capacity: u64) {
        assert_eq!(service.len(), self.threads(), "one service figure per thread");
        self.windows += 1;
        for (t, &got) in service.iter().enumerate() {
            let beta = self.entitlements[t].0;
            let entitled = (u128::from(capacity) * u128::from(beta.numer())
                / u128::from(beta.denom().max(1))) as u64;
            let over = got.saturating_sub(entitled + self.slack);
            if over > 0 {
                self.excess[t] += over;
                self.excess_windows[t] += 1;
            }
            self.shortfall[t] += entitled.saturating_sub(got + self.slack);
        }
    }

    /// Accumulated slack-adjusted excess service for thread `t`, in
    /// resource-cycles.
    pub fn excess_service(&self, t: usize) -> u64 {
        self.excess[t]
    }

    /// Accumulated slack-adjusted service shortfall for thread `t`, in
    /// resource-cycles.
    pub fn shortfall(&self, t: usize) -> u64 {
        self.shortfall[t]
    }

    /// Number of windows in which thread `t` exceeded its entitlement.
    pub fn excess_windows(&self, t: usize) -> u64 {
        self.excess_windows[t]
    }

    /// Whether thread `t` exceeded its entitlement in two or more
    /// windows — *sustained* excess, as opposed to a one-off transient.
    pub fn has_sustained_excess(&self, t: usize) -> bool {
        self.excess_windows[t] >= 2
    }

    /// Thread `t`'s accumulated virtual-time lag: its shortfall scaled
    /// by `1 / beta_t` (Eq. 2), in virtual cycles. Zero for zero-share
    /// threads, which hold no virtual resource to lag behind.
    pub fn virtual_lag(&self, t: usize) -> f64 {
        let beta = self.entitlements[t].0;
        if beta.is_zero() {
            return 0.0;
        }
        self.shortfall[t] as f64 * f64::from(beta.denom()) / f64::from(beta.numer())
    }
}

impl fmt::Display for QosLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "QoS ledger: {} windows x {} cycles, slack {} resource-cycles",
            self.windows, self.window, self.slack
        )?;
        for t in 0..self.threads() {
            let (beta, alpha) = self.entitlements[t];
            writeln!(
                f,
                "  T{t}: beta={beta} alpha={alpha}  excess={} ({} windows)  \
                 shortfall={}  virtual_lag={:.0}",
                self.excess[t],
                self.excess_windows[t],
                self.shortfall[t],
                self.virtual_lag(t),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        let n = normalized_ipcs(&[0.5, 0.2], &[1.0, 0.4]);
        assert_eq!(n, vec![0.5, 0.5]);
        let n = normalized_ipcs(&[0.5], &[0.0]);
        assert_eq!(n, vec![0.0]);
    }

    #[test]
    fn weighted_speedup_sums() {
        assert_eq!(weighted_speedup(&[0.5, 0.25, 1.0]), 1.75);
        assert_eq!(weighted_speedup(&[]), 0.0);
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[0.5, 0.25, 0.75]), 0.5);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn minimum_of_values() {
        assert_eq!(minimum(&[0.7, 0.3, 0.9]), 0.3);
        assert_eq!(minimum(&[]), 0.0);
    }

    #[test]
    fn improvement() {
        assert!((improvement_pct(0.5, 0.57) - 14.0).abs() < 1e-9);
        assert_eq!(improvement_pct(0.0, 1.0), 0.0);
    }

    fn quarter() -> Share {
        Share::new(1, 4).unwrap()
    }

    #[test]
    fn ledger_charges_excess_beyond_entitlement_plus_slack() {
        let mut ledger =
            QosLedger::new(vec![(quarter(), quarter()), (quarter(), quarter())], 1000, 50);
        // Capacity 2000 resource-cycles; entitlement 500 each.
        ledger.record_window(&[800, 400], 2000);
        assert_eq!(ledger.excess_service(0), 250, "800 - (500 + 50)");
        assert_eq!(ledger.excess_service(1), 0);
        assert_eq!(ledger.shortfall(1), 50, "500 - (400 + 50)");
        assert!(!ledger.has_sustained_excess(0), "one window is a transient");
        ledger.record_window(&[800, 400], 2000);
        assert!(ledger.has_sustained_excess(0));
        assert!(!ledger.has_sustained_excess(1));
        assert_eq!(ledger.windows(), 2);
    }

    #[test]
    fn ledger_within_slack_is_clean() {
        let mut ledger = QosLedger::new(vec![(quarter(), quarter())], 1000, 50);
        ledger.record_window(&[540, 0, 0, 0][..1], 2000);
        ledger.record_window(&[460, 0, 0, 0][..1], 2000);
        assert_eq!(ledger.excess_service(0), 0);
        assert_eq!(ledger.shortfall(0), 0);
        assert!(!ledger.has_sustained_excess(0));
    }

    #[test]
    fn virtual_lag_scales_shortfall_by_inverse_share() {
        let mut ledger = QosLedger::new(vec![(quarter(), quarter())], 1000, 0);
        ledger.record_window(&[100], 2000); // entitled 500, short 400
        assert!((ledger.virtual_lag(0) - 1600.0).abs() < 1e-9, "400 x 4");
        let zero = QosLedger::new(vec![(Share::ZERO, Share::ZERO)], 1000, 0);
        assert_eq!(zero.virtual_lag(0), 0.0);
    }
}

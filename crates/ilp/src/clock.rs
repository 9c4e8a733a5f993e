//! Deterministic work accounting.

use serde::{Deserialize, Serialize};

/// A deterministic clock that meters solver *work* instead of wall time.
///
/// Google OR-Tools (used by the paper) exposes "deterministic timing
/// results reflecting only the number, type, and complexity of each solver
/// operation"; all figures in the paper report deterministic seconds. This
/// clock reproduces that idea: every elementary solver operation charges a
/// number of *ticks* proportional to the floating-point work it performs,
/// and one deterministic second is defined as 10⁹ ticks (roughly one second
/// of a 1 GFLOP/s machine).
///
/// The clock is monotone and identical across runs for identical inputs.
///
/// ```
/// use croxmap_ilp::DeterministicClock;
/// let mut clock = DeterministicClock::new();
/// clock.charge(2_000_000_000);
/// assert_eq!(clock.seconds(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeterministicClock {
    ticks: u64,
}

/// Ticks per deterministic second — the exchange rate between the
/// [`work_ticks`](crate::simplex::LpResult::work_ticks) metered by the LP
/// engine (one tick ≈ one floating-point multiply-add: a factorisation
/// elimination step, a solve entry touched, a row-transform multiplier, a
/// pricing dot-product term) and the deterministic seconds reported by this
/// clock. Public so harnesses (benches, budget maths) convert without
/// hard-coding `1e9`.
pub const TICKS_PER_SECOND: u64 = 1_000_000_000;

impl DeterministicClock {
    /// Creates a clock at zero.
    #[must_use]
    pub fn new() -> Self {
        DeterministicClock::default()
    }

    /// A clock pre-charged with `ticks` — how the parallel drivers
    /// rebuild the aggregate clock from per-worker tick totals.
    #[must_use]
    pub fn from_ticks(ticks: u64) -> Self {
        DeterministicClock { ticks }
    }

    /// Charges `ticks` units of work.
    pub fn charge(&mut self, ticks: u64) {
        self.ticks = self.ticks.saturating_add(ticks);
    }

    /// Folds another clock's ticks into this one: work done by parallel
    /// workers aggregates into one deterministic total, exactly as if it
    /// had run sequentially.
    pub fn merge(&mut self, other: &DeterministicClock) {
        self.charge(other.ticks);
    }

    /// Total ticks charged so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Elapsed deterministic seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        DeterministicClock::ticks_to_seconds(self.ticks)
    }

    /// Converts raw tick counts to deterministic seconds — the one
    /// sanctioned `/ 1e9`, so harness code never hand-rolls the rate.
    #[must_use]
    pub fn ticks_to_seconds(ticks: u64) -> f64 {
        ticks as f64 / TICKS_PER_SECOND as f64
    }

    /// Converts a deterministic-second budget to ticks (saturating at
    /// zero for negative inputs).
    #[must_use]
    pub fn seconds_to_ticks(seconds: f64) -> u64 {
        (seconds.max(0.0) * TICKS_PER_SECOND as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(DeterministicClock::new().ticks(), 0);
        assert_eq!(DeterministicClock::new().seconds(), 0.0);
    }

    #[test]
    fn accumulates() {
        let mut c = DeterministicClock::new();
        c.charge(10);
        c.charge(5);
        assert_eq!(c.ticks(), 15);
    }

    #[test]
    fn from_ticks_and_merge_aggregate() {
        let mut total = DeterministicClock::from_ticks(7);
        let worker = DeterministicClock::from_ticks(5);
        total.merge(&worker);
        assert_eq!(total.ticks(), 12);
    }

    #[test]
    fn second_tick_conversions_round_trip() {
        assert_eq!(DeterministicClock::ticks_to_seconds(TICKS_PER_SECOND), 1.0);
        assert_eq!(DeterministicClock::seconds_to_ticks(2.5), 2_500_000_000);
        assert_eq!(DeterministicClock::seconds_to_ticks(-1.0), 0);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let mut c = DeterministicClock::new();
        c.charge(u64::MAX);
        c.charge(100);
        assert_eq!(c.ticks(), u64::MAX);
    }
}

//! Spike trains: sorted sequences of discrete firing times.

use serde::{Deserialize, Serialize};

/// A spike train: strictly increasing discrete timesteps at which an event
/// (an external input spike or a neuron firing) occurs.
///
/// ```
/// use croxmap_sim::SpikeTrain;
/// let t = SpikeTrain::periodic(1, 3, 10); // 1, 4, 7 (< 10)
/// assert_eq!(t.times(), &[1, 4, 7]);
/// assert_eq!(t.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SpikeTrain {
    times: Vec<u32>,
}

impl SpikeTrain {
    /// An empty train.
    #[must_use]
    pub fn new() -> Self {
        SpikeTrain::default()
    }

    /// Builds a train from arbitrary times; duplicates are merged and the
    /// sequence is sorted.
    #[must_use]
    pub fn from_times(times: impl IntoIterator<Item = u32>) -> Self {
        let mut times: Vec<u32> = times.into_iter().collect();
        times.sort_unstable();
        times.dedup();
        SpikeTrain { times }
    }

    /// A periodic train: `start, start+period, …` strictly below `horizon`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn periodic(start: u32, period: u32, horizon: u32) -> Self {
        assert!(period > 0, "period must be positive");
        SpikeTrain {
            times: (start..horizon).step_by(period as usize).collect(),
        }
    }

    /// The sorted spike times.
    #[must_use]
    pub fn times(&self) -> &[u32] {
        &self.times
    }

    /// Number of spikes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` if the train carries no spikes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Returns `true` if a spike occurs at `time`.
    #[must_use]
    pub fn fires_at(&self, time: u32) -> bool {
        self.times.binary_search(&time).is_ok()
    }

    /// Shifts every spike by `offset` timesteps. Spikes that would land
    /// past `u32::MAX` are dropped, so the times stay sorted.
    #[must_use]
    pub fn shifted(&self, offset: u32) -> Self {
        SpikeTrain {
            // Sorted times: once one shift overflows, every later one does.
            times: self
                .times
                .iter()
                .map_while(|&t| t.checked_add(offset))
                .collect(),
        }
    }
}

impl FromIterator<u32> for SpikeTrain {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        SpikeTrain::from_times(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_times_sorts_and_dedups() {
        let t = SpikeTrain::from_times([5, 1, 3, 1]);
        assert_eq!(t.times(), &[1, 3, 5]);
    }

    #[test]
    fn periodic_respects_horizon() {
        let t = SpikeTrain::periodic(0, 4, 9);
        assert_eq!(t.times(), &[0, 4, 8]);
        assert!(SpikeTrain::periodic(10, 1, 10).is_empty());
    }

    #[test]
    fn fires_at_lookup() {
        let t = SpikeTrain::from_times([2, 7]);
        assert!(t.fires_at(2));
        assert!(!t.fires_at(3));
    }

    #[test]
    fn shifted_preserves_count() {
        let t = SpikeTrain::from_times([0, 1, 2]).shifted(10);
        assert_eq!(t.times(), &[10, 11, 12]);
    }

    #[test]
    fn shifted_drops_spikes_past_u32_max() {
        let t = SpikeTrain::from_times([1, 5]).shifted(u32::MAX - 2);
        assert_eq!(t.times(), &[u32::MAX - 1]);
        assert!(t.fires_at(u32::MAX - 1));
        let edge = SpikeTrain::from_times([0, 2]).shifted(u32::MAX - 2);
        assert_eq!(edge.times(), &[u32::MAX - 2, u32::MAX]);
        assert!(SpikeTrain::from_times([3]).shifted(u32::MAX).is_empty());
    }

    #[test]
    fn collect_from_iterator() {
        let t: SpikeTrain = [3u32, 1, 2].into_iter().collect();
        assert_eq!(t.times(), &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        let _ = SpikeTrain::periodic(0, 0, 10);
    }
}

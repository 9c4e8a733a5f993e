//! Spike profiles: the `W_i` weights of the paper's PGO objective.

use crate::SimRecord;
use croxmap_snn::NeuronId;
use serde::{Deserialize, Serialize};

/// Per-neuron spike counts gathered from one or more profiling runs.
///
/// This is the `W_i` vector of Eq. 12: how often each neuron fired while
/// executing sample inputs. Routes carrying frequent spikes are penalised
/// more by the PGO objective; neurons that never fire drop out of the
/// objective entirely, which is what makes PGO solves so much faster
/// (§IV-D of the paper).
///
/// ```
/// use croxmap_sim::SpikeProfile;
/// use croxmap_snn::NeuronId;
/// let mut p = SpikeProfile::with_len(3);
/// p.record_fire(NeuronId::new(1), 5);
/// assert_eq!(p.count(NeuronId::new(1)), 5);
/// assert_eq!(p.total(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SpikeProfile {
    counts: Vec<u64>,
}

impl SpikeProfile {
    /// An all-zero profile for `n` neurons.
    #[must_use]
    pub fn with_len(n: usize) -> Self {
        SpikeProfile { counts: vec![0; n] }
    }

    /// Extracts the profile of a single simulation run.
    #[must_use]
    pub fn from_record(record: &SimRecord) -> Self {
        SpikeProfile {
            counts: record.fire_counts().collect(),
        }
    }

    /// Accumulates the profiles of many runs (e.g. one per sample input).
    ///
    /// # Panics
    ///
    /// Panics if the records disagree on neuron count.
    #[must_use]
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a SimRecord>) -> Self {
        let mut profile = SpikeProfile::default();
        for r in records {
            let p = SpikeProfile::from_record(r);
            if profile.counts.is_empty() {
                profile = p;
            } else {
                profile.merge(&p);
            }
        }
        profile
    }

    /// Adds `fires` to the count of `neuron`.
    ///
    /// # Panics
    ///
    /// Panics if `neuron` is out of range.
    pub fn record_fire(&mut self, neuron: NeuronId, fires: u64) {
        self.counts[neuron.index()] += fires;
    }

    /// Element-wise accumulation of another profile.
    ///
    /// # Panics
    ///
    /// Panics if the profiles have different lengths.
    pub fn merge(&mut self, other: &SpikeProfile) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "profiles must cover the same network"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Spike count of `neuron`.
    ///
    /// # Panics
    ///
    /// Panics if `neuron` is out of range.
    #[must_use]
    pub fn count(&self, neuron: NeuronId) -> u64 {
        self.counts[neuron.index()]
    }

    /// The raw count vector, indexed by neuron.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total spikes across all neurons.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of neurons that fired at least once.
    #[must_use]
    pub fn active_neurons(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Number of covered neurons.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Returns `true` if the profile covers no neurons.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LifSimulator, SpikeTrain, Stimulus};
    use croxmap_snn::{NetworkBuilder, NodeRole};

    #[test]
    fn profile_matches_record() {
        let mut b = NetworkBuilder::new();
        let a = b.add_neuron(NodeRole::Input, 0.5, 0.0);
        let o = b.add_neuron(NodeRole::Output, 0.5, 0.0);
        b.add_edge(a, o, 1.0, 1).unwrap();
        let net = b.build().unwrap();
        let stim = Stimulus::new([(a, SpikeTrain::from_times([0, 2, 4]))]);
        let rec = LifSimulator::default().run(&net, &stim, 10);
        let p = SpikeProfile::from_record(&rec);
        assert_eq!(p.count(a), 3);
        assert_eq!(p.count(o), 3);
        assert_eq!(p.total(), rec.total_fires());
        assert_eq!(p.active_neurons(), 2);
    }

    #[test]
    fn merge_accumulates() {
        let mut p = SpikeProfile::with_len(2);
        p.record_fire(NeuronId::new(0), 2);
        let mut q = SpikeProfile::with_len(2);
        q.record_fire(NeuronId::new(0), 3);
        q.record_fire(NeuronId::new(1), 1);
        p.merge(&q);
        assert_eq!(p.counts(), &[5, 1]);
    }

    #[test]
    #[should_panic(expected = "same network")]
    fn merge_length_mismatch_panics() {
        let mut p = SpikeProfile::with_len(2);
        p.merge(&SpikeProfile::with_len(3));
    }

    #[test]
    fn from_records_accumulates() {
        let mut b = NetworkBuilder::new();
        let a = b.add_neuron(NodeRole::Input, 0.5, 0.0);
        let net = b.build().unwrap();
        let stim = Stimulus::new([(a, SpikeTrain::from_times([0]))]);
        let r1 = LifSimulator::default().run(&net, &stim, 4);
        let r2 = LifSimulator::default().run(&net, &stim, 4);
        let p = SpikeProfile::from_records([&r1, &r2]);
        assert_eq!(p.count(a), 2);
    }
}

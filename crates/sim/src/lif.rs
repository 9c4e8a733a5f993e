//! Discrete-time leaky integrate-and-fire simulation.

use crate::SpikeTrain;
use croxmap_snn::{Network, NeuronId};
use serde::{Deserialize, Serialize};

/// Configuration of the LIF dynamics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LifConfig {
    /// Membrane charge injected by one external stimulus spike.
    pub input_gain: f64,
    /// If `true` the membrane resets to zero after firing; otherwise the
    /// threshold is subtracted (charge carry-over).
    pub reset_to_zero: bool,
}

impl Default for LifConfig {
    fn default() -> Self {
        LifConfig {
            input_gain: 1.0,
            reset_to_zero: true,
        }
    }
}

/// External stimulus: spike trains attached to input neurons.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Stimulus {
    trains: Vec<(NeuronId, SpikeTrain)>,
}

impl Stimulus {
    /// Builds a stimulus from `(neuron, train)` pairs.
    #[must_use]
    pub fn new(trains: impl IntoIterator<Item = (NeuronId, SpikeTrain)>) -> Self {
        Stimulus {
            trains: trains.into_iter().collect(),
        }
    }

    /// The attached `(neuron, train)` pairs.
    #[must_use]
    pub fn trains(&self) -> &[(NeuronId, SpikeTrain)] {
        &self.trains
    }

    /// Total number of external spikes across all trains.
    #[must_use]
    pub fn total_spikes(&self) -> usize {
        self.trains.iter().map(|(_, t)| t.len()).sum()
    }
}

/// The complete firing record of one simulation run.
///
/// Fires are stored as one CSR over neurons: the steps at which neuron `i`
/// fired are `times[offsets[i]..offsets[i + 1]]`, ascending. A fire count
/// is the difference of two offsets, so [`SimRecord::fire_count`] and
/// [`SimRecord::total_fires`] cost O(1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimRecord {
    /// `n + 1` offsets into `times`.
    offsets: Vec<usize>,
    /// Fire steps, grouped by neuron.
    times: Vec<u32>,
    steps: u32,
}

impl SimRecord {
    /// Groups a fire log by neuron: bit `i` of `log[t * words..][..words]`
    /// flags a fire of neuron `i` at step `t`, for `words = ⌈n / 64⌉`.
    /// `counts[i]` holds the number of fires of neuron `i` for `i < n`, and
    /// `counts[n]` is 0; the vector becomes the record's offsets.
    fn from_log(mut counts: Vec<usize>, log: &[u64], steps: u32) -> Self {
        let n = counts.len() - 1;
        // Running sums turn each count into the end of its neuron's run…
        let mut end = 0;
        for c in &mut counts[..n] {
            end += *c;
            *c = end;
        }
        counts[n] = end;
        // …and filling each run back to front, from the last step to the
        // first, steps every one back to its start.
        let mut times = vec![0; end];
        for (t, step) in log.chunks(n.div_ceil(64)).enumerate().rev() {
            for (w, &bits) in step.iter().enumerate() {
                for i in ones(bits, w) {
                    let at = &mut counts[i];
                    *at -= 1;
                    times[*at] = t as u32;
                }
            }
        }
        SimRecord {
            offsets: counts,
            times,
            steps,
        }
    }

    /// Firing times of `neuron`.
    ///
    /// # Panics
    ///
    /// Panics if `neuron` is out of range for the simulated network.
    #[must_use]
    pub fn fire_times(&self, neuron: NeuronId) -> &[u32] {
        let i = neuron.index();
        &self.times[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Number of times `neuron` fired.
    #[must_use]
    pub fn fire_count(&self, neuron: NeuronId) -> u64 {
        let i = neuron.index();
        (self.offsets[i + 1] - self.offsets[i]) as u64
    }

    /// Fire counts of every neuron, in index order.
    pub(crate) fn fire_counts(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.offsets.windows(2).map(|w| (w[1] - w[0]) as u64)
    }

    /// Total fires across all neurons.
    #[must_use]
    pub fn total_fires(&self) -> u64 {
        self.times.len() as u64
    }

    /// Number of simulated timesteps.
    #[must_use]
    pub fn steps(&self) -> u32 {
        self.steps
    }

    /// Number of neurons in the simulated network.
    #[must_use]
    pub fn neuron_count(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// Discrete-time LIF simulator.
///
/// Each timestep proceeds as: (1) deliver scheduled synaptic charge and
/// external stimulus, (2) fire every neuron at or above threshold, in
/// ascending index order, and schedule its outgoing spikes with the edge
/// delays, (3) apply leak.
///
/// The kernel is event-driven but keeps that order. It reads thresholds,
/// leaks, fan-outs and the largest delay straight from the [`Network`]'s
/// flat layout, so a run copies no network data and never walks the
/// synapse list. Its set-up is zeroing its own buffers (O(n·r) for a ring
/// of r slots, described below), one word-wise pass over the thresholds
/// for the neurons that fire from rest, and one look at each stimulus
/// train. A step then visits only the neurons with charge due and the
/// *active* neurons: those whose potential may be non-zero, plus those
/// with a threshold ≤ 0, which fire from rest. It costs O(active neurons +
/// due deliveries + n/64), plus the fan-out of the neurons that fire and
/// one look at each train with spikes still to come. Every other neuron
/// rests at a zero potential, where delivery, leak and clamping cannot
/// change whether it fires, so the record equals that of a sweep over all
/// neurons.
///
/// Pending charge lives in a ring of `min(max delay, steps) + 1` slots of
/// `n` values; the step's slot wraps around as the steps advance. Charge
/// that would arrive at or after `steps` is never scheduled, so a delay
/// longer than the window costs no memory. Fires are logged as one bitset
/// of `n` bits per step while a per-neuron count grows with them, so the
/// log has its final size from the start. At the end of the run the counts
/// become the offsets of [`SimRecord`]'s CSR in place, and one backward
/// pass over the log fills it.
///
/// The simulator is fully deterministic.
#[derive(Debug, Clone, Default)]
pub struct LifSimulator {
    config: LifConfig,
}

/// Indices of the set bits of word `w` of a bitset, ascending.
fn ones(mut bits: u64, w: usize) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            w * 64 + b
        })
    })
}

impl LifSimulator {
    /// Creates a simulator with the given dynamics configuration.
    #[must_use]
    pub fn new(config: LifConfig) -> Self {
        LifSimulator { config }
    }

    /// Runs `network` for `steps` timesteps under `stimulus`.
    ///
    /// # Panics
    ///
    /// Panics if a stimulus train references a neuron outside the network.
    #[must_use]
    pub fn run(&self, network: &Network, stimulus: &Stimulus, steps: u32) -> SimRecord {
        let n = network.node_count();
        let words = n.div_ceil(64);
        let threshold = network.thresholds();
        let leak = network.leaks();
        // Bit `i` flags a neuron that fires from a zero potential: it
        // never rests.
        let restless: Vec<u64> = threshold
            .chunks(64)
            .map(|chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .fold(0, |bits, (b, &th)| bits | u64::from(th <= 0.0) << b)
            })
            .collect();
        let ring = network.max_delay().min(steps) as usize + 1;
        // Charge due at neuron `i` in ring slot `s` is `pending[s * n + i]`;
        // bit `i` of `due[s * words..][..words]` flags it.
        let mut pending = vec![0.0f64; ring * n];
        let mut due = vec![0u64; ring * words];
        let mut active = restless.clone();
        let mut potential = vec![0.0f64; n];
        // `fired[i]` counts the fires of neuron `i`, and bit `i` of
        // `log[t * words..][..words]` flags one at step `t`.
        let mut fired = vec![0usize; n + 1];
        let mut log = vec![0u64; steps as usize * words];

        // The stimulus spikes still to come inside the window, per train;
        // a spent train leaves the list, so a step looks only at live ones.
        let mut external: Vec<(usize, &[u32])> = stimulus
            .trains
            .iter()
            .filter_map(|(id, train)| {
                assert!(id.index() < n, "stimulus references unknown neuron {id}");
                let times = train.times();
                let times = &times[..times.partition_point(|&t| t < steps)];
                (!times.is_empty()).then_some((id.index(), times))
            })
            .collect();

        let mut slot = 0;
        for t in 0..steps {
            // A spike sent now lands inside the window iff its delay is
            // below `left`.
            let left = steps - t;
            // 1. Deliver synaptic charge scheduled for this step…
            let pending_now = &mut pending[slot * n..][..n];
            for (w, bits) in due[slot * words..][..words].iter_mut().enumerate() {
                active[w] |= *bits;
                for i in ones(std::mem::take(bits), w) {
                    potential[i] += pending_now[i];
                    pending_now[i] = 0.0;
                }
            }
            // …and external stimulus. Trains are strictly increasing, so
            // a live train's next spike is at or after `t`.
            external.retain_mut(|(i, times)| {
                if times[0] == t {
                    potential[*i] += self.config.input_gain;
                    active[*i / 64] |= 1 << (*i % 64);
                    *times = &times[1..];
                }
                !times.is_empty()
            });
            // 2. Fire and 3. leak. A neuron's leak touches only its own
            // potential, and fires only schedule later charge, so firing
            // and leaking each neuron in turn equals two separate sweeps.
            let fired_now = &mut log[t as usize * words..][..words];
            for w in 0..words {
                let mut live = restless[w];
                let mut spikes = 0;
                for i in ones(active[w], w) {
                    let p = &mut potential[i];
                    if *p >= threshold[i] {
                        spikes |= 1 << (i % 64);
                        fired[i] += 1;
                        if self.config.reset_to_zero {
                            *p = 0.0;
                        } else {
                            *p -= threshold[i];
                        }
                        for edge in network.fan_out(NeuronId::new(i)) {
                            if edge.delay < left {
                                let s = (slot + edge.delay as usize) % ring;
                                let j = edge.target.index();
                                pending[s * n + j] += edge.weight;
                                due[s * words + j / 64] |= 1 << (j % 64);
                            }
                        }
                    }
                    if leak[i] > 0.0 {
                        *p *= 1.0 - leak[i];
                    }
                    // Clamp runaway negatives from inhibitory input.
                    if *p < -1e6 {
                        *p = -1e6;
                    }
                    if *p != 0.0 {
                        live |= 1 << (i % 64);
                    }
                }
                active[w] = live;
                fired_now[w] = spikes;
            }
            slot += 1;
            if slot == ring {
                slot = 0;
            }
        }
        SimRecord::from_log(fired, &log, steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use croxmap_snn::{NetworkBuilder, NodeRole};

    fn chain(delay: u32) -> (Network, NeuronId, NeuronId, NeuronId) {
        let mut b = NetworkBuilder::new();
        let a = b.add_neuron(NodeRole::Input, 0.5, 0.0);
        let h = b.add_neuron(NodeRole::Hidden, 0.5, 0.0);
        let o = b.add_neuron(NodeRole::Output, 0.5, 0.0);
        b.add_edge(a, h, 1.0, delay).unwrap();
        b.add_edge(h, o, 1.0, delay).unwrap();
        (b.build().unwrap(), a, h, o)
    }

    #[test]
    fn spike_propagates_along_chain() {
        let (net, a, h, o) = chain(1);
        let stim = Stimulus::new([(a, SpikeTrain::from_times([0]))]);
        let rec = LifSimulator::default().run(&net, &stim, 5);
        assert_eq!(rec.fire_times(a), &[0]);
        assert_eq!(rec.fire_times(h), &[1]);
        assert_eq!(rec.fire_times(o), &[2]);
    }

    #[test]
    fn delay_shifts_arrival() {
        let (net, a, h, o) = chain(3);
        let stim = Stimulus::new([(a, SpikeTrain::from_times([0]))]);
        let rec = LifSimulator::default().run(&net, &stim, 10);
        assert_eq!(rec.fire_times(h), &[3]);
        assert_eq!(rec.fire_times(o), &[6]);
    }

    #[test]
    fn threshold_requires_accumulation() {
        // Weight 0.4 < threshold 1.0: needs three spikes to fire (no leak).
        let mut b = NetworkBuilder::new();
        let a = b.add_neuron(NodeRole::Input, 0.5, 0.0);
        let o = b.add_neuron(NodeRole::Output, 1.0, 0.0);
        b.add_edge(a, o, 0.4, 1).unwrap();
        let net = b.build().unwrap();
        let stim = Stimulus::new([(a, SpikeTrain::from_times([0, 1, 2, 3]))]);
        let rec = LifSimulator::default().run(&net, &stim, 8);
        assert_eq!(rec.fire_count(a), 4);
        // Charge: 0.4, 0.8, 1.2 → fires once at arrival of third spike.
        assert_eq!(rec.fire_times(o), &[3]);
    }

    #[test]
    fn leak_prevents_accumulation() {
        let mut b = NetworkBuilder::new();
        let a = b.add_neuron(NodeRole::Input, 0.5, 0.0);
        let o = b.add_neuron(NodeRole::Output, 1.0, 0.9);
        b.add_edge(a, o, 0.4, 1).unwrap();
        let net = b.build().unwrap();
        let stim = Stimulus::new([(a, SpikeTrain::periodic(0, 1, 20))]);
        let rec = LifSimulator::default().run(&net, &stim, 20);
        // With 90 % leak the potential settles ≈0.44 < 1: never fires.
        assert_eq!(rec.fire_count(o), 0);
    }

    #[test]
    fn inhibitory_weight_suppresses() {
        let mut b = NetworkBuilder::new();
        let exc = b.add_neuron(NodeRole::Input, 0.5, 0.0);
        let inh = b.add_neuron(NodeRole::Input, 0.5, 0.0);
        let o = b.add_neuron(NodeRole::Output, 1.0, 0.0);
        b.add_edge(exc, o, 1.0, 1).unwrap();
        b.add_edge(inh, o, -1.0, 1).unwrap();
        let net = b.build().unwrap();
        // Both fire together: net charge 0 → no output fire.
        let stim = Stimulus::new([
            (exc, SpikeTrain::from_times([0, 2])),
            (inh, SpikeTrain::from_times([0, 2])),
        ]);
        let rec = LifSimulator::default().run(&net, &stim, 6);
        assert_eq!(rec.fire_count(o), 0);
        // Excitatory alone fires the output.
        let stim = Stimulus::new([(exc, SpikeTrain::from_times([0]))]);
        let rec = LifSimulator::default().run(&net, &stim, 6);
        assert_eq!(rec.fire_count(o), 1);
    }

    #[test]
    fn subtract_reset_carries_charge() {
        let mut b = NetworkBuilder::new();
        // Threshold 1.0 exactly matches one stimulus spike so `a` fires
        // exactly once even under subtract-reset.
        let a = b.add_neuron(NodeRole::Input, 1.0, 0.0);
        let o = b.add_neuron(NodeRole::Output, 1.0, 0.0);
        b.add_edge(a, o, 2.5, 1).unwrap();
        let net = b.build().unwrap();
        let stim = Stimulus::new([(a, SpikeTrain::from_times([0]))]);
        let cfg = LifConfig {
            reset_to_zero: false,
            ..LifConfig::default()
        };
        let rec = LifSimulator::new(cfg).run(&net, &stim, 6);
        // 2.5 charge → fires at t=1 (leaving 1.5), t=2 (leaving 0.5), stops.
        assert_eq!(rec.fire_times(o), &[1, 2]);
    }

    #[test]
    fn self_loop_sustains_activity() {
        let mut b = NetworkBuilder::new();
        let a = b.add_neuron(NodeRole::Input, 0.5, 0.0);
        b.add_edge(a, a, 1.0, 1).unwrap();
        let net = b.build().unwrap();
        let stim = Stimulus::new([(a, SpikeTrain::from_times([0]))]);
        let rec = LifSimulator::default().run(&net, &stim, 10);
        // Once kicked, the self-loop keeps it firing every step.
        assert_eq!(rec.fire_count(a), 10);
    }

    #[test]
    fn record_totals() {
        let (net, a, _h, _o) = chain(1);
        let stim = Stimulus::new([(a, SpikeTrain::from_times([0, 3]))]);
        let rec = LifSimulator::default().run(&net, &stim, 10);
        assert_eq!(rec.total_fires(), 6);
        assert_eq!(rec.steps(), 10);
        assert_eq!(rec.neuron_count(), 3);
    }

    #[test]
    fn delay_beyond_window_is_never_scheduled() {
        // The second edge's spike would land at or after the window: a
        // `u32::MAX` delay must give the record of a delay equal to
        // `steps`, without a ring sized by the delay.
        let record = |delay| {
            let mut b = NetworkBuilder::new();
            let a = b.add_neuron(NodeRole::Input, 0.5, 0.0);
            let o = b.add_neuron(NodeRole::Output, 0.5, 0.0);
            b.add_edge(a, o, 1.0, 1).unwrap();
            b.add_edge(o, a, 1.0, delay).unwrap();
            let net = b.build().unwrap();
            let stim = Stimulus::new([(a, SpikeTrain::from_times([0]))]);
            LifSimulator::default().run(&net, &stim, 8)
        };
        let far = record(u32::MAX);
        assert_eq!(far, record(8));
        assert_eq!(far.fire_times(NeuronId::new(0)), &[0]);
        assert_eq!(far.fire_times(NeuronId::new(1)), &[1]);
        // A shorter loop-back delay does re-fire the input.
        assert_eq!(record(3).fire_times(NeuronId::new(0)), &[0, 4]);
    }

    #[test]
    fn charge_adds_up_in_ascending_fire_order() {
        // Sources 0, 1 and 64 (two bitset words) fire together into `d`.
        // Summed in index order, 0.1 + 0.2 + 0.6 rounds to the threshold
        // 0.9; summed as 0.6 + 0.1 + 0.2 it falls one ulp short.
        let mut b = NetworkBuilder::new();
        let ids: Vec<NeuronId> = (0..66)
            .map(|_| b.add_neuron(NodeRole::Hidden, 0.9, 0.0))
            .collect();
        let d = ids[65];
        let sources = [(ids[0], 0.1), (ids[1], 0.2), (ids[64], 0.6)];
        for (s, w) in sources {
            b.add_edge(s, d, w, 1).unwrap();
        }
        let net = b.build().unwrap();
        let stim = Stimulus::new(sources.map(|(s, _)| (s, SpikeTrain::from_times([0]))));
        let rec = LifSimulator::default().run(&net, &stim, 3);
        assert_eq!(rec.fire_times(d), &[1]);
    }

    #[test]
    fn stimulus_total() {
        let s = Stimulus::new([
            (NeuronId::new(0), SpikeTrain::from_times([0, 1])),
            (NeuronId::new(1), SpikeTrain::from_times([4])),
        ]);
        assert_eq!(s.total_spikes(), 3);
    }
}

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
/// fired are `times[offsets[i]..offsets[i + 1]]`, ascending.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimRecord {
    /// `n + 1` offsets into `times`.
    offsets: Vec<usize>,
    /// Fire steps, grouped by neuron.
    times: Vec<u32>,
    steps: u32,
}

impl SimRecord {
    /// Groups a `(neuron, step)` fire log, in step order, by neuron.
    fn from_log(n: usize, log: &[(u32, u32)], steps: u32) -> Self {
        let mut offsets = vec![0; n + 1];
        for &(i, _) in log {
            offsets[i as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets[..n].to_vec();
        let mut times = vec![0; log.len()];
        for &(i, t) in log {
            let at = &mut next[i as usize];
            times[*at] = t;
            *at += 1;
        }
        SimRecord {
            offsets,
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
/// The kernel is event-driven but keeps that order. A run first copies
/// thresholds and decay factors out of the network, finds the largest
/// delay and zeroes the pending ring described below: an O(n·r + E)
/// set-up for a ring of r slots. A step then visits only the neurons with
/// charge due and the *active* neurons: those whose potential may be
/// non-zero, plus those with a threshold ≤ 0, which fire from rest. It
/// costs O(active neurons + due deliveries + n/64), plus the fan-out of
/// the neurons that fire and one look at each stimulus train. Every other
/// neuron rests at a zero potential, where delivery, leak and clamping
/// cannot change whether it fires, so the record equals that of a sweep
/// over all neurons.
///
/// Pending charge lives in a ring of `min(max delay, steps) + 1` slots of
/// `n` values. Charge that would arrive at or after `steps` is never
/// scheduled, so a delay longer than the window costs no memory. Fires
/// are logged as `(neuron, step)` pairs and grouped into the CSR of
/// [`SimRecord`] once, at the end of the run.
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
        let (threshold, decay): (Vec<f64>, Vec<f64>) = network
            .neuron_ids()
            .map(|i| {
                let node = network.node(i);
                let decay = if node.leak > 0.0 {
                    1.0 - node.leak
                } else {
                    1.0
                };
                (node.threshold, decay)
            })
            .unzip();
        // Neurons that fire from a zero potential never rest.
        let mut restless = vec![0u64; words];
        for (i, &th) in threshold.iter().enumerate() {
            if th <= 0.0 {
                restless[i / 64] |= 1 << (i % 64);
            }
        }
        let max_delay = network.edges().map(|e| e.delay).max().unwrap_or(1).max(1);
        let ring = max_delay.min(steps) as usize + 1;
        // Charge due at neuron `i` in ring slot `s` is `pending[s * n + i]`;
        // bit `i` of `due[s * words..][..words]` flags it.
        let mut pending = vec![0.0f64; ring * n];
        let mut due = vec![0u64; ring * words];
        let mut active = restless.clone();
        let mut potential = vec![0.0f64; n];
        let mut log: Vec<(u32, u32)> = Vec::new();

        // Index external stimulus per step for O(1) delivery.
        let mut external: Vec<(usize, &SpikeTrain, usize)> = stimulus
            .trains
            .iter()
            .map(|(id, t)| {
                assert!(id.index() < n, "stimulus references unknown neuron {id}");
                (id.index(), t, 0usize)
            })
            .collect();

        for t in 0..steps {
            let slot = t as usize % ring;
            // 1. Deliver synaptic charge scheduled for this step…
            let pending_now = &mut pending[slot * n..][..n];
            for (w, bits) in due[slot * words..][..words].iter_mut().enumerate() {
                active[w] |= *bits;
                for i in ones(std::mem::take(bits), w) {
                    potential[i] += pending_now[i];
                    pending_now[i] = 0.0;
                }
            }
            // …and external stimulus.
            for (idx, train, cursor) in &mut external {
                let times = train.times();
                while *cursor < times.len() && times[*cursor] == t {
                    potential[*idx] += self.config.input_gain;
                    active[*idx / 64] |= 1 << (*idx % 64);
                    *cursor += 1;
                }
                // Skip any stale past times (robustness to odd trains).
                while *cursor < times.len() && times[*cursor] < t {
                    *cursor += 1;
                }
            }
            // 2. Fire and 3. leak. A neuron's leak touches only its own
            // potential, and fires only schedule later charge, so firing
            // and leaking each neuron in turn equals two separate sweeps.
            for w in 0..words {
                let mut live = restless[w];
                for i in ones(active[w], w) {
                    let p = &mut potential[i];
                    if *p >= threshold[i] {
                        log.push((i as u32, t));
                        if self.config.reset_to_zero {
                            *p = 0.0;
                        } else {
                            *p -= threshold[i];
                        }
                        for edge in network.fan_out(NeuronId::new(i)) {
                            let arrive = u64::from(t) + u64::from(edge.delay);
                            if arrive < u64::from(steps) {
                                let s = arrive as usize % ring;
                                let j = edge.target.index();
                                pending[s * n + j] += edge.weight;
                                due[s * words + j / 64] |= 1 << (j % 64);
                            }
                        }
                    }
                    *p *= decay[i];
                    // Clamp runaway negatives from inhibitory input.
                    if *p < -1e6 {
                        *p = -1e6;
                    }
                    if *p != 0.0 {
                        live |= 1 << (i % 64);
                    }
                }
                active[w] = live;
            }
        }
        SimRecord::from_log(n, &log, steps)
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

//! Synthetic SmartPixel workload.
//!
//! The paper profiles and evaluates its networks on spike-encoded pixel
//! clusters from high-energy particle collision simulations (references
//! \[35\]/\[36\]): next-generation pixel detectors filter hits on-sensor by
//! estimating whether a cluster came from a high-momentum (steep, short)
//! or low-momentum (shallow, elongated) track.
//!
//! This module generates the synthetic equivalent: straight charged-particle
//! tracks crossing a pixel matrix deposit charge along their path (plus
//! noise); the cluster's column-wise charge profile is encoded into spike
//! trains; the label says whether the track's inclination is below the
//! "keep" cutoff. The 1 %/99 % profile/evaluation split of §V-H is
//! reproduced by [`EventSet::split`].

use croxmap_sim::{SpikeTrain, Stimulus};
use croxmap_snn::{Network, NeuronId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the synthetic pixel detector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SmartPixelConfig {
    /// Pixel matrix width (columns).
    pub width: usize,
    /// Pixel matrix height (rows).
    pub height: usize,
    /// Standard deviation of per-pixel charge noise (relative to the unit
    /// deposit of a track crossing one pixel).
    pub noise: f64,
    /// Track inclination cutoff in `tan(θ)` units: steeper tracks (below
    /// the cutoff) are labelled "keep" (high transverse momentum).
    pub slope_cutoff: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SmartPixelConfig {
    fn default() -> Self {
        SmartPixelConfig {
            width: 16,
            height: 8,
            noise: 0.08,
            slope_cutoff: 1.0,
            seed: 7,
        }
    }
}

/// One pixel-cluster event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Column-wise integrated charge, length = detector width.
    pub column_charge: Vec<f64>,
    /// `true` = keep (high-pT / steep track).
    pub label: bool,
    /// Ground-truth slope used to generate the track.
    pub slope: f64,
}

/// A generated dataset of events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventSet {
    events: Vec<Event>,
}

impl EventSet {
    /// Generates `count` events under `config`, deterministically.
    #[must_use]
    pub fn generate(config: &SmartPixelConfig, count: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let events = (0..count)
            .map(|_| generate_event(config, &mut rng))
            .collect();
        EventSet { events }
    }

    /// The events.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the set holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Splits into (profile, evaluation) subsets, taking every
    /// `1/fraction`-th event for profiling — the paper uses a randomly
    /// selected 1 % sample for PGO and evaluates on the remaining 99 %.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]`.
    #[must_use]
    pub fn split(&self, fraction: f64) -> (EventSet, EventSet) {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        let stride = (1.0 / fraction).round().max(1.0) as usize;
        let mut profile = Vec::new();
        let mut eval = Vec::new();
        for (i, e) in self.events.iter().enumerate() {
            if i % stride == 0 {
                profile.push(e.clone());
            } else {
                eval.push(e.clone());
            }
        }
        (EventSet { events: profile }, EventSet { events: eval })
    }
}

fn generate_event(config: &SmartPixelConfig, rng: &mut SmallRng) -> Event {
    // Track: enters at a random column at row 0 with slope dx/dy.
    let keep = rng.gen_bool(0.5);
    let slope = if keep {
        rng.gen_range(0.0..config.slope_cutoff)
    } else {
        rng.gen_range(config.slope_cutoff..config.slope_cutoff * 4.0)
    } * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    let entry = rng.gen_range(0.0..config.width as f64);
    let mut column_charge = vec![0.0f64; config.width];
    for row in 0..config.height {
        let x = entry + slope * row as f64 / config.height as f64 * config.width as f64 * 0.25;
        let col = x.round();
        if col >= 0.0 && (col as usize) < config.width {
            column_charge[col as usize] += 1.0;
        }
    }
    // Per-column Gaussian-ish noise (sum of two uniforms, cheap and smooth).
    for c in &mut column_charge {
        let u: f64 = rng.gen_range(-1.0..1.0f64) + rng.gen_range(-1.0..1.0f64);
        *c = (*c + u * config.noise).max(0.0);
    }
    Event {
        column_charge,
        label: slope.abs() < config.slope_cutoff,
        slope,
    }
}

/// Encodes an event as spike trains for the input neurons of `network`,
/// one train per input in index order.
///
/// Column `c`'s charge `q` asks for `round(q)` spikes (none for a negative
/// or NaN charge), capped at `window`, on input `c mod inputs`, one per
/// timestep from `t = 0`. A train is a set of timesteps, so columns that
/// share an input merge as a union: the input's train is `0..m`, where `m`
/// is the largest capped spike count among its columns, not their sum.
/// Inputs share columns whenever the event has more columns than the
/// network has inputs: a quarter-size Table I network has 4 inputs for the
/// 16 default columns.
///
/// # Panics
///
/// Panics if the network has no input neurons.
#[must_use]
pub fn encode(network: &Network, event: &Event, window: u32) -> Stimulus {
    let inputs = network.input_ids();
    let stride = inputs.len();
    assert!(stride > 0, "network needs input neurons for encoding");
    let columns = &event.column_charge;
    Stimulus::new(inputs.enumerate().map(|(slot, id)| {
        let m = columns
            .iter()
            .skip(slot)
            .step_by(stride)
            .map(|&q| (q.round().max(0.0) as u32).min(window))
            .max()
            .unwrap_or(0);
        (id, SpikeTrain::periodic(0, 1, m))
    }))
}

/// Classifies an event with `network`: runs the simulator and compares the
/// spike counts of the first two output neurons (keep if the first output
/// outfires the second).
///
/// Returns `None` when the network has fewer than two outputs.
#[must_use]
pub fn classify(
    network: &Network,
    simulator: &croxmap_sim::LifSimulator,
    event: &Event,
    window: u32,
) -> Option<bool> {
    let outputs: Vec<NeuronId> = network.output_ids().collect();
    if outputs.len() < 2 {
        return None;
    }
    let stimulus = encode(network, event, window);
    let record = simulator.run(network, &stimulus, window);
    Some(record.fire_count(outputs[0]) >= record.fire_count(outputs[1]))
}

/// Classification accuracy of `network` over `events` — the fitness used
/// by [`crate::eons`], and a quick sanity metric for
/// [`crate::calibrated`]-generated networks.
#[must_use]
pub fn accuracy(
    network: &Network,
    simulator: &croxmap_sim::LifSimulator,
    events: &EventSet,
    window: u32,
) -> f64 {
    if events.is_empty() {
        return 0.0;
    }
    let correct = events
        .events()
        .iter()
        .filter(|e| classify(network, simulator, e, window) == Some(e.label))
        .count();
    correct as f64 / events.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use croxmap_sim::LifSimulator;
    use croxmap_snn::{NetworkBuilder, NodeRole};

    fn cfg() -> SmartPixelConfig {
        SmartPixelConfig::default()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = EventSet::generate(&cfg(), 20);
        let b = EventSet::generate(&cfg(), 20);
        assert_eq!(a, b);
    }

    #[test]
    fn labels_follow_slope() {
        let set = EventSet::generate(&cfg(), 100);
        for e in set.events() {
            assert_eq!(e.label, e.slope.abs() < cfg().slope_cutoff);
        }
    }

    #[test]
    fn both_classes_present() {
        let set = EventSet::generate(&cfg(), 200);
        let keeps = set.events().iter().filter(|e| e.label).count();
        assert!(keeps > 50 && keeps < 150, "keeps {keeps}");
    }

    #[test]
    fn steep_tracks_concentrate_charge() {
        // A steep (keep) track crosses few columns → higher max column
        // charge on average than a shallow one.
        let set = EventSet::generate(&cfg(), 400);
        let avg_max = |label: bool| {
            let sel: Vec<f64> = set
                .events()
                .iter()
                .filter(|e| e.label == label)
                .map(|e| e.column_charge.iter().fold(0.0f64, |a, &b| a.max(b)))
                .collect();
            sel.iter().sum::<f64>() / sel.len() as f64
        };
        assert!(avg_max(true) > avg_max(false));
    }

    #[test]
    fn split_fractions() {
        let set = EventSet::generate(&cfg(), 1000);
        let (profile, eval) = set.split(0.01);
        assert_eq!(profile.len(), 10);
        assert_eq!(eval.len(), 990);
    }

    #[test]
    fn encode_produces_stimulus() {
        let mut b = NetworkBuilder::new();
        let i0 = b.add_neuron(NodeRole::Input, 1.0, 0.0);
        let i1 = b.add_neuron(NodeRole::Input, 1.0, 0.0);
        let o = b.add_neuron(NodeRole::Output, 1.0, 0.0);
        b.add_edge(i0, o, 1.0, 1).unwrap();
        b.add_edge(i1, o, 1.0, 1).unwrap();
        let net = b.build().unwrap();
        let event = Event {
            column_charge: vec![2.0, 0.0, 3.0, 1.0],
            label: true,
            slope: 0.1,
        };
        let stim = encode(&net, &event, 16);
        // Columns 0 and 2 share input 0: their trains 0..2 and 0..3 merge
        // as a union. Columns 1 and 3 share input 1.
        assert_eq!(
            stim.trains(),
            [
                (i0, SpikeTrain::from_times([0, 1, 2])),
                (i1, SpikeTrain::from_times([0])),
            ]
        );
    }

    #[test]
    fn accuracy_bounded() {
        let mut b = NetworkBuilder::new();
        let i0 = b.add_neuron(NodeRole::Input, 0.5, 0.0);
        let o0 = b.add_neuron(NodeRole::Output, 0.5, 0.0);
        let o1 = b.add_neuron(NodeRole::Output, 2.0, 0.0);
        b.add_edge(i0, o0, 1.0, 1).unwrap();
        b.add_edge(i0, o1, 0.3, 1).unwrap();
        let net = b.build().unwrap();
        let set = EventSet::generate(&cfg(), 30);
        let acc = accuracy(&net, &LifSimulator::default(), &set, 16);
        assert!((0.0..=1.0).contains(&acc));
    }
}

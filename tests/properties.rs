//! Property-based tests over randomly generated networks, pools and
//! solver inputs.

use croxmap::prelude::*;
use croxmap::sim::predicted_global_packets;
use croxmap_core::pipeline;
use proptest::prelude::*;

/// A network on `n` neurons (the first an input, the last an output) with
/// the given synapses. A repeated pair is added once: `NetworkBuilder::build`
/// rejects duplicate synapses.
fn network_from(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Network {
    let mut b = NetworkBuilder::new();
    let ids: Vec<_> = (0..n)
        .map(|i| {
            let role = if i == 0 {
                NodeRole::Input
            } else if i == n - 1 {
                NodeRole::Output
            } else {
                NodeRole::Hidden
            };
            b.add_neuron(role, 1.0, 0.1)
        })
        .collect();
    for (u, v) in edges {
        if !b.contains_edge(ids[u], ids[v]) {
            b.add_edge(ids[u], ids[v], 0.8, 1).unwrap();
        }
    }
    b.build().unwrap()
}

/// Strategy: a random simple digraph with `n` in 3..=8 nodes.
fn arb_network() -> impl Strategy<Value = Network> {
    (3usize..=8)
        .prop_flat_map(|n| {
            let edges = proptest::collection::btree_set((0..n, 0..n), 1..=(n * 2).min(12));
            (Just(n), edges)
        })
        .prop_map(|(n, edges)| network_from(n, edges))
}

/// Strategy: like [`arb_network`] with `n` in 3..=12, edge pairs drawn with
/// repeats, and a self-loop on about half the neurons.
fn arb_looped_network() -> impl Strategy<Value = Network> {
    (3usize..=12)
        .prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n, 0..n), 1..=n * 2);
            let loops = proptest::collection::vec(any::<bool>(), n);
            (Just(n), edges, loops)
        })
        .prop_map(|(n, edges, loops)| {
            let self_loops = (0..n).filter(|&i| loops[i]).map(|i| (i, i));
            network_from(n, edges.into_iter().chain(self_loops))
        })
}

fn arb_pool() -> impl Strategy<Value = CrossbarPool> {
    (2u32..=6, 2u32..=4, 2usize..=4).prop_map(|(inputs, outputs, count)| {
        CrossbarPool::from_counts(
            &AreaModel::memristor_count(),
            [
                (CrossbarDim::new(inputs, outputs), count),
                (CrossbarDim::new(inputs * 2, outputs), 2),
            ],
        )
    })
}

/// Full-recount reference for `local_search_routes`: the same visiting
/// order, first-improvement acceptance and caps, but every trial
/// revalidates the whole mapping and recounts every route. `initial` must
/// be valid.
fn full_recount_local_search_routes(
    network: &Network,
    pool: &CrossbarPool,
    initial: &Mapping,
    weights: Option<&[u64]>,
    max_passes: usize,
) -> Mapping {
    let ones = vec![1; network.node_count()];
    let w = weights.unwrap_or(&ones);
    let score = |assignment: &[usize]| -> u64 { predicted_global_packets(network, assignment, w) };
    let valid = |assignment: &[usize]| -> bool {
        Mapping::new(assignment.to_vec())
            .validate(network, pool)
            .is_ok()
    };

    let mut assignment = initial.assignment().to_vec();
    let mut best = score(&assignment);
    let used: Vec<usize> = initial.used_slots();
    let n = network.node_count();
    let try_swaps = n <= 128;

    for _ in 0..max_passes {
        let mut improved = false;
        // Single moves.
        for i in 0..n {
            let from = assignment[i];
            for &to in &used {
                if to == from {
                    continue;
                }
                assignment[i] = to;
                if valid(&assignment) {
                    let s = score(&assignment);
                    if s < best {
                        best = s;
                        improved = true;
                        break;
                    }
                }
                assignment[i] = from;
            }
        }
        // Pairwise swaps.
        if try_swaps {
            for i in 0..n {
                for k in i + 1..n {
                    if assignment[i] == assignment[k] {
                        continue;
                    }
                    assignment.swap(i, k);
                    if valid(&assignment) {
                        let s = score(&assignment);
                        if s < best {
                            best = s;
                            improved = true;
                            continue;
                        }
                    }
                    assignment.swap(i, k);
                }
            }
        }
        if !improved {
            break;
        }
    }
    Mapping::new(assignment)
}

/// `local_search_routes` must return exactly the full-recount mapping, a
/// valid one that never scores worse than `initial`; returns it.
fn check_route_search(
    net: &Network,
    pool: &CrossbarPool,
    initial: &Mapping,
    weights: Option<&[u64]>,
    max_passes: usize,
) -> Result<Mapping, TestCaseError> {
    let fast = local_search_routes(net, pool, initial, weights, max_passes);
    let reference = full_recount_local_search_routes(net, pool, initial, weights, max_passes);
    prop_assert_eq!(&fast, &reference);
    prop_assert!(fast.validate(net, pool).is_ok());
    let ones = vec![1; net.node_count()];
    let w = weights.unwrap_or(&ones);
    prop_assert!(
        predicted_global_packets(net, fast.assignment(), w)
            <= predicted_global_packets(net, initial.assignment(), w)
    );
    Ok(fast)
}

/// Dense reference for `LifSimulator::run`: every step sweeps all neurons
/// to deliver, fire and leak, over a `max_delay + 1` ring of per-neuron
/// charge. Returns each neuron's fire times.
fn dense_reference_run(
    config: &LifConfig,
    network: &Network,
    stimulus: &Stimulus,
    steps: u32,
) -> Vec<Vec<u32>> {
    let n = network.node_count();
    let max_delay = network.edges().map(|e| e.delay).max().unwrap_or(1).max(1) as usize;
    // Ring buffer of pending charge: pending[t mod (max_delay+1)][i].
    let ring = max_delay + 1;
    let mut pending = vec![vec![0.0f64; n]; ring];
    let mut potential = vec![0.0f64; n];
    let mut fires: Vec<Vec<u32>> = vec![Vec::new(); n];

    // Index external stimulus per step for O(1) delivery.
    let mut external: Vec<(usize, &SpikeTrain, usize)> = stimulus
        .trains()
        .iter()
        .map(|(id, t)| {
            assert!(id.index() < n, "stimulus references unknown neuron {id}");
            (id.index(), t, 0usize)
        })
        .collect();

    for t in 0..steps {
        let slot = (t as usize) % ring;
        // 1. Deliver synaptic charge scheduled for this step.
        for (i, p) in potential.iter_mut().enumerate() {
            *p += pending[slot][i];
            pending[slot][i] = 0.0;
        }
        // …and external stimulus.
        for (idx, train, cursor) in &mut external {
            let times = train.times();
            while *cursor < times.len() && times[*cursor] == t {
                potential[*idx] += config.input_gain;
                *cursor += 1;
            }
            // Skip any stale past times (robustness to odd trains).
            while *cursor < times.len() && times[*cursor] < t {
                *cursor += 1;
            }
        }
        // 2. Fire.
        for i in 0..n {
            let id = NeuronId::new(i);
            let node = network.node(id);
            if potential[i] >= node.threshold {
                fires[i].push(t);
                if config.reset_to_zero {
                    potential[i] = 0.0;
                } else {
                    potential[i] -= node.threshold;
                }
                for edge in network.fan_out(id) {
                    let arrive = (t as usize + edge.delay as usize) % ring;
                    pending[arrive][edge.target.index()] += edge.weight;
                }
            }
        }
        // 3. Leak.
        for i in 0..n {
            let leak = network.node(NeuronId::new(i)).leak;
            if leak > 0.0 {
                potential[i] *= 1.0 - leak;
            }
            // Clamp runaway negatives from inhibitory input.
            if potential[i] < -1e6 {
                potential[i] = -1e6;
            }
        }
    }
    fires
}

/// `LifSimulator::run` must return the dense reference's record.
fn check_lif(
    config: LifConfig,
    net: &Network,
    stim: &Stimulus,
    steps: u32,
) -> Result<(), TestCaseError> {
    let record = LifSimulator::new(config).run(net, stim, steps);
    let reference = dense_reference_run(&config, net, stim, steps);
    prop_assert_eq!(record.steps(), steps);
    prop_assert_eq!(record.neuron_count(), reference.len());
    for (i, times) in reference.iter().enumerate() {
        prop_assert_eq!(record.fire_times(NeuronId::new(i)), &times[..]);
    }
    let total: u64 = reference.iter().map(|f| f.len() as u64).sum();
    prop_assert_eq!(record.total_fires(), total);
    Ok(())
}

/// Strategy: a LIF network on 3..=80 neurons, so a bitset can span two
/// words, with a stimulus of 1–4 drawn trains. Thresholds lie in
/// −0.5..2.0, so some neurons fire from rest; each leak is 0, in (0, 1)
/// or 1; synapses carry signed weights and delays 1..=9, and may be
/// self-loops.
fn arb_lif_case() -> impl Strategy<Value = (Network, Stimulus)> {
    (3usize..=80)
        .prop_flat_map(|n| {
            let neurons = proptest::collection::vec((-0.5f64..2.0, 0usize..3, 0.0f64..1.0), n);
            let edges = proptest::collection::vec((0..n, 0..n, -1.0f64..1.5, 1u32..=9), 0..=3 * n);
            let train = proptest::collection::vec(0u32..44, 0..=16);
            let trains = proptest::collection::vec((0..n, train), 1..=4);
            (neurons, edges, trains)
        })
        .prop_map(|(neurons, edges, trains)| {
            let mut b = NetworkBuilder::new();
            let ids: Vec<NeuronId> = neurons
                .into_iter()
                .map(|(threshold, kind, v)| {
                    b.add_neuron(NodeRole::Hidden, threshold, [0.0, v, 1.0][kind])
                })
                .collect();
            for (u, v, weight, delay) in edges {
                if !b.contains_edge(ids[u], ids[v]) {
                    b.add_edge(ids[u], ids[v], weight, delay).unwrap();
                }
            }
            let stim = Stimulus::new(
                trains
                    .into_iter()
                    .map(|(i, times)| (ids[i], SpikeTrain::from_times(times))),
            );
            (b.build().unwrap(), stim)
        })
}

#[test]
fn lif_matches_dense_reference_on_table_i() {
    // Table I A and C (229 and 148 neurons) under 200 SmartPixel events.
    let events = EventSet::generate(&SmartPixelConfig::default(), 200);
    for spec in [NetworkSpec::table_i_a(), NetworkSpec::table_i_c()] {
        let net = generate(&spec);
        for event in events.events() {
            let stim = croxmap::gen::smartpixel::encode(&net, event, 24);
            check_lif(LifConfig::default(), &net, &stim, 24).unwrap();
        }
    }
}

#[test]
fn route_search_matches_full_recount_above_swap_cap() {
    // 129 neurons: one above the swap cap, so only single moves run.
    let net = generate(&NetworkSpec {
        name: "swap-cap".into(),
        node_count: 129,
        edge_count: 300,
        max_fan_in: 8,
        input_count: 8,
        output_count: 2,
        concentration: 1.2,
        seed: 0x5EED,
    });
    let pool = CrossbarPool::for_network_capped(
        &ArchitectureSpec::table_ii_heterogeneous(),
        &AreaModel::memristor_count(),
        net.node_count(),
        2,
    );
    let initial = naive_sequential(&net, &pool).unwrap();
    let weights: Vec<u64> = (0..net.node_count() as u64).map(|i| i * 7 % 5).collect();
    for w in [None, Some(&weights[..])] {
        let polished = check_route_search(&net, &pool, &initial, w, 3).unwrap();
        assert_ne!(polished, initial);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lif_matches_dense_reference(
        case in arb_lif_case(),
        steps in 0u32..=40,
        reset_to_zero in any::<bool>(),
        gain in 0usize..2,
    ) {
        let (net, stim) = case;
        let config = LifConfig {
            input_gain: [1.0, 0.6][gain],
            reset_to_zero,
        };
        check_lif(config, &net, &stim, steps)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn route_search_matches_full_recount(
        net in arb_looped_network(),
        pool in arb_pool(),
        weights in proptest::collection::vec(0u64..4, 12),
        max_passes in 2usize..=4,
    ) {
        let n = net.node_count();
        let zeros = vec![0; n];
        for initial in [greedy_first_fit(&net, &pool), naive_sequential(&net, &pool)]
            .iter()
            .flatten()
        {
            for w in [None, Some(&weights[..n]), Some(&zeros[..])] {
                check_route_search(&net, &pool, initial, w, max_passes)?;
            }
        }
    }

    #[test]
    fn greedy_mapping_always_validates(net in arb_network(), pool in arb_pool()) {
        if let Ok(m) = greedy_first_fit(&net, &pool) {
            prop_assert!(m.validate(&net, &pool).is_ok());
        }
    }

    #[test]
    fn ilp_solutions_always_validate(net in arb_network(), pool in arb_pool()) {
        let cfg = pipeline::PipelineConfig::with_budget(3.0);
        let run = pipeline::optimize_area(&net, &pool, &cfg);
        if let Some(m) = run.best_mapping() {
            prop_assert!(m.validate(&net, &pool).is_ok());
        }
    }

    #[test]
    fn warm_start_encoding_is_feasible(net in arb_network(), pool in arb_pool()) {
        if let Ok(m) = greedy_first_fit(&net, &pool) {
            let ilp = MappingIlp::build(
                &net,
                &pool,
                &MappingObjective::Area,
                &FormulationConfig::new(),
            );
            let warm = ilp.warm_start(&net, &m);
            prop_assert!(ilp.model().is_feasible(&warm, 1e-6));
            // Decoding the warm start recovers the mapping.
            let sol = croxmap::ilp::Solution::new(warm, 0.0);
            prop_assert_eq!(ilp.decode(&sol), m);
        }
    }

    #[test]
    fn route_objective_equals_metric(net in arb_network(), pool in arb_pool()) {
        if let Ok(m) = greedy_first_fit(&net, &pool) {
            let ilp = MappingIlp::build(
                &net,
                &pool,
                &MappingObjective::GlobalRoutes,
                &FormulationConfig::new(),
            );
            let warm = ilp.warm_start(&net, &m);
            let obj = ilp.model().objective_value(&warm);
            let routes = count_routes(&net, m.assignment());
            prop_assert!((obj - routes.global as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn total_route_objective_equals_metric(net in arb_network(), pool in arb_pool()) {
        if let Ok(m) = greedy_first_fit(&net, &pool) {
            let ilp = MappingIlp::build(
                &net,
                &pool,
                &MappingObjective::TotalRoutes,
                &FormulationConfig::new(),
            );
            let warm = ilp.warm_start(&net, &m);
            let obj = ilp.model().objective_value(&warm);
            let routes = count_routes(&net, m.assignment());
            prop_assert!((obj - routes.total() as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn packets_never_below_weighted_routes_lower_bound(net in arb_network(), pool in arb_pool()) {
        // For any mapping and any profile, measured packets from a real
        // simulation equal the Eq. 12 prediction on that simulation's
        // own profile.
        if let Ok(m) = greedy_first_fit(&net, &pool) {
            let input = net.input_ids().next().unwrap();
            let stim = Stimulus::new([(input, SpikeTrain::periodic(0, 2, 12))]);
            let rec = LifSimulator::default().run(&net, &stim, 12);
            let profile = SpikeProfile::from_record(&rec);
            let measured = count_packets(&net, m.assignment(), &rec).global;
            let predicted = croxmap::sim::predicted_global_packets(
                &net,
                m.assignment(),
                profile.counts(),
            );
            prop_assert_eq!(measured, predicted);
        }
    }

    #[test]
    fn gini_index_bounded(values in proptest::collection::vec(0.0f64..100.0, 1..40)) {
        let g = croxmap::snn::gini_index(&values);
        prop_assert!((0.0..=1.0).contains(&g), "gini {}", g);
    }

    #[test]
    fn simulator_fire_counts_bounded_by_steps(net in arb_network(), steps in 1u32..20) {
        let input = net.input_ids().next().unwrap();
        let stim = Stimulus::new([(input, SpikeTrain::periodic(0, 1, steps))]);
        let rec = LifSimulator::default().run(&net, &stim, steps);
        for i in net.neuron_ids() {
            prop_assert!(rec.fire_count(i) <= u64::from(steps));
        }
    }
}

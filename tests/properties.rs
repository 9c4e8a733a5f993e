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

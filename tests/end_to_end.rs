//! End-to-end integration tests spanning every crate: generated networks,
//! area → SNU → PGO pipelines, and cross-validation of the static metrics
//! against the packet-level processor simulation.

use croxmap::gen::smartpixel;
use croxmap::prelude::*;
use croxmap_core::pipeline;

fn scaled_network() -> Network {
    generate(&NetworkSpec::scaled_a(14))
}

fn het_pool(n: usize) -> CrossbarPool {
    CrossbarPool::for_network_capped(
        &ArchitectureSpec::table_ii_heterogeneous(),
        &AreaModel::memristor_count(),
        n,
        2,
    )
}

#[test]
fn area_pipeline_on_generated_network() {
    let net = scaled_network();
    let pool = het_pool(net.node_count());
    let run = pipeline::optimize_area(&net, &pool, &pipeline::PipelineConfig::with_budget(2.0));
    let m = run.best_mapping().expect("mappable");
    m.validate(&net, &pool).unwrap();
    // The incumbent stream is strictly improving and time-ordered.
    for w in run.incumbents.windows(2) {
        assert!(w[1].objective < w[0].objective);
        assert!(w[1].det_time >= w[0].det_time);
    }
}

#[test]
fn heterogeneous_beats_homogeneous_area() {
    // The paper's headline: on sparse networks, a heterogeneous catalog
    // yields (much) lower area than homogeneous 16×16.
    let net = scaled_network();
    let hom_pool = CrossbarPool::for_network(
        &ArchitectureSpec::paper_homogeneous(),
        &AreaModel::memristor_count(),
        net.node_count(),
        16,
    );
    let het_pool = het_pool(net.node_count());
    let cfg = pipeline::PipelineConfig::with_budget(2.0);
    let hom = pipeline::optimize_area(&net, &hom_pool, &cfg);
    let het = pipeline::optimize_area(&net, &het_pool, &cfg);
    let hom_area = hom.best_objective().expect("hom feasible");
    let het_area = het.best_objective().expect("het feasible");
    assert!(
        het_area < hom_area,
        "heterogeneous {het_area} must beat homogeneous {hom_area}"
    );
}

#[test]
fn snu_then_pgo_chain_preserves_area_and_improves_routes() {
    let net = scaled_network();
    let pool = het_pool(net.node_count());
    let cfg = pipeline::PipelineConfig::with_budget(2.0);
    let area_run = pipeline::optimize_area(&net, &pool, &cfg);
    let base = area_run.best_mapping().expect("mappable").clone();
    let base_area = base.area(&pool);
    let base_routes = count_routes(&net, base.assignment()).global;

    let snu_run = pipeline::optimize_routes_after_area(&net, &pool, &base, &cfg);
    let snu = snu_run.best_mapping().expect("base stays feasible");
    assert!(snu.area(&pool) <= base_area + 1e-9);
    let snu_routes = count_routes(&net, snu.assignment()).global;
    assert!(snu_routes <= base_routes);

    // PGO with uniform weights is equivalent to SNU up to solver budget.
    let weights = vec![1u64; net.node_count()];
    let pgo_run = pipeline::optimize_pgo_after_area(&net, &pool, &base, &weights, &cfg);
    let pgo = pgo_run.best_mapping().expect("base stays feasible");
    assert!(pgo.area(&pool) <= base_area + 1e-9);
}

#[test]
fn metrics_match_processor_simulation() {
    // Static route metrics and the packet-level simulation must agree:
    // measured global packets == Σ W_k · (global targets of k) when W is
    // the profile of the same run.
    let net = scaled_network();
    let pool = het_pool(net.node_count());
    let cfg = pipeline::PipelineConfig::with_budget(2.0);
    let mapping = pipeline::optimize_area(&net, &pool, &cfg)
        .best_mapping()
        .expect("mappable")
        .clone();

    let events = EventSet::generate(&SmartPixelConfig::default(), 20);
    let sim = LifSimulator::default();
    let mut measured = 0u64;
    let mut profile = SpikeProfile::with_len(net.node_count());
    for e in events.events() {
        let stim = smartpixel::encode(&net, e, 16);
        let rec = sim.run(&net, &stim, 16);
        measured += count_packets(&net, mapping.assignment(), &rec).global;
        profile.merge(&SpikeProfile::from_record(&rec));
    }
    let metrics = MappingMetrics::with_profile(&net, &pool, &mapping, profile.counts());
    assert_eq!(metrics.predicted_packets, Some(measured));
}

#[test]
fn pgo_beats_or_ties_snu_on_predicted_packets() {
    // On a small instance with generous budget, PGO's optimum for Eq. 12
    // must be at least as good as evaluating Eq. 12 on the SNU mapping.
    let net = generate(&NetworkSpec::scaled_a(20));
    let pool = het_pool(net.node_count());
    let cfg = pipeline::PipelineConfig::with_budget(2.0);
    let base = pipeline::optimize_area(&net, &pool, &cfg)
        .best_mapping()
        .expect("mappable")
        .clone();

    // Skewed profile: a couple of hot neurons.
    let mut weights = vec![1u64; net.node_count()];
    weights[0] = 50;
    weights[net.node_count() / 2] = 30;

    let snu = pipeline::optimize_routes_after_area(&net, &pool, &base, &cfg)
        .best_mapping()
        .expect("feasible")
        .clone();
    let pgo = pipeline::optimize_pgo_after_area(&net, &pool, &base, &weights, &cfg)
        .best_mapping()
        .expect("feasible")
        .clone();
    let snu_packets = croxmap::sim::predicted_global_packets(&net, snu.assignment(), &weights);
    let pgo_packets = croxmap::sim::predicted_global_packets(&net, pgo.assignment(), &weights);
    assert!(
        pgo_packets <= snu_packets,
        "PGO {pgo_packets} must not lose to SNU {snu_packets} on its own objective"
    );
}

#[test]
fn eons_champion_is_mappable() {
    let cfg = EonsConfig {
        population: 8,
        generations: 4,
        hidden_count: 8,
        ..EonsConfig::default()
    };
    let events = EventSet::generate(&SmartPixelConfig::default(), 10);
    let sim = LifSimulator::default();
    let run = evolve(&cfg, |n| smartpixel::accuracy(n, &sim, &events, 12));
    let net = run.best.to_network(&cfg);
    let pool = het_pool(net.node_count());
    let mapping = pipeline::optimize_area(&net, &pool, &pipeline::PipelineConfig::with_budget(2.0))
        .best_mapping()
        .expect("evolved networks are mappable")
        .clone();
    mapping.validate(&net, &pool).unwrap();
}

#[test]
fn deterministic_pipeline_runs() {
    let net = scaled_network();
    let pool = het_pool(net.node_count());
    let cfg = pipeline::PipelineConfig::with_budget(2.0);
    let a = pipeline::optimize_area(&net, &pool, &cfg);
    let b = pipeline::optimize_area(&net, &pool, &cfg);
    assert_eq!(a.det_time, b.det_time);
    assert_eq!(a.incumbents.len(), b.incumbents.len());
    for (x, y) in a.incumbents.iter().zip(&b.incumbents) {
        assert_eq!(x.mapping, y.mapping);
        assert_eq!(x.det_time, y.det_time);
    }
}

/// The paper-scale PGO formulation (Eq. 12) of Table I network A at full
/// size on the Table II pool (at most 4 replicas), restricted to a
/// first-fit mapping's crossbars like the pipeline's re-solve, with
/// deterministic stand-in spike counts (zero for every seventh neuron):
/// the model `optimize_pgo_after_area` builds. Returns the network, the
/// first fit and the ILP.
fn paper_scale_pgo_ilp() -> (Network, Mapping, MappingIlp) {
    let spec = NetworkSpec::table_i_scaled(1)
        .into_iter()
        .find(|s| s.name.starts_with('A'))
        .expect("Table I network A");
    let net = generate(&spec);
    let pool = CrossbarPool::for_network_capped(
        &ArchitectureSpec::table_ii_heterogeneous(),
        &AreaModel::memristor_count(),
        net.node_count(),
        4,
    );
    let base = greedy_first_fit(&net, &pool).expect("first fit places A/1");
    let weights: Vec<u64> = (0..net.node_count() as u64).map(|i| i * 37 % 7).collect();
    let formulation = FormulationConfig::new().restricted_to(&base);
    let ilp = MappingIlp::build(
        &net,
        &pool,
        &MappingObjective::PgoPackets(weights),
        &formulation,
    );
    (net, base, ilp)
}

/// The spike evaluation of the PGO flow (encode → LIF run → packet
/// counts) on Table I networks A and C at their built-in seeds, over the
/// first 300 default SmartPixel events at window 24, with packets counted
/// under a first fit on the Table II pool (at most 4 replicas). The sums of
/// stimulus spikes, fires and packets are pinned, so a change to how the
/// encoder, the simulator or the packet counter finds its answer cannot
/// move one.
#[test]
fn paper_scale_evaluation_is_pinned() {
    let events = EventSet::generate(&SmartPixelConfig::default(), 300);
    let sim = LifSimulator::default();
    let mut sums = Vec::new();
    for spec in [NetworkSpec::table_i_a(), NetworkSpec::table_i_c()] {
        let net = generate(&spec);
        let pool = CrossbarPool::for_network_capped(
            &ArchitectureSpec::table_ii_heterogeneous(),
            &AreaModel::memristor_count(),
            net.node_count(),
            4,
        );
        let base = greedy_first_fit(&net, &pool).expect("first fit places A and C");
        let (mut spikes, mut fires, mut local, mut global) = (0, 0, 0, 0);
        let mut incoming: Vec<u64> = Vec::new();
        for event in events.events() {
            let stim = smartpixel::encode(&net, event, 24);
            let rec = sim.run(&net, &stim, 24);
            let packets = count_packets(&net, base.assignment(), &rec);
            spikes += stim.total_spikes();
            fires += rec.total_fires();
            local += packets.local;
            global += packets.global;
            incoming.resize(packets.per_crossbar_incoming.len(), 0);
            for (sum, p) in incoming.iter_mut().zip(&packets.per_crossbar_incoming) {
                *sum += p;
            }
        }
        sums.push((spikes, fires, local, global, incoming));
    }
    let a_incoming = vec![
        87, 633, 95, 514, 291, 1422, 1602, 1542, 565, 188, 40, 1232, 1964, 1023, 2131, 2962, 2535,
        1873, 1038, 2264, 1636, 741, 700, 2002, 4330, 2331, 1588, 1386, 0, 0, 0, 0, 0,
    ];
    let c_incoming = vec![
        844, 1593, 4577, 2888, 10320, 7550, 4375, 5613, 5913, 4519, 9880, 4859, 11643, 14426,
        10423, 16444, 17559, 13156, 16003, 13562, 10861, 15621, 14545, 8867, 26932, 19418, 14308,
        8311,
    ];
    assert_eq!(
        sums,
        [
            (1963, 20_962, 2505, 38_715, a_incoming),
            (1963, 110_008, 10_049, 295_010, c_incoming),
        ],
        "per network: stimulus spikes, fires, local, global and per-crossbar incoming packets"
    );
}

/// Presolve of [`paper_scale_pgo_ilp`]: the reductions it makes and the
/// ticks it charges are pinned, so a change to how presolve finds its
/// reductions cannot move either.
#[test]
fn paper_scale_pgo_presolve_is_pinned() {
    use croxmap::ilp::presolve::{presolve, PresolveOutcome, PresolveStats};
    let (_, _, ilp) = paper_scale_pgo_ilp();
    assert_eq!(
        (ilp.model().num_vars(), ilp.model().num_constraints()),
        (19_560, 21_059)
    );
    let PresolveOutcome::Reduced(reduced) = presolve(ilp.model()) else {
        panic!("the PGO formulation of a first-fit mapping is feasible");
    };
    assert_eq!(
        reduced.stats,
        PresolveStats {
            rows_removed: 8882,
            cols_removed: 6282,
            nnz_before: 91_500,
            nnz_after: 60_399,
            rounds: 5,
            coeffs_tightened: 0,
            cliques: 229,
            work_ticks: 1_237_700,
        }
    );
    assert_eq!(
        (reduced.model.num_vars(), reduced.model.num_constraints()),
        (13_278, 12_177)
    );
}

/// One anytime solve of [`paper_scale_pgo_ilp`] from the first fit, at
/// the pipeline's default solver settings and a 0.05 det-s budget: its
/// clock, each phase's ticks, the node count and the incumbent stream are
/// pinned. It runs presolve, the root LP's leaving-row scan over
/// thousands of infeasible rows and the LNS at paper scale, so a change
/// to how those kernels find their answers cannot move a tick.
#[test]
fn paper_scale_pgo_solve_is_pinned() {
    use croxmap::ilp::trace::Phase;
    let (net, base, ilp) = paper_scale_pgo_ilp();
    let warm = ilp.warm_start(&net, &base);
    let mut stream = Vec::new();
    let result = Solver::new(SolverConfig::default().with_det_time_limit(0.05))
        .solve_with_callback(ilp.model(), Some(&warm), |e| {
            stream.push(e.objective.to_bits());
        });
    assert_eq!(result.status, SolveStatus::Feasible);
    assert_eq!(
        result.det_time.to_bits(),
        0.011_642_457_f64.to_bits(),
        "det_time"
    );
    let phases = Phase::ALL.map(|p| result.phases.ticks(p));
    assert_eq!(
        phases,
        [1_237_700, 1_031_070, 0, 0, 1_031_070, 8_342_617, 0],
        "ticks of presolve, root_lp, cuts, dive, tree, lns, other"
    );
    assert_eq!(result.nodes, 9, "nodes");
    assert_eq!(stream, [1008.0_f64.to_bits()], "incumbent objectives");
    assert_eq!(result.lp_fallbacks, 0);
}

//! Sequential-equivalence regression for the parallel tree search.
//!
//! `threads = 1` must take the historical sequential path **bit for
//! bit**: same node count, same deterministic time, same incumbent
//! stream (objectives, timestamps and assignments), same bound, same
//! factorisation stats. This is the contract every downstream consumer
//! of the anytime log relies on — a config that never asked for
//! parallelism must be unaffected by the driver's existence.
//!
//! Checked on two real fixtures: the ring set-cover (the warm-start
//! `lp_chain` family) and the calibrated set-partitioning mapping ILP.
//! On top of the pin, a smoke check that `threads = 2` in deterministic
//! mode still reaches the same optimum on both.

use croxmap_core::baseline::greedy_first_fit;
use croxmap_core::{FormulationConfig, MappingIlp, MappingObjective};
use croxmap_gen::calibrated::{generate, NetworkSpec};
use croxmap_ilp::{Model, ParallelMode, SolveResult, SolveStatus, Solver, SolverConfig};
use croxmap_mca::{ArchitectureSpec, AreaModel, CrossbarPool};

/// Set-cover instance over a ring: n elements, each covered by 2 sets —
/// the bench harness's `lp_chain` family member.
fn ring_cover(n: usize) -> Model {
    let mut m = Model::new();
    let vars: Vec<_> = (0..n).map(|_| m.add_binary()).collect();
    for e in 0..n {
        m.add_constraint(m.expr([(vars[e], 1.0), (vars[(e + 1) % n], 1.0)]).geq(1.0));
    }
    m.set_objective(
        m.expr(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + (i % 3) as f64)),
        ),
    );
    m
}

/// The slot-restricted set-partitioning re-optimisation instance over a
/// greedy mapping's crossbars — the §V-F workload and the bench
/// harness's `set_partition_restricted` member, which the default solver
/// proves optimal inside a 2-second deterministic budget.
fn set_partition_restricted(scale: usize) -> Model {
    let net = generate(&NetworkSpec::scaled_a(scale));
    let pool = CrossbarPool::for_network_capped(
        &ArchitectureSpec::table_ii_heterogeneous(),
        &AreaModel::memristor_count(),
        net.node_count(),
        2,
    );
    let mapping = greedy_first_fit(&net, &pool).expect("greedy mapping exists");
    let formulation = FormulationConfig::new().restricted_to(&mapping);
    let ilp = MappingIlp::build(&net, &pool, &MappingObjective::GlobalRoutes, &formulation);
    ilp.model().clone()
}

fn assert_bit_identical(a: &SolveResult, b: &SolveResult, what: &str) {
    assert_eq!(a.status, b.status, "{what}: status");
    assert_eq!(a.nodes, b.nodes, "{what}: node count");
    assert_eq!(a.det_time, b.det_time, "{what}: det_time");
    assert_eq!(a.best_bound, b.best_bound, "{what}: bound");
    assert_eq!(a.lp_fallbacks, b.lp_fallbacks, "{what}: fallbacks");
    assert_eq!(a.factor, b.factor, "{what}: factor stats");
    assert_eq!(
        a.incumbents.len(),
        b.incumbents.len(),
        "{what}: incumbent stream length"
    );
    for (i, (x, y)) in a.incumbents.iter().zip(&b.incumbents).enumerate() {
        assert_eq!(x.objective, y.objective, "{what}: event {i} objective");
        assert_eq!(x.det_time, y.det_time, "{what}: event {i} timestamp");
        assert_eq!(
            x.solution.values(),
            y.solution.values(),
            "{what}: event {i} assignment"
        );
    }
    match (&a.best, &b.best) {
        (Some(x), Some(y)) => {
            assert_eq!(x.objective(), y.objective(), "{what}: best objective");
            assert_eq!(x.values(), y.values(), "{what}: best assignment");
        }
        (None, None) => {}
        _ => panic!("{what}: incumbent presence differs"),
    }
}

fn fixtures() -> Vec<(&'static str, Model)> {
    vec![
        ("ring_cover/48", ring_cover(48)),
        ("set_partition_restricted/16", set_partition_restricted(16)),
    ]
}

#[test]
fn threads_one_is_bit_identical_to_sequential() {
    for (name, model) in fixtures() {
        let base = SolverConfig {
            det_time_limit: 3.0,
            ..SolverConfig::default()
        };
        let sequential = Solver::new(base.clone()).solve(&model);
        assert_eq!(sequential.status, SolveStatus::Optimal, "{name}");
        for mode in [ParallelMode::Deterministic, ParallelMode::WorkStealing] {
            let pinned =
                Solver::new(base.clone().with_threads(1).with_parallel_mode(mode)).solve(&model);
            assert!(pinned.parallel.is_none(), "{name}: threads=1 reports stats");
            assert_bit_identical(&sequential, &pinned, name);
        }
    }
}

#[test]
fn two_thread_deterministic_matches_sequential_optimum() {
    for (name, model) in fixtures() {
        let base = SolverConfig {
            det_time_limit: 3.0,
            ..SolverConfig::default()
        };
        let sequential = Solver::new(base.clone()).solve(&model);
        let parallel = Solver::new(
            base.with_threads(2)
                .with_parallel_mode(ParallelMode::Deterministic),
        )
        .solve(&model);
        assert_eq!(sequential.status, parallel.status, "{name}: status");
        let want = sequential
            .best
            .as_ref()
            .expect("sequential optimum")
            .objective();
        let got = parallel
            .best
            .as_ref()
            .expect("parallel optimum")
            .objective();
        assert!(
            (want - got).abs() < 1e-6,
            "{name}: sequential {want}, parallel {got}"
        );
    }
}

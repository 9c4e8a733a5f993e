//! Observability regression pins (same contract style as
//! `parallel_seq.rs`): tracing must **observe** a solve, never perturb
//! it.
//!
//! * **Trace-off vs trace-on**: installing a sink must leave the solve
//!   bit-identical — same node count, same deterministic time, same
//!   incumbent stream, same factorisation stats. Tracing only reads the
//!   deterministic clock; it never charges it and never touches the RNG.
//! * **Deterministic parallel traces**: two `ParallelMode::Deterministic`
//!   runs at a fixed thread count must emit **byte-identical** JSONL
//!   streams — per-worker span buffers are merged in fixed worker order,
//!   so the trace inherits the schedule's run-to-run reproducibility.
//! * **Phase accounting**: the `PhaseBreakdown` on every `SolveResult`
//!   must sum exactly to the run's `det_time` (the `Other` bucket absorbs
//!   unattributed driver overhead).

use croxmap_core::baseline::greedy_first_fit;
use croxmap_core::{FormulationConfig, MappingIlp, MappingObjective};
use croxmap_gen::calibrated::{generate, NetworkSpec};
use croxmap_ilp::{
    DeterministicClock, Model, ParallelMode, Phase, RingSink, SolveResult, SolveStatus, Solver,
    SolverConfig, SpanKind, TraceHandle, TraceSink,
};
use croxmap_mca::{ArchitectureSpec, AreaModel, CrossbarPool};
use std::sync::{Arc, Mutex};

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
/// harness's `set_partition_restricted` member.
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

fn fixtures() -> Vec<(&'static str, Model)> {
    vec![
        ("ring_cover/48", ring_cover(48)),
        ("set_partition_restricted/16", set_partition_restricted(16)),
    ]
}

fn assert_bit_identical(a: &SolveResult, b: &SolveResult, what: &str) {
    assert_eq!(a.status, b.status, "{what}: status");
    assert_eq!(a.nodes, b.nodes, "{what}: node count");
    assert_eq!(a.det_time, b.det_time, "{what}: det_time");
    assert_eq!(a.best_bound, b.best_bound, "{what}: bound");
    assert_eq!(a.lp_fallbacks, b.lp_fallbacks, "{what}: fallbacks");
    assert_eq!(a.factor, b.factor, "{what}: factor stats");
    assert_eq!(a.phases, b.phases, "{what}: phase breakdown");
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

/// The phase ticks on every result must sum exactly to its `det_time`.
fn assert_phases_account_for_det_time(r: &SolveResult, what: &str) {
    let total = DeterministicClock::ticks_to_seconds(r.phases.total_ticks());
    assert_eq!(
        total, r.det_time,
        "{what}: phase ticks do not sum to det_time"
    );
}

/// A `LnsRound`-capable configuration so the trace-on/off pin also covers
/// the LNS attribution sites.
fn traced_base() -> SolverConfig {
    SolverConfig {
        det_time_limit: 3.0,
        ..SolverConfig::default()
    }
}

#[test]
fn trace_on_is_bit_identical_to_trace_off() {
    for (name, model) in fixtures() {
        let untraced = Solver::new(traced_base()).solve(&model);
        assert_eq!(untraced.status, SolveStatus::Optimal, "{name}");
        assert_phases_account_for_det_time(&untraced, name);

        let sink = Arc::new(Mutex::new(RingSink::new(1 << 16)));
        let handle = TraceHandle::shared(Arc::clone(&sink) as Arc<Mutex<dyn TraceSink>>);
        let traced = Solver::new(traced_base().with_trace(handle)).solve(&model);
        assert_bit_identical(&untraced, &traced, name);
        assert_phases_account_for_det_time(&traced, name);

        // The sink actually saw the solve: a root LP span exists, node
        // expansions match the reported node count, and the finished
        // breakdown equals the one on the result.
        let ring = sink.lock().unwrap();
        assert!(ring.dropped() == 0, "{name}: ring overflowed the test cap");
        let roots = ring
            .events()
            .iter()
            .filter(|e| e.kind == SpanKind::RootLp)
            .count();
        assert_eq!(roots, 1, "{name}: root LP spans");
        let expansions = ring
            .events()
            .iter()
            .filter(|e| e.kind == SpanKind::NodeExpand)
            .count() as u64;
        assert_eq!(expansions, traced.nodes, "{name}: node-expand spans");
        assert_eq!(
            ring.phases(),
            Some(&traced.phases),
            "{name}: finished breakdown"
        );
        assert!(
            traced.phases.ticks(Phase::RootLp) > 0,
            "{name}: root LP ticks attributed"
        );
    }
}

#[test]
fn deterministic_parallel_traces_are_byte_identical() {
    for (name, model) in fixtures() {
        let run = || {
            let sink = Arc::new(Mutex::new(croxmap_ilp::JsonlSink::new(Vec::<u8>::new())));
            let handle = TraceHandle::shared(Arc::clone(&sink) as Arc<Mutex<dyn TraceSink>>);
            let result = Solver::new(
                traced_base()
                    .with_threads(2)
                    .with_parallel_mode(ParallelMode::Deterministic)
                    .with_trace(handle),
            )
            .solve(&model);
            let bytes = sink.lock().unwrap().get_ref().clone();
            (result, bytes)
        };
        let (a, bytes_a) = run();
        let (b, bytes_b) = run();
        assert_bit_identical(&a, &b, name);
        assert_phases_account_for_det_time(&a, name);
        assert!(!bytes_a.is_empty(), "{name}: empty trace");
        assert_eq!(
            bytes_a, bytes_b,
            "{name}: deterministic traces diverged run-to-run"
        );
    }
}

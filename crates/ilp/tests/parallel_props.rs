//! Parallel tree-search properties.
//!
//! * **Objective equivalence**: for seeded random 0/1 models, solving
//!   with `threads ∈ {2, 4}` — in both coordination modes — must reach
//!   the same optimal objective as the sequential solver (1e-6), and
//!   agree on infeasibility.
//! * **Deterministic mode reproducibility**: at a fixed thread count,
//!   two runs of [`ParallelMode::Deterministic`] must produce identical
//!   incumbent-event sequences (objective *and* timestamp), node counts,
//!   deterministic time and factorisation stats.
//! * **Incumbent-stream invariants** hold in parallel runs too: strictly
//!   improving objectives, nondecreasing timestamps.

use croxmap_ilp::{
    JsonlSink, Model, ParallelMode, SolveStatus, Solver, SolverConfig, TraceHandle, VarId,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `CROXMAP_TEST_TRACE=jsonl` re-runs the whole suite with a JSONL trace
/// sink attached (CI validates the emitted stream with the bench
/// harness's `trace_report` schema checker). Every solve of this test
/// binary appends to one file under `CROXMAP_TRACE_DIR` (default
/// `target/trace`).
fn test_trace_handle() -> Option<TraceHandle> {
    use std::sync::OnceLock;
    static HANDLE: OnceLock<Option<TraceHandle>> = OnceLock::new();
    HANDLE
        .get_or_init(|| {
            if std::env::var("CROXMAP_TEST_TRACE").ok().as_deref() != Some("jsonl") {
                return None;
            }
            let dir =
                std::env::var("CROXMAP_TRACE_DIR").unwrap_or_else(|_| "target/trace".to_owned());
            std::fs::create_dir_all(&dir).ok()?;
            let path = format!("{dir}/parallel_props-{}.jsonl", std::process::id());
            let file = std::fs::File::create(path).ok()?;
            Some(TraceHandle::new(JsonlSink::new(std::io::BufWriter::new(
                file,
            ))))
        })
        .clone()
}

/// The seeded random 0/1 family the presolve/backend suites use: mixed
/// ≤/≥/= rows over 3–9 binaries.
fn random_model(seed: u64) -> Model {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(3usize..=9);
    let rows = rng.gen_range(1usize..=6);
    let mut m = Model::new();
    let vars: Vec<VarId> = (0..n).map(|_| m.add_binary()).collect();
    for _ in 0..rows {
        let coeffs: Vec<f64> = (0..n)
            .map(|_| f64::from(rng.gen_range(-3i32..=3)))
            .collect();
        let rhs = f64::from(rng.gen_range(-4i32..=6));
        let expr = m.expr(
            vars.iter()
                .zip(&coeffs)
                .filter(|&(_, &c)| c != 0.0)
                .map(|(&v, &c)| (v, c)),
        );
        let cmp = match rng.gen_range(0u32..4) {
            0 => expr.geq(rhs),
            1 if rhs >= 0.0 => expr.eq(rhs),
            _ => expr.leq(rhs),
        };
        m.add_constraint(cmp);
    }
    m.set_objective(
        m.expr(
            vars.iter()
                .map(|&v| (v, f64::from(rng.gen_range(-5i32..=5)))),
        ),
    );
    m
}

fn base_config(seed: u64) -> SolverConfig {
    let cfg = SolverConfig {
        det_time_limit: 5.0,
        ..SolverConfig::default()
    }
    .with_seed(seed);
    match test_trace_handle() {
        Some(trace) => cfg.with_trace(trace),
        None => cfg,
    }
}

#[test]
fn parallel_reaches_sequential_optimum_across_modes() {
    let mut optimal = 0u32;
    let mut engaged = 0u32;
    for seed in 0..50u64 {
        let model = random_model(seed);
        let cfg = base_config(seed);
        let reference = Solver::new(cfg.clone()).solve(&model);
        for threads in [2usize, 4] {
            for mode in [ParallelMode::Deterministic, ParallelMode::WorkStealing] {
                let run = Solver::new(cfg.clone().with_threads(threads).with_parallel_mode(mode))
                    .solve(&model);
                assert_eq!(
                    reference.status, run.status,
                    "seed {seed}, {threads} threads {mode:?}: status"
                );
                if reference.status == SolveStatus::Optimal {
                    optimal += 1;
                    let want = reference.best.as_ref().unwrap().objective();
                    let got = run.best.as_ref().unwrap().objective();
                    assert!(
                        (want - got).abs() < 1e-6,
                        "seed {seed}, {threads} threads {mode:?}: \
                         sequential {want}, parallel {got}"
                    );
                }
                // Runs that reached the tree phase report driver
                // stats (presolve or the root phase may finish the
                // model first — those legitimately stay `None`).
                if let Some(stats) = run.parallel {
                    assert_eq!(stats.threads, threads);
                    assert_eq!(stats.mode, mode);
                    engaged += 1;
                }
                // The anytime stream invariants survive parallelism.
                for w in run.incumbents.windows(2) {
                    assert!(
                        w[1].objective < w[0].objective,
                        "seed {seed}: non-improving incumbent stream"
                    );
                    assert!(
                        w[1].det_time >= w[0].det_time,
                        "seed {seed}: time ran backwards"
                    );
                }
            }
        }
    }
    assert!(
        optimal >= 60,
        "family too degenerate: {optimal} optimal runs"
    );
    assert!(engaged >= 20, "parallel driver barely exercised: {engaged}");
}

#[test]
fn deterministic_mode_is_reproducible_run_to_run() {
    let mut compared = 0u32;
    for seed in 0..15u64 {
        let model = random_model(seed);
        for threads in [2usize, 4] {
            let cfg = base_config(seed)
                .with_threads(threads)
                .with_parallel_mode(ParallelMode::Deterministic);
            let a = Solver::new(cfg.clone()).solve(&model);
            let b = Solver::new(cfg).solve(&model);
            assert_eq!(a.status, b.status, "seed {seed}, {threads} threads");
            assert_eq!(a.nodes, b.nodes, "seed {seed}, {threads} threads: nodes");
            assert_eq!(
                a.det_time, b.det_time,
                "seed {seed}, {threads} threads: det_time"
            );
            assert_eq!(
                a.incumbents.len(),
                b.incumbents.len(),
                "seed {seed}, {threads} threads: stream length"
            );
            for (x, y) in a.incumbents.iter().zip(&b.incumbents) {
                assert_eq!(x.objective, y.objective, "seed {seed}: event objective");
                assert_eq!(x.det_time, y.det_time, "seed {seed}: event timestamp");
                assert_eq!(
                    x.solution.values(),
                    y.solution.values(),
                    "seed {seed}: event assignment"
                );
            }
            assert_eq!(a.factor, b.factor, "seed {seed}: factor stats");
            assert_eq!(a.best_bound, b.best_bound, "seed {seed}: bound");
            compared += 1;
        }
    }
    assert!(compared >= 30);
}

/// `threads = 1` ignores the parallel mode entirely: both modes must be
/// byte-for-byte the sequential solve.
#[test]
fn single_thread_ignores_parallel_mode() {
    for seed in 0..10u64 {
        let model = random_model(seed);
        let cfg = base_config(seed);
        let sequential = Solver::new(cfg.clone()).solve(&model);
        for mode in [ParallelMode::Deterministic, ParallelMode::WorkStealing] {
            let run =
                Solver::new(cfg.clone().with_threads(1).with_parallel_mode(mode)).solve(&model);
            assert_eq!(sequential.status, run.status);
            assert_eq!(sequential.nodes, run.nodes);
            assert_eq!(sequential.det_time, run.det_time);
            assert_eq!(sequential.incumbents.len(), run.incumbents.len());
            assert!(run.parallel.is_none(), "threads=1 must not report stats");
        }
    }
}

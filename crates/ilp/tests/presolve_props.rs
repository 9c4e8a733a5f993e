//! Presolve/postsolve round-trip properties on seeded random 0/1 models:
//! solving with presolve on and off must reach the status and optimum exhaustive enumeration finds, every
//! postsolved incumbent must be feasible in the *original* model, and
//! direct presolve round-trips must preserve feasibility and objectives.

mod support;

use croxmap_ilp::presolve::{presolve, PresolveOutcome};
use croxmap_ilp::{JsonlSink, Model, SolveStatus, Solver, SolverConfig, TraceHandle, VarId};
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
            let path = format!("{dir}/presolve_props-{}.jsonl", std::process::id());
            let file = std::fs::File::create(path).ok()?;
            Some(TraceHandle::new(JsonlSink::new(std::io::BufWriter::new(
                file,
            ))))
        })
        .clone()
}

/// A seeded random 0/1 model: n binaries, a few ≤/≥/= rows with small
/// integer coefficients — the same family the warm-start suite uses, plus
/// occasional equality rows so the presolve Eq paths get exercised.
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

fn config(presolve_on: bool) -> SolverConfig {
    // `CROXMAP_TEST_THREADS=n` re-runs the whole suite through the
    // parallel tree driver (CI exercises n = 4): every equivalence
    // property here must hold at any thread count.
    let threads = std::env::var("CROXMAP_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let cfg = SolverConfig {
        det_time_limit: 5.0,
        enable_lns: false,
        ..SolverConfig::default()
    }
    .with_presolve(presolve_on)
    .with_threads(threads);
    match test_trace_handle() {
        Some(trace) => cfg.with_trace(trace),
        None => cfg,
    }
}

#[test]
fn presolve_on_off_reach_identical_optima() {
    let mut optimal = 0u32;
    let mut infeasible = 0u32;
    for seed in 0..120u64 {
        let model = random_model(seed);
        let reference = support::enumerated_optimum(&model);
        let expected = if reference.is_some() {
            SolveStatus::Optimal
        } else {
            SolveStatus::Infeasible
        };
        for presolve_on in [true, false] {
            let run = Solver::new(config(presolve_on)).solve(&model);
            assert_eq!(
                run.status, expected,
                "seed {seed}, presolve {presolve_on}: status mismatch"
            );
            match run.status {
                SolveStatus::Optimal => {
                    let got = run.best.as_ref().expect("optimal has incumbent");
                    let want = reference.expect("a feasible point exists");
                    assert!(
                        (got.objective() - want).abs() <= 1e-6,
                        "seed {seed}, presolve {presolve_on}: {} vs {want}",
                        got.objective()
                    );
                    // The postsolved solution must be feasible for the
                    // ORIGINAL model and have a consistent objective.
                    assert!(
                        model.is_feasible(got.values(), 1e-6),
                        "seed {seed}, presolve {presolve_on}: infeasible postsolve"
                    );
                    assert!((model.objective_value(got.values()) - got.objective()).abs() <= 1e-6);
                    // Every incumbent in the stream postsolves feasibly.
                    for ev in &run.incumbents {
                        assert!(
                            model.is_feasible(ev.solution.values(), 1e-6),
                            "seed {seed}, presolve {presolve_on}: bad incumbent"
                        );
                    }
                }
                SolveStatus::Infeasible => assert!(run.best.is_none()),
                other => panic!("seed {seed}: unexpected status {other:?}"),
            }
        }
        match reference {
            Some(_) => optimal += 1,
            None => infeasible += 1,
        }
    }
    // The family must exercise both outcomes meaningfully.
    assert!(optimal >= 40, "only {optimal} optimal instances");
    assert!(infeasible >= 5, "only {infeasible} infeasible instances");
}

#[test]
fn direct_presolve_roundtrip_preserves_feasible_points() {
    let mut checked = 0u32;
    for seed in 200..320u64 {
        let model = random_model(seed);
        let p = match presolve(&model) {
            PresolveOutcome::Reduced(p) => p,
            PresolveOutcome::Infeasible(_) => continue,
        };
        let nr = p.postsolve.num_reduced_vars();
        assert_eq!(p.postsolve.num_original_vars(), model.num_vars());
        if nr > 12 {
            continue;
        }
        // Enumerate the reduced 0/1 cube: every reduced-feasible point must
        // restore to an original-feasible point with the same objective.
        for mask in 0..(1u32 << nr) {
            let reduced_point: Vec<f64> = (0..nr).map(|j| f64::from((mask >> j) & 1)).collect();
            if !p.model.is_feasible(&reduced_point, 1e-9) {
                continue;
            }
            let restored = p.postsolve.restore(&reduced_point);
            assert!(
                model.is_feasible(&restored, 1e-6),
                "seed {seed}, mask {mask}: restored point infeasible"
            );
            assert!(
                (model.objective_value(&restored) - p.model.objective_value(&reduced_point)).abs()
                    <= 1e-9,
                "seed {seed}, mask {mask}: objective drift"
            );
            checked += 1;
        }
    }
    assert!(checked >= 200, "only {checked} roundtrips checked");
}

#[test]
fn warm_start_projects_through_presolve() {
    // A caller-supplied warm start survives presolve projection: the solver
    // must still produce (at least) an equally good incumbent.
    let mut m = Model::new();
    let x = m.add_binary();
    let y = m.add_binary();
    let z = m.add_binary();
    m.add_constraint(m.expr([(x, 1.0), (y, 1.0), (z, 1.0)]).geq(1.0));
    m.set_objective(m.expr([(x, 2.0), (y, 5.0), (z, 9.0)]));
    let warm = vec![0.0, 1.0, 0.0]; // feasible, suboptimal
    let run = Solver::new(config(true)).solve_with_warm_start(&m, &warm);
    assert_eq!(run.status, SolveStatus::Optimal);
    assert!((run.best.unwrap().objective() - 2.0).abs() < 1e-9);
    assert!(!run.incumbents.is_empty());
}

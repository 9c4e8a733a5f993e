//! Warm-start correctness: warm-started child solves must agree with cold
//! solves on seeded random 0/1 models, through every warm path (refactor
//! from snapshot in a new session, and hot in-place reuse of one live
//! [`LpSession`]), and the warm-started branch-and-bound must reach the
//! same optima as the cold one. Cold relaxations are checked against the
//! dense two-phase tableau oracle (`support`), and branch-and-bound
//! optima against exhaustive enumeration.

mod support;

use croxmap_ilp::simplex::{LpConfig, LpStatus};
use croxmap_ilp::{LpSession, Model, SolveStatus, Solver, SolverConfig, VarId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A seeded random 0/1 model: n binaries, a few ≤/≥ rows with small
/// integer coefficients — the same family the solver-exactness suite uses.
fn random_model(seed: u64) -> Model {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(3usize..=10);
    let rows = rng.gen_range(1usize..=6);
    let mut m = Model::new();
    let vars: Vec<VarId> = (0..n).map(|_| m.add_binary()).collect();
    for _ in 0..rows {
        let coeffs: Vec<f64> = (0..n)
            .map(|_| f64::from(rng.gen_range(-3i32..=3)))
            .collect();
        let rhs = f64::from(rng.gen_range(-4i32..=6));
        let expr = m.expr(vars.iter().zip(&coeffs).map(|(&v, &c)| (v, c)));
        let cmp = if rng.gen_bool(0.5) {
            expr.leq(rhs)
        } else {
            expr.geq(rhs)
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

fn root_bounds(m: &Model) -> Vec<(f64, f64)> {
    m.variables().iter().map(|v| (v.lower, v.upper)).collect()
}

#[test]
fn warm_child_solves_match_cold_across_random_models() {
    let cfg = LpConfig::default();
    let mut checked = 0u32;
    for seed in 0..200u64 {
        let model = Arc::new(random_model(seed));
        let bounds = root_bounds(&model);
        let root = LpSession::open(Arc::clone(&model), cfg).solve(&bounds, None);
        if root.result.status != LpStatus::Optimal {
            continue;
        }
        let Some(basis) = root.basis else { continue };
        // Branch on every variable, both directions.
        for j in 0..model.num_vars() {
            for fix in [0.0, 1.0] {
                let mut child = bounds.clone();
                child[j] = (fix, fix);
                let warm = LpSession::open(Arc::clone(&model), cfg).solve(&child, Some(&basis));
                let cold = LpSession::open(Arc::clone(&model), cfg).solve(&child, None);
                assert_eq!(
                    warm.result.status, cold.result.status,
                    "seed {seed}, var {j} fixed to {fix}: status mismatch"
                );
                if warm.result.status == LpStatus::Optimal {
                    assert!(
                        (warm.result.objective - cold.result.objective).abs() <= 1e-6,
                        "seed {seed}, var {j} fixed to {fix}: warm {} vs cold {}",
                        warm.result.objective,
                        cold.result.objective
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(
        checked > 500,
        "too few optimal child solves exercised: {checked}"
    );
}

#[test]
fn hot_context_reuse_matches_cold_along_a_dive() {
    // Drive one session down a dive-like trajectory (a chain of single
    // bound fixings, each warm-started from the previous solve) and check
    // every step against a cold solve.
    let cfg = LpConfig::default();
    for seed in 200..280u64 {
        let model = Arc::new(random_model(seed));
        let mut bounds = root_bounds(&model);
        let mut hot = LpSession::open(Arc::clone(&model), cfg);
        let mut warm = None;
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xdead_beef);
        for _ in 0..model.num_vars() {
            let out = hot.solve(&bounds, warm.as_ref());
            let cold = LpSession::open(Arc::clone(&model), cfg).solve(&bounds, None);
            assert_eq!(out.result.status, cold.result.status, "seed {seed}");
            if out.result.status != LpStatus::Optimal {
                break;
            }
            assert!(
                (out.result.objective - cold.result.objective).abs() <= 1e-6,
                "seed {seed}: hot {} vs cold {}",
                out.result.objective,
                cold.result.objective
            );
            warm = out.basis;
            let j = rng.gen_range(0..model.num_vars());
            let fix = if rng.gen_bool(0.5) { 1.0 } else { 0.0 };
            bounds[j] = (fix, fix);
        }
    }
}

#[test]
fn warm_bb_matches_cold_bb_on_random_models() {
    for seed in 0..40u64 {
        let model = Arc::new(random_model(seed));
        let warm_cfg = SolverConfig {
            det_time_limit: 5.0,
            seed,
            ..SolverConfig::default()
        };
        let cold_cfg = SolverConfig {
            warm_lp: false,
            ..warm_cfg.clone()
        };
        let warm = Solver::new(warm_cfg).solve(&model);
        let cold = Solver::new(cold_cfg).solve(&model);
        assert_eq!(warm.status, cold.status, "seed {seed}");
        match (&warm.best, &cold.best) {
            (None, None) => {}
            (Some(w), Some(c)) => {
                assert!(
                    (w.objective() - c.objective()).abs() <= 1e-6,
                    "seed {seed}: warm {} vs cold {}",
                    w.objective(),
                    c.objective()
                );
            }
            _ => panic!("seed {seed}: incumbent presence mismatch"),
        }
    }
}

#[test]
fn lp_engines_agree_on_random_relaxations() {
    // The sparse engine and the dense two-phase tableau oracle must
    // report identical LP statuses and optima.
    let cfg = LpConfig::default();
    let mut compared = 0u32;
    for seed in 0..120u64 {
        let model = Arc::new(random_model(seed));
        let bounds = root_bounds(&model);
        let got = LpSession::open(Arc::clone(&model), cfg)
            .solve(&bounds, None)
            .result;
        let want = support::solve(&model, &bounds);
        assert_eq!(got.status, want.status, "seed {seed}: status vs the oracle");
        if got.status == LpStatus::Optimal {
            assert!(
                (got.objective - want.objective).abs() <= 1e-6,
                "seed {seed}: engine {} vs oracle {}",
                got.objective,
                want.objective
            );
            compared += 1;
        }
    }
    assert!(compared > 50, "too few optimal comparisons: {compared}");
}

#[test]
fn bb_reaches_enumerated_optima() {
    // Full branch-and-bound: the status and optimum must match
    // exhaustive enumeration of the binaries.
    for seed in 0..16u64 {
        let model = Arc::new(random_model(seed));
        let want = support::enumerated_optimum(&model);
        let cfg = SolverConfig {
            det_time_limit: 5.0,
            seed,
            ..SolverConfig::default()
        };
        let r = Solver::new(cfg).solve(&model);
        match want {
            None => assert_eq!(r.status, SolveStatus::Infeasible, "seed {seed}"),
            Some(opt) => {
                assert_eq!(r.status, SolveStatus::Optimal, "seed {seed}");
                let got = r.best.as_ref().expect("optimal has an incumbent");
                assert!(
                    (got.objective() - opt).abs() <= 1e-6,
                    "seed {seed}: {} vs enumerated {opt}",
                    got.objective()
                );
            }
        }
    }
}

#[test]
fn degenerate_dual_ratio_test_regression() {
    // Heavily degenerate LP: four redundant rows all active at the
    // optimum. The dual ratio test faces zero-step ties both at the root
    // and after each bound change; the solve must terminate at the exact
    // optimum every time instead of cycling.
    let mut m = Model::new();
    let x = m.add_continuous(0.0, 1.0);
    let y = m.add_continuous(0.0, 1.0);
    m.add_constraint(m.expr([(x, 1.0), (y, 1.0)]).leq(1.0));
    m.add_constraint(m.expr([(x, 1.0)]).leq(1.0));
    m.add_constraint(m.expr([(y, 1.0)]).leq(1.0));
    m.add_constraint(m.expr([(x, 2.0), (y, 2.0)]).leq(2.0));
    m.set_objective(m.expr([(x, -1.0), (y, -1.0)]));
    let m = Arc::new(m);
    let cfg = LpConfig::default();
    let bounds = vec![(0.0, 1.0), (0.0, 1.0)];

    let root = LpSession::open(Arc::clone(&m), cfg).solve(&bounds, None);
    assert_eq!(root.result.status, LpStatus::Optimal);
    assert!((root.result.objective + 1.0).abs() < 1e-6);
    let basis = root.basis.expect("optimal basis");

    // Fix x in both directions; warm dual reoptimisation must terminate
    // on the degenerate rows and hit the known optima.
    for (fix, expect) in [(0.0, -1.0), (1.0, -1.0)] {
        let mut child = bounds.clone();
        child[0] = (fix, fix);
        let warm = LpSession::open(Arc::clone(&m), cfg).solve(&child, Some(&basis));
        assert_eq!(warm.result.status, LpStatus::Optimal, "x fixed to {fix}");
        assert!(
            (warm.result.objective - expect).abs() < 1e-6,
            "x fixed to {fix}: got {}",
            warm.result.objective
        );
        assert!(
            warm.result.iterations <= 64,
            "degenerate reoptimisation should take few pivots, took {}",
            warm.result.iterations
        );
    }

    // The same chain through one live session (no refactorisation).
    let mut hot = LpSession::open(Arc::clone(&m), cfg);
    let root = hot.solve(&bounds, None);
    let mut warm = root.basis;
    let mut child = bounds;
    child[0] = (0.0, 0.0);
    let step = hot.solve(&child, warm.as_ref());
    assert_eq!(step.result.status, LpStatus::Optimal);
    assert!((step.result.objective + 1.0).abs() < 1e-6);
    warm = step.basis;
    child[1] = (1.0, 1.0);
    let step = hot.solve(&child, warm.as_ref());
    assert_eq!(step.result.status, LpStatus::Optimal);
    assert!((step.result.objective + 1.0).abs() < 1e-6);
}

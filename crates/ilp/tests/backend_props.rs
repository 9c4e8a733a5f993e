//! Engine-equivalence and cut-correctness properties.
//!
//! * [`LpSession`] must agree with the dense two-phase tableau oracle
//!   (`support`) on the LP status and optimum of seeded random 0/1
//!   models, to 1e-6.
//! * [`LpSession::add_rows`] must be exact: appending separated cuts to a
//!   live session (in-place factorisation growth) must reach the same
//!   optimum as the oracle on a rebuilt model that carries the same rows.
//! * What the engine declines is a typed failure the oracle still
//!   solves.
//! * Separated cuts must be *valid*: no knapsack cover or clique cut may
//!   ever cut off an integer-feasible point (checked by exhaustive
//!   enumeration) — and an integer-feasible LP optimum separates nothing.

mod support;

use croxmap_ilp::backend::LpSession;
use croxmap_ilp::cuts::CutSeparator;
use croxmap_ilp::simplex::{LpConfig, LpStatus};
use croxmap_ilp::{Model, VarId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A seeded random 0/1 model with mixed ≤/≥/= rows, the family the
/// warm-start and presolve suites use.
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

/// A seeded random knapsack/packing model — all-positive `≤` rows plus
/// occasional packing rows, the shapes the cover and clique separators
/// target, with a maximising (negative-cost) objective so the LP optimum
/// lands on fractional vertices.
fn random_cut_model(seed: u64) -> Model {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9) | 1);
    let n = rng.gen_range(4usize..=9);
    let mut m = Model::new();
    let vars: Vec<VarId> = (0..n).map(|_| m.add_binary()).collect();
    let rows = rng.gen_range(1usize..=3);
    for _ in 0..rows {
        let coeffs: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(1i32..=5))).collect();
        let total: f64 = coeffs.iter().sum();
        let rhs = (total * rng.gen_range(0.35..0.7)).floor().max(1.0);
        m.add_constraint(
            m.expr(vars.iter().zip(&coeffs).map(|(&v, &c)| (v, c)))
                .leq(rhs),
        );
    }
    if rng.gen_bool(0.6) {
        // One packing row over a random subset of ≥ 2 variables.
        let mut subset: Vec<VarId> = vars.clone();
        while subset.len() > 2 && rng.gen_bool(0.4) {
            let at = rng.gen_range(0..subset.len());
            subset.remove(at);
        }
        m.add_constraint(m.expr(subset.iter().map(|&v| (v, 1.0))).leq(1.0));
    }
    m.set_objective(
        m.expr(
            vars.iter()
                .map(|&v| (v, -f64::from(rng.gen_range(1i32..=9)))),
        ),
    );
    m
}

fn model_bounds(m: &Model) -> Vec<(f64, f64)> {
    m.variables().iter().map(|v| (v.lower, v.upper)).collect()
}

#[test]
fn session_agrees_with_dense_oracle_on_relaxation_optimum() {
    let mut optimal = 0u32;
    let mut infeasible = 0u32;
    for seed in 0..40u64 {
        let model = Arc::new(random_model(seed));
        let bounds = model_bounds(&model);
        let want = support::solve(&model, &bounds);
        let got = LpSession::open(Arc::clone(&model), LpConfig::default())
            .solve(&bounds, None)
            .result;
        assert_eq!(
            got.status, want.status,
            "seed {seed}: the session and the oracle disagree on status"
        );
        if got.status == LpStatus::Optimal {
            assert!(
                (got.objective - want.objective).abs() < 1e-6,
                "seed {seed}: the session gives {}, the oracle {}",
                got.objective,
                want.objective
            );
        }
        match want.status {
            LpStatus::Optimal => optimal += 1,
            LpStatus::Infeasible => infeasible += 1,
            other => panic!("seed {seed}: unexpected status {other:?}"),
        }
    }
    assert!(optimal >= 10, "family too degenerate: {optimal} optimal");
    assert!(infeasible >= 1, "family never infeasible");
}

#[test]
fn incremental_rows_match_rebuilt_model() {
    let mut exercised = 0u32;
    for seed in 0..60u64 {
        let model = Arc::new(if seed % 2 == 0 {
            random_cut_model(seed)
        } else {
            random_model(seed)
        });
        let bounds = model_bounds(&model);
        // Reference fractional point + cuts from the default engine.
        let mut probe = LpSession::open(Arc::clone(&model), LpConfig::default());
        let root = probe.solve(&bounds, None);
        if root.result.status != LpStatus::Optimal {
            continue;
        }
        let mut separator = CutSeparator::new(&model, &[]);
        let cuts = separator.separate(&root.result.values, 8);
        if cuts.is_empty() {
            continue;
        }
        exercised += 1;
        // Oracle: rebuild the model with the cut rows baked in, solve
        // cold on the dense tableau.
        let mut rebuilt = Model::clone(&model);
        let rows: Vec<_> = cuts.into_iter().map(croxmap_ilp::Cut::into_row).collect();
        for cmp in &rows {
            rebuilt.add_constraint(cmp.clone());
        }
        let want = support::solve(&rebuilt, &bounds);
        assert_eq!(want.status, LpStatus::Optimal, "cuts are valid");
        // Append the same rows to the live session and re-solve warm;
        // the grown session must match the oracle.
        let added = rows.len();
        let grown = probe.add_rows(rows, root.basis.as_ref());
        assert_eq!(grown.added, added, "seed {seed}");
        let cut_out = probe.solve(&bounds, grown.basis.as_ref());
        assert_eq!(cut_out.result.status, LpStatus::Optimal, "seed {seed}");
        assert!(
            (cut_out.result.objective - want.objective).abs() < 1e-6,
            "seed {seed}: grown session gives {}, oracle {}",
            cut_out.result.objective,
            want.objective
        );
    }
    assert!(exercised >= 5, "only {exercised} seeds produced cuts");
}

#[test]
fn cuts_never_cut_off_integer_feasible_points() {
    let mut cuts_checked = 0u32;
    for seed in 0..80u64 {
        let model = Arc::new(if seed % 2 == 0 {
            random_cut_model(seed)
        } else {
            random_model(seed)
        });
        let bounds = model_bounds(&model);
        let feasible = support::feasible_points(&model);
        let mut session = LpSession::open(Arc::clone(&model), LpConfig::default());
        let root = session.solve(&bounds, None);
        if root.result.status != LpStatus::Optimal {
            continue;
        }
        let mut separator = CutSeparator::new(&model, &[]);
        // Separate both at the LP optimum and at seeded random fractional
        // points — broader coverage than the optimum alone.
        let mut points = vec![root.result.values.clone()];
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        for _ in 0..3 {
            points.push(
                (0..model.num_vars())
                    .map(|_| rng.gen_range(0.0..1.0))
                    .collect(),
            );
        }
        for point in &points {
            for cut in separator.separate(point, 16) {
                cuts_checked += 1;
                for pt in &feasible {
                    let lhs: f64 = cut.terms.iter().map(|&(v, c)| c * pt[v.index()]).sum();
                    assert!(
                        lhs <= cut.rhs + 1e-9,
                        "seed {seed}: {:?} cut {:?} <= {} cuts off feasible {pt:?}",
                        cut.kind,
                        cut.terms,
                        cut.rhs
                    );
                }
            }
        }
    }
    assert!(cuts_checked >= 20, "only {cuts_checked} cuts exercised");
}

#[test]
fn integral_optimum_separates_nothing() {
    for seed in 0..40u64 {
        let model = Arc::new(random_model(seed));
        let bounds = model_bounds(&model);
        let mut session = LpSession::open(Arc::clone(&model), LpConfig::default());
        let root = session.solve(&bounds, None);
        if root.result.status != LpStatus::Optimal {
            continue;
        }
        let integral = root
            .result
            .values
            .iter()
            .all(|x| (x - x.round()).abs() < 1e-9);
        if !integral {
            continue;
        }
        let mut separator = CutSeparator::new(&model, &[]);
        let cuts = separator.separate(&root.result.values, 16);
        assert!(
            cuts.is_empty(),
            "seed {seed}: integral point separated {cuts:?}"
        );
    }
}

/// LPs with an improving column that has no upper bound give the dual
/// simplex no dual-feasible start: the session reports a typed failure,
/// and the oracle still finds the optimum or the unbounded ray.
#[test]
fn dense_oracle_solves_what_the_engine_declines() {
    // max x + y s.t. x + 2y ≤ 4, 3x + y ≤ 6: optimum (1.6, 1.2), −14/5.
    let mut two_var = Model::new();
    let x = two_var.add_continuous(0.0, f64::INFINITY);
    let y = two_var.add_continuous(0.0, f64::INFINITY);
    two_var.add_constraint(two_var.expr([(x, 1.0), (y, 2.0)]).leq(4.0));
    two_var.add_constraint(two_var.expr([(x, 3.0), (y, 1.0)]).leq(6.0));
    two_var.set_objective(two_var.expr([(x, -1.0), (y, -1.0)]));
    // Four rows through the optimum: degenerate, optimum −1.
    let mut degenerate = Model::new();
    let x = degenerate.add_continuous(0.0, f64::INFINITY);
    let y = degenerate.add_continuous(0.0, f64::INFINITY);
    for (cx, cy, rhs) in [
        (1.0, 1.0, 1.0),
        (1.0, 0.0, 1.0),
        (0.0, 1.0, 1.0),
        (2.0, 2.0, 2.0),
    ] {
        let row = degenerate.expr([(x, cx), (y, cy)]).leq(rhs);
        degenerate.add_constraint(row);
    }
    degenerate.set_objective(degenerate.expr([(x, -1.0), (y, -1.0)]));
    // min −y s.t. x − y ≤ 1: y grows without bound.
    let mut unbounded = Model::new();
    let x = unbounded.add_continuous(0.0, f64::INFINITY);
    let y = unbounded.add_continuous(0.0, f64::INFINITY);
    unbounded.add_constraint(unbounded.expr([(x, 1.0), (y, -1.0)]).leq(1.0));
    unbounded.set_objective(unbounded.expr([(y, -1.0)]));

    for (name, model, status, objective) in [
        ("two-var", &two_var, LpStatus::Optimal, -14.0 / 5.0),
        ("degenerate", &degenerate, LpStatus::Optimal, -1.0),
        (
            "unbounded",
            &unbounded,
            LpStatus::Unbounded,
            f64::NEG_INFINITY,
        ),
    ] {
        let bounds = model_bounds(model);
        let declined =
            LpSession::open(Arc::new(model.clone()), LpConfig::default()).solve(&bounds, None);
        assert_eq!(declined.result.status, LpStatus::Failed, "{name}");
        let oracle = support::solve(model, &bounds);
        assert_eq!(oracle.status, status, "{name}");
        if status == LpStatus::Optimal {
            assert!(
                (oracle.objective - objective).abs() < 1e-6,
                "{name}: oracle {}",
                oracle.objective
            );
        }
    }
    let bounds = model_bounds(&two_var);
    let oracle = support::solve(&two_var, &bounds);
    assert!((oracle.values[0] - 1.6).abs() < 1e-6);
    assert!((oracle.values[1] - 1.2).abs() < 1e-6);
}

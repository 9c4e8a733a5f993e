//! Refactorisation-policy regression guard.
//!
//! The dynamic Markowitz ordering plus the interval-96 retune cut the
//! refactorisation count of the cold `lp_chain/ring_cover/384` bench row
//! well below the 783 the static-ordering policy paid. This test replays
//! that row's exact workload (the all-cold branching chain from
//! `benches/solver.rs`) and pins the count so a future policy change
//! cannot quietly regress it; the counts are deterministic, so the
//! assertion is exact rather than statistical.

use croxmap_ilp::simplex::{self, LpStatus};
use croxmap_ilp::{LpSession, Model};
use std::sync::Arc;

/// Set-cover instance over a ring: `n` elements, each covered by 2 sets
/// (mirrors the bench harness's `ring_cover`).
fn ring_cover(n: usize) -> Model {
    let mut m = Model::new();
    let vars: Vec<_> = (0..n).map(|_| m.add_binary()).collect();
    for e in 0..n {
        m.add_constraint(m.expr([(vars[e], 1.0), (vars[(e + 1) % n], 1.0)]).geq(1.0));
    }
    m.set_objective(m.expr(vars.iter().map(|&v| (v, 1.0))));
    m
}

/// Replays the cold `lp_chain/ring_cover/384` workload: solve the root,
/// then re-solve one child per binary (fixed to 1) from scratch — no warm
/// basis — summing factorisation statistics across the chain.
#[test]
fn cold_ring_cover_chain_refactor_count() {
    let n = 384;
    let model = ring_cover(n);
    let mut bounds: Vec<(f64, f64)> = model
        .variables()
        .iter()
        .map(|v| (v.lower, v.upper))
        .collect();
    let mut session = LpSession::open(Arc::new(model), simplex::LpConfig::default());
    let root = session.solve(&bounds, None);
    assert_eq!(root.result.status, LpStatus::Optimal);
    let mut factor = root.result.factor;
    for j in 0..n {
        bounds[j] = (1.0, 1.0);
        let out = session.solve(&bounds, None);
        factor.merge(&out.result.factor);
        if out.result.status != LpStatus::Optimal {
            break;
        }
    }
    // The committed static-ordering baseline paid 783 refactorisations on
    // this chain; the dynamic ordering + interval retune must stay below
    // it with real headroom.
    assert!(
        factor.refactors < 783,
        "cold ring_cover/384 chain refactorised {} times (policy baseline 783)",
        factor.refactors
    );
}

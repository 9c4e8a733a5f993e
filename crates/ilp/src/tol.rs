//! The single home of every solver tolerance (`tolerance-drift` rule).
//!
//! PR 5 had to reconcile a 1e-7 vs 1e-6 feasibility mismatch between
//! the dense and revised simplex by hand; this module makes that class
//! of drift unrepresentable. `croxmap-lint`'s `tolerance-drift` pass
//! flags any float literal with `1e-12 ≤ |v| < 1e-3` outside this file,
//! so a tolerance can only be introduced here, with a name and a doc
//! comment, and every consumer shares the one definition. Modules may
//! keep local aliases (`const PFEAS: f64 = tol::PRIMAL_FEAS;`) for
//! brevity in hot loops — an alias has no literal, so the value still
//! has exactly one definition site.
//!
//! Changing any value here changes pivot/bound decisions and therefore
//! deterministic tick counts: expect to re-baseline `BENCH_solver.json`
//! and justify the delta in CHANGES.md.

/// Primal feasibility: maximum admissible bound violation of a basic
/// variable in the revised simplex (a row violated by more is a
/// leaving-row candidate); also the LP layer's `simplex::TOL`.
pub const PRIMAL_FEAS: f64 = 1e-7;

/// Dual feasibility: reduced-cost threshold below which a column is
/// not an attractive entering/leaving candidate.
pub const DUAL_FEAS: f64 = 1e-6;

/// Constraint-level feasibility: maximum admissible row activity
/// violation (presolve checks, cut violation, incumbent acceptance).
pub const FEAS: f64 = 1e-6;

/// Integrality: how far from the nearest integer a value may sit and
/// still count as integral (branching, rounding, fractionality).
pub const INT_FEAS: f64 = 1e-6;

/// Objective agreement: slack used when comparing two objective or
/// bound values that should agree up to rounding (incumbent
/// improvement, bound dominance, cost-integrality detection).
pub const OBJ_AGREE: f64 = 1e-9;

/// Relative MIP gap at which the search declares optimality.
pub const GAP_REL: f64 = 1e-6;

/// Markowitz pivot admissibility floor in the LU factorisation.
pub const PIVOT: f64 = 1e-10;

/// Minimum magnitude of a simplex pivot element (`w_r`); smaller pivots
/// are numerically unusable and force a refactorise-or-bail path.
pub const PIVOT_MIN: f64 = 1e-9;

/// Structural-zero guard: magnitudes below this are treated as exact
/// zeros (drop tolerance, division-denominator guards).
pub const ZERO: f64 = 1e-12;

/// Post-solve verification slack: how far a row's activity at the
/// revised simplex's reported point may violate the row before the
/// solution is rejected (`Engine::verify` in `revised.rs`).
pub const VERIFY: f64 = 1e-5;

/// Slope threshold in the bound-flip ratio test: a candidate whose
/// slope contribution is below this cannot profitably flip.
pub const FLIP_SLOPE: f64 = 1e-9;

/// Scale of the deterministic anti-degeneracy cost perturbation.
pub const PERTURB: f64 = 1e-7;

/// Floor for pseudo-cost denominators and per-unit gains in strong
/// branching, keeping scores finite on degenerate candidates.
pub const PSEUDOCOST_FLOOR: f64 = 1e-6;

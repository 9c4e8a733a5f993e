//! LP relaxation configuration and result types.
//!
//! Every relaxation is solved through an [`LpSession`](crate::LpSession)
//! (see [`crate::backend`]) over the one LP engine of this crate: the
//! sparse revised dual simplex of the private `revised` module. The
//! constraint matrix lives once in CSC form on the
//! [`Model`](crate::Model) ([`Model::csc`](crate::Model::csc)); the basis is held as a sparse LU factorisation
//! ([`crate::factor::LuFactors`]) and columns are priced by sparse dot
//! products. The dual simplex selects leaving rows by Devex
//! reference-framework pricing (Bland guard on stalls) and runs a
//! bound-flipping dual ratio test. It always starts *dual feasible* —
//! from the all-slack basis on a cold start, or from a caller-supplied
//! [`Basis`] snapshot on a warm start — so phase 1 is never run.
//! Branch-and-bound exploits this heavily: a parent's optimal basis stays
//! dual feasible for its children (only bounds change), and each child
//! re-optimises in a few dual pivots.
//!
//! A solve the engine cannot finish — no dual-feasible start (an
//! improving direction with an infinite bound), a singular warm basis
//! that also fails cold, or numerical trouble that survives the
//! unperturbed retry — reports [`LpStatus::Failed`]: no values, no basis,
//! and the deterministic work the attempts spent.
//!
//! Every solve meters deterministic [`work_ticks`](LpResult::work_ticks)
//! proportional to the floating-point work performed, so
//! [`DeterministicClock`](crate::DeterministicClock) budgets remain
//! reproducible.

use crate::basis::Basis;
use crate::factor::FactorStats;

/// Numerical tolerance for feasibility and pricing decisions.
pub const TOL: f64 = crate::tol::PRIMAL_FEAS;

/// Outcome of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints admit no solution within the bounds.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The iteration limit was hit before convergence.
    IterLimit,
    /// The engine declined the solve (no dual-feasible start, or
    /// numerical trouble that survived the unperturbed retry). Like
    /// [`LpStatus::IterLimit`] it proves nothing: the result carries no
    /// values, and its `work_ticks` are the work the attempts spent.
    Failed,
}

/// Result of solving an LP relaxation.
#[derive(Debug, Clone)]
pub struct LpResult {
    /// Solve outcome.
    pub status: LpStatus,
    /// Objective value (meaningful for [`LpStatus::Optimal`]).
    pub objective: f64,
    /// Values of the model's structural variables.
    pub values: Vec<f64>,
    /// Simplex iterations performed.
    pub iterations: u64,
    /// Deterministic work performed, in ticks.
    pub work_ticks: u64,
    /// Factorisation counters behind this solve (FTRAN/BTRAN visited
    /// non-zeros, kernel selections, update-file growth). All zeros on
    /// failed and trivial solves.
    pub factor: FactorStats,
}

impl LpResult {
    /// A result with no point and no factorisation work: crossed bounds,
    /// an unbounded ray of a zero-row model, or a failed solve.
    pub(crate) fn without_point(status: LpStatus, objective: f64, work_ticks: u64) -> Self {
        LpResult {
            status,
            objective,
            values: Vec::new(),
            iterations: 0,
            work_ticks,
            factor: FactorStats::default(),
        }
    }
}

/// Configuration for the simplex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LpConfig {
    /// Hard cap on simplex iterations.
    pub max_iterations: u64,
    /// Deterministic-tick budget for one solve: the engine reports
    /// [`LpStatus::IterLimit`] once the solve's metered work reaches this
    /// many ticks (`u64::MAX`, the default, disables the cap). Unlike
    /// `max_iterations` this bounds actual *work*, so callers can slice a
    /// deterministic budget fairly across solves whose per-iteration cost
    /// varies wildly — the root cut loop caps each separation round's
    /// re-solve at a multiple of the root solve's ticks this way.
    pub work_limit: u64,
    /// Forrest–Tomlin updates and hot basis reuses tolerated before a
    /// refactorisation.
    pub refactor_interval: u32,
    /// Anti-degeneracy cost perturbation on *cold* revised-simplex starts:
    /// a tiny deterministic, seed-derived amount is added to every
    /// structural cost before the dual simplex runs, breaking the massive
    /// reduced-cost ties of set-partitioning models. The perturbation is
    /// removed (and the basis re-verified dual feasible) before any result
    /// is reported, so objectives stay exact; if removal fails the engine
    /// silently retries the cold solve unperturbed.
    pub perturb: bool,
    /// Seed the perturbation amounts derive from (the solver forwards its
    /// own seed, keeping whole solves reproducible).
    pub perturb_seed: u64,
}

impl Default for LpConfig {
    fn default() -> Self {
        LpConfig {
            max_iterations: 200_000,
            work_limit: u64::MAX,
            refactor_interval: 96,
            perturb: true,
            perturb_seed: 0,
        }
    }
}

impl LpConfig {
    /// The factorisation policy carried by this configuration; the
    /// update-file fill bound is always [`FactorOpts`]' default.
    ///
    /// [`FactorOpts`]: crate::factor::FactorOpts
    #[must_use]
    pub fn factor_opts(&self) -> crate::factor::FactorOpts {
        crate::factor::FactorOpts {
            refactor_interval: self.refactor_interval,
            ..crate::factor::FactorOpts::default()
        }
    }
}

/// Result of [`LpSession::solve`](crate::LpSession::solve): the LP
/// outcome plus, on optimal solves, the basis snapshot to warm-start
/// related solves from.
#[derive(Debug, Clone)]
pub struct WarmLpResult {
    /// The LP outcome.
    pub result: LpResult,
    /// Optimal basis for reuse (present only on [`LpStatus::Optimal`]
    /// solves of a model with at least one row).
    pub basis: Option<Basis>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LpSession, Model};

    fn solve(m: &Model, bounds: &[(f64, f64)]) -> LpResult {
        LpSession::open(std::sync::Arc::new(m.clone()), LpConfig::default())
            .solve(bounds, None)
            .result
    }

    fn solve_model(m: &Model) -> LpResult {
        let bounds: Vec<(f64, f64)> = m.variables().iter().map(|v| (v.lower, v.upper)).collect();
        solve(m, &bounds)
    }

    #[test]
    fn equality_constraint() {
        // min x + y s.t. x + y = 3, x <= 2, y <= 2 → obj 3.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 2.0);
        let y = m.add_continuous(0.0, 2.0);
        m.add_constraint(m.expr([(x, 1.0), (y, 1.0)]).eq(3.0));
        m.set_objective(m.expr([(x, 1.0), (y, 1.0)]));
        let r = solve_model(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 3.0).abs() < 1e-6);
        assert!((r.values[0] + r.values[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0);
        m.add_constraint(m.expr([(x, 1.0)]).geq(2.0));
        m.set_objective(m.expr([(x, 1.0)]));
        let r = solve_model(&m);
        assert_eq!(r.status, LpStatus::Infeasible);
    }

    #[test]
    fn upper_bounds_respected_via_bound_flips() {
        // min -x - 2y with x,y in [0,1] and x + y <= 1.5 → y=1, x=0.5.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0);
        let y = m.add_continuous(0.0, 1.0);
        m.add_constraint(m.expr([(x, 1.0), (y, 1.0)]).leq(1.5));
        m.set_objective(m.expr([(x, -1.0), (y, -2.0)]));
        let r = solve_model(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective + 2.5).abs() < 1e-6, "obj {}", r.objective);
        assert!((r.values[1] - 1.0).abs() < 1e-6);
        assert!((r.values[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn bound_overrides_fix_variables() {
        let mut m = Model::new();
        let x = m.add_binary();
        let y = m.add_binary();
        m.add_constraint(m.expr([(x, 1.0), (y, 1.0)]).geq(1.0));
        m.set_objective(m.expr([(x, 1.0), (y, 3.0)]));
        // Fix x to 0: forced y = 1.
        let r = solve(&m, &[(0.0, 0.0), (0.0, 1.0)]);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.values[1] - 1.0).abs() < 1e-6);
        assert!((r.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn crossed_override_is_infeasible() {
        let mut m = Model::new();
        let x = m.add_binary();
        m.set_objective(m.expr([(x, 1.0)]));
        m.add_constraint(m.expr([(x, 1.0)]).leq(1.0));
        let r = solve(&m, &[(1.0, 0.0)]);
        assert_eq!(r.status, LpStatus::Infeasible);
    }

    #[test]
    fn override_crossed_within_tolerance_solves_as_fixed() {
        // x + y >= 1, min x + 2y, with x's override crossed by 1e-8 (less
        // than `TOL`): the engine sees it and must solve it as x = 1.
        let mut m = Model::new();
        let x = m.add_binary();
        let y = m.add_binary();
        m.add_constraint(m.expr([(x, 1.0), (y, 1.0)]).geq(1.0));
        m.set_objective(m.expr([(x, 1.0), (y, 2.0)]));
        let r = solve(&m, &[(1.0 + 1e-8, 1.0), (0.0, 1.0)]);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_eq!(r.values, vec![1.0, 0.0]);
        assert_eq!(r.objective, 1.0);
    }

    #[test]
    fn no_constraints_bound_problem() {
        let mut m = Model::new();
        let x = m.add_continuous(-1.0, 4.0);
        let y = m.add_continuous(0.0, 2.0);
        let mut objective = m.expr([(x, 1.0), (y, -1.0)]);
        objective.add_constant(0.5);
        m.set_objective(objective);
        let r = solve_model(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_eq!(r.values, vec![-1.0, 2.0]);
        assert_eq!(r.objective, -2.5, "the offset counts");
        assert_eq!(r.work_ticks, 2, "one tick per variable");
        // An improving infinite bound is an unbounded ray.
        let ray = solve(&m, &[(-1.0, 4.0), (0.0, f64::INFINITY)]);
        assert_eq!(ray.status, LpStatus::Unbounded);
        assert_eq!(ray.objective, f64::NEG_INFINITY);
        assert!(ray.values.is_empty());
        assert_eq!(ray.work_ticks, 1);
    }

    #[test]
    fn redundant_equalities_handled() {
        // x + y = 2 stated twice: one row is redundant at every basis.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 5.0);
        let y = m.add_continuous(0.0, 5.0);
        m.add_constraint(m.expr([(x, 1.0), (y, 1.0)]).eq(2.0));
        m.add_constraint(m.expr([(x, 1.0), (y, 1.0)]).eq(2.0));
        m.set_objective(m.expr([(x, 1.0)]));
        let r = solve_model(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(r.objective.abs() < 1e-6);
        assert!((r.values[0] + r.values[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn covering_lp_fractional_bound() {
        // Set cover LP relaxation: 3 elements, pairs — classic 1/2 solution.
        let mut m = Model::new();
        let a = m.add_binary();
        let b = m.add_binary();
        let c = m.add_binary();
        m.add_constraint(m.expr([(a, 1.0), (b, 1.0)]).geq(1.0));
        m.add_constraint(m.expr([(b, 1.0), (c, 1.0)]).geq(1.0));
        m.add_constraint(m.expr([(a, 1.0), (c, 1.0)]).geq(1.0));
        m.set_objective(m.expr([(a, 1.0), (b, 1.0), (c, 1.0)]));
        let r = solve_model(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 1.5).abs() < 1e-6, "obj {}", r.objective);
    }

    #[test]
    fn negative_rhs_rows() {
        // −x ≤ −2 with x ∈ [0, 5]: optimum of min x is 2.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 5.0);
        m.add_constraint(m.expr([(x, -1.0)]).leq(-2.0));
        m.set_objective(m.expr([(x, 1.0)]));
        let r = solve_model(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.values[0] - 2.0).abs() < 1e-6);
    }
}

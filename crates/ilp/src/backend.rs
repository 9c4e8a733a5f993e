//! The LP session: [`LpSession`], one conversation with the sparse
//! revised-simplex engine.
//!
//! An [`LpSession`] owns everything one LP conversation needs:
//!
//! * the **model view** — the caller's [`Model`], shared by [`Arc`], not
//!   copied. It grows rows as cuts are appended ([`Model::append_row`],
//!   grow-only: columns and existing rows never move); the first row or
//!   objective change copies a model the session shares
//!   ([`Arc::make_mut`]), so the caller's model never changes,
//! * the **engine context** holding the live basis and sparse LU between
//!   solves, so a warm solve from the live basis skips refactorisation,
//!   appended rows grow the factorisation in place and objective changes
//!   re-price the live basis, and
//! * cumulative [`SessionStats`].
//!
//! A solve the engine declines (after its warm-to-cold and unperturbed
//! retries) comes back as [`LpStatus::Failed`] with the work it spent;
//! nothing falls back to a dense path. A model without rows never
//! reaches the engine: each variable sits at its cheaper bound.
//!
//! ```
//! use croxmap_ilp::{LpSession, Model};
//! use croxmap_ilp::simplex::{LpConfig, LpStatus};
//! use std::sync::Arc;
//!
//! let mut m = Model::new();
//! let x = m.add_binary();
//! let y = m.add_binary();
//! m.add_constraint(m.expr([(x, 1.0), (y, 1.0)]).geq(1.0));
//! m.set_objective(m.expr([(x, 1.0), (y, 2.0)]));
//!
//! let m = Arc::new(m);
//! let mut session = LpSession::open(Arc::clone(&m), LpConfig::default());
//! let root = session.solve(&[(0.0, 1.0), (0.0, 1.0)], None);
//! assert_eq!(root.result.status, LpStatus::Optimal);
//!
//! // Tighten the live relaxation with an extra row — no rebuild, the
//! // engine's factorisation absorbs the growth in place. The row goes to
//! // the session's own copy of the model.
//! let basis = root.basis;
//! let grown = session.add_rows(vec![m.expr([(x, 1.0)]).leq(0.0)], basis.as_ref());
//! let cut = session.solve(&[(0.0, 1.0), (0.0, 1.0)], grown.basis.as_ref());
//! assert_eq!(cut.result.status, LpStatus::Optimal);
//! assert!((cut.result.objective - 2.0).abs() < 1e-6);
//! assert_eq!((m.num_constraints(), session.model().num_constraints()), (1, 2));
//! ```

use crate::basis::{Basis, VarStatus};
use crate::expr::Comparison;
use crate::model::Model;
use crate::revised::LpContext;
use crate::simplex::{LpConfig, LpResult, LpStatus, WarmLpResult, TOL};
use std::sync::Arc;

/// Cumulative counters over one session's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Solves served.
    pub solves: u64,
    /// Solves the engine declined ([`LpStatus::Failed`]).
    pub failures: u64,
    /// Rows appended over the session's lifetime.
    pub rows_added: u64,
    /// Row batches the engine absorbed in place (live factorisation
    /// growth — no refactorisation from scratch).
    pub incremental_row_batches: u64,
    /// Row batches that fell back to a snapshot reinstall (one
    /// refactorisation at the grown dimensions on the next solve).
    pub rebuilt_row_batches: u64,
    /// Deterministic work ticks metered through the session (solves, row
    /// growth and objective swaps combined) — the session's own slice of
    /// the solver's clock, for per-session observability.
    pub work_ticks: u64,
}

/// Outcome of [`LpSession::add_rows`].
#[derive(Debug, Clone)]
pub struct RowAddition {
    /// Rows actually appended to the view.
    pub added: usize,
    /// Basis to warm-start the next solve from: the live engine's grown
    /// basis when the growth was absorbed in place, otherwise the
    /// caller's snapshot extended with the new basic slacks (installed
    /// with one refactorisation on the next solve). `None` when no
    /// snapshot was supplied.
    pub basis: Option<Basis>,
    /// Whether the live factorisation absorbed the growth in place.
    pub absorbed: bool,
    /// Deterministic work spent growing (border BTRANs, any forced
    /// refactorisation). Charge it to your clock like a solve's ticks.
    pub work_ticks: u64,
}

/// An owning, incremental LP solving session: the model view, the live
/// engine state (basis + factorisation), and stats. See the
/// [module docs](self) for an example and
/// [`Solver`](crate::Solver) for the primary consumer — branch-and-bound
/// threads one session through an entire search, and the root cut loop
/// tightens it in place through [`LpSession::add_rows`].
pub struct LpSession {
    view: Arc<Model>,
    config: LpConfig,
    ctx: LpContext,
    stats: SessionStats,
}

impl LpSession {
    /// Opens a session on `model`, shared, not copied. Rows added through
    /// [`LpSession::add_rows`] and objectives set through
    /// [`LpSession::set_objective`] change only the session's view: the
    /// first of them copies a model the session shares. The view shares
    /// the model's CSC matrix, built here if the model has none yet.
    #[must_use]
    pub fn open(model: Arc<Model>, config: LpConfig) -> Self {
        let _ = model.csc();
        LpSession {
            view: model,
            config,
            ctx: LpContext::default(),
            stats: SessionStats::default(),
        }
    }

    /// The session's model view, including every appended row: the model
    /// the session was opened on until a row or objective change copies
    /// it.
    #[must_use]
    pub fn model(&self) -> &Arc<Model> {
        &self.view
    }

    /// Cumulative session statistics.
    #[must_use]
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Updates the per-solve tuning knobs (iteration caps, refactor
    /// cadence, perturbation seed, …).
    pub fn configure(&mut self, config: LpConfig) {
        self.config = config;
    }

    /// Solves the relaxation of the current view under `bounds`
    /// (one pair per structural variable), warm-starting from `warm`.
    /// A pair crossed by more than the LP tolerance ([`TOL`]) makes the
    /// node infeasible; one crossed by less is solved as fixed at its
    /// upper bound. A solve the engine declines reports
    /// [`LpStatus::Failed`] with the work its attempts spent.
    ///
    /// # Panics
    ///
    /// Panics if `bounds.len()` differs from the view's variable count.
    pub fn solve(&mut self, bounds: &[(f64, f64)], warm: Option<&Basis>) -> WarmLpResult {
        let n = self.view.num_vars();
        assert_eq!(bounds.len(), n, "one bound pair per variable required");
        self.stats.solves += 1;
        let out = if bounds.iter().any(|&(l, u)| l > u + TOL) {
            // Crossed overrides mean an infeasible node; no engine needed.
            WarmLpResult {
                result: LpResult::without_point(LpStatus::Infeasible, f64::INFINITY, 1),
                basis: None,
            }
        } else if self.view.num_constraints() == 0 {
            WarmLpResult {
                result: bound_relaxation(&self.view, bounds),
                basis: None,
            }
        } else {
            match self.ctx.solve(&self.view, bounds, &self.config, warm) {
                Ok((result, basis)) => WarmLpResult { result, basis },
                Err(spent) => {
                    self.stats.failures += 1;
                    WarmLpResult {
                        result: LpResult::without_point(LpStatus::Failed, f64::NAN, spent),
                        basis: None,
                    }
                }
            }
        };
        self.stats.work_ticks += out.result.work_ticks;
        out
    }

    /// Appends rows to the live relaxation — the cutting-plane / lazy
    /// constraint primitive. Rows are grow-only: they may reference only
    /// existing variables.
    ///
    /// With a `basis` from this session's latest optimal solve, the
    /// engine grows its live factorisation in place (new logical slacks
    /// enter the basis; dual feasibility is preserved by construction)
    /// and returns the grown basis; otherwise the snapshot is extended
    /// with the new basic slacks and the next solve reinstalls it with
    /// one refactorisation at the grown dimensions. Either way the next
    /// [`LpSession::solve`] re-optimises only the violated cuts instead
    /// of starting from scratch.
    pub fn add_rows(&mut self, rows: Vec<Comparison>, basis: Option<&Basis>) -> RowAddition {
        if rows.is_empty() {
            return RowAddition {
                added: 0,
                basis: basis.cloned(),
                absorbed: false,
                work_ticks: 0,
            };
        }
        let old_m = self.view.num_constraints();
        let k = rows.len();
        let view = Arc::make_mut(&mut self.view);
        for cmp in rows {
            view.append_row(cmp);
        }
        self.stats.rows_added += k as u64;
        let Some(warm) = basis else {
            self.stats.rebuilt_row_batches += 1;
            return RowAddition {
                added: k,
                basis: None,
                absorbed: false,
                work_ticks: 0,
            };
        };
        let (grown, work) = self.ctx.add_rows(&self.view, old_m, warm);
        self.stats.work_ticks += work;
        match grown {
            Some(b) => {
                self.stats.incremental_row_batches += 1;
                RowAddition {
                    added: k,
                    basis: Some(b),
                    absorbed: true,
                    work_ticks: work,
                }
            }
            None => {
                // Extend the snapshot with the new basic slacks;
                // installing it refactorises at the grown dimensions.
                self.stats.rebuilt_row_batches += 1;
                let n = self.view.num_vars();
                let mut cols = warm.cols.clone();
                let mut status = warm.status.clone();
                for row in old_m..old_m + k {
                    cols.push(n + row);
                    status.push(VarStatus::Basic);
                }
                RowAddition {
                    added: k,
                    basis: Some(Basis { cols, status }),
                    absorbed: false,
                    work_ticks: work,
                }
            }
        }
    }

    /// Replaces the view's objective. The engine re-prices its live
    /// basis and keeps it warm when the basis stays dual feasible;
    /// otherwise the next solve runs cold. Returns
    /// `(kept_warm, work_ticks)`.
    pub fn set_objective(&mut self, objective: crate::expr::LinExpr) -> (bool, u64) {
        Arc::make_mut(&mut self.view).set_objective(objective);
        let out = self.ctx.set_objective(&self.view);
        self.stats.work_ticks += out.1;
        out
    }
}

/// The relaxation of a model without rows: each variable sits at its
/// cheaper bound, at one tick per variable, and an improving infinite
/// bound is an unbounded ray (one tick). A zero-cost variable takes its
/// lower bound if finite, else its upper bound, else 0.
fn bound_relaxation(model: &Model, bounds: &[(f64, f64)]) -> LpResult {
    let mut cost = vec![0.0; bounds.len()];
    for &(v, c) in model.objective() {
        cost[v.index()] = c;
    }
    let mut values = Vec::with_capacity(bounds.len());
    for (&(l, u), &c) in bounds.iter().zip(&cost) {
        let x = if c > 0.0 {
            l
        } else if c < 0.0 {
            u
        } else if l.is_finite() {
            l
        } else if u.is_finite() {
            u
        } else {
            0.0
        };
        if !x.is_finite() {
            return LpResult::without_point(LpStatus::Unbounded, f64::NEG_INFINITY, 1);
        }
        values.push(x);
    }
    LpResult {
        status: LpStatus::Optimal,
        objective: model.objective_value(&values),
        values,
        iterations: 0,
        work_ticks: bounds.len() as u64,
        factor: crate::factor::FactorStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover_model() -> Arc<Model> {
        let mut m = Model::new();
        let x = m.add_binary();
        let y = m.add_binary();
        m.add_constraint(m.expr([(x, 1.0), (y, 1.0)]).geq(1.0));
        m.set_objective(m.expr([(x, 1.0), (y, 2.0)]));
        Arc::new(m)
    }

    /// A session shares the caller's model, and with it the model's CSC
    /// matrix, built once: on a model whose matrix is not built yet and
    /// on one whose matrix is. Appended rows copy the shared model for
    /// the session alone, once: the caller's model and a second session
    /// opened on it keep the base rows.
    #[test]
    fn session_shares_the_model_csc() {
        let x = crate::expr::VarId(0);
        for built in [false, true] {
            let m = cover_model();
            if built {
                let _ = m.csc();
            }
            let mut s = LpSession::open(Arc::clone(&m), LpConfig::default());
            assert!(Arc::ptr_eq(&m, s.model()), "built before opening: {built}");
            assert!(Arc::ptr_eq(&m.csc(), &s.model().csc()));
            let _ = s.add_rows(vec![m.expr([(x, 1.0)]).leq(0.0)], None);
            assert!(!Arc::ptr_eq(&m, s.model()), "the first row copies");
            assert_eq!(m.num_constraints(), 1);
            assert_eq!(s.model().num_constraints(), 2);
            let view = Arc::as_ptr(s.model());
            let _ = s.add_rows(vec![m.expr([(x, 1.0)]).leq(1.0)], None);
            assert_eq!(
                Arc::as_ptr(s.model()),
                view,
                "an unshared view grows in place"
            );
            assert_eq!(s.model().num_constraints(), 3);
            let second = LpSession::open(Arc::clone(&m), LpConfig::default());
            assert!(Arc::ptr_eq(&m, second.model()));
            assert_eq!(second.model().num_constraints(), 1);
        }
    }

    #[test]
    fn session_solves_cover_model() {
        let m = cover_model();
        let mut s = LpSession::open(m, LpConfig::default());
        let out = s.solve(&[(0.0, 1.0), (0.0, 1.0)], None);
        assert_eq!(out.result.status, LpStatus::Optimal);
        assert!((out.result.objective - 1.0).abs() < 1e-9);
        assert_eq!(s.stats().solves, 1);
    }

    /// A solve the engine declines is a typed failure: no values, no
    /// basis, the engine's spent ticks, and one failure in the stats.
    #[test]
    fn declined_solve_is_a_typed_failure() {
        // y has negative cost and no upper bound: no dual-feasible start
        // (the model of the engine's `bails_on_unbounded_direction`).
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY);
        let y = m.add_continuous(0.0, f64::INFINITY);
        m.add_constraint(m.expr([(x, 1.0), (y, -1.0)]).leq(1.0));
        m.set_objective(m.expr([(y, -1.0)]));
        let bounds = [(0.0, f64::INFINITY); 2];
        let config = LpConfig::default();
        let Err(spent) = LpContext::default().solve(&m, &bounds, &config, None) else {
            panic!("the engine must decline an unboxed improving column");
        };
        let mut s = LpSession::open(Arc::new(m), config);
        let out = s.solve(&bounds, None);
        assert_eq!(out.result.status, LpStatus::Failed);
        assert!(out.result.values.is_empty());
        assert!(out.basis.is_none());
        assert_eq!(out.result.work_ticks, spent);
        assert!(spent > 0, "the declined attempts cost work");
        assert_eq!(s.stats().failures, 1);
        assert_eq!(s.stats().work_ticks, spent);
    }

    /// A free column has no finite bound for the all-slack start to rest
    /// on. Pinning it at 0 would answer a different LP (optimum 0 with
    /// `x = 0`); the session must solve the true one (−5) or decline.
    #[test]
    fn free_column_is_solved_or_declined_never_pinned() {
        let mut m = Model::new();
        let x = m.add_continuous(f64::NEG_INFINITY, f64::INFINITY);
        let y = m.add_binary();
        m.add_constraint(m.expr([(x, 1.0), (y, 1.0)]).geq(-5.0));
        m.set_objective(m.expr([(x, 1.0), (y, 1.0)]));
        let free = [(f64::NEG_INFINITY, f64::INFINITY), (0.0, 1.0)];
        let solved_or_declined = |out: &WarmLpResult| {
            out.result.status == LpStatus::Failed
                || (out.result.status == LpStatus::Optimal
                    && (out.result.objective + 5.0).abs() < 1e-9)
        };
        let m = Arc::new(m);
        let mut s = LpSession::open(Arc::clone(&m), LpConfig::default());
        let cold = s.solve(&free, None);
        assert!(
            solved_or_declined(&cold),
            "cold: {:?} {}",
            cold.result.status,
            cold.result.objective
        );
        // Warm from a basis found with x boxed, on the hot engine and on
        // a fresh session that must reinstall the snapshot: x is basic
        // at -5 inside [-10, 10] and nonbasic at its lower bound -3.
        for x_box in [(-10.0, 10.0), (-3.0, 10.0)] {
            let boxed = s.solve(&[x_box, (0.0, 1.0)], None);
            assert_eq!(boxed.result.status, LpStatus::Optimal);
            let hot = s.solve(&free, boxed.basis.as_ref());
            assert!(solved_or_declined(&hot), "hot: {:?}", hot.result.status);
            let mut fresh = LpSession::open(Arc::clone(&m), LpConfig::default());
            let reinstalled = fresh.solve(&free, boxed.basis.as_ref());
            assert!(
                solved_or_declined(&reinstalled),
                "reinstalled: {:?}",
                reinstalled.result.status
            );
        }
    }

    /// Without rows, an infinite lower bound under a positive cost is an
    /// unbounded ray, and a zero-cost variable takes a finite value.
    #[test]
    fn zero_row_relaxation_never_reports_an_infinite_optimum() {
        let mut m = Model::new();
        let u = m.add_continuous(f64::NEG_INFINITY, 3.0);
        let _w = m.add_continuous(f64::NEG_INFINITY, 3.0);
        let bounds = [(f64::NEG_INFINITY, 3.0); 2];
        m.set_objective(m.expr([(u, 1.0)]));
        let ray = LpSession::open(Arc::new(m.clone()), LpConfig::default()).solve(&bounds, None);
        assert_eq!(ray.result.status, LpStatus::Unbounded);
        assert_eq!(ray.result.objective, f64::NEG_INFINITY);
        assert!(ray.result.values.is_empty());
        assert_eq!(ray.result.work_ticks, 1, "one tick on an unbounded ray");

        m.set_objective(m.expr([(u, -1.0)]));
        let out = LpSession::open(Arc::new(m), LpConfig::default()).solve(&bounds, None);
        assert_eq!(out.result.status, LpStatus::Optimal);
        assert_eq!(out.result.objective, -3.0);
        assert_eq!(out.result.values[0], 3.0);
        assert!(
            out.result.values[1].is_finite(),
            "w: {}",
            out.result.values[1]
        );
        assert_eq!(out.result.work_ticks, 2, "one tick per variable");
    }

    #[test]
    fn add_rows_absorbs_on_live_engine() {
        let m = cover_model();
        let bounds = [(0.0, 1.0), (0.0, 1.0)];
        let mut s = LpSession::open(Arc::clone(&m), LpConfig::default());
        let root = s.solve(&bounds, None);
        let x = crate::expr::VarId(0);
        let grown = s.add_rows(vec![m.expr([(x, 1.0)]).leq(0.0)], root.basis.as_ref());
        assert_eq!(grown.added, 1);
        assert!(grown.absorbed, "live engine must grow in place");
        let out = s.solve(&bounds, grown.basis.as_ref());
        assert_eq!(out.result.status, LpStatus::Optimal);
        assert!((out.result.objective - 2.0).abs() < 1e-9, "x forced off");
        assert_eq!(s.model().num_constraints(), 2);
        assert_eq!(s.stats().incremental_row_batches, 1);
    }

    #[test]
    fn objective_delta_keeps_warm_state_when_dual_feasible() {
        let m = cover_model();
        let bounds = [(0.0, 1.0), (0.0, 1.0)];
        let mut s = LpSession::open(Arc::clone(&m), LpConfig::default());
        let root = s.solve(&bounds, None);
        assert_eq!(root.result.status, LpStatus::Optimal);
        // Raising y's cost keeps (x basic at 1, y at lower) dual feasible.
        let x = crate::expr::VarId(0);
        let y = crate::expr::VarId(1);
        let (kept, _) = s.set_objective(m.expr([(x, 1.0), (y, 5.0)]));
        assert!(kept);
        let out = s.solve(&bounds, root.basis.as_ref());
        assert_eq!(out.result.status, LpStatus::Optimal);
        assert!((out.result.objective - 1.0).abs() < 1e-9);
    }
}

//! Reference oracles for the property suites, included with
//! `mod support;` (each suite uses a subset, hence the `dead_code`
//! allowance).
//!
//! * [`solve`]: the dense two-phase primal simplex. This was the crate's
//!   first LP engine: the full `B⁻¹A` tableau, `O(m·n)` work per pivot,
//!   artificials in phase 1, Dantzig pricing with a switch to Bland's
//!   rule on stalls, and bound flips in the ratio test. It shares no
//!   code with the sparse revised dual simplex behind `LpSession`, and it
//!   also solves LPs that engine declines (improving columns without an
//!   upper bound), so it is an independent reference for relaxation
//!   statuses and optima.
//! * [`feasible_points`] and [`enumerated_optimum`]: exhaustive
//!   enumeration of a small binary model, the reference for
//!   branch-and-bound statuses and optima.
#![allow(dead_code)]

use croxmap_ilp::simplex::{LpResult, LpStatus, TOL};
use croxmap_ilp::{tol, ConstraintSense, FactorStats, Model};

/// Pivot cap across both phases; a solve that reaches it reports
/// `IterLimit`.
const MAX_ITERATIONS: u64 = 200_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColStatus {
    Basic,
    AtLower,
    AtUpper,
}

/// Dense bounded-variable simplex working state.
struct Tableau {
    m: usize,
    /// Total columns: structural + slack + artificial.
    n_cols: usize,
    /// Structural column count.
    n_struct: usize,
    /// First artificial column index.
    art_start: usize,
    /// Row-major `m × n_cols` working matrix `B⁻¹ A`.
    t: Vec<f64>,
    /// Current values of basic variables, per row.
    beta: Vec<f64>,
    /// Basis: column occupying each row.
    basis: Vec<usize>,
    /// Inverse of `basis`: row occupied by each column, `usize::MAX` when
    /// nonbasic. Kept in lockstep with `basis` so value lookups are O(1).
    row_of: Vec<usize>,
    /// Status per column.
    status: Vec<ColStatus>,
    /// Lower bound per column.
    lower: Vec<f64>,
    /// Upper bound per column (may be `f64::INFINITY`).
    upper: Vec<f64>,
    /// Reduced-cost row for the current phase's objective.
    zrow: Vec<f64>,
    /// Current phase cost per column.
    cost: Vec<f64>,
    iterations: u64,
}

impl Tableau {
    /// Current value of column `j`.
    fn col_value(&self, j: usize) -> f64 {
        match self.status[j] {
            ColStatus::AtLower => self.lower[j],
            ColStatus::AtUpper => self.upper[j],
            ColStatus::Basic => self.beta[self.row_of[j]],
        }
    }

    /// Rebuilds the reduced-cost row `z[j] = c[j] − c_B' T[:,j]` for the
    /// current `cost` vector.
    fn rebuild_zrow(&mut self) {
        let mut z = self.cost.clone();
        for i in 0..self.m {
            let cb = self.cost[self.basis[i]];
            if cb != 0.0 {
                let row = &self.t[i * self.n_cols..(i + 1) * self.n_cols];
                for (zj, &tij) in z.iter_mut().zip(row.iter()) {
                    *zj -= cb * tij;
                }
            }
        }
        self.zrow = z;
    }

    /// Chooses an entering column, or `None` at optimality.
    ///
    /// `bland` forces lowest-index anti-cycling selection.
    fn choose_entering(&self, bland: bool) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for j in 0..self.n_cols {
            if self.status[j] == ColStatus::Basic {
                continue;
            }
            // Fixed columns can never move.
            if self.upper[j] - self.lower[j] <= TOL {
                continue;
            }
            let d = self.zrow[j];
            let (eligible, score) = match self.status[j] {
                ColStatus::AtLower => (d < -TOL, -d),
                ColStatus::AtUpper => (d > TOL, d),
                ColStatus::Basic => unreachable!(),
            };
            if !eligible {
                continue;
            }
            if bland {
                return Some((j, d));
            }
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((j, score));
            }
        }
        best.map(|(j, _)| (j, self.zrow[j]))
    }

    /// One primal iteration. Returns `Ok(true)` if progress was made,
    /// `Ok(false)` at optimality, `Err(())` on unboundedness.
    fn iterate(&mut self, bland: bool) -> Result<bool, ()> {
        let Some((q, dq)) = self.choose_entering(bland) else {
            return Ok(false);
        };
        // Direction: +1 if increasing from lower, −1 if decreasing from upper.
        let sigma = if self.status[q] == ColStatus::AtLower {
            1.0
        } else {
            -1.0
        };
        debug_assert!(sigma * dq < 0.0, "entering column must improve");

        // Ratio test: the step is limited by the entering variable's own
        // bound span (a bound flip) and by each basic variable hitting one
        // of its bounds (a pivot).
        let mut best_step = self.upper[q] - self.lower[q]; // may be +inf
        let mut pivot_row: Option<usize> = None;
        for i in 0..self.m {
            let delta = sigma * self.t[i * self.n_cols + q];
            if delta.abs() <= TOL {
                continue;
            }
            let b = self.basis[i];
            let step = if delta > 0.0 {
                // Basic value decreases towards its lower bound.
                (self.beta[i] - self.lower[b]).max(0.0) / delta
            } else {
                // Basic value increases towards its upper bound.
                if self.upper[b].is_infinite() {
                    continue;
                }
                (self.beta[i] - self.upper[b]).min(0.0) / delta
            };
            if step < best_step - tol::ZERO || (pivot_row.is_none() && step <= best_step) {
                best_step = step;
                pivot_row = Some(i);
            }
        }
        if best_step.is_infinite() {
            return Err(()); // unbounded ray
        }
        // Prefer a pure bound flip when it is as tight as every pivot.
        let flip_span = self.upper[q] - self.lower[q];
        let (step, pivot_row) = if flip_span <= best_step {
            (flip_span, None)
        } else {
            (best_step.max(0.0), pivot_row)
        };

        // Apply movement to basic values.
        for i in 0..self.m {
            let delta = sigma * self.t[i * self.n_cols + q];
            if delta != 0.0 {
                self.beta[i] -= delta * step;
            }
        }
        self.iterations += 1;

        match pivot_row {
            None => {
                // Pure bound flip.
                self.status[q] = if sigma > 0.0 {
                    ColStatus::AtUpper
                } else {
                    ColStatus::AtLower
                };
            }
            Some(r) => {
                let leaving = self.basis[r];
                // Leaving variable rests at the bound it ran into.
                let delta_r = sigma * self.t[r * self.n_cols + q];
                self.status[leaving] = if delta_r > 0.0 {
                    ColStatus::AtLower
                } else {
                    ColStatus::AtUpper
                };
                // Entering variable's new value.
                let enter_from = if sigma > 0.0 {
                    self.lower[q]
                } else {
                    self.upper[q]
                };
                let enter_val = enter_from + sigma * step;
                // Gauss–Jordan elimination on column q.
                let piv = self.t[r * self.n_cols + q];
                debug_assert!(piv.abs() > TOL * 1e-3, "pivot too small: {piv}");
                let inv = 1.0 / piv;
                for j in 0..self.n_cols {
                    self.t[r * self.n_cols + j] *= inv;
                }
                for i in 0..self.m {
                    if i == r {
                        continue;
                    }
                    let factor = self.t[i * self.n_cols + q];
                    if factor != 0.0 {
                        for j in 0..self.n_cols {
                            let v = self.t[r * self.n_cols + j];
                            self.t[i * self.n_cols + j] -= factor * v;
                        }
                    }
                }
                let zfac = self.zrow[q];
                if zfac != 0.0 {
                    for j in 0..self.n_cols {
                        self.zrow[j] -= zfac * self.t[r * self.n_cols + j];
                    }
                }
                self.row_of[leaving] = usize::MAX;
                self.basis[r] = q;
                self.row_of[q] = r;
                self.beta[r] = enter_val;
                self.status[q] = ColStatus::Basic;
            }
        }
        Ok(true)
    }

    /// Drives any artificial variable still basic (at value ~0) out of the
    /// basis, or pins redundant rows.
    fn expel_artificials(&mut self) {
        for r in 0..self.m {
            let b = self.basis[r];
            if b < self.art_start {
                continue;
            }
            // Find a non-artificial column with a usable pivot in this row.
            let mut replacement = None;
            for j in 0..self.art_start {
                if self.status[j] != ColStatus::Basic
                    && self.t[r * self.n_cols + j].abs() > tol::FEAS
                {
                    replacement = Some(j);
                    break;
                }
            }
            match replacement {
                Some(q) => {
                    // Degenerate pivot: artificial is at 0, so the entering
                    // column keeps its current value and beta[r] becomes it.
                    let enter_val = self.col_value(q);
                    let piv = self.t[r * self.n_cols + q];
                    let inv = 1.0 / piv;
                    for j in 0..self.n_cols {
                        self.t[r * self.n_cols + j] *= inv;
                    }
                    for i in 0..self.m {
                        if i == r {
                            continue;
                        }
                        let factor = self.t[i * self.n_cols + q];
                        if factor != 0.0 {
                            for j in 0..self.n_cols {
                                let v = self.t[r * self.n_cols + j];
                                self.t[i * self.n_cols + j] -= factor * v;
                            }
                        }
                    }
                    self.status[self.basis[r]] = ColStatus::AtLower;
                    self.lower[b] = 0.0;
                    self.upper[b] = 0.0;
                    self.row_of[b] = usize::MAX;
                    self.basis[r] = q;
                    self.row_of[q] = r;
                    self.beta[r] = enter_val;
                    self.status[q] = ColStatus::Basic;
                }
                None => {
                    // Redundant row: pin the artificial to zero so it can
                    // never move again.
                    self.lower[b] = 0.0;
                    self.upper[b] = 0.0;
                    self.beta[r] = 0.0;
                }
            }
        }
    }
}

/// Solves the LP relaxation of `model` under `bounds` (one pair per
/// variable, none crossed). Reports `Optimal`, `Infeasible`, `Unbounded`,
/// or `IterLimit` after `MAX_ITERATIONS` pivots; `work_ticks` and the
/// factorisation counters stay zero.
pub fn solve(model: &Model, bounds: &[(f64, f64)]) -> LpResult {
    let n = model.num_vars();
    assert_eq!(bounds.len(), n, "one bound pair per variable required");
    assert!(bounds.iter().all(|&(l, u)| l <= u), "crossed bounds");
    let m = model.num_constraints();

    // Column layout: structural | slack (one per Le/Ge row) | artificial (one per row).
    let n_slack = model
        .constraints()
        .iter()
        .filter(|c| c.sense != ConstraintSense::Eq)
        .count();
    let art_start = n + n_slack;
    let n_cols = art_start + m;

    let mut lower = vec![0.0f64; n_cols];
    let mut upper = vec![f64::INFINITY; n_cols];
    for j in 0..n {
        lower[j] = bounds[j].0;
        upper[j] = bounds[j].1;
    }

    // Dense A (m × n_cols) with slacks and artificial placeholders.
    let mut a = vec![0.0f64; m * n_cols];
    let mut rhs = vec![0.0f64; m];
    let mut slack_idx = n;
    for (i, con) in model.constraints().iter().enumerate() {
        for &(v, c) in &con.terms {
            a[i * n_cols + v.index()] += c;
        }
        rhs[i] = con.rhs;
        match con.sense {
            ConstraintSense::Le => {
                a[i * n_cols + slack_idx] = 1.0;
                slack_idx += 1;
            }
            ConstraintSense::Ge => {
                a[i * n_cols + slack_idx] = -1.0;
                slack_idx += 1;
            }
            ConstraintSense::Eq => {}
        }
    }
    debug_assert_eq!(slack_idx, art_start);

    // Initial nonbasic point: every non-artificial column at a finite bound.
    let mut status = vec![ColStatus::AtLower; n_cols];
    for (j, st) in status.iter_mut().enumerate().take(art_start) {
        if lower[j].is_finite() {
            *st = ColStatus::AtLower;
        } else if upper[j].is_finite() {
            *st = ColStatus::AtUpper;
        } else {
            // Free variable: pin it at 0 by splitting bounds — croxmap
            // models never produce these, treat 0 as a pseudo lower bound.
            lower[j] = 0.0;
            *st = ColStatus::AtLower;
        }
    }

    // Residuals r = b − A x̄ determine artificial signs and values.
    let xbar: Vec<f64> = (0..art_start)
        .map(|j| match status[j] {
            ColStatus::AtLower => lower[j],
            ColStatus::AtUpper => upper[j],
            ColStatus::Basic => unreachable!("no basics yet"),
        })
        .collect();
    let mut beta = vec![0.0f64; m];
    let mut basis = vec![0usize; m];
    for i in 0..m {
        let mut r = rhs[i];
        for (j, &xj) in xbar.iter().enumerate() {
            let c = a[i * n_cols + j];
            if c != 0.0 {
                r -= c * xj;
            }
        }
        let sign = if r < 0.0 { -1.0 } else { 1.0 };
        let art = art_start + i;
        a[i * n_cols + art] = sign;
        // Scale the row so the artificial's tableau column is +e_i:
        // B = diag(sign) ⇒ B⁻¹ row i multiplies by sign.
        if sign < 0.0 {
            for j in 0..n_cols {
                a[i * n_cols + j] = -a[i * n_cols + j];
            }
        }
        beta[i] = r.abs();
        basis[i] = art;
        status[art] = ColStatus::Basic;
    }

    let mut row_of = vec![usize::MAX; n_cols];
    for (i, &b) in basis.iter().enumerate() {
        row_of[b] = i;
    }
    let mut tab = Tableau {
        m,
        n_cols,
        n_struct: n,
        art_start,
        t: a,
        beta,
        basis,
        row_of,
        status,
        lower,
        upper,
        zrow: vec![0.0; n_cols],
        cost: vec![0.0; n_cols],
        iterations: 0,
    };

    // ---- Phase 1: minimise sum of artificials ----
    for j in art_start..n_cols {
        tab.cost[j] = 1.0;
    }
    tab.rebuild_zrow();
    let mut iters_left = MAX_ITERATIONS;
    let mut stall = 0u32;
    let mut last_obj = f64::INFINITY;
    loop {
        let phase1_obj: f64 = tab
            .beta
            .iter()
            .zip(tab.basis.iter())
            .fold(
                0.0,
                |acc, (&b, &col)| {
                    if col >= art_start {
                        acc + b
                    } else {
                        acc
                    }
                },
            );
        if phase1_obj <= TOL * (1.0 + m as f64) {
            break;
        }
        if iters_left == 0 {
            return finish(model, &tab, LpStatus::IterLimit);
        }
        if phase1_obj < last_obj - TOL {
            stall = 0;
            last_obj = phase1_obj;
        } else {
            stall += 1;
        }
        let bland = stall > 64;
        match tab.iterate(bland) {
            Ok(true) => iters_left -= 1,
            Ok(false) => break, // phase-1 optimal
            Err(()) => break,   // cannot happen: phase-1 objective bounded below
        }
    }
    let phase1_obj: f64 = tab
        .beta
        .iter()
        .zip(tab.basis.iter())
        .fold(
            0.0,
            |acc, (&b, &col)| if col >= art_start { acc + b } else { acc },
        );
    if phase1_obj > tol::FEAS {
        return finish(model, &tab, LpStatus::Infeasible);
    }
    tab.expel_artificials();
    // Freeze all artificials at zero.
    for j in tab.art_start..tab.n_cols {
        if tab.status[j] != ColStatus::Basic {
            tab.lower[j] = 0.0;
            tab.upper[j] = 0.0;
            tab.status[j] = ColStatus::AtLower;
        }
    }

    // ---- Phase 2: minimise the real objective ----
    tab.cost = vec![0.0; tab.n_cols];
    for &(v, c) in model.objective() {
        tab.cost[v.index()] = c;
    }
    tab.rebuild_zrow();
    stall = 0;
    last_obj = f64::INFINITY;
    loop {
        if iters_left == 0 {
            return finish(model, &tab, LpStatus::IterLimit);
        }
        let obj: f64 = current_objective(&tab);
        if obj < last_obj - TOL {
            stall = 0;
            last_obj = obj;
        } else {
            stall += 1;
        }
        let bland = stall > 64;
        match tab.iterate(bland) {
            Ok(true) => iters_left -= 1,
            Ok(false) => return finish(model, &tab, LpStatus::Optimal),
            Err(()) => return finish(model, &tab, LpStatus::Unbounded),
        }
    }
}

/// Objective of the current point under the tableau's phase costs,
/// evaluated in O(m + n) without materialising the solution vector.
fn current_objective(tab: &Tableau) -> f64 {
    let mut obj = 0.0;
    for i in 0..tab.m {
        obj += tab.cost[tab.basis[i]] * tab.beta[i];
    }
    for j in 0..tab.n_cols {
        match tab.status[j] {
            ColStatus::Basic => {}
            ColStatus::AtLower => obj += tab.cost[j] * tab.lower[j],
            ColStatus::AtUpper => obj += tab.cost[j] * tab.upper[j],
        }
    }
    obj
}

fn extract_values(tab: &Tableau) -> Vec<f64> {
    let mut values = vec![0.0f64; tab.n_struct];
    for (j, val) in values.iter_mut().enumerate() {
        *val = match tab.status[j] {
            ColStatus::AtLower => tab.lower[j],
            ColStatus::AtUpper => tab.upper[j],
            ColStatus::Basic => tab.beta[tab.row_of[j]],
        };
    }
    values
}

fn finish(model: &Model, tab: &Tableau, status: LpStatus) -> LpResult {
    let values = extract_values(tab);
    let objective = match status {
        LpStatus::Optimal | LpStatus::IterLimit => model.objective_value(&values),
        LpStatus::Infeasible => f64::INFINITY,
        LpStatus::Unbounded => f64::NEG_INFINITY,
        LpStatus::Failed => unreachable!("the tableau never declines a solve"),
    };
    LpResult {
        status,
        objective,
        values,
        iterations: tab.iterations,
        work_ticks: 0,
        factor: FactorStats::default(),
    }
}

/// All integer-feasible points of a small binary model.
pub fn feasible_points(m: &Model) -> Vec<Vec<f64>> {
    let n = m.num_vars();
    assert!(n <= 16, "enumeration only");
    (0..1u32 << n)
        .map(|bits| (0..n).map(|j| f64::from((bits >> j) & 1)).collect())
        .filter(|pt: &Vec<f64>| m.is_feasible(pt, 1e-9))
        .collect()
}

/// The optimum of a small binary model over [`feasible_points`], or
/// `None` when no point is feasible.
pub fn enumerated_optimum(m: &Model) -> Option<f64> {
    feasible_points(m)
        .iter()
        .map(|pt| m.objective_value(pt))
        .min_by(f64::total_cmp)
}

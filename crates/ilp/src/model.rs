//! The ILP model: variables, constraints and objective.
//!
//! A model stores no names: a variable is its [`VarId`] and a row is its
//! index in [`Model::constraints`], which is how [`ModelError`] reports
//! either. Solves share one model rather than copying it: an
//! [`LpSession`](crate::LpSession) holds it in an [`Arc`].

use crate::expr::{Comparison, ConstraintSense, LinExpr, VarId};
use crate::sparse::CscMatrix;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Integrality class of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VarType {
    /// Binary variable in `{0, 1}`.
    Binary,
    /// Continuous variable within its bounds.
    Continuous,
}

/// A decision variable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Variable {
    /// Integrality class.
    pub ty: VarType,
    /// Lower bound.
    pub lower: f64,
    /// Upper bound.
    pub upper: f64,
}

/// A stored linear constraint (normalised expression).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    /// Left-hand side terms, normalised (sorted, merged, constant folded
    /// into `rhs`).
    pub terms: Vec<(VarId, f64)>,
    /// Sense.
    pub sense: ConstraintSense,
    /// Right-hand side.
    pub rhs: f64,
}

impl Constraint {
    /// Evaluates the left-hand side on an assignment.
    #[must_use]
    pub fn lhs_value(&self, values: &[f64]) -> f64 {
        self.terms.iter().map(|&(v, c)| c * values[v.index()]).sum()
    }

    /// Returns `true` if the constraint holds on `values` within `tol`.
    #[must_use]
    pub fn is_satisfied(&self, values: &[f64], tol: f64) -> bool {
        let lhs = self.lhs_value(values);
        match self.sense {
            ConstraintSense::Le => lhs <= self.rhs + tol,
            ConstraintSense::Ge => lhs >= self.rhs - tol,
            ConstraintSense::Eq => (lhs - self.rhs).abs() <= tol,
        }
    }
}

/// Errors raised by model validation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// A bound pair is inverted or non-finite.
    BadBounds {
        /// Offending variable.
        var: VarId,
        /// Its lower bound.
        lower: f64,
        /// Its upper bound.
        upper: f64,
    },
    /// A coefficient or right-hand side is not finite.
    NonFiniteCoefficient {
        /// Index of the offending constraint, or `None` for the objective.
        row: Option<usize>,
    },
    /// A variable appears more than once in a constraint or the objective.
    /// Normalised expressions never contain duplicates; this guards
    /// hand-built or deserialised term lists, which would otherwise flow
    /// into the CSC matrix as separate entries.
    DuplicateTerm {
        /// Index of the offending constraint, or `None` for the objective.
        row: Option<usize>,
        /// The repeated variable.
        var: VarId,
    },
    /// The model has no variables.
    Empty,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::BadBounds { var, lower, upper } => {
                write!(f, "variable {var} has invalid bounds [{lower}, {upper}]")
            }
            ModelError::NonFiniteCoefficient { row } => {
                write!(f, "non-finite coefficient in {}", location(*row))
            }
            ModelError::DuplicateTerm { row, var } => {
                write!(
                    f,
                    "variable {var} appears more than once in {}",
                    location(*row)
                )
            }
            ModelError::Empty => write!(f, "model has no variables"),
        }
    }
}

impl Error for ModelError {}

/// A [`ModelError`] location in words: a constraint row or the objective.
fn location(row: Option<usize>) -> String {
    row.map_or_else(|| "the objective".to_owned(), |i| format!("row {i}"))
}

/// First variable repeated in a term list, if any. Term lists are usually
/// sorted (normalised) but may not be when built by hand; sort a copy of
/// the ids in `scratch` rather than assuming order.
fn first_duplicate(terms: &[(VarId, f64)], scratch: &mut Vec<VarId>) -> Option<VarId> {
    scratch.clear();
    scratch.extend(terms.iter().map(|&(v, _)| v));
    scratch.sort_unstable();
    scratch.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

/// A minimisation integer linear program.
///
/// Build variables with [`Model::add_binary`] / [`Model::add_continuous`],
/// add constraints, set a linear objective and hand the model to a
/// [`Solver`](crate::Solver).
///
/// ```
/// use croxmap_ilp::Model;
/// let mut m = Model::new();
/// let x = m.add_binary();
/// let y = m.add_binary();
/// m.add_constraint(m.expr([(x, 1.0), (y, 1.0)]).leq(1.0));
/// m.set_objective(m.expr([(x, -1.0), (y, -2.0)])); // maximise x + 2y
/// assert_eq!(m.num_vars(), 2);
/// assert_eq!(m.num_constraints(), 1);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Model {
    vars: Vec<Variable>,
    constraints: Vec<Constraint>,
    objective: Vec<(VarId, f64)>,
    objective_offset: f64,
    /// Branching priority per variable (higher = decided first); absent
    /// entries default to 0.
    priorities: Vec<(VarId, i32)>,
    /// Lazily built CSC form of the constraint matrix, shared by every LP
    /// relaxation of this model. Reset by any mutation that changes the
    /// matrix shape or entries (new variables or constraints).
    #[serde(skip)]
    csc_cache: OnceLock<Arc<CscMatrix>>,
}

impl Model {
    /// Creates an empty model.
    #[must_use]
    pub fn new() -> Self {
        Model::default()
    }

    /// Adds a binary variable and returns its id.
    pub fn add_binary(&mut self) -> VarId {
        self.csc_cache = OnceLock::new();
        // lint: allow(panic-path) — u32 overflow needs 4 billion variables; the largest paper instance has ~10^5, and VarId is u32 across the whole solver by design
        let id = VarId(u32::try_from(self.vars.len()).expect("too many variables"));
        self.vars.push(Variable {
            ty: VarType::Binary,
            lower: 0.0,
            upper: 1.0,
        });
        id
    }

    /// Adds a continuous variable with the given bounds and returns its id.
    pub fn add_continuous(&mut self, lower: f64, upper: f64) -> VarId {
        self.csc_cache = OnceLock::new();
        // lint: allow(panic-path) — u32 overflow needs 4 billion variables; the largest paper instance has ~10^5, and VarId is u32 across the whole solver by design
        let id = VarId(u32::try_from(self.vars.len()).expect("too many variables"));
        self.vars.push(Variable {
            ty: VarType::Continuous,
            lower,
            upper,
        });
        id
    }

    /// Convenience builder for an expression over this model's variables.
    ///
    /// Purely syntactic sugar — the terms are not validated until
    /// [`Model::validate`].
    #[must_use]
    pub fn expr(&self, terms: impl IntoIterator<Item = (VarId, f64)>) -> LinExpr {
        LinExpr::from_terms(terms)
    }

    /// Adds a constraint; the comparison's expression is normalised and its
    /// constant folded into the right-hand side.
    pub fn add_constraint(&mut self, cmp: Comparison) {
        self.csc_cache = OnceLock::new();
        let (terms, constant) = cmp.expr.normalize().into_parts();
        self.constraints.push(Constraint {
            terms,
            sense: cmp.sense,
            rhs: cmp.rhs - constant,
        });
    }

    /// Appends a constraint **row** without touching existing columns —
    /// the grow-only mutation behind
    /// [`LpSession::add_rows`](crate::LpSession::add_rows) (cutting
    /// planes, lazy constraints).
    ///
    /// Unlike [`Model::add_constraint`], which invalidates the cached CSC
    /// matrix wholesale, this keeps the cache alive by extending it in
    /// place via [`CscMatrix::append_rows`] — an `O(nnz + row)` merge with
    /// no re-sort — so a live LP engine can absorb the new row without
    /// rebuilding its column view of the matrix. The expression is
    /// normalised exactly like `add_constraint` (terms merged and sorted,
    /// the constant folded into the right-hand side).
    ///
    /// # Panics
    ///
    /// Panics if a term references a variable this model does not have —
    /// rows may grow, columns may not.
    pub fn append_row(&mut self, cmp: Comparison) {
        let (terms, constant) = cmp.expr.normalize().into_parts();
        let rhs = cmp.rhs - constant;
        for &(v, _) in &terms {
            assert!(
                v.index() < self.vars.len(),
                "append_row is grow-only: variable {v} does not exist"
            );
        }
        if let Some(csc) = self.csc_cache.get() {
            let added: Vec<(usize, f64)> = terms.iter().map(|&(v, c)| (v.index(), c)).collect();
            let grown = Arc::new(csc.append_rows(&[added]));
            self.csc_cache = OnceLock::new();
            let _ = self.csc_cache.set(grown);
        }
        self.constraints.push(Constraint {
            terms,
            sense: cmp.sense,
            rhs,
        });
    }

    /// Sets the (minimisation) objective.
    pub fn set_objective(&mut self, expr: LinExpr) {
        (self.objective, self.objective_offset) = expr.normalize().into_parts();
    }

    /// Overrides the bounds of `v` (e.g. to fix a binary to a constant).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn set_bounds(&mut self, v: VarId, lower: f64, upper: f64) {
        let var = &mut self.vars[v.index()];
        var.lower = lower;
        var.upper = upper;
    }

    /// Fixes a binary variable to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn fix_binary(&mut self, v: VarId, value: bool) {
        let x = if value { 1.0 } else { 0.0 };
        self.set_bounds(v, x, x);
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The variable table.
    #[must_use]
    pub fn variables(&self) -> &[Variable] {
        &self.vars
    }

    /// The constraint table.
    #[must_use]
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The constraint matrix in CSC form (structural columns only),
    /// built on first use and cached until the model is mutated.
    ///
    /// Every LP relaxation of this model shares the returned matrix; the
    /// revised simplex prices columns through it instead of materialising
    /// a dense tableau. Repeated `(row, var)` terms — which only arise in
    /// hand-built or deserialised constraints, and which [`Model::validate`]
    /// rejects — are coalesced by summation rather than stored as separate
    /// entries.
    #[must_use]
    pub fn csc(&self) -> Arc<CscMatrix> {
        self.csc_cache
            .get_or_init(|| {
                let rows = self.constraints.iter().map(|con| con.terms.as_slice());
                Arc::new(CscMatrix::from_rows(self.vars.len(), rows))
            })
            .clone()
    }

    /// Objective terms (without offset).
    #[must_use]
    pub fn objective(&self) -> &[(VarId, f64)] {
        &self.objective
    }

    /// Constant offset of the objective.
    #[must_use]
    pub fn objective_offset(&self) -> f64 {
        self.objective_offset
    }

    /// Evaluates the objective on an assignment.
    #[must_use]
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.objective_offset
            + self
                .objective
                .iter()
                .map(|&(v, c)| c * values[v.index()])
                .sum::<f64>()
    }

    /// Checks an assignment for feasibility: bounds, integrality of binary
    /// variables and every constraint, all within `tol`.
    #[must_use]
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.vars.len() {
            return false;
        }
        for (i, var) in self.vars.iter().enumerate() {
            let x = values[i];
            if x < var.lower - tol || x > var.upper + tol {
                return false;
            }
            if var.ty == VarType::Binary && (x - x.round()).abs() > tol {
                return false;
            }
        }
        self.constraints.iter().all(|c| c.is_satisfied(values, tol))
    }

    /// Validates variable bounds and coefficient finiteness.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] describing the first problem found.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.vars.is_empty() {
            return Err(ModelError::Empty);
        }
        for (i, var) in self.vars.iter().enumerate() {
            let bad = var.lower > var.upper
                || var.lower.is_nan()
                || var.upper.is_nan()
                || var.lower == f64::INFINITY
                || var.upper == f64::NEG_INFINITY;
            if bad {
                return Err(ModelError::BadBounds {
                    var: VarId(i as u32),
                    lower: var.lower,
                    upper: var.upper,
                });
            }
        }
        let mut scratch = Vec::new();
        for (i, c) in self.constraints.iter().enumerate() {
            if !c.rhs.is_finite() || c.terms.iter().any(|&(_, co)| !co.is_finite()) {
                return Err(ModelError::NonFiniteCoefficient { row: Some(i) });
            }
            if let Some(var) = first_duplicate(&c.terms, &mut scratch) {
                return Err(ModelError::DuplicateTerm { row: Some(i), var });
            }
        }
        if self.objective.iter().any(|&(_, c)| !c.is_finite()) || !self.objective_offset.is_finite()
        {
            return Err(ModelError::NonFiniteCoefficient { row: None });
        }
        if let Some(var) = first_duplicate(&self.objective, &mut scratch) {
            return Err(ModelError::DuplicateTerm { row: None, var });
        }
        Ok(())
    }

    /// Sets the branching priority of `v`. Solvers decide fractional
    /// variables of the highest priority class first; the default priority
    /// is 0. Use this to mark "decision" variables whose fixation implies
    /// the rest (e.g. placement variables in an assignment model).
    pub fn set_branch_priority(&mut self, v: VarId, priority: i32) {
        self.priorities.push((v, priority));
    }

    /// Dense per-variable branching priorities.
    #[must_use]
    pub fn branch_priorities(&self) -> Vec<i32> {
        let mut p = vec![0; self.vars.len()];
        for &(v, pr) in &self.priorities {
            if v.index() < p.len() {
                p[v.index()] = pr;
            }
        }
        p
    }

    /// Ids of all binary variables.
    pub fn binary_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.ty == VarType::Binary)
            .map(|(i, _)| VarId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut m = Model::new();
        let x = m.add_binary();
        let y = m.add_continuous(0.0, 10.0);
        m.add_constraint(m.expr([(x, 1.0), (y, 2.0)]).leq(5.0));
        m.set_objective(m.expr([(x, 3.0), (y, 1.0)]));
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.variables()[x.index()].ty, VarType::Binary);
        assert_eq!(m.variables()[y.index()].upper, 10.0);
        assert_eq!(m.objective(), [(x, 3.0), (y, 1.0)]);
        m.validate().unwrap();
    }

    #[test]
    fn append_row_grows_cached_csc_in_place() {
        let mut m = Model::new();
        let x = m.add_binary();
        let y = m.add_binary();
        m.add_constraint(m.expr([(x, 1.0), (y, 2.0)]).leq(3.0));
        m.set_objective(m.expr([(x, 1.0)]));
        let before = m.csc();
        assert_eq!(before.rows(), 1);
        m.append_row(m.expr([(x, 1.0), (y, 1.0)]).leq(1.0));
        let after = m.csc();
        assert_eq!(after.rows(), 2);
        assert_eq!(after.nnz(), 4);
        assert_eq!(m.num_constraints(), 2);
        // The grown matrix equals a cold rebuild of the same model.
        let rebuilt = {
            let mut fresh = m.clone();
            fresh.csc_cache = OnceLock::new();
            fresh.csc()
        };
        assert_eq!(*after, *rebuilt);
        m.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "grow-only")]
    fn append_row_rejects_unknown_columns() {
        let mut m = Model::new();
        let x = m.add_binary();
        let mut other = Model::new();
        let _ = other.add_binary();
        let ghost = other.add_binary();
        m.set_objective(m.expr([(x, 1.0)]));
        m.append_row(m.expr([(ghost, 1.0)]).leq(1.0));
    }

    #[test]
    fn constant_folds_into_rhs() {
        let mut m = Model::new();
        let x = m.add_binary();
        let mut e = m.expr([(x, 1.0)]);
        e.add_constant(2.0);
        m.add_constraint(e.leq(5.0));
        assert_eq!(m.constraints()[0].rhs, 3.0);
    }

    #[test]
    fn feasibility_checks_bounds_integrality_constraints() {
        let mut m = Model::new();
        let x = m.add_binary();
        let y = m.add_binary();
        m.add_constraint(m.expr([(x, 1.0), (y, 1.0)]).geq(1.0));
        assert!(m.is_feasible(&[1.0, 0.0], 1e-9));
        assert!(!m.is_feasible(&[0.0, 0.0], 1e-9)); // violates c
        assert!(!m.is_feasible(&[0.5, 1.0], 1e-9)); // fractional binary
        assert!(!m.is_feasible(&[2.0, 0.0], 1e-9)); // out of bounds
        assert!(!m.is_feasible(&[1.0], 1e-9)); // wrong arity
    }

    #[test]
    fn validate_rejects_bad_bounds() {
        let mut m = Model::new();
        let _ = m.add_continuous(3.0, 1.0);
        assert!(matches!(m.validate(), Err(ModelError::BadBounds { .. })));
    }

    #[test]
    fn validate_rejects_nan() {
        let mut m = Model::new();
        let x = m.add_binary();
        m.add_constraint(m.expr([(x, 1.0)]).leq(1.0));
        m.add_constraint(m.expr([(x, f64::NAN)]).leq(1.0));
        let err = m.validate().unwrap_err();
        assert_eq!(err, ModelError::NonFiniteCoefficient { row: Some(1) });
        assert_eq!(err.to_string(), "non-finite coefficient in row 1");
        m.constraints.pop();
        m.set_objective(m.expr([(x, f64::INFINITY)]));
        let err = m.validate().unwrap_err();
        assert_eq!(err, ModelError::NonFiniteCoefficient { row: None });
        assert_eq!(err.to_string(), "non-finite coefficient in the objective");
    }

    #[test]
    fn validate_rejects_duplicate_terms() {
        let mut m = Model::new();
        let x = m.add_binary();
        let y = m.add_binary();
        m.add_constraint(m.expr([(y, 1.0)]).leq(1.0));
        m.add_constraint(m.expr([(x, 1.0), (y, 1.0)]).leq(1.0));
        m.validate().unwrap();
        // Normalisation merges duplicates on entry; forge an unmerged term
        // list the way a deserialised or hand-mutated model could carry.
        m.constraints[1].terms = vec![(x, 1.0), (y, 1.0), (x, 2.0)];
        assert_eq!(
            m.validate(),
            Err(ModelError::DuplicateTerm {
                row: Some(1),
                var: x
            })
        );
        // The CSC build coalesces the duplicate rather than storing two
        // entries for the same (row, column) slot.
        let csc = m.csc();
        assert_eq!(csc.nnz(), 3);
        assert_eq!(csc.dot_col(&[0.0, 1.0], x.index()), 3.0);
    }

    /// The counting CSC build matches the per-column lists handed to
    /// [`CscMatrix::from_columns`] (the build it replaced), on random
    /// hand-built term lists with repeated columns, zero coefficients and
    /// repeats that cancel.
    #[test]
    fn counting_csc_matches_per_column_build() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..200 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut m = Model::new();
            let n = rng.gen_range(1..12usize);
            for _ in 0..n {
                let _ = m.add_binary();
            }
            for i in 0..rng.gen_range(0..15usize) {
                m.add_constraint(LinExpr::new().leq(1.0));
                let len = rng.gen_range(0..8usize);
                m.constraints[i].terms = (0..len)
                    .map(|_| {
                        let v = VarId(rng.gen_range(0..n as u32));
                        (v, [0.0, 1.0, -1.0, 2.5, -2.5][rng.gen_range(0..5usize)])
                    })
                    .collect();
            }
            let mut columns: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
            for (i, con) in m.constraints.iter().enumerate() {
                for &(v, c) in &con.terms {
                    columns[v.index()].push((i, c));
                }
            }
            let want = CscMatrix::from_columns(m.num_constraints(), &columns);
            assert_eq!(*m.csc(), want, "seed {seed}");
        }
    }

    #[test]
    fn validate_rejects_duplicate_objective_terms() {
        let mut m = Model::new();
        let x = m.add_binary();
        m.set_objective(m.expr([(x, 1.0), (x, 2.0)]));
        assert_eq!(m.objective().len(), 1, "set_objective normalises");
        m.objective = vec![(x, 1.0), (x, 2.0)];
        assert_eq!(
            m.validate(),
            Err(ModelError::DuplicateTerm { row: None, var: x })
        );
    }

    #[test]
    fn validate_rejects_empty() {
        assert_eq!(Model::new().validate(), Err(ModelError::Empty));
    }

    #[test]
    fn objective_value_includes_offset() {
        let mut m = Model::new();
        let x = m.add_binary();
        let mut e = m.expr([(x, 2.0)]);
        e.add_constant(7.0);
        m.set_objective(e);
        assert_eq!(m.objective_value(&[1.0]), 9.0);
    }

    #[test]
    fn binary_vars_iterator() {
        let mut m = Model::new();
        let _x = m.add_binary();
        let _y = m.add_continuous(0.0, 1.0);
        let _z = m.add_binary();
        let bins: Vec<_> = m.binary_vars().map(|v| v.index()).collect();
        assert_eq!(bins, vec![0, 2]);
    }
}

//! Linear expressions over model variables.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Mul};

/// Identifier of a decision variable inside a [`Model`](crate::Model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Dense index of the variable.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Sense of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConstraintSense {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

impl fmt::Display for ConstraintSense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConstraintSense::Le => "<=",
            ConstraintSense::Ge => ">=",
            ConstraintSense::Eq => "=",
        })
    }
}

/// A sparse linear expression `Σ cᵥ·v + constant`.
///
/// Expressions are built from `(VarId, coefficient)` terms; duplicate
/// variables are merged by [`LinExpr::normalize`], which all consumers call.
///
/// ```
/// use croxmap_ilp::{LinExpr, Model};
/// let mut m = Model::new();
/// let x = m.add_binary();
/// let y = m.add_binary();
/// let e = LinExpr::term(x, 2.0) + LinExpr::term(y, 1.0) + LinExpr::term(x, 3.0);
/// let e = e.normalize();
/// assert_eq!(e.coefficient(x), 5.0);
/// assert_eq!(e.coefficient(y), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LinExpr {
    terms: Vec<(VarId, f64)>,
    constant: f64,
}

impl LinExpr {
    /// The zero expression.
    #[must_use]
    pub fn new() -> Self {
        LinExpr::default()
    }

    /// A single-term expression `coeff · var`.
    #[must_use]
    pub fn term(var: VarId, coeff: f64) -> Self {
        LinExpr {
            terms: vec![(var, coeff)],
            constant: 0.0,
        }
    }

    /// A constant expression.
    #[must_use]
    pub fn constant(value: f64) -> Self {
        LinExpr {
            terms: Vec::new(),
            constant: value,
        }
    }

    /// Builds an expression from `(var, coeff)` pairs.
    #[must_use]
    pub fn from_terms(terms: impl IntoIterator<Item = (VarId, f64)>) -> Self {
        LinExpr {
            terms: terms.into_iter().collect(),
            constant: 0.0,
        }
    }

    /// Appends a term in place.
    pub fn push(&mut self, var: VarId, coeff: f64) {
        self.terms.push((var, coeff));
    }

    /// Adds to the constant offset in place.
    pub fn add_constant(&mut self, value: f64) {
        self.constant += value;
    }

    /// The constant offset.
    #[must_use]
    pub fn constant_part(&self) -> f64 {
        self.constant
    }

    /// The (possibly unmerged) term list.
    #[must_use]
    pub fn terms(&self) -> &[(VarId, f64)] {
        &self.terms
    }

    /// Number of stored terms (before merging).
    #[must_use]
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` if the expression has no variable terms.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Merges duplicate variables, drops zero coefficients and sorts terms
    /// by variable id, in place.
    #[must_use]
    pub fn normalize(mut self) -> Self {
        self.terms.sort_by_key(|&(v, _)| v);
        self.terms.dedup_by(|(v, c), (kept_v, kept_c)| {
            let repeat = v == kept_v;
            if repeat {
                *kept_c += *c;
            }
            repeat
        });
        self.terms.retain(|&(_, c)| c != 0.0);
        self
    }

    /// The term list and the constant offset, by value.
    pub(crate) fn into_parts(self) -> (Vec<(VarId, f64)>, f64) {
        (self.terms, self.constant)
    }

    /// Total coefficient of `var` (summing duplicates).
    #[must_use]
    pub fn coefficient(&self, var: VarId) -> f64 {
        self.terms
            .iter()
            .filter(|&&(v, _)| v == var)
            .map(|&(_, c)| c)
            .sum()
    }

    /// Evaluates the expression on an assignment vector indexed by variable.
    ///
    /// # Panics
    ///
    /// Panics if any referenced variable index is out of range.
    #[must_use]
    pub fn evaluate(&self, values: &[f64]) -> f64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|&(v, c)| c * values[v.index()])
                .sum::<f64>()
    }

    /// Builds the comparison `self ≤ rhs`.
    #[must_use]
    pub fn leq(self, rhs: f64) -> Comparison {
        Comparison {
            expr: self,
            sense: ConstraintSense::Le,
            rhs,
        }
    }

    /// Builds the comparison `self ≥ rhs`.
    #[must_use]
    pub fn geq(self, rhs: f64) -> Comparison {
        Comparison {
            expr: self,
            sense: ConstraintSense::Ge,
            rhs,
        }
    }

    /// Builds the comparison `self = rhs`.
    #[must_use]
    pub fn eq(self, rhs: f64) -> Comparison {
        Comparison {
            expr: self,
            sense: ConstraintSense::Eq,
            rhs,
        }
    }
}

impl Add for LinExpr {
    type Output = LinExpr;

    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;

    fn mul(mut self, rhs: f64) -> LinExpr {
        for (_, c) in &mut self.terms {
            *c *= rhs;
        }
        self.constant *= rhs;
        self
    }
}

impl FromIterator<(VarId, f64)> for LinExpr {
    fn from_iter<T: IntoIterator<Item = (VarId, f64)>>(iter: T) -> Self {
        LinExpr::from_terms(iter)
    }
}

/// A comparison `expr (≤ | ≥ | =) rhs`, ready to be added to a model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// Left-hand side.
    pub expr: LinExpr,
    /// Comparison sense.
    pub sense: ConstraintSense,
    /// Right-hand side constant.
    pub rhs: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn normalize_merges_and_sorts() {
        let e = LinExpr::from_terms([(v(3), 1.0), (v(1), 2.0), (v(3), -1.0), (v(0), 4.0)]);
        let e = e.normalize();
        assert_eq!(e.terms(), &[(v(0), 4.0), (v(1), 2.0)]);
    }

    #[test]
    fn evaluate_includes_constant() {
        let mut e = LinExpr::from_terms([(v(0), 2.0), (v(1), -1.0)]);
        e.add_constant(5.0);
        assert_eq!(e.evaluate(&[3.0, 4.0]), 2.0 * 3.0 - 4.0 + 5.0);
    }

    #[test]
    fn arithmetic_ops() {
        let e = (LinExpr::term(v(0), 1.0) + LinExpr::term(v(1), 2.0)) * 3.0;
        let e = e.normalize();
        assert_eq!(e.coefficient(v(0)), 3.0);
        assert_eq!(e.coefficient(v(1)), 6.0);
    }

    #[test]
    fn comparisons_carry_sense() {
        let c = LinExpr::term(v(0), 1.0).geq(2.0);
        assert_eq!(c.sense, ConstraintSense::Ge);
        assert_eq!(c.rhs, 2.0);
    }

    #[test]
    fn from_iterator_collects() {
        let e: LinExpr = [(v(0), 1.0), (v(1), 1.0)].into_iter().collect();
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn display_of_sense() {
        assert_eq!(ConstraintSense::Le.to_string(), "<=");
        assert_eq!(ConstraintSense::Ge.to_string(), ">=");
        assert_eq!(ConstraintSense::Eq.to_string(), "=");
    }
}

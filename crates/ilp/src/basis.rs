//! Basis snapshots for warm-starting LP relaxations.
//!
//! A [`Basis`] records which columns of the simplex working set are basic
//! (one per row) and the bound status of every column — structural columns
//! first, then one logical (slack) column per constraint row. Because
//! branch-and-bound only ever changes variable *bounds*, never the
//! objective or the matrix, a parent node's optimal basis remains **dual
//! feasible** for both children; re-installing it and running the dual
//! simplex typically re-optimises in a handful of pivots instead of a full
//! two-phase cold solve.
//!
//! A snapshot stores only column indices and statuses, never factors.
//! Installing one refactorises the basis as a fresh sparse LU
//! ([`crate::factor::LuFactors`]), so a snapshot taken under one
//! configuration warm-starts any other.

use serde::{Deserialize, Serialize};

/// Bound status of one column in a basis snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VarStatus {
    /// The column is basic (its value is determined by the basis).
    Basic,
    /// The column is nonbasic at its lower bound.
    AtLower,
    /// The column is nonbasic at its upper bound.
    AtUpper,
}

/// A snapshot of an optimal simplex basis, reusable across bound changes.
///
/// Produced by [`LpSession::solve`](crate::LpSession::solve) on optimal
/// solves and accepted back by it to warm-start a related solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Basis {
    /// The basic column per row (`cols.len()` == number of constraints).
    pub cols: Vec<usize>,
    /// Status per column: structural columns `0..n`, then logical columns
    /// `n..n + m` (one slack per constraint row).
    pub status: Vec<VarStatus>,
}

impl Basis {
    /// Structural + logical column count this snapshot describes.
    #[must_use]
    pub fn num_cols(&self) -> usize {
        self.status.len()
    }

    /// Returns `true` if the snapshot is structurally consistent for a
    /// problem with `m` rows and `n_total` columns: right lengths, basic
    /// columns in range, and statuses agreeing with the basic set.
    #[must_use]
    pub fn is_consistent(&self, m: usize, n_total: usize) -> bool {
        if self.cols.len() != m || self.status.len() != n_total {
            return false;
        }
        let mut seen = vec![false; n_total];
        for &c in &self.cols {
            if c >= n_total || seen[c] || self.status[c] != VarStatus::Basic {
                return false;
            }
            seen[c] = true;
        }
        self.status
            .iter()
            .enumerate()
            .all(|(j, &s)| (s == VarStatus::Basic) == seen[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistency_checks() {
        let b = Basis {
            cols: vec![2, 1],
            status: vec![
                VarStatus::AtLower,
                VarStatus::Basic,
                VarStatus::Basic,
                VarStatus::AtUpper,
            ],
        };
        assert!(b.is_consistent(2, 4));
        assert!(!b.is_consistent(1, 4)); // wrong row count
        assert!(!b.is_consistent(2, 3)); // wrong column count
    }

    #[test]
    fn rejects_status_mismatch() {
        let b = Basis {
            cols: vec![0],
            status: vec![VarStatus::AtLower, VarStatus::AtUpper],
        };
        assert!(!b.is_consistent(1, 2)); // basic col 0 not marked Basic
    }

    #[test]
    fn rejects_duplicate_basic() {
        let b = Basis {
            cols: vec![0, 0],
            status: vec![VarStatus::Basic, VarStatus::AtLower, VarStatus::AtLower],
        };
        assert!(!b.is_consistent(2, 3));
    }
}

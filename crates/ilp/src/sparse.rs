//! Compressed sparse column (CSC) storage for the constraint matrix.
//!
//! The revised simplex ([`crate::simplex`]) prices candidate columns via
//! sparse dot products instead of materialising the dense `B⁻¹A` tableau.
//! The matrix covers the *structural* columns only — logical (slack)
//! columns are unit vectors and are handled implicitly by the engine.
//!
//! [`crate::Model`] builds its CSC form once on first use and caches it;
//! every branch-and-bound node then shares the same matrix, which is what
//! makes per-node LP solves cheap.

use crate::expr::VarId;
use serde::{Deserialize, Serialize};

/// A sparse `m × n` matrix in compressed sparse column form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CscMatrix {
    m: usize,
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl Default for CscMatrix {
    /// The empty `0 × 0` matrix.
    fn default() -> Self {
        CscMatrix::from_columns(0, &[])
    }
}

impl CscMatrix {
    /// Builds a CSC matrix from per-column `(row, value)` entry lists.
    ///
    /// Duplicate rows within a column are coalesced by summation (dropping
    /// the entry if the sum cancels to zero), and zero values are dropped.
    /// Entries are stored sorted by row within each column.
    #[must_use]
    pub fn from_columns(m: usize, columns: &[Vec<(usize, f64)>]) -> Self {
        let n = columns.len();
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0);
        for col in columns {
            let mut entries: Vec<(usize, f64)> = col
                .iter()
                .copied()
                .filter(|&(i, v)| {
                    assert!(i < m, "row index out of range");
                    v != 0.0
                })
                .collect();
            entries.sort_unstable_by_key(|&(i, _)| i);
            let mut merged: Vec<(usize, f64)> = Vec::with_capacity(entries.len());
            for (i, v) in entries {
                match merged.last_mut() {
                    Some((li, lv)) if *li == i => *lv += v,
                    _ => merged.push((i, v)),
                }
            }
            for (i, v) in merged {
                if v != 0.0 {
                    row_idx.push(i);
                    values.push(v);
                }
            }
            col_ptr.push(row_idx.len());
        }
        CscMatrix {
            m,
            n,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Builds the `m × n` matrix whose rows `rows` lists in order as
    /// `(column, value)` terms, `m` being the number of lists, with the
    /// normalisation of [`CscMatrix::from_columns`]: zero values dropped,
    /// a row's repeated column summed in term order (and dropped if the
    /// sum is zero). One counting pass sizes the columns and one pass
    /// fills them, so nothing is allocated per column.
    pub(crate) fn from_rows<'a, I>(n: usize, rows: I) -> Self
    where
        I: Iterator<Item = &'a [(VarId, f64)]> + Clone,
    {
        let mut col_ptr = vec![0usize; n + 1];
        let mut m = 0;
        for terms in rows.clone() {
            m += 1;
            for &(v, c) in terms {
                if c != 0.0 {
                    col_ptr[v.index() + 1] += 1;
                }
            }
        }
        for j in 0..n {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut row_idx = vec![0usize; col_ptr[n]];
        let mut values = vec![0.0; col_ptr[n]];
        // `fill[j]` is column `j`'s next free slot; rows arrive in order,
        // so a repeated column meets its own row in the slot before.
        let mut fill = col_ptr[..n].to_vec();
        let mut repeats = false;
        for (i, terms) in rows.enumerate() {
            for &(v, c) in terms {
                if c == 0.0 {
                    continue;
                }
                let j = v.index();
                let at = fill[j];
                if at > col_ptr[j] && row_idx[at - 1] == i {
                    values[at - 1] += c;
                    repeats = true;
                } else {
                    row_idx[at] = i;
                    values[at] = c;
                    fill[j] = at + 1;
                }
            }
        }
        if repeats {
            // Close the gaps the summed repeats left, dropping sums that
            // cancelled to zero.
            let mut kept = 0;
            for j in 0..n {
                let (start, end) = (col_ptr[j], fill[j]);
                col_ptr[j] = kept;
                for k in start..end {
                    if values[k] != 0.0 {
                        row_idx[kept] = row_idx[k];
                        values[kept] = values[k];
                        kept += 1;
                    }
                }
            }
            col_ptr[n] = kept;
            row_idx.truncate(kept);
            values.truncate(kept);
        }
        CscMatrix {
            m,
            n,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.n
    }

    /// Number of stored non-zeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(row_indices, values)` slices of column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// Non-zero count of column `j`.
    #[must_use]
    pub fn col_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }

    /// Sparse dot product `dense · column_j`.
    #[must_use]
    pub fn dot_col(&self, dense: &[f64], j: usize) -> f64 {
        let (rows, vals) = self.col(j);
        rows.iter().zip(vals).map(|(&i, &v)| dense[i] * v).sum()
    }

    /// Accumulates `out += scale * column_j` into a dense vector.
    pub fn axpy_col(&self, out: &mut [f64], scale: f64, j: usize) {
        if scale == 0.0 {
            return;
        }
        let (rows, vals) = self.col(j);
        for (&i, &v) in rows.iter().zip(vals) {
            out[i] += scale * v;
        }
    }

    /// Grow-only row extension: returns a new matrix with `added` rows
    /// appended below the existing ones (`added[i]` holds row `m + i` as
    /// `(col, value)` entries). The column count is unchanged.
    ///
    /// Because the new row indices are strictly larger than every existing
    /// index, each column's entries stay sorted when the additions are
    /// appended at its end — the whole build is a single `O(nnz + k)`
    /// merge with no re-sorting, which is what makes incremental row
    /// addition on a live [`crate::Model`] cheap. Duplicate columns within
    /// one added row are coalesced by summation, zeros dropped (the same
    /// normalisation as [`CscMatrix::from_columns`]).
    ///
    /// # Panics
    ///
    /// Panics if an added entry's column is out of range.
    #[must_use]
    pub fn append_rows(&self, added: &[Vec<(usize, f64)>]) -> CscMatrix {
        let m_new = self.m + added.len();
        // Per-column additions, normalised per row (sorted by column after
        // the transpose below; entries within one column arrive in row
        // order because `added` is iterated in row order).
        let mut extra: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.n];
        for (i, row) in added.iter().enumerate() {
            let mut terms: Vec<(usize, f64)> =
                row.iter().copied().filter(|&(_, v)| v != 0.0).collect();
            terms.sort_unstable_by_key(|&(j, _)| j);
            let mut merged: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
            for (j, v) in terms {
                assert!(j < self.n, "column index out of range");
                match merged.last_mut() {
                    Some((lj, lv)) if *lj == j => *lv += v,
                    _ => merged.push((j, v)),
                }
            }
            for (j, v) in merged {
                if v != 0.0 {
                    extra[j].push((self.m + i, v));
                }
            }
        }
        let extra_nnz: usize = extra.iter().map(Vec::len).sum();
        let mut col_ptr = Vec::with_capacity(self.n + 1);
        let mut row_idx = Vec::with_capacity(self.values.len() + extra_nnz);
        let mut values = Vec::with_capacity(self.values.len() + extra_nnz);
        col_ptr.push(0);
        for j in 0..self.n {
            let (rows, vals) = self.col(j);
            row_idx.extend_from_slice(rows);
            values.extend_from_slice(vals);
            for &(i, v) in &extra[j] {
                row_idx.push(i);
                values.push(v);
            }
            col_ptr.push(row_idx.len());
        }
        CscMatrix {
            m: m_new,
            n: self.n,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Builds the row-major ([`RowMajor`]) companion view of this matrix
    /// — a counting sort over the row indices, `O(nnz + m + n)`. Columns
    /// come out ascending within each row because the columns are visited
    /// in order.
    #[must_use]
    pub fn to_row_major(&self) -> RowMajor {
        let mut row_ptr = vec![0usize; self.m + 1];
        for &i in &self.row_idx {
            row_ptr[i + 1] += 1;
        }
        for i in 0..self.m {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut next = row_ptr.clone();
        let mut col_idx = vec![0usize; self.values.len()];
        let mut values = vec![0.0f64; self.values.len()];
        for j in 0..self.n {
            let (rows, vals) = self.col(j);
            for (&i, &v) in rows.iter().zip(vals) {
                let slot = next[i];
                next[i] += 1;
                col_idx[slot] = j;
                values[slot] = v;
            }
        }
        RowMajor {
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// Row-major (CSR) companion view of a [`CscMatrix`].
///
/// The revised simplex prices the dual row `ρ = e_r B⁻¹` against the
/// structural columns. Column-wise that is a dense sweep — `αⱼ = ρ·Aⱼ`
/// for every column — but row-wise only the columns adjacent to `ρ`'s
/// non-zero rows can produce a non-zero `αⱼ`, which needs the row
/// adjacency the CSC layout cannot provide. The engine builds this view
/// once, and again only after row growth or when it loads a different
/// matrix.
#[derive(Debug, Clone, Default)]
pub struct RowMajor {
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl RowMajor {
    /// The `(col_indices, values)` slices of row `i` (columns ascending).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Non-zero count of row `i`.
    #[must_use]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        CscMatrix::from_columns(2, &[vec![(0, 1.0)], vec![(1, 3.0)], vec![(0, 2.0)]])
    }

    #[test]
    fn shape_and_nnz() {
        let a = sample();
        assert_eq!(a.rows(), 2);
        assert_eq!(a.cols(), 3);
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.col_nnz(1), 1);
    }

    #[test]
    fn columns_sorted_and_zero_dropped() {
        let a = CscMatrix::from_columns(3, &[vec![(2, 1.0), (0, 4.0), (1, 0.0)]]);
        let (rows, vals) = a.col(0);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[4.0, 1.0]);
    }

    #[test]
    fn dot_and_axpy() {
        let a = sample();
        assert_eq!(a.dot_col(&[10.0, 100.0], 1), 300.0);
        let mut out = vec![0.0; 2];
        a.axpy_col(&mut out, 2.0, 2);
        assert_eq!(out, vec![4.0, 0.0]);
    }

    #[test]
    fn duplicate_entries_coalesce_by_summation() {
        let a = CscMatrix::from_columns(
            3,
            &[vec![(1, 2.0), (0, 1.0), (1, 3.0), (2, 1.0), (2, -1.0)]],
        );
        let (rows, vals) = a.col(0);
        assert_eq!(rows, &[0, 1]);
        assert_eq!(vals, &[1.0, 5.0]);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn append_rows_preserves_columns_and_sorts() {
        let a = sample();
        // Append rows [ 5 0 -1 ] and [ 0 2 0 ] below the 2×3 sample.
        let b = a.append_rows(&[vec![(2, -1.0), (0, 5.0)], vec![(1, 2.0), (1, 0.0)]]);
        assert_eq!(b.rows(), 4);
        assert_eq!(b.cols(), 3);
        assert_eq!(b.nnz(), 6);
        let (rows, vals) = b.col(0);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[1.0, 5.0]);
        let (rows, vals) = b.col(1);
        assert_eq!(rows, &[1, 3]);
        assert_eq!(vals, &[3.0, 2.0]);
        let (rows, vals) = b.col(2);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[2.0, -1.0]);
        // Matches a from-scratch build of the same 4×3 matrix.
        let full = CscMatrix::from_columns(
            4,
            &[
                vec![(0, 1.0), (2, 5.0)],
                vec![(1, 3.0), (3, 2.0)],
                vec![(0, 2.0), (2, -1.0)],
            ],
        );
        assert_eq!(b, full);
    }

    #[test]
    fn append_rows_coalesces_duplicates_in_added_rows() {
        let a = sample();
        let b = a.append_rows(&[vec![(0, 1.0), (0, 2.0), (1, 1.0), (1, -1.0)]]);
        assert_eq!(b.rows(), 3);
        let (rows, vals) = b.col(0);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[1.0, 3.0]);
        assert_eq!(b.col_nnz(1), 1, "cancelled duplicate dropped");
    }

    #[test]
    fn row_major_matches_column_view() {
        let a = CscMatrix::from_columns(
            3,
            &[
                vec![(0, 1.0), (2, 5.0)],
                vec![(1, 3.0)],
                vec![(0, 2.0), (1, -1.0), (2, 4.0)],
                vec![],
            ],
        );
        let r = a.to_row_major();
        assert_eq!(r.row(0), (&[0usize, 2][..], &[1.0, 2.0][..]));
        assert_eq!(r.row(1), (&[1usize, 2][..], &[3.0, -1.0][..]));
        assert_eq!(r.row(2), (&[0usize, 2][..], &[5.0, 4.0][..]));
        assert_eq!(r.row_nnz(2), 2);
        // Every stored entry appears exactly once, at the same value.
        let total: usize = (0..3).map(|i| r.row_nnz(i)).sum();
        assert_eq!(total, a.nnz());
    }
}

//! CSR storage for sparse triangular matrices.
//!
//! [`SparseTri`] is the single storage type of the crate: a square `n × n`
//! lower- or upper-triangular matrix in **compressed sparse row** form, with
//! the diagonal held separately from the off-diagonal entries so the solve
//! executors run one branch-free dot product per row.  Construction
//! validates the structure eagerly — indices in bounds, every entry on the
//! declared [`Triangle`], rows sorted without duplicates, and (for
//! [`Diag::NonUnit`]) an invertible diagonal — so the executors never
//! re-validate on the hot path.
//!
//! A build reads its input once.  [`SparseTri::from_csr`] checks each row
//! with one branch-free scan — columns strictly increasing, the last one on
//! or below the diagonal (lower) or the first on or above it and the last
//! below `n` (upper) — and copies the row's off-diagonal run with one slice
//! copy into the columns and one into the values; a stored diagonal can
//! then only be the row's end next to the diagonal.  Only a row that fails
//! the scan is re-read entry by entry, to name its first bad entry.  Every
//! output array is allocated once at its final size, so after the scans a
//! build costs first touch of about 16 bytes per stored entry, as a copy of
//! the input would.
//!
//! Errors come in a fixed order: for `from_csr`, the first structural error
//! in row-major order (a `row_ptr` that decreases counts at its row); for
//! either constructor, then the first non-finite off-diagonal value in
//! row-major order, then the first row whose diagonal is non-finite or
//! below the pivot tolerance.  The stored diagonal of a [`Diag::Unit`]
//! matrix is ignored, not checked.
//!
//! The matrix owns its (lazily computed) level-set [`Schedule`] and content
//! hash: the matrix has no mutator, so the analysis and the hash each run
//! at most once per matrix and are reused by every later solve or lookup,
//! which is the access pattern of preconditioner applies inside iterative
//! solvers.

use crate::error::SparseError;
use crate::schedule::Schedule;
use crate::Result;
// The dense crate's pivot tolerance governs the diagonal invertibility
// check, so a diagonal this crate accepts is exactly one the dense solve of
// the densified matrix accepts too.
use dense::PIVOT_TOL;
use dense::{Diag, Matrix, Triangle};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A sparse triangular matrix in CSR form.
///
/// Off-diagonal entries live in the usual `(row_ptr, col_idx, values)`
/// arrays with strictly increasing column indices per row; the diagonal is a
/// dense `n`-vector (all ones for [`Diag::Unit`], where stored diagonal
/// input is ignored exactly like the dense kernels ignore it).
pub struct SparseTri {
    n: usize,
    tri: Triangle,
    diag: Diag,
    /// Off-diagonal CSR row pointer, `n + 1` entries.
    row_ptr: Vec<usize>,
    /// Off-diagonal column indices, strictly increasing within each row.
    col_idx: Vec<usize>,
    /// Off-diagonal values, parallel to `col_idx`.
    values: Vec<f64>,
    /// Dense diagonal, `n` entries (`1.0` everywhere for [`Diag::Unit`]).
    diag_vals: Vec<f64>,
    /// Lazily computed level-set schedule (see [`SparseTri::schedule`]).
    schedule: OnceLock<Schedule>,
    /// How many times the analysis has actually run for this matrix —
    /// observable through [`SparseTri::analysis_count`], so tests can assert
    /// the schedule is reused rather than recomputed per solve.
    analyses: AtomicUsize,
    /// Lazily computed transpose (see [`SparseTri::transposed`]): built once
    /// per matrix so repeated `Aᵀ·x = b` solves reuse both the transposed
    /// CSR arrays and the schedule cached on them.
    transpose_cache: OnceLock<Box<SparseTri>>,
    /// Lazily computed content hash (see [`SparseTri::content_hash`]), and
    /// in tests how many times it ran.
    content_hash: OnceLock<u64>,
    #[cfg(test)]
    hashes: AtomicUsize,
}

impl SparseTri {
    /// Builds a matrix from `(row, col, value)` triplets in any order.
    ///
    /// Diagonal triplets populate the diagonal ([`Diag::NonUnit`]) or are
    /// ignored ([`Diag::Unit`]); every [`Diag::NonUnit`] row must receive a
    /// diagonal entry of magnitude at least the pivot tolerance.  Duplicate
    /// positions, out-of-bounds indices, and entries on the wrong side of
    /// the diagonal are errors.
    pub fn from_triplets(
        n: usize,
        tri: Triangle,
        diag: Diag,
        entries: &[(usize, usize, f64)],
    ) -> Result<SparseTri> {
        let mut diag_vals = vec![if diag == Diag::Unit { 1.0 } else { 0.0 }; n];
        let mut diag_seen = vec![false; n];
        let mut off: Vec<(usize, usize, f64)> = Vec::with_capacity(entries.len());
        for &(i, j, v) in entries {
            if i >= n || j >= n {
                return Err(SparseError::EntryOutOfBounds { index: (i, j), n });
            }
            if i == j {
                if diag_seen[i] {
                    return Err(SparseError::DuplicateEntry { index: (i, j) });
                }
                diag_seen[i] = true;
                if diag == Diag::NonUnit {
                    diag_vals[i] = v;
                }
                continue;
            }
            let on_declared_side = match tri {
                Triangle::Lower => j < i,
                Triangle::Upper => j > i,
            };
            if !on_declared_side {
                return Err(SparseError::WrongTriangle { index: (i, j) });
            }
            off.push((i, j, v));
        }
        off.sort_by_key(|&(i, j, _)| (i, j));
        for w in off.windows(2) {
            if w[0].0 == w[1].0 && w[0].1 == w[1].1 {
                return Err(SparseError::DuplicateEntry {
                    index: (w[1].0, w[1].1),
                });
            }
        }

        let mut row_ptr = vec![0usize; n + 1];
        for &(i, _, _) in &off {
            row_ptr[i + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx: Vec<usize> = off.iter().map(|&(_, j, _)| j).collect();
        let values: Vec<f64> = off.iter().map(|&(_, _, v)| v).collect();

        Self::finish(n, tri, diag, row_ptr, col_idx, values, diag_vals)
    }

    /// Builds a matrix from raw CSR arrays, which may include diagonal
    /// entries inline (they are split out; ignored for [`Diag::Unit`]).
    ///
    /// `row_ptr` must have `n + 1` monotone entries ending at
    /// `col_idx.len() == values.len()`, and each row's column indices must
    /// be strictly increasing.  Of several defects, the one first in the
    /// module docs' error order is reported.
    pub fn from_csr(
        n: usize,
        tri: Triangle,
        diag: Diag,
        row_ptr: &[usize],
        col_idx: &[usize],
        values: &[f64],
    ) -> Result<SparseTri> {
        if row_ptr.len() != n + 1 {
            return Err(SparseError::MalformedCsr {
                reason: format!("row_ptr has {} entries, expected {}", row_ptr.len(), n + 1),
            });
        }
        if col_idx.len() != values.len() {
            return Err(SparseError::MalformedCsr {
                reason: format!(
                    "col_idx has {} entries but values has {}",
                    col_idx.len(),
                    values.len()
                ),
            });
        }
        if row_ptr[0] != 0 || *row_ptr.last().unwrap() != col_idx.len() {
            return Err(SparseError::MalformedCsr {
                reason: "row_ptr must start at 0 and end at the entry count".to_string(),
            });
        }
        let mut diag_vals = vec![if diag == Diag::Unit { 1.0 } else { 0.0 }; n];
        let mut out_ptr = Vec::with_capacity(n + 1);
        let mut out_idx = Vec::with_capacity(col_idx.len());
        let mut out_val = Vec::with_capacity(values.len());
        out_ptr.push(0);
        for i in 0..n {
            let (start, end) = (row_ptr[i], row_ptr[i + 1]);
            if start > end || end > col_idx.len() {
                return Err(SparseError::MalformedCsr {
                    reason: format!("row_ptr not monotone at row {i}"),
                });
            }
            let (cols, vals) = (&col_idx[start..end], &values[start..end]);
            if let (Some(&first), Some(&last)) = (cols.first(), cols.last()) {
                // One branch-free scan: strictly increasing columns with both
                // ends on the declared side (the diagonal allowed) and in
                // bounds make a valid row.  Only a row that fails it is
                // re-read entry by entry, for the error its first bad entry
                // names.
                let increasing = cols.windows(2).fold(true, |ok, w| ok & (w[0] < w[1]));
                let in_triangle = match tri {
                    Triangle::Lower => last <= i,
                    Triangle::Upper => (first >= i) & (last < n),
                };
                if !(increasing & in_triangle) {
                    check_row(n, tri, i, cols)?;
                }
                // A valid row can store its diagonal only at its end next
                // to it: last for lower, first for upper.
                let (stored_diag, off) = match tri {
                    Triangle::Lower if last == i => (Some(cols.len() - 1), 0..cols.len() - 1),
                    Triangle::Upper if first == i => (Some(0), 1..cols.len()),
                    _ => (None, 0..cols.len()),
                };
                if let (Some(k), Diag::NonUnit) = (stored_diag, diag) {
                    diag_vals[i] = vals[k];
                }
                out_idx.extend_from_slice(&cols[off.clone()]);
                out_val.extend_from_slice(&vals[off]);
            }
            out_ptr.push(out_idx.len());
        }
        Self::finish(n, tri, diag, out_ptr, out_idx, out_val, diag_vals)
    }

    /// Shared tail of the constructors: numerical-health checks (every
    /// stored value finite, diagonal invertible).
    fn finish(
        n: usize,
        tri: Triangle,
        diag: Diag,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
        diag_vals: Vec<f64>,
    ) -> Result<SparseTri> {
        // One branch-free pass over every value; only when it fails is the
        // first bad entry looked for, and its row: the last one starting at
        // or before it.
        let all_finite = values.iter().fold(true, |ok, v| ok & v.is_finite());
        let first_bad = || values.iter().position(|v| !v.is_finite());
        if let Some(k) = (!all_finite).then(first_bad).flatten() {
            let i = row_ptr.partition_point(|&p| p <= k) - 1;
            return Err(SparseError::NonFiniteEntry {
                index: (i, col_idx[k]),
                value: values[k],
            });
        }
        if diag == Diag::NonUnit {
            for (i, &d) in diag_vals.iter().enumerate() {
                if !d.is_finite() {
                    return Err(SparseError::NonFiniteEntry {
                        index: (i, i),
                        value: d,
                    });
                }
                if d.abs() < PIVOT_TOL {
                    return Err(SparseError::SingularDiagonal { row: i, value: d });
                }
            }
        }
        Ok(SparseTri {
            n,
            tri,
            diag,
            row_ptr,
            col_idx,
            values,
            diag_vals,
            schedule: OnceLock::new(),
            analyses: AtomicUsize::new(0),
            transpose_cache: OnceLock::new(),
            content_hash: OnceLock::new(),
            #[cfg(test)]
            hashes: AtomicUsize::new(0),
        })
    }

    /// Matrix dimension `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Which triangle the matrix occupies.
    #[inline]
    pub fn triangle(&self) -> Triangle {
        self.tri
    }

    /// Whether the diagonal is implicit ones.
    #[inline]
    pub fn diag(&self) -> Diag {
        self.diag
    }

    /// Number of stored entries: off-diagonal entries, plus the `n` diagonal
    /// entries when they are explicit ([`Diag::NonUnit`]).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz_off_diagonal()
            + if self.diag == Diag::NonUnit {
                self.n
            } else {
                0
            }
    }

    /// Number of stored off-diagonal entries.
    #[inline]
    pub fn nnz_off_diagonal(&self) -> usize {
        self.values.len()
    }

    /// The off-diagonal entries of row `i` as `(column indices, values)`,
    /// columns strictly increasing.
    #[inline]
    pub fn row_entries(&self, i: usize) -> (&[usize], &[f64]) {
        let (s, e) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[s..e], &self.values[s..e])
    }

    /// The diagonal value of row `i` (`1.0` for [`Diag::Unit`]).
    #[inline]
    pub fn diag_value(&self, i: usize) -> f64 {
        self.diag_vals[i]
    }

    /// The `n + 1` row offsets into [`SparseTri::col_idx`] /
    /// [`SparseTri::values`]: row `i` owns entries `row_ptr[i]..row_ptr[i + 1]`.
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column index of every stored off-diagonal entry, row by row.
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// The value of every stored off-diagonal entry, parallel to
    /// [`SparseTri::col_idx`].
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The `n` diagonal values (all `1.0` for [`Diag::Unit`]).
    #[inline]
    pub fn diag_values(&self) -> &[f64] {
        &self.diag_vals
    }

    /// The level-set [`Schedule`] for this matrix, computed on first use and
    /// cached for the lifetime of the matrix.
    ///
    /// Repeated solves with the same matrix — the dominant pattern in
    /// iterative-solver traffic, where one incomplete factor is applied
    /// every iteration — re-use the cached analysis; see
    /// [`SparseTri::analysis_count`].
    pub fn schedule(&self) -> &Schedule {
        self.schedule.get_or_init(|| {
            self.analyses.fetch_add(1, Ordering::Relaxed);
            Schedule::analyze(self)
        })
    }

    /// How many times the level-set analysis has run for this matrix (0
    /// before the first solve, and 1 forever after — asserted by tests).
    pub fn analysis_count(&self) -> usize {
        self.analyses.load(Ordering::Relaxed)
    }

    /// The matrix's [`dense::fingerprint::csr_content_hash`], computed on
    /// first use and kept: the matrix has no mutator.  Equal content hashes
    /// equal however it was built.
    pub fn content_hash(&self) -> u64 {
        *self.content_hash.get_or_init(|| {
            #[cfg(test)]
            self.hashes.fetch_add(1, Ordering::Relaxed);
            dense::fingerprint::csr_content_hash(
                self.n,
                self.tri,
                self.diag,
                &self.row_ptr,
                &self.col_idx,
                &self.values,
                &self.diag_vals,
            )
        })
    }

    /// Densify into a [`dense::Matrix`] (diagonal ones made explicit for
    /// [`Diag::Unit`]).  This is the bridge the dense-fallback solve path
    /// and the differential tests use.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        for i in 0..self.n {
            let (cols, vals) = self.row_entries(i);
            for (&j, &v) in cols.iter().zip(vals) {
                m[(i, j)] = v;
            }
            m[(i, i)] = self.diag_vals[i];
        }
        m
    }

    /// The transposed matrix (a lower-triangular matrix becomes upper, and
    /// vice versa).  The transpose carries the same [`Diag`] kind; its
    /// schedule is computed fresh on first use.
    pub fn transpose(&self) -> SparseTri {
        let tri = match self.tri {
            Triangle::Lower => Triangle::Upper,
            Triangle::Upper => Triangle::Lower,
        };
        // Column counts of `self` become row counts of the transpose.
        let mut row_ptr = vec![0usize; self.n + 1];
        for &j in &self.col_idx {
            row_ptr[j + 1] += 1;
        }
        for i in 0..self.n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut fill = row_ptr.clone();
        let mut col_idx = vec![0usize; self.col_idx.len()];
        let mut values = vec![0.0f64; self.values.len()];
        for i in 0..self.n {
            let (cols, vals) = self.row_entries(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let slot = fill[j];
                fill[j] += 1;
                col_idx[slot] = i;
                values[slot] = v;
            }
        }
        SparseTri {
            n: self.n,
            tri,
            diag: self.diag,
            row_ptr,
            col_idx,
            values,
            diag_vals: self.diag_vals.clone(),
            schedule: OnceLock::new(),
            analyses: AtomicUsize::new(0),
            transpose_cache: OnceLock::new(),
            content_hash: OnceLock::new(),
            #[cfg(test)]
            hashes: AtomicUsize::new(0),
        }
    }

    /// The cached transpose of this matrix, built on first use and reused
    /// for the lifetime of the matrix — the analyze-once pattern applied to
    /// transposed solves (`Aᵀ·x = b`): the O(nnz) transposition runs once,
    /// and the transpose's own level-set schedule is cached on it.
    ///
    /// This is what the transposed solve executors
    /// ([`SparseTri::solve_with`](crate::solve) with
    /// [`dense::Transpose::Yes`]) run on.
    pub fn transposed(&self) -> &SparseTri {
        self.transpose_cache
            .get_or_init(|| Box::new(self.transpose()))
    }
}

/// Reads row `i`'s columns entry by entry and names the first bad one: out
/// of bounds, a repeat of the previous column, below the previous column,
/// or on the wrong side of the diagonal, checked in that order per entry.
fn check_row(n: usize, tri: Triangle, i: usize, cols: &[usize]) -> Result<()> {
    let mut prev: Option<usize> = None;
    for &j in cols {
        if j >= n {
            return Err(SparseError::EntryOutOfBounds { index: (i, j), n });
        }
        if prev == Some(j) {
            return Err(SparseError::DuplicateEntry { index: (i, j) });
        }
        if prev.is_some_and(|p| j < p) {
            return Err(SparseError::UnsortedRow { row: i });
        }
        prev = Some(j);
        let on_declared_side = match tri {
            Triangle::Lower => j <= i,
            Triangle::Upper => j >= i,
        };
        if !on_declared_side {
            return Err(SparseError::WrongTriangle { index: (i, j) });
        }
    }
    Ok(())
}

impl Clone for SparseTri {
    /// Clones the matrix *and* its caches (re-analyzing or re-hashing
    /// identical content would be wasted work); the clone's analysis count
    /// starts fresh.
    fn clone(&self) -> SparseTri {
        SparseTri {
            n: self.n,
            tri: self.tri,
            diag: self.diag,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values: self.values.clone(),
            diag_vals: self.diag_vals.clone(),
            schedule: self.schedule.clone(),
            analyses: AtomicUsize::new(0),
            transpose_cache: self.transpose_cache.clone(),
            content_hash: self.content_hash.clone(),
            #[cfg(test)]
            hashes: AtomicUsize::new(0),
        }
    }
}

impl std::fmt::Debug for SparseTri {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparseTri")
            .field("n", &self.n)
            .field("tri", &self.tri)
            .field("diag", &self.diag)
            .field("nnz", &self.nnz())
            .finish()
    }
}

// Shared-analysis audit: a cached matrix serves concurrent solves — the
// serve crate's plan cache hands one `Arc<SparseTri>` to every request
// that hits, and the first solve's or lookup's `OnceLock::get_or_init` may
// race with others.  That is only sound if the matrix *and every cache it
// embeds* (level schedule, transpose mirror, content hash) are
// `Send + Sync`; asserted at compile time so a future cache field built on
// `Cell`/`Rc` fails this build rather than a downstream crate's.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SparseTri>();
    assert_send_sync::<crate::schedule::Schedule>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn small_lower() -> SparseTri {
        // [ 2 . . ]
        // [ 1 3 . ]
        // [ . 4 5 ]
        SparseTri::from_triplets(
            3,
            Triangle::Lower,
            Diag::NonUnit,
            &[
                (0, 0, 2.0),
                (1, 0, 1.0),
                (1, 1, 3.0),
                (2, 1, 4.0),
                (2, 2, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn triplets_build_sorted_csr() {
        let m = small_lower();
        assert_eq!(m.n(), 3);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.nnz_off_diagonal(), 2);
        assert_eq!(m.row_entries(0), (&[][..], &[][..]));
        assert_eq!(m.row_entries(1), (&[0usize][..], &[1.0][..]));
        assert_eq!(m.row_entries(2), (&[1usize][..], &[4.0][..]));
        assert_eq!(m.diag_value(2), 5.0);
    }

    #[test]
    fn triplets_in_any_order_give_the_same_matrix() {
        let shuffled = SparseTri::from_triplets(
            3,
            Triangle::Lower,
            Diag::NonUnit,
            &[
                (2, 2, 5.0),
                (1, 1, 3.0),
                (2, 1, 4.0),
                (0, 0, 2.0),
                (1, 0, 1.0),
            ],
        )
        .unwrap();
        assert_eq!(shuffled.to_dense(), small_lower().to_dense());
    }

    #[test]
    fn from_csr_accepts_inline_diagonal() {
        // Same matrix as `small_lower`, diagonal inline.
        let m = SparseTri::from_csr(
            3,
            Triangle::Lower,
            Diag::NonUnit,
            &[0, 1, 3, 5],
            &[0, 0, 1, 1, 2],
            &[2.0, 1.0, 3.0, 4.0, 5.0],
        )
        .unwrap();
        assert_eq!(m.to_dense(), small_lower().to_dense());
    }

    #[test]
    fn validation_rejects_bad_structure() {
        let oob = SparseTri::from_triplets(
            2,
            Triangle::Lower,
            Diag::NonUnit,
            &[(0, 0, 1.0), (1, 5, 1.0)],
        );
        assert!(matches!(oob, Err(SparseError::EntryOutOfBounds { .. })));

        let wrong = SparseTri::from_triplets(
            2,
            Triangle::Lower,
            Diag::NonUnit,
            &[(0, 0, 1.0), (1, 1, 1.0), (0, 1, 2.0)],
        );
        assert!(matches!(wrong, Err(SparseError::WrongTriangle { .. })));

        let dup = SparseTri::from_triplets(
            2,
            Triangle::Lower,
            Diag::NonUnit,
            &[(0, 0, 1.0), (1, 1, 1.0), (1, 0, 2.0), (1, 0, 3.0)],
        );
        assert!(matches!(dup, Err(SparseError::DuplicateEntry { .. })));

        let sing = SparseTri::from_triplets(2, Triangle::Lower, Diag::NonUnit, &[(0, 0, 1.0)]);
        assert!(matches!(
            sing,
            Err(SparseError::SingularDiagonal { row: 1, .. })
        ));
    }

    #[test]
    fn from_csr_rejects_malformed_arrays() {
        let bad_ptr = SparseTri::from_csr(2, Triangle::Lower, Diag::Unit, &[0, 2], &[0], &[1.0]);
        assert!(matches!(bad_ptr, Err(SparseError::MalformedCsr { .. })));

        let shrinking =
            SparseTri::from_csr(2, Triangle::Lower, Diag::Unit, &[0, 1, 0], &[0], &[1.0]);
        assert!(matches!(shrinking, Err(SparseError::MalformedCsr { .. })));

        let unsorted = SparseTri::from_csr(
            3,
            Triangle::Lower,
            Diag::Unit,
            &[0, 0, 0, 2],
            &[1, 0],
            &[1.0, 2.0],
        );
        assert!(matches!(unsorted, Err(SparseError::UnsortedRow { row: 2 })));

        let dup = SparseTri::from_csr(
            3,
            Triangle::Lower,
            Diag::Unit,
            &[0, 0, 0, 2],
            &[0, 0],
            &[1.0, 2.0],
        );
        assert!(matches!(dup, Err(SparseError::DuplicateEntry { .. })));

        // Row 0 of a lower triangle storing column 1.
        let wrong = SparseTri::from_csr(2, Triangle::Lower, Diag::Unit, &[0, 1, 1], &[1], &[1.0]);
        assert!(matches!(
            wrong,
            Err(SparseError::WrongTriangle { index: (0, 1) })
        ));
    }

    #[test]
    fn from_csr_reads_an_upper_factor_with_its_diagonal_first() {
        // [ 2 1 . ]
        // [ . 3 4 ]
        // [ . . 5 ]
        let m = SparseTri::from_csr(
            3,
            Triangle::Upper,
            Diag::NonUnit,
            &[0, 2, 4, 5],
            &[0, 1, 1, 2, 2],
            &[2.0, 1.0, 3.0, 4.0, 5.0],
        )
        .unwrap();
        assert_eq!(m.row_ptr(), &[0, 1, 2, 2]);
        assert_eq!(m.col_idx(), &[1, 2]);
        assert_eq!(m.values(), &[1.0, 4.0]);
        assert_eq!(m.diag_values(), &[2.0, 3.0, 5.0]);
        assert_eq!(m.to_dense(), small_lower().to_dense().transpose());
    }

    #[test]
    fn from_csr_rejects_an_upper_row_reaching_below_the_diagonal() {
        // Row 1 stores column 0, then its diagonal.
        let wrong = SparseTri::from_csr(
            2,
            Triangle::Upper,
            Diag::NonUnit,
            &[0, 1, 3],
            &[0, 0, 1],
            &[1.0, 2.0, 1.0],
        );
        assert_eq!(
            wrong.unwrap_err(),
            SparseError::WrongTriangle { index: (1, 0) }
        );
    }

    #[test]
    fn from_csr_rejects_an_upper_row_ending_out_of_bounds() {
        // Row 0's last column is n; every column before it is valid.
        let oob = SparseTri::from_csr(
            3,
            Triangle::Upper,
            Diag::Unit,
            &[0, 3, 3, 3],
            &[0, 2, 3],
            &[1.0, 2.0, 3.0],
        );
        assert_eq!(
            oob.unwrap_err(),
            SparseError::EntryOutOfBounds {
                index: (0, 3),
                n: 3
            }
        );
    }

    /// `from_csr` as it read its input before the one-scan rewrite: one
    /// entry at a time, then the per-row non-finite loop `finish` ran then,
    /// inline ahead of the shared tail.  The oracle of every result and
    /// every error [`SparseTri::from_csr`] gives.
    fn reference_from_csr(
        n: usize,
        tri: Triangle,
        diag: Diag,
        row_ptr: &[usize],
        col_idx: &[usize],
        values: &[f64],
    ) -> Result<SparseTri> {
        if row_ptr.len() != n + 1 {
            return Err(SparseError::MalformedCsr {
                reason: format!("row_ptr has {} entries, expected {}", row_ptr.len(), n + 1),
            });
        }
        if col_idx.len() != values.len() {
            return Err(SparseError::MalformedCsr {
                reason: format!(
                    "col_idx has {} entries but values has {}",
                    col_idx.len(),
                    values.len()
                ),
            });
        }
        if row_ptr[0] != 0 || *row_ptr.last().unwrap() != col_idx.len() {
            return Err(SparseError::MalformedCsr {
                reason: "row_ptr must start at 0 and end at the entry count".to_string(),
            });
        }
        let mut diag_vals = vec![if diag == Diag::Unit { 1.0 } else { 0.0 }; n];
        let mut out_ptr = vec![0usize; n + 1];
        let mut out_idx = Vec::with_capacity(col_idx.len());
        let mut out_val = Vec::with_capacity(values.len());
        for i in 0..n {
            let (start, end) = (row_ptr[i], row_ptr[i + 1]);
            if start > end || end > col_idx.len() {
                return Err(SparseError::MalformedCsr {
                    reason: format!("row_ptr not monotone at row {i}"),
                });
            }
            let mut prev: Option<usize> = None;
            for (&j, &v) in col_idx[start..end].iter().zip(&values[start..end]) {
                if j >= n {
                    return Err(SparseError::EntryOutOfBounds { index: (i, j), n });
                }
                if prev == Some(j) {
                    return Err(SparseError::DuplicateEntry { index: (i, j) });
                }
                if prev.is_some_and(|p| j < p) {
                    return Err(SparseError::UnsortedRow { row: i });
                }
                prev = Some(j);
                if j == i {
                    if diag == Diag::NonUnit {
                        diag_vals[i] = v;
                    }
                    continue;
                }
                let on_declared_side = match tri {
                    Triangle::Lower => j < i,
                    Triangle::Upper => j > i,
                };
                if !on_declared_side {
                    return Err(SparseError::WrongTriangle { index: (i, j) });
                }
                out_idx.push(j);
                out_val.push(v);
            }
            out_ptr[i + 1] = out_idx.len();
        }
        for i in 0..n {
            for (&j, &v) in out_idx[out_ptr[i]..out_ptr[i + 1]]
                .iter()
                .zip(&out_val[out_ptr[i]..out_ptr[i + 1]])
            {
                if !v.is_finite() {
                    return Err(SparseError::NonFiniteEntry {
                        index: (i, j),
                        value: v,
                    });
                }
            }
        }
        SparseTri::finish(n, tri, diag, out_ptr, out_idx, out_val, diag_vals)
    }

    /// One row of raw CSR input: `(column, value)` in stored order.
    type RawRow = Vec<(usize, f64)>;

    /// A valid factor's rows: up to four distinct off-diagonal columns on
    /// `tri`'s side, one row in ten empty of them, increasing, with the
    /// diagonal at its end of the row (last for lower, first for upper) in
    /// every row when `all_diag`, else in about half of them.
    fn random_rows(
        n: usize,
        tri: Triangle,
        all_diag: bool,
        rng: &mut dense::gen::SplitMix64,
    ) -> Vec<RawRow> {
        (0..n)
            .map(|i| {
                let mut side: Vec<usize> = match tri {
                    Triangle::Lower => (0..i).collect(),
                    Triangle::Upper => (i + 1..n).collect(),
                };
                let fill = if rng.below(10) == 0 { 0 } else { rng.below(5) };
                let fill = (fill as usize).min(side.len());
                for k in 0..fill {
                    let pick = k + rng.below((side.len() - k) as u64) as usize;
                    side.swap(k, pick);
                }
                side.truncate(fill);
                side.sort_unstable();
                let mut row: RawRow = side.iter().map(|&j| (j, rng.uniform(-1.0, 1.0))).collect();
                if all_diag || rng.below(2) == 0 {
                    let d = (
                        i,
                        rng.uniform(1.0, 2.0) * if rng.below(2) == 0 { 1.0 } else { -1.0 },
                    );
                    match tri {
                        Triangle::Lower => row.push(d),
                        Triangle::Upper => row.insert(0, d),
                    }
                }
                row
            })
            .collect()
    }

    /// The defects a row of [`random_rows`] can be given, by number.
    const ROW_DEFECTS: [&str; 7] = [
        "out of bounds",
        "duplicate",
        "unsorted",
        "wrong triangle",
        "non-finite off the diagonal",
        "non-finite diagonal",
        "zero diagonal",
    ];

    /// Gives row `i` defect `kind` (an index into [`ROW_DEFECTS`]) if it
    /// can take it, and says whether it did.
    fn spoil_row(
        row: &mut RawRow,
        i: usize,
        n: usize,
        tri: Triangle,
        kind: usize,
        rng: &mut dense::gen::SplitMix64,
    ) -> bool {
        // A random entry of the row, on the diagonal or off it.
        let mut entry = |row: &RawRow, on_diag: bool| {
            let hits: Vec<usize> = (0..row.len())
                .filter(|&k| (row[k].0 == i) == on_diag)
                .collect();
            (!hits.is_empty()).then(|| hits[rng.below(hits.len() as u64) as usize])
        };
        let (off_diag, on_diag) = (entry(row, false), entry(row, true));
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3) as usize];
        match kind {
            0 => row.push((n + rng.below(3) as usize, 1.0)),
            1 => match off_diag.or(on_diag) {
                Some(k) => row.insert(k + 1, (row[k].0, 0.5)),
                None => return false,
            },
            2 if row.len() >= 2 => {
                let k = rng.below(row.len() as u64 - 1) as usize;
                row.swap(k, k + 1);
            }
            3 => match tri {
                Triangle::Lower if i + 1 < n => {
                    row.push((i + 1 + rng.below((n - i - 1) as u64) as usize, 1.0))
                }
                Triangle::Upper if i > 0 => row.insert(0, (rng.below(i as u64) as usize, 1.0)),
                _ => return false,
            },
            4 => match off_diag {
                Some(k) => row[k].1 = bad,
                None => return false,
            },
            5 => match on_diag {
                Some(k) => row[k].1 = bad,
                None => return false,
            },
            6 => match (on_diag, rng.below(2)) {
                (Some(k), 0) => row[k].1 = 0.0,
                (Some(k), _) => {
                    row.remove(k);
                }
                (None, _) => return false,
            },
            _ => return false,
        }
        true
    }

    /// Gives the first row at or after a random one, other than `skip`,
    /// that can take it defect `kind`; returns that row.
    fn spoil_some_row(
        rows: &mut [RawRow],
        tri: Triangle,
        kind: usize,
        skip: Option<usize>,
        rng: &mut dense::gen::SplitMix64,
    ) -> Option<usize> {
        let n = rows.len();
        let start = if n == 0 {
            0
        } else {
            rng.below(n as u64) as usize
        };
        (0..n)
            .map(|d| (start + d) % n)
            .filter(|&i| Some(i) != skip)
            .find(|&i| spoil_row(&mut rows[i], i, n, tri, kind, rng))
    }

    /// Everything a `from_csr` result shows: on success the bits of every
    /// stored array and the content hash, on failure the error (as text, so
    /// a NaN payload compares equal to itself).
    type Outcome = std::result::Result<(Vec<usize>, Vec<usize>, Vec<u64>, Vec<u64>, u64), String>;

    fn outcome(r: Result<SparseTri>) -> Outcome {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        r.map(|m| {
            (
                m.row_ptr().to_vec(),
                m.col_idx().to_vec(),
                bits(m.values()),
                bits(m.diag_values()),
                m.content_hash(),
            )
        })
        .map_err(|e| format!("{e:?}"))
    }

    #[test]
    fn from_csr_gives_what_the_per_entry_reference_gives() {
        use std::collections::BTreeMap;
        // Defect plans: none, a malformed `row_ptr` (or array length), each
        // row defect alone, and two row defects in two different rows.
        const PLANS: usize = 2 + ROW_DEFECTS.len() + 1;
        let mut seen: BTreeMap<String, usize> = BTreeMap::new();
        for n in [0, 1, 2, 17, 200] {
            for tri in [Triangle::Lower, Triangle::Upper] {
                for diag in [Diag::Unit, Diag::NonUnit] {
                    for plan in 0..PLANS {
                        for seed in 0..6u64 {
                            let mut rng = dense::gen::SplitMix64::new(
                                (n as u64) << 32 ^ (plan as u64) << 8 ^ seed,
                            );
                            let all_diag = diag == Diag::NonUnit || seed % 2 == 0;
                            let mut rows = random_rows(n, tri, all_diag, &mut rng);
                            if (2..PLANS - 1).contains(&plan) {
                                spoil_some_row(&mut rows, tri, plan - 2, None, &mut rng);
                            } else if plan == PLANS - 1 {
                                let k = ROW_DEFECTS.len() as u64;
                                let (a, b) = (rng.below(k) as usize, rng.below(k) as usize);
                                let skip = spoil_some_row(&mut rows, tri, a, None, &mut rng);
                                spoil_some_row(&mut rows, tri, b, skip, &mut rng);
                            }
                            let mut row_ptr = vec![0];
                            let (mut col_idx, mut values) = (Vec::new(), Vec::new());
                            for row in &rows {
                                col_idx.extend(row.iter().map(|e| e.0));
                                values.extend(row.iter().map(|e| e.1));
                                row_ptr.push(col_idx.len());
                            }
                            if plan == 1 {
                                match rng.below(4) {
                                    0 if n >= 2 => {
                                        let i = 1 + rng.below(n as u64 - 1) as usize;
                                        row_ptr[i] = row_ptr[i + 1] + 1 + rng.below(3) as usize;
                                    }
                                    0 | 1 => row_ptr.push(col_idx.len()),
                                    2 => row_ptr[0] = 1,
                                    _ => values.push(1.0),
                                }
                            }
                            let args = (n, tri, diag, &row_ptr, &col_idx, &values);
                            let got = outcome(SparseTri::from_csr(
                                n, tri, diag, &row_ptr, &col_idx, &values,
                            ));
                            let want = outcome(reference_from_csr(
                                n, tri, diag, &row_ptr, &col_idx, &values,
                            ));
                            assert_eq!(got, want, "plan {plan}, seed {seed}: {args:?}");
                            let kind = match &got {
                                Ok(_) => "Ok".to_string(),
                                Err(e) => e.split([' ', '{']).next().unwrap().to_string(),
                            };
                            *seen.entry(kind).or_default() += 1;
                        }
                    }
                }
            }
        }
        for kind in [
            "Ok",
            "MalformedCsr",
            "EntryOutOfBounds",
            "DuplicateEntry",
            "UnsortedRow",
            "WrongTriangle",
            "NonFiniteEntry",
            "SingularDiagonal",
        ] {
            assert!(seen.get(kind).is_some_and(|&c| c >= 10), "{kind}: {seen:?}");
        }
    }

    #[test]
    fn constructors_reject_non_finite_entries() {
        // NaN off-diagonal via triplets.
        let nan_off = SparseTri::from_triplets(
            3,
            Triangle::Lower,
            Diag::NonUnit,
            &[(0, 0, 1.0), (1, 1, 1.0), (2, 0, f64::NAN), (2, 2, 1.0)],
        );
        assert!(matches!(
            nan_off,
            Err(SparseError::NonFiniteEntry { index: (2, 0), .. })
        ));

        // Infinite diagonal via triplets (NonUnit: the diagonal is read).
        let inf_diag = SparseTri::from_triplets(
            2,
            Triangle::Lower,
            Diag::NonUnit,
            &[(0, 0, 1.0), (1, 1, f64::INFINITY)],
        );
        assert!(matches!(
            inf_diag,
            Err(SparseError::NonFiniteEntry { index: (1, 1), .. })
        ));

        // Unit diagonal: a stored non-finite diagonal entry is dropped into
        // the implicit-ones overlay, not checked...
        let unit_diag = SparseTri::from_csr(
            2,
            Triangle::Lower,
            Diag::Unit,
            &[0, 1, 2],
            &[0, 1],
            &[f64::NAN, f64::INFINITY],
        )
        .unwrap();
        assert_eq!(unit_diag.diag_values(), &[1.0, 1.0]);
        // ... but an off-diagonal one still rejects.
        let unit_off = SparseTri::from_csr(
            2,
            Triangle::Lower,
            Diag::Unit,
            &[0, 0, 1],
            &[0],
            &[f64::NEG_INFINITY],
        );
        assert!(matches!(
            unit_off,
            Err(SparseError::NonFiniteEntry { index: (1, 0), .. })
        ));
    }

    #[test]
    fn unit_diag_ignores_stored_diagonal() {
        let m = SparseTri::from_triplets(
            2,
            Triangle::Lower,
            Diag::Unit,
            &[(0, 0, 123.0), (1, 0, 2.0)],
        )
        .unwrap();
        assert_eq!(m.diag_value(0), 1.0);
        assert_eq!(m.to_dense()[(0, 0)], 1.0);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn to_dense_round_trips_structure() {
        let m = small_lower();
        let d = m.to_dense();
        assert!(d.is_lower_triangular());
        assert_eq!(d[(1, 0)], 1.0);
        assert_eq!(d[(2, 0)], 0.0);
        assert_eq!(d[(2, 2)], 5.0);
    }

    #[test]
    fn transpose_flips_triangle_and_matches_dense_transpose() {
        let m = small_lower();
        let t = m.transpose();
        assert_eq!(t.triangle(), Triangle::Upper);
        assert_eq!(t.to_dense(), m.to_dense().transpose());
        // Transposing back recovers the original.
        assert_eq!(t.transpose().to_dense(), m.to_dense());
    }

    #[test]
    fn transposed_is_cached_and_reused() {
        let m = small_lower();
        let t1 = m.transposed() as *const SparseTri;
        let t2 = m.transposed() as *const SparseTri;
        assert_eq!(t1, t2, "transpose must be built once and cached");
        assert_eq!(m.transposed().to_dense(), m.to_dense().transpose());
        // The schedule analyzed on the cached transpose is itself reused.
        let _ = m.transposed().schedule();
        let _ = m.transposed().schedule();
        assert_eq!(m.transposed().analysis_count(), 1);
    }

    #[test]
    fn clone_carries_the_cached_schedule() {
        let m = small_lower();
        let _ = m.schedule();
        assert_eq!(m.analysis_count(), 1);
        let c = m.clone();
        assert_eq!(c.analysis_count(), 0);
        let _ = c.schedule(); // already cached: no new analysis
        assert_eq!(c.analysis_count(), 0);
    }

    /// The hash [`SparseTri::content_hash`] memoises, recomputed cold.
    fn cold_hash(m: &SparseTri) -> u64 {
        dense::fingerprint::csr_content_hash(
            m.n(),
            m.triangle(),
            m.diag(),
            m.row_ptr(),
            m.col_idx(),
            m.values(),
            m.diag_values(),
        )
    }

    #[test]
    fn content_hash_is_the_cold_hash_however_the_matrix_was_built() {
        let m = small_lower();
        assert_eq!(m.content_hash(), cold_hash(&m));
        // The same content as CSR arrays with the diagonal inline.
        let csr = SparseTri::from_csr(
            3,
            Triangle::Lower,
            Diag::NonUnit,
            &[0, 1, 3, 5],
            &[0, 0, 1, 1, 2],
            &[2.0, 1.0, 3.0, 4.0, 5.0],
        )
        .unwrap();
        assert_eq!(csr.content_hash(), cold_hash(&csr));
        assert_eq!(csr.content_hash(), m.content_hash());
        // A clone carries a filled memo, and fills an empty one alike.
        let (warm, cold) = (m.clone(), small_lower().clone());
        assert_eq!(warm.hashes.load(Ordering::Relaxed), 0);
        assert_eq!(warm.content_hash(), cold_hash(&m));
        assert_eq!(warm.hashes.load(Ordering::Relaxed), 0, "carried, not rerun");
        assert_eq!(cold.content_hash(), cold_hash(&m));
        assert_eq!(cold.hashes.load(Ordering::Relaxed), 1);
        // The transpose is other content, with its own value.
        let t = m.transposed();
        assert_eq!(t.content_hash(), cold_hash(t));
        assert_ne!(t.content_hash(), m.content_hash());
    }

    #[test]
    fn racing_first_content_hash_calls_hash_once() {
        use std::sync::{Arc, Barrier};
        let m = Arc::new(crate::gen::random_lower(4096, 8, 3));
        let start = Arc::new(Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (m, start) = (Arc::clone(&m), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    m.content_hash()
                })
            })
            .collect();
        let seen: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(seen.iter().all(|&h| h == cold_hash(&m)), "{seen:x?}");
        assert_eq!(
            m.hashes.load(Ordering::Relaxed),
            1,
            "one hash for four racers"
        );
    }

    #[test]
    fn debug_is_compact() {
        let s = format!("{:?}", small_lower());
        assert!(s.contains("SparseTri"));
        assert!(s.contains("nnz"));
    }

    #[test]
    fn concurrent_solves_share_one_analysis() {
        use crate::solve::SolveOpts;
        use std::sync::Arc;
        // One shared matrix, four racing solver threads: the OnceLock
        // caches must hand every thread the same analysis (exactly one
        // build even when the first uses race), and the level sweep's
        // answer must be bitwise identical across threads.  Levels of
        // 8 192 rows clear the go-parallel rule, so each solve really
        // runs two workers.
        let m = Arc::new(crate::gen::deep_narrow_lower(40_000, 8192, 6, 9));
        let b = crate::gen::rhs_vec(m.n(), 10);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = Arc::clone(&m);
            let mut x = b.clone();
            handles.push(std::thread::spawn(move || {
                m.solve_with(&SolveOpts::new().threads(2), &mut x).unwrap();
                x
            }));
        }
        let results: Vec<Vec<f64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0], "concurrent solves must agree bitwise");
        }
        assert_eq!(
            m.analysis_count(),
            1,
            "four racing threads must share one schedule analysis"
        );
        assert_eq!(
            m.execution_shape(&SolveOpts::new().threads(2), 1).workers,
            2
        );
    }
}

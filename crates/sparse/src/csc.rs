//! CSC storage for sparse triangular matrices and the synchronization-free
//! column-sweep executors.
//!
//! [`SparseTriCsc`] is the column-major twin of [`SparseTri`]: the same
//! square lower- or upper-triangular matrix, stored as **compressed sparse
//! columns** with the diagonal held separately.  Construction mirrors the
//! CSR validation exactly — indices in bounds, entries on the declared
//! [`Triangle`], columns sorted without duplicates, every stored value
//! finite, and (for [`Diag::NonUnit`]) an invertible diagonal.
//!
//! Column storage is what the **sync-free** solve of Liu–Li–Hogg–Duff–
//! Vinter (Euro-Par'16; see `SNIPPETS.md`) sweeps: when column `j`'s value
//! `x[j]` is final, the column's entries are exactly the contributions
//! `a_ij · x[j]` owed to later rows, so the solve needs **no dependency
//! analysis and no barriers** — just a per-row atomic counter that says how
//! many contributions have landed.  `SparseTriCsc::run_syncfree` is that
//! executor (also reachable from [`SparseTri`] through
//! `SchedulePolicy::SyncFree`, via the cached [`SparseTri::csc`] mirror):
//!
//! * the columns are split into one contiguous chunk per worker, swept in
//!   dependency order (ascending for [`Triangle::Lower`], descending for
//!   [`Triangle::Upper`]);
//! * before finishing column `j`, its owner spins/yields until the row's
//!   atomic in-degree counter reaches the row's off-diagonal entry count
//!   (every contribution has landed), then reduces the per-worker partial
//!   sums **in fixed worker order**, divides by the diagonal, and pushes
//!   `a_ij · x[j]` into each dependent row's partial-sum slab;
//! * contributions accumulate in *per-worker* slabs (worker `w` only ever
//!   writes slab `w`, in its own deterministic column order), so no
//!   floating-point add ever happens in a timing-dependent order.
//!
//! Deadlock-freedom: every dependency of column `j` is a column `< j`
//! (`> j` for upper), each worker sweeps its chunk in dependency order, and
//! a waiting worker always waits on strictly earlier columns — so the
//! earliest (latest, for upper) unfinished column is always runnable by its
//! owner.
//!
//! **Determinism caveat** (vs. the barriered policies): the chunk split,
//! the per-slab accumulation order and the slab reduction order are all
//! fixed functions of `(n, workers)`, so sync-free solves are **bitwise
//! reproducible for a fixed worker count** — but *changing the worker
//! count re-associates the per-row reduction*, so results across worker
//! counts agree only to rounding (1e-12 in the test suites), not bitwise.
//! The Level/Merged executors keep the stronger bitwise-across-worker-
//! counts guarantee; this executor trades it for zero analysis and zero
//! barriers, which wins on one-shot solves.

use crate::csr::SparseTri;
use crate::error::SparseError;
use crate::solve::{
    chunk_bounds, wait_ready, wait_ready_counted, SharedPtr, SolveOpts, PAR_MIN_WORK,
};
use crate::Result;
// Same pivot tolerance as the CSR constructors, so the two storage forms
// accept exactly the same matrices.
use dense::PIVOT_TOL;
use dense::{dense_threads, run_region, Diag, FlopCount, Matrix, Transpose, Triangle};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// A sparse triangular matrix in CSC form.
///
/// Off-diagonal entries live in `(col_ptr, row_idx, values)` arrays with
/// strictly increasing row indices per column; the diagonal is a dense
/// `n`-vector (all ones for [`Diag::Unit`], where stored diagonal input is
/// ignored exactly like the CSR and dense constructors ignore it).
pub struct SparseTriCsc {
    n: usize,
    tri: Triangle,
    diag: Diag,
    /// Off-diagonal CSC column pointer, `n + 1` entries.
    col_ptr: Vec<usize>,
    /// Off-diagonal row indices, strictly increasing within each column.
    row_idx: Vec<usize>,
    /// Off-diagonal values, parallel to `row_idx`.
    values: Vec<f64>,
    /// Dense diagonal, `n` entries (`1.0` everywhere for [`Diag::Unit`]).
    diag_vals: Vec<f64>,
    /// Lazily computed per-row off-diagonal entry counts — the sync-free
    /// executor's in-degree targets.  One O(nnz) counting pass, cached;
    /// this is storage bookkeeping, not a dependency analysis (no level
    /// sets, no DAG traversal).
    in_degrees: OnceLock<Vec<u32>>,
    /// Lazily computed transpose (see [`SparseTriCsc::transposed`]).
    transpose_cache: OnceLock<Box<SparseTriCsc>>,
}

impl SparseTriCsc {
    /// Builds a matrix from `(row, col, value)` triplets in any order,
    /// with validation mirroring [`SparseTri::from_triplets`]: diagonal
    /// triplets populate the diagonal ([`Diag::NonUnit`]) or are ignored
    /// ([`Diag::Unit`]); duplicates, out-of-bounds indices and entries on
    /// the wrong side of the diagonal are errors.
    pub fn from_triplets(
        n: usize,
        tri: Triangle,
        diag: Diag,
        entries: &[(usize, usize, f64)],
    ) -> Result<SparseTriCsc> {
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
        // Column-major sort: the one structural difference from the CSR
        // constructor.
        off.sort_by_key(|&(i, j, _)| (j, i));
        for w in off.windows(2) {
            if w[0].0 == w[1].0 && w[0].1 == w[1].1 {
                return Err(SparseError::DuplicateEntry {
                    index: (w[1].0, w[1].1),
                });
            }
        }

        let mut col_ptr = vec![0usize; n + 1];
        for &(_, j, _) in &off {
            col_ptr[j + 1] += 1;
        }
        for j in 0..n {
            col_ptr[j + 1] += col_ptr[j];
        }
        let row_idx: Vec<usize> = off.iter().map(|&(i, _, _)| i).collect();
        let values: Vec<f64> = off.iter().map(|&(_, _, v)| v).collect();

        Self::finish(n, tri, diag, col_ptr, row_idx, values, diag_vals)
    }

    /// Builds a matrix from raw CSC arrays, which may include diagonal
    /// entries inline (they are split out; ignored for [`Diag::Unit`]).
    ///
    /// `col_ptr` must have `n + 1` monotone entries ending at
    /// `row_idx.len() == values.len()`, and each column's row indices must
    /// be strictly increasing.
    pub fn from_csc(
        n: usize,
        tri: Triangle,
        diag: Diag,
        col_ptr: &[usize],
        row_idx: &[usize],
        values: &[f64],
    ) -> Result<SparseTriCsc> {
        if col_ptr.len() != n + 1 {
            return Err(SparseError::MalformedCsr {
                reason: format!("col_ptr has {} entries, expected {}", col_ptr.len(), n + 1),
            });
        }
        if row_idx.len() != values.len() {
            return Err(SparseError::MalformedCsr {
                reason: format!(
                    "row_idx has {} entries but values has {}",
                    row_idx.len(),
                    values.len()
                ),
            });
        }
        if col_ptr[0] != 0 || *col_ptr.last().unwrap() != row_idx.len() {
            return Err(SparseError::MalformedCsr {
                reason: "col_ptr must start at 0 and end at the entry count".to_string(),
            });
        }
        let mut diag_vals = vec![if diag == Diag::Unit { 1.0 } else { 0.0 }; n];
        let mut out_ptr = vec![0usize; n + 1];
        let mut out_idx = Vec::with_capacity(row_idx.len());
        let mut out_val = Vec::with_capacity(values.len());
        for j in 0..n {
            let (start, end) = (col_ptr[j], col_ptr[j + 1]);
            if start > end || end > row_idx.len() {
                return Err(SparseError::MalformedCsr {
                    reason: format!("col_ptr not monotone at column {j}"),
                });
            }
            let mut prev: Option<usize> = None;
            for (&i, &v) in row_idx[start..end].iter().zip(&values[start..end]) {
                if i >= n {
                    return Err(SparseError::EntryOutOfBounds { index: (i, j), n });
                }
                if prev == Some(i) {
                    return Err(SparseError::DuplicateEntry { index: (i, j) });
                }
                if prev.is_some_and(|p| i < p) {
                    return Err(SparseError::UnsortedColumn { col: j });
                }
                prev = Some(i);
                if i == j {
                    if diag == Diag::NonUnit {
                        diag_vals[j] = v;
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
                out_idx.push(i);
                out_val.push(v);
            }
            out_ptr[j + 1] = out_idx.len();
        }
        Self::finish(n, tri, diag, out_ptr, out_idx, out_val, diag_vals)
    }

    /// Converts a (validated) CSR matrix into CSC form: one O(nnz)
    /// counting sort, no re-validation.  This is what the cached
    /// [`SparseTri::csc`] mirror builds.
    pub fn from_csr(mat: &SparseTri) -> SparseTriCsc {
        let n = mat.n();
        let mut col_ptr = vec![0usize; n + 1];
        for i in 0..n {
            let (cols, _) = mat.row_entries(i);
            for &j in cols {
                col_ptr[j + 1] += 1;
            }
        }
        for j in 0..n {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut fill = col_ptr.clone();
        let mut row_idx = vec![0usize; mat.nnz_off_diagonal()];
        let mut values = vec![0.0f64; mat.nnz_off_diagonal()];
        // Sweeping rows in ascending order keeps each column's row list
        // strictly increasing.
        for i in 0..n {
            let (cols, vals) = mat.row_entries(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let slot = fill[j];
                fill[j] += 1;
                row_idx[slot] = i;
                values[slot] = v;
            }
        }
        let diag_vals = (0..n).map(|i| mat.diag_value(i)).collect();
        SparseTriCsc {
            n,
            tri: mat.triangle(),
            diag: mat.diag(),
            col_ptr,
            row_idx,
            values,
            diag_vals,
            in_degrees: OnceLock::new(),
            transpose_cache: OnceLock::new(),
        }
    }

    /// Converts back to CSR form (the round-trip partner of
    /// [`SparseTriCsc::from_csr`]).
    pub fn to_csr(&self) -> SparseTri {
        let mut ents: Vec<(usize, usize, f64)> = Vec::with_capacity(self.row_idx.len() + self.n);
        for j in 0..self.n {
            let (rows, vals) = self.col_entries(j);
            for (&i, &v) in rows.iter().zip(vals) {
                ents.push((i, j, v));
            }
        }
        if self.diag == Diag::NonUnit {
            for (i, &d) in self.diag_vals.iter().enumerate() {
                ents.push((i, i, d));
            }
        }
        SparseTri::from_triplets(self.n, self.tri, self.diag, &ents)
            .expect("to_csr: a validated CSC matrix is a valid CSR matrix")
    }

    /// Shared tail of the validating constructors: numerical-health checks
    /// mirroring [`SparseTri`]'s (every stored value finite, diagonal
    /// invertible at the dense pivot tolerance).
    fn finish(
        n: usize,
        tri: Triangle,
        diag: Diag,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<f64>,
        diag_vals: Vec<f64>,
    ) -> Result<SparseTriCsc> {
        for j in 0..n {
            for (&i, &v) in row_idx[col_ptr[j]..col_ptr[j + 1]]
                .iter()
                .zip(&values[col_ptr[j]..col_ptr[j + 1]])
            {
                if !v.is_finite() {
                    return Err(SparseError::NonFiniteEntry {
                        index: (i, j),
                        value: v,
                    });
                }
            }
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
        Ok(SparseTriCsc {
            n,
            tri,
            diag,
            col_ptr,
            row_idx,
            values,
            diag_vals,
            in_degrees: OnceLock::new(),
            transpose_cache: OnceLock::new(),
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

    /// Number of stored entries: off-diagonal entries, plus the `n`
    /// diagonal entries when they are explicit ([`Diag::NonUnit`]).
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

    /// The off-diagonal entries of column `j` as `(row indices, values)`,
    /// rows strictly increasing.
    #[inline]
    pub fn col_entries(&self, j: usize) -> (&[usize], &[f64]) {
        let (s, e) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[s..e], &self.values[s..e])
    }

    /// The diagonal value of row `i` (`1.0` for [`Diag::Unit`]).
    #[inline]
    pub fn diag_value(&self, i: usize) -> f64 {
        self.diag_vals[i]
    }

    /// The `n + 1` column offsets into [`SparseTriCsc::row_idx`] /
    /// [`SparseTriCsc::values`]: column `j` owns entries
    /// `col_ptr[j]..col_ptr[j + 1]`.
    #[inline]
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// The row index of every stored off-diagonal entry, column by column.
    #[inline]
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// The value of every stored off-diagonal entry, parallel to
    /// [`SparseTriCsc::row_idx`].
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The `n` diagonal values (all `1.0` for [`Diag::Unit`]).
    #[inline]
    pub fn diag_values(&self) -> &[f64] {
        &self.diag_vals
    }

    /// Densify into a [`dense::Matrix`] (diagonal ones made explicit for
    /// [`Diag::Unit`]) — the differential-test bridge.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        for j in 0..self.n {
            let (rows, vals) = self.col_entries(j);
            for (&i, &v) in rows.iter().zip(vals) {
                m[(i, j)] = v;
            }
        }
        for (i, &d) in self.diag_vals.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// The transposed matrix (a lower-triangular matrix becomes upper, and
    /// vice versa), in O(nnz): the transpose's columns are this matrix's
    /// rows, so this is the same counting sort as
    /// [`SparseTri::transpose`], column-major.
    pub fn transpose(&self) -> SparseTriCsc {
        let tri = match self.tri {
            Triangle::Lower => Triangle::Upper,
            Triangle::Upper => Triangle::Lower,
        };
        // Row counts of `self` become column counts of the transpose.
        let mut col_ptr = vec![0usize; self.n + 1];
        for &i in &self.row_idx {
            col_ptr[i + 1] += 1;
        }
        for j in 0..self.n {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut fill = col_ptr.clone();
        let mut row_idx = vec![0usize; self.row_idx.len()];
        let mut values = vec![0.0f64; self.values.len()];
        for j in 0..self.n {
            let (rows, vals) = self.col_entries(j);
            for (&i, &v) in rows.iter().zip(vals) {
                let slot = fill[i];
                fill[i] += 1;
                row_idx[slot] = j;
                values[slot] = v;
            }
        }
        SparseTriCsc {
            n: self.n,
            tri,
            diag: self.diag,
            col_ptr,
            row_idx,
            values,
            diag_vals: self.diag_vals.clone(),
            in_degrees: OnceLock::new(),
            transpose_cache: OnceLock::new(),
        }
    }

    /// The cached transpose, built on first use and reused for the
    /// lifetime of the matrix — same contract as
    /// [`SparseTri::transposed`], so transposed sync-free solves pay one
    /// O(nnz) transposition ever.
    pub fn transposed(&self) -> &SparseTriCsc {
        self.transpose_cache
            .get_or_init(|| Box::new(self.transpose()))
    }

    /// Per-row off-diagonal entry counts — the number of contributions row
    /// `i` must receive before `x[i]` can be finished, i.e. the sync-free
    /// executor's in-degree targets.  Counted once in O(nnz) and cached;
    /// no dependency analysis (levels, DAG traversal) is involved.
    pub fn in_degrees(&self) -> &[u32] {
        self.in_degrees.get_or_init(|| {
            assert!(
                self.row_idx.len() < u32::MAX as usize,
                "entry counts must fit in u32"
            );
            let mut deg = vec![0u32; self.n];
            for &i in &self.row_idx {
                deg[i] += 1;
            }
            deg
        })
    }

    /// Flops of one solve with `k` right-hand sides, under the dense
    /// crate's conventions (identical to [`SparseTri::solve_flops`]).
    pub fn solve_flops(&self, k: usize) -> FlopCount {
        let per_rhs = 2 * self.nnz_off_diagonal() as u64
            + if self.diag == Diag::NonUnit {
                self.n as u64
            } else {
                0
            };
        FlopCount::new(per_rhs * k as u64)
    }

    /// Worker budget for the implicit entry points: the `DENSE_THREADS`
    /// pool size when the solve clears [`PAR_MIN_WORK`], else 1 — the same
    /// gate as [`SparseTri`]'s.
    fn implicit_threads(&self, k: usize) -> usize {
        if self.nnz().saturating_mul(k) >= PAR_MIN_WORK {
            dense_threads()
        } else {
            1
        }
    }

    /// The matrix the executor actually sweeps: `self` for a plain solve,
    /// the cached [`SparseTriCsc::transposed`] for a transposed one.
    #[inline]
    pub fn executor(&self, transpose: Transpose) -> &SparseTriCsc {
        match transpose {
            Transpose::No => self,
            Transpose::Yes => self.transposed(),
        }
    }

    /// Finishes column `j` sequentially: divides `x[j]` by the diagonal
    /// and pushes `a_ij · x[j]` into every dependent row, over `k`
    /// interleaved right-hand sides at row stride `stride`.
    ///
    /// All updates *into* row `j` have already been applied when the sweep
    /// reaches it (its dependencies are earlier columns), and row `i`
    /// receives its updates in sweep order — for [`Triangle::Lower`] that
    /// is ascending column order, the same order as the CSR row kernel, so
    /// the sequential column sweep is bitwise identical to the sequential
    /// row sweep there.
    ///
    /// # Safety
    /// `x` must be valid for reads and writes of `n` rows of `k` elements
    /// at row stride `stride`, with no concurrent access to row `j` or the
    /// column's dependent rows.
    unsafe fn finish_col_seq(&self, x: *mut f64, stride: usize, k: usize, j: usize) {
        let xj = std::slice::from_raw_parts_mut(x.add(j * stride), k);
        if self.diag == Diag::NonUnit {
            let d = self.diag_vals[j];
            for xjc in xj.iter_mut() {
                *xjc /= d;
            }
        }
        let (rows, vals) = self.col_entries(j);
        for (&i, &v) in rows.iter().zip(vals) {
            let xi = std::slice::from_raw_parts_mut(x.add(i * stride), k);
            for (xic, xjc) in xi.iter_mut().zip(xj.iter()) {
                *xic -= v * *xjc;
            }
        }
    }

    /// Runs the solve over `x` (`n` rows × `k` columns at row stride
    /// `stride`, holding `B` on entry and `X` on exit) with the given
    /// worker count: the sequential column sweep at 1 worker, the
    /// sync-free executor above that.
    pub(crate) fn run_syncfree(&self, x: *mut f64, stride: usize, k: usize, workers: usize) {
        let n = self.n;
        if n == 0 || k == 0 {
            return;
        }
        if workers <= 1 {
            match self.tri {
                Triangle::Lower => {
                    for j in 0..n {
                        // SAFETY: single-threaded; column dependency order.
                        unsafe { self.finish_col_seq(x, stride, k, j) };
                    }
                }
                Triangle::Upper => {
                    for j in (0..n).rev() {
                        // SAFETY: single-threaded; column dependency order.
                        unsafe { self.finish_col_seq(x, stride, k, j) };
                    }
                }
            }
            return;
        }
        self.run_syncfree_parallel(x, stride, k, workers);
    }

    /// The parallel sync-free executor: per-row atomic in-degree counters,
    /// per-worker partial-sum slabs, zero analysis, zero barriers.  See
    /// the module docs for the protocol, its deadlock-freedom argument and
    /// the fixed-worker-count determinism guarantee.
    fn run_syncfree_parallel(&self, x: *mut f64, stride: usize, k: usize, workers: usize) {
        let n = self.n;
        let indeg = self.in_degrees();
        // `known[i]` counts contributions that have landed in row `i`'s
        // slab entries; `x[i]` may be finished once it reaches `indeg[i]`.
        let known: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        // Worker `w` accumulates its contributions to row `i`, RHS `c` in
        // `partial[(w·n + i)·k + c]` — no cross-worker writes, so every
        // floating-point sum has a timing-independent order.
        let mut partial = vec![0.0f64; workers * n * k];
        let slab = SharedPtr(partial.as_mut_ptr());
        let shared = SharedPtr(x);
        let tracing = obs::enabled();
        let _span = obs::span_with("sparse", "syncfree_exec", "workers", workers as u64);
        run_region(workers, |w| {
            let (lo, hi) = chunk_bounds(n, workers, w);
            // Spin iterations and slab-segment reductions accumulate
            // locally and are emitted as one counter each per worker at
            // region end (`TraceReport::{spin_iters, slab_reductions}`).
            let mut spins = 0u64;
            let mut reductions = 0u64;
            let sweep = |j: usize| {
                // Wait (acquire) until every contribution to row `j` has
                // landed; the release increments below pair with this, so
                // all slab writes for row `j` are visible.
                if tracing {
                    spins += wait_ready_counted(&known[j], indeg[j]);
                } else {
                    wait_ready(&known[j], indeg[j]);
                }
                // SAFETY: row `j` of `x` is written only by this worker
                // (contiguous chunk ownership of columns = rows); the slab
                // rows reduced here are final per the counter handshake,
                // and each dependent slab row `(w, i)` is written only by
                // this worker.
                unsafe {
                    let xj = std::slice::from_raw_parts_mut(shared.get().add(j * stride), k);
                    // Reduce the per-worker partial sums in fixed worker
                    // order — the reduction order never depends on timing.
                    for w2 in 0..workers {
                        let p = std::slice::from_raw_parts(
                            slab.get().add((w2 * n + j) * k) as *const f64,
                            k,
                        );
                        for (xjc, pc) in xj.iter_mut().zip(p) {
                            *xjc -= pc;
                        }
                    }
                    if tracing {
                        reductions += workers as u64;
                    }
                    if self.diag == Diag::NonUnit {
                        let d = self.diag_vals[j];
                        for xjc in xj.iter_mut() {
                            *xjc /= d;
                        }
                    }
                    let (rows, vals) = self.col_entries(j);
                    for (&i, &v) in rows.iter().zip(vals) {
                        let pi = std::slice::from_raw_parts_mut(slab.get().add((w * n + i) * k), k);
                        for (pic, xjc) in pi.iter_mut().zip(xj.iter()) {
                            *pic += v * *xjc;
                        }
                        // Release publishes the slab write above to the
                        // acquire spin in `wait_ready`.
                        known[i].fetch_add(1, Ordering::Release);
                    }
                }
            };
            // Dependency order within the chunk keeps the wait chains
            // acyclic: a worker only ever waits on columns another worker
            // has already passed or is about to reach.
            match self.tri {
                Triangle::Lower => (lo..hi).for_each(sweep),
                Triangle::Upper => (lo..hi).rev().for_each(sweep),
            }
            if tracing {
                obs::counter("sparse", "spin_iters", "iters", spins, "worker", w as u64);
                obs::counter(
                    "sparse",
                    "slab_reductions",
                    "count",
                    reductions,
                    "worker",
                    w as u64,
                );
            }
        });
    }

    /// Solves `op(A)·x = b` in place under the given [`SolveOpts`]: `x`
    /// holds `b` on entry and the solution on exit.  Returns the flop
    /// count.
    ///
    /// CSC storage has exactly one executor — the sync-free column sweep —
    /// so [`SolveOpts::policy`] is ignored here; `threads` and `transpose`
    /// behave as on [`SparseTri`] (the transposed solve runs on the cached
    /// [`SparseTriCsc::transposed`]).
    pub fn solve_with(&self, opts: &SolveOpts, x: &mut [f64]) -> Result<FlopCount> {
        if x.len() != self.n {
            return Err(SparseError::DimensionMismatch {
                op: "sparse csc solve",
                n: self.n,
                rhs: (x.len(), 1),
            });
        }
        let exec = self.executor(opts.transpose);
        let threads = opts.threads.unwrap_or_else(|| exec.implicit_threads(1));
        exec.run_syncfree(x.as_mut_ptr(), 1, 1, threads.min(exec.n.max(1)));
        Ok(exec.solve_flops(1))
    }

    /// Solves `op(A)·X = B` in place for a block of right-hand sides under
    /// the given [`SolveOpts`]; `x` holds `B` on entry and `X` on exit.
    pub fn solve_multi_with(&self, opts: &SolveOpts, x: &mut Matrix) -> Result<FlopCount> {
        if x.rows() != self.n {
            return Err(SparseError::DimensionMismatch {
                op: "sparse csc solve_multi",
                n: self.n,
                rhs: x.dims(),
            });
        }
        let k = x.cols();
        let exec = self.executor(opts.transpose);
        let threads = opts.threads.unwrap_or_else(|| exec.implicit_threads(k));
        exec.run_syncfree(
            x.as_mut_slice().as_mut_ptr(),
            k,
            k,
            threads.min(exec.n.max(1)),
        );
        Ok(exec.solve_flops(k))
    }

    /// Solves `A · x = b` for one right-hand side; returns the solution.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = b.to_vec();
        self.solve_with(&SolveOpts::new(), &mut x)?;
        Ok(x)
    }

    /// Solves `A · X = B` for a block of right-hand sides.
    pub fn solve_multi(&self, b: &Matrix) -> Result<Matrix> {
        let mut x = b.clone();
        self.solve_multi_with(&SolveOpts::new(), &mut x)?;
        Ok(x)
    }
}

impl Clone for SparseTriCsc {
    /// Clones the matrix *and* its cached in-degrees/transpose (recounting
    /// an identical pattern would be wasted work).
    fn clone(&self) -> SparseTriCsc {
        SparseTriCsc {
            n: self.n,
            tri: self.tri,
            diag: self.diag,
            col_ptr: self.col_ptr.clone(),
            row_idx: self.row_idx.clone(),
            values: self.values.clone(),
            diag_vals: self.diag_vals.clone(),
            in_degrees: self.in_degrees.clone(),
            transpose_cache: self.transpose_cache.clone(),
        }
    }
}

impl std::fmt::Debug for SparseTriCsc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparseTriCsc")
            .field("n", &self.n)
            .field("tri", &self.tri)
            .field("diag", &self.diag)
            .field("nnz", &self.nnz())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_lower() -> SparseTriCsc {
        // [ 2 . . ]
        // [ 1 3 . ]
        // [ . 4 5 ]
        SparseTriCsc::from_triplets(
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
    fn triplets_build_sorted_csc() {
        let m = small_lower();
        assert_eq!(m.n(), 3);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.nnz_off_diagonal(), 2);
        assert_eq!(m.col_entries(0), (&[1usize][..], &[1.0][..]));
        assert_eq!(m.col_entries(1), (&[2usize][..], &[4.0][..]));
        assert_eq!(m.col_entries(2), (&[][..], &[][..]));
        assert_eq!(m.diag_value(2), 5.0);
        assert_eq!(m.in_degrees(), &[0, 1, 1]);
    }

    #[test]
    fn csr_round_trip_preserves_the_matrix() {
        let csr = crate::gen::random_lower(300, 5, 41);
        let csc = SparseTriCsc::from_csr(&csr);
        assert_eq!(csc.to_dense(), csr.to_dense());
        assert_eq!(csc.to_csr().to_dense(), csr.to_dense());
        assert_eq!(csc.nnz(), csr.nnz());
    }

    #[test]
    fn validation_mirrors_csr() {
        let oob = SparseTriCsc::from_triplets(
            2,
            Triangle::Lower,
            Diag::NonUnit,
            &[(0, 0, 1.0), (1, 5, 1.0)],
        );
        assert!(matches!(oob, Err(SparseError::EntryOutOfBounds { .. })));

        let wrong = SparseTriCsc::from_triplets(
            2,
            Triangle::Lower,
            Diag::NonUnit,
            &[(0, 0, 1.0), (1, 1, 1.0), (0, 1, 2.0)],
        );
        assert!(matches!(wrong, Err(SparseError::WrongTriangle { .. })));

        let dup = SparseTriCsc::from_triplets(
            2,
            Triangle::Lower,
            Diag::NonUnit,
            &[(0, 0, 1.0), (1, 1, 1.0), (1, 0, 2.0), (1, 0, 3.0)],
        );
        assert!(matches!(dup, Err(SparseError::DuplicateEntry { .. })));

        let sing = SparseTriCsc::from_triplets(2, Triangle::Lower, Diag::NonUnit, &[(0, 0, 1.0)]);
        assert!(matches!(
            sing,
            Err(SparseError::SingularDiagonal { row: 1, .. })
        ));

        let nan = SparseTriCsc::from_triplets(
            2,
            Triangle::Lower,
            Diag::NonUnit,
            &[(0, 0, 1.0), (1, 1, 1.0), (1, 0, f64::NAN)],
        );
        assert!(matches!(
            nan,
            Err(SparseError::NonFiniteEntry { index: (1, 0), .. })
        ));
    }

    #[test]
    fn from_csc_rejects_malformed_arrays() {
        let bad_ptr = SparseTriCsc::from_csc(2, Triangle::Lower, Diag::Unit, &[0, 1], &[1], &[1.0]);
        assert!(matches!(bad_ptr, Err(SparseError::MalformedCsr { .. })));

        let unsorted = SparseTriCsc::from_csc(
            3,
            Triangle::Lower,
            Diag::Unit,
            &[0, 2, 2, 2],
            &[2, 1],
            &[1.0, 2.0],
        );
        assert!(matches!(
            unsorted,
            Err(SparseError::UnsortedColumn { col: 0 })
        ));

        let dup = SparseTriCsc::from_csc(
            3,
            Triangle::Lower,
            Diag::Unit,
            &[0, 2, 2, 2],
            &[1, 1],
            &[1.0, 2.0],
        );
        assert!(matches!(dup, Err(SparseError::DuplicateEntry { .. })));
    }

    #[test]
    fn from_csc_accepts_inline_diagonal() {
        let m = SparseTriCsc::from_csc(
            3,
            Triangle::Lower,
            Diag::NonUnit,
            &[0, 3, 5, 6],
            &[0, 1, 2, 1, 2, 2],
            &[2.0, 1.0, 0.0, 3.0, 4.0, 5.0],
        )
        .unwrap();
        // Column 0 holds the diagonal 2.0 inline plus rows 1 and 2 — but
        // row 2's stored 0.0 keeps the pattern; compare densified.
        assert_eq!(m.diag_value(0), 2.0);
        assert_eq!(m.nnz_off_diagonal(), 3);
    }

    #[test]
    fn transpose_flips_triangle_and_round_trips() {
        let m = small_lower();
        let t = m.transpose();
        assert_eq!(t.triangle(), Triangle::Upper);
        assert_eq!(t.to_dense(), m.to_dense().transpose());
        assert_eq!(t.transpose().to_dense(), m.to_dense());
        // Cached transpose is built once.
        let p1 = m.transposed() as *const SparseTriCsc;
        let p2 = m.transposed() as *const SparseTriCsc;
        assert_eq!(p1, p2);
    }

    #[test]
    fn known_small_system_solves() {
        let m = small_lower();
        let x = m.solve(&[2.0, 4.0, 9.0]).unwrap();
        for v in x {
            assert!((v - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn sequential_column_sweep_is_bitwise_equal_to_csr_on_lower() {
        // Same update order per row (ascending columns), so the two
        // sequential sweeps must agree bit for bit on lower triangles.
        let csr = crate::gen::random_lower(800, 6, 17);
        let csc = SparseTriCsc::from_csr(&csr);
        let b = crate::gen::rhs_vec(800, 18);
        let mut via_csr = b.clone();
        csr.solve_with(&SolveOpts::new().threads(1), &mut via_csr)
            .unwrap();
        let mut via_csc = b.clone();
        csc.solve_with(&SolveOpts::new().threads(1), &mut via_csc)
            .unwrap();
        assert_eq!(via_csr, via_csc);
    }

    #[test]
    fn syncfree_parallel_matches_sequential_to_tolerance() {
        for (mat, seed) in [
            (crate::gen::random_lower(3000, 6, 23), 7u64),
            (crate::gen::deep_narrow_lower(4000, 4, 3, 29), 9u64),
        ] {
            let csc = SparseTriCsc::from_csr(&mat);
            let b = crate::gen::rhs_vec(mat.n(), seed);
            let mut seq = b.clone();
            csc.solve_with(&SolveOpts::new().threads(1), &mut seq)
                .unwrap();
            for threads in [2usize, 3, 4, 7] {
                let mut x = b.clone();
                csc.solve_with(&SolveOpts::new().threads(threads), &mut x)
                    .unwrap();
                let max_diff = x
                    .iter()
                    .zip(&seq)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max);
                assert!(
                    max_diff < 1e-12,
                    "sync-free at {threads} workers diverged {max_diff:e}"
                );
            }
        }
    }

    #[test]
    fn syncfree_is_bitwise_repeatable_per_worker_count() {
        let csc = SparseTriCsc::from_csr(&crate::gen::random_lower(2500, 5, 31));
        let b = crate::gen::rhs_vec(2500, 33);
        for threads in [2usize, 4] {
            let opts = SolveOpts::new().threads(threads);
            let mut first = b.clone();
            csc.solve_with(&opts, &mut first).unwrap();
            for _ in 0..3 {
                let mut again = b.clone();
                csc.solve_with(&opts, &mut again).unwrap();
                assert_eq!(
                    first, again,
                    "sync-free must be bitwise repeatable at a fixed worker count"
                );
            }
        }
    }

    #[test]
    fn syncfree_upper_and_transposed_solves_work() {
        let lower = crate::gen::random_lower(1500, 5, 37);
        let upper_csc = SparseTriCsc::from_csr(&lower.transpose());
        let b = crate::gen::rhs_vec(1500, 38);
        let mut seq = b.clone();
        upper_csc
            .solve_with(&SolveOpts::new().threads(1), &mut seq)
            .unwrap();
        let mut par = b.clone();
        upper_csc
            .solve_with(&SolveOpts::new().threads(4), &mut par)
            .unwrap();
        let max_diff = par
            .iter()
            .zip(&seq)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(max_diff < 1e-12, "upper sync-free diverged {max_diff:e}");
        // Transposed solve on the lower CSC equals the plain solve on the
        // upper CSC to rounding (same matrix, same executor).
        let lower_csc = SparseTriCsc::from_csr(&lower);
        let mut xt = b.clone();
        lower_csc
            .solve_with(&SolveOpts::new().transposed().threads(4), &mut xt)
            .unwrap();
        let max_diff = xt
            .iter()
            .zip(&par)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(max_diff < 1e-12);
    }

    #[test]
    fn syncfree_multi_rhs_matches_per_column_solves() {
        let csc = SparseTriCsc::from_csr(&crate::gen::deep_narrow_lower(2000, 4, 3, 43));
        let k = 4;
        let b = Matrix::from_fn(2000, k, |i, j| {
            ((i * 7 + j * 13 + 1) % 19) as f64 / 9.5 - 1.0
        });
        let mut xm = b.clone();
        csc.solve_multi_with(&SolveOpts::new().threads(4), &mut xm)
            .unwrap();
        for c in 0..k {
            let mut xc = b.col(c);
            csc.solve_with(&SolveOpts::new().threads(1), &mut xc)
                .unwrap();
            for i in 0..2000 {
                assert!(
                    (xm[(i, c)] - xc[i]).abs() < 1e-12,
                    "column {c} row {i} diverged"
                );
            }
        }
    }

    #[test]
    fn unit_diag_and_edge_cases() {
        let m = SparseTriCsc::from_triplets(
            3,
            Triangle::Lower,
            Diag::Unit,
            &[(1, 0, 2.0), (2, 1, 3.0)],
        )
        .unwrap();
        assert_eq!(m.diag_value(0), 1.0);
        assert_eq!(m.solve(&[1.0, 0.0, 0.0]).unwrap(), vec![1.0, -2.0, 6.0]);
        assert_eq!(m.solve_flops(1), FlopCount::new(4));

        let empty = SparseTriCsc::from_triplets(0, Triangle::Lower, Diag::NonUnit, &[]).unwrap();
        assert_eq!(empty.solve(&[]).unwrap(), Vec::<f64>::new());

        let m2 = small_lower();
        assert!(matches!(
            m2.solve(&[1.0; 2]),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn clone_carries_the_caches() {
        let m = small_lower();
        let _ = m.in_degrees();
        let _ = m.transposed();
        let c = m.clone();
        assert!(c.in_degrees.get().is_some());
        assert!(c.transpose_cache.get().is_some());
        assert_eq!(c.to_dense(), m.to_dense());
    }

    #[test]
    fn debug_is_compact() {
        let s = format!("{:?}", small_lower());
        assert!(s.contains("SparseTriCsc"));
        assert!(s.contains("nnz"));
    }
}

//! Matrices distributed cyclically over a 2D processor grid.
//!
//! Processor `(x, y)` of a `pr × pc` grid owns the entries
//! `A(x : pr : m, y : pc : n)` — the cyclic layout every algorithm in the
//! paper starts from.  The local piece is stored densely as a
//! [`dense::Matrix`]; global row `i` maps to local row `i / pr` on the owner
//! row `i mod pr` (and likewise for columns).
//!
//! Cyclic layouts have the property the recursive algorithms exploit: any
//! aligned sub-range of global indices (offset and length divisible by the
//! grid dimension) is again cyclically distributed over the *same* grid, and
//! its local storage is a contiguous block of the local matrix, so
//! [`DistMatrix::subview`] needs no communication.
//!
//! A `DistMatrix` stores its local piece in a buffer from the machine's pool
//! wherever it builds one itself, and hands the piece back to the pool when
//! it is dropped, so the matrices a distributed solve creates and discards
//! reuse resident memory, within one run and across runs.

use crate::error::GridError;
use crate::grid::Grid2D;
use crate::redist::{redistribute, Filter, Layout};
use crate::Result;
use dense::Matrix;
use simnet::coll;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of global indices owned by grid coordinate `coord` out of `procs`
/// for a dimension of `global` indices distributed cyclically.
pub fn cyclic_local_count(global: usize, procs: usize, coord: usize) -> usize {
    if coord >= global {
        0
    } else {
        (global - coord).div_ceil(procs)
    }
}

/// A dense matrix distributed cyclically over a [`Grid2D`].
///
/// Dropping it gives its local storage back to the machine's buffer pool
/// ([`simnet::Communicator::give_buffer`]).
pub struct DistMatrix {
    grid: Grid2D,
    rows: usize,
    cols: usize,
    local: Matrix,
    /// Lazily computed transposed copy (see [`DistMatrix::transposed`]):
    /// built by one all-to-all of the values on first use and reused for the
    /// lifetime of the matrix, so repeated `Aᵀ` applies redistribute once,
    /// not once per solve.  Invalidated by every mutating accessor.
    transpose_cache: OnceLock<Box<DistMatrix>>,
    /// How many transpose redistributions this matrix has actually run —
    /// observable through [`DistMatrix::transpose_count`], so tests can
    /// assert the cache is reused rather than re-communicated per solve.
    transposes: AtomicUsize,
    /// Lazily computed copy with the diagonal overwritten by ones (see
    /// [`DistMatrix::unit_diagonal`]): built locally on first use so
    /// repeated unit-diagonal solves against the same operand do not copy
    /// the whole local piece per solve.  Invalidated alongside the
    /// transpose cache by every mutating accessor.
    unit_diag_cache: OnceLock<Box<DistMatrix>>,
    /// How many unit-diagonal overlays were actually materialised —
    /// observable through [`DistMatrix::unit_overlay_count`].
    unit_overlays: AtomicUsize,
}

impl Clone for DistMatrix {
    /// Clones the matrix *and* its cached transpose (re-running the
    /// all-to-all for an identical matrix would be wasted communication);
    /// the clone's transpose count starts fresh.
    fn clone(&self) -> DistMatrix {
        let transpose_cache = OnceLock::new();
        if let Some(t) = self.transpose_cache.get() {
            let _ = transpose_cache.set(t.clone());
        }
        let unit_diag_cache = OnceLock::new();
        if let Some(u) = self.unit_diag_cache.get() {
            let _ = unit_diag_cache.set(u.clone());
        }
        DistMatrix {
            grid: self.grid.clone(),
            rows: self.rows,
            cols: self.cols,
            local: self.local.clone(),
            transpose_cache,
            transposes: AtomicUsize::new(0),
            unit_diag_cache,
            unit_overlays: AtomicUsize::new(0),
        }
    }
}

impl Drop for DistMatrix {
    fn drop(&mut self) {
        let local = std::mem::replace(&mut self.local, Matrix::zeros(0, 0));
        self.grid.comm().give_buffer(local.into_vec());
    }
}

impl DistMatrix {
    /// Internal constructor: wraps a local piece with fresh caches.
    fn wrap(grid: Grid2D, rows: usize, cols: usize, local: Matrix) -> DistMatrix {
        DistMatrix {
            grid,
            rows,
            cols,
            local,
            transpose_cache: OnceLock::new(),
            transposes: AtomicUsize::new(0),
            unit_diag_cache: OnceLock::new(),
            unit_overlays: AtomicUsize::new(0),
        }
    }

    /// Create a distributed matrix filled with zeros.
    pub fn zeros(grid: &Grid2D, rows: usize, cols: usize) -> Self {
        let lr = cyclic_local_count(rows, grid.rows(), grid.my_row());
        let lc = cyclic_local_count(cols, grid.cols(), grid.my_col());
        let local = crate::pooled_zeros(grid.comm(), lr, lc);
        DistMatrix::wrap(grid.clone(), rows, cols, local)
    }

    /// Create a distributed matrix from a generating function of the global
    /// indices (no communication; every rank fills its own entries).
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(
        grid: &Grid2D,
        rows: usize,
        cols: usize,
        mut f: F,
    ) -> Self {
        let pr = grid.rows();
        let pc = grid.cols();
        let (x, y) = grid.my_coords();
        let lr = cyclic_local_count(rows, pr, x);
        let lc = cyclic_local_count(cols, pc, y);
        let local = Matrix::from_fn(lr, lc, |li, lj| f(li * pr + x, lj * pc + y));
        DistMatrix::wrap(grid.clone(), rows, cols, local)
    }

    /// Distribute a replicated global matrix: every rank extracts its cyclic
    /// piece locally (no communication).  All ranks must pass the same matrix.
    pub fn from_global(grid: &Grid2D, global: &Matrix) -> Self {
        let (x, y) = grid.my_coords();
        let (pr, pc) = (grid.rows(), grid.cols());
        let (rows, cols) = global.dims();
        let len = cyclic_local_count(rows, pr, x) * cyclic_local_count(cols, pc, y);
        let local = global.strided_block_into(x, pr, y, pc, grid.comm().take_buffer(len));
        DistMatrix::wrap(grid.clone(), rows, cols, local)
    }

    /// Wrap an existing local piece (must already have the correct local
    /// dimensions for this rank).
    pub fn from_local(grid: &Grid2D, rows: usize, cols: usize, local: Matrix) -> Result<Self> {
        let lr = cyclic_local_count(rows, grid.rows(), grid.my_row());
        let lc = cyclic_local_count(cols, grid.cols(), grid.my_col());
        if local.dims() != (lr, lc) {
            return Err(GridError::BadDimensions {
                op: "DistMatrix::from_local",
                reason: format!(
                    "local piece is {}x{}, expected {}x{}",
                    local.rows(),
                    local.cols(),
                    lr,
                    lc
                ),
            });
        }
        Ok(DistMatrix::wrap(grid.clone(), rows, cols, local))
    }

    /// Global number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Global number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Global `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The grid the matrix is distributed over.
    pub fn grid(&self) -> &Grid2D {
        &self.grid
    }

    /// This matrix's cyclic layout, as [`crate::redist::redistribute`]
    /// takes it.
    pub fn layout(&self) -> Layout {
        Layout::cyclic(&self.grid, self.rows, self.cols)
    }

    /// Move this matrix's entries that pass `filter` to where `dst` stores
    /// them ([`redistribute`] from the cyclic layout, over the grid's
    /// communicator); returns this rank's local matrix under `dst`.
    pub fn redistribute_to(&self, dst: &Layout, filter: Filter) -> Result<Matrix> {
        redistribute(self.grid.comm(), &self.layout(), &self.local, dst, filter)
    }

    /// The `rows × cols` matrix stored under `src` (`from` being this rank's
    /// local matrix there), brought into the cyclic layout of `grid` — the
    /// inverse of [`DistMatrix::redistribute_to`].
    pub fn redistributed_from(
        grid: &Grid2D,
        (rows, cols): (usize, usize),
        src: &Layout,
        from: &Matrix,
        filter: Filter,
    ) -> Result<Self> {
        let cyclic = Layout::cyclic(grid, rows, cols);
        let local = redistribute(grid.comm(), src, from, &cyclic, filter)?;
        DistMatrix::from_local(grid, rows, cols, local)
    }

    /// This rank's local piece.
    pub fn local(&self) -> &Matrix {
        &self.local
    }

    /// This rank's local piece, taken out of the matrix (which then gives
    /// nothing back to the pool when dropped).
    pub fn into_local(mut self) -> Matrix {
        std::mem::replace(&mut self.local, Matrix::zeros(0, 0))
    }

    /// Mutable access to this rank's local piece.
    ///
    /// Invalidates the cached transpose (see [`DistMatrix::transposed`]):
    /// a stale `Aᵀ` after an in-place edit would be a silent correctness
    /// bug, so every mutating accessor drops it.
    pub fn local_mut(&mut self) -> &mut Matrix {
        self.invalidate_transpose();
        &mut self.local
    }

    /// The cached transpose of this matrix, built on first use (one
    /// all-to-all redistribution — see [`crate::redist::transpose`]) and
    /// reused for the lifetime of the matrix: the analyze-once pattern the
    /// sparse crate's `SparseTri::transposed` applies locally, here applied
    /// to communication.  Repeated `Aᵀ·X = B` solves — the backward
    /// substitution of every Cholesky/LU application — redistribute once,
    /// not once per solve.
    ///
    /// Like every redistribution this is a **collective**: all ranks must
    /// reach their first `transposed()` call on the same matrix together
    /// (guaranteed under the SPMD usage the simulated machine enforces).
    /// Mutating accessors ([`DistMatrix::local_mut`],
    /// [`DistMatrix::set_subview`], the arithmetic updates) invalidate the
    /// cache.
    pub fn transposed(&self) -> &DistMatrix {
        self.try_transposed()
            .expect("transpose redistribution failed")
    }

    /// Fallible form of [`DistMatrix::transposed`]: returns the cached
    /// transpose, running (and caching) the redistribution on first use, and
    /// propagates transport errors (fault-injected timeouts, rank failures)
    /// instead of panicking.  Library code paths use this form.
    pub fn try_transposed(&self) -> Result<&DistMatrix> {
        if let Some(t) = self.transpose_cache.get() {
            return Ok(t);
        }
        let _span = obs::span_with("pgrid", "transpose_redist", "rows", self.rows as u64);
        // The endpoint is per-rank single-threaded, so compute-then-set
        // cannot race; a concurrent set is impossible here.
        let t = Box::new(crate::redist::transpose(self)?);
        self.transposes.fetch_add(1, Ordering::Relaxed);
        let _ = self.transpose_cache.set(t);
        Ok(self
            .transpose_cache
            .get()
            .expect("cache populated on the line above"))
    }

    /// How many transpose redistributions this matrix has run (0 before the
    /// first [`DistMatrix::transposed`] call, and 1 until the next
    /// invalidating mutation).
    pub fn transpose_count(&self) -> usize {
        self.transposes.load(Ordering::Relaxed)
    }

    /// A copy of this matrix whose diagonal entries are overwritten with 1
    /// (the operand actually factored when `Diag::Unit` solves treat the
    /// stored diagonal as implicit).  Built **locally** — no communication —
    /// on first use and cached for the lifetime of the matrix, so repeated
    /// unit-diagonal solves stop copying the operand once per solve.
    /// Mutating accessors invalidate the cache together with the transpose.
    pub fn unit_diagonal(&self) -> &DistMatrix {
        if let Some(u) = self.unit_diag_cache.get() {
            return u;
        }
        let _span = obs::span_with("pgrid", "unit_overlay", "rows", self.rows as u64);
        let mut local = self.local.clone();
        let pr = self.grid.rows();
        let pc = self.grid.cols();
        let (x, y) = self.grid.my_coords();
        for li in 0..local.rows() {
            let gi = li * pr + x;
            for lj in 0..local.cols() {
                if gi == lj * pc + y {
                    local[(li, lj)] = 1.0;
                }
            }
        }
        self.unit_overlays.fetch_add(1, Ordering::Relaxed);
        let _ = self.unit_diag_cache.set(Box::new(DistMatrix::wrap(
            self.grid.clone(),
            self.rows,
            self.cols,
            local,
        )));
        self.unit_diag_cache
            .get()
            .expect("cache populated on the line above")
    }

    /// How many unit-diagonal overlays this matrix has materialised (0 before
    /// the first [`DistMatrix::unit_diagonal`] call, and 1 until the next
    /// invalidating mutation).
    pub fn unit_overlay_count(&self) -> usize {
        self.unit_overlays.load(Ordering::Relaxed)
    }

    /// Drops the cached transpose and unit-diagonal overlay (called by every
    /// mutating accessor).
    fn invalidate_transpose(&mut self) {
        self.transpose_cache = OnceLock::new();
        self.unit_diag_cache = OnceLock::new();
    }

    /// Global row index of local row `li` on this rank.
    pub fn global_row(&self, li: usize) -> usize {
        li * self.grid.rows() + self.grid.my_row()
    }

    /// Global column index of local column `lj` on this rank.
    pub fn global_col(&self, lj: usize) -> usize {
        lj * self.grid.cols() + self.grid.my_col()
    }

    /// Collect the full matrix on every rank (allgather of all local pieces).
    ///
    /// Panics if the underlying collective fails; library code paths under
    /// fault injection use [`DistMatrix::try_to_global`] instead.
    pub fn to_global(&self) -> Matrix {
        self.try_to_global().expect("to_global collective failed")
    }

    /// Fallible form of [`DistMatrix::to_global`]: propagates transport
    /// errors (fault-injected timeouts, rank failures) as typed errors.
    pub fn try_to_global(&self) -> Result<Matrix> {
        let _span = obs::span_with("pgrid", "to_global", "rows", self.rows as u64);
        let comm = self.grid.comm();
        let pieces = coll::allgatherv(comm, self.local.as_slice())?;
        let mut out = crate::pooled_zeros(comm, self.rows, self.cols);
        for (rank, piece) in pieces.into_iter().enumerate() {
            let (x, y) = self.grid.coords_of(rank);
            let lr = cyclic_local_count(self.rows, self.grid.rows(), x);
            let lc = cyclic_local_count(self.cols, self.grid.cols(), y);
            if lr == 0 || lc == 0 {
                continue;
            }
            let block = Matrix::from_vec(lr, lc, piece).map_err(|e| GridError::BadDimensions {
                op: "to_global",
                reason: e.to_string(),
            })?;
            out.set_strided_block(x, self.grid.rows(), y, self.grid.cols(), block.as_view());
            comm.give_buffer(block.into_vec());
        }
        Ok(out)
    }

    /// Extract the aligned sub-matrix `A[r0 .. r0+nr, c0 .. c0+nc]` as a new
    /// distributed matrix on the same grid, without communication.
    ///
    /// Alignment requirement (satisfied by the paper's recursive splits):
    /// `r0`, `nr` must be divisible by the number of grid rows, and `c0`, `nc`
    /// by the number of grid columns (or reach exactly to the matrix edge).
    pub fn subview(&self, r0: usize, nr: usize, c0: usize, nc: usize) -> Result<DistMatrix> {
        let pr = self.grid.rows();
        let pc = self.grid.cols();
        if r0 + nr > self.rows || c0 + nc > self.cols {
            return Err(GridError::BadDimensions {
                op: "subview",
                reason: format!(
                    "requested rows {r0}+{nr}, cols {c0}+{nc} exceed {}x{}",
                    self.rows, self.cols
                ),
            });
        }
        let row_aligned = r0.is_multiple_of(pr) && (nr.is_multiple_of(pr) || r0 + nr == self.rows);
        let col_aligned = c0.is_multiple_of(pc) && (nc.is_multiple_of(pc) || c0 + nc == self.cols);
        if !row_aligned || !col_aligned {
            return Err(GridError::BadDimensions {
                op: "subview",
                reason: format!(
                    "range rows [{r0}, {}) cols [{c0}, {}) is not aligned to the {}x{} grid",
                    r0 + nr,
                    c0 + nc,
                    pr,
                    pc
                ),
            });
        }
        let (x, y) = self.grid.my_coords();
        let lr0 = r0 / pr;
        let lc0 = c0 / pc;
        let lr = cyclic_local_count(nr, pr, x);
        let lc = cyclic_local_count(nc, pc, y);
        let buf = self.grid.comm().take_buffer(lr * lc);
        let local = self.local.block_into(lr0, lc0, lr, lc, buf);
        Ok(DistMatrix::wrap(self.grid.clone(), nr, nc, local))
    }

    /// Overwrite the aligned sub-matrix starting at `(r0, c0)` with `sub`
    /// (same alignment rules as [`DistMatrix::subview`], no communication).
    pub fn set_subview(&mut self, r0: usize, c0: usize, sub: &DistMatrix) -> Result<()> {
        let pr = self.grid.rows();
        let pc = self.grid.cols();
        let (nr, nc) = sub.dims();
        if !r0.is_multiple_of(pr) || !c0.is_multiple_of(pc) {
            return Err(GridError::BadDimensions {
                op: "set_subview",
                reason: format!("offset ({r0}, {c0}) is not aligned to the {pr}x{pc} grid"),
            });
        }
        if r0 + nr > self.rows || c0 + nc > self.cols {
            return Err(GridError::BadDimensions {
                op: "set_subview",
                reason: "sub-matrix does not fit".to_string(),
            });
        }
        self.invalidate_transpose();
        self.local.set_block(r0 / pr, c0 / pc, sub.local());
        Ok(())
    }

    /// In-place `self ← self - other` (same grid, same dimensions).
    pub fn sub_assign(&mut self, other: &DistMatrix) -> Result<()> {
        self.check_conformal(other, "sub_assign")?;
        self.invalidate_transpose();
        self.local
            .axpy(-1.0, &other.local)
            .map_err(|e| GridError::BadDimensions {
                op: "sub_assign",
                reason: e.to_string(),
            })
    }

    /// In-place `self ← self + other` (same grid, same dimensions).
    pub fn add_assign(&mut self, other: &DistMatrix) -> Result<()> {
        self.check_conformal(other, "add_assign")?;
        self.invalidate_transpose();
        self.local
            .axpy(1.0, &other.local)
            .map_err(|e| GridError::BadDimensions {
                op: "add_assign",
                reason: e.to_string(),
            })
    }

    /// Distributed relative Frobenius difference `‖A − B‖_F / max(‖B‖_F, 1)`
    /// computed with one allreduce (identical result on every rank).
    pub fn rel_diff(&self, other: &DistMatrix) -> Result<f64> {
        self.check_conformal(other, "rel_diff")?;
        let mut diff_sq = 0.0;
        let mut ref_sq = 0.0;
        for (a, b) in self
            .local
            .as_slice()
            .iter()
            .zip(other.local.as_slice().iter())
        {
            diff_sq += (a - b) * (a - b);
            ref_sq += b * b;
        }
        let sums = coll::allreduce(self.grid.comm(), &[diff_sq, ref_sq], coll::ReduceOp::Sum)?;
        Ok(sums[0].sqrt() / sums[1].sqrt().max(1.0))
    }

    fn check_conformal(&self, other: &DistMatrix, op: &'static str) -> Result<()> {
        if self.dims() != other.dims() {
            return Err(GridError::BadDimensions {
                op,
                reason: format!("{:?} vs {:?}", self.dims(), other.dims()),
            });
        }
        if self.grid.rows() != other.grid.rows() || self.grid.cols() != other.grid.cols() {
            return Err(GridError::GridMismatch { op });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Machine, MachineParams};

    fn with_grid<T: Send>(
        p: usize,
        pr: usize,
        pc: usize,
        f: impl Fn(&Grid2D) -> T + Send + Sync,
    ) -> Vec<T> {
        Machine::new(p, MachineParams::unit())
            .run(|comm| {
                let grid = Grid2D::new(comm, pr, pc).unwrap();
                f(&grid)
            })
            .unwrap()
            .results
    }

    fn test_matrix(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| (i * cols + j) as f64)
    }

    #[test]
    fn cyclic_counts_cover_everything() {
        for global in [0usize, 1, 5, 8, 13] {
            for procs in [1usize, 2, 3, 4, 7] {
                let total: usize = (0..procs)
                    .map(|c| cyclic_local_count(global, procs, c))
                    .sum();
                assert_eq!(total, global, "global={global} procs={procs}");
            }
        }
    }

    #[test]
    fn distribute_collect_round_trip() {
        for (pr, pc, rows, cols) in [
            (2usize, 2usize, 8usize, 8usize),
            (2, 3, 7, 11),
            (1, 4, 5, 12),
            (4, 1, 9, 3),
        ] {
            let global = test_matrix(rows, cols);
            let g2 = global.clone();
            let results = with_grid(pr * pc, pr, pc, move |grid| {
                let dist = DistMatrix::from_global(grid, &g2);
                dist.to_global()
            });
            for r in results {
                assert_eq!(r, global);
            }
        }
    }

    #[test]
    fn from_fn_matches_from_global() {
        let rows = 10;
        let cols = 6;
        let results = with_grid(4, 2, 2, move |grid| {
            let a = DistMatrix::from_fn(grid, rows, cols, |i, j| (i * cols + j) as f64);
            let b = DistMatrix::from_global(grid, &test_matrix(rows, cols));
            a.local().max_abs_diff(b.local()).unwrap()
        });
        assert!(results.into_iter().all(|d| d == 0.0));
    }

    #[test]
    fn local_dims_and_index_maps() {
        let results = with_grid(6, 2, 3, |grid| {
            let dist = DistMatrix::from_global(grid, &test_matrix(7, 8));
            let (x, y) = grid.my_coords();
            // Check every local entry maps back to the right global entry.
            for li in 0..dist.local().rows() {
                for lj in 0..dist.local().cols() {
                    let gi = dist.global_row(li);
                    let gj = dist.global_col(lj);
                    assert_eq!((gi % 2, gj % 3), (x, y), "cyclic ownership");
                    assert_eq!(dist.local()[(li, lj)], (gi * 8 + gj) as f64);
                }
            }
            dist.local().dims()
        });
        // Row counts: rows 0..7 over 2 proc rows -> coord 0 gets 4, coord 1 gets 3.
        // Col counts: cols 0..8 over 3 proc cols -> 3, 3, 2.
        assert_eq!(results[0], (4, 3));
        assert_eq!(results[5], (3, 2));
    }

    #[test]
    fn from_local_validates_dims() {
        let results = with_grid(4, 2, 2, |grid| {
            let ok = DistMatrix::from_local(grid, 4, 4, Matrix::zeros(2, 2)).is_ok();
            let bad = DistMatrix::from_local(grid, 4, 4, Matrix::zeros(3, 2)).is_err();
            ok && bad
        });
        assert!(results.into_iter().all(|v| v));
    }

    #[test]
    fn subview_is_consistent_with_global_blocks() {
        let rows = 12;
        let cols = 8;
        let global = test_matrix(rows, cols);
        let g2 = global.clone();
        let results = with_grid(4, 2, 2, move |grid| {
            let dist = DistMatrix::from_global(grid, &g2);
            let sub = dist.subview(4, 6, 2, 4).unwrap();
            sub.to_global()
        });
        let expect = global.block(4, 2, 6, 4);
        for r in results {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn subview_rejects_misaligned_ranges() {
        let results = with_grid(4, 2, 2, |grid| {
            let dist = DistMatrix::zeros(grid, 8, 8);
            let bad_offset = dist.subview(1, 2, 0, 2).is_err();
            let bad_len = dist.subview(0, 3, 0, 2).is_err();
            let too_big = dist.subview(0, 10, 0, 2).is_err();
            let ok_edge = dist.subview(0, 8, 4, 4).is_ok();
            bad_offset && bad_len && too_big && ok_edge
        });
        assert!(results.into_iter().all(|v| v));
    }

    #[test]
    fn set_subview_round_trip() {
        let results = with_grid(4, 2, 2, |grid| {
            let global = test_matrix(8, 8);
            let dist = DistMatrix::from_global(grid, &global);
            let sub = dist.subview(4, 4, 4, 4).unwrap();
            let mut dst = DistMatrix::zeros(grid, 8, 8);
            dst.set_subview(4, 4, &sub).unwrap();
            dst.to_global()
        });
        let mut expect = Matrix::zeros(8, 8);
        expect.set_block(4, 4, &test_matrix(8, 8).block(4, 4, 4, 4));
        for r in results {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn arithmetic_and_rel_diff() {
        let results = with_grid(4, 2, 2, |grid| {
            let a = DistMatrix::from_fn(grid, 6, 6, |i, j| (i + j) as f64);
            let b = DistMatrix::from_fn(grid, 6, 6, |i, j| (i * j) as f64);
            let mut c = a.clone();
            c.add_assign(&b).unwrap();
            c.sub_assign(&b).unwrap();
            let zero_diff = c.rel_diff(&a).unwrap();
            let nonzero_diff = a.rel_diff(&b).unwrap();
            (zero_diff, nonzero_diff)
        });
        for (z, nz) in results {
            assert!(z < 1e-14);
            assert!(nz > 1e-3);
        }
    }

    #[test]
    fn transposed_is_cached_reused_and_invalidated() {
        let results = with_grid(4, 2, 2, |grid| {
            let a = DistMatrix::from_fn(grid, 6, 4, |i, j| (i * 4 + j) as f64);
            // First use runs the redistribution; the second reuses it.
            let t1 = a.transposed() as *const DistMatrix;
            let correct = a.transposed().to_global() == a.to_global().transpose();
            let t2 = a.transposed() as *const DistMatrix;
            let cached = t1 == t2 && a.transpose_count() == 1;
            // A clone carries the cache without re-communicating.
            let c = a.clone();
            let clone_cached =
                c.transposed().to_global() == a.to_global().transpose() && c.transpose_count() == 0;
            // Mutation invalidates: the transpose is rebuilt, not stale.
            let mut m = a.clone();
            let gi = m.global_row(0);
            let gj = m.global_col(0);
            m.local_mut()[(0, 0)] = 99.0;
            let fresh = m.transposed().to_global()[(gj, gi)] == 99.0;
            correct && cached && clone_cached && fresh
        });
        assert!(results.into_iter().all(|v| v));
    }

    #[test]
    fn unit_diagonal_is_cached_reused_and_invalidated() {
        let results = with_grid(4, 2, 2, |grid| {
            let a = DistMatrix::from_fn(grid, 6, 6, |i, j| (i * 6 + j + 2) as f64);
            // First use materialises the overlay; the second reuses it.
            let u1 = a.unit_diagonal() as *const DistMatrix;
            let g = a.unit_diagonal().to_global();
            let mut correct = true;
            for i in 0..6 {
                for j in 0..6 {
                    let expect = if i == j { 1.0 } else { (i * 6 + j + 2) as f64 };
                    correct &= g[(i, j)] == expect;
                }
            }
            let u2 = a.unit_diagonal() as *const DistMatrix;
            let cached = u1 == u2 && a.unit_overlay_count() == 1;
            // A clone carries the cache without recomputing.
            let c = a.clone();
            let clone_cached = c.unit_diagonal().to_global() == g && c.unit_overlay_count() == 0;
            // Mutation invalidates: off-diagonal edits show through.
            let mut m = a.clone();
            let gi = m.global_row(0);
            let gj = m.global_col(0);
            m.local_mut()[(0, 0)] = 99.0;
            let refreshed =
                m.unit_diagonal().to_global()[(gi, gj)] == if gi == gj { 1.0 } else { 99.0 };
            correct && cached && clone_cached && refreshed
        });
        assert!(results.into_iter().all(|v| v));
    }

    #[test]
    fn conformality_is_checked() {
        let results = with_grid(4, 2, 2, |grid| {
            let a = DistMatrix::zeros(grid, 6, 6);
            let b = DistMatrix::zeros(grid, 4, 6);
            a.rel_diff(&b).is_err()
        });
        assert!(results.into_iter().all(|v| v));
    }
}

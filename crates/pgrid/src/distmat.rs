//! Matrices distributed over a 2D processor grid, each under its own
//! [`Layout`].
//!
//! Processor `(x, y)` of a `pr × pc` grid owns the entries
//! `A(x : pr : m, y : pc : n)` of the *cyclic* layout every algorithm in the
//! paper starts from, and every constructor here builds that layout.  The
//! local piece is stored densely as a [`dense::Matrix`]; global row `i` maps
//! to local row `i / pr` on the owner row `i mod pr` (and likewise for
//! columns).
//!
//! A `DistMatrix` is (grid, layout, local piece, diagonal kind), so the
//! operations the paper treats as free are relabellings, not copies: `J·A`
//! and `J·A·J` reverse the layout's axes ([`DistMatrix::reversed_rows`],
//! [`DistMatrix::reversed`]), `Aᵀ` swaps them and transposes the local piece
//! ([`DistMatrix::transpose`]), and a unit diagonal is a flag
//! ([`DistMatrix::with_diag`]) that the kernels copying the diagonal read.
//! None of them moves a word; [`DistMatrix::to_layout`] is the one move.
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
use dense::{Diag, Matrix};
use simnet::coll;
use std::borrow::Cow;

/// Number of global indices owned by grid coordinate `coord` out of `procs`
/// for a dimension of `global` indices distributed cyclically.
pub fn cyclic_local_count(global: usize, procs: usize, coord: usize) -> usize {
    if coord >= global {
        0
    } else {
        (global - coord).div_ceil(procs)
    }
}

/// A dense matrix distributed over a [`Grid2D`] under a [`Layout`].
///
/// Dropping it gives its local storage back to the machine's buffer pool
/// ([`simnet::Communicator::give_buffer`]).
#[derive(Clone)]
pub struct DistMatrix {
    grid: Grid2D,
    layout: Layout,
    local: Matrix,
    diag: Diag,
}

impl Drop for DistMatrix {
    fn drop(&mut self) {
        let local = std::mem::replace(&mut self.local, Matrix::zeros(0, 0));
        self.grid.comm().give_buffer(local.into_vec());
    }
}

impl DistMatrix {
    fn cyclic_on(grid: &Grid2D, rows: usize, cols: usize, local: Matrix) -> DistMatrix {
        DistMatrix {
            grid: grid.clone(),
            layout: Layout::cyclic(grid, rows, cols),
            local,
            diag: Diag::NonUnit,
        }
    }

    /// Create a distributed matrix filled with zeros.
    pub fn zeros(grid: &Grid2D, rows: usize, cols: usize) -> Self {
        let lr = cyclic_local_count(rows, grid.rows(), grid.my_row());
        let lc = cyclic_local_count(cols, grid.cols(), grid.my_col());
        let local = crate::pooled_zeros(grid.comm(), lr, lc);
        DistMatrix::cyclic_on(grid, rows, cols, local)
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
        DistMatrix::cyclic_on(grid, rows, cols, local)
    }

    /// Distribute a replicated global matrix: every rank extracts its cyclic
    /// piece locally (no communication).  All ranks must pass the same matrix.
    pub fn from_global(grid: &Grid2D, global: &Matrix) -> Self {
        let (x, y) = grid.my_coords();
        let (pr, pc) = (grid.rows(), grid.cols());
        let (rows, cols) = global.dims();
        let len = cyclic_local_count(rows, pr, x) * cyclic_local_count(cols, pc, y);
        let local = global.strided_block_into(x, pr, y, pc, grid.comm().take_buffer(len));
        DistMatrix::cyclic_on(grid, rows, cols, local)
    }

    /// Wrap an existing local piece of the cyclic layout (must already have
    /// the correct local dimensions for this rank).
    pub fn from_local(grid: &Grid2D, rows: usize, cols: usize, local: Matrix) -> Result<Self> {
        DistMatrix::from_layout(grid, Layout::cyclic(grid, rows, cols), local)
    }

    /// Wrap `local`, this rank's piece under `layout` (a layout over the
    /// grid's communicator), which must have the dimensions the layout gives
    /// this rank.
    pub fn from_layout(grid: &Grid2D, layout: Layout, local: Matrix) -> Result<Self> {
        let want = layout.local_dims(grid.comm().rank());
        if local.dims() != want {
            return Err(GridError::BadDimensions {
                op: "DistMatrix::from_layout",
                reason: format!(
                    "local piece is {}x{}, expected {}x{}",
                    local.rows(),
                    local.cols(),
                    want.0,
                    want.1
                ),
            });
        }
        Ok(DistMatrix {
            grid: grid.clone(),
            layout,
            local,
            diag: Diag::NonUnit,
        })
    }

    /// Global number of rows.
    pub fn rows(&self) -> usize {
        self.layout.dims().0
    }

    /// Global number of columns.
    pub fn cols(&self) -> usize {
        self.layout.dims().1
    }

    /// Global `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        self.layout.dims()
    }

    /// The grid the matrix is distributed over.
    pub fn grid(&self) -> &Grid2D {
        &self.grid
    }

    /// Where every entry is stored, as [`crate::redist::redistribute`]
    /// takes it.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Whether the stored diagonal is the matrix's ([`Diag::NonUnit`], the
    /// default) or stands for implicit ones ([`Diag::Unit`]).
    pub fn diag(&self) -> Diag {
        self.diag
    }

    /// This matrix with its diagonal read as `diag`: a flag, no entry
    /// changes.  Under [`Diag::Unit`] the matrix's value has ones on the
    /// diagonal whatever is stored there; [`DistMatrix::to_global`] writes
    /// them, and so does every kernel that copies the diagonal.
    pub fn with_diag(mut self, diag: Diag) -> DistMatrix {
        self.diag = diag;
        self
    }

    /// True when the matrix is stored in the cyclic layout of its grid.
    pub fn is_cyclic(&self) -> bool {
        let (rows, cols) = self.dims();
        self.layout
            .same_placement(&Layout::cyclic(&self.grid, rows, cols))
    }

    /// `J·A`, the rows in reverse order: the same local piece under the
    /// layout with the row axis reversed.  No word moves.
    pub fn reversed_rows(mut self) -> DistMatrix {
        self.layout = self.layout.reversed_rows();
        self
    }

    /// `J·A·J`, rows and columns in reverse order — lower triangular when
    /// `A` is upper: the same local piece under the layout with both axes
    /// reversed.  No word moves.
    pub fn reversed(mut self) -> DistMatrix {
        self.layout = self.layout.reversed();
        self
    }

    /// `Aᵀ`: the local piece transposed into a pooled buffer, under the
    /// layout with the axes swapped, so the holder of `(i, j)` in `A` holds
    /// `(j, i)` in `Aᵀ`.  No word moves.
    pub fn transpose(&self) -> DistMatrix {
        let (lr, lc) = self.local.dims();
        let mut buf = self.grid.comm().take_buffer(lr * lc);
        for j in 0..lc {
            buf.extend((0..lr).map(|i| self.local[(i, j)]));
        }
        DistMatrix {
            grid: self.grid.clone(),
            layout: self.layout.transposed(),
            local: Matrix::from_vec(lc, lr, buf).expect("lc × lr values"),
            diag: self.diag,
        }
    }

    /// Move this matrix's entries that pass `filter` to where `dst` stores
    /// them ([`redistribute`] from this matrix's layout, over the grid's
    /// communicator); returns this rank's local matrix under `dst`.
    pub fn redistribute_to(&self, dst: &Layout, filter: Filter) -> Result<Matrix> {
        redistribute(self.grid.comm(), &self.layout, &self.local, dst, filter)
    }

    /// This matrix moved into `dst` (a layout over the grid's
    /// communicator): the entries that pass `filter` travel, the rest are
    /// zero, and the diagonal kind comes along.
    pub fn to_layout(&self, dst: &Layout, filter: Filter) -> Result<DistMatrix> {
        let local = self.redistribute_to(dst, filter)?;
        Ok(DistMatrix::from_layout(&self.grid, *dst, local)?.with_diag(self.diag))
    }

    /// This matrix in the cyclic layout of its grid: itself when it is
    /// stored so already, else [`DistMatrix::to_layout`] with `filter`.
    pub fn cyclic(&self, filter: Filter) -> Result<Cow<'_, DistMatrix>> {
        if self.is_cyclic() {
            return Ok(Cow::Borrowed(self));
        }
        let (rows, cols) = self.dims();
        let cyclic = Layout::cyclic(&self.grid, rows, cols);
        Ok(Cow::Owned(self.to_layout(&cyclic, filter)?))
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
    pub fn local_mut(&mut self) -> &mut Matrix {
        &mut self.local
    }

    /// Collect the full matrix on every rank (allgather of all local pieces).
    ///
    /// Panics if the underlying collective fails; library code paths under
    /// fault injection use [`DistMatrix::try_to_global`] instead.
    pub fn to_global(&self) -> Matrix {
        self.try_to_global().expect("to_global collective failed")
    }

    /// Fallible form of [`DistMatrix::to_global`]: propagates transport
    /// errors (fault-injected timeouts, rank failures) as typed errors.  A
    /// [`Diag::Unit`] matrix comes back with ones on its diagonal.
    pub fn try_to_global(&self) -> Result<Matrix> {
        let (rows, cols) = self.dims();
        let _span = obs::span_with("pgrid", "to_global", "rows", rows as u64);
        let comm = self.grid.comm();
        let pieces = coll::allgatherv(comm, self.local.as_slice())?;
        let mut out = crate::pooled_zeros(comm, rows, cols);
        for (rank, piece) in pieces.into_iter().enumerate() {
            let (lr, lc) = self.layout.local_dims(rank);
            if piece.len() != lr * lc {
                return Err(GridError::BadDimensions {
                    op: "to_global",
                    reason: format!("rank {rank} holds {} values, not {lr}x{lc}", piece.len()),
                });
            }
            self.layout.write_piece(rank, &piece, &mut out);
            comm.give_buffer(piece);
        }
        if self.diag == Diag::Unit {
            for i in 0..rows.min(cols) {
                out[(i, i)] = 1.0;
            }
        }
        Ok(out)
    }

    /// The cyclic layout's typed error for a matrix stored otherwise.
    fn check_cyclic(&self, op: &'static str) -> Result<()> {
        match self.is_cyclic() {
            true => Ok(()),
            false => Err(GridError::BadDimensions {
                op,
                reason: "the matrix is not in its grid's cyclic layout".into(),
            }),
        }
    }

    /// Extract the aligned sub-matrix `A[r0 .. r0+nr, c0 .. c0+nc]` of a
    /// cyclic matrix as a new distributed matrix on the same grid, without
    /// communication.  A diagonal block (`r0 = c0`) keeps the diagonal kind.
    ///
    /// Alignment requirement (satisfied by the paper's recursive splits):
    /// `r0`, `nr` must be divisible by the number of grid rows, and `c0`, `nc`
    /// by the number of grid columns (or reach exactly to the matrix edge).
    pub fn subview(&self, r0: usize, nr: usize, c0: usize, nc: usize) -> Result<DistMatrix> {
        self.check_cyclic("subview")?;
        let pr = self.grid.rows();
        let pc = self.grid.cols();
        let (rows, cols) = self.dims();
        if r0 + nr > rows || c0 + nc > cols {
            return Err(GridError::BadDimensions {
                op: "subview",
                reason: format!(
                    "requested rows {r0}+{nr}, cols {c0}+{nc} exceed {}x{}",
                    rows, cols
                ),
            });
        }
        let row_aligned = r0.is_multiple_of(pr) && (nr.is_multiple_of(pr) || r0 + nr == rows);
        let col_aligned = c0.is_multiple_of(pc) && (nc.is_multiple_of(pc) || c0 + nc == cols);
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
        let diag = if r0 == c0 { self.diag } else { Diag::NonUnit };
        Ok(DistMatrix::cyclic_on(&self.grid, nr, nc, local).with_diag(diag))
    }

    /// Overwrite the aligned sub-matrix starting at `(r0, c0)` with `sub`
    /// (same alignment rules as [`DistMatrix::subview`], both cyclic, no
    /// communication).
    pub fn set_subview(&mut self, r0: usize, c0: usize, sub: &DistMatrix) -> Result<()> {
        self.check_cyclic("set_subview")?;
        sub.check_cyclic("set_subview")?;
        let pr = self.grid.rows();
        let pc = self.grid.cols();
        let (nr, nc) = sub.dims();
        if !r0.is_multiple_of(pr) || !c0.is_multiple_of(pc) {
            return Err(GridError::BadDimensions {
                op: "set_subview",
                reason: format!("offset ({r0}, {c0}) is not aligned to the {pr}x{pc} grid"),
            });
        }
        if r0 + nr > self.rows() || c0 + nc > self.cols() {
            return Err(GridError::BadDimensions {
                op: "set_subview",
                reason: "sub-matrix does not fit".to_string(),
            });
        }
        self.local.set_block(r0 / pr, c0 / pc, sub.local());
        Ok(())
    }

    /// In-place `self ← self - other` (same grid, dimensions and layout).
    pub fn sub_assign(&mut self, other: &DistMatrix) -> Result<()> {
        self.check_conformal(other, "sub_assign")?;
        self.local
            .axpy(-1.0, &other.local)
            .map_err(|e| GridError::BadDimensions {
                op: "sub_assign",
                reason: e.to_string(),
            })
    }

    /// In-place `self ← self + other` (same grid, dimensions and layout).
    pub fn add_assign(&mut self, other: &DistMatrix) -> Result<()> {
        self.check_conformal(other, "add_assign")?;
        self.local
            .axpy(1.0, &other.local)
            .map_err(|e| GridError::BadDimensions {
                op: "add_assign",
                reason: e.to_string(),
            })
    }

    /// Distributed relative Frobenius difference `‖A − B‖_F / max(‖B‖_F, 1)`
    /// of the stored entries, computed with one allreduce (identical result
    /// on every rank).
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
        if self.grid.rows() != other.grid.rows()
            || self.grid.cols() != other.grid.cols()
            || !self.layout.same_placement(&other.layout)
        {
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
            // Every local entry is the global entry of the cyclic owner.
            for li in 0..dist.local().rows() {
                for lj in 0..dist.local().cols() {
                    let (gi, gj) = (li * 2 + x, lj * 3 + y);
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
            let relabelled = dist.reversed().subview(0, 4, 0, 4).is_err();
            bad_offset && bad_len && too_big && ok_edge && relabelled
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

    /// `J·A`, `J·A·J`, `Aᵀ` and the unit flag are relabellings: each reads
    /// back as the matrix it names and charges nothing.
    #[test]
    fn relabels_name_their_matrix_and_move_nothing() {
        let (rows, cols) = (7, 5);
        let a = Matrix::from_fn(rows, cols, |i, j| (i * cols + j + 2) as f64);
        let a2 = a.clone();
        let out = Machine::new(6, MachineParams::unit())
            .run(move |comm| {
                let grid = Grid2D::new(comm, 2, 3).unwrap();
                let dist = DistMatrix::from_global(&grid, &a2);
                let before = comm.counters();
                let relabelled = [
                    dist.clone().reversed_rows(),
                    dist.clone().reversed(),
                    dist.transpose(),
                    dist.clone().with_diag(Diag::Unit),
                ];
                let moved = comm.counters().since(&before);
                (relabelled.map(|m| m.to_global()), moved)
            })
            .unwrap();
        let j_a = Matrix::from_fn(rows, cols, |i, j| a[(rows - 1 - i, j)]);
        let j_a_j = Matrix::from_fn(rows, cols, |i, j| a[(rows - 1 - i, cols - 1 - j)]);
        let unit = Matrix::from_fn(rows, cols, |i, j| if i == j { 1.0 } else { a[(i, j)] });
        for ([rows_rev, both_rev, at, with_ones], moved) in out.results {
            assert_eq!(rows_rev, j_a);
            assert_eq!(both_rev, j_a_j);
            assert_eq!(at, a.transpose());
            assert_eq!(with_ones, unit);
            assert_eq!(moved, simnet::CostCounters::default());
        }
    }

    #[test]
    fn conformality_is_checked() {
        let results = with_grid(4, 2, 2, |grid| {
            let a = DistMatrix::zeros(grid, 6, 6);
            let b = DistMatrix::zeros(grid, 4, 6);
            let relabelled = a.clone().reversed();
            a.rel_diff(&b).is_err() && a.rel_diff(&relabelled).is_err()
        });
        assert!(results.into_iter().all(|v| v));
    }
}

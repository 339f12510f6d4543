//! Row-major dense matrix type and block/strided access helpers.
//!
//! [`Matrix`] is the single storage type used throughout the reproduction.
//! Besides the usual constructors and element access it provides the two
//! access patterns the paper's algorithms rely on:
//!
//! * **contiguous blocks** (`block`, `set_block`) used by the blocked kernels
//!   and the block distributions, and
//! * **strided (cyclic) sub-matrices** (`strided_block`, `set_strided_block`)
//!   which extract `A(r0 : sr : rows, c0 : sc : cols)` in the colon notation of
//!   the paper — exactly the pieces a processor owns under a cyclic layout.

use crate::error::DenseError;
use crate::Result;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Index, IndexMut};

/// A dense, row-major, heap-allocated `f64` matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a generating function `f(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a row-major slice of `rows * cols` elements.
    ///
    /// Returns an error if the slice length does not match the dimensions.
    pub fn from_row_major(rows: usize, cols: usize, data: &[f64]) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(DenseError::InvalidParameter {
                name: "data",
                reason: format!(
                    "expected {} elements for a {}x{} matrix, got {}",
                    rows * cols,
                    rows,
                    cols,
                    data.len()
                ),
            });
        }
        Ok(Matrix {
            rows,
            cols,
            data: data.to_vec(),
        })
    }

    /// Creates a matrix taking ownership of a row-major vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(DenseError::InvalidParameter {
                name: "data",
                reason: format!(
                    "expected {} elements for a {}x{} matrix, got {}",
                    rows * cols,
                    rows,
                    cols,
                    data.len()
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Total number of stored elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix and return its row-major storage.
    #[inline]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Checked element access.
    pub fn get(&self, i: usize, j: usize) -> Result<f64> {
        if i >= self.rows || j >= self.cols {
            return Err(DenseError::OutOfBounds {
                op: "get",
                index: (i, j),
                dims: (self.rows, self.cols),
            });
        }
        Ok(self.data[i * self.cols + j])
    }

    /// Checked element update.
    pub fn set(&mut self, i: usize, j: usize, v: f64) -> Result<()> {
        if i >= self.rows || j >= self.cols {
            return Err(DenseError::OutOfBounds {
                op: "set",
                index: (i, j),
                dims: (self.rows, self.cols),
            });
        }
        self.data[i * self.cols + j] = v;
        Ok(())
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a freshly allocated vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Extract the contiguous block `A[r0 .. r0+nr, c0 .. c0+nc]`.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Matrix {
        self.block_into(r0, c0, nr, nc, Vec::with_capacity(nr * nc))
    }

    /// [`Matrix::block`], stored in `buf` (cleared first) instead of fresh
    /// memory: a caller that recycles buffers passes one in.
    pub fn block_into(
        &self,
        r0: usize,
        c0: usize,
        nr: usize,
        nc: usize,
        mut buf: Vec<f64>,
    ) -> Matrix {
        debug_assert!(r0 + nr <= self.rows && c0 + nc <= self.cols);
        buf.clear();
        for i in r0..r0 + nr {
            buf.extend_from_slice(&self.row(i)[c0..c0 + nc]);
        }
        Matrix {
            rows: nr,
            cols: nc,
            data: buf,
        }
    }

    /// Overwrite the contiguous block starting at `(r0, c0)` with `b`.
    pub fn set_block(&mut self, r0: usize, c0: usize, b: &Matrix) {
        debug_assert!(r0 + b.rows <= self.rows && c0 + b.cols <= self.cols);
        for i in 0..b.rows {
            let dst_start = (r0 + i) * self.cols + c0;
            self.data[dst_start..dst_start + b.cols].copy_from_slice(b.row(i));
        }
    }

    /// Extract the strided sub-matrix `A(r0 : sr : rows, c0 : sc : cols)` in the
    /// paper's colon notation, i.e. rows `r0, r0+sr, r0+2sr, …` and columns
    /// `c0, c0+sc, …`.  This is the piece of a matrix a processor with grid
    /// coordinates `(r0, c0)` owns under a cyclic layout over an `sr × sc`
    /// processor grid.
    pub fn strided_block(&self, r0: usize, sr: usize, c0: usize, sc: usize) -> Matrix {
        assert!(sr > 0 && sc > 0, "strides must be positive");
        let nr = self.rows.saturating_sub(r0).div_ceil(sr);
        let nc = self.cols.saturating_sub(c0).div_ceil(sc);
        self.strided_block_into(r0, sr, c0, sc, Vec::with_capacity(nr * nc))
    }

    /// [`Matrix::strided_block`], stored in `buf` (cleared first) instead of
    /// fresh memory: a caller that recycles buffers passes one in.
    pub fn strided_block_into(
        &self,
        r0: usize,
        sr: usize,
        c0: usize,
        sc: usize,
        mut buf: Vec<f64>,
    ) -> Matrix {
        assert!(sr > 0 && sc > 0, "strides must be positive");
        let nr = self.rows.saturating_sub(r0).div_ceil(sr);
        let nc = self.cols.saturating_sub(c0).div_ceil(sc);
        buf.clear();
        if nc > 0 {
            for i in (r0..self.rows).step_by(sr) {
                buf.extend(self.row(i)[c0..].iter().step_by(sc));
            }
        }
        Matrix {
            rows: nr,
            cols: nc,
            data: buf,
        }
    }

    /// Scatter `b` back into the strided positions `(r0 : sr, c0 : sc)`.
    /// Inverse of [`Matrix::strided_block`].
    pub fn set_strided_block(&mut self, r0: usize, sr: usize, c0: usize, sc: usize, b: MatRef<'_>) {
        assert!(sr > 0 && sc > 0, "strides must be positive");
        let (rows, cols) = b.dims();
        if rows == 0 || cols == 0 {
            return;
        }
        assert!(
            r0 + (rows - 1) * sr < self.rows && c0 + (cols - 1) * sc < self.cols,
            "set_strided_block: block does not fit"
        );
        for i in 0..rows {
            let dst = self.row_mut(r0 + i * sr)[c0..].iter_mut().step_by(sc);
            for (d, s) in dst.zip(b.row(i)) {
                *d = *s;
            }
        }
    }

    /// Element-wise sum `self + other`.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) -> Result<()> {
        if self.dims() != other.dims() {
            return Err(DenseError::DimensionMismatch {
                op: "axpy",
                lhs: self.dims(),
                rhs: other.dims(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Returns `alpha * self`.
    pub fn scale(&self, alpha: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| alpha * v).collect(),
        }
    }

    /// In-place multiplication by a scalar.
    pub fn scale_in_place(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Set every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Returns a copy with everything strictly above the diagonal zeroed.
    pub fn lower_triangular_part(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| {
            if j <= i {
                self[(i, j)]
            } else {
                0.0
            }
        })
    }

    /// Returns a copy with everything strictly below the diagonal zeroed.
    pub fn upper_triangular_part(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| {
            if j >= i {
                self[(i, j)]
            } else {
                0.0
            }
        })
    }

    /// `true` if every element strictly above the diagonal is `0.0`.
    pub fn is_lower_triangular(&self) -> bool {
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if self[(i, j)] != 0.0 {
                    return false;
                }
            }
        }
        true
    }

    /// `true` if every element strictly below the diagonal is `0.0`.
    pub fn is_upper_triangular(&self) -> bool {
        for j in 0..self.cols {
            for i in (j + 1)..self.rows {
                if self[(i, j)] != 0.0 {
                    return false;
                }
            }
        }
        true
    }

    /// Maximum absolute difference to `other`; `None` on dimension mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> Option<f64> {
        if self.dims() != other.dims() {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max),
        )
    }

    /// Borrow the rectangular block `A[r0 .. r0+nr, c0 .. c0+nc]` without
    /// copying it.
    pub fn view(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatRef<'_> {
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "view: block ({r0}+{nr}, {c0}+{nc}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        if nr == 0 || nc == 0 {
            return MatRef::empty(nr, nc, self.cols);
        }
        // SAFETY: the assert guarantees the block lies inside `self.data`,
        // which `&self` keeps alive (and un-mutated through any unique
        // reference) for the view's lifetime.
        unsafe {
            MatRef::from_raw_parts(
                self.data.as_ptr().add(r0 * self.cols + c0),
                nr,
                nc,
                self.cols,
            )
        }
    }

    /// Mutably borrow the rectangular block `A[r0 .. r0+nr, c0 .. c0+nc]`
    /// without copying it.
    pub fn view_mut(&mut self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatMut<'_> {
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "view_mut: block ({r0}+{nr}, {c0}+{nc}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        let stride = self.cols;
        if nr == 0 || nc == 0 {
            return MatMut::empty(nr, nc, stride);
        }
        // SAFETY: the assert guarantees the block lies inside `self.data`,
        // and `&mut self` gives this view exclusive access to it.
        unsafe {
            MatMut::from_raw_parts(self.data.as_mut_ptr().add(r0 * stride + c0), nr, nc, stride)
        }
    }

    /// The whole matrix as an immutable view.
    pub fn as_view(&self) -> MatRef<'_> {
        self.view(0, 0, self.rows, self.cols)
    }

    /// The whole matrix as a mutable view.
    pub fn as_view_mut(&mut self) -> MatMut<'_> {
        let (rows, cols) = (self.rows, self.cols);
        self.view_mut(0, 0, rows, cols)
    }

    fn zip_with<F: Fn(f64, f64) -> f64>(
        &self,
        other: &Matrix,
        op: &'static str,
        f: F,
    ) -> Result<Matrix> {
        if self.dims() != other.dims() {
            return Err(DenseError::DimensionMismatch {
                op,
                lhs: self.dims(),
                rhs: other.dims(),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| f(*a, *b))
                .collect(),
        })
    }
}

/// Immutable borrowed view of a rectangular block of a [`Matrix`].
///
/// The view references the owner's row-major storage in place: element
/// `(i, j)` lives at `ptr.add(i * stride + j)`.  Views are what let the
/// blocked kernels (and the `catrsm` algorithms) update sub-blocks without
/// cloning them first.
///
/// Like [`MatMut`], the representation is a raw pointer plus geometry, with
/// the same invariants (in-bounds, non-aliasing element addresses) minus
/// exclusivity: a `MatRef` only claims its own `rows × cols` **elements** —
/// never the gap bytes between rows — so an interleaved sibling view (e.g.
/// the other half of a [`MatMut::split_cols_at_mut`], reborrowed via
/// [`MatMut::rb`]) can be written concurrently without the two views'
/// memory claims overlapping.
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    ptr: *const f64,
    rows: usize,
    cols: usize,
    stride: usize,
    _marker: PhantomData<&'a [f64]>,
}

// SAFETY: a `MatRef` is semantically a `&[f64]` over its disjoint elements
// (shared read-only access for its lifetime), and `f64` is `Sync`, so both
// sharing it across threads and moving it are sound — workers of the
// parallel GEMM read `A`/`B` chunks through it.
unsafe impl Send for MatRef<'_> {}
unsafe impl Sync for MatRef<'_> {}

impl<'a> MatRef<'a> {
    /// Builds a view from raw parts.
    ///
    /// # Safety
    /// The caller must guarantee in-bounds geometry (element `(i, j)` at
    /// `ptr.add(i*stride + j)` valid for reads for all `i < rows`,
    /// `j < cols`), `cols <= stride` for multi-row views, and that no unique
    /// reference to those elements is live for `'a`.
    #[inline]
    pub(crate) unsafe fn from_raw_parts(
        ptr: *const f64,
        rows: usize,
        cols: usize,
        stride: usize,
    ) -> MatRef<'a> {
        debug_assert!(rows <= 1 || cols <= stride);
        MatRef {
            ptr,
            rows,
            cols,
            stride,
            _marker: PhantomData,
        }
    }

    /// An empty view with the given (degenerate) dimensions.
    #[inline]
    fn empty(rows: usize, cols: usize, stride: usize) -> MatRef<'a> {
        debug_assert!(rows == 0 || cols == 0);
        MatRef {
            ptr: std::ptr::NonNull::dangling().as_ptr(),
            rows,
            cols,
            stride,
            _marker: PhantomData,
        }
    }

    /// View a contiguous row-major slice as a `rows×cols` matrix.
    pub fn from_slice(data: &'a [f64], rows: usize, cols: usize) -> MatRef<'a> {
        assert_eq!(data.len(), rows * cols, "from_slice: length mismatch");
        if rows == 0 || cols == 0 {
            return MatRef::empty(rows, cols, cols);
        }
        // SAFETY: the length check makes the `rows×cols` geometry (stride =
        // cols) exactly cover `data`, which we borrow for `'a`.
        unsafe { MatRef::from_raw_parts(data.as_ptr(), rows, cols, cols) }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Distance in elements between consecutive rows.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Element access.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.rows && j < self.cols,
            "at: ({i}, {j}) out of bounds"
        );
        // SAFETY: bounds just checked; in-bounds elements are valid reads.
        unsafe { *self.ptr.add(i * self.stride + j) }
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row: {i} out of bounds");
        // SAFETY: row `i` is `cols` contiguous in-bounds elements.
        unsafe { std::slice::from_raw_parts(self.ptr.add(i * self.stride), self.cols) }
    }

    /// Pointer to element `(0, 0)`.
    #[inline]
    pub fn as_ptr(&self) -> *const f64 {
        self.ptr
    }

    /// A sub-view of this view.
    pub fn subview(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatRef<'a> {
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "subview out of bounds"
        );
        if nr == 0 || nc == 0 {
            return MatRef::empty(nr, nc, self.stride);
        }
        // SAFETY: `(r0, c0)` is an in-bounds element (both blocks
        // non-empty) and the sub-block stays inside `self`'s block.
        unsafe { MatRef::from_raw_parts(self.ptr.add(r0 * self.stride + c0), nr, nc, self.stride) }
    }
}

/// Mutable borrowed view of a rectangular block of a [`Matrix`].
///
/// See [`MatRef`]; the mutable variant additionally supports in-place
/// updates, which is how the blocked triangular kernels write their results
/// without intermediate clones.
///
/// Internally the view is a raw pointer plus `(rows, cols, stride)` geometry
/// rather than a `&mut [f64]`.  A slice-backed mutable view cannot be split
/// **by columns** — the two halves interleave in memory, which is why the
/// right-side blocked TRSM updates used to drop down to raw-pointer GEMM
/// calls.  With the pointer representation [`MatMut::split_cols_at_mut`] and
/// [`MatMut::split_rows_at_mut`] both hand out two provably disjoint views,
/// and every public method stays safe: all `unsafe` is confined to this type's
/// implementation.
///
/// # Invariants (maintained by every constructor)
///
/// * For non-empty views, `ptr` points at element `(0, 0)` and element
///   `(i, j)` lives at `ptr.add(i * stride + j)` for all `i < rows`,
///   `j < cols`; every such element is inside one live allocation.
/// * `cols <= stride` whenever `rows > 1`, so distinct `(i, j)` pairs never
///   alias.
/// * The view has exclusive access to its elements for its lifetime `'a`
///   (enforced by borrowing rules at the safe construction sites:
///   [`Matrix::view_mut`], [`MatMut::from_slice`], splits and sub-views of
///   existing views).
/// * Empty views (`rows == 0 || cols == 0`) never dereference `ptr`.
pub struct MatMut<'a> {
    ptr: *mut f64,
    rows: usize,
    cols: usize,
    stride: usize,
    _marker: PhantomData<&'a mut [f64]>,
}

// SAFETY: a `MatMut` is semantically a `&mut` over its disjoint elements
// (exclusive access for its lifetime, see the type invariants), and `f64` is
// `Send`, so moving the view to another thread is sound — this is what lets
// the parallel GEMM hand disjoint column chunks of `C` to scoped workers.
unsafe impl Send for MatMut<'_> {}

impl<'a> MatMut<'a> {
    /// Builds a view from raw parts.
    ///
    /// # Safety
    /// The caller must guarantee the type invariants listed on [`MatMut`]:
    /// in-bounds geometry, `cols <= stride` (for multi-row views), and
    /// exclusive access to the viewed elements for `'a`.
    #[inline]
    pub(crate) unsafe fn from_raw_parts(
        ptr: *mut f64,
        rows: usize,
        cols: usize,
        stride: usize,
    ) -> MatMut<'a> {
        debug_assert!(rows <= 1 || cols <= stride);
        MatMut {
            ptr,
            rows,
            cols,
            stride,
            _marker: PhantomData,
        }
    }

    /// An empty view with the given (degenerate) dimensions.
    #[inline]
    fn empty(rows: usize, cols: usize, stride: usize) -> MatMut<'a> {
        debug_assert!(rows == 0 || cols == 0);
        MatMut {
            ptr: std::ptr::NonNull::dangling().as_ptr(),
            rows,
            cols,
            stride,
            _marker: PhantomData,
        }
    }

    /// View a contiguous row-major slice as a mutable `rows×cols` matrix.
    pub fn from_slice(data: &'a mut [f64], rows: usize, cols: usize) -> MatMut<'a> {
        assert_eq!(data.len(), rows * cols, "from_slice: length mismatch");
        if rows == 0 || cols == 0 {
            return MatMut::empty(rows, cols, cols);
        }
        // SAFETY: the length check makes the `rows×cols` geometry (stride =
        // cols) exactly cover `data`, which we borrow mutably for `'a`.
        unsafe { MatMut::from_raw_parts(data.as_mut_ptr(), rows, cols, cols) }
    }

    /// Reborrow: a shorter-lived mutable view of the same block, leaving
    /// `self` usable again afterwards.
    #[inline]
    pub fn reborrow(&mut self) -> MatMut<'_> {
        MatMut {
            ptr: self.ptr,
            rows: self.rows,
            cols: self.cols,
            stride: self.stride,
            _marker: PhantomData,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Distance in elements between consecutive rows.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Element access.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.rows && j < self.cols,
            "at: ({i}, {j}) out of bounds"
        );
        // SAFETY: bounds just checked; in-bounds elements are valid reads.
        unsafe { *self.ptr.add(i * self.stride + j) }
    }

    /// Mutable element access.
    #[inline]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "at_mut: ({i}, {j}) out of bounds"
        );
        // SAFETY: bounds just checked; `&mut self` makes the borrow unique.
        unsafe { &mut *self.ptr.add(i * self.stride + j) }
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row: {i} out of bounds");
        // SAFETY: row `i` is `cols` contiguous in-bounds elements.
        unsafe { std::slice::from_raw_parts(self.ptr.add(i * self.stride), self.cols) }
    }

    /// Row `i` as a contiguous mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row_mut: {i} out of bounds");
        // SAFETY: row `i` is `cols` contiguous in-bounds elements, and
        // `&mut self` makes the borrow unique.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(i * self.stride), self.cols) }
    }

    /// The viewed elements as one slice, when they are contiguous in memory
    /// (at most one row, or rows exactly `stride` apart).
    pub(crate) fn as_contiguous_mut(&mut self) -> Option<&mut [f64]> {
        if self.rows > 1 && self.cols != self.stride {
            return None;
        }
        // SAFETY: element `(i, j)` lives at `ptr + i·stride + j`; with one
        // row or `cols == stride` the elements are exactly the
        // `rows·cols` consecutive ones from `ptr` (none for an empty view,
        // whose dangling `ptr` a zero-length slice never reads), and
        // `&mut self` makes the borrow unique.
        Some(unsafe { std::slice::from_raw_parts_mut(self.ptr, self.rows * self.cols) })
    }

    /// Pointer to element `(0, 0)`.
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut f64 {
        self.ptr
    }

    /// Reborrow as an immutable view.
    ///
    /// The result claims only this view's elements (no gap bytes between
    /// rows), so it coexists soundly with writes to an interleaved sibling
    /// view — e.g. the other half of a [`MatMut::split_cols_at_mut`].
    #[inline]
    pub fn rb(&self) -> MatRef<'_> {
        if self.rows == 0 || self.cols == 0 {
            return MatRef::empty(self.rows, self.cols, self.stride);
        }
        // SAFETY: same in-bounds geometry as `self`; `&self` freezes this
        // view's elements for the returned lifetime.
        unsafe { MatRef::from_raw_parts(self.ptr, self.rows, self.cols, self.stride) }
    }

    /// A mutable sub-view; consumes the borrow for the lifetime of the result.
    pub fn subview_mut(self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatMut<'a> {
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "subview_mut out of bounds"
        );
        if nr == 0 || nc == 0 {
            return MatMut::empty(nr, nc, self.stride);
        }
        // SAFETY: `(r0, c0)` is an in-bounds element (both blocks non-empty),
        // the sub-block stays inside `self`'s block, and `self` is consumed,
        // transferring its exclusive access.
        unsafe { MatMut::from_raw_parts(self.ptr.add(r0 * self.stride + c0), nr, nc, self.stride) }
    }

    /// A shorter-lived mutable sub-view that leaves `self` usable afterwards
    /// (shorthand for `reborrow().subview_mut(..)`).
    #[inline]
    pub fn submat_mut(&mut self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatMut<'_> {
        self.reborrow().subview_mut(r0, c0, nr, nc)
    }

    /// Split into the rows above `r` and the rows from `r` down.
    pub fn split_rows_at_mut(self, r: usize) -> (MatMut<'a>, MatMut<'a>) {
        assert!(r <= self.rows, "split_rows_at_mut out of bounds");
        let stride = self.stride;
        let (rows, cols) = (self.rows, self.cols);
        if r == 0 {
            return (MatMut::empty(0, cols, stride), self);
        }
        if r == rows {
            return (self, MatMut::empty(0, cols, stride));
        }
        // SAFETY: both halves are non-empty in-bounds sub-blocks of `self`
        // covering disjoint row ranges (`0..r` and `r..rows`), so handing
        // each half exclusive access splits — never duplicates — `self`'s
        // exclusive access.
        unsafe {
            (
                MatMut::from_raw_parts(self.ptr, r, cols, stride),
                MatMut::from_raw_parts(self.ptr.add(r * stride), rows - r, cols, stride),
            )
        }
    }

    /// Split into the columns left of `c` and the columns from `c` right.
    ///
    /// The two views interleave in memory (each row of the right view sits
    /// between two rows of the left one), which is exactly what a
    /// slice-backed view could not express; with the raw-pointer
    /// representation they are still provably element-disjoint.  This is the
    /// split the right-side blocked TRSM updates and the parallel GEMM's
    /// column partitioning are built on.
    pub fn split_cols_at_mut(self, c: usize) -> (MatMut<'a>, MatMut<'a>) {
        assert!(c <= self.cols, "split_cols_at_mut out of bounds");
        let stride = self.stride;
        let (rows, cols) = (self.rows, self.cols);
        if c == 0 {
            return (MatMut::empty(rows, 0, stride), self);
        }
        if c == cols {
            return (self, MatMut::empty(rows, 0, stride));
        }
        // SAFETY: both halves are non-empty in-bounds sub-blocks of `self`
        // covering disjoint column ranges (`0..c` and `c..cols`) of the same
        // rows: element (i, j) of the left half is `ptr + i*stride + j` with
        // `j < c`, of the right half `ptr + i*stride + c + j'` with
        // `j' < cols - c <= stride - c` — the index sets are disjoint, so
        // `self`'s exclusive access is split, never duplicated.
        unsafe {
            (
                MatMut::from_raw_parts(self.ptr, rows, c, stride),
                MatMut::from_raw_parts(self.ptr.add(c), rows, cols - c, stride),
            )
        }
    }

    /// Borrow row `i` mutably and row `j` immutably at the same time
    /// (`i != j`) — the split borrow the substitution kernels need for
    /// `row_i -= a · row_j` updates.
    pub fn row_pair_mut(&mut self, i: usize, j: usize) -> (&mut [f64], &[f64]) {
        assert!(
            i != j && i < self.rows && j < self.rows,
            "row_pair_mut: bad rows {i}, {j}"
        );
        // SAFETY: rows `i` and `j` are distinct, so with `cols <= stride`
        // the two `cols`-long ranges cannot overlap; `&mut self` makes the
        // mutable half unique.
        unsafe {
            (
                std::slice::from_raw_parts_mut(self.ptr.add(i * self.stride), self.cols),
                std::slice::from_raw_parts(self.ptr.add(j * self.stride), self.cols),
            )
        }
    }

    /// Set every element of the viewed block to zero.
    pub fn fill_zero(&mut self) {
        for i in 0..self.rows {
            self.row_mut(i).fill(0.0);
        }
    }

    /// Scale every element of the viewed block in place.
    pub fn scale_in_place(&mut self, alpha: f64) {
        for i in 0..self.rows {
            for v in self.row_mut(i) {
                *v *= alpha;
            }
        }
    }

    /// In-place `self += alpha * other` over the viewed block.
    pub fn axpy(&mut self, alpha: f64, other: MatRef<'_>) {
        assert_eq!(self.dims(), other.dims(), "axpy: dimension mismatch");
        for i in 0..self.rows {
            let src = other.row(i);
            for (d, s) in self.row_mut(i).iter_mut().zip(src) {
                *d += alpha * s;
            }
        }
    }

    /// Overwrite the viewed block with `other`.
    pub fn copy_from(&mut self, other: MatRef<'_>) {
        assert_eq!(self.dims(), other.dims(), "copy_from: dimension mismatch");
        for i in 0..self.rows {
            self.row_mut(i).copy_from_slice(other.row(i));
        }
    }
}

/// A whole matrix is its own full-size view.
impl<'a> From<&'a mut Matrix> for MatMut<'a> {
    fn from(m: &'a mut Matrix) -> MatMut<'a> {
        m.as_view_mut()
    }
}

/// A vector is the `n×1` column view of its slice: single-RHS and block
/// solves share one right-hand-side type.
impl<'a> From<&'a mut [f64]> for MatMut<'a> {
    fn from(x: &'a mut [f64]) -> MatMut<'a> {
        let n = x.len();
        MatMut::from_slice(x, n, 1)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_show = 8;
        for i in 0..self.rows.min(max_show) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(max_show) {
                write!(f, "{:10.4}", self[(i, j)])?;
                if j + 1 < self.cols.min(max_show) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > max_show {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_dims() {
        let m = Matrix::zeros(3, 5);
        assert_eq!(m.dims(), (3, 5));
        assert_eq!(m.len(), 15);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert!(!m.is_empty());
        assert!(Matrix::zeros(0, 0).is_empty());
    }

    #[test]
    fn identity_is_identity() {
        let m = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
        assert!(m.is_square());
    }

    #[test]
    fn from_fn_and_index() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(m.col(2), vec![2.0, 12.0]);
    }

    #[test]
    fn from_row_major_checks_length() {
        assert!(Matrix::from_row_major(2, 2, &[1.0, 2.0, 3.0]).is_err());
        let m = Matrix::from_row_major(2, 2, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 3, vec![0.0; 5]).is_err());
        assert!(Matrix::from_vec(2, 3, vec![0.0; 6]).is_ok());
    }

    #[test]
    fn get_set_checked() {
        let mut m = Matrix::zeros(2, 2);
        assert!(m.get(2, 0).is_err());
        assert!(m.set(0, 2, 1.0).is_err());
        m.set(1, 1, 5.0).unwrap();
        assert_eq!(m.get(1, 1).unwrap(), 5.0);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 7 + j * 3) as f64);
        let t = m.transpose();
        assert_eq!(t.dims(), (5, 3));
        assert_eq!(t.transpose(), m);
        for i in 0..3 {
            for j in 0..5 {
                assert_eq!(m[(i, j)], t[(j, i)]);
            }
        }
    }

    #[test]
    fn block_extract_insert_round_trip() {
        let m = Matrix::from_fn(6, 6, |i, j| (i * 6 + j) as f64);
        let b = m.block(2, 3, 3, 2);
        assert_eq!(b.dims(), (3, 2));
        assert_eq!(b[(0, 0)], m[(2, 3)]);
        assert_eq!(b[(2, 1)], m[(4, 4)]);

        let mut m2 = Matrix::zeros(6, 6);
        m2.set_block(2, 3, &b);
        assert_eq!(m2[(2, 3)], m[(2, 3)]);
        assert_eq!(m2[(4, 4)], m[(4, 4)]);
        assert_eq!(m2[(0, 0)], 0.0);
    }

    #[test]
    fn strided_block_matches_cyclic_ownership() {
        // 6x6 matrix, 2x3 processor grid, processor (1, 2) owns rows 1,3,5 and cols 2,5.
        let m = Matrix::from_fn(6, 6, |i, j| (i * 6 + j) as f64);
        let b = m.strided_block(1, 2, 2, 3);
        assert_eq!(b.dims(), (3, 2));
        assert_eq!(b[(0, 0)], m[(1, 2)]);
        assert_eq!(b[(1, 1)], m[(3, 5)]);
        assert_eq!(b[(2, 0)], m[(5, 2)]);
    }

    #[test]
    fn strided_block_round_trip() {
        let m = Matrix::from_fn(8, 8, |i, j| (i * 8 + j) as f64 + 1.0);
        let mut rebuilt = Matrix::zeros(8, 8);
        for r0 in 0..2 {
            for c0 in 0..4 {
                let b = m.strided_block(r0, 2, c0, 4);
                rebuilt.set_strided_block(r0, 2, c0, 4, b.as_view());
            }
        }
        assert_eq!(rebuilt, m);
    }

    #[test]
    fn extracting_into_a_used_buffer_ignores_its_contents() {
        let m = Matrix::from_fn(7, 5, |i, j| (i * 5 + j) as f64 - 3.5);
        let used = || vec![f64::NAN; 40];
        assert_eq!(m.block_into(2, 1, 4, 3, used()), m.block(2, 1, 4, 3));
        assert_eq!(
            m.strided_block_into(1, 3, 0, 2, used()),
            m.strided_block(1, 3, 0, 2)
        );
    }

    #[test]
    fn strided_block_uneven_dims() {
        // 5 rows over stride 2 starting at 0 -> 3 rows; starting at 1 -> 2 rows.
        let m = Matrix::from_fn(5, 5, |i, j| (i + j) as f64);
        assert_eq!(m.strided_block(0, 2, 0, 2).dims(), (3, 3));
        assert_eq!(m.strided_block(1, 2, 1, 2).dims(), (2, 2));
        assert_eq!(m.strided_block(4, 5, 4, 5).dims(), (1, 1));
        assert_eq!(m.strided_block(5, 5, 0, 1).dims(), (0, 5));
    }

    #[test]
    fn add_sub_axpy_scale() {
        let a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Matrix::filled(2, 2, 1.0);
        let s = a.add(&b).unwrap();
        assert_eq!(s[(1, 1)], 3.0);
        let d = s.sub(&b).unwrap();
        assert_eq!(d, a);
        let mut c = a.clone();
        c.axpy(2.0, &b).unwrap();
        assert_eq!(c[(0, 0)], 2.0);
        assert_eq!(a.scale(3.0)[(1, 1)], 6.0);
        let mut e = a.clone();
        e.scale_in_place(0.0);
        assert!(e.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn mismatched_dims_error() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(3, 3);
        assert!(a.add(&b).is_err());
        assert!(a.sub(&b).is_err());
        assert!(a.clone().axpy(1.0, &b).is_err());
        assert!(a.max_abs_diff(&b).is_none());
    }

    #[test]
    fn triangular_predicates() {
        let l = Matrix::from_fn(4, 4, |i, j| if j <= i { 1.0 } else { 0.0 });
        assert!(l.is_lower_triangular());
        assert!(!l.is_upper_triangular());
        let u = l.transpose();
        assert!(u.is_upper_triangular());
        assert!(!u.is_lower_triangular());
        let full = Matrix::filled(3, 3, 1.0);
        assert_eq!(
            full.lower_triangular_part(),
            Matrix::from_fn(3, 3, |i, j| if j <= i { 1.0 } else { 0.0 })
        );
        assert_eq!(
            full.upper_triangular_part(),
            Matrix::from_fn(3, 3, |i, j| if j >= i { 1.0 } else { 0.0 })
        );
    }

    #[test]
    fn max_abs_diff_works() {
        let a = Matrix::filled(2, 2, 1.0);
        let mut b = a.clone();
        b[(1, 0)] = 1.5;
        assert_eq!(a.max_abs_diff(&b), Some(0.5));
        assert_eq!(a.max_abs_diff(&a), Some(0.0));
    }

    #[test]
    fn split_cols_at_mut_yields_disjoint_strided_views() {
        let mut m = Matrix::from_fn(5, 8, |i, j| (i * 8 + j) as f64);
        let orig = m.clone();
        {
            let (mut left, mut right) = m.as_view_mut().split_cols_at_mut(3);
            assert_eq!(left.dims(), (5, 3));
            assert_eq!(right.dims(), (5, 5));
            assert_eq!(left.stride(), 8);
            assert_eq!(right.stride(), 8);
            // Both halves see the elements of the original matrix…
            assert_eq!(left.at(4, 2), orig[(4, 2)]);
            assert_eq!(right.at(4, 0), orig[(4, 3)]);
            // …and can be written simultaneously.
            *left.at_mut(1, 2) = -1.0;
            *right.at_mut(1, 0) = -2.0;
        }
        assert_eq!(m[(1, 2)], -1.0);
        assert_eq!(m[(1, 3)], -2.0);
        assert_eq!(m[(1, 1)], orig[(1, 1)]);
        assert_eq!(m[(1, 4)], orig[(1, 4)]);
    }

    #[test]
    fn split_cols_at_mut_boundaries() {
        let mut m = Matrix::from_fn(3, 4, |i, j| (i + j) as f64);
        let (left, right) = m.as_view_mut().split_cols_at_mut(0);
        assert_eq!(left.dims(), (3, 0));
        assert_eq!(right.dims(), (3, 4));
        let (left, right) = m.as_view_mut().split_cols_at_mut(4);
        assert_eq!(left.dims(), (3, 4));
        assert_eq!(right.dims(), (3, 0));
    }

    #[test]
    fn split_rows_at_mut_yields_disjoint_views() {
        let mut m = Matrix::from_fn(6, 4, |i, j| (i * 4 + j) as f64);
        let orig = m.clone();
        {
            let (mut top, mut bottom) = m.as_view_mut().split_rows_at_mut(2);
            assert_eq!(top.dims(), (2, 4));
            assert_eq!(bottom.dims(), (4, 4));
            assert_eq!(bottom.at(0, 0), orig[(2, 0)]);
            *top.at_mut(1, 3) = -7.0;
            *bottom.at_mut(0, 3) = -8.0;
        }
        assert_eq!(m[(1, 3)], -7.0);
        assert_eq!(m[(2, 3)], -8.0);
    }

    #[test]
    fn nested_col_and_row_splits_compose() {
        // Quarter a matrix with one row split and two column splits, write a
        // distinct sentinel through each quadrant, and check placement.
        let mut m = Matrix::zeros(4, 6);
        {
            let (top, bottom) = m.as_view_mut().split_rows_at_mut(2);
            let (mut tl, mut tr) = top.split_cols_at_mut(3);
            let (mut bl, mut br) = bottom.split_cols_at_mut(3);
            tl.fill_zero();
            *tl.at_mut(0, 0) = 1.0;
            *tr.at_mut(0, 0) = 2.0;
            *bl.at_mut(0, 0) = 3.0;
            *br.at_mut(0, 0) = 4.0;
        }
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 3)], 2.0);
        assert_eq!(m[(2, 0)], 3.0);
        assert_eq!(m[(2, 3)], 4.0);
    }

    #[test]
    fn submat_mut_reborrows_without_consuming() {
        let mut m = Matrix::from_fn(5, 5, |i, j| (i * 5 + j) as f64);
        let mut v = m.as_view_mut();
        *v.submat_mut(1, 1, 2, 2).at_mut(0, 0) = -1.0;
        // `v` is still usable after the sub-borrow ends.
        *v.at_mut(0, 0) = -2.0;
        assert_eq!(m[(1, 1)], -1.0);
        assert_eq!(m[(0, 0)], -2.0);
    }

    #[test]
    fn mat_mut_row_pair_and_rb_round_trip() {
        let mut m = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        let orig = m.clone();
        let mut v = m.view_mut(1, 0, 3, 3);
        {
            let (row_i, row_j) = v.row_pair_mut(2, 0);
            row_i[0] = row_j[0] + 100.0;
        }
        assert_eq!(v.rb().at(2, 0), orig[(1, 0)] + 100.0);
        assert_eq!(m[(3, 0)], orig[(1, 0)] + 100.0);
    }

    #[test]
    fn empty_views_are_harmless() {
        let mut m = Matrix::zeros(3, 3);
        let v = m.view_mut(1, 1, 0, 2);
        assert_eq!(v.dims(), (0, 2));
        assert_eq!(v.rb().dims(), (0, 2));
        let v2 = m.view_mut(0, 0, 2, 0);
        assert_eq!(v2.dims(), (2, 0));
        let mut whole = m.as_view_mut();
        whole.reborrow().subview_mut(3, 3, 0, 0).fill_zero();
    }

    #[test]
    fn debug_format_is_bounded() {
        let m = Matrix::zeros(100, 100);
        let s = format!("{m:?}");
        assert!(s.len() < 4000);
        assert!(s.contains("100x100"));
    }
}

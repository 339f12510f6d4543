//! Local triangular solves.
//!
//! [`trsm`] solves `L · X = B` (or the upper/right/unit variants) for a dense
//! block of right-hand sides.  The solve is *blocked*: the triangular matrix
//! is processed in `NB`-wide panels, the substitution runs only on the small
//! diagonal blocks, and all off-diagonal work is delegated to the packed
//! GEMM ([`crate::gemm::gemm_views`] / the microkernel), so the O(n²k)
//! update — which is where almost all the flops are — runs at GEMM speed.
//! This is the base-case kernel of both the recursive TRSM of Section IV and
//! the iterative inversion-based TRSM of Section VI of the paper.

use crate::error::DenseError;
use crate::flops::{trsm_flops, FlopCount};
use crate::gemm::{gemm_views, gemm_views_a_bt, gemm_views_at};
use crate::matrix::{MatMut, MatRef, Matrix};
use crate::Result;

/// Which side of the unknown the triangular matrix is on: `A·X = B` (left) or
/// `X·A = B` (right).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Solve `A · X = B`.
    Left,
    /// Solve `X · A = B`.
    Right,
}

/// Whether the triangular operand is lower or upper triangular.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Triangle {
    /// Lower triangular (the paper's main case).
    Lower,
    /// Upper triangular.
    Upper,
}

/// Whether the diagonal of the triangular operand is taken to be all ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Diag {
    /// Use the stored diagonal entries.
    NonUnit,
    /// Assume an implicit unit diagonal (the stored diagonal is ignored).
    Unit,
}

/// Whether the triangular operand is applied as stored or transposed
/// (`op(A) = A` or `op(A) = Aᵀ`).
///
/// Transposed solves never materialize `Aᵀ` — not even panel-sized pieces:
/// the substitution base cases read `A` by rows in outer-product order, and
/// the blocked drivers' GEMM updates fold the panel transpose into the
/// micro-panel packing itself ([`crate::gemm::gemm_views_at`] /
/// [`crate::gemm::gemm_views_a_bt`]), reading `A` with swapped strides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Transpose {
    /// Solve with `A` as stored.
    #[default]
    No,
    /// Solve with `Aᵀ` (e.g. `Lᵀ·X = B` for a stored lower-triangular `L`).
    Yes,
}

/// Options of a triangular solve: which side the triangular operand is on,
/// which triangle it occupies, whether it is applied transposed, and whether
/// its diagonal is implicit ones.
///
/// This is the single options vocabulary shared by the dense kernels
/// ([`trsm_opts`], [`trsv_opts`]), the sparse executors and the distributed
/// algorithms (through `catrsm::SolveRequest`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SolveOpts {
    /// Side of the unknown the triangular operand is on.
    pub side: Side,
    /// Triangle of the *stored* operand (before any transposition).
    pub triangle: Triangle,
    /// Whether the operand is applied transposed.
    pub transpose: Transpose,
    /// Whether the diagonal is implicit ones.
    pub diag: Diag,
    /// Run a pre-solve health scan rejecting NaN/Inf entries in the operand
    /// triangle and the right-hand side (off by default: the scan is O(n²)
    /// and most callers feed data they generated themselves).
    pub check_finite: bool,
}

impl SolveOpts {
    /// Left-side solve with a stored triangular operand: defaults to
    /// non-transposed, non-unit diagonal.
    pub fn new(triangle: Triangle) -> SolveOpts {
        SolveOpts {
            side: Side::Left,
            triangle,
            transpose: Transpose::No,
            diag: Diag::NonUnit,
            check_finite: false,
        }
    }

    /// `A·X = B` with lower-triangular `A` (the paper's main case).
    pub fn lower() -> SolveOpts {
        SolveOpts::new(Triangle::Lower)
    }

    /// `A·X = B` with upper-triangular `A`.
    pub fn upper() -> SolveOpts {
        SolveOpts::new(Triangle::Upper)
    }

    /// Put the triangular operand on the given side (`A·X = B` or `X·A = B`).
    pub fn side(mut self, side: Side) -> SolveOpts {
        self.side = side;
        self
    }

    /// Apply the operand transposed (`op(A) = Aᵀ`).
    pub fn transposed(mut self) -> SolveOpts {
        self.transpose = Transpose::Yes;
        self
    }

    /// Set the transpose flag explicitly.
    pub fn transpose(mut self, transpose: Transpose) -> SolveOpts {
        self.transpose = transpose;
        self
    }

    /// Treat the diagonal as implicit ones.
    pub fn unit_diagonal(mut self) -> SolveOpts {
        self.diag = Diag::Unit;
        self
    }

    /// Set the diagonal kind explicitly.
    pub fn diag(mut self, diag: Diag) -> SolveOpts {
        self.diag = diag;
        self
    }

    /// Enable the pre-solve NaN/Inf scan of the operand triangle and the
    /// right-hand side ([`DenseError::NonFiniteEntry`] on failure).
    pub fn validate_finite(mut self) -> SolveOpts {
        self.check_finite = true;
        self
    }

    /// Set the NaN/Inf pre-scan flag explicitly.
    pub fn check_finite(mut self, on: bool) -> SolveOpts {
        self.check_finite = on;
        self
    }

    /// The triangle `op(A)` effectively occupies: transposition flips it.
    pub fn op_triangle(&self) -> Triangle {
        match (self.triangle, self.transpose) {
            (t, Transpose::No) => t,
            (Triangle::Lower, Transpose::Yes) => Triangle::Upper,
            (Triangle::Upper, Transpose::Yes) => Triangle::Lower,
        }
    }
}

/// Pivots (or explicit diagonal entries, in the `sparse` crate) smaller
/// than this in absolute value are treated as singular.
pub const PIVOT_TOL: f64 = 1e-300;

/// Panel width of the blocked solve: the substitution runs on `NB×NB`
/// diagonal blocks and everything else is GEMM.  Public so solver plans can
/// report the blocking they will execute with.
pub const TRSM_BLOCK: usize = 64;

/// Internal alias for the panel width.
const NB: usize = TRSM_BLOCK;

/// Pre-solve health scan of the entries a solve will actually read: the
/// stored triangle of `a` plus its diagonal when it is not implicit ones.
/// `a` must already be known square.
fn check_triangle_finite(opts: &SolveOpts, a: &Matrix) -> Result<()> {
    let n = a.rows();
    for i in 0..n {
        let (lo, hi) = match opts.triangle {
            Triangle::Lower => (0, i),
            Triangle::Upper => (i + 1, n),
        };
        for j in lo..hi {
            let v = a[(i, j)];
            if !v.is_finite() {
                return Err(DenseError::NonFiniteEntry {
                    operand: "matrix",
                    index: (i, j),
                    value: v,
                });
            }
        }
        if opts.diag == Diag::NonUnit && !a[(i, i)].is_finite() {
            return Err(DenseError::NonFiniteEntry {
                operand: "matrix",
                index: (i, i),
                value: a[(i, i)],
            });
        }
    }
    Ok(())
}

/// Pre-solve health scan of a right-hand-side block.
fn check_rhs_finite(b: MatRef<'_>) -> Result<()> {
    for i in 0..b.rows() {
        for (j, &v) in b.row(i).iter().enumerate() {
            if !v.is_finite() {
                return Err(DenseError::NonFiniteEntry {
                    operand: "rhs",
                    index: (i, j),
                    value: v,
                });
            }
        }
    }
    Ok(())
}

/// Solve `A · X = B` where `A` is triangular, returning `X` as a new matrix.
///
/// * `tri` selects lower or upper triangular `A`.
/// * `diag` selects whether the diagonal is implicit ones.
/// * `a` must be square `n×n`, `b` must be `n×k`.
pub fn trsm(tri: Triangle, diag: Diag, a: &Matrix, b: &Matrix) -> Result<Matrix> {
    trsm_opts(&SolveOpts::new(tri).diag(diag), a, b)
}

/// Solve a triangular system described by a [`SolveOpts`], returning the
/// solution as a new matrix.
pub fn trsm_opts(opts: &SolveOpts, a: &Matrix, b: &Matrix) -> Result<Matrix> {
    let mut x = b.clone();
    trsm_in_place_opts(opts, a, &mut x)?;
    Ok(x)
}

/// Solve a triangular system in place, overwriting `b` with the solution.
///
/// Supports both `A·X = B` (`Side::Left`) and `X·A = B` (`Side::Right`).
/// Returns the flop count of the substitution.  Shorthand for
/// [`trsm_in_place_opts`] with `Transpose::No`.
pub fn trsm_in_place(
    side: Side,
    tri: Triangle,
    diag: Diag,
    a: &Matrix,
    b: &mut Matrix,
) -> Result<FlopCount> {
    trsm_in_place_opts(&SolveOpts::new(tri).side(side).diag(diag), a, b)
}

/// Solve `op(A)·X = B` (or `X·op(A) = B`) in place, where every aspect of
/// the solve — side, triangle, transposition, diagonal kind — comes from the
/// [`SolveOpts`].  Overwrites `b` — a `&mut Matrix` or any [`MatMut`] view —
/// with the solution and returns the flop count of the substitution.
///
/// The transposed cases solve against `Aᵀ` **without materializing it**:
/// the blocked drivers' GEMM updates pack transposed micro-panels straight
/// out of `A` (no scratch copies) and the substitution base cases read `A`
/// by rows in outer-product order.
pub fn trsm_in_place_opts<'b>(
    opts: &SolveOpts,
    a: &Matrix,
    b: impl Into<MatMut<'b>>,
) -> Result<FlopCount> {
    let b = b.into();
    if !a.is_square() {
        return Err(DenseError::NotSquare {
            op: "trsm",
            dims: a.dims(),
        });
    }
    let n = a.rows();
    match opts.side {
        Side::Left => {
            if b.rows() != n {
                return Err(DenseError::DimensionMismatch {
                    op: "trsm (left)",
                    lhs: a.dims(),
                    rhs: b.dims(),
                });
            }
        }
        Side::Right => {
            if b.cols() != n {
                return Err(DenseError::DimensionMismatch {
                    op: "trsm (right)",
                    lhs: b.dims(),
                    rhs: a.dims(),
                });
            }
        }
    }
    if opts.check_finite {
        check_triangle_finite(opts, a)?;
        check_rhs_finite(b.rb())?;
    }
    if opts.diag == Diag::NonUnit {
        for i in 0..n {
            if a[(i, i)].abs() < PIVOT_TOL {
                return Err(DenseError::SingularPivot {
                    index: i,
                    value: a[(i, i)],
                });
            }
        }
    }

    let k = match opts.side {
        Side::Left => b.cols(),
        Side::Right => b.rows(),
    };
    let diag = opts.diag;

    match (opts.side, opts.triangle, opts.transpose) {
        (Side::Left, Triangle::Lower, Transpose::No) => solve_left_lower_blocked(diag, a, b),
        (Side::Left, Triangle::Upper, Transpose::No) => solve_left_upper_blocked(diag, a, b),
        (Side::Right, Triangle::Lower, Transpose::No) => solve_right_lower_blocked(diag, a, b),
        (Side::Right, Triangle::Upper, Transpose::No) => solve_right_upper_blocked(diag, a, b),
        (Side::Left, Triangle::Lower, Transpose::Yes) => solve_left_lower_t_blocked(diag, a, b),
        (Side::Left, Triangle::Upper, Transpose::Yes) => solve_left_upper_t_blocked(diag, a, b),
        (Side::Right, Triangle::Lower, Transpose::Yes) => solve_right_lower_t_blocked(diag, a, b),
        (Side::Right, Triangle::Upper, Transpose::Yes) => solve_right_upper_t_blocked(diag, a, b),
    }

    Ok(trsm_flops(n, k))
}

/// Triangular solve with a single right-hand side vector: `A · x = b`.
pub fn trsv(tri: Triangle, diag: Diag, a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let mut x = b.to_vec();
    trsv_in_place(tri, diag, a, &mut x)?;
    Ok(x)
}

/// Single-RHS triangular solve described by a [`SolveOpts`]: `op(A)·x = b`.
///
/// The side must be [`Side::Left`] (a single right-hand side has no
/// meaningful right-side form distinct from the transposed left solve).
pub fn trsv_opts(opts: &SolveOpts, a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let mut x = b.to_vec();
    trsv_in_place_opts(opts, a, &mut x)?;
    Ok(x)
}

/// [`trsv_opts`] in place: `x` holds `b` on entry and the solution of
/// `op(A)·x = b` on exit, allocating nothing.
pub fn trsv_in_place_opts(opts: &SolveOpts, a: &Matrix, x: &mut [f64]) -> Result<FlopCount> {
    if opts.side == Side::Right {
        return Err(DenseError::DimensionMismatch {
            op: "trsv (right side unsupported)",
            lhs: a.dims(),
            rhs: (x.len(), 1),
        });
    }
    if opts.check_finite {
        if !a.is_square() {
            return Err(DenseError::NotSquare {
                op: "trsv",
                dims: a.dims(),
            });
        }
        check_triangle_finite(opts, a)?;
        for (i, &v) in x.iter().enumerate() {
            if !v.is_finite() {
                return Err(DenseError::NonFiniteEntry {
                    operand: "rhs",
                    index: (i, 0),
                    value: v,
                });
            }
        }
    }
    match opts.transpose {
        Transpose::No => trsv_in_place(opts.triangle, opts.diag, a, x),
        Transpose::Yes => trsv_in_place_transposed(opts.triangle, opts.diag, a, x),
    }
}

/// `Aᵀ·x = b` in place without materializing `Aᵀ`: outer-product
/// substitution reading `A` by rows (contiguous in the row-major layout).
fn trsv_in_place_transposed(
    tri: Triangle,
    diag: Diag,
    a: &Matrix,
    x: &mut [f64],
) -> Result<FlopCount> {
    if !a.is_square() {
        return Err(DenseError::NotSquare {
            op: "trsv",
            dims: a.dims(),
        });
    }
    let n = a.rows();
    if x.len() != n {
        return Err(DenseError::DimensionMismatch {
            op: "trsv",
            lhs: a.dims(),
            rhs: (x.len(), 1),
        });
    }
    if diag == Diag::NonUnit {
        for i in 0..n {
            if a[(i, i)].abs() < PIVOT_TOL {
                return Err(DenseError::SingularPivot {
                    index: i,
                    value: a[(i, i)],
                });
            }
        }
    }
    match tri {
        // Lᵀ·x = b: Σ_i L[i,j]·x[i] = b[j]; sweep i downward, scatter row i.
        Triangle::Lower => {
            for i in (0..n).rev() {
                let row = a.row(i);
                if diag == Diag::NonUnit {
                    x[i] /= row[i];
                }
                let xi = x[i];
                for (xj, aij) in x[..i].iter_mut().zip(&row[..i]) {
                    *xj -= aij * xi;
                }
            }
        }
        // Uᵀ·x = b: sweep i upward, scatter row i's tail.
        Triangle::Upper => {
            for i in 0..n {
                let row = a.row(i);
                if diag == Diag::NonUnit {
                    x[i] /= row[i];
                }
                let xi = x[i];
                for (xj, aij) in x[(i + 1)..].iter_mut().zip(&row[(i + 1)..]) {
                    *xj -= aij * xi;
                }
            }
        }
    }
    Ok(trsm_flops(n, 1))
}

/// Single-RHS triangular solve in place: overwrites `x` (holding `b` on
/// entry) with the solution of `A · x = b`, allocating nothing.
///
/// With one right-hand side the blocked [`trsm_in_place`] machinery buys
/// nothing — the GEMM updates degenerate to dot products — so this runs a
/// plain substitution over `A`'s rows.  It is the kernel behind [`trsv`] and
/// the dense-fallback path of the `sparse` crate's triangular solver, both
/// of which sit on hot iterative-solver loops where a per-call `Matrix`
/// allocation would dominate.
pub fn trsv_in_place(tri: Triangle, diag: Diag, a: &Matrix, x: &mut [f64]) -> Result<FlopCount> {
    if !a.is_square() {
        return Err(DenseError::NotSquare {
            op: "trsv",
            dims: a.dims(),
        });
    }
    let n = a.rows();
    if x.len() != n {
        return Err(DenseError::DimensionMismatch {
            op: "trsv",
            lhs: a.dims(),
            rhs: (x.len(), 1),
        });
    }
    if diag == Diag::NonUnit {
        for i in 0..n {
            if a[(i, i)].abs() < PIVOT_TOL {
                return Err(DenseError::SingularPivot {
                    index: i,
                    value: a[(i, i)],
                });
            }
        }
    }
    match tri {
        Triangle::Lower => {
            for i in 0..n {
                let row = a.row(i);
                let mut v = x[i];
                for (aij, xj) in row[..i].iter().zip(x[..i].iter()) {
                    v -= aij * xj;
                }
                x[i] = if diag == Diag::NonUnit { v / row[i] } else { v };
            }
        }
        Triangle::Upper => {
            for i in (0..n).rev() {
                let row = a.row(i);
                let mut v = x[i];
                for (aij, xj) in row[(i + 1)..].iter().zip(x[(i + 1)..].iter()) {
                    v -= aij * xj;
                }
                x[i] = if diag == Diag::NonUnit { v / row[i] } else { v };
            }
        }
    }
    Ok(trsm_flops(n, 1))
}

// ---------------------------------------------------------------------------
// Blocked drivers: substitution on NB×NB diagonal blocks, GEMM off-diagonal.
// ---------------------------------------------------------------------------

fn solve_left_lower_blocked(diag: Diag, a: &Matrix, mut b: MatMut<'_>) {
    let n = a.rows();
    let k = b.cols();
    let mut i0 = 0;
    while i0 < n {
        let i1 = (i0 + NB).min(n);
        if i0 > 0 {
            // B[i0..i1] -= L[i0..i1, 0..i0] · X[0..i0]
            let (solved, rest) = b.reborrow().split_rows_at_mut(i0);
            let mut target = rest.subview_mut(0, 0, i1 - i0, k);
            gemm_views(
                -1.0,
                a.view(i0, 0, i1 - i0, i0),
                solved.rb(),
                1.0,
                &mut target,
            )
            .expect("blocked trsm: update dims");
        }
        solve_left_lower_base(
            diag,
            a.view(i0, i0, i1 - i0, i1 - i0),
            b.submat_mut(i0, 0, i1 - i0, k),
        );
        i0 = i1;
    }
}

fn solve_left_upper_blocked(diag: Diag, a: &Matrix, mut b: MatMut<'_>) {
    let n = a.rows();
    let k = b.cols();
    let mut i1 = n;
    while i1 > 0 {
        let i0 = i1.saturating_sub(NB);
        if i1 < n {
            // B[i0..i1] -= U[i0..i1, i1..n] · X[i1..n]
            let (head, solved) = b.reborrow().split_rows_at_mut(i1);
            let mut target = head.subview_mut(i0, 0, i1 - i0, k);
            gemm_views(
                -1.0,
                a.view(i0, i1, i1 - i0, n - i1),
                solved.rb(),
                1.0,
                &mut target,
            )
            .expect("blocked trsm: update dims");
        }
        solve_left_upper_base(
            diag,
            a.view(i0, i0, i1 - i0, i1 - i0),
            b.submat_mut(i0, 0, i1 - i0, k),
        );
        i1 = i0;
    }
}

fn solve_right_lower_blocked(diag: Diag, a: &Matrix, mut b: MatMut<'_>) {
    // X · L = B: columns are solved from last to first; the trailing update
    // reads already-solved columns of B while writing the current block, so
    // the two column ranges are separated with `split_cols_at_mut` and the
    // update runs through the same safe `gemm_views` path as the left-side
    // cases.
    let n = a.rows();
    let m = b.rows();
    let mut j1 = n;
    while j1 > 0 {
        let j0 = j1.saturating_sub(NB);
        if j1 < n {
            // B[:, j0..j1] -= X[:, j1..n] · L[j1..n, j0..j1]
            let (head, solved) = b.reborrow().split_cols_at_mut(j1);
            let mut target = head.subview_mut(0, j0, m, j1 - j0);
            gemm_views(
                -1.0,
                solved.rb(),
                a.view(j1, j0, n - j1, j1 - j0),
                1.0,
                &mut target,
            )
            .expect("blocked trsm: update dims");
        }
        solve_right_lower_base(
            diag,
            a.view(j0, j0, j1 - j0, j1 - j0),
            b.submat_mut(0, j0, m, j1 - j0),
        );
        j1 = j0;
    }
}

fn solve_right_upper_blocked(diag: Diag, a: &Matrix, mut b: MatMut<'_>) {
    // X · U = B: columns are solved first to last; same column split as the
    // lower case, mirrored.
    let n = a.rows();
    let m = b.rows();
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + NB).min(n);
        if j0 > 0 {
            // B[:, j0..j1] -= X[:, 0..j0] · U[0..j0, j0..j1]
            let (solved, tail) = b.reborrow().split_cols_at_mut(j0);
            let mut target = tail.subview_mut(0, 0, m, j1 - j0);
            gemm_views(
                -1.0,
                solved.rb(),
                a.view(0, j0, j0, j1 - j0),
                1.0,
                &mut target,
            )
            .expect("blocked trsm: update dims");
        }
        solve_right_upper_base(
            diag,
            a.view(j0, j0, j1 - j0, j1 - j0),
            b.submat_mut(0, j0, m, j1 - j0),
        );
        j0 = j1;
    }
}

// ---------------------------------------------------------------------------
// Transposed blocked drivers: op(A) = Aᵀ.  The GEMM updates run through the
// pack-transposed entry points (`gemm_views_at` / `gemm_views_a_bt`): the
// panel transpose is folded into the micro-panel packing itself, so neither
// the full Aᵀ nor any per-update scratch panel is ever materialized.  The
// diagonal blocks run outer-product substitution reading A by rows.
// ---------------------------------------------------------------------------

fn solve_left_lower_t_blocked(diag: Diag, a: &Matrix, mut b: MatMut<'_>) {
    // Lᵀ·X = B: Lᵀ is upper triangular, so blocks run bottom-up; the update
    // of block [i0, i1) reads already-solved rows below it through the
    // pack-transposed panel (L[i1.., i0..i1])ᵀ.
    let n = a.rows();
    let k = b.cols();
    let mut i1 = n;
    while i1 > 0 {
        let i0 = i1.saturating_sub(NB);
        if i1 < n {
            // B[i0..i1] -= (L[i1..n, i0..i1])ᵀ · X[i1..n]
            let (head, solved) = b.reborrow().split_rows_at_mut(i1);
            let mut target = head.subview_mut(i0, 0, i1 - i0, k);
            gemm_views_at(
                -1.0,
                a.view(i1, i0, n - i1, i1 - i0),
                solved.rb(),
                1.0,
                &mut target,
            )
            .expect("blocked trsm: transposed update dims");
        }
        solve_left_lower_t_base(
            diag,
            a.view(i0, i0, i1 - i0, i1 - i0),
            b.submat_mut(i0, 0, i1 - i0, k),
        );
        i1 = i0;
    }
}

fn solve_left_upper_t_blocked(diag: Diag, a: &Matrix, mut b: MatMut<'_>) {
    // Uᵀ·X = B: Uᵀ is lower triangular, so blocks run top-down.
    let n = a.rows();
    let k = b.cols();
    let mut i0 = 0;
    while i0 < n {
        let i1 = (i0 + NB).min(n);
        if i0 > 0 {
            // B[i0..i1] -= (U[0..i0, i0..i1])ᵀ · X[0..i0]
            let (solved, rest) = b.reborrow().split_rows_at_mut(i0);
            let mut target = rest.subview_mut(0, 0, i1 - i0, k);
            gemm_views_at(
                -1.0,
                a.view(0, i0, i0, i1 - i0),
                solved.rb(),
                1.0,
                &mut target,
            )
            .expect("blocked trsm: transposed update dims");
        }
        solve_left_upper_t_base(
            diag,
            a.view(i0, i0, i1 - i0, i1 - i0),
            b.submat_mut(i0, 0, i1 - i0, k),
        );
        i0 = i1;
    }
}

fn solve_right_lower_t_blocked(diag: Diag, a: &Matrix, mut b: MatMut<'_>) {
    // X·Lᵀ = B: Lᵀ is upper triangular on the right, so columns run first to
    // last (mirror of the right-upper case).
    let n = a.rows();
    let m = b.rows();
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + NB).min(n);
        if j0 > 0 {
            // B[:, j0..j1] -= X[:, 0..j0] · (L[j0..j1, 0..j0])ᵀ
            let (solved, tail) = b.reborrow().split_cols_at_mut(j0);
            let mut target = tail.subview_mut(0, 0, m, j1 - j0);
            gemm_views_a_bt(
                -1.0,
                solved.rb(),
                a.view(j0, 0, j1 - j0, j0),
                1.0,
                &mut target,
            )
            .expect("blocked trsm: transposed update dims");
        }
        solve_right_lower_t_base(
            diag,
            a.view(j0, j0, j1 - j0, j1 - j0),
            b.submat_mut(0, j0, m, j1 - j0),
        );
        j0 = j1;
    }
}

fn solve_right_upper_t_blocked(diag: Diag, a: &Matrix, mut b: MatMut<'_>) {
    // X·Uᵀ = B: Uᵀ is lower triangular on the right, so columns run last to
    // first (mirror of the right-lower case).
    let n = a.rows();
    let m = b.rows();
    let mut j1 = n;
    while j1 > 0 {
        let j0 = j1.saturating_sub(NB);
        if j1 < n {
            // B[:, j0..j1] -= X[:, j1..n] · (U[j0..j1, j1..n])ᵀ
            let (head, solved) = b.reborrow().split_cols_at_mut(j1);
            let mut target = head.subview_mut(0, j0, m, j1 - j0);
            gemm_views_a_bt(
                -1.0,
                solved.rb(),
                a.view(j0, j1, j1 - j0, n - j1),
                1.0,
                &mut target,
            )
            .expect("blocked trsm: transposed update dims");
        }
        solve_right_upper_t_base(
            diag,
            a.view(j0, j0, j1 - j0, j1 - j0),
            b.submat_mut(0, j0, m, j1 - j0),
        );
        j1 = j0;
    }
}

// ---------------------------------------------------------------------------
// Unblocked base cases on the NB×NB diagonal blocks.
// ---------------------------------------------------------------------------

fn solve_left_lower_base(diag: Diag, a: MatRef<'_>, mut b: MatMut<'_>) {
    let n = a.rows();
    for i in 0..n {
        for j in 0..i {
            let aij = a.at(i, j);
            if aij == 0.0 {
                continue;
            }
            let (row_i, row_j) = b.row_pair_mut(i, j);
            for (ri, rj) in row_i.iter_mut().zip(row_j) {
                *ri -= aij * rj;
            }
        }
        if diag == Diag::NonUnit {
            let inv = 1.0 / a.at(i, i);
            for v in b.row_mut(i) {
                *v *= inv;
            }
        }
    }
}

fn solve_left_upper_base(diag: Diag, a: MatRef<'_>, mut b: MatMut<'_>) {
    let n = a.rows();
    for i in (0..n).rev() {
        for j in (i + 1)..n {
            let aij = a.at(i, j);
            if aij == 0.0 {
                continue;
            }
            let (row_i, row_j) = b.row_pair_mut(i, j);
            for (ri, rj) in row_i.iter_mut().zip(row_j) {
                *ri -= aij * rj;
            }
        }
        if diag == Diag::NonUnit {
            let inv = 1.0 / a.at(i, i);
            for v in b.row_mut(i) {
                *v *= inv;
            }
        }
    }
}

fn solve_right_lower_base(diag: Diag, a: MatRef<'_>, mut b: MatMut<'_>) {
    // Per row r: solve x · L = b over the block, columns last to first.
    let n = a.rows();
    let m = b.rows();
    for r in 0..m {
        let row = b.row_mut(r);
        for j in (0..n).rev() {
            let mut v = row[j];
            for (rv, i) in row[(j + 1)..n].iter().zip((j + 1)..n) {
                v -= rv * a.at(i, j);
            }
            row[j] = if diag == Diag::NonUnit {
                v / a.at(j, j)
            } else {
                v
            };
        }
    }
}

fn solve_right_upper_base(diag: Diag, a: MatRef<'_>, mut b: MatMut<'_>) {
    // Per row r: solve x · U = b over the block, columns first to last.
    let n = a.rows();
    let m = b.rows();
    for r in 0..m {
        let row = b.row_mut(r);
        for j in 0..n {
            let mut v = row[j];
            for (rv, i) in row[..j].iter().zip(0..j) {
                v -= rv * a.at(i, j);
            }
            row[j] = if diag == Diag::NonUnit {
                v / a.at(j, j)
            } else {
                v
            };
        }
    }
}

// Transposed base cases: outer-product substitution on the diagonal block,
// reading `a` by rows (Σ_i a[i,j]·x[i] = b[j] for op(A) = Aᵀ).

fn solve_left_lower_t_base(diag: Diag, a: MatRef<'_>, mut b: MatMut<'_>) {
    let n = a.rows();
    for i in (0..n).rev() {
        if diag == Diag::NonUnit {
            let inv = 1.0 / a.at(i, i);
            for v in b.row_mut(i) {
                *v *= inv;
            }
        }
        for j in 0..i {
            let aij = a.at(i, j);
            if aij == 0.0 {
                continue;
            }
            let (row_j, row_i) = b.row_pair_mut(j, i);
            for (rj, ri) in row_j.iter_mut().zip(row_i) {
                *rj -= aij * ri;
            }
        }
    }
}

fn solve_left_upper_t_base(diag: Diag, a: MatRef<'_>, mut b: MatMut<'_>) {
    let n = a.rows();
    for i in 0..n {
        if diag == Diag::NonUnit {
            let inv = 1.0 / a.at(i, i);
            for v in b.row_mut(i) {
                *v *= inv;
            }
        }
        for j in (i + 1)..n {
            let aij = a.at(i, j);
            if aij == 0.0 {
                continue;
            }
            let (row_j, row_i) = b.row_pair_mut(j, i);
            for (rj, ri) in row_j.iter_mut().zip(row_i) {
                *rj -= aij * ri;
            }
        }
    }
}

fn solve_right_lower_t_base(diag: Diag, a: MatRef<'_>, mut b: MatMut<'_>) {
    // Per row r: x·Lᵀ = b over the block ⟺ Σ_i x[i]·L[j,i] = b[j];
    // columns first to last, reading row j of L contiguously.
    let n = a.rows();
    let m = b.rows();
    for r in 0..m {
        let row = b.row_mut(r);
        for j in 0..n {
            let aj = a.row(j);
            let mut v = row[j];
            for (rv, av) in row[..j].iter().zip(&aj[..j]) {
                v -= rv * av;
            }
            row[j] = if diag == Diag::NonUnit { v / aj[j] } else { v };
        }
    }
}

fn solve_right_upper_t_base(diag: Diag, a: MatRef<'_>, mut b: MatMut<'_>) {
    // Per row r: x·Uᵀ = b over the block ⟺ Σ_i x[i]·U[j,i] = b[j];
    // columns last to first, reading row j of U contiguously.
    let n = a.rows();
    let m = b.rows();
    for r in 0..m {
        let row = b.row_mut(r);
        for j in (0..n).rev() {
            let aj = a.row(j);
            let mut v = row[j];
            for (rv, av) in row[(j + 1)..n].iter().zip(&aj[(j + 1)..n]) {
                v -= rv * av;
            }
            row[j] = if diag == Diag::NonUnit { v / aj[j] } else { v };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;
    use crate::reference;

    fn lower(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if j < i {
                ((i * 7 + j * 3) % 5) as f64 * 0.1 - 0.2
            } else if j == i {
                2.0 + (i % 3) as f64
            } else {
                0.0
            }
        })
    }

    fn near(a: &Matrix, b: &Matrix, tol: f64) -> bool {
        a.max_abs_diff(b).map(|d| d < tol).unwrap_or(false)
    }

    #[test]
    fn left_lower_solves() {
        let n = 24;
        let k = 5;
        let l = lower(n);
        let x_true = Matrix::from_fn(n, k, |i, j| ((i + j) % 7) as f64 - 3.0);
        let b = matmul(&l, &x_true);
        let x = trsm(Triangle::Lower, Diag::NonUnit, &l, &b).unwrap();
        assert!(near(&x, &x_true, 1e-9));
    }

    #[test]
    fn left_upper_solves() {
        let n = 17;
        let k = 3;
        let u = lower(n).transpose();
        let x_true = Matrix::from_fn(n, k, |i, j| (i as f64 - j as f64) / 10.0);
        let b = matmul(&u, &x_true);
        let x = trsm(Triangle::Upper, Diag::NonUnit, &u, &b).unwrap();
        assert!(near(&x, &x_true, 1e-9));
    }

    #[test]
    fn right_lower_solves() {
        let n = 12;
        let m = 4;
        let l = lower(n);
        let x_true = Matrix::from_fn(m, n, |i, j| ((i * 3 + j) % 5) as f64 / 5.0);
        let b = matmul(&x_true, &l);
        let mut x = b.clone();
        trsm_in_place(Side::Right, Triangle::Lower, Diag::NonUnit, &l, &mut x).unwrap();
        assert!(near(&x, &x_true, 1e-9));
    }

    #[test]
    fn right_upper_solves() {
        let n = 12;
        let m = 4;
        let u = lower(n).transpose();
        let x_true = Matrix::from_fn(m, n, |i, j| ((i * 3 + j) % 5) as f64 / 5.0 - 0.3);
        let b = matmul(&x_true, &u);
        let mut x = b.clone();
        trsm_in_place(Side::Right, Triangle::Upper, Diag::NonUnit, &u, &mut x).unwrap();
        assert!(near(&x, &x_true, 1e-9));
    }

    #[test]
    fn blocked_matches_unblocked_reference_across_nb_boundaries() {
        // Sizes straddling the NB=64 panel boundary, every side/triangle.
        for &n in &[1usize, 63, 64, 65, 130, 200] {
            let l = lower(n);
            let u = l.transpose();
            for &k in &[1usize, 3, 17] {
                let b_left = Matrix::from_fn(n, k, |i, j| ((i * 5 + j * 11) % 13) as f64 - 6.0);
                let b_right = Matrix::from_fn(k, n, |i, j| ((i * 5 + j * 11) % 13) as f64 - 6.0);
                for diag in [Diag::NonUnit, Diag::Unit] {
                    let cases: [(Side, Triangle, &Matrix, &Matrix); 4] = [
                        (Side::Left, Triangle::Lower, &l, &b_left),
                        (Side::Left, Triangle::Upper, &u, &b_left),
                        (Side::Right, Triangle::Lower, &l, &b_right),
                        (Side::Right, Triangle::Upper, &u, &b_right),
                    ];
                    for (side, tri, a, b) in cases {
                        let mut fast = b.clone();
                        let f1 = trsm_in_place(side, tri, diag, a, &mut fast).unwrap();
                        let mut slow = b.clone();
                        let f2 = reference::trsm_unblocked(side, tri, diag, a, &mut slow);
                        assert!(
                            near(&fast, &slow, 1e-8),
                            "mismatch at n={n} k={k} {side:?} {tri:?} {diag:?}"
                        );
                        assert_eq!(f1, f2, "flop accounting must match the reference");
                    }
                }
            }
        }
    }

    #[test]
    fn transposed_solves_match_explicit_transpose_every_variant() {
        // op(A) = Aᵀ without materializing Aᵀ must agree with solving the
        // explicitly transposed matrix through the non-transposed kernels,
        // across NB boundaries, both sides, both triangles, both diagonals.
        for &n in &[1usize, 2, 63, 64, 65, 130] {
            let l = lower(n);
            let u = l.transpose();
            for &k in &[1usize, 4, 9] {
                let b_left = Matrix::from_fn(n, k, |i, j| ((i * 3 + j * 7) % 11) as f64 - 5.0);
                let b_right = Matrix::from_fn(k, n, |i, j| ((i * 3 + j * 7) % 11) as f64 - 5.0);
                for diag in [Diag::NonUnit, Diag::Unit] {
                    for (side, tri, a, b) in [
                        (Side::Left, Triangle::Lower, &l, &b_left),
                        (Side::Left, Triangle::Upper, &u, &b_left),
                        (Side::Right, Triangle::Lower, &l, &b_right),
                        (Side::Right, Triangle::Upper, &u, &b_right),
                    ] {
                        let opts = SolveOpts::new(tri).side(side).diag(diag).transposed();
                        let mut fast = b.clone();
                        let f1 = trsm_in_place_opts(&opts, a, &mut fast).unwrap();
                        // Reference: solve against the materialized transpose
                        // with the opposite triangle.
                        let at = a.transpose();
                        let mut slow = b.clone();
                        let f2 =
                            trsm_in_place(side, opts.op_triangle(), diag, &at, &mut slow).unwrap();
                        assert!(
                            near(&fast, &slow, 1e-8),
                            "transpose mismatch at n={n} k={k} {side:?} {tri:?} {diag:?}"
                        );
                        assert_eq!(f1, f2, "flop accounting must match");
                    }
                }
            }
        }
    }

    #[test]
    fn transposed_trsv_matches_transposed_trsm() {
        for &n in &[1usize, 5, 40, 70] {
            let l = lower(n);
            let u = l.transpose();
            let b: Vec<f64> = (0..n).map(|i| ((i * 5) % 7) as f64 - 3.0).collect();
            let rhs = Matrix::from_vec(n, 1, b.clone()).unwrap();
            for diag in [Diag::NonUnit, Diag::Unit] {
                for (tri, a) in [(Triangle::Lower, &l), (Triangle::Upper, &u)] {
                    let opts = SolveOpts::new(tri).diag(diag).transposed();
                    let mut x = b.clone();
                    let f = trsv_in_place_opts(&opts, a, &mut x).unwrap();
                    assert_eq!(f, trsm_flops(n, 1));
                    let xm = trsm_opts(&opts, a, &rhs).unwrap();
                    for (got, want) in x.iter().zip(xm.as_slice()) {
                        assert!(
                            (got - want).abs() < 1e-9,
                            "trsv transposed diverged at n={n} {tri:?} {diag:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn op_triangle_flips_under_transpose() {
        assert_eq!(SolveOpts::lower().op_triangle(), Triangle::Lower);
        assert_eq!(
            SolveOpts::lower().transposed().op_triangle(),
            Triangle::Upper
        );
        assert_eq!(
            SolveOpts::upper().transposed().op_triangle(),
            Triangle::Lower
        );
        let o = SolveOpts::lower()
            .side(Side::Right)
            .unit_diagonal()
            .transpose(Transpose::Yes);
        assert_eq!(o.side, Side::Right);
        assert_eq!(o.diag, Diag::Unit);
        assert_eq!(o.transpose, Transpose::Yes);
    }

    #[test]
    fn trsv_opts_rejects_right_side() {
        let l = lower(3);
        let mut x = vec![1.0; 3];
        let opts = SolveOpts::lower().side(Side::Right);
        assert!(trsv_in_place_opts(&opts, &l, &mut x).is_err());
    }

    #[test]
    fn unit_diagonal_ignores_stored_diagonal() {
        let n = 10;
        let mut l = lower(n);
        // Solve with an implicit unit diagonal.
        let x_true = Matrix::from_fn(n, 2, |i, j| (i + j) as f64 / 5.0);
        let mut l_unit = l.clone();
        for i in 0..n {
            l_unit[(i, i)] = 1.0;
        }
        let b = matmul(&l_unit, &x_true);
        // Put garbage on the stored diagonal; Diag::Unit must ignore it.
        for i in 0..n {
            l[(i, i)] = 1.0e9;
        }
        let mut l_garbage = l_unit.clone();
        for i in 0..n {
            l_garbage[(i, i)] = 123.0;
        }
        let x = trsm(Triangle::Lower, Diag::Unit, &l_garbage, &b).unwrap();
        assert!(near(&x, &x_true, 1e-9));
    }

    #[test]
    fn trsv_single_rhs() {
        let n = 9;
        let l = lower(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25 - 1.0).collect();
        let xt = Matrix::from_vec(n, 1, x_true.clone()).unwrap();
        let b = matmul(&l, &xt).into_vec();
        let x = trsv(Triangle::Lower, Diag::NonUnit, &l, &b).unwrap();
        for (a, b) in x.iter().zip(x_true.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn trsv_in_place_matches_trsm_every_variant() {
        for &n in &[1usize, 2, 9, 40] {
            let l = lower(n);
            let u = l.transpose();
            let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
            let rhs = Matrix::from_vec(n, 1, b.clone()).unwrap();
            for diag in [Diag::NonUnit, Diag::Unit] {
                for (tri, a) in [(Triangle::Lower, &l), (Triangle::Upper, &u)] {
                    let mut x = b.clone();
                    let f = trsv_in_place(tri, diag, a, &mut x).unwrap();
                    assert_eq!(f, trsm_flops(n, 1));
                    let xm = trsm(tri, diag, a, &rhs).unwrap();
                    for (got, want) in x.iter().zip(xm.as_slice()) {
                        assert!(
                            (got - want).abs() < 1e-9,
                            "trsv_in_place diverged at n={n} {tri:?} {diag:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn trsv_in_place_rejects_bad_inputs() {
        let l = lower(4);
        let mut short = vec![1.0; 3];
        assert!(trsv_in_place(Triangle::Lower, Diag::NonUnit, &l, &mut short).is_err());
        let rect = Matrix::zeros(3, 4);
        let mut x = vec![1.0; 3];
        assert!(trsv_in_place(Triangle::Lower, Diag::NonUnit, &rect, &mut x).is_err());
        let mut sing = l.clone();
        sing[(2, 2)] = 0.0;
        let mut x4 = vec![1.0; 4];
        match trsv_in_place(Triangle::Lower, Diag::NonUnit, &sing, &mut x4) {
            Err(DenseError::SingularPivot { index, .. }) => assert_eq!(index, 2),
            other => panic!("expected SingularPivot, got {other:?}"),
        }
    }

    #[test]
    fn singular_pivot_is_detected() {
        let mut l = lower(5);
        l[(3, 3)] = 0.0;
        let b = Matrix::filled(5, 2, 1.0);
        match trsm(Triangle::Lower, Diag::NonUnit, &l, &b) {
            Err(DenseError::SingularPivot { index, .. }) => assert_eq!(index, 3),
            other => panic!("expected SingularPivot, got {other:?}"),
        }
    }

    #[test]
    fn dimension_checks() {
        let l = lower(4);
        let b = Matrix::zeros(5, 2);
        assert!(trsm(Triangle::Lower, Diag::NonUnit, &l, &b).is_err());
        let rect = Matrix::zeros(3, 4);
        assert!(trsm(Triangle::Lower, Diag::NonUnit, &rect, &b).is_err());
        let mut r = Matrix::zeros(2, 5);
        assert!(trsm_in_place(Side::Right, Triangle::Lower, Diag::NonUnit, &l, &mut r).is_err());
    }

    #[test]
    fn finite_scan_rejects_nan_matrix_entry() {
        let mut l = lower(6);
        l[(4, 2)] = f64::NAN;
        let b = Matrix::filled(6, 2, 1.0);
        // Off by default: the solve runs (and propagates the NaN).
        assert!(trsm(Triangle::Lower, Diag::NonUnit, &l, &b).is_ok());
        match trsm_opts(&SolveOpts::lower().validate_finite(), &l, &b) {
            Err(DenseError::NonFiniteEntry { operand, index, .. }) => {
                assert_eq!(operand, "matrix");
                assert_eq!(index, (4, 2));
            }
            other => panic!("expected NonFiniteEntry, got {other:?}"),
        }
    }

    #[test]
    fn finite_scan_rejects_inf_rhs_and_diag() {
        let l = lower(5);
        let mut b = Matrix::filled(5, 2, 1.0);
        b[(2, 1)] = f64::INFINITY;
        match trsm_opts(&SolveOpts::lower().validate_finite(), &l, &b) {
            Err(DenseError::NonFiniteEntry { operand, index, .. }) => {
                assert_eq!(operand, "rhs");
                assert_eq!(index, (2, 1));
            }
            other => panic!("expected NonFiniteEntry, got {other:?}"),
        }
        let mut ld = lower(5);
        ld[(3, 3)] = f64::NAN;
        let ok = Matrix::filled(5, 1, 1.0);
        match trsm_opts(&SolveOpts::lower().validate_finite(), &ld, &ok) {
            Err(DenseError::NonFiniteEntry { index, .. }) => assert_eq!(index, (3, 3)),
            other => panic!("expected NonFiniteEntry, got {other:?}"),
        }
        // Unit diagonal: the stored diagonal is never read, so a NaN there
        // passes the scan.
        let opts = SolveOpts::lower().unit_diagonal().validate_finite();
        assert!(trsm_opts(&opts, &ld, &ok).is_ok());
    }

    #[test]
    fn finite_scan_ignores_unread_triangle() {
        // Garbage strictly above the diagonal of a lower solve is never read.
        let mut l = lower(6);
        l[(1, 4)] = f64::NAN;
        let b = Matrix::filled(6, 2, 1.0);
        assert!(trsm_opts(&SolveOpts::lower().validate_finite(), &l, &b).is_ok());
    }

    #[test]
    fn finite_scan_covers_trsv() {
        let mut l = lower(5);
        l[(2, 0)] = f64::NEG_INFINITY;
        let x = vec![1.0; 5];
        match trsv_opts(&SolveOpts::lower().validate_finite(), &l, &x) {
            Err(DenseError::NonFiniteEntry { operand, index, .. }) => {
                assert_eq!(operand, "matrix");
                assert_eq!(index, (2, 0));
            }
            other => panic!("expected NonFiniteEntry, got {other:?}"),
        }
        let good = lower(5);
        let mut bad_rhs = vec![1.0; 5];
        bad_rhs[3] = f64::NAN;
        match trsv_opts(&SolveOpts::lower().validate_finite(), &good, &bad_rhs) {
            Err(DenseError::NonFiniteEntry { operand, index, .. }) => {
                assert_eq!(operand, "rhs");
                assert_eq!(index, (3, 0));
            }
            other => panic!("expected NonFiniteEntry, got {other:?}"),
        }
    }

    #[test]
    fn flop_count_matches_formula() {
        let l = lower(8);
        let mut b = Matrix::filled(8, 3, 1.0);
        let f = trsm_in_place(Side::Left, Triangle::Lower, Diag::NonUnit, &l, &mut b).unwrap();
        assert_eq!(f, trsm_flops(8, 3));
    }

    #[test]
    fn solving_identity_returns_rhs() {
        let id = Matrix::identity(6);
        let b = Matrix::from_fn(6, 4, |i, j| (i * 4 + j) as f64);
        let x = trsm(Triangle::Lower, Diag::NonUnit, &id, &b).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn large_blocked_solve_is_accurate() {
        let n = 200;
        let k = 33;
        let l = crate::gen::well_conditioned_lower(n, 5);
        let x_true = crate::gen::rhs(n, k, 6);
        let b = matmul(&l, &x_true);
        let x = trsm(Triangle::Lower, Diag::NonUnit, &l, &b).unwrap();
        assert!(crate::norms::rel_diff(&x, &x_true) < 1e-9);
    }
}

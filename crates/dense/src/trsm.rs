//! Local triangular solves.
//!
//! [`trsm_in_place_opts`] (and its copying form [`trsm_opts`]) solves
//! `op(A) · X = B` (or `X · op(A) = B`) for any number `k` of right-hand
//! sides, and picks one of three kernels from `k` alone ([`solve_kernel`]).
//! One right-hand side runs a row substitution straight through `A`: a
//! blocked solve's GEMM updates would be dot products.  Wider solves are
//! *blocked*: the triangular matrix is processed in `NB`-wide panels and
//! all off-diagonal work is delegated to the packed GEMM
//! ([`crate::gemm::gemm_views`] / the microkernel), so the O(n²k) update —
//! which is where almost all the flops are — runs at GEMM speed.  What is
//! left is the `NB×NB` diagonal blocks, and there the kernel does what the
//! paper does between processors (Section VI): for a solve at least `NB`
//! wide each block is inverted once and applied as a triangle-aware packed
//! product, so the whole solve is microkernel work; narrower solves
//! substitute through the blocks, which is the faster side there.  This is
//! the base-case kernel of both the recursive TRSM of Section IV and the
//! iterative inversion-based TRSM of Section VI of the paper.

use crate::error::DenseError;
use crate::flops::{solve_flops, FlopCount};
use crate::gemm::gemm_views;
use crate::matrix::{MatMut, MatRef, Matrix};
use crate::microkernel::TriMask;
use crate::pack::with_scratch;
use crate::trinv::tri_invert_in_place;
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
/// the substitution kernels read `A` by rows in outer-product order, and
/// the blocked driver's GEMM updates (and its inverted diagonal blocks,
/// `inv(Aᵀ) = inv(A)ᵀ`) fold the transpose into the micro-panel packing
/// itself ([`crate::gemm::gemm_views`]' `a_trans` / `b_trans`), reading `A`
/// with swapped strides.
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
/// This is the single options vocabulary shared by the dense solve
/// ([`trsm_in_place_opts`]), the sparse executors and the distributed
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

/// Panel width `NB` of the blocked solve: everything between the `NB×NB`
/// diagonal blocks is GEMM, and the blocks themselves are substituted
/// through or — for solves at least this wide, see [`solve_kernel`] —
/// inverted and applied as a product.  Public so solver plans can report
/// the blocking they will execute with.
pub const TRSM_BLOCK: usize = 64;

/// Internal alias for the panel width.
const NB: usize = TRSM_BLOCK;

/// The three kernels of a dense triangular solve; [`solve_kernel`] picks
/// one from the solve's width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveKernel {
    /// One right-hand side: row substitution straight through `A`.
    RowSubstitution,
    /// `NB×NB` diagonal blocks substituted through, GEMM updates between.
    BlockedSubstitution,
    /// `NB×NB` diagonal blocks inverted and applied as triangle-aware packed
    /// products, GEMM updates between.
    InvertedBlocks,
}

/// The kernel a solve with `k` right-hand sides (columns of `B` on the
/// left, rows on the right) runs.  This is the only place the rule lives:
/// [`trsm_in_place_opts`] executes it and `catrsm`'s dense plans report it.
///
/// * `k = 1`: row substitution.  With one column a blocked solve's GEMM
///   updates degenerate to dot products, so there is nothing to block for.
/// * `k >= NB`: inverted diagonal blocks — the paper's a-priori
///   block-size-versus-`k` choice (Section VI) one level down.  Inverting a
///   block costs `NB³/3` flops on top of the `NB²·k` the block's solve costs
///   either way, and buys running those `NB²·k` at the microkernel's rate
///   instead of row-AXPY substitution's (about a third of it); that pays
///   once the inversion is at most a third of the solve,
///   `NB³/3 <= NB²·k/3`, i.e. `k >= NB` — which is where the measured
///   crossover sits (`crates/dense/README.md` has the sweep).
/// * otherwise blocked substitution.
///
/// Nothing else enters: not `n`, not the side, no option, no environment
/// variable.  The kernels round differently, and the inverted one is
/// forward- but not backward-stable in the *blocks'* condition numbers
/// (never the whole matrix's); `crates/dense/tests/trsm_contracts.rs` pins
/// both statements.
pub const fn solve_kernel(k: usize) -> SolveKernel {
    if k == 1 {
        SolveKernel::RowSubstitution
    } else if NB * NB * NB / 3 <= NB * NB * k / 3 {
        SolveKernel::InvertedBlocks
    } else {
        SolveKernel::BlockedSubstitution
    }
}

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

/// Solve a triangular system described by a [`SolveOpts`], returning the
/// solution as a new matrix: [`trsm_in_place_opts`] on a copy of `b`.
pub fn trsm_opts(opts: &SolveOpts, a: &Matrix, b: &Matrix) -> Result<Matrix> {
    let mut x = b.clone();
    trsm_in_place_opts(opts, a, &mut x)?;
    Ok(x)
}

/// Solve `op(A)·X = B` (or `X·op(A) = B`) in place, where every aspect of
/// the solve — side, triangle, transposition, diagonal kind — comes from the
/// [`SolveOpts`].  Overwrites `b` — a `&mut Matrix`, a `&mut [f64]` (one
/// right-hand side) or any [`MatMut`] view — with the solution and returns
/// the flop count of the kernel that ran, [`solve_flops`].
///
/// The kernel is [`solve_kernel`]'s answer for the width of `b`: row
/// substitution for one right-hand side, blocked substitution below
/// [`TRSM_BLOCK`], inverted diagonal blocks from there on.  Whichever runs,
/// only the declared triangle of `a` is read (nor its diagonal under
/// [`Diag::Unit`]), and the transposed cases solve against `Aᵀ` **without
/// materializing it**: the blocked driver's GEMM updates pack transposed
/// micro-panels straight out of `A` (no scratch copies) and the
/// substitution kernels read `A` by rows in outer-product order.
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
    match solve_kernel(k) {
        SolveKernel::RowSubstitution => solve_single_rhs(opts, a, b),
        SolveKernel::BlockedSubstitution => solve_blocked(opts, a, b, false)?,
        SolveKernel::InvertedBlocks => solve_blocked(opts, a, b, true)?,
    }
    Ok(solve_flops(n, k))
}

// ---------------------------------------------------------------------------
// One right-hand side: row substitution, no blocking.
// ---------------------------------------------------------------------------

/// [`SolveKernel::RowSubstitution`]: `b` is an `n×1` column on the left, a
/// `1×n` row on the right.  A column strided out of a wider block is solved
/// in thread-local scratch.
fn solve_single_rhs(opts: &SolveOpts, a: &Matrix, mut b: MatMut<'_>) {
    let solve = |x: &mut [f64]| row_kernel(opts)(opts.triangle, opts.diag, a.as_view(), x);
    if let Some(x) = b.as_contiguous_mut() {
        return solve(x);
    }
    with_scratch(b.rows(), |x| {
        for (i, v) in x.iter_mut().enumerate() {
            *v = b.at(i, 0);
        }
        solve(x);
        for (i, v) in x.iter().enumerate() {
            *b.at_mut(i, 0) = *v;
        }
    });
}

/// The row kernel that solves one right-hand side of `opts` in place.  On
/// the right, `x·op(A) = b` is `op(A)ᵀ·xᵀ = bᵀ`: the left solve with the
/// transpose flipped.
fn row_kernel(opts: &SolveOpts) -> fn(Triangle, Diag, MatRef<'_>, &mut [f64]) {
    if (opts.transpose == Transpose::Yes) != (opts.side == Side::Right) {
        substitute_rows_transposed
    } else {
        substitute_rows
    }
}

// The row kernels are `#[inline(never)]`: they are called from the
// single-right-hand-side solve and from every right-side diagonal block, and
// one copy of each loop is enough.

/// `A·x = b` in place: dot-product substitution over `A`'s rows.
#[inline(never)]
fn substitute_rows(tri: Triangle, diag: Diag, a: MatRef<'_>, x: &mut [f64]) {
    let n = a.rows();
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
}

/// `Aᵀ·x = b` in place without materializing `Aᵀ`: outer-product
/// substitution reading `A` by rows (contiguous in the row-major layout).
#[inline(never)]
fn substitute_rows_transposed(tri: Triangle, diag: Diag, a: MatRef<'_>, x: &mut [f64]) {
    let n = a.rows();
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
}

// ---------------------------------------------------------------------------
// The blocked driver: GEMM panel updates between NB×NB diagonal blocks, which
// are either substituted through or inverted and applied as a product.
// ---------------------------------------------------------------------------

/// All eight side / triangle / transpose variants of the blocked solve
/// ([`SolveKernel::BlockedSubstitution`] / [`SolveKernel::InvertedBlocks`]).
///
/// The diagonal blocks are visited in dependency order — top-down (or
/// left-to-right) when the first block of `op(A)` depends on no other,
/// bottom-up otherwise — and block `[i0, i1)` is first updated with every
/// block already solved, `B[i0..i1] -= op(A)[i0..i1, solved] · X[solved]`
/// (`B[:, i0..i1] -= X[:, solved] · op(A)[solved, i0..i1]` on the right),
/// one GEMM on disjoint views of `b`.  A transposed panel of `op(A) = Aᵀ`
/// is read out of `a` by the pack-transposed GEMM, never materialized.
/// `invert` says which of [`solve_kernel`]'s two blocked kernels runs.
fn solve_blocked(opts: &SolveOpts, a: &Matrix, mut b: MatMut<'_>, invert: bool) -> Result<()> {
    let n = a.rows();
    let left = opts.side == Side::Left;
    let trans = opts.transpose == Transpose::Yes;
    // Right-hand sides: columns of `b` on the left, rows on the right.
    let k = if left { b.cols() } else { b.rows() };
    let forward = (opts.op_triangle() == Triangle::Lower) == left;
    let mut done = 0;
    while done < n {
        let nb = NB.min(n - done);
        let (i0, solved) = if forward {
            (done, 0..done)
        } else {
            (n - done - nb, n - done..n)
        };
        if done > 0 {
            let cut = if forward { i0 } else { i0 + nb };
            let (before, after) = if left {
                b.reborrow().split_rows_at_mut(cut)
            } else {
                b.reborrow().split_cols_at_mut(cut)
            };
            let (x_solved, unsolved, at) = if forward {
                (before, after, 0)
            } else {
                (after, before, i0)
            };
            // The stored block holding `op(A)[i0.., solved]` (left) or
            // `op(A)[solved, i0..]` (right): its transpose when `trans`.
            let panel = if left != trans {
                a.view(i0, solved.start, nb, done)
            } else {
                a.view(solved.start, i0, done, nb)
            };
            if left {
                let mut target = unsolved.subview_mut(at, 0, nb, k);
                gemm_views(
                    -1.0,
                    panel,
                    trans,
                    x_solved.rb(),
                    false,
                    1.0,
                    &mut target,
                    None,
                )
            } else {
                let mut target = unsolved.subview_mut(0, at, k, nb);
                gemm_views(
                    -1.0,
                    x_solved.rb(),
                    false,
                    panel,
                    trans,
                    1.0,
                    &mut target,
                    None,
                )
            }
            .expect("blocked trsm: update dims");
        }
        let block = a.view(i0, i0, nb, nb);
        let x = if left {
            b.submat_mut(i0, 0, nb, k)
        } else {
            b.submat_mut(0, i0, k, nb)
        };
        if invert {
            apply_inverted_block(opts, block, x)?;
        } else {
            substitute_block(opts, block, x);
        }
        done += nb;
    }
    Ok(())
}

/// Solves one diagonal block the paper's way, one level down: invert the
/// `nb×nb` block (only its declared triangle is copied out — ones on the
/// diagonal under [`Diag::Unit`] — so the stored diagonal and the other
/// triangle stay unread) and apply the inverse to the block's right-hand
/// sides as one triangle-aware packed product, `inv(Aᵀ) = inv(A)ᵀ` through
/// the pack-transposed entry points.  Both scratch panels (`nb²` for the
/// inverse, one copy of the right-hand-side block) are thread-local.
fn apply_inverted_block(opts: &SolveOpts, block: MatRef<'_>, mut x: MatMut<'_>) -> Result<()> {
    let nb = block.rows();
    let (rows, cols) = x.dims();
    with_scratch(nb * nb + rows * cols, |scratch| {
        let (inv, rhs) = scratch.split_at_mut(nb * nb);
        for (i, inv_row) in inv.chunks_exact_mut(nb).enumerate() {
            let stored = match opts.triangle {
                Triangle::Lower => 0..i,
                Triangle::Upper => i + 1..nb,
            };
            inv_row[stored.clone()].copy_from_slice(&block.row(i)[stored]);
            inv_row[i] = match opts.diag {
                Diag::NonUnit => block.at(i, i),
                Diag::Unit => 1.0,
            };
        }
        let mut inv = MatMut::from_slice(inv, nb, nb);
        tri_invert_in_place(opts.triangle, &mut inv)?;
        let mut rhs = MatMut::from_slice(rhs, rows, cols);
        rhs.copy_from(x.rb());
        let trans = opts.transpose == Transpose::Yes;
        let tri = opts.op_triangle();
        match opts.side {
            Side::Left => gemm_views(
                1.0,
                inv.rb(),
                trans,
                rhs.rb(),
                false,
                0.0,
                &mut x,
                Some(TriMask::a(tri)),
            ),
            Side::Right => gemm_views(
                1.0,
                rhs.rb(),
                false,
                inv.rb(),
                trans,
                0.0,
                &mut x,
                Some(TriMask::b(tri)),
            ),
        }?;
        Ok(())
    })
}

/// Substitution through one diagonal block: on the left the row-pair
/// kernels below, on the right the row kernel on each row of `b`.
fn substitute_block(opts: &SolveOpts, a: MatRef<'_>, mut b: MatMut<'_>) {
    let diag = opts.diag;
    match (opts.side, opts.triangle, opts.transpose) {
        (Side::Left, Triangle::Lower, Transpose::No) => solve_left_lower_base(diag, a, b),
        (Side::Left, Triangle::Upper, Transpose::No) => solve_left_upper_base(diag, a, b),
        (Side::Left, Triangle::Lower, Transpose::Yes) => solve_left_lower_t_base(diag, a, b),
        (Side::Left, Triangle::Upper, Transpose::Yes) => solve_left_upper_t_base(diag, a, b),
        (Side::Right, ..) => {
            let solve = row_kernel(opts);
            for r in 0..b.rows() {
                solve(opts.triangle, diag, a, b.row_mut(r));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Left-side substitution kernels for one NB×NB diagonal block.
//
// `#[inline(never)]`: each has a single call site, so LLVM would fold the
// loops into `solve_blocked`, and a `solve_blocked` holding them ran the
// k = 4 solve at half speed (4.3 → 8.5 µs at n = 64).
// ---------------------------------------------------------------------------

#[inline(never)]
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

#[inline(never)]
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

// Transposed base cases: outer-product substitution on the diagonal block,
// reading `a` by rows (Σ_i a[i,j]·x[i] = b[j] for op(A) = Aᵀ).

#[inline(never)]
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

#[inline(never)]
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flops::trsm_flops;
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

    /// `SolveOpts` for the untransposed `side` / `tri` / `diag` solve.
    fn opts(side: Side, tri: Triangle, diag: Diag) -> SolveOpts {
        SolveOpts::new(tri).side(side).diag(diag)
    }

    #[test]
    fn left_lower_solves() {
        let n = 24;
        let k = 5;
        let l = lower(n);
        let x_true = Matrix::from_fn(n, k, |i, j| ((i + j) % 7) as f64 - 3.0);
        let b = matmul(&l, &x_true);
        let x = trsm_opts(&SolveOpts::lower(), &l, &b).unwrap();
        assert!(near(&x, &x_true, 1e-9));
    }

    #[test]
    fn left_upper_solves() {
        let n = 17;
        let k = 3;
        let u = lower(n).transpose();
        let x_true = Matrix::from_fn(n, k, |i, j| (i as f64 - j as f64) / 10.0);
        let b = matmul(&u, &x_true);
        let x = trsm_opts(&SolveOpts::upper(), &u, &b).unwrap();
        assert!(near(&x, &x_true, 1e-9));
    }

    #[test]
    fn right_lower_solves() {
        let n = 12;
        let m = 4;
        let l = lower(n);
        let x_true = Matrix::from_fn(m, n, |i, j| ((i * 3 + j) % 5) as f64 / 5.0);
        let b = matmul(&x_true, &l);
        let x = trsm_opts(&SolveOpts::lower().side(Side::Right), &l, &b).unwrap();
        assert!(near(&x, &x_true, 1e-9));
    }

    #[test]
    fn right_upper_solves() {
        let n = 12;
        let m = 4;
        let u = lower(n).transpose();
        let x_true = Matrix::from_fn(m, n, |i, j| ((i * 3 + j) % 5) as f64 / 5.0 - 0.3);
        let b = matmul(&x_true, &u);
        let x = trsm_opts(&SolveOpts::upper().side(Side::Right), &u, &b).unwrap();
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
                        let f1 = trsm_in_place_opts(&opts(side, tri, diag), a, &mut fast).unwrap();
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
                        let opts_t = opts(side, tri, diag).transposed();
                        let mut fast = b.clone();
                        let f1 = trsm_in_place_opts(&opts_t, a, &mut fast).unwrap();
                        // Reference: solve against the materialized transpose
                        // with the opposite triangle.
                        let at = a.transpose();
                        let mut slow = b.clone();
                        let f2 = trsm_in_place_opts(
                            &opts(side, opts_t.op_triangle(), diag),
                            &at,
                            &mut slow,
                        )
                        .unwrap();
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
    fn single_rhs_matches_reference_every_variant() {
        // One right-hand side runs the row kernel — however it is handed in:
        // a slice, an n×1 matrix, or a column strided out of a wider block
        // (solved through scratch) give the same bits.
        for &n in &[1usize, 2, 9, 40, 70] {
            let l = lower(n);
            let u = l.transpose();
            let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
            let column = Matrix::from_vec(n, 1, b.clone()).unwrap();
            for diag in [Diag::NonUnit, Diag::Unit] {
                for (tri, a) in [(Triangle::Lower, &l), (Triangle::Upper, &u)] {
                    for transpose in [Transpose::No, Transpose::Yes] {
                        let o = opts(Side::Left, tri, diag).transpose(transpose);
                        let mut x = b.clone();
                        let f = trsm_in_place_opts(&o, a, x.as_mut_slice()).unwrap();
                        assert_eq!(f, trsm_flops(n, 1));
                        assert_eq!(trsm_opts(&o, a, &column).unwrap().as_slice(), x);
                        let mut wide =
                            Matrix::from_fn(n, 3, |i, j| if j == 1 { b[i] } else { 7.0 });
                        trsm_in_place_opts(&o, a, wide.view_mut(0, 1, n, 1)).unwrap();
                        assert_eq!(wide.col(1), x, "strided column, n={n} {o:?}");
                        assert!(wide.col(0).iter().chain(&wide.col(2)).all(|&v| v == 7.0));

                        let op_a = match transpose {
                            Transpose::No => a.clone(),
                            Transpose::Yes => a.transpose(),
                        };
                        let mut want = column.clone();
                        reference::trsm_unblocked(
                            Side::Left,
                            o.op_triangle(),
                            diag,
                            &op_a,
                            &mut want,
                        );
                        for (got, want) in x.iter().zip(want.as_slice()) {
                            assert!((got - want).abs() < 1e-9, "n={n} {o:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn transposed_single_rhs_matches_materialized_transpose() {
        for &n in &[1usize, 5, 40, 70] {
            let l = lower(n);
            let u = l.transpose();
            let b: Vec<f64> = (0..n).map(|i| ((i * 5) % 7) as f64 - 3.0).collect();
            for diag in [Diag::NonUnit, Diag::Unit] {
                for (tri, a) in [(Triangle::Lower, &l), (Triangle::Upper, &u)] {
                    let o = opts(Side::Left, tri, diag).transposed();
                    let mut x = b.clone();
                    trsm_in_place_opts(&o, a, x.as_mut_slice()).unwrap();
                    let mut xt = b.clone();
                    let at = a.transpose();
                    trsm_in_place_opts(&opts(Side::Left, o.op_triangle(), diag), &at, &mut xt[..])
                        .unwrap();
                    for (got, want) in x.iter().zip(&xt) {
                        assert!(
                            (got - want).abs() < 1e-9,
                            "transposed single RHS diverged at n={n} {tri:?} {diag:?}"
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
    fn single_row_right_side_is_the_flipped_left_solve() {
        // x·op(A) = b with one row is op(A)ᵀ·xᵀ = bᵀ: the same row kernel,
        // the same bits as the left solve with the transpose flipped.
        let n = 70;
        let l = lower(n);
        let b: Vec<f64> = (0..n).map(|i| ((i * 3) % 7) as f64 - 2.0).collect();
        for transpose in [Transpose::No, Transpose::Yes] {
            let right = SolveOpts::lower().side(Side::Right).transpose(transpose);
            let mut x = Matrix::from_vec(1, n, b.clone()).unwrap();
            trsm_in_place_opts(&right, &l, &mut x).unwrap();
            let flipped = match transpose {
                Transpose::No => Transpose::Yes,
                Transpose::Yes => Transpose::No,
            };
            let mut want = b.clone();
            trsm_in_place_opts(&SolveOpts::lower().transpose(flipped), &l, &mut want[..]).unwrap();
            assert_eq!(x.as_slice(), want);
        }
    }

    #[test]
    fn unit_diagonal_ignores_stored_diagonal() {
        // On every side of the rule: row substitution, blocked substitution
        // and the inverted diagonal blocks alike take the diagonal as ones,
        // whatever is stored there — NaN included.
        for (n, k) in [(10, 1), (10, 2), (NB + 9, NB + 3)] {
            let mut l_unit = lower(n);
            for i in 0..n {
                l_unit[(i, i)] = 1.0;
            }
            let x_true = Matrix::from_fn(n, k, |i, j| ((i + j) % 9) as f64 / 5.0);
            let b = matmul(&l_unit, &x_true);
            for garbage in [123.0, f64::NAN] {
                let mut l_garbage = l_unit.clone();
                for i in 0..n {
                    l_garbage[(i, i)] = garbage;
                }
                let x = trsm_opts(&SolveOpts::lower().unit_diagonal(), &l_garbage, &b).unwrap();
                assert!(near(&x, &x_true, 1e-9), "n={n} k={k} diagonal={garbage}");
            }
        }
    }

    #[test]
    fn single_rhs_solves() {
        let n = 9;
        let l = lower(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25 - 1.0).collect();
        let xt = Matrix::from_vec(n, 1, x_true.clone()).unwrap();
        let mut x = matmul(&l, &xt).into_vec();
        trsm_in_place_opts(&SolveOpts::lower(), &l, x.as_mut_slice()).unwrap();
        for (a, b) in x.iter().zip(x_true.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn single_rhs_rejects_bad_inputs() {
        let l = lower(4);
        let o = SolveOpts::lower();
        let mut short = vec![1.0; 3];
        assert!(trsm_in_place_opts(&o, &l, short.as_mut_slice()).is_err());
        let rect = Matrix::zeros(3, 4);
        let mut x = vec![1.0; 3];
        assert!(trsm_in_place_opts(&o, &rect, x.as_mut_slice()).is_err());
        let mut sing = l.clone();
        sing[(2, 2)] = 0.0;
        let mut x4 = vec![1.0; 4];
        match trsm_in_place_opts(&o, &sing, x4.as_mut_slice()) {
            Err(DenseError::SingularPivot { index, .. }) => assert_eq!(index, 2),
            other => panic!("expected SingularPivot, got {other:?}"),
        }
    }

    #[test]
    fn singular_pivot_is_detected() {
        let mut l = lower(5);
        l[(3, 3)] = 0.0;
        let b = Matrix::filled(5, 2, 1.0);
        match trsm_opts(&SolveOpts::lower(), &l, &b) {
            Err(DenseError::SingularPivot { index, .. }) => assert_eq!(index, 3),
            other => panic!("expected SingularPivot, got {other:?}"),
        }
    }

    #[test]
    fn dimension_checks() {
        let l = lower(4);
        let b = Matrix::zeros(5, 2);
        assert!(trsm_opts(&SolveOpts::lower(), &l, &b).is_err());
        let rect = Matrix::zeros(3, 4);
        assert!(trsm_opts(&SolveOpts::lower(), &rect, &b).is_err());
        let mut r = Matrix::zeros(2, 5);
        assert!(trsm_in_place_opts(&SolveOpts::lower().side(Side::Right), &l, &mut r).is_err());
    }

    #[test]
    fn finite_scan_rejects_nan_matrix_entry() {
        let mut l = lower(6);
        l[(4, 2)] = f64::NAN;
        let b = Matrix::filled(6, 2, 1.0);
        // Off by default: the solve runs (and propagates the NaN).
        assert!(trsm_opts(&SolveOpts::lower(), &l, &b).is_ok());
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
        // Garbage strictly above the diagonal of a lower solve is never
        // read: not by the scan, not by substitution (k < NB), not by the
        // inverted diagonal blocks (k >= NB) — the solution stays finite.
        for (n, k) in [(6, 1), (6, 2), (NB + 6, NB)] {
            let mut l = lower(n);
            l[(1, 4)] = f64::NAN;
            l[(n - 2, n - 1)] = f64::NAN;
            let b = Matrix::filled(n, k, 1.0);
            let x = trsm_opts(&SolveOpts::lower().validate_finite(), &l, &b).unwrap();
            assert!(x.as_slice().iter().all(|v| v.is_finite()), "n={n} k={k}");
        }
    }

    #[test]
    fn finite_scan_covers_trsv() {
        // The scan guards a one-right-hand-side solve like any other.
        let mut l = lower(5);
        l[(2, 0)] = f64::NEG_INFINITY;
        let mut x = vec![1.0; 5];
        match trsm_in_place_opts(&SolveOpts::lower().validate_finite(), &l, x.as_mut_slice()) {
            Err(DenseError::NonFiniteEntry { operand, index, .. }) => {
                assert_eq!(operand, "matrix");
                assert_eq!(index, (2, 0));
            }
            other => panic!("expected NonFiniteEntry, got {other:?}"),
        }
        let good = lower(5);
        let mut bad_rhs = vec![1.0; 5];
        bad_rhs[3] = f64::NAN;
        match trsm_in_place_opts(
            &SolveOpts::lower().validate_finite(),
            &good,
            bad_rhs.as_mut_slice(),
        ) {
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
        let f = trsm_in_place_opts(&SolveOpts::lower(), &l, &mut b).unwrap();
        assert_eq!(f, trsm_flops(8, 3));
    }

    #[test]
    fn solving_identity_returns_rhs() {
        let id = Matrix::identity(6);
        let b = Matrix::from_fn(6, 4, |i, j| (i * 4 + j) as f64);
        let x = trsm_opts(&SolveOpts::lower(), &id, &b).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn large_blocked_solve_is_accurate() {
        let n = 200;
        let k = 33;
        let l = crate::gen::well_conditioned_lower(n, 5);
        let x_true = crate::gen::rhs(n, k, 6);
        let b = matmul(&l, &x_true);
        let x = trsm_opts(&SolveOpts::lower(), &l, &b).unwrap();
        assert!(crate::norms::rel_diff(&x, &x_true) < 1e-9);
    }
}

//! General matrix–matrix multiplication kernels.
//!
//! The workhorse is [`gemm`], `C ← α · A · B + β · C`, which routes every
//! non-trivial product through the packed-panel microkernel of
//! [`crate::microkernel`] (pack `A` into `MR`-row column panels and `B` into
//! `NR`-column row panels at an `(MC, KC, NC)` tiling, then drive an `MR×NR`
//! register tile over the packed buffers).  Products above
//! [`PAR_MIN_MADDS`] multiply–adds additionally split their column panels
//! across the [`crate::threads`] worker pool (governed by `DENSE_THREADS`),
//! with bitwise-identical results at every worker count.  [`gemm_views`] is
//! the same operation on borrowed sub-blocks, which is what the blocked
//! triangular kernels and the `catrsm` algorithms use to update blocks in
//! place without cloning them; [`gemm_with_threads`] /
//! [`gemm_views_with_threads`] take an explicit worker budget (benches and
//! determinism tests use them to pin the partitioning).  Convenience
//! wrappers [`matmul`], [`gemm_at_b`] and [`gemm_a_bt`] cover the transposed
//! variants the distributed algorithms need.

use crate::error::DenseError;
use crate::flops::{gemm_flops, FlopCount};
use crate::matrix::{MatMut, MatRef, Matrix};
use crate::microkernel::{gemm_views_accumulate_opt, TriMask};
use crate::pack::op_dims;
use crate::threads::dense_threads;
use crate::Result;

/// Below this many multiply–adds a GEMM never goes parallel on its own:
/// worker spawn/join overhead (tens of microseconds) would rival the compute
/// itself, and the distributed algorithms issue many small block products.
/// Explicit [`gemm_with_threads`] callers bypass this gate.
pub const PAR_MIN_MADDS: usize = 128 * 128 * 128;

/// Lower parallelisation gate used when a thread-local worker budget is in
/// effect ([`crate::threads::with_thread_budget`]): a simulated rank's block
/// products are far smaller than standalone GEMMs but there are many of
/// them, so the break-even point sits much lower than [`PAR_MIN_MADDS`].
pub const BUDGET_MIN_MADDS: usize = 32 * 32 * 32;

/// `C ← alpha * A * B + beta * C`.
///
/// `A` is `m×p`, `B` is `p×n`, `C` must be `m×n`.  Returns the number of
/// flops performed so callers can charge them to the simulated machine.
/// Large products run on the worker pool (see [`crate::threads`]).
pub fn gemm(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) -> Result<FlopCount> {
    gemm_views(alpha, a.as_view(), b.as_view(), beta, &mut c.as_view_mut())
}

/// [`gemm`] with an explicit worker budget instead of the `DENSE_THREADS`
/// default.  `threads == 1` is the deterministic sequential path; any value
/// produces bitwise-identical results.
pub fn gemm_with_threads(
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
    threads: usize,
) -> Result<FlopCount> {
    gemm_views_with_threads(
        alpha,
        a.as_view(),
        b.as_view(),
        beta,
        &mut c.as_view_mut(),
        threads,
    )
}

/// `C ← alpha * A * B + beta * C` on borrowed sub-blocks.
///
/// This is the block-update primitive behind the blocked triangular kernels:
/// the operands may be [`Matrix::view`]s of larger matrices, so callers
/// update sub-blocks in place instead of extracting, multiplying, and
/// re-inserting copies.  Borrow rules guarantee `c` cannot overlap `a` or
/// `b`.  Products of at least [`PAR_MIN_MADDS`] multiply–adds use the worker
/// pool; smaller ones stay on the calling thread.
pub fn gemm_views(
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    c: &mut MatMut<'_>,
) -> Result<FlopCount> {
    gemm_views_opt(alpha, a, false, b, false, beta, c, None, None)
}

/// [`gemm_views`] with an explicit worker budget.
///
/// Unlike the implicit path this does not apply the [`PAR_MIN_MADDS`] gate:
/// the caller asked for `threads` workers and gets them whenever the product
/// is large enough to take the packed path at all (tiny products still run
/// the sequential small-product loop — identically for every `threads`).
pub fn gemm_views_with_threads(
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    c: &mut MatMut<'_>,
    threads: usize,
) -> Result<FlopCount> {
    gemm_views_opt(alpha, a, false, b, false, beta, c, None, Some(threads))
}

/// `C ← alpha * Aᵀ * B + beta * C` on borrowed sub-blocks, with `a` the
/// **stored** (un-transposed, `p×m`) operand.
///
/// The transpose is folded into the packing itself — `Aᵀ`'s micro-panels
/// are read straight out of `a` with swapped strides by the pack layer —
/// so no transposed panel is ever materialized,
/// in scratch or elsewhere.  This is the update primitive of the blocked
/// `op(A) = Aᵀ` TRSM drivers.  Results are **bitwise identical** to running
/// [`gemm_views`] on an explicitly materialized transpose, at every worker
/// count.  Subject to the same [`PAR_MIN_MADDS`] gate as [`gemm_views`].
pub fn gemm_views_at(
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    c: &mut MatMut<'_>,
) -> Result<FlopCount> {
    gemm_views_opt(alpha, a, true, b, false, beta, c, None, None)
}

/// `C ← alpha * A * Bᵀ + beta * C` on borrowed sub-blocks, with `b` the
/// **stored** (un-transposed, `n×p`) operand — the mirror of
/// [`gemm_views_at`] for right-side transposed updates.
pub fn gemm_views_a_bt(
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    c: &mut MatMut<'_>,
) -> Result<FlopCount> {
    gemm_views_opt(alpha, a, false, b, true, beta, c, None, None)
}

/// `C ← alpha * op(A) * op(B) + beta * C` where one of the operands is
/// **triangular**: `mask` names it and its triangle (see [`TriMask`]), and
/// the packed kernel multiplies only that triangle — tiles wholly in the
/// zero part are skipped, tiles crossing the diagonal run a shorter inner
/// loop, and the other triangle of the stored operand is never multiplied
/// in (it may hold unrelated data, as the in-place triangular inversion's
/// blocks do).  `a_trans` / `b_trans` select `op(X) = Xᵀ` through the
/// pack-transposed paths of [`gemm_views_at`] / [`gemm_views_a_bt`].
///
/// This is the one product behind the inverted diagonal blocks of the
/// blocked [`crate::trsm()`], the off-diagonal block of
/// [`crate::tri_invert_in_place`] and [`crate::trmm()`].  For finite
/// operands and `beta = 0` the result is bitwise that of the unmasked
/// product on operands with the other triangle zero-filled, at every worker
/// count.  The returned [`FlopCount`] is the classical `2·m·p·n` of the full
/// product, so cost accounting does not depend on how much was skipped.
/// Subject to the same [`PAR_MIN_MADDS`] gate as [`gemm_views`].
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn gemm_views_masked(
    alpha: f64,
    a: MatRef<'_>,
    a_trans: bool,
    b: MatRef<'_>,
    b_trans: bool,
    beta: f64,
    c: &mut MatMut<'_>,
    mask: TriMask,
) -> Result<FlopCount> {
    gemm_views_opt(alpha, a, a_trans, b, b_trans, beta, c, Some(mask), None)
}

/// The options-driven core every view-level GEMM funnels through:
/// validates the *conceptual* (`op`-applied) dimensions, applies `beta`,
/// resolves the worker budget (`None` = the implicit [`PAR_MIN_MADDS`]
/// gate), and dispatches to the packed accumulator.
#[allow(clippy::too_many_arguments)] // one internal funnel, BLAS-style
pub(crate) fn gemm_views_opt(
    alpha: f64,
    a: MatRef<'_>,
    a_trans: bool,
    b: MatRef<'_>,
    b_trans: bool,
    beta: f64,
    c: &mut MatMut<'_>,
    mask: Option<TriMask>,
    threads: Option<usize>,
) -> Result<FlopCount> {
    let (m, p) = op_dims(a, a_trans);
    let (p2, n) = op_dims(b, b_trans);
    if p != p2 {
        return Err(DenseError::DimensionMismatch {
            op: "gemm",
            lhs: a.dims(),
            rhs: b.dims(),
        });
    }
    if c.dims() != (m, n) {
        return Err(DenseError::DimensionMismatch {
            op: "gemm (output)",
            lhs: (m, n),
            rhs: c.dims(),
        });
    }

    if beta != 1.0 {
        if beta == 0.0 {
            c.fill_zero();
        } else {
            c.scale_in_place(beta);
        }
    }
    if alpha == 0.0 || m == 0 || n == 0 || p == 0 {
        return Ok(FlopCount::ZERO);
    }

    let threads = threads.map(|t| t.max(1)).unwrap_or_else(|| {
        let madds = m.saturating_mul(n).saturating_mul(p);
        // A thread-local budget (a simulated rank's share of the pool)
        // replaces the standalone-caller gate with a much lower one: rank
        // block products are small but numerous, and their worker threads
        // already exist.
        if let Some(budget) = crate::threads::thread_budget() {
            if madds >= BUDGET_MIN_MADDS {
                budget
            } else {
                1
            }
        } else if madds >= PAR_MIN_MADDS {
            dense_threads()
        } else {
            1
        }
    });
    gemm_views_accumulate_opt(alpha, a, a_trans, b, b_trans, c, mask, threads);
    Ok(gemm_flops(m, p, n))
}

/// Convenience wrapper: returns `A · B` as a fresh matrix.
///
/// Panics only on internal errors; dimension mismatches panic with a clear
/// message because they indicate a programming error at the call site.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(1.0, a, b, 0.0, &mut c).expect("matmul: incompatible dimensions");
    c
}

/// `C ← alpha * Aᵀ * B + beta * C` (A is `p×m`, B is `p×n`, C is `m×n`).
///
/// The transpose is folded into the packing ([`gemm_views_at`]); no `Aᵀ`
/// is materialized, and the result is bitwise identical to multiplying a
/// materialized transpose.
pub fn gemm_at_b(
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
) -> Result<FlopCount> {
    gemm_views_at(alpha, a.as_view(), b.as_view(), beta, &mut c.as_view_mut())
}

/// `C ← alpha * A * Bᵀ + beta * C` (A is `m×p`, B is `n×p`, C is `m×n`).
///
/// Like [`gemm_at_b`], the transpose lives in the packing
/// ([`gemm_views_a_bt`]): no `Bᵀ` is materialized.
pub fn gemm_a_bt(
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
) -> Result<FlopCount> {
    gemm_views_a_bt(alpha, a.as_view(), b.as_view(), beta, &mut c.as_view_mut())
}

/// Reference (non-blocked) triple-loop multiplication used by the tests to
/// validate the packed kernel.
pub fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_reference: inner dims must agree"
    );
    let (m, p) = a.dims();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for k in 0..p {
                acc += a[(i, k)] * b[(k, j)];
            }
            c[(i, j)] = acc;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn near(a: &Matrix, b: &Matrix, tol: f64) -> bool {
        a.max_abs_diff(b).map(|d| d < tol).unwrap_or(false)
    }

    #[test]
    fn small_known_product() {
        let a = Matrix::from_row_major(2, 2, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_row_major(2, 2, &[5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = matmul(&a, &b);
        let expect = Matrix::from_row_major(2, 2, &[19.0, 22.0, 43.0, 50.0]).unwrap();
        assert_eq!(c, expect);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_fn(7, 7, |i, j| ((i * 13 + j * 7) % 11) as f64 - 5.0);
        let id = Matrix::identity(7);
        assert!(near(&matmul(&a, &id), &a, 1e-14));
        assert!(near(&matmul(&id, &a), &a, 1e-14));
    }

    #[test]
    fn blocked_matches_reference_rectangular() {
        let a = Matrix::from_fn(70, 130, |i, j| ((i * 31 + j * 17) % 23) as f64 / 23.0 - 0.5);
        let b = Matrix::from_fn(130, 50, |i, j| ((i * 7 + j * 41) % 19) as f64 / 19.0 - 0.5);
        let c1 = matmul(&a, &b);
        let c2 = matmul_reference(&a, &b);
        assert!(near(&c1, &c2, 1e-10));
    }

    #[test]
    fn packed_path_matches_reference_at_scale() {
        // Large enough to exercise every level of the (MC, KC, NC) tiling,
        // with ragged edges on all three dimensions.
        let a = Matrix::from_fn(261, 300, |i, j| {
            ((i * 31 + j * 17) % 23) as f64 / 23.0 - 0.5
        });
        let b = Matrix::from_fn(300, 137, |i, j| ((i * 7 + j * 41) % 19) as f64 / 19.0 - 0.5);
        let c1 = matmul(&a, &b);
        let c2 = matmul_reference(&a, &b);
        assert!(near(&c1, &c2, 1e-9));
    }

    #[test]
    fn gemm_views_updates_blocks_in_place() {
        let big_a = Matrix::from_fn(9, 9, |i, j| (i + j) as f64 / 5.0);
        let big_b = Matrix::from_fn(9, 9, |i, j| (i as f64) - (j as f64));
        let mut c = Matrix::zeros(6, 6);
        // C[2..5, 1..4] += 2 · A[0..3, 3..7] · B[2..6, 4..7]
        let f = gemm_views(
            2.0,
            big_a.view(0, 3, 3, 4),
            big_b.view(2, 4, 4, 3),
            1.0,
            &mut c.view_mut(2, 1, 3, 3),
        )
        .unwrap();
        assert_eq!(f, gemm_flops(3, 4, 3));
        let expect = matmul(&big_a.block(0, 3, 3, 4), &big_b.block(2, 4, 4, 3)).scale(2.0);
        assert!(near(&c.block(2, 1, 3, 3), &expect, 1e-12));
        // Everything outside the target block is untouched.
        assert_eq!(c[(0, 0)], 0.0);
        assert_eq!(c[(5, 5)], 0.0);
    }

    #[test]
    fn gemm_views_dimension_errors() {
        let a = Matrix::zeros(3, 4);
        let b = Matrix::zeros(5, 2);
        let mut c = Matrix::zeros(3, 2);
        assert!(gemm_views(1.0, a.as_view(), b.as_view(), 0.0, &mut c.as_view_mut()).is_err());
        let b_ok = Matrix::zeros(4, 2);
        let mut c_bad = Matrix::zeros(2, 2);
        assert!(gemm_views(
            1.0,
            a.as_view(),
            b_ok.as_view(),
            0.0,
            &mut c_bad.as_view_mut()
        )
        .is_err());
    }

    #[test]
    fn gemm_accumulate_and_scale() {
        let a = Matrix::from_fn(5, 4, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(4, 3, |i, j| (i as f64) - (j as f64));
        let mut c = Matrix::filled(5, 3, 1.0);
        // C = 2*A*B + 3*C
        gemm(2.0, &a, &b, 3.0, &mut c).unwrap();
        let mut expect = matmul(&a, &b).scale(2.0);
        expect.axpy(3.0, &Matrix::filled(5, 3, 1.0)).unwrap();
        assert!(near(&c, &expect, 1e-12));
    }

    #[test]
    fn gemm_beta_zero_overwrites_nan_free() {
        let a = Matrix::identity(3);
        let b = Matrix::identity(3);
        let mut c = Matrix::filled(3, 3, f64::NAN);
        // beta = 0 must not propagate NaNs from the old C.
        gemm(1.0, &a, &b, 0.0, &mut c).unwrap();
        assert_eq!(c, Matrix::identity(3));
    }

    #[test]
    fn gemm_alpha_zero_only_scales() {
        let a = Matrix::filled(3, 3, 1.0);
        let b = Matrix::filled(3, 3, 1.0);
        let mut c = Matrix::filled(3, 3, 2.0);
        let flops = gemm(0.0, &a, &b, 0.5, &mut c).unwrap();
        assert_eq!(flops, FlopCount::ZERO);
        assert_eq!(c, Matrix::filled(3, 3, 1.0));
    }

    #[test]
    fn gemm_dimension_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let mut c = Matrix::zeros(2, 2);
        assert!(gemm(1.0, &a, &b, 0.0, &mut c).is_err());
        let b_ok = Matrix::zeros(3, 2);
        let mut c_bad = Matrix::zeros(3, 3);
        assert!(gemm(1.0, &a, &b_ok, 0.0, &mut c_bad).is_err());
    }

    #[test]
    fn gemm_reports_flops() {
        let a = Matrix::zeros(4, 5);
        let b = Matrix::zeros(5, 6);
        let mut c = Matrix::zeros(4, 6);
        let f = gemm(1.0, &a, &b, 0.0, &mut c).unwrap();
        assert_eq!(f, gemm_flops(4, 5, 6));
    }

    #[test]
    fn pack_transposed_views_match_materialized_transposes_bitwise() {
        // The pack-transposed entry points must be *bitwise* equal to
        // gemm_views on explicitly materialized transposes (the packed
        // buffers hold identical values and the accumulation order is the
        // same), across shapes spanning the small and packed paths and
        // ragged panel edges — the blocked transposed-TRSM update shapes.
        for &(m, k, n) in &[(7, 5, 9), (64, 130, 96), (61, 200, 17), (130, 64, 257)] {
            let a = Matrix::from_fn(k, m, |i, j| ((i * 13 + j * 7) % 17) as f64 / 17.0 - 0.4);
            let b = Matrix::from_fn(k, n, |i, j| ((i * 5 + j * 29) % 13) as f64 / 13.0 - 0.6);
            let mut c1 = Matrix::from_fn(m, n, |i, j| (i + j) as f64 * 0.01);
            let mut c2 = c1.clone();
            let f1 =
                gemm_views_at(-1.5, a.as_view(), b.as_view(), 1.0, &mut c1.as_view_mut()).unwrap();
            let at = a.transpose();
            let f2 =
                gemm_views(-1.5, at.as_view(), b.as_view(), 1.0, &mut c2.as_view_mut()).unwrap();
            assert_eq!(f1, f2);
            assert!(c1 == c2, "gemm_views_at diverged at ({m},{k},{n})");

            let x = Matrix::from_fn(m, k, |i, j| ((i * 3 + j * 11) % 19) as f64 / 19.0 - 0.5);
            let p = Matrix::from_fn(n, k, |i, j| ((i * 23 + j * 3) % 11) as f64 / 11.0 - 0.5);
            let mut d1 = Matrix::from_fn(m, n, |i, j| (2 * i + j) as f64 * 0.02);
            let mut d2 = d1.clone();
            gemm_views_a_bt(2.0, x.as_view(), p.as_view(), 0.5, &mut d1.as_view_mut()).unwrap();
            let pt = p.transpose();
            gemm_views(2.0, x.as_view(), pt.as_view(), 0.5, &mut d2.as_view_mut()).unwrap();
            assert!(d1 == d2, "gemm_views_a_bt diverged at ({m},{k},{n})");
        }
    }

    #[test]
    fn pack_transposed_views_reject_mismatched_conceptual_dims() {
        // a stored 4×3 -> op(a) is 3×4; pairing with a 3-row b must fail.
        let a = Matrix::zeros(4, 3);
        let b = Matrix::zeros(3, 2);
        let mut c = Matrix::zeros(3, 2);
        assert!(gemm_views_at(1.0, a.as_view(), b.as_view(), 0.0, &mut c.as_view_mut()).is_err());
        // And the output must match the conceptual (m, n).
        let b_ok = Matrix::zeros(4, 2);
        let mut c_bad = Matrix::zeros(4, 2);
        assert!(gemm_views_at(
            1.0,
            a.as_view(),
            b_ok.as_view(),
            0.0,
            &mut c_bad.as_view_mut()
        )
        .is_err());
    }

    #[test]
    fn transposed_variants() {
        let a = Matrix::from_fn(4, 6, |i, j| (i * 6 + j) as f64 / 10.0);
        let b = Matrix::from_fn(4, 3, |i, j| (i + 2 * j) as f64 / 7.0);
        // Aᵀ B : (6x4)(4x3) = 6x3
        let mut c = Matrix::zeros(6, 3);
        gemm_at_b(1.0, &a, &b, 0.0, &mut c).unwrap();
        assert!(near(&c, &matmul(&a.transpose(), &b), 1e-12));

        let b2 = Matrix::from_fn(5, 6, |i, j| (i * j) as f64 / 3.0);
        // A B2ᵀ : (4x6)(6x5) = 4x5
        let mut c2 = Matrix::zeros(4, 5);
        gemm_a_bt(1.0, &a, &b2, 0.0, &mut c2).unwrap();
        assert!(near(&c2, &matmul(&a, &b2.transpose()), 1e-12));
    }

    #[test]
    fn empty_dimensions_are_ok() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        let mut c = Matrix::zeros(0, 3);
        assert_eq!(gemm(1.0, &a, &b, 0.0, &mut c).unwrap(), FlopCount::ZERO);
    }
}

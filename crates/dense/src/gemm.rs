//! General matrix–matrix multiplication kernels.
//!
//! The workhorse is [`gemm_views`], `C ← α · op(A) · op(B) + β · C` on
//! borrowed sub-blocks, which routes every non-trivial product through the
//! packed-panel microkernel of [`crate::microkernel`] (pack `A` into
//! `MR`-row column panels and `B` into `NR`-column row panels at an
//! `(MC, KC, NC)` tiling, then drive an `MR×NR` register tile over the
//! packed buffers).  Transposes are folded into the packing, and an
//! optional [`TriMask`] multiplies a triangular operand's triangle only.
//! Products above [`PAR_MIN_MADDS`] multiply–adds additionally run the
//! packed kernel on one chunk of `C` per worker of the [`crate::threads`]
//! pool (governed by `DENSE_THREADS`), with bitwise-identical results at
//! every worker count.
//! [`gemm`] / [`matmul`] are the whole-matrix forms, and
//! [`gemm_with_threads`] takes an explicit worker budget (benches and
//! determinism tests use it to pin the partitioning).

use crate::error::DenseError;
use crate::flops::{masked_gemm_flops, FlopCount};
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
    gemm_views(
        alpha,
        a.as_view(),
        false,
        b.as_view(),
        false,
        beta,
        &mut c.as_view_mut(),
        None,
    )
}

/// [`gemm`] with an explicit worker budget instead of the `DENSE_THREADS`
/// default.  `threads == 1` is the deterministic sequential path; any value
/// produces bitwise-identical results.
///
/// Unlike the implicit path this does not apply the [`PAR_MIN_MADDS`] gate:
/// the caller asked for `threads` workers and gets them whenever the product
/// is large enough to take the packed path at all (tiny products still run
/// the sequential small-product loop — identically for every `threads`).
pub fn gemm_with_threads(
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
    threads: usize,
) -> Result<FlopCount> {
    gemm_views_on(
        alpha,
        a.as_view(),
        false,
        b.as_view(),
        false,
        beta,
        &mut c.as_view_mut(),
        None,
        Some(threads),
    )
}

/// `C ← alpha * op(A) * op(B) + beta * C` on borrowed sub-blocks.
///
/// This is the block-update primitive behind the blocked triangular kernels
/// and the `catrsm` algorithms: the operands may be [`Matrix::view`]s of
/// larger matrices, so callers update sub-blocks in place instead of
/// extracting, multiplying, and re-inserting copies.  Borrow rules guarantee
/// `c` cannot overlap `a` or `b`.
///
/// * `a_trans` / `b_trans` select `op(X) = Xᵀ` with `X` the **stored**
///   operand.  The transpose is folded into the packing itself — `Xᵀ`'s
///   micro-panels are read straight out of `X` with swapped strides — so no
///   transposed panel is ever materialized, and the result is **bitwise**
///   that of multiplying a materialized transpose, at every worker count.
/// * `mask` names a **triangular** operand and its triangle (see
///   [`TriMask`]): the packed kernel multiplies only that triangle — tiles
///   wholly in the zero part are skipped, tiles crossing the diagonal run a
///   shorter inner loop, and the other triangle of the stored operand is
///   never multiplied in (it may hold unrelated data, as the in-place
///   triangular inversion's blocks do).  For finite operands and `beta = 0`
///   the result is bitwise that of the unmasked product on operands with the
///   other triangle zero-filled, at every worker count.
///
/// The returned [`FlopCount`] is that of the arithmetic the call runs,
/// [`crate::flops::masked_gemm_flops`]: of the triangle, for a masked one.
/// Products of at least [`PAR_MIN_MADDS`] multiply–adds use the worker
/// pool; smaller ones stay on the calling thread.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn gemm_views(
    alpha: f64,
    a: MatRef<'_>,
    a_trans: bool,
    b: MatRef<'_>,
    b_trans: bool,
    beta: f64,
    c: &mut MatMut<'_>,
    mask: Option<TriMask>,
) -> Result<FlopCount> {
    gemm_views_on(alpha, a, a_trans, b, b_trans, beta, c, mask, None)
}

/// [`gemm_views`] on an explicit worker budget (`None` = the implicit
/// [`PAR_MIN_MADDS`] gate): validates the *conceptual* (`op`-applied)
/// dimensions, applies `beta`, resolves the budget, and dispatches to the
/// packed accumulator.
#[allow(clippy::too_many_arguments)] // one internal funnel, BLAS-style
fn gemm_views_on(
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
    Ok(masked_gemm_flops(m, p, n, mask))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flops::gemm_flops;
    use crate::reference::gemm_naive_ikj;

    /// [`gemm_views`] on whole matrices.
    fn op_product(
        alpha: f64,
        a: &Matrix,
        a_trans: bool,
        b: &Matrix,
        b_trans: bool,
        beta: f64,
        c: &mut Matrix,
    ) -> Result<FlopCount> {
        let (a, b) = (a.as_view(), b.as_view());
        gemm_views(
            alpha,
            a,
            a_trans,
            b,
            b_trans,
            beta,
            &mut c.as_view_mut(),
            None,
        )
    }

    /// `A · B` by the naive i-k-j reference loop.
    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        gemm_naive_ikj(1.0, a, b, 0.0, &mut c);
        c
    }

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
        let c2 = naive(&a, &b);
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
        let c2 = naive(&a, &b);
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
            false,
            big_b.view(2, 4, 4, 3),
            false,
            1.0,
            &mut c.view_mut(2, 1, 3, 3),
            None,
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
        assert!(op_product(1.0, &a, false, &b, false, 0.0, &mut c).is_err());
        let b_ok = Matrix::zeros(4, 2);
        let mut c_bad = Matrix::zeros(2, 2);
        assert!(op_product(1.0, &a, false, &b_ok, false, 0.0, &mut c_bad).is_err());
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
            let f1 = op_product(-1.5, &a, true, &b, false, 1.0, &mut c1).unwrap();
            let at = a.transpose();
            let f2 = op_product(-1.5, &at, false, &b, false, 1.0, &mut c2).unwrap();
            assert_eq!(f1, f2);
            assert!(c1 == c2, "op(A) = Aᵀ diverged at ({m},{k},{n})");

            let x = Matrix::from_fn(m, k, |i, j| ((i * 3 + j * 11) % 19) as f64 / 19.0 - 0.5);
            let p = Matrix::from_fn(n, k, |i, j| ((i * 23 + j * 3) % 11) as f64 / 11.0 - 0.5);
            let mut d1 = Matrix::from_fn(m, n, |i, j| (2 * i + j) as f64 * 0.02);
            let mut d2 = d1.clone();
            op_product(2.0, &x, false, &p, true, 0.5, &mut d1).unwrap();
            let pt = p.transpose();
            op_product(2.0, &x, false, &pt, false, 0.5, &mut d2).unwrap();
            assert!(d1 == d2, "op(B) = Bᵀ diverged at ({m},{k},{n})");
        }
    }

    #[test]
    fn pack_transposed_views_reject_mismatched_conceptual_dims() {
        // a stored 4×3 -> op(a) is 3×4; pairing with a 3-row b must fail.
        let a = Matrix::zeros(4, 3);
        let b = Matrix::zeros(3, 2);
        let mut c = Matrix::zeros(3, 2);
        assert!(op_product(1.0, &a, true, &b, false, 0.0, &mut c).is_err());
        // And the output must match the conceptual (m, n).
        let b_ok = Matrix::zeros(4, 2);
        let mut c_bad = Matrix::zeros(4, 2);
        assert!(op_product(1.0, &a, true, &b_ok, false, 0.0, &mut c_bad).is_err());
    }

    #[test]
    fn transposed_variants() {
        let a = Matrix::from_fn(4, 6, |i, j| (i * 6 + j) as f64 / 10.0);
        let b = Matrix::from_fn(4, 3, |i, j| (i + 2 * j) as f64 / 7.0);
        // Aᵀ B : (6x4)(4x3) = 6x3
        let mut c = Matrix::zeros(6, 3);
        op_product(1.0, &a, true, &b, false, 0.0, &mut c).unwrap();
        assert!(near(&c, &matmul(&a.transpose(), &b), 1e-12));

        let b2 = Matrix::from_fn(5, 6, |i, j| (i * j) as f64 / 3.0);
        // A B2ᵀ : (4x6)(6x5) = 4x5
        let mut c2 = Matrix::zeros(4, 5);
        op_product(1.0, &a, false, &b2, true, 0.0, &mut c2).unwrap();
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

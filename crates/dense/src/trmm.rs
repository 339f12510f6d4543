//! Triangular × dense matrix multiplication.
//!
//! `trmm` computes `C ← A · B` for triangular `A` as one triangle-aware
//! packed product (a masked [`gemm_views`]): the microkernel skips the tiles
//! of `A` that lie wholly in the zero half and shortens the inner loop on
//! the tiles that cross the diagonal, so only the triangle is multiplied —
//! at microkernel speed throughout — and the other triangle of `a` is never
//! read into the result.  It backs the residual checks and the TRSM ↔ TRMM
//! round-trip tests.

use crate::error::DenseError;
use crate::flops::{trmm_flops, FlopCount};
use crate::gemm::gemm_views;
use crate::matrix::Matrix;
use crate::microkernel::TriMask;
use crate::trsm::Triangle;
use crate::Result;

/// Compute `A · B` where `A` is triangular, returning a fresh matrix along
/// with the number of flops spent.
pub fn trmm(tri: Triangle, a: &Matrix, b: &Matrix) -> Result<(Matrix, FlopCount)> {
    if !a.is_square() {
        return Err(DenseError::NotSquare {
            op: "trmm",
            dims: a.dims(),
        });
    }
    if a.cols() != b.rows() {
        return Err(DenseError::DimensionMismatch {
            op: "trmm",
            lhs: a.dims(),
            rhs: b.dims(),
        });
    }
    let (n, k) = (a.rows(), b.cols());
    let mut c = Matrix::zeros(n, k);
    gemm_views(
        1.0,
        a.as_view(),
        false,
        b.as_view(),
        false,
        0.0,
        &mut c.as_view_mut(),
        Some(TriMask::a(tri)),
    )?;
    Ok((c, trmm_flops(n, k)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;
    use crate::reference;

    #[test]
    fn lower_trmm_matches_gemm() {
        let n = 13;
        let l = Matrix::from_fn(n, n, |i, j| {
            if j <= i {
                ((i + j) % 5) as f64 - 2.0
            } else {
                0.0
            }
        });
        let b = Matrix::from_fn(n, 4, |i, j| (i * 4 + j) as f64 / 7.0);
        let (c, flops) = trmm(Triangle::Lower, &l, &b).unwrap();
        let expect = matmul(&l, &b);
        assert!(c.max_abs_diff(&expect).unwrap() < 1e-12);
        assert_eq!(flops, trmm_flops(n, 4));
    }

    #[test]
    fn upper_trmm_matches_gemm() {
        let n = 9;
        let u = Matrix::from_fn(n, n, |i, j| {
            if j >= i {
                1.0 + (i * j % 3) as f64
            } else {
                0.0
            }
        });
        let b = Matrix::from_fn(n, 3, |i, j| (i as f64 + 1.0) * (j as f64 - 1.0));
        let (c, _) = trmm(Triangle::Upper, &u, &b).unwrap();
        assert!(c.max_abs_diff(&matmul(&u, &b)).unwrap() < 1e-12);
    }

    #[test]
    fn blocked_matches_unblocked_reference_across_nb_boundaries() {
        for &n in &[1usize, 63, 64, 65, 150] {
            let l = Matrix::from_fn(n, n, |i, j| {
                if j <= i {
                    ((i * 3 + j * 7) % 11) as f64 / 11.0 - 0.4
                } else {
                    0.0
                }
            });
            let u = l.transpose();
            let b = Matrix::from_fn(n, 9, |i, j| ((i * 13 + j) % 17) as f64 / 17.0 - 0.5);
            for (tri, a) in [(Triangle::Lower, &l), (Triangle::Upper, &u)] {
                let (fast, f1) = trmm(tri, a, &b).unwrap();
                let (slow, f2) = reference::trmm_unblocked(tri, a, &b);
                assert!(
                    fast.max_abs_diff(&slow).unwrap() < 1e-10,
                    "mismatch at n={n} {tri:?}"
                );
                assert_eq!(f1, f2, "flop accounting must match the reference");
            }
        }
    }

    #[test]
    fn other_triangle_is_never_multiplied_in() {
        // One masked product over the whole operand: NaN in the triangle
        // `tri` does not name reaches no entry of the result.
        let n = 150;
        let full = Matrix::from_fn(n, n, |i, j| ((i * 3 + j * 7) % 11) as f64 / 11.0 - 0.4);
        let b = Matrix::from_fn(n, 9, |i, j| ((i * 13 + j) % 17) as f64 / 17.0 - 0.5);
        for tri in [Triangle::Lower, Triangle::Upper] {
            let kept = |i: usize, j: usize| match tri {
                Triangle::Lower => j <= i,
                Triangle::Upper => j >= i,
            };
            let zeroed = Matrix::from_fn(n, n, |i, j| if kept(i, j) { full[(i, j)] } else { 0.0 });
            let poisoned = Matrix::from_fn(
                n,
                n,
                |i, j| if kept(i, j) { full[(i, j)] } else { f64::NAN },
            );
            let (want, _) = trmm(tri, &zeroed, &b).unwrap();
            let (got, _) = trmm(tri, &poisoned, &b).unwrap();
            assert!(got == want, "{tri:?}");
            assert!(got.max_abs_diff(&matmul(&zeroed, &b)).unwrap() < 1e-12);
        }
    }

    #[test]
    fn trmm_validates_inputs() {
        let rect = Matrix::zeros(3, 4);
        let b = Matrix::zeros(4, 2);
        assert!(trmm(Triangle::Lower, &rect, &b).is_err());
        let sq = Matrix::zeros(3, 3);
        assert!(trmm(Triangle::Lower, &sq, &b).is_err());
    }

    #[test]
    fn trmm_with_identity() {
        let id = Matrix::identity(5);
        let b = Matrix::from_fn(5, 2, |i, j| (i + j) as f64);
        let (c, _) = trmm(Triangle::Lower, &id, &b).unwrap();
        assert_eq!(c, b);
    }
}

//! Tests of the triangular × dense product.
//!
//! `C ← tri(A) · B` has no entry point of its own: it is [`gemm_views`]
//! with `Some(TriMask::a(tri))`.  The microkernel skips the tiles of `A`
//! that lie wholly in the zero half and shortens the inner loop on the
//! tiles that cross the diagonal, so only the triangle is multiplied — at
//! microkernel speed throughout — and the other triangle of `a` is never
//! read into the result.  These tests pin that product against the plain
//! GEMM and the unblocked reference.

use crate::flops::FlopCount;
use crate::gemm::gemm_views;
use crate::matrix::Matrix;
use crate::microkernel::TriMask;
use crate::trsm::Triangle;
use crate::Result;

/// `tri(A) · B` into a fresh matrix, with the product's flop count.
fn tri_product(tri: Triangle, a: &Matrix, b: &Matrix) -> Result<(Matrix, FlopCount)> {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    let flops = gemm_views(
        1.0,
        a.as_view(),
        false,
        b.as_view(),
        false,
        0.0,
        &mut c.as_view_mut(),
        Some(TriMask::a(tri)),
    )?;
    Ok((c, flops))
}

mod tests {
    use super::tri_product;
    use crate::gemm::matmul;
    use crate::matrix::Matrix;
    use crate::reference;
    use crate::trsm::Triangle;

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
        let (c, flops) = tri_product(Triangle::Lower, &l, &b).unwrap();
        let expect = matmul(&l, &b);
        assert!(c.max_abs_diff(&expect).unwrap() < 1e-12);
        // The masked product counts the triangle it multiplies.
        assert_eq!(flops.get(), (n * (n + 1) * 4) as u64);
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
        let (c, _) = tri_product(Triangle::Upper, &u, &b).unwrap();
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
                let (fast, f1) = tri_product(tri, a, &b).unwrap();
                let (slow, f2) = reference::trmm_unblocked(tri, a, &b);
                assert!(
                    fast.max_abs_diff(&slow).unwrap() < 1e-10,
                    "mismatch at n={n} {tri:?}"
                );
                assert_eq!(f1, f2, "the triangle's flops at n={n} {tri:?}");
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
            let (want, _) = tri_product(tri, &zeroed, &b).unwrap();
            let (got, _) = tri_product(tri, &poisoned, &b).unwrap();
            assert!(got == want, "{tri:?}");
            assert!(got.max_abs_diff(&matmul(&zeroed, &b)).unwrap() < 1e-12);
        }
    }

    #[test]
    fn trmm_validates_inputs() {
        // `A`'s columns must match `B`'s rows.
        let sq = Matrix::zeros(3, 3);
        let b = Matrix::zeros(4, 2);
        assert!(tri_product(Triangle::Lower, &sq, &b).is_err());
        let rect = Matrix::zeros(3, 4);
        assert!(tri_product(Triangle::Lower, &rect, &Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn trmm_with_identity() {
        let id = Matrix::identity(5);
        let b = Matrix::from_fn(5, 2, |i, j| (i + j) as f64);
        let (c, _) = tri_product(Triangle::Lower, &id, &b).unwrap();
        assert_eq!(c, b);
    }
}

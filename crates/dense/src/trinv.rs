//! Triangular matrix inversion.
//!
//! The paper's key primitive (Section V) is the inversion of lower-triangular
//! matrices, used for the diagonal blocks of `L` in the iterative TRSM.  The
//! sequential kernel implements the recursive scheme the paper cites
//! (Borodin & Munro / Balle–Hansen–Higham): split
//!
//! ```text
//! L = [ L11   0  ]        L⁻¹ = [      L11⁻¹          0    ]
//!     [ L21  L22 ]              [ -L22⁻¹ L21 L11⁻¹  L22⁻¹  ]
//! ```
//!
//! recurse on the two diagonal blocks, and form the off-diagonal block with
//! two products — which run on the packed microkernel and carry almost all
//! of the flops.  Both have a triangular factor (`L22⁻¹` on the left of the
//! first, `L11⁻¹` on the right of the second), so both are masked
//! [`gemm_views`] products: only the triangle is multiplied, which halves
//! the arithmetic and means the other triangle of the view — which the
//! in-place recursion never owns — is never read into a result.  The
//! recursion works **in place** on views ([`tri_invert_in_place`]): the
//! off-diagonal block is overwritten where it lives, with a single
//! thread-local scratch panel for the intermediate product.  [`tri_invert`]
//! is the allocating wrapper.  The recursion stops at [`RECURSION_CUTOFF`]
//! and finishes with direct in-place substitution.  The reported
//! [`FlopCount`] is [`tri_inv_flops`], the count of that recursion: the
//! direct base cases and the triangles the masked products multiply.

use crate::error::DenseError;
use crate::flops::{tri_inv_flops, FlopCount};
use crate::gemm::gemm_views;
use crate::matrix::{MatMut, Matrix};
use crate::microkernel::TriMask;
use crate::pack::with_scratch;
use crate::trsm::{Triangle, PIVOT_TOL};
use crate::Result;

/// Dimension at or below which the recursion stops and inverts directly —
/// the one cut-off of every inversion in the workspace (the blocked TRSM's
/// diagonal blocks and `catrsm`'s local inversions alike), so local flop
/// accounting never depends on the caller.
pub const RECURSION_CUTOFF: usize = 16;

/// Invert a triangular matrix, returning `(inverse, flops)`.
///
/// For `Triangle::Lower` the strictly-upper part of `a` is ignored (assumed
/// zero); symmetrically for `Triangle::Upper`.
pub fn tri_invert(tri: Triangle, a: &Matrix) -> Result<(Matrix, FlopCount)> {
    if !a.is_square() {
        return Err(DenseError::NotSquare {
            op: "tri_invert",
            dims: a.dims(),
        });
    }
    let mut out = match tri {
        Triangle::Lower => a.lower_triangular_part(),
        Triangle::Upper => a.upper_triangular_part(),
    };
    let n = out.rows();
    let flops = tri_invert_in_place(tri, &mut out.view_mut(0, 0, n, n))?;
    Ok((out, flops))
}

/// Invert a triangular matrix **in place** on a borrowed block.
///
/// This is the zero-copy entry point the distributed algorithms use to
/// invert diagonal blocks where they live (e.g. `catrsm`'s block-diagonal
/// inverter).  The strictly-opposite triangle of the view is ignored —
/// whatever it holds, NaN included, reaches no result — and left untouched.
/// Returns the flop count, [`tri_inv_flops`] of the dimension.
pub fn tri_invert_in_place(tri: Triangle, a: &mut MatMut<'_>) -> Result<FlopCount> {
    let (rows, cols) = a.dims();
    if rows != cols {
        return Err(DenseError::NotSquare {
            op: "tri_invert",
            dims: (rows, cols),
        });
    }
    for i in 0..rows {
        if a.at(i, i).abs() < PIVOT_TOL {
            return Err(DenseError::SingularPivot {
                index: i,
                value: a.at(i, i),
            });
        }
    }
    match tri {
        Triangle::Lower => invert_lower_in_place(a.reborrow())?,
        Triangle::Upper => invert_upper_in_place(a.reborrow())?,
    }
    Ok(tri_inv_flops(rows))
}

fn invert_lower_in_place(l: MatMut<'_>) -> Result<()> {
    let n = l.rows();
    if n <= RECURSION_CUTOFF {
        invert_lower_base(l);
        return Ok(());
    }
    let h = n / 2;
    let (mut top, mut bottom) = l.split_rows_at_mut(h);
    invert_lower_in_place(top.submat_mut(0, 0, h, h))?;
    invert_lower_in_place(bottom.submat_mut(0, h, n - h, n - h))?;

    // inv21 = -inv22 · L21 · inv11, with one scratch panel for the
    // intermediate product (both factors live in `bottom` / `top`).
    with_scratch((n - h) * h, |tmp| -> Result<()> {
        let mut t = MatMut::from_slice(tmp, n - h, h);
        gemm_views(
            1.0,
            bottom.rb().subview(0, h, n - h, n - h),
            false,
            bottom.rb().subview(0, 0, n - h, h),
            false,
            0.0,
            &mut t,
            Some(TriMask::a(Triangle::Lower)),
        )?;
        let mut l21 = bottom.submat_mut(0, 0, n - h, h);
        gemm_views(
            -1.0,
            t.rb(),
            false,
            top.rb().subview(0, 0, h, h),
            false,
            0.0,
            &mut l21,
            Some(TriMask::b(Triangle::Lower)),
        )?;
        Ok(())
    })
}

fn invert_upper_in_place(u: MatMut<'_>) -> Result<()> {
    let n = u.rows();
    if n <= RECURSION_CUTOFF {
        invert_upper_base(u);
        return Ok(());
    }
    let h = n / 2;
    let (mut top, mut bottom) = u.split_rows_at_mut(h);
    invert_upper_in_place(top.submat_mut(0, 0, h, h))?;
    invert_upper_in_place(bottom.submat_mut(0, h, n - h, n - h))?;

    // inv12 = -inv11 · U12 · inv22.
    with_scratch(h * (n - h), |tmp| -> Result<()> {
        let mut t = MatMut::from_slice(tmp, h, n - h);
        gemm_views(
            1.0,
            top.rb().subview(0, 0, h, h),
            false,
            top.rb().subview(0, h, h, n - h),
            false,
            0.0,
            &mut t,
            Some(TriMask::a(Triangle::Upper)),
        )?;
        let mut u12 = top.submat_mut(0, h, h, n - h);
        gemm_views(
            -1.0,
            t.rb(),
            false,
            bottom.rb().subview(0, h, n - h, n - h),
            false,
            0.0,
            &mut u12,
            Some(TriMask::b(Triangle::Upper)),
        )?;
        Ok(())
    })
}

/// Direct in-place inversion of a lower-triangular block: columns from last
/// to first, each updated with the already-inverted trailing block
/// (LAPACK's `trti2` scheme).
fn invert_lower_base(mut l: MatMut<'_>) {
    let n = l.rows();
    for j in (0..n).rev() {
        let ajj = 1.0 / l.at(j, j);
        *l.at_mut(j, j) = ajj;
        // x = L[j+1.., j] (original); y = L22⁻¹ · x computed bottom-up so
        // every read of x happens before its overwrite.
        for i in ((j + 1)..n).rev() {
            let mut acc = 0.0;
            for t in (j + 1)..=i {
                acc += l.at(i, t) * l.at(t, j);
            }
            *l.at_mut(i, j) = -acc * ajj;
        }
    }
}

/// Direct in-place inversion of an upper-triangular block: columns from
/// first to last, mirroring [`invert_lower_base`].
fn invert_upper_base(mut u: MatMut<'_>) {
    let n = u.rows();
    for j in 0..n {
        let ajj = 1.0 / u.at(j, j);
        // x = U[0..j, j] (original); y = U11⁻¹ · x computed top-down so
        // every read of x happens before its overwrite.
        for i in 0..j {
            let mut acc = 0.0;
            for t in i..j {
                acc += u.at(i, t) * u.at(t, j);
            }
            *u.at_mut(i, j) = -acc * ajj;
        }
        *u.at_mut(j, j) = ajj;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;
    use crate::norms;
    use crate::reference;

    fn lower(n: usize, seed: u64) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if j < i {
                (((i * 31 + j * 17 + seed as usize) % 13) as f64 - 6.0) / 13.0
            } else if j == i {
                2.0 + ((i + seed as usize) % 4) as f64 * 0.5
            } else {
                0.0
            }
        })
    }

    fn check_inverse(l: &Matrix, inv: &Matrix, tol: f64) {
        let prod = matmul(l, inv);
        let id = Matrix::identity(l.rows());
        assert!(
            norms::max_norm(&prod.sub(&id).unwrap()) < tol,
            "L * Linv should be the identity"
        );
    }

    #[test]
    fn direct_inverse_small() {
        let l = lower(6, 1);
        let (inv, _) = tri_invert(Triangle::Lower, &l).unwrap();
        check_inverse(&l, &inv, 1e-12);
        assert!(inv.is_lower_triangular());
    }

    #[test]
    fn base_case_matches_reference_direct_inversion() {
        // At or below the cut-off the whole inversion is one base case.
        for n in [1usize, 2, 5, 11, RECURSION_CUTOFF] {
            let l = lower(n, n as u64);
            let (fast, f1) = tri_invert(Triangle::Lower, &l).unwrap();
            let (slow, f2) = reference::invert_lower_direct(&l);
            assert!(fast.max_abs_diff(&slow).unwrap() < 1e-10, "n={n}");
            assert_eq!(f1, f2, "flop accounting must match the reference");
        }
    }

    #[test]
    fn recursive_inverse_medium() {
        let l = lower(64, 3);
        let (inv, flops) = tri_invert(Triangle::Lower, &l).unwrap();
        check_inverse(&l, &inv, 1e-9);
        assert!(flops.get() > 0);
    }

    #[test]
    fn recursive_inverse_odd_size() {
        let l = lower(37, 7);
        let (inv, _) = tri_invert(Triangle::Lower, &l).unwrap();
        check_inverse(&l, &inv, 1e-9);
    }

    #[test]
    fn upper_inverse() {
        let u = lower(20, 5).transpose();
        let (inv, _) = tri_invert(Triangle::Upper, &u).unwrap();
        let prod = matmul(&u, &inv);
        assert!(norms::max_norm(&prod.sub(&Matrix::identity(20)).unwrap()) < 1e-10);
        assert!(inv.is_upper_triangular());
    }

    #[test]
    fn upper_flops_match_lower_flops() {
        // The recursion splits identically for both triangles.
        for n in [9usize, 24, 37] {
            let l = lower(n, 2);
            let u = l.transpose();
            let (_, fl) = tri_invert(Triangle::Lower, &l).unwrap();
            let (_, fu) = tri_invert(Triangle::Upper, &u).unwrap();
            assert_eq!(fl, tri_inv_flops(n), "n={n}");
            assert_eq!(fu, tri_inv_flops(n), "n={n}");
        }
    }

    #[test]
    fn in_place_inversion_of_a_diagonal_block() {
        // Invert an interior diagonal block of a bigger matrix in place and
        // leave everything else untouched.
        let n = 24;
        let mut big = Matrix::from_fn(40, 40, |i, j| (i * 40 + j) as f64);
        let l = lower(n, 4);
        big.set_block(8, 8, &l);
        let flops = tri_invert_in_place(Triangle::Lower, &mut big.view_mut(8, 8, n, n)).unwrap();
        assert!(flops.get() > 0);
        let (expect, _) = tri_invert(Triangle::Lower, &l).unwrap();
        // The block itself: lower triangle holds the inverse, upper triangle
        // of the *view* is untouched garbage from `big`.
        let got = big.block(8, 8, n, n).lower_triangular_part();
        assert!(got.max_abs_diff(&expect).unwrap() < 1e-10);
        // Outside the block: untouched.
        assert_eq!(big[(0, 0)], 0.0);
        assert_eq!(big[(39, 39)], (39 * 40 + 39) as f64);
        assert_eq!(big[(7, 8)], (7 * 40 + 8) as f64);
    }

    #[test]
    fn block_size_does_not_change_result() {
        // Recursing down to the cut-off agrees with inverting the whole
        // matrix directly, as one block.
        let l = lower(48, 11);
        let (recursive, _) = tri_invert(Triangle::Lower, &l).unwrap();
        let (direct, _) = reference::invert_lower_direct(&l);
        assert!(recursive.max_abs_diff(&direct).unwrap() < 1e-9);
    }

    #[test]
    fn identity_inverts_to_identity() {
        let id = Matrix::identity(10);
        let (inv, _) = tri_invert(Triangle::Lower, &id).unwrap();
        assert!(inv.max_abs_diff(&id).unwrap() < 1e-15);
    }

    #[test]
    fn singular_matrix_rejected() {
        let mut l = lower(5, 2);
        l[(2, 2)] = 0.0;
        match tri_invert(Triangle::Lower, &l) {
            Err(DenseError::SingularPivot { index, .. }) => assert_eq!(index, 2),
            other => panic!("expected SingularPivot, got {other:?}"),
        }
    }

    #[test]
    fn rectangular_rejected() {
        let m = Matrix::zeros(3, 4);
        assert!(tri_invert(Triangle::Lower, &m).is_err());
    }

    #[test]
    fn inverse_of_inverse_is_original() {
        let l = lower(32, 9);
        let (inv, _) = tri_invert(Triangle::Lower, &l).unwrap();
        let (invinv, _) = tri_invert(Triangle::Lower, &inv).unwrap();
        assert!(norms::rel_diff(&invinv, &l) < 1e-8);
    }
}

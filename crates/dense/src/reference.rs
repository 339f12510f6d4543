//! Straightforward reference implementations of every kernel in this crate.
//!
//! These are the seed's original unblocked loops, kept verbatim as the
//! ground truth the packed/blocked kernels are validated against (see the
//! crate's property tests) and as the baselines the `kernels` bench compares
//! the fast paths to.  They are **not** used on any hot path.

use crate::flops::{gemm_flops, masked_gemm_flops, tri_inv_flops, trsm_flops, FlopCount};
use crate::matrix::Matrix;
use crate::microkernel::TriMask;
use crate::trsm::{Diag, Side, Triangle};

/// Naive i-k-j triple loop `C ← alpha · A · B + beta · C` with no blocking or
/// packing — the baseline the packed GEMM is benchmarked against.
pub fn gemm_naive_ikj(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) -> FlopCount {
    let (m, p) = a.dims();
    let n = b.cols();
    assert_eq!(p, b.rows(), "gemm_naive_ikj: inner dims must agree");
    assert_eq!(c.dims(), (m, n), "gemm_naive_ikj: output dims must agree");
    if beta != 1.0 {
        if beta == 0.0 {
            c.fill_zero();
        } else {
            c.scale_in_place(beta);
        }
    }
    if alpha == 0.0 || m == 0 || n == 0 || p == 0 {
        return FlopCount::ZERO;
    }
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let c_data = c.as_mut_slice();
    for i in 0..m {
        let a_row = &a_data[i * p..(i + 1) * p];
        let c_row = &mut c_data[i * n..(i + 1) * n];
        for (k, &aik) in a_row.iter().enumerate() {
            let scaled = alpha * aik;
            if scaled == 0.0 {
                continue;
            }
            let b_row = &b_data[k * n..(k + 1) * n];
            for j in 0..n {
                c_row[j] += scaled * b_row[j];
            }
        }
    }
    gemm_flops(m, p, n)
}

/// Unblocked in-place triangular solve by plain forward/backward
/// substitution (the seed's `trsm_in_place`).  Assumes the caller has
/// validated dimensions and pivots, as [`crate::trsm::trsm_in_place_opts`]
/// does.
pub fn trsm_unblocked(
    side: Side,
    tri: Triangle,
    diag: Diag,
    a: &Matrix,
    b: &mut Matrix,
) -> FlopCount {
    let n = a.rows();
    let k = match side {
        Side::Left => b.cols(),
        Side::Right => b.rows(),
    };
    match (side, tri) {
        (Side::Left, Triangle::Lower) => left_lower(diag, a, b),
        (Side::Left, Triangle::Upper) => left_upper(diag, a, b),
        (Side::Right, Triangle::Lower) => right_lower(diag, a, b),
        (Side::Right, Triangle::Upper) => right_upper(diag, a, b),
    }
    trsm_flops(n, k)
}

fn left_lower(diag: Diag, a: &Matrix, b: &mut Matrix) {
    let n = a.rows();
    let k = b.cols();
    for i in 0..n {
        for j in 0..i {
            let aij = a[(i, j)];
            if aij == 0.0 {
                continue;
            }
            let (head, tail) = b.as_mut_slice().split_at_mut(i * k);
            let row_j = &head[j * k..(j + 1) * k];
            let row_i = &mut tail[..k];
            for c in 0..k {
                row_i[c] -= aij * row_j[c];
            }
        }
        if diag == Diag::NonUnit {
            let inv = 1.0 / a[(i, i)];
            for c in 0..k {
                b[(i, c)] *= inv;
            }
        }
    }
}

fn left_upper(diag: Diag, a: &Matrix, b: &mut Matrix) {
    let n = a.rows();
    let k = b.cols();
    for i in (0..n).rev() {
        for j in (i + 1)..n {
            let aij = a[(i, j)];
            if aij == 0.0 {
                continue;
            }
            for c in 0..k {
                let v = b[(j, c)];
                b[(i, c)] -= aij * v;
            }
        }
        if diag == Diag::NonUnit {
            let inv = 1.0 / a[(i, i)];
            for c in 0..k {
                b[(i, c)] *= inv;
            }
        }
    }
}

fn right_lower(diag: Diag, a: &Matrix, b: &mut Matrix) {
    let n = a.rows();
    let m = b.rows();
    for j in (0..n).rev() {
        for i in (j + 1)..n {
            let lij = a[(i, j)];
            if lij == 0.0 {
                continue;
            }
            for r in 0..m {
                let v = b[(r, i)];
                b[(r, j)] -= v * lij;
            }
        }
        if diag == Diag::NonUnit {
            let inv = 1.0 / a[(j, j)];
            for r in 0..m {
                b[(r, j)] *= inv;
            }
        }
    }
}

fn right_upper(diag: Diag, a: &Matrix, b: &mut Matrix) {
    let n = a.rows();
    let m = b.rows();
    for j in 0..n {
        for i in 0..j {
            let uij = a[(i, j)];
            if uij == 0.0 {
                continue;
            }
            for r in 0..m {
                let v = b[(r, i)];
                b[(r, j)] -= v * uij;
            }
        }
        if diag == Diag::NonUnit {
            let inv = 1.0 / a[(j, j)];
            for r in 0..m {
                b[(r, j)] *= inv;
            }
        }
    }
}

/// Unblocked triangular × dense product (the seed's `trmm`).
pub fn trmm_unblocked(tri: Triangle, a: &Matrix, b: &Matrix) -> (Matrix, FlopCount) {
    let n = a.rows();
    let k = b.cols();
    let mut c = Matrix::zeros(n, k);
    match tri {
        Triangle::Lower => {
            for i in 0..n {
                for j in 0..=i {
                    let aij = a[(i, j)];
                    if aij == 0.0 {
                        continue;
                    }
                    for col in 0..k {
                        c[(i, col)] += aij * b[(j, col)];
                    }
                }
            }
        }
        Triangle::Upper => {
            for i in 0..n {
                for j in i..n {
                    let aij = a[(i, j)];
                    if aij == 0.0 {
                        continue;
                    }
                    for col in 0..k {
                        c[(i, col)] += aij * b[(j, col)];
                    }
                }
            }
        }
    }
    (c, masked_gemm_flops(n, n, k, Some(TriMask::a(tri))))
}

/// Direct column-by-column inversion of a lower-triangular matrix by forward
/// substitution on the identity (the seed's base-case inverter).
pub fn invert_lower_direct(l: &Matrix) -> (Matrix, FlopCount) {
    let n = l.rows();
    let mut inv = Matrix::zeros(n, n);
    for j in 0..n {
        inv[(j, j)] = 1.0 / l[(j, j)];
        for i in (j + 1)..n {
            let mut acc = 0.0;
            for t in j..i {
                acc += l[(i, t)] * inv[(t, j)];
            }
            inv[(i, j)] = -acc / l[(i, i)];
        }
    }
    (inv, tri_inv_flops(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;
    use crate::norms;

    #[test]
    fn naive_gemm_matches_matmul() {
        let a = Matrix::from_fn(13, 9, |i, j| (i * 9 + j) as f64 / 10.0);
        let b = Matrix::from_fn(9, 7, |i, j| (i as f64) - 2.0 * (j as f64));
        let mut c = Matrix::zeros(13, 7);
        let flops = gemm_naive_ikj(1.0, &a, &b, 0.0, &mut c);
        assert!(c.max_abs_diff(&matmul(&a, &b)).unwrap() < 1e-12);
        assert_eq!(flops, crate::flops::gemm_flops(13, 9, 7));
    }

    #[test]
    fn direct_inverse_inverts() {
        let l = Matrix::from_fn(9, 9, |i, j| {
            if j < i {
                0.3
            } else if j == i {
                2.0
            } else {
                0.0
            }
        });
        let (inv, _) = invert_lower_direct(&l);
        let prod = matmul(&l, &inv);
        assert!(norms::max_norm(&prod.sub(&Matrix::identity(9)).unwrap()) < 1e-12);
    }
}

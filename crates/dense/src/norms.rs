//! Matrix norms and residual helpers used by tests and experiments.

use crate::matrix::Matrix;

/// Frobenius norm `‖A‖_F`.
pub fn frobenius(a: &Matrix) -> f64 {
    a.as_slice().iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Max (Chebyshev) norm `max_{ij} |a_ij|`.
pub fn max_norm(a: &Matrix) -> f64 {
    a.as_slice().iter().map(|v| v.abs()).fold(0.0, f64::max)
}

/// One norm (maximum absolute column sum).
pub fn one_norm(a: &Matrix) -> f64 {
    (0..a.cols())
        .map(|j| (0..a.rows()).map(|i| a[(i, j)].abs()).sum::<f64>())
        .fold(0.0, f64::max)
}

/// Relative difference `‖A - B‖_F / max(‖B‖_F, 1)`.
///
/// Returns `f64::INFINITY` when the dimensions do not match.
pub fn rel_diff(a: &Matrix, b: &Matrix) -> f64 {
    if a.dims() != b.dims() {
        return f64::INFINITY;
    }
    let diff = a.sub(b).expect("dims checked");
    frobenius(&diff) / frobenius(b).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frobenius_known_value() {
        let a = Matrix::from_row_major(2, 2, &[3.0, 0.0, 0.0, 4.0]).unwrap();
        assert!((frobenius(&a) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn max_and_inf_and_one_norms() {
        let a = Matrix::from_row_major(2, 3, &[1.0, -2.0, 3.0, -4.0, 5.0, -6.0]).unwrap();
        assert_eq!(max_norm(&a), 6.0);
        assert_eq!(one_norm(&a), 9.0);
    }

    #[test]
    fn rel_diff_zero_for_identical() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * j) as f64);
        assert_eq!(rel_diff(&a, &a), 0.0);
        let b = Matrix::zeros(3, 3);
        assert!(rel_diff(&a, &b).is_infinite());
    }

    #[test]
    fn norms_of_empty_matrix() {
        let e = Matrix::zeros(0, 0);
        assert_eq!(frobenius(&e), 0.0);
        assert_eq!(max_norm(&e), 0.0);
    }
}

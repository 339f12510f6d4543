//! Error type shared by all kernels in the crate.

use std::fmt;

/// Errors returned by dense kernels.
///
/// Kernels validate their inputs (dimension compatibility, square/triangular
/// requirements, numerical breakdown such as a zero pivot) and return a
/// structured error instead of panicking, so that the distributed algorithms
/// built on top can surface configuration problems to the caller.
#[derive(Debug, Clone, PartialEq)]
pub enum DenseError {
    /// Two operands have incompatible dimensions for the requested operation.
    DimensionMismatch {
        /// Short description of the operation that failed.
        op: &'static str,
        /// Dimensions of the left-hand operand (rows, cols).
        lhs: (usize, usize),
        /// Dimensions of the right-hand operand (rows, cols).
        rhs: (usize, usize),
    },
    /// The operation requires a square matrix but received a rectangular one.
    NotSquare {
        /// Short description of the operation that failed.
        op: &'static str,
        /// Dimensions of the offending matrix (rows, cols).
        dims: (usize, usize),
    },
    /// A zero (or numerically negligible) pivot was encountered.
    SingularPivot {
        /// Index of the pivot that broke down.
        index: usize,
        /// The value of the offending pivot.
        value: f64,
    },
    /// Cholesky factorization encountered a non-positive diagonal entry,
    /// i.e. the input matrix is not (numerically) positive definite.
    NotPositiveDefinite {
        /// Index of the diagonal entry that failed.
        index: usize,
        /// The value that should have been positive.
        value: f64,
    },
    /// A pre-solve health scan (enabled with
    /// [`SolveOpts::validate_finite`](crate::SolveOpts::validate_finite))
    /// found a NaN or
    /// infinite entry in the triangular operand or the right-hand side.
    NonFiniteEntry {
        /// Which operand held the entry (`"matrix"` or `"rhs"`).
        operand: &'static str,
        /// The offending `(row, col)` pair.
        index: (usize, usize),
        /// The non-finite value.
        value: f64,
    },
    /// A parameter is out of its valid range (e.g. a block size of zero).
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the constraint that was violated.
        reason: String,
    },
    /// An index was outside the matrix bounds.
    OutOfBounds {
        /// Short description of the access that failed.
        op: &'static str,
        /// The requested index (row, col).
        index: (usize, usize),
        /// The matrix dimensions (rows, cols).
        dims: (usize, usize),
    },
}

impl fmt::Display for DenseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DenseError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "{op}: dimension mismatch between {}x{} and {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            DenseError::NotSquare { op, dims } => {
                write!(
                    f,
                    "{op}: expected a square matrix, got {}x{}",
                    dims.0, dims.1
                )
            }
            DenseError::SingularPivot { index, value } => {
                write!(f, "singular pivot at index {index}: {value}")
            }
            DenseError::NotPositiveDefinite { index, value } => write!(
                f,
                "matrix is not positive definite: diagonal entry {index} would be sqrt({value})"
            ),
            DenseError::NonFiniteEntry {
                operand,
                index,
                value,
            } => write!(
                f,
                "non-finite {operand} entry {value} at ({}, {})",
                index.0, index.1
            ),
            DenseError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            DenseError::OutOfBounds { op, index, dims } => write!(
                f,
                "{op}: index ({}, {}) out of bounds for {}x{} matrix",
                index.0, index.1, dims.0, dims.1
            ),
        }
    }
}

impl std::error::Error for DenseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let e = DenseError::DimensionMismatch {
            op: "gemm",
            lhs: (3, 4),
            rhs: (5, 6),
        };
        let s = e.to_string();
        assert!(s.contains("gemm"));
        assert!(s.contains("3x4"));
        assert!(s.contains("5x6"));
    }

    #[test]
    fn display_not_square() {
        let e = DenseError::NotSquare {
            op: "tri_invert",
            dims: (3, 4),
        };
        assert!(e.to_string().contains("square"));
    }

    #[test]
    fn display_singular_pivot() {
        let e = DenseError::SingularPivot {
            index: 7,
            value: 0.0,
        };
        assert!(e.to_string().contains("7"));
    }

    #[test]
    fn display_not_positive_definite() {
        let e = DenseError::NotPositiveDefinite {
            index: 2,
            value: -1.0,
        };
        assert!(e.to_string().contains("positive definite"));
    }

    #[test]
    fn display_non_finite_entry() {
        let e = DenseError::NonFiniteEntry {
            operand: "rhs",
            index: (1, 2),
            value: f64::INFINITY,
        };
        assert!(e.to_string().contains("non-finite"));
        assert!(e.to_string().contains("rhs"));
    }

    #[test]
    fn display_invalid_parameter() {
        let e = DenseError::InvalidParameter {
            name: "block",
            reason: "must be nonzero".to_string(),
        };
        assert!(e.to_string().contains("block"));
        assert!(e.to_string().contains("nonzero"));
    }

    #[test]
    fn display_out_of_bounds() {
        let e = DenseError::OutOfBounds {
            op: "get",
            index: (9, 9),
            dims: (3, 3),
        };
        assert!(e.to_string().contains("out of bounds"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        let e = DenseError::SingularPivot {
            index: 0,
            value: 0.0,
        };
        assert_err(&e);
    }
}

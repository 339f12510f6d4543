//! Error type shared by the sparse triangular kernels.

use std::fmt;

/// Errors returned by sparse triangular storage and solves.
///
/// Construction validates the structure eagerly (indices in bounds, entries
/// on the declared triangle, sorted rows without duplicates, invertible
/// diagonal), so the solve executors can run validation-free inner loops;
/// anything they still detect (right-hand-side shape) is reported here too.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// An entry's indices fall outside the `n × n` matrix.
    EntryOutOfBounds {
        /// The offending `(row, col)` pair.
        index: (usize, usize),
        /// The matrix dimension `n`.
        n: usize,
    },
    /// An entry lies strictly on the wrong side of the diagonal for the
    /// declared [`dense::Triangle`].
    WrongTriangle {
        /// The offending `(row, col)` pair.
        index: (usize, usize),
    },
    /// The same `(row, col)` position was given more than once.
    DuplicateEntry {
        /// The duplicated `(row, col)` pair.
        index: (usize, usize),
    },
    /// A row's column indices are not strictly increasing (CSR input only;
    /// triplet input is sorted internally).
    UnsortedRow {
        /// The row whose indices are out of order.
        row: usize,
    },
    /// The raw CSR arrays are inconsistent (row pointer not monotone, or its
    /// last entry disagrees with the index/value lengths).
    MalformedCsr {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// A stored entry is NaN or infinite; solving with it would silently
    /// poison the whole solution, so construction rejects it eagerly.
    NonFiniteEntry {
        /// The offending `(row, col)` pair.
        index: (usize, usize),
        /// The non-finite value.
        value: f64,
    },
    /// A `Diag::NonUnit` matrix is missing a diagonal entry, or stores a
    /// numerically negligible one, so the system is singular.
    SingularDiagonal {
        /// The row whose diagonal broke down.
        row: usize,
        /// The stored diagonal value (`0.0` when absent).
        value: f64,
    },
    /// The right-hand side's shape does not match the matrix.
    DimensionMismatch {
        /// Short description of the operation that failed.
        op: &'static str,
        /// The matrix dimension `n`.
        n: usize,
        /// Dimensions of the right-hand side (rows, cols).
        rhs: (usize, usize),
    },
    /// An error surfaced by the dense-fallback path.
    Dense(dense::DenseError),
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::EntryOutOfBounds { index, n } => write!(
                f,
                "entry ({}, {}) out of bounds for a {n}x{n} matrix",
                index.0, index.1
            ),
            SparseError::WrongTriangle { index } => write!(
                f,
                "entry ({}, {}) lies on the wrong side of the diagonal for the declared triangle",
                index.0, index.1
            ),
            SparseError::DuplicateEntry { index } => {
                write!(f, "duplicate entry at ({}, {})", index.0, index.1)
            }
            SparseError::UnsortedRow { row } => {
                write!(f, "row {row}: column indices are not strictly increasing")
            }
            SparseError::MalformedCsr { reason } => write!(f, "malformed CSR input: {reason}"),
            SparseError::NonFiniteEntry { index, value } => {
                write!(f, "non-finite entry {value} at ({}, {})", index.0, index.1)
            }
            SparseError::SingularDiagonal { row, value } => {
                write!(f, "singular diagonal at row {row}: {value}")
            }
            SparseError::DimensionMismatch { op, n, rhs } => write!(
                f,
                "{op}: right-hand side {}x{} does not match matrix dimension {n}",
                rhs.0, rhs.1
            ),
            SparseError::Dense(e) => write!(f, "dense fallback: {e}"),
        }
    }
}

impl std::error::Error for SparseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SparseError::Dense(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dense::DenseError> for SparseError {
    fn from(e: dense::DenseError) -> Self {
        SparseError::Dense(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(SparseError, &str)> = vec![
            (
                SparseError::EntryOutOfBounds {
                    index: (9, 1),
                    n: 4,
                },
                "out of bounds",
            ),
            (SparseError::WrongTriangle { index: (1, 3) }, "wrong side"),
            (SparseError::DuplicateEntry { index: (2, 1) }, "duplicate"),
            (SparseError::UnsortedRow { row: 5 }, "not strictly"),
            (
                SparseError::MalformedCsr {
                    reason: "row_ptr shrinks".to_string(),
                },
                "row_ptr shrinks",
            ),
            (
                SparseError::NonFiniteEntry {
                    index: (2, 1),
                    value: f64::NAN,
                },
                "non-finite",
            ),
            (
                SparseError::SingularDiagonal { row: 3, value: 0.0 },
                "singular",
            ),
            (
                SparseError::DimensionMismatch {
                    op: "solve",
                    n: 8,
                    rhs: (7, 1),
                },
                "does not match",
            ),
        ];
        for (e, needle) in cases {
            assert!(
                e.to_string().contains(needle),
                "{e:?} display missing {needle:?}"
            );
        }
    }

    #[test]
    fn dense_errors_convert_and_chain() {
        let inner = dense::DenseError::NotSquare {
            op: "trsv",
            dims: (3, 4),
        };
        let e: SparseError = inner.clone().into();
        assert!(e.to_string().contains("dense fallback"));
        let src = std::error::Error::source(&e).expect("source");
        assert_eq!(src.to_string(), inner.to_string());
    }
}

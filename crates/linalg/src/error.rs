//! Error type shared by all linear-algebra routines.

use std::fmt;

/// Result alias using [`LinAlgError`].
pub(crate) type Result<T> = std::result::Result<T, LinAlgError>;

/// Errors produced by the linear-algebra substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinAlgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Shape (or leading dimension) the operation expected.
        expected: (usize, usize),
        /// Shape actually supplied.
        got: (usize, usize),
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// An iterative routine failed to converge within its sweep budget.
    NoConvergence {
        /// Name of the routine.
        op: &'static str,
        /// Number of iterations/sweeps performed before giving up.
        iterations: usize,
    },
    /// The input matrix is empty where a non-empty one is required.
    EmptyInput {
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// Input contains NaN or infinite values.
    NotFinite {
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// A parameter is out of its valid range.
    InvalidParameter {
        /// Name of the operation that failed.
        op: &'static str,
        /// Human-readable description of the violated constraint.
        message: &'static str,
    },
}

impl fmt::Display for LinAlgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ShapeMismatch { expected, got, op } => write!(
                f,
                "{op}: shape mismatch (expected {}x{}, got {}x{})",
                expected.0, expected.1, got.0, got.1
            ),
            Self::NoConvergence { op, iterations } => {
                write!(f, "{op}: did not converge after {iterations} iterations")
            }
            Self::EmptyInput { op } => write!(f, "{op}: empty input"),
            Self::NotFinite { op } => write!(f, "{op}: input contains NaN/inf"),
            Self::InvalidParameter { op, message } => write!(f, "{op}: {message}"),
        }
    }
}

impl std::error::Error for LinAlgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = LinAlgError::ShapeMismatch {
            expected: (2, 3),
            got: (4, 5),
            op: "matmul",
        };
        assert_eq!(
            e.to_string(),
            "matmul: shape mismatch (expected 2x3, got 4x5)"
        );
        let e = LinAlgError::NoConvergence {
            op: "jacobi",
            iterations: 30,
        };
        assert!(e.to_string().contains("did not converge after 30"));
        let e = LinAlgError::EmptyInput { op: "svd" };
        assert!(e.to_string().contains("empty input"));
        let e = LinAlgError::NotFinite { op: "qr" };
        assert!(e.to_string().contains("NaN/inf"));
        let e = LinAlgError::InvalidParameter {
            op: "svd",
            message: "k must be > 0",
        };
        assert!(e.to_string().contains("k must be > 0"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&LinAlgError::EmptyInput { op: "x" });
    }
}

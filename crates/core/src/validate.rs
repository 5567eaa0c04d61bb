//! Input hygiene for serving layers.
//!
//! A streaming detector trusts its input: a single `NaN` folded into the
//! sketch propagates through the Gram matrix and poisons every subsequent
//! score, and a wrong-dimension row panics the worker that owns the
//! detector. Serving layers therefore validate every row *before* it
//! reaches a detector, quarantining violations instead of processing them.

use std::fmt;

/// Why an input row was rejected before reaching a detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputViolation {
    /// The row contains a `NaN` or `±∞` component.
    NonFinite {
        /// Index of the first non-finite component.
        index: usize,
    },
    /// The row's length does not match the detector's dimensionality.
    WrongDim {
        /// The expected dimensionality.
        expected: usize,
        /// The row's actual length.
        got: usize,
    },
}

impl InputViolation {
    /// Stable identifier of the violation kind, used as the obs event
    /// `reason` and in quarantine accounting.
    pub fn label(&self) -> &'static str {
        match self {
            InputViolation::NonFinite { .. } => "non_finite",
            InputViolation::WrongDim { .. } => "wrong_dim",
        }
    }
}

impl fmt::Display for InputViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputViolation::NonFinite { index } => {
                write!(f, "non-finite component at index {index}")
            }
            InputViolation::WrongDim { expected, got } => {
                write!(f, "row has dimension {got}, expected {expected}")
            }
        }
    }
}

/// Validates one row for a detector of dimensionality `expected_dim`:
/// the length must match and every component must be finite.
///
/// Dimension is checked first (a wrong-length row is wrong regardless of
/// its contents), then components in index order, so the reported
/// violation is deterministic for a given row.
///
/// ```
/// use sketchad_core::{validate_point, InputViolation};
///
/// assert!(validate_point(&[1.0, 2.0], 2).is_ok());
/// assert_eq!(
///     validate_point(&[1.0], 2),
///     Err(InputViolation::WrongDim { expected: 2, got: 1 })
/// );
/// assert_eq!(
///     validate_point(&[1.0, f64::NAN], 2),
///     Err(InputViolation::NonFinite { index: 1 })
/// );
/// ```
pub fn validate_point(y: &[f64], expected_dim: usize) -> Result<(), InputViolation> {
    if y.len() != expected_dim {
        return Err(InputViolation::WrongDim {
            expected: expected_dim,
            got: y.len(),
        });
    }
    match y.iter().position(|v| !v.is_finite()) {
        Some(index) => Err(InputViolation::NonFinite { index }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_correct_dim_passes() {
        assert!(validate_point(&[0.0, -1.5, 1e300], 3).is_ok());
        assert!(validate_point(&[], 0).is_ok());
    }

    #[test]
    fn dimension_checked_before_contents() {
        // A wrong-length row with a NaN reports WrongDim, deterministically.
        assert_eq!(
            validate_point(&[f64::NAN], 2),
            Err(InputViolation::WrongDim {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn first_non_finite_index_reported() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let row = [1.0, bad, bad];
            assert_eq!(
                validate_point(&row, 3),
                Err(InputViolation::NonFinite { index: 1 })
            );
        }
    }

    #[test]
    fn labels_are_stable() {
        // Pinned: these strings appear in obs events and stats JSON.
        assert_eq!(InputViolation::NonFinite { index: 0 }.label(), "non_finite");
        assert_eq!(
            InputViolation::WrongDim {
                expected: 1,
                got: 2
            }
            .label(),
            "wrong_dim"
        );
    }
}

//! Theoretical error bounds and empirical sketch-quality measurement.
//!
//! These helpers parameterize the experiments that compare measured
//! covariance error against the deterministic frequent-directions guarantee
//! (figure F6 in DESIGN.md) and size sketches for a target accuracy.

use sketchad_linalg::power::{gram_diff_spectral_norm, spectral_norm, DEFAULT_POWER_ITERS};
use sketchad_linalg::Matrix;

/// The basic frequent-directions guarantee:
/// `‖AᵀA − BᵀB‖₂ ≤ ‖A‖_F² / ℓ`.
///
/// # Panics
/// Panics when `ell == 0`.
pub fn fd_spectral_error_bound(frobenius_sq: f64, ell: usize) -> f64 {
    assert!(ell > 0, "sketch size must be positive");
    frobenius_sq / ell as f64
}

/// Sketch size sufficient for a relative covariance error of `eps` against
/// the rank-`k` tail: `ℓ ≥ k + ⌈1/eps⌉` gives
/// `‖AᵀA − BᵀB‖₂ ≤ eps · ‖A − A_k‖_F²`.
///
/// # Panics
/// Panics when `eps <= 0` or `eps > 1`.
pub fn required_fd_size(k: usize, eps: f64) -> usize {
    assert!(eps > 0.0 && eps <= 1.0, "eps must be in (0, 1], got {eps}");
    k + (1.0 / eps).ceil() as usize
}

/// Measured covariance error of sketch `b` against data `a`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CovarianceError {
    /// `‖AᵀA − BᵀB‖₂` (power-iteration estimate).
    pub absolute: f64,
    /// `‖AᵀA − BᵀB‖₂ / ‖AᵀA‖₂`.
    pub relative: f64,
}

/// Estimates the covariance error of a sketch without forming any `d × d`
/// matrix. Deterministic for a fixed `seed`.
///
/// # Panics
/// Panics when column counts differ.
pub fn covariance_error(a: &Matrix, b: &Matrix, seed: u64) -> CovarianceError {
    let absolute = gram_diff_spectral_norm(a, b, DEFAULT_POWER_ITERS, seed);
    let top = spectral_norm(a, DEFAULT_POWER_ITERS, seed ^ 0xabcd);
    let denom = (top * top).max(f64::MIN_POSITIVE);
    CovarianceError {
        absolute,
        relative: absolute / denom,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frequent_directions::FrequentDirections;
    use crate::traits::MatrixSketch;
    use sketchad_linalg::rng::{gaussian_matrix, seeded_rng};
    use sketchad_linalg::svd::svd_thin;

    /// The refined frequent-directions guarantee in terms of the rank-`k` tail:
    /// `‖AᵀA − BᵀB‖₂ ≤ ‖A − A_k‖_F² / (ℓ − k)` for `k < ℓ`.
    ///
    /// # Panics
    /// Panics when `k >= ell`.
    fn fd_refined_error_bound(tail_frobenius_sq: f64, ell: usize, k: usize) -> f64 {
        assert!(k < ell, "refined bound requires k < ℓ (got k={k}, ℓ={ell})");
        tail_frobenius_sq / (ell - k) as f64
    }

    /// Squared Frobenius norm of the rank-`k` tail `‖A − A_k‖_F²`, given the full
    /// singular value list of `A`.
    fn tail_frobenius_sq(singular_values: &[f64], k: usize) -> f64 {
        singular_values.iter().skip(k).map(|s| s * s).sum()
    }

    #[test]
    fn basic_bound_formula() {
        assert_eq!(fd_spectral_error_bound(100.0, 10), 10.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn basic_bound_rejects_zero_ell() {
        fd_spectral_error_bound(1.0, 0);
    }

    #[test]
    fn refined_bound_formula_and_validation() {
        assert_eq!(fd_refined_error_bound(30.0, 8, 2), 5.0);
    }

    #[test]
    #[should_panic(expected = "k < ℓ")]
    fn refined_bound_rejects_large_k() {
        fd_refined_error_bound(1.0, 4, 4);
    }

    #[test]
    fn required_size_monotone_in_eps() {
        assert_eq!(required_fd_size(5, 0.5), 7);
        assert_eq!(required_fd_size(5, 0.1), 15);
        assert!(required_fd_size(3, 0.01) > required_fd_size(3, 0.1));
    }

    #[test]
    fn tail_mass_from_singular_values() {
        let s = [3.0, 2.0, 1.0];
        assert_eq!(tail_frobenius_sq(&s, 0), 14.0);
        assert_eq!(tail_frobenius_sq(&s, 1), 5.0);
        assert_eq!(tail_frobenius_sq(&s, 3), 0.0);
    }

    #[test]
    fn measured_error_within_both_bounds() {
        let mut rng = seeded_rng(55);
        let a = gaussian_matrix(&mut rng, 250, 24, 1.0);
        let ell = 12;
        let mut fd = FrequentDirections::new(ell, 24);
        for row in a.iter_rows() {
            fd.update(row);
        }
        let err = covariance_error(&a, &fd.sketch(), 4);
        let basic = fd_spectral_error_bound(a.squared_frobenius_norm(), ell);
        assert!(err.absolute <= basic * (1.0 + 1e-9));

        // Refined bound with k = 4.
        let svd = svd_thin(&a).unwrap();
        let tail = tail_frobenius_sq(&svd.s, 4);
        let refined = fd_refined_error_bound(tail, ell, 4);
        assert!(
            err.absolute <= refined * (1.0 + 1e-9),
            "err {} > refined bound {refined}",
            err.absolute
        );
        assert!(err.relative >= 0.0 && err.relative.is_finite());
    }

    #[test]
    fn identical_matrices_have_zero_error() {
        let mut rng = seeded_rng(56);
        let a = gaussian_matrix(&mut rng, 20, 8, 1.0);
        let err = covariance_error(&a, &a, 1);
        assert!(err.absolute < 1e-9);
        assert!(err.relative < 1e-10);
    }
}

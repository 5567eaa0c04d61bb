//! Power iteration for spectral-norm estimation.
//!
//! The sketch-quality experiments need `‖AᵀA − BᵀB‖₂` for large `d` without
//! ever forming a `d × d` matrix. `spectral_norm_op` runs power iteration
//! against an arbitrary symmetric operator supplied as a closure, so callers
//! can apply `x ↦ Aᵀ(Ax) − Bᵀ(Bx)` directly from the row data.

use crate::matrix::Matrix;
use crate::rng::{random_unit_vector, seeded_rng};
use crate::vecops;

/// Default number of power iterations; the estimates converge geometrically
/// and 100 iterations is far more than needed at the tolerances we report.
pub const DEFAULT_POWER_ITERS: usize = 100;

/// Estimates the spectral norm (largest absolute eigenvalue) of a symmetric
/// operator `op: R^d → R^d` via power iteration.
///
/// Deterministic for a fixed `seed`. Returns 0.0 for `d == 0`.
pub(crate) fn spectral_norm_op(
    d: usize,
    mut op: impl FnMut(&[f64]) -> Vec<f64>,
    iterations: usize,
    seed: u64,
) -> f64 {
    if d == 0 {
        return 0.0;
    }
    let mut rng = seeded_rng(seed);
    let mut v = random_unit_vector(&mut rng, d);
    let mut lambda = 0.0;
    for _ in 0..iterations.max(1) {
        let mut w = op(&v);
        let norm = vecops::norm2(&w);
        if norm <= f64::MIN_POSITIVE {
            return 0.0;
        }
        lambda = norm;
        vecops::scale(1.0 / norm, &mut w);
        v = w;
    }
    lambda
}

/// Spectral norm of an arbitrary matrix `A` (largest singular value),
/// computed as `sqrt(‖AᵀA‖₂)` without forming the Gram matrix.
pub fn spectral_norm(a: &Matrix, iterations: usize, seed: u64) -> f64 {
    let d = a.cols();
    let lambda = spectral_norm_op(
        d,
        |x| {
            let ax = a.matvec(x);
            a.tr_matvec(&ax)
        },
        iterations,
        seed,
    );
    lambda.max(0.0).sqrt()
}

/// Estimates `‖AᵀA − BᵀB‖₂` for row matrices `A` and `B` with the same
/// column count, without forming either Gram matrix.
///
/// # Panics
/// Panics when column counts differ.
pub fn gram_diff_spectral_norm(a: &Matrix, b: &Matrix, iterations: usize, seed: u64) -> f64 {
    assert_eq!(
        a.cols(),
        b.cols(),
        "gram_diff requires matching column counts"
    );
    let d = a.cols();
    // The operator x ↦ Aᵀ(Ax) − Bᵀ(Bx) is symmetric but may be indefinite;
    // power iteration still converges to the largest-|λ| eigenvalue.
    spectral_norm_op(
        d,
        |x| {
            let ax = a.matvec(x);
            let mut out = a.tr_matvec(&ax);
            let bx = b.matvec(x);
            let btbx = b.tr_matvec(&bx);
            for (o, v) in out.iter_mut().zip(btbx.iter()) {
                *o -= v;
            }
            out
        },
        iterations,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{gaussian_matrix, seeded_rng};
    use crate::svd::svd_thin;

    #[test]
    fn spectral_norm_sym_diagonal() {
        let s = Matrix::from_diag(&[2.0, -7.0, 3.0]);
        let est = spectral_norm_op(3, |x| s.matvec(x), 200, 1);
        assert!((est - 7.0).abs() < 1e-8, "est {est}");
    }

    #[test]
    fn spectral_norm_matches_top_singular_value() {
        let mut rng = seeded_rng(44);
        let a = gaussian_matrix(&mut rng, 20, 12, 1.0);
        let svd = svd_thin(&a).unwrap();
        let est = spectral_norm(&a, 300, 2);
        assert!(
            (est - svd.s[0]).abs() / svd.s[0] < 1e-6,
            "est {est} vs {}",
            svd.s[0]
        );
    }

    #[test]
    fn gram_diff_zero_for_identical_matrices() {
        let mut rng = seeded_rng(45);
        let a = gaussian_matrix(&mut rng, 10, 6, 1.0);
        let est = gram_diff_spectral_norm(&a, &a, 50, 3);
        assert!(est < 1e-10, "est {est}");
    }

    #[test]
    fn gram_diff_matches_dense_computation() {
        let mut rng = seeded_rng(46);
        let a = gaussian_matrix(&mut rng, 15, 8, 1.0);
        let b = gaussian_matrix(&mut rng, 9, 8, 1.0);
        let dense = a.gram().sub(&b.gram()).unwrap();
        let want = spectral_norm_op(8, |x| dense.matvec(x), 400, 4);
        let got = gram_diff_spectral_norm(&a, &b, 400, 4);
        assert!(
            (got - want).abs() / want.max(1e-12) < 1e-5,
            "{got} vs {want}"
        );
    }

    #[test]
    fn zero_dimension_returns_zero() {
        assert_eq!(spectral_norm_op(0, |x| x.to_vec(), 10, 1), 0.0);
    }

    #[test]
    fn zero_operator_returns_zero() {
        let est = spectral_norm_op(5, |x| vec![0.0; x.len()], 10, 1);
        assert_eq!(est, 0.0);
    }
}

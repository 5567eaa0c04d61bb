//! Deterministic random generation utilities.
//!
//! Everything in this workspace is seeded: experiments must be reproducible
//! run-to-run. Gaussian variates are produced by a Box–Muller transform so we
//! need nothing beyond the `rand` core crate.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::matrix::Matrix;
use crate::qr::qr_thin;
use crate::vecops;

/// Creates a deterministic [`StdRng`] from a `u64` seed.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Samples a standard normal variate via the Box–Muller transform.
///
/// Uses the polar-free (trigonometric) form; one of the pair is discarded for
/// simplicity — generation here is never the bottleneck.
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Guard against log(0): sample u1 from (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Fills `out` with i.i.d. `N(0, sigma²)` samples.
pub fn fill_gaussian<R: Rng + ?Sized>(rng: &mut R, sigma: f64, out: &mut [f64]) {
    for v in out.iter_mut() {
        *v = sigma * gaussian(rng);
    }
}

/// Samples a vector of i.i.d. standard normal entries.
pub fn gaussian_vec<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<f64> {
    let mut v = vec![0.0; n];
    fill_gaussian(rng, 1.0, &mut v);
    v
}

/// Samples a `rows × cols` matrix with i.i.d. `N(0, sigma²)` entries.
pub fn gaussian_matrix<R: Rng + ?Sized>(
    rng: &mut R,
    rows: usize,
    cols: usize,
    sigma: f64,
) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    fill_gaussian(rng, sigma, m.as_mut_slice());
    m
}

/// Samples a uniformly random unit vector in `R^n`.
pub(crate) fn random_unit_vector<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<f64> {
    loop {
        let mut v = gaussian_vec(rng, n);
        if vecops::normalize(&mut v) > 1e-12 {
            return v;
        }
    }
}

/// Samples a `k × n` matrix with orthonormal *rows* (a random k-dimensional
/// subspace basis), via QR of a Gaussian matrix.
///
/// # Panics
/// Panics when `k > n`.
pub fn random_orthonormal_rows<R: Rng + ?Sized>(rng: &mut R, k: usize, n: usize) -> Matrix {
    assert!(k <= n, "cannot build {k} orthonormal rows in dimension {n}");
    let g = gaussian_matrix(rng, n, k, 1.0);
    let (q, _r) = qr_thin(&g).expect("QR of a Gaussian matrix");
    q.transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        for _ in 0..10 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = seeded_rng(7);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
        assert!(samples.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn random_unit_vector_has_unit_norm() {
        let mut rng = seeded_rng(3);
        let v = random_unit_vector(&mut rng, 17);
        assert!((vecops::norm2(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_orthonormal_rows_are_orthonormal() {
        let mut rng = seeded_rng(5);
        let q = random_orthonormal_rows(&mut rng, 4, 10);
        assert_eq!(q.shape(), (4, 10));
        let g = q.outer_gram();
        for i in 0..4 {
            for j in 0..4 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (g[(i, j)] - expect).abs() < 1e-10,
                    "G[{i}][{j}] = {}",
                    g[(i, j)]
                );
            }
        }
    }

    #[test]
    fn gaussian_matrix_shape_and_scale() {
        let mut rng = seeded_rng(9);
        let m = gaussian_matrix(&mut rng, 100, 50, 2.0);
        assert_eq!(m.shape(), (100, 50));
        let var = m.squared_frobenius_norm() / (100.0 * 50.0);
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }
}

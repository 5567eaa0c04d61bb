//! Householder QR decomposition.
//!
//! `qr_thin` computes the economy-size factorization `A = Q R` where `A` is
//! `m × n`, `Q` is `m × k` with orthonormal columns, `R` is `k × n` upper
//! triangular, and `k = min(m, n)`. Householder reflections give
//! unconditional numerical stability, which matters for the frequent-
//! directions shrink step operating on nearly rank-deficient buffers.

use crate::error::{LinAlgError, Result};
use crate::matrix::Matrix;

/// Result of a thin QR factorization.
#[derive(Debug, Clone)]
pub(crate) struct QrThin {
    /// `m × k` matrix with orthonormal columns.
    pub(crate) q: Matrix,
    /// `k × n` upper-triangular factor.
    pub(crate) r: Matrix,
}

/// Computes the thin QR factorization of `a`.
///
/// # Errors
/// * [`LinAlgError::EmptyInput`] when `a` has zero rows or columns.
/// * [`LinAlgError::NotFinite`] when `a` contains NaN/inf.
pub fn qr_thin(a: &Matrix) -> Result<(Matrix, Matrix)> {
    let qr = qr_decompose(a)?;
    Ok((qr.q, qr.r))
}

/// Computes the thin QR factorization of `a`, returning a [`QrThin`].
///
/// # Errors
/// See [`qr_thin`].
pub(crate) fn qr_decompose(a: &Matrix) -> Result<QrThin> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Err(LinAlgError::EmptyInput { op: "qr_thin" });
    }
    if !a.all_finite() {
        return Err(LinAlgError::NotFinite { op: "qr_thin" });
    }
    let k = m.min(n);

    // Work on a copy of A; reflectors are stored densely (one per column).
    let mut r = a.clone();
    let mut reflectors: Vec<Vec<f64>> = Vec::with_capacity(k);

    for j in 0..k {
        // Build the Householder vector for column j, rows j..m.
        let mut v = vec![0.0; m - j];
        for i in j..m {
            v[i - j] = r[(i, j)];
        }
        let alpha = {
            let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if v[0] >= 0.0 {
                -norm
            } else {
                norm
            }
        };
        if alpha == 0.0 {
            // Column already zero below (and at) the diagonal; identity reflector.
            reflectors.push(vec![0.0; m - j]);
            continue;
        }
        v[0] -= alpha;
        let vnorm_sq: f64 = v.iter().map(|x| x * x).sum();
        if vnorm_sq <= f64::MIN_POSITIVE {
            reflectors.push(vec![0.0; m - j]);
            continue;
        }

        // Apply H = I - 2 v vᵀ / (vᵀv) to R[j.., j..].
        for col in j..n {
            let mut dot = 0.0;
            for i in j..m {
                dot += v[i - j] * r[(i, col)];
            }
            let beta = 2.0 * dot / vnorm_sq;
            for i in j..m {
                r[(i, col)] -= beta * v[i - j];
            }
        }
        reflectors.push(v);
    }

    // Zero out strictly-lower-triangular entries left as rounding noise and
    // shrink R to k × n.
    let mut r_out = Matrix::zeros(k, n);
    for i in 0..k {
        for j in i..n {
            r_out[(i, j)] = r[(i, j)];
        }
    }

    // Form Q = H_0 H_1 … H_{k-1} · I_{m×k} by applying reflectors in reverse.
    let mut q = Matrix::zeros(m, k);
    for i in 0..k {
        q[(i, i)] = 1.0;
    }
    for j in (0..k).rev() {
        let v = &reflectors[j];
        let vnorm_sq: f64 = v.iter().map(|x| x * x).sum();
        if vnorm_sq <= f64::MIN_POSITIVE {
            continue;
        }
        for col in 0..k {
            let mut dot = 0.0;
            for i in j..m {
                dot += v[i - j] * q[(i, col)];
            }
            let beta = 2.0 * dot / vnorm_sq;
            for i in j..m {
                q[(i, col)] -= beta * v[i - j];
            }
        }
    }

    Ok(QrThin { q, r: r_out })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{gaussian_matrix, seeded_rng};

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!(a.shape(), b.shape());
        let diff = a.sub(b).unwrap();
        assert!(
            diff.max_abs() < tol,
            "matrices differ by {} (tol {tol})",
            diff.max_abs()
        );
    }

    fn check_qr(a: &Matrix, tol: f64) {
        let (q, r) = qr_thin(a).unwrap();
        let k = a.rows().min(a.cols());
        assert_eq!(q.shape(), (a.rows(), k));
        assert_eq!(r.shape(), (k, a.cols()));
        // Reconstruction.
        let qr = q.matmul(&r).unwrap();
        assert_close(&qr, a, tol);
        // Orthonormal columns: QᵀQ = I.
        let qtq = q.tr_matmul(&q).unwrap();
        assert_close(&qtq, &Matrix::identity(k), tol);
        // R upper triangular.
        for i in 0..k {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn qr_of_identity() {
        let a = Matrix::identity(5);
        check_qr(&a, 1e-12);
    }

    #[test]
    fn qr_tall_random() {
        let mut rng = seeded_rng(11);
        let a = gaussian_matrix(&mut rng, 40, 10, 1.0);
        check_qr(&a, 1e-10);
    }

    #[test]
    fn qr_wide_random() {
        let mut rng = seeded_rng(12);
        let a = gaussian_matrix(&mut rng, 8, 30, 1.0);
        check_qr(&a, 1e-10);
    }

    #[test]
    fn qr_square_random() {
        let mut rng = seeded_rng(13);
        let a = gaussian_matrix(&mut rng, 16, 16, 3.0);
        check_qr(&a, 1e-9);
    }

    #[test]
    fn qr_rank_deficient() {
        // Two identical columns: rank 1; factorization must still reconstruct.
        let a = Matrix::from_vec(3, 2, vec![1., 1., 2., 2., 3., 3.]).unwrap();
        let (q, r) = qr_thin(&a).unwrap();
        let qr = q.matmul(&r).unwrap();
        assert_close(&qr, &a, 1e-12);
    }

    #[test]
    fn qr_zero_matrix() {
        let a = Matrix::zeros(4, 3);
        let (q, r) = qr_thin(&a).unwrap();
        let qr = q.matmul(&r).unwrap();
        assert_close(&qr, &a, 1e-15);
    }

    #[test]
    fn qr_rejects_empty_and_nonfinite() {
        assert!(qr_thin(&Matrix::zeros(0, 3)).is_err());
        let mut a = Matrix::identity(2);
        a[(0, 1)] = f64::NAN;
        assert!(qr_thin(&a).is_err());
    }

    #[test]
    fn qr_single_column() {
        let a = Matrix::from_vec(3, 1, vec![3.0, 0.0, 4.0]).unwrap();
        let (q, r) = qr_thin(&a).unwrap();
        assert!((r[(0, 0)].abs() - 5.0).abs() < 1e-12);
        let qr = q.matmul(&r).unwrap();
        assert_close(&qr, &a, 1e-12);
    }
}

//! Symmetric eigendecomposition.
//!
//! * [`eigen_sym`] — the one production solver: Householder
//!   tridiagonalization followed by implicit-shift QL (`tred2`/`tql2`), with
//!   the eigenvector accumulator stored **as rows** so the back-accumulation
//!   and every QL plane rotation ([`vecops::rot`]) walk contiguous slices.
//!   [`tridiag_ql_in_place`] is the same solver over caller-owned buffers —
//!   what the allocation-free SVD kernel ([`crate::svd::right_factor`])
//!   runs on its workspace.
//! * [`jacobi_eigen_sym`] — cyclic Jacobi rotations; unconditionally stable
//!   and several times slower at every size. Kept as the accuracy oracle the
//!   tests compare the QL solver against; nothing on a hot path calls it.
//! * [`subspace_iteration`] / [`warm_subspace_iteration`] — block orthogonal
//!   iteration extracting only the top-k eigenpairs, for the exact-SVD
//!   baseline's `d × d` covariances and the warm-started model refresh.

use crate::error::{LinAlgError, Result};
use crate::matrix::Matrix;
use crate::qr::qr_thin;
use crate::rng::{gaussian_matrix, seeded_rng};
use crate::vecops;

/// Eigendecomposition of a symmetric matrix: `S = V diag(λ) Vᵀ`.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues sorted in descending order.
    pub values: Vec<f64>,
    /// Matrix whose **columns** are the corresponding eigenvectors.
    pub vectors: Matrix,
}

/// Maximum Jacobi sweeps before declaring non-convergence.
const MAX_JACOBI_SWEEPS: usize = 64;

/// Full eigendecomposition of a symmetric matrix by the cyclic Jacobi method.
///
/// Eigenvalues are returned in descending order; the `i`-th column of
/// `vectors` is the eigenvector for `values[i]`.
///
/// # Errors
/// * [`LinAlgError::ShapeMismatch`] for non-square input.
/// * [`LinAlgError::NotFinite`] for NaN/inf input.
/// * [`LinAlgError::NoConvergence`] if the sweep budget is exhausted
///   (practically unreachable for symmetric input).
pub fn jacobi_eigen_sym(s: &Matrix) -> Result<SymEigen> {
    let n = s.rows();
    if s.rows() != s.cols() {
        return Err(LinAlgError::ShapeMismatch {
            expected: (n, n),
            got: s.shape(),
            op: "jacobi_eigen_sym",
        });
    }
    if !s.all_finite() {
        return Err(LinAlgError::NotFinite {
            op: "jacobi_eigen_sym",
        });
    }
    if n == 0 {
        return Ok(SymEigen {
            values: vec![],
            vectors: Matrix::zeros(0, 0),
        });
    }

    let mut a = s.clone();
    let mut v = Matrix::identity(n);

    // Convergence threshold relative to the matrix scale.
    let scale = a.max_abs().max(f64::MIN_POSITIVE);
    let tol = 1e-14 * scale;

    for _ in 0..MAX_JACOBI_SWEEPS {
        let mut off = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                off = off.max(a[(i, j)].abs());
            }
        }
        if off <= tol {
            return Ok(finish_jacobi(a, v));
        }

        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[(p, q)];
                if apq.abs() <= tol * 1e-2 {
                    continue;
                }
                let app = a[(p, p)];
                let aqq = a[(q, q)];
                // Compute the Jacobi rotation (c, s) annihilating a[p][q].
                let theta = (aqq - app) / (2.0 * apq);
                let t = {
                    let sign = if theta >= 0.0 { 1.0 } else { -1.0 };
                    sign / (theta.abs() + (theta * theta + 1.0).sqrt())
                };
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s_rot = t * c;

                // A ← Jᵀ A J applied to rows/columns p and q.
                for k in 0..n {
                    let akp = a[(k, p)];
                    let akq = a[(k, q)];
                    a[(k, p)] = c * akp - s_rot * akq;
                    a[(k, q)] = s_rot * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[(p, k)];
                    let aqk = a[(q, k)];
                    a[(p, k)] = c * apk - s_rot * aqk;
                    a[(q, k)] = s_rot * apk + c * aqk;
                }
                // Accumulate the rotation into V.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s_rot * vkq;
                    v[(k, q)] = s_rot * vkp + c * vkq;
                }
            }
        }
    }

    Err(LinAlgError::NoConvergence {
        op: "jacobi_eigen_sym",
        iterations: MAX_JACOBI_SWEEPS,
    })
}

/// Sorts eigenpairs in descending eigenvalue order.
fn finish_jacobi(a: Matrix, v: Matrix) -> SymEigen {
    let n = a.rows();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        a[(j, j)]
            .partial_cmp(&a[(i, i)])
            .expect("finite eigenvalues")
    });

    let values: Vec<f64> = order.iter().map(|&i| a[(i, i)]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for row in 0..n {
            vectors[(row, new_col)] = v[(row, old_col)];
        }
    }
    SymEigen { values, vectors }
}

/// Full symmetric eigendecomposition: Householder tridiagonalization
/// followed by implicit-shift QL, at every size (allocating wrapper over
/// [`tridiag_ql_in_place`]). Eigenvalues come back in descending order; the
/// `i`-th column of `vectors` is the eigenvector for `values[i]`.
///
/// There is no small-matrix dispatch to [`jacobi_eigen_sym`]: measured on the
/// n = 2…16 Grams the cheap detectors and the Rayleigh–Ritz steps produce,
/// QL is faster from n = 3 up and ties within 0.05 µs at n = 2 (the table is
/// in ARCHITECTURE.md, kernel layer).
///
/// # Errors
/// * [`LinAlgError::ShapeMismatch`] for non-square input.
/// * [`LinAlgError::NotFinite`] for NaN/inf input.
/// * [`LinAlgError::NoConvergence`] if QL exceeds its iteration budget.
pub fn eigen_sym(s: &Matrix) -> Result<SymEigen> {
    let n = s.rows();
    if s.rows() != s.cols() {
        return Err(LinAlgError::ShapeMismatch {
            expected: (n, n),
            got: s.shape(),
            op: "eigen_sym",
        });
    }
    if !s.all_finite() {
        return Err(LinAlgError::NotFinite { op: "eigen_sym" });
    }
    let mut z = s.as_slice().to_vec();
    let mut d = vec![0.0f64; n];
    let mut e = vec![0.0f64; n];
    tridiag_ql_in_place(&mut z, &mut d, &mut e)?;
    let mut order = vec![0usize; n];
    descending_order(&d, &mut order);
    let values: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &old_row) in order.iter().enumerate() {
        for (row, &v) in z[old_row * n..(old_row + 1) * n].iter().enumerate() {
            vectors[(row, new_col)] = v;
        }
    }
    Ok(SymEigen { values, vectors })
}

/// Fills `order` (same length as `d`) with the indices of `d` sorted by
/// descending value, ties in index order. Allocation-free.
pub(crate) fn descending_order(d: &[f64], order: &mut [usize]) {
    debug_assert_eq!(d.len(), order.len());
    for (i, o) in order.iter_mut().enumerate() {
        *o = i;
    }
    // The index tie-break makes the order total, so the (non-allocating)
    // unstable sort is as deterministic as a stable one.
    order.sort_unstable_by(|&i, &j| d[j].total_cmp(&d[i]).then(i.cmp(&j)));
}

/// Unbiased binary exponent of a finite `x` (subnormals and zero read as
/// −1023).
pub(crate) fn binary_exponent(x: f64) -> i64 {
    ((x.to_bits() >> 52) & 0x7ff) as i64 - 1023
}

/// The exact power of two that brings a finite `max_abs` to about 1 (into
/// `[1, 4)`; subnormals only as far as 2⁻⁵², and zero stays zero), chosen so
/// that both it and its reciprocal are normal numbers. Multiplying by it is
/// exact.
pub(crate) fn unit_scale(max_abs: f64) -> f64 {
    let exp = binary_exponent(max_abs).clamp(-1022, 1022);
    f64::from_bits(((1023 - exp) as u64) << 52)
}

/// QL iterations allowed per eigenvalue before declaring non-convergence.
const MAX_QL_ITERS: usize = 50;

/// The symmetric eigensolver over caller-owned buffers: Householder
/// reduction to tridiagonal form, then implicit-shift QL (the classical
/// `tred2`/`tql2` pair, restructured for row-major storage).
///
/// On entry `z` holds the symmetric `n × n` matrix row-major (`n = d.len()`;
/// the reduction reads its lower triangle). On success `d[i]` is an eigenvalue —
/// **unsorted** — and row `i` of `z` its unit eigenvector; `e` is scratch.
/// Every element of `z`, `d` and `e` is written before it is read, so the
/// result depends on the input matrix alone, never on what the buffers held.
///
/// The transform is accumulated *transposed* relative to the textbook
/// routine. That turns the three cubic loops into contiguous row work: the
/// symmetric matrix–vector product and rank-2 update of the reduction are
/// one [`vecops::dot`] + [`vecops::axpy`] per row, applying a reflector to
/// the accumulator is one dot + axpy per row, and each QL rotation is one
/// [`vecops::rot`] over two adjacent rows instead of two stride-`n` columns.
///
/// # Errors
/// * [`LinAlgError::ShapeMismatch`] unless `z.len() == n²` and
///   `e.len() == n`.
/// * [`LinAlgError::NoConvergence`] if QL exceeds its iteration budget.
/// * [`LinAlgError::NotFinite`] if an eigenvalue comes out NaN/inf (the
///   input held a non-finite value or overflowed in the reduction).
pub fn tridiag_ql_in_place(z: &mut [f64], d: &mut [f64], e: &mut [f64]) -> Result<()> {
    let n = d.len();
    if z.len() != n * n || e.len() != n {
        return Err(LinAlgError::ShapeMismatch {
            expected: (n, n),
            got: (z.len(), e.len()),
            op: "tridiag_ql_in_place",
        });
    }
    if n == 0 {
        return Ok(());
    }

    // Normalize the matrix to unit magnitude by an exact power of two. The QL
    // recurrence below sits on a serial dependency chain through one
    // √(f² + g²) per plane rotation; with every entry O(1) that can be formed
    // directly, where an overflow-safe `hypot` would add a third to the
    // chain's latency (and libm's costs more than the rotation itself).
    let max_abs = z.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    if !max_abs.is_finite() {
        return Err(LinAlgError::NotFinite {
            op: "tridiag_ql_in_place",
        });
    }
    let scale = unit_scale(max_abs);
    vecops::scale(scale, z);

    // ---- tred2: Householder reduction to tridiagonal form. ----
    // Step `i` annihilates row `i` left of the subdiagonal with a reflector
    // `u` that overwrites `z[i][..i]`; `d[i]` keeps `h = |u|²/2` for the
    // accumulation below and `e[i]` the new subdiagonal entry.
    for i in (1..n).rev() {
        let (head, tail) = z.split_at_mut(i * n);
        let u = &mut tail[..i];
        let mut h = 0.0;
        if i > 1 {
            let scale: f64 = u.iter().map(|v| v.abs()).sum();
            if scale == 0.0 {
                e[i] = u[i - 1];
            } else {
                for v in u.iter_mut() {
                    *v /= scale;
                    h += *v * *v;
                }
                let f = u[i - 1];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                u[i - 1] = f - g;
                // p = A·u over the leading i×i block, of which only the
                // lower triangle is stored: row j contributes its dot with u
                // to p[j] and, mirrored, u[j]·row to p[..j].
                let p = &mut e[..i];
                p.fill(0.0);
                for j in 0..i {
                    let row = &head[j * n..j * n + j + 1];
                    p[j] += vecops::dot(row, &u[..=j]);
                    vecops::axpy(u[j], &row[..j], &mut p[..j]);
                }
                let mut f = 0.0;
                for (pj, &uj) in p.iter_mut().zip(u.iter()) {
                    *pj /= h;
                    f += *pj * uj;
                }
                // q = p − (uᵀp / 2h)·u, then A ← A − u·qᵀ − q·uᵀ.
                vecops::axpy(-f / (h + h), u, p);
                for j in 0..i {
                    let row = &mut head[j * n..j * n + j + 1];
                    vecops::axpy(-u[j], &p[..=j], row);
                    vecops::axpy(-p[j], &u[..=j], row);
                }
            }
        } else {
            e[i] = u[0];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;

    // Accumulate the reflectors into Qᵀ, growing the leading block one row
    // and column per step: block ← block·(I − u·uᵀ/h), a dot and an axpy
    // per (contiguous) row.
    for i in 0..n {
        let (head, tail) = z.split_at_mut(i * n);
        if d[i] != 0.0 {
            let (u, h) = (&tail[..i], d[i]);
            for k in 0..i {
                let row = &mut head[k * n..k * n + i];
                let g = vecops::dot(row, u);
                vecops::axpy(-g / h, u, row);
            }
        }
        d[i] = tail[i];
        tail[..i].fill(0.0);
        tail[i] = 1.0;
        for k in 0..i {
            head[k * n + i] = 0.0;
        }
    }

    // ---- tql2: implicit-shift QL on the tridiagonal (d, e). ----
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small subdiagonal element.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_QL_ITERS {
                return Err(LinAlgError::NoConvergence {
                    op: "tridiag_ql_in_place",
                    iterations: MAX_QL_ITERS,
                });
            }
            // Wilkinson shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = (g * g + 1.0).sqrt();
            let sign_r = if g >= 0.0 { r } else { -r };
            g = d[m] - d[l] + e[l] / (g + sign_r);
            let mut s_rot = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s_rot * e[i];
                let b = c * e[i];
                r = (f * f + g * g).sqrt();
                e[i + 1] = r;
                if r == 0.0 {
                    // The rotation vanished: recover and restart this `l`.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s_rot = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s_rot + 2.0 * c * b;
                p = s_rot * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into eigenvector rows i and i+1.
                let (lo, hi) = z[i * n..(i + 2) * n].split_at_mut(n);
                vecops::rot(lo, hi, c, s_rot);
            }
            // (Keyed on the early exit itself, not on `r == 0.0`: `r` is
            // reused below for a second quantity that can be exactly zero
            // after a *complete* sweep — inside a cluster of zero eigenvalues
            // — and skipping the update then leaves a stale `e[l]`.)
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }

    vecops::scale(1.0 / scale, d);
    if d.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(LinAlgError::NotFinite {
            op: "tridiag_ql_in_place",
        })
    }
}

/// Top-`k` eigenpairs of a symmetric PSD matrix by block orthogonal
/// (subspace) iteration with Rayleigh–Ritz extraction.
///
/// Converges geometrically at rate `λ_{k+1}/λ_k`; a small oversampling block
/// (`k + 8`) is used internally to sharpen the trailing eigenpairs.
///
/// # Errors
/// * [`LinAlgError::ShapeMismatch`] for non-square input.
/// * [`LinAlgError::InvalidParameter`] when `k` is zero or exceeds `n`.
pub fn subspace_iteration(s: &Matrix, k: usize, iterations: usize, seed: u64) -> Result<SymEigen> {
    let n = s.rows();
    if s.rows() != s.cols() {
        return Err(LinAlgError::ShapeMismatch {
            expected: (n, n),
            got: s.shape(),
            op: "subspace_iteration",
        });
    }
    if k == 0 || k > n {
        return Err(LinAlgError::InvalidParameter {
            op: "subspace_iteration",
            message: "k must satisfy 1 <= k <= n",
        });
    }

    let block = (k + 8).min(n);
    let mut rng = seeded_rng(seed);
    let mut q = {
        let g = gaussian_matrix(&mut rng, n, block, 1.0);
        let (q0, _) = qr_thin(&g)?;
        q0
    };

    for _ in 0..iterations.max(1) {
        let z = s.matmul(&q)?;
        let (qn, _) = qr_thin(&z)?;
        q = qn;
    }

    // Rayleigh–Ritz: project S into the converged subspace and solve the
    // small symmetric problem exactly.
    let sq = s.matmul(&q)?;
    let small = q.tr_matmul(&sq)?; // block × block
    let eig = eigen_sym(&small)?;

    // Lift the Ritz vectors back: columns of Q * W.
    let lifted = q.matmul(&eig.vectors)?;

    let values = eig.values[..k].to_vec();
    let mut vectors = Matrix::zeros(n, k);
    for col in 0..k {
        for row in 0..n {
            vectors[(row, col)] = lifted[(row, col)];
        }
    }
    Ok(SymEigen { values, vectors })
}

/// Top-`k` right-singular pairs of a **rectangular** `ℓ × d` matrix `b` by
/// warm-started block iteration on `BᵀB`, without ever forming the `d × d`
/// Gram matrix.
///
/// `v0` (`d × k₀` with orthonormal-izable columns, `k ≤ k₀ ≤ d`) seeds the
/// iteration — typically the previous model's basis. When the spectrum moves
/// slowly between refreshes (the streaming case: one sketch absorbs a few
/// hundred rows per refresh), the warm basis is already near the invariant
/// subspace and 2–3 iterations replace a cold `O(min(ℓ,d)²·max(ℓ,d))` SVD.
///
/// Each iteration is `Z = B·Q` then `W = Bᵀ·Z` then `Q ← orth(W)` —
/// `O(ℓ·d·k₀)` per step. Eigenpairs are extracted by Rayleigh–Ritz on
/// `QᵀBᵀBQ = ZᵀZ` (`k₀ × k₀`). Returned `values` are eigenvalues of `BᵀB`,
/// i.e. **squared** singular values of `b`, descending; `vectors` holds the
/// corresponding right singular vectors as `d × k` columns. Fully
/// deterministic: no randomness enters anywhere.
///
/// # Errors
/// * [`LinAlgError::ShapeMismatch`] when `v0.rows() != b.cols()`.
/// * [`LinAlgError::InvalidParameter`] unless `1 ≤ k ≤ v0.cols() ≤ d`.
/// * [`LinAlgError::NotFinite`] for NaN/inf input.
pub fn warm_subspace_iteration(
    b: &Matrix,
    v0: &Matrix,
    k: usize,
    iterations: usize,
) -> Result<SymEigen> {
    let d = b.cols();
    if v0.rows() != d {
        return Err(LinAlgError::ShapeMismatch {
            expected: (d, v0.cols()),
            got: v0.shape(),
            op: "warm_subspace_iteration",
        });
    }
    let block = v0.cols();
    if k == 0 || k > block || block > d {
        return Err(LinAlgError::InvalidParameter {
            op: "warm_subspace_iteration",
            message: "need 1 <= k <= v0.cols() <= b.cols()",
        });
    }
    if !b.all_finite() || !v0.all_finite() {
        return Err(LinAlgError::NotFinite {
            op: "warm_subspace_iteration",
        });
    }

    let (mut q, _) = qr_thin(v0)?;
    for _ in 0..iterations.max(1) {
        let z = b.matmul(&q)?; // ℓ × k₀
        let w = b.tr_matmul(&z)?; // d × k₀ = (BᵀB)·Q
        let (qn, _) = qr_thin(&w)?;
        q = qn;
    }

    // Rayleigh–Ritz in the converged subspace: ZᵀZ = QᵀBᵀBQ.
    let z = b.matmul(&q)?;
    let small = z.tr_matmul(&z)?;
    let eig = eigen_sym(&small)?;
    let lifted = q.matmul(&eig.vectors)?;

    let values = eig.values[..k].to_vec();
    let mut vectors = Matrix::zeros(d, k);
    for col in 0..k {
        for row in 0..d {
            vectors[(row, col)] = lifted[(row, col)];
        }
    }
    Ok(SymEigen { values, vectors })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{random_orthonormal_rows, seeded_rng};

    /// Builds V diag(λ) Vᵀ with a random orthonormal V.
    fn synth_sym(n: usize, eigs: &[f64], seed: u64) -> (Matrix, Matrix) {
        assert_eq!(eigs.len(), n);
        let mut rng = seeded_rng(seed);
        let v = random_orthonormal_rows(&mut rng, n, n); // rows orthonormal => square orthogonal
        let vt = v.transpose();
        let d = Matrix::from_diag(eigs);
        let s = vt.matmul(&d).unwrap().matmul(&v).unwrap();
        (s, vt)
    }

    #[test]
    fn jacobi_diagonal_matrix() {
        let s = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let e = jacobi_eigen_sym(&s).unwrap();
        assert_eq!(e.values, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn jacobi_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let s = Matrix::from_vec(2, 2, vec![2., 1., 1., 2.]).unwrap();
        let e = jacobi_eigen_sym(&s).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
        // Eigenvector for λ=3 is (1,1)/√2 up to sign.
        let v0 = (e.vectors[(0, 0)], e.vectors[(1, 0)]);
        assert!((v0.0.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((v0.0 - v0.1).abs() < 1e-12);
    }

    #[test]
    fn jacobi_reconstructs_random_symmetric() {
        let eigs = [9.0, 4.0, 1.0, 0.25, 0.0];
        let (s, _) = synth_sym(5, &eigs, 21);
        let e = jacobi_eigen_sym(&s).unwrap();
        for (got, want) in e.values.iter().zip(eigs.iter()) {
            assert!((got - want).abs() < 1e-9, "eig {got} vs {want}");
        }
        // V diag(λ) Vᵀ == S
        let d = Matrix::from_diag(&e.values);
        let rec = e
            .vectors
            .matmul(&d)
            .unwrap()
            .matmul(&e.vectors.transpose())
            .unwrap();
        assert!(rec.sub(&s).unwrap().max_abs() < 1e-9);
        // Vᵀ V == I
        let g = e.vectors.tr_matmul(&e.vectors).unwrap();
        assert!(g.sub(&Matrix::identity(5)).unwrap().max_abs() < 1e-10);
    }

    #[test]
    fn jacobi_rejects_nonsquare_and_nan() {
        assert!(jacobi_eigen_sym(&Matrix::zeros(2, 3)).is_err());
        let mut m = Matrix::identity(2);
        m[(1, 1)] = f64::NAN;
        assert!(jacobi_eigen_sym(&m).is_err());
    }

    #[test]
    fn jacobi_empty_matrix() {
        let e = jacobi_eigen_sym(&Matrix::zeros(0, 0)).unwrap();
        assert!(e.values.is_empty());
    }

    #[test]
    fn tridiag_matches_jacobi_on_random_symmetric() {
        let eigs = [12.0, 7.5, 3.0, 1.5, 0.8, 0.3, 0.1, 0.0];
        let (s, _) = synth_sym(8, &eigs, 91);
        let j = jacobi_eigen_sym(&s).unwrap();
        let t = eigen_sym(&s).unwrap();
        for (a, b) in j.values.iter().zip(t.values.iter()) {
            assert!((a - b).abs() < 1e-9, "eig {a} vs {b}");
        }
        // Reconstruction from the QL decomposition.
        let d = Matrix::from_diag(&t.values);
        let rec = t
            .vectors
            .matmul(&d)
            .unwrap()
            .matmul(&t.vectors.transpose())
            .unwrap();
        assert!(rec.sub(&s).unwrap().max_abs() < 1e-9);
        // Orthonormal vectors.
        let g = t.vectors.tr_matmul(&t.vectors).unwrap();
        assert!(g.sub(&Matrix::identity(8)).unwrap().max_abs() < 1e-10);
    }

    #[test]
    fn tridiag_handles_larger_matrices() {
        // 120×120 with known spectrum.
        let n = 120;
        let eigs: Vec<f64> = (0..n).map(|i| (n - i) as f64).collect();
        let (s, _) = synth_sym(n, &eigs, 92);
        let e = eigen_sym(&s).unwrap();
        for (got, want) in e.values.iter().zip(eigs.iter()) {
            assert!((got - want).abs() < 1e-7, "eig {got} vs {want}");
        }
        let d = Matrix::from_diag(&e.values);
        let rec = e
            .vectors
            .matmul(&d)
            .unwrap()
            .matmul(&e.vectors.transpose())
            .unwrap();
        assert!(rec.sub(&s).unwrap().max_abs() < 1e-7);
    }

    #[test]
    fn tridiag_diagonal_and_degenerate_cases() {
        let s = Matrix::from_diag(&[3.0, 1.0, 2.0, 2.0]);
        let e = eigen_sym(&s).unwrap();
        assert_eq!(e.values, vec![3.0, 2.0, 2.0, 1.0]);
        // 1×1.
        let s1 = Matrix::from_diag(&[5.0]);
        let e1 = eigen_sym(&s1).unwrap();
        assert_eq!(e1.values, vec![5.0]);
        // Zero matrix.
        let z = Matrix::zeros(5, 5);
        let ez = eigen_sym(&z).unwrap();
        assert!(ez.values.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn tridiag_rejects_bad_input() {
        assert!(eigen_sym(&Matrix::zeros(2, 3)).is_err());
        let mut m = Matrix::identity(2);
        m[(0, 0)] = f64::NAN;
        assert!(eigen_sym(&m).is_err());
    }

    #[test]
    fn subspace_iteration_matches_jacobi_top_k() {
        let eigs = [50.0, 20.0, 10.0, 1.0, 0.5, 0.2, 0.1, 0.05];
        let (s, _) = synth_sym(8, &eigs, 33);
        let top = subspace_iteration(&s, 3, 50, 7).unwrap();
        for (got, want) in top.values.iter().zip(eigs.iter()) {
            assert!((got - want).abs() < 1e-6, "eig {got} vs {want}");
        }
        // Residual check: ‖S v − λ v‖ small.
        for j in 0..3 {
            let v = top.vectors.col(j);
            let sv = s.matvec(&v);
            let lv: Vec<f64> = v.iter().map(|x| x * top.values[j]).collect();
            let res: f64 = sv
                .iter()
                .zip(lv.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            assert!(res < 1e-5, "residual {res} for pair {j}");
        }
    }

    #[test]
    fn subspace_iteration_parameter_validation() {
        let s = Matrix::identity(4);
        assert!(subspace_iteration(&s, 0, 10, 1).is_err());
        assert!(subspace_iteration(&s, 5, 10, 1).is_err());
        assert!(subspace_iteration(&Matrix::zeros(2, 3), 1, 10, 1).is_err());
    }

    #[test]
    fn warm_subspace_iteration_matches_gram_eigensolve() {
        // ℓ×d matrix with a known right-singular structure: rows live in a
        // 3-D subspace of R^10 with distinct energies.
        let mut rng = seeded_rng(11);
        let v = random_orthonormal_rows(&mut rng, 3, 10); // 3 × 10
        let mut b = Matrix::zeros(12, 10);
        for i in 0..12 {
            let c = [4.0, 2.0, 1.0][i % 3];
            for j in 0..10 {
                b[(i, j)] = c * v[(i % 3, j)];
            }
        }
        let gram = b.gram(); // d × d = BᵀB
        let exact = eigen_sym(&gram).unwrap();
        // Warm start from a perturbed version of the true basis.
        let mut v0 = v.transpose(); // 10 × 3 columns
        for j in 0..3 {
            v0[(j, j)] += 0.05;
        }
        let warm = warm_subspace_iteration(&b, &v0, 3, 3).unwrap();
        for (got, want) in warm.values.iter().zip(exact.values.iter()) {
            assert!((got - want).abs() < 1e-8, "eig {got} vs {want}");
        }
        // Right singular vectors match up to sign.
        for j in 0..3 {
            let dot: f64 = (0..10)
                .map(|r| warm.vectors[(r, j)] * exact.vectors[(r, j)])
                .sum();
            assert!(dot.abs() > 1.0 - 1e-8, "vector {j} misaligned: {dot}");
        }
    }

    #[test]
    fn warm_subspace_iteration_is_deterministic() {
        let mut rng = seeded_rng(3);
        let b = gaussian_matrix(&mut rng, 16, 8, 1.0);
        let v0 = {
            let mut rng2 = seeded_rng(4);
            gaussian_matrix(&mut rng2, 8, 4, 1.0)
        };
        let a = warm_subspace_iteration(&b, &v0, 4, 2).unwrap();
        let c = warm_subspace_iteration(&b, &v0, 4, 2).unwrap();
        assert_eq!(a.values, c.values);
        assert_eq!(a.vectors.as_slice(), c.vectors.as_slice());
    }

    #[test]
    fn warm_subspace_iteration_parameter_validation() {
        let b = Matrix::zeros(6, 4);
        let v0 = Matrix::identity(4);
        assert!(warm_subspace_iteration(&b, &v0, 0, 2).is_err()); // k = 0
        assert!(warm_subspace_iteration(&b, &v0, 5, 2).is_err()); // k > k₀
        let v_wrong = Matrix::zeros(3, 2);
        assert!(warm_subspace_iteration(&b, &v_wrong, 1, 2).is_err()); // d mismatch
        let mut nan = Matrix::zeros(6, 4);
        nan[(0, 0)] = f64::NAN;
        assert!(warm_subspace_iteration(&nan, &v0, 2, 2).is_err());
    }

    #[test]
    fn subspace_iteration_full_k_equals_n() {
        let eigs = [4.0, 3.0, 2.0, 1.0];
        let (s, _) = synth_sym(4, &eigs, 5);
        let e = subspace_iteration(&s, 4, 60, 2).unwrap();
        for (got, want) in e.values.iter().zip(eigs.iter()) {
            assert!((got - want).abs() < 1e-7);
        }
    }
}

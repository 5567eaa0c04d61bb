//! Thin singular value decomposition.
//!
//! * [`right_factor`] — the *Gram route* and the only one production code
//!   runs: eigendecompose the smaller of `A Aᵀ` or `Aᵀ A` of a row prefix of
//!   `A` with the keep-aware solver (`crate::eigen::sym_eigenvalues` +
//!   `crate::eigen::sym_eigenvectors`) and return all `σ²` plus only the
//!   top-`keep` rows of `Vᵀ`. No `U`, no transpose, no completion of
//!   unresolved directions, and no allocation once its [`Workspace`] has
//!   been sized. For an `ℓ × d` sketch with ℓ ≤ d this costs `ℓ²d` for the
//!   register-tiled outer Gram, `ℓ³` multiply-adds for the full-storage
//!   tridiagonal reduction, `O(ℓ²)` for the eigenvalues, `O(ℓ²·keep)` for
//!   the kept eigenvectors (`O(ℓ³)` once keep exceeds ℓ/4) and `keep·ℓ·d`
//!   for `UᵀA`. It loses accuracy for singular values below `√ε·σ₁`, which
//!   is irrelevant for top-k extraction with k ≪ ℓ. This is what the
//!   frequent-directions shrink and the model refresh call.
//! * [`svd_thin`] / [`top_k_svd`] — thin wrappers over [`right_factor`] that
//!   add `U` and complete unresolved singular vectors to an orthonormal set,
//!   for the cold callers that want a full factorization.
//! * [`svd_jacobi`] — one-sided Jacobi on the columns; slower but accurate to
//!   full precision for all singular values. The reference implementation the
//!   tests hold the Gram route to.

use crate::eigen::{binary_exponent, sym_eigenvalues, sym_eigenvectors, unit_scale, EigenScratch};
use crate::error::{LinAlgError, Result};
use crate::matrix::{gram_into, matmul_rows_into, outer_gram_into, Matrix};
use crate::rng::{random_unit_vector, seeded_rng};
use crate::vecops;

/// Thin SVD `A = U diag(s) Vᵀ` with `U: m×r`, `s: r`, `Vᵀ: r×n`, `r = min(m,n)`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (columns).
    pub u: Matrix,
    /// Singular values in descending order (non-negative).
    pub s: Vec<f64>,
    /// Right singular vectors (rows of `vt`).
    pub vt: Matrix,
}

impl Svd {
    /// Reconstructs `U diag(s) Vᵀ`.
    pub fn reconstruct(&self) -> Matrix {
        let mut us = self.u.clone();
        for i in 0..us.rows() {
            for (j, &sv) in self.s.iter().enumerate() {
                us[(i, j)] *= sv;
            }
        }
        us.matmul(&self.vt).expect("shape by construction")
    }
}

/// [`svd_jacobi`]'s relative cutoff below which singular values are treated
/// as zero when recovering the paired factor. Jacobi works on `A` itself,
/// so it resolves singular values down to this.
const SIGMA_REL_TOL: f64 = 1e-10;

/// The Gram route's cutoff on `σᵢ²/σ₁²` for an `r × r` Gram matrix:
/// `4·r·ε`. The eigenvalues of a Gram matrix carry rounding of about
/// `r·ε·λ₁` from its reduction, so a direction whose `σᵢ²` lies below a few
/// times that — `σᵢ ≤ √(4·r·ε)·σ₁`, 3·10⁻⁸·σ₁ at `r = 1` and 3.4·10⁻⁷·σ₁ at
/// `r = 128` — is rounding, not signal, and its vector is noise.
fn gram_noise_floor(r: usize) -> f64 {
    4.0 * r as f64 * f64::EPSILON
}

/// Scratch and output storage of [`right_factor`].
///
/// A workspace is **scratch, never state**: every call overwrites all of it
/// before reading any of it, so a decomposition's bits depend on the input
/// alone — a reused workspace and a fresh one give identical results. Owners
/// (the frequent-directions sketch, the detector's refresh) keep one so the
/// kernel allocates nothing once the buffers have reached their shape.
/// Constructing one fixes the kernels' dispatch tier
/// ([`vecops::resolve_tier`]).
#[derive(Debug, Clone)]
pub struct Workspace {
    /// Gram matrix of the (scaled) input; the eigensolver leaves its
    /// Householder reflectors, or every eigenvector, here.
    z: Vec<f64>,
    /// The eigensolver's tridiagonal and permutation, and inverse
    /// iteration's eigenvalues, LU scratch and kept eigenvectors.
    eig: EigenScratch,
    /// Squared singular values of the scaled input, descending.
    sigma_sq: Vec<f64>,
    /// `keep × n` output block: the top right-singular vectors as rows.
    vt: Vec<f64>,
    /// Power-of-two-scaled copy of the input; stays empty unless the input's
    /// magnitude would overflow or underflow its Gram matrix.
    scaled: Vec<f64>,
    /// Bytes of the buffers above at the largest shape they have held.
    high_water: usize,
}

impl Default for Workspace {
    fn default() -> Self {
        vecops::resolve_tier();
        Self {
            z: Vec::new(),
            eig: EigenScratch::default(),
            sigma_sq: Vec::new(),
            vt: Vec::new(),
            scaled: Vec::new(),
            high_water: 0,
        }
    }
}

impl Workspace {
    /// A workspace already sized for `rows × cols` inputs keeping `keep`
    /// directions, so no [`right_factor`] call on that shape, or on a row
    /// prefix of it, allocates.
    pub fn for_shape(rows: usize, cols: usize, keep: usize) -> Self {
        let r = rows.min(cols);
        let mut ws = Self::default();
        ws.resize(r, keep.min(r), cols);
        ws
    }

    fn resize(&mut self, r: usize, keep: usize, cols: usize) {
        self.z.resize(r * r, 0.0);
        self.eig.resize(r, keep);
        self.sigma_sq.resize(r, 0.0);
        self.vt.resize(keep * cols, 0.0);
        self.note_high_water();
    }

    fn note_high_water(&mut self) {
        let f64s = self.z.len() + self.sigma_sq.len() + self.vt.len() + self.scaled.len();
        self.high_water = self.high_water.max(f64s * std::mem::size_of::<f64>());
    }

    /// Bytes of the buffers this workspace holds at the largest shape it has
    /// been sized for. A smaller shape — a row prefix, say — reuses those
    /// allocations, so the charge depends on that shape alone, not on what
    /// the last call decomposed or on the allocator's rounding.
    pub fn resident_bytes(&self) -> usize {
        self.high_water + self.eig.resident_bytes()
    }
}

/// What [`right_factor`] computed, borrowed from its [`Workspace`].
///
/// Singular values are held in *scaled* units together with the exact
/// power-of-two factor that undoes the scaling, so a caller that must stay
/// finite at the ends of the `f64` range (the frequent-directions shrink) can
/// do its arithmetic before unscaling; everyone else reads [`Self::sigma`].
#[derive(Debug)]
pub struct RightFactor<'w> {
    scaled_sigma_sq: &'w [f64],
    unscale: f64,
    resolved: usize,
    vt: &'w [f64],
    cols: usize,
}

impl<'w> RightFactor<'w> {
    /// `σᵢ²·s²` for every `i < min(m, n)`, descending and non-negative,
    /// where `s = 1 / self.unscale()` is the input scaling.
    pub fn scaled_sigma_sq(&self) -> &'w [f64] {
        self.scaled_sigma_sq
    }

    /// The power of two that maps scaled singular values back to the
    /// input's units: `σᵢ = √scaled_sigma_sq[i] · unscale`. Exactly `1.0`
    /// unless the input's largest magnitude lies outside `[2⁻⁴⁸⁰, 2⁵⁰⁰)`.
    pub fn unscale(&self) -> f64 {
        self.unscale
    }

    /// Singular value `σᵢ` (finite whenever `‖A‖_F` is).
    pub fn sigma(&self, i: usize) -> f64 {
        self.scaled_sigma_sq[i].sqrt() * self.unscale
    }

    /// Squared singular value `σᵢ²`; honestly `∞` or `0` when it leaves the
    /// `f64` range although `σᵢ` itself does not.
    pub fn sigma_sq(&self, i: usize) -> f64 {
        self.scaled_sigma_sq[i] * self.unscale * self.unscale
    }

    /// Number of leading directions with `σᵢ² > 4·r·ε·σ₁²`, where
    /// `r = min(m, n)` is the order of the Gram matrix: below that floor an
    /// eigenvalue of the Gram matrix is its own rounding error, so the Gram
    /// route cannot resolve the direction, and its row of `Vᵀ` is returned
    /// as zeros.
    pub fn resolved(&self) -> usize {
        self.resolved
    }

    /// Number of `Vᵀ` rows held (`min(keep, m, n)`).
    pub fn kept(&self) -> usize {
        self.vt.len() / self.cols
    }

    /// Row `i < kept()` of `Vᵀ`: the unit right-singular vector of `σᵢ`, or
    /// zeros when `i >= resolved()`.
    pub fn vt_row(&self, i: usize) -> &'w [f64] {
        &self.vt[i * self.cols..(i + 1) * self.cols]
    }

    /// All kept rows of `Vᵀ`, row-major `kept() × n`.
    pub fn vt(&self) -> &'w [f64] {
        self.vt
    }
}

/// The exact power of two [`right_factor`] multiplies its input by before
/// forming the Gram matrix: `1.0` while the largest magnitude lies in
/// `[2⁻⁴⁸⁰, 2⁵⁰⁰)` — squares summed over up to 2²⁴ terms stay finite, and
/// whatever underflows is below the rounding error of the largest entry —
/// otherwise the power that brings it to about 1.
fn gram_safe_scale(max_abs: f64) -> f64 {
    if max_abs == 0.0 || (-480..500).contains(&binary_exponent(max_abs)) {
        1.0
    } else {
        unit_scale(max_abs)
    }
}

/// The Gram-route kernel: all squared singular values of the first `rows`
/// rows of `a` (call that prefix `A`, `m × n`) and the top `keep` rows of
/// `Vᵀ`, through the smaller of `A Aᵀ` (`m ≤ n`) and `Aᵀ A`. Rows past the
/// prefix are never read, so a caller whose trailing rows are unoccupied
/// pays only for the occupied ones.
///
/// The eigensolver computes every eigenvalue but only the `keep` kept
/// eigenvectors (`sym_eigenvalues`, then `sym_eigenvectors`):
/// * `m > n`: the eigenvectors of `Aᵀ A` *are* the rows of `Vᵀ`, and are
///   written there directly.
/// * `m ≤ n`: they are the rows of `Uᵀ`; only `keep` rows of `Uᵀ A` are
///   formed (a `keep × m` by `m × n` product) and normalized.
///
/// Directions with `σᵢ ≤ √(4·r·ε)·σ₁` (`r = min(m, n)`) are not resolved by
/// a Gram route; their rows come back as zeros (see
/// [`RightFactor::resolved`]) — callers that need an orthonormal completion
/// use [`svd_thin`].
///
/// The input is pre-scaled by an exact power of two when its largest
/// magnitude lies outside `[2⁻⁴⁸⁰, 2⁵⁰⁰)`, so the Gram matrix neither
/// overflows nor underflows and **every finite input decomposes**; within
/// that window no copy is made (outside it the workspace grows, once, by a
/// scaled copy of the input). `keep` is clamped to `min(m, n)`.
///
/// # Errors
/// * [`LinAlgError::EmptyInput`] for an empty prefix or zero columns.
/// * [`LinAlgError::ShapeMismatch`] when `rows > a.rows()`.
/// * [`LinAlgError::NotFinite`] for NaN/inf input.
/// * Propagates [`LinAlgError::NoConvergence`] from the eigensolver
///   (practically unreachable for symmetric input).
pub fn right_factor<'w>(
    a: &Matrix,
    rows: usize,
    keep: usize,
    ws: &'w mut Workspace,
) -> Result<RightFactor<'w>> {
    let (m, n) = (rows, a.cols());
    if m > a.rows() {
        return Err(LinAlgError::ShapeMismatch {
            expected: (a.rows(), n),
            got: (m, n),
            op: "right_factor",
        });
    }
    if m == 0 || n == 0 {
        return Err(LinAlgError::EmptyInput { op: "right_factor" });
    }
    let prefix = &a.as_slice()[..m * n];
    let (max_abs, finite) = vecops::max_abs_finite(prefix);
    if !finite {
        return Err(LinAlgError::NotFinite { op: "right_factor" });
    }

    let wide = m <= n;
    let r = m.min(n);
    let keep = keep.min(r);
    ws.resize(r, keep, n);

    let scale = gram_safe_scale(max_abs);
    let src: &[f64] = if scale == 1.0 {
        prefix
    } else {
        ws.scaled.clear();
        ws.scaled.extend(prefix.iter().map(|&v| v * scale));
        ws.note_high_water();
        &ws.scaled
    };
    if wide {
        outer_gram_into(src, m, n, &mut ws.z);
    } else {
        gram_into(src, m, n, &mut ws.z);
    }
    sym_eigenvalues(&mut ws.z, &mut ws.sigma_sq, keep, &mut ws.eig)?;
    for l in &mut ws.sigma_sq {
        *l = l.max(0.0);
    }

    let floor = gram_noise_floor(r) * ws.sigma_sq[0];
    let resolved = ws.sigma_sq.iter().take_while(|&&l| l > floor).count();
    let live = keep.min(resolved);
    let eigenvectors = sym_eigenvectors(&ws.z, live, &mut ws.eig);
    let (top, rest) = ws.vt.split_at_mut(live * n);
    if wide {
        // Row i of Uᵀ·A is σᵢ·vᵢᵀ.
        top.fill(0.0);
        matmul_rows_into(|i| &eigenvectors[i * r..(i + 1) * r], live, src, n, top);
        for (row, &l) in top.chunks_exact_mut(n).zip(ws.sigma_sq.iter()) {
            vecops::scale(1.0 / l.sqrt(), row);
        }
    } else {
        top.copy_from_slice(eigenvectors);
    }
    rest.fill(0.0);

    Ok(RightFactor {
        scaled_sigma_sq: &ws.sigma_sq,
        unscale: 1.0 / scale,
        resolved,
        vt: &ws.vt,
        cols: n,
    })
}

/// The cold wrapper behind [`svd_thin`] and [`top_k_svd`]: the top `keep`
/// triplets from [`right_factor`], with `U = A·V·Σ⁻¹` added and unresolved
/// singular vectors on both sides completed to orthonormal sets.
fn svd_top(a: &Matrix, keep: usize) -> Result<Svd> {
    let mut ws = Workspace::default();
    let rf = right_factor(a, a.rows(), keep, &mut ws)?;
    let kept = rf.kept();
    let s: Vec<f64> = (0..kept).map(|i| rf.sigma(i)).collect();
    let mut vt = Matrix::from_vec(kept, a.cols(), rf.vt().to_vec())?;
    let degenerate: Vec<usize> = (rf.resolved().min(kept)..kept).collect();
    complete_rows(&mut vt, &degenerate, 0x5eed_57d0);

    // Column j of A·V is σⱼ·uⱼ.
    let mut u = a.matmul_nt(&vt)?;
    for j in 0..kept - degenerate.len() {
        let inv = 1.0 / s[j];
        for i in 0..u.rows() {
            u[(i, j)] *= inv;
        }
    }
    complete_cols(&mut u, &degenerate, 0x5eed_57d1);
    Ok(Svd { u, s, vt })
}

/// Thin SVD via the Gram route (default, fast for ℓ ≪ d sketches): every
/// triplet of [`right_factor`], plus `U` and the orthonormal completion.
///
/// # Errors
/// * [`LinAlgError::EmptyInput`] for an empty matrix.
/// * [`LinAlgError::NotFinite`] for NaN/inf input.
/// * Propagates eigensolver failures.
pub fn svd_thin(a: &Matrix) -> Result<Svd> {
    svd_top(a, a.rows().min(a.cols()))
}

/// Thin SVD of `a` truncated to the top `k` triplets (`k` is clamped to
/// `min(m, n)`); only those `k` singular vectors are formed.
///
/// # Errors
/// See [`svd_thin`]; additionally `k = 0` is invalid.
pub fn top_k_svd(a: &Matrix, k: usize) -> Result<Svd> {
    if k == 0 {
        return Err(LinAlgError::InvalidParameter {
            op: "top_k_svd",
            message: "k must be positive",
        });
    }
    svd_top(a, k)
}

/// Maximum one-sided Jacobi sweeps.
const MAX_ONESIDED_SWEEPS: usize = 64;

/// Thin SVD via one-sided Jacobi rotations (reference implementation).
///
/// # Errors
/// Same conditions as [`svd_thin`], plus [`LinAlgError::NoConvergence`] when
/// the sweep budget is exhausted.
pub fn svd_jacobi(a: &Matrix) -> Result<Svd> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Err(LinAlgError::EmptyInput { op: "svd_jacobi" });
    }
    if !a.all_finite() {
        return Err(LinAlgError::NotFinite { op: "svd_jacobi" });
    }
    if m < n {
        // Work on the transpose and swap the factors.
        let svd = svd_jacobi(&a.transpose())?;
        return Ok(Svd {
            u: svd.vt.transpose(),
            s: svd.s,
            vt: svd.u.transpose(),
        });
    }

    let mut b = a.clone(); // m×n, columns will be rotated to orthogonality
    let mut v = Matrix::identity(n);
    let eps = 1e-15;

    let mut converged = false;
    for _sweep in 0..MAX_ONESIDED_SWEEPS {
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                let mut alpha = 0.0;
                let mut beta = 0.0;
                let mut gamma = 0.0;
                for i in 0..m {
                    let bp = b[(i, p)];
                    let bq = b[(i, q)];
                    alpha += bp * bp;
                    beta += bq * bq;
                    gamma += bp * bq;
                }
                if gamma.abs() <= eps * (alpha * beta).sqrt() || gamma == 0.0 {
                    continue;
                }
                rotated = true;
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = {
                    let sign = if zeta >= 0.0 { 1.0 } else { -1.0 };
                    sign / (zeta.abs() + (1.0 + zeta * zeta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s_rot = c * t;
                for i in 0..m {
                    let bp = b[(i, p)];
                    let bq = b[(i, q)];
                    b[(i, p)] = c * bp - s_rot * bq;
                    b[(i, q)] = s_rot * bp + c * bq;
                }
                for i in 0..n {
                    let vp = v[(i, p)];
                    let vq = v[(i, q)];
                    v[(i, p)] = c * vp - s_rot * vq;
                    v[(i, q)] = s_rot * vp + c * vq;
                }
            }
        }
        if !rotated {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(LinAlgError::NoConvergence {
            op: "svd_jacobi",
            iterations: MAX_ONESIDED_SWEEPS,
        });
    }

    // Extract singular values (column norms) and sort descending.
    let mut sigma: Vec<(f64, usize)> = (0..n)
        .map(|j| {
            let norm = (0..m).map(|i| b[(i, j)] * b[(i, j)]).sum::<f64>().sqrt();
            (norm, j)
        })
        .collect();
    sigma.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite norms"));

    let s: Vec<f64> = sigma.iter().map(|&(v, _)| v).collect();
    let sigma_max = s.first().copied().unwrap_or(0.0);
    let tol = SIGMA_REL_TOL * sigma_max.max(f64::MIN_POSITIVE);

    let mut u = Matrix::zeros(m, n);
    let mut vt = Matrix::zeros(n, n);
    let mut degenerate_u = Vec::new();
    for (new_j, &(norm, old_j)) in sigma.iter().enumerate() {
        if norm > tol {
            let inv = 1.0 / norm;
            for i in 0..m {
                u[(i, new_j)] = b[(i, old_j)] * inv;
            }
        } else {
            degenerate_u.push(new_j);
        }
        for i in 0..n {
            vt[(new_j, i)] = v[(i, old_j)];
        }
    }
    complete_cols(&mut u, &degenerate_u, 0x5eed_57d2);

    Ok(Svd { u, s, vt })
}

/// Replaces the rows listed in `degenerate` with unit vectors orthonormal to
/// all other rows (deterministic given `seed`).
fn complete_rows(m: &mut Matrix, degenerate: &[usize], seed: u64) {
    if degenerate.is_empty() {
        return;
    }
    let mut rng = seeded_rng(seed);
    let cols = m.cols();
    // Rows still pending replacement: must not be orthogonalized against,
    // since they hold stale (unnormalized) data. Once filled, a degenerate
    // row becomes a valid basis row for subsequent candidates.
    let mut pending: Vec<usize> = degenerate.to_vec();
    for &row in degenerate {
        loop {
            let mut cand = random_unit_vector(&mut rng, cols);
            // Two Gram–Schmidt passes for robustness.
            for _ in 0..2 {
                for other in 0..m.rows() {
                    if pending.contains(&other) {
                        continue;
                    }
                    let c = vecops::dot(&cand, m.row(other));
                    let other_row = m.row(other).to_vec();
                    vecops::axpy(-c, &other_row, &mut cand);
                }
            }
            if vecops::normalize(&mut cand) > 1e-8 {
                m.set_row(row, &cand);
                pending.retain(|&r| r != row);
                break;
            }
        }
    }
}

/// Replaces the columns listed in `degenerate` with unit vectors orthonormal
/// to all other columns (deterministic given `seed`).
fn complete_cols(m: &mut Matrix, degenerate: &[usize], seed: u64) {
    if degenerate.is_empty() {
        return;
    }
    let mut t = m.transpose();
    complete_rows(&mut t, degenerate, seed);
    *m = t.transpose();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{gaussian_matrix, random_orthonormal_rows, seeded_rng};

    fn check_svd(a: &Matrix, svd: &Svd, tol: f64) {
        let (m, n) = a.shape();
        let r = m.min(n);
        assert_eq!(svd.u.shape(), (m, r));
        assert_eq!(svd.s.len(), r);
        assert_eq!(svd.vt.shape(), (r, n));
        // Non-negative, descending.
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "not descending: {:?}", svd.s);
        }
        assert!(svd.s.iter().all(|&v| v >= 0.0));
        // Reconstruction.
        let rec = svd.reconstruct();
        let err = rec.sub(a).unwrap().max_abs();
        assert!(err < tol, "reconstruction error {err} (tol {tol})");
        // Orthonormality.
        let utu = svd.u.tr_matmul(&svd.u).unwrap();
        assert!(utu.sub(&Matrix::identity(r)).unwrap().max_abs() < tol);
        let vvt = svd.vt.matmul(&svd.vt.transpose()).unwrap();
        assert!(vvt.sub(&Matrix::identity(r)).unwrap().max_abs() < tol);
    }

    #[test]
    fn svd_thin_wide_random() {
        let mut rng = seeded_rng(101);
        let a = gaussian_matrix(&mut rng, 12, 40, 1.0);
        let svd = svd_thin(&a).unwrap();
        check_svd(&a, &svd, 1e-8);
    }

    #[test]
    fn svd_thin_tall_random() {
        let mut rng = seeded_rng(102);
        let a = gaussian_matrix(&mut rng, 40, 12, 1.0);
        let svd = svd_thin(&a).unwrap();
        check_svd(&a, &svd, 1e-8);
    }

    #[test]
    fn svd_thin_square_random() {
        let mut rng = seeded_rng(103);
        let a = gaussian_matrix(&mut rng, 15, 15, 2.0);
        let svd = svd_thin(&a).unwrap();
        check_svd(&a, &svd, 1e-8);
    }

    /// A fixed, full-rank `m × n` pattern with entries in `[-mag, mag]` (the
    /// phase is quadratic in the index: a linear one has rank 2).
    fn pattern(m: usize, n: usize, mag: f64) -> Matrix {
        let data = (0..m * n)
            .map(|i| mag * ((i * i * 7 + 3) as f64 * 0.61).sin())
            .collect();
        Matrix::from_vec(m, n, data).unwrap()
    }

    #[test]
    fn right_factor_decomposes_every_finite_magnitude() {
        // Entries near 2^±540 overflow / underflow their own squares, so an
        // unscaled Gram matrix is all ∞ / all 0. Scaling by an exact power
        // of two makes the decomposition the unit-magnitude one, bit for bit.
        for (m, n) in [(5usize, 9usize), (9, 5)] {
            let mut ws = Workspace::default();
            let base = right_factor(&pattern(m, n, 1.0), m, 3, &mut ws).unwrap();
            let (base_sigma, base_vt) = (
                (0..5).map(|i| base.sigma(i)).collect::<Vec<_>>(),
                base.vt().to_vec(),
            );
            assert_eq!(base.unscale(), 1.0);
            for exp in [540i32, -570, 1000, -1010] {
                let mag = 2f64.powi(exp);
                let mut ws = Workspace::default();
                let rf = right_factor(&pattern(m, n, mag), m, 3, &mut ws).unwrap();
                assert_ne!(rf.unscale(), 1.0, "2^{exp} must be rescaled");
                assert_eq!(rf.resolved(), 5);
                assert_eq!(rf.vt(), &base_vt[..], "{m}x{n} at 2^{exp}");
                for (i, &want) in base_sigma.iter().enumerate() {
                    assert_eq!(rf.sigma(i), want * mag, "{m}x{n} σ{i} at 2^{exp}");
                }
                // σ² leaves the f64 range although σ does not: honest ∞ / 0.
                let s2 = rf.sigma_sq(0);
                assert!(s2 == if exp > 0 { f64::INFINITY } else { 0.0 }, "σ² = {s2}");
            }
        }
    }

    #[test]
    fn right_factor_rejects_empty_and_non_finite() {
        let mut ws = Workspace::default();
        assert!(right_factor(&Matrix::zeros(0, 3), 0, 1, &mut ws).is_err());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut a = pattern(4, 6, 1.0);
            a[(2, 3)] = bad;
            assert!(matches!(
                right_factor(&a, 4, 2, &mut ws),
                Err(LinAlgError::NotFinite { .. })
            ));
        }
        // The failed calls leave the workspace usable.
        assert!(right_factor(&pattern(4, 6, 1.0), 4, 2, &mut ws).is_ok());
    }

    #[test]
    fn right_factor_zero_matrix_resolves_nothing() {
        let mut ws = Workspace::default();
        let rf = right_factor(&Matrix::zeros(3, 5), 3, 2, &mut ws).unwrap();
        assert_eq!(rf.resolved(), 0);
        assert_eq!(rf.kept(), 2);
        assert!(rf.scaled_sigma_sq().iter().all(|&l| l == 0.0));
        assert!(rf.vt().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn presized_workspace_does_not_grow() {
        let mut ws = Workspace::for_shape(8, 10, 4);
        let before = ws.resident_bytes();
        // r = 8 keeping 4 carries every vector through QL: 64 Gram cells,
        // σ², the tridiagonal's two 8-vectors, a 4 × 10 output block and
        // eight permutation indices.
        assert_eq!(
            before,
            (64 + 8 + 2 * 8 + 40) * 8 + 8 * std::mem::size_of::<usize>()
        );
        let a = pattern(8, 10, 1.0);
        for rows in [8, 3, 8] {
            right_factor(&a, rows, 4, &mut ws).unwrap();
            assert_eq!(ws.resident_bytes(), before, "after {rows} rows");
        }

        // r = 16 keeping 2 takes inverse iteration, which adds its
        // eigenvalues, four LU vectors, 16 pivot flags and the 2 × 16 kept
        // eigenvectors; a 5-row prefix carries every vector instead.
        let mut ws = Workspace::for_shape(16, 20, 2);
        let before = ws.resident_bytes();
        assert_eq!(
            before,
            (256 + 16 + 7 * 16 + 32 + 40) * 8 + 16 + 16 * std::mem::size_of::<usize>()
        );
        let a = pattern(16, 20, 1.0);
        for rows in [16, 5, 16] {
            right_factor(&a, rows, 2, &mut ws).unwrap();
            assert_eq!(ws.resident_bytes(), before, "after {rows} rows");
        }
    }

    #[test]
    fn right_factor_reads_only_the_row_prefix() {
        // Rows past the prefix are never read: the factor of a prefix is the
        // factor of that prefix copied out, bit for bit, on both routes.
        let a = pattern(9, 5, 1.0);
        for rows in [1usize, 3, 5, 7, 9] {
            let mut padded = a.clone();
            for i in rows..9 {
                padded.row_mut(i).fill(f64::NAN);
            }
            let (mut ws1, mut ws2) = (Workspace::default(), Workspace::default());
            let got = right_factor(&padded, rows, 3, &mut ws1).unwrap();
            let want = right_factor(&a.top_rows(rows), rows, 3, &mut ws2).unwrap();
            assert_eq!(got.scaled_sigma_sq(), want.scaled_sigma_sq());
            assert_eq!(got.scaled_sigma_sq().len(), rows.min(5));
            assert_eq!(got.vt(), want.vt(), "{rows} rows");
        }
        let mut ws = Workspace::default();
        assert!(matches!(
            right_factor(&a, 10, 3, &mut ws),
            Err(LinAlgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn svd_known_diagonal() {
        let a = Matrix::from_diag(&[3.0, 5.0, 1.0]);
        let svd = svd_thin(&a).unwrap();
        assert!((svd.s[0] - 5.0).abs() < 1e-10);
        assert!((svd.s[1] - 3.0).abs() < 1e-10);
        assert!((svd.s[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn svd_rank_deficient_completes_basis() {
        // Rank-1 matrix, 3×4: remaining singular vectors must still be orthonormal.
        let mut a = Matrix::zeros(3, 4);
        for j in 0..4 {
            a[(0, j)] = 1.0;
            a[(1, j)] = 2.0;
            a[(2, j)] = -1.0;
        }
        let svd = svd_thin(&a).unwrap();
        check_svd(&a, &svd, 1e-8);
        assert!(svd.s[1..].iter().all(|&v| v <= 1e-8 * svd.s[0]));
    }

    #[test]
    fn svd_zero_matrix() {
        let a = Matrix::zeros(3, 5);
        let svd = svd_thin(&a).unwrap();
        assert!(svd.s.iter().all(|&v| v == 0.0));
        // Completed singular vectors remain orthonormal.
        let utu = svd.u.tr_matmul(&svd.u).unwrap();
        assert!(utu.sub(&Matrix::identity(3)).unwrap().max_abs() < 1e-8);
    }

    #[test]
    fn svd_jacobi_matches_gram_route() {
        let mut rng = seeded_rng(104);
        let a = gaussian_matrix(&mut rng, 10, 24, 1.0);
        let s1 = svd_thin(&a).unwrap();
        let s2 = svd_jacobi(&a).unwrap();
        check_svd(&a, &s2, 1e-9);
        for (a1, a2) in s1.s.iter().zip(s2.s.iter()) {
            assert!((a1 - a2).abs() < 1e-7, "σ mismatch {a1} vs {a2}");
        }
    }

    #[test]
    fn svd_jacobi_tall() {
        let mut rng = seeded_rng(105);
        let a = gaussian_matrix(&mut rng, 30, 8, 1.0);
        let svd = svd_jacobi(&a).unwrap();
        check_svd(&a, &svd, 1e-9);
    }

    #[test]
    fn singular_values_match_gram_eigenvalues() {
        let mut rng = seeded_rng(106);
        let a = gaussian_matrix(&mut rng, 9, 20, 1.0);
        let svd = svd_thin(&a).unwrap();
        let g = a.gram();
        let eig = crate::eigen::jacobi_eigen_sym(&g).unwrap();
        for i in 0..9 {
            let want = eig.values[i].max(0.0).sqrt();
            assert!((svd.s[i] - want).abs() < 1e-7);
        }
    }

    #[test]
    fn truncate_keeps_top_triplets() {
        let mut rng = seeded_rng(107);
        let a = gaussian_matrix(&mut rng, 10, 10, 1.0);
        let svd = svd_thin(&a).unwrap();
        let t = top_k_svd(&a, 3).unwrap();
        assert_eq!(t.s.len(), 3);
        assert_eq!(t.u.shape(), (10, 3));
        assert_eq!(t.vt.shape(), (3, 10));
        for (got, want) in t.s.iter().zip(&svd.s[..3]) {
            assert!((got - want).abs() <= 1e-10 * want, "{got} vs {want}");
        }
        // Asking beyond r clamps.
        let t2 = top_k_svd(&a, 99).unwrap();
        assert_eq!(t2.s.len(), 10);
    }

    #[test]
    fn top_k_svd_low_rank_recovery() {
        // Planted rank-3 matrix: top-3 SVD must reconstruct it.
        let mut rng = seeded_rng(108);
        let u = random_orthonormal_rows(&mut rng, 3, 20).transpose(); // 20×3
        let vt = random_orthonormal_rows(&mut rng, 3, 30); // 3×30
        let d = Matrix::from_diag(&[10.0, 5.0, 2.0]);
        let a = u.matmul(&d).unwrap().matmul(&vt).unwrap();
        let svd = top_k_svd(&a, 3).unwrap();
        assert!((svd.s[0] - 10.0).abs() < 1e-8);
        assert!((svd.s[1] - 5.0).abs() < 1e-8);
        assert!((svd.s[2] - 2.0).abs() < 1e-8);
        let rec = svd.reconstruct();
        assert!(rec.sub(&a).unwrap().max_abs() < 1e-8);
    }

    #[test]
    fn top_k_rejects_zero_k() {
        assert!(top_k_svd(&Matrix::identity(3), 0).is_err());
    }

    #[test]
    fn svd_rejects_empty_and_nan() {
        assert!(svd_thin(&Matrix::zeros(0, 2)).is_err());
        let mut a = Matrix::identity(2);
        a[(0, 0)] = f64::INFINITY;
        assert!(svd_thin(&a).is_err());
        assert!(svd_jacobi(&a).is_err());
    }
}

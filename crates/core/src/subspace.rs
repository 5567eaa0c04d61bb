//! The rank-k subspace model and the two anomaly scores of the paper.
//!
//! Normal points are assumed to lie near the span of the top-k right
//! singular vectors of the (sketched) history matrix. Given the model
//! `(V_k, σ_1..σ_k)`:
//!
//! * **projection distance** `proj_k(y) = ‖y‖² − Σ_{j≤k}(v_j·y)²` — the
//!   squared residual after projecting onto the normal subspace; large for
//!   points outside it;
//! * **leverage score** `lev_k(y) = Σ_{j≤k}(v_j·y)²/σ_j²` — the statistical
//!   influence of the point along the dominant directions; large for points
//!   that are extreme *within* the subspace.
//!
//! The blended score combines both, which catches anomalies of either kind.

use sketchad_linalg::svd::{right_factor, RightFactor, Workspace};
use sketchad_linalg::vecops;
use sketchad_linalg::{LinAlgError, Matrix, SparseVec};

use crate::score::ScoreKind;

/// Relative σ cutoff: directions with `σ_j ≤ RELATIVE_SIGMA_FLOOR·σ_1` are
/// excluded from the leverage sum to avoid division blow-ups.
const RELATIVE_SIGMA_FLOOR: f64 = 1e-8;

/// Caller-reusable scratch for the batched scoring path.
///
/// Holds the staged point matrix (for callers that feed rows one at a time),
/// the `batch × k` coefficient block `Y·V_kᵀ` and the points' `‖y‖²`.
/// Reusing one scratch across batches makes steady-state batch scoring
/// allocation-free.
#[derive(Debug, Clone)]
pub struct ScoreScratch {
    /// Staging area for row-slice inputs (see
    /// [`SubspaceModel::score_rows_into`]).
    batch: Matrix,
    /// Row-major `batch × k` coefficient matrix `C = Y·V_kᵀ`.
    coeffs: Vec<f64>,
    /// `‖y‖²` of each point of the batch.
    norms_sq: Vec<f64>,
}

impl Default for ScoreScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl ScoreScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self {
            batch: Matrix::zeros(0, 0),
            coeffs: Vec::new(),
            norms_sq: Vec::new(),
        }
    }
}

/// A rank-k model of the "normal" subspace.
///
/// Serializable (serde): a trained model can be persisted and later served
/// for score-only inference (see the `sketchad apply` CLI subcommand).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SubspaceModel {
    /// `k × d` matrix whose rows are the top-k right singular vectors.
    vt: Matrix,
    /// Top-k singular values (descending, non-negative).
    sigma: Vec<f64>,
    /// Total squared Frobenius mass of the matrix the model was built from.
    total_energy: f64,
    /// Number of stream rows the model summarizes (for diagnostics).
    rows_represented: u64,
}

impl SubspaceModel {
    /// Builds a model from the top-k SVD of a (sketch) matrix `b`.
    ///
    /// `rows_represented` is bookkeeping carried through for diagnostics —
    /// pass the number of stream rows folded into `b`.
    ///
    /// The model always has `min(k, rows, cols)` basis rows; directions the
    /// Gram-route SVD cannot resolve (`σ_j ≤ 10⁻¹⁰·σ_1`, e.g. past the rank
    /// of a rank-deficient sketch) are zero rows with `σ_j ≈ 0`, so they
    /// contribute to neither score.
    ///
    /// # Errors
    /// Propagates SVD failures; `k = 0` or an empty `b` is invalid.
    pub fn from_matrix(b: &Matrix, k: usize, rows_represented: u64) -> Result<Self, LinAlgError> {
        Self::from_matrix_in(b, k, rows_represented, &mut Workspace::default())
    }

    /// [`from_matrix`](Self::from_matrix) on a caller-owned decomposition
    /// [`Workspace`]: a detector that refreshes repeatedly keeps one, and the
    /// only allocations left per refresh are the model's own `k × d` basis
    /// and `k` singular values. The workspace is scratch — the model's bits
    /// do not depend on what it held.
    ///
    /// # Errors
    /// Same conditions as [`from_matrix`](Self::from_matrix).
    pub fn from_matrix_in(
        b: &Matrix,
        k: usize,
        rows_represented: u64,
        workspace: &mut Workspace,
    ) -> Result<Self, LinAlgError> {
        let rf = right_factor(b, b.rows(), k.min(b.rows()), workspace)?;
        Self::from_right_factor(
            &rf,
            k,
            b.rows(),
            b.squared_frobenius_norm(),
            rows_represented,
        )
    }

    /// The one constructor behind every cold build: reads the top
    /// `min(k, rows, d)` directions off a decomposition somebody already
    /// ran — [`from_matrix_in`](Self::from_matrix_in)'s own, or the one a
    /// sketch hands out through `MatrixSketch::refresh_factor`. `rows` is the
    /// row count of the decomposed matrix and `total_energy` its `‖·‖_F²`;
    /// `factor` must hold at least `min(k, rows, d)` rows of `Vᵀ`. The only
    /// allocations are the model's own basis and singular values.
    ///
    /// # Errors
    /// `k = 0` is invalid, and so is a matrix of no rows.
    pub(crate) fn from_right_factor(
        factor: &RightFactor<'_>,
        k: usize,
        rows: usize,
        total_energy: f64,
        rows_represented: u64,
    ) -> Result<Self, LinAlgError> {
        // `kept() ≤ d`, so this is min(k, rows, d) whenever enough rows of
        // Vᵀ were kept.
        let k_eff = k.min(rows).min(factor.kept());
        if k_eff == 0 {
            return Err(LinAlgError::InvalidParameter {
                op: "SubspaceModel::from_right_factor",
                message: "k and the row count must be positive",
            });
        }
        let d = factor.vt_row(0).len();
        Ok(Self {
            vt: Matrix::from_vec(k_eff, d, factor.vt()[..k_eff * d].to_vec())?,
            sigma: (0..k_eff).map(|j| factor.sigma(j)).collect(),
            total_energy,
            rows_represented,
        })
    }

    /// Builds a model directly from eigenpairs of a covariance matrix
    /// (`values` are eigenvalues of `AᵀA`, i.e. squared singular values;
    /// `vectors` has eigenvectors in columns). Used by the exact baseline.
    ///
    /// # Panics
    /// Panics when `values.len() != vectors.cols()`.
    pub(crate) fn from_covariance_eigen(
        values: &[f64],
        vectors: &Matrix,
        total_energy: f64,
        rows_represented: u64,
    ) -> Self {
        assert_eq!(values.len(), vectors.cols(), "eigenpair count mismatch");
        let sigma: Vec<f64> = values.iter().map(|&l| l.max(0.0).sqrt()).collect();
        Self {
            vt: vectors.transpose(),
            sigma,
            total_energy,
            rows_represented,
        }
    }

    /// Reassembles a model from its stored parts (the persistence path:
    /// the durable tier snapshots `basis`/`sigma`/`total_energy`/
    /// `rows_represented` and must restore the model **bitwise**, which a
    /// rebuild via SVD would not guarantee).
    ///
    /// # Panics
    /// Panics when `sigma.len() != vt.rows()`.
    pub(crate) fn from_parts(
        vt: Matrix,
        sigma: Vec<f64>,
        total_energy: f64,
        rows_represented: u64,
    ) -> Self {
        assert_eq!(
            sigma.len(),
            vt.rows(),
            "singular value count must match basis rows"
        );
        Self {
            vt,
            sigma,
            total_energy,
            rows_represented,
        }
    }

    /// Model rank k.
    pub fn k(&self) -> usize {
        self.sigma.len()
    }

    /// Ambient dimension d.
    pub fn dim(&self) -> usize {
        self.vt.cols()
    }

    /// Top-k singular values.
    pub fn sigma(&self) -> &[f64] {
        &self.sigma
    }

    /// The `k × d` right-singular-vector matrix (rows are basis vectors).
    pub fn basis(&self) -> &Matrix {
        &self.vt
    }

    /// Number of stream rows summarized by this model.
    pub fn rows_represented(&self) -> u64 {
        self.rows_represented
    }

    /// Total squared Frobenius mass of the matrix the model was built from
    /// (the denominator of [`energy_captured`](Self::energy_captured)).
    pub fn total_energy(&self) -> f64 {
        self.total_energy
    }

    /// Fraction of total energy captured by the k directions
    /// (`Σσ_j² / ‖B‖_F²`); 1.0 when the source matrix was exactly rank ≤ k.
    pub fn energy_captured(&self) -> f64 {
        if self.total_energy <= 0.0 {
            return 1.0;
        }
        let top: f64 = self.sigma.iter().map(|s| s * s).sum();
        (top / self.total_energy).min(1.0)
    }

    /// Squared projection distance
    /// `proj_k(y) = ‖y‖² − Σ_{j≤k}(v_j·y)²` (clamped at 0).
    ///
    /// # Examples
    /// A model spanning the first two axes of `R⁴` with `σ = (2, 1)`: for
    /// `y = (1, 0, 2, 0)` the captured energy is `(v_1·y)² = 1`, so
    /// `proj_k(y) = ‖y‖² − 1 = 5 − 1 = 4`. This is exactly what
    /// [`ScoreKind::ProjectionDistance`](crate::ScoreKind) evaluates.
    ///
    /// ```
    /// use sketchad_core::{ScoreKind, SubspaceModel};
    /// use sketchad_linalg::Matrix;
    ///
    /// let mut b = Matrix::zeros(2, 4);
    /// b[(0, 0)] = 2.0;
    /// b[(1, 1)] = 1.0;
    /// let model = SubspaceModel::from_matrix(&b, 2, 10).unwrap();
    /// let y = [1.0, 0.0, 2.0, 0.0];
    /// assert!((model.projection_distance_sq(&y) - 4.0).abs() < 1e-12);
    /// assert_eq!(
    ///     ScoreKind::ProjectionDistance.evaluate(&model, &y),
    ///     model.projection_distance_sq(&y),
    /// );
    /// ```
    ///
    /// # Panics
    /// Panics when `y.len() != dim()`.
    pub fn projection_distance_sq(&self, y: &[f64]) -> f64 {
        proj_sq(vecops::norm2_sq(y), self.coeffs(y))
    }

    /// Relative projection distance `proj² / ‖y‖²` in `[0, 1]`; 0 for the
    /// zero vector (which carries no evidence either way).
    pub fn relative_projection_distance(&self, y: &[f64]) -> f64 {
        rel_proj(vecops::norm2_sq(y), self.coeffs(y))
    }

    /// Rank-k leverage score `lev_k(y) = Σ_{j≤k}(v_j·y)²/σ_j²`, skipping
    /// numerically vanished directions.
    ///
    /// # Examples
    /// With the axes model `σ = (2, 1)`, the point `y = (1, 1, 0, 0)` has
    /// `lev_k(y) = 1²/2² + 1²/1² = 1.25` — the same quantity
    /// [`ScoreKind::Leverage`](crate::ScoreKind) evaluates.
    ///
    /// ```
    /// use sketchad_core::{ScoreKind, SubspaceModel};
    /// use sketchad_linalg::Matrix;
    ///
    /// let mut b = Matrix::zeros(2, 4);
    /// b[(0, 0)] = 2.0;
    /// b[(1, 1)] = 1.0;
    /// let model = SubspaceModel::from_matrix(&b, 2, 10).unwrap();
    /// let y = [1.0, 1.0, 0.0, 0.0];
    /// assert!((model.leverage_score(&y) - 1.25).abs() < 1e-12);
    /// assert_eq!(
    ///     ScoreKind::Leverage.evaluate(&model, &y),
    ///     model.leverage_score(&y),
    /// );
    /// ```
    ///
    /// # Panics
    /// Panics when `y.len() != dim()`.
    pub fn leverage_score(&self, y: &[f64]) -> f64 {
        self.leverage(self.coeffs(y))
    }

    /// Blended score `relative_projection + beta·standardized_leverage`:
    /// sensitive to points outside the subspace *and* to extremes within it.
    /// With standardized leverage ≈ 1 for normal points, `beta ≈ 0.1` makes
    /// both terms comparably scaled.
    pub(crate) fn blended_score(&self, y: &[f64], beta: f64) -> f64 {
        self.score_from(
            ScoreKind::Blended { beta },
            vecops::norm2_sq(y),
            self.coeffs(y),
        )
    }

    /// The coefficients `v_j·y`, `j < k`, computed as they are consumed.
    fn coeffs<'a>(&'a self, y: &'a [f64]) -> impl Iterator<Item = f64> + Clone + 'a {
        (0..self.k()).map(move |j| vecops::dot(self.vt.row(j), y))
    }

    /// Assembles the score of one point from its `‖y‖²` and its
    /// coefficients `v_j·y`. Both the per-point methods and the batched
    /// kernel end here, so a batched score is the per-point one bit for bit
    /// whenever its inputs are.
    fn score_from(
        &self,
        kind: ScoreKind,
        norm_sq: f64,
        coeffs: impl Iterator<Item = f64> + Clone,
    ) -> f64 {
        match kind {
            ScoreKind::ProjectionDistance => proj_sq(norm_sq, coeffs),
            ScoreKind::RelativeProjection => rel_proj(norm_sq, coeffs),
            ScoreKind::Leverage => self.leverage(coeffs),
            ScoreKind::Blended { beta } => {
                let std_lev = self.standardize(self.leverage(coeffs.clone()));
                rel_proj(norm_sq, coeffs) + beta * std_lev
            }
        }
    }

    /// `lev_k` from the coefficients, skipping numerically vanished
    /// directions.
    fn leverage(&self, coeffs: impl Iterator<Item = f64>) -> f64 {
        let sigma_max = self.sigma.first().copied().unwrap_or(0.0);
        let floor = RELATIVE_SIGMA_FLOOR * sigma_max;
        let mut lev = 0.0;
        for (&s, c) in self.sigma.iter().zip(coeffs) {
            if s <= floor {
                break; // descending order: the rest are also below the floor
            }
            lev += (c * c) / (s * s);
        }
        lev
    }

    /// Standardized leverage: `rows_represented · lev / k`.
    ///
    /// Raw leverage shrinks like `1/n` as the stream grows (σ_j² scales with
    /// the number of accumulated rows), so it cannot be combined with the
    /// scale-free projection score directly. The standardized form has
    /// expectation ≈ 1 for points drawn from the normal model, independent
    /// of both stream length and model rank.
    fn standardize(&self, lev: f64) -> f64 {
        let n = self.rows_represented.max(1) as f64;
        n * lev / self.k().max(1) as f64
    }

    /// Batched scoring: evaluates `kind` for every row of the row-major
    /// block `rows` (`rows.len() / dim()` points) in one pass.
    ///
    /// One [`vecops::block_dots`] dispatch sweeps the block once and writes
    /// the `batch × k` coefficient matrix `C = Y·V_kᵀ` and every point's
    /// `‖y‖²` into `scratch`; the scores are then assembled from those
    /// `k + 1` numbers per point, so the points are read once. Every output
    /// is **bitwise identical** to the corresponding per-point method
    /// ([`Self::projection_distance_sq`] and friends): each kernel output is
    /// the bits of [`vecops::dot`], and both paths assemble the score in one
    /// shared function. Serving layers rely on this to micro-batch without
    /// changing any emitted score.
    ///
    /// `out` is cleared and refilled; `scratch` is reused across calls so
    /// steady-state batch scoring performs no allocation.
    ///
    /// # Panics
    /// Panics when `rows.len()` is not a multiple of `dim()`.
    pub fn score_block_into(
        &self,
        rows: &[f64],
        kind: ScoreKind,
        scratch: &mut ScoreScratch,
        out: &mut Vec<f64>,
    ) {
        self.score_block(rows, kind, &mut scratch.coeffs, &mut scratch.norms_sq, out);
    }

    /// [`Self::score_block_into`] over the rows of a matrix.
    ///
    /// # Panics
    /// Panics when `ys.cols() != dim()` (for a non-empty batch).
    pub(crate) fn score_batch_into(
        &self,
        ys: &Matrix,
        kind: ScoreKind,
        scratch: &mut ScoreScratch,
        out: &mut Vec<f64>,
    ) {
        if ys.rows() > 0 {
            assert_eq!(ys.cols(), self.dim(), "batch point dimension mismatch");
        }
        self.score_block_into(ys.as_slice(), kind, scratch, out);
    }

    /// Scores every row of `ys` under `kind` into a fresh vector, bitwise
    /// identical to scoring each row alone.
    ///
    /// # Panics
    /// Panics when `ys.cols() != dim()` (for a non-empty batch).
    pub fn score_batch(
        &self,
        ys: &Matrix,
        kind: ScoreKind,
        scratch: &mut ScoreScratch,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        self.score_batch_into(ys, kind, scratch, &mut out);
        out
    }

    /// Batched scoring over a slice of rows: stages the rows into
    /// `scratch`'s reusable matrix, then runs [`Self::score_block_into`].
    ///
    /// # Panics
    /// Panics when any row's length differs from `dim()`.
    pub fn score_rows_into(
        &self,
        rows: &[Vec<f64>],
        kind: ScoreKind,
        scratch: &mut ScoreScratch,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        if rows.is_empty() {
            return;
        }
        scratch.batch.clear_rows();
        for r in rows {
            scratch.batch.push_row(r);
        }
        assert_eq!(
            scratch.batch.cols(),
            self.dim(),
            "batch point dimension mismatch"
        );
        self.score_block(
            scratch.batch.as_slice(),
            kind,
            &mut scratch.coeffs,
            &mut scratch.norms_sq,
            out,
        );
    }

    /// The one batched kernel under the entry points above: one
    /// [`vecops::block_dots`] dispatch writes every point's `k` coefficients
    /// and `‖y‖²`, then each score is assembled from those alone.
    fn score_block(
        &self,
        rows: &[f64],
        kind: ScoreKind,
        coeffs: &mut Vec<f64>,
        norms_sq: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        let d = self.dim();
        assert_eq!(rows.len() % d, 0, "batch point dimension mismatch");
        let b = rows.len() / d;
        let k = self.k();
        coeffs.resize(b * k, 0.0);
        norms_sq.resize(b, 0.0);
        vecops::block_dots(self.vt.as_slice(), k, rows, d, coeffs, norms_sq);
        out.extend(norms_sq.iter().enumerate().map(|(i, &norm_sq)| {
            let c = &coeffs[i * k..(i + 1) * k];
            self.score_from(kind, norm_sq, c.iter().copied())
        }));
    }

    /// Sparse-input projection distance: `O(k·nnz)`.
    ///
    /// # Panics
    /// Panics when `y.dim() != dim()`.
    pub(crate) fn projection_distance_sq_sparse(&self, y: &SparseVec) -> f64 {
        proj_sq(y.norm2_sq(), self.sparse_coeffs(y))
    }

    /// Sparse-input relative projection distance in `[0, 1]`.
    ///
    /// # Panics
    /// Panics when `y.dim() != dim()`.
    pub(crate) fn relative_projection_distance_sparse(&self, y: &SparseVec) -> f64 {
        rel_proj(y.norm2_sq(), self.sparse_coeffs(y))
    }

    /// Sparse-input leverage score: `O(k·nnz)`.
    ///
    /// # Panics
    /// Panics when `y.dim() != dim()`.
    pub(crate) fn leverage_score_sparse(&self, y: &SparseVec) -> f64 {
        self.leverage(self.sparse_coeffs(y))
    }

    /// Sparse-input standardized leverage (see [`Self::standardize`]).
    pub(crate) fn standardized_leverage_sparse(&self, y: &SparseVec) -> f64 {
        self.standardize(self.leverage_score_sparse(y))
    }

    /// [`Self::coeffs`] of a sparse point, `O(nnz)` each.
    fn sparse_coeffs<'a>(&'a self, y: &'a SparseVec) -> impl Iterator<Item = f64> + Clone + 'a {
        assert_eq!(y.dim(), self.dim(), "sparse point dimension mismatch");
        (0..self.k()).map(move |j| y.dot_dense(self.vt.row(j)))
    }

    /// Projects `y` onto the normal subspace, returning the reconstruction
    /// `V_k V_kᵀ y` (useful for explaining which components were expected).
    pub fn reconstruct(&self, y: &[f64]) -> Vec<f64> {
        let coeffs = self.vt.matvec(y); // k coefficients
        self.vt.tr_matvec(&coeffs)
    }

    /// Per-dimension residual `y − V_k V_kᵀ y` (explainability: which
    /// coordinates drive the anomaly score).
    pub fn residual(&self, y: &[f64]) -> Vec<f64> {
        let rec = self.reconstruct(y);
        vecops::sub(y, &rec)
    }
}

/// `proj_k = ‖y‖² − Σ c_j²`, clamped at 0.
fn proj_sq(norm_sq: f64, coeffs: impl Iterator<Item = f64>) -> f64 {
    let mut captured = 0.0;
    for c in coeffs {
        captured += c * c;
    }
    (norm_sq - captured).max(0.0)
}

/// `proj_k / ‖y‖²` in `[0, 1]`; 0 for the zero vector, whose coefficients
/// are then never computed.
fn rel_proj(norm_sq: f64, coeffs: impl Iterator<Item = f64>) -> f64 {
    if norm_sq <= 0.0 {
        return 0.0;
    }
    (proj_sq(norm_sq, coeffs) / norm_sq).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchad_linalg::rng::{random_orthonormal_rows, seeded_rng};

    /// A model spanning the first two coordinate axes in R^4, σ = (2, 1).
    fn axis_model() -> SubspaceModel {
        let mut b = Matrix::zeros(2, 4);
        b[(0, 0)] = 2.0;
        b[(1, 1)] = 1.0;
        SubspaceModel::from_matrix(&b, 2, 10).unwrap()
    }

    #[test]
    fn projection_distance_in_and_out_of_subspace() {
        let m = axis_model();
        // In-subspace point: zero residual.
        assert!(m.projection_distance_sq(&[3.0, 4.0, 0.0, 0.0]) < 1e-12);
        // Orthogonal point: full norm.
        assert!((m.projection_distance_sq(&[0.0, 0.0, 3.0, 4.0]) - 25.0).abs() < 1e-12);
        // Mixed point.
        let p = m.projection_distance_sq(&[1.0, 0.0, 2.0, 0.0]);
        assert!((p - 4.0).abs() < 1e-12);
    }

    #[test]
    fn relative_projection_is_bounded() {
        let m = axis_model();
        assert_eq!(m.relative_projection_distance(&[0.0; 4]), 0.0);
        let r = m.relative_projection_distance(&[0.0, 0.0, 1.0, 0.0]);
        assert!((r - 1.0).abs() < 1e-12);
        let r = m.relative_projection_distance(&[1.0, 0.0, 1.0, 0.0]);
        assert!((r - 0.5).abs() < 1e-12);
    }

    #[test]
    fn leverage_scales_with_inverse_sigma() {
        let m = axis_model();
        // Along v1 (σ=2): leverage = 1/4 per unit². Along v2 (σ=1): 1.
        let l1 = m.leverage_score(&[1.0, 0.0, 0.0, 0.0]);
        let l2 = m.leverage_score(&[0.0, 1.0, 0.0, 0.0]);
        assert!((l1 - 0.25).abs() < 1e-12);
        assert!((l2 - 1.0).abs() < 1e-12);
        // Orthogonal directions carry no leverage.
        assert!(m.leverage_score(&[0.0, 0.0, 5.0, 0.0]) < 1e-12);
    }

    #[test]
    fn leverage_skips_vanished_directions() {
        let mut b = Matrix::zeros(2, 3);
        b[(0, 0)] = 1.0; // rank-1: second singular value is 0
        let m = SubspaceModel::from_matrix(&b, 2, 1).unwrap();
        let l = m.leverage_score(&[1.0, 1.0, 1.0]);
        assert!(l.is_finite());
        assert!((l - 1.0).abs() < 1e-9, "leverage {l}");
    }

    #[test]
    fn blended_combines_both_terms() {
        let m = axis_model();
        let y = [0.0, 2.0, 2.0, 0.0]; // half in-subspace (lev 4), half out
        let blended = m.blended_score(&y, 0.5);
        let expect = m.relative_projection_distance(&y) + 0.5 * m.standardize(m.leverage_score(&y));
        assert!((blended - expect).abs() < 1e-12);
    }

    #[test]
    fn standardized_leverage_is_scale_free_in_n() {
        // Two models of the same subspace built from streams of different
        // lengths: σ² scales with n, so raw leverage differs but the
        // standardized form matches.
        let mut b_small = Matrix::zeros(2, 4);
        b_small[(0, 0)] = 2.0;
        b_small[(1, 1)] = 1.0;
        let mut b_large = b_small.clone();
        b_large.scale_mut(10.0); // σ scaled by 10 ⇒ σ² by 100
        let m_small = SubspaceModel::from_matrix(&b_small, 2, 10).unwrap();
        let m_large = SubspaceModel::from_matrix(&b_large, 2, 1000).unwrap();
        let y = [1.0, 0.5, 0.0, 0.0];
        let s = m_small.standardize(m_small.leverage_score(&y));
        let l = m_large.standardize(m_large.leverage_score(&y));
        assert!((s - l).abs() < 1e-10, "{s} vs {l}");
    }

    #[test]
    fn reconstruction_and_residual_are_complementary() {
        let mut rng = seeded_rng(3);
        let basis = random_orthonormal_rows(&mut rng, 3, 8);
        let mut b = basis.clone();
        for (i, s) in [4.0, 2.0, 1.0].iter().enumerate() {
            for v in b.row_mut(i) {
                *v *= s;
            }
        }
        let m = SubspaceModel::from_matrix(&b, 3, 5).unwrap();
        let y: Vec<f64> = (0..8).map(|i| (i as f64).cos()).collect();
        let rec = m.reconstruct(&y);
        let res = m.residual(&y);
        for i in 0..8 {
            assert!((rec[i] + res[i] - y[i]).abs() < 1e-10);
        }
        // Residual is orthogonal to the basis.
        for j in 0..3 {
            let d = vecops::dot(&res, m.basis().row(j));
            assert!(d.abs() < 1e-9);
        }
        // ‖res‖² equals the projection distance.
        assert!((vecops::norm2_sq(&res) - m.projection_distance_sq(&y)).abs() < 1e-9);
    }

    #[test]
    fn energy_captured_full_for_exact_rank() {
        let m = axis_model();
        assert!((m.energy_captured() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn k_clamps_to_matrix_rank_dims() {
        let b = Matrix::identity(3);
        let m = SubspaceModel::from_matrix(&b, 10, 3).unwrap();
        assert_eq!(m.k(), 3);
        assert_eq!(m.dim(), 3);
        assert_eq!(m.rows_represented(), 3);
    }

    #[test]
    fn invalid_inputs_error() {
        assert!(SubspaceModel::from_matrix(&Matrix::zeros(0, 4), 2, 0).is_err());
        assert!(SubspaceModel::from_matrix(&Matrix::identity(2), 0, 0).is_err());
    }

    #[test]
    fn serde_roundtrip_preserves_scores() {
        let mut rng = seeded_rng(77);
        let b = sketchad_linalg::rng::gaussian_matrix(&mut rng, 6, 9, 1.0);
        let model = SubspaceModel::from_matrix(&b, 3, 42).unwrap();
        let json = serde_json::to_string(&model).unwrap();
        let back: SubspaceModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back.k(), model.k());
        assert_eq!(back.dim(), model.dim());
        assert_eq!(back.rows_represented(), 42);
        for p in 0..5 {
            let y: Vec<f64> = (0..9).map(|i| ((i * p + 1) as f64).sin()).collect();
            assert_eq!(
                back.projection_distance_sq(&y),
                model.projection_distance_sq(&y)
            );
            assert_eq!(back.leverage_score(&y), model.leverage_score(&y));
            assert_eq!(back.blended_score(&y, 0.1), model.blended_score(&y, 0.1));
        }
    }

    #[test]
    fn corrupt_matrix_payload_rejected() {
        // A Matrix JSON with inconsistent shape must fail to deserialize.
        let bad = r#"{"rows":2,"cols":3,"data":[1.0,2.0]}"#;
        assert!(serde_json::from_str::<Matrix>(bad).is_err());
        let good = r#"{"rows":1,"cols":2,"data":[1.0,2.0]}"#;
        assert!(serde_json::from_str::<Matrix>(good).is_ok());
    }

    #[test]
    fn batch_scores_are_bitwise_identical_to_per_point() {
        let mut rng = seeded_rng(17);
        // Non-trivial model: random 40×12 data, rank-5 subspace.
        let a = sketchad_linalg::rng::gaussian_matrix(&mut rng, 40, 12, 1.0);
        let model = SubspaceModel::from_matrix(&a, 5, 40).unwrap();
        // Batch crossing a 4-row blocking and including a zero row.
        let mut ys = sketchad_linalg::rng::gaussian_matrix(&mut rng, 23, 12, 2.0);
        for c in 0..12 {
            ys[(7, c)] = 0.0;
        }
        let kinds = [
            ScoreKind::ProjectionDistance,
            ScoreKind::RelativeProjection,
            ScoreKind::Leverage,
            ScoreKind::Blended { beta: 0.1 },
        ];
        let mut scratch = ScoreScratch::new();
        let mut out = Vec::new();
        for kind in kinds {
            model.score_batch_into(&ys, kind, &mut scratch, &mut out);
            assert_eq!(out.len(), ys.rows());
            for (i, &got) in out.iter().enumerate() {
                let per_point = kind.evaluate(&model, ys.row(i));
                assert_eq!(
                    got.to_bits(),
                    per_point.to_bits(),
                    "{} row {i}: batch {got} vs per-point {per_point}",
                    kind.label(),
                );
            }
            // The row-slice staging path must agree bit for bit too.
            let rows: Vec<Vec<f64>> = (0..ys.rows()).map(|i| ys.row(i).to_vec()).collect();
            let mut out2 = Vec::new();
            model.score_rows_into(&rows, kind, &mut scratch, &mut out2);
            assert_eq!(out, out2);
        }
        // Empty batch clears the output and does nothing else.
        model.score_batch_into(
            &Matrix::zeros(0, 0),
            ScoreKind::default(),
            &mut scratch,
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn batch_scoring_rejects_wrong_dimension() {
        let m = axis_model();
        let mut scratch = ScoreScratch::new();
        let mut out = Vec::new();
        m.score_batch_into(
            &Matrix::zeros(2, 7),
            ScoreKind::default(),
            &mut scratch,
            &mut out,
        );
    }

    #[test]
    fn from_covariance_eigen_matches_from_matrix() {
        let mut rng = seeded_rng(8);
        let a = sketchad_linalg::rng::gaussian_matrix(&mut rng, 50, 6, 1.0);
        let m1 = SubspaceModel::from_matrix(&a, 3, 50).unwrap();
        let cov = a.gram();
        let eig = sketchad_linalg::eigen::jacobi_eigen_sym(&cov).unwrap();
        let vecs = {
            // top-3 eigenvector columns
            let mut v = Matrix::zeros(6, 3);
            for c in 0..3 {
                for r in 0..6 {
                    v[(r, c)] = eig.vectors[(r, c)];
                }
            }
            v
        };
        let m2 = SubspaceModel::from_covariance_eigen(
            &eig.values[..3],
            &vecs,
            a.squared_frobenius_norm(),
            50,
        );
        // Scores agree on probe points (bases may differ by sign).
        for p in 0..5 {
            let y: Vec<f64> = (0..6).map(|i| ((i + p) as f64).sin()).collect();
            let d1 = m1.projection_distance_sq(&y);
            let d2 = m2.projection_distance_sq(&y);
            assert!((d1 - d2).abs() < 1e-8, "probe {p}: {d1} vs {d2}");
            let l1 = m1.leverage_score(&y);
            let l2 = m2.leverage_score(&y);
            assert!((l1 - l2).abs() / l1.max(1e-9) < 1e-6);
        }
    }
}

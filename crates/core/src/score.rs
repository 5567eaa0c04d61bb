//! Score-family selection.
//!
//! [`ScoreKind`] names the anomaly scores of the paper and dispatches to
//! the [`SubspaceModel`] methods that compute them:
//!
//! * `proj_k(y) = ‖y‖² − Σ_{j≤k}(v_j·y)²` — [`ScoreKind::ProjectionDistance`]
//! * `proj_k(y)/‖y‖²` — [`ScoreKind::RelativeProjection`] (the default)
//! * `lev_k(y) = Σ_{j≤k}(v_j·y)²/σ_j²` — [`ScoreKind::Leverage`]
//! * both combined — [`ScoreKind::Blended`]
//!
//! ```
//! use sketchad_core::{ScoreKind, SubspaceModel};
//! use sketchad_linalg::Matrix;
//!
//! // Model spanning the first two axes of R⁴ with σ = (2, 1).
//! let mut b = Matrix::zeros(2, 4);
//! b[(0, 0)] = 2.0;
//! b[(1, 1)] = 1.0;
//! let model = SubspaceModel::from_matrix(&b, 2, 10).unwrap();
//!
//! // y = (0, 1, 2, 0): ‖y‖² = 5, captured (v_2·y)² = 1.
//! let y = [0.0, 1.0, 2.0, 0.0];
//! // proj_k(y) = 5 − 1 = 4
//! assert!((ScoreKind::ProjectionDistance.evaluate(&model, &y) - 4.0).abs() < 1e-12);
//! // proj_k(y)/‖y‖² = 4/5
//! assert!((ScoreKind::RelativeProjection.evaluate(&model, &y) - 0.8).abs() < 1e-12);
//! // lev_k(y) = 0²/2² + 1²/1² = 1
//! assert!((ScoreKind::Leverage.evaluate(&model, &y) - 1.0).abs() < 1e-12);
//! ```

use crate::subspace::SubspaceModel;

/// Which anomaly score a detector emits.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ScoreKind {
    /// Squared residual after projection onto the normal subspace
    /// (absolute scale — sensitive to point magnitude).
    ProjectionDistance,
    /// Residual energy fraction `proj²/‖y‖²` in `[0, 1]`
    /// (scale-free; the paper's headline score and our default).
    #[default]
    RelativeProjection,
    /// Rank-k leverage score (catches extremes *inside* the subspace).
    Leverage,
    /// `relative_projection + beta · standardized_leverage` — standardized
    /// leverage has expectation ≈ 1 for normal points, so `beta ≈ 0.1`
    /// balances the two terms.
    Blended {
        /// Weight on the standardized-leverage term.
        beta: f64,
    },
}

impl ScoreKind {
    /// Evaluates this score for `y` under `model`.
    pub fn evaluate(&self, model: &SubspaceModel, y: &[f64]) -> f64 {
        match *self {
            ScoreKind::ProjectionDistance => model.projection_distance_sq(y),
            ScoreKind::RelativeProjection => model.relative_projection_distance(y),
            ScoreKind::Leverage => model.leverage_score(y),
            ScoreKind::Blended { beta } => model.blended_score(y, beta),
        }
    }

    /// Evaluates this score for a sparse point (`O(k·nnz)` for the
    /// projection/leverage families).
    pub(crate) fn evaluate_sparse(
        &self,
        model: &SubspaceModel,
        y: &sketchad_linalg::SparseVec,
    ) -> f64 {
        match *self {
            ScoreKind::ProjectionDistance => model.projection_distance_sq_sparse(y),
            ScoreKind::RelativeProjection => model.relative_projection_distance_sparse(y),
            ScoreKind::Leverage => model.leverage_score_sparse(y),
            ScoreKind::Blended { beta } => {
                model.relative_projection_distance_sparse(y)
                    + beta * model.standardized_leverage_sparse(y)
            }
        }
    }

    /// Short identifier used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            ScoreKind::ProjectionDistance => "proj",
            ScoreKind::RelativeProjection => "rel-proj",
            ScoreKind::Leverage => "leverage",
            ScoreKind::Blended { .. } => "blended",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchad_linalg::Matrix;

    fn model() -> SubspaceModel {
        let mut b = Matrix::zeros(1, 3);
        b[(0, 0)] = 2.0;
        SubspaceModel::from_matrix(&b, 1, 1).unwrap()
    }

    #[test]
    fn evaluate_dispatches_to_model() {
        let m = model();
        let y = [1.0, 1.0, 0.0];
        assert_eq!(
            ScoreKind::ProjectionDistance.evaluate(&m, &y),
            m.projection_distance_sq(&y)
        );
        assert_eq!(
            ScoreKind::RelativeProjection.evaluate(&m, &y),
            m.relative_projection_distance(&y)
        );
        assert_eq!(ScoreKind::Leverage.evaluate(&m, &y), m.leverage_score(&y));
        assert_eq!(
            ScoreKind::Blended { beta: 0.3 }.evaluate(&m, &y),
            m.blended_score(&y, 0.3)
        );
    }

    #[test]
    fn default_is_relative_projection() {
        assert_eq!(ScoreKind::default(), ScoreKind::RelativeProjection);
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            ScoreKind::ProjectionDistance.label(),
            ScoreKind::RelativeProjection.label(),
            ScoreKind::Leverage.label(),
            ScoreKind::Blended { beta: 1.0 }.label(),
        ];
        for i in 0..labels.len() {
            for j in (i + 1)..labels.len() {
                assert_ne!(labels[i], labels[j]);
            }
        }
    }
}

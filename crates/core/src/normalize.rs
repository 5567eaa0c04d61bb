//! Online feature normalization.
//!
//! Subspace scores are dominated by whichever raw feature has the largest
//! scale, so heterogeneous streams (e.g. packet counts next to durations)
//! should be standardized first. [`OnlineNormalizer`] keeps Welford running
//! moments per dimension and z-scores each point against the *past only*;
//! [`NormalizedDetector`] composes it in front of any detector.

use crate::detector::StreamingDetector;

/// Per-dimension streaming z-score normalizer.
#[derive(Debug, Clone)]
pub(crate) struct OnlineNormalizer {
    mean: Vec<f64>,
    m2: Vec<f64>,
    count: u64,
}

impl OnlineNormalizer {
    /// Creates a normalizer over `dim` dimensions.
    pub(crate) fn new(dim: usize) -> Self {
        Self {
            mean: vec![0.0; dim],
            m2: vec![0.0; dim],
            count: 0,
        }
    }

    /// Dimensionality.
    pub(crate) fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Z-scores `y` against the running moments *without* updating them.
    /// Before two observations have been seen the input is passed through
    /// unchanged (no meaningful variance exists yet).
    ///
    /// # Panics
    /// Panics when `y.len() != dim()`.
    pub(crate) fn transform(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.dim(), "point dimension mismatch");
        if self.count < 2 {
            return y.to_vec();
        }
        let n = self.count as f64;
        y.iter()
            .enumerate()
            .map(|(i, &v)| {
                let var = self.m2[i] / (n - 1.0);
                (v - self.mean[i]) / (var.sqrt() + 1e-9)
            })
            .collect()
    }

    /// Absorbs one observation into the running moments.
    ///
    /// # Panics
    /// Panics when `y.len() != dim()`.
    pub(crate) fn update(&mut self, y: &[f64]) {
        assert_eq!(y.len(), self.dim(), "point dimension mismatch");
        self.count += 1;
        let n = self.count as f64;
        for (i, &yi) in y.iter().enumerate() {
            let delta = yi - self.mean[i];
            self.mean[i] += delta / n;
            let delta2 = yi - self.mean[i];
            self.m2[i] += delta * delta2;
        }
    }

    /// Convenience: transform then update.
    pub(crate) fn transform_and_update(&mut self, y: &[f64]) -> Vec<f64> {
        let out = self.transform(y);
        self.update(y);
        out
    }
}

/// Composes a normalizer in front of any streaming detector.
#[derive(Debug, Clone)]
pub struct NormalizedDetector<D: StreamingDetector> {
    normalizer: OnlineNormalizer,
    inner: D,
}

impl<D: StreamingDetector> NormalizedDetector<D> {
    /// Wraps `inner` with online z-scoring.
    pub fn new(inner: D) -> Self {
        let dim = inner.dim();
        Self {
            normalizer: OnlineNormalizer::new(dim),
            inner,
        }
    }
}

impl<D: StreamingDetector> StreamingDetector for NormalizedDetector<D> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn process(&mut self, y: &[f64]) -> f64 {
        let z = self.normalizer.transform_and_update(y);
        self.inner.process(&z)
    }

    fn processed(&self) -> u64 {
        self.inner.processed()
    }

    fn is_warmed_up(&self) -> bool {
        self.inner.is_warmed_up()
    }

    fn name(&self) -> String {
        format!("norm+{}", self.inner.name())
    }

    fn score_only(&self, y: &[f64]) -> Option<f64> {
        self.inner.score_only(&self.normalizer.transform(y))
    }

    fn current_model(&self) -> Option<&crate::subspace::SubspaceModel> {
        // Note: the model lives in *normalized* space; a saved model must be
        // applied to normalized inputs.
        self.inner.current_model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::MeanDistanceDetector;
    use sketchad_linalg::rng::{gaussian, seeded_rng};

    #[test]
    fn moments_match_batch_computation() {
        let mut rng = seeded_rng(40);
        let data: Vec<Vec<f64>> = (0..500)
            .map(|_| {
                vec![
                    3.0 + 2.0 * gaussian(&mut rng),
                    -1.0 + 0.5 * gaussian(&mut rng),
                ]
            })
            .collect();
        let mut norm = OnlineNormalizer::new(2);
        for y in &data {
            norm.update(y);
        }
        let n = data.len() as f64;
        for dim in 0..2 {
            let mean: f64 = data.iter().map(|y| y[dim]).sum::<f64>() / n;
            let var: f64 = data.iter().map(|y| (y[dim] - mean).powi(2)).sum::<f64>() / (n - 1.0);
            assert!((norm.mean[dim] - mean).abs() < 1e-10);
            assert!((norm.m2[dim] / (n - 1.0) - var).abs() < 1e-9);
        }
    }

    #[test]
    fn transform_standardizes() {
        let mut norm = OnlineNormalizer::new(1);
        for i in 0..100 {
            norm.update(&[10.0 + (i % 2) as f64]); // mean 10.5, sd ≈ 0.5
        }
        let z = norm.transform(&[10.5]);
        assert!(z[0].abs() < 1e-6);
        let z = norm.transform(&[11.5]);
        assert!((z[0] - 2.0).abs() < 0.05, "z {z:?}");
    }

    #[test]
    fn early_points_pass_through() {
        let mut norm = OnlineNormalizer::new(2);
        assert_eq!(norm.transform(&[5.0, -3.0]), vec![5.0, -3.0]);
        norm.update(&[1.0, 1.0]);
        assert_eq!(norm.transform(&[5.0, -3.0]), vec![5.0, -3.0]);
    }

    #[test]
    fn zero_variance_dimension_is_safe() {
        let mut norm = OnlineNormalizer::new(1);
        for _ in 0..10 {
            norm.update(&[7.0]);
        }
        let z = norm.transform(&[7.0]);
        assert!(z[0].is_finite() && z[0].abs() < 1e-6);
        let z = norm.transform(&[8.0]);
        assert!(z[0].is_finite());
    }

    #[test]
    fn wrapper_delegates_and_renames() {
        let inner = MeanDistanceDetector::new(2, 5);
        let mut det = NormalizedDetector::new(inner);
        assert_eq!(det.dim(), 2);
        assert!(det.name().starts_with("norm+"));
        for _ in 0..10 {
            det.process(&[1.0, 2.0]);
        }
        assert_eq!(det.processed(), 10);
        assert!(det.is_warmed_up());
    }
}

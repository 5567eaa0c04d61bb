//! The exact-SVD baselines the paper compares its sketches against.
//!
//! * [`ExactSvdDetector`] — maintains the full `d × d` covariance of the
//!   stream and extracts the top-k eigenpairs on refresh. This is the "gold
//!   standard" the sketched detectors try to match in accuracy: `O(d²)`
//!   memory, `O(d²)` per point, `O(d²·k·iters)` per refresh.
//! * [`ExactWindowedDetector`] — stores the last `W` raw points and
//!   recomputes the window subspace on refresh: the gold standard under
//!   drift, at `O(W·d)` memory.

use std::collections::VecDeque;

use sketchad_linalg::eigen::subspace_iteration;
use sketchad_linalg::Matrix;

use crate::detector::StreamingDetector;
use crate::score::ScoreKind;
use crate::subspace::SubspaceModel;

/// Default iterations for the top-k eigensolver on refresh.
const DEFAULT_EIG_ITERS: usize = 40;

/// Full-covariance exact subspace detector (global history).
#[derive(Debug, Clone)]
pub struct ExactSvdDetector {
    cov: Matrix,
    trace: f64,
    k: usize,
    score: ScoreKind,
    refresh_period: usize,
    warmup: usize,
    model: Option<SubspaceModel>,
    since_refresh: usize,
    processed: u64,
    seed: u64,
    eig_iters: usize,
}

impl ExactSvdDetector {
    /// Creates the exact detector.
    ///
    /// # Panics
    /// Panics when `k == 0` or `k > dim`.
    pub fn new(
        dim: usize,
        k: usize,
        score: ScoreKind,
        refresh_period: usize,
        warmup: usize,
    ) -> Self {
        assert!(k > 0 && k <= dim, "require 1 <= k <= d (k={k}, d={dim})");
        Self {
            cov: Matrix::zeros(dim, dim),
            trace: 0.0,
            k,
            score,
            refresh_period: refresh_period.max(1),
            warmup,
            model: None,
            since_refresh: 0,
            processed: 0,
            seed: 0xeac7,
            eig_iters: DEFAULT_EIG_ITERS,
        }
    }

    /// Overrides the subspace-iteration count used on refresh (runtime
    /// experiments trade eigenpair accuracy for speed).
    ///
    /// # Panics
    /// Panics when `iters == 0`.
    pub fn with_eig_iters(mut self, iters: usize) -> Self {
        assert!(iters > 0, "eigensolver iterations must be positive");
        self.eig_iters = iters;
        self
    }

    fn rebuild(&mut self) {
        if self.trace <= 0.0 {
            return;
        }
        if let Ok(eig) = subspace_iteration(&self.cov, self.k, self.eig_iters, self.seed) {
            self.model = Some(SubspaceModel::from_covariance_eigen(
                &eig.values,
                &eig.vectors,
                self.trace,
                self.processed,
            ));
            self.since_refresh = 0;
        }
    }
}

impl StreamingDetector for ExactSvdDetector {
    fn dim(&self) -> usize {
        self.cov.rows()
    }

    fn process(&mut self, y: &[f64]) -> f64 {
        assert_eq!(y.len(), self.dim(), "point dimension mismatch");
        let score = if self.is_warmed_up() {
            self.model
                .as_ref()
                .map(|m| self.score.evaluate(m, y))
                .unwrap_or(0.0)
        } else {
            0.0
        };

        // Rank-one covariance update: C += y yᵀ (upper triangle + mirror).
        let d = self.dim();
        for i in 0..d {
            let yi = y[i];
            if yi == 0.0 {
                continue;
            }
            let row = self.cov.row_mut(i);
            for j in 0..d {
                row[j] += yi * y[j];
            }
        }
        self.trace += y.iter().map(|v| v * v).sum::<f64>();
        self.processed += 1;
        self.since_refresh += 1;

        let warmup_just_done = self.processed as usize == self.warmup.max(1);
        if (self.model.is_none() && warmup_just_done)
            || (self.since_refresh >= self.refresh_period && self.processed as usize >= self.warmup)
        {
            self.rebuild();
        }
        score
    }

    fn processed(&self) -> u64 {
        self.processed
    }

    fn is_warmed_up(&self) -> bool {
        self.processed as usize >= self.warmup && self.model.is_some()
    }

    fn name(&self) -> String {
        format!("exact-svd[k={},{}]", self.k, self.score.label())
    }

    fn current_model(&self) -> Option<&SubspaceModel> {
        self.model.as_ref()
    }

    fn score_only(&self, y: &[f64]) -> Option<f64> {
        if !self.is_warmed_up() {
            return None;
        }
        self.model.as_ref().map(|m| self.score.evaluate(m, y))
    }
}

/// Exact sliding-window detector: keeps the last `window` raw rows.
#[derive(Debug, Clone)]
pub struct ExactWindowedDetector {
    window: VecDeque<Vec<f64>>,
    window_len: usize,
    dim: usize,
    k: usize,
    score: ScoreKind,
    refresh_period: usize,
    warmup: usize,
    model: Option<SubspaceModel>,
    since_refresh: usize,
    processed: u64,
}

impl ExactWindowedDetector {
    /// Creates a windowed exact detector over the last `window_len` rows.
    ///
    /// # Panics
    /// Panics when `k == 0`, `k > dim`, or `window_len == 0`.
    pub fn new(
        dim: usize,
        k: usize,
        window_len: usize,
        score: ScoreKind,
        refresh_period: usize,
        warmup: usize,
    ) -> Self {
        assert!(k > 0 && k <= dim, "require 1 <= k <= d");
        assert!(window_len > 0, "window must be positive");
        Self {
            window: VecDeque::with_capacity(window_len),
            window_len,
            dim,
            k,
            score,
            refresh_period: refresh_period.max(1),
            warmup,
            model: None,
            since_refresh: 0,
            processed: 0,
        }
    }

    fn rebuild(&mut self) {
        if self.window.is_empty() {
            return;
        }
        let rows: Vec<Vec<f64>> = self.window.iter().cloned().collect();
        let a = Matrix::from_rows(&rows).expect("window rows share dimension");
        if let Ok(m) = SubspaceModel::from_matrix(&a, self.k, self.processed) {
            self.model = Some(m);
            self.since_refresh = 0;
        }
    }
}

impl StreamingDetector for ExactWindowedDetector {
    fn dim(&self) -> usize {
        self.dim
    }

    fn process(&mut self, y: &[f64]) -> f64 {
        assert_eq!(y.len(), self.dim, "point dimension mismatch");
        let score = if self.is_warmed_up() {
            self.model
                .as_ref()
                .map(|m| self.score.evaluate(m, y))
                .unwrap_or(0.0)
        } else {
            0.0
        };

        if self.window.len() == self.window_len {
            self.window.pop_front();
        }
        self.window.push_back(y.to_vec());
        self.processed += 1;
        self.since_refresh += 1;

        let warmup_just_done = self.processed as usize == self.warmup.max(1);
        if (self.model.is_none() && warmup_just_done)
            || (self.since_refresh >= self.refresh_period && self.processed as usize >= self.warmup)
        {
            self.rebuild();
        }
        score
    }

    fn processed(&self) -> u64 {
        self.processed
    }

    fn is_warmed_up(&self) -> bool {
        self.processed as usize >= self.warmup && self.model.is_some()
    }

    fn name(&self) -> String {
        format!("exact-window[k={},W={}]", self.k, self.window_len)
    }

    fn current_model(&self) -> Option<&SubspaceModel> {
        self.model.as_ref()
    }

    fn score_only(&self, y: &[f64]) -> Option<f64> {
        if !self.is_warmed_up() {
            return None;
        }
        self.model.as_ref().map(|m| self.score.evaluate(m, y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchad_linalg::rng::{gaussian_vec, random_orthonormal_rows, seeded_rng};

    #[test]
    fn exact_detector_separates_planted_anomalies() {
        let d = 12;
        let k = 3;
        let mut rng = seeded_rng(10);
        let basis = random_orthonormal_rows(&mut rng, k, d);
        let mut det = ExactSvdDetector::new(d, k, ScoreKind::RelativeProjection, 25, 50);
        let mut normal_scores = Vec::new();
        let mut anom_scores = Vec::new();
        for i in 0..500 {
            let is_anom = i > 100 && i % 50 == 0;
            let y = if is_anom {
                gaussian_vec(&mut rng, d)
            } else {
                let c = gaussian_vec(&mut rng, k);
                let mut row = basis.tr_matvec(&c);
                for v in row.iter_mut() {
                    *v *= 2.0;
                }
                row
            };
            let s = det.process(&y);
            if i >= 100 {
                if is_anom {
                    anom_scores.push(s);
                } else {
                    normal_scores.push(s);
                }
            }
        }
        let nm = normal_scores.iter().sum::<f64>() / normal_scores.len() as f64;
        let am = anom_scores.iter().sum::<f64>() / anom_scores.len() as f64;
        assert!(am > 20.0 * nm.max(1e-9), "anom {am} vs normal {nm}");
    }

    #[test]
    fn windowed_detector_forgets_old_regime() {
        let d = 6;
        let mut det = ExactWindowedDetector::new(d, 1, 50, ScoreKind::RelativeProjection, 10, 20);
        let mut e1 = vec![0.0; d];
        e1[0] = 3.0;
        let mut e2 = vec![0.0; d];
        e2[1] = 3.0;
        for _ in 0..100 {
            det.process(&e1);
        }
        // Right after the switch e2 is anomalous…
        let s_before: f64 = det.process(&e2);
        assert!(s_before > 0.9, "switch score {s_before}");
        // …but after the window fills with e2, it is normal again.
        for _ in 0..80 {
            det.process(&e2);
        }
        let s_after = det.process(&e2);
        assert!(s_after < 0.05, "post-adaptation score {s_after}");
    }

    #[test]
    fn warmup_behaviour() {
        let mut det = ExactSvdDetector::new(3, 1, ScoreKind::default(), 5, 8);
        for i in 0..8 {
            let s = det.process(&[1.0, 0.0, 0.0]);
            assert_eq!(s, 0.0, "score during warmup at {i}");
        }
        assert!(det.is_warmed_up());
        assert_eq!(det.processed(), 8);
    }

    #[test]
    #[should_panic(expected = "1 <= k <= d")]
    fn invalid_k_rejected() {
        let _ = ExactSvdDetector::new(3, 4, ScoreKind::default(), 5, 8);
    }

    #[test]
    fn names_include_parameters() {
        let d = ExactSvdDetector::new(3, 2, ScoreKind::default(), 5, 8);
        assert!(d.name().contains("k=2"));
        let w = ExactWindowedDetector::new(3, 2, 100, ScoreKind::default(), 5, 8);
        assert!(w.name().contains("W=100"));
    }
}

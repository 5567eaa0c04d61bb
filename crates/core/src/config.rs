//! Ergonomic detector construction.
//!
//! [`DetectorConfig`] holds the hyper-parameters shared by every sketch
//! flavour; the `build_*` methods instantiate a ready-to-run detector. This
//! is the API surface the examples and experiment harness use.

use sketchad_sketch::{
    BlockWindowSketch, CountSketch, FrequentDirections, RandomProjection, RowSampling,
};

use crate::refresh::RefreshPolicy;
use crate::score::ScoreKind;
use crate::sketched::{DecayConfig, SketchDetector, UpdatePolicy};

/// Shared hyper-parameters for sketch-based detectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Rank of the normal-subspace model.
    pub k: usize,
    /// Sketch size ℓ (rows retained).
    pub ell: usize,
    /// Anomaly score family.
    pub score: ScoreKind,
    /// Model refresh schedule.
    pub refresh: RefreshPolicy,
    /// Points before the first scores are emitted.
    pub warmup: usize,
    /// Optional exponential forgetting.
    pub decay: Option<DecayConfig>,
    /// Sketch-update policy (anomaly filtering).
    pub update_policy: UpdatePolicy,
    /// Seed for randomized sketches.
    pub seed: u64,
}

impl Default for DetectorConfig {
    /// Paper-style defaults: `k = 10`, `ℓ = 64`, relative-projection score,
    /// periodic refresh every 64 points, warmup 256.
    fn default() -> Self {
        Self {
            k: 10,
            ell: 64,
            score: ScoreKind::RelativeProjection,
            refresh: RefreshPolicy::Periodic { period: 64 },
            warmup: 256,
            decay: None,
            update_policy: UpdatePolicy::Always,
            seed: 0x5eed,
        }
    }
}

impl DetectorConfig {
    /// Creates a config with the given rank and sketch size and defaults
    /// elsewhere.
    pub fn new(k: usize, ell: usize) -> Self {
        Self {
            k,
            ell,
            ..Self::default()
        }
    }

    /// Sets the score family.
    pub fn with_score(mut self, score: ScoreKind) -> Self {
        self.score = score;
        self
    }

    /// Sets the refresh policy.
    pub fn with_refresh(mut self, refresh: RefreshPolicy) -> Self {
        self.refresh = refresh;
        self
    }

    /// Sets the warmup length.
    pub fn with_warmup(mut self, warmup: usize) -> Self {
        self.warmup = warmup;
        self
    }

    /// Enables exponential forgetting.
    pub fn with_decay(mut self, alpha: f64, every: usize) -> Self {
        self.decay = Some(DecayConfig::new(alpha, every));
        self
    }

    /// Sets the randomization seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the sketch-update policy (anomaly filtering).
    pub fn with_update_policy(mut self, policy: UpdatePolicy) -> Self {
        self.update_policy = policy;
        self
    }

    fn finish<S: sketchad_sketch::MatrixSketch>(&self, sketch: S) -> SketchDetector<S> {
        let mut det = SketchDetector::new(sketch, self.k, self.score, self.refresh, self.warmup)
            .with_update_policy(self.update_policy);
        if let Some(d) = self.decay {
            det = det.with_decay(d);
        }
        det
    }

    /// Builds a frequent-directions detector (the deterministic arm).
    pub fn build_fd(&self, dim: usize) -> SketchDetector<FrequentDirections> {
        self.finish(FrequentDirections::new(self.ell, dim))
    }

    /// Builds a Gaussian random-projection detector (the randomized arm).
    pub fn build_rp(&self, dim: usize) -> SketchDetector<RandomProjection> {
        self.finish(RandomProjection::new(self.ell, dim, self.seed))
    }

    /// Builds a CountSketch detector (cheapest updates).
    pub fn build_cs(&self, dim: usize) -> SketchDetector<CountSketch> {
        self.finish(CountSketch::new(self.ell, dim, 1, self.seed))
    }

    /// Builds a row-sampling detector (interpretable sketch contents).
    pub fn build_rs(&self, dim: usize) -> SketchDetector<RowSampling> {
        self.finish(RowSampling::new(self.ell, dim, self.seed))
    }

    /// Builds a sparse-JL detector: a [`CountSketch`] adding each row into
    /// `s = min(4, ℓ)` buckets — the sparse-embedding arm of the benchmark
    /// matrix.
    pub fn build_sjl(&self, dim: usize) -> SketchDetector<CountSketch> {
        self.finish(CountSketch::new(self.ell, dim, 4.min(self.ell), self.seed))
    }

    /// Builds a sliding-window FD detector: the window covers
    /// `block_len × num_blocks` recent points.
    pub fn build_windowed_fd(
        &self,
        dim: usize,
        block_len: usize,
        num_blocks: usize,
    ) -> SketchDetector<BlockWindowSketch<FrequentDirections>> {
        let inner = FrequentDirections::new(self.ell, dim);
        let window = BlockWindowSketch::new(inner, block_len, num_blocks);
        self.finish(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::StreamingDetector;
    use sketchad_linalg::rng::{gaussian_vec, seeded_rng};

    #[test]
    fn default_parameters_are_sane() {
        let c = DetectorConfig::default();
        assert!(c.k <= c.ell);
        assert!(c.warmup > 0);
        assert!(c.decay.is_none());
    }

    #[test]
    fn builders_produce_named_detectors() {
        let c = DetectorConfig::new(3, 16).with_warmup(8);
        assert!(c.build_fd(10).name().contains("frequent-directions"));
        assert!(c.build_rp(10).name().contains("random-projection"));
        assert!(c.build_cs(10).name().contains("count-sketch"));
        assert!(c.build_rs(10).name().contains("row-sampling"));
        assert!(c.build_sjl(10).name().contains("sparse-jl"));
        assert!(c
            .build_windowed_fd(10, 50, 4)
            .name()
            .contains("block-window"));
    }

    #[test]
    fn built_detectors_process_points() {
        let c = DetectorConfig::new(2, 8)
            .with_warmup(16)
            .with_decay(0.9, 10)
            .with_seed(99)
            .with_score(ScoreKind::Blended { beta: 0.1 })
            .with_refresh(RefreshPolicy::EnergyTriggered {
                growth: 0.5,
                max_period: 32,
            });
        let mut rng = seeded_rng(50);
        let mut fd = c.build_fd(6);
        let mut rp = c.build_rp(6);
        for _ in 0..64 {
            let y = gaussian_vec(&mut rng, 6);
            let s1 = fd.process(&y);
            let s2 = rp.process(&y);
            assert!(s1.is_finite() && s2.is_finite());
        }
        assert!(fd.is_warmed_up());
        assert!(rp.is_warmed_up());
    }
}

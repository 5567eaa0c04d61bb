//! Streaming threshold calibration for binary decisions.
//!
//! Detectors emit scores; operators need alerts. [`QuantileEstimator`] is
//! the P² algorithm (Jain & Chlamtac 1985): it tracks an arbitrary quantile
//! of a stream in O(1) memory without storing observations. The
//! [`ThresholdedDetector`] wrapper turns any [`StreamingDetector`] into an
//! alerting detector with a target false-positive rate: flag a point when
//! its score exceeds the running `(1 − fp_rate)` quantile of previous
//! scores.

use sketchad_sketch::wire::{ByteReader, ByteWriter, WireError};

use crate::detector::StreamingDetector;

/// P² streaming quantile estimator.
#[derive(Debug, Clone)]
pub struct QuantileEstimator {
    q: f64,
    /// Marker heights (estimates of the quantile curve).
    heights: [f64; 5],
    /// Marker positions (1-based observation counts).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments per observation.
    increments: [f64; 5],
    count: usize,
    /// First five observations, collected before the markers initialize.
    bootstrap: Vec<f64>,
}

impl QuantileEstimator {
    /// Creates an estimator for quantile `q ∈ (0, 1)`.
    ///
    /// # Panics
    /// Panics when `q` is outside `(0, 1)`.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0,1), got {q}");
        Self {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
            bootstrap: Vec::with_capacity(5),
        }
    }

    /// Number of observations seen.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// Feeds one observation.
    pub fn update(&mut self, x: f64) {
        self.count += 1;
        if self.count <= 5 {
            self.bootstrap.push(x);
            if self.count == 5 {
                self.bootstrap
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
                for (h, &v) in self.heights.iter_mut().zip(self.bootstrap.iter()) {
                    *h = v;
                }
            }
            return;
        }

        // Find the cell k containing x and update extreme markers.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut cell = 0;
            for i in 0..4 {
                if self.heights[i] <= x && x < self.heights[i + 1] {
                    cell = i;
                    break;
                }
            }
            cell
        };

        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments.iter()) {
            *d += inc;
        }

        // Adjust interior markers with the piecewise-parabolic formula.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let np = self.positions[i + 1] - self.positions[i];
            let pp = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && np > 1.0) || (d <= -1.0 && pp < -1.0) {
                let sign = d.signum();
                let parabolic = self.heights[i]
                    + sign / (np - pp)
                        * ((self.positions[i] - self.positions[i - 1] + sign)
                            * (self.heights[i + 1] - self.heights[i])
                            / np
                            + (self.positions[i + 1] - self.positions[i] - sign)
                                * (self.heights[i] - self.heights[i - 1])
                                / (-pp));
                // Fall back to linear when the parabolic prediction leaves
                // the bracketing interval.
                let new_h = if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                    parabolic
                } else if sign > 0.0 {
                    self.heights[i] + (self.heights[i + 1] - self.heights[i]) / np
                } else {
                    self.heights[i] - (self.heights[i - 1] - self.heights[i]) / pp
                };
                self.heights[i] = new_h;
                self.positions[i] += sign;
            }
        }
    }

    /// Current estimate of the tracked quantile (exact order statistic while
    /// fewer than 5 observations have been seen).
    pub fn estimate(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if self.count < 5 {
            let mut v = self.bootstrap.clone();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
            let idx = ((self.q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
            return v[idx];
        }
        self.heights[2]
    }

    /// Serializes the full P² marker state (persistence support; bitwise).
    pub(crate) fn encode_wire(&self, out: &mut ByteWriter) {
        out.put_f64(self.q);
        out.put_f64s(&self.heights);
        out.put_f64s(&self.positions);
        out.put_f64s(&self.desired);
        out.put_f64s(&self.increments);
        out.put_u64(self.count as u64);
        out.put_f64_slice(&self.bootstrap);
    }

    /// Restores an estimator serialized by [`Self::encode_wire`].
    pub(crate) fn decode_wire(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let ctx = "QuantileEstimator state";
        let q = r.get_f64(ctx)?;
        if !(q > 0.0 && q < 1.0) {
            return Err(WireError { context: ctx });
        }
        let mut est = Self::new(q);
        r.get_f64s_into(&mut est.heights, ctx)?;
        r.get_f64s_into(&mut est.positions, ctx)?;
        r.get_f64s_into(&mut est.desired, ctx)?;
        r.get_f64s_into(&mut est.increments, ctx)?;
        est.count = r.get_u64(ctx)? as usize;
        est.bootstrap = r.get_f64_vec(ctx)?;
        Ok(est)
    }
}

/// Binary-alerting wrapper around any streaming detector.
///
/// During the `calibration` period the wrapper only feeds the quantile
/// estimator; afterwards each point is flagged when its score exceeds the
/// running `(1 − fp_rate)` quantile. The quantile keeps adapting, so the
/// empirical false-positive rate tracks the target on stationary streams.
#[derive(Debug, Clone)]
pub struct ThresholdedDetector<D: StreamingDetector> {
    inner: D,
    quantile: QuantileEstimator,
    calibration: usize,
    flagged: u64,
    /// Reusable score buffer for the batched path.
    batch_scores: Vec<f64>,
}

/// The outcome of processing one point through a [`ThresholdedDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alert {
    /// Raw anomaly score from the wrapped detector.
    pub score: f64,
    /// Threshold the score was compared against.
    pub threshold: f64,
    /// True when the point was flagged as anomalous.
    pub is_anomaly: bool,
}

impl<D: StreamingDetector> ThresholdedDetector<D> {
    /// Wraps `inner`, targeting false-positive rate `fp_rate` after
    /// `calibration` scored points.
    ///
    /// # Panics
    /// Panics when `fp_rate` is outside `(0, 1)`.
    pub fn new(inner: D, fp_rate: f64, calibration: usize) -> Self {
        Self {
            inner,
            quantile: QuantileEstimator::new(1.0 - fp_rate),
            calibration,
            flagged: 0,
            batch_scores: Vec::new(),
        }
    }

    /// Processes one point, returning the score / threshold / decision.
    pub fn process(&mut self, y: &[f64]) -> Alert {
        let score = self.inner.process(y);
        let calibrated = self.quantile.count() >= self.calibration;
        let threshold = self.quantile.estimate();
        let is_anomaly = calibrated && score > threshold;
        if is_anomaly {
            self.flagged += 1;
        }
        // Scores emitted during the inner detector's warmup are a
        // conventional 0.0 and would corrupt the calibration.
        if self.inner.is_warmed_up() {
            self.quantile.update(score);
        }
        Alert {
            score,
            threshold,
            is_anomaly,
        }
    }

    /// Processes a row-major block of points (see
    /// [`StreamingDetector::process_batch`]), appending one [`Alert`] per
    /// point to `out` (after clearing it). Scores run through the inner
    /// detector's batched path; the threshold logic is applied to the batch
    /// scores in arrival order, so the alerts are identical to calling
    /// [`Self::process`] per point.
    pub fn process_batch(&mut self, rows: &[f64], out: &mut Vec<Alert>) {
        let d = self.inner.dim();
        assert_eq!(rows.len() % d, 0, "a block holds whole rows of dim {d}");
        out.clear();
        out.reserve(rows.len() / d);
        // Per-point until the inner detector warms up: `process` feeds the
        // quantile only for warmed-up scores, and the point that *completes*
        // warmup must still contribute its score — exactly what the
        // per-point path does. Warmup is monotone, so once it holds the
        // batch path below can update the quantile unconditionally.
        let mut rest = rows;
        while !rest.is_empty() && !self.inner.is_warmed_up() {
            let (y, tail) = rest.split_at(d);
            out.push(self.process(y));
            rest = tail;
        }
        if rest.is_empty() {
            return;
        }
        let mut scores = std::mem::take(&mut self.batch_scores);
        self.inner.process_batch(rest, &mut scores);
        for &score in &scores {
            let calibrated = self.quantile.count() >= self.calibration;
            let threshold = self.quantile.estimate();
            let is_anomaly = calibrated && score > threshold;
            if is_anomaly {
                self.flagged += 1;
            }
            self.quantile.update(score);
            out.push(Alert {
                score,
                threshold,
                is_anomaly,
            });
        }
        self.batch_scores = scores;
    }

    /// Number of points flagged so far.
    pub fn flagged(&self) -> u64 {
        self.flagged
    }

    /// Access the wrapped detector.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::MeanDistanceDetector;
    use rand::Rng;
    use sketchad_linalg::rng::seeded_rng;

    #[test]
    fn p2_matches_exact_quantile_on_uniform() {
        let mut rng = seeded_rng(30);
        for &q in &[0.5, 0.9, 0.99] {
            let mut est = QuantileEstimator::new(q);
            let mut all = Vec::new();
            for _ in 0..20_000 {
                let x: f64 = rng.gen();
                est.update(x);
                all.push(x);
            }
            all.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let exact = all[(q * all.len() as f64) as usize];
            let got = est.estimate();
            assert!(
                (got - exact).abs() < 0.02,
                "q={q}: P² {got} vs exact {exact}"
            );
        }
    }

    #[test]
    fn p2_matches_exact_quantile_on_gaussian() {
        let mut rng = seeded_rng(31);
        let mut est = QuantileEstimator::new(0.95);
        let mut all = Vec::new();
        for _ in 0..30_000 {
            let x = sketchad_linalg::rng::gaussian(&mut rng);
            est.update(x);
            all.push(x);
        }
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let exact = all[(0.95 * all.len() as f64) as usize];
        assert!(
            (est.estimate() - exact).abs() < 0.08,
            "P² {} vs exact {exact}",
            est.estimate()
        );
    }

    #[test]
    fn p2_small_streams_use_exact_order_statistics() {
        let mut est = QuantileEstimator::new(0.5);
        est.update(3.0);
        est.update(1.0);
        est.update(2.0);
        let m = est.estimate();
        assert!((m - 2.0).abs() < 1e-12, "median of 3 values: {m}");
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn invalid_quantile_rejected() {
        let _ = QuantileEstimator::new(1.0);
    }

    #[test]
    fn thresholded_detector_approximates_target_fp_rate() {
        let mut rng = seeded_rng(32);
        let inner = MeanDistanceDetector::new(3, 50);
        let mut det = ThresholdedDetector::new(inner, 0.05, 200);
        let mut scored = 0u64;
        for _ in 0..5000 {
            let y: Vec<f64> = (0..3)
                .map(|_| sketchad_linalg::rng::gaussian(&mut rng))
                .collect();
            let alert = det.process(&y);
            if alert.threshold > 0.0 {
                scored += 1;
            }
        }
        // All points are "normal" here, so the flag rate should be near the
        // 5% target.
        let rate = det.flagged() as f64 / scored.max(1) as f64;
        assert!(rate > 0.01 && rate < 0.12, "empirical FP rate {rate}");
    }

    #[test]
    fn thresholded_batch_matches_per_point() {
        use crate::refresh::RefreshPolicy;
        use crate::score::ScoreKind;
        use crate::sketched::SketchDetector;
        use sketchad_linalg::rng::gaussian_vec;
        use sketchad_sketch::FrequentDirections;

        let d = 8;
        let mut rng = seeded_rng(34);
        let rows: Vec<Vec<f64>> = (0..400).map(|_| gaussian_vec(&mut rng, d)).collect();
        let make = || {
            let inner = SketchDetector::new(
                FrequentDirections::new(8, d),
                2,
                ScoreKind::RelativeProjection,
                RefreshPolicy::Periodic { period: 16 },
                32,
            );
            ThresholdedDetector::new(inner, 0.05, 100)
        };
        let mut per_point = make();
        let mut batched = make();
        let expected: Vec<Alert> = rows.iter().map(|r| per_point.process(r)).collect();
        let mut got = Vec::new();
        let mut buf = Vec::new();
        let mut i = 0;
        // Batch boundaries straddle warmup (32) and calibration (100).
        for chunk in [20usize, 30, 75, 275] {
            let end = (i + chunk).min(rows.len());
            batched.process_batch(&rows[i..end].concat(), &mut buf);
            got.extend_from_slice(&buf);
            i = end;
        }
        assert_eq!(got.len(), expected.len());
        for (j, (g, e)) in got.iter().zip(expected.iter()).enumerate() {
            assert_eq!(g.score.to_bits(), e.score.to_bits(), "point {j}");
            assert_eq!(g.threshold.to_bits(), e.threshold.to_bits(), "point {j}");
            assert_eq!(g.is_anomaly, e.is_anomaly, "point {j}");
        }
        assert_eq!(batched.flagged(), per_point.flagged());
    }

    #[test]
    fn obvious_outlier_is_flagged_after_calibration() {
        let mut rng = seeded_rng(33);
        let inner = MeanDistanceDetector::new(2, 20);
        let mut det = ThresholdedDetector::new(inner, 0.01, 100);
        for _ in 0..1000 {
            let y: Vec<f64> = (0..2)
                .map(|_| sketchad_linalg::rng::gaussian(&mut rng))
                .collect();
            det.process(&y);
        }
        let alert = det.process(&[50.0, 50.0]);
        assert!(alert.is_anomaly, "huge outlier not flagged: {alert:?}");
        assert!(alert.score > alert.threshold);
    }
}

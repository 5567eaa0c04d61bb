//! Synthetic low-rank stream generation.
//!
//! The canonical workload of the paper: normal points are random
//! combinations of a planted rank-k orthonormal basis plus small ambient
//! noise; anomalies deviate in one of three ways (off-subspace, in-subspace
//! extreme, or correlated bursts), matching the failure modes the two score
//! families are designed to catch.

use rand::rngs::StdRng;
use rand::Rng;
use sketchad_linalg::rng::{gaussian, gaussian_vec, random_orthonormal_rows, seeded_rng};
use sketchad_linalg::Matrix;

use crate::point::{LabeledPoint, LabeledStream};

/// How planted anomalies deviate from the normal model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// Isotropic points with energy mostly outside the normal subspace
    /// (caught by the projection-distance score).
    OffSubspace,
    /// Points inside the subspace but with extreme coefficients
    /// (caught by the leverage score).
    InSubspaceExtreme,
    /// A run of consecutive anomalies sharing one off-subspace direction —
    /// the "group anomaly"/burst pattern of coordinated attacks.
    CorrelatedBurst,
}

/// Configuration for [`generate_low_rank_stream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LowRankStreamConfig {
    /// Total number of points.
    pub n: usize,
    /// Ambient dimensionality.
    pub d: usize,
    /// True rank of the normal subspace.
    pub k: usize,
    /// Scale of the in-subspace coefficients for normal points.
    pub signal_scale: f64,
    /// Ambient (full-dimensional) Gaussian noise sigma.
    pub noise_sigma: f64,
    /// Fraction of anomalous points.
    pub anomaly_rate: f64,
    /// Magnitude multiplier for anomalies.
    pub anomaly_scale: f64,
    /// Anomaly flavour.
    pub anomaly_kind: AnomalyKind,
    /// RNG seed (fully determines the stream).
    pub seed: u64,
}

impl Default for LowRankStreamConfig {
    fn default() -> Self {
        Self {
            n: 5_000,
            d: 100,
            k: 10,
            signal_scale: 3.0,
            noise_sigma: 0.05,
            anomaly_rate: 0.02,
            anomaly_scale: 1.0,
            anomaly_kind: AnomalyKind::OffSubspace,
            seed: 7,
        }
    }
}

/// How the normal points' signal is spread over the `k` planted directions:
/// direction `j`'s coefficient is Gaussian with standard deviation
/// `scales[j]` (see [`Spectrum::scales`]), so the planted covariance has
/// eigenvalues `scales[j]²` plus the noise floor `noise_sigma²`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) enum Spectrum {
    /// Every direction at `signal_scale`. Any top-`k'` subspace with
    /// `k' < k` of such a stream is an arbitrary pick from a flat signal.
    #[default]
    Flat,
    /// Geometric decay with a planted gap: direction `j` has scale
    /// `signal_scale · decay^j`, times `gap` for every `j ≥ gap_after`, so
    /// the planted eigenvalues fall by `decay²` per direction and by
    /// `(decay·gap)²` from direction `gap_after − 1` to `gap_after`. A
    /// detector of rank `gap_after` then has an identifiable model. Only
    /// this crate's tests construct it so far; the planned fidelity
    /// scenarios against the exact detector are its first callers.
    #[cfg(test)]
    Geometric {
        /// Per-direction scale ratio in `(0, 1]`.
        decay: f64,
        /// Directions before the gap, in `1..=k`.
        gap_after: usize,
        /// Extra scale factor past the gap, in `(0, 1]`.
        gap: f64,
    },
}

impl Spectrum {
    /// The coefficient standard deviation of each of `k` planted directions.
    /// Under [`Spectrum::Flat`] every entry is exactly `signal_scale`.
    ///
    /// # Panics
    /// Panics when a `Geometric` parameter is outside its documented range.
    pub(crate) fn scales(&self, signal_scale: f64, k: usize) -> Vec<f64> {
        match *self {
            Spectrum::Flat => vec![signal_scale; k],
            #[cfg(test)]
            Spectrum::Geometric {
                decay,
                gap_after,
                gap,
            } => {
                assert!(decay > 0.0 && decay <= 1.0, "decay must be in (0,1]");
                assert!(gap > 0.0 && gap <= 1.0, "gap must be in (0,1]");
                assert!((1..=k).contains(&gap_after), "gap_after must be in 1..=k");
                (0..k)
                    .map(|j| {
                        let past_gap = if j >= gap_after { gap } else { 1.0 };
                        signal_scale * decay.powi(j as i32) * past_gap
                    })
                    .collect()
            }
        }
    }
}

/// A generator holding the planted basis; exposes single-point sampling so
/// drift scenarios can mutate the basis mid-stream.
#[derive(Debug, Clone)]
pub(crate) struct LowRankGenerator {
    /// `k × d` orthonormal rows spanning the normal subspace.
    basis: Matrix,
    /// Coefficient standard deviation of each planted direction.
    scales: Vec<f64>,
    cfg: LowRankStreamConfig,
    rng: StdRng,
}

impl LowRankGenerator {
    /// Creates the generator (samples the planted basis from `cfg.seed`).
    ///
    /// # Panics
    /// Panics when `k == 0`, `k > d`, or `anomaly_rate ∉ [0, 1)`.
    pub(crate) fn new(cfg: LowRankStreamConfig) -> Self {
        Self::with_spectrum(cfg, Spectrum::Flat)
    }

    /// [`new`](Self::new) with the planted signal spread by `spectrum`. The
    /// flat spectrum draws the same stream as `new`, bit for bit.
    ///
    /// # Panics
    /// As [`new`](Self::new), and when `spectrum` is invalid for `cfg.k`
    /// (see [`Spectrum::scales`]).
    pub(crate) fn with_spectrum(cfg: LowRankStreamConfig, spectrum: Spectrum) -> Self {
        assert!(cfg.k > 0 && cfg.k <= cfg.d, "require 1 <= k <= d");
        assert!(
            (0.0..1.0).contains(&cfg.anomaly_rate),
            "anomaly_rate must be in [0,1)"
        );
        let scales = spectrum.scales(cfg.signal_scale, cfg.k);
        let mut rng = seeded_rng(cfg.seed);
        let basis = random_orthonormal_rows(&mut rng, cfg.k, cfg.d);
        Self {
            basis,
            scales,
            cfg,
            rng,
        }
    }

    /// The planted basis (`k × d` orthonormal rows).
    pub(crate) fn basis(&self) -> &Matrix {
        &self.basis
    }

    /// Mutable basis access (drift scenarios rotate it in place).
    pub(crate) fn basis_mut(&mut self) -> &mut Matrix {
        &mut self.basis
    }

    /// Samples one normal point.
    pub(crate) fn sample_normal(&mut self) -> Vec<f64> {
        let coeff: Vec<f64> = (0..self.cfg.k)
            .map(|j| self.scales[j] * gaussian(&mut self.rng))
            .collect();
        let mut row = self.basis.tr_matvec(&coeff);
        for v in row.iter_mut() {
            *v += self.cfg.noise_sigma * gaussian(&mut self.rng);
        }
        row
    }

    /// Samples one anomaly of the configured kind. For
    /// [`AnomalyKind::CorrelatedBurst`], `burst_dir` supplies the shared
    /// direction (pass the same vector for each point in a burst).
    pub(crate) fn sample_anomaly(&mut self, burst_dir: Option<&[f64]>) -> Vec<f64> {
        let scale = self.cfg.anomaly_scale;
        match self.cfg.anomaly_kind {
            AnomalyKind::OffSubspace => {
                // Isotropic Gaussian with matching energy: almost all mass is
                // orthogonal to a k ≪ d subspace.
                let sigma = scale * self.cfg.signal_scale * (self.cfg.k as f64).sqrt()
                    / (self.cfg.d as f64).sqrt();
                (0..self.cfg.d)
                    .map(|_| sigma * gaussian(&mut self.rng))
                    .collect()
            }
            AnomalyKind::InSubspaceExtreme => {
                // 6σ–10σ coefficient along a random planted direction.
                let j = self.rng.gen_range(0..self.cfg.k);
                let magnitude = self.scales[j] * scale * (6.0 + 4.0 * self.rng.gen::<f64>());
                let sign = if self.rng.gen::<bool>() { 1.0 } else { -1.0 };
                let mut coeff = vec![0.0; self.cfg.k];
                coeff[j] = sign * magnitude;
                let mut row = self.basis.tr_matvec(&coeff);
                for v in row.iter_mut() {
                    *v += self.cfg.noise_sigma * gaussian(&mut self.rng);
                }
                row
            }
            AnomalyKind::CorrelatedBurst => {
                let dir: Vec<f64> = match burst_dir {
                    Some(d) => d.to_vec(),
                    None => {
                        let mut v = gaussian_vec(&mut self.rng, self.cfg.d);
                        sketchad_linalg::vecops::normalize(&mut v);
                        v
                    }
                };
                let magnitude = scale * self.cfg.signal_scale * (self.cfg.k as f64).sqrt();
                let jitter = 0.05 * magnitude;
                dir.iter()
                    .map(|&v| magnitude * v + jitter * gaussian(&mut self.rng))
                    .collect()
            }
        }
    }

    /// Draws a fresh shared direction for a correlated burst.
    pub(crate) fn new_burst_direction(&mut self) -> Vec<f64> {
        let mut v = gaussian_vec(&mut self.rng, self.cfg.d);
        sketchad_linalg::vecops::normalize(&mut v);
        v
    }

    /// Access to the generator's RNG (drift scenarios share it).
    pub(crate) fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// Generates a full labeled stream according to `cfg`.
///
/// Anomalies are injected at uniformly random positions *after* the first
/// 10% of the stream (so detectors have a clean warmup region, as in the
/// standard evaluation protocol). `CorrelatedBurst` anomalies are emitted in
/// runs of 5–15 consecutive points sharing one direction.
pub fn generate_low_rank_stream(cfg: LowRankStreamConfig) -> LabeledStream {
    generate_low_rank_stream_with(cfg, Spectrum::Flat)
}

/// [`generate_low_rank_stream`] with the normal points' signal spread by
/// `spectrum`; the flat spectrum generates the same stream, bit for bit.
/// Anomaly energies are set from `signal_scale` as for the flat stream
/// (an in-subspace extreme scales with its direction's own scale).
///
/// # Panics
/// As [`LowRankGenerator::with_spectrum`].
pub(crate) fn generate_low_rank_stream_with(
    cfg: LowRankStreamConfig,
    spectrum: Spectrum,
) -> LabeledStream {
    let mut generator = LowRankGenerator::with_spectrum(cfg, spectrum);
    let n = cfg.n;
    let guard = n / 10;
    let target_anomalies = ((n as f64) * cfg.anomaly_rate).round() as usize;

    // Pre-select anomaly positions.
    let mut is_anomaly = vec![false; n];
    match cfg.anomaly_kind {
        AnomalyKind::CorrelatedBurst => {
            let mut placed = 0;
            while placed < target_anomalies {
                let burst_len = 5 + (generator.rng().gen::<u64>() % 11) as usize;
                let burst_len = burst_len.min(target_anomalies - placed);
                let start = guard + (generator.rng().gen::<u64>() as usize) % (n - guard).max(1);
                let end = (start + burst_len).min(n);
                for flag in is_anomaly[start..end].iter_mut() {
                    if !*flag {
                        *flag = true;
                        placed += 1;
                    }
                }
            }
        }
        _ => {
            let mut placed = 0;
            while placed < target_anomalies {
                let pos = guard + (generator.rng().gen::<u64>() as usize) % (n - guard).max(1);
                if !is_anomaly[pos] {
                    is_anomaly[pos] = true;
                    placed += 1;
                }
            }
        }
    }

    let mut points = Vec::with_capacity(n);
    let mut burst_dir: Option<Vec<f64>> = None;
    for (i, &anom) in is_anomaly.iter().enumerate() {
        let values = if anom {
            if cfg.anomaly_kind == AnomalyKind::CorrelatedBurst {
                let continuing = i > 0 && is_anomaly[i - 1];
                if !continuing || burst_dir.is_none() {
                    burst_dir = Some(generator.new_burst_direction());
                }
                let dir = burst_dir.clone().expect("burst direction set above");
                generator.sample_anomaly(Some(&dir))
            } else {
                generator.sample_anomaly(None)
            }
        } else {
            generator.sample_normal()
        };
        points.push(LabeledPoint {
            values,
            is_anomaly: anom,
        });
    }

    let name = match spectrum {
        Spectrum::Flat => format!("synth-lowrank(n={n},d={},k={})", cfg.d, cfg.k),
        #[cfg(test)]
        Spectrum::Geometric {
            decay,
            gap_after,
            gap,
        } => format!(
            "synth-lowrank(n={n},d={},k={},decay={decay},gap={gap}@{gap_after})",
            cfg.d, cfg.k
        ),
    };
    LabeledStream::new(name, cfg.d, points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchad_linalg::vecops;

    #[test]
    fn stream_has_requested_shape_and_rate() {
        let cfg = LowRankStreamConfig {
            n: 2000,
            d: 30,
            k: 5,
            ..Default::default()
        };
        let s = generate_low_rank_stream(cfg);
        assert_eq!(s.len(), 2000);
        assert_eq!(s.dim, 30);
        let rate = s.anomaly_rate();
        assert!((rate - 0.02).abs() < 0.005, "rate {rate}");
    }

    #[test]
    fn early_stream_has_no_anomalies() {
        let cfg = LowRankStreamConfig {
            n: 1000,
            ..Default::default()
        };
        let s = generate_low_rank_stream(cfg);
        assert!(s.points[..100].iter().all(|p| !p.is_anomaly));
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = LowRankStreamConfig {
            n: 300,
            d: 20,
            k: 3,
            ..Default::default()
        };
        let a = generate_low_rank_stream(cfg);
        let b = generate_low_rank_stream(cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn normal_points_live_near_the_subspace() {
        let cfg = LowRankStreamConfig {
            n: 500,
            d: 40,
            k: 4,
            noise_sigma: 0.01,
            anomaly_rate: 0.0,
            ..Default::default()
        };
        let mut generator = LowRankGenerator::new(cfg);
        for _ in 0..50 {
            let y = generator.sample_normal();
            // Residual after projecting onto the planted basis is just noise.
            let coeffs = generator.basis().matvec(&y);
            let rec = generator.basis().tr_matvec(&coeffs);
            let resid = vecops::dist_sq(&y, &rec).sqrt();
            assert!(resid < 0.01 * (40.0f64).sqrt() * 4.0, "residual {resid}");
        }
    }

    #[test]
    fn off_subspace_anomalies_have_large_residual() {
        let cfg = LowRankStreamConfig {
            d: 50,
            k: 5,
            ..Default::default()
        };
        let mut generator = LowRankGenerator::new(cfg);
        let y = generator.sample_anomaly(None);
        let coeffs = generator.basis().matvec(&y);
        let rec = generator.basis().tr_matvec(&coeffs);
        let resid_frac = vecops::dist_sq(&y, &rec) / vecops::norm2_sq(&y);
        assert!(
            resid_frac > 0.6,
            "off-subspace residual fraction {resid_frac}"
        );
    }

    #[test]
    fn in_subspace_anomalies_have_small_residual_but_big_norm() {
        let cfg = LowRankStreamConfig {
            d: 50,
            k: 5,
            anomaly_kind: AnomalyKind::InSubspaceExtreme,
            ..Default::default()
        };
        let mut generator = LowRankGenerator::new(cfg);
        let y = generator.sample_anomaly(None);
        let coeffs = generator.basis().matvec(&y);
        let rec = generator.basis().tr_matvec(&coeffs);
        let resid_frac = vecops::dist_sq(&y, &rec) / vecops::norm2_sq(&y);
        assert!(
            resid_frac < 0.05,
            "in-subspace residual fraction {resid_frac}"
        );
        // Norm far beyond the typical normal point (≈ signal·√k).
        let norm = vecops::norm2(&y);
        assert!(norm > 3.0 * 6.0, "norm {norm}");
    }

    #[test]
    fn burst_anomalies_are_mutually_similar() {
        let cfg = LowRankStreamConfig {
            n: 3000,
            d: 30,
            k: 4,
            anomaly_kind: AnomalyKind::CorrelatedBurst,
            anomaly_rate: 0.03,
            ..Default::default()
        };
        let s = generate_low_rank_stream(cfg);
        // Find a run of consecutive anomalies and verify cosine similarity.
        let labels = s.labels();
        let mut run_start = None;
        for i in 1..s.len() {
            if labels[i] && labels[i - 1] {
                run_start = Some(i - 1);
                break;
            }
        }
        let i = run_start.expect("bursts should create consecutive anomalies");
        let a = &s.points[i].values;
        let b = &s.points[i + 1].values;
        let cos = vecops::dot(a, b) / (vecops::norm2(a) * vecops::norm2(b));
        assert!(cos > 0.9, "burst cosine {cos}");
    }

    #[test]
    fn geometric_spectrum_plants_its_eigenvalues_and_gap() {
        let spectrum = Spectrum::Geometric {
            decay: 0.8,
            gap_after: 3,
            gap: 0.25,
        };
        let cfg = LowRankStreamConfig {
            n: 20_000,
            d: 16,
            k: 6,
            noise_sigma: 0.01,
            anomaly_rate: 0.0,
            ..Default::default()
        };
        let scales = spectrum.scales(cfg.signal_scale, cfg.k);
        assert_eq!(scales[0], 3.0);
        assert!((scales[2] / scales[1] - 0.8).abs() < 1e-12);
        assert!((scales[3] / scales[2] - 0.8 * 0.25).abs() < 1e-12);
        assert!((scales[5] / scales[4] - 0.8).abs() < 1e-12);

        // The variance along each planted direction is its scale².
        let mut generator = LowRankGenerator::with_spectrum(cfg, spectrum);
        let mut var = vec![0.0; cfg.k];
        for _ in 0..cfg.n {
            let y = generator.sample_normal();
            for (v, c) in var.iter_mut().zip(generator.basis().matvec(&y)) {
                *v += c * c / cfg.n as f64;
            }
        }
        for (j, (&v, &s)) in var.iter().zip(&scales).enumerate() {
            let rel = (v / (s * s) - 1.0).abs();
            assert!(rel < 0.05, "direction {j}: variance {v} vs {}", s * s);
        }
        // The planted relative eigengap at k = 3 is (λ₃ − λ₄)/λ₁.
        let lambda = |j: usize| scales[j] * scales[j];
        let gap = (lambda(2) - lambda(3)) / lambda(0);
        assert!(gap > 0.35, "relative gap {gap}");
    }

    #[test]
    #[should_panic(expected = "gap_after must be in 1..=k")]
    fn gap_past_the_planted_rank_rejected() {
        let spectrum = Spectrum::Geometric {
            decay: 0.9,
            gap_after: 5,
            gap: 0.5,
        };
        let cfg = LowRankStreamConfig {
            k: 4,
            ..Default::default()
        };
        let _ = LowRankGenerator::with_spectrum(cfg, spectrum);
    }

    #[test]
    #[should_panic(expected = "1 <= k <= d")]
    fn invalid_rank_rejected() {
        let cfg = LowRankStreamConfig {
            d: 5,
            k: 6,
            ..Default::default()
        };
        let _ = LowRankGenerator::new(cfg);
    }
}

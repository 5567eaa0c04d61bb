//! Concept-drift stream construction.
//!
//! Two drift patterns cover the local-detection experiments:
//!
//! * **rotating subspace** — the planted basis rotates by a small angle in a
//!   random plane every point (gradual drift);
//! * **abrupt switch** — at a chosen position the basis is replaced by an
//!   independent one (regime change).
//!
//! Anomalies stay off-subspace relative to the *current* basis, so a global
//! detector's stale model misclassifies both old-normal and new-normal
//! points, while windowed/decayed detectors recover — the shape experiment
//! F5/T6 reproduces.

use rand::Rng;
use sketchad_linalg::rng::random_orthonormal_rows;

use crate::generator::{LowRankGenerator, LowRankStreamConfig};
use crate::point::{LabeledPoint, LabeledStream};

/// Drift pattern for [`generate_drift_stream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftKind {
    /// Rotate the basis by `radians_per_point` in a random coordinate plane
    /// after each emitted point.
    Rotating {
        /// Rotation angle applied per point.
        radians_per_point: f64,
    },
    /// Replace the basis with an independent one after a fraction
    /// `at_fraction` of the stream.
    AbruptSwitch {
        /// Switch position as a fraction of the stream length.
        at_fraction: f64,
    },
}

/// Generates a labeled stream whose normal subspace drifts.
///
/// Anomaly positions are i.i.d. with rate `cfg.anomaly_rate` outside the
/// first 10% of the stream.
///
/// # Panics
/// Panics on invalid `cfg` (see `LowRankGenerator::new`) or an
/// `at_fraction` outside `(0, 1)`.
pub fn generate_drift_stream(cfg: LowRankStreamConfig, drift: DriftKind) -> LabeledStream {
    if let DriftKind::AbruptSwitch { at_fraction } = drift {
        assert!(
            at_fraction > 0.0 && at_fraction < 1.0,
            "switch fraction must be in (0,1)"
        );
    }
    let mut generator = LowRankGenerator::new(cfg);
    let n = cfg.n;
    let guard = n / 10;
    let mut points = Vec::with_capacity(n);

    let switch_at = match drift {
        DriftKind::AbruptSwitch { at_fraction } => Some((n as f64 * at_fraction) as usize),
        DriftKind::Rotating { .. } => None,
    };

    for i in 0..n {
        // Apply drift to the basis before sampling.
        match drift {
            DriftKind::Rotating { radians_per_point } => {
                rotate_basis(&mut generator, radians_per_point);
            }
            DriftKind::AbruptSwitch { .. } => {
                if Some(i) == switch_at {
                    let k = cfg.k;
                    let d = cfg.d;
                    let fresh = random_orthonormal_rows(generator.rng(), k, d);
                    *generator.basis_mut() = fresh;
                }
            }
        }

        let is_anomaly = i >= guard && generator.rng().gen::<f64>() < cfg.anomaly_rate;
        let values = if is_anomaly {
            generator.sample_anomaly(None)
        } else {
            generator.sample_normal()
        };
        points.push(LabeledPoint { values, is_anomaly });
    }

    let label = match drift {
        DriftKind::Rotating { radians_per_point } => {
            format!("synth-drift-rot({radians_per_point:.4})")
        }
        DriftKind::AbruptSwitch { at_fraction } => {
            format!("synth-drift-switch({at_fraction:.2})")
        }
    };
    LabeledStream::new(label, cfg.d, points)
}

/// Rotates the basis rows by `angle` within a random coordinate plane
/// `(p, q)`, preserving orthonormality exactly (Givens rotation).
fn rotate_basis(generator: &mut LowRankGenerator, angle: f64) {
    let d = generator.basis().cols();
    let p = generator.rng().gen_range(0..d);
    let mut q = generator.rng().gen_range(0..d);
    while q == p {
        q = generator.rng().gen_range(0..d);
    }
    let (c, s) = (angle.cos(), angle.sin());
    let basis = generator.basis_mut();
    for r in 0..basis.rows() {
        let row = basis.row_mut(r);
        let (vp, vq) = (row[p], row[q]);
        row[p] = c * vp - s * vq;
        row[q] = s * vp + c * vq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchad_linalg::vecops;

    /// Measures the principal-angle distance between the planted basis at the
    /// start and end of a drift run:
    /// `1 − σ_min(B_start B_endᵀ)`, 0 when identical, → 1 when orthogonal.
    fn subspace_distance(a: &sketchad_linalg::Matrix, b: &sketchad_linalg::Matrix) -> f64 {
        let m = a.matmul(&b.transpose()).expect("basis dims must agree");
        let svd = sketchad_linalg::svd::svd_thin(&m).expect("SVD of a small matrix");
        let sigma_min = svd.s.last().copied().unwrap_or(0.0);
        (1.0 - sigma_min).clamp(0.0, 1.0)
    }

    fn base_cfg() -> LowRankStreamConfig {
        LowRankStreamConfig {
            n: 1000,
            d: 20,
            k: 3,
            anomaly_rate: 0.02,
            ..Default::default()
        }
    }

    #[test]
    fn rotating_stream_has_shape_and_labels() {
        let s = generate_drift_stream(
            base_cfg(),
            DriftKind::Rotating {
                radians_per_point: 0.01,
            },
        );
        assert_eq!(s.len(), 1000);
        let rate = s.anomaly_rate();
        assert!(rate > 0.005 && rate < 0.05, "rate {rate}");
    }

    #[test]
    fn abrupt_switch_changes_subspace() {
        let cfg = base_cfg();
        let mut generator = LowRankGenerator::new(cfg);
        let before = generator.basis().clone();
        let fresh = random_orthonormal_rows(generator.rng(), cfg.k, cfg.d);
        let dist = subspace_distance(&before, &fresh);
        assert!(dist > 0.3, "independent subspaces should be far: {dist}");
    }

    #[test]
    fn rotation_preserves_orthonormality() {
        let cfg = base_cfg();
        let mut generator = LowRankGenerator::new(cfg);
        for _ in 0..500 {
            rotate_basis(&mut generator, 0.05);
        }
        let g = generator.basis().outer_gram();
        for i in 0..cfg.k {
            for j in 0..cfg.k {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((g[(i, j)] - want).abs() < 1e-9, "G[{i}][{j}]={}", g[(i, j)]);
            }
        }
    }

    #[test]
    fn rotation_moves_the_subspace() {
        let cfg = base_cfg();
        let mut generator = LowRankGenerator::new(cfg);
        let before = generator.basis().clone();
        for _ in 0..2000 {
            rotate_basis(&mut generator, 0.01);
        }
        // Random-plane rotations diffuse: 1 − σ_min grows like θ²_total/2,
        // so after 2000 × 0.01 rad steps in d=20 the expected distance is
        // of order 1e-2.
        let dist = subspace_distance(&before, generator.basis());
        assert!(dist > 0.005, "subspace barely moved: {dist}");
    }

    #[test]
    fn subspace_distance_identical_is_zero() {
        let cfg = base_cfg();
        let generator = LowRankGenerator::new(cfg);
        let d = subspace_distance(generator.basis(), generator.basis());
        assert!(d < 1e-9);
    }

    #[test]
    fn deterministic_generation() {
        let a = generate_drift_stream(base_cfg(), DriftKind::AbruptSwitch { at_fraction: 0.5 });
        let b = generate_drift_stream(base_cfg(), DriftKind::AbruptSwitch { at_fraction: 0.5 });
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "switch fraction")]
    fn invalid_switch_fraction_rejected() {
        generate_drift_stream(base_cfg(), DriftKind::AbruptSwitch { at_fraction: 1.5 });
    }

    #[test]
    fn post_switch_normals_differ_from_pre_switch_subspace() {
        let cfg = LowRankStreamConfig {
            n: 400,
            anomaly_rate: 0.0,
            ..base_cfg()
        };
        let s = generate_drift_stream(cfg, DriftKind::AbruptSwitch { at_fraction: 0.5 });
        // Build the pre-switch basis estimate from the first 100 points.
        let pre: Vec<Vec<f64>> = s.points[..100].iter().map(|p| p.values.clone()).collect();
        let a = sketchad_linalg::Matrix::from_rows(&pre).unwrap();
        let svd = sketchad_linalg::svd::top_k_svd(&a, 3).unwrap();
        // Post-switch points should have large residual vs the old basis.
        let y = &s.points[350].values;
        let coeffs = svd.vt.matvec(y);
        let rec = svd.vt.tr_matvec(&coeffs);
        let resid_frac = vecops::dist_sq(y, &rec) / vecops::norm2_sq(y);
        assert!(resid_frac > 0.5, "post-switch residual {resid_frac}");
    }
}

//! Differential oracle for frequent directions: the sketch is run beside
//! the exact detector (`core::exact`) over adversarial streams and held to
//! its theorem, not to a friendly Gaussian.
//!
//! For every stream the harness asserts
//!
//! * the covariance sandwich `BᵀB ⪯ AᵀA ⪯ BᵀB + Σδ·I`, both sides — the
//!   upper side through `gram_diff_spectral_norm` (power iteration on the
//!   row data), the lower side through the smallest eigenvalue of the dense
//!   difference;
//! * the certificate itself, `Σδ ≤ ‖A − A_j‖²_F / (ℓ − j)` for every
//!   `j < ℓ`;
//! * finite scores from the sketched and the exact detector on every point,
//!   and a model of `min(k, sketch rows, d)` directions even where the
//!   sketch is rank-deficient.
//!
//! The linear sketches — CountSketch at s ∈ {1, 4} and the Gaussian random
//! projection — are held to their own, probabilistic covariance theorem on
//! the same unscaled streams (see [`LINEAR_FAILURE`]).
//!
//! The reference quantities come from the cyclic Jacobi eigensolver
//! (`jacobi_eigen_sym`), which shares no code with the tridiagonal-QL solver
//! the sketch's shrink runs on. On the `fd_narrow`
//! benchmark workload the measured error sits at 0.9998 of `Σδ`: there is no
//! slack for a kernel bug to hide in.

use sketchad_core::{
    DetectorConfig, ExactSvdDetector, RefreshPolicy, ScoreKind, SketchDetector, StreamingDetector,
    SubspaceModel,
};
use sketchad_linalg::eigen::jacobi_eigen_sym;
use sketchad_linalg::power::gram_diff_spectral_norm;
use sketchad_linalg::rng::{gaussian_matrix, seeded_rng};
use sketchad_linalg::{vecops, Matrix};
use sketchad_sketch::{CountSketch, FrequentDirections, MatrixSketch, RandomProjection};

/// One adversarial case: the rows, the sketch/model sizes, and the exact
/// power of two that brings the rows to unit magnitude (so the reference
/// arithmetic stays in range where the stream does not).
struct Case {
    name: &'static str,
    rows: Vec<Vec<f64>>,
    ell: usize,
    k: usize,
    unit: f64,
}

impl Case {
    fn new(name: &'static str, rows: Matrix, ell: usize, k: usize) -> Self {
        Self {
            name,
            rows: rows.iter_rows().map(<[f64]>::to_vec).collect(),
            ell,
            k,
            unit: 1.0,
        }
    }

    /// The same case with every row multiplied by `2^exp`.
    fn scaled(mut self, name: &'static str, exp: i32) -> Self {
        let unit = 2f64.powi(exp);
        for v in self.rows.iter_mut().flatten() {
            *v *= unit;
        }
        self.name = name;
        self.unit = unit;
        self
    }
}

/// `n` rows in the span of `rank` random directions of `R^d`.
fn low_rank(n: usize, d: usize, rank: usize, seed: u64) -> Matrix {
    let mut rng = seeded_rng(seed);
    let coeffs = gaussian_matrix(&mut rng, n, rank, 1.0);
    let basis = gaussian_matrix(&mut rng, rank, d, 1.0);
    coeffs.matmul(&basis).unwrap()
}

fn cases() -> Vec<Case> {
    let mut rng = seeded_rng(0xfd0);
    let mut out = Vec::new();

    out.push(Case::new("rank-deficient", low_rank(200, 12, 3, 1), 6, 4));

    let mut dup = Matrix::zeros(150, 8);
    for i in 0..150 {
        dup.set_row(i, &[3.0, -1.0, 0.5, 2.0, 0.0, -4.0, 1.0, 0.25]);
    }
    out.push(Case::new("duplicate rows", dup, 4, 2));

    let mut gaps = gaussian_matrix(&mut rng, 120, 8, 1.0);
    for i in 0..120 {
        if i < 20 || i % 3 == 0 {
            gaps.set_row(i, &[0.0; 8]);
        }
    }
    out.push(Case::new("zero rows (prefix and interleaved)", gaps, 4, 2));
    out.push(Case::new("all-zero stream", Matrix::zeros(60, 5), 3, 2));

    out.push(Case::new(
        "d = 1",
        gaussian_matrix(&mut rng, 90, 1, 2.0),
        2,
        1,
    ));
    out.push(Case::new(
        "ℓ ≥ d",
        gaussian_matrix(&mut rng, 140, 5, 1.0),
        8,
        3,
    ));
    out.push(Case::new(
        "k = ℓ",
        gaussian_matrix(&mut rng, 160, 10, 1.0),
        4,
        4,
    ));

    // Forty heavy, full-rank outliers first; the low-rank "normal" data the
    // model is meant to learn only afterwards.
    let mut prefix = gaussian_matrix(&mut rng, 40, 16, 50.0);
    for row in low_rank(200, 16, 3, 2).iter_rows() {
        prefix.push_row(row);
    }
    out.push(Case::new("all-anomaly prefix", prefix, 8, 3));

    // Dynamic range: whole streams near the ends of what a square survives
    // (2^±498 ≈ 1e±150), and one stream mixing all three scales.
    let wide = || Case::new("", gaussian_matrix(&mut seeded_rng(7), 100, 9, 1.0), 5, 3);
    out.push(wide().scaled("rows at 1e+150", 498));
    out.push(wide().scaled("rows at 1e-150", -498));
    let mut mixed = wide().scaled("rows mixing 1e+150, 1 and 1e-150", 498);
    for (i, row) in mixed.rows.iter_mut().enumerate() {
        let down = [1.0, 2f64.powi(-498), 2f64.powi(-996)][i % 3];
        row.iter_mut().for_each(|v| *v *= down);
    }
    out.push(mixed);
    out
}

/// Squared singular values of `a`, descending: the eigenvalues of `AᵀA` by
/// two-sided Jacobi (absolute accuracy `ε·‖A‖²`, inside the checks' slack).
fn spectrum_sq(a: &Matrix) -> Vec<f64> {
    let eig = jacobi_eigen_sym(&a.gram()).unwrap();
    eig.values.iter().map(|l| l.max(0.0)).collect()
}

/// Holds `fd`, which has been fed exactly the rows of `case` (by whatever
/// schedule of shrinks), to the covariance theorem. Returns `‖A‖²_F` in
/// unit-magnitude numbers.
fn assert_fd_theorem(case: &Case, fd: &FrequentDirections, name: &str) -> f64 {
    let ell = case.ell;
    // Reference arithmetic in unit-magnitude numbers: scaling by an
    // exact power of two commutes with everything being checked.
    let inv = 1.0 / case.unit;
    let a = Matrix::from_rows(&case.rows).unwrap().scaled(inv);
    let b = fd.sketch().scaled(inv);
    let delta_sum = fd.shrink_delta_sum() * inv * inv;
    assert!(b.all_finite(), "{name}: non-finite sketch");
    assert!(b.rows() <= 2 * ell);
    assert!(
        delta_sum.is_finite() && delta_sum >= 0.0,
        "{name}: Σδ = {delta_sum}"
    );

    let energy = a.squared_frobenius_norm();
    let slack = 1e-9 * energy;
    // Upper side: ‖AᵀA − BᵀB‖₂ ≤ Σδ.
    let err = gram_diff_spectral_norm(&a, &b, 400, 11);
    assert!(
        err <= delta_sum * (1.0 + 1e-9) + slack,
        "{name}: ‖AᵀA − BᵀB‖₂ = {err} exceeds Σδ = {delta_sum}"
    );
    // Both sides from the dense difference: every eigenvalue of
    // AᵀA − BᵀB lies in [0, Σδ].
    let diff = a.gram().sub(&b.gram()).unwrap();
    let eig = jacobi_eigen_sym(&diff).unwrap();
    let (top, bottom) = (eig.values[0], *eig.values.last().unwrap());
    assert!(bottom >= -slack, "{name}: BᵀB ⋠ AᵀA, λ_min = {bottom}");
    assert!(
        top <= delta_sum * (1.0 + 1e-9) + slack,
        "{name}: AᵀA ⋠ BᵀB + Σδ·I, λ_max = {top} vs Σδ = {delta_sum}"
    );
    // The certificate: Σδ ≤ ‖A − A_j‖²_F / (ℓ − j) for every j < ℓ.
    let sigma_sq = spectrum_sq(&a);
    for j in 0..ell {
        let tail: f64 = sigma_sq.iter().skip(j).sum();
        let bound = tail / (ell - j) as f64;
        assert!(
            delta_sum <= bound * (1.0 + 1e-9) + slack,
            "{name}: Σδ = {delta_sum} exceeds ‖A − A_{j}‖²_F/(ℓ − {j}) = {bound}"
        );
    }
    energy
}

#[test]
fn fd_holds_its_theorem_beside_the_exact_detector() {
    for case in cases() {
        let name = case.name;
        let d = case.rows[0].len();
        let (ell, k) = (case.ell, case.k);

        // --- the sketch alone, against the covariance theorem ---
        let mut fd = FrequentDirections::new(ell, d);
        for row in &case.rows {
            fd.update(row);
        }
        let energy = assert_fd_theorem(&case, &fd, name);

        // --- the detector on top of it, beside the exact one ---
        let (warmup, period) = (24, 16);
        let mut sketched = DetectorConfig::new(k, ell)
            .with_score(ScoreKind::RelativeProjection)
            .with_refresh(RefreshPolicy::Periodic { period })
            .with_warmup(warmup)
            .build_fd(d);
        let mut exact =
            ExactSvdDetector::new(d, k.min(d), ScoreKind::RelativeProjection, period, warmup);
        for (i, row) in case.rows.iter().enumerate() {
            let (s, e) = (sketched.process(row), exact.process(row));
            assert!(
                s.is_finite() && e.is_finite(),
                "{name}: row {i} scored {s} / {e}"
            );
        }
        // Read before the rebuild: the refresh runs the sketch's shrink,
        // which compacts a rank-deficient buffer.
        let rows_now = sketched.sketch().sketch().rows();
        sketched.rebuild_model();
        match sketched.model() {
            Some(model) => {
                // Rank-deficient or not, the model keeps min(k, rows, d)
                // directions; the ones past the sketch's rank carry σ ≈ 0.
                assert_eq!(model.k(), k.min(rows_now).min(d), "{name}: model rank");
                assert!(model.sigma().iter().all(|s| s.is_finite()), "{name}");
                assert!(model.basis().all_finite(), "{name}");
                let probe: Vec<f64> = (0..d).map(|j| case.unit * (j as f64 + 1.0)).collect();
                for kind in [
                    ScoreKind::ProjectionDistance,
                    ScoreKind::RelativeProjection,
                    ScoreKind::Leverage,
                ] {
                    let s = kind.evaluate(model, &probe);
                    assert!(!s.is_nan(), "{name}: {kind:?} is NaN on a probe");
                }
            }
            None => assert_eq!(energy, 0.0, "{name}: no model from a non-zero stream"),
        }
    }
}

#[test]
fn rank_deficient_streams_score_like_the_exact_detector() {
    // A stream of exact rank r < ℓ loses no mass to a shrink (δ is rounding
    // noise), so the sketched model spans the stream exactly: in-span points
    // score ~0 relative projection distance on both detectors. With k = r
    // the two models are the same subspace and an off-span probe scores the
    // same on both; with k > r the extra directions are whatever each
    // solver makes of a null space (σ ≈ 0), so only the in-span claim holds.
    let (d, rank, ell) = (12usize, 3usize, 6usize);
    let stream = low_rank(240, d, rank, 5);
    let energy = stream.squared_frobenius_norm();
    let probe: Vec<f64> = (0..d).map(|j| ((j * j + 1) as f64).sin()).collect();
    for k in [rank, rank + 1] {
        let mut sketched = DetectorConfig::new(k, ell)
            .with_score(ScoreKind::RelativeProjection)
            .with_refresh(RefreshPolicy::Periodic { period: 16 })
            .with_warmup(32)
            .build_fd(d);
        let mut exact = ExactSvdDetector::new(d, k, ScoreKind::RelativeProjection, 16, 32);
        for (i, row) in stream.iter_rows().enumerate() {
            let (s, e) = (sketched.process(row), exact.process(row));
            if i >= 48 {
                assert!(
                    s.abs() <= 1e-9 && e.abs() <= 1e-9,
                    "k={k} row {i}: {s} / {e}"
                );
            }
        }
        assert!(sketched.sketch().shrink_delta_sum() <= 1e-12 * energy);
        let model = sketched.model().unwrap();
        assert_eq!(model.k(), k);
        if k > rank {
            assert!(model.sigma()[rank] <= 1e-7 * model.sigma()[0]);
        } else {
            let (s, e) = (
                sketched.score_only(&probe).unwrap(),
                exact.score_only(&probe).unwrap(),
            );
            assert!(
                (s - e).abs() <= 1e-9,
                "off-span probe: sketched {s} vs exact {e}"
            );
        }
    }
}

/// Forces a refresh and holds the model it reads off the shrink's factor to
/// the cold build (`SubspaceModel::from_matrix`, its own decomposition of a
/// copy) of the sketch as it stood before: same rank, σ to `1e-12·σ₁`, and
/// every direction whose σ² is separated from its neighbours within `1e-8`
/// rad.
fn assert_read_off_is_the_cold_model(
    case: &Case,
    det: &mut SketchDetector<FrequentDirections>,
    name: &str,
) {
    let before = det.sketch().sketch();
    let refreshes = det.refresh_count();
    det.rebuild_model();
    if before.rows() == 0 {
        assert_eq!(det.refresh_count(), refreshes, "{name}: model of nothing");
        return;
    }
    assert_eq!(det.refresh_count(), refreshes + 1, "{name}: no refresh");
    let d = before.cols();
    let want = SubspaceModel::from_matrix(&before, case.k, det.sketch().rows_seen()).unwrap();
    let got = det.model().unwrap();
    assert_eq!(want.k(), case.k.min(before.rows()).min(d));
    assert_eq!(got.k(), want.k(), "{name}: model rank");
    assert_eq!(got.rows_represented(), want.rows_represented());

    let sigma_1 = want.sigma()[0];
    for (j, (g, w)) in got.sigma().iter().zip(want.sigma()).enumerate() {
        assert!(
            (g - w).abs() <= 1e-12 * sigma_1,
            "{name}: σ_{j} read off as {g}, cold {w}"
        );
    }
    let energy = want.total_energy();
    assert!((got.total_energy() - energy).abs() <= 1e-12 * energy);

    // λ_j of the pre-refresh sketch in unit-magnitude numbers, all d of
    // them, so a direction's gap to the first one *outside* the model is
    // known too.
    let lambda = spectrum_sq(&before.scaled(1.0 / case.unit));
    for j in 0..got.k() {
        let gap = [j.checked_sub(1), Some(j + 1).filter(|&n| n < d)]
            .into_iter()
            .flatten()
            .map(|n| (lambda[j] - lambda[n]).abs())
            .fold(f64::INFINITY, f64::min);
        if gap < 1e-6 * lambda[0] {
            continue;
        }
        let (v, w) = (got.basis().row(j), want.basis().row(j));
        let mut off = v.to_vec();
        vecops::axpy(-vecops::dot(v, w), w, &mut off);
        let angle = vecops::norm2_sq(&off).sqrt();
        assert!(angle <= 1e-8, "{name}: direction {j} is {angle} rad off");
    }
}

#[test]
fn detector_driven_shrinks_keep_the_theorem_and_the_exact_model() {
    // Under a detector every refresh is a shrink, on a buffer of whatever
    // fill the refresh schedule finds: before the first buffer-full shrink,
    // on every row, just short of / exactly at / past the buffer-full
    // cadence, and on the energy trigger's data-dependent schedule.
    for case in cases() {
        let d = case.rows[0].len();
        let (ell, k) = (case.ell, case.k);
        let periods = [1, ell - 1, ell, 2 * ell + 1];
        let policies = periods
            .map(|period| RefreshPolicy::Periodic { period })
            .into_iter()
            .chain([RefreshPolicy::EnergyTriggered {
                growth: 0.5,
                max_period: 3 * ell,
            }]);
        for refresh in policies {
            let name = format!("{} under {}", case.name, refresh.label());
            let mut det = DetectorConfig::new(k, ell)
                .with_score(ScoreKind::RelativeProjection)
                .with_refresh(refresh)
                .with_warmup(3)
                .build_fd(d);
            for (i, row) in case.rows.iter().enumerate() {
                let s = det.process(row);
                assert!(s.is_finite(), "{name}: row {i} scored {s}");
                if i == case.rows.len() / 2 {
                    assert_read_off_is_the_cold_model(&case, &mut det, &name);
                }
            }
            assert_read_off_is_the_cold_model(&case, &mut det, &name);
            // The schedule really was the detector's: one decomposition per
            // refresh, each of them a shrink.
            assert!(det.refresh_count() >= (case.rows.len() / (3 * ell)) as u64);
            assert_fd_theorem(&case, det.sketch(), &name);
        }
    }
}

/// The failure probability δ each linear-sketch assertion is allowed.
///
/// CountSketch (any `s` distinct buckets, signs `±1/√s`) and the Gaussian
/// projection (entries `N(0, 1/ℓ)`) are unbiased, `E[BᵀB] = AᵀA`, with
/// `E‖AᵀA − BᵀB‖²_F ≤ (2/ℓ)‖A‖⁴_F`: for a row pair `t ≠ u` the weight of
/// `a_t a_uᵀ` has variance `1/ℓ`, and distinct pairs are uncorrelated. By
/// Markov, `‖AᵀA − BᵀB‖_F ≤ √(2/(ℓδ))·‖A‖²_F` with probability at least
/// `1 − δ` — the approximate-matrix-product theorem (Clarkson–Woodruff), and
/// a bound on the spectral covariance error too, since `‖·‖₂ ≤ ‖·‖_F`. The
/// mean Gram of `m` independently seeded sketches is the Gram of the `m`
/// stacked and scaled by `1/√m`, a sketch of `m·ℓ` rows whose pair weights
/// have variance `1/(m·ℓ)`, so it meets the same bound with `m·ℓ` for `ℓ`.
const LINEAR_FAILURE: f64 = 0.01;

/// Independently seeded sketches per stream and sketch kind.
const LINEAR_SEEDS: u64 = 64;

/// `‖AᵀA − G‖_F` for a `d × d` matrix `G`.
fn gram_error(a_gram: &Matrix, g: &Matrix) -> f64 {
    a_gram.sub(g).unwrap().frobenius_norm()
}

#[test]
fn linear_sketches_hold_their_covariance_bound() {
    type Build = fn(usize, usize, u64) -> Box<dyn MatrixSketch>;
    let kinds: [(&str, usize, Build); 3] = [
        ("count-sketch s=1", 1, |ell, d, seed| {
            Box::new(CountSketch::new(ell, d, 1, seed))
        }),
        ("count-sketch s=4", 4, |ell, d, seed| {
            Box::new(CountSketch::new(ell, d, 4, seed))
        }),
        ("random projection", 1, |ell, d, seed| {
            Box::new(RandomProjection::new(ell, d, seed))
        }),
    ];
    for case in cases().into_iter().filter(|c| c.unit == 1.0) {
        let d = case.rows[0].len();
        let ell = case.ell;
        let a = Matrix::from_rows(&case.rows).unwrap();
        let (a_gram, energy) = (a.gram(), a.squared_frobenius_norm());
        let slack = 1e-9 * energy;
        for (kind, s, build) in kinds {
            // s distinct buckets need ℓ ≥ s.
            if s > ell {
                continue;
            }
            let name = format!("{kind} on {}", case.name);
            let bound = |rows: usize| (2.0 / (rows as f64 * LINEAR_FAILURE)).sqrt() * energy;
            let mut mean = Matrix::zeros(d, d);
            for seed in 0..LINEAR_SEEDS {
                let mut sketch = build(ell, d, seed);
                for row in &case.rows {
                    sketch.update(row);
                }
                let g = sketch.sketch().gram();
                assert!(g.all_finite(), "{name}, seed {seed}: non-finite sketch");
                let err = gram_error(&a_gram, &g);
                assert!(
                    err <= bound(ell) + slack,
                    "{name}, seed {seed}: ‖AᵀA − BᵀB‖_F = {err} exceeds {} (δ = {LINEAR_FAILURE})",
                    bound(ell)
                );
                mean = mean.add(&g).unwrap();
            }
            let mean = mean.scaled(1.0 / LINEAR_SEEDS as f64);
            let err = gram_error(&a_gram, &mean);
            let rows = LINEAR_SEEDS as usize * ell;
            assert!(
                err <= bound(rows) + slack,
                "{name}: the mean of {LINEAR_SEEDS} Grams is {err} from AᵀA, over {} (δ = {LINEAR_FAILURE})",
                bound(rows)
            );
        }
    }
}

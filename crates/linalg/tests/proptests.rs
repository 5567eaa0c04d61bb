//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use sketchad_linalg::eigen::{eigen_sym, eigen_sym_top, jacobi_eigen_sym};
use sketchad_linalg::power::spectral_norm;
use sketchad_linalg::qr::qr_thin;
use sketchad_linalg::rng::{random_orthonormal_rows, seeded_rng};
use sketchad_linalg::svd::{right_factor, svd_jacobi, svd_thin, Workspace};
use sketchad_linalg::vecops;
use sketchad_linalg::Matrix;

/// Strategy: a matrix with bounded entries and small-but-varied shape.
fn matrix_strategy(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        prop::collection::vec(-100.0f64..100.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).unwrap())
    })
}

/// Strategy: a symmetric matrix built as M + Mᵀ.
fn symmetric_strategy(max_n: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_n).prop_flat_map(|n| {
        prop::collection::vec(-10.0f64..10.0, n * n).prop_map(move |data| {
            let m = Matrix::from_vec(n, n, data).unwrap();
            m.add(&m.transpose()).unwrap()
        })
    })
}

/// Strategy: the shapes the Gram-route kernel must get right — wide, tall,
/// square, exactly rank-deficient (a product through a thin inner
/// dimension) and all-zero.
fn factor_input_strategy() -> impl Strategy<Value = Matrix> {
    (0..5usize, 1..=12usize, 1..=12usize, 1..=3usize).prop_flat_map(|(kind, a, b, q)| {
        let (m, n) = match kind {
            0 => (a.min(b), a.max(b) + 1), // wide
            1 => (a.max(b) + 1, a.min(b)), // tall
            2 => (a, a),                   // square
            _ => (a, b),
        };
        prop::collection::vec(-100.0f64..100.0, (m + n) * m.max(n)).prop_map(move |data| {
            match kind {
                3 => {
                    // rank ≤ q: (m × q)·(q × n).
                    let q = q.min(m).min(n);
                    let l = Matrix::from_vec(m, q, data[..m * q].to_vec()).unwrap();
                    let r = Matrix::from_vec(q, n, data[m * q..m * q + q * n].to_vec()).unwrap();
                    l.matmul(&r).unwrap()
                }
                4 => Matrix::zeros(m, n),
                _ => Matrix::from_vec(m, n, data[..m * n].to_vec()).unwrap(),
            }
        })
    })
}

/// Strategy: a generic rank-`r` matrix `Lᵀ·diag(s)·R` with `r < min(m, n)`,
/// `L` and `R` random orthonormal rows and `s ∈ [1, 8)`: non-integer
/// entries, so — unlike an integer product — rounding leaves noise in every
/// direction past the rank, and a Gram route must not count it as signal.
/// Returns the matrix and `r`.
fn generic_low_rank_strategy() -> impl Strategy<Value = (Matrix, usize)> {
    (2..=16usize, 2..=16usize, 0..u64::MAX).prop_flat_map(|(m, n, seed)| {
        (1..m.min(n), prop::collection::vec(1.0f64..8.0, 16)).prop_map(move |(r, s)| {
            let mut rng = seeded_rng(seed);
            let l = random_orthonormal_rows(&mut rng, r, m);
            let rt = random_orthonormal_rows(&mut rng, r, n);
            let a = l
                .transpose()
                .matmul(&Matrix::from_diag(&s[..r]))
                .unwrap()
                .matmul(&rt)
                .unwrap();
            (a, r)
        })
    })
}

/// Strategy: a symmetric matrix `Qᵀ diag(λ) Q` with `Q` random orthogonal and
/// `λ` drawn from a small palette, so repeated and zero eigenvalues are the
/// rule rather than the exception. Returns the matrix and its spectrum.
fn planted_symmetric_strategy(max_n: usize) -> impl Strategy<Value = (Matrix, Vec<f64>)> {
    (1..=max_n, 0..u64::MAX).prop_flat_map(|(n, seed)| {
        let palette = vec![0.0, 0.0, 1.0, 1.0, 2.5, 7.0, -3.0, 1e-9];
        prop::collection::vec(prop::sample::select(palette), n).prop_map(move |eigs| {
            let q = random_orthonormal_rows(&mut seeded_rng(seed), n, n);
            let s = q
                .transpose()
                .matmul(&Matrix::from_diag(&eigs))
                .unwrap()
                .matmul(&q)
                .unwrap();
            (s, eigs)
        })
    })
}

/// Checks that `(values, vectors)` — as many pairs as `values` holds — are
/// eigenpairs of `s` by their own certificate: small residuals
/// `‖S·v − λ·v‖` and orthonormal vectors.
fn assert_eigen_certificate(s: &Matrix, values: &[f64], vectors: &Matrix, tol: f64) {
    let n = s.rows();
    let scale = s.max_abs().max(1.0);
    for (j, &lambda) in values.iter().enumerate() {
        let v = vectors.col(j);
        let sv = s.matvec(&v);
        let res = sv
            .iter()
            .zip(&v)
            .map(|(a, b)| (a - lambda * b) * (a - lambda * b))
            .sum::<f64>()
            .sqrt();
        assert!(res <= tol * scale, "n={n} pair {j}: residual {res}");
    }
    let vtv = vectors.tr_matmul(vectors).unwrap();
    let off = vtv.sub(&Matrix::identity(values.len())).unwrap().max_abs();
    assert!(off <= tol, "n={n}: VᵀV − I = {off}");
}

#[test]
fn ql_certificate_and_planted_spectrum_up_to_160() {
    // The sizes past what the Jacobi oracle covers cheaply in a debug build:
    // the certificate (residual + orthonormality) is complete on its own,
    // and the planted spectrum — with a triple, a pair and zeros — pins the
    // eigenvalues.
    for n in [64usize, 100, 128, 160] {
        let mut eigs: Vec<f64> = (0..n).map(|i| ((n - i) / 4) as f64).collect();
        eigs[0] = n as f64;
        let q = random_orthonormal_rows(&mut seeded_rng(n as u64), n, n);
        let s = q
            .transpose()
            .matmul(&Matrix::from_diag(&eigs))
            .unwrap()
            .matmul(&q)
            .unwrap();
        eigs.sort_by(|a, b| b.partial_cmp(a).unwrap());
        // Every pair, and the top 16 alone (the keep-aware solver's
        // `linear_wide` shape at n = 128).
        for e in [eigen_sym(&s).unwrap(), eigen_sym_top(&s, 16).unwrap()] {
            for (got, want) in e.values.iter().zip(&eigs) {
                assert!(
                    (got - want).abs() <= 1e-10 * n as f64,
                    "n={n}: {got} vs {want}"
                );
            }
            assert_eigen_certificate(&s, &e.values, &e.vectors, 1e-11);
        }
    }
}

#[test]
fn tiled_outer_gram_matches_per_pair_dots_at_full_size() {
    // The `linear_wide` refresh's shape: a 128 × 1024 sketch.
    let (m, n) = (128usize, 1024usize);
    let data = (0..m * n)
        .map(|i| ((i * 7 + 3) as f64 * 0.37).sin() * 100.0)
        .collect();
    assert_outer_gram_matches_dots(&Matrix::from_vec(m, n, data).unwrap());
}

/// Holds `Matrix::outer_gram` to per-pair `vecops::dot` at relative 1e-14
/// of `‖aᵢ‖·‖aⱼ‖` (the summation orders differ, so not bit for bit), and
/// to exact symmetry.
fn assert_outer_gram_matches_dots(a: &Matrix) {
    let g = a.outer_gram();
    let m = a.rows();
    for i in 0..m {
        for j in 0..m {
            let want = vecops::dot(a.row(i), a.row(j));
            let scale = vecops::norm2(a.row(i)) * vecops::norm2(a.row(j));
            assert!(
                (g[(i, j)] - want).abs() <= 1e-14 * scale,
                "{}x{} ({i},{j}): {} vs {want}",
                m,
                a.cols(),
                g[(i, j)]
            );
            assert_eq!(g[(i, j)].to_bits(), g[(j, i)].to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn right_factor_matches_one_sided_jacobi(a in factor_input_strategy(), keep_sel in 0..3usize) {
        let (m, n) = a.shape();
        let r = m.min(n);
        let keep = [1, (r / 2).max(1), r][keep_sel];
        let reference = svd_jacobi(&a).unwrap();
        let mut ws = Workspace::default();
        let rf = right_factor(&a, m, keep, &mut ws).unwrap();
        prop_assert_eq!(rf.unscale(), 1.0);
        prop_assert_eq!(rf.scaled_sigma_sq().len(), r);
        prop_assert_eq!(rf.kept(), keep);

        // Every σ to 1e-7·σ₁ (the Gram route's honest accuracy), descending.
        let s1 = reference.s[0];
        for i in 0..r {
            prop_assert!((rf.sigma(i) - reference.s[i]).abs() <= 1e-7 * s1.max(1e-300),
                "σ[{}]: {} vs {}", i, rf.sigma(i), reference.s[i]);
            prop_assert_eq!(rf.sigma_sq(i), rf.scaled_sigma_sq()[i]);
        }
        for w in rf.scaled_sigma_sq().windows(2) {
            prop_assert!(w[0] >= w[1] && w[1] >= 0.0);
        }

        // Resolved rows are unit right-singular vectors (‖A·v‖ = σ, mutually
        // orthogonal); unresolved rows are zero, and nothing the reference
        // sees clearly above the noise floor is left unresolved.
        let live = rf.resolved().min(keep);
        let clear = reference.s.iter().take_while(|&&s| s > 1e-6 * s1).count();
        prop_assert!(rf.resolved() >= clear.min(r), "resolved {} < rank {}", rf.resolved(), clear);
        for i in 0..keep {
            let v = rf.vt_row(i);
            if i >= live {
                prop_assert!(v.iter().all(|&x| x == 0.0));
                continue;
            }
            if i >= clear {
                continue; // a noise-level direction: resolved, but not checkable
            }
            let av = vecops::norm2(&a.matvec(v));
            prop_assert!((av - reference.s[i]).abs() <= 1e-7 * s1, "‖A·v{}‖ = {}", i, av);
            for j in 0..i.min(clear) {
                let dot = vecops::dot(v, rf.vt_row(j));
                prop_assert!(dot.abs() <= 1e-7, "v{}·v{} = {}", i, j, dot);
            }
            prop_assert!((vecops::norm2(v) - 1.0).abs() <= 1e-7);
        }

        // Top-`keep` subspace by principal angle, where a spectral gap makes
        // it well defined.
        let gap_ok = keep <= clear && (keep == r || reference.s[keep - 1] - reference.s[keep] > 1e-3 * s1);
        if gap_ok {
            let mine = Matrix::from_vec(keep, n, rf.vt().to_vec()).unwrap();
            let cosines = svd_jacobi(&mine.matmul_nt(&reference.vt.top_rows(keep)).unwrap()).unwrap();
            let worst = cosines.s.last().copied().unwrap();
            prop_assert!(1.0 - worst <= 1e-8, "largest principal angle: cos = {}", worst);
        }
    }

    #[test]
    fn gram_route_resolves_exactly_the_rank_of_generic_low_rank_input(
        (a, rank) in generic_low_rank_strategy(),
    ) {
        // The directions past the rank hold only rounding: σ ≈ √(r·ε)·σ₁
        // out of a Gram route. Counted as resolved, their "vectors" are
        // noise and `svd_thin`'s U = A·V·Σ⁻¹ is far from orthonormal.
        let (m, n) = a.shape();
        let r = m.min(n);
        let mut ws = Workspace::default();
        let rf = right_factor(&a, m, r, &mut ws).unwrap();
        prop_assert_eq!(rf.resolved(), rank, "{}x{} of rank {}", m, n, rank);
        let svd = svd_thin(&a).unwrap();
        let utu = svd.u.tr_matmul(&svd.u).unwrap().sub(&Matrix::identity(r)).unwrap().max_abs();
        let vvt = svd.vt.matmul_nt(&svd.vt).unwrap().sub(&Matrix::identity(r)).unwrap().max_abs();
        prop_assert!(utu <= 1e-8, "{}x{} of rank {}: |UᵀU − I| = {}", m, n, rank, utu);
        prop_assert!(vvt <= 1e-8, "{}x{} of rank {}: |VᵀV − I| = {}", m, n, rank, vvt);
        let rec = svd.reconstruct().sub(&a).unwrap().max_abs();
        // The Gram route's honest accuracy, relative to σ₁ < 8.
        prop_assert!(rec <= 1e-7 * 8.0, "reconstruction error {}", rec);
    }

    #[test]
    fn reused_workspace_gives_the_bits_of_a_fresh_one(
        a in factor_input_strategy(),
        b in factor_input_strategy(),
        keep_a in 1..=12usize,
        keep_b in 1..=12usize,
    ) {
        // The workspace is scratch, never state: whatever it decomposed
        // before — another shape, another keep — leaves no trace.
        let capture = |m: &Matrix, keep: usize, ws: &mut Workspace| {
            let rf = right_factor(m, m.rows(), keep, ws).unwrap();
            let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
            (bits(rf.scaled_sigma_sq()), bits(rf.vt()), rf.unscale().to_bits(), rf.resolved())
        };
        let mut shared = Workspace::default();
        let first = capture(&a, keep_a, &mut shared);
        let second = capture(&b, keep_b, &mut shared);
        let again = capture(&a, keep_a, &mut shared);
        prop_assert_eq!(&first, &capture(&a, keep_a, &mut Workspace::default()));
        prop_assert_eq!(&second, &capture(&b, keep_b, &mut Workspace::for_shape(40, 40, 40)));
        prop_assert_eq!(&first, &again);
    }

    #[test]
    fn ql_matches_jacobi_oracle((s, eigs) in planted_symmetric_strategy(40)) {
        let ql = eigen_sym(&s).unwrap();
        let oracle = jacobi_eigen_sym(&s).unwrap();
        let mut planted = eigs.clone();
        planted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for (i, &got) in ql.values.iter().enumerate() {
            prop_assert!((got - oracle.values[i]).abs() <= 1e-11,
                "λ[{}]: ql {} vs jacobi {}", i, got, oracle.values[i]);
            prop_assert!((got - planted[i]).abs() <= 1e-11);
        }
        assert_eigen_certificate(&s, &ql.values, &ql.vectors, 1e-12);
    }

    #[test]
    fn keep_aware_solver_matches_jacobi_oracle(
        (s, _) in planted_symmetric_strategy(40),
        keep_sel in 0..4usize,
    ) {
        let n = s.rows();
        let keep = [1, n.div_ceil(8), (n / 2).max(1), n][keep_sel];
        let top = eigen_sym_top(&s, keep).unwrap();
        let oracle = jacobi_eigen_sym(&s).unwrap();
        prop_assert_eq!(top.values.len(), keep);
        prop_assert_eq!(top.vectors.shape(), (n, keep));
        for (i, &got) in top.values.iter().enumerate() {
            prop_assert!((got - oracle.values[i]).abs() <= 1e-11,
                "keep {}: λ[{}]: {} vs jacobi {}", keep, i, got, oracle.values[i]);
        }
        assert_eigen_certificate(&s, &top.values, &top.vectors, 1e-12);
    }

    #[test]
    fn tiled_outer_gram_matches_per_pair_dots(
        (m, n) in (1..=13usize, 0..=40usize),
        data in prop::collection::vec(-100.0f64..100.0, 13 * 40),
    ) {
        let a = Matrix::from_vec(m, n, data[..m * n].to_vec()).unwrap();
        assert_outer_gram_matches_dots(&a);
    }

    #[test]
    fn rot_dispatch_tier_matches_reference(
        x in prop::collection::vec(-50.0f64..50.0, 0..200),
        y in prop::collection::vec(-50.0f64..50.0, 0..200),
        angle in -3.2f64..3.2,
    ) {
        // Whatever tier the host dispatches to (AVX-512, AVX2+FMA, or scalar
        // under SKETCHAD_FORCE_SCALAR=1) must agree with the two-multiply
        // reference to rounding: fusing changes the last bit at most.
        let n = x.len().min(y.len());
        let (c, s) = (angle.cos(), angle.sin());
        let (mut xr, mut yr) = (x[..n].to_vec(), y[..n].to_vec());
        vecops::rot(&mut xr, &mut yr, c, s);
        for i in 0..n {
            let (a, b) = (x[i], y[i]);
            let tol = 4.0 * f64::EPSILON * (a.abs() + b.abs());
            prop_assert!((xr[i] - (c * a - s * b)).abs() <= tol, "x[{}] of {}", i, n);
            prop_assert!((yr[i] - (s * a + c * b)).abs() <= tol, "y[{}] of {}", i, n);
        }
    }

    #[test]
    fn transpose_is_involution(a in matrix_strategy(12, 12)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_is_associative(
        a in matrix_strategy(6, 6),
        bdata in prop::collection::vec(-10.0f64..10.0, 36),
        cdata in prop::collection::vec(-10.0f64..10.0, 36),
    ) {
        let n = a.cols();
        let b = Matrix::from_vec(n, 6, bdata[..n * 6].to_vec()).unwrap();
        let c = Matrix::from_vec(6, 4, cdata[..24].to_vec()).unwrap();
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        let diff = left.sub(&right).unwrap().max_abs();
        let scale = left.max_abs().max(1.0);
        prop_assert!(diff / scale < 1e-10, "assoc diff {}", diff);
    }

    #[test]
    fn gram_is_psd(a in matrix_strategy(10, 8)) {
        let g = a.gram();
        prop_assert!(g.is_symmetric(1e-9 * g.max_abs().max(1.0)));
        // xᵀGx >= 0 for a few deterministic probes.
        let d = g.rows();
        for probe in 0..3usize {
            let x: Vec<f64> = (0..d).map(|i| ((i + probe * 7 + 1) as f64).sin()).collect();
            let gx = g.matvec(&x);
            let quad = vecops::dot(&x, &gx);
            prop_assert!(quad >= -1e-8 * g.max_abs().max(1.0), "quad {}", quad);
        }
    }

    #[test]
    fn qr_reconstructs_and_orthogonal(a in matrix_strategy(10, 10)) {
        let (q, r) = qr_thin(&a).unwrap();
        let rec = q.matmul(&r).unwrap();
        let scale = a.max_abs().max(1.0);
        prop_assert!(rec.sub(&a).unwrap().max_abs() / scale < 1e-9);
        let k = a.rows().min(a.cols());
        let qtq = q.tr_matmul(&q).unwrap();
        prop_assert!(qtq.sub(&Matrix::identity(k)).unwrap().max_abs() < 1e-9);
    }

    #[test]
    fn svd_reconstructs(a in matrix_strategy(9, 9)) {
        let svd = svd_thin(&a).unwrap();
        let rec = svd.reconstruct();
        let scale = a.max_abs().max(1.0);
        prop_assert!(rec.sub(&a).unwrap().max_abs() / scale < 1e-7,
            "svd reconstruction error {}", rec.sub(&a).unwrap().max_abs());
        // Singular values descending and non-negative.
        for w in svd.s.windows(2) {
            prop_assert!(w[0] + 1e-12 >= w[1]);
        }
        prop_assert!(svd.s.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn svd_frobenius_identity(a in matrix_strategy(8, 10)) {
        // ‖A‖_F² == Σ σᵢ².
        let svd = svd_thin(&a).unwrap();
        let sum_sq: f64 = svd.s.iter().map(|v| v * v).sum();
        let fro = a.squared_frobenius_norm();
        prop_assert!((sum_sq - fro).abs() / fro.max(1.0) < 1e-8);
    }

    #[test]
    fn jacobi_eigen_trace_identity(s in symmetric_strategy(8)) {
        // tr(S) == Σ λᵢ and eigenvectors are orthonormal.
        let e = jacobi_eigen_sym(&s).unwrap();
        let trace: f64 = (0..s.rows()).map(|i| s[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        prop_assert!((trace - sum).abs() / trace.abs().max(1.0) < 1e-9);
        let n = s.rows();
        let vtv = e.vectors.tr_matmul(&e.vectors).unwrap();
        prop_assert!(vtv.sub(&Matrix::identity(n)).unwrap().max_abs() < 1e-9);
    }

    #[test]
    fn spectral_norm_bounded_by_frobenius(a in matrix_strategy(8, 8)) {
        let s2 = spectral_norm(&a, 200, 99);
        let fro = a.frobenius_norm();
        prop_assert!(s2 <= fro * (1.0 + 1e-9), "spectral {} > frobenius {}", s2, fro);
        // And at least fro / sqrt(rank) >= fro / sqrt(min dim).
        let r = a.rows().min(a.cols()) as f64;
        prop_assert!(s2 * r.sqrt() >= fro * (1.0 - 1e-6));
    }

    #[test]
    fn dot_cauchy_schwarz(
        x in prop::collection::vec(-50.0f64..50.0, 1..40),
        y in prop::collection::vec(-50.0f64..50.0, 1..40),
    ) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let d = vecops::dot(x, y).abs();
        let bound = vecops::norm2(x) * vecops::norm2(y);
        prop_assert!(d <= bound * (1.0 + 1e-12));
    }
}

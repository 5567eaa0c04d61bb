//! Incremental-SVD ("iSVD") truncation sketch — the classical competitor
//! that frequent directions improves upon.
//!
//! Identical machinery to FD's doubling buffer, but the shrink step keeps
//! the top-ℓ singular directions **without** subtracting `δ = σ²_{ℓ+1}`.
//! This is the sequential Karhunen–Loève / incremental PCA update used by
//! many systems. It has *no worst-case guarantee*: adversarial orderings
//! make it drop a direction's mass repeatedly while it is building up, so
//! its covariance estimate can both over-weight early-dominant directions
//! and entirely miss late-arriving ones. Kept as an ablation arm (see the
//! `fd_vs_isvd` experiment/test) to demonstrate why the δ-subtraction
//! matters.

use sketchad_linalg::svd::svd_thin;
use sketchad_linalg::Matrix;

use crate::traits::{assert_row_len, assert_valid_decay, MatrixSketch};

/// Rank-ℓ truncation sketch (incremental SVD without shrinkage).
#[derive(Debug, Clone)]
pub struct IsvdTruncation {
    ell: usize,
    dim: usize,
    buffer: Matrix,
    occupied: usize,
    rows_seen: u64,
    frobenius_sq: f64,
}

impl IsvdTruncation {
    /// Creates an empty truncation sketch of rank `ell` over dimension `dim`.
    ///
    /// # Panics
    /// Panics when `ell == 0` or `dim == 0`.
    pub fn new(ell: usize, dim: usize) -> Self {
        assert!(ell > 0, "sketch size ℓ must be positive");
        assert!(dim > 0, "dimension must be positive");
        sketchad_linalg::vecops::resolve_tier();
        Self {
            ell,
            dim,
            buffer: Matrix::zeros(2 * ell, dim),
            occupied: 0,
            rows_seen: 0,
            frobenius_sq: 0.0,
        }
    }

    /// Truncation step: SVD the occupied buffer, keep the top ℓ directions
    /// at their *full* singular values.
    fn truncate(&mut self) {
        let occupied = self.buffer.top_rows(self.occupied);
        let svd = svd_thin(&occupied).expect("SVD of a finite buffer");
        let keep = self.ell.min(svd.s.len());
        let mut new_occupied = 0;
        for i in 0..keep {
            if svd.s[i] > 0.0 {
                let dst = self.buffer.row_mut(new_occupied);
                for (d, &v) in dst.iter_mut().zip(svd.vt.row(i).iter()) {
                    *d = svd.s[i] * v;
                }
                new_occupied += 1;
            }
        }
        for i in new_occupied..self.occupied {
            for v in self.buffer.row_mut(i) {
                *v = 0.0;
            }
        }
        self.occupied = new_occupied;
    }
}

impl MatrixSketch for IsvdTruncation {
    fn dim(&self) -> usize {
        self.dim
    }

    fn capacity(&self) -> usize {
        self.ell
    }

    fn rows_seen(&self) -> u64 {
        self.rows_seen
    }

    fn update(&mut self, row: &[f64]) {
        assert_row_len(row, self.dim, "IsvdTruncation::update");
        if self.occupied == self.buffer.rows() {
            self.truncate();
        }
        self.buffer.set_row(self.occupied, row);
        self.occupied += 1;
        self.rows_seen += 1;
        self.frobenius_sq += row.iter().map(|v| v * v).sum::<f64>();
    }

    fn sketch(&self) -> Matrix {
        self.buffer.top_rows(self.occupied)
    }

    fn decay(&mut self, alpha: f64) {
        assert_valid_decay(alpha);
        let s = alpha.sqrt();
        for i in 0..self.occupied {
            for v in self.buffer.row_mut(i) {
                *v *= s;
            }
        }
        self.frobenius_sq *= alpha;
    }

    fn reset(&mut self) {
        self.buffer = Matrix::zeros(2 * self.ell, self.dim);
        self.occupied = 0;
        self.rows_seen = 0;
        self.frobenius_sq = 0.0;
    }

    fn name(&self) -> &'static str {
        "isvd-truncation"
    }

    fn stream_frobenius_sq(&self) -> f64 {
        self.frobenius_sq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frequent_directions::FrequentDirections;
    use sketchad_linalg::power::gram_diff_spectral_norm;
    use sketchad_linalg::rng::{gaussian_matrix, seeded_rng};

    #[test]
    fn exact_on_low_rank_streams() {
        // Rank ≤ ℓ input: truncation loses nothing.
        let mut s = IsvdTruncation::new(4, 10);
        for i in 0..100 {
            let mut row = vec![0.0; 10];
            row[i % 3] = 1.0 + (i as f64) * 0.01;
            s.update(&row);
        }
        let b = s.sketch();
        assert!(b.rows() <= 8);
        // Reconstruct the exact Gram of the stream.
        let mut a = Matrix::zeros(0, 10);
        for i in 0..100 {
            let mut row = vec![0.0; 10];
            row[i % 3] = 1.0 + (i as f64) * 0.01;
            a.push_row(&row);
        }
        let err = gram_diff_spectral_norm(&a, &b, 100, 1);
        assert!(err < 1e-8, "err {err}");
    }

    #[test]
    fn adversarial_ordering_breaks_truncation_but_not_fd() {
        // A direction that arrives as many small rows after ℓ dominant
        // directions are established: truncation keeps discarding it, FD
        // accounts for it via the δ ledger. Measure the *signed* error in
        // that direction.
        let d = 20;
        let ell = 4;
        let mut rng = seeded_rng(9);
        let mut isvd = IsvdTruncation::new(ell, d);
        let mut fd = FrequentDirections::new(ell, d);
        let mut a = Matrix::zeros(0, d);

        // 5 strong directions (one more than ℓ) with interleaved weak rows
        // along e19.
        for i in 0..400 {
            let mut row = vec![0.0; d];
            row[i % 5] = 3.0 + 0.1 * sketchad_linalg::rng::gaussian(&mut rng);
            isvd.update(&row);
            fd.update(&row);
            a.push_row(&row);
            let mut weak = vec![0.0; d];
            weak[19] = 0.8;
            isvd.update(&weak);
            fd.update(&weak);
            a.push_row(&weak);
        }

        // True mass along e19: 400 · 0.64 = 256.
        let e19_mass = |b: &Matrix| -> f64 {
            let mut x = vec![0.0; d];
            x[19] = 1.0;
            let bx = b.matvec(&x);
            bx.iter().map(|v| v * v).sum()
        };
        let truth = e19_mass(&a);
        let isvd_mass = e19_mass(&isvd.sketch());
        let fd_mass = e19_mass(&fd.sketch());
        // FD underestimates by at most Σδ ≤ ‖A‖²/ℓ but retains a bounded
        // fraction; truncation repeatedly drops the direction entirely.
        assert!(
            isvd_mass < 0.35 * truth,
            "truncation kept {isvd_mass} of {truth}"
        );
        let fd_deficit = truth - fd_mass;
        assert!(
            fd_deficit <= fd.shrink_delta_sum() * 1.0001 + 1e-6,
            "FD deficit {fd_deficit} exceeds certificate {}",
            fd.shrink_delta_sum()
        );
    }

    #[test]
    fn truncation_never_underestimates_top_direction() {
        // iSVD's known bias: the dominant direction's mass is kept in full.
        let mut rng = seeded_rng(10);
        let a = gaussian_matrix(&mut rng, 200, 12, 1.0);
        let mut s = IsvdTruncation::new(6, 12);
        let mut dom = Matrix::zeros(0, 12);
        for r in a.iter_rows() {
            let mut row = r.to_vec();
            row[0] += 5.0; // strong shared component along e0-ish
            s.update(&row);
            dom.push_row(&row);
        }
        let top_true = sketchad_linalg::power::spectral_norm(&dom, 200, 2);
        let top_sketch = sketchad_linalg::power::spectral_norm(&s.sketch(), 200, 2);
        assert!(
            top_sketch > 0.9 * top_true,
            "top direction lost: {top_sketch} vs {top_true}"
        );
    }

    #[test]
    fn standard_sketch_contract() {
        let mut s = IsvdTruncation::new(3, 5);
        assert_eq!(s.name(), "isvd-truncation");
        s.update(&[1.0, 0.0, 0.0, 0.0, 2.0]);
        assert_eq!(s.rows_seen(), 1);
        assert_eq!(s.stream_frobenius_sq(), 5.0);
        s.decay(0.5);
        assert!((s.stream_frobenius_sq() - 2.5).abs() < 1e-12);
        s.reset();
        assert_eq!(s.rows_seen(), 0);
        assert_eq!(s.sketch().rows(), 0);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn wrong_dimension_rejected() {
        let mut s = IsvdTruncation::new(2, 3);
        s.update(&[1.0]);
    }
}

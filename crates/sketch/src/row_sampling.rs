//! Norm-proportional row sampling ("length-squared sampling") sketch.
//!
//! Keeps ℓ stream rows sampled with probability proportional to their
//! squared Euclidean norm, using Efraimidis–Spirakis weighted reservoir
//! sampling (key = `u^{1/w}`, keep the ℓ largest keys). When queried, each
//! kept row `y` with weight `w = ‖y‖²` is rescaled by `√(W / (ℓ·w))`
//! (`W = Σ‖y‖²` over the stream), which makes `BᵀB` an approximately
//! unbiased estimator of `AᵀA` — the classical Frieze–Kannan–Vempala
//! length-squared sampling guarantee `E‖AᵀA − BᵀB‖_F ≤ ‖A‖_F²/√ℓ`.
//!
//! Unlike FD/RP/CountSketch this sketch preserves *actual data rows*, which
//! makes it the interpretable option: the sketch contents can be shown to an
//! operator as "the rows that currently define normal behaviour".

use rand::rngs::StdRng;
use rand::Rng;
use sketchad_linalg::rng::seeded_rng;
use sketchad_linalg::vecops;
use sketchad_linalg::Matrix;

use crate::traits::{assert_row_len, assert_valid_decay, MatrixSketch};

/// A reservoir entry: priority key, squared-norm weight and the row data.
#[derive(Debug, Clone)]
struct Entry {
    key: f64,
    weight: f64,
    row: Vec<f64>,
}

/// Weighted-reservoir row-sampling sketch.
#[derive(Debug, Clone)]
pub struct RowSampling {
    ell: usize,
    dim: usize,
    seed: u64,
    rng: StdRng,
    reservoir: Vec<Entry>,
    /// Index of the minimum-key entry, the eviction candidate, once the
    /// reservoir is full. Keys change only when an entry is replaced, so
    /// it is rescanned only then.
    min_idx: usize,
    rows_seen: u64,
    /// Total squared-norm mass `W` of the (decayed) stream.
    total_weight: f64,
    frobenius_sq: f64,
}

impl RowSampling {
    /// Creates an empty sketch keeping `ell` sampled rows of dimension `dim`.
    ///
    /// # Panics
    /// Panics when `ell == 0` or `dim == 0`.
    pub fn new(ell: usize, dim: usize, seed: u64) -> Self {
        assert!(ell > 0, "sketch size ℓ must be positive");
        assert!(dim > 0, "dimension must be positive");
        vecops::resolve_tier();
        Self {
            ell,
            dim,
            seed,
            rng: seeded_rng(seed),
            reservoir: Vec::with_capacity(ell),
            min_idx: 0,
            rows_seen: 0,
            total_weight: 0.0,
            frobenius_sq: 0.0,
        }
    }

    /// The raw (unscaled) sampled rows, e.g. for operator inspection.
    pub fn sampled_rows(&self) -> Matrix {
        let rows: Vec<Vec<f64>> = self.reservoir.iter().map(|e| e.row.clone()).collect();
        Matrix::from_rows(&rows).expect("reservoir rows share a dimension")
    }

    /// Index of the first minimum-key entry (the eviction candidate); 0 for
    /// an empty reservoir.
    fn min_key_index(&self) -> usize {
        self.reservoir
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.key.partial_cmp(&b.key).expect("finite keys"))
            .map_or(0, |(i, _)| i)
    }
}

impl MatrixSketch for RowSampling {
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
        assert_row_len(row, self.dim, "RowSampling::update");
        self.rows_seen += 1;
        let w = vecops::norm2_sq(row);
        self.frobenius_sq += w;
        self.total_weight += w;
        if w <= 0.0 {
            return; // zero rows carry no Gram mass and are never sampled
        }
        // Efraimidis–Spirakis key: u^(1/w) with u ~ U(0,1); computed in log
        // space for numerical stability.
        let u: f64 = self.rng.gen::<f64>().max(f64::MIN_POSITIVE);
        // Once the reservoir is full, most draws cannot beat the candidate's
        // key m < 0. Since ln u ≤ u − 1, a draw with u − 1 ≤ 2·m·w has
        // ln(u)/w ≤ 2m < m with a factor-2 margin that no rounding closes,
        // so it is dropped without its logarithm. Every other draw, and any
        // comparison a NaN or ∞ makes false, takes the exact path below.
        if self.reservoir.len() == self.ell
            && u - 1.0 <= 2.0 * (self.reservoir[self.min_idx].key * w)
        {
            return;
        }
        let key = u.ln() / w;
        if self.reservoir.len() < self.ell {
            self.reservoir.push(Entry {
                key,
                weight: w,
                row: row.to_vec(),
            });
            if self.reservoir.len() == self.ell {
                self.min_idx = self.min_key_index();
            }
        } else if key > self.reservoir[self.min_idx].key {
            // Evict in place: the entry's row buffer is reused.
            let evicted = &mut self.reservoir[self.min_idx];
            evicted.key = key;
            evicted.weight = w;
            evicted.row.copy_from_slice(row);
            self.min_idx = self.min_key_index();
        }
    }

    fn sketch(&self) -> Matrix {
        let m = self.reservoir.len();
        if m == 0 {
            return Matrix::zeros(0, self.dim);
        }
        let mut b = Matrix::zeros(m, self.dim);
        // Effective sample count for the estimator is the reservoir fill.
        let denom = m as f64;
        for (i, e) in self.reservoir.iter().enumerate() {
            let scale = (self.total_weight / (denom * e.weight)).sqrt();
            let dst = b.row_mut(i);
            for (d, &v) in dst.iter_mut().zip(e.row.iter()) {
                *d = scale * v;
            }
        }
        b
    }

    fn decay(&mut self, alpha: f64) {
        assert_valid_decay(alpha);
        let row_scale = alpha.sqrt();
        for e in &mut self.reservoir {
            vecops::scale(row_scale, &mut e.row);
            e.weight *= alpha;
        }
        self.total_weight *= alpha;
        self.frobenius_sq *= alpha;
    }

    fn reset(&mut self) {
        self.reservoir.clear();
        self.rng = seeded_rng(self.seed);
        self.rows_seen = 0;
        self.total_weight = 0.0;
        self.frobenius_sq = 0.0;
    }

    fn reseed(&mut self, seed: u64) {
        self.seed = seed;
        self.reset();
    }

    fn name(&self) -> &'static str {
        "row-sampling"
    }

    fn stream_frobenius_sq(&self) -> f64 {
        self.frobenius_sq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchad_linalg::rng::gaussian_matrix;

    fn feed(s: &mut RowSampling, a: &Matrix) {
        for row in a.iter_rows() {
            s.update(row);
        }
    }

    #[test]
    fn reservoir_never_exceeds_capacity() {
        let mut rng = seeded_rng(60);
        let a = gaussian_matrix(&mut rng, 100, 4, 1.0);
        let mut s = RowSampling::new(7, 4, 1);
        feed(&mut s, &a);
        assert!(s.sketch().rows() <= 7);
        assert_eq!(s.rows_seen(), 100);
    }

    #[test]
    fn small_stream_kept_in_full() {
        let mut rng = seeded_rng(61);
        let a = gaussian_matrix(&mut rng, 5, 3, 1.0);
        let mut s = RowSampling::new(10, 3, 1);
        feed(&mut s, &a);
        // All rows kept; rescaled Gram equals exact Gram in expectation and,
        // with full retention, it should be close (scale = sqrt(W/(m w_i))).
        assert_eq!(s.sampled_rows().rows(), 5);
    }

    #[test]
    fn high_norm_rows_preferred() {
        // One row has 100× the norm of the rest; it should almost always be
        // in the reservoir.
        let mut hits = 0;
        for seed in 0..50 {
            let mut s = RowSampling::new(3, 2, seed);
            for i in 0..200 {
                if i == 100 {
                    s.update(&[100.0, 100.0]);
                } else {
                    s.update(&[0.1, 0.1]);
                }
            }
            let kept = s.sampled_rows();
            let found = (0..kept.rows()).any(|r| kept.row(r)[0] > 10.0);
            if found {
                hits += 1;
            }
        }
        assert!(hits >= 48, "big row kept only {hits}/50 times");
    }

    #[test]
    fn estimator_is_roughly_unbiased() {
        let mut rng = seeded_rng(62);
        let a = gaussian_matrix(&mut rng, 60, 4, 1.0);
        let truth = a.gram();
        let trials = 600;
        let mut mean = Matrix::zeros(4, 4);
        for t in 0..trials {
            let mut s = RowSampling::new(10, 4, 9000 + t);
            feed(&mut s, &a);
            mean = mean.add(&s.sketch().gram()).unwrap();
        }
        mean.scale_mut(1.0 / trials as f64);
        let rel = mean.sub(&truth).unwrap().max_abs() / truth.max_abs();
        // Weighted reservoir sampling is only asymptotically unbiased; allow
        // a generous tolerance.
        assert!(rel < 0.25, "relative bias {rel}");
    }

    #[test]
    fn zero_rows_are_ignored() {
        let mut s = RowSampling::new(3, 2, 1);
        s.update(&[0.0, 0.0]);
        assert_eq!(s.rows_seen(), 1);
        assert_eq!(s.sampled_rows().rows(), 0);
    }

    #[test]
    fn decay_reweights_reservoir() {
        let mut s = RowSampling::new(2, 2, 1);
        s.update(&[2.0, 0.0]);
        s.decay(0.25);
        assert!((s.stream_frobenius_sq() - 1.0).abs() < 1e-12);
        let b = s.sketch();
        // Single row: scale = sqrt(W/(1*w)) = 1, row decayed to [1, 0].
        assert!((b[(0, 0)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_replays_deterministically() {
        let mut rng = seeded_rng(63);
        let a = gaussian_matrix(&mut rng, 30, 3, 1.0);
        let mut s = RowSampling::new(4, 3, 17);
        feed(&mut s, &a);
        let first = s.sketch();
        s.reset();
        feed(&mut s, &a);
        assert_eq!(s.sketch(), first);
    }

    /// The reservoir as the plain algorithm keeps it: rescan for the
    /// minimum key on every row once full, replace the whole entry.
    fn rescanning_reference(ell: usize, a: &Matrix, seed: u64) -> Vec<Entry> {
        let mut rng = seeded_rng(seed);
        let mut reservoir: Vec<Entry> = Vec::new();
        for row in a.iter_rows() {
            let w = vecops::norm2_sq(row);
            if w <= 0.0 {
                continue;
            }
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let entry = Entry {
                key: u.ln() / w,
                weight: w,
                row: row.to_vec(),
            };
            if reservoir.len() < ell {
                reservoir.push(entry);
                continue;
            }
            let idx = (0..reservoir.len())
                .min_by(|&i, &j| reservoir[i].key.partial_cmp(&reservoir[j].key).unwrap())
                .unwrap();
            if entry.key > reservoir[idx].key {
                reservoir[idx] = entry;
            }
        }
        reservoir
    }

    #[test]
    fn cached_eviction_candidate_matches_rescanning_every_row() {
        let mut rng = seeded_rng(64);
        let mut a = gaussian_matrix(&mut rng, 10_000, 5, 1.0);
        // Zero rows (never sampled) and rows of weights far apart, down to
        // 1e-300 and up to 1e300.
        for i in (0..a.rows()).step_by(97) {
            a.row_mut(i).fill(0.0);
        }
        for (step, factor) in [(31, 8.0), (89, 1e-150), (113, 1e150)] {
            for i in (0..a.rows()).step_by(step) {
                vecops::scale(factor, a.row_mut(i));
            }
        }
        let bits = |entries: &[Entry]| -> Vec<(u64, u64, Vec<u64>)> {
            entries
                .iter()
                .map(|e| {
                    let row = e.row.iter().map(|v| v.to_bits()).collect();
                    (e.key.to_bits(), e.weight.to_bits(), row)
                })
                .collect()
        };
        for ell in [1usize, 2, 8] {
            let mut s = RowSampling::new(ell, 5, 23);
            feed(&mut s, &a);
            let want = rescanning_reference(ell, &a, 23);
            assert_eq!(s.reservoir.len(), ell);
            assert_eq!(bits(&s.reservoir), bits(&want), "ℓ={ell}");
        }
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn update_rejects_wrong_dimension() {
        let mut s = RowSampling::new(2, 2, 1);
        s.update(&[1.0]);
    }
}

//! Gaussian random-projection (linear) sketch.
//!
//! Maintains `B = S·A` where `S` is an implicit `ℓ × n` random matrix whose
//! columns are drawn on the fly: when stream row `y_t` arrives, a fresh
//! column `s_t ∈ R^ℓ` of i.i.d. `N(0, 1/ℓ)` entries is sampled and
//! `B += s_t yᵀ_t` (a rank-one update, `O(ℓ·d)` per row). Then
//! `E[BᵀB] = AᵀA` and concentration follows from Johnson–Lindenstrauss-type
//! arguments: `ℓ = O(k/ε²)` rows suffice for an ε-accurate rank-k subspace.
//!
//! Because the sketch is *linear*, decay composes exactly: scaling `B`
//! scales the estimate. (The dense ±1/√ℓ embedding is
//! [`CountSketch`](crate::CountSketch) at `s = ℓ`.)

use rand::rngs::StdRng;
use sketchad_linalg::rng::{fill_gaussian, seeded_rng};
use sketchad_linalg::svd::Workspace;
use sketchad_linalg::vecops;
use sketchad_linalg::{LinAlgError, Matrix};

use crate::traits::{
    assert_row_len, assert_valid_decay, factor_of, MatrixSketch, MergeableSketch, RefreshFactor,
};
use crate::wire::{ByteReader, ByteWriter, WireError};

/// Wire tag identifying a serialized [`RandomProjection`] state blob.
pub(crate) const RP_STATE_TAG: u8 = 2;

/// Linear Gaussian random-projection sketch.
#[derive(Debug, Clone)]
pub struct RandomProjection {
    ell: usize,
    dim: usize,
    seed: u64,
    rng: StdRng,
    b: Matrix,
    rows_seen: u64,
    /// Projection columns drawn since the RNG was last seeded: the live RNG
    /// state is exactly "`seed`, advanced `columns_drawn` columns", which is
    /// how persistence restores it. Equal to `rows_seen` until a merge
    /// raises the latter, so `columns_drawn ≤ rows_seen` always holds.
    columns_drawn: u64,
    frobenius_sq: f64,
    /// Scratch column `s_t`, reused across updates.
    scratch: Vec<f64>,
}

impl RandomProjection {
    /// Creates an empty sketch of `ell` rows over dimension `dim`.
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
            b: Matrix::zeros(ell, dim),
            rows_seen: 0,
            columns_drawn: 0,
            frobenius_sq: 0.0,
            scratch: vec![0.0; ell],
        }
    }

    fn sample_column(&mut self) {
        self.columns_drawn += 1;
        let inv_sqrt_ell = 1.0 / (self.ell as f64).sqrt();
        fill_gaussian(&mut self.rng, inv_sqrt_ell, &mut self.scratch);
    }
}

impl MatrixSketch for RandomProjection {
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
        assert_row_len(row, self.dim, "RandomProjection::update");
        self.sample_column();
        for i in 0..self.ell {
            let s = self.scratch[i];
            if s != 0.0 {
                vecops::axpy(s, row, self.b.row_mut(i));
            }
        }
        self.rows_seen += 1;
        self.frobenius_sq += vecops::norm2_sq(row);
    }

    fn update_sparse(&mut self, row: &sketchad_linalg::SparseVec) {
        assert_eq!(
            row.dim(),
            self.dim,
            "RandomProjection::update_sparse dimension mismatch"
        );
        self.sample_column();
        for i in 0..self.ell {
            let s = self.scratch[i];
            if s != 0.0 {
                row.axpy_into(s, self.b.row_mut(i)); // O(ℓ·nnz)
            }
        }
        self.rows_seen += 1;
        self.frobenius_sq += row.norm2_sq();
    }

    fn sketch(&self) -> Matrix {
        self.b.clone()
    }

    /// Decomposes `B` where it lies: no copy of the `ℓ × d` sketch.
    fn refresh_factor<'a>(
        &'a mut self,
        keep: usize,
        workspace: &'a mut Workspace,
    ) -> Result<Option<RefreshFactor<'a>>, LinAlgError> {
        factor_of(&self.b, keep, workspace)
    }

    fn decay(&mut self, alpha: f64) {
        assert_valid_decay(alpha);
        self.b.scale_mut(alpha.sqrt());
        self.frobenius_sq *= alpha;
    }

    fn reset(&mut self) {
        self.b = Matrix::zeros(self.ell, self.dim);
        self.rng = seeded_rng(self.seed);
        self.rows_seen = 0;
        self.columns_drawn = 0;
        self.frobenius_sq = 0.0;
    }

    fn reseed(&mut self, seed: u64) {
        self.seed = seed;
        self.reset();
    }

    fn name(&self) -> &'static str {
        "random-projection-gaussian"
    }

    fn stream_frobenius_sq(&self) -> f64 {
        self.frobenius_sq
    }

    fn encode_state(&self, out: &mut ByteWriter) -> bool {
        out.put_u8(RP_STATE_TAG);
        out.put_u64(self.ell as u64);
        out.put_u64(self.dim as u64);
        out.put_u64(self.seed);
        out.put_u64(self.rows_seen);
        out.put_u64(self.columns_drawn);
        out.put_f64(self.frobenius_sq);
        out.put_f64s(self.b.as_slice());
        true
    }

    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<bool, WireError> {
        let ctx = "RandomProjection state";
        r.require(RP_STATE_TAG, ctx)?;
        r.require(self.ell as u64, ctx)?;
        r.require(self.dim as u64, ctx)?;
        let seed = r.get_u64(ctx)?;
        let rows_seen = r.get_u64(ctx)?;
        let columns_drawn = r.get_u64(ctx)?;
        // The replay below costs one column per draw: a count no live
        // sketch can reach is corruption, not a reason to spin.
        if columns_drawn > rows_seen {
            return Err(WireError {
                context: "RandomProjection state: columns drawn exceed rows seen",
            });
        }
        let frobenius_sq = r.get_f64(ctx)?;
        let mut b = Matrix::zeros(self.ell, self.dim);
        r.get_f64s_into(b.as_mut_slice(), ctx)?;
        // Restore the live RNG by replaying the column stream from the
        // seed: `columns_drawn` draws leave the generator exactly where the
        // serialized sketch had it, so post-recovery columns are bitwise
        // the ones the original would have drawn next.
        self.seed = seed;
        self.reset();
        for _ in 0..columns_drawn {
            self.sample_column();
        }
        self.b = b;
        self.rows_seen = rows_seen;
        self.frobenius_sq = frobenius_sq;
        Ok(true)
    }
}

impl MergeableSketch for RandomProjection {
    /// Merging is matrix addition (`B = S₁A₁ + S₂A₂`): with shards built on
    /// **independent seeds**, the implicit projection columns of the two
    /// shards are jointly i.i.d., so the sum is a valid random-projection
    /// sketch of the concatenated stream (`E[BᵀB] = A₁ᵀA₁ + A₂ᵀA₂`). The
    /// merged sketch keeps drawing from its own column stream.
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(
            (self.ell, self.dim),
            (other.ell, other.dim),
            "cannot merge random-projection sketches of different shape"
        );
        vecops::axpy(1.0, other.b.as_slice(), self.b.as_mut_slice());
        self.rows_seen += other.rows_seen;
        self.frobenius_sq += other.frobenius_sq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchad_linalg::power::gram_diff_spectral_norm;
    use sketchad_linalg::rng::gaussian_matrix;

    fn feed(s: &mut RandomProjection, a: &Matrix) {
        for row in a.iter_rows() {
            s.update(row);
        }
    }

    #[test]
    fn unbiasedness_over_seeds() {
        // Average BᵀB over many independent sketches converges to AᵀA.
        let mut rng = seeded_rng(77);
        let a = gaussian_matrix(&mut rng, 30, 6, 1.0);
        let truth = a.gram();
        let trials = 400;
        let mut mean = Matrix::zeros(6, 6);
        for t in 0..trials {
            let mut rp = RandomProjection::new(8, 6, 1000 + t);
            feed(&mut rp, &a);
            mean = mean.add(&rp.sketch().gram()).unwrap();
        }
        mean.scale_mut(1.0 / trials as f64);
        let rel = mean.sub(&truth).unwrap().max_abs() / truth.max_abs();
        assert!(rel < 0.12, "relative bias {rel}");
    }

    #[test]
    fn accuracy_improves_with_ell() {
        let mut rng = seeded_rng(78);
        let a = gaussian_matrix(&mut rng, 400, 20, 1.0);
        let mut errs = Vec::new();
        for ell in [8usize, 32, 128] {
            let mut rp = RandomProjection::new(ell, 20, 5);
            feed(&mut rp, &a);
            errs.push(gram_diff_spectral_norm(&a, &rp.sketch(), 200, 8));
        }
        assert!(errs[2] < errs[0], "error should shrink with ℓ: {errs:?}");
    }

    #[test]
    fn deterministic_under_seed() {
        let mut rng = seeded_rng(79);
        let a = gaussian_matrix(&mut rng, 25, 7, 1.0);
        let mut s1 = RandomProjection::new(5, 7, 42);
        let mut s2 = RandomProjection::new(5, 7, 42);
        feed(&mut s1, &a);
        feed(&mut s2, &a);
        assert_eq!(s1.sketch(), s2.sketch());
    }

    #[test]
    fn reset_replays_identically() {
        let mut rng = seeded_rng(80);
        let a = gaussian_matrix(&mut rng, 10, 4, 1.0);
        let mut s = RandomProjection::new(3, 4, 9);
        feed(&mut s, &a);
        let first = s.sketch();
        s.reset();
        assert_eq!(s.rows_seen(), 0);
        feed(&mut s, &a);
        assert_eq!(s.sketch(), first);
    }

    #[test]
    fn decay_scales_gram() {
        let mut s = RandomProjection::new(2, 2, 1);
        s.update(&[1.0, 1.0]);
        let before = s.sketch().gram()[(0, 0)];
        s.decay(0.5);
        let after = s.sketch().gram()[(0, 0)];
        assert!((after - 0.5 * before).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn update_rejects_wrong_dimension() {
        let mut s = RandomProjection::new(2, 3, 1);
        s.update(&[1.0]);
    }
}

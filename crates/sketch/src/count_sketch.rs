//! CountSketch and its sparse-JL generalisation — the hashing sketches.
//!
//! Each stream row `y_t` is hashed to `s ≥ 1` distinct bucket rows
//! `h_1(t), …, h_s(t) ∈ [ℓ]`, each with an independent sign `g_j(t) ∈ {±1}`,
//! and the sketch adds `g_j(t)·y_t/√s` into every one of them. This is
//! `B = S·A` for the sparse embedding matrix `S` with `s` nonzeros of
//! magnitude `1/√s` per column, so `E[BᵀB] = AᵀA`.
//!
//! * `s = 1` is CountSketch: one signed vector addition per row, no
//!   multiplies by random values, and an oblivious subspace embedding for
//!   `ℓ = Ω(k²/ε²)` (Clarkson–Woodruff).
//! * Larger `s` is the OSNAP-style sparse JL embedding: `O(s·d)` per row buys
//!   sharper concentration — `s = O(log)` nonzeros per column make `S` a
//!   subspace embedding at `ℓ = Õ(k)`.
//!
//! Hashing is done on the running row counter with a SplitMix64-style mixer,
//! so the sketch needs no per-row storage and replays deterministically.

use sketchad_linalg::svd::Workspace;
use sketchad_linalg::vecops;
use sketchad_linalg::{LinAlgError, Matrix};

use crate::traits::{
    assert_row_len, assert_valid_decay, factor_of, MatrixSketch, MergeableSketch, RefreshFactor,
};
use crate::wire::{ByteReader, ByteWriter, WireError};

/// Wire tag identifying a serialized [`CountSketch`] state blob.
pub(crate) const CS_STATE_TAG: u8 = 3;

/// Sparse-embedding (CountSketch / sparse-JL) matrix sketch with `s`
/// nonzeros per embedded row.
#[derive(Debug, Clone)]
pub struct CountSketch {
    ell: usize,
    dim: usize,
    s: usize,
    seed: u64,
    b: Matrix,
    rows_seen: u64,
    frobenius_sq: f64,
    /// The current row's `s` `(bucket, signed weight)` targets, reused
    /// across updates.
    targets: Vec<(usize, f64)>,
}

/// SplitMix64 finalizer: a high-quality 64-bit mixer, used as a deterministic
/// hash of (seed, counter, salt).
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl CountSketch {
    /// Creates an empty sketch with `ell` buckets over dimension `dim`,
    /// adding each row into `s` of them (`s = 1` is classic CountSketch).
    ///
    /// # Panics
    /// Panics when `ell == 0`, `dim == 0`, `s == 0`, or `s > ell`.
    pub fn new(ell: usize, dim: usize, s: usize, seed: u64) -> Self {
        assert!(ell > 0, "sketch size ℓ must be positive");
        assert!(dim > 0, "dimension must be positive");
        assert!(s > 0 && s <= ell, "need 1 <= s <= ℓ (s={s}, ℓ={ell})");
        vecops::resolve_tier();
        Self {
            ell,
            dim,
            s,
            seed,
            b: Matrix::zeros(ell, dim),
            rows_seen: 0,
            frobenius_sq: 0.0,
            targets: Vec::with_capacity(s),
        }
    }

    /// The bucket and sign (±1) of draw `salt` for stream index `t`.
    #[inline]
    fn draw(&self, t: u64, salt: u64) -> (usize, f64) {
        let h = mix64(self.seed ^ t.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (salt << 48));
        let sign = if (h >> 63) == 0 { 1.0 } else { -1.0 };
        ((h % self.ell as u64) as usize, sign)
    }

    /// Fills `self.targets` with the `s` distinct `(bucket, signed weight)`
    /// targets for stream index `t`, sampled without replacement by
    /// rejection: salt `j` re-hashes `(seed, t)` until `s` distinct buckets
    /// have been drawn.
    fn draw_targets(&mut self, t: u64) {
        let w = 1.0 / (self.s as f64).sqrt();
        self.targets.clear();
        let mut salt = 0u64;
        while self.targets.len() < self.s {
            let (bucket, sign) = self.draw(t, salt);
            salt += 1;
            if self.targets.iter().any(|&(b, _)| b == bucket) {
                continue;
            }
            self.targets.push((bucket, sign * w));
        }
    }
}

impl MatrixSketch for CountSketch {
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
        assert_row_len(row, self.dim, "CountSketch::update");
        if self.s == 1 {
            // The first draw is the only one (no rejection can follow it)
            // and its weight 1/√1 is exactly 1: no target list needed.
            let (bucket, sign) = self.draw(self.rows_seen, 0);
            vecops::axpy(sign, row, self.b.row_mut(bucket));
        } else {
            self.draw_targets(self.rows_seen);
            for &(bucket, weight) in &self.targets {
                vecops::axpy(weight, row, self.b.row_mut(bucket));
            }
        }
        self.rows_seen += 1;
        self.frobenius_sq += vecops::norm2_sq(row);
    }

    fn update_sparse(&mut self, row: &sketchad_linalg::SparseVec) {
        assert_eq!(
            row.dim(),
            self.dim,
            "CountSketch::update_sparse dimension mismatch"
        );
        self.draw_targets(self.rows_seen);
        for &(bucket, weight) in &self.targets {
            row.axpy_into(weight, self.b.row_mut(bucket)); // O(nnz)
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
        self.rows_seen = 0;
        self.frobenius_sq = 0.0;
    }

    fn reseed(&mut self, seed: u64) {
        self.seed = seed;
        self.reset();
    }

    fn name(&self) -> &'static str {
        if self.s == 1 {
            "count-sketch"
        } else {
            "sparse-jl"
        }
    }

    fn stream_frobenius_sq(&self) -> f64 {
        self.frobenius_sq
    }

    fn encode_state(&self, out: &mut ByteWriter) -> bool {
        out.put_u8(CS_STATE_TAG);
        out.put_u64(self.ell as u64);
        out.put_u64(self.dim as u64);
        out.put_u64(self.s as u64);
        out.put_u64(self.seed);
        out.put_u64(self.rows_seen);
        out.put_f64(self.frobenius_sq);
        out.put_f64s(self.b.as_slice());
        true
    }

    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<bool, WireError> {
        let ctx = "CountSketch state";
        r.require(CS_STATE_TAG, ctx)?;
        r.require(self.ell as u64, ctx)?;
        r.require(self.dim as u64, ctx)?;
        r.require(self.s as u64, ctx)?;
        self.seed = r.get_u64(ctx)?;
        self.rows_seen = r.get_u64(ctx)?;
        self.frobenius_sq = r.get_f64(ctx)?;
        r.get_f64s_into(self.b.as_mut_slice(), ctx)?;
        Ok(true)
    }
}

impl MergeableSketch for CountSketch {
    /// Merging is matrix addition. With shards on **independent seeds** (the
    /// sharded-serving layout) the cross-shard sign products are mean-zero,
    /// so the sum is an unbiased sketch of the concatenated stream. The
    /// merged sketch keeps hashing at its summed `rows_seen`.
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(
            (self.ell, self.dim, self.s),
            (other.ell, other.dim, other.s),
            "cannot merge CountSketches of different shape"
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
    use sketchad_linalg::rng::{gaussian_matrix, seeded_rng};

    fn feed(s: &mut CountSketch, a: &Matrix) {
        for row in a.iter_rows() {
            s.update(row);
        }
    }

    #[test]
    fn hash_family_matches_golden_digests() {
        // FNV-1a over the sketch's f64 bits, then `stream_frobenius_sq`'s,
        // after 500 seeded rows. The digests pin the hash family, the
        // rejection rule and the 1/√s weights bit for bit: s = 1 is the
        // classic CountSketch and s = 4 the sparse-JL arm of every committed
        // result.
        fn digest(s: &CountSketch) -> u64 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            let frob = s.stream_frobenius_sq();
            for v in s.b.as_slice().iter().chain(std::iter::once(&frob)) {
                for byte in v.to_bits().to_le_bytes() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            h
        }
        let rows = gaussian_matrix(&mut seeded_rng(13), 500, 5, 1.0);
        for (s, want) in [(1, 0x1c48_051c_8f97_0c09u64), (4, 0x719b_4712_928e_cd90)] {
            let mut cs = CountSketch::new(8, 5, s, 13);
            feed(&mut cs, &rows);
            assert_eq!(digest(&cs), want, "s={s}: hash family changed");
        }
    }

    #[test]
    fn mixer_spreads_buckets_evenly() {
        let mut cs = CountSketch::new(16, 1, 1, 123);
        let mut counts = [0usize; 16];
        let mut plus = 0usize;
        let n = 32_000u64;
        for t in 0..n {
            cs.draw_targets(t);
            let (b, s) = cs.targets[0];
            counts[b] += 1;
            if s > 0.0 {
                plus += 1;
            }
        }
        let expect = n as f64 / 16.0;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() / expect < 0.1,
                "bucket {i} count {c} far from {expect}"
            );
        }
        let frac = plus as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "sign bias {frac}");
    }

    #[test]
    fn targets_are_distinct_and_weighted() {
        let mut s = CountSketch::new(16, 4, 4, 7);
        for t in 0..200 {
            s.draw_targets(t);
            assert_eq!(s.targets.len(), 4);
            let mut buckets: Vec<usize> = s.targets.iter().map(|&(b, _)| b).collect();
            buckets.sort_unstable();
            buckets.dedup();
            assert_eq!(buckets.len(), 4, "duplicate buckets at t={t}");
            for &(_, w) in &s.targets {
                assert!((w.abs() - 0.5).abs() < 1e-12); // 1/√4
            }
        }
    }

    /// Max-abs error of the seed-averaged `gram(B)` relative to `gram(A)`.
    fn relative_bias(a: &Matrix, ell: usize, s: usize, seeds: std::ops::Range<u64>) -> f64 {
        let truth = a.gram();
        let mut mean = Matrix::zeros(a.cols(), a.cols());
        let trials = seeds.end - seeds.start;
        for seed in seeds {
            let mut cs = CountSketch::new(ell, a.cols(), s, seed);
            feed(&mut cs, a);
            assert_eq!(cs.rows_seen(), a.rows() as u64);
            mean = mean.add(&cs.sketch().gram()).unwrap();
        }
        mean.scale_mut(1.0 / trials as f64);
        mean.sub(&truth).unwrap().max_abs() / truth.max_abs()
    }

    #[test]
    fn unbiasedness_over_seeds() {
        let a = gaussian_matrix(&mut seeded_rng(90), 40, 5, 1.0);
        for s in [1, 4] {
            let rel = relative_bias(&a, 8, s, 5000..5500);
            assert!(rel < 0.15, "s={s}: relative bias {rel}");
        }
    }

    #[test]
    fn s_equals_one_behaves_like_count_sketch_contract() {
        let a = gaussian_matrix(&mut seeded_rng(80), 50, 6, 1.0);
        let mut s = CountSketch::new(8, 6, 1, 3);
        feed(&mut s, &a);
        assert_eq!(s.rows_seen(), 50);
        let rel = relative_bias(&a, 8, 1, 7000..7300);
        assert!(rel < 0.2, "bias {rel}");
    }

    #[test]
    fn accuracy_improves_with_ell() {
        let mut rng = seeded_rng(91);
        let a = gaussian_matrix(&mut rng, 600, 16, 1.0);
        let mut errs = Vec::new();
        for ell in [8usize, 64, 256] {
            let mut cs = CountSketch::new(ell, 16, 1, 3);
            feed(&mut cs, &a);
            errs.push(gram_diff_spectral_norm(&a, &cs.sketch(), 200, 6));
        }
        assert!(errs[2] < errs[0], "errors {errs:?}");
    }

    #[test]
    fn more_nonzeros_concentrate_better() {
        // At fixed ℓ, average error over seeds should not increase with s.
        let mut rng = seeded_rng(81);
        let a = gaussian_matrix(&mut rng, 300, 12, 1.0);
        let avg_err = |s_nnz: usize| -> f64 {
            let mut total = 0.0;
            for seed in 0..12 {
                let mut s = CountSketch::new(16, 12, s_nnz, 100 + seed);
                feed(&mut s, &a);
                total += gram_diff_spectral_norm(&a, &s.sketch(), 150, 5);
            }
            total / 12.0
        };
        let e1 = avg_err(1);
        let e4 = avg_err(4);
        assert!(
            e4 < e1 * 1.05,
            "s=4 ({e4}) should concentrate at least as well as s=1 ({e1})"
        );
    }

    #[test]
    fn deterministic_replay() {
        let mut rng = seeded_rng(92);
        let a = gaussian_matrix(&mut rng, 20, 4, 1.0);
        let mut s1 = CountSketch::new(4, 4, 1, 11);
        let mut s2 = CountSketch::new(4, 4, 1, 11);
        feed(&mut s1, &a);
        feed(&mut s2, &a);
        assert_eq!(s1.sketch(), s2.sketch());
        s1.reset();
        feed(&mut s1, &a);
        assert_eq!(s1.sketch(), s2.sketch());
    }

    #[test]
    fn sparse_and_dense_updates_agree() {
        use sketchad_linalg::SparseVec;
        let dense = vec![0.0, 3.0, 0.0, -1.0, 0.0, 2.0];
        let mut s1 = CountSketch::new(4, 6, 2, 5);
        let mut s2 = CountSketch::new(4, 6, 2, 5);
        for _ in 0..10 {
            s1.update(&dense);
            s2.update_sparse(&SparseVec::from_dense(&dense));
        }
        assert_eq!(s1.sketch(), s2.sketch());
        assert_eq!(s1.stream_frobenius_sq(), s2.stream_frobenius_sq());
    }

    #[test]
    fn reseed_changes_hashing() {
        let mut s1 = CountSketch::new(4, 3, 2, 1);
        let mut s2 = CountSketch::new(4, 3, 2, 1);
        s2.reseed(99);
        s1.update(&[1.0, 2.0, 3.0]);
        s2.update(&[1.0, 2.0, 3.0]);
        assert_ne!(s1.sketch(), s2.sketch());
    }

    #[test]
    fn decay_and_reset() {
        let mut s = CountSketch::new(2, 2, 1, 1);
        s.update(&[3.0, 4.0]);
        assert_eq!(s.stream_frobenius_sq(), 25.0);
        s.decay(0.5);
        assert!((s.stream_frobenius_sq() - 12.5).abs() < 1e-12);
        s.reset();
        assert_eq!(s.rows_seen(), 0);
        assert_eq!(s.sketch().max_abs(), 0.0);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn update_rejects_wrong_dimension() {
        let mut s = CountSketch::new(2, 3, 1, 1);
        s.update(&[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "1 <= s <= ℓ")]
    fn invalid_s_rejected() {
        let _ = CountSketch::new(4, 3, 5, 1);
    }
}

//! Frequent Directions — the deterministic matrix sketch.
//!
//! Implements the fast (doubling-buffer) variant of Liberty's frequent
//! directions: the sketch owns a `2ℓ × d` buffer; rows are appended until the
//! buffer fills, at which point an SVD-based *shrink* compresses it back to
//! `ℓ` rows by subtracting `δ = σ_{ℓ+1}²` from every squared singular value.
//! Amortized cost per row is `O(ℓ·d)`. The shrink needs only `σ²` and the top
//! ℓ right-singular vectors, so it runs the allocation-free Gram-route kernel
//! [`right_factor`] on a workspace the sketch owns and writes the shrunk rows
//! back over its own buffer. A model refresh needs `(σ, Vᵀ)` of that same
//! buffer, so [`MatrixSketch::refresh_factor`] runs the shrink and hands its
//! factor to the detector: one decomposition per buffer, whoever asks first.
//! A shrink on a partly filled buffer is still an FD shrink (it removes at
//! least ℓ·δ of Frobenius mass for the δ it adds), so the guarantee below
//! holds on any schedule of refreshes.
//!
//! Deterministic guarantee (tested in this module and re-verified at the
//! workspace level): for every unit vector `x`,
//!
//! ```text
//! 0 ≤ xᵀAᵀAx − xᵀBᵀBx ≤ ‖A‖_F² / ℓ
//! ```
//!
//! and more sharply `‖AᵀA − BᵀB‖₂ ≤ ‖A − A_k‖_F² / (ℓ − k)` for any `k < ℓ`.

use sketchad_linalg::svd::{right_factor, RightFactor, Workspace};
use sketchad_linalg::{vecops, LinAlgError, Matrix};
use sketchad_obs::{Event, Gauge, RecorderHandle, Stage};
use std::time::Instant;

use crate::traits::{
    assert_row_len, assert_valid_decay, MatrixSketch, MergeableSketch, RefreshFactor,
};
use crate::wire::{ByteReader, ByteWriter, WireError};

/// Wire tag identifying a serialized [`FrequentDirections`] state blob.
pub(crate) const FD_STATE_TAG: u8 = 1;

/// Deterministic frequent-directions sketch.
#[derive(Debug, Clone)]
pub struct FrequentDirections {
    /// Sketch size ℓ (rows exposed after compression).
    ell: usize,
    /// Ambient dimension d.
    dim: usize,
    /// `2ℓ × d` working buffer; rows `0..occupied` are valid and every row
    /// past them is zero (so the whole buffer has the singular values and
    /// right-singular vectors of its occupied prefix).
    buffer: Matrix,
    occupied: usize,
    /// Scratch of the shrink's decomposition — never state: each shrink
    /// overwrites all of it before reading any of it.
    workspace: Workspace,
    rows_seen: u64,
    /// Running `‖A‖_F²` (decay-adjusted).
    frobenius_sq: f64,
    /// Σ of the shrink offsets δ — an exact upper bound on
    /// `‖AᵀA − BᵀB‖₂` maintained online.
    total_shrink_delta: f64,
    /// Observability sink; the default no-op handle keeps shrinks clock-free.
    recorder: RecorderHandle,
}

impl FrequentDirections {
    /// Creates an empty sketch with size parameter `ell` over dimension `dim`.
    ///
    /// # Panics
    /// Panics when `ell == 0` or `dim == 0`.
    pub fn new(ell: usize, dim: usize) -> Self {
        assert!(ell > 0, "sketch size ℓ must be positive");
        assert!(dim > 0, "dimension must be positive");
        Self {
            ell,
            dim,
            buffer: Matrix::zeros(2 * ell, dim),
            occupied: 0,
            workspace: Workspace::for_shape(2 * ell, dim, ell),
            rows_seen: 0,
            frobenius_sq: 0.0,
            total_shrink_delta: 0.0,
            recorder: RecorderHandle::default(),
        }
    }

    /// The online upper bound `Σ δ` on `‖AᵀA − BᵀB‖₂` accumulated so far.
    pub fn shrink_delta_sum(&self) -> f64 {
        self.total_shrink_delta
    }

    /// Merges another frequent-directions sketch into this one (the FD merge
    /// theorem: the merged sketch satisfies the same error bound with the
    /// Frobenius masses added).
    ///
    /// # Panics
    /// Panics when dimensions differ.
    pub fn merge(&mut self, other: &FrequentDirections) {
        assert_eq!(
            self.dim, other.dim,
            "cannot merge sketches of different dimension"
        );
        for i in 0..other.occupied {
            self.push_buffer_row(other.buffer.row(i));
        }
        self.rows_seen += other.rows_seen;
        self.frobenius_sq += other.frobenius_sq;
        self.total_shrink_delta += other.total_shrink_delta;
    }

    fn push_buffer_row(&mut self, row: &[f64]) {
        if self.occupied == self.buffer.rows() {
            self.shrink();
        }
        self.buffer.set_row(self.occupied, row);
        self.occupied += 1;
    }

    /// SVD shrink: compress the occupied buffer down to at most ℓ rows.
    fn shrink(&mut self) {
        // Manual span (not `RecorderHandle::time`) because the body needs
        // `&mut self`; the disabled path still skips both clock reads.
        let started = if self.recorder.enabled() {
            Some(Instant::now())
        } else {
            None
        };
        self.decompose_and_shrink();
        if let Some(t0) = started {
            self.recorder
                .record_span(Stage::SketchShrink, t0.elapsed().as_nanos() as u64);
        }
    }

    /// The one decomposition an FD buffer gets: factors the buffer, writes
    /// the shrunk rows `√(σᵢ² − δ)·vᵢᵀ` back over it, adds δ to the
    /// certificate, and returns the factor of the buffer *as it was* — the
    /// shrink discards it, a model refresh builds its model from it.
    fn decompose_and_shrink(&mut self) -> RightFactor<'_> {
        // Only the occupied rows are decomposed, in place: a refresh on a
        // part-filled buffer pays for the rows it holds, not for 2ℓ.
        let rf = right_factor(&self.buffer, self.occupied, self.ell, &mut self.workspace)
            .expect("an FD buffer of finite rows always decomposes");
        // Arithmetic stays in the kernel's scaled units until the last
        // multiply, so rows near the ends of the f64 range shrink to finite
        // rows even where σ² itself is not representable.
        let lambda = rf.scaled_sigma_sq();
        let unscale = rf.unscale();
        // δ = σ²_{ℓ+1} (0-indexed [ell]); zero when at most ℓ directions
        // exist (a refresh on a buffer no fuller than that loses nothing).
        let delta = if self.occupied > self.ell {
            lambda.get(self.ell).copied().unwrap_or(0.0)
        } else {
            0.0
        };
        self.total_shrink_delta += delta * unscale * unscale;

        let mut new_occupied = 0;
        for (i, &l) in lambda.iter().enumerate().take(rf.kept().min(rf.resolved())) {
            let shrunk = l - delta;
            if shrunk > 0.0 {
                let scale = shrunk.sqrt() * unscale;
                let dst = self.buffer.row_mut(new_occupied);
                for (d, &v) in dst.iter_mut().zip(rf.vt_row(i)) {
                    *d = scale * v;
                }
                new_occupied += 1;
            }
        }
        // Zero the tail so stale data never leaks into `sketch()`.
        for i in new_occupied..self.occupied {
            self.buffer.row_mut(i).fill(0.0);
        }
        self.occupied = new_occupied;
        if self.recorder.enabled() {
            self.recorder
                .gauge(Gauge::FdErrorBound, self.total_shrink_delta);
            self.recorder.event(Event::SketchShrink {
                rows_seen: self.rows_seen,
                error_bound: self.total_shrink_delta,
            });
        }
        rf
    }
}

impl MatrixSketch for FrequentDirections {
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
        assert_row_len(row, self.dim, "FrequentDirections::update");
        if self.occupied == self.buffer.rows() {
            self.shrink();
        }
        self.buffer.set_row(self.occupied, row);
        self.occupied += 1;
        self.rows_seen += 1;
        self.frobenius_sq += row.iter().map(|v| v * v).sum::<f64>();
    }

    fn update_sparse(&mut self, row: &sketchad_linalg::SparseVec) {
        assert_eq!(
            row.dim(),
            self.dim,
            "FrequentDirections::update_sparse dimension mismatch"
        );
        if self.occupied == self.buffer.rows() {
            self.shrink();
        }
        // Zero + scatter into the buffer slot (no temporary allocation).
        let dst = self.buffer.row_mut(self.occupied);
        for v in dst.iter_mut() {
            *v = 0.0;
        }
        for (i, v) in row.iter() {
            dst[i] = v;
        }
        self.occupied += 1;
        self.rows_seen += 1;
        self.frobenius_sq += row.norm2_sq();
    }

    fn sketch(&self) -> Matrix {
        self.buffer.top_rows(self.occupied)
    }

    /// One decomposition serves the refresh and the shrink: the model is
    /// read off the factor the shrink computes, on the sketch's own
    /// workspace (the caller's stays untouched, and `min(ℓ, occupied, d)`
    /// rows of `Vᵀ` come back whatever `keep` asked for). Records no
    /// [`Stage::SketchShrink`] span — the caller's refresh span covers the
    /// work.
    fn refresh_factor<'a>(
        &'a mut self,
        _keep: usize,
        _workspace: &'a mut Workspace,
    ) -> Result<Option<RefreshFactor<'a>>, LinAlgError> {
        if self.occupied == 0 {
            return Ok(None);
        }
        let rows = self.occupied;
        let energy = vecops::norm2_sq(&self.buffer.as_slice()[..rows * self.dim]);
        Ok(Some(RefreshFactor {
            factor: self.decompose_and_shrink(),
            energy,
            rows,
        }))
    }

    fn resident_bytes(&self) -> usize {
        // The doubling-buffer variant holds a 2ℓ × d working buffer, not
        // the ℓ × d surface `capacity()` advertises, plus the shrink's
        // decomposition workspace (Gram/eigenvector block, the ℓ × d output
        // block) — sized at construction and resident for the sketch's
        // lifetime. Charge what is actually resident.
        self.buffer.rows() * self.dim * std::mem::size_of::<f64>() + self.workspace.resident_bytes()
    }

    fn decay(&mut self, alpha: f64) {
        assert_valid_decay(alpha);
        let row_scale = alpha.sqrt();
        for i in 0..self.occupied {
            for v in self.buffer.row_mut(i) {
                *v *= row_scale;
            }
        }
        self.frobenius_sq *= alpha;
        self.total_shrink_delta *= alpha;
    }

    fn reset(&mut self) {
        self.buffer = Matrix::zeros(2 * self.ell, self.dim);
        self.occupied = 0;
        self.rows_seen = 0;
        self.frobenius_sq = 0.0;
        self.total_shrink_delta = 0.0;
    }

    fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder;
    }

    fn name(&self) -> &'static str {
        "frequent-directions"
    }

    fn stream_frobenius_sq(&self) -> f64 {
        self.frobenius_sq
    }

    fn encode_state(&self, out: &mut ByteWriter) -> bool {
        out.put_u8(FD_STATE_TAG);
        out.put_u64(self.ell as u64);
        out.put_u64(self.dim as u64);
        out.put_u64(self.occupied as u64);
        out.put_u64(self.rows_seen);
        out.put_f64(self.frobenius_sq);
        out.put_f64(self.total_shrink_delta);
        out.put_f64s(&self.buffer.as_slice()[..self.occupied * self.dim]);
        true
    }

    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<bool, WireError> {
        let ctx = "FrequentDirections state";
        r.require(FD_STATE_TAG, ctx)?;
        r.require(self.ell as u64, ctx)?;
        r.require(self.dim as u64, ctx)?;
        let occupied = r.get_u64(ctx)? as usize;
        if occupied > self.buffer.rows() {
            return Err(WireError { context: ctx });
        }
        let rows_seen = r.get_u64(ctx)?;
        let frobenius_sq = r.get_f64(ctx)?;
        let total_shrink_delta = r.get_f64(ctx)?;
        // Decoded and cleared in place: decoding reserves nothing.
        let (rows, zeros) = self.buffer.as_mut_slice().split_at_mut(occupied * self.dim);
        r.get_f64s_into(rows, ctx)?;
        zeros.fill(0.0);
        self.occupied = occupied;
        self.rows_seen = rows_seen;
        self.frobenius_sq = frobenius_sq;
        self.total_shrink_delta = total_shrink_delta;
        Ok(true)
    }
}

impl MergeableSketch for FrequentDirections {
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(
            self.ell, other.ell,
            "cannot merge FD sketches of different size ℓ"
        );
        self.merge(other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchad_linalg::power::gram_diff_spectral_norm;
    use sketchad_linalg::rng::{gaussian_matrix, seeded_rng};

    /// Shrinks a partly filled buffer to at most ℓ rows: the cold path,
    /// which `update` never takes (it shrinks only a full buffer).
    fn compress(fd: &mut FrequentDirections) {
        if fd.occupied > fd.ell {
            fd.shrink();
        }
    }

    fn feed(fd: &mut FrequentDirections, a: &Matrix) {
        for row in a.iter_rows() {
            fd.update(row);
        }
    }

    #[test]
    fn empty_sketch_properties() {
        let fd = FrequentDirections::new(4, 7);
        assert_eq!(fd.dim(), 7);
        assert_eq!(fd.capacity(), 4);
        assert_eq!(fd.rows_seen(), 0);
        assert_eq!(fd.sketch().rows(), 0);
        assert_eq!(fd.stream_frobenius_sq(), 0.0);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn update_rejects_wrong_dimension() {
        let mut fd = FrequentDirections::new(2, 3);
        fd.update(&[1.0, 2.0]);
    }

    #[test]
    fn small_stream_is_stored_exactly() {
        // Fewer than 2ℓ rows: no shrink, Gram matrices identical.
        let mut rng = seeded_rng(1);
        let a = gaussian_matrix(&mut rng, 6, 5, 1.0);
        let mut fd = FrequentDirections::new(4, 5);
        feed(&mut fd, &a);
        let b = fd.sketch();
        let err = a.gram().sub(&b.gram()).unwrap().max_abs();
        assert!(err < 1e-12, "err {err}");
    }

    #[test]
    fn deterministic_error_bound_holds() {
        let mut rng = seeded_rng(2);
        let a = gaussian_matrix(&mut rng, 300, 30, 1.0);
        for ell in [5usize, 10, 20] {
            let mut fd = FrequentDirections::new(ell, 30);
            feed(&mut fd, &a);
            let b = fd.sketch();
            let err = gram_diff_spectral_norm(&a, &b, 300, 9);
            let bound = a.squared_frobenius_norm() / ell as f64;
            assert!(
                err <= bound * (1.0 + 1e-9),
                "ℓ={ell}: err {err} exceeds bound {bound}"
            );
            // The online Σδ certificate dominates the true error too.
            assert!(err <= fd.shrink_delta_sum() * (1.0 + 1e-6) + 1e-9);
        }
    }

    #[test]
    fn gram_is_underestimate() {
        // FD never overestimates: AᵀA − BᵀB ⪰ 0, so xᵀBᵀBx ≤ xᵀAᵀAx.
        let mut rng = seeded_rng(3);
        let a = gaussian_matrix(&mut rng, 120, 12, 1.0);
        let mut fd = FrequentDirections::new(6, 12);
        feed(&mut fd, &a);
        let diff = a.gram().sub(&fd.sketch().gram()).unwrap();
        // Check PSD-ness via a handful of probes.
        for p in 0..8usize {
            let x: Vec<f64> = (0..12).map(|i| ((i * 3 + p + 1) as f64).cos()).collect();
            let dx = diff.matvec(&x);
            let quad: f64 = x.iter().zip(dx.iter()).map(|(a, b)| a * b).sum();
            assert!(quad >= -1e-8, "probe {p}: quad {quad}");
        }
    }

    #[test]
    fn low_rank_input_is_captured_exactly() {
        // A rank-3 stream with ℓ ≥ 4 incurs zero shrink loss in the top space.
        let mut rng = seeded_rng(4);
        let basis = gaussian_matrix(&mut rng, 3, 20, 1.0);
        let mut fd = FrequentDirections::new(8, 20);
        let mut rows = Vec::new();
        for i in 0..200 {
            let c = [
                (i as f64).sin(),
                (i as f64).cos(),
                ((i * i) as f64 % 7.0) - 3.0,
            ];
            let mut row = vec![0.0; 20];
            for (j, &cj) in c.iter().enumerate() {
                for (rv, bv) in row.iter_mut().zip(basis.row(j)) {
                    *rv += cj * bv;
                }
            }
            rows.push(row.clone());
            fd.update(&row);
        }
        let a = Matrix::from_rows(&rows).unwrap();
        let err = gram_diff_spectral_norm(&a, &fd.sketch(), 200, 10);
        let scale = a.gram().max_abs();
        assert!(err / scale < 1e-9, "relative err {}", err / scale);
    }

    #[test]
    fn compress_caps_rows_at_ell() {
        let mut rng = seeded_rng(5);
        let a = gaussian_matrix(&mut rng, 50, 10, 1.0);
        let mut fd = FrequentDirections::new(4, 10);
        feed(&mut fd, &a);
        compress(&mut fd);
        assert!(fd.sketch().rows() <= 4);
    }

    #[test]
    fn merge_preserves_error_bound() {
        let mut rng = seeded_rng(6);
        let a1 = gaussian_matrix(&mut rng, 100, 15, 1.0);
        let a2 = gaussian_matrix(&mut rng, 80, 15, 2.0);
        let ell = 8;
        let mut fd1 = FrequentDirections::new(ell, 15);
        let mut fd2 = FrequentDirections::new(ell, 15);
        feed(&mut fd1, &a1);
        feed(&mut fd2, &a2);
        fd1.merge(&fd2);
        assert_eq!(fd1.rows_seen(), 180);

        // Build the concatenated stream for ground truth.
        let mut all = a1.clone();
        for row in a2.iter_rows() {
            all.push_row(row);
        }
        let err = gram_diff_spectral_norm(&all, &fd1.sketch(), 300, 11);
        let bound = all.squared_frobenius_norm() / ell as f64;
        assert!(
            err <= bound * (1.0 + 1e-9),
            "merged err {err} > bound {bound}"
        );
    }

    #[test]
    fn decay_scales_covariance() {
        let mut fd = FrequentDirections::new(4, 3);
        fd.update(&[2.0, 0.0, 0.0]);
        fd.decay(0.25);
        let b = fd.sketch();
        // Covariance entry (0,0) was 4.0, should now be 1.0.
        assert!((b.gram()[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((fd.stream_frobenius_sq() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "decay factor")]
    fn decay_rejects_invalid_alpha() {
        let mut fd = FrequentDirections::new(2, 2);
        fd.decay(0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut fd = FrequentDirections::new(3, 4);
        fd.update(&[1.0, 2.0, 3.0, 4.0]);
        fd.reset();
        assert_eq!(fd.rows_seen(), 0);
        assert_eq!(fd.sketch().rows(), 0);
        assert_eq!(fd.stream_frobenius_sq(), 0.0);
        assert_eq!(fd.shrink_delta_sum(), 0.0);
    }

    #[test]
    fn recorder_observes_shrinks_and_error_bound() {
        use sketchad_obs::MetricsRecorder;
        use std::sync::Arc;

        let mut rng = seeded_rng(8);
        let a = gaussian_matrix(&mut rng, 60, 10, 1.0);
        let recorder = Arc::new(MetricsRecorder::new());
        let mut fd = FrequentDirections::new(4, 10);
        fd.set_recorder(RecorderHandle::from(
            Arc::clone(&recorder) as Arc<dyn sketchad_obs::Recorder>
        ));
        feed(&mut fd, &a);

        let report = recorder.snapshot();
        let shrinks = report.span(Stage::SketchShrink.label()).unwrap();
        // 60 rows through a 2ℓ=8-row buffer must shrink several times.
        assert!(shrinks.count >= 7, "only {} shrinks", shrinks.count);
        assert_eq!(report.event_count("sketch_shrink"), shrinks.count as usize);
        let bound = report.gauge(Gauge::FdErrorBound.label()).unwrap();
        assert_eq!(bound.last, fd.shrink_delta_sum());
        assert!(bound.last > 0.0);
    }

    #[test]
    fn shrink_fires_once_per_ell_inserts_after_fill() {
        // Amortized schedule: the first shrink fires at row 2ℓ; each shrink
        // frees ≥ ℓ slots, so later shrinks fire at most once per ℓ inserts.
        use sketchad_obs::MetricsRecorder;
        use std::sync::Arc;

        let (ell, d, n) = (4usize, 10usize, 60usize);
        let mut rng = seeded_rng(12);
        let a = gaussian_matrix(&mut rng, n, d, 1.0);
        let recorder = Arc::new(MetricsRecorder::new());
        let mut fd = FrequentDirections::new(ell, d);
        fd.set_recorder(RecorderHandle::from(
            Arc::clone(&recorder) as Arc<dyn sketchad_obs::Recorder>
        ));
        feed(&mut fd, &a);
        let shrinks = recorder
            .snapshot()
            .span(Stage::SketchShrink.label())
            .unwrap()
            .count;
        // Generic data keeps ℓ directions per shrink, and a shrink fires on
        // the insert that finds the buffer full: inserts 2ℓ+1, 3ℓ+1, 4ℓ+1, …
        // → 1 + ⌊(n − 2ℓ − 1)/ℓ⌋ shrinks for n > 2ℓ.
        let expected = 1 + ((n - 2 * ell - 1) / ell) as u64;
        assert_eq!(shrinks, expected, "shrink schedule drifted");
    }

    #[test]
    fn resident_bytes_charges_the_doubling_buffer() {
        let (ell, d) = (4usize, 10usize);
        let mut fd = FrequentDirections::new(ell, d);
        // 2ℓ × d buffer cells plus the shrink workspace for that shape
        // (whose own byte count is pinned in `linalg::svd`), regardless of
        // occupancy.
        let workspace = Workspace::for_shape(2 * ell, d, ell).resident_bytes();
        assert!(workspace > 0);
        let want = 2 * ell * d * 8 + workspace;
        assert_eq!(fd.resident_bytes(), want);
        // The workspace is sized at construction: shrinking allocates
        // nothing, so the charge does not move.
        let mut rng = seeded_rng(14);
        feed(&mut fd, &gaussian_matrix(&mut rng, 50, d, 1.0));
        assert_eq!(fd.resident_bytes(), want);
    }

    #[test]
    fn rows_at_the_ends_of_the_f64_range_shrink_without_panicking() {
        // `validate_point` admits any finite value. At ±2e160 the buffer's
        // Gram matrix used to overflow to ∞ and the shrink panicked on a
        // NotFinite SVD error; at 1e-170 it underflowed to 0 and the shrink
        // silently erased the sketch. Both ends must shrink to a finite,
        // non-empty sketch with an honest (never NaN) certificate.
        for mag in [2e160, 1e-170] {
            let mut fd = FrequentDirections::new(4, 6);
            for i in 0..20usize {
                let row: Vec<f64> = (0..6)
                    .map(|j| {
                        let sign = if (i + j) % 2 == 0 { 1.0 } else { -1.0 };
                        sign * mag * (1.0 + ((i * 6 + j) as f64 * 0.37).sin().abs())
                    })
                    .collect();
                fd.update(&row);
            }
            compress(&mut fd);
            let b = fd.sketch();
            assert!((1..=4).contains(&b.rows()), "{mag:e}: {} rows", b.rows());
            assert!(b.all_finite(), "{mag:e}: non-finite sketch");
            // The sketch keeps the stream's scale: its largest entry is
            // within a small factor of the rows' magnitude.
            let top = b.max_abs();
            assert!(top > 0.1 * mag && top < 100.0 * mag, "{mag:e}: top {top:e}");
            // Σδ = Σσ²_{ℓ+1} is ~mag²: honestly ∞ at the top of the range,
            // honestly 0 at the bottom, and never NaN.
            let delta = fd.shrink_delta_sum();
            assert!(!delta.is_nan());
            assert_eq!(delta, if mag > 1.0 { f64::INFINITY } else { 0.0 });
        }
    }

    #[test]
    fn compress_on_partial_buffer_matches_full_pipeline_guarantee() {
        // The cold path (shrink on a partially-filled buffer via compress)
        // must preserve the underestimate property just like the hot path.
        let mut rng = seeded_rng(13);
        let a = gaussian_matrix(&mut rng, 11, 6, 1.0);
        let mut fd = FrequentDirections::new(4, 6);
        feed(&mut fd, &a); // 11 rows: one full-buffer shrink at 8, 3 pending
        compress(&mut fd); // partial shrink: occupied < 2ℓ
        assert!(fd.sketch().rows() <= 4);
        let diff = a.gram().sub(&fd.sketch().gram()).unwrap();
        for p in 0..6usize {
            let x: Vec<f64> = (0..6).map(|i| ((i * 2 + p + 1) as f64).sin()).collect();
            let dx = diff.matvec(&x);
            let quad: f64 = x.iter().zip(dx.iter()).map(|(a, b)| a * b).sum();
            assert!(quad >= -1e-8, "probe {p}: quad {quad}");
        }
    }

    #[test]
    fn recorder_does_not_change_sketch_contents() {
        use sketchad_obs::MetricsRecorder;

        let mut rng = seeded_rng(9);
        let a = gaussian_matrix(&mut rng, 40, 8, 1.0);
        let mut plain = FrequentDirections::new(3, 8);
        let mut instrumented = FrequentDirections::new(3, 8);
        instrumented.set_recorder(RecorderHandle::new(MetricsRecorder::new()));
        feed(&mut plain, &a);
        feed(&mut instrumented, &a);
        let (b1, b2) = (plain.sketch(), instrumented.sketch());
        assert_eq!(b1.rows(), b2.rows());
        for (r1, r2) in b1.iter_rows().zip(b2.iter_rows()) {
            assert_eq!(r1, r2, "instrumented sketch diverged");
        }
        assert_eq!(plain.shrink_delta_sum(), instrumented.shrink_delta_sum());
    }

    #[test]
    fn frobenius_tracking_is_exact() {
        let mut rng = seeded_rng(7);
        let a = gaussian_matrix(&mut rng, 64, 9, 1.5);
        let mut fd = FrequentDirections::new(3, 9);
        feed(&mut fd, &a);
        let want = a.squared_frobenius_norm();
        assert!((fd.stream_frobenius_sq() - want).abs() / want < 1e-12);
    }
}

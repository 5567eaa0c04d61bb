//! The streaming-detector abstraction.

use crate::subspace::SubspaceModel;

/// A one-pass anomaly detector over a stream of `d`-dimensional points.
///
/// `process` consumes one point and returns its anomaly score (higher is
/// more anomalous). Detectors are single-pass and bounded-memory; all
/// experiment harnesses and examples drive them only through this trait.
pub trait StreamingDetector {
    /// Ambient dimensionality `d`.
    fn dim(&self) -> usize;

    /// Scores one arriving point and folds it into the detector state.
    ///
    /// # Panics
    /// Implementations panic when `y.len() != self.dim()`.
    fn process(&mut self, y: &[f64]) -> f64;

    /// Number of points processed so far.
    fn processed(&self) -> u64;

    /// True once the detector has seen enough data to emit meaningful
    /// scores; scores emitted before this are a conventional `0.0`.
    fn is_warmed_up(&self) -> bool;

    /// Human-readable method name for tables.
    fn name(&self) -> String;

    /// The current trained subspace model, for detectors that have one
    /// (subspace detectors return it once warmed up; others return `None`).
    /// Used to persist a trained model for score-only serving.
    fn current_model(&self) -> Option<&SubspaceModel> {
        None
    }

    /// Scores a point against the current model **without** folding it into
    /// the detector state. Returns `None` until the detector is warmed up,
    /// or for detector kinds with no read-only scoring path.
    ///
    /// For a warmed-up detector, `score_only(y)` equals the score that
    /// `process(y)` would return for the same point — serving layers rely on
    /// this to scale out reads against an immutable model while a single
    /// writer owns `process`.
    fn score_only(&self, y: &[f64]) -> Option<f64> {
        let _ = y;
        None
    }

    /// Installs a previously-built model into a fresh detector, so a
    /// restarted worker resumes scoring from its last published snapshot
    /// instead of emitting warmup zeros while its sketch refills.
    ///
    /// Returns `false` (and changes nothing) for detector kinds that have no
    /// model to adopt, or when `model.dim() != self.dim()`. Implementations
    /// that return `true` must make the adopted model take effect
    /// immediately — `score_only` works and `process` scores against it —
    /// and may replace it with a self-built model at their next refresh.
    fn adopt_model(&mut self, model: &SubspaceModel) -> bool {
        let _ = model;
        false
    }

    /// Serializes the detector's complete dynamic state — sketch contents,
    /// trained model, counters, calibration state — into `out`, returning
    /// `true` when this detector kind supports persistence. The default
    /// writes nothing and returns `false`.
    ///
    /// Contract (relied on by the durable state tier): a detector rebuilt
    /// with the same configuration, restored via
    /// [`restore_state`](Self::restore_state), and fed the same subsequent
    /// points produces **bitwise identical** scores and state to the
    /// original.
    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        let _ = out;
        false
    }

    /// Restores state written by [`save_state`](Self::save_state) into a
    /// freshly-built detector of the same configuration. Returns `Ok(true)`
    /// on success, `Ok(false)` when this detector kind does not support
    /// persistence, and `Err` when the bytes are malformed or belong to a
    /// detector of a different shape.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<bool, sketchad_sketch::wire::WireError> {
        let _ = bytes;
        Ok(false)
    }

    /// Resident bytes held by the detector's sketch state, when the
    /// detector is sketch-backed (see
    /// `sketchad_sketch::MatrixSketch::resident_bytes`). `None` for
    /// detector kinds with no sketch to charge — the benchmark matrix
    /// records this as the memory cost of a detector configuration.
    fn sketch_resident_bytes(&self) -> Option<usize> {
        None
    }

    /// Scores a block of points, folding each into the detector state, and
    /// appends the scores to `out` (after clearing it). `rows` is row-major:
    /// `rows.len() / dim()` points of `dim()` values each, back to back.
    ///
    /// Semantically identical — bitwise, for the detectors in this crate —
    /// to calling [`Self::process`] per row in order. The default simply
    /// does that; detectors with a batched scoring path (e.g. the sketch
    /// detector's `V_kᵀY` blocked matmul) override it to amortize kernel
    /// cost across the batch while preserving per-point score identity.
    ///
    /// # Panics
    /// When `rows.len()` is not a multiple of `dim()`.
    fn process_batch(&mut self, rows: &[f64], out: &mut Vec<f64>) {
        let dim = self.dim();
        assert_eq!(rows.len() % dim, 0, "a block holds whole rows of dim {dim}");
        out.clear();
        out.reserve(rows.len() / dim);
        for y in rows.chunks_exact(dim) {
            out.push(self.process(y));
        }
    }

    /// Folds a block of points into the detector state exactly as
    /// [`Self::process`] would, in order, and discards their scores. `rows`
    /// is row-major, as for [`Self::process_batch`].
    ///
    /// Contract: afterwards the detector is bitwise the detector
    /// `process_batch` (or per-row `process`) would have left — same
    /// `save_state` bytes, same scores for every later point. Only the
    /// scores of the absorbed rows are lost. Warm-restart recovery replays
    /// the WAL through this method. The default calls `process` per row;
    /// detectors whose state never depends on a score (the sketch detector
    /// under `UpdatePolicy::Always`) override it to skip scoring.
    ///
    /// # Panics
    /// When `rows.len()` is not a multiple of `dim()`.
    fn absorb_batch(&mut self, rows: &[f64]) {
        let dim = self.dim();
        assert_eq!(rows.len() % dim, 0, "a block holds whole rows of dim {dim}");
        for y in rows.chunks_exact(dim) {
            self.process(y);
        }
    }

    /// Convenience: scores an entire slice of rows.
    fn process_all(&mut self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|r| self.process(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial detector for exercising the default method.
    struct NormDetector {
        dim: usize,
        n: u64,
    }

    impl StreamingDetector for NormDetector {
        fn dim(&self) -> usize {
            self.dim
        }
        fn process(&mut self, y: &[f64]) -> f64 {
            assert_eq!(y.len(), self.dim);
            self.n += 1;
            y.iter().map(|v| v * v).sum()
        }
        fn processed(&self) -> u64 {
            self.n
        }
        fn is_warmed_up(&self) -> bool {
            self.n > 0
        }
        fn name(&self) -> String {
            "norm".into()
        }
    }

    #[test]
    fn process_batch_reads_a_row_major_block() {
        let mut d = NormDetector { dim: 2, n: 0 };
        let mut out = vec![9.0];
        d.process_batch(&[3.0, 4.0, 1.0, 0.0], &mut out);
        assert_eq!(out, vec![25.0, 1.0]);
        assert_eq!(d.processed(), 2);
    }

    #[test]
    fn absorb_batch_processes_every_row() {
        let mut d = NormDetector { dim: 2, n: 0 };
        d.absorb_batch(&[3.0, 4.0, 1.0, 0.0, 2.0, 2.0]);
        assert_eq!(d.processed(), 3);
    }

    #[test]
    fn process_all_maps_over_rows() {
        let mut d = NormDetector { dim: 2, n: 0 };
        let scores = d.process_all(&[vec![3.0, 4.0], vec![1.0, 0.0]]);
        assert_eq!(scores, vec![25.0, 1.0]);
        assert_eq!(d.processed(), 2);
        assert!(d.is_warmed_up());
    }
}

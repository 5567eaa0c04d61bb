//! The worker side of a shard: a supervised thread owning one detector,
//! draining one bounded channel. The detector rebuilds its model inline,
//! on this thread, whenever its own refresh policy fires.
//!
//! Supervision contract: a panic inside the detector (`process` /
//! `process_batch`) is caught *inside the worker thread*, which rebuilds a
//! fresh detector from the shard's factory, re-adopts the last published
//! snapshot ([`StreamingDetector::adopt_model`]) so scoring resumes from the
//! model readers were already being served, and keeps draining the same
//! channel — scores accumulated before the panic survive. Each shard gets
//! `max_restarts` such recoveries; beyond that it **degrades**: the stale
//! snapshot keeps serving reads, while queued and future updates are shed
//! with exact counts instead of failing the whole pipeline.

use crate::ring::{RowBlock, ShardChannel};
use crate::snapshot::SnapshotCell;
use crate::stats::LatencyHistogram;
use sketchad_core::StreamingDetector;
use sketchad_durable::StateStore;
use sketchad_obs::{Counter, Event, Gauge, Hist, RecorderHandle, Stage};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// State shared between the submitting side and a shard's worker thread.
/// All counters are monotone and read with relaxed ordering — they are
/// metrics, not synchronization.
#[derive(Debug, Default)]
pub(crate) struct ShardShared {
    /// Approximate current queue depth (enqueued − processed).
    pub depth: AtomicUsize,
    /// Highest depth ever observed at enqueue time.
    pub high_water: AtomicUsize,
    /// Points rejected at a full queue under `DropNewest`.
    pub dropped: AtomicU64,
    /// Points the worker has scored.
    pub processed: AtomicU64,
    /// Rows refused by input validation and quarantined.
    pub rejected: AtomicU64,
    /// Updates shed: `ShedOldest` evictions, read-only refusals, and
    /// everything a degraded shard drains without scoring.
    pub shed: AtomicU64,
    /// Points consumed from the queue but unscored when a panic struck.
    pub crash_lost: AtomicU64,
    /// Worker restarts performed after detector panics.
    pub restarts: AtomicU64,
    /// Set once the restart budget is exhausted: updates shed, reads keep
    /// serving the stale snapshot.
    pub degraded: AtomicBool,
    /// WAL rows replayed into the detector during warm restart (set once at
    /// engine startup, before the worker spawns).
    pub replayed: AtomicU64,
    /// Durable snapshot generation the detector was restored from (0 for
    /// cold starts).
    pub recovered_generation: AtomicU64,
    /// Latest published model snapshot.
    pub snapshot: Arc<SnapshotCell>,
}

impl ShardShared {
    /// Reserves `n` queue slots in the depth accounting: one depth bump and
    /// one high-water update for a whole staged group. Called **before**
    /// the actual enqueue — the worker may drain a row (and decrement) at
    /// any moment after the send, so incrementing afterwards could
    /// underflow.
    pub(crate) fn reserve_slots(&self, n: usize) {
        let depth = self.depth.fetch_add(n, Ordering::Relaxed) + n;
        self.high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// Rolls back `n` reservations whose enqueue did not happen (full queue
    /// or dead worker) or whose rows left the queue unprocessed (eviction).
    pub(crate) fn release_slots(&self, n: usize) {
        self.depth.fetch_sub(n, Ordering::Relaxed);
    }
}

/// Rebuilds a shard's detector after a panic (same factory, same shard
/// index, same recorder handle as the original build).
pub(crate) type DetectorRebuild = Box<dyn FnMut() -> Box<dyn StreamingDetector + Send> + Send>;

/// Per-shard worker parameters (everything `Copy`-ish the loops need).
pub(crate) struct WorkerConfig {
    pub shard: usize,
    pub snapshot_every: u64,
    pub max_batch: usize,
    pub max_restarts: u32,
    /// Durable checkpoint period in processed points (0 = only at clean
    /// drain). Only meaningful when a [`StateStore`] is attached.
    pub checkpoint_every: u64,
}

/// What a worker thread returns when its queue closes.
pub(crate) struct ShardOutput {
    pub scores: Vec<(u64, f64)>,
    pub latency: LatencyHistogram,
}

/// Worker results that must survive a detector panic: they live in the
/// supervisor frame, outside every `catch_unwind`.
struct WorkerState {
    scores: Vec<(u64, f64)>,
    latency: LatencyHistogram,
    /// Rows popped from the channel but not yet scored; folded into
    /// `crash_lost` when a panic lands between pop and score.
    in_flight: u64,
}

/// Supervised worker loop: drain, and on a detector panic restart from the
/// last published snapshot (up to `max_restarts` times) or degrade.
///
/// The detector is owned exclusively by this thread — `process` needs
/// `&mut`, and single ownership is what makes per-shard score sequences
/// deterministic. Concurrent readers are served through the snapshot cell
/// instead.
pub(crate) fn run_supervised(
    cfg: WorkerConfig,
    channel: Arc<ShardChannel>,
    mut detector: Box<dyn StreamingDetector + Send>,
    mut rebuild: DetectorRebuild,
    shared: Arc<ShardShared>,
    recorder: RecorderHandle,
    mut store: Option<StateStore>,
) -> ShardOutput {
    let mut state = WorkerState {
        scores: Vec::new(),
        latency: LatencyHistogram::new(),
        in_flight: 0,
    };
    loop {
        let drained = catch_unwind(AssertUnwindSafe(|| {
            drain(
                &cfg,
                &channel,
                detector.as_mut(),
                &shared,
                &recorder,
                &mut state,
                &mut store,
            );
        }));
        match drained {
            Ok(()) => {
                // Queue closed and fully drained: publish whatever the
                // detector ended up with so post-drain readers see the
                // freshest model, and cut a final durable checkpoint so the
                // next open restores without replay.
                publish_snapshot(cfg.shard, detector.as_ref(), &shared, &recorder);
                if let Some(s) = store.as_mut() {
                    checkpoint(s, detector.as_ref(), &recorder);
                    let _ = s.flush();
                }
                break;
            }
            Err(_payload) => {
                // Whatever was popped but unscored died with the panic; the
                // detector itself is assumed corrupted and is replaced.
                shared
                    .crash_lost
                    .fetch_add(state.in_flight, Ordering::Relaxed);
                state.in_flight = 0;
                let restarts = shared.restarts.fetch_add(1, Ordering::Relaxed) + 1;
                if restarts > u64::from(cfg.max_restarts) {
                    degrade(&cfg, &channel, &shared, &recorder, restarts);
                    break;
                }
                // The rebuild itself may panic (a broken factory); that
                // burns the remaining budget at once — degrade.
                let rebuilt = catch_unwind(AssertUnwindSafe(|| {
                    let mut fresh = rebuild();
                    if let Some(model) = shared.snapshot.load() {
                        // Resume scoring from the model readers already see;
                        // detectors without an adoption path warm up anew.
                        fresh.adopt_model(&model);
                    }
                    fresh
                }));
                match rebuilt {
                    Ok(fresh) => {
                        detector = fresh;
                        if recorder.enabled() {
                            recorder.incr(Counter::WorkerRestarts, 1);
                            recorder.event(Event::WorkerRestarted {
                                shard: cfg.shard,
                                restarts,
                            });
                        }
                    }
                    Err(_) => {
                        degrade(&cfg, &channel, &shared, &recorder, restarts);
                        break;
                    }
                }
            }
        }
    }
    ShardOutput {
        scores: state.scores,
        latency: state.latency,
    }
}

/// Drains rows until the channel closes, one micro-batch at a time: after
/// waiting for the first row the worker pops up to `max_batch` queued rows
/// as one contiguous row-major block (lent in place by the ring, which
/// re-arms the slots when the block drops) and scores it through
/// [`StreamingDetector::process_batch`], whose blocked `V_kᵀY` kernel
/// yields scores bitwise identical to per-point processing (`max_batch = 1`
/// is a budget of one). An attached recorder samples the depth gauges once
/// per micro-batch; queue wait is recorded once per run of rows that share
/// a submit call's stamp, which gives the histogram per-row records would.
fn drain(
    cfg: &WorkerConfig,
    channel: &ShardChannel,
    detector: &mut (dyn StreamingDetector + Send),
    shared: &ShardShared,
    recorder: &RecorderHandle,
    state: &mut WorkerState,
    store: &mut Option<StateStore>,
) {
    let observing = recorder.enabled();
    let dim = detector.dim();
    // Reused across batches: steady-state draining allocates only the
    // growth of `state.scores`.
    let mut copied = RowBlock::default();
    let mut batch_scores: Vec<f64> = Vec::with_capacity(cfg.max_batch);
    while channel.wait() {
        let block = channel.pop_batch(&mut copied, cfg.max_batch);
        let n = block.len() as u64;
        let depth_before = shared.depth.fetch_sub(n as usize, Ordering::Relaxed);
        if observing {
            recorder.gauge(Gauge::QueueDepth, (depth_before - n as usize) as f64);
            if let Some(depth) = channel.ring_depth() {
                recorder.gauge(Gauge::RingDepth, depth as f64);
            }
        }
        // Write-ahead for the whole micro-batch, as one WAL frame, before
        // any scoring: a crash mid-batch replays every logged row on
        // recovery, and a crash mid-write loses only unscored rows.
        log_rows(store, block.values(), dim);
        state.in_flight = n;
        detector.process_batch(block.values(), &mut batch_scores);
        state.in_flight = 0;
        let before = shared.processed.fetch_add(n, Ordering::Relaxed);
        // One clock read per micro-batch: queue latency is measured at
        // drain granularity, like the submit side stamps one `enqueued`
        // per submit call (metrics-only accounting, scores unaffected).
        let drained = Instant::now();
        for run in block.stamps().chunk_by(|a, b| a == b) {
            let waited = drained.duration_since(run[0]).as_nanos();
            let waited = u64::try_from(waited).unwrap_or(u64::MAX);
            state.latency.record_n(waited, run.len() as u64);
            if observing {
                recorder.record_hist_n(Hist::SubmitLatency, waited, run.len() as u64);
            }
        }
        state.scores.extend(
            block
                .seqs()
                .iter()
                .copied()
                .zip(batch_scores.iter().copied()),
        );
        // Hand the slots back to the producer before the publish and
        // checkpoint work below.
        drop(block);
        // Publish when the batch crossed a `snapshot_every` boundary: one
        // publish per period, whatever the batch sizes.
        if cfg.snapshot_every > 0
            && before / cfg.snapshot_every != (before + n) / cfg.snapshot_every
        {
            publish_snapshot(cfg.shard, detector, shared, recorder);
        }
        if let Some(s) = store.as_mut() {
            if cfg.checkpoint_every > 0
                && before / cfg.checkpoint_every != (before + n) / cfg.checkpoint_every
            {
                checkpoint(s, detector, recorder);
            }
        }
    }
}

/// Terminal degraded mode: flag the shard, then drain every remaining and
/// future row as shed (exact counts, no scoring) until shutdown. The last
/// published snapshot stays up for readers.
fn degrade(
    cfg: &WorkerConfig,
    channel: &ShardChannel,
    shared: &ShardShared,
    recorder: &RecorderHandle,
    restarts: u64,
) {
    shared.degraded.store(true, Ordering::Relaxed);
    if recorder.enabled() {
        recorder.event(Event::ShardDegraded {
            shard: cfg.shard,
            restarts,
        });
    }
    let mut copied = RowBlock::default();
    while channel.wait() {
        let block = channel.pop_batch(&mut copied, cfg.max_batch);
        let n = block.len();
        shared.depth.fetch_sub(n, Ordering::Relaxed);
        shared.shed.fetch_add(n as u64, Ordering::Relaxed);
        if recorder.enabled() {
            recorder.incr(Counter::PointsShed, n as u64);
            for &seq in block.seqs() {
                recorder.event(Event::QueueShed {
                    shard: cfg.shard,
                    seq,
                });
            }
        }
    }
}

/// Appends a micro-batch (row-major, `dim` values a row) to the shard's WAL
/// as one frame. A durable I/O failure disables persistence for the rest
/// of the run (the store is dropped) rather than taking the shard down:
/// serving availability outranks durability, and the on-disk state stays
/// valid — it is merely frozen at the last good write.
fn log_rows(store: &mut Option<StateStore>, rows: &[f64], dim: usize) {
    if let Some(s) = store.as_mut() {
        if s.append_rows(rows, dim).is_err() {
            *store = None;
        }
    }
}

/// Serializes the detector and cuts a durable checkpoint. Detectors without
/// a persistence path (`save_state` → `false`) simply skip checkpointing —
/// their WAL is never rotated, so recovery replays the entire log instead.
fn checkpoint(store: &mut StateStore, detector: &dyn StreamingDetector, recorder: &RecorderHandle) {
    let mut payload = Vec::new();
    if !detector.save_state(&mut payload) {
        return;
    }
    if store.checkpoint(&payload).is_ok() && recorder.enabled() {
        recorder.incr(Counter::CheckpointsWritten, 1);
    }
}

fn publish_snapshot(
    shard: usize,
    detector: &dyn StreamingDetector,
    shared: &ShardShared,
    recorder: &RecorderHandle,
) {
    let cell = &shared.snapshot;
    let Some(model) = detector.current_model() else {
        return;
    };
    if recorder.enabled() {
        let started = Instant::now();
        cell.publish(Arc::new(model.clone()));
        recorder.record_span(Stage::SnapshotPublish, started.elapsed().as_nanos() as u64);
        recorder.incr(Counter::SnapshotsPublished, 1);
        recorder.event(Event::SnapshotPublished {
            shard,
            generation: cell.generation(),
            processed: shared.processed.load(Ordering::Relaxed),
        });
    } else {
        cell.publish(Arc::new(model.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::SpscRing;
    use sketchad_obs::{MetricsRecorder, Recorder};

    /// Scores each row with its first component and remembers the batch
    /// sizes `process_batch` was handed.
    #[derive(Default)]
    struct CountingDetector {
        processed: u64,
        batch_lens: Vec<usize>,
    }

    impl StreamingDetector for CountingDetector {
        fn dim(&self) -> usize {
            1
        }
        fn process(&mut self, y: &[f64]) -> f64 {
            self.processed += 1;
            y[0]
        }
        fn processed(&self) -> u64 {
            self.processed
        }
        fn is_warmed_up(&self) -> bool {
            true
        }
        fn name(&self) -> String {
            "counting".into()
        }
        fn process_batch(&mut self, rows: &[f64], out: &mut Vec<f64>) {
            self.batch_lens.push(rows.len());
            out.clear();
            out.extend(rows.chunks_exact(1).map(|y| self.process(y)));
        }
    }

    #[test]
    fn observed_worker_drains_in_micro_batches() {
        const N: usize = 200;
        let channel = ShardChannel::Ring(SpscRing::new(256, 1));
        let seqs: Vec<u64> = (0..N as u64).collect();
        let rows: Vec<f64> = seqs.iter().map(|&s| s as f64).collect();
        // Two submit calls, so two stamp runs straddle the first batch.
        let (first, second) = (Instant::now(), Instant::now());
        assert_eq!(
            channel.try_push_batch(&rows[..10], &seqs[..10], first),
            Ok(10)
        );
        assert_eq!(
            channel.try_push_batch(&rows[10..], &seqs[10..], second),
            Ok(N - 10)
        );
        channel.close();
        let shared = ShardShared::default();
        shared.reserve_slots(N);
        let metrics = Arc::new(MetricsRecorder::new());
        let recorder = RecorderHandle::from(Arc::clone(&metrics) as Arc<dyn Recorder>);
        assert!(recorder.enabled());
        let cfg = WorkerConfig {
            shard: 0,
            snapshot_every: 0,
            max_batch: 64,
            max_restarts: 0,
            checkpoint_every: 0,
        };
        let mut detector = CountingDetector::default();
        let mut state = WorkerState {
            scores: Vec::new(),
            latency: LatencyHistogram::new(),
            in_flight: 0,
        };
        drain(
            &cfg,
            &channel,
            &mut detector,
            &shared,
            &recorder,
            &mut state,
            &mut None,
        );

        // An observed worker micro-batches like any other: the pre-filled
        // channel comes out in full `max_batch` groups.
        assert_eq!(detector.batch_lens, vec![64, 64, 64, 8]);
        let expected: Vec<(u64, f64)> = (0..N as u64).map(|seq| (seq, seq as f64)).collect();
        assert_eq!(state.scores, expected, "every score, in order");
        assert_eq!(shared.depth.load(Ordering::Relaxed), 0);
        // Depth gauges once per micro-batch, queue-wait once per row.
        let obs = metrics.snapshot();
        assert_eq!(obs.gauge("queue_depth").unwrap().samples, 4);
        assert_eq!(obs.gauge("ring_depth").unwrap().samples, 4);
        assert_eq!(obs.hist("submit_latency").unwrap().count(), N as u64);
    }
}

//! The sharded serving engine.

use crate::config::{BackpressurePolicy, ServeConfig};
use crate::error::{panic_message, ServeError};
use crate::quarantine::{Quarantine, QUARANTINE_CAPACITY};
use crate::queue::JobQueue;
use crate::ring::{DeathWatch, ShardChannel, SpscRing};
use crate::shard::{run_supervised, ShardShared, WorkerConfig};
use crate::snapshot::SnapshotScorer;
use crate::stats::{LatencyHistogram, PipelineStats, ShardStats};
use crate::telemetry::{EngineProbe, TelemetryConfig, TelemetryHandle};
use sketchad_core::{validate_point, InputViolation, Rows, ScoreKind, StreamingDetector};
use sketchad_durable::{self as durable, StateStore};
use sketchad_obs::{Counter, Event, MetricsRecorder, ObsReport, Recorder, RecorderHandle, Sampler};
use std::sync::atomic::{
    AtomicU64,
    Ordering::{Relaxed, Release},
};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Outcome of submitting one point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The point was enqueued and will be scored.
    Accepted,
    /// The point was discarded at a full queue (`DropNewest` policy only).
    Dropped,
    /// The point failed input validation (non-finite component or wrong
    /// dimension) and was quarantined instead of enqueued.
    Rejected(InputViolation),
    /// The point was an update the pipeline refused in order to stay
    /// available: the target shard has degraded. Reads against published
    /// snapshots keep working.
    Shed,
}

/// Outcome of a batched submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchOutcome {
    /// Points enqueued.
    pub accepted: u64,
    /// Points discarded at full queues.
    pub dropped: u64,
    /// Points quarantined by input validation.
    pub rejected: u64,
    /// Points shed at submit time (degraded shard).
    /// `ShedOldest` evictions of *previously accepted* points are counted
    /// in [`PipelineStats::total_shed`], not here.
    pub shed: u64,
}

impl BatchOutcome {
    /// Every submitted point landed exactly one way.
    pub fn submitted(&self) -> u64 {
        self.accepted + self.dropped + self.rejected + self.shed
    }
}

/// Everything the pipeline produced, returned by [`ServeEngine::finish`].
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// `(sequence, score)` for every scored point, sorted by the global
    /// submission sequence. Dropped, rejected, shed, and crash-lost
    /// sequences are simply absent.
    pub scores: Vec<(u64, f64)>,
    /// Final pipeline statistics.
    pub stats: PipelineStats,
    /// Rows input validation refused, retained up to the configured
    /// capacity for inspection.
    pub quarantine: Quarantine,
}

impl PipelineReport {
    /// The scores alone, in submission order (sequence numbers discarded).
    pub fn scores_in_order(&self) -> Vec<f64> {
        self.scores.iter().map(|&(_, s)| s).collect()
    }
}

struct ShardHandle {
    channel: Arc<ShardChannel>,
    join: Option<JoinHandle<crate::shard::ShardOutput>>,
    shared: Arc<ShardShared>,
    /// This shard's metrics recorder; `None` on uninstrumented engines.
    /// The engine snapshots and merges these at [`ServeEngine::finish`].
    recorder: Option<Arc<MetricsRecorder>>,
    /// Handle over `recorder` for the submit path (no-op when `None`).
    obs: RecorderHandle,
}

/// The factory every shard shares: rebuilding a panicked shard's detector
/// happens on the worker thread, so the factory must be `Send` and live in
/// a mutex (builds are rare — startup and restarts — so contention is nil).
type SharedFactory =
    Arc<Mutex<dyn FnMut(usize, RecorderHandle) -> Box<dyn StreamingDetector + Send> + Send>>;

/// Sharded concurrent serving engine.
///
/// Partitions submitted points across `N` worker shards, each owning one
/// [`StreamingDetector`] behind a bounded queue. The single-writer rule —
/// only the shard's worker thread ever calls `process` — keeps each shard's
/// score sequence deterministic; concurrent readers score against the
/// shard's published [snapshot](crate::SnapshotScorer) instead of touching
/// the live detector.
///
/// ## Failure domains
///
/// Submitted rows are validated before they can reach a detector: rows
/// with non-finite components or the wrong dimension are quarantined
/// ([`SubmitOutcome::Rejected`]) rather than poisoning the sketch. A
/// detector panic is contained to its shard — the worker restarts from the
/// last published snapshot up to `ServeConfig::max_restarts` times, after
/// which the shard degrades to shed-with-count while every other shard (and
/// every snapshot reader) keeps running. [`finish`](Self::finish) then
/// reports exact loss accounting:
/// `scored + dropped + rejected + shed + crash_lost == submitted`.
///
/// ```
/// use sketchad_core::DetectorConfig;
/// use sketchad_serve::{ServeConfig, ServeEngine};
///
/// let mut engine = ServeEngine::start(ServeConfig::new(2), |_shard| {
///     Box::new(DetectorConfig::new(2, 8).with_warmup(16).build_fd(4))
/// })
/// .unwrap();
/// for i in 0..100u32 {
///     let t = i as f64 * 0.1;
///     engine.submit(vec![t.sin(), t.cos(), 0.0, 0.0]).unwrap();
/// }
/// // A poison row is quarantined, not processed.
/// engine.submit(vec![f64::NAN, 0.0, 0.0, 0.0]).unwrap();
/// let report = engine.finish().unwrap();
/// assert_eq!(report.stats.total_processed, 100);
/// assert_eq!(report.stats.total_rejected, 1);
/// assert_eq!(report.quarantine.total(), 1);
/// ```
pub struct ServeEngine {
    shards: Vec<ShardHandle>,
    dim: usize,
    /// Global submission counter. Atomic (not plain `u64`) so the telemetry
    /// sampler can read it live; submission itself stays single-writer.
    submitted: Arc<AtomicU64>,
    /// Row count of the submit call in flight (0 between calls): rows it
    /// has claimed in `submitted` but not yet accounted anywhere else. The
    /// telemetry probe widens its conservation slack by this much.
    in_flight: Arc<AtomicU64>,
    backpressure: BackpressurePolicy,
    max_batch: usize,
    quarantine: Quarantine,
    /// Errors from shards discovered dead during submission; reported again
    /// (first one) by `finish` so they cannot be silently lost.
    dead: Vec<ServeError>,
    /// The live telemetry sampler, when [`start_telemetry`]
    /// (Self::start_telemetry) is active; stopped by `finish` after the
    /// workers join so the final frame records the quiesced state.
    telemetry: Option<Sampler>,
    /// One staging area per producer lane (as many as shards, the lane
    /// cap), reused across submit calls so staging allocates per call at
    /// most, never per row.
    staging: Vec<Staged>,
}

impl ServeEngine {
    /// Starts `config.shards` worker threads, building each shard's
    /// detector with `factory(shard_index)`.
    ///
    /// Every detector must report the same [`dim`](StreamingDetector::dim);
    /// for deterministic sharded scoring they should also be identically
    /// configured (same seeds per shard are fine — shards see disjoint
    /// substreams). The factory is also how a panicked shard's worker is
    /// rebuilt, hence the `Send + 'static` bounds.
    pub fn start<F>(config: ServeConfig, mut factory: F) -> Result<Self, ServeError>
    where
        F: FnMut(usize) -> Box<dyn StreamingDetector + Send> + Send + 'static,
    {
        Self::start_inner(
            config,
            Arc::new(Mutex::new(move |idx: usize, _h: RecorderHandle| {
                factory(idx)
            })),
            false,
        )
    }

    /// Opens the engine against `ServeConfig::state_dir`, warm-restarting
    /// every shard from its durable state before accepting traffic.
    ///
    /// For each shard: the newest valid on-disk snapshot (if any) is
    /// restored into the freshly-built detector via
    /// [`StreamingDetector::restore_state`], the WAL rows past it are
    /// replayed through [`StreamingDetector::process`], and the recovered
    /// model is published to the shard's snapshot cell — all before the
    /// worker thread spawns, so readers never observe a pre-recovery blank
    /// and the first submitted point scores against the recovered state.
    /// Recovery is deterministic: detectors round-trip their state bitwise
    /// and replay is ordered, so two recoveries from the same directory
    /// produce bit-identical detectors.
    ///
    /// With no `state_dir` configured (or an empty/missing directory) this
    /// behaves exactly like [`start`](Self::start) — a cold start. Recovery
    /// counts surface in [`PipelineStats`] (`replayed`,
    /// `recovered_generation`, `total_replayed`, `recovered_shards`).
    ///
    /// ```no_run
    /// use sketchad_core::DetectorConfig;
    /// use sketchad_serve::{ServeConfig, ServeEngine};
    ///
    /// let config = ServeConfig::new(2).with_state_dir("/var/lib/sketchad");
    /// let mut engine = ServeEngine::open_or_recover(config, |_shard| {
    ///     Box::new(DetectorConfig::new(2, 8).with_warmup(16).build_fd(4))
    /// })
    /// .unwrap();
    /// engine.submit(vec![0.0; 4]).unwrap();
    /// ```
    pub fn open_or_recover<F>(config: ServeConfig, factory: F) -> Result<Self, ServeError>
    where
        F: FnMut(usize) -> Box<dyn StreamingDetector + Send> + Send + 'static,
    {
        // `start` already performs recovery whenever `state_dir` is set;
        // this name is the documented entry point for that behaviour.
        Self::start(config, factory)
    }

    /// Like [`start`](Self::start), but gives every shard its own
    /// [`MetricsRecorder`], merged into [`PipelineStats::obs`] at
    /// [`finish`](Self::finish).
    ///
    /// The factory receives the shard's [`RecorderHandle`] and should
    /// install it on the detector it builds (e.g.
    /// `SketchDetector::with_recorder`) so detector-level spans land in the
    /// same per-shard report as the engine's queue events. The engine itself
    /// records queue-depth gauges, snapshot publications, and
    /// blocked/dropped/rejected/shed submissions on that handle either way.
    /// A rebuilt worker reuses its shard's original recorder.
    ///
    /// ```
    /// use sketchad_core::DetectorConfig;
    /// use sketchad_serve::{ServeConfig, ServeEngine};
    ///
    /// let mut engine = ServeEngine::start_instrumented(
    ///     ServeConfig::new(2).with_snapshot_every(16),
    ///     |_shard, recorder| {
    ///         let det = DetectorConfig::new(2, 8)
    ///             .with_warmup(16)
    ///             .build_fd(4)
    ///             .with_recorder(recorder);
    ///         Box::new(det)
    ///     },
    /// )
    /// .unwrap();
    /// for i in 0..100u32 {
    ///     let t = i as f64 * 0.1;
    ///     engine.submit(vec![t.sin(), t.cos(), 0.0, 0.0]).unwrap();
    /// }
    /// let report = engine.finish().unwrap();
    /// let obs = report.stats.obs.expect("instrumented engine attaches obs");
    /// assert_eq!(obs.span("sketch_update").unwrap().count, 100);
    /// ```
    pub fn start_instrumented<F>(config: ServeConfig, factory: F) -> Result<Self, ServeError>
    where
        F: FnMut(usize, RecorderHandle) -> Box<dyn StreamingDetector + Send> + Send + 'static,
    {
        Self::start_inner(config, Arc::new(Mutex::new(factory)), true)
    }

    fn start_inner(
        config: ServeConfig,
        factory: SharedFactory,
        instrument: bool,
    ) -> Result<Self, ServeError> {
        config.validate()?;
        // Phase 1, serial: build every shard's detector through the shared
        // factory. Factories may be stateful (seeded generators, counters),
        // so the call order — shard 0 first, ascending — is part of the
        // determinism contract and must not depend on recovery timing.
        let mut prepared = Vec::with_capacity(config.shards);
        let mut dim = None;
        for idx in 0..config.shards {
            let recorder = instrument.then(|| Arc::new(MetricsRecorder::new()));
            let obs = match &recorder {
                Some(r) => RecorderHandle::from(Arc::clone(r) as Arc<dyn Recorder>),
                None => RecorderHandle::default(),
            };
            let detector = {
                let mut build = factory.lock().unwrap_or_else(|e| e.into_inner());
                build(idx, obs.clone())
            };
            let d = detector.dim();
            match dim {
                None => dim = Some(d),
                Some(expected) if expected != d => {
                    return Err(ServeError::InvalidConfig(format!(
                        "shard {idx} detector has dim {d}, shard 0 has dim {expected}"
                    )));
                }
                Some(_) => {}
            }
            // The channel follows the policy: sender-side eviction needs
            // shared access to the buffer, which only the queue allows.
            let channel = Arc::new(match config.backpressure {
                BackpressurePolicy::ShedOldest => {
                    ShardChannel::Queue(JobQueue::new(config.queue_capacity, d))
                }
                BackpressurePolicy::Block | BackpressurePolicy::DropNewest => {
                    ShardChannel::Ring(SpscRing::new(config.queue_capacity, d))
                }
            });
            let shared = Arc::new(ShardShared::default());
            prepared.push(PreparedShard {
                detector,
                channel,
                shared,
                recorder,
                obs,
            });
        }
        // Phase 2: warm restart — restore each detector from durable state
        // and publish its model *before* the worker spawns, so the first
        // point a shard scores already sees the recovered model and
        // snapshot readers never observe a pre-recovery blank. Shards
        // recover independently (separate directories, separate
        // detectors), so WAL replay — the expensive part of a warm restart
        // — runs in one worker thread per shard. Each shard's replay is
        // internally ordered and detectors round-trip bitwise, so the
        // recovered models are identical to sequential recovery; only the
        // wall clock changes.
        let mut stores: Vec<Option<StateStore>> = match &config.state_dir {
            Some(root) => {
                if config.shards == 1 {
                    let store = recover_shard(root, 0, &config, &mut prepared[0])?;
                    vec![Some(store)]
                } else {
                    let results: Vec<Result<StateStore, ServeError>> = std::thread::scope(|s| {
                        let joins: Vec<_> = prepared
                            .iter_mut()
                            .enumerate()
                            .map(|(idx, shard)| {
                                let config = &config;
                                std::thread::Builder::new()
                                    .name(format!("sketchad-recover-{idx}"))
                                    .spawn_scoped(s, move || {
                                        recover_shard(root, idx, config, shard)
                                    })
                                    .expect("spawn recovery worker")
                            })
                            .collect();
                        joins
                            .into_iter()
                            .map(|j| j.join().expect("recovery worker panicked"))
                            .collect()
                    });
                    // Surface the lowest-shard error, matching what the
                    // old sequential loop reported.
                    let mut stores = Vec::with_capacity(results.len());
                    for result in results {
                        stores.push(Some(result?));
                    }
                    stores
                }
            }
            None => (0..config.shards).map(|_| None).collect(),
        };
        // Phase 3, serial: spawn the worker threads.
        let mut shards = Vec::with_capacity(config.shards);
        for (idx, prep) in prepared.into_iter().enumerate() {
            let PreparedShard {
                detector,
                channel,
                shared,
                recorder,
                obs,
            } = prep;
            let store = stores[idx].take();
            let worker_cfg = WorkerConfig {
                shard: idx,
                snapshot_every: config.snapshot_every,
                max_batch: config.max_batch,
                max_restarts: config.max_restarts,
                checkpoint_every: config.checkpoint_every,
            };
            let rebuild = {
                let factory = Arc::clone(&factory);
                let obs = obs.clone();
                Box::new(move || {
                    let mut build = factory.lock().unwrap_or_else(|e| e.into_inner());
                    build(idx, obs.clone())
                }) as crate::shard::DetectorRebuild
            };
            let worker_channel = Arc::clone(&channel);
            let worker_shared = Arc::clone(&shared);
            let worker_obs = obs.clone();
            let join = std::thread::Builder::new()
                .name(format!("sketchad-shard-{idx}"))
                .spawn(move || {
                    let mut watch = DeathWatch::arm(Arc::clone(&worker_channel));
                    let output = run_supervised(
                        worker_cfg,
                        worker_channel,
                        detector,
                        rebuild,
                        worker_shared,
                        worker_obs,
                        store,
                    );
                    watch.disarm();
                    output
                })
                .map_err(|e| ServeError::InvalidConfig(format!("spawn failed: {e}")))?;
            shards.push(ShardHandle {
                channel,
                join: Some(join),
                shared,
                recorder,
                obs,
            });
        }
        let dim = dim.expect("validated shards >= 1");
        Ok(Self {
            staging: (0..shards.len()).map(|_| Staged::new(dim)).collect(),
            shards,
            dim,
            submitted: Arc::new(AtomicU64::new(0)),
            in_flight: Arc::new(AtomicU64::new(0)),
            backpressure: config.backpressure,
            max_batch: config.max_batch,
            quarantine: Quarantine::new(QUARANTINE_CAPACITY),
            dead: Vec::new(),
            telemetry: None,
        })
    }

    /// Starts live telemetry: a background sampler snapshots every shard's
    /// counters (and, on instrumented engines, their recorders) into
    /// bounded time series at the configured period, optionally exporting
    /// them over a Prometheus HTTP endpoint and/or a JSONL flight recorder.
    ///
    /// Sampling is a pure read — scores stay bitwise identical with the
    /// sampler running. The sampler stops inside [`finish`](Self::finish),
    /// *after* the workers join, so the final frame (and the last flight-
    /// recorder line) records the quiesced terminal state, where the
    /// conservation identity holds exactly.
    ///
    /// Errors with [`std::io::ErrorKind::AlreadyExists`] when telemetry is
    /// already running, and passes through exporter I/O errors (bind
    /// failure, unwritable flight path).
    pub fn start_telemetry(
        &mut self,
        config: &TelemetryConfig,
    ) -> std::io::Result<TelemetryHandle> {
        if self.telemetry.is_some() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "telemetry sampler already running",
            ));
        }
        let probe = EngineProbe {
            shards: self.shards.iter().map(|s| Arc::clone(&s.shared)).collect(),
            recorders: self
                .shards
                .iter()
                .map(|s| s.recorder.as_ref().map(Arc::clone))
                .collect(),
            submitted: Arc::clone(&self.submitted),
            in_flight: Arc::clone(&self.in_flight),
            started: Instant::now(),
            // One in-flight micro-batch per worker and one reserved slot
            // per shard; the probe adds the rows of the submit in flight.
            slack_limit: (self.shards.len() * (self.max_batch + 1)) as u64,
        };
        let (sampler, handle) = config.launch(probe)?;
        self.telemetry = Some(sampler);
        Ok(handle)
    }

    /// Whether `shard` has exhausted its restart budget and degraded.
    pub fn is_degraded(&self, shard: usize) -> bool {
        self.shards[shard].shared.degraded.load(Relaxed)
    }

    /// Submits one point, partitioned round-robin: a batch of one through
    /// the same stage-and-flush as
    /// [`submit_batch_rows_parallel`](Self::submit_batch_rows_parallel), so
    /// `n` calls score bitwise identically to one `n`-row batch:
    ///
    /// ```
    /// use sketchad_core::{DetectorConfig, StreamingDetector};
    /// use sketchad_serve::{ServeConfig, ServeEngine};
    ///
    /// fn factory(_shard: usize) -> Box<dyn StreamingDetector + Send> {
    ///     Box::new(DetectorConfig::new(2, 8).with_warmup(16).with_seed(7).build_fd(4))
    /// }
    /// let rows: Vec<Vec<f64>> = (0..100u32)
    ///     .map(|i| {
    ///         let t = f64::from(i) * 0.1;
    ///         vec![t.sin(), t.cos(), 0.0, 0.0]
    ///     })
    ///     .collect();
    ///
    /// let mut batched = ServeEngine::start(ServeConfig::new(2), factory).unwrap();
    /// let outcome = batched.submit_batch_rows_parallel(&rows, 1).unwrap();
    /// assert_eq!(outcome.accepted, 100);
    ///
    /// let mut per_point = ServeEngine::start(ServeConfig::new(2), factory).unwrap();
    /// for row in &rows {
    ///     per_point.submit(row.clone()).unwrap();
    /// }
    /// let batched = batched.finish().unwrap();
    /// let per_point = per_point.finish().unwrap();
    /// assert_eq!(batched.scores_in_order(), per_point.scores_in_order());
    /// ```
    pub fn submit(&mut self, point: Vec<f64>) -> Result<SubmitOutcome, ServeError> {
        let outcome = self.submit_batch_rows_parallel(std::slice::from_ref(&point), 1)?;
        // A batch of one: whichever outcome count it bumped names the outcome.
        Ok(if outcome.accepted == 1 {
            SubmitOutcome::Accepted
        } else if outcome.dropped == 1 {
            SubmitOutcome::Dropped
        } else if outcome.shed == 1 {
            SubmitOutcome::Shed
        } else {
            let violation = validate_point(&point, self.dim).expect_err("staging rejected it");
            SubmitOutcome::Rejected(violation)
        })
    }

    /// Submits a batch of rows through `producers` concurrent lanes: the
    /// engine's one ingest boundary. The rows come as a flat row-major
    /// [`RowBlock`](sketchad_core::RowBlock) or as `Vec`-per-row input,
    /// either read in place through [`Rows`]; a row of the wrong width is
    /// quarantined like any other invalid row.
    ///
    /// Rows are routed into per-shard staging buffers (validation,
    /// quarantine, and shed accounting run per row), then each shard's
    /// group is flushed with **one depth reservation and one channel
    /// reservation per shard per batch**. Queue-wait latency is measured
    /// from one batch-wide timestamp, a stalled `Block` flush records one
    /// `queue_blocked` event per shard per batch, and a shard that degrades
    /// mid-batch sheds from the next batch onward.
    ///
    /// The batch's sequence range is claimed once, then the rows are fanned
    /// out across `min(producers, shards)` scoped producer threads. Lane
    /// `p` *owns* every shard `s` with `s % producers == p`: it walks the
    /// whole slice but validates, stages, and flushes only the rows whose
    /// sequence routes to a shard it owns. Shard ownership is what keeps
    /// the lock-free shard rings sound — each ring still sees exactly one
    /// producer thread — and it is also what keeps scores **bitwise
    /// identical to single-producer submission for every producer count**:
    /// a shard's substream is a pure function of the sequence numbers
    /// (`seq % shards`), never of lane timing.
    ///
    /// What *is* timing-dependent is which points lose under a lossy
    /// policy: `DropNewest` drops and `ShedOldest` evictions depend on how
    /// far each worker has drained when its lane flushes, exactly as they
    /// already do between two single-producer runs. Under `Block` (or
    /// whenever capacity ≥ load, any policy) nothing is lost and the score
    /// stream is reproducible bit-for-bit across producer counts.
    ///
    /// `producers` is clamped to `[1, shards]`; `1` stages and flushes on the
    /// calling thread. Lanes stop at the first dead worker thread they meet
    /// (other lanes finish their flush), and the first dead shard is
    /// harvested and returned as the error.
    ///
    /// ```
    /// use sketchad_core::{DetectorConfig, RowBlock, StreamingDetector};
    /// use sketchad_serve::{ServeConfig, ServeEngine};
    ///
    /// fn factory(_shard: usize) -> Box<dyn StreamingDetector + Send> {
    ///     Box::new(DetectorConfig::new(2, 8).with_warmup(16).with_seed(7).build_fd(4))
    /// }
    /// let rows: Vec<Vec<f64>> = (0..100u32)
    ///     .map(|i| {
    ///         let t = f64::from(i) * 0.1;
    ///         vec![t.sin(), t.cos(), 0.0, 0.0]
    ///     })
    ///     .collect();
    ///
    /// let run = |producers: usize| {
    ///     let mut engine = ServeEngine::start(ServeConfig::new(4), factory).unwrap();
    ///     engine.submit_batch_rows_parallel(&rows, producers).unwrap();
    ///     engine.finish().unwrap().scores_in_order()
    /// };
    /// assert_eq!(run(1), run(4), "producer count changed scores");
    ///
    /// // The same rows as one flat row-major block score the same.
    /// let flat = rows.concat();
    /// let mut engine = ServeEngine::start(ServeConfig::new(4), factory).unwrap();
    /// engine.submit_batch_rows_parallel(&RowBlock::new(&flat, 4), 2).unwrap();
    /// assert_eq!(engine.finish().unwrap().scores_in_order(), run(1));
    /// ```
    pub fn submit_batch_rows_parallel<R: Rows + ?Sized>(
        &mut self,
        rows: &R,
        producers: usize,
    ) -> Result<BatchOutcome, ServeError> {
        let lanes = producers.clamp(1, self.shards.len());
        // Published before the claim (Release pairs with the probe's
        // Acquire load of `submitted`): a sampler that sees the claimed
        // sequence range also sees how many of its rows may still be
        // unaccounted.
        self.in_flight.store(rows.len() as u64, Release);
        let base = self.submitted.fetch_add(rows.len() as u64, Release);
        // Degradation is checked once per shard per batch, not per row.
        let shedding: Vec<bool> = self
            .shards
            .iter()
            .map(|h| h.shared.degraded.load(Relaxed))
            .collect();
        let enqueued = Instant::now();
        let lane_input = LaneInput {
            shards: &self.shards,
            rows,
            base,
            dim: self.dim,
            shedding: &shedding,
            backpressure: self.backpressure,
            enqueued,
        };
        let staging = &mut self.staging[..lanes];
        let reports: Vec<LaneReport> = if lanes == 1 {
            vec![run_lane(&lane_input, 0, 1, &mut staging[0])]
        } else {
            let input = &lane_input;
            std::thread::scope(|s| {
                let joins: Vec<_> = staging
                    .iter_mut()
                    .enumerate()
                    .map(|(lane, staged)| {
                        std::thread::Builder::new()
                            .name(format!("sketchad-lane-{lane}"))
                            .spawn_scoped(s, move || run_lane(input, lane, lanes, staged))
                            .expect("spawn producer lane")
                    })
                    .collect();
                joins
                    .into_iter()
                    .map(|j| j.join().expect("producer lane panicked"))
                    .collect()
            })
        };
        // Every claimed row is accounted for now: rejected or shed while
        // staging, or reserved in its shard's depth at flush.
        self.in_flight.store(0, Release);
        let mut outcome = BatchOutcome::default();
        let mut quarantined = Vec::new();
        let mut dead = Vec::new();
        for report in reports {
            outcome.accepted += report.outcome.accepted;
            outcome.dropped += report.outcome.dropped;
            outcome.rejected += report.outcome.rejected;
            outcome.shed += report.outcome.shed;
            quarantined.extend(report.quarantined);
            dead.extend(report.dead);
        }
        // Lanes quarantined their own shards' rows; re-merging by sequence
        // keeps eviction under the capacity bound in submission order.
        quarantined.sort_by_key(|(seq, _, _)| *seq);
        for (seq, violation, point) in quarantined {
            self.quarantine.push(seq, violation, point);
        }
        if let Some(&shard) = dead.first() {
            return Err(self.harvest_dead_shard(shard));
        }
        Ok(outcome)
    }

    /// Joins a shard whose worker thread is gone entirely (the supervisor
    /// contains detector panics, so this is a supervisor-level failure) and
    /// returns it as an error. The error is also remembered so `finish`
    /// re-reports it.
    fn harvest_dead_shard(&mut self, shard: usize) -> ServeError {
        self.shards[shard].channel.close();
        let err = match self.shards[shard].join.take() {
            Some(handle) => match handle.join() {
                Err(payload) => ServeError::WorkerPanicked {
                    shard,
                    message: panic_message(payload.as_ref()),
                },
                // A queue marked dead with the thread still returning
                // cleanly should be impossible; report it as a
                // panic-shaped failure rather than hiding it.
                Ok(_) => ServeError::WorkerPanicked {
                    shard,
                    message: "worker exited early without panicking".to_string(),
                },
            },
            None => self
                .dead
                .first()
                .cloned()
                .unwrap_or(ServeError::WorkerPanicked {
                    shard,
                    message: "shard already harvested".to_string(),
                }),
        };
        self.dead.push(err.clone());
        err
    }

    /// A cloneable scorer over `shard`'s snapshot stream; hand these to
    /// reader threads.
    pub fn scorer(&self, shard: usize, score: ScoreKind) -> SnapshotScorer {
        SnapshotScorer::new(Arc::clone(&self.shards[shard].shared.snapshot), score)
    }

    /// Live (approximate) per-shard counters:
    /// `(processed, dropped, queue_depth, queue_high_water)`.
    pub fn live_counters(&self) -> Vec<(u64, u64, usize, usize)> {
        self.shards
            .iter()
            .map(|s| {
                (
                    s.shared.processed.load(Relaxed),
                    s.shared.dropped.load(Relaxed),
                    s.shared.depth.load(Relaxed),
                    s.shared.high_water.load(Relaxed),
                )
            })
            .collect()
    }

    /// Graceful shutdown: closes every queue, lets each worker drain what
    /// is already enqueued, joins them all, and merges scores and stats.
    ///
    /// Every worker is joined even when an earlier one failed — no thread
    /// is leaked. Contained faults (detector panics, degraded shards) do
    /// **not** fail the pipeline; they are reported in the stats. Only a
    /// dead worker *thread* (supervisor failure) returns an error.
    pub fn finish(mut self) -> Result<PipelineReport, ServeError> {
        // Closing the queues is the drain signal.
        for shard in &self.shards {
            shard.channel.close();
        }
        let mut first_error = self.dead.first().cloned();
        let mut scores = Vec::new();
        let mut latency = LatencyHistogram::new();
        let mut shard_stats = Vec::with_capacity(self.shards.len());
        for (idx, shard) in self.shards.iter_mut().enumerate() {
            let Some(handle) = shard.join.take() else {
                continue; // already harvested after a supervisor failure
            };
            match handle.join() {
                Ok(output) => {
                    // The first shard's buffer becomes the report's, so a
                    // one-shard engine never holds its scores twice.
                    if scores.is_empty() {
                        scores = output.scores;
                    } else {
                        scores.extend(output.scores);
                    }
                    latency.merge(&output.latency);
                    shard_stats.push(ShardStats {
                        shard: idx,
                        processed: shard.shared.processed.load(Relaxed),
                        dropped: shard.shared.dropped.load(Relaxed),
                        queue_high_water: shard.shared.high_water.load(Relaxed),
                        rejected: shard.shared.rejected.load(Relaxed),
                        shed: shard.shared.shed.load(Relaxed),
                        crash_lost: shard.shared.crash_lost.load(Relaxed),
                        restarts: shard.shared.restarts.load(Relaxed),
                        degraded: shard.shared.degraded.load(Relaxed),
                        replayed: shard.shared.replayed.load(Relaxed),
                        recovered_generation: shard.shared.recovered_generation.load(Relaxed),
                    });
                }
                Err(payload) => {
                    let err = ServeError::WorkerPanicked {
                        shard: idx,
                        message: panic_message(payload.as_ref()),
                    };
                    first_error.get_or_insert(err);
                }
            }
        }
        // Workers are quiesced (joined or already harvested): stop the
        // telemetry sampler now so its final frame — and the last flight-
        // recorder line — captures the terminal state, where the
        // conservation identity holds exactly. Happens before the error
        // check so a failed pipeline still flushes its telemetry.
        if let Some(mut sampler) = self.telemetry.take() {
            sampler.stop();
        }
        if let Some(err) = first_error {
            return Err(err);
        }
        scores.sort_unstable_by_key(|&(seq, _)| seq);
        // Roll per-shard recorders up into one pipeline-wide report (only
        // present on instrumented engines).
        let mut obs: Option<ObsReport> = None;
        for shard in &self.shards {
            if let Some(recorder) = &shard.recorder {
                obs.get_or_insert_with(ObsReport::default)
                    .merge(&recorder.snapshot());
            }
        }
        let mut stats = PipelineStats::from_shards(shard_stats, latency);
        if let Some(report) = obs {
            stats = stats.with_obs(report);
        }
        Ok(PipelineReport {
            scores,
            stats,
            quarantine: self.quarantine,
        })
    }
}

/// A shard after phase 1 of startup (detector built, channel and shared
/// state allocated) and before its worker thread spawns. Recovery (phase
/// 2) mutates the detector in place — possibly on a recovery worker
/// thread — and phase 3 consumes the lot into a [`ShardHandle`].
struct PreparedShard {
    detector: Box<dyn StreamingDetector + Send>,
    channel: Arc<ShardChannel>,
    shared: Arc<ShardShared>,
    recorder: Option<Arc<MetricsRecorder>>,
    obs: RecorderHandle,
}

/// Warm-restarts one shard from its durable directory: restore the newest
/// valid snapshot into the detector, stream the WAL rows past it into the
/// detector block by block (`absorb_batch`), publish the recovered model,
/// and resume the store for writing from the same walk (which truncates
/// any torn WAL tail and positions the write cursor after the replayed
/// rows). Runs on a per-shard recovery thread when the engine has more
/// than one shard; the logic is identical either way.
fn recover_shard(
    root: &std::path::Path,
    idx: usize,
    config: &ServeConfig,
    prep: &mut PreparedShard,
) -> Result<StateStore, ServeError> {
    let dir = durable::shard_dir(root, idx as u32);
    let durable_err = |message: String| ServeError::Durable {
        shard: idx,
        message,
    };
    let detector = &mut prep.detector;
    let recovery = durable::Recovery::open(&dir).map_err(|e| durable_err(e.to_string()))?;
    let mut generation = 0;
    if let Some(snap) = recovery.snapshot() {
        match detector.restore_state(&snap.payload) {
            Ok(true) => generation = snap.generation,
            // Detector kind without a persistence path: its checkpoints
            // can never have been written, so an unreadable payload here
            // means a foreign file.
            Ok(false) => {
                return Err(durable_err(format!(
                    "snapshot generation {} exists but this detector \
                     does not support state restore",
                    snap.generation
                )));
            }
            Err(e) => {
                return Err(durable_err(format!("restoring snapshot: {e}")));
            }
        }
    }
    // The WAL streams straight into the detector, one bounded block at a
    // time; replayed scores are never read, so the rows are absorbed.
    let dim = detector.dim();
    let recovered = recovery
        .replay_into(|_, rows, width| {
            if width != dim {
                return Err(durable::DurableError::Corrupt {
                    context: "WAL row width differs from the detector's",
                });
            }
            detector.absorb_batch(rows);
            Ok(())
        })
        .map_err(|e| durable_err(e.to_string()))?;
    let replayed = recovered.stats.replay_rows;
    prep.shared.replayed.store(replayed, Relaxed);
    prep.shared.recovered_generation.store(generation, Relaxed);
    if let Some(model) = detector.current_model() {
        prep.shared.snapshot.publish(Arc::new(model.clone()));
    }
    if prep.obs.enabled() && (replayed > 0 || generation > 0) {
        prep.obs.incr(Counter::RowsReplayed, replayed);
        prep.obs.event(Event::ShardRecovered {
            shard: idx,
            generation,
            replayed,
        });
    }
    StateStore::resume(&dir, idx as u32, config.fsync, &recovered)
        .map_err(|e| durable_err(e.to_string()))
}

/// Everything a producer lane needs, borrowed from the engine for the
/// duration of one batch. Shared read-only across lanes; the per-shard
/// mutable state (channels, atomics, recorders) is already thread-safe and
/// partitioned by shard ownership.
struct LaneInput<'a, R: ?Sized> {
    shards: &'a [ShardHandle],
    rows: &'a R,
    base: u64,
    dim: usize,
    shedding: &'a [bool],
    backpressure: BackpressurePolicy,
    enqueued: Instant,
}

/// What one producer lane did with its share of a batch.
struct LaneReport {
    outcome: BatchOutcome,
    /// Rows this lane's shards rejected, for the engine to quarantine in
    /// sequence order after the lanes join (`Quarantine` is single-writer).
    quarantined: Vec<(u64, InputViolation, Vec<f64>)>,
    /// Shards whose worker thread was found dead mid-flush; harvested by
    /// the engine after the lanes join (joining needs `&mut`).
    dead: Vec<usize>,
}

/// A producer lane's staging area: the accepted rows bound for the shard
/// being staged, flat and row-major, with their sequence numbers. Cleared
/// per shard, never shrunk.
struct Staged {
    dim: usize,
    values: Vec<f64>,
    seqs: Vec<u64>,
}

impl Staged {
    fn new(dim: usize) -> Self {
        Self {
            dim,
            values: Vec::new(),
            seqs: Vec::new(),
        }
    }

    /// The staged rows from the `from`-th on, and their sequence numbers.
    fn rest(&self, from: usize) -> (&[f64], &[u64]) {
        (&self.values[from * self.dim..], &self.seqs[from..])
    }
}

/// One producer lane: stages and flushes, shard by shard, every row whose
/// shard the lane owns (`shard % lanes == lane`).
///
/// Determinism: which rows a shard receives, and in which order, depends
/// only on `(base, shards, validation, shedding)` — all identical across
/// lane counts — never on how lanes interleave.
fn run_lane<R: Rows + ?Sized>(
    input: &LaneInput<'_, R>,
    lane: usize,
    lanes: usize,
    staged: &mut Staged,
) -> LaneReport {
    let n_shards = input.shards.len();
    let mut report = LaneReport {
        outcome: BatchOutcome::default(),
        quarantined: Vec::new(),
        dead: Vec::new(),
    };
    for shard in (lane..n_shards).step_by(lanes) {
        // A shard's sequences stride the batch with period `n_shards`, so
        // the lane jumps straight to its rows: from the first in-batch
        // sequence routed to the shard, step by `n_shards`.
        let n = n_shards as u64;
        let first = ((shard as u64 + n - input.base % n) % n) as usize;
        staged.values.clear();
        staged.seqs.clear();
        for j in (first..input.rows.len()).step_by(n_shards) {
            lane_stage_row(input, j, shard, staged, &mut report);
        }
        if staged.seqs.is_empty() {
            continue;
        }
        let handle = &input.shards[shard];
        // One depth reservation per shard per batch, before the flush: the
        // worker may drain (and decrement) the moment a row lands.
        handle.shared.reserve_slots(staged.seqs.len());
        let flushed = match input.backpressure {
            BackpressurePolicy::Block => lane_flush_blocking(handle, shard, staged, input.enqueued),
            BackpressurePolicy::DropNewest => {
                lane_flush_drop_newest(handle, shard, staged, input.enqueued, &mut report.outcome)
            }
            BackpressurePolicy::ShedOldest => {
                lane_flush_shed_oldest(handle, shard, staged, input.enqueued)
            }
        };
        if flushed.is_err() {
            report.dead.push(shard);
        }
    }
    report
}

/// Validates, sheds, or stages row `j` of the batch for `shard`.
fn lane_stage_row<R: Rows + ?Sized>(
    input: &LaneInput<'_, R>,
    j: usize,
    shard: usize,
    staged: &mut Staged,
    report: &mut LaneReport,
) {
    let seq = input.base + j as u64;
    let row = input.rows.row(j);
    if let Err(violation) = validate_point(row, input.dim) {
        let handle = &input.shards[shard];
        handle.shared.rejected.fetch_add(1, Relaxed);
        if handle.obs.enabled() {
            handle.obs.incr(Counter::PointsRejected, 1);
            handle.obs.event(Event::PointRejected {
                shard,
                seq,
                reason: violation.label().to_string(),
            });
        }
        report.quarantined.push((seq, violation, row.to_vec()));
        report.outcome.rejected += 1;
        return;
    }
    if input.shedding[shard] {
        let handle = &input.shards[shard];
        handle.shared.shed.fetch_add(1, Relaxed);
        if handle.obs.enabled() {
            handle.obs.incr(Counter::PointsShed, 1);
            handle.obs.event(Event::QueueShed { shard, seq });
        }
        report.outcome.shed += 1;
        return;
    }
    staged.values.extend_from_slice(row);
    staged.seqs.push(seq);
    report.outcome.accepted += 1;
}

/// Flushes one shard's staged rows under `Block`: retry batch pushes,
/// yielding while the channel is full, until everything is in. `Err` means
/// the worker thread is dead (reservations already rolled back).
fn lane_flush_blocking(
    handle: &ShardHandle,
    shard: usize,
    staged: &Staged,
    enqueued: Instant,
) -> Result<(), ()> {
    let mut blocked_recorded = false;
    let mut pushed = 0;
    while pushed < staged.seqs.len() {
        let (rows, seqs) = staged.rest(pushed);
        match handle.channel.try_push_batch(rows, seqs, enqueued) {
            Ok(0) => {
                if !blocked_recorded && handle.obs.enabled() {
                    blocked_recorded = true;
                    handle.obs.incr(Counter::QueueBlocked, 1);
                    handle.obs.event(Event::QueueBlocked {
                        shard,
                        seq: seqs[0],
                    });
                }
                std::thread::yield_now();
            }
            Ok(n) => pushed += n,
            Err(()) => return abort_lane_flush(handle, seqs.len()),
        }
    }
    Ok(())
}

/// Flushes one shard's staged rows under `DropNewest`: one batch push,
/// everything that did not fit is dropped with exact counts.
fn lane_flush_drop_newest(
    handle: &ShardHandle,
    shard: usize,
    staged: &Staged,
    enqueued: Instant,
    outcome: &mut BatchOutcome,
) -> Result<(), ()> {
    let (rows, seqs) = staged.rest(0);
    let pushed = match handle.channel.try_push_batch(rows, seqs, enqueued) {
        Ok(pushed) => pushed,
        Err(()) => return abort_lane_flush(handle, seqs.len()),
    };
    let dropped = &seqs[pushed..];
    handle.shared.release_slots(dropped.len());
    handle
        .shared
        .dropped
        .fetch_add(dropped.len() as u64, Relaxed);
    if handle.obs.enabled() {
        for &seq in dropped {
            handle.obs.incr(Counter::QueueDropped, 1);
            handle.obs.event(Event::QueueDropped { shard, seq });
        }
    }
    outcome.accepted -= dropped.len() as u64;
    outcome.dropped += dropped.len() as u64;
    Ok(())
}

/// Flushes one shard's staged rows under `ShedOldest` (always the queue
/// channel): one push of the whole group, evictions counted as shed.
fn lane_flush_shed_oldest(
    handle: &ShardHandle,
    shard: usize,
    staged: &Staged,
    enqueued: Instant,
) -> Result<(), ()> {
    let (rows, seqs) = staged.rest(0);
    let mut evicted = Vec::new();
    if handle
        .channel
        .push_shed_oldest(rows, seqs, enqueued, &mut evicted)
        .is_err()
    {
        return abort_lane_flush(handle, seqs.len());
    }
    // Each new row took an evicted one's slot.
    handle.shared.release_slots(evicted.len());
    handle.shared.shed.fetch_add(evicted.len() as u64, Relaxed);
    if handle.obs.enabled() {
        for seq in evicted {
            handle.obs.incr(Counter::PointsShed, 1);
            handle.obs.event(Event::QueueShed { shard, seq });
        }
    }
    Ok(())
}

/// A dead worker thread surfaced mid-flush: roll back the depth
/// reservations of the `unflushed` rows and return the flush's `Err`. The
/// caller reports the shard so the engine can join (harvest) the dead
/// worker once the lanes are back.
fn abort_lane_flush(handle: &ShardHandle, unflushed: usize) -> Result<(), ()> {
    handle.shared.release_slots(unflushed);
    Err(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchad_core::{DetectorConfig, RowBlock};

    fn fd_factory(shard: usize) -> Box<dyn StreamingDetector + Send> {
        let _ = shard;
        Box::new(
            DetectorConfig::new(2, 8)
                .with_warmup(16)
                .with_seed(7)
                .build_fd(4),
        )
    }

    fn wave(i: u64) -> Vec<f64> {
        let t = i as f64 * 0.13;
        vec![t.sin(), t.cos(), (0.5 * t).sin(), 0.1]
    }

    fn waves(range: std::ops::Range<u64>) -> Vec<Vec<f64>> {
        range.map(wave).collect()
    }

    /// One `submit` per point, outcomes tallied like a batch: the load
    /// shape where the lossy policies decide point by point.
    fn submit_each(engine: &mut ServeEngine, range: std::ops::Range<u64>) -> BatchOutcome {
        let mut outcome = BatchOutcome::default();
        for i in range {
            match engine.submit(wave(i)).unwrap() {
                SubmitOutcome::Accepted => outcome.accepted += 1,
                SubmitOutcome::Dropped => outcome.dropped += 1,
                SubmitOutcome::Rejected(_) => outcome.rejected += 1,
                SubmitOutcome::Shed => outcome.shed += 1,
            }
        }
        outcome
    }

    fn score_bits(report: &PipelineReport) -> Vec<u64> {
        report.scores.iter().map(|&(_, s)| s.to_bits()).collect()
    }

    #[test]
    fn round_robin_covers_all_shards() {
        let mut engine = ServeEngine::start(ServeConfig::new(3), fd_factory).unwrap();
        for i in 0..30 {
            assert_eq!(engine.submit(wave(i)).unwrap(), SubmitOutcome::Accepted);
        }
        let report = engine.finish().unwrap();
        assert_eq!(report.stats.total_processed, 30);
        for s in &report.stats.shards {
            assert_eq!(s.processed, 10, "round-robin must balance exactly");
        }
        // Sequence numbers come back complete and sorted.
        let seqs: Vec<u64> = report.scores.iter().map(|&(q, _)| q).collect();
        assert_eq!(seqs, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn wrong_dimension_is_quarantined_not_fatal() {
        let mut engine = ServeEngine::start(ServeConfig::new(1), fd_factory).unwrap();
        let outcome = engine.submit(vec![1.0, 2.0]).unwrap();
        assert_eq!(
            outcome,
            SubmitOutcome::Rejected(InputViolation::WrongDim {
                expected: 4,
                got: 2
            })
        );
        // A flat block of the wrong width is quarantined row by row.
        let block = RowBlock::new(&[3.0, 4.0, 5.0, 6.0], 2);
        let outcome = engine.submit_batch_rows_parallel(&block, 1).unwrap();
        assert_eq!((outcome.rejected, outcome.submitted()), (2, 2));
        // The stream keeps flowing afterwards.
        engine.submit(wave(0)).unwrap();
        let report = engine.finish().unwrap();
        assert_eq!(report.stats.total_processed, 1);
        assert_eq!(report.stats.total_rejected, 3);
        assert_eq!(report.quarantine.total(), 3);
        let rows: Vec<_> = report
            .quarantine
            .rows()
            .map(|r| (r.seq, &r.point))
            .collect();
        let expected = [vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        assert_eq!(rows, (0..3).zip(&expected).collect::<Vec<_>>());
    }

    #[test]
    fn poison_rows_are_quarantined_and_never_scored() {
        let mut engine = ServeEngine::start(ServeConfig::new(2), fd_factory).unwrap();
        let mut expected_rejects = 0u64;
        for i in 0..200u64 {
            if i % 10 == 3 {
                let mut p = wave(i);
                p[(i as usize) % 4] = if i % 20 == 3 { f64::NAN } else { f64::INFINITY };
                expected_rejects += 1;
                assert!(matches!(
                    engine.submit(p).unwrap(),
                    SubmitOutcome::Rejected(InputViolation::NonFinite { .. })
                ));
            } else {
                assert_eq!(engine.submit(wave(i)).unwrap(), SubmitOutcome::Accepted);
            }
        }
        let report = engine.finish().unwrap();
        assert_eq!(report.stats.total_rejected, expected_rejects);
        assert_eq!(report.stats.total_processed, 200 - expected_rejects);
        assert_eq!(report.quarantine.total(), expected_rejects);
        for &(_, score) in &report.scores {
            assert!(score.is_finite(), "a poison row leaked into a detector");
        }
        // Conservation: every submission landed exactly one way.
        assert_eq!(
            report.stats.total_processed
                + report.stats.total_dropped
                + report.stats.total_rejected
                + report.stats.total_shed
                + report.stats.total_crash_lost,
            200
        );
    }

    #[test]
    fn quarantine_respects_capacity_bound() {
        let mut engine = ServeEngine::start(ServeConfig::new(1), fd_factory).unwrap();
        let rejected = QUARANTINE_CAPACITY as u64 + 6;
        for _ in 0..rejected {
            engine.submit(vec![f64::NAN, 0.0, 0.0, 0.0]).unwrap();
        }
        let report = engine.finish().unwrap();
        assert_eq!(report.quarantine.total(), rejected);
        assert_eq!(report.quarantine.len(), QUARANTINE_CAPACITY);
    }

    #[test]
    fn mismatched_shard_dims_rejected_at_start() {
        let result = ServeEngine::start(ServeConfig::new(2), |shard| {
            let dim = if shard == 0 { 4 } else { 6 };
            Box::new(DetectorConfig::new(2, 8).build_fd(dim)) as Box<dyn StreamingDetector + Send>
        });
        assert!(matches!(result, Err(ServeError::InvalidConfig(_))));
    }

    #[test]
    fn drop_newest_counts_losses() {
        // Capacity-1 queue and a detector slow enough to guarantee overlap
        // is hard to arrange deterministically; instead flood far more
        // points than a tiny queue admits while the worker is busy warming
        // up, and accept either outcome per point — the invariant checked
        // is accepted + dropped == submitted and processed == accepted.
        let config = ServeConfig::new(1)
            .with_queue_capacity(1)
            .with_backpressure(BackpressurePolicy::DropNewest);
        let mut engine = ServeEngine::start(config, fd_factory).unwrap();
        let outcome = submit_each(&mut engine, 0..5_000);
        assert_eq!(outcome.submitted(), 5_000);
        let report = engine.finish().unwrap();
        assert_eq!(report.stats.total_processed, outcome.accepted);
        assert_eq!(report.stats.total_dropped, outcome.dropped);
        assert_eq!(report.scores.len() as u64, outcome.accepted);
    }

    #[test]
    fn shed_oldest_keeps_freshest_points_with_exact_accounting() {
        let config = ServeConfig::new(1)
            .with_queue_capacity(2)
            .with_backpressure(BackpressurePolicy::ShedOldest);
        let mut engine = ServeEngine::start(config, fd_factory).unwrap();
        let outcome = submit_each(&mut engine, 0..5_000);
        // Every submission is admitted under ShedOldest …
        assert_eq!(outcome.accepted, 5_000);
        assert_eq!(outcome.dropped + outcome.rejected + outcome.shed, 0);
        let report = engine.finish().unwrap();
        // … but previously queued points may have been evicted; exact
        // conservation still holds.
        assert_eq!(
            report.stats.total_processed + report.stats.total_shed,
            5_000
        );
        assert_eq!(report.scores.len() as u64, report.stats.total_processed);
        // The *last* submissions always survive eviction: the final point
        // can only have been scored, never shed.
        if report.stats.total_shed > 0 {
            let last_seq = report.scores.last().unwrap().0;
            assert_eq!(last_seq, 4_999, "newest point must not be shed");
        }
    }

    /// Back out the submission count from a report's conservation identity.
    fn engine_submitted(report: &PipelineReport) -> u64 {
        report.stats.total_processed
            + report.stats.total_dropped
            + report.stats.total_rejected
            + report.stats.total_shed
            + report.stats.total_crash_lost
    }

    #[test]
    fn finish_on_empty_engine_is_clean() {
        let engine = ServeEngine::start(ServeConfig::new(2), fd_factory).unwrap();
        let report = engine.finish().unwrap();
        assert_eq!(report.stats.total_processed, 0);
        assert!(report.scores.is_empty());
        assert_eq!(report.stats.latency_p50_us, 0.0);
        assert_eq!(report.stats.stats_version, crate::stats::STATS_VERSION);
    }

    #[test]
    fn instrumented_pipeline_reports_refresh_and_snapshot_events() {
        let config = ServeConfig::new(2).with_snapshot_every(16);
        let mut engine = ServeEngine::start_instrumented(config, |_shard, recorder| {
            Box::new(
                DetectorConfig::new(2, 8)
                    .with_warmup(16)
                    .with_seed(7)
                    .build_fd(4)
                    .with_recorder(recorder),
            )
        })
        .unwrap();
        engine
            .submit_batch_rows_parallel(&waves(0..200), 1)
            .unwrap();
        let report = engine.finish().unwrap();
        assert_eq!(report.stats.total_processed, 200);

        let obs = report.stats.obs.expect("instrumented engine attaches obs");
        // Detector spans from both shards, merged.
        assert_eq!(obs.span("sketch_update").unwrap().count, 200);
        assert!(obs.span("score").unwrap().count > 0);
        assert!(obs.span("model_refresh").unwrap().count > 0);
        // Refresh events from the detectors, snapshot events from the shards
        // (one per snapshot_every batch plus the final drain publish).
        assert!(obs.event_count("refresh_fired") > 0, "no refresh events");
        let snapshots = obs.event_count("snapshot_published");
        assert!(snapshots >= 2, "snapshot events: {snapshots}");
        assert_eq!(obs.counter("snapshots_published") as usize, snapshots);
        assert_eq!(
            obs.span("snapshot_publish").unwrap().count as usize,
            snapshots
        );
        // Queue depth is sampled once per micro-batch, with the ring's own
        // occupancy gauge alongside it (`Block` runs on the ring); the
        // queue-wait histogram sees every job.
        let depth_samples = obs.gauge("queue_depth").unwrap().samples;
        assert!((1..=200).contains(&depth_samples), "{depth_samples}");
        assert_eq!(obs.gauge("ring_depth").unwrap().samples, depth_samples);
        assert_eq!(obs.hist("submit_latency").unwrap().count(), 200);
    }

    #[test]
    fn rejected_rows_show_up_as_obs_events() {
        let config = ServeConfig::new(1);
        let mut engine = ServeEngine::start_instrumented(config, |_shard, recorder| {
            Box::new(
                DetectorConfig::new(2, 8)
                    .with_warmup(16)
                    .with_seed(7)
                    .build_fd(4)
                    .with_recorder(recorder),
            )
        })
        .unwrap();
        engine.submit(wave(0)).unwrap();
        engine.submit(vec![0.0, f64::NAN, 0.0, 0.0]).unwrap();
        engine.submit(vec![1.0]).unwrap();
        let report = engine.finish().unwrap();
        let obs = report.stats.obs.unwrap();
        assert_eq!(obs.counter("points_rejected"), 2);
        assert_eq!(obs.event_count("point_rejected"), 2);
        assert_eq!(report.stats.total_rejected, 2);
    }

    #[test]
    fn uninstrumented_engine_attaches_no_obs() {
        let mut engine = ServeEngine::start(ServeConfig::new(2), fd_factory).unwrap();
        engine.submit_batch_rows_parallel(&waves(0..20), 1).unwrap();
        let report = engine.finish().unwrap();
        assert!(report.stats.obs.is_none());
    }

    #[test]
    fn instrumentation_does_not_change_scores() {
        let run = |instrumented: bool| -> Vec<u64> {
            let config = ServeConfig::new(2).with_snapshot_every(8);
            let mut engine = if instrumented {
                ServeEngine::start_instrumented(config, |_shard, recorder| {
                    Box::new(
                        DetectorConfig::new(2, 8)
                            .with_warmup(16)
                            .with_seed(7)
                            .build_fd(4)
                            .with_recorder(recorder),
                    )
                })
                .unwrap()
            } else {
                ServeEngine::start(config, fd_factory).unwrap()
            };
            engine
                .submit_batch_rows_parallel(&waves(0..120), 1)
                .unwrap();
            score_bits(&engine.finish().unwrap())
        };
        assert_eq!(run(false), run(true), "instrumented scores diverged");
    }

    #[test]
    fn drop_newest_losses_show_up_as_obs_events() {
        let config = ServeConfig::new(1)
            .with_queue_capacity(1)
            .with_backpressure(BackpressurePolicy::DropNewest);
        let mut engine = ServeEngine::start_instrumented(config, |_shard, recorder| {
            Box::new(
                DetectorConfig::new(2, 8)
                    .with_warmup(16)
                    .with_seed(7)
                    .build_fd(4)
                    .with_recorder(recorder),
            )
        })
        .unwrap();
        let outcome = submit_each(&mut engine, 0..5_000);
        let report = engine.finish().unwrap();
        let obs = report.stats.obs.unwrap();
        assert_eq!(obs.counter("queue_dropped"), outcome.dropped);
        // The bounded event log kept (a suffix of) the drop events.
        if outcome.dropped > 0 {
            assert!(obs.event_count("queue_dropped") > 0);
        }
    }

    #[test]
    fn micro_batching_does_not_change_scores() {
        // The worker's micro-batch path must be bitwise identical to strict
        // per-point processing, whatever batch sizes the queue happens to
        // yield.
        let run = |max_batch: usize| -> Vec<u64> {
            let config = ServeConfig::new(2)
                .with_snapshot_every(8)
                .with_max_batch(max_batch);
            let mut engine = ServeEngine::start(config, fd_factory).unwrap();
            engine
                .submit_batch_rows_parallel(&waves(0..300), 1)
                .unwrap();
            score_bits(&engine.finish().unwrap())
        };
        let strict = run(1);
        assert_eq!(strict.len(), 300);
        assert_eq!(strict, run(64), "max_batch=64 diverged");
        assert_eq!(strict, run(7), "max_batch=7 diverged");
    }

    #[test]
    fn batch_submit_rows_matches_per_point_bitwise() {
        // One batch must route every row to the same shard with the same
        // sequence number as N batches of one, at any lane count and on
        // both channels (Block → ring, lossless ShedOldest → queue), so the
        // scores are bitwise identical — batching is an ingest
        // optimisation, never a semantic change.
        let rows = waves(0..240);
        for policy in [BackpressurePolicy::Block, BackpressurePolicy::ShedOldest] {
            let run = |lanes: Option<usize>| -> Vec<u64> {
                let config = ServeConfig::new(4)
                    .with_snapshot_every(8)
                    .with_queue_capacity(rows.len())
                    .with_backpressure(policy);
                let mut engine = ServeEngine::start(config, fd_factory).unwrap();
                match lanes {
                    Some(lanes) => {
                        let outcome = engine.submit_batch_rows_parallel(&rows, lanes).unwrap();
                        assert_eq!(outcome.accepted, 240);
                    }
                    None => {
                        for row in &rows {
                            engine.submit(row.clone()).unwrap();
                        }
                    }
                }
                let report = engine.finish().unwrap();
                assert_eq!(report.stats.total_processed, 240, "{policy:?} is lossless");
                score_bits(&report)
            };
            let per_point = run(None);
            assert_eq!(run(Some(1)), per_point, "{policy:?}: 1 lane diverged");
            assert_eq!(run(Some(4)), per_point, "{policy:?}: 4 lanes diverged");
        }
    }

    #[test]
    fn shed_oldest_without_loss_matches_block_bitwise() {
        // The condvar queue (ShedOldest) and the SPSC ring (Block) are
        // interchangeable carriers while capacity ≥ load: same jobs, same
        // order, same scores.
        let rows = waves(0..240);
        let run = |policy: BackpressurePolicy| -> Vec<u64> {
            let config = ServeConfig::new(2)
                .with_snapshot_every(8)
                .with_queue_capacity(rows.len())
                .with_backpressure(policy);
            let mut engine = ServeEngine::start(config, fd_factory).unwrap();
            engine.submit_batch_rows_parallel(&rows, 1).unwrap();
            let report = engine.finish().unwrap();
            assert_eq!(report.stats.total_shed, 0, "sized lossless");
            score_bits(&report)
        };
        assert_eq!(
            run(BackpressurePolicy::Block),
            run(BackpressurePolicy::ShedOldest),
            "queue channel scores diverged from the ring's"
        );
    }

    #[test]
    fn batch_submit_conserves_under_drop_newest() {
        let rows = waves(0..5_000);
        let config = ServeConfig::new(1)
            .with_queue_capacity(1)
            .with_backpressure(BackpressurePolicy::DropNewest);
        let mut engine = ServeEngine::start(config, fd_factory).unwrap();
        let outcome = engine.submit_batch_rows_parallel(&rows, 1).unwrap();
        assert_eq!(outcome.submitted(), 5_000);
        let report = engine.finish().unwrap();
        assert_eq!(report.stats.total_processed, outcome.accepted);
        assert_eq!(report.stats.total_dropped, outcome.dropped);
        assert_eq!(report.scores.len() as u64, outcome.accepted);
        assert_eq!(engine_submitted(&report), 5_000);
    }

    #[test]
    fn batch_submit_conserves_under_shed_oldest() {
        let rows = waves(0..5_000);
        let config = ServeConfig::new(1)
            .with_queue_capacity(2)
            .with_backpressure(BackpressurePolicy::ShedOldest);
        let mut engine = ServeEngine::start(config, fd_factory).unwrap();
        let outcome = engine.submit_batch_rows_parallel(&rows, 1).unwrap();
        // ShedOldest admits everything; losses surface as evictions.
        assert_eq!(outcome.accepted, 5_000);
        assert_eq!(outcome.dropped + outcome.rejected + outcome.shed, 0);
        let report = engine.finish().unwrap();
        assert_eq!(
            report.stats.total_processed + report.stats.total_shed,
            5_000
        );
        assert_eq!(report.scores.len() as u64, report.stats.total_processed);
    }

    #[test]
    fn batch_submit_rejects_poison_rows_in_place() {
        let mut rows: Vec<Vec<f64>> = (0..40).map(wave).collect();
        rows[7] = vec![1.0, f64::NAN, 0.0, 0.0];
        rows[23] = vec![0.5; 3];
        let mut engine = ServeEngine::start(ServeConfig::new(2), fd_factory).unwrap();
        let outcome = engine.submit_batch_rows_parallel(&rows, 1).unwrap();
        assert_eq!(outcome.accepted, 38);
        assert_eq!(outcome.rejected, 2);
        let report = engine.finish().unwrap();
        assert_eq!(report.stats.total_rejected, 2);
        assert_eq!(report.quarantine.total(), 2);
        let seqs: Vec<u64> = report.quarantine.rows().map(|r| r.seq).collect();
        assert!(seqs.contains(&7) && seqs.contains(&23));
        assert_eq!(engine_submitted(&report), 40);
    }

    #[test]
    fn snapshot_appears_after_enough_points() {
        let config = ServeConfig::new(1).with_snapshot_every(8);
        let mut engine = ServeEngine::start(config, fd_factory).unwrap();
        let scorer = engine.scorer(0, ScoreKind::ProjectionDistance);
        engine.submit_batch_rows_parallel(&waves(0..64), 1).unwrap();
        let report = engine.finish().unwrap();
        assert_eq!(report.stats.total_processed, 64);
        // After drain the final model is published.
        let model = scorer.model().expect("snapshot after warmup + drain");
        assert!(model.k() >= 1);
        assert!(scorer.score(&wave(1000)).unwrap().is_finite());
        assert!(scorer.generation() >= 1);
    }

    #[test]
    fn a_wal_of_another_width_fails_recovery_instead_of_replaying() {
        // Two rows of width 2 hold four values, which a detector of width 4
        // would take as one row: recovery refuses the block as a durable
        // error instead of replaying it.
        let root = std::env::temp_dir().join(format!("skad-engine-width-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = durable::shard_dir(&root, 0);
        let mut store = StateStore::open(&dir, 0, durable::FsyncPolicy::Never).unwrap();
        store.append_rows(&[1.0, 2.0, 3.0, 4.0], 2).unwrap();
        drop(store);
        let config = ServeConfig::new(1).with_state_dir(&root);
        let Err(err) = ServeEngine::open_or_recover(config, fd_factory) else {
            panic!("recovery replayed rows of the wrong width");
        };
        assert!(matches!(err, ServeError::Durable { shard: 0, .. }), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }
}

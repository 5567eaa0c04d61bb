//! Concurrency smoke tests for the sharded serving engine: high-volume
//! zero-loss drain, concurrent snapshot readers, and panic containment
//! (worker restart from the last published snapshot; degradation once the
//! restart budget is spent).

use sketchad_core::{DetectorConfig, ScoreKind, StreamingDetector, SubspaceModel};
use sketchad_serve::{
    BackpressurePolicy, BatchOutcome, PartitionStrategy, ServeConfig, ServeEngine, SubmitOutcome,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIM: usize = 16;

fn fd_factory(_shard: usize) -> Box<dyn StreamingDetector + Send> {
    Box::new(
        DetectorConfig::new(3, 16)
            .with_warmup(64)
            .with_seed(11)
            .build_fd(DIM),
    )
}

fn wave(i: u64) -> Vec<f64> {
    let t = i as f64 * 0.017;
    (0..DIM)
        .map(|j| (t + j as f64 * 0.4).sin() * (1.0 + 0.1 * (j as f64)))
        .collect()
}

fn waves(n: u64) -> Vec<Vec<f64>> {
    (0..n).map(wave).collect()
}

/// 100k points across 4 shards under blocking backpressure: every point is
/// scored exactly once, nothing is dropped, and shutdown drains cleanly.
#[test]
fn hundred_k_points_four_shards_zero_loss() {
    const N: u64 = 100_000;
    let config = ServeConfig::new(4)
        .with_queue_capacity(256)
        .with_backpressure(BackpressurePolicy::Block)
        .with_snapshot_every(1024);
    let mut engine = ServeEngine::start(config, fd_factory).expect("start");
    let outcome = engine
        .submit_batch_rows_parallel(&waves(N), 1)
        .expect("submit");
    assert_eq!(outcome.accepted, N);
    assert_eq!(outcome.dropped, 0);

    let report = engine.finish().expect("drain");
    assert_eq!(report.stats.total_processed, N, "no point may be lost");
    assert_eq!(report.stats.total_dropped, 0);
    assert_eq!(report.scores.len() as u64, N);
    // Every sequence number exactly once, in order.
    for (expect, &(seq, score)) in report.scores.iter().enumerate() {
        assert_eq!(seq, expect as u64);
        assert!(score.is_finite());
    }
    // Work was actually spread: each of the 4 shards processed N/4.
    assert_eq!(report.stats.shards.len(), 4);
    for s in &report.stats.shards {
        assert_eq!(s.processed, N / 4);
        assert!(s.queue_high_water >= 1);
    }
    // Latency accounting saw every point.
    assert_eq!(report.stats.latency.count(), N);
    assert!(report.stats.latency_p99_us >= report.stats.latency_p50_us);
}

/// Snapshot readers run concurrently with the writers and always observe
/// either "no model yet" or a coherent published model — never a torn one —
/// and the generation counter only moves forward.
#[test]
fn concurrent_snapshot_readers_see_coherent_models() {
    let config = ServeConfig::new(2)
        .with_queue_capacity(128)
        .with_snapshot_every(64);
    let mut engine = ServeEngine::start(config, fd_factory).expect("start");

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|r| {
            let scorer = engine.scorer(r % 2, ScoreKind::ProjectionDistance);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let probe = wave(999_983);
                let mut last_generation = 0u64;
                let mut scored = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let generation = scorer.generation();
                    assert!(generation >= last_generation, "generation went backwards");
                    last_generation = generation;
                    if let Some(model) = scorer.model() {
                        assert_eq!(model.dim(), DIM, "torn snapshot");
                        let s = scorer.score(&probe).expect("model present");
                        assert!(s.is_finite());
                        scored += 1;
                    }
                    std::thread::yield_now();
                }
                scored
            })
        })
        .collect();

    engine
        .submit_batch_rows_parallel(&waves(20_000), 1)
        .expect("submit");
    let report = engine.finish().expect("drain");
    stop.store(true, Ordering::Relaxed);
    for handle in readers {
        handle.join().expect("reader must not panic");
    }
    assert_eq!(report.stats.total_processed, 20_000);
}

/// A detector that panics after a fixed number of points — the failure
/// injection for panic-containment tests.
struct FlakyDetector {
    inner: Box<dyn StreamingDetector + Send>,
    fail_after: u64,
}

impl StreamingDetector for FlakyDetector {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn process(&mut self, y: &[f64]) -> f64 {
        if self.inner.processed() >= self.fail_after {
            panic!("injected detector failure at point {}", self.fail_after);
        }
        self.inner.process(y)
    }
    fn processed(&self) -> u64 {
        self.inner.processed()
    }
    fn is_warmed_up(&self) -> bool {
        self.inner.is_warmed_up()
    }
    fn name(&self) -> String {
        format!("flaky({})", self.inner.name())
    }
    fn current_model(&self) -> Option<&SubspaceModel> {
        self.inner.current_model()
    }
}

/// A detector panic mid-stream is contained to its shard: the worker
/// restarts, re-adopts the last published snapshot (the panic struck after
/// warmup, so one exists), and the pipeline finishes cleanly with exact
/// loss accounting — no error, no hang, no silent loss.
#[test]
fn worker_panic_recovers_from_last_snapshot() {
    const N: u64 = 4_000;
    let builds = Arc::new(AtomicU64::new(0));
    let config = ServeConfig::new(1)
        .with_queue_capacity(64)
        .with_snapshot_every(16);
    let factory_builds = Arc::clone(&builds);
    let mut engine = ServeEngine::start(config, move |shard| {
        // The first build is flaky and dies at point 100 (after the warmup
        // of 64, so snapshots at 64, 80, 96 exist to resume from); every
        // rebuild is healthy.
        if factory_builds.fetch_add(1, Ordering::Relaxed) == 0 {
            Box::new(FlakyDetector {
                inner: fd_factory(shard),
                fail_after: 100,
            })
        } else {
            fd_factory(shard)
        }
    })
    .expect("start");

    let outcome = engine
        .submit_batch_rows_parallel(&waves(N), 1)
        .expect("submit");
    assert_eq!(outcome.accepted, N, "blocking policy admits everything");
    let report = engine.finish().expect("a contained panic must not error");

    assert_eq!(builds.load(Ordering::Relaxed), 2, "factory rebuilt once");
    let shard = &report.stats.shards[0];
    assert_eq!(shard.restarts, 1);
    assert!(!shard.degraded);
    assert!(
        shard.crash_lost >= 1,
        "the in-flight point died in the panic"
    );
    // Conservation: every submission landed exactly one way.
    assert_eq!(
        report.stats.total_processed + report.stats.total_crash_lost,
        N,
        "scored + crash_lost must cover every accepted point"
    );
    assert_eq!(report.scores.len() as u64, report.stats.total_processed);
    for &(_, score) in &report.scores {
        assert!(score.is_finite());
    }
    // The rebuilt detector adopted the published snapshot instead of
    // re-warming: points scored after the restart carry real (non-zero)
    // scores, which a fresh 64-point warmup would have zeroed.
    let post_restart_nonzero = report
        .scores
        .iter()
        .filter(|&&(seq, score)| seq > 150 && score != 0.0)
        .count();
    assert!(
        post_restart_nonzero > 0,
        "restarted worker must resume scoring from the adopted model"
    );
}

/// One `submit` per point, outcomes tallied like a batch; `accepted_by[s]`
/// counts the points shard `s` accepted (round-robin routes point `i` to
/// shard `i % shards`).
fn submit_each(
    engine: &mut ServeEngine,
    range: std::ops::Range<u64>,
    accepted_by: &mut [u64],
) -> BatchOutcome {
    let mut outcome = BatchOutcome::default();
    for i in range {
        match engine.submit(wave(i)).expect("submit stays infallible") {
            SubmitOutcome::Accepted => {
                outcome.accepted += 1;
                accepted_by[i as usize % accepted_by.len()] += 1;
            }
            SubmitOutcome::Dropped => outcome.dropped += 1,
            SubmitOutcome::Rejected(_) => outcome.rejected += 1,
            SubmitOutcome::Shed => outcome.shed += 1,
        }
    }
    outcome
}

/// A persistently panicking detector exhausts its restart budget and the
/// shard degrades: updates shed with exact counts, the other shard keeps
/// scoring, and `finish` still succeeds with the damage itemised.
#[test]
fn exhausted_restart_budget_degrades_shard_not_pipeline() {
    const N: u64 = 6_000;
    let config = ServeConfig::new(2)
        .with_queue_capacity(16)
        .with_backpressure(BackpressurePolicy::DropNewest)
        .with_max_restarts(1);
    let flaky_builds = Arc::new(AtomicU64::new(0));
    let builds = Arc::clone(&flaky_builds);
    let mut engine = ServeEngine::start(config, move |shard| {
        if shard == 1 {
            // Every incarnation dies after 10 points: restart once, die
            // again, degrade.
            builds.fetch_add(1, Ordering::Relaxed);
            Box::new(FlakyDetector {
                inner: fd_factory(shard),
                fail_after: 10,
            })
        } else {
            fd_factory(shard)
        }
    })
    .expect("start");

    // Point by point, so the tiny DropNewest queues keep admitting while
    // the flaky shard burns through its incarnations.
    let mut accepted_by = [0u64; 2];
    let mut outcome = submit_each(&mut engine, 0..N, &mut accepted_by);
    // A fast producer can finish while shard 1 has accepted only one queue
    // of 16 points, all lost to its first incarnation's fatal batch; the
    // second incarnation then has nothing to die on. So keep feeding both
    // shards, a pair at a time, until the worker thread sets the degrade
    // flag — within a deadline, not a spin without bound.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut submitted = N;
    while !engine.is_degraded(1) {
        assert!(
            Instant::now() < deadline,
            "shard 1 did not degrade within 10 s: it accepted {} points, its detector was built {} times",
            accepted_by[1],
            flaky_builds.load(Ordering::Relaxed)
        );
        let pair = submit_each(&mut engine, submitted..submitted + 2, &mut accepted_by);
        outcome.accepted += pair.accepted;
        outcome.dropped += pair.dropped;
        outcome.rejected += pair.rejected;
        outcome.shed += pair.shed;
        submitted += 2;
        std::thread::yield_now();
    }
    // Verify post-degradation submissions to that shard shed at submit
    // time while the healthy shard still accepts.
    let late = submit_each(&mut engine, submitted..submitted + 40, &mut accepted_by);
    assert_eq!(late.shed, 20, "every point routed to the degraded shard");
    assert_eq!(late.accepted + late.dropped, 20, "healthy shard unaffected");
    let report = engine
        .finish()
        .expect("degradation must not fail the pipeline");

    assert_eq!(report.stats.degraded_shards, vec![1]);
    let flaky = &report.stats.shards[1];
    assert_eq!(flaky.restarts, 2, "budget of 1 restart, then the fatal one");
    assert!(flaky.degraded);
    assert!(flaky.shed > 0, "a degraded shard sheds instead of scoring");
    // The healthy shard carried its half of the stream.
    let healthy = &report.stats.shards[0];
    assert!(healthy.processed > 0);
    assert!(!healthy.degraded);
    assert_eq!(healthy.restarts, 0);
    // Exact conservation across the whole pipeline, faults included.
    assert_eq!(
        report.stats.total_processed
            + report.stats.total_dropped
            + report.stats.total_rejected
            + report.stats.total_shed
            + report.stats.total_crash_lost,
        submitted + 40
    );
    assert_eq!(outcome.submitted(), submitted);
}

/// Key-hash partitioning keeps a key's points on one shard even at volume,
/// so per-key score sequences stay deterministic.
#[test]
fn key_hash_volume_run_is_sticky_and_lossless() {
    const N: u64 = 64_000;
    const KEYS: u64 = 64;
    let config = ServeConfig::new(4)
        .with_queue_capacity(256)
        .with_partition(PartitionStrategy::KeyHash);
    let mut engine = ServeEngine::start(config, fd_factory).expect("start");
    for i in 0..N {
        engine.submit_keyed(i % KEYS, wave(i)).expect("submit");
    }
    let report = engine.finish().expect("drain");
    assert_eq!(report.stats.total_processed, N);
    // Each key contributes exactly N/KEYS points to exactly one shard, so
    // every shard's total is a multiple of N/KEYS.
    let per_key = N / KEYS;
    for s in &report.stats.shards {
        assert_eq!(
            s.processed % per_key,
            0,
            "shard {} processed {} (not a multiple of {per_key})",
            s.shard,
            s.processed
        );
    }
}

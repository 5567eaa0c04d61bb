//! Live-telemetry integration: the sampler and both exporters must be a
//! pure read — bitwise-invisible to every score — and must survive
//! overload (ShedOldest evictions) plus injected worker panics without
//! violating the conservation identity or deadlocking `finish()`.
//!
//! Live frames deliberately get no exact-conservation assertion: the
//! probe reads `submitted` and the per-shard counters non-atomically, so
//! only the final frame — taken after the workers have joined — is exact.
//! What live frames do owe is `conservation_ok`: a lag inside the
//! documented slack, which covers the rows of the submit call in flight.

use proptest::prelude::*;
use sketchad_core::{DetectorConfig, StreamingDetector, SubspaceModel};
use sketchad_obs::{TelemetryRecord, TELEMETRY_SCHEMA};
use sketchad_serve::{
    BackpressurePolicy, PipelineReport, ServeConfig, ServeEngine, SubmitOutcome, TelemetryConfig,
};
use sketchad_system_tests::{base_detector, clean_point, PanicOnce};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A unique temp path per test so parallel runs never collide.
fn tmp_jsonl(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sketchad-telemetry-test-{tag}-{}.jsonl",
        std::process::id()
    ))
}

/// Runs `n` points of the deterministic clean stream through a fresh
/// engine; `telemetry` additionally attaches a fast sampler with a flight
/// recorder at `flight` (exercising the full export path, not just the
/// in-memory store).
fn run_clean(
    seed: u64,
    shards: usize,
    max_batch: usize,
    n: u64,
    telemetry: Option<&PathBuf>,
) -> PipelineReport {
    let config = ServeConfig::new(shards)
        .with_snapshot_every(32)
        .with_max_batch(max_batch);
    let mut engine =
        ServeEngine::start(config, move |_shard| base_detector(seed)).expect("engine start");
    if let Some(flight) = telemetry {
        engine
            .start_telemetry(
                &TelemetryConfig::new()
                    .with_sample_every(Duration::from_millis(1))
                    .with_flight_recorder(flight),
            )
            .expect("start telemetry");
    }
    let rows: Vec<Vec<f64>> = (0..n).map(|i| clean_point(seed, i)).collect();
    engine.submit_batch_rows_parallel(&rows, 1).expect("submit");
    engine.finish().expect("drain")
}

/// Parses a flight recording, asserting the invariants `schema_check`
/// enforces (valid records, correct tag, strictly increasing steps), and
/// returns the frames.
fn parse_flight(path: &PathBuf) -> Vec<TelemetryRecord> {
    let raw = std::fs::read_to_string(path).expect("flight recording exists");
    let mut frames = Vec::new();
    let mut last_step = None;
    for (i, line) in raw.lines().filter(|l| !l.trim().is_empty()).enumerate() {
        let record: TelemetryRecord =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
        assert_eq!(record.schema, TELEMETRY_SCHEMA, "line {}", i + 1);
        assert!(
            last_step.is_none_or(|prev| record.step > prev),
            "line {}: step {} did not advance",
            i + 1,
            record.step
        );
        last_step = Some(record.step);
        frames.push(record);
    }
    assert!(!frames.is_empty(), "flight recorder wrote no frames");
    frames
}

/// The tentpole invariant: attaching the sampler plus the flight recorder
/// changes no score bit. Same stream, same seeds, scores compared by bit
/// pattern — any hidden coupling between the telemetry thread and the
/// scoring path (a lock on the hot path, a reordered drain) fails this.
#[test]
fn sampler_and_exporters_leave_scores_bit_identical() {
    let flight = tmp_jsonl("invisible");
    let plain = run_clean(77, 2, 64, 1500, None);
    let sampled = run_clean(77, 2, 64, 1500, Some(&flight));
    let a = plain.scores_in_order();
    let b = sampled.scores_in_order();
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "score {i}: {x} vs {y}");
    }
    // The ride-along recording is itself well-formed and quiesced-exact.
    let frames = parse_flight(&flight);
    let last = frames.last().unwrap();
    assert_eq!(last.counters.get("submitted"), Some(&1500));
    assert_eq!(last.counters.get("processed"), Some(&1500));
    assert_eq!(last.gauges.get("conservation_lag"), Some(&0.0));
    assert_eq!(last.gauges.get("conservation_ok"), Some(&1.0));
    let _ = std::fs::remove_file(&flight);
}

/// A submit call claims its whole batch in `submitted` before it stages the
/// first row, so a sample landing mid-staging sees a lag of about the batch
/// size. The engine publishes the row count of the call in flight and the
/// probe's slack includes it: with batches far larger than the fixed slack
/// (65 rows here), every live frame must still read `conservation_ok`.
#[test]
fn live_frames_stay_conservation_ok_while_batches_are_staged() {
    const BATCH: u64 = 8_192;
    const BATCHES: u64 = 200;
    let flight = tmp_jsonl("staging");
    let mut engine = ServeEngine::start(ServeConfig::new(1), |_shard| {
        Box::new(
            DetectorConfig::new(2, 8)
                .with_warmup(256)
                .with_seed(5)
                .build_rs(8),
        ) as Box<dyn StreamingDetector + Send>
    })
    .expect("engine start");
    engine
        .start_telemetry(
            &TelemetryConfig::new()
                .with_sample_every(Duration::from_millis(1))
                .with_flight_recorder(&flight),
        )
        .expect("start telemetry");
    let rows: Vec<Vec<f64>> = (0..BATCH)
        .map(|i| (0..8).map(|j| ((i * 8 + j) as f64 * 0.37).sin()).collect())
        .collect();
    for _ in 0..BATCHES {
        engine.submit_batch_rows_parallel(&rows, 1).expect("submit");
    }
    let report = engine.finish().expect("drain");
    assert_eq!(report.stats.total_processed, BATCH * BATCHES);

    let frames = parse_flight(&flight);
    for frame in &frames {
        assert_eq!(
            frame.gauges.get("conservation_ok"),
            Some(&1.0),
            "step {}: lag {:?} with {:?} submitted",
            frame.step,
            frame.gauges.get("conservation_lag"),
            frame.counters.get("submitted"),
        );
    }
    assert_eq!(
        frames.last().unwrap().gauges.get("conservation_lag"),
        Some(&0.0)
    );
    let _ = std::fs::remove_file(&flight);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Invisibility across the configuration lattice: shard counts,
    /// opportunistic-batch widths, and stream seeds. Eight cases keep the
    /// suite fast; each spins up two full engines plus a sampler.
    #[test]
    fn sampling_is_invisible_across_configs(
        seed in 0u64..1_000,
        shards in 1usize..=3,
        batch_pick in 0usize..3,
    ) {
        let max_batch = [1usize, 7, 64][batch_pick];
        let flight = tmp_jsonl(&format!("prop-{seed}-{shards}-{max_batch}"));
        let n = 400;
        let plain = run_clean(seed, shards, max_batch, n, None).scores_in_order();
        let sampled = run_clean(seed, shards, max_batch, n, Some(&flight)).scores_in_order();
        let _ = std::fs::remove_file(&flight);
        prop_assert_eq!(plain.len(), sampled.len());
        for (i, (x, y)) in plain.iter().zip(&sampled).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "score {}: {} vs {}", i, x, y);
        }
    }
}

/// Slows every point down so the submit loop outruns the workers and
/// `ShedOldest` actually evicts — an overload the test can rely on.
struct SlowDetector {
    inner: Box<dyn StreamingDetector + Send>,
    delay: Duration,
}

impl StreamingDetector for SlowDetector {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn process(&mut self, y: &[f64]) -> f64 {
        std::thread::sleep(self.delay);
        self.inner.process(y)
    }
    fn processed(&self) -> u64 {
        self.inner.processed()
    }
    fn is_warmed_up(&self) -> bool {
        self.inner.is_warmed_up()
    }
    fn name(&self) -> String {
        format!("slow({})", self.inner.name())
    }
    fn current_model(&self) -> Option<&SubspaceModel> {
        self.inner.current_model()
    }
    fn score_only(&self, y: &[f64]) -> Option<f64> {
        self.inner.score_only(y)
    }
    fn adopt_model(&mut self, model: &SubspaceModel) -> bool {
        self.inner.adopt_model(model)
    }
    // process_batch inherits the per-point default so the delay (and the
    // PanicOnce threshold wrapping this) applies to every point.
}

/// The stress leg: a saturated queue under `ShedOldest`, a detector that
/// panics mid-run (supervised restart), and a 1 ms sampler flight-recording
/// the whole thing. `finish()` must return (no deadlock), the conservation
/// identity must hold exactly at quiesce — in the stats and in the final
/// telemetry frame — and the recording must be schema-valid.
#[test]
fn shed_overload_and_crash_with_sampler_hold_conservation() {
    let seed = 99u64;
    let shards = 2usize;
    let flight = tmp_jsonl("stress");
    let fired = Arc::new(AtomicU64::new(0));
    let factory_fired = Arc::clone(&fired);

    let config = ServeConfig::new(shards)
        .with_queue_capacity(4)
        .with_backpressure(BackpressurePolicy::ShedOldest)
        .with_snapshot_every(16)
        .with_max_restarts(8)
        .with_max_batch(1);
    let mut engine = ServeEngine::start(config, move |shard| {
        let slow = Box::new(SlowDetector {
            inner: base_detector(seed),
            delay: Duration::from_micros(200),
        });
        if shard == 0 {
            // Shard 0 crashes once it has processed 30 points; the
            // supervisor restarts it and the stream keeps flowing.
            Box::new(PanicOnce::new(slow, 30, Arc::clone(&factory_fired)))
        } else {
            slow
        }
    })
    .expect("engine start");
    engine
        .start_telemetry(
            &TelemetryConfig::new()
                .with_sample_every(Duration::from_millis(1))
                .with_flight_recorder(&flight),
        )
        .expect("start telemetry");

    // Submit until both faults have demonstrably happened: at least one
    // point shed under overload and at least one injected panic. The
    // occasional yield lets the throttled workers reach the panic
    // threshold; the hard cap keeps a broken engine from looping forever.
    let mut shed_seen = false;
    let mut n = 0u64;
    for i in 0..1_000_000u64 {
        if matches!(
            engine.submit(clean_point(seed, i)).expect("submit"),
            SubmitOutcome::Shed
        ) {
            shed_seen = true;
        }
        n += 1;
        if n >= 2_000 && shed_seen && fired.load(Ordering::Relaxed) > 0 {
            break;
        }
        if i % 512 == 511 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    // The load-bearing call: a deadlocked sampler or a worker wedged on a
    // poisoned lock would hang here forever.
    let report = engine.finish().expect("faulted run still finishes");

    let stats = &report.stats;
    assert_eq!(
        stats.total_processed
            + stats.total_dropped
            + stats.total_rejected
            + stats.total_shed
            + stats.total_crash_lost,
        n,
        "conservation identity at quiesce"
    );
    assert!(stats.total_shed > 0, "overload never triggered shedding");
    assert!(
        fired.load(Ordering::Relaxed) > 0,
        "injected panic never fired"
    );

    let frames = parse_flight(&flight);
    let last = frames.last().unwrap();
    assert_eq!(last.counters.get("submitted"), Some(&n));
    assert_eq!(
        last.counters.get("processed").unwrap()
            + last.counters.get("dropped").unwrap()
            + last.counters.get("rejected").unwrap()
            + last.counters.get("shed").unwrap()
            + last.counters.get("crash_lost").unwrap(),
        n,
        "conservation identity in the final telemetry frame"
    );
    assert_eq!(last.gauges.get("conservation_lag"), Some(&0.0));
    assert_eq!(last.gauges.get("conservation_ok"), Some(&1.0));
    assert!(
        *last.counters.get("restarts").unwrap() > 0,
        "final frame missed the supervised restart"
    );
    let _ = std::fs::remove_file(&flight);
}

//! End-to-end observability: a real dataset through the instrumented
//! serving engine produces a merged report whose spans, counters, and
//! events are consistent with the pipeline's own statistics — and whose
//! JSON artifact round-trips — while leaving every score untouched.

use sketchad_core::{DetectorConfig, StreamingDetector};
use sketchad_obs::{ObsArtifact, ObsReport, OBS_SCHEMA};
use sketchad_serve::{PipelineReport, ServeConfig, ServeEngine, TelemetryConfig};
use sketchad_streams::{standard_datasets, DatasetScale, LabeledStream};

fn detector_config() -> DetectorConfig {
    DetectorConfig::new(5, 32).with_warmup(100).with_seed(1234)
}

fn run_instrumented(stream: &LabeledStream, shards: usize) -> PipelineReport {
    let dim = stream.dim;
    let config = ServeConfig::new(shards).with_snapshot_every(128);
    let mut engine = ServeEngine::start_instrumented(config, move |_shard, recorder| {
        Box::new(detector_config().build_fd(dim).with_recorder(recorder))
            as Box<dyn StreamingDetector + Send>
    })
    .expect("engine start");
    engine
        .submit_batch_rows_parallel(&stream.rows(), 1)
        .expect("submit");
    engine.finish().expect("drain")
}

/// The merged report tells a story consistent with the pipeline stats:
/// every processed point was a sketch update and a queue-wait observation,
/// every micro-batch a queue-depth sample, models refreshed and were
/// snapshotted, and the counters agree with the event log.
#[test]
fn instrumented_pipeline_report_is_internally_consistent() {
    let stream = standard_datasets(DatasetScale::Small).remove(0);
    let report = run_instrumented(&stream, 2);
    let stats = &report.stats;
    assert_eq!(stats.total_processed as usize, stream.len());
    let obs = stats.obs.as_ref().expect("instrumented run carries obs");

    let updates = obs.span("sketch_update").expect("sketch_update span");
    assert_eq!(updates.count, stats.total_processed);
    assert!(obs.span("score").expect("score span").count > 0);
    assert!(obs.span("model_refresh").expect("refresh span").count > 0);
    let depth_samples = obs.gauge("queue_depth").expect("queue_depth gauge").samples;
    assert!(
        (1..=stats.total_processed).contains(&depth_samples),
        "one queue_depth sample per micro-batch, got {depth_samples}"
    );
    assert_eq!(
        obs.hist("submit_latency").expect("submit_latency").count(),
        stats.total_processed
    );

    // Refresh events fired (one "warmup" refresh per shard, then periodic).
    assert!(obs.event_count("refresh_fired") >= 2);
    // Snapshots: every 128 points per shard plus one final per shard, and
    // the counter, event log, and span all count the same publications.
    let snapshots = obs.counter("snapshots_published");
    assert!(snapshots >= 2);
    assert_eq!(obs.event_count("snapshot_published") as u64, snapshots);
    assert_eq!(obs.span("snapshot_publish").expect("span").count, snapshots);
}

/// The exported artifact round-trips through JSON with nothing lost.
#[test]
fn obs_artifact_round_trips_from_a_real_run() {
    let stream = standard_datasets(DatasetScale::Small).remove(0);
    let report = run_instrumented(&stream, 2);
    let obs = report.stats.obs.expect("obs report");
    let artifact = ObsArtifact::new("integration-test", obs)
        .with_context("dataset", stream.name.as_str())
        .with_context("shards", "2");
    let json = artifact.to_json();
    let back: ObsArtifact = serde_json::from_str(&json).expect("parse artifact");
    assert_eq!(back, artifact);
    assert_eq!(back.schema, OBS_SCHEMA);
    assert!(back.report.event_count("refresh_fired") > 0);
}

/// Observability must be a pure read: the instrumented engine emits scores
/// bit-identical to the uninstrumented one on the same stream — and so
/// does the instrumented engine with a live sampler attached on top.
#[test]
fn instrumentation_leaves_pipeline_scores_bit_identical() {
    let stream = standard_datasets(DatasetScale::Small).remove(0);
    let dim = stream.dim;
    let mut plain_engine = ServeEngine::start(ServeConfig::new(2), move |_shard| {
        Box::new(detector_config().build_fd(dim)) as Box<dyn StreamingDetector + Send>
    })
    .expect("engine start");
    plain_engine
        .submit_batch_rows_parallel(&stream.rows(), 1)
        .expect("submit");
    let plain = plain_engine.finish().expect("drain").scores_in_order();
    let metered = run_instrumented(&stream, 2).scores_in_order();
    assert_eq!(plain.len(), metered.len());
    for (i, (a, b)) in plain.iter().zip(&metered).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "score {i}: {a} vs {b}");
    }

    // Third arm: instrumentation plus the telemetry sampler, sampling as
    // fast as the clock allows. Still bit-identical.
    let config = ServeConfig::new(2).with_snapshot_every(128);
    let mut sampled_engine = ServeEngine::start_instrumented(config, move |_shard, recorder| {
        Box::new(detector_config().build_fd(dim).with_recorder(recorder))
            as Box<dyn StreamingDetector + Send>
    })
    .expect("engine start");
    sampled_engine
        .start_telemetry(
            &TelemetryConfig::new().with_sample_every(std::time::Duration::from_millis(1)),
        )
        .expect("start telemetry");
    sampled_engine
        .submit_batch_rows_parallel(&stream.rows(), 1)
        .expect("submit");
    let sampled = sampled_engine.finish().expect("drain").scores_in_order();
    assert_eq!(plain.len(), sampled.len());
    for (i, (a, b)) in plain.iter().zip(&sampled).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "sampled score {i}: {a} vs {b}");
    }
}

/// Per-shard reports merge additively: the union of two shards' counts is
/// what a single merged report shows. (Checked via ObsReport::merge on
/// fresh reports so the integration surface — merge used by the engine —
/// is exercised against real recorded data.)
#[test]
fn merging_shard_reports_is_additive() {
    let stream = standard_datasets(DatasetScale::Small).remove(0);
    let one = run_instrumented(&stream, 1);
    let obs_one = one.stats.obs.as_ref().expect("obs");

    let mut merged = ObsReport::default();
    merged.merge(obs_one);
    merged.merge(obs_one);
    assert_eq!(
        merged.span("sketch_update").unwrap().count,
        2 * obs_one.span("sketch_update").unwrap().count
    );
    assert_eq!(
        merged.counter("snapshots_published"),
        2 * obs_one.counter("snapshots_published")
    );
    assert_eq!(merged.events.len(), 2 * obs_one.events.len());
}

//! Serving-engine determinism: a 1-shard pipeline is bit-for-bit identical
//! to driving the detector directly, and multi-shard runs are reproducible
//! across executions.

use sketchad_core::{DetectorConfig, StreamingDetector};
use sketchad_serve::{BackpressurePolicy, ServeConfig, ServeEngine};
use sketchad_streams::{standard_datasets, DatasetScale, LabeledStream};

fn scores_of(det: &mut dyn StreamingDetector, stream: &LabeledStream) -> Vec<f64> {
    let mut scores = Vec::with_capacity(stream.len());
    for (v, _) in stream.iter() {
        scores.push(det.process(v));
    }
    scores
}

fn engine_scores(stream: &LabeledStream, config: ServeConfig) -> Vec<f64> {
    let dim = stream.dim;
    let mut engine = ServeEngine::start(config, move |_shard| {
        Box::new(
            DetectorConfig::new(5, 32)
                .with_warmup(100)
                .with_seed(1234)
                .build_fd(dim),
        ) as Box<dyn StreamingDetector + Send>
    })
    .expect("engine start");
    engine
        .submit_batch_rows_parallel(&stream.rows(), 1)
        .expect("submit");
    engine.finish().expect("drain").scores_in_order()
}

/// The core contract: one shard under blocking backpressure sees exactly
/// the same point sequence as a directly driven detector, so every score
/// matches to the last bit — threading and queueing add no numeric noise.
#[test]
fn one_shard_engine_matches_direct_detector_bitwise() {
    let stream = standard_datasets(DatasetScale::Small).remove(0);
    let mut direct = DetectorConfig::new(5, 32)
        .with_warmup(100)
        .with_seed(1234)
        .build_fd(stream.dim);
    let direct_scores = scores_of(&mut direct, &stream);

    let engine_scores = engine_scores(&stream, ServeConfig::new(1));

    assert_eq!(direct_scores.len(), engine_scores.len());
    for (i, (a, b)) in direct_scores.iter().zip(&engine_scores).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "score {i} differs: direct {a} vs engine {b}"
        );
    }
}

/// Multi-shard runs are reproducible: the same stream through the same
/// 4-shard round-robin engine yields identical scores run-over-run (each
/// shard sees a deterministic substream).
#[test]
fn four_shard_engine_is_reproducible() {
    let stream = standard_datasets(DatasetScale::Small).remove(0);
    let config = || {
        ServeConfig::new(4)
            .with_queue_capacity(64)
            .with_backpressure(BackpressurePolicy::Block)
    };
    let a = engine_scores(&stream, config());
    let b = engine_scores(&stream, config());
    assert_eq!(a.len(), stream.len());
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "score {i} differs across runs");
    }
}

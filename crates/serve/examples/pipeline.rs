//! End-to-end serving pipeline demo: shard a synthetic low-rank stream
//! across 4 workers while a reader thread scores probes against the
//! snapshot models, then print the pipeline stats as JSON.
//!
//! Run with: `cargo run -p sketchad-serve --example pipeline`

use sketchad_core::{DetectorConfig, ScoreKind, StreamingDetector};
use sketchad_serve::{ServeConfig, ServeEngine};
use sketchad_streams::{generate_low_rank_stream, AnomalyKind, LowRankStreamConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn main() {
    let stream = generate_low_rank_stream(LowRankStreamConfig {
        n: 20_000,
        d: 48,
        k: 4,
        anomaly_rate: 0.01,
        seed: 42,
        anomaly_kind: AnomalyKind::OffSubspace,
        ..Default::default()
    });

    let config = ServeConfig::new(4)
        .with_queue_capacity(512)
        .with_snapshot_every(200);
    let mut engine = ServeEngine::start(config, |_shard| {
        Box::new(
            DetectorConfig::new(4, 32)
                .with_warmup(200)
                .with_seed(7)
                .build_fd(48),
        ) as Box<dyn StreamingDetector + Send>
    })
    .expect("engine start");

    // Reader thread: scores a fixed probe against shard 0's snapshots while
    // the writers are still updating — the read path never blocks on them.
    let scorer = engine.scorer(0, ScoreKind::ProjectionDistance);
    let stop = Arc::new(AtomicBool::new(false));
    let reader_stop = Arc::clone(&stop);
    let probe: Vec<f64> = (0..48).map(|i| if i == 7 { 5.0 } else { 0.0 }).collect();
    let reader = std::thread::spawn(move || {
        let mut reads = 0u64;
        let mut last = None;
        while !reader_stop.load(Ordering::Relaxed) {
            if let Some(score) = scorer.score(&probe) {
                last = Some((score, scorer.generation()));
            }
            reads += 1;
            std::thread::yield_now();
        }
        (reads, last)
    });

    let batch = engine
        .submit_batch_rows_parallel(&stream.rows(), 1)
        .expect("submit");
    let report = engine.finish().expect("clean drain");
    stop.store(true, Ordering::Relaxed);
    let (reads, last_read) = reader.join().expect("reader thread");

    println!(
        "submitted {} points ({} accepted, {} dropped) across {} shards",
        batch.accepted + batch.dropped,
        batch.accepted,
        batch.dropped,
        report.stats.shards.len()
    );
    if let Some((score, generation)) = last_read {
        println!(
            "snapshot reader: {reads} reads concurrent with the writers; \
             final probe score {score:.4} against model generation {generation}"
        );
    }
    println!(
        "latency p50 {:.1} µs / p99 {:.1} µs",
        report.stats.latency_p50_us, report.stats.latency_p99_us
    );
    println!(
        "stats JSON:\n{}",
        serde_json::to_string_pretty(&report.stats).expect("stats serialize")
    );
}

//! `pipeline`: concurrent scoring through the sharded serving engine —
//! partitions the stream across worker shards, reports throughput and
//! latency quantiles, and optionally dumps scores and the stats JSON
//! artifact.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sketchad_core::obs::RecorderHandle;
use sketchad_core::StreamingDetector;
use sketchad_obs::{ObsArtifact, SeriesStore};
use sketchad_serve::{BackpressurePolicy, FsyncPolicy, ServeConfig, ServeEngine, TelemetryConfig};
use sketchad_streams::io::BlockReader;

use crate::args::{
    dataset, open_input, write_artifact, write_scores, Args, Command, DetectorArgs, UseDetector,
};

pub const COMMAND: Command = Command {
    name: "pipeline",
    options: &[
        &[
            "[--input FILE] [--dataset NAME] [--small] [--shards N] [--producers N]",
            "[--queue N] [--on-overload block|drop|shed]",
        ],
        DetectorArgs::OPTIONS,
        &[
            "[--snapshot-every N] [--max-batch N] [--max-restarts N] [--output FILE]",
            "[--state-dir DIR] [--checkpoint-every N] [--fsync always|never|every:N]",
            "[--stats-json FILE] [--metrics-out FILE] [--metrics-addr HOST:PORT]",
            "[--telemetry-out FILE.jsonl] [--telemetry-every-ms N]",
            "[--metrics-hold-ms N] [--watch] [--quiet]",
        ],
    ],
    run,
};

/// Rows per `pipeline` submit call (the chunk skbench's `ingest_cheap`
/// uses): large enough to amortize the per-call lane setup, small enough
/// that the first flush does not wait for the whole stream to be staged.
const PIPELINE_CHUNK: usize = 8192;

/// Parses `--fsync always|never|every:N` into a [`FsyncPolicy`].
pub fn parse_fsync(raw: &str) -> Result<FsyncPolicy, String> {
    match raw {
        "always" => Ok(FsyncPolicy::Always),
        "never" => Ok(FsyncPolicy::Never),
        other => other
            .strip_prefix("every:")
            .and_then(|n| n.parse::<u32>().ok())
            .filter(|&n| n > 0)
            .map(FsyncPolicy::EveryN)
            .ok_or_else(|| format!("unknown fsync policy {other:?} (always|never|every:N)")),
    }
}

fn run(p: &Args) -> Result<(), String> {
    // Input: a CSV/.rows file or a named builtin dataset, read in blocks.
    let mut input = match (p.get("input"), p.get("dataset")) {
        (Some(input), None) => open_input(input)?,
        (None, Some(name)) => BlockReader::from_stream(dataset(p, name)?),
        _ => return Err("pipeline needs exactly one of --input or --dataset".into()),
    };

    let shards: usize = p.parse_or("shards", 4, "positive integer")?;
    // Producer lanes for the submit side; scores are identical for any
    // value (lanes own disjoint shards), so this is purely a throughput
    // knob. Counts beyond the shard count clamp down inside the engine.
    let producers: usize = p.parse_or("producers", 1, "positive integer")?;
    if producers == 0 {
        return Err("--producers must be at least 1".into());
    }
    let queue: usize = p.parse_or("queue", 1024, "positive integer")?;
    let snapshot_every: u64 = p.parse_or("snapshot-every", 256, "integer")?;
    let max_batch: usize = p.parse_or("max-batch", 64, "positive integer")?;
    let policy = match p.get("on-overload").unwrap_or("block") {
        "block" => BackpressurePolicy::Block,
        "drop" => BackpressurePolicy::DropNewest,
        "shed" => BackpressurePolicy::ShedOldest,
        other => {
            return Err(format!(
                "unknown overload policy {other:?} (block|drop|shed)"
            ))
        }
    };
    let max_restarts: u32 = p.parse_or("max-restarts", 2, "integer")?;
    let det = DetectorArgs::parse(p)?;
    let dim = input.dim();

    let mut serve_config = ServeConfig::new(shards)
        .with_queue_capacity(queue)
        .with_backpressure(policy)
        .with_snapshot_every(snapshot_every)
        .with_max_batch(max_batch)
        .with_max_restarts(max_restarts);
    // Durable state: WAL + periodic checkpoints per shard, warm restart on
    // reopen against the same directory.
    if let Some(dir) = p.get("state-dir") {
        serve_config = serve_config
            .with_state_dir(dir)
            .with_checkpoint_every(p.parse_or("checkpoint-every", 4096, "integer")?)
            .with_fsync(parse_fsync(p.get("fsync").unwrap_or("every:64"))?);
    }
    let metrics_out = p.get("metrics-out");
    // Live telemetry: any of these turns on the background sampler (and
    // forces the instrumented engine so recorder-tier series exist too).
    let metrics_addr = p.get("metrics-addr");
    let telemetry_out = p.get("telemetry-out");
    let telemetry_every_ms: u64 =
        p.parse_or("telemetry-every-ms", 100, "positive integer milliseconds")?;
    let metrics_hold_ms: u64 = p.parse_or("metrics-hold-ms", 0, "integer milliseconds")?;
    let (watch, quiet) = (p.flag("watch"), p.flag("quiet"));
    let telemetry_wanted = metrics_addr.is_some() || telemetry_out.is_some() || watch;
    // One factory serves both engines: the instrumented one hands each
    // shard's detector its recorder. It is infallible and `Send + 'static`:
    // the engine also calls it on a worker thread after a panic.
    let build = move |recorder| det.build(dim, recorder, Boxed);
    let mut engine = if metrics_out.is_some() || telemetry_wanted {
        ServeEngine::start_instrumented(serve_config, move |_shard, recorder| build(recorder))
    } else {
        ServeEngine::start(serve_config, move |_shard| build(RecorderHandle::default()))
    }
    .map_err(|e| e.to_string())?;

    // Telemetry session: sampler (plus Prometheus endpoint / JSONL flight
    // recorder) over the running engine. The sampler stops inside
    // `finish()`; the handle keeps the HTTP endpoint alive until dropped.
    let telemetry_handle = if telemetry_wanted {
        let mut tcfg = TelemetryConfig::new()
            .with_sample_every(Duration::from_millis(telemetry_every_ms.max(1)));
        if let Some(addr) = metrics_addr {
            tcfg = tcfg.with_metrics_addr(addr);
        }
        if let Some(path) = telemetry_out {
            tcfg = tcfg.with_flight_recorder(path);
        }
        let handle = engine.start_telemetry(&tcfg).map_err(|e| e.to_string())?;
        if let Some(addr) = handle.metrics_addr() {
            // Printed even under --quiet: with port 0 this line is the only
            // way to learn where the endpoint landed.
            println!("metrics endpoint: http://{addr}/metrics");
        }
        Some(handle)
    } else {
        None
    };
    // --watch: a terminal ticker over the live series while the run goes.
    let watch_stop = Arc::new(AtomicBool::new(false));
    let watch_join = telemetry_handle.as_ref().filter(|_| watch).map(|handle| {
        let store = handle.store();
        let stop = Arc::clone(&watch_stop);
        std::thread::spawn(move || {
            use std::io::IsTerminal;
            let tty = std::io::stderr().is_terminal();
            while !stop.load(Ordering::Relaxed) {
                if let Some(line) = watch_status_line(&store) {
                    if tty {
                        eprint!("\r{line}\x1b[K");
                    } else {
                        eprintln!("{line}");
                    }
                }
                std::thread::sleep(Duration::from_millis(200));
            }
            if tty {
                eprintln!();
            }
        })
    });

    let started = std::time::Instant::now();
    let mut submitted = 0u64;
    while let Some(block) = input
        .next_block(PIPELINE_CHUNK)
        .map_err(|e| e.to_string())?
    {
        submitted += engine
            .submit_batch_rows_parallel(&block.rows, producers)
            .map_err(|e| e.to_string())?
            .submitted();
    }
    let report = engine.finish().map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();
    watch_stop.store(true, Ordering::Relaxed);
    if let Some(join) = watch_join {
        let _ = join.join();
    }
    let stats = &report.stats;

    if !quiet {
        let rate = stats.total_processed as f64 / elapsed.as_secs_f64().max(1e-9);
        println!(
            "pipeline: {submitted} points (d={}) through {shards} shard(s) in {:.2}s — {:.0} points/s",
            dim,
            elapsed.as_secs_f64(),
            rate
        );
        println!(
            "processed {} / dropped {} / rejected {} / shed {} | latency p50 {:.1} µs, p99 {:.1} µs",
            stats.total_processed,
            stats.total_dropped,
            stats.total_rejected,
            stats.total_shed,
            stats.latency_p50_us,
            stats.latency_p99_us
        );
        if stats.total_replayed > 0 || !stats.recovered_shards.is_empty() {
            println!(
                "recovery: warm restart replayed {} row(s) on shard(s) {:?}",
                stats.total_replayed, stats.recovered_shards
            );
        }
        if stats.total_restarts > 0 || !stats.degraded_shards.is_empty() {
            println!(
                "faults: {} worker restart(s), {} point(s) lost in crashes, degraded shards {:?}",
                stats.total_restarts, stats.total_crash_lost, stats.degraded_shards
            );
        }
        if report.quarantine.total() > 0 {
            println!(
                "quarantine: {} row(s) rejected ({} retained for inspection)",
                report.quarantine.total(),
                report.quarantine.len()
            );
        }
        for s in &stats.shards {
            println!(
                "  shard {}: processed {}, dropped {}, rejected {}, shed {}, queue high-water {}{}",
                s.shard,
                s.processed,
                s.dropped,
                s.rejected,
                s.shed,
                s.queue_high_water,
                if s.degraded { " [degraded]" } else { "" }
            );
        }
    }

    if let Some(output) = p.get("output") {
        write_scores(output, report.scores.iter().copied(), None, quiet)?;
    }
    if let Some(stats_path) = p.get("stats-json") {
        let json = serde_json::to_string_pretty(stats).map_err(|e| e.to_string())?;
        std::fs::write(stats_path, json).map_err(|e| e.to_string())?;
        if !quiet {
            println!("wrote pipeline stats to {stats_path}");
        }
    }
    if let Some(path) = metrics_out {
        let artifact = ObsArtifact::new("pipeline", stats.obs.clone().unwrap_or_default())
            .with_context("source", input.name())
            .with_context("points", submitted.to_string())
            .with_context("dim", dim.to_string())
            .with_context("shards", shards.to_string())
            .with_context("snapshot_every", snapshot_every.to_string())
            .with_context("max_batch", max_batch.to_string());
        write_artifact(path, &det.context(artifact), quiet)?;
    }
    if let Some(path) = telemetry_out {
        println!("wrote telemetry to {path}");
    }
    // Keep the Prometheus endpoint (serving the final, quiesced frame)
    // alive for scrapers that arrive after the stream ends.
    if metrics_hold_ms > 0 && telemetry_handle.is_some() {
        std::thread::sleep(Duration::from_millis(metrics_hold_ms));
    }
    drop(telemetry_handle);
    Ok(())
}

/// Boxes each shard's detector for the serving engine.
struct Boxed;

impl UseDetector for Boxed {
    type Output = Box<dyn StreamingDetector + Send>;
    fn with<D: StreamingDetector + Send + 'static>(self, detector: D) -> Self::Output {
        Box::new(detector)
    }
}

/// One line of live pipeline status from the sampled series, for `--watch`.
fn watch_status_line(store: &SeriesStore) -> Option<String> {
    let frame = store.latest()?;
    let rate = store
        .rate_per_sec("processed")
        .map(|r| format!("{r:.0}"))
        .unwrap_or_else(|| "-".into());
    let p99 = frame
        .gauge("submit_latency_p99_us")
        .map(|v| format!("{v:.0}"))
        .unwrap_or_else(|| "-".into());
    let conserved = if frame.gauge("conservation_ok") == Some(1.0) {
        "ok"
    } else {
        "LAG"
    };
    Some(format!(
        "step {:>4} | {:>8} pts/s | depth {:>5} | p99 {:>6} us | shed {} crash {} restarts {} | conservation {}",
        frame.step,
        rate,
        frame.gauge("queue_depth").unwrap_or(0.0) as u64,
        p99,
        frame.counter("shed"),
        frame.counter("crash_lost"),
        frame.counter("restarts"),
        conserved,
    ))
}

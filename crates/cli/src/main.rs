//! `sketchad` — command-line streaming anomaly detection.
//!
//! ```text
//! # generate a benchmark stream (.csv for inspectable text, .rows for the
//! # zero-parse binary replay format — chosen by the output extension)
//! sketchad generate --dataset synth-lowrank --output stream.rows [--small]
//!
//! # score a stream (.csv: features + trailing 0/1 label column; .rows:
//! # sketchad-rows/v1 with the label in the key column)
//! sketchad score --input stream.rows [--sketch fd|rp|cs|rs] [--k 10] [--ell 64]
//!                [--score rel-proj|proj|leverage|blended] [--warmup 256]
//!                [--decay 0.9:100] [--fp-rate 0.01] [--output scores.csv]
//!
//! # benchmark matrix: run the scenario × sketch × budget sweep, inspect
//! # the committed artifact, or derive per-scenario recommendations
//! sketchad matrix run [--smoke] [--full] [--out results/MATRIX_eval.json]
//! sketchad matrix report [--input results/MATRIX_eval.json]
//! sketchad matrix select [--input results/MATRIX_eval.json]
//!
//! # list available datasets
//! sketchad datasets
//! ```
//!
//! If the label column is all zeros (unknown ground truth) the AUC line is
//! omitted; scores and alerts are still produced.

mod args;

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use args::{parse, ParsedArgs};
use sketchad_core::{
    Alert, DetectorConfig, RefreshPolicy, ScoreKind, ScoreScratch, StreamingDetector,
    ThresholdedDetector,
};
use sketchad_eval::{fmt_opt, roc_auc};
use sketchad_obs::{MetricsRecorder, ObsArtifact, Recorder, RecorderHandle};
use sketchad_streams::{io as stream_io, DatasetScale, LabeledStream};

const USAGE: &str =
    "usage: sketchad <generate|score|apply|pipeline|matrix|recover|watch|datasets> [options]
  generate --dataset NAME --output FILE [--small]
  score    --input FILE [--sketch fd|rp|cs|rs] [--k N] [--ell N]
           [--score rel-proj|proj|leverage|blended] [--warmup N]
           [--decay ALPHA:EVERY] [--fp-rate F] [--output FILE]
           [--save-model FILE] [--metrics-out FILE] [--normalize] [--quiet]
  apply    --model FILE --input FILE [--output FILE] [--quiet]
  pipeline (--input FILE | --dataset NAME [--small]) [--shards N]
           [--producers N] [--queue N]
           [--on-overload block|drop|shed] [--partition rr|hash]
           [--sketch fd|rp|cs|rs] [--k N] [--ell N] [--warmup N]
           [--score rel-proj|proj|leverage|blended] [--snapshot-every N]
           [--max-batch N] [--max-restarts N] [--output FILE]
           [--state-dir DIR] [--checkpoint-every N]
           [--fsync always|never|every:N] [--stats-json FILE]
           [--metrics-out FILE] [--metrics-addr HOST:PORT]
           [--telemetry-out FILE.jsonl] [--telemetry-every-ms N]
           [--metrics-hold-ms N] [--watch] [--quiet]
  matrix   [run|report|select] (default run)
           run    [--smoke] [--full] [--out FILE] [--quiet]
           report [--input FILE]
           select [--input FILE]
  recover  --state-dir DIR [--quiet]
  watch    --input FILE.jsonl [--follow] [--for-ms N] [--every-ms N]
  datasets";

/// Points scored per batched call in `score`/`apply` — large enough to
/// amortize the blocked `V_kᵀY` kernel, small enough to stay cache-warm.
const CLI_BATCH: usize = 512;

/// Rows per `pipeline` submit call (the chunk skbench's `ingest_cheap`
/// uses): large enough to amortize the per-call lane setup, small enough
/// that the first flush does not wait for the whole stream to be staged.
const PIPELINE_CHUNK: usize = 8192;

/// Persisted artifact of a trained detector: the subspace model plus the
/// score family it was trained to emit.
#[derive(serde::Serialize, serde::Deserialize)]
struct SavedModel {
    score: ScoreKind,
    model: sketchad_core::SubspaceModel,
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(raw: &[String]) -> Result<(), String> {
    let parsed = parse(raw).map_err(|e| e.to_string())?;
    if parsed.has_flag("help") {
        println!("{USAGE}");
        return Ok(());
    }
    match parsed.command.as_str() {
        "generate" => cmd_generate(&parsed),
        "score" => cmd_score(&parsed),
        "apply" => cmd_apply(&parsed),
        "pipeline" => cmd_pipeline(&parsed),
        "matrix" => cmd_matrix(&parsed),
        "recover" => cmd_recover(&parsed),
        "watch" => cmd_watch(&parsed),
        "datasets" => {
            for name in dataset_names() {
                println!("{name}");
            }
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn dataset_names() -> Vec<&'static str> {
    vec![
        "synth-lowrank",
        "synth-burst",
        "synth-powerlaw",
        "p53-like",
        "dorothea-like",
        "rcv1-like",
        "synth-drift",
        "synth-rotate",
    ]
}

fn dataset_by_name(name: &str, scale: DatasetScale) -> Option<LabeledStream> {
    use sketchad_streams as ss;
    Some(match name {
        "synth-lowrank" => ss::synth_lowrank(scale),
        "synth-burst" => ss::synth_burst(scale),
        "synth-powerlaw" => ss::synth_powerlaw(scale),
        "p53-like" => ss::p53_like(scale),
        "dorothea-like" => ss::dorothea_like(scale),
        "rcv1-like" => ss::rcv1_like(scale),
        "synth-drift" => ss::synth_drift(scale),
        "synth-rotate" => ss::synth_rotate(scale),
        _ => return None,
    })
}

fn cmd_generate(p: &ParsedArgs) -> Result<(), String> {
    let name = p.require("dataset").map_err(|e| e.to_string())?;
    let output = p.require("output").map_err(|e| e.to_string())?;
    let scale = if p.has_flag("small") {
        DatasetScale::Small
    } else {
        DatasetScale::Full
    };
    let stream = dataset_by_name(name, scale)
        .ok_or_else(|| format!("unknown dataset {name:?} (see `sketchad datasets`)"))?;
    let out_path = Path::new(output);
    if let Some(parent) = out_path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    // Extension picks the format: `.rows` writes the zero-parse binary
    // sketchad-rows/v1 layout, anything else stays inspectable CSV.
    if out_path.extension().and_then(|e| e.to_str()) == Some("rows") {
        stream_io::write_rows(&stream, out_path).map_err(|e| e.to_string())?;
    } else {
        stream_io::write_csv(&stream, out_path).map_err(|e| e.to_string())?;
    }
    println!(
        "wrote {} ({} points, d={}, {} anomalies) to {output}",
        stream.name,
        stream.len(),
        stream.dim,
        stream.anomaly_count()
    );
    Ok(())
}

fn parse_score_kind(raw: &str) -> Result<ScoreKind, String> {
    Ok(match raw {
        "rel-proj" => ScoreKind::RelativeProjection,
        "proj" => ScoreKind::ProjectionDistance,
        "leverage" => ScoreKind::Leverage,
        "blended" => ScoreKind::Blended { beta: 0.1 },
        other => return Err(format!("unknown score kind {other:?}")),
    })
}

fn parse_decay(raw: &str) -> Result<(f64, usize), String> {
    let (a, e) = raw
        .split_once(':')
        .ok_or_else(|| format!("--decay expects ALPHA:EVERY, got {raw:?}"))?;
    let alpha: f64 = a.parse().map_err(|_| format!("bad decay alpha {a:?}"))?;
    let every: usize = e.parse().map_err(|_| format!("bad decay interval {e:?}"))?;
    if !(0.0 < alpha && alpha < 1.0) || every == 0 {
        return Err("decay requires 0 < alpha < 1 and EVERY > 0".into());
    }
    Ok((alpha, every))
}

fn cmd_score(p: &ParsedArgs) -> Result<(), String> {
    let input = p.require("input").map_err(|e| e.to_string())?;
    let stream = stream_io::read_stream(Path::new(input)).map_err(|e| e.to_string())?;

    let k: usize = p
        .get_parse_or("k", 10, "positive integer")
        .map_err(|e| e.to_string())?;
    let ell: usize = p
        .get_parse_or("ell", 64, "positive integer")
        .map_err(|e| e.to_string())?;
    let warmup: usize = p
        .get_parse_or("warmup", 256, "integer")
        .map_err(|e| e.to_string())?;
    let fp_rate: f64 = p
        .get_parse_or("fp-rate", 0.01, "fraction in (0,1)")
        .map_err(|e| e.to_string())?;
    if !(0.0 < fp_rate && fp_rate < 1.0) {
        return Err("--fp-rate must be in (0, 1)".into());
    }
    let score = parse_score_kind(p.get_or("score", "rel-proj"))?;

    let mut cfg = DetectorConfig::new(k, ell)
        .with_warmup(warmup)
        .with_score(score)
        .with_refresh(RefreshPolicy::Periodic { period: 64 });
    if let Some(raw) = p.options.get("decay") {
        let (alpha, every) = parse_decay(raw)?;
        cfg = cfg.with_decay(alpha, every);
    }

    // With --metrics-out, hand the detector a live recorder so per-stage
    // spans and refresh events land in an exported artifact.
    let metrics = p
        .options
        .get("metrics-out")
        .map(|path| (path.clone(), Arc::new(MetricsRecorder::new())));
    let recorder = metrics
        .as_ref()
        .map(|(_, r)| RecorderHandle::from(Arc::clone(r) as Arc<dyn Recorder>));

    let sketch_name = p.get_or("sketch", "fd");
    macro_rules! build_detector {
        ($builder:ident) => {{
            let det = cfg.$builder(stream.dim);
            match recorder.clone() {
                Some(h) => Box::new(det.with_recorder(h)) as Box<dyn StreamingDetector>,
                None => Box::new(det) as Box<dyn StreamingDetector>,
            }
        }};
    }
    let mut detector: Box<dyn StreamingDetector> = match sketch_name {
        "fd" => build_detector!(build_fd),
        "rp" => build_detector!(build_rp),
        "cs" => build_detector!(build_cs),
        "rs" => build_detector!(build_rs),
        other => return Err(format!("unknown sketch {other:?} (fd|rp|cs|rs)")),
    };
    if p.has_flag("normalize") {
        detector = Box::new(sketchad_core::NormalizedDetector::new(BoxedDetector(
            detector,
        )));
    }

    let mut alerting = BoxedThreshold::new(detector, fp_rate, warmup.max(64));
    let mut scores = Vec::with_capacity(stream.len());
    let mut alerts: Vec<usize> = Vec::new();
    // Batched scoring path: bitwise identical to per-point processing.
    let mut chunk: Vec<f64> = Vec::with_capacity(CLI_BATCH * stream.dim);
    let mut chunk_alerts: Vec<Alert> = Vec::new();
    let mut base = 0usize;
    for points in stream.points.chunks(CLI_BATCH) {
        chunk.clear();
        for p in points {
            chunk.extend_from_slice(&p.values);
        }
        alerting.process_batch(&chunk, &mut chunk_alerts);
        for (off, alert) in chunk_alerts.iter().enumerate() {
            scores.push(alert.score);
            if alert.is_anomaly {
                alerts.push(base + off);
            }
        }
        base += points.len();
    }

    // Summary.
    let labels = stream.labels();
    let has_both_classes = labels[warmup.min(labels.len())..].iter().any(|&l| l)
        && labels[warmup.min(labels.len())..].iter().any(|&l| !l);
    if !p.has_flag("quiet") {
        println!(
            "scored {} points (d={}) with {}",
            stream.len(),
            stream.dim,
            alerting.name()
        );
        if has_both_classes {
            let auc = roc_auc(&scores[warmup..], &labels[warmup..]);
            println!("ROC-AUC (post-warmup): {}", fmt_opt(auc));
        }
        println!("alerts at fp-rate {fp_rate}: {}", alerts.len());
        let mut top: Vec<(usize, f64)> = scores.iter().copied().enumerate().skip(warmup).collect();
        top.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
        println!("top anomalies (index: score):");
        for (i, s) in top.iter().take(5) {
            println!("  {i}: {s:.4}");
        }
    }

    // Optional per-point score dump.
    if let Some(output) = p.options.get("output") {
        let mut f = std::fs::File::create(output).map_err(|e| e.to_string())?;
        writeln!(f, "index,score,alert").map_err(|e| e.to_string())?;
        for (i, s) in scores.iter().enumerate() {
            let alert = if alerts.binary_search(&i).is_ok() {
                1
            } else {
                0
            };
            writeln!(f, "{i},{s},{alert}").map_err(|e| e.to_string())?;
        }
        if !p.has_flag("quiet") {
            println!("wrote per-point scores to {output}");
        }
    }

    // Optional trained-model persistence.
    if let Some(model_path) = p.options.get("save-model") {
        let model = alerting
            .current_model()
            .ok_or("no model was trained (stream shorter than warmup?)")?;
        let saved = SavedModel {
            score,
            model: model.clone(),
        };
        let json = serde_json::to_string_pretty(&saved).map_err(|e| e.to_string())?;
        std::fs::write(model_path, json).map_err(|e| e.to_string())?;
        if !p.has_flag("quiet") {
            println!(
                "saved trained model (k={}, d={}) to {model_path}",
                model.k(),
                model.dim()
            );
        }
    }

    // Optional observability artifact.
    if let Some((path, rec)) = &metrics {
        let artifact = ObsArtifact::new("score", rec.snapshot())
            .with_context("input", input)
            .with_context("sketch", sketch_name)
            .with_context("k", k.to_string())
            .with_context("ell", ell.to_string())
            .with_context("warmup", warmup.to_string())
            .with_context("score", format!("{score:?}"));
        artifact.write(Path::new(path)).map_err(|e| e.to_string())?;
        if !p.has_flag("quiet") {
            print!("{}", artifact.report.render_table());
            println!("wrote metrics to {path}");
        }
    }
    Ok(())
}

/// Score-only serving: load a persisted model and score a stream against it
/// without any model updates (deployment after offline training).
fn cmd_apply(p: &ParsedArgs) -> Result<(), String> {
    let model_path = p.require("model").map_err(|e| e.to_string())?;
    let input = p.require("input").map_err(|e| e.to_string())?;
    let raw = std::fs::read_to_string(model_path).map_err(|e| e.to_string())?;
    let saved: SavedModel = serde_json::from_str(&raw).map_err(|e| e.to_string())?;
    let stream = stream_io::read_stream(Path::new(input)).map_err(|e| e.to_string())?;
    if stream.dim != saved.model.dim() {
        return Err(format!(
            "model dimension {} does not match stream dimension {}",
            saved.model.dim(),
            stream.dim
        ));
    }

    // Score-only inference runs through the batched `V_kᵀY` kernel (bitwise
    // identical to per-point `evaluate`), reusing one scratch across chunks.
    let mut scores: Vec<f64> = Vec::with_capacity(stream.len());
    let mut scratch = ScoreScratch::new();
    let mut chunk: Vec<f64> = Vec::with_capacity(CLI_BATCH * stream.dim);
    let mut batch_out = Vec::new();
    for points in stream.points.chunks(CLI_BATCH) {
        chunk.clear();
        for p in points {
            chunk.extend_from_slice(&p.values);
        }
        saved
            .model
            .score_block_into(&chunk, saved.score, &mut scratch, &mut batch_out);
        scores.extend_from_slice(&batch_out);
    }

    if !p.has_flag("quiet") {
        println!(
            "applied saved model (k={}, trained on {} rows) to {} points",
            saved.model.k(),
            saved.model.rows_represented(),
            stream.len()
        );
        let labels = stream.labels();
        if labels.iter().any(|&l| l) && labels.iter().any(|&l| !l) {
            println!("ROC-AUC: {}", fmt_opt(roc_auc(&scores, &labels)));
        }
    }
    if let Some(output) = p.options.get("output") {
        let mut f = std::fs::File::create(output).map_err(|e| e.to_string())?;
        writeln!(f, "index,score").map_err(|e| e.to_string())?;
        for (i, s) in scores.iter().enumerate() {
            writeln!(f, "{i},{s}").map_err(|e| e.to_string())?;
        }
        if !p.has_flag("quiet") {
            println!("wrote scores to {output}");
        }
    }
    Ok(())
}

/// Concurrent scoring through the sharded serving engine: partitions the
/// stream across worker shards, reports throughput and latency quantiles,
/// and optionally dumps scores and the stats JSON artifact.
fn cmd_pipeline(p: &ParsedArgs) -> Result<(), String> {
    use sketchad_serve::{
        BackpressurePolicy, PartitionStrategy, ServeConfig, ServeEngine, TelemetryConfig,
    };

    // Input: a CSV/.rows file or a named builtin dataset.
    let stream = match (p.options.get("input"), p.options.get("dataset")) {
        (Some(input), None) => {
            stream_io::read_stream(Path::new(input)).map_err(|e| e.to_string())?
        }
        (None, Some(name)) => {
            let scale = if p.has_flag("small") {
                DatasetScale::Small
            } else {
                DatasetScale::Full
            };
            dataset_by_name(name, scale)
                .ok_or_else(|| format!("unknown dataset {name:?} (see `sketchad datasets`)"))?
        }
        _ => return Err("pipeline needs exactly one of --input or --dataset".into()),
    };

    let shards: usize = p
        .get_parse_or("shards", 4, "positive integer")
        .map_err(|e| e.to_string())?;
    // Producer lanes for the submit side; scores are identical for any
    // value (lanes own disjoint shards), so this is purely a throughput
    // knob. Counts beyond the shard count clamp down inside the engine.
    let producers: usize = p
        .get_parse_or("producers", 1, "positive integer")
        .map_err(|e| e.to_string())?;
    if producers == 0 {
        return Err("--producers must be at least 1".into());
    }
    let queue: usize = p
        .get_parse_or("queue", 1024, "positive integer")
        .map_err(|e| e.to_string())?;
    let snapshot_every: u64 = p
        .get_parse_or("snapshot-every", 256, "integer")
        .map_err(|e| e.to_string())?;
    let max_batch: usize = p
        .get_parse_or("max-batch", 64, "positive integer")
        .map_err(|e| e.to_string())?;
    // `--on-overload` is the documented spelling; `--policy` is kept as a
    // compatible alias from before load-shedding existed.
    let policy_name = p
        .options
        .get("on-overload")
        .map(String::as_str)
        .unwrap_or_else(|| p.get_or("policy", "block"));
    let policy = match policy_name {
        "block" => BackpressurePolicy::Block,
        "drop" => BackpressurePolicy::DropNewest,
        "shed" => BackpressurePolicy::ShedOldest,
        other => {
            return Err(format!(
                "unknown overload policy {other:?} (block|drop|shed)"
            ))
        }
    };
    let max_restarts: u32 = p
        .get_parse_or("max-restarts", 2, "integer")
        .map_err(|e| e.to_string())?;
    let partition = match p.get_or("partition", "rr") {
        "rr" => PartitionStrategy::RoundRobin,
        "hash" => {
            // CSV rows carry no entity key, so keyed routing has nothing to
            // hash and the engine falls back to round-robin per point.
            eprintln!(
                "note: --partition hash routes by per-point keys, which CSV input does not \
                 carry; unkeyed points are routed round-robin (use the library API's \
                 submit_keyed for sticky per-entity routing)"
            );
            PartitionStrategy::KeyHash
        }
        other => return Err(format!("unknown partition {other:?} (rr|hash)")),
    };

    let k: usize = p
        .get_parse_or("k", 10, "positive integer")
        .map_err(|e| e.to_string())?;
    let ell: usize = p
        .get_parse_or("ell", 64, "positive integer")
        .map_err(|e| e.to_string())?;
    let warmup: usize = p
        .get_parse_or("warmup", 256, "integer")
        .map_err(|e| e.to_string())?;
    let score = parse_score_kind(p.get_or("score", "rel-proj"))?;
    let sketch_name = p.get_or("sketch", "fd").to_string();
    let dim = stream.dim;
    let cfg = DetectorConfig::new(k, ell)
        .with_warmup(warmup)
        .with_score(score)
        .with_refresh(RefreshPolicy::Periodic { period: 64 });

    let mut serve_config = ServeConfig::new(shards)
        .with_queue_capacity(queue)
        .with_backpressure(policy)
        .with_partition(partition)
        .with_snapshot_every(snapshot_every)
        .with_max_batch(max_batch)
        .with_max_restarts(max_restarts);
    // Durable state: WAL + periodic checkpoints per shard, warm restart on
    // reopen against the same directory.
    let state_dir = p.options.get("state-dir").cloned();
    if let Some(dir) = &state_dir {
        let checkpoint_every: u64 = p
            .get_parse_or("checkpoint-every", 4096, "integer")
            .map_err(|e| e.to_string())?;
        serve_config = serve_config
            .with_state_dir(dir)
            .with_checkpoint_every(checkpoint_every)
            .with_fsync(parse_fsync(p.get_or("fsync", "every:64"))?);
    }
    let metrics_out = p.options.get("metrics-out").cloned();
    // Live telemetry: any of these turns on the background sampler (and
    // forces the instrumented engine so recorder-tier series exist too).
    let metrics_addr = p.options.get("metrics-addr").cloned();
    let telemetry_out = p.options.get("telemetry-out").cloned();
    let telemetry_every_ms: u64 = p
        .get_parse_or("telemetry-every-ms", 100, "positive integer milliseconds")
        .map_err(|e| e.to_string())?;
    let metrics_hold_ms: u64 = p
        .get_parse_or("metrics-hold-ms", 0, "integer milliseconds")
        .map_err(|e| e.to_string())?;
    let watch = p.has_flag("watch");
    let telemetry_wanted = metrics_addr.is_some() || telemetry_out.is_some() || watch;
    // Validate up front: the factory also rebuilds detectors after worker
    // panics (on the worker thread), so it must be infallible — and
    // `Send + 'static`, hence the owned captures below.
    if !matches!(sketch_name.as_str(), "fd" | "rp" | "cs" | "rs") {
        return Err(format!("unknown sketch {sketch_name:?} (fd|rp|cs|rs)"));
    }
    // One factory serves both the plain and the instrumented engine: the
    // recorder (per-shard, provided by `start_instrumented`) is installed on
    // the detector when present.
    let factory_sketch = sketch_name.clone();
    let build = move |recorder: Option<RecorderHandle>| -> Box<dyn StreamingDetector + Send> {
        macro_rules! build_detector {
            ($builder:ident) => {{
                let det = cfg.$builder(dim);
                match recorder {
                    Some(h) => Box::new(det.with_recorder(h)) as Box<dyn StreamingDetector + Send>,
                    None => Box::new(det) as Box<dyn StreamingDetector + Send>,
                }
            }};
        }
        match factory_sketch.as_str() {
            "fd" => build_detector!(build_fd),
            "rp" => build_detector!(build_rp),
            "cs" => build_detector!(build_cs),
            _ => build_detector!(build_rs),
        }
    };
    let mut engine = if metrics_out.is_some() || telemetry_wanted {
        ServeEngine::start_instrumented(serve_config, move |_shard, recorder| build(Some(recorder)))
    } else {
        ServeEngine::start(serve_config, move |_shard| build(None))
    }
    .map_err(|e| e.to_string())?;

    // Telemetry session: sampler (plus Prometheus endpoint / JSONL flight
    // recorder) over the running engine. The sampler stops inside
    // `finish()`; the handle keeps the HTTP endpoint alive until dropped.
    let telemetry_handle = if telemetry_wanted {
        let mut tcfg = TelemetryConfig::new()
            .with_sample_every(std::time::Duration::from_millis(telemetry_every_ms.max(1)));
        if let Some(addr) = &metrics_addr {
            tcfg = tcfg.with_metrics_addr(addr.clone());
        }
        if let Some(path) = &telemetry_out {
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
    let watch_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let watch_join = telemetry_handle.as_ref().filter(|_| watch).map(|handle| {
        let store = handle.store();
        let stop = Arc::clone(&watch_stop);
        std::thread::spawn(move || {
            use std::io::IsTerminal;
            let tty = std::io::stderr().is_terminal();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                if let Some(line) = watch_status_line(&store) {
                    if tty {
                        eprint!("\r{line}\x1b[K");
                    } else {
                        eprintln!("{line}");
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
            if tty {
                eprintln!();
            }
        })
    });

    let started = std::time::Instant::now();
    let mut submitted = 0u64;
    let mut chunk: Vec<Vec<f64>> = Vec::with_capacity(PIPELINE_CHUNK);
    for points in stream.points.chunks(PIPELINE_CHUNK) {
        chunk.clear();
        chunk.extend(points.iter().map(|p| p.values.clone()));
        submitted += engine
            .submit_batch_rows_parallel(&chunk, producers)
            .map_err(|e| e.to_string())?
            .submitted();
    }
    let report = engine.finish().map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();
    watch_stop.store(true, std::sync::atomic::Ordering::Relaxed);
    if let Some(join) = watch_join {
        let _ = join.join();
    }
    let stats = &report.stats;

    if !p.has_flag("quiet") {
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

    if let Some(output) = p.options.get("output") {
        let mut f = std::fs::File::create(output).map_err(|e| e.to_string())?;
        writeln!(f, "index,score").map_err(|e| e.to_string())?;
        for (seq, s) in &report.scores {
            writeln!(f, "{seq},{s}").map_err(|e| e.to_string())?;
        }
        if !p.has_flag("quiet") {
            println!("wrote per-point scores to {output}");
        }
    }
    if let Some(stats_path) = p.options.get("stats-json") {
        let json = serde_json::to_string_pretty(stats).map_err(|e| e.to_string())?;
        std::fs::write(stats_path, json).map_err(|e| e.to_string())?;
        if !p.has_flag("quiet") {
            println!("wrote pipeline stats to {stats_path}");
        }
    }
    if let Some(path) = &metrics_out {
        let obs = stats.obs.clone().unwrap_or_default();
        let artifact = ObsArtifact::new("pipeline", obs)
            .with_context("source", stream.name.as_str())
            .with_context("points", stream.len().to_string())
            .with_context("dim", dim.to_string())
            .with_context("shards", shards.to_string())
            .with_context("sketch", sketch_name.as_str())
            .with_context("k", k.to_string())
            .with_context("ell", ell.to_string())
            .with_context("warmup", warmup.to_string())
            .with_context("snapshot_every", snapshot_every.to_string())
            .with_context("max_batch", max_batch.to_string());
        artifact.write(Path::new(path)).map_err(|e| e.to_string())?;
        if !p.has_flag("quiet") {
            print!("{}", artifact.report.render_table());
            println!("wrote metrics to {path}");
        }
    }
    if let Some(path) = &telemetry_out {
        println!("wrote telemetry to {path}");
    }
    // Keep the Prometheus endpoint (serving the final, quiesced frame)
    // alive for scrapers that arrive after the stream ends.
    if metrics_hold_ms > 0 && telemetry_handle.is_some() {
        std::thread::sleep(std::time::Duration::from_millis(metrics_hold_ms));
    }
    drop(telemetry_handle);
    Ok(())
}

/// Parses `--fsync always|never|every:N` into a [`sketchad_serve::FsyncPolicy`].
fn parse_fsync(raw: &str) -> Result<sketchad_serve::FsyncPolicy, String> {
    use sketchad_serve::FsyncPolicy;
    match raw {
        "always" => Ok(FsyncPolicy::Always),
        "never" => Ok(FsyncPolicy::Never),
        other => {
            let n = other
                .strip_prefix("every:")
                .and_then(|n| n.parse::<u32>().ok())
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("unknown fsync policy {other:?} (always|never|every:N)"))?;
            Ok(FsyncPolicy::EveryN(n))
        }
    }
}

/// Default location of the committed benchmark-matrix artifact.
const MATRIX_ARTIFACT: &str = "results/MATRIX_eval.json";

/// The benchmark matrix: `run` executes the scenario × sketch × budget
/// sweep and writes the versioned artifact, `report` renders a committed
/// artifact as tables, `select` derives the per-scenario-family
/// configuration recommendation from it.
fn cmd_matrix(p: &ParsedArgs) -> Result<(), String> {
    use sketchad_eval::{
        fmt_f, recommend, run_matrix_with_progress, MatrixArtifact, MatrixSpec, Table,
    };

    // The mode is a positional (`matrix select`); bare `matrix` runs.
    let mode = p.get_or("arg0", "run");
    match mode {
        "run" => {
            let out = p.get_or("out", MATRIX_ARTIFACT);
            let spec = MatrixSpec {
                scale: if p.has_flag("full") {
                    DatasetScale::Full
                } else {
                    DatasetScale::Small
                },
                smoke: p.has_flag("smoke"),
            };
            let quiet = p.has_flag("quiet");
            let mut artifact = run_matrix_with_progress(&spec, |cell| {
                if !quiet {
                    println!(
                        "ran {:32} auc={} delay={} bytes={} ({})",
                        cell.key(),
                        fmt_opt(cell.metrics.auc),
                        fmt_opt(cell.metrics.detection_delay),
                        cell.metrics.sketch_bytes,
                        sketchad_eval::fmt_secs(cell.cost.seconds),
                    );
                }
            });
            let out_path = Path::new(out);
            // schema_check requires the artifact id to match the file stem.
            if let Some(stem) = out_path.file_stem().and_then(|s| s.to_str()) {
                artifact.id = stem.to_string();
            }
            artifact.write_json(out_path).map_err(|e| e.to_string())?;
            println!(
                "wrote matrix artifact ({} cells, {} anchored, {:.2}s) to {out}",
                artifact.cells.len(),
                artifact.anchored().count(),
                artifact.total_seconds
            );
            Ok(())
        }
        "report" => {
            let input = p.get_or("input", MATRIX_ARTIFACT);
            let artifact =
                MatrixArtifact::read_json(Path::new(input)).map_err(|e| e.to_string())?;
            let mut cells = Table::new(
                format!("matrix cells ({input}, scale={})", artifact.scale),
                &[
                    "scenario", "sketch", "budget", "anchor", "auc", "ap", "delay", "bytes",
                    "pts/s",
                ],
            );
            for c in &artifact.cells {
                cells.add_row(vec![
                    c.scenario.clone(),
                    c.sketch.clone(),
                    c.budget.clone(),
                    if c.anchor { "*".into() } else { String::new() },
                    fmt_opt(c.metrics.auc),
                    fmt_opt(c.metrics.ap),
                    fmt_opt(c.metrics.detection_delay),
                    c.metrics.sketch_bytes.to_string(),
                    format!("{:.0}", c.cost.points_per_sec),
                ]);
            }
            print!("{}", cells.render());
            let mut pareto = Table::new(
                "Pareto frontier per scenario (maximize AUC, minimize bytes)",
                &["scenario", "sketch", "budget", "auc", "bytes"],
            );
            for front in &artifact.pareto {
                for point in &front.frontier {
                    pareto.add_row(vec![
                        front.scenario.clone(),
                        point.sketch.clone(),
                        point.budget.clone(),
                        fmt_f(point.auc),
                        point.sketch_bytes.to_string(),
                    ]);
                }
            }
            print!("{}", pareto.render());
            Ok(())
        }
        "select" => {
            let input = p.get_or("input", MATRIX_ARTIFACT);
            let artifact =
                MatrixArtifact::read_json(Path::new(input)).map_err(|e| e.to_string())?;
            let recs = recommend(&artifact);
            if recs.is_empty() {
                return Err(format!("{input}: no scenario in the matrix has an AUC"));
            }
            let mut table = Table::new(
                format!("recommended configuration per scenario family ({input})"),
                &["scenario", "sketch", "budget", "auc", "delay", "bytes"],
            );
            for r in &recs {
                table.add_row(vec![
                    r.scenario.clone(),
                    r.sketch.clone(),
                    r.budget.clone(),
                    fmt_f(r.auc),
                    fmt_opt(r.detection_delay),
                    r.sketch_bytes.to_string(),
                ]);
            }
            print!("{}", table.render());
            Ok(())
        }
        other => Err(format!("unknown matrix mode {other:?} (run|report|select)")),
    }
}

/// Inspects a durable state directory without opening it for writing:
/// per shard, the newest valid snapshot, the WAL tail that would be
/// replayed on warm restart (counted by a walk that holds none of it), and
/// any damage (corrupt snapshots, torn tails) recovery would route around.
fn cmd_recover(p: &ParsedArgs) -> Result<(), String> {
    use sketchad_durable as durable;

    let root = p.require("state-dir").map_err(|e| e.to_string())?;
    let root = Path::new(root);
    if !root.is_dir() {
        return Err(format!("{}: not a directory", root.display()));
    }
    // Shard directories are `shard-NNNN`; anything else is ignored.
    let mut shard_ids: Vec<u32> = std::fs::read_dir(root)
        .map_err(|e| e.to_string())?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name();
            name.to_str()?.strip_prefix("shard-")?.parse().ok()
        })
        .collect();
    shard_ids.sort_unstable();
    if shard_ids.is_empty() {
        return Err(format!(
            "{}: no shard-NNNN state directories found",
            root.display()
        ));
    }

    let mut damaged = false;
    for shard in &shard_ids {
        let dir = durable::shard_dir(root, *shard);
        let recovered = durable::inspect(&dir)
            .map_err(|e| format!("shard {shard} ({}): {e}", dir.display()))?;
        let stats = &recovered.stats;
        damaged |= stats.snapshots_corrupt > 0
            || stats.wal_segments_corrupt > 0
            || stats.torn_tail_bytes > 0;
        if p.has_flag("quiet") {
            continue;
        }
        match &recovered.snapshot {
            Some(snap) => println!(
                "shard {shard}: snapshot generation {} (through row {}), {} WAL row(s) to replay",
                snap.generation, snap.seq, stats.replay_rows
            ),
            None => println!(
                "shard {shard}: no snapshot, {} WAL row(s) to replay from scratch",
                stats.replay_rows
            ),
        }
        println!(
            "  scanned {} snapshot(s) ({} corrupt), {} WAL segment(s) ({} corrupt), \
             {} skipped as covered by the snapshot, {} record(s) seen, torn tail {} byte(s)",
            stats.snapshots_scanned,
            stats.snapshots_corrupt,
            stats.wal_segments,
            stats.wal_segments_corrupt,
            stats.wal_segments_skipped,
            stats.wal_records_seen,
            stats.torn_tail_bytes
        );
        println!("  warm restart resumes at row {}", recovered.last_seq());
    }
    if !p.has_flag("quiet") && damaged {
        println!("damage detected: recovery will fall back past it (see counts above)");
    }
    Ok(())
}

/// One line of live pipeline status from the sampled series, for `--watch`.
fn watch_status_line(store: &sketchad_obs::SeriesStore) -> Option<String> {
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

/// Offline/tailing viewer over a telemetry JSONL file (the pipeline's
/// `--telemetry-out` flight recording): replays the frames into a
/// [`sketchad_obs::SeriesStore`] and renders a summary table, refreshing
/// while `--follow`ing a live file.
fn cmd_watch(p: &ParsedArgs) -> Result<(), String> {
    use sketchad_obs::{SeriesStore, TelemetryRecord};

    let input = p.require("input").map_err(|e| e.to_string())?;
    let follow = p.has_flag("follow");
    let for_ms: u64 = p
        .get_parse_or("for-ms", 2_000, "integer milliseconds")
        .map_err(|e| e.to_string())?;
    let every_ms: u64 = p
        .get_parse_or("every-ms", 250, "positive integer milliseconds")
        .map_err(|e| e.to_string())?;
    let quiet = p.has_flag("quiet");
    let started = std::time::Instant::now();
    let store = SeriesStore::new(4096);
    let mut consumed = 0usize;
    let mut malformed = 0usize;
    loop {
        // Flight recordings are small (one line per sample period); re-read
        // in full and skip lines already ingested rather than tracking file
        // offsets across truncations.
        let raw = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
        for line in raw.lines().skip(consumed) {
            consumed += 1;
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<TelemetryRecord>(line) {
                Ok(record) => store.ingest(&record.into_frame()),
                Err(_) => malformed += 1,
            }
        }
        if !quiet {
            render_watch(&store, input, malformed);
        }
        if !follow || started.elapsed().as_millis() as u64 >= for_ms {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(every_ms.max(10)));
    }
    if store.frames() == 0 {
        return Err(format!(
            "{input}: no telemetry frames (malformed lines: {malformed})"
        ));
    }
    Ok(())
}

/// Renders the watch table for the current store state. On a terminal the
/// screen is cleared between refreshes; otherwise each refresh appends.
fn render_watch(store: &sketchad_obs::SeriesStore, source: &str, malformed: usize) {
    use std::io::IsTerminal;
    let Some(frame) = store.latest() else {
        println!("{source}: no frames yet");
        return;
    };
    let mut out = String::new();
    if std::io::stdout().is_terminal() {
        out.push_str("\x1b[2J\x1b[H");
    }
    out.push_str(&format!(
        "watching {source} — step {} at {:.1}s ({} frames{})\n",
        frame.step,
        frame.elapsed_ms as f64 / 1e3,
        store.frames(),
        if malformed > 0 {
            format!(", {malformed} malformed lines")
        } else {
            String::new()
        }
    ));
    let rate = store
        .rate_per_sec("processed")
        .map(|r| format!("{r:.0}/s"))
        .unwrap_or_else(|| "-".into());
    out.push_str(&format!(
        "  submitted {:>10}  processed {:>10} ({rate})\n",
        frame.counter("submitted"),
        frame.counter("processed"),
    ));
    out.push_str(&format!(
        "  queue depth {:>7}  high water {:>9}  degraded shards {}\n",
        frame.gauge("queue_depth").unwrap_or(0.0) as u64,
        frame.gauge("queue_high_water").unwrap_or(0.0) as u64,
        frame.gauge("degraded_shards").unwrap_or(0.0) as u64,
    ));
    if let Some(p99) = frame.gauge("submit_latency_p99_us") {
        out.push_str(&format!(
            "  submit latency p50 {:.1} us  p99 {:.1} us  p999 {:.1} us\n",
            frame.gauge("submit_latency_p50_us").unwrap_or(0.0),
            p99,
            frame.gauge("submit_latency_p999_us").unwrap_or(0.0),
        ));
    }
    out.push_str(&format!(
        "  dropped {}  rejected {}  shed {}  crash_lost {}  restarts {}  events_dropped {}\n",
        frame.counter("dropped"),
        frame.counter("rejected"),
        frame.counter("shed"),
        frame.counter("crash_lost"),
        frame.counter("restarts"),
        frame.counter("events_dropped"),
    ));
    let lag = frame.gauge("conservation_lag").unwrap_or(0.0);
    let ok = frame.gauge("conservation_ok") == Some(1.0);
    out.push_str(&format!(
        "  conservation lag {lag:+.0} ({})\n",
        if ok { "within slack" } else { "VIOLATED" }
    ));
    print!("{out}");
}

/// Threshold wrapper over a boxed detector (ThresholdedDetector is generic
/// over a concrete detector type; this adapts it to `Box<dyn …>`).
struct BoxedThreshold {
    inner: ThresholdedDetector<BoxedDetector>,
}

struct BoxedDetector(Box<dyn StreamingDetector>);

impl StreamingDetector for BoxedDetector {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn process(&mut self, y: &[f64]) -> f64 {
        self.0.process(y)
    }
    fn processed(&self) -> u64 {
        self.0.processed()
    }
    fn is_warmed_up(&self) -> bool {
        self.0.is_warmed_up()
    }
    fn name(&self) -> String {
        self.0.name()
    }
    fn current_model(&self) -> Option<&sketchad_core::SubspaceModel> {
        self.0.current_model()
    }
    fn score_only(&self, y: &[f64]) -> Option<f64> {
        self.0.score_only(y)
    }
    // Forward through the box so the concrete detector's batched kernel is
    // reached (the trait default would loop per point at this layer).
    fn process_batch(&mut self, rows: &[f64], out: &mut Vec<f64>) {
        self.0.process_batch(rows, out)
    }
}

impl BoxedThreshold {
    fn new(det: Box<dyn StreamingDetector>, fp_rate: f64, calibration: usize) -> Self {
        Self {
            inner: ThresholdedDetector::new(BoxedDetector(det), fp_rate, calibration),
        }
    }

    fn process_batch(&mut self, rows: &[f64], out: &mut Vec<Alert>) {
        self.inner.process_batch(rows, out)
    }

    fn name(&self) -> String {
        self.inner.inner().name()
    }

    fn current_model(&self) -> Option<&sketchad_core::SubspaceModel> {
        self.inner.inner().0.current_model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_kind_parsing() {
        assert_eq!(
            parse_score_kind("rel-proj").unwrap(),
            ScoreKind::RelativeProjection
        );
        assert_eq!(
            parse_score_kind("proj").unwrap(),
            ScoreKind::ProjectionDistance
        );
        assert_eq!(parse_score_kind("leverage").unwrap(), ScoreKind::Leverage);
        assert!(matches!(
            parse_score_kind("blended").unwrap(),
            ScoreKind::Blended { .. }
        ));
        assert!(parse_score_kind("nope").is_err());
    }

    #[test]
    fn decay_parsing() {
        assert_eq!(parse_decay("0.9:100").unwrap(), (0.9, 100));
        assert!(parse_decay("0.9").is_err());
        assert!(parse_decay("1.5:10").is_err());
        assert!(parse_decay("0.9:0").is_err());
        assert!(parse_decay("x:10").is_err());
    }

    #[test]
    fn dataset_registry_is_complete() {
        for name in dataset_names() {
            assert!(
                dataset_by_name(name, DatasetScale::Small).is_some(),
                "{name} missing from registry"
            );
        }
        assert!(dataset_by_name("nope", DatasetScale::Small).is_none());
    }

    #[test]
    fn end_to_end_generate_and_score() {
        let dir = std::env::temp_dir();
        let csv = dir.join(format!("sketchad-cli-test-{}.csv", std::process::id()));
        let out = dir.join(format!("sketchad-cli-scores-{}.csv", std::process::id()));
        let gen_args: Vec<String> = [
            "generate",
            "--dataset",
            "synth-lowrank",
            "--output",
            csv.to_str().unwrap(),
            "--small",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&gen_args).unwrap();

        let score_args: Vec<String> = [
            "score",
            "--input",
            csv.to_str().unwrap(),
            "--k",
            "10",
            "--ell",
            "32",
            "--warmup",
            "100",
            "--output",
            out.to_str().unwrap(),
            "--quiet",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&score_args).unwrap();

        let dumped = std::fs::read_to_string(&out).unwrap();
        assert!(dumped.starts_with("index,score,alert"));
        assert!(dumped.lines().count() > 100);
        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn save_and_apply_roundtrip() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let csv = dir.join(format!("sketchad-apply-{pid}.csv"));
        let model = dir.join(format!("sketchad-model-{pid}.json"));
        let out = dir.join(format!("sketchad-apply-out-{pid}.csv"));
        run(&[
            "generate".into(),
            "--dataset".into(),
            "synth-lowrank".into(),
            "--output".into(),
            csv.to_str().unwrap().into(),
            "--small".into(),
        ])
        .unwrap();
        run(&[
            "score".into(),
            "--input".into(),
            csv.to_str().unwrap().into(),
            "--k".into(),
            "10".into(),
            "--warmup".into(),
            "100".into(),
            "--save-model".into(),
            model.to_str().unwrap().into(),
            "--quiet".into(),
        ])
        .unwrap();
        run(&[
            "apply".into(),
            "--model".into(),
            model.to_str().unwrap().into(),
            "--input".into(),
            csv.to_str().unwrap().into(),
            "--output".into(),
            out.to_str().unwrap().into(),
            "--quiet".into(),
        ])
        .unwrap();
        let dumped = std::fs::read_to_string(&out).unwrap();
        assert!(dumped.starts_with("index,score"));
        for p in [&csv, &model, &out] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn apply_rejects_dimension_mismatch() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let csv_a = dir.join(format!("sketchad-dimcheck-a-{pid}.csv"));
        let csv_b = dir.join(format!("sketchad-dimcheck-b-{pid}.csv"));
        let model = dir.join(format!("sketchad-dimcheck-m-{pid}.json"));
        run(&[
            "generate".into(),
            "--dataset".into(),
            "synth-lowrank".into(),
            "--output".into(),
            csv_a.to_str().unwrap().into(),
            "--small".into(),
        ])
        .unwrap();
        run(&[
            "generate".into(),
            "--dataset".into(),
            "synth-drift".into(),
            "--output".into(),
            csv_b.to_str().unwrap().into(),
            "--small".into(),
        ])
        .unwrap();
        run(&[
            "score".into(),
            "--input".into(),
            csv_a.to_str().unwrap().into(),
            "--warmup".into(),
            "100".into(),
            "--save-model".into(),
            model.to_str().unwrap().into(),
            "--quiet".into(),
        ])
        .unwrap();
        let err = run(&[
            "apply".into(),
            "--model".into(),
            model.to_str().unwrap().into(),
            "--input".into(),
            csv_b.to_str().unwrap().into(),
            "--quiet".into(),
        ])
        .unwrap_err();
        for p in [&csv_a, &csv_b, &model] {
            std::fs::remove_file(p).ok();
        }
        assert!(err.contains("dimension"), "{err}");
    }

    #[test]
    fn rows_and_csv_inputs_score_identically() {
        // generate the same dataset in both formats, replay each through
        // `score`, and require bitwise-identical score dumps: the binary
        // format must be invisible to everything downstream of the reader.
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let csv = dir.join(format!("sketchad-cli-fmt-{pid}.csv"));
        let rows = dir.join(format!("sketchad-cli-fmt-{pid}.rows"));
        let out_csv = dir.join(format!("sketchad-cli-fmt-out-csv-{pid}.csv"));
        let out_rows = dir.join(format!("sketchad-cli-fmt-out-rows-{pid}.csv"));
        for output in [&csv, &rows] {
            run(&[
                "generate".into(),
                "--dataset".into(),
                "synth-lowrank".into(),
                "--output".into(),
                output.to_str().unwrap().into(),
                "--small".into(),
            ])
            .unwrap();
        }
        // Binary file is the fixed-width layout: 20-byte header + n rows.
        let raw = std::fs::read(&rows).unwrap();
        assert_eq!(&raw[0..4], b"SKRW");
        for (input, output) in [(&csv, &out_csv), (&rows, &out_rows)] {
            run(&[
                "score".into(),
                "--input".into(),
                input.to_str().unwrap().into(),
                "--k".into(),
                "10".into(),
                "--ell".into(),
                "32".into(),
                "--warmup".into(),
                "100".into(),
                "--output".into(),
                output.to_str().unwrap().into(),
                "--quiet".into(),
            ])
            .unwrap();
        }
        let a = std::fs::read_to_string(&out_csv).unwrap();
        let b = std::fs::read_to_string(&out_rows).unwrap();
        for p in [&csv, &rows, &out_csv, &out_rows] {
            std::fs::remove_file(p).ok();
        }
        assert_eq!(a, b, "scores differ between CSV and .rows replay");
    }

    #[test]
    fn unknown_subcommand_is_error() {
        let err = run(&["frobnicate".to_string()]).unwrap_err();
        assert!(err.contains("unknown subcommand"));
    }

    #[test]
    fn end_to_end_pipeline_on_builtin_dataset() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let out = dir.join(format!("sketchad-pipeline-scores-{pid}.csv"));
        let stats = dir.join(format!("sketchad-pipeline-stats-{pid}.json"));
        run(&[
            "pipeline".into(),
            "--dataset".into(),
            "synth-lowrank".into(),
            "--small".into(),
            "--shards".into(),
            "2".into(),
            "--warmup".into(),
            "100".into(),
            "--output".into(),
            out.to_str().unwrap().into(),
            "--stats-json".into(),
            stats.to_str().unwrap().into(),
            "--quiet".into(),
        ])
        .unwrap();
        let dumped = std::fs::read_to_string(&out).unwrap();
        assert!(dumped.starts_with("index,score"));
        // One line per point plus header.
        let expected = dataset_by_name("synth-lowrank", DatasetScale::Small)
            .unwrap()
            .len();
        assert_eq!(dumped.lines().count(), expected + 1);
        let stats_raw = std::fs::read_to_string(&stats).unwrap();
        let parsed: sketchad_serve::PipelineStats = serde_json::from_str(&stats_raw).unwrap();
        assert_eq!(parsed.total_processed as usize, expected);
        assert_eq!(parsed.shards.len(), 2);
        for p in [&out, &stats] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn pipeline_metrics_out_emits_obs_artifact() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let metrics = dir.join(format!("sketchad-pipeline-obs-{pid}.json"));
        run(&[
            "pipeline".into(),
            "--dataset".into(),
            "synth-lowrank".into(),
            "--small".into(),
            "--shards".into(),
            "2".into(),
            "--warmup".into(),
            "100".into(),
            "--snapshot-every".into(),
            "64".into(),
            "--metrics-out".into(),
            metrics.to_str().unwrap().into(),
            "--quiet".into(),
        ])
        .unwrap();
        let raw = std::fs::read_to_string(&metrics).unwrap();
        std::fs::remove_file(&metrics).ok();
        let artifact: ObsArtifact = serde_json::from_str(&raw).unwrap();
        assert_eq!(artifact.schema, sketchad_obs::OBS_SCHEMA);
        assert_eq!(artifact.command, "pipeline");
        assert_eq!(
            artifact.context.get("shards").map(String::as_str),
            Some("2")
        );
        let expected = dataset_by_name("synth-lowrank", DatasetScale::Small)
            .unwrap()
            .len() as u64;
        let report = &artifact.report;
        // Every point is folded into a sketch; scores and refreshes happen
        // once models exist.
        assert_eq!(report.span("sketch_update").unwrap().count, expected);
        assert!(report.span("score").unwrap().count > 0);
        assert!(report.span("model_refresh").unwrap().count > 0);
        assert!(report.event_count("refresh_fired") > 0);
        assert!(report.event_count("snapshot_published") > 0);
        assert_eq!(
            report.counter("snapshots_published"),
            report.event_count("snapshot_published") as u64
        );
        // Depth is sampled per micro-batch, queue wait per point.
        let depth_samples = report.gauge("queue_depth").unwrap().samples;
        assert!((1..=expected).contains(&depth_samples), "{depth_samples}");
        assert_eq!(report.hist("submit_latency").unwrap().count(), expected);
    }

    #[test]
    fn score_metrics_out_emits_obs_artifact() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let csv = dir.join(format!("sketchad-score-obs-{pid}.csv"));
        let metrics = dir.join(format!("sketchad-score-obs-{pid}.json"));
        run(&[
            "generate".into(),
            "--dataset".into(),
            "synth-lowrank".into(),
            "--output".into(),
            csv.to_str().unwrap().into(),
            "--small".into(),
        ])
        .unwrap();
        run(&[
            "score".into(),
            "--input".into(),
            csv.to_str().unwrap().into(),
            "--warmup".into(),
            "100".into(),
            "--metrics-out".into(),
            metrics.to_str().unwrap().into(),
            "--quiet".into(),
        ])
        .unwrap();
        let raw = std::fs::read_to_string(&metrics).unwrap();
        for p in [&csv, &metrics] {
            std::fs::remove_file(p).ok();
        }
        let artifact: ObsArtifact = serde_json::from_str(&raw).unwrap();
        assert_eq!(artifact.schema, sketchad_obs::OBS_SCHEMA);
        assert_eq!(artifact.command, "score");
        assert!(artifact.report.span("sketch_update").unwrap().count > 0);
        assert!(artifact.report.span("model_refresh").unwrap().count > 0);
        assert!(artifact.report.event_count("refresh_fired") > 0);
    }

    #[test]
    fn pipeline_telemetry_out_produces_valid_jsonl_and_watch_reads_it() {
        use sketchad_obs::{TelemetryRecord, TELEMETRY_SCHEMA};
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let telemetry = dir.join(format!("sketchad-pipeline-telemetry-{pid}.jsonl"));
        run(&[
            "pipeline".into(),
            "--dataset".into(),
            "synth-lowrank".into(),
            "--small".into(),
            "--shards".into(),
            "2".into(),
            "--warmup".into(),
            "100".into(),
            "--telemetry-out".into(),
            telemetry.to_str().unwrap().into(),
            "--telemetry-every-ms".into(),
            "5".into(),
            "--quiet".into(),
        ])
        .unwrap();
        let raw = std::fs::read_to_string(&telemetry).unwrap();
        let frames: Vec<_> = raw
            .lines()
            .map(|line| {
                let record: TelemetryRecord = serde_json::from_str(line).unwrap();
                assert_eq!(record.schema, TELEMETRY_SCHEMA);
                record.into_frame()
            })
            .collect();
        assert!(!frames.is_empty(), "flight recorder wrote no frames");
        for pair in frames.windows(2) {
            assert!(pair[0].step < pair[1].step, "steps must increase");
        }
        // The final frame is taken after the workers quiesce: the
        // conservation identity holds exactly there.
        let last = frames.last().unwrap();
        assert_eq!(last.gauge("conservation_lag"), Some(0.0));
        assert_eq!(last.gauge("conservation_ok"), Some(1.0));
        let expected = dataset_by_name("synth-lowrank", DatasetScale::Small)
            .unwrap()
            .len() as u64;
        assert_eq!(last.counter("processed"), expected);
        assert_eq!(last.counter("submitted"), expected);

        // The watch subcommand replays the same file without error …
        run(&[
            "watch".into(),
            "--input".into(),
            telemetry.to_str().unwrap().into(),
            "--quiet".into(),
        ])
        .unwrap();
        // … and a missing file is a clean error.
        assert!(run(&[
            "watch".into(),
            "--input".into(),
            "/nonexistent/telemetry.jsonl".into(),
            "--quiet".into(),
        ])
        .is_err());
        std::fs::remove_file(&telemetry).ok();
    }

    #[test]
    fn pipeline_metrics_addr_serves_prometheus_endpoint() {
        // End-to-end: run a pipeline with the exporter bound to an
        // ephemeral port and scrape it while the endpoint is held open.
        // Library-level (not subprocess) so we reach the handle directly.
        use sketchad_serve::{ServeConfig, ServeEngine, TelemetryConfig};
        let mut engine = ServeEngine::start_instrumented(
            ServeConfig::new(2).with_snapshot_every(64),
            |_shard, recorder| {
                Box::new(
                    DetectorConfig::new(5, 32)
                        .with_warmup(100)
                        .with_seed(1234)
                        .build_fd(16)
                        .with_recorder(recorder),
                )
            },
        )
        .unwrap();
        let handle = engine
            .start_telemetry(
                &TelemetryConfig::new()
                    .with_sample_every(std::time::Duration::from_millis(5))
                    .with_metrics_addr("127.0.0.1:0"),
            )
            .unwrap();
        let addr = handle.metrics_addr().expect("endpoint bound");
        for i in 0..500u64 {
            let t = i as f64 * 0.05;
            engine
                .submit((0..16).map(|j| (t + j as f64).sin()).collect())
                .unwrap();
        }
        engine.finish().unwrap();
        // Scrape after quiesce: the final frame is still served.
        use std::io::{Read as _, Write as _};
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut body = String::new();
        conn.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
        assert!(body.contains("sketchad_processed_total 500"), "{body}");
        assert!(body.contains("sketchad_conservation_ok 1"), "{body}");
    }

    #[test]
    fn pipeline_state_dir_persists_and_recover_inspects() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let state = dir.join(format!("sketchad-pipeline-state-{pid}"));
        let stats = dir.join(format!("sketchad-pipeline-state-stats-{pid}.json"));
        let _ = std::fs::remove_dir_all(&state);
        let run_pipeline = || {
            run(&[
                "pipeline".into(),
                "--dataset".into(),
                "synth-lowrank".into(),
                "--small".into(),
                "--shards".into(),
                "2".into(),
                "--warmup".into(),
                "100".into(),
                "--state-dir".into(),
                state.to_str().unwrap().into(),
                "--checkpoint-every".into(),
                "200".into(),
                "--fsync".into(),
                "every:32".into(),
                "--stats-json".into(),
                stats.to_str().unwrap().into(),
                "--quiet".into(),
            ])
        };
        // First run: cold start, leaves snapshots + WAL segments behind.
        run_pipeline().unwrap();
        for shard in 0..2u32 {
            let shard_dir = sketchad_durable::shard_dir(&state, shard);
            assert!(shard_dir.is_dir(), "missing {}", shard_dir.display());
        }
        let first: sketchad_serve::PipelineStats =
            serde_json::from_str(&std::fs::read_to_string(&stats).unwrap()).unwrap();
        assert!(first.recovered_shards.is_empty(), "cold start recovered");

        // Second run over the same directory: a warm restart.
        run_pipeline().unwrap();
        let second: sketchad_serve::PipelineStats =
            serde_json::from_str(&std::fs::read_to_string(&stats).unwrap()).unwrap();
        let mut recovered = second.recovered_shards.clone();
        recovered.sort_unstable();
        assert_eq!(recovered, vec![0, 1], "warm restart must recover");

        // The inspection subcommand reads the same state without writing.
        run(&[
            "recover".into(),
            "--state-dir".into(),
            state.to_str().unwrap().into(),
            "--quiet".into(),
        ])
        .unwrap();
        assert!(run(&[
            "recover".into(),
            "--state-dir".into(),
            "/nonexistent/state".into(),
        ])
        .is_err());
        let _ = std::fs::remove_dir_all(&state);
        std::fs::remove_file(&stats).ok();
    }

    #[test]
    fn fsync_policy_parsing() {
        use sketchad_serve::FsyncPolicy;
        assert_eq!(parse_fsync("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(parse_fsync("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(parse_fsync("every:8").unwrap(), FsyncPolicy::EveryN(8));
        assert!(parse_fsync("every:0").is_err());
        assert!(parse_fsync("sometimes").is_err());
    }

    #[test]
    fn pipeline_rejects_ambiguous_input() {
        let err = run(&["pipeline".to_string()]).unwrap_err();
        assert!(err.contains("exactly one of"), "{err}");
    }

    #[test]
    fn unknown_sketch_is_error() {
        let dir = std::env::temp_dir();
        let csv = dir.join(format!("sketchad-cli-badsketch-{}.csv", std::process::id()));
        run(&[
            "generate".into(),
            "--dataset".into(),
            "synth-lowrank".into(),
            "--output".into(),
            csv.to_str().unwrap().into(),
            "--small".into(),
        ])
        .unwrap();
        let err = run(&[
            "score".into(),
            "--input".into(),
            csv.to_str().unwrap().into(),
            "--sketch".into(),
            "bogus".into(),
        ])
        .unwrap_err();
        std::fs::remove_file(&csv).ok();
        assert!(err.contains("unknown sketch"));
    }
}

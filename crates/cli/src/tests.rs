//! Unit tests of the subcommands, driven through [`crate::run`].

use super::*;
use crate::args::{dataset_by_name, dataset_names, parse_score_kind};
use crate::pipeline::parse_fsync;
use crate::score::parse_decay;
use sketchad_core::{DetectorConfig, ScoreKind};
use sketchad_obs::ObsArtifact;
use sketchad_streams::DatasetScale;

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

#[test]
fn readme_command_lines_parse_against_declared_options() {
    // Every `cargo run … -p sketchad-cli -- <subcommand> …` line in the
    // README (with `\` continuations joined) must use only options its
    // subcommand declares.
    let readme = include_str!("../../../README.md");
    let mut lines = readme.lines();
    let mut checked = 0;
    while let Some(line) = lines.next() {
        let mut command = line.trim().to_string();
        while command.ends_with('\\') {
            command.pop();
            command.push_str(lines.next().unwrap_or_default());
        }
        let Some((_, cli)) = command
            .split_once("-p sketchad-cli")
            .and_then(|(_, rest)| rest.split_once(" -- "))
        else {
            continue;
        };
        let argv: Vec<String> = cli.split_whitespace().map(String::from).collect();
        if let Err(err) = crate::args::parse(COMMANDS, &argv) {
            panic!("README: `{cli}`: {err}");
        }
        checked += 1;
    }
    assert!(checked >= 10, "found only {checked} README command lines");
}

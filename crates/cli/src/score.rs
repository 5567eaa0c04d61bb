//! `score`: learn the subspace from the stream while scoring it, alerting
//! at a target false-positive rate.

use std::sync::Arc;

use sketchad_core::obs::RecorderHandle;
use sketchad_core::{
    Alert, NormalizedDetector, ScoreKind, StreamingDetector, SubspaceModel, ThresholdedDetector,
};
use sketchad_eval::{fmt_opt, roc_auc};
use sketchad_obs::{MetricsRecorder, ObsArtifact, Recorder};
use sketchad_streams::LabeledStream;

use crate::args::{
    for_each_block, read_stream, write_artifact, write_scores, Args, Command, DetectorArgs,
    UseDetector,
};

pub const COMMAND: Command = Command {
    name: "score",
    options: &[
        &["--input FILE"],
        DetectorArgs::OPTIONS,
        &[
            "[--decay ALPHA:EVERY] [--fp-rate F] [--output FILE] [--save-model FILE]",
            "[--metrics-out FILE] [--normalize] [--quiet]",
        ],
    ],
    run,
};

/// Persisted artifact of a trained detector: the subspace model plus the
/// score family it was trained to emit.
#[derive(serde::Serialize, serde::Deserialize)]
pub struct SavedModel {
    pub score: ScoreKind,
    pub model: SubspaceModel,
}

pub fn parse_decay(raw: &str) -> Result<(f64, usize), String> {
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

fn run(p: &Args) -> Result<(), String> {
    let input = p.required("input")?;
    let stream = read_stream(input)?;
    let mut det = DetectorArgs::parse(p)?;
    let fp_rate: f64 = p.parse_or("fp-rate", 0.01, "fraction in (0,1)")?;
    if !(0.0 < fp_rate && fp_rate < 1.0) {
        return Err("--fp-rate must be in (0, 1)".into());
    }
    det.decay = p.get("decay").map(parse_decay).transpose()?;

    // With --metrics-out, hand the detector a live recorder so per-stage
    // spans and refresh events land in an exported artifact.
    let metrics = p
        .get("metrics-out")
        .map(|_| Arc::new(MetricsRecorder::new()));
    let recorder = metrics.as_ref().map_or_else(RecorderHandle::default, |r| {
        RecorderHandle::from(Arc::clone(r) as Arc<dyn Recorder>)
    });
    let scoring = Scoring {
        p,
        stream: &stream,
        det,
        fp_rate,
        metrics,
    };
    det.build(stream.dim, recorder, scoring)
}

/// The rest of a `score` run, generic over the concrete detector so the
/// alerting (and `--normalize`) wrappers call it without dynamic dispatch.
struct Scoring<'a> {
    p: &'a Args,
    stream: &'a LabeledStream,
    det: DetectorArgs,
    fp_rate: f64,
    metrics: Option<Arc<MetricsRecorder>>,
}

impl UseDetector for Scoring<'_> {
    type Output = Result<(), String>;
    fn with<D: StreamingDetector + Send + 'static>(self, detector: D) -> Self::Output {
        if self.p.flag("normalize") {
            self.score(NormalizedDetector::new(detector))
        } else {
            self.score(detector)
        }
    }
}

impl Scoring<'_> {
    fn score<D: StreamingDetector>(self, detector: D) -> Result<(), String> {
        let (p, stream, det, fp_rate) = (self.p, self.stream, self.det, self.fp_rate);
        let (warmup, quiet) = (det.warmup, p.flag("quiet"));
        let mut alerting = ThresholdedDetector::new(detector, fp_rate, warmup.max(64));
        let mut scores = Vec::with_capacity(stream.len());
        let mut alerts = Vec::with_capacity(stream.len());
        // Batched scoring path: bitwise identical to per-point processing.
        let mut block_alerts: Vec<Alert> = Vec::new();
        for_each_block(stream, |block| {
            alerting.process_batch(block, &mut block_alerts);
            scores.extend(block_alerts.iter().map(|a| a.score));
            alerts.extend(block_alerts.iter().map(|a| a.is_anomaly));
        });

        // Summary.
        let labels = stream.labels();
        let has_both_classes = labels[warmup.min(labels.len())..].iter().any(|&l| l)
            && labels[warmup.min(labels.len())..].iter().any(|&l| !l);
        if !quiet {
            println!(
                "scored {} points (d={}) with {}",
                stream.len(),
                stream.dim,
                alerting.inner().name()
            );
            if has_both_classes {
                let auc = roc_auc(&scores[warmup..], &labels[warmup..]);
                println!("ROC-AUC (post-warmup): {}", fmt_opt(auc));
            }
            println!("alerts at fp-rate {fp_rate}: {}", alerting.flagged());
            let mut top: Vec<(usize, f64)> =
                scores.iter().copied().enumerate().skip(warmup).collect();
            top.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
            println!("top anomalies (index: score):");
            for (i, s) in top.iter().take(5) {
                println!("  {i}: {s:.4}");
            }
        }

        if let Some(output) = p.get("output") {
            write_scores(output, (0..).zip(scores), Some(&alerts), quiet)?;
        }

        if let Some(model_path) = p.get("save-model") {
            let model = alerting
                .inner()
                .current_model()
                .ok_or("no model was trained (stream shorter than warmup?)")?;
            let saved = SavedModel {
                score: det.score,
                model: model.clone(),
            };
            let json = serde_json::to_string_pretty(&saved).map_err(|e| e.to_string())?;
            std::fs::write(model_path, json).map_err(|e| e.to_string())?;
            if !quiet {
                println!(
                    "saved trained model (k={}, d={}) to {model_path}",
                    model.k(),
                    model.dim()
                );
            }
        }

        if let (Some(path), Some(rec)) = (p.get("metrics-out"), self.metrics) {
            let artifact = ObsArtifact::new("score", rec.snapshot())
                .with_context("input", p.required("input")?)
                .with_context("score", format!("{:?}", det.score));
            write_artifact(path, &det.context(artifact), quiet)?;
        }
        Ok(())
    }
}

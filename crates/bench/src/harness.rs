//! Shared experiment machinery.

use sketchad_core::{
    DetectorConfig, ExactSvdDetector, MeanDistanceDetector, OjaDetector, RandomScoreDetector,
    StreamingDetector,
};
use sketchad_eval::timing::{LatencyStats, Stopwatch};
use sketchad_eval::{average_precision, roc_auc};
use sketchad_streams::LabeledStream;

/// Result of running one detector over one stream.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Per-point anomaly scores.
    pub scores: Vec<f64>,
    /// Total wall-clock seconds (scoring + updates, excluding generation).
    pub seconds: f64,
}

/// Evaluation of scores against ground truth.
#[derive(Debug, Clone, Copy)]
pub struct EvalOutcome {
    /// ROC-AUC over the post-warmup region (None when a class is missing).
    pub auc: Option<f64>,
    /// Average precision over the post-warmup region.
    pub ap: Option<f64>,
}

/// Runs a boxed detector (for heterogeneous rosters).
pub fn run_boxed(det: &mut Box<dyn StreamingDetector>, stream: &LabeledStream) -> RunOutcome {
    let sw = Stopwatch::start();
    let mut scores = Vec::with_capacity(stream.len());
    for (values, _) in stream.iter() {
        scores.push(det.process(values));
    }
    let seconds = sw.seconds();
    RunOutcome { scores, seconds }
}

/// Runs `det` collecting per-point latency samples (figure F7).
pub fn run_with_latency<D: StreamingDetector>(
    det: &mut D,
    stream: &LabeledStream,
) -> (RunOutcome, LatencyStats) {
    let mut stats = LatencyStats::new();
    let sw = Stopwatch::start();
    let mut scores = Vec::with_capacity(stream.len());
    for (values, _) in stream.iter() {
        let s = stats.time(|| det.process(values));
        scores.push(s);
    }
    let seconds = sw.seconds();
    (RunOutcome { scores, seconds }, stats)
}

/// Standard evaluation protocol: AUC/AP computed over points at index ≥
/// `skip` (warmup scores are a conventional 0.0 and must not count).
pub fn evaluate_scores(stream: &LabeledStream, scores: &[f64], skip: usize) -> EvalOutcome {
    let labels = stream.labels();
    let s = &scores[skip.min(scores.len())..];
    let l = &labels[skip.min(labels.len())..];
    EvalOutcome {
        auc: roc_auc(s, l),
        ap: average_precision(s, l),
    }
}

/// The method roster of the accuracy/runtime tables (T2/T3): the exact
/// baseline, the four sketch arms, and the non-subspace baselines.
///
/// `exact_refresh` is the exact detector's rebuild period (larger on high-d
/// datasets to keep the baseline tractable; its cost is reported as-is).
pub fn standard_roster(
    dim: usize,
    cfg: &DetectorConfig,
    exact_refresh: usize,
) -> Vec<(&'static str, Box<dyn StreamingDetector>)> {
    vec![
        (
            "Exact-SVD",
            Box::new(ExactSvdDetector::new(
                dim,
                cfg.k.min(dim),
                cfg.score,
                exact_refresh,
                cfg.warmup,
            )),
        ),
        ("FD", Box::new(cfg.build_fd(dim))),
        ("RP-Gauss", Box::new(cfg.build_rp(dim))),
        ("CountSketch", Box::new(cfg.build_cs(dim))),
        ("RowSample", Box::new(cfg.build_rs(dim))),
        (
            "Oja",
            Box::new(OjaDetector::new(dim, cfg.k.min(dim), cfg.warmup, cfg.seed)),
        ),
        (
            "MeanDist",
            Box::new(MeanDistanceDetector::new(dim, cfg.warmup)),
        ),
        ("Random", Box::new(RandomScoreDetector::new(dim, cfg.seed))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchad_streams::{synth_lowrank, DatasetScale};

    #[test]
    fn roster_runs_and_ranks_methods_sanely() {
        let stream = synth_lowrank(DatasetScale::Small);
        // Model rank matches the generator's true rank (10 at small scale).
        let cfg = DetectorConfig::new(10, 32).with_warmup(100);
        let roster = standard_roster(stream.dim, &cfg, 64);
        assert_eq!(roster.len(), 8);
        let mut aucs = Vec::new();
        for (label, mut det) in roster {
            let out = run_boxed(&mut det, &stream);
            assert_eq!(out.scores.len(), stream.len());
            let eval = evaluate_scores(&stream, &out.scores, cfg.warmup);
            aucs.push((label, eval.auc.expect("both classes present")));
        }
        let get = |name: &str| aucs.iter().find(|(l, _)| *l == name).unwrap().1;
        // Subspace methods should beat the random control decisively…
        assert!(get("FD") > 0.9, "FD AUC {}", get("FD"));
        assert!(get("Exact-SVD") > 0.9, "Exact AUC {}", get("Exact-SVD"));
        // …and random should hover near 0.5.
        let r = get("Random");
        assert!(r > 0.35 && r < 0.65, "Random AUC {r}");
    }

    #[test]
    fn latency_collection_matches_score_count() {
        let stream = synth_lowrank(DatasetScale::Small).truncated(300);
        let cfg = DetectorConfig::new(4, 16).with_warmup(64);
        let mut det = cfg.build_fd(stream.dim);
        let (out, stats) = run_with_latency(&mut det, &stream);
        assert_eq!(out.scores.len(), 300);
        assert_eq!(stats.len(), 300);
        assert!(stats.mean_ns() > 0.0);
    }

    #[test]
    fn evaluate_skips_warmup_region() {
        let stream = synth_lowrank(DatasetScale::Small);
        let n = stream.len();
        // Perfect oracle scores after warmup, garbage before.
        let labels = stream.labels();
        let scores: Vec<f64> = labels
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                if i < 50 {
                    1000.0
                } else if l {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let eval = evaluate_scores(&stream, &scores, 50);
        assert_eq!(eval.auc, Some(1.0));
        let _ = n;
    }
}

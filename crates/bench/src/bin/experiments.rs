//! Experiment harness regenerating every table and figure of the evaluation.
//!
//! ```text
//! cargo run -p sketchad-bench --release --bin experiments -- <id> [--small] [--out DIR]
//! ```
//!
//! `<id>` ∈ {t1, t2, t3, t4, t5, t6, f1, f2, f3, f4, f5, f6, f7, f8, all}.
//! `--small` runs test-scale streams (seconds instead of minutes).
//! Each experiment prints its table/series and writes `DIR/<id>.json`
//! (default `results/`).

use std::path::PathBuf;

use sketchad_core::{
    DetectorConfig, ExactSvdDetector, ExactWindowedDetector, RefreshPolicy, ScoreKind,
    StreamingDetector,
};
use sketchad_eval::{
    fmt_f, fmt_opt, fmt_secs, mean_relative_error, roc_auc, spearman, ExperimentReport,
    MethodResult, Series, Stopwatch, Table,
};
use sketchad_linalg::Matrix;
use sketchad_sketch::bounds::{covariance_error, fd_spectral_error_bound};
use sketchad_sketch::{
    CountSketch, FrequentDirections, IsvdTruncation, MatrixSketch, RandomProjection, RowSampling,
};
use sketchad_streams::{
    drift_datasets, standard_datasets, synth_lowrank, DatasetScale, LowRankStreamConfig,
};

use sketchad_bench::harness::{evaluate_scores, run_boxed, run_with_latency, standard_roster};

struct Opts {
    scale: DatasetScale,
    out_dir: PathBuf,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut scale = DatasetScale::Full;
    let mut out_dir = PathBuf::from("results");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--small" => scale = DatasetScale::Small,
            "--out" => {
                i += 1;
                out_dir = PathBuf::from(args.get(i).map(String::as_str).unwrap_or("results"));
            }
            id => ids.push(id.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        eprintln!(
            "usage: experiments <t1|t2|t3|t4|t5|t6|f1|f2|f3|f4|f5|f6|f7|f8|a1|a2|all> [--small] [--out DIR]"
        );
        std::process::exit(2);
    }
    let opts = Opts { scale, out_dir };
    for id in &ids {
        match id.as_str() {
            "t1" => t1_dataset_stats(&opts),
            "t2" | "t3" => t2_t3_accuracy_runtime(&opts),
            "t4" => t4_auc_vs_sketch_size(&opts),
            "t5" => t5_auc_vs_rank(&opts),
            "t6" => t6_drift(&opts),
            "f1" => f1_auc_vs_ell_series(&opts),
            "f2" => f2_runtime_vs_n(&opts),
            "f3" => f3_runtime_vs_d(&opts),
            "f4" => f4_score_fidelity(&opts),
            "f5" => f5_prequential_auc(&opts),
            "f6" => f6_covariance_error(&opts),
            "f7" => f7_latency_distribution(&opts),
            "f8" => f8_refresh_policy(&opts),
            "a1" => a1_score_family(&opts),
            "a2" => a2_poisoning(&opts),
            "all" => {
                a1_score_family(&opts);
                a2_poisoning(&opts);
                t1_dataset_stats(&opts);
                t2_t3_accuracy_runtime(&opts);
                t4_auc_vs_sketch_size(&opts);
                t5_auc_vs_rank(&opts);
                t6_drift(&opts);
                f1_auc_vs_ell_series(&opts);
                f2_runtime_vs_n(&opts);
                f3_runtime_vs_d(&opts);
                f4_score_fidelity(&opts);
                f5_prequential_auc(&opts);
                f6_covariance_error(&opts);
                f7_latency_distribution(&opts);
                f8_refresh_policy(&opts);
            }
            other => {
                eprintln!("unknown experiment id: {other}");
                std::process::exit(2);
            }
        }
    }
}

fn save(opts: &Opts, report: &ExperimentReport) {
    let path = opts.out_dir.join(format!("{}.json", report.id));
    if let Err(e) = report.write_json(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("[saved {}]\n", path.display());
    }
}

/// Default hyper-parameters shared by the tables (paper-style).
fn default_cfg() -> DetectorConfig {
    DetectorConfig::new(10, 64)
        .with_warmup(256)
        .with_refresh(RefreshPolicy::Periodic { period: 64 })
}

/// Model rank per dataset, matching the latent structure of each substitute
/// (rank-10 planted subspaces; 24 dorothea prototypes).
fn rank_for_dataset(name: &str) -> usize {
    match name {
        "dorothea-like" => 24,
        _ => 10,
    }
}

/// The exact baseline's refresh period scales with size to keep it
/// tractable; the residual slowdown is itself part of the reported result.
fn exact_refresh_for(n: usize, d: usize) -> usize {
    (n / 10).max(256).max(d / 2)
}

// ---------------------------------------------------------------- T1

fn t1_dataset_stats(opts: &Opts) {
    let mut report = ExperimentReport::new("t1", "dataset statistics");
    let mut table = Table::new(
        "T1: dataset statistics",
        &["dataset", "n", "d", "anomalies", "rate", "density"],
    );
    let mut all = standard_datasets(opts.scale);
    all.extend(drift_datasets(opts.scale));
    for s in &all {
        table.add_row(vec![
            s.name.clone(),
            s.len().to_string(),
            s.dim.to_string(),
            s.anomaly_count().to_string(),
            fmt_f(s.anomaly_rate()),
            fmt_f(s.density()),
        ]);
        report.results.push(MethodResult {
            method: "dataset".into(),
            dataset: s.name.clone(),
            auc: None,
            ap: Some(s.anomaly_rate()),
            seconds: 0.0,
            n: s.len(),
        });
    }
    print!("{}", table.render());
    save(opts, &report);
}

// ------------------------------------------------------------ T2 + T3

fn t2_t3_accuracy_runtime(opts: &Opts) {
    let cfg = default_cfg();
    let datasets = standard_datasets(opts.scale);
    let dataset_names: Vec<&str> = datasets.iter().map(|s| s.name.as_str()).collect();
    let mut headers = vec!["method"];
    headers.extend(dataset_names.iter().copied());
    let mut t2 = Table::new("T2: ROC-AUC per method x dataset", &headers);
    let mut t3 = Table::new("T3: runtime (full stream) per method x dataset", &headers);
    let mut r2 = ExperimentReport::new("t2", "ROC-AUC per method and dataset");
    let mut r3 = ExperimentReport::new("t3", "runtime per method and dataset");

    let labels: Vec<&'static str> = standard_roster(2, &cfg, 64)
        .into_iter()
        .map(|(l, _)| l)
        .collect();
    let mut aucs = vec![vec![String::new(); datasets.len()]; labels.len()];
    let mut times = vec![vec![String::new(); datasets.len()]; labels.len()];

    for (di, stream) in datasets.iter().enumerate() {
        let exact_refresh = exact_refresh_for(stream.len(), stream.dim);
        let k = rank_for_dataset(&stream.name);
        let dataset_cfg = DetectorConfig {
            k,
            ell: cfg.ell.max(2 * k),
            ..cfg
        };
        eprintln!(
            "[t2/t3] dataset {} (n={}, d={}, k={k})",
            stream.name,
            stream.len(),
            stream.dim
        );
        for (mi, (label, mut det)) in standard_roster(stream.dim, &dataset_cfg, exact_refresh)
            .into_iter()
            .enumerate()
        {
            let out = run_boxed(&mut det, stream);
            let eval = evaluate_scores(stream, &out.scores, cfg.warmup);
            aucs[mi][di] = fmt_opt(eval.auc);
            times[mi][di] = fmt_secs(out.seconds);
            let result = MethodResult {
                method: label.to_string(),
                dataset: stream.name.clone(),
                auc: eval.auc,
                ap: eval.ap,
                seconds: out.seconds,
                n: stream.len(),
            };
            r2.results.push(result.clone());
            r3.results.push(result);
        }
    }

    for (mi, label) in labels.iter().enumerate() {
        let mut row2 = vec![label.to_string()];
        row2.extend(aucs[mi].clone());
        t2.add_row(row2);
        let mut row3 = vec![label.to_string()];
        row3.extend(times[mi].clone());
        t3.add_row(row3);
    }
    print!("{}", t2.render());
    save(opts, &r2);
    print!("{}", t3.render());
    save(opts, &r3);
}

// ---------------------------------------------------------------- T4/F1

fn ell_sweep_values(scale: DatasetScale) -> Vec<usize> {
    match scale {
        DatasetScale::Full => vec![8, 16, 32, 64, 128, 256],
        DatasetScale::Small => vec![8, 16, 32],
    }
}

fn sweep_auc_vs_ell(opts: &Opts) -> ExperimentReport {
    // The power-law stream is the one where sketch size genuinely matters;
    // on cleanly separated low-rank streams every ℓ ≥ 8 already saturates.
    let stream = sketchad_streams::synth_powerlaw(opts.scale);
    let dim = stream.dim;
    let k = 10.min(dim / 2);
    let warmup = 256;
    let mut report = ExperimentReport::new("t4", "ROC-AUC vs sketch size ell on synth-powerlaw");

    // Exact reference.
    let mut exact = ExactSvdDetector::new(
        dim,
        k,
        ScoreKind::RelativeProjection,
        exact_refresh_for(stream.len(), dim),
        warmup,
    );
    let mut exact_scores = Vec::with_capacity(stream.len());
    for (v, _) in stream.iter() {
        exact_scores.push(exact.process(v));
    }
    let exact_auc = evaluate_scores(&stream, &exact_scores, warmup).auc;

    for method in ["FD", "RP-Gauss", "CountSketch", "RowSample"] {
        let mut series = Series::new(method);
        for &ell in &ell_sweep_values(opts.scale) {
            let cfg = DetectorConfig::new(k.min(ell), ell).with_warmup(warmup);
            let mut det: Box<dyn StreamingDetector> = match method {
                "FD" => Box::new(cfg.build_fd(dim)),
                "RP-Gauss" => Box::new(cfg.build_rp(dim)),
                "CountSketch" => Box::new(cfg.build_cs(dim)),
                _ => Box::new(cfg.build_rs(dim)),
            };
            let out = run_boxed(&mut det, &stream);
            let eval = evaluate_scores(&stream, &out.scores, warmup);
            series.push(ell as f64, eval.auc.unwrap_or(f64::NAN));
            report.results.push(MethodResult {
                method: format!("{method}(ell={ell})"),
                dataset: stream.name.clone(),
                auc: eval.auc,
                ap: eval.ap,
                seconds: out.seconds,
                n: stream.len(),
            });
        }
        report.series.push(series);
    }
    let mut exact_series = Series::new("Exact-SVD");
    for &ell in &ell_sweep_values(opts.scale) {
        exact_series.push(ell as f64, exact_auc.unwrap_or(f64::NAN));
    }
    report.series.push(exact_series);
    report
}

fn t4_auc_vs_sketch_size(opts: &Opts) {
    let report = sweep_auc_vs_ell(opts);
    let ells = ell_sweep_values(opts.scale);
    let mut headers = vec!["method".to_string()];
    headers.extend(ells.iter().map(|e| format!("l={e}")));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new("T4: ROC-AUC vs sketch size (synth-powerlaw)", &headers_ref);
    for s in &report.series {
        let mut row = vec![s.label.clone()];
        row.extend(s.y.iter().map(|&v| fmt_f(v)));
        table.add_row(row);
    }
    print!("{}", table.render());
    save(opts, &report);
}

fn f1_auc_vs_ell_series(opts: &Opts) {
    let mut report = sweep_auc_vs_ell(opts);
    report.id = "f1".into();
    report.description = "figure: AUC-vs-ell curves, one series per sketch".into();
    println!("== F1: AUC vs sketch size (series) ==");
    for s in &report.series {
        println!("series {}:", s.label);
        for (x, y) in s.x.iter().zip(s.y.iter()) {
            println!("  ell={x:>6}  auc={}", fmt_f(*y));
        }
    }
    save(opts, &report);
}

// ---------------------------------------------------------------- T5

fn t5_auc_vs_rank(opts: &Opts) {
    let stream = sketchad_streams::synth_powerlaw(opts.scale);
    let warmup = 256;
    let ks: Vec<usize> = match opts.scale {
        DatasetScale::Full => vec![2, 5, 10, 20, 40],
        DatasetScale::Small => vec![2, 5, 10],
    };
    let mut report = ExperimentReport::new("t5", "ROC-AUC vs model rank k on synth-powerlaw");
    let mut table = Table::new(
        "T5: ROC-AUC vs model rank k (synth-powerlaw, power-law spectrum)",
        &["k", "FD(l=64)", "Exact-SVD"],
    );
    let mut fd_series = Series::new("FD");
    let mut exact_series = Series::new("Exact-SVD");
    for &k in &ks {
        let cfg = DetectorConfig::new(k, 64).with_warmup(warmup);
        let mut fd = cfg.build_fd(stream.dim);
        let mut fd_scores = Vec::with_capacity(stream.len());
        for (v, _) in stream.iter() {
            fd_scores.push(fd.process(v));
        }
        let fd_auc = evaluate_scores(&stream, &fd_scores, warmup).auc;

        let mut exact = ExactSvdDetector::new(
            stream.dim,
            k,
            ScoreKind::RelativeProjection,
            exact_refresh_for(stream.len(), stream.dim),
            warmup,
        );
        let mut ex_scores = Vec::with_capacity(stream.len());
        for (v, _) in stream.iter() {
            ex_scores.push(exact.process(v));
        }
        let ex_auc = evaluate_scores(&stream, &ex_scores, warmup).auc;

        table.add_row(vec![k.to_string(), fmt_opt(fd_auc), fmt_opt(ex_auc)]);
        fd_series.push(k as f64, fd_auc.unwrap_or(f64::NAN));
        exact_series.push(k as f64, ex_auc.unwrap_or(f64::NAN));
        report.results.push(MethodResult {
            method: format!("FD(k={k})"),
            dataset: stream.name.clone(),
            auc: fd_auc,
            ap: None,
            seconds: 0.0,
            n: stream.len(),
        });
        report.results.push(MethodResult {
            method: format!("Exact(k={k})"),
            dataset: stream.name.clone(),
            auc: ex_auc,
            ap: None,
            seconds: 0.0,
            n: stream.len(),
        });
    }
    report.series.push(fd_series);
    report.series.push(exact_series);
    print!("{}", table.render());
    save(opts, &report);
}

// ---------------------------------------------------------------- T6

/// The drift roster: global FD, decayed FD, windowed FD, exact global and
/// exact windowed.
fn drift_roster(
    dim: usize,
    n: usize,
    warmup: usize,
) -> Vec<(&'static str, Box<dyn StreamingDetector>)> {
    let k = 8.min(dim / 2).max(1);
    let ell = 64.min(dim);
    let base = DetectorConfig::new(k, ell).with_warmup(warmup);
    let window_len = (n / 10).max(200);
    let block = (window_len / 4).max(1);
    vec![
        ("FD-global", Box::new(base.build_fd(dim))),
        (
            "FD-decay",
            Box::new(base.with_decay(0.9, (n / 100).max(1)).build_fd(dim)),
        ),
        ("FD-window", Box::new(base.build_windowed_fd(dim, block, 4))),
        (
            "Exact-global",
            Box::new(ExactSvdDetector::new(
                dim,
                k,
                ScoreKind::RelativeProjection,
                exact_refresh_for(n, dim),
                warmup,
            )),
        ),
        (
            "Exact-window",
            Box::new(ExactWindowedDetector::new(
                dim,
                k,
                window_len,
                ScoreKind::RelativeProjection,
                (window_len / 4).max(64),
                warmup,
            )),
        ),
    ]
}

fn t6_drift(opts: &Opts) {
    let warmup = 256;
    let datasets = drift_datasets(opts.scale);
    let mut report = ExperimentReport::new("t6", "drift: global vs decay vs window AUC");
    let mut table = Table::new(
        "T6: ROC-AUC under concept drift",
        &["method", "synth-drift", "synth-rotate"],
    );
    let roster_labels: Vec<&'static str> = drift_roster(4, 1000, 1)
        .into_iter()
        .map(|(l, _)| l)
        .collect();
    let mut cells = vec![vec![String::new(); datasets.len()]; roster_labels.len()];
    for (di, stream) in datasets.iter().enumerate() {
        eprintln!("[t6] dataset {}", stream.name);
        for (mi, (label, mut det)) in drift_roster(stream.dim, stream.len(), warmup)
            .into_iter()
            .enumerate()
        {
            let out = run_boxed(&mut det, stream);
            let eval = evaluate_scores(stream, &out.scores, warmup);
            cells[mi][di] = fmt_opt(eval.auc);
            report.results.push(MethodResult {
                method: label.to_string(),
                dataset: stream.name.clone(),
                auc: eval.auc,
                ap: eval.ap,
                seconds: out.seconds,
                n: stream.len(),
            });
        }
    }
    for (mi, label) in roster_labels.iter().enumerate() {
        let mut row = vec![label.to_string()];
        row.extend(cells[mi].clone());
        table.add_row(row);
    }
    print!("{}", table.render());
    save(opts, &report);
}

// ---------------------------------------------------------------- F2

fn f2_runtime_vs_n(opts: &Opts) {
    let d = 100;
    let exps: Vec<u32> = match opts.scale {
        DatasetScale::Full => vec![12, 13, 14, 15, 16],
        DatasetScale::Small => vec![9, 10, 11],
    };
    let n_max = 1usize << exps.last().copied().unwrap_or(12);
    let cfg = LowRankStreamConfig {
        n: n_max,
        d,
        k: 10,
        anomaly_rate: 0.02,
        seed: 0xf2,
        ..Default::default()
    };
    let full = sketchad_streams::generate_low_rank_stream(cfg);
    let mut report = ExperimentReport::new("f2", "runtime vs stream length n (d=100)");
    println!("== F2: runtime vs stream length (d={d}) ==");
    let det_cfg = DetectorConfig::new(10, 64).with_warmup(256);
    for method in ["FD", "RP-Gauss", "CountSketch", "Exact-SVD"] {
        let mut series = Series::new(method);
        for &e in &exps {
            let n = 1usize << e;
            let stream = full.truncated(n);
            // All methods rebuild their model every 64 points (apples to
            // apples); the exact arm additionally pays its O(d²) per-point
            // covariance update and O(d²·k) rebuilds.
            let mut det: Box<dyn StreamingDetector> = match method {
                "FD" => Box::new(det_cfg.build_fd(d)),
                "RP-Gauss" => Box::new(det_cfg.build_rp(d)),
                "CountSketch" => Box::new(det_cfg.build_cs(d)),
                _ => Box::new(
                    ExactSvdDetector::new(d, 10, ScoreKind::RelativeProjection, 64, 256)
                        .with_eig_iters(10),
                ),
            };
            let out = run_boxed(&mut det, &stream);
            println!(
                "  {method:<12} n=2^{e:<2} ({n:>7})  {}",
                fmt_secs(out.seconds)
            );
            series.push(n as f64, out.seconds);
            report.results.push(MethodResult {
                method: method.into(),
                dataset: format!("synth(n={n},d={d})"),
                auc: None,
                ap: None,
                seconds: out.seconds,
                n,
            });
        }
        report.series.push(series);
    }
    save(opts, &report);
}

// ---------------------------------------------------------------- F3

fn f3_runtime_vs_d(opts: &Opts) {
    let n = match opts.scale {
        DatasetScale::Full => 4096,
        DatasetScale::Small => 512,
    };
    let dims: Vec<usize> = match opts.scale {
        DatasetScale::Full => vec![50, 100, 200, 400, 800, 1600],
        DatasetScale::Small => vec![50, 100, 200],
    };
    let mut report = ExperimentReport::new("f3", "runtime vs dimension d (n fixed)");
    println!("== F3: runtime vs dimension (n={n}) ==");
    let det_cfg = DetectorConfig::new(10, 64).with_warmup(256);
    for method in ["FD", "RP-Gauss", "CountSketch", "Exact-SVD"] {
        let mut series = Series::new(method);
        for &d in &dims {
            let cfg = LowRankStreamConfig {
                n,
                d,
                k: 10.min(d / 2),
                anomaly_rate: 0.02,
                seed: 0xf3,
                ..Default::default()
            };
            let stream = sketchad_streams::generate_low_rank_stream(cfg);
            // Matched refresh period (64) across methods; see F2.
            let mut det: Box<dyn StreamingDetector> = match method {
                "FD" => Box::new(det_cfg.build_fd(d)),
                "RP-Gauss" => Box::new(det_cfg.build_rp(d)),
                "CountSketch" => Box::new(det_cfg.build_cs(d)),
                _ => Box::new(
                    ExactSvdDetector::new(d, 10.min(d / 2), ScoreKind::RelativeProjection, 64, 256)
                        .with_eig_iters(10),
                ),
            };
            let out = run_boxed(&mut det, &stream);
            println!("  {method:<12} d={d:<5}  {}", fmt_secs(out.seconds));
            series.push(d as f64, out.seconds);
            report.results.push(MethodResult {
                method: method.into(),
                dataset: format!("synth(n={n},d={d})"),
                auc: None,
                ap: None,
                seconds: out.seconds,
                n,
            });
        }
        report.series.push(series);
    }
    save(opts, &report);
}

// ---------------------------------------------------------------- F4

fn f4_score_fidelity(opts: &Opts) {
    // Fidelity is measured on a stream with a substantial noise floor so
    // that normal points carry well-conditioned (non-degenerate) scores;
    // with near-zero residuals, rank correlation would only measure
    // floating-point noise.
    let (n, d) = match opts.scale {
        DatasetScale::Full => (20_000usize, 200usize),
        DatasetScale::Small => (2_000, 40),
    };
    let stream = sketchad_streams::generate_low_rank_stream(LowRankStreamConfig {
        n,
        d,
        k: 10.min(d / 2),
        noise_sigma: 0.5,
        anomaly_rate: 0.02,
        seed: 0xf4,
        ..Default::default()
    });
    let warmup = 256;
    let k = 10.min(stream.dim / 2);
    // Reference: exact detector scores.
    let mut exact = ExactSvdDetector::new(
        stream.dim,
        k,
        ScoreKind::RelativeProjection,
        exact_refresh_for(stream.len(), stream.dim),
        warmup,
    );
    let mut exact_scores = Vec::with_capacity(stream.len());
    for (v, _) in stream.iter() {
        exact_scores.push(exact.process(v));
    }
    let exact_tail = &exact_scores[warmup..];

    let mut report = ExperimentReport::new(
        "f4",
        "sketched-score fidelity vs exact: Spearman correlation and mean relative error vs ell",
    );
    println!("== F4: score fidelity vs exact (synth-lowrank) ==");
    for method in ["FD", "RP-Gauss"] {
        let mut corr_series = Series::new(format!("{method}-spearman"));
        let mut err_series = Series::new(format!("{method}-relerr"));
        for &ell in &ell_sweep_values(opts.scale) {
            let cfg = DetectorConfig::new(k.min(ell), ell).with_warmup(warmup);
            let mut det: Box<dyn StreamingDetector> = match method {
                "FD" => Box::new(cfg.build_fd(stream.dim)),
                _ => Box::new(cfg.build_rp(stream.dim)),
            };
            let out = run_boxed(&mut det, &stream);
            let tail = &out.scores[warmup..];
            let corr = spearman(tail, exact_tail).unwrap_or(f64::NAN);
            let relerr = mean_relative_error(tail, exact_tail, 1e-6);
            println!(
                "  {method:<10} ell={ell:<4} spearman={}  rel-err={}",
                fmt_f(corr),
                fmt_f(relerr)
            );
            corr_series.push(ell as f64, corr);
            err_series.push(ell as f64, relerr);
        }
        report.series.push(corr_series);
        report.series.push(err_series);
    }
    save(opts, &report);
}

// ---------------------------------------------------------------- F5

fn f5_prequential_auc(opts: &Opts) {
    let datasets = drift_datasets(opts.scale);
    let stream = &datasets[0]; // synth-drift (abrupt switch)
    let warmup = 256;
    let chunk = (stream.len() / 12).max(100);
    let mut report = ExperimentReport::new(
        "f5",
        "prequential AUC over time under abrupt drift (chunked evaluation)",
    );
    println!(
        "== F5: prequential AUC over time ({}; chunk={chunk}) ==",
        stream.name
    );
    let labels = stream.labels();
    for (label, mut det) in drift_roster(stream.dim, stream.len(), warmup) {
        let mut scores = Vec::with_capacity(stream.len());
        for (v, _) in stream.iter() {
            scores.push(det.process(v));
        }
        let mut series = Series::new(label);
        print!("  {label:<14}");
        for (mid, auc) in
            sketchad_eval::prequential_auc(&scores[warmup..], &labels[warmup..], chunk)
        {
            series.push((warmup + mid) as f64, auc.unwrap_or(f64::NAN));
            match auc {
                Some(a) => print!(" {a:.2}"),
                None => print!("   --"),
            }
        }
        println!();
        report.series.push(series);
    }
    save(opts, &report);
}

// ---------------------------------------------------------------- F6

fn f6_covariance_error(opts: &Opts) {
    // Data matrix: normal-only synthetic stream with a heavier noise floor
    // (so the covariance has a genuine tail for the sketches to fight over).
    let (n, d) = match opts.scale {
        DatasetScale::Full => (4000usize, 100usize),
        DatasetScale::Small => (800, 40),
    };
    let cfg = LowRankStreamConfig {
        n,
        d,
        k: 10.min(d / 2),
        anomaly_rate: 0.0,
        noise_sigma: 0.5,
        seed: 0xf6,
        ..Default::default()
    };
    let stream = sketchad_streams::generate_low_rank_stream(cfg);
    let a = Matrix::from_rows(&stream.rows()).expect("uniform rows");

    let mut report = ExperimentReport::new(
        "f6",
        "relative covariance error |A'A - B'B| / |A'A| vs ell, with the FD theoretical bound",
    );
    println!("== F6: covariance error vs sketch size (n={n}, d={d}) ==");
    let top_sq = {
        let s = sketchad_linalg::power::spectral_norm(&a, 200, 0xf6);
        s * s
    };
    let mut bound_series = Series::new("FD-bound");
    let mut method_series: Vec<Series> = [
        "FD",
        "RP-Gauss",
        "CountSketch",
        "RowSample",
        "SparseJL(s=4)",
        "iSVD-trunc",
    ]
    .iter()
    .map(|m| Series::new(*m))
    .collect();
    for &ell in &ell_sweep_values(opts.scale) {
        let mut sketches: Vec<(usize, Box<dyn MatrixSketch>)> = vec![
            (0, Box::new(FrequentDirections::new(ell, d))),
            (1, Box::new(RandomProjection::new(ell, d, 0xf61))),
            (2, Box::new(CountSketch::new(ell, d, 1, 0xf62))),
            (3, Box::new(RowSampling::new(ell, d, 0xf63))),
            (4, Box::new(CountSketch::new(ell, d, 4.min(ell), 0xf65))),
            (5, Box::new(IsvdTruncation::new(ell, d))),
        ];
        print!("  ell={ell:<5}");
        for (si, sketch) in &mut sketches {
            for row in a.iter_rows() {
                sketch.update(row);
            }
            let err = covariance_error(&a, &sketch.sketch(), 0xf64);
            method_series[*si].push(ell as f64, err.relative);
            print!(" {}={:.2e}", method_series[*si].label, err.relative);
        }
        let bound = fd_spectral_error_bound(a.squared_frobenius_norm(), ell) / top_sq;
        bound_series.push(ell as f64, bound);
        println!(" bound={bound:.2e}");
    }
    report.series.extend(method_series);
    report.series.push(bound_series);
    save(opts, &report);
}

// ---------------------------------------------------------------- F7

fn f7_latency_distribution(opts: &Opts) {
    let stream = synth_lowrank(opts.scale);
    let cfg = DetectorConfig::new(10.min(stream.dim / 2), 64).with_warmup(256);
    let mut report = ExperimentReport::new("f7", "per-point latency distribution and percentiles");
    println!("== F7: per-point latency distribution ({}) ==", stream.name);
    for method in ["FD", "RP-Gauss", "CountSketch"] {
        let (out, stats) = match method {
            "FD" => {
                let mut det = cfg.build_fd(stream.dim);
                run_with_latency(&mut det, &stream)
            }
            "RP-Gauss" => {
                let mut det = cfg.build_rp(stream.dim);
                run_with_latency(&mut det, &stream)
            }
            _ => {
                let mut det = cfg.build_cs(stream.dim);
                run_with_latency(&mut det, &stream)
            }
        };
        let hist = stats.log_histogram();
        println!(
            "  {method:<12} mean={:.1}µs p50={:.1}µs p99={:.1}µs  hist(<1µs,<10µs,<100µs,<1ms,>=1ms)={:?}",
            stats.mean_ns() / 1e3,
            stats.percentile_ns(0.5) as f64 / 1e3,
            stats.percentile_ns(0.99) as f64 / 1e3,
            hist
        );
        let mut series = Series::new(method);
        for (i, &c) in hist.iter().enumerate() {
            series.push(i as f64, c as f64);
        }
        report.series.push(series);
        report.results.push(MethodResult {
            method: method.into(),
            dataset: stream.name.clone(),
            auc: None,
            ap: None,
            seconds: out.seconds,
            n: stream.len(),
        });
    }
    save(opts, &report);
}

// ---------------------------------------------------------------- F8

fn f8_refresh_policy(opts: &Opts) {
    let stream = synth_lowrank(opts.scale);
    let k = 10.min(stream.dim / 2);
    let warmup = 256;
    let periods: Vec<usize> = match opts.scale {
        DatasetScale::Full => vec![8, 16, 32, 64, 128, 256, 512],
        DatasetScale::Small => vec![8, 32, 128],
    };
    let mut report = ExperimentReport::new(
        "f8",
        "throughput and AUC vs refresh period, plus the adaptive policy",
    );
    println!("== F8: refresh-policy ablation ({}) ==", stream.name);
    let mut tp_series = Series::new("throughput");
    let mut auc_series = Series::new("auc");
    for &p in &periods {
        let cfg = DetectorConfig::new(k, 64)
            .with_warmup(warmup)
            .with_refresh(RefreshPolicy::Periodic { period: p });
        let mut det = cfg.build_fd(stream.dim);
        let sw = Stopwatch::start();
        let mut scores = Vec::with_capacity(stream.len());
        for (v, _) in stream.iter() {
            scores.push(det.process(v));
        }
        let secs = sw.seconds();
        let auc = evaluate_scores(&stream, &scores, warmup).auc;
        let throughput = stream.len() as f64 / secs;
        println!(
            "  periodic({p:<4}) {throughput:>10.0} pts/s  auc={}  refreshes={}",
            fmt_opt(auc),
            det.refresh_count()
        );
        tp_series.push(p as f64, throughput);
        auc_series.push(p as f64, auc.unwrap_or(f64::NAN));
        report.results.push(MethodResult {
            method: format!("periodic({p})"),
            dataset: stream.name.clone(),
            auc,
            ap: None,
            seconds: secs,
            n: stream.len(),
        });
    }
    // Adaptive policy.
    let cfg = DetectorConfig::new(k, 64).with_warmup(warmup).with_refresh(
        RefreshPolicy::EnergyTriggered {
            growth: 0.1,
            max_period: 512,
        },
    );
    let mut det = cfg.build_fd(stream.dim);
    let sw = Stopwatch::start();
    let mut scores = Vec::with_capacity(stream.len());
    for (v, _) in stream.iter() {
        scores.push(det.process(v));
    }
    let secs = sw.seconds();
    let auc = evaluate_scores(&stream, &scores, warmup).auc;
    println!(
        "  adaptive(0.1)  {:>10.0} pts/s  auc={}  refreshes={}",
        stream.len() as f64 / secs,
        fmt_opt(auc),
        det.refresh_count()
    );
    report.series.push(tp_series);
    report.series.push(auc_series);
    report.results.push(MethodResult {
        method: "adaptive(0.1,512)".into(),
        dataset: stream.name.clone(),
        auc,
        ap: None,
        seconds: secs,
        n: stream.len(),
    });
    save(opts, &report);
}

// ---------------------------------------------------------------- A1

fn a1_score_family(opts: &Opts) {
    // Design-choice ablation (DESIGN.md §6.4): the projection score catches
    // off-subspace anomalies, the leverage score catches in-subspace
    // extremes, and the blended score covers both.
    use sketchad_streams::AnomalyKind;
    let (n, d) = match opts.scale {
        DatasetScale::Full => (20_000usize, 200usize),
        DatasetScale::Small => (2_000, 40),
    };
    let kinds = [
        ("off-subspace", AnomalyKind::OffSubspace),
        ("in-subspace", AnomalyKind::InSubspaceExtreme),
        ("burst", AnomalyKind::CorrelatedBurst),
    ];
    let scores = [
        ("rel-proj", ScoreKind::RelativeProjection),
        ("proj", ScoreKind::ProjectionDistance),
        ("leverage", ScoreKind::Leverage),
        ("blended(0.1)", ScoreKind::Blended { beta: 0.1 }),
    ];
    let warmup = 256;
    let mut report = ExperimentReport::new(
        "a1",
        "score-family ablation: AUC per score kind x anomaly kind",
    );
    let mut table = Table::new(
        "A1: ROC-AUC per score family x anomaly kind (FD, k=10, ell=64)",
        &["score", "off-subspace", "in-subspace", "burst"],
    );
    let mut cells = vec![vec![String::new(); kinds.len()]; scores.len()];
    for (ki, (kind_name, kind)) in kinds.iter().enumerate() {
        let stream = sketchad_streams::generate_low_rank_stream(LowRankStreamConfig {
            n,
            d,
            k: 10,
            anomaly_rate: 0.02,
            anomaly_kind: *kind,
            seed: 0xa1,
            ..Default::default()
        });
        for (si, (score_name, score)) in scores.iter().enumerate() {
            let cfg = DetectorConfig::new(10, 64)
                .with_warmup(warmup)
                .with_score(*score);
            let mut det = cfg.build_fd(d);
            let mut out = Vec::with_capacity(stream.len());
            for (v, _) in stream.iter() {
                out.push(det.process(v));
            }
            let auc = evaluate_scores(&stream, &out, warmup).auc;
            cells[si][ki] = fmt_opt(auc);
            report.results.push(MethodResult {
                method: format!("FD[{score_name}]"),
                dataset: format!("synth-{kind_name}"),
                auc,
                ap: None,
                seconds: 0.0,
                n,
            });
        }
    }
    for (si, (score_name, _)) in scores.iter().enumerate() {
        let mut row = vec![score_name.to_string()];
        row.extend(cells[si].clone());
        table.add_row(row);
    }
    print!("{}", table.render());
    save(opts, &report);
}

// ---------------------------------------------------------------- A2

fn a2_poisoning(opts: &Opts) {
    // Sketch-poisoning ablation: a stream with a few *long* bursts of
    // near-identical anomalies. Folding the burst into the sketch makes its
    // tail look normal (false negatives); the filtering update policy keeps
    // the model clean.
    use sketchad_core::UpdatePolicy;
    use sketchad_linalg::rng::{gaussian, seeded_rng};

    let (n, d, burst_len, n_bursts) = match opts.scale {
        DatasetScale::Full => (20_000usize, 100usize, 400usize, 4usize),
        DatasetScale::Small => (2_000, 40, 100, 2),
    };
    let warmup = 256;
    let mut rng = seeded_rng(0xa2);
    let basis = sketchad_linalg::rng::random_orthonormal_rows(&mut rng, 8, d);
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    let mut labels = vec![false; n];
    // Burst start positions, spread over the post-warmup stream.
    let starts: Vec<usize> = (0..n_bursts)
        .map(|b| n / 4 + b * (n / 2) / n_bursts.max(1))
        .collect();
    for (i, label) in labels.iter_mut().enumerate() {
        // Shared burst direction per burst (first coordinate of which
        // burst we're in, deterministic).
        let burst = starts.iter().position(|&s| i >= s && i < s + burst_len);
        if let Some(bi) = burst {
            let mut v = vec![0.0; d];
            v[(17 + 7 * bi) % d] = 9.0 + 0.1 * gaussian(&mut rng);
            rows.push(v);
            *label = true;
        } else {
            let coeff: Vec<f64> = (0..8).map(|_| 3.0 * gaussian(&mut rng)).collect();
            let mut v = basis.tr_matvec(&coeff);
            for x in v.iter_mut() {
                *x += 0.05 * gaussian(&mut rng);
            }
            rows.push(v);
        }
    }

    let mut report = ExperimentReport::new(
        "a2",
        "sketch poisoning: Always vs SkipAnomalous update policy on long anomaly bursts",
    );
    // AUC alone can mask poisoning (anomaly scores collapse but may still
    // rank above the near-zero normal scores), so also report the score
    // *levels*: the mean score over the last quarter of each burst (should
    // stay ≈ 1) and the mean normal score after the first burst (should
    // stay ≈ 0 — a poisoned model inflates it when a real normal direction
    // is evicted by the burst direction).
    let mut table = Table::new(
        "A2: sketch-poisoning resistance (FD, long bursts)",
        &[
            "update policy",
            "AUC",
            "burst-tail score",
            "post-burst normal score",
            "skipped",
        ],
    );
    let tail_idx: Vec<usize> = starts
        .iter()
        .flat_map(|&s| (s + 3 * burst_len / 4)..(s + burst_len))
        .collect();
    let normal_after: Vec<usize> = (starts[0] + burst_len..n).filter(|i| !labels[*i]).collect();
    for (name, policy) in [
        ("Always", UpdatePolicy::Always),
        (
            "SkipAnomalous(0.98)",
            UpdatePolicy::SkipAnomalous { quantile: 0.98 },
        ),
    ] {
        // Model rank 12 over 8 true directions: the over-provisioned-rank
        // regime (true rank is never known in practice). The free model
        // slots are what a sustained burst direction captures — the
        // realistic poisoning path.
        let cfg = DetectorConfig::new(12, 64)
            .with_warmup(warmup)
            .with_update_policy(policy);
        let mut det = cfg.build_fd(d);
        let scores: Vec<f64> = rows.iter().map(|r| det.process(r)).collect();
        let auc = roc_auc(&scores[warmup..], &labels[warmup..]);
        let mean_of = |idx: &[usize]| -> f64 {
            idx.iter().map(|&i| scores[i]).sum::<f64>() / idx.len().max(1) as f64
        };
        let tail_score = mean_of(&tail_idx);
        let normal_score = mean_of(&normal_after);
        table.add_row(vec![
            name.to_string(),
            fmt_opt(auc),
            fmt_f(tail_score),
            fmt_f(normal_score),
            det.skipped_updates().to_string(),
        ]);
        report.results.push(MethodResult {
            method: name.to_string(),
            dataset: format!("synth-longburst(n={n},d={d},burst={burst_len})"),
            auc,
            ap: None,
            seconds: 0.0,
            n,
        });
        // Score levels as a labeled series: x=0 burst-tail, x=1 post-burst normal.
        let mut levels = Series::new(format!("{name}-score-levels"));
        levels.push(0.0, tail_score);
        levels.push(1.0, normal_score);
        report.series.push(levels);
    }
    print!("{}", table.render());
    save(opts, &report);
}

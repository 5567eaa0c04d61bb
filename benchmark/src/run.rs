//! One run of one workload: set-up, the timed sections, the output checks
//! and the metrics. `--trace 0` runs untraced and reports the end-to-end
//! metrics; `--trace 1` is a separate run that reports the per-layer ones.

use crate::drive::{plan, run_lifetime, Lifetime, Plan, Quiesce};
use crate::gen::{setup, Input};
use crate::place::{pin, IdleGuard, Side};
use crate::replay::staged_replay;
use crate::report::{median, peak_rss_mb, quantile, RunResult};
use crate::spec::{Mode, Workload, POST_RECOVERY_ROWS};
use crate::trace::{spanned, SpanRoot};
use crate::traced::run_traced;
use sketchad_core::rowfmt::RowsView;
use sketchad_eval::metrics::roc_auc;
use sketchad_serve::ServeEngine;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The lowest AUC a workload may score before the run counts as wrong.
pub const MIN_AUC: f64 = 0.80;
/// An open-loop run whose generator ends further behind than this is void.
const MAX_BACKLOG_BATCHES: f64 = 4.0;
/// Recoveries timed per run, whatever `--seconds` says.
const MIN_RECOVERIES: usize = 5;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// Where results and traces are written: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The run's scratch directory, inside the checkout and removed on exit.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<Self, String> {
        let dir = out_dir().join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    /// An empty directory called `name`, replacing what an earlier section
    /// left there.
    pub fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.0.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {name}: {e}"))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {name}: {e}"))?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

fn start_engine(
    w: &Workload,
    state_dir: Option<&Path>,
    instrumented: bool,
) -> Result<ServeEngine, String> {
    let cfg = w.engine_config(state_dir);
    let w = *w;
    // The worker inherits the mask in force while the engine spawns it; the
    // calling thread then becomes the load generator, on the other CPU
    // unless the workload keeps both on one.
    pin(Side::Detector);
    let engine = if instrumented {
        ServeEngine::start_instrumented(cfg, move |_, recorder| w.detector(Some(recorder)).boxed())
    } else {
        ServeEngine::open_or_recover(cfg, move |_| w.detector(None).boxed())
    };
    if !w.one_cpu {
        pin(Side::Generator);
    }
    engine.map_err(|e| format!("starting engine: {e}"))
}

/// One engine lifetime in the workload's own load shape, on a state
/// directory of its own when the workload is durable.
pub fn engine_lifetime(
    w: &Workload,
    view: RowsView<'_>,
    work: &WorkDir,
    seconds: f64,
    spans: Option<SpanRoot<'_>>,
) -> Result<Lifetime, String> {
    let state_dir = w.durable.map(|_| work.fresh("state")).transpose()?;
    let engine = start_engine(w, state_dir.as_deref(), spans.is_some())?;
    run_lifetime(w, view, engine, plan(w, seconds), spans, None)
}

/// The output checks every engine lifetime must pass; `expected` holds the
/// scores a direct replay gives the lifetime's first rows. Returns the rows
/// that came back without a finite score.
pub fn check_lifetime(r: &mut RunResult, what: &str, life: &Lifetime, expected: &[f64]) -> u64 {
    let s = &life.stats;
    let accounted =
        s.total_processed + s.total_dropped + s.total_rejected + s.total_shed + s.total_crash_lost;
    r.check(
        accounted == life.rows && life.outcome.submitted() == life.rows,
        || {
            format!(
                "{what}: conservation broken: processed {} + dropped {} + rejected {} + shed {} + crash_lost {} != submitted {}",
                s.total_processed, s.total_dropped, s.total_rejected, s.total_shed, s.total_crash_lost, life.rows
            )
        },
    );
    let finite = life.scores.iter().filter(|(_, s)| s.is_finite()).count() as u64;
    r.check(finite == life.rows, || {
        format!("{what}: {finite} finite scores for {} rows", life.rows)
    });
    let n = expected.len().min(life.scores.len());
    let mismatch = life.scores[..n]
        .iter()
        .zip(expected)
        .enumerate()
        .position(|(i, (&(seq, got), want))| seq != i as u64 || got.to_bits() != want.to_bits());
    r.check(mismatch.is_none(), || {
        format!(
            "{what}: engine score differs from the direct replay at row {}",
            mismatch.unwrap_or(0)
        )
    });
    r.check(life.backlog_batches_end <= MAX_BACKLOG_BATCHES, || {
        format!(
            "{what}: generator ended {} batches behind its schedule",
            life.backlog_batches_end
        )
    });
    life.rows - finite.min(life.rows)
}

/// The lifetime's steady-state throughput samples: rows per second over
/// each ~10 ms window of completions, or the whole lifetime's rate when it
/// was shorter than one window.
pub fn steady_rates(life: &Lifetime) -> Vec<f64> {
    if life.window_pts_s.is_empty() {
        vec![life.rows as f64 / life.wall_s]
    } else {
        life.window_pts_s.clone()
    }
}

/// ROC-AUC of the first pass over the file, warmup excluded.
pub fn auc(w: &Workload, scores: &[(u64, f64)], labels: &[bool]) -> Result<f64, String> {
    let n = labels.len().min(scores.len());
    // A paced run submits `--seconds` worth of rows, which can be this few.
    if n <= w.warmup {
        return Err(format!(
            "run too short: {n} rows scored, AUC is taken past the warmup of {}; raise --seconds",
            w.warmup
        ));
    }
    let scores: Vec<f64> = scores[w.warmup..n].iter().map(|&(_, s)| s).collect();
    roc_auc(&scores, &labels[w.warmup..n]).ok_or_else(|| "AUC undefined: one class absent".into())
}

/// The crash image of the recovery workload and the uncrashed control.
pub struct Image {
    dir: PathBuf,
    /// Rows the image covers: two checkpoints plus the WAL tail.
    rows: usize,
    /// The engine that built the image, run on past the crash point by
    /// `POST_RECOVERY_ROWS` rows.
    pub control: Lifetime,
}

/// Builds the crash image through the real path: an engine ingests up to
/// the crash point, pausing at each checkpoint boundary so the snapshot
/// covers exactly that many rows; with the worker idle the state directory
/// is copied; the engine then runs on as the control.
pub fn build_image(w: &Workload, view: RowsView<'_>, work: &WorkDir) -> Result<Image, String> {
    let rows = w.lifetime_rows();
    let every = w.durable.expect("recovery is durable").checkpoint_every as usize;
    let source = work.fresh("image-source")?;
    let dir = work.fresh("image")?;
    let engine = start_engine(w, Some(&source), false)?;
    let mut copied = Ok(());
    let control = run_lifetime(
        w,
        view,
        engine,
        Plan {
            total: rows + POST_RECOVERY_ROWS,
            offset: 0,
            period: None,
        },
        None,
        Some(Quiesce {
            at: &[every, 2 * every, rows],
            then: &mut |done| {
                if done == rows {
                    copied = copy_dir(&source, &dir);
                }
            },
        }),
    )?;
    copied.map_err(|e| format!("copying the crash image: {e}"))?;
    Ok(Image { dir, rows, control })
}

/// One recovery: a fresh copy of the image, `open_or_recover` timed, then
/// the rows after the crash point scored and compared with the control.
/// Returns the recovery time and the short lifetime that followed it.
pub fn recover_once(
    r: &mut RunResult,
    w: &Workload,
    view: RowsView<'_>,
    work: &WorkDir,
    image: &Image,
    spans: Option<SpanRoot<'_>>,
) -> Result<(f64, Lifetime), String> {
    let Mode::Recover { tail } = w.mode else {
        unreachable!("recover_once on a workload that does not recover")
    };
    let dir = work.fresh("recover")?;
    copy_dir(&image.dir, &dir).map_err(|e| format!("copying the crash image: {e}"))?;
    let started = Instant::now();
    let tracer = spans.map(|s| s.tracer.as_ref());
    let root = spans.map_or(0, |s| s.root);
    let engine = spanned(tracer, "open_or_recover", root, |_| {
        start_engine(w, Some(&dir), spans.is_some())
    })?;
    let recovery_s = started.elapsed().as_secs_f64();
    let after_crash = Plan {
        total: POST_RECOVERY_ROWS,
        offset: image.rows,
        period: None,
    };
    let life = run_lifetime(w, view, engine, after_crash, spans, None)?;
    r.check(life.stats.total_replayed == tail as u64, || {
        format!(
            "recovery replayed {} WAL rows, the image holds {tail}",
            life.stats.total_replayed
        )
    });
    let expected: Vec<f64> = image.control.scores[image.rows..]
        .iter()
        .map(|&(_, s)| s)
        .collect();
    check_lifetime(r, "after recovery", &life, &expected);
    Ok((recovery_s, life))
}

pub fn run(a: &RunArgs) -> Result<RunResult, String> {
    pin(Side::Detector);
    let _awake = IdleGuard::start();
    let work = WorkDir::create()?;
    let input = setup(&a.workload, a.seed, &work.0.join("stream.rows"))
        .map_err(|e| format!("set-up: {e}"))?;
    if a.trace {
        run_traced(a, &work, &input)
    } else {
        run_untraced(a, &work, &input)
    }
}

fn run_untraced(a: &RunArgs, work: &WorkDir, input: &Input) -> Result<RunResult, String> {
    let w = &a.workload;
    let view = input.file.view();
    let mut r = RunResult::new(w.name, a.quick);
    let reference = staged_replay(w, view, w.rows, None, None, None)?.scores;
    // Samples of the three timing metrics; each is reported as its median.
    let mut throughput = Vec::new();
    let (mut p50_ms, mut p90_ms) = (Vec::new(), Vec::new());
    let quality;
    if let Mode::Recover { tail } = w.mode {
        let image = build_image(w, view, work)?;
        check_lifetime(&mut r, "control", &image.control, &reference);
        quality = auc(w, &image.control.scores, &input.labels)?;
        let measuring = Instant::now();
        while throughput.len() < MIN_RECOVERIES || measuring.elapsed().as_secs_f64() < a.seconds {
            let before = r.violations.len();
            let (recovery_s, _) = recover_once(&mut r, w, view, work, &image, None)?;
            throughput.push(tail as f64 / recovery_s);
            p50_ms.push(recovery_s * 1e3);
            r.attempted += 1;
            r.failed += u64::from(r.violations.len() > before);
        }
    } else {
        let mut first = None;
        let mut lifetimes = 0;
        let measuring = Instant::now();
        loop {
            let life = engine_lifetime(w, view, work, a.seconds, None)?;
            r.failed += check_lifetime(&mut r, "engine", &life, &reference);
            r.attempted += life.rows;
            throughput.extend(steady_rates(&life));
            p50_ms.extend_from_slice(&life.block_p50_ms);
            p90_ms.extend_from_slice(&life.block_p90_ms);
            lifetimes += 1;
            first.get_or_insert(life.scores);
            // An open-loop lifetime is the whole schedule.
            if w.mode != Mode::Closed || measuring.elapsed().as_secs_f64() >= a.seconds {
                break;
            }
        }
        quality = auc(w, &first.expect("one lifetime ran"), &input.labels)?;
        r.findings.push(format!("{lifetimes} engine lifetimes"));
    }
    r.check(quality >= MIN_AUC, || {
        format!("auc {quality} below {MIN_AUC}")
    });
    r.set("throughput_pts_s", median(&mut throughput));
    // Recoveries are too few to block: their quantiles are taken directly.
    let p90 = if p90_ms.is_empty() {
        quantile(&mut p50_ms, 0.9)
    } else {
        median(&mut p90_ms)
    };
    r.set("latency_p50_ms", median(&mut p50_ms));
    r.set("latency_p90_ms", p90);
    r.set("auc", quality);
    r.set("peak_rss_mb", peak_rss_mb());
    r.set("setup_s", input.setup_s);
    r.findings.push(format!(
        "medians over {} throughput samples and {} latency samples",
        throughput.len(),
        p50_ms.len()
    ));
    Ok(r)
}

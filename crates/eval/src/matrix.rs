//! The meta-eval benchmark matrix: scenario families × sketch arms ×
//! memory budgets, run deterministically through the real detectors.
//!
//! A fixed experiment answers "how good is FD on synth-lowrank"; the matrix
//! answers the question every perf/scale PR actually raises — *did any
//! (scenario, sketch, budget) cell get worse?* Each cell executes one
//! seeded detector configuration over one seeded stream and records ranking
//! quality (AUC / AP / best-F1), detection delay, resident sketch bytes,
//! and wall-time into a single versioned artifact
//! (`sketchad-matrix/v1`, committed as `results/MATRIX_eval.json`) with a
//! per-scenario Pareto frontier (quality vs memory) on top.
//!
//! The budget axis follows the sketch-size theory (Sharan et al., and
//! [`sketchad_sketch::bounds::required_fd_size`]): a covariance error
//! target ε maps to ℓ = k + ⌈1/ε⌉ rows, so the `low`/`mid`/`high` tiers
//! are three points on that curve rather than arbitrary sizes, paired with
//! a refresh cadence that tightens as the budget grows.
//!
//! Determinism contract: everything inside [`CellMetrics`] is a pure
//! function of the cell key — streams are seeded generators, per-cell
//! detector seeds are derived by hashing the key, and cells are mutually
//! independent. Two runs of the same cell set are byte-identical there;
//! wall-time lives in the separate [`CellCost`] block, which regression
//! gates must ignore.

use std::path::Path;

use serde::{Deserialize, Serialize};

use sketchad_core::{DetectorConfig, RefreshPolicy, StreamingDetector};
use sketchad_sketch::bounds::required_fd_size;
use sketchad_streams::{DatasetScale, LabeledStream};

use crate::host::HostMeta;
use crate::metrics::{average_precision, best_f1, detection_delay, normal_score_quantile, roc_auc};
use crate::select::ScoreAveragingEnsemble;
use crate::timing::Stopwatch;

/// Schema tag stamped into every matrix artifact.
pub const MATRIX_SCHEMA: &str = "sketchad-matrix/v1";

/// False-positive budget behind the delay threshold: the detection-delay
/// threshold is the `1 − NORMAL_FP_RATE` quantile of post-warmup normal
/// scores (a 2% alert rate on clean traffic).
pub(crate) const NORMAL_FP_RATE: f64 = 0.02;

/// The sketch arms the matrix sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SketchArm {
    /// Frequent directions (deterministic).
    Fd,
    /// Gaussian random projection.
    Rp,
    /// CountSketch hashing.
    Cs,
    /// Sparse Johnson–Lindenstrauss embedding.
    Sjl,
    /// Score-averaging ensemble of the four single arms.
    Ensemble,
}

impl SketchArm {
    /// The four single-sketch arms (everything except the ensemble).
    pub(crate) const SINGLES: [SketchArm; 4] =
        [SketchArm::Fd, SketchArm::Rp, SketchArm::Cs, SketchArm::Sjl];

    /// Stable artifact label.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            SketchArm::Fd => "fd",
            SketchArm::Rp => "rp",
            SketchArm::Cs => "cs",
            SketchArm::Sjl => "sjl",
            SketchArm::Ensemble => "ensemble",
        }
    }
}

/// Memory-budget tier: a point on the ε → ℓ sketch-size curve plus the
/// refresh cadence the budget buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BudgetTier {
    /// ε = 0.5 → ℓ = k + 2, refresh every 128 points.
    Low,
    /// ε = 0.125 → ℓ = k + 8, refresh every 64 points (the anchor tier).
    Mid,
    /// ε = 0.02 → ℓ = k + 50, refresh every 32 points.
    High,
}

impl BudgetTier {
    /// All tiers, cheapest first.
    pub(crate) const ALL: [BudgetTier; 3] = [BudgetTier::Low, BudgetTier::Mid, BudgetTier::High];

    /// Stable artifact label.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            BudgetTier::Low => "low",
            BudgetTier::Mid => "mid",
            BudgetTier::High => "high",
        }
    }

    /// Covariance error target ε fed to
    /// [`sketchad_sketch::bounds::required_fd_size`].
    pub(crate) fn eps(&self) -> f64 {
        match self {
            BudgetTier::Low => 0.5,
            BudgetTier::Mid => 0.125,
            BudgetTier::High => 0.02,
        }
    }

    /// Model-refresh period the tier runs at.
    pub(crate) fn refresh_period(&self) -> usize {
        match self {
            BudgetTier::Low => 128,
            BudgetTier::Mid => 64,
            BudgetTier::High => 32,
        }
    }
}

/// What to run: the stream scale and whether to restrict to the anchored
/// smoke subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixSpec {
    /// Stream scale for every scenario.
    pub scale: DatasetScale,
    /// When set, run only the anchored (mid-budget) cells — the subset the
    /// CI quality gate re-executes and compares against the committed
    /// artifact.
    pub smoke: bool,
}

impl Default for MatrixSpec {
    /// The configuration that produces the committed artifact: the full
    /// grid at `Small` scale (deterministic and fast enough for CI).
    fn default() -> Self {
        Self {
            scale: DatasetScale::Small,
            smoke: false,
        }
    }
}

/// Resolved per-cell detector parameters (recorded in the artifact so a
/// cell is reproducible from its JSON alone).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellParams {
    /// Model rank.
    pub k: usize,
    /// Sketch size ℓ (rows).
    pub ell: usize,
    /// Covariance error target ε behind `ell`.
    pub eps: f64,
    /// Periodic refresh cadence (points).
    pub refresh_period: usize,
    /// Warmup length (points).
    pub warmup: usize,
    /// Detector seed (derived from the cell key).
    pub seed: u64,
}

/// Deterministic quality/memory measurements of one cell. Two runs of the
/// same cell produce identical values here — the regression gate compares
/// exactly this block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellMetrics {
    /// ROC-AUC over post-warmup points (`None` when a class is absent).
    pub auc: Option<f64>,
    /// Average precision over post-warmup points.
    pub ap: Option<f64>,
    /// Best achievable F1 over post-warmup points.
    pub best_f1: Option<f64>,
    /// Mean detection delay (points) over anomaly episodes, at the
    /// `NORMAL_FP_RATE` operating threshold.
    pub detection_delay: Option<f64>,
    /// Resident sketch bytes at end of stream.
    pub sketch_bytes: usize,
    /// Points processed.
    pub points: usize,
    /// Stream dimensionality.
    pub dim: usize,
}

/// Nondeterministic cost measurements of one cell (excluded from the
/// determinism contract and from gate comparisons; kept so eval-cost drift
/// across PRs stays visible).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellCost {
    /// Wall-clock seconds for the cell's stream pass.
    pub seconds: f64,
    /// Throughput over the cell's stream pass.
    pub points_per_sec: f64,
}

/// One executed matrix cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixCell {
    /// Scenario family (stream generator name).
    pub scenario: String,
    /// Sketch arm label (`fd` / `rp` / `cs` / `sjl` / `ensemble`).
    pub sketch: String,
    /// Budget tier label (`low` / `mid` / `high`).
    pub budget: String,
    /// True for cells in the smoke subset the CI gate re-runs.
    pub anchor: bool,
    /// Resolved detector parameters.
    pub params: CellParams,
    /// Deterministic quality/memory metrics.
    pub metrics: CellMetrics,
    /// Nondeterministic wall-time cost.
    pub cost: CellCost,
}

impl MatrixCell {
    /// Stable cell key: `scenario/sketch/budget`.
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.scenario, self.sketch, self.budget)
    }
}

/// One point on a scenario's quality-vs-memory Pareto frontier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierPoint {
    /// Sketch arm label.
    pub sketch: String,
    /// Budget tier label.
    pub budget: String,
    /// The cell's AUC.
    pub auc: f64,
    /// The cell's resident sketch bytes.
    pub sketch_bytes: usize,
}

/// The non-dominated cells of one scenario (maximize AUC, minimize bytes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioFrontier {
    /// Scenario family.
    pub scenario: String,
    /// Non-dominated points, cheapest first.
    pub frontier: Vec<FrontierPoint>,
}

/// The complete versioned matrix artifact (`sketchad-matrix/v1`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixArtifact {
    /// Schema tag ([`MATRIX_SCHEMA`]).
    pub schema: String,
    /// Artifact id (matches the file stem, e.g. `MATRIX_eval`).
    pub id: String,
    /// One-line description.
    pub description: String,
    /// Stream scale the cells ran at (`"small"` / `"full"`).
    pub scale: String,
    /// True when only the anchored smoke subset was run.
    pub smoke: bool,
    /// Machine facts for the run that produced the cost numbers.
    pub host: HostMeta,
    /// Total wall-clock seconds for the whole matrix run.
    pub total_seconds: f64,
    /// Executed cells.
    pub cells: Vec<MatrixCell>,
    /// Per-scenario Pareto frontiers over the cells.
    pub pareto: Vec<ScenarioFrontier>,
}

impl MatrixArtifact {
    /// Serializes the artifact as pretty JSON to `path` (creating parent
    /// directories), mirroring [`ExperimentReport`](crate::ExperimentReport).
    ///
    /// # Errors
    /// Propagates filesystem and serialization errors.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        w.write_all(json.as_bytes())?;
        w.write_all(b"\n")?;
        Ok(())
    }

    /// Reads an artifact back from JSON, rejecting unknown schema tags.
    ///
    /// # Errors
    /// Propagates filesystem/deserialization errors; a wrong `schema` tag
    /// is reported as `InvalidData`.
    pub fn read_json(path: &Path) -> std::io::Result<Self> {
        let data = std::fs::read_to_string(path)?;
        let artifact: Self = serde_json::from_str(&data)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        if artifact.schema != MATRIX_SCHEMA {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "unsupported matrix schema {:?} (expected {MATRIX_SCHEMA:?})",
                    artifact.schema
                ),
            ));
        }
        Ok(artifact)
    }

    /// The anchored cells, keyed for gate comparison.
    pub fn anchored(&self) -> impl Iterator<Item = &MatrixCell> {
        self.cells.iter().filter(|c| c.anchor)
    }
}

/// The scenario families the matrix sweeps, in presentation order: the six
/// standard datasets plus the two drift scenarios.
pub(crate) fn scenario_names() -> Vec<&'static str> {
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

/// Generates the named scenario stream at `scale` (`None` for an unknown
/// name).
pub(crate) fn scenario_stream(name: &str, scale: DatasetScale) -> Option<LabeledStream> {
    match name {
        "synth-lowrank" => Some(sketchad_streams::synth_lowrank(scale)),
        "synth-burst" => Some(sketchad_streams::synth_burst(scale)),
        "synth-powerlaw" => Some(sketchad_streams::synth_powerlaw(scale)),
        "p53-like" => Some(sketchad_streams::p53_like(scale)),
        "dorothea-like" => Some(sketchad_streams::dorothea_like(scale)),
        "rcv1-like" => Some(sketchad_streams::rcv1_like(scale)),
        "synth-drift" => Some(sketchad_streams::synth_drift(scale)),
        "synth-rotate" => Some(sketchad_streams::synth_rotate(scale)),
        _ => None,
    }
}

/// Model rank per scenario, following the experiment-harness convention:
/// the sparse prototype stream gets the larger rank, capped at `dim / 2`.
pub(crate) fn rank_for_scenario(scenario: &str, dim: usize) -> usize {
    let base = if scenario == "dorothea-like" { 24 } else { 10 };
    base.min((dim / 2).max(2))
}

/// Derives the per-cell detector seed from the cell key (FNV-1a over the
/// key, finalized splitmix-style), so cells are independent of grid order
/// and a smoke subset reproduces exactly the anchored cells of a full run.
pub fn cell_seed(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finalizer.
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// One grid entry: a cell yet to be executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GridEntry {
    /// Scenario index into [`scenario_names`].
    pub(crate) scenario: &'static str,
    /// Sketch arm.
    pub(crate) sketch: SketchArm,
    /// Budget tier.
    pub(crate) budget: BudgetTier,
    /// Whether the cell is gate-anchored.
    pub(crate) anchor: bool,
}

/// Builds the declarative cell grid. The full grid runs every single-sketch
/// arm at every budget tier plus the ensemble at the anchor (mid) tier; the
/// smoke grid is exactly the anchored subset, so smoke metrics are
/// comparable cell-for-cell against a committed full run.
pub(crate) fn build_grid(smoke: bool) -> Vec<GridEntry> {
    let mut grid = Vec::new();
    for scenario in scenario_names() {
        for arm in SketchArm::SINGLES {
            for budget in BudgetTier::ALL {
                let anchor = budget == BudgetTier::Mid;
                if smoke && !anchor {
                    continue;
                }
                grid.push(GridEntry {
                    scenario,
                    sketch: arm,
                    budget,
                    anchor,
                });
            }
        }
        grid.push(GridEntry {
            scenario,
            sketch: SketchArm::Ensemble,
            budget: BudgetTier::Mid,
            anchor: true,
        });
    }
    grid
}

/// Resolves the detector parameters for a grid entry against its stream.
pub(crate) fn resolve_params(entry: &GridEntry, stream: &LabeledStream) -> CellParams {
    let k = rank_for_scenario(entry.scenario, stream.dim);
    let eps = entry.budget.eps();
    // Sharan et al.-style sizing: ℓ = k + ⌈1/ε⌉, capped at the ambient
    // dimension (a sketch wider than d buys nothing).
    let ell = required_fd_size(k, eps).min(stream.dim);
    let key = format!(
        "{}/{}/{}",
        entry.scenario,
        entry.sketch.label(),
        entry.budget.label()
    );
    CellParams {
        k,
        ell,
        eps,
        refresh_period: entry.budget.refresh_period(),
        warmup: (stream.len() / 8).max(64),
        seed: cell_seed(&key),
    }
}

fn detector_config(params: &CellParams) -> DetectorConfig {
    DetectorConfig::new(params.k, params.ell)
        .with_refresh(RefreshPolicy::Periodic {
            period: params.refresh_period,
        })
        .with_warmup(params.warmup)
        .with_seed(params.seed)
}

fn build_detector(arm: SketchArm, params: &CellParams, dim: usize) -> Box<dyn StreamingDetector> {
    let cfg = detector_config(params);
    match arm {
        SketchArm::Fd => Box::new(cfg.build_fd(dim)),
        SketchArm::Rp => Box::new(cfg.build_rp(dim)),
        SketchArm::Cs => Box::new(cfg.build_cs(dim)),
        SketchArm::Sjl => Box::new(cfg.build_sjl(dim)),
        SketchArm::Ensemble => Box::new(ScoreAveragingEnsemble::from_config(&cfg, dim)),
    }
}

/// Executes one cell: runs the detector over the stream and evaluates the
/// post-warmup scores.
pub(crate) fn run_cell(entry: &GridEntry, stream: &LabeledStream) -> MatrixCell {
    let params = resolve_params(entry, stream);
    let mut detector = build_detector(entry.sketch, &params, stream.dim);
    let watch = Stopwatch::start();
    let mut scores = Vec::with_capacity(stream.len());
    for (row, _) in stream.iter() {
        scores.push(detector.process(row));
    }
    let seconds = watch.seconds();

    // Warmup scores are a conventional 0.0 — evaluate strictly after.
    let skip = params.warmup.min(scores.len());
    let post = &scores[skip..];
    let labels_all = stream.labels();
    let labels = &labels_all[skip..];

    let threshold = normal_score_quantile(post, labels, 1.0 - NORMAL_FP_RATE);
    let metrics = CellMetrics {
        auc: roc_auc(post, labels),
        ap: average_precision(post, labels),
        best_f1: best_f1(post, labels),
        detection_delay: threshold.and_then(|t| detection_delay(post, labels, t)),
        sketch_bytes: detector.sketch_resident_bytes().unwrap_or(0),
        points: stream.len(),
        dim: stream.dim,
    };
    let cost = CellCost {
        seconds,
        points_per_sec: if seconds > 0.0 {
            stream.len() as f64 / seconds
        } else {
            0.0
        },
    };
    MatrixCell {
        scenario: entry.scenario.to_string(),
        sketch: entry.sketch.label().to_string(),
        budget: entry.budget.label().to_string(),
        anchor: entry.anchor,
        params,
        metrics,
        cost,
    }
}

/// Extracts the per-scenario Pareto frontiers (maximize AUC, minimize
/// resident bytes) from a cell set. Cells without a defined AUC are
/// excluded. The result is invariant to the input cell order: domination
/// is pairwise and the output is canonically sorted (scenarios
/// alphabetically, frontier points cheapest-first with deterministic
/// tie-breaks).
pub fn pareto_frontiers(cells: &[MatrixCell]) -> Vec<ScenarioFrontier> {
    let mut scenarios: Vec<&str> = cells.iter().map(|c| c.scenario.as_str()).collect();
    scenarios.sort_unstable();
    scenarios.dedup();

    let mut out = Vec::with_capacity(scenarios.len());
    for scenario in scenarios {
        let candidates: Vec<&MatrixCell> = cells
            .iter()
            .filter(|c| c.scenario == scenario && c.metrics.auc.is_some())
            .collect();
        let mut frontier: Vec<FrontierPoint> = candidates
            .iter()
            .filter(|c| {
                let (auc, bytes) = (c.metrics.auc.unwrap(), c.metrics.sketch_bytes);
                // Dominated iff some other cell is at least as good on both
                // axes and strictly better on one.
                !candidates.iter().any(|o| {
                    let (oa, ob) = (o.metrics.auc.unwrap(), o.metrics.sketch_bytes);
                    oa >= auc && ob <= bytes && (oa > auc || ob < bytes)
                })
            })
            .map(|c| FrontierPoint {
                sketch: c.sketch.clone(),
                budget: c.budget.clone(),
                auc: c.metrics.auc.unwrap(),
                sketch_bytes: c.metrics.sketch_bytes,
            })
            .collect();
        frontier.sort_by(|a, b| {
            a.sketch_bytes
                .cmp(&b.sketch_bytes)
                .then(b.auc.partial_cmp(&a.auc).expect("AUC is never NaN"))
                .then_with(|| a.sketch.cmp(&b.sketch))
                .then_with(|| a.budget.cmp(&b.budget))
        });
        out.push(ScenarioFrontier {
            scenario: scenario.to_string(),
            frontier,
        });
    }
    out
}

fn scale_label(scale: DatasetScale) -> &'static str {
    match scale {
        DatasetScale::Full => "full",
        DatasetScale::Small => "small",
    }
}

/// Runs the whole matrix, invoking `progress` after each finished cell.
pub fn run_matrix_with_progress(
    spec: &MatrixSpec,
    mut progress: impl FnMut(&MatrixCell),
) -> MatrixArtifact {
    let watch = Stopwatch::start();
    let grid = build_grid(spec.smoke);
    let mut cells: Vec<MatrixCell> = Vec::with_capacity(grid.len());
    let mut current: Option<(&'static str, LabeledStream)> = None;
    for entry in &grid {
        // The grid is grouped by scenario; regenerate only on change.
        let regen = match &current {
            Some((name, _)) => *name != entry.scenario,
            None => true,
        };
        if regen {
            let stream = scenario_stream(entry.scenario, spec.scale)
                .expect("grid scenarios are always known");
            current = Some((entry.scenario, stream));
        }
        let stream = &current.as_ref().expect("stream just generated").1;
        let cell = run_cell(entry, stream);
        progress(&cell);
        cells.push(cell);
    }
    let pareto = pareto_frontiers(&cells);
    MatrixArtifact {
        schema: MATRIX_SCHEMA.to_string(),
        id: "MATRIX_eval".to_string(),
        description: format!(
            "benchmark matrix: {} scenario families x sketch arms x memory budgets ({} cells)",
            scenario_names().len(),
            cells.len()
        ),
        scale: scale_label(spec.scale).to_string(),
        smoke: spec.smoke,
        host: HostMeta::capture(),
        total_seconds: watch.seconds(),
        cells,
        pareto,
    }
}

/// Regression tolerances for the quality gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateTolerance {
    /// Maximum tolerated AUC drop in any anchored cell.
    pub max_auc_drop: f64,
    /// Maximum tolerated multiplicative delay growth (1.2 = +20%).
    pub max_delay_ratio: f64,
    /// Additive delay slack (points) so a near-zero baseline delay does not
    /// turn the ratio test into a zero-tolerance test.
    pub delay_slack: f64,
}

impl Default for GateTolerance {
    /// The documented CI policy: AUC may drop at most 0.02, delay may grow
    /// at most 20% (plus one point of slack).
    fn default() -> Self {
        Self {
            max_auc_drop: 0.02,
            max_delay_ratio: 1.2,
            delay_slack: 1.0,
        }
    }
}

/// Compares the anchored cells of a freshly-run matrix against a committed
/// baseline, returning one human-readable violation per regression. Empty
/// means the gate passes.
///
/// Only the deterministic [`CellMetrics`] block is compared; wall-time is
/// explicitly out of scope. A baseline anchored cell missing from the
/// fresh run is itself a violation — cells cannot silently vanish.
pub fn compare_anchored(
    baseline: &MatrixArtifact,
    fresh: &MatrixArtifact,
    tol: &GateTolerance,
) -> Vec<String> {
    let mut violations = Vec::new();
    for base in baseline.anchored() {
        let key = base.key();
        let Some(new) = fresh.cells.iter().find(|c| c.anchor && c.key() == key) else {
            violations.push(format!("{key}: anchored cell missing from fresh run"));
            continue;
        };
        match (base.metrics.auc, new.metrics.auc) {
            (Some(b), Some(n)) => {
                if b - n > tol.max_auc_drop {
                    violations.push(format!(
                        "{key}: AUC dropped {b:.4} -> {n:.4} (tolerance {})",
                        tol.max_auc_drop
                    ));
                }
            }
            (Some(b), None) => {
                violations.push(format!("{key}: AUC became undefined (baseline {b:.4})"));
            }
            (None, _) => {}
        }
        match (base.metrics.detection_delay, new.metrics.detection_delay) {
            (Some(b), Some(n)) => {
                let limit = (b * tol.max_delay_ratio).max(b + tol.delay_slack);
                if n > limit {
                    violations.push(format!(
                        "{key}: detection delay regressed {b:.2} -> {n:.2} (limit {limit:.2})"
                    ));
                }
            }
            (Some(b), None) => {
                violations.push(format!(
                    "{key}: detection delay became undefined (baseline {b:.2})"
                ));
            }
            (None, _) => {}
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shape_and_anchors() {
        let full = build_grid(false);
        // 8 scenarios × (4 arms × 3 budgets + ensemble@mid).
        assert_eq!(full.len(), 8 * (4 * 3 + 1));
        let smoke = build_grid(true);
        assert_eq!(smoke.len(), 8 * 5);
        assert!(smoke.iter().all(|e| e.anchor));
        // The smoke grid is exactly the anchored subset of the full grid.
        let anchored: Vec<&GridEntry> = full.iter().filter(|e| e.anchor).collect();
        assert_eq!(anchored.len(), smoke.len());
        for (a, s) in anchored.iter().zip(smoke.iter()) {
            assert_eq!(**a, *s);
        }
    }

    #[test]
    fn every_grid_scenario_resolves_to_a_stream() {
        for name in scenario_names() {
            assert!(
                scenario_stream(name, DatasetScale::Small).is_some(),
                "{name} has no generator"
            );
        }
        assert!(scenario_stream("no-such-stream", DatasetScale::Small).is_none());
    }

    #[test]
    fn cell_seeds_differ_across_keys_and_repeat_within() {
        let a = cell_seed("synth-lowrank/fd/mid");
        let b = cell_seed("synth-lowrank/rp/mid");
        let c = cell_seed("synth-lowrank/fd/high");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, cell_seed("synth-lowrank/fd/mid"));
    }

    #[test]
    fn budget_tiers_order_ell_and_refresh() {
        let dim = 200;
        let k = 10;
        let sizes: Vec<usize> = BudgetTier::ALL
            .iter()
            .map(|b| required_fd_size(k, b.eps()).min(dim))
            .collect();
        assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2], "{sizes:?}");
        assert!(BudgetTier::Low.refresh_period() > BudgetTier::High.refresh_period());
    }

    fn synthetic_cell(
        scenario: &str,
        sketch: &str,
        budget: &str,
        auc: Option<f64>,
        bytes: usize,
        delay: Option<f64>,
    ) -> MatrixCell {
        MatrixCell {
            scenario: scenario.into(),
            sketch: sketch.into(),
            budget: budget.into(),
            anchor: budget == "mid",
            params: CellParams {
                k: 10,
                ell: 18,
                eps: 0.125,
                refresh_period: 64,
                warmup: 64,
                seed: 1,
            },
            metrics: CellMetrics {
                auc,
                ap: auc,
                best_f1: auc,
                detection_delay: delay,
                sketch_bytes: bytes,
                points: 400,
                dim: 20,
            },
            cost: CellCost {
                seconds: 0.1,
                points_per_sec: 4000.0,
            },
        }
    }

    #[test]
    fn pareto_keeps_only_nondominated_cells() {
        let cells = vec![
            synthetic_cell("s", "fd", "low", Some(0.90), 100, Some(1.0)),
            synthetic_cell("s", "rp", "mid", Some(0.95), 200, Some(1.0)),
            // Dominated: worse AUC at more bytes than rp/mid.
            synthetic_cell("s", "cs", "high", Some(0.94), 300, Some(1.0)),
            // No AUC: excluded.
            synthetic_cell("s", "sjl", "mid", None, 50, None),
        ];
        let fronts = pareto_frontiers(&cells);
        assert_eq!(fronts.len(), 1);
        let labels: Vec<&str> = fronts[0]
            .frontier
            .iter()
            .map(|p| p.sketch.as_str())
            .collect();
        assert_eq!(labels, vec!["fd", "rp"]);
    }

    #[test]
    fn pareto_keeps_exact_ties() {
        let cells = vec![
            synthetic_cell("s", "fd", "mid", Some(0.9), 100, None),
            synthetic_cell("s", "rp", "mid", Some(0.9), 100, None),
        ];
        let fronts = pareto_frontiers(&cells);
        assert_eq!(fronts[0].frontier.len(), 2, "equal cells both survive");
    }

    #[test]
    fn small_cell_runs_end_to_end() {
        let entry = GridEntry {
            scenario: "synth-lowrank",
            sketch: SketchArm::Fd,
            budget: BudgetTier::Mid,
            anchor: true,
        };
        let stream = scenario_stream("synth-lowrank", DatasetScale::Small)
            .unwrap()
            .truncated(600);
        let cell = run_cell(&entry, &stream);
        assert_eq!(cell.key(), "synth-lowrank/fd/mid");
        assert!(cell.metrics.sketch_bytes > 0);
        assert!(cell.metrics.auc.is_some());
        assert!(cell.cost.seconds >= 0.0);
        // FD at ℓ=18 on a clean low-rank stream must separate well.
        assert!(cell.metrics.auc.unwrap() > 0.8, "{:?}", cell.metrics.auc);
    }

    #[test]
    fn run_cell_is_deterministic_in_metrics() {
        let entry = GridEntry {
            scenario: "synth-burst",
            sketch: SketchArm::Rp,
            budget: BudgetTier::Mid,
            anchor: true,
        };
        let stream = scenario_stream("synth-burst", DatasetScale::Small)
            .unwrap()
            .truncated(600);
        let a = run_cell(&entry, &stream);
        let b = run_cell(&entry, &stream);
        assert_eq!(a.metrics, b.metrics, "cell metrics must be bit-identical");
    }

    #[test]
    fn gate_flags_auc_and_delay_regressions() {
        let base_cells = vec![synthetic_cell("s", "fd", "mid", Some(0.95), 100, Some(2.0))];
        let baseline = MatrixArtifact {
            schema: MATRIX_SCHEMA.into(),
            id: "MATRIX_eval".into(),
            description: "test".into(),
            scale: "small".into(),
            smoke: false,
            host: HostMeta::capture(),
            total_seconds: 0.1,
            pareto: pareto_frontiers(&base_cells),
            cells: base_cells,
        };
        let tol = GateTolerance::default();

        // Identical fresh run: clean.
        assert!(compare_anchored(&baseline, &baseline, &tol).is_empty());

        // AUC regression beyond tolerance.
        let mut worse = baseline.clone();
        worse.cells[0].metrics.auc = Some(0.90);
        let v = compare_anchored(&baseline, &worse, &tol);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("AUC dropped"));

        // Delay regression beyond ratio + slack.
        let mut slower = baseline.clone();
        slower.cells[0].metrics.detection_delay = Some(4.0);
        let v = compare_anchored(&baseline, &slower, &tol);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("delay regressed"));

        // Within tolerance: AUC −0.01 and delay ×1.1 pass.
        let mut ok = baseline.clone();
        ok.cells[0].metrics.auc = Some(0.94);
        ok.cells[0].metrics.detection_delay = Some(2.2);
        assert!(compare_anchored(&baseline, &ok, &tol).is_empty());

        // Missing anchored cell.
        let mut missing = baseline.clone();
        missing.cells.clear();
        let v = compare_anchored(&baseline, &missing, &tol);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("missing"));
    }

    #[test]
    fn artifact_roundtrips_and_rejects_bad_schema() {
        let cells = vec![synthetic_cell("s", "fd", "mid", Some(0.9), 100, Some(1.0))];
        let artifact = MatrixArtifact {
            schema: MATRIX_SCHEMA.into(),
            id: "MATRIX_eval".into(),
            description: "roundtrip".into(),
            scale: "small".into(),
            smoke: false,
            host: HostMeta::capture(),
            total_seconds: 0.5,
            pareto: pareto_frontiers(&cells),
            cells,
        };
        let mut path = std::env::temp_dir();
        path.push(format!("sketchad-matrix-{}.json", std::process::id()));
        artifact.write_json(&path).unwrap();
        let back = MatrixArtifact::read_json(&path).unwrap();
        assert_eq!(back, artifact);

        let mut bad = artifact.clone();
        bad.schema = "sketchad-matrix/v0".into();
        bad.write_json(&path).unwrap();
        assert!(MatrixArtifact::read_json(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}

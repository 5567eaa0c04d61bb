//! `matrix`: run the scenario × sketch × budget sweep and write the
//! versioned artifact (`run`), render a committed artifact as tables
//! (`report`), or derive the per-scenario-family configuration
//! recommendation from it (`select`).

use std::path::Path;

use sketchad_eval::{
    fmt_f, fmt_opt, recommend, run_matrix_with_progress, MatrixArtifact, MatrixSpec, Table,
};
use sketchad_streams::DatasetScale;

use crate::args::{Args, Command};

pub const COMMAND: Command = Command {
    name: "matrix",
    options: &[&["[run|report|select] [--smoke] [--full] [--out FILE] [--input FILE] [--quiet]"]],
    run,
};

/// Default location of the committed benchmark-matrix artifact.
const MATRIX_ARTIFACT: &str = "results/MATRIX_eval.json";

fn run(p: &Args) -> Result<(), String> {
    // The mode is a positional (`matrix select`); bare `matrix` runs.
    let mode = p.positional.as_deref().unwrap_or("run");
    match mode {
        "run" => {
            let out = p.get("out").unwrap_or(MATRIX_ARTIFACT);
            let spec = MatrixSpec {
                scale: if p.flag("full") {
                    DatasetScale::Full
                } else {
                    DatasetScale::Small
                },
                smoke: p.flag("smoke"),
            };
            let quiet = p.flag("quiet");
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
            let input = p.get("input").unwrap_or(MATRIX_ARTIFACT);
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
            let input = p.get("input").unwrap_or(MATRIX_ARTIFACT);
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

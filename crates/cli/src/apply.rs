//! `apply`: score-only serving — load a persisted model and score a stream
//! against it without any model updates (deployment after offline training).

use sketchad_core::ScoreScratch;
use sketchad_eval::{fmt_opt, roc_auc};

use crate::args::{for_each_block, read_stream, write_scores, Args, Command};
use crate::score::SavedModel;

pub const COMMAND: Command = Command {
    name: "apply",
    options: &[&["--model FILE --input FILE [--output FILE] [--quiet]"]],
    run,
};

fn run(p: &Args) -> Result<(), String> {
    let raw = std::fs::read_to_string(p.required("model")?).map_err(|e| e.to_string())?;
    let saved: SavedModel = serde_json::from_str(&raw).map_err(|e| e.to_string())?;
    let stream = read_stream(p.required("input")?)?;
    if stream.dim != saved.model.dim() {
        return Err(format!(
            "model dimension {} does not match stream dimension {}",
            saved.model.dim(),
            stream.dim
        ));
    }

    // Score-only inference runs through the batched `V_kᵀY` kernel (bitwise
    // identical to per-point `evaluate`), reusing one scratch across blocks.
    let mut scores: Vec<f64> = Vec::with_capacity(stream.len());
    let mut scratch = ScoreScratch::new();
    let mut block_scores = Vec::new();
    for_each_block(&stream, |block| {
        saved
            .model
            .score_block_into(block, saved.score, &mut scratch, &mut block_scores);
        scores.extend_from_slice(&block_scores);
    });

    let quiet = p.flag("quiet");
    if !quiet {
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
    if let Some(output) = p.get("output") {
        write_scores(output, (0..).zip(scores), None, quiet)?;
    }
    Ok(())
}

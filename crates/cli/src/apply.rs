//! `apply`: score-only serving — load a persisted model and score a stream
//! against it without any model updates (deployment after offline training).

use sketchad_core::ScoreScratch;
use sketchad_eval::{fmt_opt, roc_auc};

use crate::args::{open_input, write_scores, Args, Command, CLI_BATCH};
use crate::score::SavedModel;

pub const COMMAND: Command = Command {
    name: "apply",
    options: &[&["--model FILE --input FILE [--output FILE] [--quiet]"]],
    run,
};

fn run(p: &Args) -> Result<(), String> {
    let raw = std::fs::read_to_string(p.required("model")?).map_err(|e| e.to_string())?;
    let saved: SavedModel = serde_json::from_str(&raw).map_err(|e| e.to_string())?;
    let mut input = open_input(p.required("input")?)?;
    if input.dim() != saved.model.dim() {
        return Err(format!(
            "model dimension {} does not match stream dimension {}",
            saved.model.dim(),
            input.dim()
        ));
    }

    // Score-only inference runs through the batched `V_kᵀY` kernel (bitwise
    // identical to per-point `evaluate`), reusing one scratch across blocks.
    let (mut scores, mut labels) = (Vec::new(), Vec::new());
    let mut scratch = ScoreScratch::new();
    let mut block_scores = Vec::new();
    while let Some(block) = input.next_block(CLI_BATCH).map_err(|e| e.to_string())? {
        let values = block.rows.values();
        saved
            .model
            .score_block_into(values, saved.score, &mut scratch, &mut block_scores);
        scores.extend_from_slice(&block_scores);
        labels.extend_from_slice(block.labels);
    }

    let quiet = p.flag("quiet");
    if !quiet {
        println!(
            "applied saved model (k={}, trained on {} rows) to {} points",
            saved.model.k(),
            saved.model.rows_represented(),
            scores.len()
        );
        if labels.iter().any(|&l| l) && labels.iter().any(|&l| !l) {
            println!("ROC-AUC: {}", fmt_opt(roc_auc(&scores, &labels)));
        }
    }
    if let Some(output) = p.get("output") {
        write_scores(output, (0..).zip(scores), None, quiet)?;
    }
    Ok(())
}

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
//!
//! Each subcommand lives in its own module and declares its options once
//! (`args::Command`): that declaration is both the usage text and the set
//! of options the command accepts, so a misspelled option is an error.

mod apply;
mod args;
mod generate;
mod matrix;
mod pipeline;
mod recover;
mod score;
mod watch;

#[cfg(test)]
mod tests;

use std::process::ExitCode;

use args::Command;

/// Every subcommand, in usage order.
const COMMANDS: &[Command] = &[
    generate::COMMAND,
    score::COMMAND,
    apply::COMMAND,
    pipeline::COMMAND,
    matrix::COMMAND,
    recover::COMMAND,
    watch::COMMAND,
    Command {
        name: "datasets",
        options: &[],
        run: |_| {
            for name in args::dataset_names() {
                println!("{name}");
            }
            Ok(())
        },
    },
];

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{}", args::usage(COMMANDS));
            ExitCode::from(2)
        }
    }
}

fn run(raw: &[String]) -> Result<(), String> {
    if raw.iter().any(|arg| arg == "--help") {
        println!("{}", args::usage(COMMANDS));
        return Ok(());
    }
    let (command, parsed) = args::parse(COMMANDS, raw)?;
    (command.run)(&parsed)
}

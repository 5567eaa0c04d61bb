//! # sketchad-bench
//!
//! The experiment harness: everything needed to regenerate the tables and
//! figures of the paper's evaluation (see DESIGN.md §4 for the index).
//!
//! * [`harness`] — run a detector over a labeled stream and collect
//!   scores/latency, evaluate AUC/AP with the standard warmup-skip protocol,
//!   and build the method roster compared in T2/T3.
//! * the `experiments` binary (`src/bin/experiments.rs`) — one subcommand
//!   per table/figure id; `all` runs the full evaluation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;

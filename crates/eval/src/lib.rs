//! # sketchad-eval
//!
//! Evaluation machinery for the `sketchad` experiments: ranking metrics
//! ([`metrics`]), score-fidelity statistics (`correlation`), wall-clock
//! and latency measurement ([`timing`]), aligned text tables (`table`),
//! JSON result artifacts (`report`), host metadata (`host`), the
//! meta-eval benchmark matrix ([`matrix`]) and the detector-selection
//! layer on top of it (`select`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod correlation;
pub(crate) mod host;
pub mod matrix;
pub mod metrics;
pub(crate) mod report;
pub(crate) mod select;
pub(crate) mod table;
pub mod timing;

pub use correlation::{mean_relative_error, spearman};
pub use host::HostMeta;
pub use matrix::{pareto_frontiers, run_matrix_with_progress, MatrixArtifact, MatrixSpec};
pub use metrics::{average_precision, best_f1, precision_at_k, prequential_auc, roc_auc};
pub use report::{ExperimentReport, MethodResult, Series};
pub use select::{recommend, Recommendation};
pub use table::{fmt_f, fmt_opt, fmt_secs, Table};
pub use timing::Stopwatch;

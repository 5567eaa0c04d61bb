//! # sketchad-streams
//!
//! Workload generators, dataset substitutes and stream I/O for the
//! `sketchad` experiments.
//!
//! * [`generator`] — planted low-rank streams with three anomaly flavours
//!   (off-subspace, in-subspace extreme, correlated bursts) and a flat or
//!   geometrically decaying, gapped signal spectrum;
//! * [`drift`] — rotating-subspace and abrupt-switch drift scenarios;
//! * [`datasets`] — named, seeded substitutes for the paper's real datasets
//!   (see DESIGN.md §3 for the substitution table);
//! * [`io`] — stream persistence: inspectable CSV plus the zero-parse
//!   binary `sketchad-rows/v1` format for replay-heavy paths.
//!
//! Everything is deterministic given its seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod datasets;
pub mod drift;
pub mod generator;
pub mod io;
pub mod point;

pub use datasets::{
    dorothea_like, drift_datasets, p53_like, rcv1_like, standard_datasets, synth_burst,
    synth_drift, synth_lowrank, synth_powerlaw, synth_rotate, DatasetScale,
};
pub use drift::{generate_drift_stream, subspace_distance, DriftKind};
pub use generator::{
    generate_low_rank_stream, generate_low_rank_stream_with, AnomalyKind, LowRankGenerator,
    LowRankStreamConfig, Spectrum,
};
pub use io::{read_csv, read_rows, read_stream, write_csv, write_rows, IoError};
pub use point::{LabeledPoint, LabeledStream};

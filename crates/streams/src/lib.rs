//! # sketchad-streams
//!
//! Workload generators, dataset substitutes and stream I/O for the
//! `sketchad` experiments.
//!
//! * [`generator`] — planted low-rank streams with three anomaly flavours
//!   (off-subspace, in-subspace extreme, correlated bursts) and a flat
//!   signal spectrum (its tests also plant a geometrically decaying,
//!   gapped one);
//! * `drift` — rotating-subspace and abrupt-switch drift scenarios;
//! * `datasets` — named, seeded substitutes for the paper's real datasets
//!   (see DESIGN.md §3 for the substitution table);
//! * [`io`] — stream persistence: inspectable CSV plus the zero-parse
//!   binary `sketchad-rows/v1` format for replay-heavy paths.
//!
//! Everything is deterministic given its seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod datasets;
pub(crate) mod drift;
pub mod generator;
pub mod io;
pub(crate) mod point;

pub use datasets::{
    dorothea_like, drift_datasets, p53_like, rcv1_like, standard_datasets, synth_burst,
    synth_drift, synth_lowrank, synth_powerlaw, synth_rotate, DatasetScale,
};
pub use drift::{generate_drift_stream, DriftKind};
pub use generator::{generate_low_rank_stream, AnomalyKind, LowRankStreamConfig};
pub use point::{LabeledPoint, LabeledStream};

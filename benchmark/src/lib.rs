//! `skbench`: one end-to-end benchmark of the sketchad serving path.
//!
//! Seven workloads, each built to put a different layer on the critical
//! path, drive the real path (`.rows` file → `MmapRows` →
//! `RowsView::read_row_into` → `ServeEngine::submit_batch_rows_parallel` →
//! `finish()`) from one generator thread into one shard. An untraced run
//! reports the end-to-end metrics; a separate traced run reports per-layer
//! metrics measured from outside the program. See `README.md`.

pub mod drive;
pub mod gen;
pub mod isolate;
pub mod manifest;
pub mod place;
pub mod replay;
pub mod report;
pub mod run;
pub mod selfcheck;
pub mod spec;
pub mod trace;
pub mod traced;

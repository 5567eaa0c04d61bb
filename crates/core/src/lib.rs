//! # sketchad-core
//!
//! Streaming anomaly detection via randomized matrix sketching — a
//! from-scratch Rust reproduction of the VLDB 2015 paper *"Streaming Anomaly
//! Detection Using Randomized Matrix Sketching"*.
//!
//! ## The idea
//!
//! In high-dimensional streams, normal points lie close to the dominant
//! low-rank subspace of the history matrix. Each arriving point is scored by
//! how poorly the rank-k subspace explains it ([`SubspaceModel`]): the
//! projection-residual and leverage scores of [`ScoreKind`]. Computing that
//! subspace exactly needs the full covariance (the [`ExactSvdDetector`]
//! baseline, `O(d²)` memory); the paper's contribution is doing it from an
//! `O(ℓ·d)` **matrix sketch** with provable accuracy — [`SketchDetector`],
//! generic over every sketch in `sketchad-sketch`.
//!
//! ## Quick start
//!
//! ```
//! use sketchad_core::{DetectorConfig, StreamingDetector};
//!
//! // rank-4 model from a 32-row frequent-directions sketch
//! let mut det = DetectorConfig::new(4, 32).with_warmup(64).build_fd(16);
//!
//! // feed points that live on a 1-D line through R^16 …
//! let normal: Vec<f64> = (0..16).map(|i| (i as f64 * 0.3).sin()).collect();
//! for _ in 0..200 {
//!     det.process(&normal);
//! }
//! // … then an off-subspace point scores much higher
//! let mut outlier = vec![0.0; 16];
//! outlier[7] = 5.0;
//! let anomaly_score = det.score_only(&outlier).unwrap();
//! let normal_score = det.score_only(&normal).unwrap();
//! assert!(anomaly_score > 10.0 * (normal_score + 1e-9));
//! ```
//!
//! ## Module map
//!
//! * `subspace` — the rank-k model and both anomaly scores.
//! * `sketched` — [`SketchDetector`], the paper's streaming algorithm.
//! * `exact` — exact-SVD baselines (global and sliding-window).
//! * `baseline` — Oja incremental PCA, distance-to-mean, random control.
//! * `refresh` — model refresh policies (periodic / energy-triggered).
//! * `threshold` — P² streaming quantile + alerting wrapper.
//! * `normalize` — online z-scoring wrapper.
//! * `config` — [`DetectorConfig`] builder entry point.
//! * [`rowfmt`] — the `sketchad-rows/v1` binary row format: fixed-width
//!   f64-LE rows with an optional key column, readable with zero parse
//!   cost ([`rowfmt::RowsView`] / [`rowfmt::RowsWriter`]).
//! * [`mmapio`] — zero-copy replay backing: [`mmapio::MmapRows`] maps a
//!   rows file read-only (buffered fallback everywhere `mmap` isn't
//!   available) so replay never buffers whole files again.
//! * `block` — [`RowBlock`], the flat row-major block input rows travel
//!   in from a file to a detector or the serving engine, and [`Rows`],
//!   the engine's by-index view of it.
//! * `validate` — input hygiene ([`validate_point`]) for serving layers:
//!   non-finite and wrong-dimension rows are detected *before* they can
//!   poison a sketch or panic a worker.
//! * `detector` — the [`StreamingDetector`] trait every detector
//!   implements: mutating [`process`](StreamingDetector::process) plus the
//!   pure-read [`score_only`](StreamingDetector::score_only) used by
//!   concurrent scorers.
//!
//! ## Serving layer
//!
//! Detectors here are deliberately single-threaded. The `sketchad-serve`
//! crate layers concurrency on top without touching this crate's logic: it
//! partitions a stream across shards (one detector per shard, single
//! writer), publishes each shard's [`SubspaceModel`] as an immutable
//! snapshot for lock-free readers, and aggregates per-shard throughput and
//! latency metrics. The split works because [`SubspaceModel`] is an
//! immutable value once built and
//! [`score_only`](StreamingDetector::score_only) is contractually
//! non-mutating.

#![warn(missing_docs)]
// `deny`, not `forbid`: like linalg's SIMD kernels and serve's SPSC ring,
// the `mmapio::sys` module alone opts back in with a scoped
// `#[allow(unsafe_code)]` and documented invariants (read-only private
// mappings, unique munmap on drop). Everything else stays safe Rust.
#![deny(unsafe_code)]

pub(crate) mod baseline;
pub(crate) mod block;
pub(crate) mod config;
pub(crate) mod detector;
pub(crate) mod exact;
pub mod mmapio;
pub(crate) mod normalize;
pub(crate) mod refresh;
pub mod rowfmt;
pub(crate) mod score;
pub(crate) mod sketched;
pub(crate) mod subspace;
pub(crate) mod threshold;
pub(crate) mod validate;

/// Re-export of the observability layer (`sketchad-obs`) so downstream
/// crates can instrument detectors without a separate dependency:
/// build a [`obs::MetricsRecorder`], wrap it in a [`obs::RecorderHandle`],
/// and pass it to [`SketchDetector::with_recorder`].
pub use sketchad_obs as obs;

pub use baseline::{MeanDistanceDetector, OjaDetector, RandomScoreDetector};
pub use block::{RowBlock, Rows};
pub use config::DetectorConfig;
pub use detector::StreamingDetector;
pub use exact::{ExactSvdDetector, ExactWindowedDetector};
pub use mmapio::MmapRows;
pub use normalize::NormalizedDetector;
pub use refresh::RefreshPolicy;
pub use score::ScoreKind;
pub use sketched::{DecayConfig, SketchDetector, UpdatePolicy};
pub use subspace::{ScoreScratch, SubspaceModel};
pub use threshold::{Alert, QuantileEstimator, ThresholdedDetector};
pub use validate::{validate_point, InputViolation};

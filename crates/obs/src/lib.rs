//! # sketchad-obs
//!
//! Observability substrate for the detection pipeline: monotonic span
//! timers, counters, gauges, and a bounded structured event log, all behind
//! a cheap [`Recorder`] trait whose no-op default makes instrumented hot
//! paths free when metrics are disabled.
//!
//! ## Why a layer of our own
//!
//! The workspace is dependency-free by policy (the container builds
//! offline), so this crate implements the minimal slice of a
//! tracing/metrics stack the pipeline actually needs — nothing more:
//!
//! * **Spans** ([`Stage`]) — wall-clock timing of the per-point stages the
//!   ROADMAP cares about: sketch update, SVD refresh, scoring, snapshot
//!   publication. Aggregated as count / total / min / max per stage, not a
//!   trace tree: the pipeline is a flat loop and a full tracer would cost
//!   more than it tells.
//! * **Counters** ([`Counter`]) — monotone totals (updates skipped by the
//!   anomaly filter, points dropped at a full queue, …).
//! * **Gauges** ([`Gauge`]) — last/min/max of evolving health signals: the
//!   frequent-directions error certificate `Σδ`, captured model energy,
//!   queue depth.
//! * **Events** ([`Event`]) — a bounded log of discrete pipeline moments
//!   (refresh fired, snapshot published, queue blocked/dropped, sketch
//!   shrink) with drop-oldest overflow, so post-hoc analysis can see *when*
//!   things happened without unbounded memory.
//! * **Histograms** ([`Hist`] / [`LogHistogram`]) — HDR-style log-bucketed
//!   duration distributions (submit→score latency, refresh SVD time) with
//!   p50/p90/p99/p999 estimation at bounded relative error.
//!
//! ## The live tier
//!
//! End-of-run reports are blind to transients, so `timeseries` adds a
//! background [`Sampler`] that snapshots recorders into bounded
//! `TimeSeries` ring buffers while the pipeline runs, and `export`
//! ships those samples out with zero dependencies: Prometheus text
//! exposition over a tiny `std::net` HTTP endpoint ([`MetricsServer`]) and
//! a versioned JSONL flight recorder ([`FlightRecorder`],
//! [`TELEMETRY_SCHEMA`]). Sampling is a pure read — scores stay
//! bit-identical with the sampler running, just like with the recorder
//! itself.
//!
//! ## Recording, reporting, exporting
//!
//! Hot paths hold a [`RecorderHandle`] (a cheap cloneable `Arc`) and call
//! it unconditionally; the default handle is a no-op whose
//! [`enabled`](Recorder::enabled) gate lets call sites skip even the
//! `Instant::now()` reads. Enabling observability means swapping in a
//! [`MetricsRecorder`] — nothing else in the pipeline changes, and scores
//! are bit-identical either way (asserted by `crates/core`'s proptests).
//!
//! A [`MetricsRecorder`] snapshots into an [`ObsReport`] (serializable,
//! mergeable across shards, renderable as a human table) which wraps into a
//! versioned [`ObsArtifact`], the file the CLI's `--metrics-out` writes.
//!
//! ```
//! use sketchad_obs::{MetricsRecorder, RecorderHandle, Stage};
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(MetricsRecorder::new());
//! let handle = RecorderHandle::from(Arc::clone(&recorder) as Arc<_>);
//!
//! // … hand `handle` clones to the pipeline; hot paths do:
//! let value = handle.time(Stage::Score, || 2 + 2);
//! assert_eq!(value, 4);
//!
//! let report = recorder.snapshot();
//! assert_eq!(report.span(Stage::Score.label()).unwrap().count, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod event;
pub(crate) mod export;
pub(crate) mod hist;
pub(crate) mod metrics;
pub(crate) mod recorder;
pub(crate) mod report;
pub(crate) mod timeseries;

pub use event::Event;
pub use export::{FlightRecorder, MetricsServer, TelemetryRecord, TELEMETRY_SCHEMA};
pub use hist::LogHistogram;
pub use metrics::MetricsRecorder;
pub use recorder::{Counter, Gauge, Hist, Recorder, RecorderHandle, Stage};
pub use report::{GaugeStats, ObsArtifact, ObsReport, SpanStats, OBS_SCHEMA};
pub use timeseries::{FrameSink, Sampler, SamplerConfig, SeriesStore, TelemetryFrame};

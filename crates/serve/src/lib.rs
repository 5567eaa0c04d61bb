//! # sketchad-serve
//!
//! Sharded concurrent serving engine for streaming anomaly detection —
//! std-only (threads + bounded queues), no external runtime.
//!
//! ## Write-shard / read-snapshot split
//!
//! A [`StreamingDetector`](sketchad_core::StreamingDetector) is inherently
//! a single-writer structure: `process` mutates the sketch. This crate
//! scales it two ways at once:
//!
//! * **Writes shard.** [`ServeEngine`] partitions arriving points across
//!   `N` worker shards (round-robin, or stable key-hash so a key's points
//!   always meet the same model). Each shard owns one detector behind a
//!   bounded queue with configurable backpressure — [`Block`] never loses a
//!   point, [`DropNewest`] never blocks the producer and counts what it
//!   drops, [`ShedOldest`] admits fresh points by evicting stale queued
//!   ones so the detector tracks the live stream under overload.
//! * **Reads snapshot.** Each shard periodically publishes its model as an
//!   immutable `Arc<SubspaceModel>` into a `SnapshotCell`; any number of
//!   [`SnapshotScorer`] handles score against the latest generation without
//!   ever touching (or waiting on) the live detector.
//!
//! ## Failure domains
//!
//! Faults are contained at the smallest boundary that can absorb them:
//!
//! * **Bad input → quarantine.** Rows with non-finite components or the
//!   wrong dimension are diverted into a bounded [`Quarantine`]
//!   ([`SubmitOutcome::Rejected`]) before they can poison a sketch.
//! * **Detector panic → shard restart.** The worker catches the panic,
//!   rebuilds its detector from the shard factory, re-adopts the last
//!   published snapshot, and keeps draining — scores accumulated before
//!   the panic survive. After `max_restarts` recoveries the shard
//!   *degrades*: updates shed with exact counts while the stale snapshot
//!   keeps serving reads. Other shards never notice.
//! * **Overload → shedding.** [`BackpressurePolicy::ShedOldest`] admits
//!   each new point by evicting the oldest queued one, counted as shed.
//!
//! Lifecycle is explicit: [`ServeEngine::finish`] closes the queues, lets
//! every worker drain, and returns a [`PipelineReport`] — scores,
//! [`PipelineStats`] with exact loss accounting
//! (`scored + dropped + rejected + shed + crash_lost == submitted`), and
//! the quarantine. Only a supervisor-level failure (the worker *thread*
//! dying, not the detector panicking) surfaces as
//! [`ServeError::WorkerPanicked`] — never as a hang.
//!
//! ## Module map
//!
//! * `config` — [`ServeConfig`], backpressure and partitioning policies.
//! * `engine` — [`ServeEngine`], submission, shutdown, report assembly.
//! * `shard` *(private)* — the supervised worker loop owning each detector;
//!   the detector refreshes its model inline on that thread.
//! * `ring` *(private)* — the lock-free SPSC ingest ring (the channel under
//!   `Block` / `DropNewest`; seqlock-style per-slot counters, a flat row
//!   arena, batch push/pop). The one module in this crate allowed to use
//!   `unsafe`; its memory-ordering contract is documented in the module and
//!   exercised under ASan in CI.
//! * `queue` *(private)* — the bounded condvar row queue, the channel under
//!   `ShedOldest` (sender-side eviction).
//! * `quarantine` — [`Quarantine`] / `QuarantinedRow` for refused input.
//! * `snapshot` — `SnapshotCell` / [`SnapshotScorer`] read path.
//! * `stats` — [`PipelineStats`], `LatencyHistogram`, serializable.
//! * `telemetry` — live sampling of a running engine into bounded time
//!   series, with optional Prometheus and JSONL flight-recorder export
//!   ([`TelemetryConfig`] / [`TelemetryHandle`], started via
//!   [`ServeEngine::start_telemetry`]).
//! * `error` — [`ServeError`].
//!
//! [`Block`]: BackpressurePolicy::Block
//! [`DropNewest`]: BackpressurePolicy::DropNewest
//! [`ShedOldest`]: BackpressurePolicy::ShedOldest

#![warn(missing_docs)]
// `deny`, not `forbid`: the `ring` module alone opts back in with a scoped
// `allow` for its UnsafeCell slot accesses. Everything else stays safe.
#![deny(unsafe_code)]

pub(crate) mod config;
pub(crate) mod engine;
pub(crate) mod error;
pub(crate) mod quarantine;
mod queue;
mod ring;
mod shard;
pub(crate) mod snapshot;
pub(crate) mod stats;
pub(crate) mod telemetry;

pub use config::{BackpressurePolicy, PartitionStrategy, ServeConfig};
pub use engine::{BatchOutcome, PipelineReport, ServeEngine, SubmitOutcome};
pub use error::ServeError;
pub use quarantine::Quarantine;
pub use sketchad_durable::FsyncPolicy;
pub use snapshot::SnapshotScorer;
pub use stats::{PipelineStats, ShardStats};
pub use telemetry::{TelemetryConfig, TelemetryHandle};

//! Durable state tier for streaming detectors: checksummed snapshots, a
//! write-ahead log of ingested rows, and deterministic warm-restart
//! recovery.
//!
//! The serving layer points each shard at a directory; this crate turns
//! that directory into a crash-safe record of the shard's detector:
//!
//! * **Snapshots** (`snapshot-<gen>.skad`) hold the detector's full dynamic
//!   state — sketch contents, trained subspace model, counters, threshold
//!   calibration — as an opaque payload produced by
//!   `StreamingDetector::save_state`. They are written atomically
//!   (temp + rename) and carry a [`checksum64`].
//! * **WAL segments** (`wal-<seg>.skwl`) log every ingested row *before*
//!   the detector processes it, one framed and checksummed micro-batch
//!   per append, so a crash mid-append costs at most the torn final
//!   batch — none of which had been scored.
//! * **Recovery** ([`recover`]) finds the newest valid snapshot (falling
//!   back a generation when the newest is corrupt), reads the WAL segments
//!   it does not cover once each, and hands back the rows past it for
//!   replay together with where a writer resumes
//!   ([`StateStore::resume`]). Because detectors are deterministic and
//!   `save_state`/`restore_state` round-trip bitwise, the recovered
//!   detector is bit-for-bit the detector that crashed — and because
//!   recovery itself is read-only, running it twice gives identical
//!   results.
//!
//! The format is self-contained (no serializer dependency, fixed-width
//! little-endian fields) and versioned; see [`mod@format`] for the layout
//! constants and [`store`] for rotation/retention policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use format::{checksum64, DurableError, FORMAT_VERSION, MAGIC_SNAPSHOT, MAGIC_WAL};
pub use snapshot::{read_snapshot, write_snapshot, Snapshot};
pub use store::{
    recover, shard_dir, FsyncPolicy, LastSegment, RecoveredState, RecoveryStats, StateStore,
    RETAINED_SNAPSHOTS,
};
pub use wal::{TailStatus, WalHeader, WalRecord};

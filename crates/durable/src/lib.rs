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
//! * **Recovery** ([`Recovery`]) runs in two phases. Phase one finds the
//!   newest valid snapshot (falling back a generation when the newest is
//!   corrupt) and hands it over for restore; phase two reads the WAL
//!   segments it does not cover once each and streams the rows past it to
//!   a sink in bounded blocks, reporting where a writer resumes
//!   ([`StateStore::resume`]). Replay memory is bounded, not the tail: one
//!   release step of the mapped segment (the walk hands the pages behind
//!   it back every 2 MiB), plus one four-frame verify group, plus one
//!   replay block, whatever the tail's length. The exceptions: the
//!   buffered fallback (`SKETCHAD_NO_MMAP=1`, or a declined `mmap`) reads
//!   the whole segment, and targets other than Linux keep the mapping
//!   resident until the walk ends.
//!   [`recover`] is the same walk with a sink that collects every row, and
//!   [`inspect`] the walk with one that keeps none. Because detectors are
//!   deterministic and `save_state`/`restore_state` round-trip bitwise,
//!   the recovered detector is bit-for-bit the detector that crashed — and
//!   because recovery itself is read-only, running it twice gives
//!   identical results.
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
    inspect, recover, shard_dir, FsyncPolicy, LastSegment, RecoveredState, Recovery, RecoveryStats,
    StateStore, RETAINED_SNAPSHOTS,
};
pub use wal::{TailStatus, WalHeader, WalRecord, REPLAY_BLOCK_ROWS};

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
//! Both file kinds open with a 4-byte magic (`SKAD`, `SKWL`) and the
//! format-version byte `FORMAT_VERSION`, and end every
//! integrity-protected region with a [`checksum64`] of the bytes it covers.
//! Readers check the magic and the version before the checksum, so a file
//! of another version fails as "unsupported format version", not as
//! corrupt. The format is self-contained (no serializer dependency,
//! fixed-width little-endian fields): every byte of it is framed by
//! `sketchad_sketch::wire`, the one module that knows the layout. See
//! [`snapshot`] and [`wal`] for each file's layout and `store` for
//! rotation/retention policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod snapshot;
pub(crate) mod store;
pub mod wal;

use std::path::{Path, PathBuf};

use sketchad_sketch::wire::{split_checksum, ByteReader, PreambleError, WireError};

pub use sketchad_sketch::wire::checksum64;
pub use snapshot::{read_snapshot, write_snapshot, Snapshot};
pub use store::{
    inspect, recover, shard_dir, FsyncPolicy, RecoveredState, Recovery, RecoveryStats, StateStore,
};
pub use wal::{TailStatus, WalHeader, WalRecord, REPLAY_BLOCK_ROWS};

/// Version of the on-disk format. Bump on any incompatible layout change;
/// readers reject files whose version they do not understand.
///
/// Version 2 (`sketchad-wal/v2`): one WAL frame per logged micro-batch, and
/// the word-at-a-time [`checksum64`] on both file kinds. Files of any other
/// version are rejected.
pub(crate) const FORMAT_VERSION: u8 = 2;

/// Lists the files in `dir` whose names `parse` reads a number from,
/// sorted by that number.
pub(crate) fn list_numbered(
    dir: &Path,
    parse: fn(&str) -> Option<u64>,
) -> Result<Vec<(u64, PathBuf)>, DurableError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(n) = entry.file_name().to_str().and_then(parse) {
            out.push((n, entry.path()));
        }
    }
    out.sort_by_key(|(n, _)| *n);
    Ok(out)
}

/// Opens a checksummed region of a durable file: checks its preamble
/// (`magic`, then [`FORMAT_VERSION`]) before its trailing [`checksum64`],
/// and returns a reader over the covered bytes, past the preamble. A
/// failure is `Corrupt` with the matching one of `contexts`: the region is
/// too short, the magic, the version, the checksum.
pub(crate) fn open_region<'a>(
    bytes: &'a [u8],
    magic: [u8; 4],
    contexts: [&'static str; 4],
) -> Result<ByteReader<'a>, DurableError> {
    let (covered, holds) = split_checksum(bytes);
    let mut r = ByteReader::new(covered);
    let failed = match r.get_preamble(magic, FORMAT_VERSION) {
        Err(PreambleError::Short) => 0,
        Err(PreambleError::Magic(_)) => 1,
        Err(PreambleError::Version(_)) => 2,
        Ok(()) if !holds => 3,
        Ok(()) => return Ok(r),
    };
    let context = contexts[failed];
    Err(DurableError::Corrupt { context })
}

/// Everything that can go wrong reading or writing durable state.
#[derive(Debug)]
pub enum DurableError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A file is structurally invalid: bad magic, unsupported version,
    /// checksum mismatch, or an implausible field.
    Corrupt {
        /// What the reader was validating when it failed.
        context: &'static str,
    },
    /// A wire-level decode ran out of bytes or hit a hostile length.
    Wire(WireError),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durable state I/O error: {e}"),
            DurableError::Corrupt { context } => {
                write!(f, "corrupt durable state file: {context}")
            }
            DurableError::Wire(e) => write!(f, "durable state decode error: {e}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io(e) => Some(e),
            DurableError::Wire(e) => Some(e),
            DurableError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<WireError> for DurableError {
    fn from(e: WireError) -> Self {
        DurableError::Wire(e)
    }
}

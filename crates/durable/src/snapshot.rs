//! Snapshot files: a full checkpoint of one shard's detector state.
//!
//! Layout of `snapshot-<generation>.skad` (all integers little-endian):
//!
//! ```text
//! magic       [u8; 4]   "SKAD"
//! version     u8        FORMAT_VERSION
//! generation  u64       monotone checkpoint counter (matches the filename)
//! shard       u32       shard index that wrote this snapshot
//! seq         u64       stream sequence covered: rows 1..=seq are inside
//! payload     u64 len + bytes   opaque detector state (save_state bytes)
//! checksum    u64       checksum64 over every byte above
//! ```
//!
//! Snapshots are written to a temporary file, flushed, then atomically
//! renamed into place, so a crash mid-write never leaves a half snapshot
//! under the final name — at worst a stale `.snapshot-<generation>.skad.tmp`.
//! Readers ignore it, and recovery, being read-only, leaves it in place;
//! the next writer to resume on the directory deletes it
//! (`StateStore::resume`).

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use sketchad_sketch::wire::ByteWriter;

use crate::{list_numbered, open_region, DurableError, FORMAT_VERSION};

/// Magic bytes opening every snapshot file.
pub(crate) const MAGIC_SNAPSHOT: [u8; 4] = *b"SKAD";

/// File extension for snapshot files.
pub(crate) const SNAPSHOT_EXT: &str = "skad";

/// A decoded snapshot: header fields plus the opaque detector payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Monotone checkpoint counter; higher is newer.
    pub generation: u64,
    /// Shard index that wrote this snapshot.
    pub shard: u32,
    /// Stream sequence covered by the payload: rows `1..=seq` are folded in.
    pub seq: u64,
    /// Opaque detector state produced by `StreamingDetector::save_state`.
    pub payload: Vec<u8>,
}

/// Filename for generation `gen`, e.g. `snapshot-000000000042.skad`.
pub fn snapshot_file_name(generation: u64) -> String {
    format!("snapshot-{generation:012}.{SNAPSHOT_EXT}")
}

/// Parses a generation number out of a snapshot filename; `None` when the
/// name does not follow the `snapshot-<gen>.skad` convention.
pub fn parse_snapshot_name(name: &str) -> Option<u64> {
    let stem = name
        .strip_prefix("snapshot-")?
        .strip_suffix(&format!(".{SNAPSHOT_EXT}"))?;
    stem.parse().ok()
}

/// Deletes from `dir` the temporary files of snapshot writes that never
/// reached their rename (a crash mid-checkpoint). Only a writer calls
/// this: recovery reads and deletes nothing.
pub(crate) fn remove_stale_temps(dir: &Path) -> Result<(), DurableError> {
    let temp = |name: &str| parse_snapshot_name(name.strip_prefix('.')?.strip_suffix(".tmp")?);
    for (_, path) in list_numbered(dir, temp)? {
        fs::remove_file(path)?;
    }
    Ok(())
}

/// Encodes a snapshot into its on-disk byte representation.
pub fn encode_snapshot(snap: &Snapshot) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_preamble(MAGIC_SNAPSHOT, FORMAT_VERSION);
    w.put_u64(snap.generation);
    w.put_u32(snap.shard);
    w.put_u64(snap.seq);
    w.put_len_bytes(&snap.payload);
    w.put_checksum(0);
    w.into_vec()
}

/// Decodes and validates snapshot bytes: magic, version, and checksum must
/// all hold or the file is reported corrupt. The magic and version are
/// checked first, so a snapshot of another format version reports
/// "unsupported snapshot format version".
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, DurableError> {
    let mut r = open_region(
        bytes,
        MAGIC_SNAPSHOT,
        [
            "snapshot shorter than its magic, version and checksum",
            "snapshot magic mismatch",
            "unsupported snapshot format version",
            "snapshot checksum mismatch",
        ],
    )?;
    let generation = r.get_u64("snapshot generation")?;
    let shard = r.get_u32("snapshot shard")?;
    let seq = r.get_u64("snapshot seq")?;
    let payload = r.get_len_bytes("snapshot payload")?.to_vec();
    if !r.is_exhausted() {
        return Err(DurableError::Corrupt {
            context: "trailing bytes after snapshot payload",
        });
    }
    Ok(Snapshot {
        generation,
        shard,
        seq,
        payload,
    })
}

/// Writes `snap` into `dir` under its canonical filename, atomically:
/// temp file → flush (+ fsync when `sync` is set) → rename.
pub fn write_snapshot(dir: &Path, snap: &Snapshot, sync: bool) -> Result<PathBuf, DurableError> {
    let bytes = encode_snapshot(snap);
    let final_path = dir.join(snapshot_file_name(snap.generation));
    let tmp_path = dir.join(format!(".{}.tmp", snapshot_file_name(snap.generation)));
    {
        let mut f = fs::File::create(&tmp_path)?;
        f.write_all(&bytes)?;
        f.flush()?;
        if sync {
            f.sync_all()?;
        }
    }
    fs::rename(&tmp_path, &final_path)?;
    if sync {
        // Persist the rename itself.
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(final_path)
}

/// Reads and validates the snapshot at `path`.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, DurableError> {
    let bytes = fs::read(path)?;
    decode_snapshot(&bytes)
}

/// Lists snapshot files in `dir`, sorted by generation ascending. Files that
/// do not match the naming convention (including `.tmp` leftovers) are
/// skipped.
pub fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, DurableError> {
    list_numbered(dir, parse_snapshot_name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            generation: 7,
            shard: 2,
            seq: 1234,
            payload: vec![1, 2, 3, 250, 0, 99],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = sample();
        let bytes = encode_snapshot(&snap);
        assert_eq!(decode_snapshot(&bytes).unwrap(), snap);
    }

    #[test]
    fn any_single_byte_corruption_is_detected() {
        let bytes = encode_snapshot(&sample());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_snapshot(&bad).is_err(),
                "corruption at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode_snapshot(&sample());
        for cut in 0..bytes.len() {
            assert!(decode_snapshot(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn other_format_versions_are_rejected_as_unsupported() {
        let mut bytes = encode_snapshot(&sample());
        for version in [1u8, 3] {
            bytes[4] = version;
            let err = decode_snapshot(&bytes).unwrap_err();
            assert!(
                err.to_string()
                    .contains("unsupported snapshot format version"),
                "{err}"
            );
        }
    }

    #[test]
    fn filename_roundtrip() {
        assert_eq!(snapshot_file_name(42), "snapshot-000000000042.skad");
        assert_eq!(parse_snapshot_name("snapshot-000000000042.skad"), Some(42));
        assert_eq!(parse_snapshot_name("wal-000000000001.skwl"), None);
        assert_eq!(parse_snapshot_name(".snapshot-000000000001.skad.tmp"), None);
    }

    #[test]
    fn write_read_atomic() {
        let dir = std::env::temp_dir().join(format!("skad-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = sample();
        let path = write_snapshot(&dir, &snap, false).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), snap);
        let listed = list_snapshots(&dir).unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].0, 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! The per-shard state store: snapshot rotation, WAL append, recovery.
//!
//! One [`StateStore`] owns one directory and mediates all writes to it:
//!
//! * [`StateStore::append_rows`] logs a micro-batch of ingested rows to the
//!   active WAL segment as one frame **before** the detector processes any
//!   of them (write-ahead), under the configured [`FsyncPolicy`].
//! * [`StateStore::checkpoint`] writes a full snapshot atomically, rotates
//!   the WAL to a fresh segment, and prunes artifacts no longer needed for
//!   recovery (the last two snapshots and the segments after the older one
//!   are retained, so recovery survives a corrupt newest snapshot).
//! * Recovery is **read-only** and runs in two phases over one frame
//!   parser. [`Recovery::open`] finds the newest valid snapshot and skips,
//!   by header alone, every segment it covers; the caller restores the
//!   snapshot; [`Recovery::replay_into`] then reads each remaining segment
//!   once (stopping at a torn tail) and streams the rows past the snapshot
//!   to a sink in blocks of at most
//!   [`REPLAY_BLOCK_ROWS`](crate::wal::REPLAY_BLOCK_ROWS) rows, returning
//!   the stats and where a writer resumes. [`recover`] collects the rows
//!   instead; [`inspect`] keeps none. Because it mutates nothing, running
//!   recovery twice over the same directory yields bitwise-identical
//!   results — the property the deterministic-recovery tests pin down.
//!
//! Torn tails are truncated *physically*, and the temp files of cut-short
//! snapshot writes deleted, only when a writer resumes on the directory
//! ([`StateStore::resume`], which [`StateStore::open`] calls), never during
//! [`recover`].

use std::fs;
use std::path::{Path, PathBuf};

use crate::snapshot::{
    list_snapshots, read_snapshot, remove_stale_temps, write_snapshot, Snapshot,
};
use crate::wal::{
    collect_into, encode_wal_frame, list_segments, read_wal_header, wal_file_name, MappedSegment,
    ReplayBlock, SegmentWriter, TailStatus, WalHeader, WalRecord,
};
use crate::DurableError;

/// How eagerly WAL appends are forced to stable storage. Rows are counted
/// per append call: a call logs one micro-batch as one frame, and a sync
/// covers the whole frame.
///
/// The policy trades durability for append throughput; snapshots are always
/// flushed and atomically renamed regardless (except under `Never`, which
/// skips fsync everywhere and leaves durability to the OS page cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append call, so every row is synced before it
    /// is processed. Maximum durability, slowest.
    Always,
    /// `fsync` at the end of the append call that brings the rows appended
    /// since the last sync to `n` or more (and at every checkpoint).
    EveryN(u32),
    /// Never `fsync`; rely on the OS to write back eventually.
    Never,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::EveryN(64)
    }
}

/// Number of snapshot generations kept on disk. Two, so recovery can fall
/// back to the previous generation when the newest file is corrupt.
pub(crate) const RETAINED_SNAPSHOTS: usize = 2;

/// Per-shard subdirectory under a pipeline's state root,
/// e.g. `<root>/shard-0003`.
pub fn shard_dir(root: &Path, shard: u32) -> PathBuf {
    root.join(format!("shard-{shard:04}"))
}

/// Counters describing what a recovery scan found. Mirrored into serving
/// stats and observability gauges by the serve layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Snapshot files inspected (newest first).
    pub snapshots_scanned: usize,
    /// Snapshot files rejected as corrupt before a valid one was found.
    pub snapshots_corrupt: usize,
    /// WAL segment files read.
    pub wal_segments: usize,
    /// WAL segment files skipped unread: the segment after each starts at
    /// or before the snapshot's sequence, so the snapshot covers its rows.
    pub wal_segments_skipped: usize,
    /// WAL segment files rejected outright (corrupt header).
    pub wal_segments_corrupt: usize,
    /// Total intact records seen across the segments read.
    pub wal_records_seen: u64,
    /// Records actually scheduled for replay (past the snapshot's coverage).
    pub replay_rows: u64,
    /// Bytes dropped from torn segment tails.
    pub torn_tail_bytes: u64,
}

/// The newest WAL segment as recovery found it: where a writer resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LastSegment {
    /// Segment number.
    pub(crate) number: u64,
    /// Bytes through its last intact frame; `None` when its header is
    /// corrupt, so a writer abandons it and starts the next segment.
    pub(crate) valid_len: Option<u64>,
}

/// The outcome of a read-only recovery scan.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredState {
    /// Newest valid snapshot, if any generation survived validation.
    pub snapshot: Option<Snapshot>,
    /// Rows to replay on top of the snapshot, in stream order. Only
    /// [`recover`] collects them; a streaming walk
    /// ([`Recovery::replay_into`], [`inspect`]) hands them to its sink and
    /// leaves this empty.
    pub replay: Vec<WalRecord>,
    /// What the scan encountered.
    pub stats: RecoveryStats,
    /// Newest snapshot generation on disk, valid or not (0 when none): a
    /// writer numbers its next checkpoint past it.
    pub(crate) newest_generation: u64,
    /// The newest WAL segment, if any.
    pub(crate) last_segment: Option<LastSegment>,
    /// Sequence of the last intact row on disk, WAL or snapshot.
    last_seq: u64,
}

impl RecoveredState {
    /// The stream sequence this recovered state reaches once the rows past
    /// the snapshot have been replayed: rows `1..=last_seq()` are accounted
    /// for, and a writer resumes after it.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }
}

/// Phase one of a recovery: the newest valid snapshot, found and validated,
/// and the WAL segments past it, not yet read. Phase two,
/// [`Recovery::replay_into`], walks those segments once and streams their
/// rows to a sink; a caller restores the snapshot in between, so replay
/// never needs the whole tail in memory.
#[derive(Debug)]
pub struct Recovery {
    /// Everything but the WAL walk's findings.
    state: RecoveredState,
    /// Segments phase two reads, in order.
    segments: Vec<(u64, PathBuf)>,
}

impl Recovery {
    /// Phase one over `dir`: the newest snapshot that validates (falling
    /// back a generation past a corrupt one), and the segments it does not
    /// cover, skipped by header alone. A missing directory is an empty
    /// state (fresh start).
    pub fn open(dir: &Path) -> Result<Self, DurableError> {
        let mut state = RecoveredState {
            snapshot: None,
            replay: Vec::new(),
            stats: RecoveryStats::default(),
            newest_generation: 0,
            last_segment: None,
            last_seq: 0,
        };
        if !dir.exists() {
            return Ok(Self {
                state,
                segments: Vec::new(),
            });
        }
        let stats = &mut state.stats;

        // Newest snapshot that validates wins; corrupt ones are skipped.
        let snapshots = list_snapshots(dir)?;
        state.newest_generation = snapshots.last().map_or(0, |(generation, _)| *generation);
        for (_, path) in snapshots.iter().rev() {
            stats.snapshots_scanned += 1;
            match read_snapshot(path) {
                Ok(s) => {
                    state.snapshot = Some(s);
                    break;
                }
                Err(DurableError::Io(e)) => return Err(DurableError::Io(e)),
                Err(_) => stats.snapshots_corrupt += 1,
            }
        }
        state.last_seq = state.snapshot.as_ref().map_or(0, |s| s.seq);

        // Segments the snapshot covers are skipped by their successor's
        // header (the rule `prune` deletes by).
        let mut segments = list_segments(dir)?;
        while let Some((_, next)) = segments.get(stats.wal_segments_skipped + 1) {
            match read_wal_header(next) {
                Ok(h) if h.start_seq <= state.last_seq => stats.wal_segments_skipped += 1,
                Err(DurableError::Io(e)) => return Err(DurableError::Io(e)),
                _ => break,
            }
        }
        segments.drain(..stats.wal_segments_skipped);
        Ok(Self { state, segments })
    }

    /// The snapshot phase two replays on top of, if any generation
    /// validated: restore it before calling [`Recovery::replay_into`].
    pub fn snapshot(&self) -> Option<&Snapshot> {
        self.state.snapshot.as_ref()
    }

    /// Phase two: reads each remaining segment once, in order, verifying
    /// every frame's checksum, and hands the rows past the snapshot to
    /// `sink` as `(first_seq, rows, dim)`: row-major blocks of at most
    /// [`REPLAY_BLOCK_ROWS`](crate::wal::REPLAY_BLOCK_ROWS) consecutive
    /// rows of one width, decoded into one reused buffer, the first row at
    /// sequence `first_seq`. A torn
    /// tail ends its segment; later segments only exist after a clean
    /// rotation, so a torn tail can only be the end of the whole log. An
    /// error from `sink` ends the walk and is returned.
    pub fn replay_into(
        self,
        mut sink: impl FnMut(u64, &[f64], usize) -> Result<(), DurableError>,
    ) -> Result<RecoveredState, DurableError> {
        let Self {
            mut state,
            segments,
        } = self;
        let covered = state.last_seq;
        let stats = &mut state.stats;
        let mut block = ReplayBlock::default();
        let mut last_seq = covered;
        let mut sink = |first_seq: u64, rows: &[f64], dim: usize| {
            last_seq = first_seq + (rows.len() / dim) as u64 - 1;
            sink(first_seq, rows, dim)
        };
        for (number, path) in &segments {
            let valid_len = match MappedSegment::open(path) {
                Ok(segment) => {
                    let scan = segment.walk(covered, &mut block, &mut sink)?;
                    stats.wal_segments += 1;
                    stats.wal_records_seen += scan.rows;
                    stats.replay_rows += scan.replayed;
                    if let TailStatus::Torn { bytes_dropped } = scan.tail {
                        stats.torn_tail_bytes += bytes_dropped as u64;
                    }
                    Some(scan.valid_len)
                }
                Err(DurableError::Io(e)) => return Err(DurableError::Io(e)),
                Err(_) => {
                    stats.wal_segments_corrupt += 1;
                    None
                }
            };
            state.last_segment = Some(LastSegment {
                number: *number,
                valid_len,
            });
        }
        state.last_seq = last_seq;
        Ok(state)
    }
}

/// Read-only recovery: locate the newest valid snapshot in `dir` and
/// collect the WAL rows past it into [`RecoveredState::replay`]. The same
/// walk as [`Recovery::replay_into`], with a sink that keeps every row.
/// Missing directory ⇒ empty state (fresh start).
pub fn recover(dir: &Path) -> Result<RecoveredState, DurableError> {
    let mut replay = Vec::new();
    let mut state = Recovery::open(dir)?.replay_into(collect_into(&mut replay))?;
    state.replay = replay;
    Ok(state)
}

/// What a restart of `dir` would find, without keeping its rows: the walk
/// [`recover`] makes, with a sink that only lets the rows pass, so the
/// stats, the snapshot and where a writer resumes come back while
/// `replay` stays empty.
pub fn inspect(dir: &Path) -> Result<RecoveredState, DurableError> {
    Recovery::open(dir)?.replay_into(|_, _, _| Ok(()))
}

/// A writable per-shard state store (see module docs).
#[derive(Debug)]
pub struct StateStore {
    dir: PathBuf,
    shard: u32,
    fsync: FsyncPolicy,
    writer: SegmentWriter,
    segment: u64,
    seq: u64,
    generation: u64,
    /// Rows appended since the last sync.
    unsynced: u64,
    /// Encoded frames awaiting their `write`, reused across appends.
    staging: Vec<u8>,
}

impl StateStore {
    /// Opens (or creates) the store in `dir` for `shard`: an [`inspect`]
    /// walk, which holds no WAL row in memory, then [`StateStore::resume`]
    /// from it.
    pub fn open(dir: &Path, shard: u32, fsync: FsyncPolicy) -> Result<Self, DurableError> {
        Self::resume(dir, shard, fsync, &inspect(dir)?)
    }

    /// Opens the store in `dir` for `shard` from a recovery walk of that
    /// same directory ([`recover`], [`inspect`] or [`Recovery::replay_into`]), positioning the write cursor after the last
    /// intact WAL row. Any torn tail on the newest segment is physically
    /// truncated here (a segment whose header is corrupt is abandoned for
    /// the next one), and the temp files of snapshot writes a crash cut
    /// short are deleted; older artifacts are left untouched.
    pub fn resume(
        dir: &Path,
        shard: u32,
        fsync: FsyncPolicy,
        recovered: &RecoveredState,
    ) -> Result<Self, DurableError> {
        fs::create_dir_all(dir)?;
        remove_stale_temps(dir)?;
        // Sequence resumes after everything on disk: the newest valid
        // snapshot plus every intact WAL row.
        let seq = recovered.last_seq();
        let (segment, writer) = match recovered.last_segment {
            Some(LastSegment {
                number,
                valid_len: Some(len),
            }) => (
                number,
                SegmentWriter::reopen(&dir.join(wal_file_name(number)), len)?,
            ),
            // No log yet, or the newest segment's header is unusable:
            // start the next segment.
            last => {
                let number = last.map_or(0, |s| s.number + 1);
                let header = WalHeader {
                    shard,
                    start_seq: seq,
                };
                (number, SegmentWriter::create(dir, number, &header)?)
            }
        };
        Ok(Self {
            dir: dir.to_path_buf(),
            shard,
            fsync,
            writer,
            segment,
            seq,
            generation: recovered.newest_generation,
            unsynced: 0,
            staging: Vec::new(),
        })
    }

    /// Logs a micro-batch ahead of processing as one frame with one
    /// `write`, returning the sequence number of its last row (the current
    /// sequence when `rows` is empty). `rows` is row-major, `dim` values a
    /// row (see [`encode_wal_frame`]).
    pub fn append_rows(&mut self, rows: &[f64], dim: usize) -> Result<u64, DurableError> {
        if rows.is_empty() {
            return Ok(self.seq);
        }
        self.staging.clear();
        encode_wal_frame(self.seq + 1, rows, dim, &mut self.staging);
        self.writer.append(&self.staging)?;
        let n = (rows.len() / dim) as u64;
        self.seq += n;
        match self.fsync {
            FsyncPolicy::Always => self.writer.sync()?,
            FsyncPolicy::EveryN(n_sync) => {
                self.unsynced += n;
                if self.unsynced >= u64::from(n_sync.max(1)) {
                    self.writer.sync()?;
                    self.unsynced = 0;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(self.seq)
    }

    /// Logs one row ahead of processing, returning its sequence number: a
    /// batch of one.
    pub fn append_row(&mut self, row: &[f64]) -> Result<u64, DurableError> {
        self.append_rows(row, row.len())
    }

    /// Writes a snapshot of `payload` covering every row appended so far,
    /// rotates the WAL, prunes stale artifacts, and returns the new
    /// generation number.
    pub fn checkpoint(&mut self, payload: &[u8]) -> Result<u64, DurableError> {
        // Make sure every row the snapshot claims to cover is also in the
        // log before the snapshot becomes visible.
        if self.fsync != FsyncPolicy::Never {
            self.writer.sync()?;
        }
        self.unsynced = 0;

        self.generation += 1;
        let snap = Snapshot {
            generation: self.generation,
            shard: self.shard,
            seq: self.seq,
            payload: payload.to_vec(),
        };
        write_snapshot(&self.dir, &snap, self.fsync != FsyncPolicy::Never)?;

        // Rotate: later segments begin strictly after the snapshot.
        self.segment += 1;
        self.writer = SegmentWriter::create(
            &self.dir,
            self.segment,
            &WalHeader {
                shard: self.shard,
                start_seq: self.seq,
            },
        )?;

        self.prune()?;
        Ok(self.generation)
    }

    /// Forces any buffered WAL appends to stable storage.
    pub fn flush(&mut self) -> Result<(), DurableError> {
        self.writer.sync()?;
        self.unsynced = 0;
        Ok(())
    }

    /// Last appended stream sequence.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Deletes snapshots older than the retained window and WAL segments
    /// that no retained snapshot needs for replay.
    fn prune(&self) -> Result<(), DurableError> {
        let snapshots = list_snapshots(&self.dir)?;
        if snapshots.len() > RETAINED_SNAPSHOTS {
            for (_, path) in &snapshots[..snapshots.len() - RETAINED_SNAPSHOTS] {
                fs::remove_file(path)?;
            }
        }
        let retained_oldest_seq = snapshots
            .iter()
            .rev()
            .take(RETAINED_SNAPSHOTS)
            .next_back()
            .and_then(|(_, p)| read_snapshot(p).ok())
            .map_or(0, |s| s.seq);

        // A segment is disposable when the segment after it starts at or
        // before the oldest retained snapshot's coverage — every row in it
        // is already inside that snapshot. The active segment always stays.
        let segments = list_segments(&self.dir)?;
        for window in segments.windows(2) {
            let (_, path) = &window[0];
            let (_, next_path) = &window[1];
            if read_wal_header(next_path).is_ok_and(|h| h.start_seq <= retained_oldest_seq) {
                fs::remove_file(path)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("skad-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn row(seq: u64) -> Vec<f64> {
        vec![seq as f64, -(seq as f64) * 0.5, 1.0 / (seq as f64)]
    }

    #[test]
    fn checkpoint_then_recover_replays_only_the_tail() {
        let dir = tmp_dir("tail");
        let mut store = StateStore::open(&dir, 0, FsyncPolicy::EveryN(4)).unwrap();
        for s in 1..=10 {
            assert_eq!(store.append_row(&row(s)).unwrap(), s);
        }
        let generation = store.checkpoint(b"state-at-10").unwrap();
        assert_eq!(generation, 1);
        for s in 11..=15 {
            store.append_row(&row(s)).unwrap();
        }
        store.flush().unwrap();
        drop(store);

        let rec = recover(&dir).unwrap();
        let snap = rec.snapshot.as_ref().unwrap();
        assert_eq!(snap.seq, 10);
        assert_eq!(snap.payload, b"state-at-10");
        assert_eq!(
            rec.replay.iter().map(|r| r.seq).collect::<Vec<_>>(),
            (11..=15).collect::<Vec<_>>()
        );
        assert_eq!(rec.last_seq(), 15);
        assert_eq!(rec.stats.replay_rows, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_snapshot_temp_files_go_only_when_a_writer_resumes() {
        let dir = tmp_dir("stale-tmp");
        let mut store = StateStore::open(&dir, 0, FsyncPolicy::Never).unwrap();
        store.append_row(&row(1)).unwrap();
        store.checkpoint(b"gen-1").unwrap();
        drop(store);
        // A crash between a snapshot's write and its rename.
        let stale = dir.join(".snapshot-000000000002.skad.tmp");
        std::fs::write(&stale, b"half a snapshot").unwrap();
        let unrelated = dir.join(".notes.tmp");
        std::fs::write(&unrelated, b"not ours").unwrap();

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.snapshot.unwrap().payload, b"gen-1");
        inspect(&dir).unwrap();
        assert!(stale.exists(), "recovery is read-only");

        let store = StateStore::open(&dir, 0, FsyncPolicy::Never).unwrap();
        assert!(!stale.exists(), "the resuming writer deletes it");
        assert!(unrelated.exists(), "only snapshot temp files are touched");
        assert_eq!(store.generation, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_previous_generation() {
        let dir = tmp_dir("fallback");
        let mut store = StateStore::open(&dir, 0, FsyncPolicy::Never).unwrap();
        for s in 1..=6 {
            store.append_row(&row(s)).unwrap();
        }
        store.checkpoint(b"gen-1").unwrap();
        for s in 7..=9 {
            store.append_row(&row(s)).unwrap();
        }
        store.checkpoint(b"gen-2").unwrap();
        store.flush().unwrap();
        drop(store);

        // Zap a byte inside generation 2.
        let victim = list_snapshots(&dir).unwrap().last().unwrap().1.clone();
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&victim, &bytes).unwrap();

        let rec = recover(&dir).unwrap();
        let snap = rec.snapshot.as_ref().unwrap();
        assert_eq!(snap.payload, b"gen-1");
        assert_eq!(snap.seq, 6);
        // Rows 7..=9 come back from the WAL instead.
        assert_eq!(
            rec.replay.iter().map(|r| r.seq).collect::<Vec<_>>(),
            (7..=9).collect::<Vec<_>>()
        );
        assert_eq!(rec.stats.snapshots_corrupt, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_is_deterministic_and_read_only() {
        let dir = tmp_dir("determ");
        let mut store = StateStore::open(&dir, 1, FsyncPolicy::EveryN(3)).unwrap();
        for s in 1..=8 {
            store.append_row(&row(s)).unwrap();
        }
        store.checkpoint(b"payload").unwrap();
        for s in 9..=12 {
            store.append_row(&row(s)).unwrap();
        }
        store.flush().unwrap();
        drop(store);

        // Tear the tail by hand.
        let (_, active) = list_segments(&dir).unwrap().last().unwrap().clone();
        let mut bytes = std::fs::read(&active).unwrap();
        bytes.extend_from_slice(&[0x42; 11]);
        std::fs::write(&active, &bytes).unwrap();
        let before: Vec<_> = list_segments(&dir)
            .unwrap()
            .iter()
            .map(|(_, p)| std::fs::read(p).unwrap())
            .collect();

        let first = recover(&dir).unwrap();
        let second = recover(&dir).unwrap();
        assert_eq!(first, second, "double recovery must be bitwise identical");
        assert!(first.stats.torn_tail_bytes == 11);

        // Read-only: no file changed.
        let after: Vec<_> = list_segments(&dir)
            .unwrap()
            .iter()
            .map(|(_, p)| std::fs::read(p).unwrap())
            .collect();
        assert_eq!(before, after);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_resumes_sequence_and_truncates_torn_tail() {
        let dir = tmp_dir("resume");
        let mut store = StateStore::open(&dir, 0, FsyncPolicy::Never).unwrap();
        for s in 1..=5 {
            store.append_row(&row(s)).unwrap();
        }
        store.flush().unwrap();
        drop(store);

        // Crash tail.
        let (_, active) = list_segments(&dir).unwrap().last().unwrap().clone();
        let mut bytes = std::fs::read(&active).unwrap();
        bytes.extend_from_slice(&[0x99; 5]);
        std::fs::write(&active, &bytes).unwrap();

        let mut store = StateStore::open(&dir, 0, FsyncPolicy::Never).unwrap();
        assert_eq!(store.seq(), 5, "sequence resumes after intact records");
        assert_eq!(store.append_row(&row(6)).unwrap(), 6);
        store.flush().unwrap();
        drop(store);

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.last_seq(), 6);
        assert_eq!(rec.stats.torn_tail_bytes, 0, "tail was truncated on open");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_keeps_two_snapshots_and_prunes_old_segments() {
        let dir = tmp_dir("retain");
        let mut store = StateStore::open(&dir, 0, FsyncPolicy::Never).unwrap();
        let mut seq = 0;
        for _ in 0..4 {
            for _ in 0..5 {
                seq += 1;
                store.append_row(&row(seq)).unwrap();
            }
            store
                .checkpoint(format!("gen-at-{seq}").as_bytes())
                .unwrap();
        }
        let snapshots = list_snapshots(&dir).unwrap();
        assert_eq!(snapshots.len(), RETAINED_SNAPSHOTS);
        assert_eq!(snapshots.last().unwrap().0, 4);

        // Only segments needed to replay past the oldest retained snapshot
        // survive (plus the fresh active one).
        let segments = list_segments(&dir).unwrap();
        assert!(
            segments.len() <= RETAINED_SNAPSHOTS + 1,
            "stale segments must be pruned, found {}",
            segments.len()
        );
        // And recovery still works from what's left.
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.snapshot.as_ref().unwrap().seq, 20);
        assert_eq!(rec.last_seq(), 20);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inspect_finds_what_recover_finds_and_keeps_no_row() {
        let dir = tmp_dir("inspect");
        let mut store = StateStore::open(&dir, 0, FsyncPolicy::Never).unwrap();
        store.append_rows(&[row(1), row(2)].concat(), 3).unwrap();
        store.checkpoint(b"at-2").unwrap();
        store
            .append_rows(&[row(3), row(4), row(5)].concat(), 3)
            .unwrap();
        drop(store);
        let collected = recover(&dir).unwrap();
        let inspected = inspect(&dir).unwrap();
        assert!(inspected.replay.is_empty());
        assert_eq!(inspected.stats.replay_rows, 3);
        assert_eq!(inspected.last_seq(), 5);
        assert_eq!(
            RecoveredState {
                replay: collected.replay.clone(),
                ..inspected
            },
            collected
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_directory_recovers_to_empty() {
        let dir = tmp_dir("fresh").join("nonexistent");
        let rec = recover(&dir).unwrap();
        assert!(rec.snapshot.is_none());
        assert!(rec.replay.is_empty());
        assert_eq!(rec.last_seq(), 0);
    }

    #[test]
    fn one_append_rows_call_lands_as_one_frame() {
        let dir = tmp_dir("one-frame");
        let mut store = StateStore::open(&dir, 0, FsyncPolicy::EveryN(1024)).unwrap();
        let rows: Vec<f64> = (0..256 * 48).map(|v| v as f64).collect();
        assert_eq!(store.append_rows(&rows, 48).unwrap(), 256);
        assert_eq!(
            store.append_rows(&rows[..0], 48).unwrap(),
            256,
            "empty is a no-op"
        );
        store.flush().unwrap();
        let (_, active) = list_segments(&dir).unwrap().pop().unwrap();
        // Header, then one frame: len, first_seq, rows, dim, values, checksum.
        assert_eq!(
            std::fs::metadata(&active).unwrap().len() as usize,
            crate::wal::WAL_HEADER_LEN + 4 + 16 + 256 * 48 * 8 + 8
        );
        let (_, got, tail) = crate::wal::read_segment(&active).unwrap();
        assert_eq!(tail, TailStatus::Clean);
        assert_eq!(got.len(), 256);
        for (i, rec) in got.iter().enumerate() {
            assert_eq!(rec.seq, i as u64 + 1);
            assert_eq!(rec.row, &rows[i * 48..(i + 1) * 48]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_skips_covered_segments_and_resumes_from_its_own_scan() {
        let dir = tmp_dir("skip");
        let mut store = StateStore::open(&dir, 0, FsyncPolicy::Never).unwrap();
        for gen in 1..=2u64 {
            let batch: Vec<f64> = (1..=4).flat_map(|i| row(4 * (gen - 1) + i)).collect();
            store.append_rows(&batch, 3).unwrap();
            store.checkpoint(format!("gen-{gen}").as_bytes()).unwrap();
        }
        store.append_rows(&[row(9), row(10)].concat(), 3).unwrap();
        drop(store);

        // Retention keeps the segment after the older snapshot (rows 5–8)
        // and the active one (rows 9–10); the newest snapshot covers the
        // first, so only the active segment is read.
        assert_eq!(list_segments(&dir).unwrap().len(), 2);
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.snapshot.as_ref().unwrap().seq, 8);
        assert_eq!(rec.stats.wal_segments_skipped, 1);
        assert_eq!(rec.stats.wal_segments, 1);
        assert_eq!(rec.stats.wal_records_seen, 2);
        assert_eq!(rec.newest_generation, 2);
        assert_eq!(
            rec.replay.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![9, 10]
        );

        // With the newest snapshot gone the older one needs that segment.
        let newest = list_snapshots(&dir).unwrap().pop().unwrap().1;
        let mut bytes = std::fs::read(&newest).unwrap();
        bytes[7] ^= 0x20;
        std::fs::write(&newest, &bytes).unwrap();
        let fallback = recover(&dir).unwrap();
        assert_eq!(fallback.stats.wal_segments_skipped, 0);
        assert_eq!(
            fallback.replay.iter().map(|r| r.seq).collect::<Vec<_>>(),
            (5..=10).collect::<Vec<_>>()
        );

        // A writer resumed from that scan numbers past the corrupt
        // generation and appends after row 10.
        let mut store = StateStore::resume(&dir, 0, FsyncPolicy::Never, &fallback).unwrap();
        assert_eq!((store.seq(), store.generation), (10, 2));
        assert_eq!(store.append_row(&row(11)).unwrap(), 11);
        assert_eq!(store.checkpoint(b"gen-3").unwrap(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_last_segment_header_is_abandoned_for_the_next_segment() {
        let dir = tmp_dir("bad-header");
        let mut store = StateStore::open(&dir, 0, FsyncPolicy::Never).unwrap();
        store.append_rows(&[row(1), row(2)].concat(), 3).unwrap();
        store.checkpoint(b"gen-1").unwrap();
        store.append_rows(&row(3), 3).unwrap();
        drop(store);
        let (number, active) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&active).unwrap();
        bytes[10] ^= 0x01;
        std::fs::write(&active, &bytes).unwrap();

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.stats.wal_segments_corrupt, 1);
        assert_eq!(
            rec.last_segment,
            Some(LastSegment {
                number,
                valid_len: None
            })
        );
        let mut store = StateStore::resume(&dir, 0, FsyncPolicy::Never, &rec).unwrap();
        assert_eq!(store.seq(), 2, "row 3 went with the corrupt segment");
        store.append_row(&row(3)).unwrap();
        drop(store);
        let (next, _) = list_segments(&dir).unwrap().pop().unwrap();
        assert_eq!(next, number + 1);
        assert_eq!(recover(&dir).unwrap().last_seq(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every crash point inside the last two frames of the log: recovery
    /// replays exactly the complete frames, a reopened store truncates the
    /// torn tail and appends one more batch, and a second recovery sees the
    /// intact prefix plus that batch with contiguous sequences.
    #[test]
    fn every_truncation_in_the_last_two_frames_recovers_and_resumes() {
        let dir = tmp_dir("crash-points");
        let mut store = StateStore::open(&dir, 0, FsyncPolicy::Never).unwrap();
        store.append_rows(&[row(1), row(2)].concat(), 3).unwrap();
        store.checkpoint(b"at-2").unwrap();
        let mut ends = Vec::new();
        let mut seq = 2;
        for n in [3u64, 1, 2] {
            let batch: Vec<f64> = (seq + 1..=seq + n).flat_map(row).collect();
            seq = store.append_rows(&batch, 3).unwrap();
            ends.push((store.writer.len(), seq));
        }
        drop(store);
        let (_, active) = list_segments(&dir).unwrap().pop().unwrap();
        let full = std::fs::read(&active).unwrap();
        let snapshot = list_snapshots(&dir).unwrap().pop().unwrap().1;
        let snapshot_bytes = std::fs::read(&snapshot).unwrap();

        let last_two_start = ends[0].0 as usize;
        for cut in last_two_start..full.len() {
            std::fs::write(&active, &full[..cut]).unwrap();
            // The complete frames left by this cut.
            let kept = ends
                .iter()
                .rfind(|(end, _)| *end as usize <= cut)
                .map_or(2, |(_, seq)| *seq);
            let rec = recover(&dir).unwrap();
            assert_eq!(rec.snapshot.as_ref().unwrap().seq, 2);
            assert_eq!(
                rec.replay.iter().map(|r| r.seq).collect::<Vec<_>>(),
                (3..=kept).collect::<Vec<_>>(),
                "cut at {cut}"
            );
            for r in &rec.replay {
                assert_eq!(r.row, row(r.seq), "cut at {cut}");
            }

            let mut store = StateStore::open(&dir, 0, FsyncPolicy::Never).unwrap();
            assert_eq!(store.seq(), kept);
            let more = [row(kept + 1), row(kept + 2)].concat();
            assert_eq!(store.append_rows(&more, 3).unwrap(), kept + 2);
            drop(store);
            let again = recover(&dir).unwrap();
            assert_eq!(again.stats.torn_tail_bytes, 0, "cut at {cut}");
            assert_eq!(
                again.replay.iter().map(|r| r.seq).collect::<Vec<_>>(),
                (3..=kept + 2).collect::<Vec<_>>(),
                "cut at {cut}"
            );
            for r in &again.replay {
                assert_eq!(r.row, row(r.seq), "cut at {cut}");
            }
            // Nothing else moved: the snapshot is the one written before.
            assert_eq!(std::fs::read(&snapshot).unwrap(), snapshot_bytes);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

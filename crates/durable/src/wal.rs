//! Write-ahead log segments: an append-only record of ingested rows.
//!
//! Layout of `wal-<segment>.skwl` (`sketchad-wal/v2`, integers
//! little-endian):
//!
//! ```text
//! header:
//!   magic      [u8; 4]  "SKWL"
//!   version    u8       FORMAT_VERSION (2)
//!   shard      u32      shard index that owns this segment
//!   start_seq  u64      stream sequence of the last row BEFORE this segment
//!   checksum   u64      checksum64 over the header bytes above
//! frames (repeated until EOF), one per logged micro-batch:
//!   len        u32      byte length of the body: 16 + rows × dim × 8
//!   body:
//!     first_seq  u64    sequence of the frame's first row; row i is first_seq + i
//!     rows       u32    rows in the frame, ≥ 1
//!     dim        u32    values per row, ≥ 1
//!     values     f64 × rows × dim, row-major
//!   checksum   u64      checksum64 over the body
//! ```
//!
//! A frame carries a whole micro-batch and reaches the file in one `write`
//! before any of its rows is scored, so a crash mid-append tears at most
//! the final frame. Readers stop at the first frame that is incomplete or
//! fails its checks and report how many bytes they dropped: the torn
//! frame's whole batch is lost, and none of it had been scored before the
//! crash. Everything before it is intact and replayable.
//!
//! A reader verifies frames four at a time: it sizes up to four frames
//! ahead, computes their four checksums together (one chain of multiplies
//! is latency-bound; four chains side by side are not), then accepts them
//! in order under the same rule — it stops at the first frame that fails.
//! What a walk returns is exactly what a frame-at-a-time walk would. Behind
//! the frames it has accepted, a walk over a mapped segment releases the
//! pages it has read every couple of MiB, so a long log never stays
//! resident as a whole.

use std::fs;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use sketchad_sketch::wire::{checksum64x4, iter_f64s, ByteReader, ByteWriter};

use crate::{list_numbered, open_region, DurableError, FORMAT_VERSION};

/// Magic bytes opening every WAL segment file.
pub(crate) const MAGIC_WAL: [u8; 4] = *b"SKWL";

/// File extension for WAL segment files.
pub(crate) const WAL_EXT: &str = "skwl";

/// One logged row: its global stream sequence number and the values.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// 1-based stream sequence of this row within the shard.
    pub seq: u64,
    /// The row values, `dim` wide.
    pub row: Vec<f64>,
}

/// Decoded segment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalHeader {
    /// Shard index that owns this segment.
    pub shard: u32,
    /// Sequence of the last row before this segment; the segment's first
    /// record carries `start_seq + 1`.
    pub start_seq: u64,
}

/// What the reader found at the end of a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// Every frame parsed and checksummed cleanly.
    Clean,
    /// The final frame was incomplete or corrupt — the classic crash tail.
    Torn {
        /// Bytes past the last valid frame that were ignored.
        bytes_dropped: usize,
    },
}

/// Byte offset where the first frame starts.
pub const WAL_HEADER_LEN: usize = 4 + 1 + 4 + 8 + 8;

/// Bytes of a frame body before its values: `first_seq`, `rows`, `dim`.
const FRAME_BODY_HEADER: usize = 8 + 4 + 4;

/// Bytes a frame adds around its body: the `len` prefix and the checksum.
const FRAME_OVERHEAD: usize = 4 + 8;

/// Filename for segment `seg`, e.g. `wal-000000000003.skwl`.
pub fn wal_file_name(segment: u64) -> String {
    format!("wal-{segment:012}.{WAL_EXT}")
}

/// Parses a segment number out of a WAL filename.
pub(crate) fn parse_wal_name(name: &str) -> Option<u64> {
    let stem = name
        .strip_prefix("wal-")?
        .strip_suffix(&format!(".{WAL_EXT}"))?;
    stem.parse().ok()
}

/// Encodes a segment header.
pub fn encode_wal_header(header: &WalHeader) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_preamble(MAGIC_WAL, FORMAT_VERSION);
    w.put_u32(header.shard);
    w.put_u64(header.start_seq);
    w.put_checksum(0);
    w.into_vec()
}

/// Appends to `out` the frames that log the row-major block `rows` (rows
/// of `dim` values, back to back) as stream sequences `first_seq..`: one
/// frame, unless the batch exceeds a frame's 4 GiB body limit. Reuses
/// `out`'s capacity, so a warm buffer allocates nothing.
///
/// # Panics
/// When `dim` is zero, or `rows` is empty or not a whole number of rows:
/// a batch of one detector's points is none of these.
pub fn encode_wal_frame(first_seq: u64, rows: &[f64], dim: usize, out: &mut Vec<u8>) {
    assert!(
        dim > 0 && !rows.is_empty() && rows.len().is_multiple_of(dim),
        "a WAL frame holds one or more rows of one non-zero width"
    );
    let max_rows = ((u32::MAX as usize - FRAME_BODY_HEADER) / (dim * 8)).max(1);
    let frames = rows.len().div_ceil(max_rows * dim);
    out.reserve(rows.len() * 8 + frames * (FRAME_OVERHEAD + FRAME_BODY_HEADER));
    let mut w = ByteWriter::from_vec(std::mem::take(out));
    for (k, batch) in rows.chunks(max_rows * dim).enumerate() {
        let body_len = FRAME_BODY_HEADER + batch.len() * 8;
        w.put_u32(u32::try_from(body_len).expect("a WAL row fits a 4 GiB frame"));
        let body_at = w.len();
        w.put_u64(first_seq + (k * max_rows) as u64);
        w.put_u32((batch.len() / dim) as u32);
        w.put_u32(dim as u32);
        w.put_f64s(batch);
        w.put_checksum(body_at);
    }
    *out = w.into_vec();
}

/// Encodes one record as a one-row frame.
pub fn encode_wal_record(record: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    encode_wal_frame(record.seq, &record.row, record.row.len(), &mut out);
    out
}

/// Validates and decodes a segment header from the front of `bytes`. The
/// magic and version are checked before the checksum, so a segment of
/// another format version reports "unsupported WAL format version".
pub fn decode_wal_header(bytes: &[u8]) -> Result<WalHeader, DurableError> {
    let mut r = open_region(
        bytes.get(..WAL_HEADER_LEN).unwrap_or_default(),
        MAGIC_WAL,
        [
            "WAL segment shorter than its header",
            "WAL magic mismatch",
            "unsupported WAL format version",
            "WAL header checksum mismatch",
        ],
    )?;
    let shard = r.get_u32("WAL shard")?;
    let start_seq = r.get_u64("WAL start_seq")?;
    Ok(WalHeader { shard, start_seq })
}

/// Reads and validates only the header of the segment at `path`: the
/// first [`WAL_HEADER_LEN`] bytes, not the frames behind them.
pub(crate) fn read_wal_header(path: &Path) -> Result<WalHeader, DurableError> {
    let mut bytes = Vec::with_capacity(WAL_HEADER_LEN);
    fs::File::open(path)?
        .take(WAL_HEADER_LEN as u64)
        .read_to_end(&mut bytes)?;
    decode_wal_header(&bytes)
}

/// Reads a whole segment: header, every row of every intact frame, and
/// whether the tail was torn. A corrupt *header* is an error (the segment
/// is unusable); a corrupt *tail* is expected after a crash and reported
/// via [`TailStatus`].
pub fn read_segment(path: &Path) -> Result<(WalHeader, Vec<WalRecord>, TailStatus), DurableError> {
    let segment = MappedSegment::open(path)?;
    let mut records = Vec::new();
    let scan = segment.walk(
        0,
        &mut ReplayBlock::default(),
        &mut collect_into(&mut records),
    )?;
    Ok((segment.header, records, scan.tail))
}

/// A replay sink that appends each row it is handed to `out` as a
/// [`WalRecord`].
pub(crate) fn collect_into(
    out: &mut Vec<WalRecord>,
) -> impl FnMut(u64, &[f64], usize) -> Result<(), DurableError> + '_ {
    move |first_seq, rows, dim| {
        let rows = rows.chunks_exact(dim).zip(first_seq..);
        out.extend(rows.map(|(row, seq)| WalRecord {
            seq,
            row: row.to_vec(),
        }));
        Ok(())
    }
}

/// Most rows one replay block holds. A segment walk decodes rows into one
/// reused block of at most this many rows and hands each block to its sink
/// whole, so replay memory is bounded by the block, not by the log.
pub const REPLAY_BLOCK_ROWS: usize = 1024;

/// The reused buffer a segment walk decodes rows into: consecutive rows of
/// one width, the first of them at sequence `first_seq`.
#[derive(Debug, Default)]
pub(crate) struct ReplayBlock {
    values: Vec<f64>,
    first_seq: u64,
    dim: usize,
}

impl ReplayBlock {
    /// Hands the rows held to `sink` as `(first_seq, rows, dim)` and empties
    /// the block, keeping its capacity.
    fn flush(
        &mut self,
        sink: &mut impl FnMut(u64, &[f64], usize) -> Result<(), DurableError>,
    ) -> Result<(), DurableError> {
        if self.values.is_empty() {
            return Ok(());
        }
        let handed = sink(self.first_seq, &self.values, self.dim);
        self.values.clear();
        handed
    }

    /// Decodes the rows of `frame` with sequence past `covered` into the
    /// block, handing it to `sink` each time it fills; returns how many
    /// rows it took. `room` is the segment's bytes from the frame on: an
    /// empty block reserves at most that many rows' worth, so a damaged
    /// segment can never make the walk reserve more than the file holds.
    fn push_past(
        &mut self,
        frame: &Frame<'_>,
        covered: u64,
        room: usize,
        sink: &mut impl FnMut(u64, &[f64], usize) -> Result<(), DurableError>,
    ) -> Result<u64, DurableError> {
        let skip = covered
            .checked_sub(frame.first_seq)
            .map_or(0, |d| d.saturating_add(1).min(frame.rows as u64) as usize);
        let row_bytes = frame.dim * 8;
        let mut seq = frame.first_seq + skip as u64;
        let mut rest = &frame.values[skip * row_bytes..];
        let taken = (rest.len() / row_bytes) as u64;
        // A block holds consecutive rows of one width only.
        if !self.values.is_empty()
            && (frame.dim != self.dim || seq != self.first_seq + self.rows() as u64)
        {
            self.flush(sink)?;
        }
        while !rest.is_empty() {
            if self.values.is_empty() {
                self.dim = frame.dim;
                self.first_seq = seq;
                self.values
                    .reserve_exact(REPLAY_BLOCK_ROWS.min(room / row_bytes) * frame.dim);
            }
            let n = (REPLAY_BLOCK_ROWS - self.rows()).min(rest.len() / row_bytes);
            let (now, later) = rest.split_at(n * row_bytes);
            self.values.extend(iter_f64s(now));
            seq += n as u64;
            rest = later;
            if self.rows() == REPLAY_BLOCK_ROWS {
                self.flush(sink)?;
            }
        }
        Ok(taken)
    }

    /// Rows held; only meaningful while the block is non-empty.
    fn rows(&self) -> usize {
        self.values.len() / self.dim
    }
}

/// What one pass over a segment found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SegmentScan {
    /// Rows in the intact frames, whether or not they were replayed.
    pub(crate) rows: u64,
    /// Rows past the covered sequence, handed to the sink.
    pub(crate) replayed: u64,
    pub(crate) tail: TailStatus,
    /// Bytes through the last intact frame: where an appender resumes.
    pub(crate) valid_len: u64,
}

/// A segment whose header validated, its bytes mapped for one walk.
///
/// The segment is memory-mapped where the platform allows it
/// (`sketchad_core::mmapio::MappedBytes`), so frames are parsed straight
/// out of the page cache. The mapping lives only as long as this value —
/// it is released before a writer truncates a torn tail via
/// [`SegmentWriter::reopen`] — and callers hold no writer on the segment
/// while reading (recovery and inspection are exclusive), so the
/// no-concurrent-truncation precondition holds.
pub(crate) struct MappedSegment {
    bytes: sketchad_core::mmapio::MappedBytes,
    pub(crate) header: WalHeader,
}

impl MappedSegment {
    /// Maps the segment at `path` and validates its header: an I/O error,
    /// or a corrupt header that makes the whole segment unusable.
    pub(crate) fn open(path: &Path) -> Result<Self, DurableError> {
        let bytes = sketchad_core::mmapio::MappedBytes::open(path)?;
        let header = decode_wal_header(bytes.bytes())?;
        Ok(Self { bytes, header })
    }

    /// Walks the frames once, checksumming each, and hands every row of an
    /// intact frame whose sequence is past `covered` to `sink`, in blocks
    /// of at most [`REPLAY_BLOCK_ROWS`] consecutive rows decoded into
    /// `block`; rows at or below `covered` are checksummed but never
    /// decoded. The walk stops at the first frame that is incomplete or
    /// fails its checks (a torn tail). The last block is handed over
    /// before the walk returns; the only error is one from `sink`, which
    /// ends the walk.
    ///
    /// Frames are verified in groups of [`VERIFY_AHEAD`]: the walk sizes up
    /// to that many frames ahead, checksums them together
    /// ([`checksum64x4`]), then accepts them in order and stops at the
    /// first that fails. A frame sized past a bad one is never accepted,
    /// so the rows, the tail and `valid_len` are those of a walk that
    /// verifies one frame at a time.
    ///
    /// Each time the accepted position has moved [`RELEASE_STEP`] bytes
    /// past the last release, the walk lets the kernel drop the mapped
    /// pages behind it (`MappedBytes::release_prefix`): those frames are
    /// decoded and never read again, so the walk's resident memory is one
    /// release step plus one verify group, not the segment. What the walk
    /// reads and returns is unchanged; nothing on disk is touched.
    pub(crate) fn walk(
        &self,
        covered: u64,
        block: &mut ReplayBlock,
        sink: &mut impl FnMut(u64, &[f64], usize) -> Result<(), DurableError>,
    ) -> Result<SegmentScan, DurableError> {
        let bytes = self.bytes.bytes();
        let mut pos = WAL_HEADER_LEN;
        let mut released = 0;
        let (mut rows, mut replayed) = (0, 0);
        'walk: loop {
            let mut group: [Option<Frame<'_>>; VERIFY_AHEAD] = Default::default();
            let mut ahead = pos;
            for slot in &mut group {
                let Some(frame) = Frame::parse(&bytes[ahead..]) else {
                    break;
                };
                ahead += frame.len;
                *slot = Some(frame);
            }
            let sums = checksum64x4(
                group
                    .each_ref()
                    .map(|frame| frame.as_ref().map_or(&[][..], |f| f.body)),
            );
            for (frame, sum) in group.iter().zip(sums) {
                // The group ends early at the end of the segment, or at a
                // frame that does not size; a frame that fails its checksum
                // ends the walk too.
                let Some(frame) = frame.as_ref().filter(|f| f.stored == sum) else {
                    break 'walk;
                };
                rows += frame.rows as u64;
                replayed += block.push_past(frame, covered, bytes.len() - pos, sink)?;
                pos += frame.len;
            }
            if pos - released >= RELEASE_STEP {
                self.bytes.release_prefix(pos);
                released = pos;
            }
        }
        block.flush(sink)?;
        let tail = match bytes.len() - pos {
            0 => TailStatus::Clean,
            bytes_dropped => TailStatus::Torn { bytes_dropped },
        };
        Ok(SegmentScan {
            rows,
            replayed,
            tail,
            valid_len: pos as u64,
        })
    }
}

/// Frames a segment walk sizes ahead and checksums together.
const VERIFY_AHEAD: usize = 4;

/// Bytes a segment walk accepts between two releases of the mapped pages
/// behind it: the most of the walked log that stays resident.
const RELEASE_STEP: usize = 2 << 20;

/// One frame whose sizes are consistent, borrowed from the segment bytes.
/// Its checksum is not yet verified: only a frame whose `body` sums to
/// `stored` is intact.
struct Frame<'a> {
    first_seq: u64,
    rows: usize,
    dim: usize,
    values: &'a [u8],
    /// The checksummed bytes: `first_seq`, `rows`, `dim` and the values.
    body: &'a [u8],
    /// The checksum the writer stored behind the body.
    stored: u64,
    /// Bytes the whole frame occupies, prefix and checksum included.
    len: usize,
}

impl<'a> Frame<'a> {
    /// Sizes the frame at the front of `bytes`; `None` when it is
    /// incomplete or inconsistent (a torn tail). The sizes are checked
    /// against each other and against `bytes` before anything is read past
    /// them, so no field can make a reader allocate more than the segment
    /// holds. The checksum is left to the caller, which verifies several
    /// frames at once.
    fn parse(bytes: &'a [u8]) -> Option<Self> {
        let ctx = "WAL frame";
        let mut r = ByteReader::new(bytes);
        let len = r.get_u32(ctx).ok()? as usize;
        let body = r.get_bytes(len, ctx).ok()?;
        let stored = r.get_u64(ctx).ok()?;
        let mut head = ByteReader::new(body);
        let first_seq = head.get_u64(ctx).ok()?;
        let rows = head.get_u32(ctx).ok()? as usize;
        let dim = head.get_u32(ctx).ok()? as usize;
        let values = head.get_bytes(head.remaining(), ctx).ok()?;
        let sized = rows
            .checked_mul(dim)
            .and_then(|n| n.checked_mul(8))
            .is_some_and(|n| n == values.len());
        if rows == 0 || dim == 0 || !sized || first_seq.checked_add(rows as u64).is_none() {
            return None;
        }
        Some(Frame {
            first_seq,
            rows,
            dim,
            values,
            body,
            stored,
            len: FRAME_OVERHEAD + len,
        })
    }
}

/// Lists WAL segment files in `dir`, sorted by segment number ascending.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, DurableError> {
    list_numbered(dir, parse_wal_name)
}

/// An open WAL segment accepting appends.
#[derive(Debug)]
pub struct SegmentWriter {
    file: fs::File,
    path: PathBuf,
    bytes_written: u64,
}

impl SegmentWriter {
    /// Creates a fresh segment file with its header already written.
    pub fn create(dir: &Path, segment: u64, header: &WalHeader) -> Result<Self, DurableError> {
        let path = dir.join(wal_file_name(segment));
        let mut file = fs::File::create(&path)?;
        let bytes = encode_wal_header(header);
        file.write_all(&bytes)?;
        Ok(Self {
            file,
            path,
            bytes_written: bytes.len() as u64,
        })
    }

    /// Reopens an existing segment for append after truncating it to
    /// `valid_len` bytes (discarding any torn tail found during recovery).
    pub(crate) fn reopen(path: &Path, valid_len: u64) -> Result<Self, DurableError> {
        let mut file = fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            bytes_written: valid_len,
        })
    }

    /// Appends encoded frames (see [`encode_wal_frame`]) with one
    /// `write_all`.
    pub fn append(&mut self, frames: &[u8]) -> Result<(), DurableError> {
        self.file.write_all(frames)?;
        self.bytes_written += frames.len() as u64;
        Ok(())
    }

    /// Forces written frames to stable storage.
    pub(crate) fn sync(&mut self) -> Result<(), DurableError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Bytes written so far, including the header.
    pub fn len(&self) -> u64 {
        self.bytes_written
    }

    /// True when the segment holds only its header.
    pub fn is_empty(&self) -> bool {
        self.bytes_written <= WAL_HEADER_LEN as u64
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchad_sketch::wire::checksum64;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("skad-wal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn records(n: u64, dim: usize) -> Vec<WalRecord> {
        (1..=n)
            .map(|seq| WalRecord {
                seq,
                row: (0..dim).map(|j| seq as f64 + 0.25 * j as f64).collect(),
            })
            .collect()
    }

    /// Logs `recs` (consecutive sequences) in frames of `per_frame` rows.
    fn append_frames(w: &mut SegmentWriter, recs: &[WalRecord], per_frame: usize) {
        let mut buf = Vec::new();
        for batch in recs.chunks(per_frame) {
            let rows: Vec<f64> = batch.iter().flat_map(|r| r.row.iter().copied()).collect();
            buf.clear();
            encode_wal_frame(batch[0].seq, &rows, batch[0].row.len(), &mut buf);
            w.append(&buf).unwrap();
        }
    }

    /// Frame bytes pinned by value: the checksums were taken from the
    /// encoder that took one `Vec<f64>` per row, before frames were encoded
    /// from one row-major slice. The bytes on disk must not move.
    #[test]
    fn flat_encoder_reproduces_golden_frames() {
        let row = |seq: u64, dim: usize| -> Vec<f64> {
            (0..dim)
                .map(|j| seq as f64 * 1.5 - j as f64 / 3.0)
                .collect()
        };
        let three: Vec<f64> = (7..10).flat_map(|seq| row(seq, 5)).collect();
        let mut frame = Vec::new();
        encode_wal_frame(7, &three, 5, &mut frame);
        assert_eq!(frame.len(), 148);
        assert_eq!(checksum64(&frame), 0x808b_4d1b_4b5c_f9f8);
        let one = WalRecord {
            seq: 42,
            row: row(42, 3),
        };
        let frame = encode_wal_record(&one);
        assert_eq!(frame.len(), 52);
        assert_eq!(checksum64(&frame), 0x594d_6560_ec30_bd50);
    }

    #[test]
    fn segment_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let header = WalHeader {
            shard: 1,
            start_seq: 0,
        };
        let mut w = SegmentWriter::create(&dir, 0, &header).unwrap();
        let recs = records(10, 3);
        append_frames(&mut w, &recs, 4);
        w.sync().unwrap();
        let (h, got, tail) = read_segment(&dir.join(wal_file_name(0))).unwrap();
        assert_eq!(h, header);
        assert_eq!(got, recs);
        assert_eq!(tail, TailStatus::Clean);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmp_dir("torn");
        let header = WalHeader {
            shard: 0,
            start_seq: 5,
        };
        let mut w = SegmentWriter::create(&dir, 1, &header).unwrap();
        let recs = records(4, 2);
        append_frames(&mut w, &recs, 2);
        w.sync().unwrap();
        let path = dir.join(wal_file_name(1));
        // Append half of a fifth record — a crash mid-write.
        let torn = encode_wal_record(&WalRecord {
            seq: 5,
            row: vec![9.0, 9.0],
        });
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();

        let (_, got, tail) = read_segment(&path).unwrap();
        assert_eq!(got, recs, "intact prefix must survive");
        assert_eq!(
            tail,
            TailStatus::Torn {
                bytes_dropped: torn.len() / 2
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mapped_and_buffered_replay_are_identical() {
        // Same segment, both read paths: the mmap backing must be
        // invisible to recovery (header, records, tail all equal).
        let dir = tmp_dir("mmap_eq");
        let header = WalHeader {
            shard: 1,
            start_seq: 4,
        };
        let mut w = SegmentWriter::create(&dir, 7, &header).unwrap();
        let recs = records(6, 3);
        append_frames(&mut w, &recs, 5);
        w.sync().unwrap();
        let path = dir.join(wal_file_name(7));
        let mapped = read_segment(&path).unwrap();
        std::env::set_var(sketchad_core::mmapio::NO_MMAP_ENV, "1");
        let buffered = read_segment(&path);
        std::env::remove_var(sketchad_core::mmapio::NO_MMAP_ENV);
        assert_eq!(mapped, buffered.unwrap());
        assert_eq!(mapped.1, recs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_body_stops_replay_at_that_frame() {
        let dir = tmp_dir("flip");
        let mut w = SegmentWriter::create(
            &dir,
            0,
            &WalHeader {
                shard: 0,
                start_seq: 0,
            },
        )
        .unwrap();
        let recs = records(6, 2);
        append_frames(&mut w, &recs, 2);
        w.sync().unwrap();
        let path = dir.join(wal_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a value byte inside the second frame: its whole batch goes,
        // and so does the intact third frame behind it.
        let mut first_frame = Vec::new();
        encode_wal_frame(
            1,
            &[recs[0].row.as_slice(), &recs[1].row].concat(),
            2,
            &mut first_frame,
        );
        let idx = WAL_HEADER_LEN + first_frame.len() + 4 + FRAME_BODY_HEADER + 3;
        bytes[idx] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (_, got, tail) = read_segment(&path).unwrap();
        assert_eq!(got, recs[..2], "only the first frame is trustworthy");
        assert!(matches!(tail, TailStatus::Torn { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_header_is_fatal() {
        let dir = tmp_dir("hdr");
        let w = SegmentWriter::create(
            &dir,
            0,
            &WalHeader {
                shard: 3,
                start_seq: 0,
            },
        )
        .unwrap();
        drop(w);
        let path = dir.join(wal_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[1] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_segment(&path).is_err());
        assert!(read_wal_header(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn other_format_versions_are_rejected_as_unsupported() {
        // A well-formed header of any other version (v1 included, whatever
        // its checksum) is refused by version, before the checksum.
        let mut bytes = encode_wal_header(&WalHeader {
            shard: 0,
            start_seq: 9,
        });
        for version in [1u8, 3] {
            bytes[4] = version;
            let err = decode_wal_header(&bytes).unwrap_err();
            assert!(
                err.to_string().contains("unsupported WAL format version"),
                "{err}"
            );
        }
    }

    #[test]
    fn reopen_truncates_and_appends() {
        let dir = tmp_dir("reopen");
        let header = WalHeader {
            shard: 0,
            start_seq: 0,
        };
        let mut w = SegmentWriter::create(&dir, 2, &header).unwrap();
        append_frames(&mut w, &records(2, 2), 2);
        let valid = w.len();
        drop(w);
        let path = dir.join(wal_file_name(2));
        // Simulate a torn tail, then reopen at the valid length.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xaa; 7]);
        std::fs::write(&path, &bytes).unwrap();
        let mut w = SegmentWriter::reopen(&path, valid).unwrap();
        w.append(&encode_wal_record(&WalRecord {
            seq: 3,
            row: vec![1.0, 2.0],
        }))
        .unwrap();
        w.sync().unwrap();
        let (_, got, tail) = read_segment(&path).unwrap();
        assert_eq!(tail, TailStatus::Clean);
        assert_eq!(got.len(), 3);
        assert_eq!(got[2].seq, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_collects_only_rows_past_the_covered_sequence() {
        let dir = tmp_dir("covered");
        let mut w = SegmentWriter::create(
            &dir,
            0,
            &WalHeader {
                shard: 0,
                start_seq: 0,
            },
        )
        .unwrap();
        let recs = records(9, 2);
        append_frames(&mut w, &recs, 3);
        let path = dir.join(wal_file_name(0));
        for covered in 0..=10 {
            let mut out = Vec::new();
            let scan = MappedSegment::open(&path)
                .unwrap()
                .walk(
                    covered,
                    &mut ReplayBlock::default(),
                    &mut collect_into(&mut out),
                )
                .unwrap();
            assert_eq!(scan.rows, 9);
            assert_eq!(scan.replayed, out.len() as u64);
            assert_eq!(scan.valid_len, w.len());
            assert_eq!(out, recs[(covered as usize).min(9)..], "covered {covered}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inconsistent_frame_sizes_are_torn_even_under_a_valid_checksum() {
        // Hand-built frames whose checksum holds but whose `rows`, `dim`
        // and `len` disagree (or are zero): a writer never emits them, so
        // the reader treats each as the end of the log.
        let frame = |rows: u32, dim: u32, values: usize| {
            let mut body = 1u64.to_le_bytes().to_vec();
            body.extend_from_slice(&rows.to_le_bytes());
            body.extend_from_slice(&dim.to_le_bytes());
            body.extend(std::iter::repeat_n(0u8, values * 8));
            let mut out = (body.len() as u32).to_le_bytes().to_vec();
            out.extend_from_slice(&body);
            out.extend_from_slice(&checksum64(&body).to_le_bytes());
            out
        };
        let dir = tmp_dir("sizes");
        let path = dir.join(wal_file_name(0));
        let header = encode_wal_header(&WalHeader {
            shard: 0,
            start_seq: 0,
        });
        for (rows, dim, values) in [
            (3, 2, 4),
            (1, 2, 3),
            (0, 2, 0),
            (2, 0, 0),
            (u32::MAX, u32::MAX, 2),
        ] {
            let bad = frame(rows, dim, values);
            std::fs::write(&path, [header.as_slice(), &bad].concat()).unwrap();
            let (_, got, tail) = read_segment(&path).unwrap();
            assert!(got.is_empty(), "rows {rows} dim {dim} values {values}");
            assert_eq!(
                tail,
                TailStatus::Torn {
                    bytes_dropped: bad.len()
                }
            );
        }
        // The same builder's consistent frame reads back.
        std::fs::write(&path, [header.as_slice(), &frame(2, 2, 4)].concat()).unwrap();
        let (_, got, tail) = read_segment(&path).unwrap();
        assert_eq!((got.len(), tail), (2, TailStatus::Clean));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A walk that verifies one frame at a time, each sized and
    /// checksummed on its own: the reference the grouped walk must match.
    /// Returns the rows past `covered` and what the walk found.
    fn reference_walk(bytes: &[u8], covered: u64) -> (Vec<WalRecord>, SegmentScan) {
        let mut pos = WAL_HEADER_LEN;
        let (mut out, mut rows) = (Vec::new(), 0);
        let tail = loop {
            if pos == bytes.len() {
                break TailStatus::Clean;
            }
            let rest = &bytes[pos..];
            let intact = (|| {
                let len = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
                let body = rest.get(4..4 + len)?;
                let stored = u64::from_le_bytes(rest.get(4 + len..12 + len)?.try_into().ok()?);
                if checksum64(body) != stored || body.len() < 16 {
                    return None;
                }
                let first = u64::from_le_bytes(body[..8].try_into().ok()?);
                let n = u32::from_le_bytes(body[8..12].try_into().ok()?) as u64;
                let dim = u32::from_le_bytes(body[12..16].try_into().ok()?) as usize;
                let whole = n > 0 && dim > 0 && (n as usize) * dim * 8 == body.len() - 16;
                whole.then_some((len, first, n, dim, &body[16..]))
            })();
            let Some((len, first, n, dim, values)) = intact else {
                break TailStatus::Torn {
                    bytes_dropped: bytes.len() - pos,
                };
            };
            for (i, row) in values.chunks_exact(dim * 8).enumerate() {
                let seq = first + i as u64;
                if seq > covered {
                    out.push(WalRecord {
                        seq,
                        row: row
                            .chunks_exact(8)
                            .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
                            .collect(),
                    });
                }
            }
            rows += n;
            pos += len + 12;
        };
        let scan = SegmentScan {
            rows,
            replayed: out.len() as u64,
            tail,
            valid_len: pos as u64,
        };
        (out, scan)
    }

    /// Nine frames of unequal row counts, so every position in a group of
    /// four holds a bad frame in some case below: a cut inside frame j, a
    /// flipped byte in frame j (in its length, its body and its checksum),
    /// and `covered` at every frame boundary. The grouped walk returns the
    /// reference walk's rows, `SegmentScan` and tail in each.
    #[test]
    fn grouped_walk_matches_a_frame_at_a_time_walk() {
        let dir = tmp_dir("lockstep");
        let mut w = SegmentWriter::create(
            &dir,
            0,
            &WalHeader {
                shard: 0,
                start_seq: 0,
            },
        )
        .unwrap();
        let counts = [1usize, 256, 3, 17, 1, 64, 2, 9, 5];
        let recs = records(counts.iter().sum::<usize>() as u64, 3);
        let mut ends = vec![WAL_HEADER_LEN];
        let mut last_seqs = vec![0];
        let mut first = 0;
        for n in counts {
            append_frames(&mut w, &recs[first..first + n], n);
            first += n;
            ends.push(w.len() as usize);
            last_seqs.push(first as u64);
        }
        drop(w);
        let path = dir.join(wal_file_name(0));
        let good = std::fs::read(&path).unwrap();

        let check = |bytes: &[u8], covered: u64, what: &str| {
            std::fs::write(&path, bytes).unwrap();
            let mut got = Vec::new();
            let scan = MappedSegment::open(&path)
                .unwrap()
                .walk(
                    covered,
                    &mut ReplayBlock::default(),
                    &mut collect_into(&mut got),
                )
                .unwrap();
            let (want, want_scan) = reference_walk(bytes, covered);
            assert_eq!(scan, want_scan, "{what}");
            assert_eq!(got, want, "{what}");
        };

        for j in 0..counts.len() {
            let (start, end) = (ends[j], ends[j + 1]);
            for cut in [start + 1, start + 4, (start + end) / 2, end - 1] {
                check(&good[..cut], 0, &format!("cut at {cut} inside frame {j}"));
            }
            for at in [start, start + 5, (start + end) / 2, end - 1] {
                let mut bad = good.clone();
                bad[at] ^= 0x20;
                check(&bad, 0, &format!("byte {at} of frame {j} flipped"));
            }
        }
        for &covered in &last_seqs {
            for covered in [covered.saturating_sub(1), covered, covered + 1] {
                check(&good, covered, &format!("covered {covered}"));
            }
        }
        // The intact segment, whole: two full groups and one frame.
        let (_, scan) = reference_walk(&good, 0);
        assert_eq!(scan.tail, TailStatus::Clean);
        assert_eq!(scan.rows, recs.len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every prefix, every single-bit flip and every single-byte 0xff
    /// write of a valid three-frame segment: header damage is an error;
    /// otherwise exactly the intact leading frames come back and the tail
    /// reads torn. A damaged `len`, `rows` or `dim` is refused by the size
    /// checks, so nothing is reserved from it (the allocation bound is
    /// counted in `tests/steady_state_alloc.rs`).
    #[test]
    fn reader_survives_every_truncation_and_byte_flip() {
        let dir = tmp_dir("sweep");
        let mut w = SegmentWriter::create(
            &dir,
            0,
            &WalHeader {
                shard: 2,
                start_seq: 10,
            },
        )
        .unwrap();
        let recs: Vec<WalRecord> = records(16, 3).split_off(10);
        // Frames of 1, 2 and 3 rows: sequences 11, 12–13, 14–16.
        let mut valid = Vec::new();
        let mut ends = vec![WAL_HEADER_LEN];
        for (first, n) in [(0usize, 1usize), (1, 2), (3, 3)] {
            let rows: Vec<f64> = recs[first..first + n]
                .iter()
                .flat_map(|r| r.row.iter().copied())
                .collect();
            valid.clear();
            encode_wal_frame(recs[first].seq, &rows, 3, &mut valid);
            w.append(&valid).unwrap();
            ends.push(w.len() as usize);
        }
        drop(w);
        let path = dir.join(wal_file_name(0));
        let good = std::fs::read(&path).unwrap();
        let rows_before = [0usize, 1, 3, 6];
        // The frames wholly inside the first `n` bytes.
        let intact = |n: usize| ends.iter().rposition(|&e| e <= n).unwrap_or(0);

        let check = |bytes: &[u8], damaged_at: Option<usize>, what: &str| {
            std::fs::write(&path, bytes).unwrap();
            let result = read_segment(&path);
            if bytes.len() < WAL_HEADER_LEN || damaged_at.is_some_and(|i| i < WAL_HEADER_LEN) {
                assert!(result.is_err(), "{what}: header damage must be an error");
                return;
            }
            let (header, got, tail) = result.unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(header.start_seq, 10, "{what}");
            // Damage inside frame f keeps frames before it; a cut keeps
            // the frames that fit.
            let frames = match damaged_at {
                Some(i) => ends.iter().rposition(|&e| e <= i).unwrap(),
                None => intact(bytes.len()),
            };
            assert_eq!(got, recs[..rows_before[frames]], "{what}");
            let expect_tail = if ends[frames] == bytes.len() {
                TailStatus::Clean
            } else {
                TailStatus::Torn {
                    bytes_dropped: bytes.len() - ends[frames],
                }
            };
            assert_eq!(tail, expect_tail, "{what}");
        };

        for cut in 0..=good.len() {
            check(&good[..cut], None, &format!("prefix {cut}"));
        }
        let mut bad = good.clone();
        for i in 0..good.len() {
            for bit in 0..8 {
                bad[i] ^= 1 << bit;
                check(&bad, Some(i), &format!("bit {bit} of byte {i}"));
                bad[i] = good[i];
            }
            if good[i] != 0xff {
                bad[i] = 0xff;
                check(&bad, Some(i), &format!("byte {i} = 0xff"));
                bad[i] = good[i];
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

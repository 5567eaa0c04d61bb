//! `sketchad-rows/v1` — the compact binary row format for replay streams.
//!
//! CSV replay pays a float parse per cell per run; this format pays a fixed
//! 8-byte little-endian copy instead. The layout is fixed-width so a reader
//! can address any row by offset arithmetic alone — the whole file (or an
//! `mmap` of it) is usable as-is through [`RowsView`], with zero parse cost
//! and zero per-row allocation.
//!
//! ## Layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"SKRW"
//! 4       2     version (LE u16) — currently 1
//! 6       2     flags (LE u16) — bit 0: every row carries a u64 key
//! 8       4     dim (LE u32) — features per row, > 0
//! 12      8     row count (LE u64)
//! 20      …     rows: dim × f64 (LE), then the u64 key (LE) when flagged
//! ```
//!
//! Every field is framed by `sketchad_sketch::wire`, the one module that
//! knows the workspace's byte layouts.
//!
//! The key column is caller-defined: the serving layer uses it as a
//! partition key, the `streams` adapter stores 0/1 ground-truth labels in
//! it. Readers that do not care simply ignore it.
//!
//! ## Encode/decode round-trip
//!
//! ```
//! use sketchad_core::rowfmt::{encode_rows, RowsView};
//!
//! let rows = vec![vec![1.0, -2.5, 0.125], vec![3.0, 4.0, 5.0]];
//! let keys = vec![0u64, 1u64];
//! let bytes = encode_rows(&rows, Some(&keys)).unwrap();
//!
//! let view = RowsView::new(&bytes).unwrap();
//! assert_eq!(view.dim(), 3);
//! assert_eq!(view.len(), 2);
//! let mut row = vec![0.0; view.dim()];
//! let key = view.read_row_into(1, &mut row).unwrap();
//! assert_eq!(row, vec![3.0, 4.0, 5.0]);         // bitwise, not approximate
//! assert_eq!(key, Some(1));
//! ```

use std::fs::File;
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

use sketchad_sketch::wire::{ByteReader, ByteWriter, PreambleError};

/// File magic: the first four bytes of every `sketchad-rows` file.
pub(crate) const ROWS_MAGIC: [u8; 4] = *b"SKRW";
/// Current format version.
pub(crate) const ROWS_VERSION: u16 = 1;
/// Flag bit 0: every row is followed by a `u64` key.
pub(crate) const FLAG_HAS_KEYS: u16 = 1;
/// Fixed header size in bytes.
pub(crate) const HEADER_LEN: usize = 20;

/// Errors from decoding a `sketchad-rows` buffer or file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowfmtError {
    /// Buffer shorter than the fixed header.
    TooShort,
    /// The first four bytes are not `ROWS_MAGIC`.
    BadMagic([u8; 4]),
    /// Version other than `ROWS_VERSION`.
    BadVersion(u16),
    /// Flags with bits this version does not define.
    BadFlags(u16),
    /// `dim == 0` in the header.
    ZeroDim,
    /// Body length inconsistent with `count × row_stride`.
    LengthMismatch {
        /// Bytes the header's row count requires.
        expected: u64,
        /// Bytes actually present after the header.
        actual: u64,
    },
}

impl std::fmt::Display for RowfmtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RowfmtError::TooShort => write!(f, "buffer shorter than the {HEADER_LEN}-byte header"),
            RowfmtError::BadMagic(m) => write!(f, "bad magic {m:?} (expected {ROWS_MAGIC:?})"),
            RowfmtError::BadVersion(v) => write!(f, "version {v} (expected {ROWS_VERSION})"),
            RowfmtError::BadFlags(fl) => write!(f, "undefined flag bits {fl:#06x}"),
            RowfmtError::ZeroDim => write!(f, "dim must be positive"),
            RowfmtError::LengthMismatch { expected, actual } => write!(
                f,
                "body holds {actual} bytes, header row count requires {expected}"
            ),
        }
    }
}

impl std::error::Error for RowfmtError {}

/// Parsed fixed-width header of a `sketchad-rows` buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowsHeader {
    /// Features per row.
    pub(crate) dim: usize,
    /// Rows in the body.
    pub(crate) count: u64,
    /// Whether every row carries a trailing `u64` key.
    pub(crate) has_keys: bool,
}

impl RowsHeader {
    /// Bytes one row occupies in the body.
    pub(crate) fn row_stride(&self) -> usize {
        self.dim * 8 + if self.has_keys { 8 } else { 0 }
    }

    /// Serializes the header into its fixed 20-byte form.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_preamble(ROWS_MAGIC, ROWS_VERSION);
        w.put_u16(if self.has_keys { FLAG_HAS_KEYS } else { 0 });
        w.put_u32(self.dim as u32);
        w.put_u64(self.count);
        w.into_vec()
    }

    /// Parses and validates the fixed header (magic, version, flags, dim).
    ///
    /// # Errors
    /// Every malformed-header case maps to a distinct [`RowfmtError`].
    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, RowfmtError> {
        let mut r = ByteReader::new(bytes.get(..HEADER_LEN).ok_or(RowfmtError::TooShort)?);
        r.get_preamble(ROWS_MAGIC, ROWS_VERSION)
            .map_err(|e| match e {
                PreambleError::Magic(magic) => RowfmtError::BadMagic(magic),
                PreambleError::Version(version) => RowfmtError::BadVersion(version),
                PreambleError::Short => RowfmtError::TooShort,
            })?;
        let (field, short) = ("sketchad-rows header", |_| RowfmtError::TooShort);
        let flags = r.get_u16(field).map_err(short)?;
        if flags & !FLAG_HAS_KEYS != 0 {
            return Err(RowfmtError::BadFlags(flags));
        }
        let dim = r.get_u32(field).map_err(short)? as usize;
        if dim == 0 {
            return Err(RowfmtError::ZeroDim);
        }
        let count = r.get_u64(field).map_err(short)?;
        Ok(Self {
            dim,
            count,
            has_keys: flags & FLAG_HAS_KEYS != 0,
        })
    }
}

/// A zero-copy view over a `sketchad-rows` byte buffer — a whole file read
/// into memory, or an `mmap`ed region. Construction validates the header
/// and the body-length/row-count consistency once; row access after that is
/// offset arithmetic plus fixed-width copies.
#[derive(Debug, Clone, Copy)]
pub struct RowsView<'a> {
    header: RowsHeader,
    body: &'a [u8],
}

impl<'a> RowsView<'a> {
    /// Validates `bytes` as a complete `sketchad-rows/v1` buffer.
    ///
    /// # Errors
    /// Header violations and body/count length mismatches.
    pub fn new(bytes: &'a [u8]) -> Result<Self, RowfmtError> {
        let header = RowsHeader::decode(bytes)?;
        let body = &bytes[HEADER_LEN..];
        // Saturating: a corrupt count must read as a mismatch, not overflow.
        let expected = header.count.saturating_mul(header.row_stride() as u64);
        if body.len() as u64 != expected {
            return Err(RowfmtError::LengthMismatch {
                expected,
                actual: body.len() as u64,
            });
        }
        Ok(Self { header, body })
    }

    /// Features per row.
    pub fn dim(&self) -> usize {
        self.header.dim
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.header.count as usize
    }

    /// Whether the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.header.count == 0
    }

    /// Decodes row `i` into `out` (length must equal [`dim`](Self::dim))
    /// and returns its key when the file carries keys. Returns `None` when
    /// `i` is out of range.
    ///
    /// # Panics
    /// Panics when `out.len() != self.dim()`.
    pub fn read_row_into(&self, i: usize, out: &mut [f64]) -> Option<Option<u64>> {
        assert_eq!(out.len(), self.header.dim, "output buffer length != dim");
        if i as u64 >= self.header.count {
            return None;
        }
        let stride = self.header.row_stride();
        let mut row = ByteReader::new(&self.body[i * stride..(i + 1) * stride]);
        let validated = "a row of a validated body";
        row.get_f64s_into(out, "rows cells").expect(validated);
        let has_keys = self.header.has_keys;
        Some(has_keys.then(|| row.get_u64("rows key").expect(validated)))
    }

    /// Iterates `(row, key)` pairs, reusing one internal row buffer is the
    /// caller's job — this convenience allocates per row and is meant for
    /// tests and small files; hot paths should loop `read_row_into`.
    pub fn iter_rows(&self) -> impl Iterator<Item = (Vec<f64>, Option<u64>)> + '_ {
        (0..self.len()).map(move |i| {
            let mut row = vec![0.0; self.header.dim];
            let key = self.read_row_into(i, &mut row).expect("index in range");
            (row, key)
        })
    }
}

/// Encodes rows (and optional per-row keys) into a complete in-memory
/// `sketchad-rows/v1` buffer.
///
/// # Errors
/// Returns `Err` when rows have inconsistent lengths, the row set is empty
/// of dimension (first row empty), or `keys` is present with a different
/// length than `rows`.
pub fn encode_rows(rows: &[Vec<f64>], keys: Option<&[u64]>) -> Result<Vec<u8>, RowfmtError> {
    let dim = rows.first().map(Vec::len).unwrap_or(0);
    if dim == 0 {
        return Err(RowfmtError::ZeroDim);
    }
    if let Some(keys) = keys {
        if keys.len() != rows.len() {
            return Err(RowfmtError::LengthMismatch {
                expected: rows.len() as u64,
                actual: keys.len() as u64,
            });
        }
    }
    let header = RowsHeader {
        dim,
        count: rows.len() as u64,
        has_keys: keys.is_some(),
    };
    let mut w = ByteWriter::from_vec(header.encode());
    for (i, row) in rows.iter().enumerate() {
        if row.len() != dim {
            return Err(RowfmtError::LengthMismatch {
                expected: dim as u64,
                actual: row.len() as u64,
            });
        }
        w.put_f64s(row);
        if let Some(keys) = keys {
            w.put_u64(keys[i]);
        }
    }
    Ok(w.into_vec())
}

/// Streaming writer producing a `sketchad-rows/v1` file.
///
/// Rows are appended incrementally, one `write` each;
/// [`finish`](Self::finish) rewrites the header with the row count and
/// flushes. Dropping without `finish` leaves a file whose header claims
/// zero rows over a non-empty body — readers reject it, so a torn write
/// never passes for a complete one.
#[derive(Debug)]
pub struct RowsWriter {
    w: BufWriter<File>,
    header: RowsHeader,
    /// One encoded row, reused across rows.
    row: ByteWriter,
}

impl RowsWriter {
    /// Creates `path`, writing a provisional header claiming zero rows.
    ///
    /// # Errors
    /// Filesystem errors; `dim == 0` yields `InvalidInput`.
    pub fn create(path: &Path, dim: usize, has_keys: bool) -> io::Result<Self> {
        if dim == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "rows dim must be positive",
            ));
        }
        let mut w = BufWriter::new(File::create(path)?);
        let header = RowsHeader {
            dim,
            count: 0,
            has_keys,
        };
        w.write_all(&header.encode())?;
        Ok(Self {
            w,
            header,
            row: ByteWriter::from_vec(Vec::with_capacity(header.row_stride())),
        })
    }

    /// Appends one row; `key` must be `Some` iff the writer was created
    /// with `has_keys`.
    ///
    /// # Errors
    /// Filesystem errors; row-length or key-presence mismatches yield
    /// `InvalidInput`.
    pub fn write_row(&mut self, row: &[f64], key: Option<u64>) -> io::Result<()> {
        let dim = self.header.dim;
        if row.len() != dim {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("row has {} values, writer dim is {dim}", row.len()),
            ));
        }
        if key.is_some() != self.header.has_keys {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "key presence must match the writer's has_keys flag",
            ));
        }
        self.row.clear();
        self.row.put_f64s(row);
        if let Some(k) = key {
            self.row.put_u64(k);
        }
        self.w.write_all(self.row.as_slice())?;
        self.header.count += 1;
        Ok(())
    }

    /// Rewrites the header with the row count and flushes; returns the
    /// rows written.
    ///
    /// # Errors
    /// Filesystem errors.
    pub fn finish(mut self) -> io::Result<u64> {
        self.w.flush()?;
        let file = self.w.get_mut();
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&self.header.encode())?;
        file.flush()?;
        Ok(self.header.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sketchad-rowfmt-{}-{name}", std::process::id()))
    }

    #[test]
    fn roundtrip_is_bitwise() {
        let rows = vec![
            vec![1.0, f64::MIN_POSITIVE, -0.0],
            vec![std::f64::consts::PI, 1e300, -3.25],
        ];
        let bytes = encode_rows(&rows, None).unwrap();
        let view = RowsView::new(&bytes).unwrap();
        assert_eq!(view.len(), 2);
        assert!(!view.header.has_keys);
        let mut row = vec![0.0; 3];
        for (i, original) in rows.iter().enumerate() {
            assert_eq!(view.read_row_into(i, &mut row), Some(None));
            for (a, b) in row.iter().zip(original) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i} not bitwise equal");
            }
        }
        assert!(view.read_row_into(2, &mut row).is_none());
    }

    #[test]
    fn keys_roundtrip() {
        let rows = vec![vec![1.0], vec![2.0], vec![3.0]];
        let keys = vec![7u64, u64::MAX, 0];
        let bytes = encode_rows(&rows, Some(&keys)).unwrap();
        let view = RowsView::new(&bytes).unwrap();
        assert!(view.header.has_keys);
        let collected: Vec<(Vec<f64>, Option<u64>)> = view.iter_rows().collect();
        assert_eq!(collected.len(), 3);
        for (i, (row, key)) in collected.iter().enumerate() {
            assert_eq!(row, &rows[i]);
            assert_eq!(*key, Some(keys[i]));
        }
    }

    #[test]
    fn header_violations_are_distinct() {
        assert_eq!(RowsHeader::decode(&[0; 4]), Err(RowfmtError::TooShort));
        let good = RowsHeader {
            dim: 4,
            count: 2,
            has_keys: false,
        };
        let mut bad_magic = good.encode();
        bad_magic[0] = b'X';
        assert!(matches!(
            RowsHeader::decode(&bad_magic),
            Err(RowfmtError::BadMagic(_))
        ));
        let mut bad_version = good.encode();
        bad_version[4] = 9;
        assert_eq!(
            RowsHeader::decode(&bad_version),
            Err(RowfmtError::BadVersion(9))
        );
        let mut bad_flags = good.encode();
        bad_flags[6] = 0xFE;
        assert!(matches!(
            RowsHeader::decode(&bad_flags),
            Err(RowfmtError::BadFlags(_))
        ));
        let mut zero_dim = good.encode();
        zero_dim[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(RowsHeader::decode(&zero_dim), Err(RowfmtError::ZeroDim));
    }

    #[test]
    fn truncated_body_is_rejected() {
        let bytes = encode_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]], None).unwrap();
        let torn = &bytes[..bytes.len() - 3];
        assert!(matches!(
            RowsView::new(torn),
            Err(RowfmtError::LengthMismatch { .. })
        ));
        // An over-long body is just as invalid.
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0; 8]);
        assert!(matches!(
            RowsView::new(&padded),
            Err(RowfmtError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn ragged_rows_and_mismatched_keys_rejected() {
        assert!(encode_rows(&[vec![1.0, 2.0], vec![3.0]], None).is_err());
        assert!(encode_rows(&[], None).is_err());
        assert!(encode_rows(&[vec![1.0]], Some(&[1, 2])).is_err());
    }

    #[test]
    fn writer_roundtrips_through_file() {
        let path = tmp("writer.rows");
        let mut w = RowsWriter::create(&path, 2, true).unwrap();
        w.write_row(&[1.5, -2.5], Some(1)).unwrap();
        w.write_row(&[0.0, 9.75], Some(0)).unwrap();
        assert_eq!(w.finish().unwrap(), 2);
        let file = crate::MmapRows::open(&path).unwrap();
        let view = file.view();
        assert_eq!(view.len(), 2);
        let mut row = vec![0.0; 2];
        assert_eq!(view.read_row_into(0, &mut row), Some(Some(1)));
        assert_eq!(row, vec![1.5, -2.5]);
        drop(file);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_enforces_shape() {
        let path = tmp("shape.rows");
        let mut w = RowsWriter::create(&path, 2, false).unwrap();
        assert!(w.write_row(&[1.0], None).is_err());
        assert!(w.write_row(&[1.0, 2.0], Some(3)).is_err());
        assert!(w.write_row(&[1.0, 2.0], None).is_ok());
        w.finish().unwrap();
        std::fs::remove_file(&path).ok();
        assert!(RowsWriter::create(&tmp("zero.rows"), 0, false).is_err());
    }

    #[test]
    fn every_truncation_and_byte_flip_decodes_or_errs() {
        // A small keyed file; then every prefix, every single-bit flip and
        // every 0xff byte. Each must come back as a typed error, or as a
        // view whose every row reads (and whose first row past the end is
        // `None`) — never a panic.
        let rows: Vec<Vec<f64>> = (0..4)
            .map(|i| (0..3).map(|j| i as f64 * 1.25 - j as f64).collect())
            .collect();
        let good = encode_rows(&rows, Some(&[3, 1, 4, 1])).unwrap();
        let decode = |bytes: &[u8]| -> Result<usize, RowfmtError> {
            let view = RowsView::new(bytes)?;
            if view.is_empty() {
                return Ok(0);
            }
            // A view's body holds `len × stride` bytes, so `dim` is bounded
            // by the buffer here.
            let mut out = vec![0.0; view.dim()];
            for i in 0..view.len() {
                assert!(view.read_row_into(i, &mut out).is_some());
                assert_eq!(
                    view.read_row_into(i, &mut out).unwrap().is_some(),
                    view.header.has_keys
                );
            }
            assert!(view.read_row_into(view.len(), &mut out).is_none());
            Ok(view.len())
        };
        assert_eq!(decode(&good), Ok(4));
        for cut in 0..good.len() {
            assert!(
                decode(&good[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        let mut bad = good.clone();
        let mut decoded = 0;
        for i in 0..good.len() {
            for flip in (0..8).map(|bit| good[i] ^ (1 << bit)).chain([0xff]) {
                bad[i] = flip;
                decoded += usize::from(decode(&bad).is_ok());
            }
            bad[i] = good[i];
        }
        // Flips in the row bodies decode (the format has no checksum); the
        // header's are refused.
        assert!(decoded > 0);
    }

    #[test]
    fn unfinished_file_is_rejected() {
        // A writer dropped before `finish` leaves count=0 over a non-empty
        // body — the length consistency check refuses it.
        let path = tmp("torn.rows");
        let mut w = RowsWriter::create(&path, 2, false).unwrap();
        w.write_row(&[1.0, 2.0], None).unwrap();
        drop(w);
        assert!(crate::MmapRows::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}

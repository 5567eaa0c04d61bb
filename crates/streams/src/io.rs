//! Persistence for labeled streams: text CSV and the binary
//! `sketchad-rows/v1` format.
//!
//! CSV format: one header row (`f0,f1,…,f{d-1},label`), then one row per
//! point with the label as `0`/`1` in the last column. This keeps generated
//! datasets inspectable with standard tooling and lets users feed their own
//! data into the examples.
//!
//! For replay-heavy paths (eval sweeps, benchmarks) CSV pays a float parse
//! per cell per run; [`write_rows`] stores the same stream in
//! [`sketchad_core::rowfmt`]'s fixed-width binary layout with the 0/1 label
//! in the key column, so re-reading is a straight memory copy.
//!
//! Both formats are read through [`BlockReader`], which dispatches on the
//! file extension (`.rows` → binary, anything else → CSV) and hands the
//! rows out as flat blocks; [`read_csv`] collects its blocks into a
//! [`LabeledStream`].

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use sketchad_core::mmapio::MmapRows;
use sketchad_core::rowfmt::RowsWriter;
use sketchad_core::RowBlock;

use crate::point::{LabeledPoint, LabeledStream};

/// Errors from stream I/O.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file content is not a valid labeled-stream CSV.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Writes `stream` to `path` as CSV.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_csv(stream: &LabeledStream, path: &Path) -> Result<(), IoError> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    // Header.
    for j in 0..stream.dim {
        write!(w, "f{j},")?;
    }
    writeln!(w, "label")?;
    for p in &stream.points {
        for v in &p.values {
            write!(w, "{v},")?;
        }
        writeln!(w, "{}", if p.is_anomaly { 1 } else { 0 })?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a labeled stream from a CSV written by [`write_csv`] (or any CSV
/// with numeric features and a trailing 0/1 label column), whatever the
/// file's extension: the rows of a [`BlockReader`] over the CSV, collected.
/// The stream name is taken from the file stem.
///
/// # Errors
/// Returns [`IoError::Parse`] on malformed rows and [`IoError::Io`] on
/// filesystem failures.
pub fn read_csv(path: &Path) -> Result<LabeledStream, IoError> {
    let mut reader = BlockReader::open_csv(path)?;
    let dim = reader.dim();
    let mut points = Vec::new();
    while let Some(block) = reader.next_block(4096)? {
        let rows = block.rows.values().chunks_exact(dim);
        points.extend(
            rows.zip(block.labels)
                .map(|(values, &is_anomaly)| LabeledPoint {
                    values: values.to_vec(),
                    is_anomaly,
                }),
        );
    }
    Ok(LabeledStream::new(reader.name, dim, points))
}

/// Writes `stream` to `path` in the binary `sketchad-rows/v1` format, with
/// the 0/1 ground-truth label stored in the key column (1 = anomaly).
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_rows(stream: &LabeledStream, path: &Path) -> Result<(), IoError> {
    let mut w = RowsWriter::create(path, stream.dim, true)?;
    for p in &stream.points {
        w.write_row(&p.values, Some(u64::from(p.is_anomaly)))?;
    }
    w.finish()?;
    Ok(())
}

/// One block from a [`BlockReader`]: the rows, flat and row-major, and
/// one ground-truth label per row.
#[derive(Debug, Clone, Copy)]
pub struct LabeledBlock<'a> {
    /// The block's rows.
    pub rows: RowBlock<'a>,
    /// `true` for each row that is a planted anomaly.
    pub labels: &'a [bool],
}

/// Reads a labeled stream a block at a time into one reused buffer,
/// whatever its format.
///
/// A `.rows` file is memory-mapped where the platform allows it
/// ([`MmapRows`]); its rows are decoded out of the map and the pages walked
/// are released behind the reader, so resident memory stays a window of
/// the file, not the file. (The buffered fallback, `SKETCHAD_NO_MMAP=1` or
/// non-Unix, holds the whole file and decodes bitwise-identically.) Any
/// nonzero key is the anomaly label; a file without keys reads every label
/// `false`. Any other file is parsed as CSV (see [`read_csv`]) one line at a
/// time. An in-memory stream reads through the same interface.
#[derive(Debug)]
pub struct BlockReader {
    name: String,
    dim: usize,
    source: Source,
    values: Vec<f64>,
    labels: Vec<bool>,
}

#[derive(Debug)]
enum Source {
    Rows {
        rows: MmapRows,
        next: usize,
    },
    Csv {
        lines: BufReader<File>,
        line: String,
        lineno: usize,
    },
    Stream {
        stream: LabeledStream,
        next: usize,
    },
}

impl BlockReader {
    /// Opens `path`: `.rows` as the binary format, anything else as CSV.
    /// The stream name is the file stem.
    ///
    /// # Errors
    /// [`IoError::Io`] on filesystem failures; [`IoError::Parse`] on a
    /// `.rows` file that fails validation (at line 0) or a CSV header
    /// without feature columns.
    pub fn open(path: &Path) -> Result<Self, IoError> {
        if path.extension().and_then(|e| e.to_str()) != Some("rows") {
            return Self::open_csv(path);
        }
        let rows = MmapRows::open(path).map_err(|e| match e.kind() {
            io::ErrorKind::InvalidData => IoError::Parse {
                line: 0,
                message: e.to_string(),
            },
            _ => IoError::Io(e),
        })?;
        let dim = rows.view().dim();
        Ok(Self::new(stem(path), dim, Source::Rows { rows, next: 0 }))
    }

    fn open_csv(path: &Path) -> Result<Self, IoError> {
        let mut lines = BufReader::new(File::open(path)?);
        let mut header = String::new();
        if lines.read_line(&mut header)? == 0 {
            return Err(IoError::Parse {
                line: 1,
                message: "empty file".into(),
            });
        }
        let dim = header.split(',').count().saturating_sub(1);
        if dim == 0 {
            return Err(IoError::Parse {
                line: 1,
                message: "header has no feature columns".into(),
            });
        }
        let source = Source::Csv {
            lines,
            line: header,
            lineno: 1,
        };
        Ok(Self::new(stem(path), dim, source))
    }

    /// Reads an in-memory stream (a builtin dataset) through the same
    /// blocks.
    pub fn from_stream(stream: LabeledStream) -> Self {
        let (name, dim) = (stream.name.clone(), stream.dim);
        Self::new(name, dim, Source::Stream { stream, next: 0 })
    }

    fn new(name: String, dim: usize, source: Source) -> Self {
        Self {
            name,
            dim,
            source,
            values: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// The stream's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Values per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The next block of at most `max_rows` rows (`max_rows > 0`), or
    /// `None` once the stream is exhausted. The block borrows the reader's
    /// buffer, which the next call reuses.
    ///
    /// # Errors
    /// [`IoError::Parse`] on a malformed CSV row; [`IoError::Io`] on a
    /// failed read.
    pub fn next_block(&mut self, max_rows: usize) -> Result<Option<LabeledBlock<'_>>, IoError> {
        let dim = self.dim;
        let (values, labels) = (&mut self.values, &mut self.labels);
        values.clear();
        labels.clear();
        match &mut self.source {
            Source::Rows { rows, next } => {
                let view = rows.view();
                let end = view.len().min(*next + max_rows);
                values.resize((end - *next) * dim, 0.0);
                for (i, row) in (*next..end).zip(values.chunks_exact_mut(dim)) {
                    let key = view.read_row_into(i, row).expect("index in range");
                    labels.push(key.is_some_and(|k| k != 0));
                }
                *next = end;
                rows.release_rows(end);
            }
            Source::Csv {
                lines,
                line,
                lineno,
            } => {
                while labels.len() < max_rows {
                    line.clear();
                    if lines.read_line(line)? == 0 {
                        break;
                    }
                    *lineno += 1;
                    if !line.trim().is_empty() {
                        labels.push(parse_csv_row(line, *lineno, dim, values)?);
                    }
                }
            }
            Source::Stream { stream, next } => {
                for p in stream.points[*next..].iter().take(max_rows) {
                    values.extend_from_slice(&p.values);
                    labels.push(p.is_anomaly);
                }
                *next += labels.len();
            }
        }
        Ok((!labels.is_empty()).then(|| LabeledBlock {
            rows: RowBlock::new(values, dim),
            labels,
        }))
    }
}

/// A stream's name: its file's stem.
fn stem(path: &Path) -> String {
    let stem = path.file_stem().and_then(|s| s.to_str());
    stem.unwrap_or("stream").to_string()
}

/// Parses one CSV data line (`dim` features, then a 0/1 label) onto
/// `values` and returns the label.
fn parse_csv_row(
    line: &str,
    lineno: usize,
    dim: usize,
    values: &mut Vec<f64>,
) -> Result<bool, IoError> {
    let parse_error = |message| IoError::Parse {
        line: lineno,
        message,
    };
    let line = line.trim_end_matches(['\n', '\r']);
    let found = line.split(',').count();
    if found != dim + 1 {
        return Err(parse_error(format!(
            "expected {} fields, found {found}",
            dim + 1
        )));
    }
    let mut fields = line.split(',');
    for f in fields.by_ref().take(dim) {
        let v: f64 = f
            .trim()
            .parse()
            .map_err(|e| parse_error(format!("bad feature value {f:?}: {e}")))?;
        values.push(v);
    }
    match fields.next().unwrap_or_default().trim() {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(parse_error(format!(
            "bad label {other:?} (expected 0 or 1)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sketchad-io-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_preserves_stream() {
        let stream = LabeledStream::new(
            "roundtrip",
            3,
            vec![
                LabeledPoint {
                    values: vec![1.0, -2.5, 0.0],
                    is_anomaly: false,
                },
                LabeledPoint {
                    values: vec![0.125, 3.0, 9.75],
                    is_anomaly: true,
                },
            ],
        );
        let path = tmp_path("roundtrip.csv");
        write_csv(&stream, &path).unwrap();
        let back = read_csv(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.dim, 3);
        assert_eq!(back.points, stream.points);
        assert_eq!(back.name, path.file_stem().unwrap().to_str().unwrap());
    }

    #[test]
    fn blank_lines_are_skipped() {
        let path = tmp_path("blank.csv");
        let mut f = File::create(&path).unwrap();
        writeln!(f, "f0,f1,label").unwrap();
        writeln!(f, "1.0,2.0,0").unwrap();
        writeln!(f).unwrap();
        writeln!(f, "3.0,4.0,1").unwrap();
        drop(f);
        let s = read_csv(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn malformed_rows_are_reported_with_line_numbers() {
        let path = tmp_path("bad.csv");
        let mut f = File::create(&path).unwrap();
        writeln!(f, "f0,f1,label").unwrap();
        writeln!(f, "1.0,2.0,0").unwrap();
        writeln!(f, "1.0,oops,0").unwrap();
        drop(f);
        let err = read_csv(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        match err {
            IoError::Parse { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("oops"));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn wrong_field_count_rejected() {
        let path = tmp_path("fields.csv");
        let mut f = File::create(&path).unwrap();
        writeln!(f, "f0,f1,label").unwrap();
        writeln!(f, "1.0,0").unwrap();
        drop(f);
        let err = read_csv(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, IoError::Parse { line: 2, .. }));
    }

    #[test]
    fn bad_label_rejected() {
        let path = tmp_path("label.csv");
        let mut f = File::create(&path).unwrap();
        writeln!(f, "f0,label").unwrap();
        writeln!(f, "1.0,yes").unwrap();
        drop(f);
        let err = read_csv(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("bad label"));
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_csv(Path::new("/nonexistent/sketchad.csv")).unwrap_err();
        assert!(matches!(err, IoError::Io(_)));
    }

    #[test]
    fn rows_roundtrip_is_bitwise_and_keeps_labels() {
        let stream = LabeledStream::new(
            "binrt",
            3,
            vec![
                LabeledPoint {
                    values: vec![1.0, f64::MIN_POSITIVE, -0.0],
                    is_anomaly: false,
                },
                LabeledPoint {
                    values: vec![0.125, -3.0, 9.75],
                    is_anomaly: true,
                },
            ],
        );
        let path = tmp_path("binrt.rows");
        write_rows(&stream, &path).unwrap();
        let mut reader = BlockReader::open(&path).unwrap();
        assert_eq!(reader.dim(), 3);
        // Blocks of one row: the second call starts where the first ended.
        let (mut values, mut labels) = (Vec::new(), Vec::new());
        while let Some(block) = reader.next_block(1).unwrap() {
            assert_eq!(block.labels.len(), 1);
            values.extend_from_slice(block.rows.values());
            labels.extend_from_slice(block.labels);
        }
        std::fs::remove_file(&path).ok();
        assert_eq!(labels, stream.labels());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&values), bits(&stream.rows().concat()));
    }

    #[test]
    fn corrupt_rows_file_is_parse_error() {
        let path = tmp_path("corrupt.rows");
        std::fs::write(&path, b"not a rows file at all").unwrap();
        let err = BlockReader::open(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, IoError::Parse { .. }));
    }
}

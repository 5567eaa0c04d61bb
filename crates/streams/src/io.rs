//! Persistence for labeled streams: text CSV and the binary
//! `sketchad-rows/v1` format.
//!
//! CSV format: one header row (`f0,f1,…,f{d-1},label`), then one row per
//! point with the label as `0`/`1` in the last column. This keeps generated
//! datasets inspectable with standard tooling and lets users feed their own
//! data into the examples.
//!
//! For replay-heavy paths (eval sweeps, benchmarks) CSV pays a float parse
//! per cell per run; [`write_rows`]/`read_rows` store the same stream in
//! [`sketchad_core::rowfmt`]'s fixed-width binary layout with the 0/1 label
//! in the key column, so re-reading is a straight memory copy.
//! [`read_stream`] dispatches on the file extension (`.rows` → binary,
//! anything else → CSV).

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use sketchad_core::mmapio::MmapRows;
use sketchad_core::rowfmt::RowsWriter;

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
/// with numeric features and a trailing 0/1 label column). The stream name
/// is taken from the file stem.
///
/// # Errors
/// Returns [`IoError::Parse`] on malformed rows and [`IoError::Io`] on
/// filesystem failures.
pub fn read_csv(path: &Path) -> Result<LabeledStream, IoError> {
    let file = File::open(path)?;
    let reader = BufReader::new(file);
    let mut lines = reader.lines();

    let header = match lines.next() {
        Some(h) => h?,
        None => {
            return Err(IoError::Parse {
                line: 1,
                message: "empty file".into(),
            });
        }
    };
    let dim = header.split(',').count().saturating_sub(1);
    if dim == 0 {
        return Err(IoError::Parse {
            line: 1,
            message: "header has no feature columns".into(),
        });
    }

    let mut points = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let lineno = i + 2;
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != dim + 1 {
            return Err(IoError::Parse {
                line: lineno,
                message: format!("expected {} fields, found {}", dim + 1, fields.len()),
            });
        }
        let mut values = Vec::with_capacity(dim);
        for f in &fields[..dim] {
            let v: f64 = f.trim().parse().map_err(|e| IoError::Parse {
                line: lineno,
                message: format!("bad feature value {f:?}: {e}"),
            })?;
            values.push(v);
        }
        let label = fields[dim].trim();
        let is_anomaly = match label {
            "0" => false,
            "1" => true,
            other => {
                return Err(IoError::Parse {
                    line: lineno,
                    message: format!("bad label {other:?} (expected 0 or 1)"),
                });
            }
        };
        points.push(LabeledPoint { values, is_anomaly });
    }

    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("stream")
        .to_string();
    Ok(LabeledStream::new(name, dim, points))
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

/// Reads a labeled stream from a `sketchad-rows/v1` file written by
/// [`write_rows`]. Any nonzero key is treated as the anomaly label; files
/// without a key column load with every label `false`. The stream name is
/// taken from the file stem.
///
/// The file is memory-mapped where the platform allows it
/// ([`MmapRows`]): rows decode straight out of the page cache instead of
/// an intermediate whole-file buffer. The buffered fallback (non-Unix,
/// `SKETCHAD_NO_MMAP=1`) decodes bitwise-identically.
///
/// # Errors
/// Format violations surface as [`IoError::Parse`] at line 0; filesystem
/// failures as [`IoError::Io`].
pub(crate) fn read_rows(path: &Path) -> Result<LabeledStream, IoError> {
    let rows = MmapRows::open(path).map_err(|e| {
        if e.kind() == io::ErrorKind::InvalidData {
            IoError::Parse {
                line: 0,
                message: e.to_string(),
            }
        } else {
            IoError::Io(e)
        }
    })?;
    let view = rows.view();
    let mut points = Vec::with_capacity(view.len());
    let mut row = vec![0.0; view.dim()];
    for i in 0..view.len() {
        let key = view.read_row_into(i, &mut row).expect("index in range");
        points.push(LabeledPoint {
            values: row.clone(),
            is_anomaly: key.unwrap_or(0) != 0,
        });
    }
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("stream")
        .to_string();
    Ok(LabeledStream::new(name, view.dim(), points))
}

/// Reads a labeled stream, dispatching on the file extension: `.rows` goes
/// through the zero-parse binary reader (`read_rows`), everything else
/// through the CSV parser ([`read_csv`]).
///
/// # Errors
/// Same as the dispatched reader.
pub fn read_stream(path: &Path) -> Result<LabeledStream, IoError> {
    if path.extension().and_then(|e| e.to_str()) == Some("rows") {
        read_rows(path)
    } else {
        read_csv(path)
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
        let back = read_rows(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.dim, 3);
        assert_eq!(back.points.len(), 2);
        for (a, b) in back.points.iter().zip(&stream.points) {
            assert_eq!(a.is_anomaly, b.is_anomaly);
            for (x, y) in a.values.iter().zip(&b.values) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn rows_and_csv_readers_agree() {
        let stream = LabeledStream::new(
            "agree",
            2,
            vec![
                LabeledPoint {
                    values: vec![0.5, -1.25],
                    is_anomaly: true,
                },
                LabeledPoint {
                    values: vec![2.0, 3.0],
                    is_anomaly: false,
                },
            ],
        );
        let csv = tmp_path("agree.csv");
        let rows = tmp_path("agree.rows");
        write_csv(&stream, &csv).unwrap();
        write_rows(&stream, &rows).unwrap();
        let via_csv = read_stream(&csv).unwrap();
        let via_rows = read_stream(&rows).unwrap();
        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&rows).ok();
        assert_eq!(via_csv.points, via_rows.points);
        assert_eq!(via_csv.dim, via_rows.dim);
    }

    #[test]
    fn corrupt_rows_file_is_parse_error() {
        let path = tmp_path("corrupt.rows");
        std::fs::write(&path, b"not a rows file at all").unwrap();
        let err = read_rows(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, IoError::Parse { .. }));
    }
}

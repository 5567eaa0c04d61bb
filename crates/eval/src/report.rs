//! Structured experiment results (serialized to JSON artifacts alongside the
//! printed tables, so EXPERIMENTS.md numbers can be regenerated verbatim).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};

/// One measured cell of an accuracy/runtime table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodResult {
    /// Detector name.
    pub method: String,
    /// Dataset name.
    pub dataset: String,
    /// ROC-AUC (None when undefined).
    pub auc: Option<f64>,
    /// Average precision.
    pub ap: Option<f64>,
    /// Wall-clock seconds for the full stream.
    pub seconds: f64,
    /// Points processed.
    pub n: usize,
}

/// A named (x, y) series for a figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Series label (e.g. sketch name).
    pub label: String,
    /// X values (sweep parameter).
    pub x: Vec<f64>,
    /// Y values (measured metric).
    pub y: Vec<f64>,
}

impl Series {
    /// Creates an empty named series.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            x: Vec::new(),
            y: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.x.push(x);
        self.y.push(y);
    }
}

/// A complete experiment artifact: id, description, table cells and series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ExperimentReport {
    /// Experiment id (e.g. "t2", "f1").
    pub id: String,
    /// One-line description.
    pub description: String,
    /// Table-style results.
    pub results: Vec<MethodResult>,
    /// Figure-style series.
    pub series: Vec<Series>,
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new(id: impl Into<String>, description: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            description: description.into(),
            results: Vec::new(),
            series: Vec::new(),
        }
    }

    /// Serializes the report as pretty JSON to `path`.
    ///
    /// # Errors
    /// Propagates filesystem and serialization errors.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = File::create(path)?;
        let mut w = BufWriter::new(file);
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        w.write_all(json.as_bytes())?;
        w.write_all(b"\n")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let mut r = ExperimentReport::new("t2", "accuracy table");
        r.results.push(MethodResult {
            method: "fd".into(),
            dataset: "synth".into(),
            auc: Some(0.99),
            ap: Some(0.9),
            seconds: 1.25,
            n: 1000,
        });
        let mut s = Series::new("fd");
        s.push(8.0, 0.91);
        s.push(16.0, 0.97);
        r.series.push(s);

        let mut path = std::env::temp_dir();
        path.push(format!("sketchad-report-{}.json", std::process::id()));
        r.write_json(&path).unwrap();
        let back: ExperimentReport =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, r);
    }

    #[test]
    fn series_accumulates_points() {
        let mut s = Series::new("x");
        s.push(1.0, 2.0);
        s.push(3.0, 4.0);
        assert_eq!(s.x, vec![1.0, 3.0]);
        assert_eq!(s.y, vec![2.0, 4.0]);
    }
}

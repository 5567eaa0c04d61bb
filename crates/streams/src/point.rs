//! Labeled stream containers.

use serde::{Deserialize, Serialize};

/// One stream record: a `d`-dimensional point plus its ground-truth label.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledPoint {
    /// Feature values.
    pub values: Vec<f64>,
    /// True when this point is a planted anomaly.
    pub is_anomaly: bool,
}

/// A finite labeled stream (the experiment currency of this workspace).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledStream {
    /// Dataset name (appears in experiment tables).
    pub name: String,
    /// Ambient dimensionality.
    pub dim: usize,
    /// Records in arrival order.
    pub points: Vec<LabeledPoint>,
}

impl LabeledStream {
    /// Creates a stream, validating that every point matches `dim`.
    ///
    /// # Panics
    /// Panics when any point has the wrong dimensionality.
    pub(crate) fn new(name: impl Into<String>, dim: usize, points: Vec<LabeledPoint>) -> Self {
        let name = name.into();
        for (i, p) in points.iter().enumerate() {
            assert_eq!(
                p.values.len(),
                dim,
                "{name}: point {i} has dimension {} (expected {dim})",
                p.values.len()
            );
        }
        Self { name, dim, points }
    }

    /// Stream length.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the stream holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of planted anomalies.
    pub fn anomaly_count(&self) -> usize {
        self.points.iter().filter(|p| p.is_anomaly).count()
    }

    /// Anomaly fraction.
    pub fn anomaly_rate(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.anomaly_count() as f64 / self.len() as f64
    }

    /// Ground-truth labels in order.
    pub fn labels(&self) -> Vec<bool> {
        self.points.iter().map(|p| p.is_anomaly).collect()
    }

    /// Feature rows in order (cloned).
    pub fn rows(&self) -> Vec<Vec<f64>> {
        self.points.iter().map(|p| p.values.clone()).collect()
    }

    /// Iterator over `(values, is_anomaly)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], bool)> {
        self.points
            .iter()
            .map(|p| (p.values.as_slice(), p.is_anomaly))
    }

    /// Average non-zero fraction per row (sparsity diagnostic).
    pub fn density(&self) -> f64 {
        if self.points.is_empty() || self.dim == 0 {
            return 0.0;
        }
        let nnz: usize = self
            .points
            .iter()
            .map(|p| p.values.iter().filter(|&&v| v != 0.0).count())
            .sum();
        nnz as f64 / (self.len() * self.dim) as f64
    }

    /// Keeps only the first `n` points (truncation for scalability sweeps).
    pub fn truncated(&self, n: usize) -> LabeledStream {
        LabeledStream {
            name: self.name.clone(),
            dim: self.dim,
            points: self.points[..n.min(self.points.len())].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LabeledStream {
        LabeledStream::new(
            "t",
            2,
            vec![
                LabeledPoint {
                    values: vec![1.0, 0.0],
                    is_anomaly: false,
                },
                LabeledPoint {
                    values: vec![0.0, 0.0],
                    is_anomaly: true,
                },
                LabeledPoint {
                    values: vec![2.0, 3.0],
                    is_anomaly: false,
                },
            ],
        )
    }

    #[test]
    fn counts_and_rates() {
        let s = sample();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.anomaly_count(), 1);
        assert!((s.anomaly_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.labels(), vec![false, true, false]);
    }

    #[test]
    fn density_counts_nonzeros() {
        let s = sample();
        // 1 + 0 + 2 nonzeros over 6 cells.
        assert!((s.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn truncation_preserves_prefix() {
        let s = sample().truncated(2);
        assert_eq!(s.len(), 2);
        assert!(s.points[1].is_anomaly);
        // Truncating beyond length is a no-op.
        assert_eq!(sample().truncated(99).len(), 3);
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn dimension_mismatch_rejected() {
        LabeledStream::new(
            "bad",
            2,
            vec![LabeledPoint {
                values: vec![1.0],
                is_anomaly: false,
            }],
        );
    }

    #[test]
    fn iter_yields_pairs() {
        let s = sample();
        let v: Vec<bool> = s.iter().map(|(_, l)| l).collect();
        assert_eq!(v, vec![false, true, false]);
    }

    #[test]
    fn clone_preserves_equality() {
        let s = sample();
        assert_eq!(s.clone(), s);
    }
}

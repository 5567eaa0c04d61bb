//! Sparse vector representation.
//!
//! High-dimensional streams (bag-of-words, binary bioassay features) are
//! often ≤1% dense. [`SparseVec`] lets sketch updates and score evaluations
//! run in `O(nnz)` instead of `O(d)` where the algorithm permits it.

use crate::vecops;

/// A sparse `d`-dimensional vector: sorted unique indices plus values.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVec {
    dim: usize,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseVec {
    /// Builds a sparse vector from `(index, value)` pairs.
    ///
    /// Pairs are sorted; zero values are dropped; duplicate indices are
    /// summed.
    ///
    /// # Panics
    /// Panics when any index is `≥ dim` or `dim` exceeds `u32::MAX`.
    pub(crate) fn from_pairs(dim: usize, pairs: impl IntoIterator<Item = (usize, f64)>) -> Self {
        assert!(dim <= u32::MAX as usize, "dimension exceeds u32 range");
        let mut entries: Vec<(u32, f64)> = pairs
            .into_iter()
            .map(|(i, v)| {
                assert!(i < dim, "index {i} out of bounds for dimension {dim}");
                (i as u32, v)
            })
            .collect();
        entries.sort_by_key(|&(i, _)| i);
        let mut indices = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        for (i, v) in entries {
            if let Some(&last) = indices.last() {
                if last == i {
                    *values.last_mut().expect("parallel arrays") += v;
                    continue;
                }
            }
            indices.push(i);
            values.push(v);
        }
        // Drop entries that became zero after duplicate merging.
        let mut out_i = Vec::with_capacity(indices.len());
        let mut out_v = Vec::with_capacity(values.len());
        for (i, v) in indices.into_iter().zip(values) {
            if v != 0.0 {
                out_i.push(i);
                out_v.push(v);
            }
        }
        Self {
            dim,
            indices: out_i,
            values: out_v,
        }
    }

    /// Builds a sparse view of a dense slice (drops zeros).
    pub fn from_dense(dense: &[f64]) -> Self {
        let pairs = dense
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0.0)
            .map(|(i, &v)| (i, v));
        Self::from_pairs(dense.len(), pairs)
    }

    /// Ambient dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Iterator over `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.indices
            .iter()
            .zip(self.values.iter())
            .map(|(&i, &v)| (i as usize, v))
    }

    /// Squared Euclidean norm.
    pub fn norm2_sq(&self) -> f64 {
        vecops::dot(&self.values, &self.values)
    }

    /// Dot product against a dense vector: `O(nnz)`.
    ///
    /// # Panics
    /// Panics when `dense.len() != dim`.
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        assert_eq!(dense.len(), self.dim, "dimension mismatch");
        self.iter().map(|(i, v)| v * dense[i]).sum()
    }

    /// `dense ← dense + alpha * self`: `O(nnz)`.
    ///
    /// # Panics
    /// Panics when `dense.len() != dim`.
    pub fn axpy_into(&self, alpha: f64, dense: &mut [f64]) {
        assert_eq!(dense.len(), self.dim, "dimension mismatch");
        for (i, v) in self.iter() {
            dense[i] += alpha * v;
        }
    }

    /// Materializes a dense copy.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.dim];
        for (i, v) in self.iter() {
            out[i] = v;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_merges_and_drops_zeros() {
        let v = SparseVec::from_pairs(10, vec![(5, 1.0), (2, 3.0), (5, 2.0), (7, 0.0)]);
        assert_eq!(v.iter().count(), 2);
        let pairs: Vec<(usize, f64)> = v.iter().collect();
        assert_eq!(pairs, vec![(2, 3.0), (5, 3.0)]);
    }

    #[test]
    fn duplicate_cancellation_removes_entry() {
        let v = SparseVec::from_pairs(4, vec![(1, 2.0), (1, -2.0)]);
        assert_eq!(v.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_index_rejected() {
        SparseVec::from_pairs(3, vec![(3, 1.0)]);
    }

    #[test]
    fn dense_roundtrip() {
        let dense = vec![0.0, 1.5, 0.0, -2.0, 0.0];
        let v = SparseVec::from_dense(&dense);
        assert_eq!(v.iter().count(), 2);
        assert_eq!(v.to_dense(), dense);
        assert_eq!(v.dim(), 5);
    }

    #[test]
    fn dot_and_axpy_match_dense_ops() {
        let dense = vec![0.0, 2.0, 0.0, 3.0];
        let v = SparseVec::from_dense(&dense);
        let other = vec![1.0, 10.0, 100.0, 1000.0];
        assert_eq!(v.dot_dense(&other), 2.0 * 10.0 + 3.0 * 1000.0);
        let mut acc = vec![1.0; 4];
        v.axpy_into(2.0, &mut acc);
        assert_eq!(acc, vec![1.0, 5.0, 1.0, 7.0]);
    }

    #[test]
    fn norm_is_exact() {
        let v = SparseVec::from_pairs(100, vec![(3, 3.0), (50, 4.0)]);
        assert_eq!(v.norm2_sq(), 25.0);
    }
}

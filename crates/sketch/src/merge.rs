//! Hierarchical (tree) aggregation of shard-local sketches.
//!
//! N workers each sketch their slice of the stream; [`tree_merge`] combines
//! the N partial sketches pairwise, level by level, into one global sketch
//! — `⌈log₂ N⌉` rounds instead of a sequential N-step fold. For
//! [`FrequentDirections`](crate::FrequentDirections) the tree shape also
//! keeps the intermediate buffers balanced (each merge is followed by at
//! most one shrink), and the merge theorem guarantees the root satisfies
//! the same `‖AᵀA − BᵀB‖₂ ≤ Σδ ≤ ‖A‖_F²/ℓ` bound as a single sketch of
//! the whole stream; for the linear sketches every association order sums
//! the same matrices.

use crate::traits::MergeableSketch;

/// Merges N shard sketches into one global sketch by pairwise tree
/// reduction, consuming the inputs. Returns `None` for an empty input.
///
/// Merge order is deterministic: level k pairs `(0,1), (2,3), …` of the
/// level-(k−1) survivors, an odd tail passing through unmerged. Two calls
/// over equal shard states produce bitwise-identical results.
///
/// # Panics
/// Panics when the shards are structurally incompatible (see
/// [`MergeableSketch::merge_from`]).
pub fn tree_merge<S: MergeableSketch>(shards: Vec<S>) -> Option<S> {
    let mut level: Vec<S> = shards;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut iter = level.into_iter();
        while let Some(mut left) = iter.next() {
            if let Some(right) = iter.next() {
                left.merge_from(&right);
            }
            next.push(left);
        }
        level = next;
    }
    level.into_iter().next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_sketch::CountSketch;
    use crate::frequent_directions::FrequentDirections;
    use crate::traits::MatrixSketch;
    use sketchad_linalg::power::gram_diff_spectral_norm;
    use sketchad_linalg::Matrix;

    fn row(i: usize, d: usize) -> Vec<f64> {
        (0..d)
            .map(|j| ((i * 31 + j * 7) as f64 * 0.37).sin() + 0.2 * (j as f64))
            .collect()
    }

    #[test]
    fn tree_merge_of_empty_input_is_none() {
        assert!(tree_merge(Vec::<FrequentDirections>::new()).is_none());
    }

    #[test]
    fn tree_merge_single_shard_is_identity() {
        let mut fd = FrequentDirections::new(4, 6);
        for i in 0..20 {
            fd.update(&row(i, 6));
        }
        let expect = fd.sketch();
        let merged = tree_merge(vec![fd]).unwrap();
        assert_eq!(merged.sketch().as_slice(), expect.as_slice());
    }

    #[test]
    fn fd_tree_merge_satisfies_global_error_bound() {
        let (ell, d, n, shards) = (8, 12, 240, 5);
        let rows: Vec<Vec<f64>> = (0..n).map(|i| row(i, d)).collect();
        let mut parts = Vec::new();
        for chunk in rows.chunks(n / shards) {
            let mut fd = FrequentDirections::new(ell, d);
            for r in chunk {
                fd.update(r);
            }
            parts.push(fd);
        }
        let merged = tree_merge(parts).unwrap();
        assert_eq!(merged.rows_seen(), n as u64);
        let a = Matrix::from_rows(&rows).unwrap();
        let err = gram_diff_spectral_norm(&a, &merged.sketch(), 300, 17);
        let frob: f64 = rows.iter().flatten().map(|v| v * v).sum();
        assert!(
            err <= frob / ell as f64 + 1e-9,
            "tree-merged FD violates ‖A‖_F²/ℓ: err={err}, bound={}",
            frob / ell as f64
        );
        assert!(
            err <= merged.shrink_delta_sum() + 1e-9,
            "tree-merged FD violates its Σδ certificate: err={err}, Σδ={}",
            merged.shrink_delta_sum()
        );
    }

    #[test]
    fn odd_shard_counts_pass_the_tail_through() {
        let d = 5;
        let mut parts = Vec::new();
        for s in 0..3usize {
            let mut cs = CountSketch::new(6, d, 1, 99 + s as u64);
            for i in 0..10 {
                cs.update(&row(s * 10 + i, d));
            }
            parts.push(cs);
        }
        let merged = tree_merge(parts).unwrap();
        assert_eq!(merged.rows_seen(), 30);
    }
}

//! Sliding-window sketching via tumbling blocks.
//!
//! Frequent directions (and every other sketch here) cannot delete rows, so
//! hard sliding-window semantics are obtained by *blocking*: the window of
//! the last `W = block_len × num_blocks` rows is covered by a queue of block
//! sketches. A new block starts every `block_len` rows; when the queue
//! exceeds `num_blocks` the oldest block is dropped wholesale. The exposed
//! sketch is the row-wise concatenation of all live block sketches — for
//! sketches with `BᵀB ≈ AᵀA` per block, concatenation sums the Gram
//! estimates, i.e. approximates the Gram of the window.
//!
//! Expiry granularity is one block: the effective window length varies in
//! `[W − block_len, W]`, the standard trade-off for mergeable-summary
//! windows.

use std::collections::VecDeque;

use sketchad_linalg::Matrix;

use crate::traits::{assert_valid_decay, MatrixSketch};

/// Sliding-window combinator over any inner [`MatrixSketch`].
#[derive(Debug, Clone)]
pub struct BlockWindowSketch<S: MatrixSketch + Clone> {
    prototype: S,
    block_len: usize,
    num_blocks: usize,
    active: S,
    active_rows: usize,
    completed: VecDeque<S>,
    rows_seen: u64,
    blocks_created: u64,
}

impl<S: MatrixSketch + Clone> BlockWindowSketch<S> {
    /// Wraps `prototype` (an empty inner sketch) into a window of
    /// `block_len × num_blocks` rows.
    ///
    /// # Panics
    /// Panics when `block_len == 0`, `num_blocks == 0`, or `prototype` has
    /// already consumed rows.
    pub fn new(prototype: S, block_len: usize, num_blocks: usize) -> Self {
        assert!(block_len > 0, "block_len must be positive");
        assert!(num_blocks > 0, "num_blocks must be positive");
        assert_eq!(
            prototype.rows_seen(),
            0,
            "window prototype must be an empty sketch"
        );
        let mut active = prototype.clone();
        active.reseed(Self::block_seed(0));
        Self {
            prototype,
            block_len,
            num_blocks,
            active,
            active_rows: 0,
            completed: VecDeque::new(),
            rows_seen: 0,
            blocks_created: 1,
        }
    }

    fn block_seed(index: u64) -> u64 {
        // Fixed stride keeps block seeds deterministic yet distinct.
        0xb10c_0000_0000_0000 ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// Window length in rows (`block_len × num_blocks`).
    pub fn window_len(&self) -> usize {
        self.block_len * self.num_blocks
    }

    /// Number of rows currently represented in the window
    /// (≤ [`window_len`](Self::window_len)).
    pub fn rows_in_window(&self) -> usize {
        self.completed.len() * self.block_len + self.active_rows
    }

    fn roll_block(&mut self) {
        let mut fresh = self.prototype.clone();
        fresh.reseed(Self::block_seed(self.blocks_created));
        self.blocks_created += 1;
        let finished = std::mem::replace(&mut self.active, fresh);
        self.completed.push_back(finished);
        self.active_rows = 0;
        while self.completed.len() >= self.num_blocks {
            self.completed.pop_front();
        }
    }
}

impl<S: MatrixSketch + Clone> MatrixSketch for BlockWindowSketch<S> {
    fn dim(&self) -> usize {
        self.prototype.dim()
    }

    fn capacity(&self) -> usize {
        // Up to num_blocks live blocks, each exposing ≤ 2·ℓ rows (FD buffers
        // may be uncompressed); report the conservative figure.
        self.num_blocks * 2 * self.prototype.capacity()
    }

    fn rows_seen(&self) -> u64 {
        self.rows_seen
    }

    fn update(&mut self, row: &[f64]) {
        if self.active_rows == self.block_len {
            self.roll_block();
        }
        self.active.update(row);
        self.active_rows += 1;
        self.rows_seen += 1;
    }

    fn update_sparse(&mut self, row: &sketchad_linalg::SparseVec) {
        if self.active_rows == self.block_len {
            self.roll_block();
        }
        self.active.update_sparse(row);
        self.active_rows += 1;
        self.rows_seen += 1;
    }

    fn sketch(&self) -> Matrix {
        let mut out = Matrix::zeros(0, self.dim());
        for block in &self.completed {
            let b = block.sketch();
            for row in b.iter_rows() {
                out.push_row(row);
            }
        }
        let b = self.active.sketch();
        for row in b.iter_rows() {
            out.push_row(row);
        }
        out
    }

    fn decay(&mut self, alpha: f64) {
        assert_valid_decay(alpha);
        for block in &mut self.completed {
            block.decay(alpha);
        }
        self.active.decay(alpha);
    }

    fn reset(&mut self) {
        self.completed.clear();
        self.active = self.prototype.clone();
        self.active.reseed(Self::block_seed(0));
        self.active_rows = 0;
        self.rows_seen = 0;
        self.blocks_created = 1;
    }

    fn resident_bytes(&self) -> usize {
        // Charge every live block (completed + active) at its own resident
        // figure instead of the conservative `capacity()` upper bound.
        self.completed
            .iter()
            .map(|b| b.resident_bytes())
            .sum::<usize>()
            + self.active.resident_bytes()
    }

    fn name(&self) -> &'static str {
        "block-window"
    }

    fn stream_frobenius_sq(&self) -> f64 {
        self.completed
            .iter()
            .map(|b| b.stream_frobenius_sq())
            .sum::<f64>()
            + self.active.stream_frobenius_sq()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frequent_directions::FrequentDirections;
    use crate::random_projection::RandomProjection;
    use sketchad_linalg::power::gram_diff_spectral_norm;
    use sketchad_linalg::rng::{gaussian_matrix, seeded_rng};

    #[test]
    fn window_tracks_row_counts() {
        let inner = FrequentDirections::new(4, 6);
        let mut w = BlockWindowSketch::new(inner, 10, 3);
        assert_eq!(w.window_len(), 30);
        let mut rng = seeded_rng(70);
        let a = gaussian_matrix(&mut rng, 55, 6, 1.0);
        for row in a.iter_rows() {
            w.update(row);
        }
        assert_eq!(w.rows_seen(), 55);
        assert!(w.rows_in_window() <= 30);
        assert!(
            w.rows_in_window() >= 20,
            "window holds {}",
            w.rows_in_window()
        );
    }

    #[test]
    fn expired_data_leaves_the_sketch() {
        // Phase 1 rows live along e1; phase 2 along e2. After phase 2 fills
        // the whole window, e1 mass must be gone.
        let inner = FrequentDirections::new(4, 4);
        let mut w = BlockWindowSketch::new(inner, 8, 2);
        for _ in 0..20 {
            w.update(&[5.0, 0.0, 0.0, 0.0]);
        }
        for _ in 0..24 {
            w.update(&[0.0, 5.0, 0.0, 0.0]);
        }
        let g = w.sketch().gram();
        assert!(
            g[(0, 0)] < 1e-9,
            "expired e1 mass still present: {}",
            g[(0, 0)]
        );
        assert!(g[(1, 1)] > 0.0);
    }

    #[test]
    fn window_gram_approximates_window_data() {
        let mut rng = seeded_rng(71);
        let a = gaussian_matrix(&mut rng, 200, 10, 1.0);
        let ell = 8;
        let inner = FrequentDirections::new(ell, 10);
        let mut w = BlockWindowSketch::new(inner, 25, 4);
        for row in a.iter_rows() {
            w.update(row);
        }
        // Rows currently in the window: reconstruct the exact sub-stream.
        let in_window = w.rows_in_window();
        let start = 200 - in_window;
        let idx: Vec<usize> = (start..200).collect();
        let window_data = a.select_rows(&idx);
        let err = gram_diff_spectral_norm(&window_data, &w.sketch(), 200, 12);
        // Each block obeys the FD bound; summed bound over blocks.
        let bound = window_data.squared_frobenius_norm() / ell as f64;
        assert!(err <= bound * (1.0 + 1e-6), "err {err} > bound {bound}");
    }

    #[test]
    fn randomized_blocks_get_distinct_seeds() {
        let inner = RandomProjection::new(3, 4, 0);
        let mut w = BlockWindowSketch::new(inner, 2, 3);
        // Feed identical rows into two consecutive blocks; if seeds differed
        // the block sketches should differ.
        for _ in 0..4 {
            w.update(&[1.0, 2.0, 3.0, 4.0]);
        }
        assert_eq!(w.completed.len(), 1);
        let b0 = w.completed[0].sketch();
        let b1 = w.active.sketch();
        assert_ne!(b0, b1, "blocks reused identical randomness");
    }

    #[test]
    fn resident_bytes_sums_live_blocks() {
        let inner = FrequentDirections::new(2, 3);
        // Each live FD block holds its 2ℓ × d buffer plus its own shrink
        // workspace — both sized at construction.
        let per_block = inner.resident_bytes();
        assert!(per_block > 2 * 2 * 3 * 8);
        let mut w = BlockWindowSketch::new(inner, 2, 3);
        for _ in 0..5 {
            w.update(&[1.0, 1.0, 1.0]);
        }
        assert_eq!(w.resident_bytes(), (w.completed.len() + 1) * per_block);
    }

    #[test]
    fn reset_restores_initial_state() {
        let inner = FrequentDirections::new(2, 3);
        let mut w = BlockWindowSketch::new(inner, 2, 2);
        for _ in 0..7 {
            w.update(&[1.0, 1.0, 1.0]);
        }
        w.reset();
        assert_eq!(w.rows_seen(), 0);
        assert_eq!(w.rows_in_window(), 0);
        assert_eq!(w.sketch().rows(), 0);
    }

    #[test]
    fn decay_applies_to_all_blocks() {
        let inner = FrequentDirections::new(2, 2);
        let mut w = BlockWindowSketch::new(inner, 2, 3);
        for _ in 0..5 {
            w.update(&[2.0, 0.0]);
        }
        let before = w.sketch().gram()[(0, 0)];
        w.decay(0.25);
        let after = w.sketch().gram()[(0, 0)];
        assert!((after - 0.25 * before).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "block_len must be positive")]
    fn zero_block_len_rejected() {
        let inner = FrequentDirections::new(2, 2);
        let _ = BlockWindowSketch::new(inner, 0, 2);
    }

    #[test]
    #[should_panic(expected = "empty sketch")]
    fn nonempty_prototype_rejected() {
        let mut inner = FrequentDirections::new(2, 2);
        inner.update(&[1.0, 1.0]);
        let _ = BlockWindowSketch::new(inner, 2, 2);
    }
}

//! The one currency input rows travel in: a flat row-major block.
//!
//! A file reader decodes rows into one reused `Vec<f64>` a block at a time
//! and lends it as a [`RowBlock`]; detectors take its
//! [`values`](RowBlock::values) through `process_batch`, and the serving
//! engine reads it through [`Rows`], which nested `Vec`-per-row input also
//! implements, so neither shape is copied into the other.

/// Rows of one width, stored row-major in one slice.
#[derive(Debug, Clone, Copy)]
pub struct RowBlock<'a> {
    values: &'a [f64],
    dim: usize,
}

impl<'a> RowBlock<'a> {
    /// The rows of width `dim` laid out back to back in `values`.
    ///
    /// # Panics
    /// Panics when `dim` is 0 or does not divide `values.len()`.
    pub fn new(values: &'a [f64], dim: usize) -> Self {
        assert!(
            dim > 0 && values.len().is_multiple_of(dim),
            "{} values do not split into rows of width {dim}",
            values.len()
        );
        Self { values, dim }
    }

    /// Every row's values, back to back.
    pub fn values(&self) -> &'a [f64] {
        self.values
    }
}

/// Rows read one at a time by index: what the serving engine's submit
/// path takes, implemented for a flat [`RowBlock`] and for `Vec`-per-row
/// input alike.
pub trait Rows: Sync {
    /// Number of rows.
    fn len(&self) -> usize;

    /// Whether there are no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `j`, for `j < len()`.
    fn row(&self, j: usize) -> &[f64];
}

impl Rows for RowBlock<'_> {
    fn len(&self) -> usize {
        self.values.len() / self.dim
    }

    fn row(&self, j: usize) -> &[f64] {
        &self.values[j * self.dim..(j + 1) * self.dim]
    }
}

impl Rows for [Vec<f64>] {
    fn len(&self) -> usize {
        <[Vec<f64>]>::len(self)
    }

    fn row(&self, j: usize) -> &[f64] {
        &self[j]
    }
}

impl Rows for Vec<Vec<f64>> {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn row(&self, j: usize) -> &[f64] {
        &self[j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_and_nested_rows_read_the_same() {
        let nested = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let flat: Vec<f64> = nested.concat();
        let block = RowBlock::new(&flat, 3);
        assert_eq!(Rows::len(&block), 2);
        assert_eq!(Rows::len(&nested), 2);
        for j in 0..2 {
            assert_eq!(block.row(j), nested.row(j));
            assert_eq!(block.row(j), nested[..].row(j));
        }
        assert!(RowBlock::new(&[], 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "do not split into rows")]
    fn ragged_block_is_refused() {
        RowBlock::new(&[1.0, 2.0, 3.0], 2);
    }
}

//! Dense row-major matrix of `f64` values.
//!
//! This is the workhorse type of the workspace. It is deliberately simple:
//! a contiguous `Vec<f64>` in row-major order plus dimensions. All sketch
//! matrices in this project are short-and-wide (ℓ×d with ℓ ≪ d), so row-major
//! storage makes the hot kernels (row updates, Gram products) cache-friendly.

use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

use crate::error::{LinAlgError, Result};
use crate::vecops;

/// A dense, row-major, heap-allocated matrix of `f64`.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "RawMatrix")]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Unvalidated wire form of [`Matrix`]; deserialization goes through
/// [`TryFrom`] so shape/data inconsistencies are rejected.
#[derive(Deserialize)]
struct RawMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl TryFrom<RawMatrix> for Matrix {
    type Error = String;

    fn try_from(raw: RawMatrix) -> std::result::Result<Self, Self::Error> {
        if raw.data.len() != raw.rows * raw.cols {
            return Err(format!(
                "matrix payload has {} elements for shape {}x{}",
                raw.data.len(),
                raw.rows,
                raw.cols
            ));
        }
        Ok(Matrix {
            rows: raw.rows,
            cols: raw.cols,
            data: raw.data,
        })
    }
}

impl Matrix {
    /// Column-block width for the retiled [`Self::matmul`] kernel: the inner
    /// loops touch one output slice plus four `rhs` slices of this many
    /// `f64`s (5 × 2 KiB), keeping the working set inside a 32 KiB L1.
    pub(crate) const COL_BLOCK: usize = 256;

    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    /// Returns [`LinAlgError::ShapeMismatch`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinAlgError::ShapeMismatch {
                expected: (rows, cols),
                got: (data.len(), 1),
                op: "Matrix::from_vec",
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from a slice of equally sized rows.
    ///
    /// # Errors
    /// Returns [`LinAlgError::ShapeMismatch`] when rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Self::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinAlgError::ShapeMismatch {
                    expected: (1, cols),
                    got: (1, r.len()),
                    op: "Matrix::from_rows",
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a square diagonal matrix from `diag`.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &v) in diag.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    ///
    /// # Panics
    /// Panics when `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(
            j < self.cols,
            "column index {j} out of bounds ({})",
            self.cols
        );
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Set row `i` from a slice.
    ///
    /// # Panics
    /// Panics when lengths differ or `i` is out of bounds.
    pub fn set_row(&mut self, i: usize, values: &[f64]) {
        assert_eq!(values.len(), self.cols, "set_row length mismatch");
        self.row_mut(i).copy_from_slice(values);
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        // Blocked transpose for cache friendliness on large matrices.
        const B: usize = 32;
        for ib in (0..self.rows).step_by(B) {
            for jb in (0..self.cols).step_by(B) {
                for i in ib..(ib + B).min(self.rows) {
                    for j in jb..(jb + B).min(self.cols) {
                        t.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// Eight output rows at a time go through the register-tiled
    /// `vecops::gemm8` micro-kernel (an 8×16 accumulator tile held in
    /// registers across the whole k loop on AVX-512, two `vecops::gemm4`
    /// 4×8 tiles on AVX2, the same bits either way), four leftover rows
    /// through `vecops::gemm4`; the last `nrows % 4` rows — and every
    /// row on hosts without AVX2+FMA — fall back to a retiled `i-k-j`
    /// kernel where the k dimension is unrolled four-wide through
    /// `vecops::axpy4` and the j dimension is blocked at
    /// `Self::COL_BLOCK` columns so the working set stays L1-resident. The
    /// inner loops are branch-free on purpose: dense data gains nothing from
    /// zero-skipping, and the branch defeats vectorization (sparse inputs
    /// should use the `SparseVec` paths instead).
    ///
    /// # Errors
    /// Returns [`LinAlgError::ShapeMismatch`] when `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinAlgError::ShapeMismatch {
                expected: (self.cols, 0),
                got: (rhs.rows, rhs.cols),
                op: "Matrix::matmul",
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        matmul_rows_into(
            |i| self.row(i),
            self.rows,
            &rhs.data,
            rhs.cols,
            &mut out.data,
        );
        Ok(out)
    }

    /// `self * rhsᵀ` without materializing the transpose (`rows × rhs.rows`).
    ///
    /// Every output row is one `vecops::row_dots` sweep of the `rhs` rows
    /// against the corresponding row of `self` (one kernel dispatch per
    /// sweep, `rhs` cache-hot across it). Each element is bitwise identical
    /// to `vecops::dot(self.row(i), rhs.row(j))` — the batched scoring path
    /// relies on this to match per-point scores exactly.
    ///
    /// # Errors
    /// Returns [`LinAlgError::ShapeMismatch`] when `self.cols != rhs.cols`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_nt_into(rhs, out.as_mut_slice())?;
        Ok(out)
    }

    /// [`Self::matmul_nt`] into a caller-provided buffer (no allocation).
    ///
    /// `out` must hold exactly `self.rows * rhs.rows` elements, row-major.
    ///
    /// # Errors
    /// Returns [`LinAlgError::ShapeMismatch`] when `self.cols != rhs.cols` or
    /// `out` has the wrong length.
    pub(crate) fn matmul_nt_into(&self, rhs: &Matrix, out: &mut [f64]) -> Result<()> {
        if self.cols != rhs.cols {
            return Err(LinAlgError::ShapeMismatch {
                expected: (0, self.cols),
                got: (rhs.rows, rhs.cols),
                op: "Matrix::matmul_nt",
            });
        }
        if out.len() != self.rows * rhs.rows {
            return Err(LinAlgError::ShapeMismatch {
                expected: (self.rows, rhs.rows),
                got: (out.len(), 1),
                op: "Matrix::matmul_nt_into",
            });
        }
        let n = rhs.rows;
        for i in 0..self.rows {
            vecops::row_dots(
                &rhs.data,
                self.cols,
                self.cols,
                n,
                self.row(i),
                &mut out[i * n..(i + 1) * n],
            );
        }
        Ok(())
    }

    /// `selfᵀ * rhs` without materializing the transpose.
    ///
    /// Processes four stream rows per pass: each output row accumulates the
    /// four corresponding `rhs` rows through one fused `vecops::axpy4`, so
    /// the (large, `cols × rhs.cols`) accumulator is swept once per four
    /// stream rows while the four `rhs` rows stay cache-hot. Branch-free on
    /// dense data (see [`Self::matmul`]).
    pub fn tr_matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(LinAlgError::ShapeMismatch {
                expected: (self.rows, 0),
                got: (rhs.rows, rhs.cols),
                op: "Matrix::tr_matmul",
            });
        }
        let n = rhs.cols;
        let r4 = self.rows / 4 * 4;
        let mut out = Matrix::zeros(self.cols, n);
        for r in (0..r4).step_by(4) {
            let (a0, a1, a2, a3) = (
                self.row(r),
                self.row(r + 1),
                self.row(r + 2),
                self.row(r + 3),
            );
            let (b0, b1, b2, b3) = (rhs.row(r), rhs.row(r + 1), rhs.row(r + 2), rhs.row(r + 3));
            for i in 0..self.cols {
                let alpha = [a0[i], a1[i], a2[i], a3[i]];
                let out_row = &mut out.data[i * n..(i + 1) * n];
                vecops::axpy4(alpha, b0, b1, b2, b3, out_row);
            }
        }
        for r in r4..self.rows {
            let a_row = self.row(r);
            let b_row = rhs.row(r);
            for (i, &ari) in a_row.iter().enumerate() {
                let out_row = &mut out.data[i * n..(i + 1) * n];
                vecops::axpy(ari, b_row, out_row);
            }
        }
        Ok(out)
    }

    /// Gram matrix `selfᵀ * self` (`cols × cols`), exploiting symmetry.
    ///
    /// Same four-row `vecops::axpy4` tiling as [`Self::tr_matmul`], but
    /// only the upper triangle is accumulated (`g[i][i..]`) and then
    /// mirrored, halving the flops. On AVX2+FMA hosts each four-row sweep
    /// runs as one fused `vecops::gram4_upper` dispatch.
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        gram_into(&self.data, self.rows, self.cols, &mut g.data);
        g
    }

    /// Outer Gram matrix `self * selfᵀ` (`rows × rows`), exploiting symmetry.
    ///
    /// Upper-triangle row-row dot products in register-tiled 4×4 blocks via
    /// `vecops::dots4x4`.
    pub fn outer_gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.rows, self.rows);
        outer_gram_into(&self.data, self.rows, self.cols, &mut g.data);
        g
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Panics
    /// Panics when `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec length mismatch");
        self.iter_rows().map(|r| vecops::dot(r, x)).collect()
    }

    /// Transposed matrix-vector product `selfᵀ * x`.
    ///
    /// # Panics
    /// Panics when `x.len() != rows`.
    pub fn tr_matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "tr_matvec length mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, row) in self.iter_rows().enumerate() {
            vecops::axpy(x[i], row, &mut out);
        }
        out
    }

    /// Elementwise sum `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "Matrix::add", |a, b| a + b)
    }

    /// Elementwise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "Matrix::sub", |a, b| a - b)
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinAlgError::ShapeMismatch {
                expected: self.shape(),
                got: rhs.shape(),
                op,
            });
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Removes every row while keeping the allocation, leaving an empty
    /// `0 × 0` matrix ready to be refilled with [`Self::push_row`]. Used by
    /// batch-scoring scratch buffers to stage points without reallocating.
    pub fn clear_rows(&mut self) {
        self.rows = 0;
        self.cols = 0;
        self.data.clear();
    }

    /// Multiply every element by `s` in place.
    pub fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns `self * s` as a new matrix.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut out = self.clone();
        out.scale_mut(s);
        out
    }

    /// Frobenius norm `sqrt(Σ aᵢⱼ²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.squared_frobenius_norm().sqrt()
    }

    /// Squared Frobenius norm `Σ aᵢⱼ²`.
    pub fn squared_frobenius_norm(&self) -> f64 {
        vecops::dot(&self.data, &self.data)
    }

    /// Maximum absolute element (NaNs skipped): `vecops::norm_inf` of
    /// the entries.
    pub fn max_abs(&self) -> f64 {
        vecops::norm_inf(&self.data)
    }

    /// Sub-matrix of the first `r` rows (copies).
    ///
    /// # Panics
    /// Panics when `r > rows`.
    pub fn top_rows(&self, r: usize) -> Matrix {
        assert!(r <= self.rows, "top_rows: {r} > {}", self.rows);
        Matrix {
            rows: r,
            cols: self.cols,
            data: self.data[..r * self.cols].to_vec(),
        }
    }

    /// Extract a copy of the rows selected by `indices` (in order).
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (oi, &i) in indices.iter().enumerate() {
            out.set_row(oi, self.row(i));
        }
        out
    }

    /// Append a row, growing the matrix by one row.
    ///
    /// # Panics
    /// Panics when `row.len() != cols` (for a non-empty matrix).
    pub fn push_row(&mut self, row: &[f64]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "push_row length mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Symmetric check up to absolute tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

/// Accumulates `out += L · rhs`, where row `i` of `L` is `lhs_row(i)` (all
/// of one length `k`), `rhs` is row-major `k × n` and `out` row-major
/// `nrows × n`. The body of [`Matrix::matmul`]; taking the left rows through
/// a closure lets the SVD kernel multiply a *permuted subset* of eigenvector
/// rows by the input without gathering them first.
pub(crate) fn matmul_rows_into<'a>(
    lhs_row: impl Fn(usize) -> &'a [f64],
    nrows: usize,
    rhs: &[f64],
    n: usize,
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), nrows * n);
    if n == 0 {
        return;
    }
    let mut i = 0;
    while i < nrows {
        let rows = match nrows - i {
            8.. => 8,
            4..=7 => 4,
            _ => 1,
        };
        let out_block = &mut out[i * n..(i + rows) * n];
        let tiled = match rows {
            8 => vecops::gemm8(
                std::array::from_fn(|r| lhs_row(i + r)),
                rhs,
                n,
                n,
                out_block,
                n,
            ),
            4 => vecops::gemm4(
                lhs_row(i),
                lhs_row(i + 1),
                lhs_row(i + 2),
                lhs_row(i + 3),
                rhs,
                n,
                n,
                out_block,
                n,
            ),
            _ => false,
        };
        if !tiled {
            for (r, out_row) in out_block.chunks_exact_mut(n).enumerate() {
                matmul_row_scalar(lhs_row(i + r), rhs, n, out_row);
            }
        }
        i += rows;
    }
}

/// One output row of `matmul` via the blocked axpy formulation — the
/// portable fallback behind [`vecops::gemm4`] and the row-tail path.
fn matmul_row_scalar(a_row: &[f64], rhs_data: &[f64], n: usize, out_row: &mut [f64]) {
    if n == 0 {
        return;
    }
    let kdim = a_row.len();
    let k4 = kdim / 4 * 4;
    for jb in (0..n).step_by(Matrix::COL_BLOCK) {
        let je = (jb + Matrix::COL_BLOCK).min(n);
        for k in (0..k4).step_by(4) {
            let alpha = [a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]];
            vecops::axpy4(
                alpha,
                &rhs_data[k * n + jb..k * n + je],
                &rhs_data[(k + 1) * n + jb..(k + 1) * n + je],
                &rhs_data[(k + 2) * n + jb..(k + 2) * n + je],
                &rhs_data[(k + 3) * n + jb..(k + 3) * n + je],
                &mut out_row[jb..je],
            );
        }
        for k in k4..kdim {
            vecops::axpy(
                a_row[k],
                &rhs_data[k * n + jb..k * n + je],
                &mut out_row[jb..je],
            );
        }
    }
}

/// Overwrites `g` (`cols × cols`) with the Gram matrix `AᵀA` of the
/// row-major `rows × cols` matrix `data` — the body of [`Matrix::gram`],
/// writing into a caller-owned buffer.
pub(crate) fn gram_into(data: &[f64], rows: usize, cols: usize, g: &mut [f64]) {
    let d = cols;
    debug_assert_eq!(data.len(), rows * d);
    debug_assert_eq!(g.len(), d * d);
    let row = |r: usize| &data[r * d..(r + 1) * d];
    g.fill(0.0);
    let r4 = rows / 4 * 4;
    for r in (0..r4).step_by(4) {
        let (x0, x1, x2, x3) = (row(r), row(r + 1), row(r + 2), row(r + 3));
        if !vecops::gram4_upper(x0, x1, x2, x3, g, d) {
            for i in 0..d {
                let alpha = [x0[i], x1[i], x2[i], x3[i]];
                let grow = &mut g[i * d + i..(i + 1) * d];
                vecops::axpy4(alpha, &x0[i..], &x1[i..], &x2[i..], &x3[i..], grow);
            }
        }
    }
    for r in r4..rows {
        let x = row(r);
        for i in 0..d {
            let grow = &mut g[i * d + i..(i + 1) * d];
            vecops::axpy(x[i], &x[i..], grow);
        }
    }
    // Mirror the upper triangle.
    for i in 0..d {
        for j in 0..i {
            g[i * d + j] = g[j * d + i];
        }
    }
}

/// Overwrites `g` (`rows × rows`) with the outer Gram matrix `AAᵀ` of the
/// row-major `rows × cols` matrix `data` — the body of
/// [`Matrix::outer_gram`], writing into a caller-owned buffer.
///
/// The upper triangle is swept in 4×4 blocks of row pairs, each one
/// register-tiled [`vecops::dots4x4`] over the full rows, and mirrored; the
/// `rows % 4` trailing rows pair up through [`vecops::dot`].
pub(crate) fn outer_gram_into(data: &[f64], rows: usize, cols: usize, g: &mut [f64]) {
    let n = rows;
    debug_assert_eq!(data.len(), n * cols);
    debug_assert_eq!(g.len(), n * n);
    let row = |r: usize| &data[r * cols..(r + 1) * cols];
    let quad = |i: usize| [row(i), row(i + 1), row(i + 2), row(i + 3)];
    let mut put = |i: usize, j: usize, v: f64| {
        g[i * n + j] = v;
        g[j * n + i] = v;
    };
    let n4 = n / 4 * 4;
    for i in (0..n4).step_by(4) {
        for j in (i..n4).step_by(4) {
            let tile = vecops::dots4x4(quad(i), quad(j));
            for (r, tile_row) in tile.iter().enumerate() {
                for (c, &v) in tile_row.iter().enumerate() {
                    put(i + r, j + c, v);
                }
            }
        }
        for j in n4..n {
            for r in i..i + 4 {
                put(r, j, vecops::dot(row(r), row(j)));
            }
        }
    }
    for i in n4..n {
        for j in i..n {
            put(i, j, vecops::dot(row(i), row(j)));
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for i in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>10.4}", self[(i, j)])?;
                if j + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_is_diagonal_ones() {
        let m = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let rows = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(Matrix::from_rows(&rows).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_small_known_result() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![5., 6., 7., 8.]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn tr_matmul_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![6., 5., 4., 3., 2., 1.]).unwrap();
        let fast = a.tr_matmul(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn gram_matches_tr_matmul_self() {
        let a = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let g = a.gram();
        let g2 = a.tr_matmul(&a).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!(approx(g[(i, j)], g2[(i, j)]));
            }
        }
        assert!(g.is_symmetric(1e-12));
    }

    #[test]
    fn outer_gram_matches_matmul_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1., 0., 2., -1., 3., 1.]).unwrap();
        let g = a.outer_gram();
        let g2 = a.matmul(&a.transpose()).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!(approx(g[(i, j)], g2[(i, j)]));
            }
        }
    }

    #[test]
    fn matvec_and_tr_matvec_agree_with_matmul() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let x = [1.0, -1.0, 2.0];
        let y = a.matvec(&x);
        assert_eq!(y, vec![5.0, 11.0]);
        let z = a.tr_matvec(&[1.0, 1.0]);
        assert_eq!(z, vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        // Sizes straddle the 4-wide unroll boundaries of the dot kernels.
        for (m, n, d) in [(3, 5, 7), (4, 4, 8), (6, 9, 13), (1, 1, 3)] {
            let a = Matrix::from_vec(m, d, (0..m * d).map(|i| (i as f64).sin()).collect()).unwrap();
            let b = Matrix::from_vec(n, d, (0..n * d).map(|i| (i as f64).cos()).collect()).unwrap();
            let fast = a.matmul_nt(&b).unwrap();
            let slow = a.matmul(&b.transpose()).unwrap();
            assert_eq!(fast.shape(), (m, n));
            for i in 0..m {
                for j in 0..n {
                    assert!(approx(fast[(i, j)], slow[(i, j)]));
                    // Each element must be bitwise the plain row-row dot —
                    // the batched scoring path depends on this.
                    assert_eq!(
                        fast[(i, j)].to_bits(),
                        vecops::dot(b.row(j), a.row(i)).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_nt_rejects_mismatched_inner_dims() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        assert!(a.matmul_nt(&b).is_err());
        let mut out = vec![0.0; 3]; // wrong length for 2×2
        assert!(a.matmul_nt_into(&Matrix::zeros(2, 3), &mut out).is_err());
    }

    #[test]
    fn blocked_kernels_match_naive_reference_past_block_boundary() {
        // Shapes chosen to cross COL_BLOCK (j-blocking) and leave 4-way
        // unroll tails in every dimension.
        let (m, k, n) = (6, 7, Matrix::COL_BLOCK + 13);
        let a =
            Matrix::from_vec(m, k, (0..m * k).map(|i| (i as f64 * 0.37).sin()).collect()).unwrap();
        let b =
            Matrix::from_vec(k, n, (0..k * n).map(|i| (i as f64 * 0.11).cos()).collect()).unwrap();
        let fast = a.matmul(&b).unwrap();
        // Naive triple loop as the reference.
        let mut want = Matrix::zeros(m, n);
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    want[(i, j)] += a[(i, kk)] * b[(kk, j)];
                }
            }
        }
        for i in 0..m {
            for j in 0..n {
                assert!(approx(fast[(i, j)], want[(i, j)]), "({i},{j})");
            }
        }
        // tr_matmul and gram against their transpose-based definitions.
        let c = Matrix::from_vec(7, 9, (0..63).map(|i| (i as f64 * 0.73).sin()).collect()).unwrap();
        let d = Matrix::from_vec(7, 5, (0..35).map(|i| (i as f64 * 0.29).cos()).collect()).unwrap();
        let fast = c.tr_matmul(&d).unwrap();
        let slow = c.transpose().matmul(&d).unwrap();
        for i in 0..9 {
            for j in 0..5 {
                assert!(approx(fast[(i, j)], slow[(i, j)]));
            }
        }
        let g = c.gram();
        let g2 = c.transpose().matmul(&c).unwrap();
        for i in 0..9 {
            for j in 0..9 {
                assert!(approx(g[(i, j)], g2[(i, j)]));
            }
        }
        let og = c.outer_gram();
        let og2 = c.matmul(&c.transpose()).unwrap();
        for i in 0..7 {
            for j in 0..7 {
                assert!(approx(og[(i, j)], og2[(i, j)]));
            }
        }
    }

    #[test]
    fn clear_rows_keeps_allocation_and_allows_refill() {
        let mut m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        m.clear_rows();
        assert_eq!(m.shape(), (0, 0));
        m.push_row(&[7.0, 8.0]); // a different width is fine after clearing
        assert_eq!(m.shape(), (1, 2));
        assert_eq!(m.row(0), &[7.0, 8.0]);
    }

    #[test]
    fn push_row_grows_matrix() {
        let mut m = Matrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn frobenius_norm_known_value() {
        let m = Matrix::from_vec(2, 2, vec![3., 0., 0., 4.]).unwrap();
        assert!(approx(m.frobenius_norm(), 5.0));
    }

    #[test]
    fn select_rows_copies_in_order() {
        let m = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[5.0, 6.0]);
        assert_eq!(s.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn scale_and_add_sub() {
        let a = Matrix::from_vec(2, 2, vec![2.0; 4]).unwrap();
        let b = Matrix::identity(2);
        let c = a.add(&b).unwrap();
        assert_eq!(c[(0, 0)], 3.0);
        let d = c.sub(&b).unwrap();
        assert_eq!(d, a);
        assert_eq!(a.scaled(0.5)[(1, 1)], 1.0);
    }

    #[test]
    fn is_symmetric_detects_asymmetry() {
        let mut m = Matrix::identity(3);
        assert!(m.is_symmetric(0.0));
        m[(0, 1)] = 0.5;
        assert!(!m.is_symmetric(1e-9));
    }
}

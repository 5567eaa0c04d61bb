//! # sketchad-linalg
//!
//! Dense linear-algebra substrate for the `sketchad` workspace — the
//! reproduction of *"Streaming Anomaly Detection Using Randomized Matrix
//! Sketching"* (VLDB 2015).
//!
//! The crate is intentionally self-contained (no external linear-algebra
//! dependency): the reproduction needs QR, a symmetric eigensolver and a thin
//! SVD tuned for short-and-wide sketch matrices, plus operator-level power
//! iteration for measuring sketch quality at high dimension. Everything is
//! `f64`, row-major and deterministic under a seed.
//!
//! ## Module map
//!
//! * `matrix` — the dense row-major [`Matrix`] type and its kernels.
//! * [`vecops`] — slice-level vector kernels (dot, axpy, plane rotation,
//!   norms).
//! * [`qr`] — Householder thin QR.
//! * [`eigen`] — the symmetric eigensolver (Householder tridiagonalization,
//!   implicit QL for the eigenvalues, and only the kept eigenvectors), the
//!   cyclic Jacobi accuracy oracle, and top-k subspace iteration.
//! * [`svd`] — the allocation-free Gram-route kernel [`svd::right_factor`]
//!   (σ² and the top rows of Vᵀ on a reusable [`svd::Workspace`]), the thin
//!   SVD wrappers over it, and the one-sided Jacobi reference.
//! * [`power`] — power-iteration spectral-norm estimation on operators.
//! * [`rng`] — seeded RNG helpers: Gaussian (Box–Muller), Rademacher,
//!   random orthonormal bases.
//!
//! ## Example
//!
//! ```
//! use sketchad_linalg::{Matrix, svd::top_k_svd};
//!
//! let a = Matrix::from_vec(2, 3, vec![3.0, 0.0, 0.0,
//!                                     0.0, 2.0, 0.0]).unwrap();
//! let svd = top_k_svd(&a, 1).unwrap();
//! assert!((svd.s[0] - 3.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
// `deny` rather than `forbid`: the one sanctioned exception is the
// runtime-feature-detected SIMD kernels in `vecops::simd`, which opt back in
// with a scoped `#[allow(unsafe_code)]` and per-call safety comments. All
// other modules remain unsafe-free.
#![deny(unsafe_code)]

pub mod eigen;
pub(crate) mod error;
#[cfg(test)]
mod golden;
pub(crate) mod matrix;
pub mod power;
pub mod qr;
pub mod rng;
pub(crate) mod sparse;
pub mod svd;
pub mod vecops;

pub use error::LinAlgError;
pub use matrix::Matrix;
pub use sparse::SparseVec;
pub use vecops::active_simd_tier;

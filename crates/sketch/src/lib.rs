//! # sketchad-sketch
//!
//! Matrix-sketching substrate for the VLDB'15 reproduction *"Streaming
//! Anomaly Detection Using Randomized Matrix Sketching"*.
//!
//! Every algorithm maintains a small matrix `B` (ℓ rows, `O(ℓ·d)` memory)
//! whose Gram matrix approximates the covariance of the stream seen so far,
//! behind the shared [`MatrixSketch`] trait:
//!
//! * [`FrequentDirections`] — deterministic, with the provable
//!   `‖AᵀA − BᵀB‖₂ ≤ ‖A‖_F²/ℓ` guarantee (the paper's deterministic arm);
//! * [`RandomProjection`] — Gaussian linear sketch (the paper's randomized
//!   arm);
//! * [`CountSketch`] — hashing sparse embedding with `s` nonzeros per row:
//!   O(d)-per-row CountSketch at `s = 1`, OSNAP-style sparse JL above;
//! * [`RowSampling`] — length-squared weighted reservoir sampling, keeping
//!   interpretable real rows;
//! * [`BlockWindowSketch`] — tumbling-block combinator giving hard
//!   sliding-window semantics over any of the above.
//!
//! [`bounds`] contains the theoretical error-bound helpers used by the
//! sketch-quality experiments.
//!
//! Sketches whose shard-local partial results combine into a global sketch
//! implement [`MergeableSketch`]; [`merge::tree_merge`] aggregates N shards
//! hierarchically. The persistence hooks
//! ([`MatrixSketch::encode_state`] / [`MatrixSketch::decode_state`], over
//! the [`wire`] codec) serialize a sketch's dynamic state so the durable
//! tier (`sketchad-durable`) can checkpoint and warm-restart detectors.
//!
//! ## Example
//!
//! ```
//! use sketchad_sketch::{FrequentDirections, MatrixSketch};
//!
//! let mut fd = FrequentDirections::new(8, 16);
//! for i in 0..100 {
//!     let row: Vec<f64> = (0..16).map(|j| ((i * j) as f64).sin()).collect();
//!     fd.update(&row);
//! }
//! let b = fd.sketch();
//! assert!(b.rows() <= 16); // ≤ 2ℓ buffer rows
//! assert_eq!(b.cols(), 16);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounds;
pub(crate) mod count_sketch;
pub(crate) mod frequent_directions;
pub(crate) mod isvd;
pub(crate) mod merge;
pub(crate) mod random_projection;
pub(crate) mod row_sampling;
pub(crate) mod traits;
pub(crate) mod window;
pub mod wire;

pub use count_sketch::CountSketch;
pub use frequent_directions::FrequentDirections;
pub use isvd::IsvdTruncation;
pub use merge::tree_merge;
pub use random_projection::RandomProjection;
pub use row_sampling::RowSampling;
pub use traits::{MatrixSketch, MergeableSketch, RefreshFactor};
pub use window::BlockWindowSketch;

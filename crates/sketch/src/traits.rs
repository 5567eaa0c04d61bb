//! The [`MatrixSketch`] abstraction shared by every sketching algorithm,
//! plus [`MergeableSketch`] for distributed / recoverable deployments.

use crate::wire::{ByteReader, ByteWriter, WireError};
use sketchad_linalg::svd::{right_factor, RightFactor, Workspace};
use sketchad_linalg::{LinAlgError, Matrix, SparseVec};
use sketchad_obs::RecorderHandle;

/// What [`MatrixSketch::refresh_factor`] hands a detector: the right factor
/// of the sketch `B` as it stood when the call was made — everything a
/// rank-k subspace model is built from, and nothing else.
#[derive(Debug)]
pub struct RefreshFactor<'a> {
    /// Every `σ²` of `B` and (at least) the asked-for top rows of `Vᵀ`.
    pub factor: RightFactor<'a>,
    /// `‖B‖_F²`.
    pub energy: f64,
    /// Rows `B` held; a model keeps no more directions than this.
    pub rows: usize,
}

/// A streaming sketch of a tall row matrix `A` (one row per stream point).
///
/// Implementations maintain a small matrix `B` (about [`capacity`] rows ×
/// [`dim`] columns) such that `BᵀB ≈ AᵀA`, the covariance-like Gram matrix of
/// everything observed so far. The anomaly detectors in `sketchad-core`
/// consume sketches only through this trait, which is what makes the
/// detector generic over deterministic (frequent directions) and randomized
/// (projection / hashing / sampling) sketches.
///
/// [`capacity`]: MatrixSketch::capacity
/// [`dim`]: MatrixSketch::dim
pub trait MatrixSketch {
    /// Ambient dimensionality `d` (columns of `A`).
    fn dim(&self) -> usize;

    /// Sketch size parameter ℓ: the number of directions the sketch retains,
    /// and so the largest model rank it supports. Memory is `O(ℓ·d)`.
    /// [`MatrixSketch::sketch`] exposes at most ℓ rows for most sketches, but
    /// up to 2ℓ for [`FrequentDirections`] (its doubling buffer between two
    /// shrinks) — size by `sketch().rows()`, not by this.
    ///
    /// [`FrequentDirections`]: crate::FrequentDirections
    fn capacity(&self) -> usize;

    /// Number of stream rows folded into the sketch since the last reset.
    fn rows_seen(&self) -> u64;

    /// Folds one stream row into the sketch.
    ///
    /// # Panics
    /// Implementations panic when `row.len() != self.dim()`.
    fn update(&mut self, row: &[f64]);

    /// Folds one sparse stream row into the sketch. The default densifies;
    /// linear sketches override this with `O(nnz)`-class updates.
    ///
    /// # Panics
    /// Implementations panic when `row.dim() != self.dim()`.
    fn update_sparse(&mut self, row: &SparseVec) {
        assert_eq!(
            row.dim(),
            self.dim(),
            "sparse row dimension {} does not match sketch dimension {}",
            row.dim(),
            self.dim()
        );
        self.update(&row.to_dense());
    }

    /// Returns a copy of the current sketch matrix `B` (`dim` columns; at
    /// most [`capacity`](MatrixSketch::capacity) rows, or twice that for
    /// frequent directions). `BᵀB` approximates the Gram matrix of the
    /// observed stream prefix.
    fn sketch(&self) -> Matrix;

    /// Decomposes the current sketch for a model refresh: all `σ²` and the
    /// top `keep` rows of `Vᵀ` of `B`, its energy and its row count, or
    /// `None` while the sketch is empty. `keep` must not exceed
    /// [`capacity`](MatrixSketch::capacity).
    ///
    /// The default copies `B` out and runs the Gram-route kernel on the
    /// caller's `workspace`. A sketch that holds `B` as a matrix overrides
    /// this to decompose it where it lies (the linear sketches), and a
    /// sketch that decomposes `B` for its own upkeep overrides it to do both
    /// with one decomposition: [`FrequentDirections`] runs its shrink here
    /// and returns the factor the shrink computed (so the sketch may change,
    /// and only to another sketch of the same stream with the same
    /// guarantee). Either way the factor is that of `B` *before* the call.
    ///
    /// # Errors
    /// Propagates the kernel's failures (non-finite sketch contents).
    ///
    /// [`FrequentDirections`]: crate::FrequentDirections
    fn refresh_factor<'a>(
        &'a mut self,
        keep: usize,
        workspace: &'a mut Workspace,
    ) -> Result<Option<RefreshFactor<'a>>, LinAlgError> {
        factor_of(&self.sketch(), keep, workspace)
    }

    /// Multiplies the *covariance estimate* `BᵀB` by `alpha ∈ (0, 1]`,
    /// i.e. scales the sketch rows by `√alpha`. This is the exponential
    /// forgetting used by drift-aware detectors.
    ///
    /// # Panics
    /// Implementations panic when `alpha` is not in `(0, 1]`.
    fn decay(&mut self, alpha: f64);

    /// Clears the sketch back to its empty state (seeds are re-derived so a
    /// reset sketch replays deterministically).
    fn reset(&mut self);

    /// Re-derives internal randomness from `seed` and clears the sketch.
    /// Deterministic sketches simply reset; randomized sketches must draw an
    /// independent hash/projection family. Used by the sliding-window
    /// combinator to give each block independent randomness.
    fn reseed(&mut self, seed: u64) {
        let _ = seed;
        self.reset();
    }

    /// Installs an observability recorder on the sketch.
    ///
    /// The default discards the handle: most sketches have nothing internal
    /// worth timing beyond what the detector already wraps around
    /// [`update`](MatrixSketch::update). [`FrequentDirections`] overrides
    /// this to time its amortized SVD shrinks and publish its `Σδ` error
    /// certificate as a gauge.
    ///
    /// [`FrequentDirections`]: crate::FrequentDirections
    fn set_recorder(&mut self, recorder: RecorderHandle) {
        let _ = recorder;
    }

    /// Resident bytes held by the sketch's numeric state: the memory cost a
    /// capacity-planning or benchmark-matrix consumer should charge this
    /// sketch for. The default charges the exposed sketch surface
    /// (`capacity × dim` f64 cells); sketches whose working set differs from
    /// that surface (e.g. [`FrequentDirections`]' doubling buffer plus the
    /// decomposition workspace its shrink owns — resident for the sketch's
    /// lifetime, not transient heap — or the block-window combinator's live
    /// blocks) override it.
    ///
    /// [`FrequentDirections`]: crate::FrequentDirections
    fn resident_bytes(&self) -> usize {
        self.capacity() * self.dim() * std::mem::size_of::<f64>()
    }

    /// Short human-readable algorithm name (for tables and logs).
    fn name(&self) -> &'static str;

    /// Squared Frobenius mass `‖A‖_F²` of everything folded in (after decay
    /// scaling). Implementations track this exactly; it parameterizes the
    /// deterministic error bounds.
    fn stream_frobenius_sq(&self) -> f64;

    /// Serializes the sketch's **dynamic** state (buffer contents, row
    /// counts, error certificates — everything not fixed by the
    /// constructor) into `out`, returning `true` when the sketch supports
    /// persistence. The default writes nothing and returns `false`;
    /// sketches without a durable representation (e.g. combinators holding
    /// live RNG state they cannot replay) keep that default.
    ///
    /// The encoding contract is: a sketch reconstructed with the *same
    /// constructor parameters* (ℓ, d, seed, …) and fed these bytes through
    /// [`decode_state`](MatrixSketch::decode_state) behaves **bitwise
    /// identically** to the original from that point on.
    fn encode_state(&self, out: &mut ByteWriter) -> bool {
        let _ = out;
        false
    }

    /// Restores state previously produced by
    /// [`encode_state`](MatrixSketch::encode_state) into a sketch built
    /// with the same constructor parameters. Returns `Ok(true)` on success,
    /// `Ok(false)` when this sketch kind does not support persistence, and
    /// `Err` when the bytes are malformed or were written by an
    /// incompatible sketch (different kind, ℓ, or d).
    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<bool, WireError> {
        let _ = r;
        Ok(false)
    }
}

/// A sketch whose partial results over disjoint stream shards can be
/// combined into a sketch of the union stream.
///
/// This is the algebraic property behind both distributed aggregation
/// (shard-local sketches tree-merged into one global model — see
/// [`tree_merge`](crate::merge::tree_merge)) and the durable state tier's
/// recovery math. The guarantee each implementation documents is that the
/// merged sketch satisfies the *same family* of covariance error bounds as
/// a single sketch fed the concatenated stream:
///
/// * [`FrequentDirections`](crate::FrequentDirections): the shrink masses
///   add, so `‖AᵀA − BᵀB‖₂ ≤ Σδ₁ + Σδ₂ ≤ (‖A₁‖_F² + ‖A₂‖_F²)/ℓ` — the
///   classic FD merge theorem (Ghashami et al.).
/// * Linear sketches ([`RandomProjection`](crate::RandomProjection),
///   [`CountSketch`](crate::CountSketch) at any `s`): `B = S·A` is linear in
///   the stream, so merging is matrix addition. Shards built on independent
///   seeds (the sharded-serving layout) draw jointly independent
///   embeddings, so the sum is an unbiased Gram estimator of the
///   concatenated stream.
pub trait MergeableSketch: MatrixSketch {
    /// Folds `other`'s accumulated state into `self`, leaving `self`
    /// equivalent to a sketch of both shards' streams concatenated.
    ///
    /// # Panics
    /// Panics when the two sketches are structurally incompatible
    /// (different `dim`, `capacity`, or — for hashing sketches — nonzeros
    /// per row).
    fn merge_from(&mut self, other: &Self);
}

/// [`MatrixSketch::refresh_factor`] of a sketch whose `B` is the matrix `b`:
/// the Gram-route factor of all its rows on `workspace`, or `None` for a
/// sketch of no rows.
pub(crate) fn factor_of<'a>(
    b: &Matrix,
    keep: usize,
    workspace: &'a mut Workspace,
) -> Result<Option<RefreshFactor<'a>>, LinAlgError> {
    if b.rows() == 0 {
        return Ok(None);
    }
    Ok(Some(RefreshFactor {
        factor: right_factor(b, b.rows(), keep, workspace)?,
        energy: b.squared_frobenius_norm(),
        rows: b.rows(),
    }))
}

/// Validates a decay factor, panicking with a uniform message otherwise.
pub(crate) fn assert_valid_decay(alpha: f64) {
    assert!(
        alpha > 0.0 && alpha <= 1.0,
        "decay factor must be in (0, 1], got {alpha}"
    );
}

/// Validates an updated row's length against the sketch dimension.
pub(crate) fn assert_row_len(row: &[f64], dim: usize, name: &str) {
    assert_eq!(
        row.len(),
        dim,
        "{name}: row length {} does not match sketch dimension {dim}",
        row.len()
    );
}

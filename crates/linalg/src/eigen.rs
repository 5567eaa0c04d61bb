//! Symmetric eigendecomposition.
//!
//! * [`sym_eigenvalues`] + [`sym_eigenvectors`] — the one production
//!   solver, over caller-owned buffers ([`EigenScratch`]), in LAPACK's
//!   `dsyevx` shape: Householder tridiagonalization, implicit-shift QL for
//!   every eigenvalue, and only the `keep` eigenvectors asked for. Up to a
//!   quarter of `n` kept, those come from inverse iteration on the
//!   tridiagonal and a back-transform through the stored reflectors —
//!   `O(n²·keep)` flops after the reduction's `O(n³)`; above that QL carries
//!   every vector through its rotations (`tred2`/`tql2`), which is cheaper
//!   per vector. Everything is stored **as rows**, so every cubic loop walks
//!   contiguous slices. It is what the allocation-free SVD kernel
//!   ([`crate::svd::right_factor`]) runs on its workspace; [`eigen_sym`] /
//!   [`eigen_sym_top`] are the allocating wrappers.
//! * [`jacobi_eigen_sym`] — cyclic Jacobi rotations; unconditionally stable
//!   and several times slower at every size. Kept as the accuracy oracle the
//!   tests compare the QL solver against; nothing on a hot path calls it.
//! * [`subspace_iteration`] / [`warm_subspace_iteration`] — block orthogonal
//!   iteration extracting only the top-k eigenpairs. The cold one serves the
//!   exact-SVD baseline's `d × d` covariances. The warm one is on no
//!   refresh path: every model refresh is a cold `right_factor` build, and
//!   its one non-test caller is the `skbench` isolate pass, which times it
//!   (`linalg.subspace_iter_us`) against that build.

use crate::error::{LinAlgError, Result};
use crate::matrix::Matrix;
use crate::qr::qr_thin;
use crate::rng::{gaussian_matrix, seeded_rng};
use crate::vecops;

/// Eigendecomposition of a symmetric matrix: `S = V diag(λ) Vᵀ`.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues sorted in descending order.
    pub values: Vec<f64>,
    /// Matrix whose **columns** are the corresponding eigenvectors.
    pub vectors: Matrix,
}

/// Maximum Jacobi sweeps before declaring non-convergence.
const MAX_JACOBI_SWEEPS: usize = 64;

/// Full eigendecomposition of a symmetric matrix by the cyclic Jacobi method.
///
/// Eigenvalues are returned in descending order; the `i`-th column of
/// `vectors` is the eigenvector for `values[i]`.
///
/// # Errors
/// * [`LinAlgError::ShapeMismatch`] for non-square input.
/// * [`LinAlgError::NotFinite`] for NaN/inf input.
/// * [`LinAlgError::NoConvergence`] if the sweep budget is exhausted
///   (practically unreachable for symmetric input).
pub fn jacobi_eigen_sym(s: &Matrix) -> Result<SymEigen> {
    let n = s.rows();
    if s.rows() != s.cols() {
        return Err(LinAlgError::ShapeMismatch {
            expected: (n, n),
            got: s.shape(),
            op: "jacobi_eigen_sym",
        });
    }
    if !s.all_finite() {
        return Err(LinAlgError::NotFinite {
            op: "jacobi_eigen_sym",
        });
    }
    if n == 0 {
        return Ok(SymEigen {
            values: vec![],
            vectors: Matrix::zeros(0, 0),
        });
    }

    let mut a = s.clone();
    let mut v = Matrix::identity(n);

    // Convergence threshold relative to the matrix scale.
    let scale = a.max_abs().max(f64::MIN_POSITIVE);
    let tol = 1e-14 * scale;

    for _ in 0..MAX_JACOBI_SWEEPS {
        let mut off = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                off = off.max(a[(i, j)].abs());
            }
        }
        if off <= tol {
            return Ok(finish_jacobi(a, v));
        }

        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[(p, q)];
                if apq.abs() <= tol * 1e-2 {
                    continue;
                }
                let app = a[(p, p)];
                let aqq = a[(q, q)];
                // Compute the Jacobi rotation (c, s) annihilating a[p][q].
                let theta = (aqq - app) / (2.0 * apq);
                let t = {
                    let sign = if theta >= 0.0 { 1.0 } else { -1.0 };
                    sign / (theta.abs() + (theta * theta + 1.0).sqrt())
                };
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s_rot = t * c;

                // A ← Jᵀ A J applied to rows/columns p and q.
                for k in 0..n {
                    let akp = a[(k, p)];
                    let akq = a[(k, q)];
                    a[(k, p)] = c * akp - s_rot * akq;
                    a[(k, q)] = s_rot * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[(p, k)];
                    let aqk = a[(q, k)];
                    a[(p, k)] = c * apk - s_rot * aqk;
                    a[(q, k)] = s_rot * apk + c * aqk;
                }
                // Accumulate the rotation into V.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s_rot * vkq;
                    v[(k, q)] = s_rot * vkp + c * vkq;
                }
            }
        }
    }

    Err(LinAlgError::NoConvergence {
        op: "jacobi_eigen_sym",
        iterations: MAX_JACOBI_SWEEPS,
    })
}

/// Sorts eigenpairs in descending eigenvalue order.
fn finish_jacobi(a: Matrix, v: Matrix) -> SymEigen {
    let n = a.rows();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        a[(j, j)]
            .partial_cmp(&a[(i, i)])
            .expect("finite eigenvalues")
    });

    let values: Vec<f64> = order.iter().map(|&i| a[(i, i)]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for row in 0..n {
            vectors[(row, new_col)] = v[(row, old_col)];
        }
    }
    SymEigen { values, vectors }
}

/// Full symmetric eigendecomposition: [`eigen_sym_top`] keeping every
/// eigenvector. Eigenvalues come back in descending order; the `i`-th
/// column of `vectors` is the eigenvector for `values[i]`.
///
/// There is no small-matrix dispatch to [`jacobi_eigen_sym`]: measured on the
/// n = 2…16 Grams the cheap detectors and the Rayleigh–Ritz steps produce,
/// the tridiagonal route is faster from n = 3 up and ties within 0.05 µs at
/// n = 2 (the table is in ARCHITECTURE.md, kernel layer).
///
/// # Errors
/// * [`LinAlgError::ShapeMismatch`] for non-square input.
/// * [`LinAlgError::NotFinite`] for NaN/inf input.
/// * [`LinAlgError::NoConvergence`] if QL exceeds its iteration budget.
pub fn eigen_sym(s: &Matrix) -> Result<SymEigen> {
    eigen_sym_top(s, s.rows())
}

/// The top `keep` eigenpairs of a symmetric matrix (`keep` is clamped to
/// `n`; only the lower triangle of `s` is read): the allocating wrapper
/// over [`sym_eigenvalues`] and [`sym_eigenvectors`]. `values` holds the
/// `keep` largest eigenvalues, descending, and column `i` of the
/// `n × keep` `vectors` the unit eigenvector of `values[i]`. Only those
/// `keep` vectors are computed.
///
/// # Errors
/// Same conditions as [`eigen_sym`].
pub fn eigen_sym_top(s: &Matrix, keep: usize) -> Result<SymEigen> {
    let n = s.rows();
    if s.rows() != s.cols() {
        return Err(LinAlgError::ShapeMismatch {
            expected: (n, n),
            got: s.shape(),
            op: "eigen_sym",
        });
    }
    if !s.all_finite() {
        return Err(LinAlgError::NotFinite { op: "eigen_sym" });
    }
    let keep = keep.min(n);
    // The solver reads both triangles; this wrapper reads the lower one.
    let mut z: Vec<f64> = (0..n * n)
        .map(|k| {
            let (i, j) = (k / n, k % n);
            s[(i.max(j), i.min(j))]
        })
        .collect();
    let mut values = vec![0.0f64; n];
    let mut scratch = EigenScratch::default();
    sym_eigenvalues(&mut z, &mut values, keep, &mut scratch)?;
    let rows = sym_eigenvectors(&z, keep, &mut scratch).to_vec();
    values.truncate(keep);
    Ok(SymEigen {
        values,
        vectors: Matrix::from_vec(keep, n, rows)?.transpose(),
    })
}

/// Unbiased binary exponent of a finite `x` (subnormals and zero read as
/// −1023).
pub(crate) fn binary_exponent(x: f64) -> i64 {
    ((x.to_bits() >> 52) & 0x7ff) as i64 - 1023
}

/// The exact power of two that brings a finite `max_abs` to about 1 (into
/// `[1, 4)`; subnormals only as far as 2⁻⁵², and zero stays zero), chosen so
/// that both it and its reciprocal are normal numbers. Multiplying by it is
/// exact.
pub(crate) fn unit_scale(max_abs: f64) -> f64 {
    let exp = binary_exponent(max_abs).clamp(-1022, 1022);
    f64::from_bits(((1023 - exp) as u64) << 52)
}

/// QL iterations allowed per eigenvalue before declaring non-convergence.
const MAX_QL_ITERS: usize = 50;

/// Inverse-iteration steps allowed per eigenvector (LAPACK's `dstein`).
const MAX_INVERSE_ITERS: usize = 5;

/// Steps run past the first that passes the growth test (`dstein`'s
/// `EXTRA`).
const EXTRA_INVERSE_ITERS: usize = 2;

/// Eigenvalues closer than this fraction of `‖T‖₁` form one cluster, whose
/// vectors are reorthogonalised against each other (`dstein`'s `ORTOL`).
const CLUSTER_REL_GAP: f64 = 1e-3;

/// Eigenvalues closer than this fraction of `‖T‖₁` are copies of one
/// multiple eigenvalue as far as inverse iteration can tell (a few hundred
/// ε: the spread rounding gives an exact multiple eigenvalue), and are
/// iterated as one block.
const TIE_REL_GAP: f64 = 1e-13;

/// Buffers of the keep-aware symmetric eigensolver — [`sym_eigenvalues`],
/// then [`sym_eigenvectors`] — besides the `n × n` matrix the caller owns.
///
/// Scratch, never state: [`sym_eigenvalues`] overwrites every buffer it
/// reads, so results depend on the input matrix alone. The buffers only
/// inverse iteration reads are sized the first time a call takes that route.
/// Sized for an `n` and `keep`, a scratch allocates nothing on later calls
/// of that `n` or smaller keeping as many vectors or fewer.
#[derive(Debug, Clone, Default)]
pub struct EigenScratch {
    /// Diagonal and off-diagonal of the tridiagonal `T = QᵀSQ`, in scaled
    /// units; `off[i]` couples `i` and `i + 1`. On the all-vectors route QL
    /// consumes them, leaving the eigenvalues in `diag`.
    diag: Vec<f64>,
    off: Vec<f64>,
    /// Descending permutation of the eigenvalues in QL's order.
    order: Vec<usize>,
    // Inverse iteration's buffers, empty until a call takes that route.
    /// The eigenvalues of `T` in QL's order, in scaled units.
    w: Vec<f64>,
    /// LU factors of `T − λI`: the pivots, the first and second
    /// superdiagonals of `U`, and `L`'s multipliers. `lu[0]` is also the QL
    /// recurrence's off-diagonal.
    lu: [Vec<f64>; 4],
    /// Whether elimination step `k` swapped rows `k` and `k + 1`.
    swapped: Vec<bool>,
    /// The kept eigenvectors, `keep × n` rows.
    vectors: Vec<f64>,
    /// The exact power of two the matrix was multiplied by.
    scale: f64,
    /// Whether QL carries every eigenvector (the matrix then holds them as
    /// rows) rather than leaving the kept ones to inverse iteration.
    all_vectors: bool,
    /// Bytes of the buffers at the largest shape this scratch was sized for.
    high_water: usize,
}

impl EigenScratch {
    /// Sizes the buffers for `n × n` matrices keeping `keep ≤ n` vectors,
    /// and picks the route by cost alone:
    /// * `4·keep ≤ n`: inverse iteration computes the kept vectors,
    ///   `O(n²·keep)` flops after the reduction.
    /// * otherwise QL carries every vector through its rotations (`tql2`),
    ///   which per vector kept is cheaper once more than about a quarter of
    ///   them are kept.
    pub(crate) fn resize(&mut self, n: usize, keep: usize) {
        self.diag.resize(n, 0.0);
        self.off.resize(n, 0.0);
        self.order.resize(n, 0);
        self.all_vectors = 4 * keep > n;
        if !self.all_vectors {
            self.w.resize(n, 0.0);
            for v in &mut self.lu {
                v.resize(n, 0.0);
            }
            self.swapped.resize(n, false);
            self.vectors.resize(keep * n, 0.0);
        }
        let f64s = self.diag.len()
            + self.off.len()
            + self.w.len()
            + self.lu.iter().map(Vec::len).sum::<usize>()
            + self.vectors.len();
        let bytes = f64s * std::mem::size_of::<f64>()
            + self.order.len() * std::mem::size_of::<usize>()
            + self.swapped.len();
        self.high_water = self.high_water.max(bytes);
    }

    /// Bytes of the buffers this scratch holds at the largest shape it has
    /// been sized for: a smaller one reuses those allocations.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.high_water
    }

    /// Factors `T − λI = P·L·U` by Gaussian elimination with partial
    /// pivoting (`dlagtf`), storing the reciprocals of `U`'s pivots — any
    /// pivot below `ε·max|U|` taken as `±ε·max|U|` (`dlagts`' perturbation,
    /// so an exactly singular `T − λI` still solves) — and returns the last
    /// pivot's magnitude.
    fn factor(&mut self, lambda: f64) -> f64 {
        let n = self.diag.len();
        let [a, b, c, m] = &mut self.lu;
        for (ak, &dk) in a.iter_mut().zip(&self.diag) {
            *ak = dk - lambda;
        }
        b.copy_from_slice(&self.off);
        for k in 0..n - 1 {
            // Row k holds (a[k], b[k]) in columns k, k+1; row k+1 holds
            // (sub, a[k+1], b[k+1]) in columns k, k+1, k+2.
            let sub = self.off[k];
            self.swapped[k] = sub.abs() > a[k].abs();
            if self.swapped[k] {
                let mult = a[k] / sub;
                let t = a[k + 1];
                a[k] = sub;
                a[k + 1] = b[k] - mult * t;
                c[k] = b[k + 1];
                b[k + 1] = -mult * c[k];
                b[k] = t;
                m[k] = mult;
            } else {
                m[k] = if sub == 0.0 { 0.0 } else { sub / a[k] };
                a[k + 1] -= m[k] * b[k];
                c[k] = 0.0;
            }
        }
        c[n - 1] = 0.0;
        let largest = [&*a, &*b, &*c]
            .iter()
            .flat_map(|v| v.iter())
            .fold(0.0f64, |acc, &v| acc.max(v.abs()));
        let floor = if largest > 0.0 {
            f64::EPSILON * largest
        } else {
            f64::EPSILON
        };
        let last = a[n - 1].abs();
        for ak in a.iter_mut() {
            *ak = 1.0
                / if ak.abs() < floor {
                    floor.copysign(*ak)
                } else {
                    *ak
                };
        }
        last
    }

    /// Solves `(T − λI)·x = rhs` in place with the last [`Self::factor`]
    /// (`dlagts`, job −1). The whole vector — solved part and remaining
    /// right-hand side alike — is rescaled whenever a component nears
    /// overflow, which only changes the solution's length.
    fn solve(&self, x: &mut [f64]) {
        const BIG: f64 = 1e150;
        let n = x.len();
        let [inv_pivot, b, c, m] = &self.lu;
        for k in 0..n - 1 {
            if self.swapped[k] {
                let t = x[k];
                x[k] = x[k + 1];
                x[k + 1] = t - m[k] * x[k];
            } else {
                x[k + 1] -= m[k] * x[k];
            }
        }
        for k in (0..n).rev() {
            let mut t = x[k];
            if k + 1 < n {
                t -= b[k] * x[k + 1];
            }
            if k + 2 < n {
                t -= c[k] * x[k + 2];
            }
            x[k] = t * inv_pivot[k];
            if x[k].abs() > BIG {
                vecops::scale(1.0 / x[k].abs(), x);
            }
        }
    }

    /// Unit eigenvectors of `T` for the tie group `group` of the sorted
    /// eigenvalues, written as the rows of `block`, by inverse iteration
    /// from fixed start vectors (`dstein`). After every round of solves
    /// each vector is reorthogonalised against `cluster` (the rows already
    /// found for eigenvalues within [`CLUSTER_REL_GAP`] of these) and the
    /// group's earlier rows, and once more at the end ("twice is enough").
    ///
    /// A group of more than one is a near-exact multiple eigenvalue. Its
    /// copies are iterated as one block with one shift: a shift per copy
    /// amplifies the other copies about as much as its own, and then the
    /// reorthogonalisation cancels most of the vector.
    fn inverse_iteration(
        &mut self,
        group: std::ops::Range<usize>,
        norm: f64,
        cluster: &[f64],
        block: &mut [f64],
    ) {
        let n = self.diag.len();
        let value = |j: usize| self.w[self.order[j]];
        let last_pivot = self.factor(0.5 * (value(group.start) + value(group.end - 1)));
        for (j, x) in group.zip(block.chunks_exact_mut(n)) {
            for (i, xi) in x.iter_mut().enumerate() {
                *xi = start_entry(j, i);
            }
        }
        // dstein's scaling: the right-hand side is this small, so a
        // solution growing past `growth` certifies a residual of
        // O(n·ε·‖T‖) for the normalized vector.
        let rhs_norm = n as f64 * norm * f64::EPSILON.max(last_pivot);
        let growth = (0.1 / n as f64).sqrt();
        let orthonormalize = |block: &mut [f64], r: usize| {
            let (earlier, x) = block.split_at_mut(r * n);
            let x = &mut x[..n];
            for v in cluster.chunks_exact(n).chain(earlier.chunks_exact(n)) {
                vecops::axpy(-vecops::dot(x, v), v, x);
            }
            let grown = vecops::norm_inf(x) >= growth;
            vecops::normalize(x);
            grown
        };
        let rows = block.len() / n;
        let mut passed = 0;
        for _ in 0..MAX_INVERSE_ITERS {
            for x in block.chunks_exact_mut(n) {
                let l1 = vecops::norm1(x);
                if l1 > 0.0 {
                    vecops::scale(rhs_norm / l1, x);
                }
                self.solve(x);
            }
            let mut grown = true;
            for r in 0..rows {
                grown &= orthonormalize(block, r);
            }
            if grown {
                passed += 1;
                if passed > EXTRA_INVERSE_ITERS {
                    break;
                }
            }
        }
        for r in 0..rows {
            orthonormalize(block, r);
        }
    }
}

/// Entry `i` of the start vector for eigenvalue `j`: a fixed value in
/// `[−1, 1)` from a SplitMix64 mix of `(j, i)`, so the solver's bits depend
/// on its input alone.
fn start_entry(j: usize, i: usize) -> f64 {
    let mut z = ((j as u64) << 32 | i as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
}

/// The first half of the symmetric eigensolver (LAPACK's `dsyevx` shape):
/// Householder reduction to a tridiagonal `T`, then implicit-shift QL for
/// every eigenvalue.
///
/// On entry `z` holds the symmetric `n × n` matrix row-major, **both
/// triangles** (`n = values.len()`; the reduction reads whole rows). On
/// success `values` holds every eigenvalue, descending, and `z` and
/// `scratch` hold what [`sym_eigenvectors`] needs for up to `keep` (clamped
/// to `n`) eigenvectors.
///
/// `keep` picks the route, by cost alone:
/// * `keep ≤ n / 4`: QL rotates no vectors, and `z` keeps the reflectors,
///   so that [`sym_eigenvectors`] computes only the vectors it is asked
///   for. This half is then `O(n³)` flops in the reduction alone and
///   `O(n²)` in QL.
/// * otherwise: the reflectors are accumulated into `Qᵀ` and QL carries
///   every eigenvector through its rotations (`tql2`); the rows of `z` are
///   then sorted to the order of `values`. Per vector kept that is cheaper
///   than inverse iteration once more than about a quarter of them are
///   kept.
///
/// Both routes are the textbook `tred2`/`tql2` restructured for row-major
/// storage. The reduction keeps both triangles current, so each of its
/// steps — and each step of accumulating the reflectors — is one four-row
/// [`vecops::update_rows_dots`] pass over contiguous rows that applies the
/// step's update and forms the next step's matrix–vector product. A QL
/// rotation is one [`vecops::rot`] over two adjacent rows. The eigenvalues
/// are the same bits on both.
///
/// # Errors
/// * [`LinAlgError::ShapeMismatch`] unless `z.len() == n²`.
/// * [`LinAlgError::NoConvergence`] if QL exceeds its iteration budget.
/// * [`LinAlgError::NotFinite`] if the input holds a non-finite value or an
///   eigenvalue comes out non-finite.
pub fn sym_eigenvalues(
    z: &mut [f64],
    values: &mut [f64],
    keep: usize,
    scratch: &mut EigenScratch,
) -> Result<()> {
    let n = values.len();
    if z.len() != n * n {
        return Err(LinAlgError::ShapeMismatch {
            expected: (n, n),
            got: (z.len(), 1),
            op: "sym_eigenvalues",
        });
    }
    scratch.resize(n, keep.min(n));
    if n == 0 {
        return Ok(());
    }

    // Normalize the matrix to unit magnitude by an exact power of two. The QL
    // recurrence below sits on a serial dependency chain through one
    // √(f² + g²) per plane rotation; with every entry O(1) that can be formed
    // directly, where an overflow-safe `hypot` would add a third to the
    // chain's latency (and libm's costs more than the rotation itself).
    let (max_abs, finite) = vecops::max_abs_finite(z);
    if !finite {
        return Err(LinAlgError::NotFinite {
            op: "sym_eigenvalues",
        });
    }
    scratch.scale = unit_scale(max_abs);
    vecops::scale(scratch.scale, z);
    tridiagonalize(z, &mut scratch.diag, &mut scratch.off);

    let w: &[f64] = if scratch.all_vectors {
        // `values` is written last: until then it is the accumulation's.
        accumulate_reflectors(z, n, values);
        tql(&mut scratch.diag, &mut scratch.off, Some(z))?;
        &scratch.diag
    } else {
        // QL destroys its operands; T itself stays for inverse iteration.
        scratch.w.copy_from_slice(&scratch.diag);
        scratch.lu[0].copy_from_slice(&scratch.off);
        tql(&mut scratch.w, &mut scratch.lu[0], None)?;
        &scratch.w
    };
    descending_order(w, &mut scratch.order);
    let unscale = 1.0 / scratch.scale;
    for (v, &i) in values.iter_mut().zip(&scratch.order) {
        *v = w[i] * unscale;
    }
    if scratch.all_vectors {
        // QL has finished with the off-diagonal: it holds the row in transit.
        permute_rows(z, &mut scratch.order, &mut scratch.off);
    }
    if values.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(LinAlgError::NotFinite {
            op: "sym_eigenvalues",
        })
    }
}

/// Moves row `order[j]` of the `n × n` row-major `z` to row `j`, for every
/// `j`, one cycle of the permutation at a time through the `n`-long `tmp`.
/// `order` is left the identity.
fn permute_rows(z: &mut [f64], order: &mut [usize], tmp: &mut [f64]) {
    let n = order.len();
    for start in 0..n {
        if order[start] == start {
            continue;
        }
        tmp.copy_from_slice(&z[start * n..(start + 1) * n]);
        let mut j = start;
        loop {
            let src = std::mem::replace(&mut order[j], j);
            if src == start {
                z[j * n..(j + 1) * n].copy_from_slice(tmp);
                break;
            }
            z.copy_within(src * n..(src + 1) * n, j * n);
            j = src;
        }
    }
}

/// Fills `order` (same length as `d`) with the indices of `d` sorted by
/// descending value, ties in index order. Allocation-free.
fn descending_order(d: &[f64], order: &mut [usize]) {
    for (i, o) in order.iter_mut().enumerate() {
        *o = i;
    }
    // The index tie-break makes the order total, so the (non-allocating)
    // unstable sort is as deterministic as a stable one.
    order.sort_unstable_by(|&i, &j| d[j].total_cmp(&d[i]).then(i.cmp(&j)));
}

/// The second half of the symmetric eigensolver: unit eigenvectors for the
/// `count` largest eigenvalues of the matrix the last [`sym_eigenvalues`]
/// call on `z` and `scratch` decomposed, returned as the rows of a
/// `count × n` block in the order of its `values`.
///
/// On the route that carried every vector they are the leading rows of `z`.
/// Otherwise each comes from inverse iteration on the tridiagonal `T`
/// (`dstein`): a fixed start vector, a few `O(n)` solves with `T − λI`, and
/// reorthogonalisation against the vectors already found in its cluster,
/// so repeated eigenvalues yield an orthonormal basis of their eigenspace.
/// The vectors are then carried back through the stored reflectors, one
/// [`vecops::update_rows_dots`] pass over them per reflector, which also
/// forms their products with the next. That is `O(n²·count)` flops where
/// accumulating the whole transform is `O(n³)`.
///
/// # Panics
/// Panics unless `z.len() == n²` and `count` is no more than the `keep`
/// that [`sym_eigenvalues`] call was given.
pub fn sym_eigenvectors<'a>(
    z: &'a [f64],
    count: usize,
    scratch: &'a mut EigenScratch,
) -> &'a [f64] {
    let n = scratch.diag.len();
    assert_eq!(z.len(), n * n, "sym_eigenvectors: z is not n × n");
    if scratch.all_vectors {
        return &z[..count * n];
    }
    // Taken out of the scratch (no allocation) while its LU solves fill it.
    let mut vectors = std::mem::take(&mut scratch.vectors);
    let kept = &mut vectors[..count * n];
    let (diag, off) = (&scratch.diag, &scratch.off);
    let onenorm = (0..n)
        .map(|i| diag[i].abs() + off[i].abs() + if i > 0 { off[i - 1].abs() } else { 0.0 })
        .fold(0.0f64, f64::max);
    let norm = if onenorm > 0.0 { onenorm } else { 1.0 };
    let mut cluster = 0;
    let mut start = 0;
    while start < count {
        let gap = |j: usize| scratch.w[scratch.order[j - 1]] - scratch.w[scratch.order[j]];
        if start > 0 && gap(start) > CLUSTER_REL_GAP * norm {
            cluster = start;
        }
        let mut end = start + 1;
        while end < count && gap(end) <= TIE_REL_GAP * norm {
            end += 1;
        }
        let (found, rest) = kept.split_at_mut(start * n);
        scratch.inverse_iteration(
            start..end,
            norm,
            &found[cluster * n..],
            &mut rest[..(end - start) * n],
        );
        start = end;
    }

    // v = P_{n−1} ⋯ P₂ · y: reflector i acts on the leading i coordinates.
    // Inverse iteration is done with its LU arrays: `g` holds each kept
    // vector's product with the reflector at hand.
    let g = &mut scratch.lu[1][..count];
    let mut have_product = false;
    for i in 2..n {
        let h = z[i * n + i];
        if h == 0.0 {
            have_product = false;
            continue;
        }
        let u = &z[i * n..i * n + i];
        if !have_product {
            vecops::row_dots(kept, n, i, count, u, g);
        }
        for gk in g.iter_mut() {
            *gk /= h;
        }
        // Past the last reflector there is no next one to dot with.
        let next = if i + 1 < n {
            &z[(i + 1) * n..(i + 1) * n + i]
        } else {
            u
        };
        vecops::update_rows_dots(kept, n, u, None, next, g);
        have_product = i + 1 < n;
        if have_product {
            // The next reflector reaches one coordinate further, which
            // this one left alone.
            let u_i = z[(i + 1) * n + i];
            for (gk, x) in g.iter_mut().zip(kept.chunks_exact(n)) {
                *gk += x[i] * u_i;
            }
        }
    }
    scratch.vectors = vectors;
    &scratch.vectors[..count * n]
}

/// Turns `row` — the `i = row.len() ≥ 1` entries left of the diagonal of
/// row `i` — into step `i`'s Householder reflector `u`, in place, and
/// returns `(h, e)`: `h = |u|²/2`, zero when the step needs no reflector
/// (`i = 1` or an all-zero row, which is left as it is), and `e` the
/// subdiagonal entry the step leaves behind.
fn householder(row: &mut [f64]) -> (f64, f64) {
    let i = row.len();
    let scale: f64 = row.iter().map(|v| v.abs()).sum();
    if i == 1 || scale == 0.0 {
        return (0.0, row[i - 1]);
    }
    let mut h = 0.0;
    for v in row.iter_mut() {
        *v /= scale;
        h += *v * *v;
    }
    let f = row[i - 1];
    let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
    h -= f * g;
    row[i - 1] = f - g;
    (h, scale * g)
}

/// `tred2`'s Householder reduction of the scaled symmetric `z` (both
/// triangles) to the tridiagonal `(d, e)` — `e[i]` couples `i` and
/// `i + 1` — leaving reflector `i` in `z[i][..i]` and its `h = |u|²/2` on
/// the diagonal `z[i][i]` (zero where step `i` needed no reflector).
///
/// Both triangles of the leading block stay current, so every row the
/// reduction reads is contiguous. Step `i` (from `n − 1` down) needs the
/// product `p = A·u` of the block with its reflector; after the first step
/// that comes out of the previous step's update: one
/// [`vecops::update_rows_dots`] pass applies `A ← A − u·qᵀ − q·uᵀ` to each
/// row and dots the updated row with the *next* reflector, which the
/// block's last row — updated first — has already become. Until the
/// reduction is done, `d[..i]` holds the product.
fn tridiagonalize(z: &mut [f64], d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    // `h` of the reflector the previous step's pass formed in row i, with
    // its product; `None` when step i forms both from scratch.
    let mut formed = None;
    for i in (1..n).rev() {
        let (block, rest) = z.split_at_mut(i * n);
        let h = match formed.take() {
            Some(h) => h,
            None => {
                let u = &mut rest[..i];
                let (h, off) = householder(u);
                e[i] = off;
                if h != 0.0 {
                    vecops::row_dots(block, n, i, i, u, &mut d[..i]);
                }
                h
            }
        };
        // Row i holds the reflector u, `h` its |u|²/2, d[..i] the product A·u.
        let u = &rest[..i];
        if h != 0.0 {
            // q = p − (uᵀp / 2h)·u, with p = A·u / h, into e[..i].
            let q = &mut e[..i];
            let mut f = 0.0;
            for ((qj, &pj), &uj) in q.iter_mut().zip(&d[..i]).zip(u) {
                *qj = pj / h;
                f += *qj * uj;
            }
            vecops::axpy(-f / (h + h), u, q);
            // The block's last row first, then the next reflector off it.
            let (head, last) = block.split_at_mut((i - 1) * n);
            let row = &mut last[..i];
            vecops::axpy(-u[i - 1], q, row);
            vecops::axpy(-q[i - 1], u, row);
            let next = &mut last[..i - 1];
            let (h_next, off) = householder(next);
            // e[i - 1] is q's last entry, which only that row needed.
            e[i - 1] = off;
            formed = Some(h_next);
            // The rows' coefficients u[j] go in where their products come out.
            let (u, q, p) = (&u[..i - 1], &e[..i - 1], &mut d[..i - 1]);
            p.copy_from_slice(u);
            vecops::update_rows_dots(head, n, q, Some((q, u)), next, p);
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    // The reduction has finished with the diagonal: it takes `d`'s place,
    // and `h` takes the diagonal's.
    for (i, di) in d.iter_mut().enumerate() {
        std::mem::swap(di, &mut z[i * n + i]);
    }
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;
}

/// Accumulates the reflectors [`tridiagonalize`] left in `z` into `Qᵀ`, in
/// place, growing the leading block one row and column per step:
/// block ← block·(I − u·uᵀ/h). Like a reduction step, each step is one
/// [`vecops::update_rows_dots`] pass over contiguous rows: the rank-1
/// update by reflector `i` also dots each updated row with reflector
/// `i + 1`, which is the product `g = block·u` the next step needs — the
/// column a step adds is zero in every row but its own, which holds 1. `g`
/// is `n`-long scratch.
fn accumulate_reflectors(z: &mut [f64], n: usize, g: &mut [f64]) {
    // Whether `g[..i]` holds the leading block's product with reflector i.
    let mut have_product = false;
    for i in 0..n {
        let (head, tail) = z.split_at_mut(i * n);
        let (row, below) = tail.split_at_mut(n);
        let h = row[i];
        have_product = if h != 0.0 {
            let u = &row[..i];
            if !have_product {
                vecops::row_dots(head, n, i, i, u, &mut g[..i]);
            }
            for gk in &mut g[..i] {
                *gk /= h;
            }
            // Past the last step there is no next reflector to dot with.
            let next = if i + 1 < n { &below[..i] } else { u };
            vecops::update_rows_dots(head, n, u, None, next, &mut g[..i]);
            i + 1 < n
        } else {
            false
        };
        row[..i].fill(0.0);
        row[i] = 1.0;
        for k in 0..i {
            head[k * n + i] = 0.0;
        }
        if have_product {
            // The new row is the unit vector eᵢ.
            g[i] = below[i];
        }
    }
}

/// `tql2`: implicit-shift QL on the tridiagonal `(d, e)` (`e[i]` coupling
/// `i` and `i + 1`), leaving the eigenvalues — unsorted — in `d`; `e` is
/// destroyed. With `z` (`n × n`, rows the basis `T` is expressed in), every
/// rotation is also applied to two adjacent rows, which leaves row `i` the
/// eigenvector of `d[i]`; the eigenvalues do not depend on it.
fn tql(d: &mut [f64], e: &mut [f64], mut z: Option<&mut [f64]>) -> Result<()> {
    let n = d.len();
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small subdiagonal element.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_QL_ITERS {
                return Err(LinAlgError::NoConvergence {
                    op: "sym_eigenvalues",
                    iterations: MAX_QL_ITERS,
                });
            }
            // Wilkinson shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = (g * g + 1.0).sqrt();
            let sign_r = if g >= 0.0 { r } else { -r };
            g = d[m] - d[l] + e[l] / (g + sign_r);
            let mut s_rot = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s_rot * e[i];
                let b = c * e[i];
                r = (f * f + g * g).sqrt();
                e[i + 1] = r;
                if r == 0.0 {
                    // The rotation vanished: recover and restart this `l`.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s_rot = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s_rot + 2.0 * c * b;
                p = s_rot * r;
                d[i + 1] = g + p;
                g = c * r - b;
                if let Some(z) = z.as_deref_mut() {
                    let (lo, hi) = z[i * n..(i + 2) * n].split_at_mut(n);
                    vecops::rot(lo, hi, c, s_rot);
                }
            }
            // (Keyed on the early exit itself, not on `r == 0.0`: `r` is
            // reused below for a second quantity that can be exactly zero
            // after a *complete* sweep — inside a cluster of zero eigenvalues
            // — and skipping the update then leaves a stale `e[l]`.)
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Top-`k` eigenpairs of a symmetric PSD matrix by block orthogonal
/// (subspace) iteration with Rayleigh–Ritz extraction.
///
/// Converges geometrically at rate `λ_{k+1}/λ_k`; a small oversampling block
/// (`k + 8`) is used internally to sharpen the trailing eigenpairs.
///
/// # Errors
/// * [`LinAlgError::ShapeMismatch`] for non-square input.
/// * [`LinAlgError::InvalidParameter`] when `k` is zero or exceeds `n`.
pub fn subspace_iteration(s: &Matrix, k: usize, iterations: usize, seed: u64) -> Result<SymEigen> {
    let n = s.rows();
    if s.rows() != s.cols() {
        return Err(LinAlgError::ShapeMismatch {
            expected: (n, n),
            got: s.shape(),
            op: "subspace_iteration",
        });
    }
    if k == 0 || k > n {
        return Err(LinAlgError::InvalidParameter {
            op: "subspace_iteration",
            message: "k must satisfy 1 <= k <= n",
        });
    }

    let block = (k + 8).min(n);
    let mut rng = seeded_rng(seed);
    let mut q = {
        let g = gaussian_matrix(&mut rng, n, block, 1.0);
        let (q0, _) = qr_thin(&g)?;
        q0
    };

    for _ in 0..iterations.max(1) {
        let z = s.matmul(&q)?;
        let (qn, _) = qr_thin(&z)?;
        q = qn;
    }

    // Rayleigh–Ritz: project S into the converged subspace and solve the
    // small symmetric problem exactly.
    let sq = s.matmul(&q)?;
    let small = q.tr_matmul(&sq)?; // block × block
    let eig = eigen_sym(&small)?;

    // Lift the Ritz vectors back: columns of Q * W.
    let lifted = q.matmul(&eig.vectors)?;

    let values = eig.values[..k].to_vec();
    let mut vectors = Matrix::zeros(n, k);
    for col in 0..k {
        for row in 0..n {
            vectors[(row, col)] = lifted[(row, col)];
        }
    }
    Ok(SymEigen { values, vectors })
}

/// Top-`k` right-singular pairs of a **rectangular** `ℓ × d` matrix `b` by
/// warm-started block iteration on `BᵀB`, without ever forming the `d × d`
/// Gram matrix.
///
/// `v0` (`d × k₀` with orthonormal-izable columns, `k ≤ k₀ ≤ d`) seeds the
/// iteration — typically the previous model's basis. When the spectrum moves
/// slowly between refreshes (the streaming case: one sketch absorbs a few
/// hundred rows per refresh), the warm basis is already near the invariant
/// subspace and 2–3 iterations replace a cold `O(min(ℓ,d)²·max(ℓ,d))` SVD.
///
/// No detector calls this: model refresh always runs the cold
/// [`crate::svd::right_factor`] build. Its one non-test caller is the
/// `skbench` isolate pass (`benchmark/src/isolate.rs`), which reports it as
/// `linalg.subspace_iter_us` beside the cold refresh it would replace.
///
/// Each iteration is `Z = B·Q` then `W = Bᵀ·Z` then `Q ← orth(W)` —
/// `O(ℓ·d·k₀)` per step. Eigenpairs are extracted by Rayleigh–Ritz on
/// `QᵀBᵀBQ = ZᵀZ` (`k₀ × k₀`). Returned `values` are eigenvalues of `BᵀB`,
/// i.e. **squared** singular values of `b`, descending; `vectors` holds the
/// corresponding right singular vectors as `d × k` columns. Fully
/// deterministic: no randomness enters anywhere.
///
/// # Errors
/// * [`LinAlgError::ShapeMismatch`] when `v0.rows() != b.cols()`.
/// * [`LinAlgError::InvalidParameter`] unless `1 ≤ k ≤ v0.cols() ≤ d`.
/// * [`LinAlgError::NotFinite`] for NaN/inf input.
pub fn warm_subspace_iteration(
    b: &Matrix,
    v0: &Matrix,
    k: usize,
    iterations: usize,
) -> Result<SymEigen> {
    let d = b.cols();
    if v0.rows() != d {
        return Err(LinAlgError::ShapeMismatch {
            expected: (d, v0.cols()),
            got: v0.shape(),
            op: "warm_subspace_iteration",
        });
    }
    let block = v0.cols();
    if k == 0 || k > block || block > d {
        return Err(LinAlgError::InvalidParameter {
            op: "warm_subspace_iteration",
            message: "need 1 <= k <= v0.cols() <= b.cols()",
        });
    }
    if !b.all_finite() || !v0.all_finite() {
        return Err(LinAlgError::NotFinite {
            op: "warm_subspace_iteration",
        });
    }

    let (mut q, _) = qr_thin(v0)?;
    for _ in 0..iterations.max(1) {
        let z = b.matmul(&q)?; // ℓ × k₀
        let w = b.tr_matmul(&z)?; // d × k₀ = (BᵀB)·Q
        let (qn, _) = qr_thin(&w)?;
        q = qn;
    }

    // Rayleigh–Ritz in the converged subspace: ZᵀZ = QᵀBᵀBQ.
    let z = b.matmul(&q)?;
    let small = z.tr_matmul(&z)?;
    let eig = eigen_sym(&small)?;
    let lifted = q.matmul(&eig.vectors)?;

    let values = eig.values[..k].to_vec();
    let mut vectors = Matrix::zeros(d, k);
    for col in 0..k {
        for row in 0..d {
            vectors[(row, col)] = lifted[(row, col)];
        }
    }
    Ok(SymEigen { values, vectors })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{random_orthonormal_rows, seeded_rng};

    /// Builds V diag(λ) Vᵀ with a random orthonormal V.
    fn synth_sym(n: usize, eigs: &[f64], seed: u64) -> (Matrix, Matrix) {
        assert_eq!(eigs.len(), n);
        let mut rng = seeded_rng(seed);
        let v = random_orthonormal_rows(&mut rng, n, n); // rows orthonormal => square orthogonal
        let vt = v.transpose();
        let d = Matrix::from_diag(eigs);
        let s = vt.matmul(&d).unwrap().matmul(&v).unwrap();
        (s, vt)
    }

    #[test]
    fn jacobi_diagonal_matrix() {
        let s = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let e = jacobi_eigen_sym(&s).unwrap();
        assert_eq!(e.values, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn jacobi_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let s = Matrix::from_vec(2, 2, vec![2., 1., 1., 2.]).unwrap();
        let e = jacobi_eigen_sym(&s).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
        // Eigenvector for λ=3 is (1,1)/√2 up to sign.
        let v0 = (e.vectors[(0, 0)], e.vectors[(1, 0)]);
        assert!((v0.0.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((v0.0 - v0.1).abs() < 1e-12);
    }

    #[test]
    fn jacobi_reconstructs_random_symmetric() {
        let eigs = [9.0, 4.0, 1.0, 0.25, 0.0];
        let (s, _) = synth_sym(5, &eigs, 21);
        let e = jacobi_eigen_sym(&s).unwrap();
        for (got, want) in e.values.iter().zip(eigs.iter()) {
            assert!((got - want).abs() < 1e-9, "eig {got} vs {want}");
        }
        // V diag(λ) Vᵀ == S
        let d = Matrix::from_diag(&e.values);
        let rec = e
            .vectors
            .matmul(&d)
            .unwrap()
            .matmul(&e.vectors.transpose())
            .unwrap();
        assert!(rec.sub(&s).unwrap().max_abs() < 1e-9);
        // Vᵀ V == I
        let g = e.vectors.tr_matmul(&e.vectors).unwrap();
        assert!(g.sub(&Matrix::identity(5)).unwrap().max_abs() < 1e-10);
    }

    #[test]
    fn jacobi_rejects_nonsquare_and_nan() {
        assert!(jacobi_eigen_sym(&Matrix::zeros(2, 3)).is_err());
        let mut m = Matrix::identity(2);
        m[(1, 1)] = f64::NAN;
        assert!(jacobi_eigen_sym(&m).is_err());
    }

    #[test]
    fn jacobi_empty_matrix() {
        let e = jacobi_eigen_sym(&Matrix::zeros(0, 0)).unwrap();
        assert!(e.values.is_empty());
    }

    #[test]
    fn tridiag_matches_jacobi_on_random_symmetric() {
        let eigs = [12.0, 7.5, 3.0, 1.5, 0.8, 0.3, 0.1, 0.0];
        let (s, _) = synth_sym(8, &eigs, 91);
        let j = jacobi_eigen_sym(&s).unwrap();
        let t = eigen_sym(&s).unwrap();
        for (a, b) in j.values.iter().zip(t.values.iter()) {
            assert!((a - b).abs() < 1e-9, "eig {a} vs {b}");
        }
        // Reconstruction from the QL decomposition.
        let d = Matrix::from_diag(&t.values);
        let rec = t
            .vectors
            .matmul(&d)
            .unwrap()
            .matmul(&t.vectors.transpose())
            .unwrap();
        assert!(rec.sub(&s).unwrap().max_abs() < 1e-9);
        // Orthonormal vectors.
        let g = t.vectors.tr_matmul(&t.vectors).unwrap();
        assert!(g.sub(&Matrix::identity(8)).unwrap().max_abs() < 1e-10);
    }

    #[test]
    fn tridiag_handles_larger_matrices() {
        // 120×120 with known spectrum.
        let n = 120;
        let eigs: Vec<f64> = (0..n).map(|i| (n - i) as f64).collect();
        let (s, _) = synth_sym(n, &eigs, 92);
        let e = eigen_sym(&s).unwrap();
        for (got, want) in e.values.iter().zip(eigs.iter()) {
            assert!((got - want).abs() < 1e-7, "eig {got} vs {want}");
        }
        let d = Matrix::from_diag(&e.values);
        let rec = e
            .vectors
            .matmul(&d)
            .unwrap()
            .matmul(&e.vectors.transpose())
            .unwrap();
        assert!(rec.sub(&s).unwrap().max_abs() < 1e-7);
    }

    #[test]
    fn tridiag_diagonal_and_degenerate_cases() {
        let s = Matrix::from_diag(&[3.0, 1.0, 2.0, 2.0]);
        let e = eigen_sym(&s).unwrap();
        assert_eq!(e.values, vec![3.0, 2.0, 2.0, 1.0]);
        // 1×1.
        let s1 = Matrix::from_diag(&[5.0]);
        let e1 = eigen_sym(&s1).unwrap();
        assert_eq!(e1.values, vec![5.0]);
        // Zero matrix.
        let z = Matrix::zeros(5, 5);
        let ez = eigen_sym(&z).unwrap();
        assert!(ez.values.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn tridiag_rejects_bad_input() {
        assert!(eigen_sym(&Matrix::zeros(2, 3)).is_err());
        let mut m = Matrix::identity(2);
        m[(0, 0)] = f64::NAN;
        assert!(eigen_sym(&m).is_err());
    }

    #[test]
    fn subspace_iteration_matches_jacobi_top_k() {
        let eigs = [50.0, 20.0, 10.0, 1.0, 0.5, 0.2, 0.1, 0.05];
        let (s, _) = synth_sym(8, &eigs, 33);
        let top = subspace_iteration(&s, 3, 50, 7).unwrap();
        for (got, want) in top.values.iter().zip(eigs.iter()) {
            assert!((got - want).abs() < 1e-6, "eig {got} vs {want}");
        }
        // Residual check: ‖S v − λ v‖ small.
        for j in 0..3 {
            let v = top.vectors.col(j);
            let sv = s.matvec(&v);
            let lv: Vec<f64> = v.iter().map(|x| x * top.values[j]).collect();
            let res: f64 = sv
                .iter()
                .zip(lv.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            assert!(res < 1e-5, "residual {res} for pair {j}");
        }
    }

    #[test]
    fn subspace_iteration_parameter_validation() {
        let s = Matrix::identity(4);
        assert!(subspace_iteration(&s, 0, 10, 1).is_err());
        assert!(subspace_iteration(&s, 5, 10, 1).is_err());
        assert!(subspace_iteration(&Matrix::zeros(2, 3), 1, 10, 1).is_err());
    }

    #[test]
    fn warm_subspace_iteration_matches_gram_eigensolve() {
        // ℓ×d matrix with a known right-singular structure: rows live in a
        // 3-D subspace of R^10 with distinct energies.
        let mut rng = seeded_rng(11);
        let v = random_orthonormal_rows(&mut rng, 3, 10); // 3 × 10
        let mut b = Matrix::zeros(12, 10);
        for i in 0..12 {
            let c = [4.0, 2.0, 1.0][i % 3];
            for j in 0..10 {
                b[(i, j)] = c * v[(i % 3, j)];
            }
        }
        let gram = b.gram(); // d × d = BᵀB
        let exact = eigen_sym(&gram).unwrap();
        // Warm start from a perturbed version of the true basis.
        let mut v0 = v.transpose(); // 10 × 3 columns
        for j in 0..3 {
            v0[(j, j)] += 0.05;
        }
        let warm = warm_subspace_iteration(&b, &v0, 3, 3).unwrap();
        for (got, want) in warm.values.iter().zip(exact.values.iter()) {
            assert!((got - want).abs() < 1e-8, "eig {got} vs {want}");
        }
        // Right singular vectors match up to sign.
        for j in 0..3 {
            let dot: f64 = (0..10)
                .map(|r| warm.vectors[(r, j)] * exact.vectors[(r, j)])
                .sum();
            assert!(dot.abs() > 1.0 - 1e-8, "vector {j} misaligned: {dot}");
        }
    }

    #[test]
    fn warm_subspace_iteration_is_deterministic() {
        let mut rng = seeded_rng(3);
        let b = gaussian_matrix(&mut rng, 16, 8, 1.0);
        let v0 = {
            let mut rng2 = seeded_rng(4);
            gaussian_matrix(&mut rng2, 8, 4, 1.0)
        };
        let a = warm_subspace_iteration(&b, &v0, 4, 2).unwrap();
        let c = warm_subspace_iteration(&b, &v0, 4, 2).unwrap();
        assert_eq!(a.values, c.values);
        assert_eq!(a.vectors.as_slice(), c.vectors.as_slice());
    }

    #[test]
    fn warm_subspace_iteration_parameter_validation() {
        let b = Matrix::zeros(6, 4);
        let v0 = Matrix::identity(4);
        assert!(warm_subspace_iteration(&b, &v0, 0, 2).is_err()); // k = 0
        assert!(warm_subspace_iteration(&b, &v0, 5, 2).is_err()); // k > k₀
        let v_wrong = Matrix::zeros(3, 2);
        assert!(warm_subspace_iteration(&b, &v_wrong, 1, 2).is_err()); // d mismatch
        let mut nan = Matrix::zeros(6, 4);
        nan[(0, 0)] = f64::NAN;
        assert!(warm_subspace_iteration(&nan, &v0, 2, 2).is_err());
    }

    #[test]
    fn subspace_iteration_full_k_equals_n() {
        let eigs = [4.0, 3.0, 2.0, 1.0];
        let (s, _) = synth_sym(4, &eigs, 5);
        let e = subspace_iteration(&s, 4, 60, 2).unwrap();
        for (got, want) in e.values.iter().zip(eigs.iter()) {
            assert!((got - want).abs() < 1e-7);
        }
    }
}

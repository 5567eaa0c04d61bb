//! Vector kernels over `&[f64]` slices.
//!
//! These free functions are the innermost loops of every sketch update and
//! score computation. Each public kernel has two implementations:
//!
//! * a **scalar** path written to auto-vectorize on stable rustc —
//!   `chunks_exact` blocks (no bounds checks in the hot path) with four
//!   independent accumulator chains, so the compiler can emit SIMD without
//!   needing `-ffast-math` reassociation; and
//! * an **AVX2+FMA** path (x86-64 only; AVX-512 for the dot family, [`rot`],
//!   [`gemm8`], [`update_rows_dots`] and [`max_abs_finite`]) selected by
//!   runtime feature detection, since the default `x86_64` target compiles
//!   the scalar path to baseline SSE2 and leaves 2–4× on the table on any
//!   post-2013 core.
//!
//! Path selection depends only on the slice length and the host CPU, so a
//! given machine always takes the same path for the same input: results are
//! bitwise reproducible run-to-run. Across *different* machines the low bits
//! may differ (FMA fuses the multiply-add rounding) — the workspace's
//! determinism contract is per-host, matching the seeded-RNG contract.
//!
//! The fused kernel [`axpy4`] processes four rows against one shared vector
//! in a single pass and is *bitwise compatible* with its one-row
//! counterpart on every path: it produces the same bits as four sequential
//! [`axpy`] calls, and so do [`row_dots`] and [`block_dots`] with one
//! [`dot`] per output. The blocked matrix kernels rely on this to keep
//! batched results identical to the one-at-a-time paths; [`gemm8`] is
//! likewise the bits of two [`gemm4`] calls on every tier. The register
//! tile [`dots4x4`] and the row pass [`update_rows_dots`] are the
//! exceptions: they sum in another order, so they agree with [`dot`] to
//! rounding only.

/// Below this length the scalar path is used unconditionally: the SIMD
/// prologue/reduction costs more than it saves, and keeping one fixed
/// threshold makes path selection a pure function of `len`.
const MIN_SIMD_LEN: usize = 8;

/// SIMD capability tiers, cached once (the kernels below sit on per-point
/// hot paths where even a couple of extra atomic loads per call are
/// measurable). The dot family, `rot`, the eigensolver's row pass and the
/// input guard prefer AVX-512 (half the loop trips at the short lengths
/// scoring and the eigensolver use), and so does the 8-row gemm panel,
/// whose sixteen accumulators need the 512-bit register file; the axpy
/// family and the 4-row gemm tile are store-bound and stay on the 256-bit
/// path.
///
/// Setting `SKETCHAD_FORCE_SCALAR=1` in the environment pins tier 0
/// regardless of CPU capabilities. CI uses this to run the whole test suite
/// down the scalar path on hardware whose feature detection would otherwise
/// always pick the `unsafe` SIMD kernels. It is read once, by the first
/// sketch or [`Workspace`](crate::svd::Workspace) constructor (see
/// [`resolve_tier`]) or kernel call, whichever comes first, and the tier is
/// fixed from then on.
#[cfg(target_arch = "x86_64")]
#[inline]
fn simd_level() -> u8 {
    static LEVEL: std::sync::OnceLock<u8> = std::sync::OnceLock::new();
    *LEVEL.get_or_init(|| {
        if force_scalar_requested()
            || !(std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma"))
        {
            0
        } else if std::is_x86_feature_detected!("avx512f") {
            2
        } else {
            1
        }
    })
}

/// Whether `SKETCHAD_FORCE_SCALAR` asks for the scalar path.
#[cfg(target_arch = "x86_64")]
fn force_scalar_requested() -> bool {
    parse_force_scalar(std::env::var("SKETCHAD_FORCE_SCALAR").ok().as_deref())
}

/// Any non-empty value other than `0` counts as a request, so `=1`, `=true`,
/// `=yes` all work and `=0` / unset do not.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn parse_force_scalar(value: Option<&str>) -> bool {
    matches!(value, Some(v) if !v.is_empty() && v != "0")
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn simd_enabled() -> bool {
    simd_level() >= 1
}

/// Resolves and caches the dispatch tier now, at a point where allocating
/// is allowed. Reading `SKETCHAD_FORCE_SCALAR` copies the variable's value
/// onto the heap, so the sketch and [`Workspace`](crate::svd::Workspace)
/// constructors call this: the first kernel call on a hot path then finds
/// the tier cached and allocates nothing. From the first constructor on,
/// the tier is fixed; setting the variable later changes nothing.
pub fn resolve_tier() {
    #[cfg(target_arch = "x86_64")]
    simd_level();
}

/// The dispatch tier the kernels in this module are actually using, as a
/// stable label: `"scalar"`, `"avx2+fma"`, or `"avx512f"`.
///
/// Purely diagnostic — benches and CI logs print it so a run's numbers can
/// be attributed to the code path that produced them (and so the
/// `SKETCHAD_FORCE_SCALAR=1` job can assert the override took effect).
/// Calling this caches the tier, like any kernel call.
pub fn active_simd_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        match simd_level() {
            2 => "avx512f",
            1 => "avx2+fma",
            _ => "scalar",
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "scalar"
    }
}

/// Dot product `Σ aᵢ bᵢ`.
///
/// # Panics
/// Panics when the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "dot: length mismatch {} vs {}",
        a.len(),
        b.len()
    );
    #[cfg(target_arch = "x86_64")]
    if a.len() >= MIN_SIMD_LEN {
        // SAFETY: the matching CPU features were verified at runtime.
        #[allow(unsafe_code)]
        match simd_level() {
            2 => return unsafe { simd::dot512(a, b) },
            1 => return unsafe { simd::dot(a, b) },
            _ => {}
        }
    }
    scalar_dot(a, b)
}

#[inline]
fn scalar_dot(a: &[f64], b: &[f64]) -> f64 {
    // Four independent accumulator chains over exact 4-blocks: the compiler
    // vectorizes this without reassociating, keeping results deterministic.
    let mut acc = [0.0f64; 4];
    let a_blocks = a.chunks_exact(4);
    let b_blocks = b.chunks_exact(4);
    let a_tail = a_blocks.remainder();
    let b_tail = b_blocks.remainder();
    for (ab, bb) in a_blocks.zip(b_blocks) {
        acc[0] += ab[0] * bb[0];
        acc[1] += ab[1] * bb[1];
        acc[2] += ab[2] * bb[2];
        acc[3] += ab[3] * bb[3];
    }
    let mut tail = 0.0;
    for (x, y) in a_tail.iter().zip(b_tail.iter()) {
        tail += x * y;
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Dot products of `nrows` row-major rows against a shared `y`:
/// `out[j] = dot(rows[j], y)`, where row `j` is `b[j*ldb .. j*ldb + d]`.
///
/// Each output is bitwise identical to the corresponding [`dot`] call; the
/// point of this kernel is one dispatch (and one inlined feature region) for
/// the whole row sweep instead of one per row. This is the inner loop of
/// `Matrix::matmul_nt` and the batched scoring path, where `b` is the k×d
/// basis and `y` a point.
///
/// # Panics
/// Panics when `y.len() != d`, `out.len() != nrows`, or `b` is too short for
/// `nrows` rows of stride `ldb` (with `d <= ldb`).
pub fn row_dots(b: &[f64], ldb: usize, d: usize, nrows: usize, y: &[f64], out: &mut [f64]) {
    assert_eq!(y.len(), d, "row_dots: y length mismatch");
    assert_eq!(out.len(), nrows, "row_dots: out length mismatch");
    assert!(
        d <= ldb || nrows <= 1,
        "row_dots: row stride shorter than row"
    );
    if nrows > 0 {
        assert!(
            (nrows - 1) * ldb + d <= b.len(),
            "row_dots: rows out of bounds"
        );
    }
    #[cfg(target_arch = "x86_64")]
    if d >= MIN_SIMD_LEN {
        // SAFETY: the matching CPU features were verified at runtime, and
        // the asserts above bound every row access.
        #[allow(unsafe_code)]
        match simd_level() {
            2 => {
                unsafe { simd::row_dots512(b, ldb, d, nrows, y, out) };
                return;
            }
            1 => {
                unsafe { simd::row_dots(b, ldb, d, nrows, y, out) };
                return;
            }
            _ => {}
        }
    }
    for (j, o) in out.iter_mut().enumerate() {
        *o = scalar_dot(&b[j * ldb..j * ldb + d], y);
    }
}

/// The per-point scoring inputs of a block of points in one dispatch: for
/// each row `y_i` of the row-major block `ys` (rows of length `d`), the `k`
/// dots against the rows of the row-major `k × d` `basis`,
/// `dots[i*k + j] = dot(basis_j, y_i)`, and its squared norm
/// `norms_sq[i] = dot(y_i, y_i)`.
///
/// Every output is bitwise identical to the corresponding [`dot`] call:
/// each tier's loop runs that tier's own `dot` body inside one feature
/// region, so the kernel adds a dispatch saving, not a summation order.
/// This is the whole per-point kernel work of the batched scoring path
/// (`SubspaceModel::score_block_into`): with `‖y‖²` in hand, a score never
/// reads its point again.
///
/// # Panics
/// Panics when `d == 0`, `basis.len() != k * d`,
/// `ys.len()` is not a multiple of `d`, `norms_sq.len()` is not the row
/// count, or `dots.len()` is not `k` times it.
pub fn block_dots(
    basis: &[f64],
    k: usize,
    ys: &[f64],
    d: usize,
    dots: &mut [f64],
    norms_sq: &mut [f64],
) {
    assert!(d > 0, "block_dots: zero row length");
    assert_eq!(basis.len(), k * d, "block_dots: basis is not k rows of d");
    assert_eq!(ys.len() % d, 0, "block_dots: block holds partial rows");
    let rows = ys.len() / d;
    assert_eq!(norms_sq.len(), rows, "block_dots: norms length mismatch");
    assert_eq!(dots.len(), rows * k, "block_dots: dots length mismatch");
    #[cfg(target_arch = "x86_64")]
    if d >= MIN_SIMD_LEN {
        // SAFETY: the matching CPU features were verified at runtime, and
        // the asserts above bound every row and output access.
        #[allow(unsafe_code)]
        match simd_level() {
            2 => {
                unsafe { simd::block_dots512(basis, k, ys, d, dots, norms_sq) };
                return;
            }
            1 => {
                unsafe { simd::block_dots(basis, k, ys, d, dots, norms_sq) };
                return;
            }
            _ => {}
        }
    }
    scalar_block_dots(basis, k, ys, d, dots, norms_sq);
}

fn scalar_block_dots(
    basis: &[f64],
    k: usize,
    ys: &[f64],
    d: usize,
    dots: &mut [f64],
    norms_sq: &mut [f64],
) {
    for (i, y) in ys.chunks_exact(d).enumerate() {
        for (j, out) in dots[i * k..(i + 1) * k].iter_mut().enumerate() {
            *out = scalar_dot(&basis[j * d..(j + 1) * d], y);
        }
        norms_sq[i] = scalar_dot(y, y);
    }
}

/// The 4×4 block of pairwise dot products `out[r][c] = dot(a[r], b[c])`.
///
/// All sixteen accumulators stay in registers across one sweep of the
/// columns, so eight row loads feed sixteen multiply-adds where sixteen
/// [`dot`] calls would load two operands per multiply-add. This is the tile
/// of the outer-Gram kernel behind `Matrix::outer_gram` and the SVD's wide
/// route. The summation order differs from [`dot`]'s, so the two agree to
/// rounding, not bit for bit; within one tier a tile's `(r, c)` and `(c, r)`
/// entries of `a == b` are equal.
///
/// # Panics
/// Panics when the eight slices do not share one length.
pub fn dots4x4(a: [&[f64]; 4], b: [&[f64]; 4]) -> [[f64; 4]; 4] {
    let n = a[0].len();
    assert!(
        a.iter().chain(&b).all(|s| s.len() == n),
        "dots4x4: length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if n >= MIN_SIMD_LEN {
        // SAFETY: the matching CPU features were verified at runtime, and
        // every slice has the length the kernels index up to.
        #[allow(unsafe_code)]
        match simd_level() {
            2 => return unsafe { simd::dots4x4_512(a, b) },
            1 => return unsafe { simd::dots4x4(a, b) },
            _ => {}
        }
    }
    scalar_dots4x4(a, b)
}

fn scalar_dots4x4(a: [&[f64]; 4], b: [&[f64]; 4]) -> [[f64; 4]; 4] {
    let n = a[0].len();
    // Exact-length reslices let the compiler drop the bounds checks.
    let (a, b) = (a.map(|s| &s[..n]), b.map(|s| &s[..n]));
    let mut acc = [[0.0f64; 4]; 4];
    for k in 0..n {
        let bk = [b[0][k], b[1][k], b[2][k], b[3][k]];
        for (row, ar) in acc.iter_mut().zip(a) {
            for (cell, &bc) in row.iter_mut().zip(&bk) {
                *cell += ar[k] * bc;
            }
        }
    }
    acc
}

/// Accumulates four rows of a matrix product into `out`:
/// `out[r][j] += Σ_k a_r[k] · b[k][j]` for `r in 0..4`, `j in 0..n`, where
/// `b` is row-major with stride `ldb` and `out` holds four rows of stride
/// `ldo`. Returns `false` without touching `out` when the AVX2+FMA
/// micro-kernel is unavailable — the caller must then run its scalar path.
///
/// This is the register-tiled heart of `Matrix::matmul`: a 4×8 accumulator
/// tile lives entirely in registers across the full `k` loop, so `out` is
/// written once per tile instead of once per `(k, j)` like the axpy
/// formulation.
///
/// # Panics
/// Panics when the row lengths disagree or `b`/`out` are too short for the
/// strides.
#[allow(clippy::too_many_arguments)]
pub fn gemm4(
    a0: &[f64],
    a1: &[f64],
    a2: &[f64],
    a3: &[f64],
    b: &[f64],
    ldb: usize,
    n: usize,
    out: &mut [f64],
    ldo: usize,
) -> bool {
    let kdim = a0.len();
    assert!(
        a1.len() == kdim && a2.len() == kdim && a3.len() == kdim,
        "gemm4: a-row length mismatch"
    );
    assert!(n <= ldb || kdim <= 1, "gemm4: b stride shorter than row");
    assert!(n <= ldo, "gemm4: out stride shorter than row");
    if kdim > 0 {
        assert!((kdim - 1) * ldb + n <= b.len(), "gemm4: b out of bounds");
    }
    assert!(3 * ldo + n <= out.len(), "gemm4: out too short for 4 rows");
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: AVX2 and FMA presence was just verified at runtime, and the
        // asserts above bound every access the kernel makes.
        #[allow(unsafe_code)]
        unsafe {
            simd::gemm4(a0, a1, a2, a3, b, ldb, n, out, ldo)
        };
        return true;
    }
    false
}

/// Accumulates eight rows of a matrix product into `out`: the same
/// contract as [`gemm4`] for `a[0..8]`, and **bitwise identical** to two
/// [`gemm4`] calls on rows `0..4` and `4..8` on every tier. Returns `false`
/// without touching `out` when no SIMD tier is available.
///
/// On AVX-512 an 8-row × 16-column accumulator tile (sixteen zmm registers)
/// lives across the whole `k` loop, so each `b` load feeds eight rows where
/// [`gemm4`]'s feeds four, with the same sequential-over-`k` FMA order per
/// element; the `n % 16` column tail runs [`gemm4`]'s 8- and 4-wide loops.
/// On AVX2 it *is* the two [`gemm4`] calls.
///
/// # Panics
/// Panics when the row lengths disagree or `b`/`out` are too short for the
/// strides.
pub fn gemm8(a: [&[f64]; 8], b: &[f64], ldb: usize, n: usize, out: &mut [f64], ldo: usize) -> bool {
    let kdim = a[0].len();
    assert!(
        a.iter().all(|r| r.len() == kdim),
        "gemm8: a-row length mismatch"
    );
    assert!(n <= ldb || kdim <= 1, "gemm8: b stride shorter than row");
    assert!(n <= ldo, "gemm8: out stride shorter than row");
    if kdim > 0 {
        assert!((kdim - 1) * ldb + n <= b.len(), "gemm8: b out of bounds");
    }
    assert!(7 * ldo + n <= out.len(), "gemm8: out too short for 8 rows");
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: the matching CPU features were verified at runtime, and
        // the asserts above bound every access the kernels make.
        #[allow(unsafe_code)]
        match simd_level() {
            2 => {
                unsafe { simd::gemm8_512(a, b, ldb, n, out, ldo) };
                return true;
            }
            1 => {
                let (lo, hi) = out.split_at_mut(4 * ldo);
                unsafe {
                    simd::gemm4(a[0], a[1], a[2], a[3], b, ldb, n, lo, ldo);
                    simd::gemm4(a[4], a[5], a[6], a[7], b, ldb, n, hi, ldo);
                }
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Accumulates the upper-triangle Gram contribution of four stream rows:
/// `g[i][i..] += Σ_r x_r[i] · x_r[i..]` for `i in 0..d`, with `g` a
/// row-major `d × d` matrix. Semantically one [`axpy4`] per output row, but
/// a single kernel dispatch covers the whole sweep — at small `d` the
/// per-call dispatch and bounds checks of `d` separate axpy4 calls on
/// ever-shorter slices are a double-digit-percent tax. Returns `false`
/// without touching `g` when the SIMD kernel is unavailable.
///
/// # Panics
/// Panics when any `x` length differs from `d` or `g.len() != d * d`.
pub fn gram4_upper(
    x0: &[f64],
    x1: &[f64],
    x2: &[f64],
    x3: &[f64],
    g: &mut [f64],
    d: usize,
) -> bool {
    assert!(
        x0.len() == d && x1.len() == d && x2.len() == d && x3.len() == d,
        "gram4_upper: row length mismatch"
    );
    assert_eq!(g.len(), d * d, "gram4_upper: gram buffer size mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: AVX2 and FMA presence was just verified at runtime, and
        // the asserts above bound every slice taken inside.
        #[allow(unsafe_code)]
        unsafe {
            simd::gram4_upper(x0, x1, x2, x3, g, d)
        };
        return true;
    }
    false
}

/// `y ← y + alpha * x`.
///
/// # Panics
/// Panics when the slices have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if y.len() >= MIN_SIMD_LEN && simd_enabled() {
        // SAFETY: AVX2 and FMA presence was just verified at runtime.
        #[allow(unsafe_code)]
        return unsafe { simd::axpy(alpha, x, y) };
    }
    scalar_axpy(alpha, x, y)
}

#[inline]
fn scalar_axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    let x_blocks = x.chunks_exact(4);
    let x_tail = x_blocks.remainder();
    let mut y_blocks = y.chunks_exact_mut(4);
    for (yb, xb) in y_blocks.by_ref().zip(x_blocks) {
        yb[0] += alpha * xb[0];
        yb[1] += alpha * xb[1];
        yb[2] += alpha * xb[2];
        yb[3] += alpha * xb[3];
    }
    for (yi, xi) in y_blocks.into_remainder().iter_mut().zip(x_tail.iter()) {
        *yi += alpha * xi;
    }
}

/// Fused four-row axpy: `y ← y + a0·x0 + a1·x1 + a2·x2 + a3·x3` in one pass.
///
/// Per element the additions nest in row order, so the result is bitwise
/// identical to four sequential [`axpy`] calls on every path — but `y` is
/// read and written once instead of four times. This is the inner kernel of
/// the retiled `Matrix::matmul` / `tr_matmul` / `gram`.
///
/// # Panics
/// Panics when any slice length differs from `y.len()`.
#[inline]
pub fn axpy4(alpha: [f64; 4], x0: &[f64], x1: &[f64], x2: &[f64], x3: &[f64], y: &mut [f64]) {
    let n = y.len();
    assert!(
        x0.len() == n && x1.len() == n && x2.len() == n && x3.len() == n,
        "axpy4: length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if n >= MIN_SIMD_LEN && simd_enabled() {
        // SAFETY: AVX2 and FMA presence was just verified at runtime.
        #[allow(unsafe_code)]
        return unsafe { simd::axpy4(alpha, x0, x1, x2, x3, y) };
    }
    scalar_axpy4(alpha, x0, x1, x2, x3, y)
}

#[inline]
fn scalar_axpy4(alpha: [f64; 4], x0: &[f64], x1: &[f64], x2: &[f64], x3: &[f64], y: &mut [f64]) {
    let n = y.len();
    let blocks = n / 4;
    let split = blocks * 4;
    let (r0, t0) = x0.split_at(split);
    let (r1, t1) = x1.split_at(split);
    let (r2, t2) = x2.split_at(split);
    let (r3, t3) = x3.split_at(split);
    let (ym, yt) = y.split_at_mut(split);
    for i in 0..blocks {
        let j = i * 4;
        ym[j] = ym[j] + alpha[0] * r0[j] + alpha[1] * r1[j] + alpha[2] * r2[j] + alpha[3] * r3[j];
        ym[j + 1] = ym[j + 1]
            + alpha[0] * r0[j + 1]
            + alpha[1] * r1[j + 1]
            + alpha[2] * r2[j + 1]
            + alpha[3] * r3[j + 1];
        ym[j + 2] = ym[j + 2]
            + alpha[0] * r0[j + 2]
            + alpha[1] * r1[j + 2]
            + alpha[2] * r2[j + 2]
            + alpha[3] * r3[j + 2];
        ym[j + 3] = ym[j + 3]
            + alpha[0] * r0[j + 3]
            + alpha[1] * r1[j + 3]
            + alpha[2] * r2[j + 3]
            + alpha[3] * r3[j + 3];
    }
    for (i, yi) in yt.iter_mut().enumerate() {
        *yi = *yi + alpha[0] * t0[i] + alpha[1] * t1[i] + alpha[2] * t2[i] + alpha[3] * t3[i];
    }
}

/// One fused pass of a rank-1 or rank-2 row update and a matrix–vector
/// product. For each row `r_j = block[j·ld ..][..len]`, `j < cd.len()`,
/// with `len = x.len()` and `c_j` the entry `cd[j]` holds on entry:
/// `r_j ← r_j − c_j·x`, then `r_j ← r_j − b[j]·y` when `by = Some((b, y))`,
/// then `cd[j] ← r_j · v` with the updated row.
///
/// This is the inner pass of the eigensolver's Householder steps: the
/// update one reflector makes and the product the next reflector needs, in
/// one sweep over contiguous rows — the symmetric rank-2 update
/// `A ← A − u·qᵀ − q·uᵀ` of the reduction (`c = u`, `x = q`, `b = q`,
/// `y = u`), and the rank-1 update `R ← R − (R·u/h)·uᵀ` of the reflector
/// accumulation and the back-transform, whose products are the next step's
/// coefficients. Four rows share each load of `x`, `y` and `v`. The tiers sum in different orders,
/// so they agree to rounding.
///
/// # Panics
/// Panics unless `b` has `cd`'s length, `y` and `v` have `x`'s, and `block`
/// holds `cd.len()` rows of stride `ld ≥ len`.
pub fn update_rows_dots(
    block: &mut [f64],
    ld: usize,
    x: &[f64],
    by: Option<(&[f64], &[f64])>,
    v: &[f64],
    cd: &mut [f64],
) {
    let (rows, len) = (cd.len(), x.len());
    assert_eq!(v.len(), len, "update_rows_dots: length mismatch");
    if let Some((b, y)) = by {
        assert!(
            b.len() == rows && y.len() == len,
            "update_rows_dots: length mismatch"
        );
    }
    assert!(
        len <= ld || rows <= 1,
        "update_rows_dots: stride shorter than row"
    );
    if rows > 0 {
        assert!(
            (rows - 1) * ld + len <= block.len(),
            "update_rows_dots: rows out of bounds"
        );
    }
    #[cfg(target_arch = "x86_64")]
    if len >= MIN_SIMD_LEN {
        // SAFETY: the matching CPU features were verified at runtime, and
        // the asserts above bound every row access.
        #[allow(unsafe_code)]
        match simd_level() {
            2 => return unsafe { simd::update_rows_dots512(block, ld, x, by, v, cd) },
            1 => return unsafe { simd::update_rows_dots(block, ld, x, by, v, cd) },
            _ => {}
        }
    }
    scalar_update_rows_dots(block, ld, x, by, v, cd)
}

fn scalar_update_rows_dots(
    block: &mut [f64],
    ld: usize,
    x: &[f64],
    by: Option<(&[f64], &[f64])>,
    v: &[f64],
    cd: &mut [f64],
) {
    let len = x.len();
    for (j, c) in cd.iter_mut().enumerate() {
        let row = &mut block[j * ld..j * ld + len];
        for (r, &xk) in row.iter_mut().zip(x) {
            *r -= *c * xk;
        }
        if let Some((b, y)) = by {
            for (r, &yk) in row.iter_mut().zip(y) {
                *r -= b[j] * yk;
            }
        }
        *c = scalar_dot(row, v);
    }
}

/// The largest magnitude in `x` and whether every entry is finite, in one
/// pass: `(max |xᵢ|, all xᵢ finite)`. NaNs are skipped by the maximum, as
/// `f64::max` skips them, and an empty slice gives `(0.0, true)`.
///
/// Every tier keeps independent per-lane maximum chains and a separate
/// NaN/∞ detector. A maximum is exact, so the chains' split changes no bit:
/// the result equals the sequential `f64::max` fold's on every path.
pub fn max_abs_finite(x: &[f64]) -> (f64, bool) {
    #[cfg(target_arch = "x86_64")]
    if x.len() >= MIN_SIMD_LEN {
        // SAFETY: the matching CPU features were verified at runtime.
        #[allow(unsafe_code)]
        match simd_level() {
            2 => return unsafe { simd::max_abs_finite512(x) },
            1 => return unsafe { simd::max_abs_finite(x) },
            _ => {}
        }
    }
    scalar_max_abs_finite(x)
}

fn scalar_max_abs_finite(x: &[f64]) -> (f64, bool) {
    let mut lanes = [0.0f64; 4];
    let mut finite = true;
    let blocks = x.chunks_exact(4);
    let tail = blocks.remainder();
    for block in blocks {
        for (m, &v) in lanes.iter_mut().zip(block) {
            *m = m.max(v.abs());
            finite &= v.is_finite();
        }
    }
    for &v in tail {
        lanes[0] = lanes[0].max(v.abs());
        finite &= v.is_finite();
    }
    (lanes[0].max(lanes[1]).max(lanes[2].max(lanes[3])), finite)
}

/// Plane (Givens) rotation of two equal-length rows, in place:
/// `(x, y) ← (c·x − s·y, s·x + c·y)`.
///
/// This is the inner loop of the symmetric eigensolver: the QL iteration
/// accumulates each rotation into two adjacent rows of its row-stored
/// eigenvector matrix, so both operands are contiguous. Path selection is a
/// pure function of the length and the host tier, like every kernel here.
///
/// # Panics
/// Panics when the slices have different lengths.
#[inline]
pub fn rot(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
    assert_eq!(x.len(), y.len(), "rot: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if x.len() >= MIN_SIMD_LEN {
        // SAFETY: the matching CPU features were verified at runtime.
        #[allow(unsafe_code)]
        match simd_level() {
            2 => return unsafe { simd::rot512(x, y, c, s) },
            1 => return unsafe { simd::rot(x, y, c, s) },
            _ => {}
        }
    }
    scalar_rot(x, y, c, s)
}

#[inline]
fn scalar_rot(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
    for (xi, yi) in x.iter_mut().zip(y.iter_mut()) {
        let (a, b) = (*xi, *yi);
        *xi = c * a - s * b;
        *yi = s * a + c * b;
    }
}

/// Runtime-dispatched AVX2+FMA kernels. Kept in one module so the
/// crate-level `deny(unsafe_code)` has exactly one sanctioned exception.
///
/// Invariants the dispatchers above rely on:
/// * every function here is only called after `simd_enabled()` returned
///   true, so the `#[target_feature]` contracts hold;
/// * the vector/scalar split point inside each kernel is `4 * (n / 4)`,
///   matching the corresponding fused kernel so `axpy4` stays bitwise equal
///   to four sequential `axpy` calls;
/// * scalar tails use separate multiply-then-add (no fusing), same as the
///   scalar kernels' tails.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use std::arch::x86_64::*;

    /// Dot product with four 256-bit FMA accumulator chains.
    ///
    /// # Safety
    /// Requires AVX2 and FMA; `a` and `b` must have equal lengths (checked
    /// by the public wrapper).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut acc2 = _mm256_setzero_pd();
        let mut acc3 = _mm256_setzero_pd();
        let mut i = 0usize;
        while i + 16 <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)), acc0);
            acc1 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(i + 4)),
                _mm256_loadu_pd(bp.add(i + 4)),
                acc1,
            );
            acc2 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(i + 8)),
                _mm256_loadu_pd(bp.add(i + 8)),
                acc2,
            );
            acc3 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(i + 12)),
                _mm256_loadu_pd(bp.add(i + 12)),
                acc3,
            );
            i += 16;
        }
        while i + 4 <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)), acc0);
            i += 4;
        }
        // Fixed reduction order: (acc0+acc1) + (acc2+acc3), then low→high
        // within the register, then the scalar tail.
        let sum = _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
        let lo = _mm256_castpd256_pd128(sum);
        let hi = _mm256_extractf128_pd(sum, 1);
        let pair = _mm_add_pd(lo, hi);
        let mut s = _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
        while i < n {
            s += *ap.add(i) * *bp.add(i);
            i += 1;
        }
        s
    }

    /// Dot product with four 512-bit FMA accumulator chains — the same
    /// shape as [`dot`] but half the loop trips, which matters most at the
    /// short lengths (d = 64…512) the scoring paths use.
    ///
    /// # Safety
    /// Requires AVX-512F; `a` and `b` must have equal lengths (checked by
    /// the public wrapper).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn dot512(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc0 = _mm512_setzero_pd();
        let mut acc1 = _mm512_setzero_pd();
        let mut acc2 = _mm512_setzero_pd();
        let mut acc3 = _mm512_setzero_pd();
        let mut i = 0usize;
        while i + 32 <= n {
            acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(ap.add(i)), _mm512_loadu_pd(bp.add(i)), acc0);
            acc1 = _mm512_fmadd_pd(
                _mm512_loadu_pd(ap.add(i + 8)),
                _mm512_loadu_pd(bp.add(i + 8)),
                acc1,
            );
            acc2 = _mm512_fmadd_pd(
                _mm512_loadu_pd(ap.add(i + 16)),
                _mm512_loadu_pd(bp.add(i + 16)),
                acc2,
            );
            acc3 = _mm512_fmadd_pd(
                _mm512_loadu_pd(ap.add(i + 24)),
                _mm512_loadu_pd(bp.add(i + 24)),
                acc3,
            );
            i += 32;
        }
        while i + 8 <= n {
            acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(ap.add(i)), _mm512_loadu_pd(bp.add(i)), acc0);
            i += 8;
        }
        // Fixed reduction order: (acc0+acc1) + (acc2+acc3), in-register tree
        // reduce, then the scalar tail.
        let sum = _mm512_add_pd(_mm512_add_pd(acc0, acc1), _mm512_add_pd(acc2, acc3));
        let mut s = _mm512_reduce_add_pd(sum);
        while i < n {
            s += *ap.add(i) * *bp.add(i);
            i += 1;
        }
        s
    }

    /// Row sweep of [`dot`] against a shared `y`, one feature region for the
    /// whole sweep so the per-row kernel inlines without re-dispatch.
    ///
    /// # Safety
    /// Requires AVX2 and FMA; the public wrapper's asserts bound every row
    /// slice taken here.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn row_dots(
        b: &[f64],
        ldb: usize,
        d: usize,
        nrows: usize,
        y: &[f64],
        out: &mut [f64],
    ) {
        for j in 0..nrows {
            *out.get_unchecked_mut(j) = dot(b.get_unchecked(j * ldb..j * ldb + d), y);
        }
    }

    /// [`row_dots`] on the 512-bit [`dot512`] kernel.
    ///
    /// # Safety
    /// Requires AVX-512F; the public wrapper's asserts bound every row slice
    /// taken here.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn row_dots512(
        b: &[f64],
        ldb: usize,
        d: usize,
        nrows: usize,
        y: &[f64],
        out: &mut [f64],
    ) {
        for j in 0..nrows {
            *out.get_unchecked_mut(j) = dot512(b.get_unchecked(j * ldb..j * ldb + d), y);
        }
    }

    /// [`super::block_dots`] on the 256-bit [`dot`] kernel: the whole block
    /// in one feature region, so each of its `k + 1` dots per row inlines
    /// without re-dispatch.
    ///
    /// # Safety
    /// Requires AVX2 and FMA; the public wrapper's asserts bound every row
    /// and output access taken here.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn block_dots(
        basis: &[f64],
        k: usize,
        ys: &[f64],
        d: usize,
        dots: &mut [f64],
        norms_sq: &mut [f64],
    ) {
        for i in 0..norms_sq.len() {
            let y = ys.get_unchecked(i * d..(i + 1) * d);
            for j in 0..k {
                *dots.get_unchecked_mut(i * k + j) =
                    dot(basis.get_unchecked(j * d..(j + 1) * d), y);
            }
            *norms_sq.get_unchecked_mut(i) = dot(y, y);
        }
    }

    /// [`block_dots`] on the 512-bit [`dot512`] kernel.
    ///
    /// # Safety
    /// Requires AVX-512F; the public wrapper's asserts bound every row and
    /// output access taken here.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn block_dots512(
        basis: &[f64],
        k: usize,
        ys: &[f64],
        d: usize,
        dots: &mut [f64],
        norms_sq: &mut [f64],
    ) {
        for i in 0..norms_sq.len() {
            let y = ys.get_unchecked(i * d..(i + 1) * d);
            for j in 0..k {
                *dots.get_unchecked_mut(i * k + j) =
                    dot512(basis.get_unchecked(j * d..(j + 1) * d), y);
            }
            *norms_sq.get_unchecked_mut(i) = dot512(y, y);
        }
    }

    /// 4×4 dot tile on 512-bit lanes: sixteen zmm accumulators live across
    /// the whole column loop, fed by eight loads per eight columns; each is
    /// tree-reduced once at the end, then the `n % 8` tail is added.
    ///
    /// # Safety
    /// Requires AVX-512F; all eight slices must share one length (checked
    /// by the public wrapper).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn dots4x4_512(a: [&[f64]; 4], b: [&[f64]; 4]) -> [[f64; 4]; 4] {
        let n = a[0].len();
        let ap = a.map(<[f64]>::as_ptr);
        let bp = b.map(<[f64]>::as_ptr);
        let mut acc = [[_mm512_setzero_pd(); 4]; 4];
        let mut av = [_mm512_setzero_pd(); 4];
        let mut bv = [_mm512_setzero_pd(); 4];
        let mut k = 0usize;
        while k + 8 <= n {
            for r in 0..4 {
                av[r] = _mm512_loadu_pd(ap[r].add(k));
                bv[r] = _mm512_loadu_pd(bp[r].add(k));
            }
            for r in 0..4 {
                for c in 0..4 {
                    acc[r][c] = _mm512_fmadd_pd(av[r], bv[c], acc[r][c]);
                }
            }
            k += 8;
        }
        let mut out = [[0.0f64; 4]; 4];
        for r in 0..4 {
            for c in 0..4 {
                let mut s = _mm512_reduce_add_pd(acc[r][c]);
                for i in k..n {
                    s += *ap[r].add(i) * *bp[c].add(i);
                }
                out[r][c] = s;
            }
        }
        out
    }

    /// 4×4 dot tile on 256-bit lanes. Sixteen ymm accumulators plus the
    /// operands would overflow the sixteen-register file, so the tile is
    /// swept as two 4×2 halves (eight accumulators, six operand registers).
    ///
    /// # Safety
    /// Requires AVX2 and FMA; all eight slices must share one length
    /// (checked by the public wrapper).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dots4x4(a: [&[f64]; 4], b: [&[f64]; 4]) -> [[f64; 4]; 4] {
        let n = a[0].len();
        let ap = a.map(<[f64]>::as_ptr);
        let bp = b.map(<[f64]>::as_ptr);
        let mut out = [[0.0f64; 4]; 4];
        for half in [0usize, 2] {
            let mut acc = [[_mm256_setzero_pd(); 2]; 4];
            let mut av = [_mm256_setzero_pd(); 4];
            let mut k = 0usize;
            while k + 4 <= n {
                for r in 0..4 {
                    av[r] = _mm256_loadu_pd(ap[r].add(k));
                }
                let bv = [
                    _mm256_loadu_pd(bp[half].add(k)),
                    _mm256_loadu_pd(bp[half + 1].add(k)),
                ];
                for r in 0..4 {
                    for c in 0..2 {
                        acc[r][c] = _mm256_fmadd_pd(av[r], bv[c], acc[r][c]);
                    }
                }
                k += 4;
            }
            for r in 0..4 {
                for c in 0..2 {
                    let v = acc[r][c];
                    let pair = _mm_add_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
                    let mut s = _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
                    for i in k..n {
                        s += *ap[r].add(i) * *bp[half + c].add(i);
                    }
                    out[r][half + c] = s;
                }
            }
        }
        out
    }

    /// 4-row register-tiled GEMM block: `out[r][j] += Σ_k a_r[k]·b[k][j]`.
    ///
    /// The j loop walks 8 columns at a time holding a 4×8 accumulator tile
    /// (eight ymm registers) across the entire k loop; per k step it costs
    /// two `b` loads plus four broadcasts for eight FMAs, and `out` is only
    /// touched once per tile. 4-column and scalar column tails follow the
    /// same k-inner ordering.
    ///
    /// # Safety
    /// Requires AVX2 and FMA; the public wrapper's asserts guarantee
    /// `(kdim-1)*ldb + n <= b.len()` and `3*ldo + n <= out.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gemm4(
        a0: &[f64],
        a1: &[f64],
        a2: &[f64],
        a3: &[f64],
        b: &[f64],
        ldb: usize,
        n: usize,
        out: &mut [f64],
        ldo: usize,
    ) {
        let kdim = a0.len();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        let mut j = 0usize;
        while j + 8 <= n {
            let mut c00 = _mm256_setzero_pd();
            let mut c01 = _mm256_setzero_pd();
            let mut c10 = _mm256_setzero_pd();
            let mut c11 = _mm256_setzero_pd();
            let mut c20 = _mm256_setzero_pd();
            let mut c21 = _mm256_setzero_pd();
            let mut c30 = _mm256_setzero_pd();
            let mut c31 = _mm256_setzero_pd();
            for k in 0..kdim {
                let b0 = _mm256_loadu_pd(bp.add(k * ldb + j));
                let b1 = _mm256_loadu_pd(bp.add(k * ldb + j + 4));
                let v0 = _mm256_set1_pd(*a0.get_unchecked(k));
                c00 = _mm256_fmadd_pd(v0, b0, c00);
                c01 = _mm256_fmadd_pd(v0, b1, c01);
                let v1 = _mm256_set1_pd(*a1.get_unchecked(k));
                c10 = _mm256_fmadd_pd(v1, b0, c10);
                c11 = _mm256_fmadd_pd(v1, b1, c11);
                let v2 = _mm256_set1_pd(*a2.get_unchecked(k));
                c20 = _mm256_fmadd_pd(v2, b0, c20);
                c21 = _mm256_fmadd_pd(v2, b1, c21);
                let v3 = _mm256_set1_pd(*a3.get_unchecked(k));
                c30 = _mm256_fmadd_pd(v3, b0, c30);
                c31 = _mm256_fmadd_pd(v3, b1, c31);
            }
            for (r, (lo, hi)) in [(c00, c01), (c10, c11), (c20, c21), (c30, c31)]
                .into_iter()
                .enumerate()
            {
                let p = op.add(r * ldo + j);
                _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), lo));
                _mm256_storeu_pd(p.add(4), _mm256_add_pd(_mm256_loadu_pd(p.add(4)), hi));
            }
            j += 8;
        }
        while j + 4 <= n {
            let mut c0 = _mm256_setzero_pd();
            let mut c1 = _mm256_setzero_pd();
            let mut c2 = _mm256_setzero_pd();
            let mut c3 = _mm256_setzero_pd();
            for k in 0..kdim {
                let bv = _mm256_loadu_pd(bp.add(k * ldb + j));
                c0 = _mm256_fmadd_pd(_mm256_set1_pd(*a0.get_unchecked(k)), bv, c0);
                c1 = _mm256_fmadd_pd(_mm256_set1_pd(*a1.get_unchecked(k)), bv, c1);
                c2 = _mm256_fmadd_pd(_mm256_set1_pd(*a2.get_unchecked(k)), bv, c2);
                c3 = _mm256_fmadd_pd(_mm256_set1_pd(*a3.get_unchecked(k)), bv, c3);
            }
            for (r, c) in [c0, c1, c2, c3].into_iter().enumerate() {
                let p = op.add(r * ldo + j);
                _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), c));
            }
            j += 4;
        }
        while j < n {
            for (r, a) in [a0, a1, a2, a3].into_iter().enumerate() {
                let mut s = *op.add(r * ldo + j);
                for (k, &ak) in a.iter().enumerate() {
                    s = ak.mul_add(*bp.add(k * ldb + j), s);
                }
                *op.add(r * ldo + j) = s;
            }
            j += 1;
        }
    }

    /// 8-row × 16-column GEMM tile on 512-bit lanes: sixteen zmm
    /// accumulators live across the whole k loop, fed per k step by two `b`
    /// loads and eight broadcasts. Each accumulator starts at zero, takes one
    /// FMA per k in order and is added to `out` once — [`gemm4`]'s order —
    /// and the `n % 16` column tail runs [`gemm4`] itself on each 4-row
    /// half, so the result is bitwise that of two [`gemm4`] calls.
    ///
    /// # Safety
    /// Requires AVX-512F; the public wrapper's asserts guarantee equal row
    /// lengths, `(kdim-1)*ldb + n <= b.len()` and `7*ldo + n <= out.len()`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gemm8_512(
        a: [&[f64]; 8],
        b: &[f64],
        ldb: usize,
        n: usize,
        out: &mut [f64],
        ldo: usize,
    ) {
        let kdim = a[0].len();
        let ap = a.map(<[f64]>::as_ptr);
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        let mut j = 0usize;
        while j + 16 <= n {
            let mut acc = [[_mm512_setzero_pd(); 2]; 8];
            for k in 0..kdim {
                let b0 = _mm512_loadu_pd(bp.add(k * ldb + j));
                let b1 = _mm512_loadu_pd(bp.add(k * ldb + j + 8));
                for r in 0..8 {
                    let v = _mm512_set1_pd(*ap[r].add(k));
                    acc[r][0] = _mm512_fmadd_pd(v, b0, acc[r][0]);
                    acc[r][1] = _mm512_fmadd_pd(v, b1, acc[r][1]);
                }
            }
            for (r, [lo, hi]) in acc.into_iter().enumerate() {
                let p = op.add(r * ldo + j);
                _mm512_storeu_pd(p, _mm512_add_pd(_mm512_loadu_pd(p), lo));
                _mm512_storeu_pd(p.add(8), _mm512_add_pd(_mm512_loadu_pd(p.add(8)), hi));
            }
            j += 16;
        }
        if j < n {
            let b = b.get_unchecked(j..);
            let (lo, hi) = out.split_at_mut(4 * ldo);
            gemm4(
                a[0],
                a[1],
                a[2],
                a[3],
                b,
                ldb,
                n - j,
                lo.get_unchecked_mut(j..),
                ldo,
            );
            gemm4(
                a[4],
                a[5],
                a[6],
                a[7],
                b,
                ldb,
                n - j,
                hi.get_unchecked_mut(j..),
                ldo,
            );
        }
    }

    /// [`update_rows_dots`](super::update_rows_dots) on 512-bit lanes:
    /// four rows at a time share every load of `x`, `y` and `v`, each row
    /// keeps one dot accumulator, and the `len % 8` tail is one masked step.
    ///
    /// # Safety
    /// Requires AVX-512F; the public wrapper's asserts guarantee the
    /// lengths and that `block` holds `cd.len()` rows of stride `ld ≥ len`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn update_rows_dots512(
        block: &mut [f64],
        ld: usize,
        x: &[f64],
        by: Option<(&[f64], &[f64])>,
        v: &[f64],
        cd: &mut [f64],
    ) {
        let p = RowUpdate::new(block, ld, x, by, v, cd);
        let mut j = 0usize;
        while j < p.rows {
            let four = p.rows - j >= 4;
            match (four, by.is_some()) {
                (true, true) => update_rows512::<4, true>(&p, j),
                (true, false) => update_rows512::<4, false>(&p, j),
                (false, true) => update_rows512::<1, true>(&p, j),
                (false, false) => update_rows512::<1, false>(&p, j),
            }
            j += if four { 4 } else { 1 };
        }
    }

    /// The operands of one [`update_rows_dots512`] or [`update_rows_dots`]
    /// pass as raw pointers; `b` and `y` alias `cd` and `x` when the update
    /// is rank-1, and are then never read.
    struct RowUpdate {
        block: *mut f64,
        ld: usize,
        rows: usize,
        len: usize,
        cd: *mut f64,
        x: *const f64,
        b: *const f64,
        y: *const f64,
        v: *const f64,
    }

    impl RowUpdate {
        fn new(
            block: &mut [f64],
            ld: usize,
            x: &[f64],
            by: Option<(&[f64], &[f64])>,
            v: &[f64],
            cd: &mut [f64],
        ) -> Self {
            let (b, y) = by.map_or((cd.as_ptr(), x.as_ptr()), |(b, y)| (b.as_ptr(), y.as_ptr()));
            Self {
                block: block.as_mut_ptr(),
                ld,
                rows: cd.len(),
                len: x.len(),
                cd: cd.as_mut_ptr(),
                x: x.as_ptr(),
                b,
                y,
                v: v.as_ptr(),
            }
        }
    }

    /// Rows `j0..j0 + R` of [`update_rows_dots512`]; `RANK2` applies the
    /// second term. Each row's coefficient is read before its dot is
    /// written back over it.
    ///
    /// # Safety
    /// As [`update_rows_dots512`], with `j0 + R <= p.rows`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn update_rows512<const R: usize, const RANK2: bool>(p: &RowUpdate, j0: usize) {
        let len = p.len;
        let rows: [*mut f64; R] = std::array::from_fn(|r| p.block.add((j0 + r) * p.ld));
        let ca: [__m512d; R] = std::array::from_fn(|r| _mm512_set1_pd(*p.cd.add(j0 + r)));
        let cb: [__m512d; R] = std::array::from_fn(|r| _mm512_set1_pd(*p.b.add(j0 + r)));
        let mut acc = [_mm512_setzero_pd(); R];
        let mut k = 0usize;
        while k < len {
            // A full step of eight lanes, or the masked tail.
            let m: __mmask8 = if k + 8 <= len {
                0xff
            } else {
                (1u8 << (len - k)) - 1
            };
            let xv = _mm512_maskz_loadu_pd(m, p.x.add(k));
            let yv = _mm512_maskz_loadu_pd(m, p.y.add(k));
            let vv = _mm512_maskz_loadu_pd(m, p.v.add(k));
            for r in 0..R {
                let mut e = _mm512_maskz_loadu_pd(m, rows[r].add(k));
                e = _mm512_fnmadd_pd(ca[r], xv, e);
                if RANK2 {
                    e = _mm512_fnmadd_pd(cb[r], yv, e);
                }
                _mm512_mask_storeu_pd(rows[r].add(k), m, e);
                acc[r] = _mm512_fmadd_pd(e, vv, acc[r]);
            }
            k += 8;
        }
        for (r, s) in acc.into_iter().enumerate() {
            *p.cd.add(j0 + r) = _mm512_reduce_add_pd(s);
        }
    }

    /// [`update_rows_dots`](super::update_rows_dots) on 256-bit lanes, four
    /// rows at a time with one dot accumulator each and a scalar tail.
    ///
    /// # Safety
    /// Requires AVX2 and FMA; the public wrapper's asserts guarantee the
    /// lengths and that `block` holds `cd.len()` rows of stride `ld ≥ len`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn update_rows_dots(
        block: &mut [f64],
        ld: usize,
        x: &[f64],
        by: Option<(&[f64], &[f64])>,
        v: &[f64],
        cd: &mut [f64],
    ) {
        let p = RowUpdate::new(block, ld, x, by, v, cd);
        let mut j = 0usize;
        while j < p.rows {
            let four = p.rows - j >= 4;
            match (four, by.is_some()) {
                (true, true) => update_rows256::<4, true>(&p, j),
                (true, false) => update_rows256::<4, false>(&p, j),
                (false, true) => update_rows256::<1, true>(&p, j),
                (false, false) => update_rows256::<1, false>(&p, j),
            }
            j += if four { 4 } else { 1 };
        }
    }

    /// Rows `j0..j0 + R` of [`update_rows_dots`]; `RANK2` applies the
    /// second term. Each row's coefficient is read before its dot is
    /// written back over it.
    ///
    /// # Safety
    /// As [`update_rows_dots`], with `j0 + R <= p.rows`.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn update_rows256<const R: usize, const RANK2: bool>(p: &RowUpdate, j0: usize) {
        let len = p.len;
        let rows: [*mut f64; R] = std::array::from_fn(|r| p.block.add((j0 + r) * p.ld));
        let sa: [f64; R] = std::array::from_fn(|r| *p.cd.add(j0 + r));
        let sb: [f64; R] = std::array::from_fn(|r| *p.b.add(j0 + r));
        let ca = sa.map(|c| _mm256_set1_pd(c));
        let cb = sb.map(|c| _mm256_set1_pd(c));
        let mut acc = [_mm256_setzero_pd(); R];
        let mut k = 0usize;
        while k + 4 <= len {
            let xv = _mm256_loadu_pd(p.x.add(k));
            let yv = _mm256_loadu_pd(p.y.add(k));
            let vv = _mm256_loadu_pd(p.v.add(k));
            for r in 0..R {
                let mut e = _mm256_loadu_pd(rows[r].add(k));
                e = _mm256_fnmadd_pd(ca[r], xv, e);
                if RANK2 {
                    e = _mm256_fnmadd_pd(cb[r], yv, e);
                }
                _mm256_storeu_pd(rows[r].add(k), e);
                acc[r] = _mm256_fmadd_pd(e, vv, acc[r]);
            }
            k += 4;
        }
        for r in 0..R {
            let s = acc[r];
            let pair = _mm_add_pd(_mm256_castpd256_pd128(s), _mm256_extractf128_pd(s, 1));
            let mut dot = _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
            for i in k..len {
                let e = rows[r].add(i);
                *e -= sa[r] * *p.x.add(i);
                if RANK2 {
                    *e -= sb[r] * *p.y.add(i);
                }
                dot += *e * *p.v.add(i);
            }
            *p.cd.add(j0 + r) = dot;
        }
    }

    /// [`max_abs_finite`](super::max_abs_finite) on 512-bit lanes: four
    /// independent maximum chains of eight lanes, a mask of lanes that were
    /// NaN or ±∞, and a masked load for the `len % 8` tail (its padding
    /// lanes read as zero, which moves neither result).
    ///
    /// # Safety
    /// Requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn max_abs_finite512(x: &[f64]) -> (f64, bool) {
        let n = x.len();
        let p = x.as_ptr();
        let limit = _mm512_set1_pd(f64::MAX);
        let mut m = [_mm512_setzero_pd(); 4];
        let mut bad: __mmask8 = 0;
        // `max_pd(a, b)` returns `b` when either operand is NaN: with the
        // running maximum as `b`, a NaN entry is skipped like `f64::max`
        // skips it. `!(|x| <= MAX)` holds exactly for NaN and ±∞.
        macro_rules! absorb {
            ($acc:expr, $v:expr) => {{
                let v = _mm512_abs_pd($v);
                $acc = _mm512_max_pd(v, $acc);
                bad |= _mm512_cmp_pd_mask::<_CMP_NLE_UQ>(v, limit);
            }};
        }
        let mut i = 0usize;
        while i + 32 <= n {
            for (lane, acc) in m.iter_mut().enumerate() {
                absorb!(*acc, _mm512_loadu_pd(p.add(i + 8 * lane)));
            }
            i += 32;
        }
        while i + 8 <= n {
            absorb!(m[0], _mm512_loadu_pd(p.add(i)));
            i += 8;
        }
        if i < n {
            absorb!(m[0], _mm512_maskz_loadu_pd((1u8 << (n - i)) - 1, p.add(i)));
        }
        let all = _mm512_max_pd(_mm512_max_pd(m[0], m[1]), _mm512_max_pd(m[2], m[3]));
        (_mm512_reduce_max_pd(all), bad == 0)
    }

    /// [`max_abs_finite`](super::max_abs_finite) on 256-bit lanes: four
    /// independent maximum chains of four lanes, a vector of NaN/∞ flags,
    /// and a scalar tail.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn max_abs_finite(x: &[f64]) -> (f64, bool) {
        let n = x.len();
        let p = x.as_ptr();
        let sign = _mm256_set1_pd(-0.0);
        let limit = _mm256_set1_pd(f64::MAX);
        let mut m = [_mm256_setzero_pd(); 4];
        let mut bad = _mm256_setzero_pd();
        // Same operand order and NaN test as the 512-bit kernel.
        macro_rules! absorb {
            ($acc:expr, $v:expr) => {{
                let v = _mm256_andnot_pd(sign, $v);
                $acc = _mm256_max_pd(v, $acc);
                bad = _mm256_or_pd(bad, _mm256_cmp_pd::<_CMP_NLE_UQ>(v, limit));
            }};
        }
        let mut i = 0usize;
        while i + 16 <= n {
            for (lane, acc) in m.iter_mut().enumerate() {
                absorb!(*acc, _mm256_loadu_pd(p.add(i + 4 * lane)));
            }
            i += 16;
        }
        while i + 4 <= n {
            absorb!(m[0], _mm256_loadu_pd(p.add(i)));
            i += 4;
        }
        let all = _mm256_max_pd(_mm256_max_pd(m[0], m[1]), _mm256_max_pd(m[2], m[3]));
        let pair = _mm_max_pd(_mm256_castpd256_pd128(all), _mm256_extractf128_pd(all, 1));
        let mut s = _mm_cvtsd_f64(_mm_max_sd(pair, _mm_unpackhi_pd(pair, pair)));
        let mut finite = _mm256_movemask_pd(bad) == 0;
        while i < n {
            let v = *p.add(i);
            s = s.max(v.abs());
            finite &= v.is_finite();
            i += 1;
        }
        (s, finite)
    }

    /// Upper-triangle Gram sweep of four stream rows in one feature region:
    /// row `i` of `g` gets one inlined [`axpy4`] over the `[i..]` tails.
    ///
    /// # Safety
    /// Requires AVX2 and FMA; the public wrapper's asserts guarantee all
    /// four rows have length `d` and `g` has length `d * d`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gram4_upper(
        x0: &[f64],
        x1: &[f64],
        x2: &[f64],
        x3: &[f64],
        g: &mut [f64],
        d: usize,
    ) {
        for i in 0..d {
            let alpha = [
                *x0.get_unchecked(i),
                *x1.get_unchecked(i),
                *x2.get_unchecked(i),
                *x3.get_unchecked(i),
            ];
            axpy4(
                alpha,
                x0.get_unchecked(i..),
                x1.get_unchecked(i..),
                x2.get_unchecked(i..),
                x3.get_unchecked(i..),
                g.get_unchecked_mut(i * d + i..(i + 1) * d),
            );
        }
    }

    /// `y ← y + alpha·x`, one fused multiply-add per element.
    ///
    /// # Safety
    /// Requires AVX2 and FMA; slices must have equal lengths (checked by the
    /// public wrapper).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), y.len());
        let n = y.len();
        let a = _mm256_set1_pd(alpha);
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0usize;
        while i + 8 <= n {
            let y0 = _mm256_fmadd_pd(a, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
            let y1 = _mm256_fmadd_pd(
                a,
                _mm256_loadu_pd(xp.add(i + 4)),
                _mm256_loadu_pd(yp.add(i + 4)),
            );
            _mm256_storeu_pd(yp.add(i), y0);
            _mm256_storeu_pd(yp.add(i + 4), y1);
            i += 8;
        }
        while i + 4 <= n {
            let y0 = _mm256_fmadd_pd(a, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
            _mm256_storeu_pd(yp.add(i), y0);
            i += 4;
        }
        while i < n {
            *yp.add(i) += alpha * *xp.add(i);
            i += 1;
        }
    }

    /// Fused four-row axpy; the FMA chain nests in row order per element, so
    /// the result is bitwise identical to four sequential [`axpy`] calls.
    ///
    /// # Safety
    /// Requires AVX2 and FMA; all slices must have equal lengths (checked by
    /// the public wrapper).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy4(
        alpha: [f64; 4],
        x0: &[f64],
        x1: &[f64],
        x2: &[f64],
        x3: &[f64],
        y: &mut [f64],
    ) {
        let n = y.len();
        let a0 = _mm256_set1_pd(alpha[0]);
        let a1 = _mm256_set1_pd(alpha[1]);
        let a2 = _mm256_set1_pd(alpha[2]);
        let a3 = _mm256_set1_pd(alpha[3]);
        let p0 = x0.as_ptr();
        let p1 = x1.as_ptr();
        let p2 = x2.as_ptr();
        let p3 = x3.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            let mut v = _mm256_loadu_pd(yp.add(i));
            v = _mm256_fmadd_pd(a0, _mm256_loadu_pd(p0.add(i)), v);
            v = _mm256_fmadd_pd(a1, _mm256_loadu_pd(p1.add(i)), v);
            v = _mm256_fmadd_pd(a2, _mm256_loadu_pd(p2.add(i)), v);
            v = _mm256_fmadd_pd(a3, _mm256_loadu_pd(p3.add(i)), v);
            _mm256_storeu_pd(yp.add(i), v);
            i += 4;
        }
        while i < n {
            // Separate multiply-then-add per row, matching the scalar tail of
            // sequential `axpy` calls bit for bit.
            let mut v = *yp.add(i);
            v += alpha[0] * *p0.add(i);
            v += alpha[1] * *p1.add(i);
            v += alpha[2] * *p2.add(i);
            v += alpha[3] * *p3.add(i);
            *yp.add(i) = v;
            i += 1;
        }
    }

    /// Plane rotation `(x, y) ← (c·x − s·y, s·x + c·y)`, four lanes at a
    /// time; each output is one multiply feeding one fused multiply-add.
    ///
    /// # Safety
    /// Requires AVX2 and FMA; `x` and `y` must have equal lengths (checked
    /// by the public wrapper).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn rot(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len();
        let xp = x.as_mut_ptr();
        let yp = y.as_mut_ptr();
        let cv = _mm256_set1_pd(c);
        let sv = _mm256_set1_pd(s);
        let mut i = 0usize;
        while i + 4 <= n {
            let a = _mm256_loadu_pd(xp.add(i));
            let b = _mm256_loadu_pd(yp.add(i));
            _mm256_storeu_pd(xp.add(i), _mm256_fmsub_pd(cv, a, _mm256_mul_pd(sv, b)));
            _mm256_storeu_pd(yp.add(i), _mm256_fmadd_pd(sv, a, _mm256_mul_pd(cv, b)));
            i += 4;
        }
        super::scalar_rot(&mut x[i..], &mut y[i..], c, s);
    }

    /// [`rot`] on 512-bit lanes: half the loop trips at the row lengths the
    /// eigensolver uses (n = 48…128).
    ///
    /// # Safety
    /// Requires AVX-512F; `x` and `y` must have equal lengths (checked by
    /// the public wrapper).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn rot512(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len();
        let xp = x.as_mut_ptr();
        let yp = y.as_mut_ptr();
        let cv = _mm512_set1_pd(c);
        let sv = _mm512_set1_pd(s);
        let mut i = 0usize;
        while i + 8 <= n {
            let a = _mm512_loadu_pd(xp.add(i));
            let b = _mm512_loadu_pd(yp.add(i));
            _mm512_storeu_pd(xp.add(i), _mm512_fmsub_pd(cv, a, _mm512_mul_pd(sv, b)));
            _mm512_storeu_pd(yp.add(i), _mm512_fmadd_pd(sv, a, _mm512_mul_pd(cv, b)));
            i += 8;
        }
        super::scalar_rot(&mut x[i..], &mut y[i..], c, s);
    }
}

/// `y ← alpha * y`.
#[inline]
pub fn scale(alpha: f64, y: &mut [f64]) {
    let mut blocks = y.chunks_exact_mut(4);
    for yb in blocks.by_ref() {
        yb[0] *= alpha;
        yb[1] *= alpha;
        yb[2] *= alpha;
        yb[3] *= alpha;
    }
    for yi in blocks.into_remainder() {
        *yi *= alpha;
    }
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Squared Euclidean norm `‖x‖₂²`.
#[inline]
pub fn norm2_sq(x: &[f64]) -> f64 {
    dot(x, x)
}

/// ℓ₁ norm `Σ |xᵢ|`.
#[inline]
pub fn norm1(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// ℓ∞ norm `max |xᵢ|` (NaNs skipped): the magnitude half of
/// [`max_abs_finite`].
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    max_abs_finite(x).0
}

/// Normalizes `x` to unit Euclidean length in place; returns the original norm.
///
/// A zero vector is left unchanged and `0.0` is returned.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

/// Squared Euclidean distance `‖a − b‖₂²`.
///
/// # Panics
/// Panics when the slices have different lengths.
#[inline]
pub fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dist_sq: length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum()
}

/// Elementwise subtraction into a new vector.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x - y).collect()
}

/// Elementwise addition into a new vector.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x + y).collect()
}

/// True when every element is finite.
pub fn all_finite(x: &[f64]) -> bool {
    x.iter().all(|v| v.is_finite())
}

/// Gram–Schmidt: removes from `v` its components along each (unit-norm) row of
/// `basis`, iterating twice for numerical robustness ("twice is enough").
pub fn orthogonalize_against(v: &mut [f64], basis: &[&[f64]]) {
    for _ in 0..2 {
        for b in basis {
            let c = dot(v, b);
            axpy(-c, b, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_scalar_parsing() {
        assert!(parse_force_scalar(Some("1")));
        assert!(parse_force_scalar(Some("true")));
        assert!(parse_force_scalar(Some("yes")));
        assert!(!parse_force_scalar(Some("0")));
        assert!(!parse_force_scalar(Some("")));
        assert!(!parse_force_scalar(None));
    }

    #[test]
    fn active_tier_is_a_known_label_and_stable() {
        let tier = active_simd_tier();
        assert!(
            ["scalar", "avx2+fma", "avx512f"].contains(&tier),
            "unknown tier {tier:?}"
        );
        // The tier is cached at first use: repeated calls must agree.
        assert_eq!(tier, active_simd_tier());
        // When the CI override is set, dispatch must have pinned scalar.
        if parse_force_scalar(std::env::var("SKETCHAD_FORCE_SCALAR").ok().as_deref()) {
            assert_eq!(tier, "scalar");
        }
    }

    #[test]
    fn dot_known_values() {
        assert_eq!(dot(&[1., 2., 3.], &[4., 5., 6.]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
        // Length > 4 exercises the unrolled path plus tail.
        let a: Vec<f64> = (1..=9).map(f64::from).collect();
        let expect: f64 = a.iter().map(|v| v * v).sum();
        assert_eq!(dot(&a, &a), expect);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn dot_simd_path_agrees_with_scalar() {
        // Lengths straddling the 16-wide main loop, 4-wide secondary loop
        // and scalar tail of the SIMD kernel. On non-AVX2 hosts this
        // degenerates to scalar-vs-scalar and still passes.
        for n in [8usize, 15, 16, 17, 31, 64, 100, 1023] {
            let a: Vec<f64> = (0..n).map(|i| ((i * 7 + 1) as f64 * 0.37).sin()).collect();
            let b: Vec<f64> = (0..n).map(|i| ((i * 3 + 2) as f64 * 0.29).cos()).collect();
            let fast = dot(&a, &b);
            let slow = scalar_dot(&a, &b);
            let scale = slow.abs().max(1.0);
            assert!(
                (fast - slow).abs() <= 1e-12 * scale,
                "n={n}: {fast} vs {slow}"
            );
        }
    }

    /// Every tier's block kernel against the same tier's `dot`, bit for
    /// bit: the public dispatch, the scalar body, and each SIMD body the
    /// CPU has, called directly — on an AVX-512 host nothing else runs the
    /// AVX2+FMA body, and the forced-scalar leg pins only the dispatch.
    #[test]
    fn block_dots_is_each_tiers_dot_bit_for_bit() {
        type Body = fn(&[f64], usize, &[f64], usize, &mut [f64], &mut [f64]);
        type Dot = fn(&[f64], &[f64]) -> f64;
        let mut tiers: Vec<(&str, Body, Dot)> = vec![
            ("dispatch", block_dots, dot),
            ("scalar", scalar_block_dots, scalar_dot),
        ];
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        {
            // SAFETY (all four wrappers): each is pushed only when the CPU
            // reports the features its body requires, and the test hands
            // it slices of the lengths the public wrapper asserts.
            if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
                tiers.push((
                    "avx2+fma",
                    |b, k, y, d, o, n| unsafe { simd::block_dots(b, k, y, d, o, n) },
                    |a, b| unsafe { simd::dot(a, b) },
                ));
            }
            if std::is_x86_feature_detected!("avx512f") {
                tiers.push((
                    "avx512f",
                    |b, k, y, d, o, n| unsafe { simd::block_dots512(b, k, y, d, o, n) },
                    |a, b| unsafe { simd::dot512(a, b) },
                ));
            }
        }
        let rows = 3;
        for d in 1..=80usize {
            for k in [0usize, 1, 2, 4, 16] {
                let basis: Vec<f64> = (0..k * d)
                    .map(|i| ((i * 7 + 1) as f64 * 0.37).sin())
                    .collect();
                let ys: Vec<f64> = (0..rows * d)
                    .map(|i| ((i * 3 + 2) as f64 * 0.29).cos() * 1.7)
                    .collect();
                for &(tier, body, tier_dot) in &tiers {
                    let mut dots = vec![f64::NAN; rows * k];
                    let mut norms = vec![f64::NAN; rows];
                    body(&basis, k, &ys, d, &mut dots, &mut norms);
                    for (i, y) in ys.chunks_exact(d).enumerate() {
                        let what = format!("{tier}, d={d}, k={k}, row {i}");
                        assert_eq!(norms[i].to_bits(), tier_dot(y, y).to_bits(), "{what}");
                        for j in 0..k {
                            let want = tier_dot(&basis[j * d..(j + 1) * d], y);
                            assert_eq!(
                                dots[i * k + j].to_bits(),
                                want.to_bits(),
                                "{what}, dot {j}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn axpy_simd_path_agrees_with_scalar() {
        for n in [8usize, 15, 17, 64, 257] {
            let x: Vec<f64> = (0..n).map(|i| ((i * 5 + 3) as f64 * 0.41).sin()).collect();
            let base: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).cos()).collect();
            let mut fast = base.clone();
            axpy(1.7, &x, &mut fast);
            let mut slow = base.clone();
            scalar_axpy(1.7, &x, &mut slow);
            for i in 0..n {
                assert!((fast[i] - slow[i]).abs() <= 1e-12, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn dots4x4_matches_dot_to_rounding() {
        // Lengths on both sides of the SIMD threshold and of the 8- and
        // 4-lane loops' tails; the tile is symmetric when a == b.
        for n in [0usize, 5, 8, 13, 23, 64, 100] {
            let rows: Vec<Vec<f64>> = (0..8)
                .map(|r| {
                    (0..n)
                        .map(|i| ((i * 7 + r * 13 + 1) as f64).sin() * 3.7)
                        .collect()
                })
                .collect();
            let quad = |o: usize| [0, 1, 2, 3].map(|r| rows[o + r].as_slice());
            let tile = dots4x4(quad(0), quad(4));
            for r in 0..4 {
                for c in 0..4 {
                    let want = dot(&rows[r], &rows[4 + c]);
                    let scale = norm2(&rows[r]) * norm2(&rows[4 + c]);
                    assert!(
                        (tile[r][c] - want).abs() <= 1e-14 * scale,
                        "n={n} ({r},{c})"
                    );
                }
            }
            let sym = dots4x4(quad(0), quad(0));
            for (r, row) in sym.iter().enumerate() {
                for (c, v) in row.iter().enumerate() {
                    assert_eq!(v.to_bits(), sym[c][r].to_bits(), "n={n}");
                }
            }
        }
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn axpy4_bitwise_matches_sequential_axpy() {
        // 19 takes the SIMD path on AVX2 hosts, 6 stays scalar; both must
        // match four sequential axpy calls bit for bit.
        for n in [6usize, 19] {
            let alpha = [0.3, -1.7, 2.9, 0.01];
            let rows: Vec<Vec<f64>> = (0..4)
                .map(|r| (0..n).map(|i| ((i + r * 5) as f64).sin()).collect())
                .collect();
            let mut fused: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
            let mut seq = fused.clone();
            axpy4(alpha, &rows[0], &rows[1], &rows[2], &rows[3], &mut fused);
            for r in 0..4 {
                axpy(alpha[r], &rows[r], &mut seq);
            }
            assert_eq!(fused, seq, "n={n}");
        }
    }

    #[test]
    fn rot_matches_scalar_and_preserves_norms() {
        // Lengths straddle the 8-lane and 4-lane main loops and their tails;
        // 5 stays on the scalar path on every host.
        let (c, s) = (0.6f64, -0.8f64);
        for n in [0usize, 1, 5, 8, 9, 15, 16, 23, 48, 64, 127, 128] {
            let x0: Vec<f64> = (0..n).map(|i| ((i * 7 + 1) as f64 * 0.37).sin()).collect();
            let y0: Vec<f64> = (0..n).map(|i| ((i * 3 + 2) as f64 * 0.29).cos()).collect();
            let (mut xf, mut yf) = (x0.clone(), y0.clone());
            rot(&mut xf, &mut yf, c, s);
            let (mut xs, mut ys) = (x0.clone(), y0.clone());
            scalar_rot(&mut xs, &mut ys, c, s);
            for i in 0..n {
                assert!((xf[i] - xs[i]).abs() <= 4.0 * f64::EPSILON, "n={n} x[{i}]");
                assert!((yf[i] - ys[i]).abs() <= 4.0 * f64::EPSILON, "n={n} y[{i}]");
                // A rotation keeps each column pair's length.
                let before = x0[i].hypot(y0[i]);
                assert!((xf[i].hypot(yf[i]) - before).abs() <= 1e-15, "n={n} i={i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rot_length_mismatch_panics() {
        rot(&mut [1.0], &mut [1.0, 2.0], 1.0, 0.0);
    }

    /// The fold `max_abs_finite` must reproduce: `f64::max` over `|xᵢ|`
    /// from 0 (NaNs skipped), and finiteness as its own yes/no.
    fn reference_max_abs(x: &[f64]) -> (u64, bool) {
        let m = x.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        (m.to_bits(), x.iter().all(|v| v.is_finite()))
    }

    /// Every tier this host has, called directly (so the forced-scalar run
    /// covers the SIMD kernels too), plus the dispatcher.
    fn max_abs_tiers(x: &[f64]) -> Vec<(&'static str, (u64, bool))> {
        let bits = |(m, f): (f64, bool)| (m.to_bits(), f);
        #[allow(unused_mut)]
        let mut got = vec![
            ("dispatch", bits(max_abs_finite(x))),
            ("scalar", bits(scalar_max_abs_finite(x))),
        ];
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        {
            if std::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 was just detected.
                got.push(("avx2", bits(unsafe { simd::max_abs_finite(x) })));
            }
            if std::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F was just detected.
                got.push(("avx512f", bits(unsafe { simd::max_abs_finite512(x) })));
            }
        }
        got
    }

    #[test]
    fn max_abs_finite_is_the_scalar_fold_bit_for_bit() {
        let specials = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 3.0,
            f64::MAX,
            -f64::MAX,
        ];
        let check = |x: &[f64], what: &str| {
            let want = reference_max_abs(x);
            for (tier, got) in max_abs_tiers(x) {
                assert_eq!(got, want, "{tier}: {what}");
            }
        };
        for len in 0..=40usize {
            // A finite base of mixed sign and magnitude, and an all −0.0
            // base against which a subnormal is the maximum.
            let mixed: Vec<f64> = (0..len)
                .map(|i| ((i * 7 + 1) as f64 * 0.37).sin() * 10f64.powi(i as i32 % 5 - 2))
                .collect();
            let zeros = vec![-0.0f64; len];
            for base in [&mixed, &zeros] {
                check(base, &format!("len {len}"));
                // Each special at every lane and tail position.
                for pos in 0..len {
                    for &sp in &specials {
                        let mut x = base.clone();
                        x[pos] = sp;
                        check(&x, &format!("len {len}, x[{pos}] = {sp:e}"));
                    }
                }
            }
        }
        // The `linear_wide` refresh's input: a 128 × 1024 sketch, clean and
        // with a NaN, a ±∞ or an extreme finite value at every lane of the
        // first, a middle and the last vector.
        let mut big: Vec<f64> = (0..128 * 1024)
            .map(|i| ((i * 7 + 3) as f64 * 0.37).sin() * 100.0)
            .collect();
        check(&big, "128 × 1024");
        let n = big.len();
        for pos in (0..8).chain(n / 2 - 4..n / 2 + 4).chain(n - 8..n) {
            let clean = big[pos];
            for sp in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -f64::MAX] {
                big[pos] = sp;
                check(&big, &format!("128 × 1024, x[{pos}] = {sp:e}"));
            }
            big[pos] = clean;
        }
    }

    #[test]
    fn norm_inf_and_matrix_max_abs_are_the_guard_magnitude() {
        let x = [
            1.0,
            f64::NAN,
            -3.5,
            2.0,
            f64::NEG_INFINITY,
            -7.0,
            0.5,
            1.0,
            6.0,
        ];
        assert_eq!(norm_inf(&x), f64::INFINITY);
        assert_eq!(norm_inf(&x[..4]), 3.5);
        assert_eq!(norm_inf(&[]), 0.0);
        let m = crate::Matrix::from_vec(3, 3, x.to_vec()).unwrap();
        assert_eq!(m.max_abs(), f64::INFINITY);
    }

    /// `rows` rows of stride `ld` with values that make rounding visible.
    fn filled(rows: usize, ld: usize, salt: usize) -> Vec<f64> {
        (0..rows * ld)
            .map(|i| ((i * 13 + salt * 7 + 1) as f64 * 0.731).sin() * 3.3)
            .collect()
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[allow(unsafe_code)]
    fn avx512_panel_tile_is_bitwise_the_avx2_tier() {
        if !std::is_x86_feature_detected!("avx512f") {
            return;
        }
        for kdim in [0usize, 1, 11] {
            for m in 1..=19usize {
                for n in 0..=40usize {
                    check_panel_tiers(kdim, m, n);
                }
            }
        }
    }

    /// Both tiers called directly, as `matmul_rows_into` drives them: the
    /// AVX-512 tier takes 8-row blocks through the 8×16 tile and a leftover
    /// 4-row block through `gemm4`; the AVX2 tier takes every 4-row block
    /// through `gemm4`. Rows past the last 4-row block run the same
    /// portable path on both, so they are left out. Strides wider than the
    /// rows exercise the kernels' indexing.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    fn check_panel_tiers(kdim: usize, m: usize, n: usize) {
        let (ldb, ldo) = (n + 1, n + 2);
        let a = filled(m, kdim, 4);
        let row = |r: usize| &a[r * kdim..(r + 1) * kdim];
        let quad = |i: usize| [row(i), row(i + 1), row(i + 2), row(i + 3)];
        let b = filled(kdim.max(1), ldb, 5);
        let start = filled(m, ldo, 6);
        let (mut wide, mut narrow) = (start.clone(), start.clone());
        let mut i = 0;
        while i + 4 <= m {
            let out = &mut wide[i * ldo..];
            // SAFETY: the caller detected AVX-512F, which implies AVX2 and
            // FMA; `b` holds `kdim` rows of stride `ldb ≥ n` and `out` the
            // block's rows of stride `ldo ≥ n`.
            unsafe {
                if i + 8 <= m {
                    simd::gemm8_512(std::array::from_fn(|r| row(i + r)), &b, ldb, n, out, ldo);
                    i += 8;
                } else {
                    let [a0, a1, a2, a3] = quad(i);
                    simd::gemm4(a0, a1, a2, a3, &b, ldb, n, out, ldo);
                    i += 4;
                }
            }
        }
        for i in (0..m / 4 * 4).step_by(4) {
            let [a0, a1, a2, a3] = quad(i);
            // SAFETY: as above.
            unsafe { simd::gemm4(a0, a1, a2, a3, &b, ldb, n, &mut narrow[i * ldo..], ldo) };
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&wide), bits(&narrow), "k={kdim} m={m} n={n}");
    }

    #[test]
    fn update_rows_dots_tiers_agree_with_the_reference() {
        // Square blocks (the reduction's shape) and one row short of square
        // (the accumulation's), rank-1 and rank-2, on every tier.
        for len in 0..=40usize {
            for rows in [len, len.saturating_sub(1)] {
                for rank2 in [false, true] {
                    check_update_rows_dots(rows, len, rank2);
                }
            }
        }
    }

    fn check_update_rows_dots(rows: usize, len: usize, rank2: bool) {
        let ld = len + 3;
        let block = filled(rows, ld, 7);
        let (c, x) = (filled(1, rows, 8), filled(1, len, 9));
        let (b, y) = (filled(1, rows, 10), filled(1, len, 11));
        let v = filled(1, len, 12);
        let by = rank2.then_some((&b[..], &y[..]));
        // Reference: the update in f64 term by term, then a dot.
        let mut want = block.clone();
        let mut want_dots = vec![0.0; rows];
        for j in 0..rows {
            let row = &mut want[j * ld..j * ld + len];
            for k in 0..len {
                row[k] -= c[j] * x[k];
                if rank2 {
                    row[k] -= b[j] * y[k];
                }
            }
            want_dots[j] = row.iter().zip(&v).map(|(p, q)| p * q).sum();
        }
        let what = format!("rows {rows}, len {len}, rank2 {rank2}");
        let check = |tier: &str, got: &[f64], dots: &[f64]| {
            for j in 0..rows {
                for k in 0..ld {
                    let (g, w) = (got[j * ld + k], want[j * ld + k]);
                    if k >= len {
                        // Past the row: untouched.
                        assert_eq!(g.to_bits(), block[j * ld + k].to_bits(), "{tier} {what}");
                    } else {
                        assert!(
                            (g - w).abs() <= 1e-14 * w.abs().max(1.0),
                            "{tier} {what} [{j}][{k}]"
                        );
                    }
                }
                let scale = len as f64 * 40.0;
                assert!(
                    (dots[j] - want_dots[j]).abs() <= 1e-14 * scale,
                    "{tier} {what} dot {j}"
                );
            }
        };
        let (mut got, mut cd) = (block.clone(), c.clone());
        update_rows_dots(&mut got, ld, &x, by, &v, &mut cd);
        check("dispatch", &got, &cd);
        let (mut got, mut cd) = (block.clone(), c.clone());
        scalar_update_rows_dots(&mut got, ld, &x, by, &v, &mut cd);
        check("scalar", &got, &cd);
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        {
            if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
                let (mut got, mut cd) = (block.clone(), c.clone());
                // SAFETY: AVX2 and FMA were just detected; the shapes are
                // the public wrapper's.
                unsafe { simd::update_rows_dots(&mut got, ld, &x, by, &v, &mut cd) };
                check("avx2", &got, &cd);
            }
            if std::is_x86_feature_detected!("avx512f") {
                let (mut got, mut cd) = (block.clone(), c.clone());
                // SAFETY: AVX-512F was just detected; the shapes are the
                // public wrapper's.
                unsafe { simd::update_rows_dots512(&mut got, ld, &x, by, &v, &mut cd) };
                check("avx512f", &got, &cd);
            }
        }
    }

    #[test]
    fn norms_known_values() {
        let x = [3.0, -4.0];
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(norm2_sq(&x), 25.0);
        assert_eq!(norm1(&x), 7.0);
        assert_eq!(norm_inf(&x), 4.0);
    }

    #[test]
    fn normalize_unit_length_and_zero_vector() {
        let mut x = vec![3.0, 4.0];
        let n = normalize(&mut x);
        assert_eq!(n, 5.0);
        assert!((norm2(&x) - 1.0).abs() < 1e-15);

        let mut z = vec![0.0, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn dist_sq_symmetry() {
        let a = [1.0, 2.0];
        let b = [4.0, 6.0];
        assert_eq!(dist_sq(&a, &b), 25.0);
        assert_eq!(dist_sq(&b, &a), 25.0);
    }

    #[test]
    fn orthogonalize_removes_component() {
        let e1 = [1.0, 0.0, 0.0];
        let e2 = [0.0, 1.0, 0.0];
        let mut v = vec![3.0, 4.0, 5.0];
        orthogonalize_against(&mut v, &[&e1, &e2]);
        assert!(v[0].abs() < 1e-12);
        assert!(v[1].abs() < 1e-12);
        assert!((v[2] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = [1.0, 2.0];
        let b = [0.5, -0.5];
        assert_eq!(sub(&add(&a, &b), &b), a.to_vec());
    }

    #[test]
    fn all_finite_detects_nan() {
        assert!(all_finite(&[1.0, 2.0]));
        assert!(!all_finite(&[1.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
    }
}

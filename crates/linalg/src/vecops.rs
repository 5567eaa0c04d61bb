//! Vector kernels over `&[f64]` slices.
//!
//! These free functions are the innermost loops of every sketch update and
//! score computation. Each public kernel runs on one of three dispatch tiers,
//! fixed per host ([`active_simd_tier`]):
//!
//! * **scalar** — portable code written to auto-vectorize on stable rustc:
//!   its reductions keep four independent accumulator chains over
//!   `chunks_exact` blocks, so the compiler can emit SIMD without
//!   `-ffast-math` reassociation;
//! * **AVX2+FMA** and **AVX-512F** — x86-64 only, selected by runtime
//!   feature detection, since the default `x86_64` target compiles the
//!   scalar path to baseline SSE2 and leaves 2–4× on the table on any
//!   post-2013 core. Each SIMD kernel is written once, as a body generic
//!   over a private lane trait (`simd::Lanes`: four lanes of `__m256d`, or
//!   eight of `__m512d`, and each tier's own horizontal sum). One thin
//!   `#[target_feature]` wrapper per tier instantiates it
//!   (`simd::avx2::dot`, `simd::avx512::dot`), and one dispatch macro,
//!   `on_simd!`, picks the wrapper.
//!
//! What differs between the SIMD tiers is the register width, and these
//! shapes, each kept because the other tier's would cost registers or move
//! a bit:
//!
//! * [`axpy`], `axpy4`, `gram4_upper` and `gemm4` run on 256-bit
//!   lanes on both tiers: they are store-bound, and at eight lanes the axpy
//!   family's unfused scalar tail would start at another column;
//! * `dots4x4` sweeps its 4×4 tile in column groups of four on AVX-512
//!   and of two on AVX2, whose sixteen registers cannot hold sixteen
//!   accumulators and the operands;
//! * `update_rows_dots` and `max_abs_finite` end a row with one masked
//!   step on AVX-512 and with a scalar loop on AVX2, whose unfused tail is
//!   that tier's bits.
//!
//! The scalar tier keeps bodies of its own (`scalar_dot` and the other
//! `scalar_*` functions): its multiply-then-add rounding and `scalar_dot`'s
//! four-chain split are bits no FMA lane type reproduces.
//!
//! Path selection depends only on the slice length and the host CPU, so a
//! given machine always takes the same path for the same input: results are
//! bitwise reproducible run-to-run. Across *different* machines the low bits
//! may differ (FMA fuses the multiply-add rounding) — the workspace's
//! determinism contract is per-host, matching the seeded-RNG contract. A
//! unit test pins every kernel's bits on every tier.
//!
//! The fused kernel `axpy4` processes four rows against one shared vector
//! in a single pass and is *bitwise compatible* with its one-row
//! counterpart on every path: it produces the same bits as four sequential
//! [`axpy`] calls, and so do `row_dots` and [`block_dots`] with one
//! [`dot`] per output. The blocked matrix kernels rely on this to keep
//! batched results identical to the one-at-a-time paths; `gemm8` is
//! likewise the bits of two `gemm4` calls on every tier. The register
//! tile `dots4x4` and the row pass `update_rows_dots` are the
//! exceptions: they sum in another order, so they agree with [`dot`] to
//! rounding only.

/// Below this length the scalar path is used unconditionally: the SIMD
/// prologue/reduction costs more than it saves, and keeping one fixed
/// threshold makes path selection a pure function of `len`.
const MIN_SIMD_LEN: usize = 8;

/// SIMD capability tiers, cached once (the kernels below sit on per-point
/// hot paths where even a couple of extra atomic loads per call are
/// measurable): 0 scalar, 1 AVX2+FMA, 2 AVX-512F. A kernel runs on the
/// widest tier the host has, up to its own cap (see the module docs).
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
    #[cfg(test)]
    if let Some(tier) = tests::PINNED_TIER.with(std::cell::Cell::get) {
        return tier;
    }
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

/// `simd::avx512::$kernel` or `simd::avx2::$kernel` on the arguments at this
/// host's tier, as `Some(output)`, or `None` — run the scalar kernel — on
/// the scalar tier and for rows shorter than [`MIN_SIMD_LEN`]; `@tier t`
/// takes tier `t` whatever the row length. The one dispatch point of every
/// kernel. It expands to `unsafe` calls: the caller asserts the shapes the
/// kernel's body indexes, and `t` must be a tier the CPU has.
#[cfg(target_arch = "x86_64")]
macro_rules! on_simd {
    (@tier $tier:expr, $kernel:ident($($arg:expr),*)) => {
        match $tier {
            2 => Some(simd::avx512::$kernel($($arg),*)),
            1 => Some(simd::avx2::$kernel($($arg),*)),
            _ => None,
        }
    };
    ($len:expr, $kernel:ident($($arg:expr),*)) => {
        on_simd!(@tier if $len < MIN_SIMD_LEN { 0 } else { simd_level() }, $kernel($($arg),*))
    };
}

#[cfg(test)]
pub(crate) use tests::{at_tier, host_tiers};

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
    let tier = simd_level();
    #[cfg(not(target_arch = "x86_64"))]
    let tier = 0;
    ["scalar", "avx2+fma", "avx512f"][usize::from(tier)]
}

/// Dot product `Σ aᵢ bᵢ`.
///
/// # Panics
/// Panics when the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    // SAFETY: the assert above makes `b` as long as `a`.
    if let Some(s) = unsafe { on_simd!(a.len(), dot(a, b)) } {
        return s;
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
pub(crate) fn row_dots(b: &[f64], ldb: usize, d: usize, nrows: usize, y: &[f64], out: &mut [f64]) {
    assert_eq!(y.len(), d, "row_dots: y length mismatch");
    assert_eq!(out.len(), nrows, "row_dots: out length mismatch");
    assert_rows("row_dots", b.len(), nrows, ldb, d);
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    // SAFETY: the asserts above bound `y` and every row of `b`.
    if unsafe { on_simd!(d, row_dots(b, ldb, y, &mut *out)) }.is_some() {
        return;
    }
    for (j, o) in out.iter_mut().enumerate() {
        *o = scalar_dot(&b[j * ldb..j * ldb + d], y);
    }
}

/// Asserts that `rows` rows of length `len` at stride `ld` lie within a
/// buffer of `buf` elements.
#[track_caller]
fn assert_rows(op: &str, buf: usize, rows: usize, ld: usize, len: usize) {
    assert!(len <= ld || rows <= 1, "{op}: stride shorter than row");
    let end = rows.checked_sub(1).map_or(0, |last| last * ld + len);
    assert!(end <= buf, "{op}: rows out of bounds");
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
    #[allow(unsafe_code)]
    // SAFETY: the asserts above bound every row and output.
    if unsafe { on_simd!(d, block_dots(basis, ys, d, &mut *dots, &mut *norms_sq)) }.is_some() {
        return;
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
pub(crate) fn dots4x4(a: [&[f64]; 4], b: [&[f64]; 4]) -> [[f64; 4]; 4] {
    let n = a[0].len();
    assert!(
        a.iter().chain(&b).all(|s| s.len() == n),
        "dots4x4: length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    // SAFETY: the assert above gives all eight slices one length.
    if let Some(tile) = unsafe { on_simd!(n, dots4x4(a, b)) } {
        return tile;
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
/// `ldo`. Returns `false` without touching `out` when no SIMD tier is
/// available — the caller must then run its scalar path.
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
pub(crate) fn gemm4(
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
    let a = [a0, a1, a2, a3];
    assert_gemm(&a, b, ldb, n, out, ldo);
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    // SAFETY: `assert_gemm` bounds every access to `a`, `b` and `out`.
    if unsafe { on_simd!(@tier simd_level(), gemm4(a, b, ldb, n, out, ldo)) }.is_some() {
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
/// element; column tiles of eight and four lanes follow, and the last
/// `n % 4` columns run [`gemm4`]'s scalar loop. On AVX2 it *is* the two
/// [`gemm4`] calls.
///
/// # Panics
/// Panics when the row lengths disagree or `b`/`out` are too short for the
/// strides.
pub(crate) fn gemm8(
    a: [&[f64]; 8],
    b: &[f64],
    ldb: usize,
    n: usize,
    out: &mut [f64],
    ldo: usize,
) -> bool {
    assert_gemm(&a, b, ldb, n, out, ldo);
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    // SAFETY: `assert_gemm` bounds every access to `a`, `b` and `out`.
    if unsafe { on_simd!(@tier simd_level(), gemm8(a, b, ldb, n, out, ldo)) }.is_some() {
        return true;
    }
    false
}

/// The shape checks of [`gemm4`] (`R = 4`) and [`gemm8`].
fn assert_gemm<const R: usize>(
    a: &[&[f64]; R],
    b: &[f64],
    ldb: usize,
    n: usize,
    out: &[f64],
    ldo: usize,
) {
    let kdim = a[0].len();
    assert!(
        a.iter().all(|r| r.len() == kdim),
        "gemm{R}: a-row length mismatch"
    );
    assert_rows("gemm: b", b.len(), kdim, ldb, n);
    assert_rows("gemm: out", out.len(), R, ldo, n);
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
pub(crate) fn gram4_upper(
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
    #[allow(unsafe_code)]
    // SAFETY: the asserts above give every row length `d` and `g` `d × d` entries.
    if unsafe { on_simd!(@tier simd_level(), gram4_upper([x0, x1, x2, x3], g)) }.is_some() {
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
    #[allow(unsafe_code)]
    // SAFETY: the assert above makes `x` as long as `y`.
    if unsafe { on_simd!(y.len(), axpy(alpha, x, &mut *y)) }.is_some() {
        return;
    }
    scalar_axpy(alpha, x, y)
}

#[inline]
fn scalar_axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
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
pub(crate) fn axpy4(
    alpha: [f64; 4],
    x0: &[f64],
    x1: &[f64],
    x2: &[f64],
    x3: &[f64],
    y: &mut [f64],
) {
    let n = y.len();
    assert!(
        x0.len() == n && x1.len() == n && x2.len() == n && x3.len() == n,
        "axpy4: length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    // SAFETY: the assert above makes every row as long as `y`.
    if unsafe { on_simd!(n, axpy4(alpha, [x0, x1, x2, x3], &mut *y)) }.is_some() {
        return;
    }
    scalar_axpy4(alpha, x0, x1, x2, x3, y)
}

#[inline]
fn scalar_axpy4(alpha: [f64; 4], x0: &[f64], x1: &[f64], x2: &[f64], x3: &[f64], y: &mut [f64]) {
    let n = y.len();
    let (x0, x1, x2, x3) = (&x0[..n], &x1[..n], &x2[..n], &x3[..n]);
    for (i, yi) in y.iter_mut().enumerate() {
        *yi = *yi + alpha[0] * x0[i] + alpha[1] * x1[i] + alpha[2] * x2[i] + alpha[3] * x3[i];
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
/// coefficients. Four rows share each load of `x`, `y` and `v`. The tiers
/// sum in different orders, so they agree to rounding.
///
/// # Panics
/// Panics unless `b` has `cd`'s length, `y` and `v` have `x`'s, and `block`
/// holds `cd.len()` rows of stride `ld ≥ len`.
pub(crate) fn update_rows_dots(
    block: &mut [f64],
    ld: usize,
    x: &[f64],
    by: Option<(&[f64], &[f64])>,
    v: &[f64],
    cd: &mut [f64],
) {
    let (rows, len) = (cd.len(), x.len());
    assert_eq!(v.len(), len, "update_rows_dots: length mismatch");
    assert!(
        by.is_none_or(|(b, y)| b.len() == rows && y.len() == len),
        "update_rows_dots: length mismatch"
    );
    assert_rows("update_rows_dots", block.len(), rows, ld, len);
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    // SAFETY: the asserts above bound every row of `block`, and `b`, `y` and `v`.
    if unsafe { on_simd!(len, update_rows_dots(&mut *block, ld, x, by, v, &mut *cd)) }.is_some() {
        return;
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
pub(crate) fn max_abs_finite(x: &[f64]) -> (f64, bool) {
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    // SAFETY: the kernel reads `x` only.
    if let Some(found) = unsafe { on_simd!(x.len(), max_abs_finite(x)) } {
        return found;
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
    #[allow(unsafe_code)]
    // SAFETY: the assert above makes `y` as long as `x`.
    if unsafe { on_simd!(x.len(), rot(&mut *x, &mut *y, c, s)) }.is_some() {
        return;
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

/// The SIMD tiers: a lane trait with one impl per x86-64 tier, each kernel
/// written once as a body generic over it, and one thin `#[target_feature]`
/// wrapper per tier for each (`simd::avx2::dot`, `simd::avx512::dot`, …),
/// entered through [`on_simd!`]. Kept in one module so the crate-level
/// `deny(unsafe_code)` has exactly one sanctioned exception.
///
/// Invariants the public wrappers rely on:
/// * a tier's wrapper is entered only on a CPU that reported its features:
///   the cached tier never exceeds the detected one, and tests pin or call
///   only tiers the CPU has;
/// * each body indexes only what its public wrapper asserted;
/// * where a tier ends a row with a scalar loop, the loop starts after the
///   last whole register and multiplies then adds without fusing, as the
///   scalar kernels do — so [`axpy4`] stays bitwise four [`axpy`] calls.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use std::arch::x86_64::*;

    /// One register of `f64` lanes on one tier, and the operations the
    /// kernel bodies are written in. Every method is `#[inline(always)]`
    /// and enables no feature of its own: it is only ever inlined into a
    /// tier's `#[target_feature]` wrapper, whose features its intrinsics
    /// need.
    ///
    /// # Safety
    /// Every method requires the tier's CPU features, and the loads and
    /// stores need `N` (or `m`) readable or writable lanes at `p`.
    pub(crate) trait Lanes {
        /// Lanes per register.
        const N: usize;
        /// Whether the tier has masked loads and stores: a body that may end
        /// a row with one partial step ([`Lanes::load_n`]) takes it on a
        /// tier with them, and a scalar loop on one without.
        const MASKED: bool;
        /// The register.
        type V: Copy;
        unsafe fn zero() -> Self::V;
        unsafe fn splat(x: f64) -> Self::V;
        unsafe fn load(p: *const f64) -> Self::V;
        unsafe fn store(p: *mut f64, v: Self::V);
        /// Lanes `..m` at `p` (`m ≤ N`), the others zero. A tier without
        /// masked loads keeps this default and is only asked for whole
        /// registers (`m == N`).
        #[inline(always)]
        unsafe fn load_n(p: *const f64, _m: usize) -> Self::V {
            Self::load(p)
        }
        /// Lanes `..m` of `v` to `p`, as [`Lanes::load_n`].
        #[inline(always)]
        unsafe fn store_n(p: *mut f64, _m: usize, v: Self::V) {
            Self::store(p, v)
        }
        /// `a·b + c`, rounded once.
        unsafe fn fma(a: Self::V, b: Self::V, c: Self::V) -> Self::V;
        /// `c − a·b`, rounded once.
        unsafe fn fnmadd(a: Self::V, b: Self::V, c: Self::V) -> Self::V;
        /// `a·b − c`, rounded once.
        unsafe fn fmsub(a: Self::V, b: Self::V, c: Self::V) -> Self::V;
        unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
        /// Lanewise maximum, `b` where either lane is NaN (x86 `maxpd`).
        unsafe fn max(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn abs(v: Self::V) -> Self::V;
        /// The sum of the lanes, in the tier's fixed order.
        unsafe fn hsum(v: Self::V) -> f64;
        /// The largest lane (none NaN).
        unsafe fn hmax(v: Self::V) -> f64;
    }

    /// AVX2+FMA: four lanes; rows end in a scalar loop.
    pub(crate) struct Avx2;

    impl Lanes for Avx2 {
        const N: usize = 4;
        const MASKED: bool = false;
        type V = __m256d;
        #[inline(always)]
        unsafe fn zero() -> __m256d {
            _mm256_setzero_pd()
        }
        #[inline(always)]
        unsafe fn splat(x: f64) -> __m256d {
            _mm256_set1_pd(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> __m256d {
            _mm256_loadu_pd(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f64, v: __m256d) {
            _mm256_storeu_pd(p, v)
        }
        #[inline(always)]
        unsafe fn fma(a: __m256d, b: __m256d, c: __m256d) -> __m256d {
            _mm256_fmadd_pd(a, b, c)
        }
        #[inline(always)]
        unsafe fn fnmadd(a: __m256d, b: __m256d, c: __m256d) -> __m256d {
            _mm256_fnmadd_pd(a, b, c)
        }
        #[inline(always)]
        unsafe fn fmsub(a: __m256d, b: __m256d, c: __m256d) -> __m256d {
            _mm256_fmsub_pd(a, b, c)
        }
        #[inline(always)]
        unsafe fn mul(a: __m256d, b: __m256d) -> __m256d {
            _mm256_mul_pd(a, b)
        }
        #[inline(always)]
        unsafe fn add(a: __m256d, b: __m256d) -> __m256d {
            _mm256_add_pd(a, b)
        }
        #[inline(always)]
        unsafe fn max(a: __m256d, b: __m256d) -> __m256d {
            _mm256_max_pd(a, b)
        }
        #[inline(always)]
        unsafe fn abs(v: __m256d) -> __m256d {
            _mm256_andnot_pd(_mm256_set1_pd(-0.0), v)
        }
        /// `(l0 + l2) + (l1 + l3)`.
        #[inline(always)]
        unsafe fn hsum(v: __m256d) -> f64 {
            let pair = _mm_add_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
            _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)))
        }
        #[inline(always)]
        unsafe fn hmax(v: __m256d) -> f64 {
            let pair = _mm_max_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
            _mm_cvtsd_f64(_mm_max_sd(pair, _mm_unpackhi_pd(pair, pair)))
        }
    }

    /// AVX-512F: eight lanes; rows end in one masked step.
    pub(crate) struct Avx512;

    impl Lanes for Avx512 {
        const N: usize = 8;
        const MASKED: bool = true;
        type V = __m512d;
        #[inline(always)]
        unsafe fn zero() -> __m512d {
            _mm512_setzero_pd()
        }
        #[inline(always)]
        unsafe fn splat(x: f64) -> __m512d {
            _mm512_set1_pd(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> __m512d {
            _mm512_loadu_pd(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f64, v: __m512d) {
            _mm512_storeu_pd(p, v)
        }
        #[inline(always)]
        unsafe fn load_n(p: *const f64, m: usize) -> __m512d {
            _mm512_maskz_loadu_pd(u8::MAX >> (8 - m), p)
        }
        #[inline(always)]
        unsafe fn store_n(p: *mut f64, m: usize, v: __m512d) {
            _mm512_mask_storeu_pd(p, u8::MAX >> (8 - m), v)
        }
        #[inline(always)]
        unsafe fn fma(a: __m512d, b: __m512d, c: __m512d) -> __m512d {
            _mm512_fmadd_pd(a, b, c)
        }
        #[inline(always)]
        unsafe fn fnmadd(a: __m512d, b: __m512d, c: __m512d) -> __m512d {
            _mm512_fnmadd_pd(a, b, c)
        }
        #[inline(always)]
        unsafe fn fmsub(a: __m512d, b: __m512d, c: __m512d) -> __m512d {
            _mm512_fmsub_pd(a, b, c)
        }
        #[inline(always)]
        unsafe fn mul(a: __m512d, b: __m512d) -> __m512d {
            _mm512_mul_pd(a, b)
        }
        #[inline(always)]
        unsafe fn add(a: __m512d, b: __m512d) -> __m512d {
            _mm512_add_pd(a, b)
        }
        #[inline(always)]
        unsafe fn max(a: __m512d, b: __m512d) -> __m512d {
            _mm512_max_pd(a, b)
        }
        #[inline(always)]
        unsafe fn abs(v: __m512d) -> __m512d {
            _mm512_abs_pd(v)
        }
        #[inline(always)]
        unsafe fn hsum(v: __m512d) -> f64 {
            _mm512_reduce_add_pd(v)
        }
        #[inline(always)]
        unsafe fn hmax(v: __m512d) -> f64 {
            _mm512_reduce_max_pd(v)
        }
    }

    /// One thin `#[target_feature]` wrapper per tier for each kernel body
    /// `name::<L>` below: `avx2::name` instantiates it on [`Avx2`] lanes,
    /// and `avx512::name` on the lanes in brackets — [`Avx512`], or
    /// [`Avx2`] for a kernel that stays on 256-bit lanes. The arguments
    /// keep the public kernel's shape, so they pass in registers.
    macro_rules! tiers {
        ($($name:ident[$wide:ident]($($arg:ident: $ty:ty),*) $(-> $out:ty)?;)*) => {
            /// The AVX2+FMA tier.
            pub(crate) mod avx2 {
                $(
                    /// # Safety
                    /// The CPU has AVX2 and FMA, and the arguments have the
                    /// shapes the public kernel asserts.
                    #[target_feature(enable = "avx2", enable = "fma")]
                    pub(crate) unsafe fn $name($($arg: $ty),*) $(-> $out)? {
                        super::$name::<super::Avx2>($($arg),*)
                    }
                )*
            }
            /// The AVX-512F tier.
            pub(crate) mod avx512 {
                $(
                    /// # Safety
                    /// The CPU has AVX-512F, and the arguments have the
                    /// shapes the public kernel asserts.
                    #[target_feature(enable = "avx512f")]
                    pub(crate) unsafe fn $name($($arg: $ty),*) $(-> $out)? {
                        super::$name::<super::$wide>($($arg),*)
                    }
                )*
            }
        };
    }

    tiers! {
        dot[Avx512](a: &[f64], b: &[f64]) -> f64;
        row_dots[Avx512](b: &[f64], ldb: usize, y: &[f64], out: &mut [f64]);
        block_dots[Avx512](basis: &[f64], ys: &[f64], d: usize, dots: &mut [f64], sq: &mut [f64]);
        dots4x4[Avx512](a: [&[f64]; 4], b: [&[f64]; 4]) -> [[f64; 4]; 4];
        gemm4[Avx2](a: [&[f64]; 4], b: &[f64], ldb: usize, n: usize, out: &mut [f64], ldo: usize);
        gemm8[Avx512](a: [&[f64]; 8], b: &[f64], ldb: usize, n: usize, out: &mut [f64], ldo: usize);
        gram4_upper[Avx2](x: [&[f64]; 4], g: &mut [f64]);
        axpy[Avx2](alpha: f64, x: &[f64], y: &mut [f64]);
        axpy4[Avx2](alpha: [f64; 4], x: [&[f64]; 4], y: &mut [f64]);
        update_rows_dots[Avx512](
            block: &mut [f64],
            ld: usize,
            x: &[f64],
            by: Option<(&[f64], &[f64])>,
            v: &[f64],
            cd: &mut [f64]
        );
        max_abs_finite[Avx512](x: &[f64]) -> (f64, bool);
        rot[Avx512](x: &mut [f64], y: &mut [f64], c: f64, s: f64);
    }

    /// [`super::dot`]: four accumulators over blocks of four registers,
    /// whole registers into the first, the fixed reduction
    /// `(0 + 1) + (2 + 3)`, the tier's horizontal sum, then the scalar tail.
    ///
    /// # Safety
    /// `L`'s features are enabled, and `b` is at least as long as `a`.
    #[inline(always)]
    unsafe fn dot<L: Lanes>(a: &[f64], b: &[f64]) -> f64 {
        let (n, ap, bp) = (a.len(), a.as_ptr(), b.as_ptr());
        let mut acc = [L::zero(); 4];
        let mut i = 0;
        while i + 4 * L::N <= n {
            for (c, acc) in acc.iter_mut().enumerate() {
                let k = i + c * L::N;
                *acc = L::fma(L::load(ap.add(k)), L::load(bp.add(k)), *acc);
            }
            i += 4 * L::N;
        }
        while i + L::N <= n {
            acc[0] = L::fma(L::load(ap.add(i)), L::load(bp.add(i)), acc[0]);
            i += L::N;
        }
        let mut s = L::hsum(L::add(L::add(acc[0], acc[1]), L::add(acc[2], acc[3])));
        for i in i..n {
            s += *ap.add(i) * *bp.add(i);
        }
        s
    }

    /// [`super::row_dots`]: one [`dot`] per row of stride `ldb`.
    ///
    /// # Safety
    /// `L`'s features are enabled, and `b` holds `out.len()` rows of
    /// stride `ldb` and length `y.len()`.
    #[inline(always)]
    unsafe fn row_dots<L: Lanes>(b: &[f64], ldb: usize, y: &[f64], out: &mut [f64]) {
        for (j, out) in out.iter_mut().enumerate() {
            *out = dot::<L>(b.get_unchecked(j * ldb..j * ldb + y.len()), y);
        }
    }

    /// [`super::block_dots`]: `k + 1` [`dot`]s per row.
    ///
    /// # Safety
    /// `L`'s features are enabled, `basis` and `ys` hold whole rows of `d`,
    /// and `dots` and `norms_sq` one output per dot.
    #[inline(always)]
    unsafe fn block_dots<L: Lanes>(
        basis: &[f64],
        ys: &[f64],
        d: usize,
        dots: &mut [f64],
        norms_sq: &mut [f64],
    ) {
        let k = basis.len() / d;
        for (i, norm_sq) in norms_sq.iter_mut().enumerate() {
            let y = ys.get_unchecked(i * d..(i + 1) * d);
            for j in 0..k {
                let row = basis.get_unchecked(j * d..(j + 1) * d);
                *dots.get_unchecked_mut(i * k + j) = dot::<L>(row, y);
            }
            *norm_sq = dot::<L>(y, y);
        }
    }

    /// [`super::dots4x4`], its columns in groups of `C`: all four (sixteen
    /// accumulators) in AVX-512's 32 registers, two at a time in AVX2's 16.
    ///
    /// # Safety
    /// `L`'s features are enabled, and all eight slices share one length.
    #[inline(always)]
    unsafe fn dots4x4<L: Lanes>(a: [&[f64]; 4], b: [&[f64]; 4]) -> [[f64; 4]; 4] {
        if L::N == 8 {
            return dots4xc::<L, 4>(a, b);
        }
        let lo = dots4xc::<L, 2>(a, [b[0], b[1]]);
        let hi = dots4xc::<L, 2>(a, [b[2], b[3]]);
        std::array::from_fn(|r| [lo[r][0], lo[r][1], hi[r][0], hi[r][1]])
    }

    /// The `4 × C` tile of dots: each entry's accumulator takes one FMA per
    /// register of columns and is reduced once by the tier's horizontal
    /// sum; the scalar tail adds.
    ///
    /// # Safety
    /// As [`dots4x4`].
    #[inline(always)]
    unsafe fn dots4xc<L: Lanes, const C: usize>(a: [&[f64]; 4], b: [&[f64]; C]) -> [[f64; C]; 4] {
        let n = a[0].len();
        let (ap, bp) = (a.map(<[f64]>::as_ptr), b.map(<[f64]>::as_ptr));
        let mut acc = [[L::zero(); C]; 4];
        let (mut av, mut bv) = ([L::zero(); 4], [L::zero(); C]);
        let mut k = 0;
        while k + L::N <= n {
            for r in 0..4 {
                av[r] = L::load(ap[r].add(k));
            }
            for c in 0..C {
                bv[c] = L::load(bp[c].add(k));
            }
            for r in 0..4 {
                for c in 0..C {
                    acc[r][c] = L::fma(av[r], bv[c], acc[r][c]);
                }
            }
            k += L::N;
        }
        let mut out = [[0.0f64; C]; 4];
        for r in 0..4 {
            for c in 0..C {
                let mut s = L::hsum(acc[r][c]);
                for i in k..n {
                    s += *ap[r].add(i) * *bp[c].add(i);
                }
                out[r][c] = s;
            }
        }
        out
    }

    /// [`super::gemm4`]: the four-row tile, on 256-bit lanes on both tiers.
    ///
    /// # Safety
    /// `L`'s features are enabled, the rows of `a` share one length `kdim`,
    /// `b` holds `kdim` rows of stride `ldb ≥ n`, and `out` four rows of
    /// stride `ldo ≥ n`.
    #[inline(always)]
    unsafe fn gemm4<L: Lanes>(
        a: [&[f64]; 4],
        b: &[f64],
        ldb: usize,
        n: usize,
        out: &mut [f64],
        ldo: usize,
    ) {
        let (kdim, b, out) = (a[0].len(), b.as_ptr(), out.as_mut_ptr());
        gemm::<L, 4>(
            a.map(<[f64]>::as_ptr),
            Panel {
                kdim,
                b,
                ldb,
                n,
                out,
                ldo,
            },
        );
    }

    /// [`super::gemm8`]. Sixteen accumulators hold a tile of `R` rows × two
    /// registers: all eight rows on AVX-512, four at a time on AVX2.
    ///
    /// # Safety
    /// As [`gemm4`], for eight rows.
    #[inline(always)]
    unsafe fn gemm8<L: Lanes>(
        a: [&[f64]; 8],
        b: &[f64],
        ldb: usize,
        n: usize,
        out: &mut [f64],
        ldo: usize,
    ) {
        let (kdim, b, out) = (a[0].len(), b.as_ptr(), out.as_mut_ptr());
        let (a, p) = (
            a.map(<[f64]>::as_ptr),
            Panel {
                kdim,
                b,
                ldb,
                n,
                out,
                ldo,
            },
        );
        if L::N == 8 {
            return gemm::<L, 8>(a, p);
        }
        for q in 0..2 {
            let out = out.add(4 * q * ldo);
            gemm::<L, 4>(std::array::from_fn(|r| a[4 * q + r]), Panel { out, ..p });
        }
    }

    /// What a gemm tile sweeps: `kdim` rows of `b` (stride `ldb`) and the
    /// `n` columns of the rows of `out` (stride `ldo`).
    #[derive(Clone, Copy)]
    struct Panel {
        kdim: usize,
        b: *const f64,
        ldb: usize,
        n: usize,
        out: *mut f64,
        ldo: usize,
    }

    /// `out[r][j] += Σ_k a_r[k]·b[k][j]`: column tiles of two registers,
    /// then of one, then of one four-lane register, so every tier leaves
    /// exactly the last `n % 4` columns to the scalar loop. In a tile each
    /// element's accumulator starts at zero, takes one FMA per `k` in order
    /// and is added to `out` once; in the scalar loop the FMAs go into
    /// `out` directly. An element's bits thus do not depend on the tier or
    /// the tile, which makes [`super::gemm8`] bitwise two `gemm4` calls.
    ///
    /// # Safety
    /// `L`'s and AVX2's features are enabled, each `a[r]` points at `kdim`
    /// values, and `p` holds the shapes [`gemm4`] requires for `R` rows.
    #[inline(always)]
    unsafe fn gemm<L: Lanes, const R: usize>(a: [*const f64; R], p: Panel) {
        let mut j = gemm_tiles::<L, R, 2>(&a, p, 0);
        j = gemm_tiles::<L, R, 1>(&a, p, j);
        j = gemm_tiles::<Avx2, R, 1>(&a, p, j);
        for j in j..p.n {
            for (r, a) in a.iter().enumerate() {
                let o = p.out.add(r * p.ldo + j);
                let mut s = *o;
                for k in 0..p.kdim {
                    s = (*a.add(k)).mul_add(*p.b.add(k * p.ldb + j), s);
                }
                *o = s;
            }
        }
    }

    /// Tiles of `V` registers of columns from column `j` on while whole ones
    /// fit; returns the first column left.
    ///
    /// # Safety
    /// As [`gemm`].
    #[inline(always)]
    unsafe fn gemm_tiles<L: Lanes, const R: usize, const V: usize>(
        a: &[*const f64; R],
        p: Panel,
        mut j: usize,
    ) -> usize {
        while j + V * L::N <= p.n {
            let mut acc = [[L::zero(); V]; R];
            let mut bv = [L::zero(); V];
            for k in 0..p.kdim {
                for (v, bv) in bv.iter_mut().enumerate() {
                    *bv = L::load(p.b.add(k * p.ldb + j + v * L::N));
                }
                for (acc, a) in acc.iter_mut().zip(a) {
                    let x = L::splat(*a.add(k));
                    for (acc, &bv) in acc.iter_mut().zip(&bv) {
                        *acc = L::fma(x, bv, *acc);
                    }
                }
            }
            for (r, acc) in acc.iter().enumerate() {
                for (v, &acc) in acc.iter().enumerate() {
                    let o = p.out.add(r * p.ldo + j + v * L::N);
                    L::store(o, L::add(L::load(o), acc));
                }
            }
            j += V * L::N;
        }
        j
    }

    /// [`super::gram4_upper`]: one [`axpy4`] per row of `g`.
    ///
    /// # Safety
    /// `L`'s features are enabled, the four rows share one length `d`, and
    /// `g` holds `d × d` values.
    #[inline(always)]
    unsafe fn gram4_upper<L: Lanes>(x: [&[f64]; 4], g: &mut [f64]) {
        let d = x[0].len();
        for i in 0..d {
            let alpha = [x[0][i], x[1][i], x[2][i], x[3][i]];
            let tails = [&x[0][i..], &x[1][i..], &x[2][i..], &x[3][i..]];
            axpy4::<L>(alpha, tails, g.get_unchecked_mut(i * d + i..(i + 1) * d));
        }
    }

    /// [`super::axpy`]: one FMA per element, two registers a step so their
    /// loads issue before either store, then the scalar tail.
    ///
    /// # Safety
    /// `L`'s features are enabled, and `x` is at least as long as `y`.
    #[inline(always)]
    unsafe fn axpy<L: Lanes>(alpha: f64, x: &[f64], y: &mut [f64]) {
        let (n, xp, yp) = (y.len(), x.as_ptr(), y.as_mut_ptr());
        let a = L::splat(alpha);
        let mut i = 0;
        while i + 2 * L::N <= n {
            let (x0, x1) = (L::load(xp.add(i)), L::load(xp.add(i + L::N)));
            let (y0, y1) = (L::load(yp.add(i)), L::load(yp.add(i + L::N)));
            L::store(yp.add(i), L::fma(a, x0, y0));
            L::store(yp.add(i + L::N), L::fma(a, x1, y1));
            i += 2 * L::N;
        }
        while i + L::N <= n {
            L::store(yp.add(i), L::fma(a, L::load(xp.add(i)), L::load(yp.add(i))));
            i += L::N;
        }
        for i in i..n {
            *yp.add(i) += alpha * *xp.add(i);
        }
    }

    /// [`super::axpy4`]: per element the FMAs nest in row order, and the
    /// scalar tail multiplies then adds per row, so the result is bitwise
    /// four sequential `axpy` calls.
    ///
    /// # Safety
    /// `L`'s features are enabled, and every `x[r]` is at least as long as
    /// `y`.
    #[inline(always)]
    unsafe fn axpy4<L: Lanes>(alpha: [f64; 4], x: [&[f64]; 4], y: &mut [f64]) {
        let (n, yp) = (y.len(), y.as_mut_ptr());
        let mut a = [L::zero(); 4];
        for (a, &alpha) in a.iter_mut().zip(&alpha) {
            *a = L::splat(alpha);
        }
        let mut i = 0;
        while i + L::N <= n {
            let mut v = L::load(yp.add(i));
            for (&a, x) in a.iter().zip(&x) {
                v = L::fma(a, L::load(x.as_ptr().add(i)), v);
            }
            L::store(yp.add(i), v);
            i += L::N;
        }
        for i in i..n {
            let mut v = *yp.add(i);
            for (&alpha, x) in alpha.iter().zip(&x) {
                v += alpha * *x.get_unchecked(i);
            }
            *yp.add(i) = v;
        }
    }

    /// [`super::update_rows_dots`]: four rows at a time share every load of
    /// `x`, `y` and `v`, and each row keeps one dot accumulator.
    ///
    /// # Safety
    /// `L`'s features are enabled, `block` holds `cd.len()` rows of stride
    /// `ld ≥ x.len()`, `v` and any `y` are as long as `x`, and any `b` as
    /// `cd`.
    #[inline(always)]
    unsafe fn update_rows_dots<L: Lanes>(
        block: &mut [f64],
        ld: usize,
        x: &[f64],
        by: Option<(&[f64], &[f64])>,
        v: &[f64],
        cd: &mut [f64],
    ) {
        let (b, y) = by.unwrap_or((&[], x));
        let mut p = RowUpdate {
            block: block.as_mut_ptr(),
            ld,
            x,
            b,
            y,
            v,
            cd,
        };
        let rows = p.cd.len();
        let mut j = 0;
        while j < rows {
            let four = rows - j >= 4;
            match (four, by.is_some()) {
                (true, true) => update_rows::<L, 4, true>(&mut p, j),
                (true, false) => update_rows::<L, 4, false>(&mut p, j),
                (false, true) => update_rows::<L, 1, true>(&mut p, j),
                (false, false) => update_rows::<L, 1, false>(&mut p, j),
            }
            j += if four { 4 } else { 1 };
        }
    }

    /// The operands of [`update_rows_dots`]; when the update is rank-1, `b`
    /// is empty and `y` is `x`, read but not applied.
    struct RowUpdate<'a> {
        block: *mut f64,
        ld: usize,
        x: &'a [f64],
        b: &'a [f64],
        y: &'a [f64],
        v: &'a [f64],
        cd: &'a mut [f64],
    }

    /// Rows `j0..j0 + R`; `RANK2` applies the second term. Each row's
    /// coefficient is read before its dot is written back over it. A tier
    /// with masked loads ends the row in one partial step, one without in a
    /// scalar loop.
    ///
    /// # Safety
    /// As [`update_rows_dots`], with rows `j0..j0 + R` in `p.cd`.
    #[inline(always)]
    unsafe fn update_rows<L: Lanes, const R: usize, const RANK2: bool>(
        p: &mut RowUpdate,
        j0: usize,
    ) {
        let RowUpdate {
            block,
            ld,
            x,
            b,
            y,
            v,
            ..
        } = *p;
        let len = x.len();
        let rows: [*mut f64; R] = std::array::from_fn(|r| block.add((j0 + r) * ld));
        let cd = p.cd.get_unchecked_mut(j0..j0 + R);
        let (mut ca, mut cb, mut acc) = ([L::zero(); R], [L::zero(); R], [L::zero(); R]);
        for r in 0..R {
            ca[r] = L::splat(cd[r]);
            if RANK2 {
                cb[r] = L::splat(b[j0 + r]);
            }
        }
        let vector_end = if L::MASKED { len } else { len - len % L::N };
        let mut k = 0;
        while k < vector_end {
            let m = L::N.min(vector_end - k);
            let xv = L::load_n(x.as_ptr().add(k), m);
            let vv = L::load_n(v.as_ptr().add(k), m);
            let yv = L::load_n(y.as_ptr().add(k), m);
            for r in 0..R {
                let mut e = L::fnmadd(ca[r], xv, L::load_n(rows[r].add(k), m));
                if RANK2 {
                    e = L::fnmadd(cb[r], yv, e);
                }
                L::store_n(rows[r].add(k), m, e);
                acc[r] = L::fma(e, vv, acc[r]);
            }
            k += m;
        }
        for (r, c) in cd.iter_mut().enumerate() {
            let mut dot = L::hsum(acc[r]);
            for i in vector_end..len {
                let e = rows[r].add(i);
                *e -= *c * x[i];
                if RANK2 {
                    *e -= b[j0 + r] * y[i];
                }
                dot += *e * v[i];
            }
            *c = dot;
        }
    }

    /// [`super::max_abs_finite`]: four chains of lanewise maxima and of
    /// NaN/∞ detectors. `max(v, m)` keeps `m` where `v` is NaN, so a NaN
    /// entry is skipped as `f64::max` skips it; `v·0 + bad` turns NaN at the
    /// first NaN or ±∞ and stays ±0 before it. A masked step's padding
    /// lanes read as zero, which moves neither result.
    ///
    /// # Safety
    /// `L`'s features are enabled.
    #[inline(always)]
    unsafe fn max_abs_finite<L: Lanes>(x: &[f64]) -> (f64, bool) {
        let (n, p, zero) = (x.len(), x.as_ptr(), L::zero());
        let (mut m, mut bad) = ([zero; 4], [zero; 4]);
        let mut i = 0;
        while i + 4 * L::N <= n {
            for c in 0..4 {
                let v = L::abs(L::load(p.add(i + c * L::N)));
                m[c] = L::max(v, m[c]);
                bad[c] = L::fma(v, zero, bad[c]);
            }
            i += 4 * L::N;
        }
        while i < n && (L::MASKED || i + L::N <= n) {
            let step = L::N.min(n - i);
            let v = L::abs(L::load_n(p.add(i), step));
            m[0] = L::max(v, m[0]);
            bad[0] = L::fma(v, zero, bad[0]);
            i += step;
        }
        let mut s = L::hmax(L::max(L::max(m[0], m[1]), L::max(m[2], m[3])));
        let mut finite = L::hsum(L::add(L::add(bad[0], bad[1]), L::add(bad[2], bad[3]))) == 0.0;
        for &v in x.get_unchecked(i..) {
            s = s.max(v.abs());
            finite &= v.is_finite();
        }
        (s, finite)
    }

    /// [`super::rot`]: each output is one multiply feeding one FMA; the
    /// tail is the scalar rotation.
    ///
    /// # Safety
    /// `L`'s features are enabled, and `y` is at least as long as `x`.
    #[inline(always)]
    unsafe fn rot<L: Lanes>(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
        let (n, xp, yp) = (x.len(), x.as_mut_ptr(), y.as_mut_ptr());
        let (cv, sv) = (L::splat(c), L::splat(s));
        let mut i = 0;
        while i + L::N <= n {
            let (a, b) = (L::load(xp.add(i)), L::load(yp.add(i)));
            L::store(xp.add(i), L::fmsub(cv, a, L::mul(sv, b)));
            L::store(yp.add(i), L::fma(sv, a, L::mul(cv, b)));
            i += L::N;
        }
        super::scalar_rot(&mut x[i..], &mut y[i..], c, s);
    }
}

/// `y ← alpha * y`.
#[inline]
pub fn scale(alpha: f64, y: &mut [f64]) {
    for yi in y {
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
pub(crate) fn norm1(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// ℓ∞ norm `max |xᵢ|` (NaNs skipped): the magnitude half of
/// [`max_abs_finite`].
#[inline]
pub(crate) fn norm_inf(x: &[f64]) -> f64 {
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

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// The tier [`at_tier`] pins on this thread, ahead of the cached one.
        pub(super) static PINNED_TIER: std::cell::Cell<Option<u8>> =
            const { std::cell::Cell::new(None) };
    }

    /// The dispatch tiers this CPU can run, whatever `SKETCHAD_FORCE_SCALAR`
    /// asks: 0 (scalar), then 1 (AVX2+FMA) and 2 (AVX-512F) when detected.
    pub(crate) fn host_tiers() -> Vec<u8> {
        #[cfg(target_arch = "x86_64")]
        let simd = [
            std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma"),
            std::is_x86_feature_detected!("avx512f"),
        ];
        #[cfg(not(target_arch = "x86_64"))]
        let simd = [false; 2];
        (0..3u8)
            .take_while(|&t| t == 0 || simd[usize::from(t) - 1])
            .collect()
    }

    /// Runs `f` with every kernel called on this thread dispatched at
    /// `tier`, one of [`host_tiers`], so a test reaches each tier through
    /// the public kernels exactly as a host of that tier would.
    pub(crate) fn at_tier<R>(tier: u8, f: impl FnOnce() -> R) -> R {
        assert!(host_tiers().contains(&tier), "tier {tier} not on this CPU");
        let previous = PINNED_TIER.with(|p| p.replace(Some(tier)));
        let out = f();
        PINNED_TIER.with(|p| p.set(previous));
        out
    }

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
            // SAFETY (all four closures): each is pushed only when the CPU
            // has its tier, and the test hands it slices of the lengths the
            // public wrapper asserts.
            if host_tiers().contains(&1) {
                tiers.push((
                    "avx2+fma",
                    |b, _, y, d, o, n| unsafe { simd::avx2::block_dots(b, y, d, o, n) },
                    |a, b| unsafe { simd::avx2::dot(a, b) },
                ));
            }
            if host_tiers().contains(&2) {
                tiers.push((
                    "avx512f",
                    |b, _, y, d, o, n| unsafe { simd::avx512::block_dots(b, y, d, o, n) },
                    |a, b| unsafe { simd::avx512::dot(a, b) },
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
        for tier in host_tiers().into_iter().skip(1) {
            // SAFETY: the CPU has the tier; the kernel reads `x` only.
            let found = unsafe { on_simd!(@tier tier, max_abs_finite(x)) };
            let label = at_tier(tier, active_simd_tier);
            got.push((label, bits(found.expect("a SIMD tier"))));
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
    fn avx512_panel_tile_is_bitwise_the_avx2_tier() {
        if !host_tiers().contains(&2) {
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
                    let a = std::array::from_fn(|r| row(i + r));
                    simd::avx512::gemm8(a, &b, ldb, n, out, ldo);
                    i += 8;
                } else {
                    simd::avx512::gemm4(quad(i), &b, ldb, n, out, ldo);
                    i += 4;
                }
            }
        }
        for i in (0..m / 4 * 4).step_by(4) {
            let out = &mut narrow[i * ldo..];
            // SAFETY: as above.
            unsafe { simd::avx2::gemm4(quad(i), &b, ldb, n, out, ldo) };
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
        for tier in host_tiers().into_iter().skip(1) {
            let (mut got, mut cd) = (block.clone(), c.clone());
            // SAFETY: the CPU has the tier, and the shapes are the public
            // wrapper's.
            unsafe { on_simd!(@tier tier, update_rows_dots(&mut got, ld, &x, by, &v, &mut cd)) };
            check(at_tier(tier, active_simd_tier), &got, &cd);
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
    fn add_sub_roundtrip() {
        let a = [1.0, 2.0];
        let b = [0.5, -0.5];
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        assert_eq!(sub(&sum, &b), a.to_vec());
    }

    #[test]
    fn all_finite_detects_nan() {
        let row = |v: Vec<f64>| crate::Matrix::from_vec(1, v.len(), v).unwrap();
        assert!(row(vec![1.0, 2.0]).all_finite());
        assert!(!row(vec![1.0, f64::NAN]).all_finite());
        assert!(!row(vec![f64::INFINITY]).all_finite());
    }
}

//! Golden bits of every public `vecops` kernel and of the two kernels the
//! detector's refresh ends in, [`svd::right_factor`] and
//! [`eigen::eigen_sym`], on every dispatch tier this CPU has.
//!
//! Each case runs through the public dispatcher with the tier pinned
//! ([`vecops::at_tier`]), on fixed seeded inputs, and is folded into an
//! FNV-1a 64 hash of the outputs' `to_bits`. The expected hashes were
//! recorded per tier on an AVX-512 host; a tier this CPU lacks is not
//! checked. A kernel rewrite that moves one bit on any tier fails here with
//! the kernel and tier named.

use crate::{eigen, svd, vecops, Matrix};

/// Column lengths every kernel is swept over: each SIMD loop's tail and
/// both sides of the dispatch threshold, plus one long row.
fn lengths() -> impl Iterator<Item = usize> {
    (0..=80).chain([1024])
}

/// FNV-1a 64 over the little-endian bytes of the words fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn vals(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// Seeded values of mixed sign spread over five decades, from SplitMix64.
struct Inputs(u64);

impl Inputs {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        (2.0 * unit - 1.0) * 10f64.powi((z % 5) as i32 - 2)
    }

    fn vec(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next()).collect()
    }
}

type Case = fn(&mut Inputs, &mut Fnv);

fn dot(inp: &mut Inputs, h: &mut Fnv) {
    for n in lengths() {
        let (a, b) = (inp.vec(n), inp.vec(n));
        h.vals(&[vecops::dot(&a, &b)]);
    }
}

fn row_dots(inp: &mut Inputs, h: &mut Fnv) {
    for d in lengths() {
        for nrows in [0, 1, 5] {
            let ldb = d + 3;
            let (b, y) = (inp.vec(nrows * ldb), inp.vec(d));
            let mut out = vec![0.0; nrows];
            vecops::row_dots(&b, ldb, d, nrows, &y, &mut out);
            h.vals(&out);
        }
    }
}

fn block_dots(inp: &mut Inputs, h: &mut Fnv) {
    for d in lengths().filter(|&d| d > 0) {
        for k in [0, 1, 3, 5] {
            let (basis, ys) = (inp.vec(k * d), inp.vec(3 * d));
            let (mut dots, mut norms) = (vec![0.0; 3 * k], vec![0.0; 3]);
            vecops::block_dots(&basis, k, &ys, d, &mut dots, &mut norms);
            h.vals(&dots);
            h.vals(&norms);
        }
    }
}

fn dots4x4(inp: &mut Inputs, h: &mut Fnv) {
    for n in lengths() {
        let rows: Vec<Vec<f64>> = (0..8).map(|_| inp.vec(n)).collect();
        let quad = |o: usize| [0, 1, 2, 3].map(|r| rows[o + r].as_slice());
        for tile in [
            vecops::dots4x4(quad(0), quad(4)),
            vecops::dots4x4(quad(0), quad(0)),
        ] {
            h.vals(tile.as_flattened());
        }
    }
}

/// `gemm4` (`EIGHT == false`) or `gemm8` over `n` columns of strided
/// operands, for a few inner dimensions.
fn gemm<const EIGHT: bool>(inp: &mut Inputs, h: &mut Fnv) {
    let m = if EIGHT { 8 } else { 4 };
    for n in lengths() {
        for kdim in [0, 1, 7, 16] {
            let (ldb, ldo) = (n + 1, n + 2);
            let a: Vec<Vec<f64>> = (0..m).map(|_| inp.vec(kdim)).collect();
            let b = inp.vec(kdim.max(1) * ldb);
            let mut out = inp.vec(m * ldo);
            let tiled = if EIGHT {
                vecops::gemm8(
                    std::array::from_fn(|r| &a[r][..]),
                    &b,
                    ldb,
                    n,
                    &mut out,
                    ldo,
                )
            } else {
                vecops::gemm4(&a[0], &a[1], &a[2], &a[3], &b, ldb, n, &mut out, ldo)
            };
            h.word(u64::from(tiled));
            h.vals(&out);
        }
    }
}

fn gram4_upper(inp: &mut Inputs, h: &mut Fnv) {
    for d in lengths() {
        let x: Vec<Vec<f64>> = (0..4).map(|_| inp.vec(d)).collect();
        let mut g = inp.vec(d * d);
        let fused = vecops::gram4_upper(&x[0], &x[1], &x[2], &x[3], &mut g, d);
        h.word(u64::from(fused));
        h.vals(&g);
    }
}

fn axpy(inp: &mut Inputs, h: &mut Fnv) {
    for n in lengths() {
        let (alpha, x, mut y) = (inp.next(), inp.vec(n), inp.vec(n));
        vecops::axpy(alpha, &x, &mut y);
        h.vals(&y);
    }
}

fn axpy4(inp: &mut Inputs, h: &mut Fnv) {
    for n in lengths() {
        let alpha = [inp.next(), inp.next(), inp.next(), inp.next()];
        let x: Vec<Vec<f64>> = (0..4).map(|_| inp.vec(n)).collect();
        let mut y = inp.vec(n);
        vecops::axpy4(alpha, &x[0], &x[1], &x[2], &x[3], &mut y);
        h.vals(&y);
    }
}

/// `update_rows_dots` on strided blocks of 0, 1 and 6 rows (a four-row
/// group and single rows), rank-2 when `RANK2`.
fn update_rows_dots<const RANK2: bool>(inp: &mut Inputs, h: &mut Fnv) {
    for len in lengths() {
        for rows in [0, 1, 6] {
            let ld = len + 3;
            let mut block = inp.vec(rows * ld);
            let (x, v, mut cd) = (inp.vec(len), inp.vec(len), inp.vec(rows));
            let (b, y) = (inp.vec(rows), inp.vec(len));
            let by = RANK2.then_some((&b[..], &y[..]));
            vecops::update_rows_dots(&mut block, ld, &x, by, &v, &mut cd);
            h.vals(&block);
            h.vals(&cd);
        }
    }
}

fn max_abs_finite(inp: &mut Inputs, h: &mut Fnv) {
    let specials = [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        f64::from_bits(1),
        -f64::MIN_POSITIVE / 3.0,
    ];
    let mut fold = |x: &[f64]| {
        let (m, finite) = vecops::max_abs_finite(x);
        h.vals(&[m]);
        h.word(u64::from(finite));
    };
    for len in lengths() {
        let mixed = inp.vec(len);
        let zeros = vec![-0.0; len];
        for base in [&mixed, &zeros] {
            fold(base);
            for pos in [0, len / 2, len.saturating_sub(1)]
                .into_iter()
                .filter(|&p| p < len)
            {
                for &sp in &specials {
                    let mut x = base.clone();
                    x[pos] = sp;
                    fold(&x);
                }
            }
        }
    }
}

fn rot(inp: &mut Inputs, h: &mut Fnv) {
    for n in lengths() {
        let angle = inp.next();
        let (mut x, mut y) = (inp.vec(n), inp.vec(n));
        vecops::rot(&mut x, &mut y, angle.cos(), angle.sin());
        h.vals(&x);
        h.vals(&y);
    }
}

/// `right_factor` on a row prefix of nine shapes `(rows, cols, keep)`:
/// tall and wide, one with zero rows (an error), the FD workloads' `2ℓ × d`
/// buffers, and one past the Gram route's magnitude window.
fn right_factor(inp: &mut Inputs, h: &mut Fnv) {
    let shapes = [
        (0, 8, 2),
        (1, 1, 1),
        (3, 5, 2),
        (5, 3, 3),
        (8, 8, 4),
        (16, 48, 4),
        (64, 48, 4),
        (128, 256, 10),
        (7, 300, 3),
    ];
    let mut ws = svd::Workspace::default();
    for (i, (rows, cols, keep)) in shapes.into_iter().enumerate() {
        let scale = if i == 4 { 2f64.powi(600) } else { 1.0 };
        let data: Vec<f64> = inp
            .vec((rows + 2) * cols)
            .iter()
            .map(|v| v * scale)
            .collect();
        let a = Matrix::from_vec(rows + 2, cols, data).unwrap();
        match svd::right_factor(&a, rows, keep, &mut ws) {
            Ok(f) => {
                h.vals(f.scaled_sigma_sq());
                h.vals(&[f.unscale()]);
                h.word(f.resolved() as u64);
                h.vals(f.vt());
            }
            Err(_) => h.word(u64::MAX),
        }
    }
}

/// `eigen_sym` on symmetric matrices of nine orders, the empty one first.
fn eigen_sym(inp: &mut Inputs, h: &mut Fnv) {
    for n in [0, 1, 2, 3, 5, 8, 16, 48, 128] {
        let g = inp.vec(n * n);
        let s = Matrix::from_vec(
            n,
            n,
            (0..n * n).map(|k| g[k] + g[(k % n) * n + k / n]).collect(),
        )
        .unwrap();
        let e = eigen::eigen_sym(&s).unwrap();
        h.vals(&e.values);
        h.vals(e.vectors.as_slice());
    }
}

/// `(kernel, case, [scalar, AVX2+FMA, AVX-512F] hashes)`.
#[rustfmt::skip]
const GOLDEN: [(&str, Case, [u64; 3]); 15] = [
    ("dot", dot,                                           [0xba17_fd35_4a3b_03bc, 0x33cd_c044_537f_ada7, 0xf0f2_ca31_eedd_2931]),
    ("row_dots", row_dots,                                 [0xc9d8_dbe7_ab34_f05f, 0x02c9_53bc_da94_5b1b, 0xcbf6_c5c8_7795_31da]),
    ("block_dots", block_dots,                             [0xbe2d_7ff3_3531_d861, 0x7e96_7756_9205_159f, 0xb0d3_cf6d_b0d6_11bd]),
    ("dots4x4", dots4x4,                                   [0x9d0e_076e_7fe9_0f72, 0xe928_c3b3_c572_a543, 0xdf1f_67d4_0a91_69c6]),
    ("gemm4", gemm::<false>,                               [0x78d0_aa3f_5140_2b11, 0xd553_6ddf_348d_1e86, 0xd553_6ddf_348d_1e86]),
    ("gemm8", gemm::<true>,                                [0xa98b_491c_aa51_ee13, 0x3300_30f5_19ac_9880, 0x3300_30f5_19ac_9880]),
    ("gram4_upper", gram4_upper,                           [0x500d_c9f6_ab4e_4429, 0xc80e_9c42_6ee7_bf0e, 0xc80e_9c42_6ee7_bf0e]),
    ("axpy", axpy,                                         [0x41c1_be8b_f990_40a0, 0x863e_d04a_426f_86c5, 0x863e_d04a_426f_86c5]),
    ("axpy4", axpy4,                                       [0x8b15_0842_c437_14f1, 0xee97_d012_51fd_327c, 0xee97_d012_51fd_327c]),
    ("update_rows_dots rank-1", update_rows_dots::<false>, [0x6cfc_7ea8_22fb_97df, 0xbee3_ac3e_7fb8_79cc, 0xe14d_7082_bad1_b109]),
    ("update_rows_dots rank-2", update_rows_dots::<true>,  [0x4f74_78b4_1fdd_2c64, 0xfff9_c0c0_faca_2737, 0x40cc_6043_0da4_8f70]),
    ("max_abs_finite", max_abs_finite,                     [0x91ab_e93e_e278_c183, 0x91ab_e93e_e278_c183, 0x91ab_e93e_e278_c183]),
    ("rot", rot,                                           [0xb790_b530_25ba_b5db, 0x7318_1b6f_5627_b85b, 0xa623_4e61_47ab_7285]),
    ("svd::right_factor", right_factor,                    [0xcdfd_7301_07e6_ad3b, 0xa20d_f142_7b0a_709b, 0x992b_3ecb_3452_fbec]),
    ("eigen::eigen_sym", eigen_sym,                        [0xfb83_6276_ae53_4d7b, 0xc5a1_f32c_8ce7_96d1, 0xaae6_8685_6e87_ea5b]),
];

#[test]
fn every_kernel_is_pinned_bit_for_bit_on_every_tier() {
    let mut wrong = Vec::new();
    for tier in vecops::host_tiers() {
        for (seed, &(kernel, case, want)) in GOLDEN.iter().enumerate() {
            let got = vecops::at_tier(tier, || {
                let mut h = Fnv::new();
                case(&mut Inputs(seed as u64 + 1), &mut h);
                h.0
            });
            if got != want[usize::from(tier)] {
                let label = vecops::at_tier(tier, vecops::active_simd_tier);
                wrong.push(format!("{kernel} on {label}: {got:#018x}"));
            }
        }
    }
    assert!(wrong.is_empty(), "kernel bits moved:\n{}", wrong.join("\n"));
}

//! Property-based tests for the sketching substrate.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sketchad_linalg::power::gram_diff_spectral_norm;
use sketchad_linalg::Matrix;
use sketchad_sketch::wire::{ByteReader, ByteWriter};
use sketchad_sketch::{
    tree_merge, BlockWindowSketch, CountSketch, FrequentDirections, MatrixSketch, MergeableSketch,
    RandomProjection, RowSampling,
};

/// Strategy: a stream of rows with bounded entries.
fn stream_strategy(max_rows: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        prop::collection::vec(-20.0f64..20.0, dim..=dim),
        1..=max_rows,
    )
}

fn to_matrix(rows: &[Vec<f64>]) -> Matrix {
    Matrix::from_rows(rows).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The FD deterministic guarantee holds on arbitrary streams.
    #[test]
    fn fd_guarantee_on_arbitrary_streams(
        rows in stream_strategy(80, 6),
        ell in 2usize..8,
    ) {
        let a = to_matrix(&rows);
        let mut fd = FrequentDirections::new(ell, 6);
        for r in &rows {
            fd.update(r);
        }
        let err = gram_diff_spectral_norm(&a, &fd.sketch(), 150, 3);
        let bound = a.squared_frobenius_norm() / ell as f64;
        prop_assert!(err <= bound * (1.0 + 1e-8) + 1e-9,
            "err {} > bound {}", err, bound);
        // FD also never overestimates Frobenius mass.
        prop_assert!(fd.sketch().squared_frobenius_norm()
            <= a.squared_frobenius_norm() * (1.0 + 1e-9) + 1e-9);
    }

    /// All sketches track the exact stream Frobenius mass.
    #[test]
    fn frobenius_tracking_exact(rows in stream_strategy(40, 5)) {
        let a = to_matrix(&rows);
        let want = a.squared_frobenius_norm();
        let mut sketches: Vec<Box<dyn MatrixSketch>> = vec![
            Box::new(FrequentDirections::new(3, 5)),
            Box::new(RandomProjection::new(3, 5, 1)),
            Box::new(CountSketch::new(3, 5, 1, 1)),
            Box::new(RowSampling::new(3, 5, 1)),
        ];
        for s in &mut sketches {
            for r in &rows {
                s.update(r);
            }
            let got = s.stream_frobenius_sq();
            prop_assert!((got - want).abs() <= 1e-9 * want.max(1.0),
                "{}: {} vs {}", s.name(), got, want);
            prop_assert_eq!(s.rows_seen(), rows.len() as u64);
        }
    }

    /// Reset + replay is identical for every sketch (determinism).
    #[test]
    fn reset_replay_determinism(rows in stream_strategy(30, 4)) {
        let mut sketches: Vec<Box<dyn MatrixSketch>> = vec![
            Box::new(FrequentDirections::new(3, 4)),
            Box::new(RandomProjection::new(3, 4, 7)),
            Box::new(CountSketch::new(3, 4, 1, 7)),
            Box::new(RowSampling::new(3, 4, 7)),
        ];
        for s in &mut sketches {
            for r in &rows {
                s.update(r);
            }
            let first = s.sketch();
            s.reset();
            prop_assert_eq!(s.rows_seen(), 0);
            for r in &rows {
                s.update(r);
            }
            prop_assert_eq!(s.sketch(), first, "{} replay mismatch", s.name());
        }
    }

    /// Decay composes multiplicatively: decay(a) then decay(b) ==
    /// covariance scaled by a·b.
    #[test]
    fn decay_composes(
        rows in stream_strategy(20, 3),
        a in 0.1f64..1.0,
        b in 0.1f64..1.0,
    ) {
        let mut s1 = FrequentDirections::new(4, 3);
        let mut s2 = FrequentDirections::new(4, 3);
        for r in &rows {
            s1.update(r);
            s2.update(r);
        }
        s1.decay(a);
        s1.decay(b);
        s2.decay(a * b);
        let g1 = s1.sketch().gram();
        let g2 = s2.sketch().gram();
        let diff = g1.sub(&g2).unwrap().max_abs();
        prop_assert!(diff <= 1e-9 * g2.max_abs().max(1.0), "diff {}", diff);
    }

    /// The windowed sketch never reports more rows than the window length
    /// and its Gram mass is bounded by the covered sub-stream's mass.
    #[test]
    fn window_mass_bounded(
        rows in stream_strategy(120, 4),
        block in 3usize..10,
        nblocks in 2usize..5,
    ) {
        let inner = FrequentDirections::new(4, 4);
        let mut w = BlockWindowSketch::new(inner, block, nblocks);
        for r in &rows {
            w.update(r);
        }
        prop_assert!(w.rows_in_window() <= w.window_len());
        let a = to_matrix(&rows);
        let n = rows.len();
        let in_win = w.rows_in_window().min(n);
        let idx: Vec<usize> = (n - in_win..n).collect();
        let window_data = a.select_rows(&idx);
        let mass = w.sketch().squared_frobenius_norm();
        prop_assert!(mass <= window_data.squared_frobenius_norm() * (1.0 + 1e-9) + 1e-9,
            "window sketch mass {} exceeds data mass {}",
            mass, window_data.squared_frobenius_norm());
    }

    /// Sparse and dense update paths produce identical sketches for every
    /// implementation, including through the window combinator.
    #[test]
    fn sparse_dense_parity_everywhere(rows in stream_strategy(40, 5)) {
        use sketchad_linalg::SparseVec;
        let sparse_rows: Vec<SparseVec> =
            rows.iter().map(|r| SparseVec::from_dense(r)).collect();
        // FD
        let mut d1 = FrequentDirections::new(3, 5);
        let mut s1 = FrequentDirections::new(3, 5);
        // CountSketch
        let mut d2 = CountSketch::new(4, 5, 1, 9);
        let mut s2 = CountSketch::new(4, 5, 1, 9);
        // RandomProjection
        let mut d3 = RandomProjection::new(3, 5, 9);
        let mut s3 = RandomProjection::new(3, 5, 9);
        // CountSketch at s = 2 (sparse JL)
        let mut d4 = CountSketch::new(4, 5, 2, 9);
        let mut s4 = CountSketch::new(4, 5, 2, 9);
        // Windowed FD
        let mut d5 = BlockWindowSketch::new(FrequentDirections::new(3, 5), 7, 3);
        let mut s5 = BlockWindowSketch::new(FrequentDirections::new(3, 5), 7, 3);
        for (r, sr) in rows.iter().zip(sparse_rows.iter()) {
            d1.update(r); s1.update_sparse(sr);
            d2.update(r); s2.update_sparse(sr);
            d3.update(r); s3.update_sparse(sr);
            d4.update(r); s4.update_sparse(sr);
            d5.update(r); s5.update_sparse(sr);
        }
        prop_assert_eq!(d1.sketch(), s1.sketch(), "FD parity");
        prop_assert_eq!(d2.sketch(), s2.sketch(), "CS parity");
        prop_assert_eq!(d3.sketch(), s3.sketch(), "RP parity");
        prop_assert_eq!(d4.sketch(), s4.sketch(), "CS(s=2) parity");
        prop_assert_eq!(d5.sketch(), s5.sketch(), "window parity");
    }

    /// The online shrink certificate sandwiches the Gram deficit on
    /// arbitrary streams: 0 ⪯ AᵀA − BᵀB ⪯ Σδ·I, so for every probe x,
    /// 0 ≤ xᵀ(AᵀA − BᵀB)x ≤ shrink_delta_sum · ‖x‖². This is the invariant
    /// the amortized (2ℓ-buffered) shrink schedule must preserve.
    #[test]
    fn shrink_delta_sum_bounds_gram_deficit(
        rows in stream_strategy(80, 5),
        ell in 2usize..6,
    ) {
        let a = to_matrix(&rows);
        let mut fd = FrequentDirections::new(ell, 5);
        for r in &rows {
            fd.update(r);
        }
        let diff = a.gram().sub(&fd.sketch().gram()).unwrap();
        let delta = fd.shrink_delta_sum();
        let mass = a.squared_frobenius_norm();
        prop_assert!(delta >= 0.0);
        for p in 0..6usize {
            let x: Vec<f64> = (0..5).map(|i| ((i * 7 + p * 3 + 1) as f64).sin()).collect();
            let nx: f64 = x.iter().map(|v| v * v).sum();
            let dx = diff.matvec(&x);
            let quad: f64 = x.iter().zip(dx.iter()).map(|(u, v)| u * v).sum();
            // Underestimate side (gram_is_underestimate, now on arbitrary data)…
            prop_assert!(quad >= -1e-7 * (1.0 + mass), "probe {}: quad {}", p, quad);
            // …and the Σδ certificate dominates the deficit.
            prop_assert!(quad <= delta * nx * (1.0 + 1e-8) + 1e-7 * (1.0 + mass),
                "probe {}: quad {} exceeds Σδ·‖x‖² = {}", p, quad, delta * nx);
        }
    }

    /// FD merge equals feeding the concatenated stream, up to the FD error
    /// bound on the concatenation.
    #[test]
    fn fd_merge_respects_combined_bound(
        a_rows in stream_strategy(40, 4),
        b_rows in stream_strategy(40, 4),
        ell in 2usize..6,
    ) {
        let mut fd_a = FrequentDirections::new(ell, 4);
        let mut fd_b = FrequentDirections::new(ell, 4);
        for r in &a_rows { fd_a.update(r); }
        for r in &b_rows { fd_b.update(r); }
        fd_a.merge(&fd_b);
        let all = to_matrix(&a_rows.iter().chain(b_rows.iter()).cloned().collect::<Vec<_>>());
        let err = gram_diff_spectral_norm(&all, &fd_a.sketch(), 150, 2);
        let bound = all.squared_frobenius_norm() / ell as f64;
        prop_assert!(err <= bound * (1.0 + 1e-8) + 1e-9, "err {} > bound {}", err, bound);
        prop_assert_eq!(fd_a.rows_seen(), (a_rows.len() + b_rows.len()) as u64);
    }

    /// FD merge is associative *up to the error bound*: `(a⊕b)⊕c` and
    /// `a⊕(b⊕c)` both satisfy the `‖AᵀA − BᵀB‖₂ ≤ Σδ ≤ ‖A‖_F²/ℓ` covariance
    /// guarantee against the same concatenated stream — and so does plain
    /// sequential insertion of the whole stream. (The sketches themselves
    /// may differ rotation-wise; the *bound* is what merge preserves.)
    #[test]
    fn fd_merge_associative_up_to_error_bound(
        a_rows in stream_strategy(30, 4),
        b_rows in stream_strategy(30, 4),
        c_rows in stream_strategy(30, 4),
        ell in 2usize..6,
    ) {
        let build = |rows: &[Vec<f64>]| {
            let mut fd = FrequentDirections::new(ell, 4);
            for r in rows { fd.update(r); }
            fd
        };
        // (a ⊕ b) ⊕ c
        let mut left = build(&a_rows);
        left.merge_from(&build(&b_rows));
        left.merge_from(&build(&c_rows));
        // a ⊕ (b ⊕ c)
        let mut bc = build(&b_rows);
        bc.merge_from(&build(&c_rows));
        let mut right = build(&a_rows);
        right.merge_from(&bc);
        // sequential insertion of the same concatenated stream
        let all_rows: Vec<Vec<f64>> = a_rows.iter()
            .chain(b_rows.iter())
            .chain(c_rows.iter())
            .cloned()
            .collect();
        let sequential = build(&all_rows);

        let all = to_matrix(&all_rows);
        let global_bound = all.squared_frobenius_norm() / ell as f64;
        for (label, fd) in [("(a⊕b)⊕c", &left), ("a⊕(b⊕c)", &right), ("sequential", &sequential)] {
            prop_assert_eq!(fd.rows_seen(), all_rows.len() as u64, "{} rows_seen", label);
            let err = gram_diff_spectral_norm(&all, &fd.sketch(), 150, 4);
            prop_assert!(err <= fd.shrink_delta_sum() * (1.0 + 1e-6) + 1e-7,
                "{}: err {} exceeds its Σδ certificate {}", label, err, fd.shrink_delta_sum());
            prop_assert!(err <= global_bound * (1.0 + 1e-8) + 1e-9,
                "{}: err {} > ‖A‖_F²/ℓ = {}", label, err, global_bound);
        }
    }

    /// Multi-way hierarchical tree merge of N shard FDs satisfies the same
    /// Σδ covariance guarantee as one sketch fed the whole stream.
    #[test]
    fn fd_tree_merge_preserves_error_bound(
        rows in stream_strategy(96, 5),
        ell in 2usize..6,
        shards in 2usize..6,
    ) {
        let chunk = rows.len().div_ceil(shards);
        let parts: Vec<FrequentDirections> = rows
            .chunks(chunk)
            .map(|c| {
                let mut fd = FrequentDirections::new(ell, 5);
                for r in c { fd.update(r); }
                fd
            })
            .collect();
        let merged = tree_merge(parts).unwrap();
        prop_assert_eq!(merged.rows_seen(), rows.len() as u64);
        let a = to_matrix(&rows);
        let err = gram_diff_spectral_norm(&a, &merged.sketch(), 150, 5);
        prop_assert!(err <= merged.shrink_delta_sum() * (1.0 + 1e-6) + 1e-7,
            "tree merge err {} exceeds Σδ {}", err, merged.shrink_delta_sum());
        let bound = a.squared_frobenius_norm() / ell as f64;
        prop_assert!(err <= bound * (1.0 + 1e-8) + 1e-9,
            "tree merge err {} > global bound {}", err, bound);
    }

    /// Linear-sketch merge is matrix addition: tree-merging shard sketches
    /// built on independent seeds (the sharded-serving layout) gives the
    /// elementwise sum of the shard matrices, with `rows_seen` and
    /// `stream_frobenius_sq` summed.
    #[test]
    fn linear_tree_merge_sums_independent_shards(
        rows in stream_strategy(60, 4),
        shards in 2usize..5,
    ) {
        fn shard_sketches<S: MatrixSketch>(
            rows: &[Vec<f64>],
            shards: usize,
            make: impl Fn(u64) -> S,
        ) -> Vec<S> {
            rows.chunks(rows.len().div_ceil(shards))
                .zip(17u64..)
                .map(|(chunk, seed)| {
                    let mut s = make(seed);
                    for r in chunk {
                        s.update(r);
                    }
                    s
                })
                .collect()
        }
        fn check<S: MergeableSketch>(
            label: &str,
            parts: Vec<S>,
            n: usize,
        ) -> Result<(), TestCaseError> {
            let mut sum = Matrix::zeros(parts[0].capacity(), parts[0].dim());
            let mut frob = 0.0;
            for p in &parts {
                sum = sum.add(&p.sketch()).unwrap();
                frob += p.stream_frobenius_sq();
            }
            let merged = tree_merge(parts).unwrap();
            let diff = merged.sketch().sub(&sum).unwrap().max_abs();
            prop_assert!(diff <= 1e-9 * sum.max_abs().max(1.0),
                "{} merge residue {}", label, diff);
            prop_assert_eq!(merged.rows_seen(), n as u64, "{} rows_seen", label);
            prop_assert!((merged.stream_frobenius_sq() - frob).abs() <= 1e-9 * frob.max(1.0),
                "{} frobenius {} vs {}", label, merged.stream_frobenius_sq(), frob);
            Ok(())
        }
        let n = rows.len();
        let cs = |s| move |seed| CountSketch::new(6, 4, s, seed);
        check("CS", shard_sketches(&rows, shards, cs(1)), n)?;
        check("CS(s=2)", shard_sketches(&rows, shards, cs(2)), n)?;
        let rp = |seed| RandomProjection::new(4, 4, seed);
        check("RP", shard_sketches(&rows, shards, rp), n)?;
    }

    /// Persistence round-trip: encode a sketch mid-stream, decode into a
    /// fresh instance, feed both the same suffix — sketches stay **bitwise**
    /// identical (RP's RNG replay included), which is what makes WAL replay
    /// deterministic.
    #[test]
    fn state_roundtrip_is_bitwise_for_all_sketches(
        prefix in stream_strategy(25, 4),
        suffix in stream_strategy(25, 4),
    ) {
        fn roundtrip<S: MatrixSketch>(
            mut live: S,
            mut fresh: S,
            prefix: &[Vec<f64>],
            suffix: &[Vec<f64>],
        ) -> Result<(), TestCaseError> {
            for r in prefix {
                live.update(r);
            }
            let mut w = ByteWriter::new();
            prop_assert!(live.encode_state(&mut w), "{} must support persistence", live.name());
            let bytes = w.into_vec();
            let mut r = ByteReader::new(&bytes);
            prop_assert!(fresh.decode_state(&mut r).unwrap(), "{} decode", fresh.name());
            prop_assert!(r.is_exhausted(), "{} left trailing bytes", fresh.name());
            for row in suffix {
                live.update(row);
                fresh.update(row);
            }
            prop_assert_eq!(live.sketch(), fresh.sketch(), "{} diverged after restore", live.name());
            prop_assert_eq!(live.rows_seen(), fresh.rows_seen());
            prop_assert_eq!(
                live.stream_frobenius_sq().to_bits(),
                fresh.stream_frobenius_sq().to_bits()
            );
            Ok(())
        }
        roundtrip(
            FrequentDirections::new(3, 4),
            FrequentDirections::new(3, 4),
            &prefix,
            &suffix,
        )?;
        roundtrip(
            RandomProjection::new(3, 4, 11),
            RandomProjection::new(3, 4, 11),
            &prefix,
            &suffix,
        )?;
        roundtrip(
            CountSketch::new(4, 4, 1, 13),
            CountSketch::new(4, 4, 1, 13),
            &prefix,
            &suffix,
        )?;
        roundtrip(
            CountSketch::new(5, 4, 2, 19),
            CountSketch::new(5, 4, 2, 19),
            &prefix,
            &suffix,
        )?;
    }
}

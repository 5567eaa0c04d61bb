//! Byte-for-byte pins of every binary format the workspace writes: the
//! `.rows` stream format (in memory and through `RowsWriter`), the WAL
//! segment header, the `.skad` snapshot, and the `save_state` payloads of
//! the FD, CountSketch and RandomProjection detectors (WAL frames are
//! pinned in `wal.rs`). A refactor of the codecs must keep every hash.
//!
//! The hashes are FNV-1a 64 computed here, independent of the
//! `checksum64` the formats themselves carry. Detector payloads hold
//! sketch and model values computed on the linalg kernels, whose bits are
//! per dispatch tier, so each tier has its own hashes; a tier with none
//! recorded (no AVX2-only host was at hand) checks only that the payload
//! restores and re-saves to itself.

use sketchad_core::rowfmt::{encode_rows, RowsWriter};
use sketchad_core::{DetectorConfig, RefreshPolicy, StreamingDetector, UpdatePolicy};
use sketchad_durable::snapshot::encode_snapshot;
use sketchad_durable::wal::encode_wal_header;
use sketchad_durable::{Snapshot, WalHeader};
use sketchad_linalg::vecops::active_simd_tier;

/// FNV-1a 64 over `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Records in `moved` each output whose hash is not `golden`, so one run
/// reports every moved output, not only the first.
fn check(moved: &mut Vec<String>, what: &str, bytes: &[u8], golden: u64) {
    let hash = fnv(bytes);
    if hash != golden {
        moved.push(format!("{what}: {hash:#018x}, pinned {golden:#018x}"));
    }
}

const DIM: usize = 6;

/// Row `i` of a fixed stream: a rank-2 signal plus a small ripple, with
/// every fifth row pushed off the signal plane.
fn row(i: usize) -> Vec<f64> {
    let t = i as f64;
    let (a, b) = ((0.37 * t).sin(), (0.11 * t).cos());
    (0..DIM)
        .map(|j| {
            let j = j as f64;
            let off = if i % 5 == 4 { 2.5 * (j - 2.0) } else { 0.0 };
            a * (1.0 + j) - b * (0.5 * j - 1.0) + 0.01 * (t * j).sin() + off
        })
        .collect()
}

#[test]
fn rows_files_are_pinned_byte_for_byte() {
    let rows: Vec<Vec<f64>> = (0..7)
        .map(row)
        .chain([vec![-0.0, f64::MIN_POSITIVE, 1e300, -2.5, f64::NAN, 0.125]])
        .collect();
    let keys: Vec<u64> = (0..rows.len() as u64)
        .map(|i| (i * 0x9e37_79b9) ^ (u64::MAX - i))
        .collect();
    let dir = std::env::temp_dir().join(format!("skad-golden-bytes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut moved = Vec::new();
    for (keys, golden) in [
        (Some(&keys[..]), 0xa205_b0fd_1e30_dd3a),
        (None, 0x3797_5194_b347_31f8),
    ] {
        let bytes = encode_rows(&rows, keys).unwrap();
        let what = if keys.is_some() { "keyed" } else { "unkeyed" };
        check(&mut moved, &format!("encode_rows {what}"), &bytes, golden);
        let path = dir.join(format!("{what}.rows"));
        let mut w = RowsWriter::create(&path, DIM, keys.is_some()).unwrap();
        for (i, r) in rows.iter().enumerate() {
            w.write_row(r, keys.map(|k| k[i])).unwrap();
        }
        assert_eq!(w.finish().unwrap(), rows.len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "RowsWriter {what}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

#[test]
fn wal_header_and_snapshot_are_pinned_byte_for_byte() {
    let header = encode_wal_header(&WalHeader {
        shard: 3,
        start_seq: 0x0123_4567_89ab_cdef,
    });
    assert_eq!(header.len(), 25);
    let mut moved = Vec::new();
    check(&mut moved, "WAL header", &header, 0x1b30_b965_793c_1a86);
    let snapshot = encode_snapshot(&Snapshot {
        generation: 42,
        shard: 7,
        seq: 1_000_003,
        payload: (0..=255u8).chain(0..13).collect(),
    });
    check(&mut moved, "snapshot", &snapshot, 0x63d7_2e2a_0e62_cf4e);
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

#[test]
fn detector_payloads_are_pinned_byte_for_byte() {
    let tier = active_simd_tier();
    let periodic = DetectorConfig::new(2, 4)
        .with_warmup(16)
        .with_refresh(RefreshPolicy::Periodic { period: 8 })
        .with_seed(0x5eed_0042);
    let skipping = periodic.with_update_policy(UpdatePolicy::SkipAnomalous { quantile: 0.9 });
    type Build = fn(&DetectorConfig) -> Box<dyn StreamingDetector>;
    /// FNV-1a 64 per case, per tier.
    type Pinned = [(&'static str, [u64; 3]); 2];
    // `(name, rows processed)`: the model is first built at row 17.
    let cases = [
        ("before the first model", 10),
        ("after refreshes", 60),
        ("score quantile on", 60),
    ];
    // `(sketch, builder, [(tier, FNV-1a 64 per case)])`.
    let goldens: [(&str, Build, Pinned); 3] = [
        (
            "fd",
            |c| Box::new(c.build_fd(DIM)),
            [
                (
                    "avx512f",
                    [
                        0x772f_7b2b_4d43_c6f1,
                        0x3101_666c_7e7f_70a0,
                        0xccfe_c4b2_909d_fd46,
                    ],
                ),
                (
                    "scalar",
                    [
                        0x31e9_7722_b386_3c43,
                        0x621a_e7e3_516b_7655,
                        0xf1ef_4146_9d1b_1e48,
                    ],
                ),
            ],
        ),
        (
            "cs",
            |c| Box::new(c.build_cs(DIM)),
            [
                (
                    "avx512f",
                    [
                        0x264c_baaa_8a87_d4bc,
                        0xc7f0_567f_411e_429b,
                        0x35a8_aec4_8ede_2cf7,
                    ],
                ),
                (
                    "scalar",
                    [
                        0x264c_baaa_8a87_d4bc,
                        0xb01e_fd9a_8d70_56d4,
                        0x7dec_32b9_3d14_57f2,
                    ],
                ),
            ],
        ),
        (
            "rp",
            |c| Box::new(c.build_rp(DIM)),
            [
                (
                    "avx512f",
                    [
                        0x3639_e7f7_6d39_07a2,
                        0x0f46_05c7_b37d_e040,
                        0x6fbc_af01_0f3e_eadf,
                    ],
                ),
                (
                    "scalar",
                    [
                        0x3639_e7f7_6d39_07a2,
                        0xe576_9b1b_5208_48a3,
                        0x6fbc_af01_0f3e_eadf,
                    ],
                ),
            ],
        ),
    ];
    let mut moved = Vec::new();
    for (sketch, build, hashes) in goldens {
        let pinned = hashes.iter().find(|(t, _)| *t == tier).map(|(_, h)| h);
        for (c, (case, n)) in cases.into_iter().enumerate() {
            let config = if c == 2 { &skipping } else { &periodic };
            let mut det = build(config);
            for i in 0..n {
                det.process(&row(i));
            }
            assert_eq!(det.current_model().is_some(), n > 16, "{sketch} {case}");
            let mut payload = Vec::new();
            assert!(det.save_state(&mut payload), "{sketch} {case}");
            if let Some(golden) = pinned {
                check(
                    &mut moved,
                    &format!("{sketch} {case} on {tier}"),
                    &payload,
                    golden[c],
                );
            }
            // The payload restores into a fresh detector that saves it back.
            let mut restored = build(config);
            assert!(restored.restore_state(&payload).unwrap(), "{sketch} {case}");
            let mut again = Vec::new();
            assert!(restored.save_state(&mut again));
            assert_eq!(again, payload, "{sketch} {case}: restore then save");
        }
    }
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

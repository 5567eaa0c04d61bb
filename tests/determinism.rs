//! Reproducibility: every pipeline component is deterministic under its
//! seed — the property all experiment artifacts rely on.

use sketchad_core::{DetectorConfig, StreamingDetector};
use sketchad_streams::{standard_datasets, synth_drift, DatasetScale};

fn scores_of(
    det: &mut dyn StreamingDetector,
    stream: &sketchad_streams::LabeledStream,
) -> Vec<f64> {
    let mut scores = Vec::with_capacity(stream.len());
    for (v, _) in stream.iter() {
        scores.push(det.process(v));
    }
    scores
}

#[test]
fn datasets_regenerate_identically() {
    let a = standard_datasets(DatasetScale::Small);
    let b = standard_datasets(DatasetScale::Small);
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x, y, "{} differs between generations", x.name);
    }
    assert_eq!(
        synth_drift(DatasetScale::Small),
        synth_drift(DatasetScale::Small)
    );
}

#[test]
fn detectors_are_bitwise_reproducible() {
    let stream = standard_datasets(DatasetScale::Small).remove(0);
    let cfg = DetectorConfig::new(5, 32).with_warmup(100).with_seed(1234);

    let mut fd1 = cfg.build_fd(stream.dim);
    let mut fd2 = cfg.build_fd(stream.dim);
    assert_eq!(scores_of(&mut fd1, &stream), scores_of(&mut fd2, &stream));

    let mut rp1 = cfg.build_rp(stream.dim);
    let mut rp2 = cfg.build_rp(stream.dim);
    assert_eq!(scores_of(&mut rp1, &stream), scores_of(&mut rp2, &stream));

    let mut cs1 = cfg.build_cs(stream.dim);
    let mut cs2 = cfg.build_cs(stream.dim);
    assert_eq!(scores_of(&mut cs1, &stream), scores_of(&mut cs2, &stream));

    let mut rs1 = cfg.build_rs(stream.dim);
    let mut rs2 = cfg.build_rs(stream.dim);
    assert_eq!(scores_of(&mut rs1, &stream), scores_of(&mut rs2, &stream));
}

#[test]
fn different_seeds_change_randomized_but_not_deterministic_arms() {
    let stream = standard_datasets(DatasetScale::Small).remove(0);
    let cfg_a = DetectorConfig::new(5, 32).with_warmup(100).with_seed(1);
    let cfg_b = DetectorConfig::new(5, 32).with_warmup(100).with_seed(2);

    // FD is deterministic: seed must not matter.
    let mut fd_a = cfg_a.build_fd(stream.dim);
    let mut fd_b = cfg_b.build_fd(stream.dim);
    assert_eq!(scores_of(&mut fd_a, &stream), scores_of(&mut fd_b, &stream));

    // RP is randomized: seeds must matter.
    let mut rp_a = cfg_a.build_rp(stream.dim);
    let mut rp_b = cfg_b.build_rp(stream.dim);
    assert_ne!(scores_of(&mut rp_a, &stream), scores_of(&mut rp_b, &stream));
}

#[test]
fn windowed_detector_is_reproducible() {
    let stream = synth_drift(DatasetScale::Small);
    let cfg = DetectorConfig::new(4, 24).with_warmup(100);
    let mut w1 = cfg.build_windowed_fd(stream.dim, 50, 4);
    let mut w2 = cfg.build_windowed_fd(stream.dim, 50, 4);
    assert_eq!(scores_of(&mut w1, &stream), scores_of(&mut w2, &stream));
}

#[test]
fn csv_roundtrip_preserves_detector_output() {
    let stream = standard_datasets(DatasetScale::Small)
        .remove(0)
        .truncated(500);
    let mut path = std::env::temp_dir();
    path.push(format!("sketchad-determinism-{}.csv", std::process::id()));
    sketchad_streams::io::write_csv(&stream, &path).unwrap();
    let reloaded = sketchad_streams::io::read_csv(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let cfg = DetectorConfig::new(5, 16).with_warmup(100);
    let mut d1 = cfg.build_fd(stream.dim);
    let mut d2 = cfg.build_fd(reloaded.dim);
    let s1 = scores_of(&mut d1, &stream);
    let s2 = scores_of(&mut d2, &reloaded);
    // CSV uses exact f64 display formatting, so the roundtrip is lossless
    // and the scores are bitwise identical.
    assert_eq!(s1, s2);
}

/// FNV-1a 64 over a file's bytes.
fn file_hash(path: &std::path::Path) -> u64 {
    std::fs::read(path)
        .expect("read the written file")
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn flat_spectrum_streams_are_pinned_byte_for_byte() {
    // Two of the benchmark's inputs as its set-up writes them: the stream
    // of `(workload, --seed 1)` as a keyed `.rows` file. The hashes were
    // taken before the generator learned other spectra; a change to the
    // flat stream would move the benchmark's inputs and its `setup_s`.
    // Generation runs on the linalg kernels, whose bits are per dispatch
    // tier, so each tier has its own hashes; a tier with none recorded
    // (no AVX2-only host was at hand) checks only that the file exists.
    use sketchad_core::rowfmt::RowsWriter;
    use sketchad_linalg::vecops::active_simd_tier;
    use sketchad_streams::{generate_low_rank_stream, AnomalyKind, LowRankStreamConfig};
    let dir = std::env::temp_dir().join(format!("skad-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    struct Input {
        workload: &'static str,
        rows: usize,
        d: usize,
        rank: usize,
        noise_sigma: f64,
        anomaly_rate: f64,
        /// `(tier, FNV-1a 64 of the file)`.
        goldens: [(&'static str, u64); 2],
    }
    let cases = [
        Input {
            workload: "fd_narrow",
            rows: 32_768,
            d: 48,
            rank: 6,
            noise_sigma: 0.9,
            anomaly_rate: 0.06,
            goldens: [
                ("avx512f", 0xd646_deb0_bcda_46e9),
                ("scalar", 0x740d_69aa_4c38_27fe),
            ],
        },
        Input {
            workload: "ingest_cheap",
            rows: 65_536,
            d: 8,
            rank: 2,
            noise_sigma: 0.5,
            anomaly_rate: 0.02,
            goldens: [
                ("avx512f", 0xdd7f_4b5c_4186_f47e),
                ("scalar", 0x7c40_1923_98fb_be31),
            ],
        },
    ];
    let tier = active_simd_tier();
    for case in cases {
        let (name, d) = (case.workload, case.d);
        let stream = generate_low_rank_stream(LowRankStreamConfig {
            n: case.rows,
            d,
            k: case.rank,
            signal_scale: 3.0,
            noise_sigma: case.noise_sigma,
            anomaly_rate: case.anomaly_rate,
            anomaly_scale: 1.0,
            anomaly_kind: AnomalyKind::OffSubspace,
            seed: sketchad_eval::matrix::cell_seed(&format!("{name}/1")),
        });
        let path = dir.join(format!("{name}.rows"));
        let mut out = RowsWriter::create(&path, d, true).unwrap();
        for p in &stream.points {
            out.write_row(&p.values, Some(u64::from(p.is_anomaly)))
                .unwrap();
        }
        out.finish().unwrap();
        let hash = file_hash(&path);
        if let Some(&(_, golden)) = case.goldens.iter().find(|(t, _)| *t == tier) {
            assert_eq!(hash, golden, "{name} on {tier}: {hash:#018x}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
